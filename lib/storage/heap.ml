(** Slotted-page record heap with overflow (blob) chains.

    Records are byte strings addressed by a [rid] (page number, slot
    index).  Small records live inline in slotted heap pages; records
    larger than {!inline_threshold} are stored in a chain of dedicated
    blob pages and the heap slot holds a 12-byte pointer record.

    Heap page layout:
    {v
      off 0 : u8  kind (= 2)
      off 1 : u16 nslots
      off 3 : u16 free_start   (first free byte after records)
      off 5 : u16 free_end     (last free byte, before slot array)
      7 .. free_start-1        record bytes
      free_end .. page_capacity-1  slot array, growing downwards
    v}
    The page's last {!Pager.trailer_size} bytes (from [page_capacity])
    belong to the pager's checksum trailer and are never used here.
    Each slot is 4 bytes: [u16 off; u16 len].  A dead slot has off
    0xFFFF (len 0 is a valid empty record).
    A blob-pointer slot has the high bit of len set (stored len 12).

    Blob page layout: [u8 kind (= 4); u32 next_page; u16 len; data]. *)

exception Heap_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Heap_error s)) fmt

type rid = { page : int; slot : int }

let rid_equal a b = a.page = b.page && a.slot = b.slot
let pp_rid ppf r = Format.fprintf ppf "(%d,%d)" r.page r.slot

let kind_heap = 2
let kind_blob = 4
let header_size = 7
let slot_size = 4
let blob_header = 7
let blob_capacity = Pager.page_capacity - blob_header
let inline_threshold = 3500
let blob_ptr_len = 12
let len_blob_flag = 0x8000
let dead_off = 0xFFFF

(** Page allocation callbacks, provided by the store (which owns the
    free-page list in the header). *)
type page_alloc = { alloc_page : unit -> int; free_page : int -> unit }

(** In-memory free-space map: a max tree over page numbers.  Leaf
    [cap + p] holds heap page [p]'s reclaimable free bytes (0 for pages
    the map has not seen, which count as full); each inner node holds
    the larger of its two children.  Setting a page and finding the
    lowest page with at least [n] free bytes both walk one root-to-leaf
    path: O(log pages), allocation-free except when the tree doubles. *)
module Space = struct
  type t = { mutable cap : int; mutable tree : int array }

  let create () = { cap = 1; tree = Array.make 2 0 }

  let grow s page =
    let cap = ref s.cap in
    while !cap <= page do
      cap := 2 * !cap
    done;
    let cap = !cap and old = s.tree in
    let tree = Array.make (2 * cap) 0 in
    Array.blit old s.cap tree cap s.cap;
    for i = cap - 1 downto 1 do
      tree.(i) <- max tree.(2 * i) tree.((2 * i) + 1)
    done;
    s.cap <- cap;
    s.tree <- tree

  let set s page free =
    if page >= s.cap then grow s page;
    let tree = s.tree in
    let i = ref (s.cap + page) in
    tree.(!i) <- free;
    while !i > 1 do
      i := !i / 2;
      tree.(!i) <- max tree.(2 * !i) tree.((2 * !i) + 1)
    done

  (** The lowest page with at least [need] free bytes, or -1. *)
  let first_fit s need =
    let tree = s.tree in
    if tree.(1) < need then -1
    else begin
      let i = ref 1 in
      while !i < s.cap do
        i := if tree.(2 * !i) >= need then 2 * !i else (2 * !i) + 1
      done;
      !i - s.cap
    end
end

type t = {
  pager : Pager.t;
  pa : page_alloc;
  (* Free bytes per heap page.  Built lazily from the pages this process
     writes; pages it has not seen are assumed full, which merely costs
     some space reuse across restarts. *)
  space : Space.t;
  scratch : Bytes.t; (* compaction copy of one page's record area *)
}

let create pager pa =
  { pager; pa; space = Space.create (); scratch = Bytes.create Pager.page_size }

(* --- page accessors ------------------------------------------------- *)

let get_nslots b = Bytes.get_uint16_le b 1
let set_nslots b v = Bytes.set_uint16_le b 1 v
let get_free_start b = Bytes.get_uint16_le b 3
let set_free_start b v = Bytes.set_uint16_le b 3 v
let get_free_end b = Bytes.get_uint16_le b 5
let set_free_end b v = Bytes.set_uint16_le b 5 v
let slot_pos i = Pager.page_capacity - (slot_size * (i + 1))
let slot_off b i = Bytes.get_uint16_le b (slot_pos i)
let slot_len b i = Bytes.get_uint16_le b (slot_pos i + 2)

let set_slot b i ~off ~len =
  Bytes.set_uint16_le b (slot_pos i) off;
  Bytes.set_uint16_le b (slot_pos i + 2) len

let init_heap_page b =
  Bytes.fill b 0 Pager.page_size '\000';
  Bytes.set_uint8 b 0 kind_heap;
  set_nslots b 0;
  set_free_start b header_size;
  set_free_end b Pager.page_capacity

let page_contiguous_free b =
  let fe = get_free_end b and fs = get_free_start b in
  if fe >= fs then fe - fs else 0

(* Total reclaimable free space: contiguous space plus holes left by
   deleted or shrunk records (recoverable by compaction). *)
let page_total_free b =
  let nslots = get_nslots b in
  let live = ref 0 in
  for i = 0 to nslots - 1 do
    if slot_off b i <> dead_off then live := !live + (slot_len b i land lnot len_blob_flag)
  done;
  Pager.page_capacity - header_size - (slot_size * nslots) - !live

(* --- blob chains ---------------------------------------------------- *)

let write_blob t (data : string) : int =
  let len = String.length data in
  let n_pages = max 1 ((len + blob_capacity - 1) / blob_capacity) in
  let pages = List.init n_pages (fun _ -> t.pa.alloc_page ()) in
  let rec go pages off =
    match pages with
    | [] -> ()
    | p :: rest ->
        let chunk = min blob_capacity (len - off) in
        Pager.with_write t.pager p (fun b ->
            Bytes.fill b 0 Pager.page_size '\000';
            Bytes.set_uint8 b 0 kind_blob;
            let next = match rest with [] -> 0 | q :: _ -> q in
            Bytes.set_int32_le b 1 (Int32.of_int next);
            Bytes.set_uint16_le b 5 chunk;
            Bytes.blit_string data off b blob_header chunk);
        go rest (off + chunk)
  in
  go pages 0;
  List.hd pages

let read_blob t first total_len : string =
  let buf = Buffer.create total_len in
  let rec go page =
    if page <> 0 then begin
      let b = Pager.read t.pager page in
      if Bytes.get_uint8 b 0 <> kind_blob then fail "blob chain hits non-blob page %d" page;
      let next = Int32.to_int (Bytes.get_int32_le b 1) in
      let len = Bytes.get_uint16_le b 5 in
      Buffer.add_subbytes buf b blob_header len;
      go next
    end
  in
  go first;
  let s = Buffer.contents buf in
  if String.length s <> total_len then
    fail "blob length mismatch: expected %d got %d" total_len (String.length s);
  s

let free_blob t first =
  let rec go page =
    if page <> 0 then begin
      let next =
        let b = Pager.read t.pager page in
        Int32.to_int (Bytes.get_int32_le b 1)
      in
      t.pa.free_page page;
      go next
    end
  in
  go first

(* --- slotted page operations ---------------------------------------- *)

(* Compact a heap page in place: repack live records, in slot order, to
   remove holes.  The record area is copied to [scratch] first. *)
let compact_page ~scratch b =
  Bytes.blit b 0 scratch 0 (get_free_start b);
  let pos = ref header_size in
  for i = 0 to get_nslots b - 1 do
    let off = slot_off b i in
    if off <> dead_off then begin
      let len = slot_len b i in
      let real_len = len land lnot len_blob_flag in
      Bytes.blit scratch off b !pos real_len;
      set_slot b i ~off:!pos ~len;
      pos := !pos + real_len
    end
  done;
  set_free_start b !pos

(* The first slot that is live ([~live:true]) or dead, or [nslots] if
   there is none. *)
let first_slot b ~live =
  let nslots = get_nslots b in
  let i = ref 0 in
  while !i < nslots && (slot_off b !i <> dead_off) <> live do
    incr i
  done;
  !i

let insert_into_page t page (payload : string) (len_field : int) : rid =
  let slot_ref = ref (-1) in
  Pager.with_write t.pager page (fun b ->
      let need = String.length payload in
      let slot = first_slot b ~live:false (* reuse a dead slot, or append *) in
      let extra = if slot = get_nslots b then slot_size else 0 in
      if page_total_free b < need + extra then fail "insert_into_page: no space";
      (* ensure contiguous space *)
      if page_contiguous_free b < need + extra then compact_page ~scratch:t.scratch b;
      let off = get_free_start b in
      Bytes.blit_string payload 0 b off need;
      set_free_start b (off + need);
      if extra > 0 then begin
        set_nslots b (get_nslots b + 1);
        set_free_end b (get_free_end b - slot_size)
      end;
      set_slot b slot ~off ~len:len_field;
      slot_ref := slot;
      Space.set t.space page (page_total_free b));
  { page; slot = !slot_ref }

(* First fit: the lowest-numbered page known to have room for the record
   and a new slot, else a fresh page. *)
let find_page_with_space t need =
  let p = Space.first_fit t.space (need + slot_size) in
  if p >= 0 then p
  else begin
    let p = t.pa.alloc_page () in
    Pager.with_write t.pager p (fun b -> init_heap_page b);
    Space.set t.space p (Pager.page_capacity - header_size);
    p
  end

(* --- public record operations --------------------------------------- *)

let encode_blob_ptr first total =
  let e = Codec.Enc.create ~size:blob_ptr_len () in
  Codec.Enc.u32 e first;
  Codec.Enc.u32 e total;
  Codec.Enc.u32 e 0;
  Codec.Enc.to_string e

let insert t (data : string) : rid =
  let len = String.length data in
  if len <= inline_threshold then begin
    let page = find_page_with_space t len in
    insert_into_page t page data len
  end
  else begin
    let first = write_blob t data in
    let ptr = encode_blob_ptr first len in
    let page = find_page_with_space t blob_ptr_len in
    insert_into_page t page ptr (blob_ptr_len lor len_blob_flag)
  end

let get t (r : rid) : string =
  let b = Pager.read t.pager r.page in
  if Bytes.get_uint8 b 0 <> kind_heap then fail "rid %a points to non-heap page" pp_rid r;
  if r.slot >= get_nslots b then fail "rid %a: slot out of range" pp_rid r;
  let off = slot_off b r.slot and len = slot_len b r.slot in
  if off = dead_off then fail "rid %a: dead slot" pp_rid r;
  if len land len_blob_flag <> 0 then begin
    (* decode the 8-byte blob pointer in place; this is the record-fetch
       hot path, so avoid the Dec cursor's intermediate sub_string *)
    let first = Int32.to_int (Bytes.get_int32_le b off) land 0xffffffff in
    let total = Int32.to_int (Bytes.get_int32_le b (off + 4)) land 0xffffffff in
    read_blob t first total
  end
  else Bytes.sub_string b off len

let delete t (r : rid) : unit =
  Pager.with_write t.pager r.page (fun b ->
      if Bytes.get_uint8 b 0 <> kind_heap then fail "delete %a: non-heap page" pp_rid r;
      let off = slot_off b r.slot in
      if off = dead_off then fail "delete %a: dead slot" pp_rid r;
      if slot_len b r.slot land len_blob_flag <> 0 then begin
        let first = Int32.to_int (Bytes.get_int32_le b off) land 0xffffffff in
        free_blob t first
      end;
      set_slot b r.slot ~off:dead_off ~len:0;
      (* If this was the last record we can reset the page cheaply. *)
      if first_slot b ~live:true = get_nslots b then init_heap_page b;
      Space.set t.space r.page (page_total_free b))

(** Update record [r] with [data]; returns the (possibly new) rid. *)
let update t (r : rid) (data : string) : rid =
  let b = Pager.read t.pager r.page in
  let off = slot_off b r.slot and len = slot_len b r.slot in
  if off = dead_off then fail "update %a: dead slot" pp_rid r;
  let is_blob = len land len_blob_flag <> 0 in
  let new_len = String.length data in
  if (not is_blob) && new_len <= len then begin
    (* fits in place *)
    Pager.with_write t.pager r.page (fun b ->
        Bytes.blit_string data 0 b off new_len;
        set_slot b r.slot ~off ~len:new_len;
        Space.set t.space r.page (page_total_free b));
    r
  end
  else begin
    delete t r;
    insert t data
  end

(** Structural validation of one heap page, used by [Store.check]
    after crash recovery.  Verifies the header bounds, the exact
    free-end/slot-array accounting, and that every live slot's extent
    lies inside the record area — so a torn page that survived
    recovery is detected rather than silently served. *)
let validate_page t page =
  let b = Pager.read t.pager page in
  if Bytes.get_uint8 b 0 <> kind_heap then
    fail "validate: page %d is not a heap page (kind %d)" page (Bytes.get_uint8 b 0);
  let nslots = get_nslots b in
  let fs = get_free_start b and fe = get_free_end b in
  if fs < header_size || fs > Pager.page_capacity then
    fail "validate: page %d free_start %d out of bounds" page fs;
  if fe <> Pager.page_capacity - (slot_size * nslots) then
    fail "validate: page %d free_end %d inconsistent with %d slots" page fe nslots;
  if fe < fs then fail "validate: page %d slot array overlaps records" page;
  for i = 0 to nslots - 1 do
    let off = slot_off b i and len = slot_len b i in
    if off <> dead_off then begin
      let real = len land lnot len_blob_flag in
      if len land len_blob_flag <> 0 && real <> blob_ptr_len then
        fail "validate: page %d slot %d bad blob pointer length %d" page i real;
      if off < header_size || off + real > fs then
        fail "validate: page %d slot %d extent [%d,%d) escapes record area" page i off
          (off + real)
    end
  done
