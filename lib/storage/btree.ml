(** Persistent B+-tree mapping int64 keys to heap record ids.

    Used as the object directory (oid -> rid).  Nodes live in pager
    pages and are updated through {!Pager.with_write}, so all tree
    mutations participate in the pager's journaled transactions.

    Node layouts:
    {v
      leaf:     u8 kind(=3) | u8 is_leaf(=1) | u16 nkeys |
                nkeys * (i64 key, u32 page, u16 slot)
      internal: u8 kind(=3) | u8 is_leaf(=0) | u16 nkeys |
                u32 child0, nkeys * (i64 key, u32 child)
    v}
    Internal separators follow B+-tree convention: keys [>=] separator
    are in the right subtree.  Deletion is lazy (no rebalancing):
    correctness is preserved, occupancy may degrade under heavy
    deletion, which is acceptable for an object directory where oids
    are allocated monotonically. *)

exception Btree_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Btree_error s)) fmt

let kind_btree = 3
let leaf_entry = 14
let leaf_max = 290
let internal_max = 330

type t = {
  pager : Pager.t;
  mutable root : int;
  set_root : int -> unit; (* persist the root page number (store header) *)
  alloc_page : unit -> int;
}

(* --- node accessors -------------------------------------------------- *)

let is_leaf b = Bytes.get_uint8 b 1 = 1
let nkeys b = Bytes.get_uint16_le b 2
let set_nkeys b n = Bytes.set_uint16_le b 2 n

let init_node b ~leaf =
  Bytes.fill b 0 Pager.page_size '\000';
  Bytes.set_uint8 b 0 kind_btree;
  Bytes.set_uint8 b 1 (if leaf then 1 else 0);
  set_nkeys b 0

(* leaf entries *)
let l_off i = 8 + (leaf_entry * i)
let l_key b i = Bytes.get_int64_le b (l_off i)

let l_get b i : Heap.rid =
  { Heap.page = Int32.to_int (Bytes.get_int32_le b (l_off i + 8)); slot = Bytes.get_uint16_le b (l_off i + 12) }

let l_set b i key (r : Heap.rid) =
  Bytes.set_int64_le b (l_off i) key;
  Bytes.set_int32_le b (l_off i + 8) (Int32.of_int r.Heap.page);
  Bytes.set_uint16_le b (l_off i + 12) r.Heap.slot

let l_blit b src dst n = Bytes.blit b (l_off src) b (l_off dst) (leaf_entry * n)

(* internal entries: child i at 8+12i, key i at 8+12i+4 (keys 0..nkeys-1) *)
let i_child_off i = 8 + (12 * i)
let i_key_off i = 8 + (12 * i) + 4
let i_child b i = Int32.to_int (Bytes.get_int32_le b (i_child_off i))
let i_set_child b i v = Bytes.set_int32_le b (i_child_off i) (Int32.of_int v)
let i_key b i = Bytes.get_int64_le b (i_key_off i)
let i_set_key b i v = Bytes.set_int64_le b (i_key_off i) v

(* --- search helpers -------------------------------------------------- *)

(* First index i in [0,n) with key < keys[i]; n if none. *)
let upper_bound_internal b key =
  let n = nkeys b in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if key < i_key b mid then hi := mid else lo := mid + 1
  done;
  !lo

(* Position of key in leaf, or insertion point. *)
let leaf_lower_bound b key =
  let lo = ref 0 and hi = ref (nkeys b) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if l_key b mid < key then lo := mid + 1 else hi := mid
  done;
  !lo

let leaf_has b i key = i < nkeys b && Int64.equal (l_key b i) key

(* --- lifecycle -------------------------------------------------------- *)

let create pager ~root ~set_root ~alloc_page =
  let t = { pager; root; set_root; alloc_page } in
  if root = 0 then begin
    let r = alloc_page () in
    Pager.with_write pager r (fun b -> init_node b ~leaf:true);
    t.root <- r;
    set_root r
  end;
  t

(* --- find ------------------------------------------------------------- *)

let find t (key : int64) : Heap.rid option =
  let rec go page =
    let b = Pager.read t.pager page in
    if is_leaf b then begin
      let i = leaf_lower_bound b key in
      if leaf_has b i key then Some (l_get b i) else None
    end
    else go (i_child b (upper_bound_internal b key))
  in
  go t.root

let mem t key = Option.is_some (find t key)

(* --- insert ----------------------------------------------------------- *)

(* Split the full child at index [ci] of internal node [parent_pg].
   Allocates a right sibling; promotes a separator into the parent
   (which must not be full). *)
let split_child t parent_pg ci child_pg =
  let right_pg = t.alloc_page () in
  let sep = ref 0L in
  let child_b = Bytes.copy (Pager.read t.pager child_pg) in
  Pager.with_write t.pager right_pg (fun rb ->
      if is_leaf child_b then begin
        let n = nkeys child_b in
        let m = n / 2 in
        init_node rb ~leaf:true;
        Bytes.blit child_b (l_off m) rb (l_off 0) (leaf_entry * (n - m));
        set_nkeys rb (n - m);
        sep := l_key child_b m
      end
      else begin
        let n = nkeys child_b in
        let m = n / 2 in
        init_node rb ~leaf:false;
        (* right gets keys m+1..n-1 and children m+1..n *)
        i_set_child rb 0 (i_child child_b (m + 1));
        for j = m + 1 to n - 1 do
          i_set_key rb (j - m - 1) (i_key child_b j);
          i_set_child rb (j - m) (i_child child_b (j + 1))
        done;
        set_nkeys rb (n - m - 1);
        sep := i_key child_b m
      end);
  Pager.with_write t.pager child_pg (fun cb ->
      let n = nkeys cb in
      let m = n / 2 in
      set_nkeys cb m);
  Pager.with_write t.pager parent_pg (fun pb ->
      let n = nkeys pb in
      (* shift keys/children right of position ci *)
      for j = n - 1 downto ci do
        i_set_key pb (j + 1) (i_key pb j);
        i_set_child pb (j + 2) (i_child pb (j + 1))
      done;
      i_set_key pb ci !sep;
      i_set_child pb (ci + 1) right_pg;
      set_nkeys pb (n + 1))

let node_full b = if is_leaf b then nkeys b >= leaf_max else nkeys b >= internal_max

let insert t (key : int64) (rid : Heap.rid) : unit =
  (* grow root if full *)
  let root_b = Pager.read t.pager t.root in
  if node_full root_b then begin
    let new_root = t.alloc_page () in
    let old_root = t.root in
    Pager.with_write t.pager new_root (fun b ->
        init_node b ~leaf:false;
        i_set_child b 0 old_root);
    t.root <- new_root;
    t.set_root new_root;
    split_child t new_root 0 old_root
  end;
  let rec go page =
    let b = Pager.read t.pager page in
    if is_leaf b then begin
      Pager.with_write t.pager page (fun b ->
          let i = leaf_lower_bound b key in
          if leaf_has b i key then l_set b i key rid
          else begin
            let n = nkeys b in
            if n - i > 0 then l_blit b i (i + 1) (n - i);
            l_set b i key rid;
            set_nkeys b (n + 1)
          end)
    end
    else begin
      let ci = upper_bound_internal b key in
      let child = i_child b ci in
      let cb = Pager.read t.pager child in
      if node_full cb then begin
        split_child t page ci child;
        let b = Pager.read t.pager page in
        let ci = upper_bound_internal b key in
        go (i_child b ci)
      end
      else go child
    end
  in
  go t.root

(* --- delete (lazy) ----------------------------------------------------- *)

let delete t (key : int64) : bool =
  let rec go page =
    let b = Pager.read t.pager page in
    if is_leaf b then begin
      let i = leaf_lower_bound b key in
      if leaf_has b i key then begin
        Pager.with_write t.pager page (fun b ->
            let n = nkeys b in
            if n - i - 1 > 0 then l_blit b (i + 1) i (n - i - 1);
            set_nkeys b (n - 1));
        true
      end
      else false
    end
    else go (i_child b (upper_bound_internal b key))
  in
  go t.root

(* --- iteration --------------------------------------------------------- *)

(* Copy only the used prefix of a node page — header plus occupied entry
   array — instead of all 4 KiB.  Iteration and checking snapshot every
   node they visit (the callback may re-enter the pager and evict the
   page), so this trims their allocation to the node's actual fill. *)
let snapshot page_b =
  let n = nkeys page_b in
  let used = if is_leaf page_b then l_off n else i_child_off n + 4 in
  Bytes.sub page_b 0 (min (max used 8) Pager.page_size)

let iter t (f : int64 -> Heap.rid -> unit) : unit =
  let rec go page =
    let b = snapshot (Pager.read t.pager page) in
    if is_leaf b then
      for i = 0 to nkeys b - 1 do
        f (l_key b i) (l_get b i)
      done
    else begin
      let n = nkeys b in
      for i = 0 to n do
        go (i_child b i)
      done
    end
  in
  go t.root

let fold t f acc =
  let acc = ref acc in
  iter t (fun k r -> acc := f !acc k r);
  !acc

let cardinal t = fold t (fun n _ _ -> n + 1) 0

(* Structural invariant check (used by tests): keys sorted within nodes,
   subtree key ranges respect separators. Returns number of keys. *)
let check t =
  let count = ref 0 in
  let rec go page lo hi =
    let b = snapshot (Pager.read t.pager page) in
    if Bytes.get_uint8 b 0 <> kind_btree then fail "check: page %d is not a btree node" page;
    if is_leaf b then
      for i = 0 to nkeys b - 1 do
        let k = l_key b i in
        incr count;
        (match lo with Some l when Int64.compare k l < 0 -> fail "check: key below range" | _ -> ());
        (match hi with Some h when Int64.compare k h >= 0 -> fail "check: key above range" | _ -> ());
        if i > 0 && Int64.compare (l_key b (i - 1)) k >= 0 then fail "check: leaf keys unsorted"
      done
    else begin
      let n = nkeys b in
      for i = 0 to n - 1 do
        if i > 0 && Int64.compare (i_key b (i - 1)) (i_key b i) >= 0 then
          fail "check: internal keys unsorted"
      done;
      for i = 0 to n do
        let lo' = if i = 0 then lo else Some (i_key b (i - 1)) in
        let hi' = if i = n then hi else Some (i_key b i) in
        go (i_child b i) lo' hi'
      done
    end
  in
  go t.root None None;
  !count
