(** Oid-indexed tables of the in-memory mirror.

    Oids are dense: {!Pstore.Store.fresh_oid} counts up and never
    reuses one.  So a per-oid table is an array indexed by oid, with no
    hashing and no tree.  It is split into chunks of {!chunk_size}
    slots, allocated when a slot in them is first set and freed when
    their last live slot is removed, except the chunk of the highest oid
    ever set: that is where fresh oids land next, and a workload that
    creates and deletes objects in turn would otherwise free and
    reallocate it every time.  A table therefore holds memory in
    proportion to its live entries plus two directory words per chunk
    of oids ever issued (about 16 KiB per million oids), not in
    proportion to the highest oid: objects created and deleted again,
    as in a structural-modification workload, leave no chunk behind
    once every oid in it is gone.

    A table has one [absent] value, compared by physical equality: a
    read of a slot never set, or removed, returns it, so a lookup needs
    no option box. *)

module OidSet = Set.Make (Int)

let chunk_bits = 10
let chunk_size = 1 lsl chunk_bits
let slot_mask = chunk_size - 1

type 'a t = {
  absent : 'a;
  (* stands for every unallocated chunk: all slots [absent], never written *)
  none : 'a array;
  mutable dir : 'a array array; (* chunk [c] holds oids [c * chunk_size ...] *)
  mutable live : int array; (* live slots per chunk *)
  mutable count : int;
  mutable top : int; (* chunk of the highest oid ever set, or -1 *)
}

let create absent =
  { absent; none = Array.make chunk_size absent; dir = [||]; live = [||]; count = 0; top = -1 }

let clear t =
  t.dir <- [||];
  t.live <- [||];
  t.count <- 0;
  t.top <- -1

let get t oid =
  let c = oid asr chunk_bits in
  if c >= 0 && c < Array.length t.dir then
    Array.unsafe_get (Array.unsafe_get t.dir c) (oid land slot_mask)
  else t.absent

let count t = t.count

(** A table of its own with the entries of [t], each passed through
    [entry] (the identity by default): the directory and every chunk
    are copied, the [absent] value and the shared unallocated chunk are
    not. *)
let copy ?entry t =
  let chunk c =
    if c == t.none then c
    else
      match entry with
      | None -> Array.copy c
      | Some f -> Array.map (fun v -> if v == t.absent then v else f v) c
  in
  { t with dir = Array.map chunk t.dir; live = Array.copy t.live }

(** Chunks currently allocated. *)
let chunks t = Array.fold_left (fun n c -> if c == t.none then n else n + 1) 0 t.dir

let grow t c =
  let n = max (c + 1) (2 * Array.length t.dir) in
  let dir = Array.make n t.none and live = Array.make n 0 in
  Array.blit t.dir 0 dir 0 (Array.length t.dir);
  Array.blit t.live 0 live 0 (Array.length t.live);
  t.dir <- dir;
  t.live <- live

(** Bind [oid] (non-negative) to [v], which must not be [absent]. *)
let set t oid v =
  if oid < 0 then invalid_arg "Dense.set: negative oid";
  let c = oid lsr chunk_bits in
  if c >= Array.length t.dir then grow t c;
  if c > t.top then begin
    (* the old top chunk, kept while it was the top, goes if empty *)
    if t.top >= 0 && t.live.(t.top) = 0 then t.dir.(t.top) <- t.none;
    t.top <- c
  end;
  let chunk =
    let chunk = t.dir.(c) in
    if chunk != t.none then chunk
    else begin
      let a = Array.make chunk_size t.absent in
      t.dir.(c) <- a;
      a
    end
  in
  let i = oid land slot_mask in
  if chunk.(i) == t.absent then begin
    t.live.(c) <- t.live.(c) + 1;
    t.count <- t.count + 1
  end;
  chunk.(i) <- v

let remove t oid =
  let c = oid asr chunk_bits in
  if c >= 0 && c < Array.length t.dir then begin
    let chunk = t.dir.(c) and i = oid land slot_mask in
    if chunk.(i) != t.absent then begin
      chunk.(i) <- t.absent;
      t.count <- t.count - 1;
      t.live.(c) <- t.live.(c) - 1;
      if t.live.(c) = 0 && c <> t.top then t.dir.(c) <- t.none
    end
  end

(** Live entries in ascending oid order.  [f] must not change [t]. *)
let iter t f =
  let dir = t.dir in
  for c = 0 to Array.length dir - 1 do
    let chunk = dir.(c) in
    if chunk != t.none then
      for i = 0 to chunk_size - 1 do
        let v = Array.unsafe_get chunk i in
        if v != t.absent then f ((c lsl chunk_bits) lor i) v
      done
  done

(* Balanced sets of the ints [0 .. 2^k - 2], one per height [k], built
   on first use and shared (they are immutable, and a racing domain at
   worst builds one twice). *)
let shapes = Array.init (Sys.int_size - 1) (fun _ -> Atomic.make None)

let shape n =
  let k = ref 0 in
  while (1 lsl !k) - 1 < n do
    incr k
  done;
  let full =
    match Atomic.get shapes.(!k) with
    | Some s -> s
    | None ->
        let s = OidSet.of_list (List.init ((1 lsl !k) - 1) Fun.id) in
        Atomic.set shapes.(!k) (Some s);
        s
  in
  if (1 lsl !k) - 1 = n then full else OidSet.filter (fun x -> x < n) full

(** The first [n] oids of the ascending array [a], as a set: mapped onto
    a balanced shape of [n] elements ([OidSet.map] visits them in
    increasing order), so the set costs [n] tree nodes, not the sort
    and the intermediate lists of [OidSet.of_list]. *)
let set_of_ascending (a : int array) n =
  let i = ref 0 in
  OidSet.map
    (fun _ ->
      let o = a.(!i) in
      incr i;
      o)
    (shape n)

(** An ascending vector of distinct oids: one class's extent.  Fresh
    oids ascend, so an insert is almost always an append; an older oid
    (a re-insert after a retarget) is shifted into place, and a removal
    closes its gap.  The backing array halves when a quarter full. *)
module Vec = struct
  type t = {
    mutable a : int array;
    mutable n : int;
    last_set : OidSet.t Atomic.t; (* the last answer of {!to_set} *)
  }

  let create () = { a = [||]; n = 0; last_set = Atomic.make OidSet.empty }
  let length v = v.n

  (* the array is trimmed to its entries; the cached set is immutable *)
  let copy v = { a = Array.sub v.a 0 v.n; n = v.n; last_set = Atomic.make (Atomic.get v.last_set) }

  (* first index in [lo, hi) whose oid is >= [x] *)
  let rec lower a lo hi x =
    if lo >= hi then lo
    else
      let m = (lo + hi) lsr 1 in
      if a.(m) < x then lower a (m + 1) hi x else lower a lo m x

  let resize v cap =
    let a = Array.make cap 0 in
    Array.blit v.a 0 a 0 v.n;
    v.a <- a

  let add v x =
    if v.n = Array.length v.a then resize v (max 8 (2 * v.n));
    if v.n = 0 || v.a.(v.n - 1) < x then begin
      v.a.(v.n) <- x;
      v.n <- v.n + 1
    end
    else
      let i = lower v.a 0 v.n x in
      if v.a.(i) <> x then begin
        Array.blit v.a i v.a (i + 1) (v.n - i);
        v.a.(i) <- x;
        v.n <- v.n + 1
      end

  let remove v x =
    let i = lower v.a 0 v.n x in
    if i < v.n && v.a.(i) = x then begin
      Array.blit v.a (i + 1) v.a i (v.n - i - 1);
      v.n <- v.n - 1;
      if v.n = 0 then v.a <- [||]
      else if 8 < Array.length v.a && 4 * v.n <= Array.length v.a then resize v (2 * v.n)
    end

  (** Ascending.  [f] must not change [v]. *)
  let iter f v =
    let a = v.a in
    for i = 0 to v.n - 1 do
      f (Array.unsafe_get a i)
    done

  let fold f acc v =
    let a = v.a in
    let acc = ref acc in
    for i = 0 to v.n - 1 do
      acc := f !acc (Array.unsafe_get a i)
    done;
    !acc

  (** The vector as a set.  Consecutive answers share structure: the
      last answer is walked against the vector, and when they differ in
      at most an eighth of the entries the difference is applied to it,
      [O(d log n)] nodes for [d] changes instead of [n].  Safe to call
      from several domains on a vector that is no longer written. *)
  let to_set v =
    let last = Atomic.get v.last_set and a = v.a and n = v.n in
    let i = ref 0 and added = ref [] and removed = ref [] and d = ref 0 in
    let add_below x =
      while !i < n && a.(!i) < x do
        added := a.(!i) :: !added;
        incr d;
        incr i
      done
    in
    OidSet.iter
      (fun x ->
        add_below x;
        if !i < n && a.(!i) = x then incr i
        else begin
          removed := x :: !removed;
          incr d
        end)
      last;
    add_below max_int;
    let s =
      if !d = 0 then last
      else if 8 * !d <= n then
        List.fold_left
          (fun s x -> OidSet.add x s)
          (List.fold_left (fun s x -> OidSet.remove x s) last !removed)
          !added
      else set_of_ascending a n
    in
    Atomic.set v.last_set s;
    s

  (** The ascending merge of disjoint vectors. *)
  let fold_merged f acc (vs : t array) =
    let k = Array.length vs in
    let pos = Array.make k 0 in
    let acc = ref acc and go = ref true in
    while !go do
      let best = ref (-1) and low = ref max_int in
      for j = 0 to k - 1 do
        let v = vs.(j) and p = pos.(j) in
        if p < v.n && v.a.(p) < !low then begin
          best := j;
          low := v.a.(p)
        end
      done;
      if !best < 0 then go := false
      else begin
        pos.(!best) <- pos.(!best) + 1;
        acc := f !acc !low
      end
    done;
    !acc
end
