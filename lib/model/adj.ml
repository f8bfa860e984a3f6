(** Per-endpoint relationship adjacency of the in-memory mirror.

    For each endpoint and direction the mirror keeps one flat [int]
    array: slot 0 holds the edge count [n], followed by [n] edges of
    {!width} ints each, in ascending relationship-oid order:

    - the relationship class, interned to a small int by {!Meta.rel_id};
    - the relationship-instance oid;
    - the far end's oid (the destination in the outgoing table, the
      origin in the incoming one);
    - the context oid, or {!no_context}.

    A hop therefore reads the far end and filters by class and context
    without looking up the relationship object.  The table is indexed
    by endpoint oid (see {!Dense}); an endpoint without edges holds the
    shared {!empty} row.  Arrays grow by doubling and are changed in
    place, so a table must not be written while one of its arrays is
    being walked. *)

let width = 4
let no_context = -1

(** Context filter that accepts every edge. *)
let any_context = min_int

(* shared by every endpoint without edges; never written *)
let empty = [| 0 |]

type t = int array Dense.t

let create () : t = Dense.create empty
let reset (t : t) = Dense.clear t

(** A table of its own: rows are changed in place, so each is copied
    (the shared {!empty} row is absent and stays shared). *)
let copy (t : t) : t = Dense.copy ~entry:Array.copy t
let find (t : t) oid = Dense.get t oid
let count a = a.(0)
let cls a i = a.(1 + (width * i))
let rel_at a i = a.(2 + (width * i))
let far a i = a.(3 + (width * i))
let ctx a i = a.(4 + (width * i))

let context_key = function None -> no_context | Some c -> c

(** The context filter for an optional context: [None] accepts every
    context. *)
let filter_key = function None -> any_context | Some c -> c

let rec mem_id (ids : int array) c k = k < Array.length ids && (ids.(k) = c || mem_id ids c (k + 1))

(** Does edge [i] have a class among [ids] and a context accepted by
    [ctx_filter] (a context oid, {!no_context} or {!any_context})? *)
let matches a i ids ctx_filter =
  mem_id ids (cls a i) 0 && (ctx_filter = any_context || ctx_filter = ctx a i)

let add (t : t) oid ~cls ~rel ~far ~ctx =
  let a = find t oid in
  let n = count a in
  let a =
    if 1 + (width * (n + 1)) <= Array.length a then a
    else begin
      let b = Array.make (1 + (width * max 1 (2 * n))) 0 in
      Array.blit a 0 b 0 (1 + (width * n));
      Dense.set t oid b;
      b
    end
  in
  (* fresh oids ascend, so the new edge almost always goes last *)
  let i = ref n in
  while !i > 0 && rel_at a (!i - 1) > rel do
    decr i
  done;
  let at = 1 + (width * !i) in
  Array.blit a at a (at + width) (width * (n - !i));
  a.(at) <- cls;
  a.(at + 1) <- rel;
  a.(at + 2) <- far;
  a.(at + 3) <- ctx;
  a.(0) <- n + 1

let remove (t : t) oid ~rel =
  let a = find t oid in
  let n = count a in
  let rec index i = if i >= n then -1 else if rel_at a i = rel then i else index (i + 1) in
  match index 0 with
  | -1 -> ()
  | i ->
      let at = 1 + (width * i) in
      Array.blit a (at + width) a at (width * (n - i - 1));
      a.(0) <- n - 1;
      if n = 1 then Dense.remove t oid

(** Relationship oids of the edges at [oid], ascending. *)
let rel_oids (t : t) oid =
  let a = find t oid in
  let acc = ref [] in
  for i = count a - 1 downto 0 do
    acc := rel_at a i :: !acc
  done;
  !acc
