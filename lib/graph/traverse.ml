(** Graph exploration over relationship instances.

    Relationship instances form a directed graph whose nodes are
    objects and whose edges are the instances of a relationship class
    (or of all relationship classes).  Classifications are subgraphs
    selected by a context (thesis 4.6); this module provides the
    recursive exploration primitives required by taxonomy (thesis
    req. 9): bounded and unbounded descent, ancestors, reachability,
    roots/leaves and cycle detection.

    Every walk hops along the mirror's per-endpoint adjacency through
    {!Database.iter_targets}/{!Database.iter_sources}, which filter by
    class and context without allocating.  Each call keeps its own
    visited set and queue, sized to what it reaches: several domains
    walk one snapshot view at once.

    Edge direction convention: the *origin* of a relationship instance
    is the container/parent (e.g. a circumscription taxon), the
    *destination* the member/child. *)

open Pmodel
module OidSet = Database.OidSet

(** Destinations of outgoing edges of [oid]. *)
let children db ?context ~rel oid : int list = Database.targets db ?context ~rel_name:rel oid

(** Origins of incoming edges of [oid]. *)
let parents db ?context ~rel oid : int list = Database.sources db ?context ~rel_name:rel oid

(* Breadth-first walk from [start] through [hop]: the nodes first
   reached at a depth in [min_depth, max_depth].  The set of nodes seen
   is the answer itself for [min_depth] <= 1; the queue holds each
   level's nodes after the previous level's. *)
let bfs hop ~min_depth ?(max_depth = max_int) start : OidSet.t =
  let seen = ref (OidSet.singleton start) in
  let queue = ref [| start |] and tail = ref 1 in
  let visit far _ =
    if not (OidSet.mem far !seen) then begin
      seen := OidSet.add far !seen;
      if !tail = Array.length !queue then begin
        let q = Array.make (2 * !tail) 0 in
        Array.blit !queue 0 q 0 !tail;
        queue := q
      end;
      !queue.(!tail) <- far;
      incr tail
    end
  in
  let head = ref 0 and depth = ref 0 and deep = ref OidSet.empty in
  while !head < !tail && !depth < max_depth do
    let level_end = !tail in
    while !head < level_end do
      hop !queue.(!head) visit;
      incr head
    done;
    incr depth;
    if min_depth > 1 && !depth >= min_depth then
      for i = level_end to !tail - 1 do
        deep := OidSet.add !queue.(i) !deep
      done
  done;
  if min_depth <= 0 then !seen else if min_depth = 1 then OidSet.remove start !seen else !deep

(** Breadth-first descent.  Returns all nodes reachable from [root]
    through outgoing [rel] edges at depth [>= min_depth] and
    [<= max_depth] (defaults: 1 and unbounded — i.e. proper
    descendants).  Safe on cyclic graphs. *)
let descendants db ?context ?(min_depth = 1) ?max_depth ~rel root : OidSet.t =
  bfs (Database.iter_targets db ?context ~rel_name:rel) ~min_depth ?max_depth root

(** Ancestors, symmetric to {!descendants}. *)
let ancestors db ?context ?(min_depth = 1) ?max_depth ~rel node : OidSet.t =
  bfs (Database.iter_sources db ?context ~rel_name:rel) ~min_depth ?max_depth node

(** Transitive closure: descendants including the root. *)
let closure db ?context ~rel root : OidSet.t = descendants db ?context ~min_depth:0 ~rel root

let reachable db ?context ~rel src dst : bool = OidSet.mem dst (descendants db ?context ~rel src)

(** Shortest path (as a node list, src first) through outgoing [rel]
    edges, or [None]. *)
let shortest_path db ?context ~rel src dst : int list option =
  if src = dst then Some [ src ]
  else begin
    let hop = Database.iter_targets db ?context ~rel_name:rel in
    let pred = Hashtbl.create 64 in
    let q = Queue.create () in
    Queue.add src q;
    Hashtbl.replace pred src src;
    let found = ref false and from = ref src in
    let visit c _ =
      if not (Hashtbl.mem pred c) then begin
        Hashtbl.replace pred c !from;
        if c = dst then found := true else Queue.add c q
      end
    in
    while (not !found) && not (Queue.is_empty q) do
      from := Queue.pop q;
      hop !from visit
    done;
    if not !found then None
    else begin
      let rec build n acc = if n = src then src :: acc else build (Hashtbl.find pred n) (n :: acc) in
      Some (build dst [])
    end
  end

(** Nodes of [universe] with no incoming [rel] edge (in [context]). *)
let roots db ?context ~rel (universe : OidSet.t) : int list =
  let n_in = Database.count_sources db ?context ~rel_name:rel in
  OidSet.elements (OidSet.filter (fun o -> n_in o = 0) universe)

(** Nodes of [universe] with no outgoing [rel] edge (in [context]). *)
let leaves db ?context ~rel (universe : OidSet.t) : int list =
  let n_out = Database.count_targets db ?context ~rel_name:rel in
  OidSet.elements (OidSet.filter (fun o -> n_out o = 0) universe)

(** The [rel] edges (subclasses included) of context [ctx], ascending. *)
let context_edges db ~rel ctx : Obj.t list =
  let schema = Database.schema db in
  let ids = Meta.rel_sub_ids schema rel in
  List.filter
    (fun (r : Obj.t) -> Adj.mem_id ids (Meta.rel_id schema r.Obj.class_name) 0)
    (Database.context_rels db ctx)

(** The origins and destinations of [edges]. *)
let endpoints (edges : Obj.t list) : OidSet.t =
  List.fold_left
    (fun acc r -> OidSet.add (Obj.origin r) (OidSet.add (Obj.destination r) acc))
    OidSet.empty edges

(** All nodes participating in [rel] edges of [context]. *)
let nodes_of_context db ~rel ctx : OidSet.t = endpoints (context_edges db ~rel ctx)

(** Cycle detection among [rel] edges restricted to [context]. *)
let has_cycle db ?context ~rel (universe : OidSet.t) : bool =
  let hop = Database.iter_targets db ?context ~rel_name:rel in
  (* 0 = in progress, 1 = done *)
  let state = Hashtbl.create 64 and cyc = ref false in
  let rec visit n _ =
    if not !cyc then
      match Hashtbl.find state n with
      | 0 -> cyc := true
      | _ -> ()
      | exception Not_found ->
          Hashtbl.replace state n 0;
          hop n visit;
          Hashtbl.replace state n 1
  in
  OidSet.exists
    (fun n ->
      visit n 0;
      !cyc)
    universe

(** Depth-first fold over the tree/graph below [root]; [f] receives
    (node, depth, accumulator).  Each node visited once.  [f] must not
    change the [rel] edges being walked. *)
let fold_dfs db ?context ~rel root ~init ~f =
  let hop = Database.iter_targets db ?context ~rel_name:rel in
  let visited = Hashtbl.create 64 and acc = ref init in
  let rec go depth node _ =
    if not (Hashtbl.mem visited node) then begin
      Hashtbl.replace visited node ();
      acc := f !acc node depth;
      hop node (go (depth + 1))
    end
  in
  go 0 root 0;
  !acc
