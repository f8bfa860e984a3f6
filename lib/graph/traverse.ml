(** Graph exploration over relationship instances.

    Relationship instances form a directed graph whose nodes are
    objects and whose edges are the instances of a relationship class
    (or of all relationship classes).  Classifications are subgraphs
    selected by a context (thesis 4.6); this module provides the
    recursive exploration primitives required by taxonomy (thesis
    req. 9): bounded and unbounded descent, ancestors, reachability,
    roots/leaves and cycle detection.

    Edge direction convention: the *origin* of a relationship instance
    is the container/parent (e.g. a circumscription taxon), the
    *destination* the member/child. *)

open Pmodel
module OidSet = Database.OidSet

(** Whether to take the CSR-snapshot fast path: yes unless the caller
    passes [~csr:false] (the reference interpreter's mirror walk). *)
let use_csr = function Some b -> b | None -> true

(** Destinations of outgoing edges of [oid]. *)
let children db ?context ~rel oid : int list = Database.targets db ?context ~rel_name:rel oid

(** Origins of incoming edges of [oid]. *)
let parents db ?context ~rel oid : int list = Database.sources db ?context ~rel_name:rel oid

(** Breadth-first descent.  Returns all nodes reachable from [root]
    through outgoing [rel] edges at depth [>= min_depth] and
    [<= max_depth] (defaults: 1 and unbounded — i.e. proper
    descendants).  Safe on cyclic graphs. *)
let descendants db ?context ?csr ?(min_depth = 1) ?max_depth ~rel root : OidSet.t =
  if use_csr csr then
    Csr.descendants (Csr.get (Csr.handle db) ?context ~rel ()) ~min_depth ?max_depth root
  else begin
    let result = ref OidSet.empty in
    let visited = Hashtbl.create 64 in
    let q = Queue.create () in
    Queue.add (root, 0) q;
    Hashtbl.replace visited root ();
    while not (Queue.is_empty q) do
      let node, d = Queue.pop q in
      if d >= min_depth then result := OidSet.add node !result;
      let descend = match max_depth with None -> true | Some m -> d < m in
      if descend then
        List.iter
          (fun c ->
            if not (Hashtbl.mem visited c) then begin
              Hashtbl.replace visited c ();
              Queue.add (c, d + 1) q
            end)
          (children db ?context ~rel node)
    done;
    (* the root itself is included only if min_depth = 0 *)
    if min_depth > 0 then OidSet.remove root !result else !result
  end

(** Ancestors, symmetric to {!descendants}. *)
let ancestors db ?context ?csr ?(min_depth = 1) ?max_depth ~rel node : OidSet.t =
  if use_csr csr then
    Csr.ancestors (Csr.get (Csr.handle db) ?context ~rel ()) ~min_depth ?max_depth node
  else begin
    let result = ref OidSet.empty in
    let visited = Hashtbl.create 64 in
    let q = Queue.create () in
    Queue.add (node, 0) q;
    Hashtbl.replace visited node ();
    while not (Queue.is_empty q) do
      let n, d = Queue.pop q in
      if d >= min_depth then result := OidSet.add n !result;
      let ascend = match max_depth with None -> true | Some m -> d < m in
      if ascend then
        List.iter
          (fun p ->
            if not (Hashtbl.mem visited p) then begin
              Hashtbl.replace visited p ();
              Queue.add (p, d + 1) q
            end)
          (parents db ?context ~rel n)
    done;
    if min_depth > 0 then OidSet.remove node !result else !result
  end

(** Transitive closure: descendants including the root. *)
let closure db ?context ?csr ~rel root : OidSet.t =
  descendants db ?context ?csr ~min_depth:0 ~rel root

let reachable db ?context ?csr ~rel src dst : bool =
  OidSet.mem dst (descendants db ?context ?csr ~rel src)

(** Shortest path (as a node list, src first) through outgoing [rel]
    edges, or [None]. *)
let shortest_path db ?context ~rel src dst : int list option =
  if src = dst then Some [ src ]
  else begin
    let pred = Hashtbl.create 64 in
    let q = Queue.create () in
    Queue.add src q;
    Hashtbl.replace pred src src;
    let found = ref false in
    while (not !found) && not (Queue.is_empty q) do
      let n = Queue.pop q in
      List.iter
        (fun c ->
          if not (Hashtbl.mem pred c) then begin
            Hashtbl.replace pred c n;
            if c = dst then found := true else Queue.add c q
          end)
        (children db ?context ~rel n)
    done;
    if not !found then None
    else begin
      let rec build n acc = if n = src then src :: acc else build (Hashtbl.find pred n) (n :: acc) in
      Some (build dst [])
    end
  end

(** Nodes of [universe] with no incoming [rel] edge (in [context]). *)
let roots db ?context ?csr ~rel (universe : OidSet.t) : int list =
  if use_csr csr then begin
    let s = Csr.get (Csr.handle db) ?context ~rel () in
    OidSet.elements (OidSet.filter (fun o -> not (Csr.has_in s o)) universe)
  end
  else OidSet.elements (OidSet.filter (fun o -> parents db ?context ~rel o = []) universe)

(** Nodes of [universe] with no outgoing [rel] edge (in [context]). *)
let leaves db ?context ?csr ~rel (universe : OidSet.t) : int list =
  if use_csr csr then begin
    let s = Csr.get (Csr.handle db) ?context ~rel () in
    OidSet.elements (OidSet.filter (fun o -> not (Csr.has_out s o)) universe)
  end
  else OidSet.elements (OidSet.filter (fun o -> children db ?context ~rel o = []) universe)

(** All nodes participating in [rel] edges of [context]. *)
let nodes_of_context db ~rel ctx : OidSet.t =
  List.fold_left
    (fun acc r ->
      if Meta.is_subclass (Database.schema db) ~sub:r.Obj.class_name ~super:rel then
        OidSet.add (Obj.origin r) (OidSet.add (Obj.destination r) acc)
      else acc)
    OidSet.empty
    (Database.context_rels db ctx)

(** Cycle detection among [rel] edges restricted to [context]. *)
let has_cycle db ?context ~rel (universe : OidSet.t) : bool =
  let state = Hashtbl.create 64 in
  (* 0 = in progress, 1 = done *)
  let rec visit n =
    match Hashtbl.find_opt state n with
    | Some 0 -> true
    | Some _ -> false
    | None ->
        Hashtbl.replace state n 0;
        let cyc = List.exists visit (children db ?context ~rel n) in
        Hashtbl.replace state n 1;
        cyc
  in
  OidSet.exists visit universe

(** Depth-first fold over the tree/graph below [root]; [f] receives
    (node, depth, accumulator).  Each node visited once. *)
let fold_dfs db ?context ~rel root ~init ~f =
  let visited = Hashtbl.create 64 in
  let rec go acc node depth =
    if Hashtbl.mem visited node then acc
    else begin
      Hashtbl.replace visited node ();
      let acc = f acc node depth in
      List.fold_left (fun acc c -> go acc c (depth + 1)) acc (children db ?context ~rel node)
    end
  in
  go init root 0
