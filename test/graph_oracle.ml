(* Reference graph exploration for [Pgraph.Traverse], [Subgraph] and
   [Compare]: every hop re-queries [Database.targets]/[sources] (a
   fresh list), every visited set is a hash table, subclass tests are
   by name, and [compare_contexts] recomputes leaf sets for every pair
   of groups.  Slow and obviously right: the tests compare the
   library's walk against it, list order included. *)

open Pmodel
module OidSet = Database.OidSet

let children db ?context ~rel oid : int list = Database.targets db ?context ~rel_name:rel oid
let parents db ?context ~rel oid : int list = Database.sources db ?context ~rel_name:rel oid

let descendants db ?context ?(min_depth = 1) ?max_depth ~rel root : OidSet.t =
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
  if min_depth > 0 then OidSet.remove root !result else !result

let ancestors db ?context ?(min_depth = 1) ?max_depth ~rel node : OidSet.t =
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

let closure db ?context ~rel root : OidSet.t = descendants db ?context ~min_depth:0 ~rel root

let reachable db ?context ~rel src dst : bool = OidSet.mem dst (descendants db ?context ~rel src)

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

let roots db ?context ~rel (universe : OidSet.t) : int list =
  OidSet.elements (OidSet.filter (fun o -> parents db ?context ~rel o = []) universe)

let leaves db ?context ~rel (universe : OidSet.t) : int list =
  OidSet.elements (OidSet.filter (fun o -> children db ?context ~rel o = []) universe)

let nodes_of_context db ~rel ctx : OidSet.t =
  List.fold_left
    (fun acc r ->
      if Meta.is_subclass (Database.schema db) ~sub:r.Obj.class_name ~super:rel then
        OidSet.add (Obj.origin r) (OidSet.add (Obj.destination r) acc)
      else acc)
    OidSet.empty
    (Database.context_rels db ctx)

let has_cycle db ?context ~rel (universe : OidSet.t) : bool =
  let state = Hashtbl.create 64 in
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

(* --- Subgraph ---------------------------------------------------------- *)

(* [Pgraph.Subgraph.extract]'s answer: nodes, then edges ascending by
   oid (the mirror walk collected them in set-fold order; the sort is
   the order the library has always returned by default) *)
let extract db ?context ~rel root : Pgraph.Subgraph.t =
  let nodes = closure db ?context ~rel root in
  let edges =
    OidSet.fold
      (fun n acc ->
        List.fold_left
          (fun acc (r : Obj.t) ->
            if OidSet.mem (Obj.destination r) nodes then r.Obj.oid :: acc else acc)
          acc
          (Database.outgoing db ?context ~rel_name:rel n))
      nodes []
  in
  { Pgraph.Subgraph.nodes; edges = List.sort compare edges }

let of_context db ~rel ctx : Pgraph.Subgraph.t =
  let nodes = nodes_of_context db ~rel ctx in
  let edges =
    List.filter_map
      (fun (r : Obj.t) ->
        if Meta.is_subclass (Database.schema db) ~sub:r.Obj.class_name ~super:rel then
          Some r.Obj.oid
        else None)
      (Database.context_rels db ctx)
  in
  { Pgraph.Subgraph.nodes; edges }

(* --- Compare ----------------------------------------------------------- *)

let is_leaf db ~rel ctx n : bool = children db ~context:ctx ~rel n = []

let leaves_of db ~rel ctx : OidSet.t =
  OidSet.filter (fun n -> is_leaf db ~rel ctx n) (nodes_of_context db ~rel ctx)

let parent_in db ~rel ctx leaf : int option =
  match parents db ~context:ctx ~rel leaf with p :: _ -> Some p | [] -> None

let leafset db ~rel ctx node : OidSet.t =
  OidSet.filter (fun n -> is_leaf db ~rel ctx n) (closure db ~context:ctx ~rel node)

let compare_contexts db ~rel ~ctx_a ~ctx_b () : Pgraph.Compare.report =
  let la = leaves_of db ~rel ctx_a in
  let lb = leaves_of db ~rel ctx_b in
  let shared = OidSet.inter la lb in
  let only_in_a = OidSet.diff la lb in
  let only_in_b = OidSet.diff lb la in
  let moved, same =
    OidSet.fold
      (fun leaf (moved, same) ->
        match (parent_in db ~rel ctx_a leaf, parent_in db ~rel ctx_b leaf) with
        | Some pa, Some pb ->
            if pa = pb || OidSet.equal (leafset db ~rel ctx_a pa) (leafset db ~rel ctx_b pb) then
              (moved, same + 1)
            else ((leaf, pa, pb) :: moved, same)
        | _ -> (moved, same))
      shared ([], 0)
  in
  let internal ctx =
    OidSet.filter (fun n -> not (is_leaf db ~rel ctx n)) (nodes_of_context db ~rel ctx)
  in
  let ia = internal ctx_a and ib = internal ctx_b in
  let agreeing_groups =
    OidSet.fold
      (fun ga acc ->
        let sa = leafset db ~rel ctx_a ga in
        OidSet.fold
          (fun gb acc ->
            if (not (OidSet.is_empty sa)) && OidSet.equal sa (leafset db ~rel ctx_b gb) then
              (ga, gb) :: acc
            else acc)
          ib acc)
      ia []
  in
  let n_shared = OidSet.cardinal shared in
  let agreement = if n_shared = 0 then 1.0 else float_of_int same /. float_of_int n_shared in
  { Pgraph.Compare.only_in_a; only_in_b; moved; agreeing_groups; agreement }

(* --- the library against the oracle ------------------------------------ *)

let same_report (a : Pgraph.Compare.report) (b : Pgraph.Compare.report) =
  OidSet.equal a.only_in_a b.only_in_a
  && OidSet.equal a.only_in_b b.only_in_b
  && a.moved = b.moved && a.agreeing_groups = b.agreeing_groups && a.agreement = b.agreement

let same_graph (a : Pgraph.Subgraph.t) (b : Pgraph.Subgraph.t) =
  OidSet.equal a.nodes b.nodes && a.edges = b.edges

(** The entry points of [Pgraph.Traverse], [Subgraph] and [Compare]
    whose answer differs from the oracle's, by name ([] when all
    agree): each asked about [rel] edges in [context] from [node], with
    depth bounds [min_depth] and [max_depth], towards every node of
    [universe] ([reachable], [shortest_path]) or over it ([roots],
    [leaves], [has_cycle]).  [compare_contexts] needs two contexts and
    is compared with {!same_report}. *)
let disagreements db ?context ?(min_depth = 1) ?max_depth ~rel ~universe node : string list =
  let module T = Pgraph.Traverse in
  let set name f g = if OidSet.equal f g then [] else [ name ] in
  let eq name f g = if f = g then [] else [ name ] in
  let dfs fold = fold db ?context ~rel node ~init:[] ~f:(fun acc n d -> (n, d) :: acc) in
  let to_each name f g =
    if OidSet.for_all (fun t -> f t = g t) universe then [] else [ name ]
  in
  List.concat
    [
      set "descendants"
        (T.descendants db ?context ~min_depth ?max_depth ~rel node)
        (descendants db ?context ~min_depth ?max_depth ~rel node);
      set "ancestors"
        (T.ancestors db ?context ~min_depth ?max_depth ~rel node)
        (ancestors db ?context ~min_depth ?max_depth ~rel node);
      set "closure" (T.closure db ?context ~rel node) (closure db ?context ~rel node);
      to_each "reachable" (T.reachable db ?context ~rel node) (reachable db ?context ~rel node);
      to_each "shortest_path"
        (T.shortest_path db ?context ~rel node)
        (shortest_path db ?context ~rel node);
      eq "children" (T.children db ?context ~rel node) (children db ?context ~rel node);
      eq "parents" (T.parents db ?context ~rel node) (parents db ?context ~rel node);
      eq "roots" (T.roots db ?context ~rel universe) (roots db ?context ~rel universe);
      eq "leaves" (T.leaves db ?context ~rel universe) (leaves db ?context ~rel universe);
      eq "has_cycle" (T.has_cycle db ?context ~rel universe) (has_cycle db ?context ~rel universe);
      eq "fold_dfs" (dfs T.fold_dfs) (dfs fold_dfs);
      (if same_graph (Pgraph.Subgraph.extract db ?context ~rel node) (extract db ?context ~rel node)
       then []
       else [ "Subgraph.extract" ]);
    ]
    @
    match context with
    | None -> []
    | Some ctx ->
        List.concat
          [
            set "nodes_of_context" (T.nodes_of_context db ~rel ctx) (nodes_of_context db ~rel ctx);
            (if same_graph (Pgraph.Subgraph.of_context db ~rel ctx) (of_context db ~rel ctx) then []
             else [ "Subgraph.of_context" ]);
            eq "Compare.is_leaf"
              (Pgraph.Compare.is_leaf db ~rel ctx node)
              (is_leaf db ~rel ctx node);
            set "Compare.leaves_of" (Pgraph.Compare.leaves_of db ~rel ctx) (leaves_of db ~rel ctx);
            eq "Compare.parent_in"
              (Pgraph.Compare.parent_in db ~rel ctx node)
              (parent_in db ~rel ctx node);
            set "Compare.leafset" (Pgraph.Compare.leafset db ~rel ctx node)
              (leafset db ~rel ctx node);
          ]
