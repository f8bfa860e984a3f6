(** Comparing classifications (thesis 2.1.3, 7.1.1 and the SSDBM'01
    companion paper "Two Approaches to Representing Multiple
    Overlapping Classifications").

    Two classifications of shared material are compared *through the
    material*: the only objective fixed points are the leaves
    (specimens).  This module reports, for two contexts over the same
    relationship class:

    - leaves present in one classification but not the other,
    - leaves placed under different parents (moved items),
    - pairs of groups with identical leaf sets (structural agreement),
    - an overall agreement score. *)

open Pmodel
module OidSet = Database.OidSet

type report = {
  only_in_a : OidSet.t; (* leaves classified only in context a *)
  only_in_b : OidSet.t;
  moved : (int * int * int) list; (* leaf, parent in a, parent in b *)
  agreeing_groups : (int * int) list; (* taxon in a, taxon in b with equal leaf sets *)
  agreement : float; (* fraction of shared leaves with matching parents, 0..1 *)
}

let is_leaf db ~rel ctx : int -> bool =
  let n_out = Database.count_targets db ~context:ctx ~rel_name:rel in
  fun n -> n_out n = 0

let leaves_of db ~rel ctx : OidSet.t =
  OidSet.filter (is_leaf db ~rel ctx) (Traverse.nodes_of_context db ~rel ctx)

let parent_in db ~rel ctx leaf : int option =
  match Traverse.parents db ~context:ctx ~rel leaf with p :: _ -> Some p | [] -> None

(** Leaf set below [node] (the node itself when it is a leaf). *)
let leafset db ~rel ctx node : OidSet.t =
  OidSet.filter (is_leaf db ~rel ctx) (Traverse.closure db ~context:ctx ~rel node)

(* A context's leaves, its internal nodes, and each internal node's
   leaf set, computed once *)
let leaf_table db ~rel ctx =
  let leaf = is_leaf db ~rel ctx in
  let leaves, internal = OidSet.partition leaf (Traverse.nodes_of_context db ~rel ctx) in
  let sets = Hashtbl.create (OidSet.cardinal internal) in
  OidSet.iter
    (fun n ->
      Hashtbl.replace sets n (OidSet.filter leaf (Traverse.closure db ~context:ctx ~rel n)))
    internal;
  (leaves, internal, Hashtbl.find sets)

let compare_contexts db ~rel ~ctx_a ~ctx_b () : report =
  let la, ia, set_a = leaf_table db ~rel ctx_a in
  let lb, ib, set_b = leaf_table db ~rel ctx_b in
  let shared = OidSet.inter la lb in
  let only_in_a = OidSet.diff la lb in
  let only_in_b = OidSet.diff lb la in
  let moved, same =
    OidSet.fold
      (fun leaf (moved, same) ->
        match (parent_in db ~rel ctx_a leaf, parent_in db ~rel ctx_b leaf) with
        | Some pa, Some pb ->
            (* parents are distinct objects across contexts only when the
               classifications use distinct group objects; when groups are
               shared, equality is direct.  Either way compare by leafset
               to stay objective.  A parent has an edge to the leaf, so
               it is internal. *)
            if pa = pb || OidSet.equal (set_a pa) (set_b pb) then (moved, same + 1)
            else ((leaf, pa, pb) :: moved, same)
        | _ -> (moved, same))
      shared ([], 0)
  in
  (* group-level agreement: pairs of internal nodes with equal leaf sets *)
  let agreeing_groups =
    OidSet.fold
      (fun ga acc ->
        let sa = set_a ga in
        OidSet.fold
          (fun gb acc ->
            if (not (OidSet.is_empty sa)) && OidSet.equal sa (set_b gb) then (ga, gb) :: acc
            else acc)
          ib acc)
      ia []
  in
  let n_shared = OidSet.cardinal shared in
  let agreement = if n_shared = 0 then 1.0 else float_of_int same /. float_of_int n_shared in
  { only_in_a; only_in_b; moved; agreeing_groups; agreement }

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>only in a: %d@ only in b: %d@ moved: %d@ agreeing groups: %d@ agreement: %.2f@]"
    (OidSet.cardinal r.only_in_a) (OidSet.cardinal r.only_in_b) (List.length r.moved)
    (List.length r.agreeing_groups) r.agreement
