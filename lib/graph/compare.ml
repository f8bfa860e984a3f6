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

(* Leaf tests are set-based, so they can run off the CSR snapshot;
   [parent_in] stays on the mirror walk because it observes list
   *order* (first parent), which the snapshot does not preserve. *)
let is_leaf db ?csr ~rel ctx n : bool =
  if Traverse.use_csr csr then not (Csr.has_out (Csr.get (Csr.handle db) ~context:ctx ~rel ()) n)
  else Traverse.children db ~context:ctx ~rel n = []

let leaves_of db ?csr ~rel ctx : OidSet.t =
  let nodes = Traverse.nodes_of_context db ~rel ctx in
  OidSet.filter (fun n -> is_leaf db ?csr ~rel ctx n) nodes

let parent_in db ~rel ctx leaf : int option =
  match Traverse.parents db ~context:ctx ~rel leaf with p :: _ -> Some p | [] -> None

(** Leaf set below [node] (the node itself when it is a leaf). *)
let leafset db ?csr ~rel ctx node : OidSet.t =
  let clo = Traverse.closure db ~context:ctx ?csr ~rel node in
  OidSet.filter (fun n -> is_leaf db ?csr ~rel ctx n) clo

let compare_contexts db ?csr ~rel ~ctx_a ~ctx_b () : report =
  let la = leaves_of db ?csr ~rel ctx_a in
  let lb = leaves_of db ?csr ~rel ctx_b in
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
               to stay objective. *)
            if
              pa = pb
              || OidSet.equal (leafset db ?csr ~rel ctx_a pa) (leafset db ?csr ~rel ctx_b pb)
            then (moved, same + 1)
            else ((leaf, pa, pb) :: moved, same)
        | _ -> (moved, same))
      shared ([], 0)
  in
  (* group-level agreement: pairs of internal nodes with equal leaf sets *)
  let internal ctx =
    OidSet.filter
      (fun n -> not (is_leaf db ?csr ~rel ctx n))
      (Traverse.nodes_of_context db ~rel ctx)
  in
  let ia = internal ctx_a and ib = internal ctx_b in
  let agreeing_groups =
    OidSet.fold
      (fun ga acc ->
        let sa = leafset db ?csr ~rel ctx_a ga in
        OidSet.fold
          (fun gb acc ->
            if (not (OidSet.is_empty sa)) && OidSet.equal sa (leafset db ?csr ~rel ctx_b gb) then
              (ga, gb) :: acc
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
