(** Graphs as manipulable entities (thesis req. 1: "see graphs as an
    entity and manipulate that entity as a whole").

    A subgraph is a set of nodes plus the relationship instances
    (edges) among them.  Subgraphs can be extracted from a root within
    a classification context, compared, and copied into a fresh
    context — the operation underlying taxonomic revisions, where an
    existing classification is duplicated to serve as the starting
    point of a new one. *)

open Pmodel
module OidSet = Database.OidSet

type t = { nodes : OidSet.t; edges : int list (* relationship instance oids *) }

let empty = { nodes = OidSet.empty; edges = [] }
let node_count g = OidSet.cardinal g.nodes
let edge_count g = List.length g.edges

(** Extract the subgraph reachable from [root] through [rel] edges
    (restricted to [context] if given).  Includes the root; edges
    ascend by oid.  The closure is closed under outgoing edges, so its
    edges are exactly its nodes' outgoing ones. *)
let extract db ?context ~rel root : t =
  let nodes = Traverse.closure db ?context ~rel root in
  let hop = Database.iter_targets db ?context ~rel_name:rel in
  let edges = ref [] in
  let add _ edge = edges := edge :: !edges in
  OidSet.iter (fun n -> hop n add) nodes;
  { nodes; edges = List.sort Int.compare !edges }

(** The full graph of a classification context. *)
let of_context db ~rel ctx : t =
  let edges = Traverse.context_edges db ~rel ctx in
  { nodes = Traverse.endpoints edges; edges = List.map (fun (r : Obj.t) -> r.Obj.oid) edges }

(** Copy all edges of [g] into classification context [into]: the
    nodes are shared (classification is orthogonal to the classified
    data), only the classification structure is duplicated.  Edge
    attributes are carried over.  Returns the oids of the new edges. *)
let copy_into db (g : t) ~into : int list =
  List.map
    (fun edge_oid ->
      let r = Database.get_exn db edge_oid in
      let attrs =
        List.filter (fun (k, _) -> not (Obj.is_reserved_attr k)) (Obj.fields r)
      in
      Database.link db ~context:into ~attrs r.Obj.class_name ~origin:(Obj.origin r)
        ~destination:(Obj.destination r))
    g.edges

(* --- comparisons (thesis 7.1: comparing classifications) --------------- *)

(** Jaccard overlap of the node sets: |a ∩ b| / |a ∪ b|. *)
let overlap a b : float =
  let inter = OidSet.cardinal (OidSet.inter a.nodes b.nodes) in
  let union = OidSet.cardinal (OidSet.union a.nodes b.nodes) in
  if union = 0 then 0. else float_of_int inter /. float_of_int union

(** Structural equality of two subgraphs up to shared nodes: same node
    sets and same (origin, destination, class) edge triples. *)
let same_structure db a b : bool =
  let key oid =
    let r = Database.get_exn db oid in
    (Obj.origin r, Obj.destination r, r.Obj.class_name)
  in
  OidSet.equal a.nodes b.nodes
  && List.sort compare (List.map key a.edges) = List.sort compare (List.map key b.edges)
