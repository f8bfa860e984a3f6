(** The classification side: circumscription taxa and classifications.

    A classification is a Prometheus context; its structure is the set
    of [Circumscribes] relationship instances tagged with that context.
    Because [Circumscribes] is exclusive per context, each item (a
    specimen or a lower taxon) belongs to exactly one group within one
    classification, while remaining free to be classified differently
    in other classifications — multiple overlapping classifications
    (thesis 2.1.3, 4.6). *)

open Pmodel
module S = Tax_schema
module OidSet = Database.OidSet

let vstr s = Value.VString s

(** Start a new classification (a context).  [description] typically
    records author and publication of the classification. *)
let create_classification db ?(description = "") name : int =
  Database.create_context db ~description name

(** Create a circumscription taxon at [rank]. *)
let create_taxon db ~(rank : Rank.t) ?(notes = "") () : int =
  Database.create db S.taxon [ ("rank", vstr (Rank.to_string rank)); ("notes", vstr notes) ]

(** Place [item] (a specimen or a taxon) into [group] within
    classification [ctx].  [reason] records the motivation —
    traceability, thesis req. 4. *)
let circumscribe db ~ctx ~group ~item ?(reason = "") () : int =
  Database.link db S.circumscribes ~context:ctx ~origin:group ~destination:item
    ~attrs:[ ("reason", vstr reason) ]

(** Items directly circumscribed by [group] in [ctx]. *)
let members db ~ctx group : int list =
  Database.targets db ~context:ctx ~rel_name:S.circumscribes group

(** The group containing [item] in [ctx], if any. *)
let group_of db ~ctx item : int option =
  match Database.sources db ~context:ctx ~rel_name:S.circumscribes item with
  | g :: _ -> Some g
  | [] -> None

(** All specimens circumscribed (at any depth) under [group] in [ctx]
    — the recursive collection at the heart of naming and comparison
    (thesis req. 9). *)
let specimens_of db ~ctx group : OidSet.t =
  OidSet.filter
    (fun o -> S.is_specimen db o)
    (Pgraph.Traverse.closure db ~context:ctx ~rel:S.circumscribes group)

(** Direct sub-taxa of [group] in [ctx]. *)
let subtaxa db ~ctx group : int list = List.filter (S.is_taxon db) (members db ~ctx group)

(** All taxa participating in classification [ctx]. *)
let taxa_of_classification db ctx : OidSet.t =
  OidSet.filter (S.is_taxon db)
    (Pgraph.Traverse.nodes_of_context db ~rel:S.circumscribes ctx)

(** Top-level taxa of a classification. *)
let roots db ctx : int list =
  Pgraph.Traverse.roots db ~context:ctx ~rel:S.circumscribes (taxa_of_classification db ctx)

(** Attach an ascribed (published, historical) name to a taxon. *)
let ascribe_name db ~taxon ~name : int =
  Database.link db S.ascribed_name ~origin:taxon ~destination:name

(** The calculated (derived) name of a taxon, if derivation ran. *)
let calculated_name db taxon : int option =
  match Database.targets db ~rel_name:S.calculated_name taxon with
  | n :: _ -> Some n
  | [] -> None

let ascribed_name_of db taxon : int option =
  match Database.targets db ~rel_name:S.ascribed_name taxon with
  | n :: _ -> Some n
  | [] -> None

(** Give a taxon a provisional working name, used during a revision
    before names are derived (thesis 2.3). *)
let set_working_name db ~taxon text : unit =
  (* replace any existing working name (lifetime-dependent aggregation) *)
  List.iter
    (fun (r : Obj.t) -> Database.delete db (Obj.destination r))
    (Database.outgoing db ~rel_name:S.has_working_name taxon);
  let wn = Database.create db S.working_name [ ("text", vstr text) ] in
  ignore (Database.link db S.has_working_name ~origin:taxon ~destination:wn)

let working_name db taxon : string option =
  match Database.outgoing db ~rel_name:S.has_working_name taxon with
  | r :: _ -> (
      match Database.get_attr db (Obj.destination r) "text" with
      | Value.VString s -> Some s
      | _ -> None)
  | [] -> None

(** Copy a whole classification into a fresh context — the starting
    point of a revision (thesis 2.1.1, 7.1.4).  Returns the new
    context. *)
let start_revision db ~from_ctx name : int =
  let ctx = create_classification db name in
  let g = Pgraph.Subgraph.of_context db ~rel:S.circumscribes from_ctx in
  ignore (Pgraph.Subgraph.copy_into db g ~into:ctx);
  ctx

(** Move [item] to a different [group] within [ctx] (reclassification
    during a revision). *)
let move db ~ctx ~item ~group ?(reason = "") () : unit =
  (match Database.incoming db ~context:ctx ~rel_name:S.circumscribes item with
  | r :: _ -> Database.unlink db r.Obj.oid
  | [] -> ());
  ignore (circumscribe db ~ctx ~group ~item ~reason ())
