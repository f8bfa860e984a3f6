(** The Prometheus taxonomic schema (thesis fig. 6, [Pullan '00]).

    Nomenclature and classification are deliberately separated:

    - the *nomenclatural side* holds [Name] (nomenclatural taxa, NTs),
      [Author], [Publication], the typification relationship [HasType]
      and the placement relationship [PlacedIn];
    - the *classification side* holds [Taxon] (circumscription taxa,
      CTs) and the [Circumscribes] aggregation, whose instances are
      tagged with a classification context — one context per published
      or working classification, which is how multiple overlapping
      classifications coexist;
    - the two sides meet at [Specimen]s (type specimens) and ranks.

    [Circumscribes] is exclusive *per context*: within one
    classification an item belongs to one group, while across
    classifications the same specimen may be classified many ways. *)

open Pmodel

let specimen = "Specimen"
let author = "Author"
let publication = "Publication"
let name = "Name"
let working_name = "WorkingName"
let taxon = "Taxon"
let circumscribes = "Circumscribes"
let has_type = "HasType"
let placed_in = "PlacedIn"
let published_in = "PublishedIn"
let authored_by = "AuthoredBy"
let ascribed_name = "AscribedName"
let calculated_name = "CalculatedName"
let has_working_name = "HasWorkingName"

let type_kinds = [ "holotype"; "lectotype"; "neotype"; "isotype"; "syntype" ]

(** Kinds of taxonomic type that can name a group (an isotype or
    syntype cannot, thesis 2.1.2). *)
let naming_type_kinds = [ "holotype"; "lectotype"; "neotype" ]

(** Install the taxonomic schema into a database (idempotent). *)
let install (db : Database.t) : unit =
  let schema = Database.schema db in
  if not (Meta.is_class schema taxon) then begin
    ignore
      (Database.define_class db specimen
         [
           Meta.attr "collector" Value.TString;
           Meta.attr "number" Value.TInt;
           Meta.attr "herbarium" Value.TString;
           Meta.attr "collected" Value.TDate;
         ]);
    ignore
      (Database.define_class db author
         [ Meta.attr "name" Value.TString; Meta.attr "abbreviation" Value.TString ]);
    ignore
      (Database.define_class db publication
         [ Meta.attr "title" Value.TString; Meta.attr "year" Value.TInt ]);
    ignore
      (Database.define_class db name
         [
           Meta.attr "epithet" Value.TString ~required:true;
           Meta.attr "rank" Value.TString ~required:true;
           Meta.attr "year" Value.TInt;
           Meta.attr "status" Value.TString ~default:(Value.VString "valid");
         ]);
    ignore (Database.define_class db working_name [ Meta.attr "text" Value.TString ]);
    ignore
      (Database.define_class db taxon
         [ Meta.attr "rank" Value.TString ~required:true; Meta.attr "notes" Value.TString ]);
    (* classification side *)
    ignore
      (Database.define_rel db circumscribes ~origin:taxon ~destination:Meta.object_class
         ~kind:Meta.Aggregation ~exclusive:true
         ~attrs:[ Meta.attr "reason" Value.TString ] (* traceability (req. 4) *));
    (* nomenclatural side *)
    ignore
      (Database.define_rel db has_type ~origin:name ~destination:Meta.object_class
         ~attrs:[ Meta.attr "kind" Value.TString ~required:true ]
         ~inherited_attrs:[ "kind" ] (* role acquisition: type specimens *));
    ignore (Database.define_rel db placed_in ~origin:name ~destination:name);
    ignore (Database.define_rel db published_in ~origin:name ~destination:publication);
    ignore
      (Database.define_rel db authored_by ~origin:name ~destination:author
         ~attrs:[ Meta.attr "in_brackets" Value.TBool ~default:(Value.VBool false) ]);
    (* bridges between the two sides *)
    ignore (Database.define_rel db ascribed_name ~origin:taxon ~destination:name);
    ignore (Database.define_rel db calculated_name ~origin:taxon ~destination:name);
    ignore
      (Database.define_rel db has_working_name ~origin:taxon ~destination:working_name
         ~kind:Meta.Aggregation ~lifetime_dep:true ~sharable:false);
    (* name lookups ([n.epithet = '...']) probe this index, in every
       process that opens the database: the catalog is stored *)
    Database.create_index db name "epithet"
  end

let rank_of db oid : Rank.t option =
  match Database.get_attr db oid "rank" with
  | Value.VString s -> Rank.of_string s
  | _ -> None

let rank_of_exn db oid =
  match rank_of db oid with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "object #%d has no valid rank" oid)

let is_specimen db oid = Database.class_of db oid = Some specimen
let is_taxon db oid = Database.class_of db oid = Some taxon
let is_name db oid = Database.class_of db oid = Some name
