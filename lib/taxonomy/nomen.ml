(** The nomenclatural side: creation and rendering of names (NTs).

    A nomenclatural taxon is only meaningful as the combination of its
    constituents — epithet, rank, author, publication, types,
    placement (thesis 2.4.1 req. 5).  This module provides builders
    for that composite and the full-name rendering rules of the ICBN:
    binomial composition through the placement hierarchy and
    bracketed basionym authors for recombinations (thesis 2.1.2). *)

open Pmodel
module S = Tax_schema

let vstr s = Value.VString s
let vint i = Value.VInt i

let create_author db ~name ~abbreviation : int =
  Database.create db S.author [ ("name", vstr name); ("abbreviation", vstr abbreviation) ]

let create_publication db ~title ~year : int =
  Database.create db S.publication [ ("title", vstr title); ("year", vint year) ]

let create_specimen db ?(collector = "") ?(number = 0) ?(herbarium = "") ?collected () : int =
  Database.create db S.specimen
    ([ ("collector", vstr collector); ("number", vint number); ("herbarium", vstr herbarium) ]
    @ match collected with Some d -> [ ("collected", Value.VDate d) ] | None -> [])

(** Publish a name.  [placed_in] is the nomenclatural placement (e.g.
    the genus name a species epithet is combined with) — a record of
    combination use, not a classification statement.  [basionym_author]
    is rendered in brackets (recombinations). *)
let create_name db ~epithet ~(rank : Rank.t) ?year ?author ?basionym_author ?publication
    ?placed_in () : int =
  let n =
    Database.create db S.name
      ([ ("epithet", vstr epithet); ("rank", vstr (Rank.to_string rank)) ]
      @ match year with Some y -> [ ("year", vint y) ] | None -> [])
  in
  (match author with
  | Some a -> ignore (Database.link db S.authored_by ~origin:n ~destination:a)
  | None -> ());
  (match basionym_author with
  | Some a ->
      ignore
        (Database.link db S.authored_by ~origin:n ~destination:a
           ~attrs:[ ("in_brackets", Value.VBool true) ])
  | None -> ());
  (match publication with
  | Some p -> ignore (Database.link db S.published_in ~origin:n ~destination:p)
  | None -> ());
  (match placed_in with
  | Some g -> ignore (Database.link db S.placed_in ~origin:n ~destination:g)
  | None -> ());
  n

(** Designate [target] (a specimen, or a lower-rank name) as a
    taxonomic type of [name]. *)
let set_type db ~name ~target ~kind : int =
  if not (List.mem kind S.type_kinds) then
    invalid_arg (Printf.sprintf "unknown type kind %S" kind);
  Database.link db S.has_type ~origin:name ~destination:target ~attrs:[ ("kind", vstr kind) ]

let epithet db n = Value.as_string (Database.get_attr db n "epithet")

let year db n =
  match Database.get_attr db n "year" with Value.VInt y -> Some y | _ -> None

let rank db n = Tax_schema.rank_of_exn db n

(** The name this name is nomenclaturally placed in, if any. *)
let placement db n : int option =
  match Database.targets db ~rel_name:S.placed_in n with
  | p :: _ -> Some p
  | [] -> None

(** Taxonomic types of a name: (target oid, kind) pairs. *)
let types db n : (int * string) list =
  List.map
    (fun r -> (Obj.destination r, Value.as_string (Obj.get r "kind")))
    (Database.outgoing db ~rel_name:S.has_type n)

(** Authors: (author oid, bracketed?) pairs. *)
let authors db n : (int * bool) list =
  List.map
    (fun r ->
      ( Obj.destination r,
        match Obj.get r "in_brackets" with Value.VBool b -> b | _ -> false ))
    (Database.outgoing db ~rel_name:S.authored_by n)

let author_string db n : string =
  let abbrev a =
    match Database.get_attr db a "abbreviation" with
    | Value.VString s when s <> "" -> s
    | _ -> Value.as_string (Database.get_attr db a "name")
  in
  let bracketed, plain = List.partition snd (authors db n) in
  let b = String.concat "" (List.map (fun (a, _) -> "(" ^ abbrev a ^ ")") bracketed) in
  let p = String.concat " " (List.map (fun (a, _) -> abbrev a) plain) in
  String.trim (b ^ p)

(** Full rendered name.  Multinomial names (Species and below) are
    combined with their genus-level placement: "Apium graveolens L.";
    recombinations render the basionym author in brackets:
    "Heliosciadium repens (Jacq.) Koch". *)
let full_name db n : string =
  (* walk the placement chain upwards, collecting epithets:
     "Apium graveolens var. dulce" renders genus, species, own epithet *)
  let rec chain n depth =
    if depth > 8 then [ epithet db n ]
    else
      let e = epithet db n in
      if Rank.is_multinomial (rank db n) then
        match placement db n with Some p -> chain p (depth + 1) @ [ e ] | None -> [ e ]
      else [ e ]
  in
  let infra_marker r =
    match r with
    | Rank.Subspecies -> Some "subsp."
    | Rank.Varietas | Rank.Subvarietas -> Some "var."
    | Rank.Forma | Rank.Subforma -> Some "f."
    | _ -> None
  in
  let r = rank db n in
  let parts = chain n 0 in
  let base =
    match (infra_marker r, List.rev parts) with
    | Some marker, own :: rest -> String.concat " " (List.rev rest @ [ marker; own ])
    | _ -> String.concat " " parts
  in
  let a = author_string db n in
  if a = "" then base else base ^ " " ^ a

(** All names typified (directly) by [target]. *)
let typified_by db target : int list =
  Database.sources db ~rel_name:S.has_type target
  |> List.sort_uniq compare

(** Oldest validly published name among [names] (by year, then oid for
    determinism).  Names without a year sort last. *)
let oldest db names : int option =
  let key n = (Option.value (year db n) ~default:max_int, n) in
  match List.sort (fun a b -> compare (key a) (key b)) names with
  | [] -> None
  | n :: _ -> Some n
