(** The ICBN rank hierarchy (thesis fig. 1).

    Primary ranks are compulsory in classifications; secondary and sub
    ranks are optional, but the relative order must always be
    respected.  Ranks are shared between the nomenclatural and the
    classification sides of the taxonomic model (thesis fig. 6). *)

type t =
  | Regnum
  | Subregnum
  | Divisio
  | Subdivisio
  | Classis
  | Subclassis
  | Ordo
  | Subordo
  | Familia
  | Subfamilia
  | Tribus
  | Subtribus
  | Genus
  | Subgenus
  | Sectio
  | Subsectio
  | Series
  | Subseries
  | Species
  | Subspecies
  | Varietas
  | Subvarietas
  | Forma
  | Subforma

let all =
  [
    Regnum; Subregnum; Divisio; Subdivisio; Classis; Subclassis; Ordo; Subordo; Familia;
    Subfamilia; Tribus; Subtribus; Genus; Subgenus; Sectio; Subsectio; Series; Subseries;
    Species; Subspecies; Varietas; Subvarietas; Forma; Subforma;
  ]

(** Position in the hierarchy; smaller = higher (more general). *)
let order = function
  | Regnum -> 0
  | Subregnum -> 1
  | Divisio -> 2
  | Subdivisio -> 3
  | Classis -> 4
  | Subclassis -> 5
  | Ordo -> 6
  | Subordo -> 7
  | Familia -> 8
  | Subfamilia -> 9
  | Tribus -> 10
  | Subtribus -> 11
  | Genus -> 12
  | Subgenus -> 13
  | Sectio -> 14
  | Subsectio -> 15
  | Series -> 16
  | Subseries -> 17
  | Species -> 18
  | Subspecies -> 19
  | Varietas -> 20
  | Subvarietas -> 21
  | Forma -> 22
  | Subforma -> 23

let primary = [ Regnum; Divisio; Classis; Ordo; Familia; Genus; Species ]

let to_string = function
  | Regnum -> "Regnum"
  | Subregnum -> "Subregnum"
  | Divisio -> "Divisio"
  | Subdivisio -> "Subdivisio"
  | Classis -> "Classis"
  | Subclassis -> "Subclassis"
  | Ordo -> "Ordo"
  | Subordo -> "Subordo"
  | Familia -> "Familia"
  | Subfamilia -> "Subfamilia"
  | Tribus -> "Tribus"
  | Subtribus -> "Subtribus"
  | Genus -> "Genus"
  | Subgenus -> "Subgenus"
  | Sectio -> "Sectio"
  | Subsectio -> "Subsectio"
  | Series -> "Series"
  | Subseries -> "Subseries"
  | Species -> "Species"
  | Subspecies -> "Subspecies"
  | Varietas -> "Varietas"
  | Subvarietas -> "Subvarietas"
  | Forma -> "Forma"
  | Subforma -> "Subforma"

let of_string s =
  List.find_opt (fun r -> String.lowercase_ascii (to_string r) = String.lowercase_ascii s) all

(** [strictly_above a b]: may a taxon at rank [a] directly or
    indirectly contain a taxon at rank [b]? *)
let strictly_above a b = order a < order b

(** Binomial (multinomial) names start at Species (thesis 2.1.2):
    names at Species rank and below are combinations that require a
    genus-level placement. *)
let is_multinomial r = order r >= order Species

(** Names between Series and Species (Species excluded) start with a
    capital letter; at and below Species they start lowercase (thesis
    2.1.2).  Above Series all names are capitalised as well. *)
let requires_capital r = order r < order Species

(** Mandatory suffix of names published at this rank, if any. *)
let required_suffix = function
  | Familia -> Some "aceae"
  | Subfamilia -> Some "oideae"
  | Tribus -> Some "eae"
  | Subtribus -> Some "inea"
  | _ -> None

(** The 8 conserved family names exempt from the -aceae rule. *)
let family_exceptions =
  [ "Palmae"; "Gramineae"; "Cruciferae"; "Leguminosae"; "Guttiferae"; "Umbelliferae"; "Labiatae"; "Compositae" ]
