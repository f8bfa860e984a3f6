(** The Prometheus meta-model: class and relationship definitions.

    Follows thesis ch. 4.2–4.4.  A schema holds plain (object) classes
    and relationship classes.  Relationship classes are first-class:
    they have their own attributes, a kind (aggregation/association),
    and built-in semantic attributes (exclusivity, sharability,
    lifetime dependency, constancy, cardinalities, attribute
    inheritance for role acquisition). *)

open Pstore

exception Schema_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Schema_error s)) fmt

type attr_def = {
  attr_name : string;
  attr_ty : Value.ty;
  required : bool; (* must be non-null once the enclosing transaction commits *)
  default : Value.t;
}

let attr ?(required = false) ?(default = Value.VNull) attr_name attr_ty =
  { attr_name; attr_ty; required; default }

type class_def = {
  class_name : string;
  supers : string list;
  attrs : attr_def list; (* own attributes, excluding inherited *)
  abstract : bool;
}

(** Relationship kind (thesis 4.4.1–4.4.2). *)
type rel_kind = Aggregation | Association

let pp_rel_kind ppf = function
  | Aggregation -> Format.pp_print_string ppf "aggregation"
  | Association -> Format.pp_print_string ppf "association"

(** Cardinality bound for one side of a relationship class. *)
type card = { cmin : int; cmax : int option }

let card ?(cmin = 0) ?cmax () = { cmin; cmax }
let many = { cmin = 0; cmax = None }

let pp_card ppf c =
  match c.cmax with
  | None -> Format.fprintf ppf "%d..*" c.cmin
  | Some m -> Format.fprintf ppf "%d..%d" c.cmin m

type rel_def = {
  rel_name : string;
  rel_supers : string list; (* relationship classes can be specialised *)
  origin : string; (* class name *)
  destination : string; (* class name *)
  kind : rel_kind;
  (* how many outgoing instances an origin object may have *)
  card_out : card;
  (* how many incoming instances a destination object may have *)
  card_in : card;
  (* built-in semantic attributes (thesis 4.4.3, figs. 12-16):
     - exclusive: within one classification context a destination has at
       most one incoming instance of this relationship class;
     - sharable: if false, a destination has at most one incoming
       instance of this class across *all* contexts;
     - lifetime_dep: destination existence depends on the relationship
       (deleting the origin cascades, thesis "dependency");
     - constant: endpoints cannot be re-targeted after creation. *)
  exclusive : bool;
  sharable : bool;
  lifetime_dep : bool;
  constant : bool;
  (* attribute inheritance / roles (thesis 4.4.5): relationship
     attributes listed here are visible as derived attributes on the
     destination object. *)
  inherited_attrs : string list;
  rel_attrs : attr_def list;
}

(** Allowed combinations of built-in behaviours (thesis Table 3):
    aggregations may be lifetime-dependent and non-sharable;
    associations must be sharable and must not be lifetime-dependent
    (a pure association never owns its destination). *)
let check_rel_combination (r : rel_def) =
  match r.kind with
  | Aggregation -> ()
  | Association ->
      if r.lifetime_dep then
        fail "relationship %s: an association cannot be lifetime-dependent" r.rel_name;
      if not r.sharable then
        fail "relationship %s: an association must be sharable" r.rel_name

let rel ?(supers = []) ?(kind = Association) ?(card_out = many) ?(card_in = many)
    ?(exclusive = false) ?(sharable = true) ?(lifetime_dep = false) ?(constant = false)
    ?(inherited_attrs = []) ?(attrs = []) rel_name ~origin ~destination =
  let r =
    {
      rel_name;
      rel_supers = supers;
      origin;
      destination;
      kind;
      card_out;
      card_in;
      exclusive;
      sharable;
      lifetime_dep;
      constant;
      inherited_attrs;
      rel_attrs = attrs;
    }
  in
  check_rel_combination r;
  r

(* ---------------------------------------------------------------------- *)
(* Schema                                                                  *)
(* ---------------------------------------------------------------------- *)

module SSet = Set.Make (String)

(* Besides the definitions, a schema holds their closures: supertype
   sets, subtype lists, flattened attribute lists and the interning of
   relationship classes to small ints.  Classes are never redefined or
   dropped and a class's supertypes are defined before it, so each
   closure is computed once, when its class is registered
   ({!add_class}, {!add_rel}, {!decode_into}), and reads allocate
   nothing.  Nothing is filled in lazily on read: one schema is read
   from several domains at once through a shared snapshot view. *)
type t = {
  classes : (string, class_def) Hashtbl.t;
  rels : (string, rel_def) Hashtbl.t;
  (* name -> its supertypes, itself and [Object] included *)
  ancestors : (string, SSet.t) Hashtbl.t;
  (* name -> object classes below it, itself included *)
  class_subs : (string, string list) Hashtbl.t;
  (* name -> relationship classes below it, itself included *)
  rel_subs : (string, string list) Hashtbl.t;
  (* name -> ascending ids of the relationship classes below it *)
  rel_sub_ids : (string, int array) Hashtbl.t;
  (* name -> all attributes, inherited ones included *)
  flat_attrs : (string, attr_def list) Hashtbl.t;
  rel_ids : (string, int) Hashtbl.t;
  mutable rel_by_id : rel_def array;
  (* the index catalog: the [(class, attribute)] pairs with a secondary
     index, ascending; the database builds each index from it whenever
     it builds a mirror *)
  mutable indexes : (string * string) list;
}

let object_class = "Object"

(** Built-in classes present in every schema. *)
let builtin_classes =
  [
    { class_name = object_class; supers = []; attrs = []; abstract = true };
    (* classification contexts (thesis 4.6.2) *)
    {
      class_name = "Context";
      supers = [ object_class ];
      attrs = [ attr "name" Value.TString; attr "description" Value.TString ];
      abstract = false;
    };
  ]

let find_class t name = Hashtbl.find_opt t.classes name
let find_rel t name = Hashtbl.find_opt t.rels name

let class_exn t name =
  match find_class t name with Some c -> c | None -> fail "unknown class %s" name

let rel_exn t name =
  match find_rel t name with Some r -> r | None -> fail "unknown relationship class %s" name

let is_class t name = Hashtbl.mem t.classes name
let is_rel t name = Hashtbl.mem t.rels name

let classes t = Hashtbl.fold (fun _ c acc -> c :: acc) t.classes []
let rels t = Hashtbl.fold (fun _ r acc -> r :: acc) t.rels []

let find_or tbl key default = match Hashtbl.find tbl key with v -> v | exception Not_found -> default

(** [is_subclass t ~sub ~super]: reflexive-transitive subclassing over
    both object classes and relationship classes; every class and
    relationship class is below [Object]. *)
let is_subclass t ~sub ~super =
  String.equal sub super || SSet.mem super (find_or t.ancestors sub SSet.empty)

(** Direct and transitive subclasses of [name] (including itself). *)
let subclasses t name : string list = find_or t.class_subs name []

let rel_subclasses t name : string list = find_or t.rel_subs name []

(** All attributes of a class or relationship class, including
    inherited ones.  Subclass definitions override superclass
    definitions of the same name (covariant redefinition). *)
let all_attrs t name : attr_def list = find_or t.flat_attrs name []

let rec find_attr_in attr_name = function
  | [] -> None
  | a :: rest -> if String.equal a.attr_name attr_name then Some a else find_attr_in attr_name rest

let find_attr t name attr_name = find_attr_in attr_name (all_attrs t name)

let rec mem_attr attr_name = function
  | [] -> false
  | a :: rest -> String.equal a.attr_name attr_name || mem_attr attr_name rest

(** Does class (or relationship class) [name] define or inherit [attr_name]? *)
let has_attr t name attr_name = mem_attr attr_name (all_attrs t name)

(** The small int a relationship class is interned to ([-1] for a name
    that is not a relationship class).  Ids are per schema value, in
    registration order, and never persisted. *)
let rel_id t name = find_or t.rel_ids name (-1)

let rel_of_id t id = t.rel_by_id.(id)

(** Ascending ids of the relationship classes below [name] (itself
    included): every relationship class for [Object], none for a name
    that is neither. *)
let rel_sub_ids t name = find_or t.rel_sub_ids name [||]

(** The index catalog, ascending. *)
let indexes t = t.indexes

let has_index t cls attr = List.mem (cls, attr) t.indexes

let set_indexes t l = t.indexes <- List.sort_uniq compare l

(* ---------------------------------------------------------------------- *)
(* Registration: closures computed once per definition                     *)
(* ---------------------------------------------------------------------- *)

(* A supertype's attributes come after the class's own, in [supers]
   order, first definition of a name winning: the depth-first walk of
   the hierarchy, taken from the supertypes' own flattened lists. *)
let flatten t own supers =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun a ->
      (not (Hashtbl.mem seen a.attr_name))
      && (Hashtbl.replace seen a.attr_name ();
          true))
    (own @ List.concat_map (all_attrs t) supers)

let closure t name supers =
  List.fold_left
    (fun acc s -> SSet.union acc (find_or t.ancestors s (SSet.singleton s)))
    (SSet.of_list [ name; object_class ])
    supers

let push tbl key v = Hashtbl.replace tbl key (v :: find_or tbl key [])

(* [c]'s supertypes must be registered already *)
let register_class t (c : class_def) =
  Hashtbl.replace t.classes c.class_name c;
  let anc = closure t c.class_name c.supers in
  Hashtbl.replace t.ancestors c.class_name anc;
  SSet.iter (fun a -> push t.class_subs a c.class_name) anc;
  Hashtbl.replace t.flat_attrs c.class_name (flatten t c.attrs c.supers)

(* [r]'s super relationships must be registered already *)
let register_rel t (r : rel_def) =
  Hashtbl.replace t.rels r.rel_name r;
  let id = Array.length t.rel_by_id in
  t.rel_by_id <- Array.append t.rel_by_id [| r |];
  Hashtbl.replace t.rel_ids r.rel_name id;
  let anc = closure t r.rel_name r.rel_supers in
  Hashtbl.replace t.ancestors r.rel_name anc;
  SSet.iter
    (fun a ->
      push t.rel_subs a r.rel_name;
      Hashtbl.replace t.rel_sub_ids a (Array.append (rel_sub_ids t a) [| id |]))
    anc;
  Hashtbl.replace t.flat_attrs r.rel_name (flatten t r.rel_attrs r.rel_supers)

let empty () =
  let t =
    {
      classes = Hashtbl.create 64;
      rels = Hashtbl.create 64;
      ancestors = Hashtbl.create 64;
      class_subs = Hashtbl.create 64;
      rel_subs = Hashtbl.create 64;
      rel_sub_ids = Hashtbl.create 64;
      flat_attrs = Hashtbl.create 64;
      rel_ids = Hashtbl.create 64;
      rel_by_id = [||];
      indexes = [];
    }
  in
  List.iter (register_class t) builtin_classes;
  t

(** A schema of its own, equal to [t] and with the same relationship
    ids.  The tables are copied; their values are never changed in
    place (a registration replaces them), so they are shared.  Not an
    {!encode}/{!decode_into} round trip: decoding interns relationship
    classes in name order, and the live schema's ids are in definition
    order. *)
let copy t =
  {
    classes = Hashtbl.copy t.classes;
    rels = Hashtbl.copy t.rels;
    ancestors = Hashtbl.copy t.ancestors;
    class_subs = Hashtbl.copy t.class_subs;
    rel_subs = Hashtbl.copy t.rel_subs;
    rel_sub_ids = Hashtbl.copy t.rel_sub_ids;
    flat_attrs = Hashtbl.copy t.flat_attrs;
    rel_ids = Hashtbl.copy t.rel_ids;
    rel_by_id = t.rel_by_id;
    indexes = t.indexes;
  }

(* ---------------------------------------------------------------------- *)
(* Schema definition with validation                                       *)
(* ---------------------------------------------------------------------- *)

let add_class t (c : class_def) =
  if Hashtbl.mem t.classes c.class_name || Hashtbl.mem t.rels c.class_name then
    fail "class %s already defined" c.class_name;
  List.iter
    (fun s -> if not (Hashtbl.mem t.classes s) then fail "class %s: unknown superclass %s" c.class_name s)
    c.supers;
  let c =
    if c.supers = [] && c.class_name <> object_class then { c with supers = [ object_class ] }
    else c
  in
  register_class t c

let define_class t ?(supers = []) ?(abstract = false) class_name attrs =
  add_class t { class_name; supers; attrs; abstract };
  class_exn t class_name

let add_rel t (r : rel_def) =
  if Hashtbl.mem t.rels r.rel_name || Hashtbl.mem t.classes r.rel_name then
    fail "relationship class %s already defined" r.rel_name;
  if not (Hashtbl.mem t.classes r.origin) then
    fail "relationship %s: unknown origin class %s" r.rel_name r.origin;
  if not (Hashtbl.mem t.classes r.destination) then
    fail "relationship %s: unknown destination class %s" r.rel_name r.destination;
  List.iter
    (fun s ->
      match Hashtbl.find_opt t.rels s with
      | None -> fail "relationship %s: unknown super relationship %s" r.rel_name s
      | Some super ->
          (* covariance: endpoints of the sub-relationship must conform *)
          if not (is_subclass t ~sub:r.origin ~super:super.origin) then
            fail "relationship %s: origin %s does not specialise %s" r.rel_name r.origin super.origin;
          if not (is_subclass t ~sub:r.destination ~super:super.destination) then
            fail "relationship %s: destination %s does not specialise %s" r.rel_name r.destination
              super.destination)
    r.rel_supers;
  check_rel_combination r;
  List.iter
    (fun a ->
      if not (List.exists (fun d -> d.attr_name = a) r.rel_attrs) then
        fail "relationship %s: inherited attribute %s is not a relationship attribute" r.rel_name a)
    r.inherited_attrs;
  register_rel t r

let define_rel t ?supers ?kind ?card_out ?card_in ?exclusive ?sharable ?lifetime_dep ?constant
    ?inherited_attrs ?attrs rel_name ~origin ~destination =
  let r =
    rel ?supers ?kind ?card_out ?card_in ?exclusive ?sharable ?lifetime_dep ?constant
      ?inherited_attrs ?attrs rel_name ~origin ~destination
  in
  add_rel t r;
  r

(* ---------------------------------------------------------------------- *)
(* Serialisation (the schema itself is stored in the database)             *)
(* ---------------------------------------------------------------------- *)

let encode_attr e (a : attr_def) =
  Codec.Enc.string e a.attr_name;
  Value.encode_ty e a.attr_ty;
  Codec.Enc.bool e a.required;
  Value.encode e a.default

let decode_attr d =
  let attr_name = Codec.Dec.string d in
  let attr_ty = Value.decode_ty d in
  let required = Codec.Dec.bool d in
  let default = Value.decode d in
  { attr_name; attr_ty; required; default }

let encode_string_list e l =
  Codec.Enc.u16 e (List.length l);
  List.iter (Codec.Enc.string e) l

let decode_string_list d =
  let n = Codec.Dec.u16 d in
  List.init n (fun _ -> Codec.Dec.string d)

let encode_card e c =
  Codec.Enc.u32 e c.cmin;
  match c.cmax with
  | None -> Codec.Enc.bool e false
  | Some m ->
      Codec.Enc.bool e true;
      Codec.Enc.u32 e m

let decode_card d =
  let cmin = Codec.Dec.u32 d in
  let cmax = if Codec.Dec.bool d then Some (Codec.Dec.u32 d) else None in
  { cmin; cmax }

let encode t : string =
  let e = Codec.Enc.create ~size:4096 () in
  (* classes and relationships in name order, not the tables' order:
     the record is a function of the schema alone, so a caller can tell
     whether the stored one is current by comparing bytes *)
  let user_classes =
    List.filter (fun c -> not (List.exists (fun b -> b.class_name = c.class_name) builtin_classes)) (classes t)
    |> List.sort (fun a b -> String.compare a.class_name b.class_name)
  in
  Codec.Enc.u32 e (List.length user_classes);
  List.iter
    (fun c ->
      Codec.Enc.string e c.class_name;
      encode_string_list e c.supers;
      Codec.Enc.bool e c.abstract;
      Codec.Enc.u16 e (List.length c.attrs);
      List.iter (encode_attr e) c.attrs)
    user_classes;
  let rels = List.sort (fun a b -> String.compare a.rel_name b.rel_name) (rels t) in
  Codec.Enc.u32 e (List.length rels);
  List.iter
    (fun r ->
      Codec.Enc.string e r.rel_name;
      encode_string_list e r.rel_supers;
      Codec.Enc.string e r.origin;
      Codec.Enc.string e r.destination;
      Codec.Enc.u8 e (match r.kind with Aggregation -> 0 | Association -> 1);
      encode_card e r.card_out;
      encode_card e r.card_in;
      Codec.Enc.bool e r.exclusive;
      Codec.Enc.bool e r.sharable;
      Codec.Enc.bool e r.lifetime_dep;
      Codec.Enc.bool e r.constant;
      encode_string_list e r.inherited_attrs;
      Codec.Enc.u16 e (List.length r.rel_attrs);
      List.iter (encode_attr e) r.rel_attrs)
    rels;
  (* The index catalog trails the relationship list, and only when it
     is non-empty.  A decoder that stops after the relationships (every
     build before the catalog existed) reads the same schema and no
     indexes; a record without the section decodes to an empty
     catalog. *)
  if t.indexes <> [] then begin
    Codec.Enc.u16 e (List.length t.indexes);
    List.iter
      (fun (cls, attr) ->
        Codec.Enc.string e cls;
        Codec.Enc.string e attr)
      t.indexes
  end;
  Codec.Enc.to_string e

let decode_into t (s : string) =
  let d = Codec.Dec.of_string s in
  let nclasses = Codec.Dec.u32 d in
  (* two passes not needed if stored in definition order; we sort
     topologically by inserting repeatedly *)
  let pending = ref [] in
  for _ = 1 to nclasses do
    let class_name = Codec.Dec.string d in
    let supers = decode_string_list d in
    let abstract = Codec.Dec.bool d in
    let nattrs = Codec.Dec.u16 d in
    let attrs = List.init nattrs (fun _ -> decode_attr d) in
    pending := { class_name; supers; attrs; abstract } :: !pending
  done;
  (* supertypes register before their subtypes, whatever the stored order *)
  let rec drain ~defined ~name ~supers register pending =
    if pending <> [] then begin
      let ready, blocked =
        List.partition (fun x -> List.for_all (fun s -> Hashtbl.mem defined s) (supers x)) pending
      in
      if ready = [] then fail "schema decode: cyclic or dangling hierarchy at %s" (name (List.hd blocked));
      List.iter (register t) ready;
      drain ~defined ~name ~supers register blocked
    end
  in
  drain ~defined:t.classes ~name:(fun c -> c.class_name) ~supers:(fun c -> c.supers) register_class
    (List.rev !pending);
  let nrels = Codec.Dec.u32 d in
  let pending =
    List.init nrels (fun _ ->
        let rel_name = Codec.Dec.string d in
        let rel_supers = decode_string_list d in
        let origin = Codec.Dec.string d in
        let destination = Codec.Dec.string d in
        let kind = match Codec.Dec.u8 d with 0 -> Aggregation | _ -> Association in
        let card_out = decode_card d in
        let card_in = decode_card d in
        let exclusive = Codec.Dec.bool d in
        let sharable = Codec.Dec.bool d in
        let lifetime_dep = Codec.Dec.bool d in
        let constant = Codec.Dec.bool d in
        let inherited_attrs = decode_string_list d in
        let nattrs = Codec.Dec.u16 d in
        let rel_attrs = List.init nattrs (fun _ -> decode_attr d) in
        {
          rel_name;
          rel_supers;
          origin;
          destination;
          kind;
          card_out;
          card_in;
          exclusive;
          sharable;
          lifetime_dep;
          constant;
          inherited_attrs;
          rel_attrs;
        })
  in
  drain ~defined:t.rels ~name:(fun r -> r.rel_name) ~supers:(fun r -> r.rel_supers) register_rel
    pending;
  set_indexes t
    (if Codec.Dec.eof d then []
     else
       List.init (Codec.Dec.u16 d) (fun _ ->
           let cls = Codec.Dec.string d in
           (cls, Codec.Dec.string d)))

(** Replace [t]'s whole schema with the one in record [s]: classes,
    relationships and the index catalog. *)
let reload t (s : string) =
  Hashtbl.reset t.classes;
  Hashtbl.reset t.ancestors;
  Hashtbl.reset t.class_subs;
  Hashtbl.reset t.rel_subs;
  Hashtbl.reset t.rels;
  Hashtbl.reset t.rel_sub_ids;
  Hashtbl.reset t.flat_attrs;
  Hashtbl.reset t.rel_ids;
  t.rel_by_id <- [||];
  t.indexes <- [];
  List.iter (register_class t) builtin_classes;
  decode_into t s
