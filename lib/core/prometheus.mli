(** Prometheus: an extended object-oriented database with first-class
    relationships and multiple overlapping classifications.

    This is the public API of the system.  It wraps the layered
    architecture (storage, events, object layer, graph layer, rules,
    POOL/PCL languages, views) behind one module; power users can drop
    to the underlying layers through {!database}, {!engine} and
    {!bus}.

    Concepts:
    - {b objects} are instances of schema classes, addressed by oid;
    - {b relationship instances} (links) are first-class objects of
      relationship classes, carrying their own attributes and
      semantics (kind, exclusivity, sharability, lifetime dependency,
      constancy, cardinalities);
    - {b contexts} name classifications: links tagged with a context
      form one classification, and exclusivity is scoped per context,
      so the same objects participate in many overlapping
      classifications;
    - {b rules} observe every change and can veto (aborting the
      transaction), warn, repair, or ask. *)

type t
(** A database session handle. *)

(** {1 Values and types} *)

type value = Pmodel.Value.t =
  | VNull
  | VInt of int
  | VFloat of float
  | VString of string
  | VBool of bool
  | VDate of Pmodel.Value.date
  | VRef of int  (** reference to an object by oid *)
  | VList of value list
  | VSet of value list  (** sorted, duplicate-free *)
  | VBag of value list  (** sorted *)

type ty = Pmodel.Value.ty =
  | TInt
  | TFloat
  | TString
  | TBool
  | TDate
  | TRef of string  (** target class name *)
  | TList of ty
  | TSet of ty
  | TBag of ty
  | TAny

type rel_kind = Pmodel.Meta.rel_kind = Aggregation | Association

exception Violation of { rule : string; message : string }
(** Raised when a rule with the Abort action is violated; inside
    {!with_tx} the transaction is rolled back before re-raising. *)

val attr :
  ?required:bool -> ?default:value -> string -> ty -> Pmodel.Meta.attr_def
(** [attr name ty] declares an attribute for {!define_class} /
    {!define_rel}. *)

val card : ?cmin:int -> ?cmax:int -> unit -> Pmodel.Meta.card
(** Cardinality bound: [card ~cmin:1 ~cmax:4 ()]; omitted [cmax] means
    unbounded.  Maxima are enforced immediately, minima at commit. *)

val vset : value list -> value
(** Build a [VSet] (sorts, removes duplicates). *)

val vstr : string -> value
val vint : int -> value
val vdate : ?month:int -> ?day:int -> int -> Pmodel.Value.date

(** {1 Lifecycle} *)

val open_ : ?cache_pages:int -> ?check_min_cards:bool -> string -> t
(** Open (creating if needed) the database at a path.  [cache_pages]
    sizes the storage buffer pool; [check_min_cards] (default true)
    arms commit-time validation of relationship minimum
    cardinalities. *)

val close : t -> unit

val database : t -> Pmodel.Database.t
(** Escape hatch to the object layer. *)

val engine : t -> Prules.Engine.t
val schema : t -> Pmodel.Meta.t
val bus : t -> Pevent.Bus.t
val stats : t -> Pstore.Store.stats

(** {1 Schema definition} *)

val define_class :
  t ->
  ?supers:string list ->
  ?abstract:bool ->
  string ->
  Pmodel.Meta.attr_def list ->
  Pmodel.Meta.class_def
(** Define a class (persisted).  Classes without explicit supers extend
    [Object]. *)

val define_rel :
  t ->
  ?supers:string list ->
  ?kind:rel_kind ->
  ?card_out:Pmodel.Meta.card ->
  ?card_in:Pmodel.Meta.card ->
  ?exclusive:bool ->
  ?sharable:bool ->
  ?lifetime_dep:bool ->
  ?constant:bool ->
  ?inherited_attrs:string list ->
  ?attrs:Pmodel.Meta.attr_def list ->
  string ->
  origin:string ->
  destination:string ->
  Pmodel.Meta.rel_def
(** Define a relationship class (persisted).  Semantics:
    - [exclusive]: a destination has at most one incoming instance of
      this class {e within each classification context};
    - [sharable:false]: at most one incoming instance across {e all}
      contexts (aggregations only);
    - [lifetime_dep]: deleting the origin cascades to destinations that
      lose their last lifetime-dependent support (aggregations only);
    - [constant]: endpoints and attributes frozen after creation;
    - [inherited_attrs]: attributes of this relationship visible as
      derived (role) attributes on destination objects. *)

(** {1 Transactions} *)

val with_tx : t -> (unit -> 'a) -> 'a
(** Run in a transaction; any exception (including rule {!Violation},
    possibly raised at commit by deferred rules) aborts and
    re-raises.  Nestable: only the outermost commits. *)

val begin_tx : t -> unit
val commit : t -> unit
val abort : t -> unit

val whatif : t -> (unit -> 'a) -> 'a
(** What-if scenario: run speculative changes, return the computed
    result, roll everything back (thesis 7.1.4). *)

(** {1 Objects} *)

val create : t -> string -> (string * value) list -> int
(** [create t "Person" [("name", vstr "Ada")]] validates attributes
    against the class, applies defaults, persists and returns the new
    oid. *)

val get : t -> int -> Pmodel.Obj.t option
val get_exn : t -> int -> Pmodel.Obj.t

val get_attr : t -> int -> string -> value
(** Attribute access with role acquisition: attributes the object's
    class does not declare are looked up on incoming relationship
    instances that declare them inherited. *)

val update : t -> int -> string -> value -> unit
val delete : t -> int -> unit
(** Deleting an object removes all relationship instances touching it
    and cascades along lifetime-dependent aggregations. *)

val class_of : t -> int -> string option
val extent : t -> ?deep:bool -> string -> Pmodel.Database.OidSet.t
val extent_list : t -> ?deep:bool -> string -> int list
val count : t -> ?deep:bool -> string -> int

(** {1 Relationships} *)

val link :
  t ->
  ?context:int ->
  ?attrs:(string * value) list ->
  string ->
  origin:int ->
  destination:int ->
  int
(** Create a relationship instance; returns its oid.  All semantic
    checks of the relationship class run first. *)

val unlink : t -> int -> unit
val retarget : t -> int -> ?origin:int -> ?destination:int -> unit -> unit

val outgoing : t -> ?context:int -> rel_name:string -> int -> Pmodel.Obj.t list
(** Outgoing instances of a relationship class (and its
    sub-relationship-classes) at an origin, optionally scoped to one
    context. *)

val incoming : t -> ?context:int -> rel_name:string -> int -> Pmodel.Obj.t list
val rels_of : t -> int -> Pmodel.Obj.t list
val has_role : t -> int -> rel_name:string -> bool

(** {1 Classifications (contexts)} *)

val create_context : t -> ?description:string -> string -> int
val contexts : t -> (int * string) list
val find_context : t -> string -> int option
val context_rels : t -> int -> Pmodel.Obj.t list

(** {1 Instance synonyms} *)

val declare_synonym : t -> int -> int -> unit
(** Declare that two instances denote the same real-world entity
    (thesis 4.5). Transitive. *)

val same_entity : t -> int -> int -> bool
val synonym_set : t -> int -> Pmodel.Database.OidSet.t

(** {1 Indexes} *)

val create_index : t -> string -> string -> unit
(** [create_index t "Person" "name"]: secondary index used by POOL
    equality probes; maintained on update, covers subclasses.  The
    index is entered in the schema's stored catalog: it commits or rolls
    back with the enclosing transaction (outside one it commits on its
    own), replicates, and every later open rebuilds it.  Raises
    [Model_error] unless the class declares the attribute and, on a
    relationship class, it is not an endpoint ([origin], [destination],
    [context]). *)

val drop_index : t -> string -> string -> unit

(** {1 Queries (POOL)} *)

val query : ?env:(string * value) list -> t -> string -> value
(** Run a POOL query.  [env] binds free variables, e.g.
    [query ~env:[("x", VRef oid)] t "count(x.targets('ChildOf'))"]. *)

val rows : ?env:(string * value) list -> t -> string -> value list
val scalar : ?env:(string * value) list -> t -> string -> value
val check : ?env:(string * value) list -> t -> string -> bool

val check_query : t -> string -> string list
(** Static type/shape check of a query (thesis 5.1.2.4); returns
    human-readable errors, [[]] when clean. *)

(** {1 Rules and PCL} *)

val add_rule : t -> Prules.Rule.t -> unit
val add_rules : t -> Prules.Rule.t list -> unit
val remove_rule : t -> string -> unit
val rule_warnings : t -> (string * string) list
val clear_warnings : t -> unit

val pcl : t -> string -> Prules.Rule.t
(** Install a PCL constraint, e.g.
    [pcl t "context Family inv suffix: endswith(self.name, 'aceae')"]. *)

(** {1 Views} *)

val define_view :
  t -> name:string -> query:string -> ?materialised:bool -> unit -> int

val drop_view : t -> string -> unit
val view : t -> ?env:(string * value) list -> string -> value
val view_rows : t -> ?env:(string * value) list -> string -> value list
val views : t -> (string * string) list

(** {1 Graph operations} *)

val descendants :
  t ->
  ?context:int ->
  ?min_depth:int ->
  ?max_depth:int ->
  rel:string ->
  int ->
  Pmodel.Database.OidSet.t

val ancestors :
  t ->
  ?context:int ->
  ?min_depth:int ->
  ?max_depth:int ->
  rel:string ->
  int ->
  Pmodel.Database.OidSet.t

val closure : t -> ?context:int -> rel:string -> int -> Pmodel.Database.OidSet.t
val subgraph : t -> ?context:int -> rel:string -> int -> Pgraph.Subgraph.t
val subgraph_of_context : t -> rel:string -> int -> Pgraph.Subgraph.t
val copy_subgraph : t -> Pgraph.Subgraph.t -> into:int -> int list
