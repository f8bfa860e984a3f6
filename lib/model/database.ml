(** The Prometheus object layer.

    Sits on the {!Pstore.Store} substrate and implements the extended
    object model of thesis ch. 4: objects, extents, first-class
    relationship instances with semantic checks (exclusivity,
    sharability, lifetime dependency, constancy, cardinality),
    classification contexts, attribute inheritance (roles) and instance
    synonyms.  Every state change emits a primitive event on the
    {!Pevent.Bus} for the rules and view layers.

    All objects are mirrored in memory (write-through to the store);
    abort rebuilds the in-memory mirror from the rolled-back store.  The
    mirror never changes an {!Obj.t} in place (an update binds a new
    one), so a snapshot view copies the mirror's tables and shares its
    objects. *)

open Pstore
open Pevent

exception Model_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Model_error s)) fmt

module OidSet = Dense.OidSet

(** Secondary indexes are ordered maps over attribute values (under the
    same total order {!Value.compare_value} that the query operators
    [=], [<], [<=] use), so equality probes, range scans and
    LIKE-prefix scans all push down to the index layer.  The previous
    hash-table representation keyed on structural equality, which
    disagreed with [=] on mixed numerics ([VInt 1] vs [VFloat 1.]); the
    ordered map makes index answers exactly the rows an extent scan
    with the same predicate would keep. *)
module ValueMap = Map.Make (struct
  type t = Value.t

  let compare = Value.compare_value
end)

let schema_oid = 1 (* reserved oid holding the serialised schema *)
let synonym_class = "__synonym"

(** Layer-private state attached to the database record itself (the
    query layer's plan cache and counters).  Extensible so upper layers can store their own
    types without this module depending on them; each layer declares a
    constructor and files it under its own key via {!ext_set}.  Living
    on the record, the state shares the database's lifetime exactly —
    no global registry to cap, to leak strong references to closed
    databases, or to reset statistics behind an open database's back. *)
type ext = ..

type t = {
  store : Store.t;
  (* [Some lsn] marks a snapshot view frozen at [lsn]: reads come from
     its own copy of the mirror, mutators are rejected, and [close]
     leaves the (shared) store open. *)
  view : int option;
  schema : Meta.t;
  bus : Bus.t;
  (* in-memory mirror, indexed by oid (see {!Dense}) *)
  objects : Obj.t Dense.t; (* absent: {!no_obj} *)
  extents : (string, Dense.Vec.t) Hashtbl.t; (* exact class -> ascending oids *)
  (* relationship edges per endpoint (see {!Adj}): origin -> outgoing,
     destination -> incoming *)
  out_adj : Adj.t;
  in_adj : Adj.t;
  (* secondary attribute indexes, one per entry of the schema's index
     catalog: (class, attr, ordered value map -> oids).  A list: there
     are few, and every insert walks it *)
  mutable indexes : (string * string * OidSet.t ValueMap.t ref) list;
  (* bumped on create_index/drop_index and on class/relationship
     definition so cached query plans can detect that their access-path
     and extent-vs-expression choices went stale *)
  mutable index_epoch : int;
  (* layer-private state, keyed by layer (see {!type:ext}); [ext_mu]
     serialises get-or-init so concurrent readers over a shared
     snapshot view can't double-install a layer's state *)
  ext : (string, ext) Hashtbl.t;
  ext_mu : Mutex.t;
  (* instance synonyms: union-find parent map (rebuilt on open) *)
  syn_parent : (int, int) Hashtbl.t;
  (* oids touched in the current transaction, for deferred checks *)
  touched : (int, unit) Hashtbl.t;
  mutable tx_depth : int;
}

(* ---------------------------------------------------------------------- *)
(* Small helpers over the mirror                                           *)
(* ---------------------------------------------------------------------- *)

(* the objects table's absent value: never in the mirror *)
let no_obj = Obj.make ~oid:(-1) ~class_name:"" []

let schema t = t.schema
let bus t = t.bus
let store t = t.store
let ext_set t key (v : ext) = Hashtbl.replace t.ext key v

(** Atomically fetch the layer state under [key], installing [mk ()]
    on first use.  The lock covers lookup + install, so two domains
    racing on a shared snapshot view agree on one state value. *)
let ext_get_or_init t key (mk : unit -> ext) : ext =
  Mutex.lock t.ext_mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.ext_mu)
    (fun () ->
      match Hashtbl.find_opt t.ext key with
      | Some v -> v
      | None ->
          let v = mk () in
          Hashtbl.replace t.ext key v;
          v)

let is_view t = t.view <> None

let check_writable t =
  if is_view t then fail "operation not permitted on a read-only snapshot view"
let is_subclass t = fun ~sub ~super -> Meta.is_subclass t.schema ~sub ~super

let get t oid : Obj.t option =
  let o = Dense.get t.objects oid in
  if o == no_obj then None else Some o

let get_exn t oid =
  let o = Dense.get t.objects oid in
  if o == no_obj then fail "no object with oid %d" oid else o

let class_of t oid =
  let o = Dense.get t.objects oid in
  if o == no_obj then None else Some o.Obj.class_name

let is_rel_instance t (o : Obj.t) = Meta.is_rel t.schema o.Obj.class_name

let touch t oid = if t.tx_depth > 0 then Hashtbl.replace t.touched oid ()

(* ---------------------------------------------------------------------- *)
(* Index maintenance                                                       *)
(* ---------------------------------------------------------------------- *)

let index_covers t ~index_class ~obj_class =
  Meta.is_subclass t.schema ~sub:obj_class ~super:index_class

let map_add table key oid =
  table :=
    ValueMap.update key
      (function Some s -> Some (OidSet.add oid s) | None -> Some (OidSet.singleton oid))
      !table

let map_remove table key oid =
  table :=
    ValueMap.update key
      (function
        | Some s ->
            let s = OidSet.remove oid s in
            if OidSet.is_empty s then None else Some s
        | None -> None)
      !table

let rec find_index cls attr = function
  | [] -> None
  | (c, a, table) :: rest ->
      if String.equal c cls && String.equal a attr then Some table else find_index cls attr rest

(* [f table (Obj.get o attr) oid] for each index [(cls, attr, table)]
   whose class covers [o]'s; a recursion, not an iterator's closure,
   so an insert allocates nothing here *)
let rec each_covering t (o : Obj.t) f = function
  | [] -> ()
  | (cls, attr, table) :: rest ->
      if index_covers t ~index_class:cls ~obj_class:o.Obj.class_name then
        f table (Obj.get o attr) o.Obj.oid;
      each_covering t o f rest

let index_add t o = each_covering t o map_add t.indexes
let index_remove t o = each_covering t o map_remove t.indexes

let index_update t (o : Obj.t) attr ~old_v ~new_v =
  List.iter
    (fun (cls, a, table) ->
      if String.equal a attr && index_covers t ~index_class:cls ~obj_class:o.Obj.class_name then begin
        map_remove table old_v o.Obj.oid;
        map_add table new_v o.Obj.oid
      end)
    t.indexes

(* ---------------------------------------------------------------------- *)
(* Mirror (re)construction                                                 *)
(* ---------------------------------------------------------------------- *)

(* union the two endpoints of synonym record [o] *)
let syn_union t (o : Obj.t) =
  let a = Value.as_ref (Obj.get o "a") and b = Value.as_ref (Obj.get o "b") in
  let rec root x = match Hashtbl.find_opt t.syn_parent x with Some p when p <> x -> root p | _ -> x in
  let ra = root a and rb = root b in
  if ra <> rb then Hashtbl.replace t.syn_parent (max ra rb) (min ra rb)

let mirror_insert t (o : Obj.t) =
  Dense.set t.objects o.Obj.oid o;
  (match Hashtbl.find_opt t.extents o.Obj.class_name with
  | Some v -> Dense.Vec.add v o.Obj.oid
  | None ->
      let v = Dense.Vec.create () in
      Dense.Vec.add v o.Obj.oid;
      Hashtbl.replace t.extents o.Obj.class_name v);
  if is_rel_instance t o then begin
    let cls = Meta.rel_id t.schema o.Obj.class_name and rel = o.Obj.oid in
    let origin = Obj.origin o and destination = Obj.destination o in
    let ctx = Adj.context_key (Obj.context o) in
    Adj.add t.out_adj origin ~cls ~rel ~far:destination ~ctx;
    Adj.add t.in_adj destination ~cls ~rel ~far:origin ~ctx
  end;
  if o.Obj.class_name = synonym_class then syn_union t o;
  index_add t o

let mirror_remove t (o : Obj.t) =
  Dense.remove t.objects o.Obj.oid;
  Option.iter (fun v -> Dense.Vec.remove v o.Obj.oid) (Hashtbl.find_opt t.extents o.Obj.class_name);
  if is_rel_instance t o then begin
    Adj.remove t.out_adj (Obj.origin o) ~rel:o.Obj.oid;
    Adj.remove t.in_adj (Obj.destination o) ~rel:o.Obj.oid
  end;
  (* a union cannot be split: rebuild them from the synonyms left *)
  if o.Obj.class_name = synonym_class then begin
    Hashtbl.reset t.syn_parent;
    Option.iter
      (Dense.Vec.iter (fun oid -> syn_union t (Dense.get t.objects oid)))
      (Hashtbl.find_opt t.extents synonym_class)
  end;
  index_remove t o

(** The classes whose objects make up the deep extent of [class_name]:
    itself and its subclasses (as in ODMG), relationship subclasses for
    a relationship class. *)
let extent_classes t class_name =
  if Meta.is_rel t.schema class_name then Meta.rel_subclasses t.schema class_name
  else Meta.subclasses t.schema class_name

(** Is [oid] a live object of one of [classes]?  With
    [extent_classes t c], whether [oid] is in [c]'s deep extent: a class
    test, no scan. *)
let in_extent t classes oid =
  let rec mem name = function [] -> false | c :: rest -> String.equal c name || mem name rest in
  let o = Dense.get t.objects oid in
  o != no_obj && mem o.Obj.class_name classes

(* The non-empty extent vectors of [class_name], and of its subclasses
   when [deep].  Each object is in exactly one vector (its exact
   class's), so the vectors are disjoint. *)
let extent_vecs t ~deep class_name : Dense.Vec.t list =
  let vec c =
    match Hashtbl.find_opt t.extents c with
    | Some v when Dense.Vec.length v > 0 -> Some v
    | _ -> None
  in
  if deep then List.filter_map vec (extent_classes t class_name)
  else Option.to_list (vec class_name)

(* An index over the mirror as it stands, read off the class's deep
   extent: no other object is looked at. *)
let build_index t cls attr =
  let table = ref ValueMap.empty in
  List.iter
    (Dense.Vec.iter (fun oid -> map_add table (Obj.get (Dense.get t.objects oid) attr) oid))
    (extent_vecs t ~deep:true cls);
  table

(* Make the live tables match the schema's index catalog: keep each
   table still catalogued, build the new ones, drop the rest. *)
let sync_indexes t =
  t.indexes <-
    List.map
      (fun (cls, attr) ->
        match find_index cls attr t.indexes with
        | Some table -> (cls, attr, table)
        | None -> (cls, attr, build_index t cls attr))
      (Meta.indexes t.schema)

(* Rebuild the mirror from [iter] over the store's records, then one
   index per entry of the schema's catalog. *)
let rebuild_mirror t iter =
  Dense.clear t.objects;
  Hashtbl.reset t.extents;
  Adj.reset t.out_adj;
  Adj.reset t.in_adj;
  Hashtbl.reset t.syn_parent;
  t.indexes <- [];
  iter (fun oid data -> if oid <> schema_oid then mirror_insert t (Obj.decode ~oid data));
  sync_indexes t

(* ---------------------------------------------------------------------- *)
(* Lifecycle                                                               *)
(* ---------------------------------------------------------------------- *)

let persist_schema t = Store.put t.store ~oid:schema_oid (Meta.encode t.schema)

let register_builtin_classes schema =
  if not (Meta.is_class schema synonym_class) then
    ignore
      (Meta.define_class schema synonym_class
         [ Meta.attr "a" (Value.TRef Meta.object_class); Meta.attr "b" (Value.TRef Meta.object_class) ])

let open_ ?cache_pages ?vfs ?readonly path : t =
  let store = Store.open_ ?cache_pages ?vfs ?readonly path in
  let ro = Store.is_readonly store in
  let schema = Meta.empty () in
  let stored = Store.get store ~oid:schema_oid in
  (match stored with
  | Some data -> Meta.decode_into schema data
  | None ->
      if ro then fail "%s: readonly open of a store with no schema" path;
      let oid = Store.fresh_oid store in
      if oid <> schema_oid then fail "fresh store did not yield the schema oid (got %d)" oid);
  register_builtin_classes schema;
  let bus = Bus.create () in
  let t =
    {
      store;
      view = None;
      schema;
      bus;
      objects = Dense.create no_obj;
      extents = Hashtbl.create 64;
      out_adj = Adj.create ();
      in_adj = Adj.create ();
      indexes = [];
      index_epoch = 0;
      ext = Hashtbl.create 4;
      ext_mu = Mutex.create ();
      syn_parent = Hashtbl.create 64;
      touched = Hashtbl.create 64;
      tx_depth = 0;
    }
  in
  Bus.set_subclass_pred bus (is_subclass t);
  (* The record is written only when it is missing or out of date (a
     fresh store, a builtin class added since), and under the journal:
     an open that only reads writes nothing.  A read-only handle
     (replica serving) never writes; [register_builtin_classes] is
     idempotent, so its schema is whole without the write. *)
  (if not ro then
     let data = Meta.encode schema in
     if not (Option.equal String.equal stored (Some data)) then
       Store.with_tx store (fun () -> Store.put store ~oid:schema_oid data));
  rebuild_mirror t (Store.iter store);
  t

(* A view holds no resource of its own. *)
let close t = if not (is_view t) then Store.close t.store

(* ---------------------------------------------------------------------- *)
(* Snapshot views                                                          *)
(* ---------------------------------------------------------------------- *)

(* A view of its own over [tables] (a record whose mirror it takes):
   fresh layer state and bus, no transaction. *)
let view_of tables ~lsn =
  let t =
    {
      tables with
      view = Some lsn;
      bus = Bus.create ();
      ext = Hashtbl.create 4;
      ext_mu = Mutex.create ();
      touched = Hashtbl.create 1;
      tx_depth = 0;
    }
  in
  Bus.set_subclass_pred t.bus (is_subclass t);
  t

(** Freeze the current committed state into a read-only database view.

    The view is a complete, self-contained {!t}: queries, extents,
    indexes and graph traversals all work, pinned at the store LSN it
    was taken at.  Mutators and transactions are rejected.  It is a
    copy of the mirror taken between transactions (under the store's
    commit-boundary lock, so a {!Writer} batch on another domain is
    never seen half done): the object table, extents, adjacency rows,
    synonym unions, index tables and schema are the view's own, the
    objects themselves (never changed in place) are shared with the
    parent.  Changes to the live handle made outside a transaction
    are not fenced by that lock: a handle other domains take views of
    changes only inside transactions.  A view is built for one domain;
    to fan out across N domains either [snapshot_clone] it per domain
    or share one view —
    shared views are safe because all reads go to the frozen mirror and
    layer state is installed under {!ext_get_or_init}. *)
let snapshot (parent : t) : t =
  if is_view parent then fail "snapshot of a snapshot view";
  Store.at_commit_boundary parent.store (fun () ->
      let extents = Hashtbl.create (Hashtbl.length parent.extents) in
      Hashtbl.iter (fun c v -> Hashtbl.replace extents c (Dense.Vec.copy v)) parent.extents;
      view_of
        {
          parent with
          schema = Meta.copy parent.schema;
          objects = Dense.copy parent.objects;
          extents;
          out_adj = Adj.copy parent.out_adj;
          in_adj = Adj.copy parent.in_adj;
          indexes = List.map (fun (c, a, m) -> (c, a, ref !m)) parent.indexes;
          syn_parent = Hashtbl.copy parent.syn_parent;
        }
        ~lsn:(Store.lsn parent.store))

(** Another view of the same frozen state (own layer state) for another
    domain: it shares the base view's tables, which nothing writes. *)
let snapshot_clone (v : t) : t =
  match v.view with
  | None -> fail "snapshot_clone of a live database"
  | Some lsn -> view_of v ~lsn

(** The LSN a snapshot view is frozen at. *)
let view_lsn t = match t.view with Some lsn -> lsn | None -> Store.lsn t.store

(* ---------------------------------------------------------------------- *)
(* Schema definition (persisted)                                           *)
(* ---------------------------------------------------------------------- *)

(* Schema definition bumps [index_epoch]: compiled plans bake in which
   names denote class extents (Plan.compile's extent-vs-expression
   choice), so a plan cached before a class existed must replan. *)
let define_class t ?supers ?abstract name attrs =
  check_writable t;
  let c = Meta.define_class t.schema ?supers ?abstract name attrs in
  t.index_epoch <- t.index_epoch + 1;
  persist_schema t;
  c

let define_rel t ?supers ?kind ?card_out ?card_in ?exclusive ?sharable ?lifetime_dep ?constant
    ?inherited_attrs ?attrs name ~origin ~destination =
  check_writable t;
  let r =
    Meta.define_rel t.schema ?supers ?kind ?card_out ?card_in ?exclusive ?sharable ?lifetime_dep
      ?constant ?inherited_attrs ?attrs name ~origin ~destination
  in
  t.index_epoch <- t.index_epoch + 1;
  persist_schema t;
  r

(* ---------------------------------------------------------------------- *)
(* Transactions                                                            *)
(* ---------------------------------------------------------------------- *)

let in_tx t = t.tx_depth > 0

let begin_tx t =
  check_writable t;
  if t.tx_depth = 0 then begin
    Store.begin_tx t.store;
    Hashtbl.reset t.touched;
    Bus.emit t.bus Event.Tx_begin
  end;
  t.tx_depth <- t.tx_depth + 1

(** Oids of objects created, updated or linked in the current
    transaction (used for deferred validation). *)
let touched_oids t = Hashtbl.fold (fun oid () acc -> oid :: acc) t.touched []

let commit t =
  if t.tx_depth <= 0 then fail "commit outside transaction";
  if t.tx_depth = 1 then begin
    (* The commit event runs deferred rules; they may raise to veto. *)
    Bus.emit t.bus Event.Tx_commit;
    Store.commit t.store;
    t.tx_depth <- 0;
    Hashtbl.reset t.touched
  end
  else t.tx_depth <- t.tx_depth - 1

(* After the store rolled back, and before its commit-boundary lock is
   released: take the schema back to the stored record (a class,
   relationship or index defined, created or dropped in the rolled-back
   transaction is undone with it; cached plans are dropped when it
   moved) and resynchronise the mirror. *)
let resync t =
  (match Store.get t.store ~oid:schema_oid with
  | Some data when not (String.equal data (Meta.encode t.schema)) ->
      Meta.reload t.schema data;
      t.index_epoch <- t.index_epoch + 1
  | _ -> ());
  rebuild_mirror t (Store.iter t.store);
  Hashtbl.reset t.touched

(* Then tell [On_abort] subscribers (the rules engine's deferred queue)
   that state they derived may be gone. *)
let rolled_back t =
  resync t;
  Bus.emit t.bus Event.Tx_abort

let abort t =
  if t.tx_depth <= 0 then fail "abort outside transaction";
  t.tx_depth <- 0;
  Store.abort ~rolled_back:(fun () -> resync t) t.store;
  Bus.emit t.bus Event.Tx_abort

let with_tx t f =
  begin_tx t;
  match f () with
  | v ->
      (match commit t with
      | () -> v
      | exception e ->
          if t.tx_depth > 0 || Store.in_tx t.store then abort t;
          raise e)
  | exception e ->
      abort t;
      raise e

(* ---------------------------------------------------------------------- *)
(* Attribute validation                                                    *)
(* ---------------------------------------------------------------------- *)

let check_attr_value t ~owner_class (def : Meta.attr_def) (v : Value.t) =
  if
    not
      (Value.conforms ~is_subclass:(is_subclass t) ~class_of:(class_of t) v def.Meta.attr_ty)
  then
    fail "%s.%s: value %a does not conform to type %a" owner_class def.Meta.attr_name Value.pp v
      Value.pp_ty def.Meta.attr_ty

let validated_attrs t ~class_name (attrs : (string * Value.t) list) : (string * Value.t) list =
  let defs = Meta.all_attrs t.schema class_name in
  List.iter
    (fun (k, _) ->
      if Obj.is_reserved_attr k then ()
      else if not (Meta.mem_attr k defs) then
        fail "class %s has no attribute %s" class_name k)
    attrs;
  List.filter_map
    (fun (d : Meta.attr_def) ->
      let v =
        match List.assoc_opt d.Meta.attr_name attrs with
        | Some v -> v
        | None -> d.Meta.default
      in
      check_attr_value t ~owner_class:class_name d v;
      if d.Meta.required && Value.is_null v then
        fail "class %s: required attribute %s is null" class_name d.Meta.attr_name;
      if Value.is_null v then None else Some (d.Meta.attr_name, v))
    defs
  @ List.filter (fun (k, _) -> Obj.is_reserved_attr k) attrs

(* ---------------------------------------------------------------------- *)
(* Object creation / update / deletion                                     *)
(* ---------------------------------------------------------------------- *)

let persist t (o : Obj.t) = Store.put t.store ~oid:o.Obj.oid (Obj.encode o)

let create t class_name (attrs : (string * Value.t) list) : int =
  check_writable t;
  let cdef = Meta.class_exn t.schema class_name in
  if cdef.Meta.abstract then fail "cannot instantiate abstract class %s" class_name;
  let attrs = validated_attrs t ~class_name attrs in
  let oid = Store.fresh_oid t.store in
  let o = Obj.make ~oid ~class_name attrs in
  persist t o;
  mirror_insert t o;
  touch t oid;
  Bus.emit t.bus (Event.Obj_created { oid; class_name });
  oid

let update t oid attr (v : Value.t) : unit =
  check_writable t;
  let o = get_exn t oid in
  if Obj.is_reserved_attr attr then fail "attribute %s is reserved" attr;
  (match Meta.find_attr t.schema o.Obj.class_name attr with
  | None -> fail "class %s has no attribute %s" o.Obj.class_name attr
  | Some def ->
      check_attr_value t ~owner_class:o.Obj.class_name def v;
      if def.Meta.required && Value.is_null v then
        fail "class %s: required attribute %s cannot be set to null" o.Obj.class_name attr);
  (* constancy of relationship instances covers user attributes too *)
  (if is_rel_instance t o then
     let rdef = Meta.rel_exn t.schema o.Obj.class_name in
     if rdef.Meta.constant then fail "relationship %s is constant" o.Obj.class_name);
  let old_v = Obj.get o attr in
  let o = Obj.with_attr o attr v in
  persist t o;
  Dense.set t.objects oid o;
  index_update t o attr ~old_v ~new_v:v;
  touch t oid;
  if is_rel_instance t o then
    Bus.emit t.bus
      (Event.Rel_updated
         { oid; rel_name = o.Obj.class_name; origin = Obj.origin o; destination = Obj.destination o; attr })
  else Bus.emit t.bus (Event.Obj_updated { oid; class_name = o.Obj.class_name; attr })

(* forward declaration for mutual recursion with cascade delete *)
let rec delete t oid : unit =
  check_writable t;
  match get t oid with
  | None -> () (* already gone (e.g. via a cascade) *)
  | Some o ->
      if is_rel_instance t o then delete_rel_instance t o
      else begin
        (* Remove all relationship instances touching this object; apply
           lifetime dependency along outgoing relationships. *)
        let outgoing = Adj.rel_oids t.out_adj oid in
        let incoming = Adj.rel_oids t.in_adj oid in
        let cascade_candidates = ref [] in
        List.iter
          (fun rel_oid ->
            match get t rel_oid with
            | None -> ()
            | Some r ->
                let rdef = Meta.rel_exn t.schema r.Obj.class_name in
                let dest = Obj.destination r in
                delete_rel_instance t r;
                if rdef.Meta.lifetime_dep then cascade_candidates := dest :: !cascade_candidates)
          outgoing;
        List.iter
          (fun rel_oid -> match get t rel_oid with None -> () | Some r -> delete_rel_instance t r)
          incoming;
        mirror_remove t o;
        ignore (Store.delete t.store ~oid);
        touch t oid;
        Bus.emit t.bus (Event.Obj_deleted { oid; class_name = o.Obj.class_name });
        (* a dependent destination survives only if another lifetime-
           dependent relationship still reaches it *)
        List.iter
          (fun dest ->
            match get t dest with
            | None -> ()
            | Some _ ->
                let a = Adj.find t.in_adj dest in
                let rec still_supported i =
                  i < Adj.count a
                  && ((Meta.rel_of_id t.schema (Adj.cls a i)).Meta.lifetime_dep
                     || still_supported (i + 1))
                in
                if not (still_supported 0) then delete t dest)
          !cascade_candidates
      end

and delete_rel_instance t (r : Obj.t) =
  mirror_remove t r;
  ignore (Store.delete t.store ~oid:r.Obj.oid);
  touch t r.Obj.oid;
  Bus.emit t.bus
    (Event.Rel_deleted
       {
         oid = r.Obj.oid;
         rel_name = r.Obj.class_name;
         origin = Obj.origin r;
         destination = Obj.destination r;
       })

(* ---------------------------------------------------------------------- *)
(* Relationships                                                           *)
(* ---------------------------------------------------------------------- *)

(* Every accessor below reads the endpoints' adjacency (see {!Adj}):
   the subclass test is one lookup of [rel_name]'s interned subclass
   ids, and a relationship object is looked up only for a matching
   edge, and only by the accessors that return objects.  Lists come out
   in descending relationship-oid order. *)

let rel_obj t rel_oid = Dense.get t.objects rel_oid

(* relationship objects of the matching edges at [oid], consed onto [acc] *)
let collect_rels t adj ids ctx_filter oid acc =
  let a = Adj.find adj oid in
  let acc = ref acc in
  for i = 0 to Adj.count a - 1 do
    if Adj.matches a i ids ctx_filter then acc := rel_obj t (Adj.rel_at a i) :: !acc
  done;
  !acc

let collect_far adj ids ctx_filter oid =
  let a = Adj.find adj oid in
  let acc = ref [] in
  for i = 0 to Adj.count a - 1 do
    if Adj.matches a i ids ctx_filter then acc := Adj.far a i :: !acc
  done;
  !acc

(* [f far rel] for each matching edge at [oid], in the order of the
   lists {!collect_far} builds.  (Those lists are consed in ascending
   order: built on this walk they would need a [List.rev].) *)
let iter_far adj ids ctx_filter oid f =
  let a = Adj.find adj oid in
  for i = Adj.count a - 1 downto 0 do
    if Adj.matches a i ids ctx_filter then f (Adj.far a i) (Adj.rel_at a i)
  done

let count_edges adj ids ctx_filter oid =
  let a = Adj.find adj oid in
  let n = ref 0 in
  for i = 0 to Adj.count a - 1 do
    if Adj.matches a i ids ctx_filter then incr n
  done;
  !n

(** Instances of exactly [rel_name] from [origin] to [destination]. *)
let rel_instances_between t ~rel_name ~origin ~destination =
  let cls = Meta.rel_id t.schema rel_name and a = Adj.find t.out_adj origin in
  let acc = ref OidSet.empty in
  for i = 0 to Adj.count a - 1 do
    if Adj.cls a i = cls && Adj.far a i = destination then acc := OidSet.add (Adj.rel_at a i) !acc
  done;
  !acc

(** Incoming instances of relationship class [rel_name] (including its
    sub-relationship-classes) at [destination], optionally filtered by
    classification context. *)
let incoming t ?context ~rel_name destination : Obj.t list =
  collect_rels t t.in_adj (Meta.rel_sub_ids t.schema rel_name) (Adj.filter_key context) destination
    []

let outgoing t ?context ~rel_name origin : Obj.t list =
  collect_rels t t.out_adj (Meta.rel_sub_ids t.schema rel_name) (Adj.filter_key context) origin []

(** Destinations of {!outgoing}, in the same order, without looking up
    any relationship object. *)
let targets t ?context ~rel_name origin : int list =
  collect_far t.out_adj (Meta.rel_sub_ids t.schema rel_name) (Adj.filter_key context) origin

(** Origins of {!incoming}, in the same order. *)
let sources t ?context ~rel_name destination : int list =
  collect_far t.in_adj (Meta.rel_sub_ids t.schema rel_name) (Adj.filter_key context) destination

(** [iter_targets t ?context ~rel_name] resolves the class and context
    filter once and returns the hop [fun origin f -> ...], which calls
    [f destination rel_oid] on each matching outgoing edge in
    {!targets} order and allocates nothing: the traversals' step. *)
let iter_targets t ?context ~rel_name =
  let ids = Meta.rel_sub_ids t.schema rel_name and ctx = Adj.filter_key context in
  fun origin f -> iter_far t.out_adj ids ctx origin f

(** Incoming hop, symmetric: [f origin rel_oid] in {!sources} order. *)
let iter_sources t ?context ~rel_name =
  let ids = Meta.rel_sub_ids t.schema rel_name and ctx = Adj.filter_key context in
  fun destination f -> iter_far t.in_adj ids ctx destination f

(** [count_targets t ?context ~rel_name] is the count of matching
    outgoing edges at an origin, resolved like {!iter_targets}. *)
let count_targets t ?context ~rel_name =
  let ids = Meta.rel_sub_ids t.schema rel_name and ctx = Adj.filter_key context in
  fun origin -> count_edges t.out_adj ids ctx origin

let count_sources t ?context ~rel_name =
  let ids = Meta.rel_sub_ids t.schema rel_name and ctx = Adj.filter_key context in
  fun destination -> count_edges t.in_adj ids ctx destination

(** All relationship instances touching [oid]: the outgoing ones, then
    the incoming ones (a self-link appears in both). *)
let rels_of t oid : Obj.t list =
  let all = Meta.rel_sub_ids t.schema Meta.object_class in
  collect_rels t t.out_adj all Adj.any_context oid
    (collect_rels t t.in_adj all Adj.any_context oid [])

let check_endpoint t ~rel_name ~role ~expected oid =
  match class_of t oid with
  | None -> fail "%s: %s object #%d does not exist" rel_name role oid
  | Some c ->
      if not (Meta.is_subclass t.schema ~sub:c ~super:expected) then
        fail "%s: %s object #%d has class %s, expected %s" rel_name role oid c expected

let semantic_checks t (rdef : Meta.rel_def) ~origin ~destination ~context =
  let ids = Meta.rel_sub_ids t.schema rdef.Meta.rel_name in
  (* the counts below are per context: none is a context of its own *)
  let ctx = Adj.context_key context in
  (* exclusivity: at most one incoming instance of this relationship
     class per destination within one context *)
  if rdef.Meta.exclusive && count_edges t.in_adj ids ctx destination > 0 then
    fail "%s: destination #%d already classified in this context (exclusive relationship)"
      rdef.Meta.rel_name destination;
  (* sharability: if not sharable, at most one incoming instance across
     all contexts *)
  if (not rdef.Meta.sharable) && count_edges t.in_adj ids Adj.any_context destination > 0 then
    fail "%s: destination #%d is already part of a non-sharable relationship" rdef.Meta.rel_name
      destination;
  (* maximum cardinalities (minima are validated at commit) *)
  (match rdef.Meta.card_out.Meta.cmax with
  | Some m ->
      let n = count_edges t.out_adj ids ctx origin in
      if n >= m then
        fail "%s: origin #%d already has %d outgoing instances (max %d)" rdef.Meta.rel_name origin
          n m
  | None -> ());
  match rdef.Meta.card_in.Meta.cmax with
  | Some m ->
      let n = count_edges t.in_adj ids ctx destination in
      if n >= m then
        fail "%s: destination #%d already has %d incoming instances (max %d)" rdef.Meta.rel_name
          destination n m
  | None -> ()

(** Create a relationship instance (a link) of class [rel_name] from
    [origin] to [destination], optionally inside classification context
    [context], with user attributes [attrs]. *)
let link t ?context ?(attrs = []) rel_name ~origin ~destination : int =
  check_writable t;
  let rdef = Meta.rel_exn t.schema rel_name in
  check_endpoint t ~rel_name ~role:"origin" ~expected:rdef.Meta.origin origin;
  check_endpoint t ~rel_name ~role:"destination" ~expected:rdef.Meta.destination destination;
  (match context with
  | Some c -> (
      match class_of t c with
      | Some cls when Meta.is_subclass t.schema ~sub:cls ~super:"Context" -> ()
      | _ -> fail "%s: #%d is not a classification context" rel_name c)
  | None -> ());
  semantic_checks t rdef ~origin ~destination ~context;
  let attrs = validated_attrs t ~class_name:rel_name attrs in
  let oid = Store.fresh_oid t.store in
  let reserved =
    [ (Obj.origin_attr, Value.VRef origin); (Obj.destination_attr, Value.VRef destination) ]
    @ match context with Some c -> [ (Obj.context_attr, Value.VRef c) ] | None -> []
  in
  let o = Obj.make ~oid ~class_name:rel_name (attrs @ reserved) in
  persist t o;
  mirror_insert t o;
  touch t oid;
  touch t origin;
  touch t destination;
  Bus.emit t.bus (Event.Rel_created { oid; rel_name; origin; destination });
  oid

(** Remove a link by its oid. *)
let unlink t rel_oid =
  check_writable t;
  match get t rel_oid with
  | Some r when is_rel_instance t r ->
      let rdef = Meta.rel_exn t.schema r.Obj.class_name in
      if rdef.Meta.constant then fail "relationship %s is constant: cannot unlink" r.Obj.class_name;
      touch t (Obj.origin r);
      touch t (Obj.destination r);
      delete_rel_instance t r
  | Some _ -> fail "#%d is not a relationship instance" rel_oid
  | None -> fail "no relationship with oid %d" rel_oid

(** Re-target a relationship instance (move a link).  Violates
    constancy if the relationship class is constant. *)
let retarget t rel_oid ?origin ?destination () =
  check_writable t;
  let r = get_exn t rel_oid in
  if not (is_rel_instance t r) then fail "#%d is not a relationship instance" rel_oid;
  let rdef = Meta.rel_exn t.schema r.Obj.class_name in
  if rdef.Meta.constant then fail "relationship %s is constant: cannot retarget" r.Obj.class_name;
  let new_origin = Option.value origin ~default:(Obj.origin r) in
  let new_destination = Option.value destination ~default:(Obj.destination r) in
  check_endpoint t ~rel_name:r.Obj.class_name ~role:"origin" ~expected:rdef.Meta.origin new_origin;
  check_endpoint t ~rel_name:r.Obj.class_name ~role:"destination" ~expected:rdef.Meta.destination
    new_destination;
  (* temporarily remove from adjacency so checks don't count self *)
  mirror_remove t r;
  (match semantic_checks t rdef ~origin:new_origin ~destination:new_destination ~context:(Obj.context r) with
  | () -> ()
  | exception e ->
      mirror_insert t r;
      raise e);
  let r =
    Obj.with_attr
      (Obj.with_attr r Obj.origin_attr (Value.VRef new_origin))
      Obj.destination_attr (Value.VRef new_destination)
  in
  persist t r;
  mirror_insert t r;
  touch t rel_oid;
  touch t new_origin;
  touch t new_destination;
  Bus.emit t.bus
    (Event.Rel_updated
       {
         oid = rel_oid;
         rel_name = r.Obj.class_name;
         origin = new_origin;
         destination = new_destination;
         attr = Event.endpoints_attr;
       })

(* ---------------------------------------------------------------------- *)
(* Extents                                                                 *)
(* ---------------------------------------------------------------------- *)

(** Fold over the extent of a class in ascending oid order (the order
    of {!OidSet.fold} over {!extent}), without building a set.  [deep]
    (default) includes subclasses.  [f] must not create or delete
    objects of the classes being scanned. *)
let fold_extent t ?(deep = true) class_name f acc =
  match extent_vecs t ~deep class_name with
  | [] -> acc
  | [ v ] -> Dense.Vec.fold f acc v
  | vs -> Dense.Vec.fold_merged f acc (Array.of_list vs)

(** {!fold_extent} for effect. *)
let iter_extent t ?(deep = true) class_name f =
  match extent_vecs t ~deep class_name with
  | [] -> ()
  | [ v ] -> Dense.Vec.iter f v
  | vs -> Dense.Vec.fold_merged (fun () o -> f o) () (Array.of_list vs)

(** Extent of a class, as a set.  [deep] (default) includes
    subclasses, as in ODMG. *)
let extent t ?(deep = true) class_name : OidSet.t =
  match extent_vecs t ~deep class_name with
  | [] -> OidSet.empty
  | [ v ] -> Dense.Vec.to_set v
  | vs ->
      let n = List.fold_left (fun n v -> n + Dense.Vec.length v) 0 vs in
      let a = Array.make n 0 in
      ignore
        (Dense.Vec.fold_merged
           (fun i o ->
             a.(i) <- o;
             i + 1)
           0 (Array.of_list vs));
      Dense.set_of_ascending a n

let extent_list t ?deep class_name = List.rev (fold_extent t ?deep class_name (fun acc o -> o :: acc) [])

(** Extent size, summed over the classes' vectors. *)
let count t ?(deep = true) class_name =
  List.fold_left (fun n v -> n + Dense.Vec.length v) 0 (extent_vecs t ~deep class_name)

(** Every object in the mirror, in ascending oid order. *)
let iter_objects t f = Dense.iter t.objects (fun _ o -> f o)

(* ---------------------------------------------------------------------- *)
(* Attribute access with role inheritance (thesis 4.4.5)                   *)
(* ---------------------------------------------------------------------- *)

(** Get an attribute of an object.  If the object itself has no such
    attribute, incoming relationship instances whose class declares the
    attribute as inherited are consulted: the object has acquired a
    role.  E.g. a specimen targeted by a [TypeOf] relationship acquires
    the relationship's [kind] attribute. *)
let get_attr t oid attr : Value.t =
  let o = get_exn t oid in
  match Obj.get o attr with
  | Value.VNull when not (Meta.has_attr t.schema o.Obj.class_name attr) -> (
      (* look for an inherited (role) attribute on incoming relationships;
         only the classes that declare [attr] inherited are looked up *)
      let a = Adj.find t.in_adj oid in
      let candidates = ref [] in
      for i = 0 to Adj.count a - 1 do
        if List.mem attr (Meta.rel_of_id t.schema (Adj.cls a i)).Meta.inherited_attrs then
          candidates := Obj.get (rel_obj t (Adj.rel_at a i)) attr :: !candidates
      done;
      match !candidates with
      | [] -> Value.VNull
      | [ v ] -> v
      | vs -> Value.vset vs (* several roles: the object sees the set *))
  | v -> v

(** Does [oid] currently play a role conferred by relationship class
    [rel_name] (i.e. is it the destination of such a relationship)? *)
let has_role t oid ~rel_name =
  count_edges t.in_adj (Meta.rel_sub_ids t.schema rel_name) Adj.any_context oid > 0

(* ---------------------------------------------------------------------- *)
(* Classification contexts (thesis 4.6)                                    *)
(* ---------------------------------------------------------------------- *)

let create_context t ?(description = "") name : int =
  create t "Context" [ ("name", Value.VString name); ("description", Value.VString description) ]

(* descending oid order *)
let contexts t : (int * string) list =
  fold_extent t "Context"
    (fun acc oid -> (oid, Value.as_string (Obj.get (get_exn t oid) "name")) :: acc)
    []

let find_context t name =
  List.find_map (fun (oid, n) -> if n = name then Some oid else None) (contexts t)

(** All relationship instances belonging to context [ctx], in
    ascending oid order. *)
let context_rels t ctx : Obj.t list =
  let acc = ref [] in
  iter_objects t (fun o ->
      if is_rel_instance t o && Obj.context o = Some ctx then acc := o :: !acc);
  List.rev !acc

(* ---------------------------------------------------------------------- *)
(* Instance synonyms (thesis 4.5)                                          *)
(* ---------------------------------------------------------------------- *)

let rec syn_root t x =
  match Hashtbl.find_opt t.syn_parent x with Some p when p <> x -> syn_root t p | _ -> x

(** Declare that two instances denote the same real-world entity. *)
let declare_synonym t a b : unit =
  ignore (get_exn t a);
  ignore (get_exn t b);
  ignore (create t synonym_class [ ("a", Value.VRef a); ("b", Value.VRef b) ])

let same_entity t a b = syn_root t a = syn_root t b

let synonym_set t a : OidSet.t =
  let ra = syn_root t a in
  Hashtbl.fold
    (fun oid _ acc -> if syn_root t oid = ra then OidSet.add oid acc else acc)
    t.syn_parent
    (OidSet.add ra (OidSet.singleton a))

(* ---------------------------------------------------------------------- *)
(* Secondary indexes (index layer, thesis 6.1.4)                           *)
(* ---------------------------------------------------------------------- *)

let persist_catalog t =
  if Store.in_tx t.store then persist_schema t else with_tx t (fun () -> persist_schema t)

(* An index keys each object by its stored [Obj.get o attr], so it can
   only serve an attribute POOL reads that way.  It cannot serve a
   relationship endpoint ([origin], [destination] and [context] are not
   stored attributes) nor a role-inherited attribute (read through
   {!get_attr}'s fallback on objects whose class does not declare it):
   an index on either would answer from stored nulls.  The catalog is
   written with the schema record, inside the caller's transaction or
   as a transaction of its own, so an index is as durable as the
   records it covers. *)
let create_index t class_name attr =
  check_writable t;
  if not (Meta.has_attr t.schema class_name attr) then
    fail "create_index: class %s does not declare attribute %s" class_name attr;
  if Meta.is_rel t.schema class_name && List.mem attr [ "origin"; "destination"; "context" ] then
    fail "create_index: %s.%s names a relationship endpoint, not a stored attribute" class_name
      attr;
  let key = (class_name, attr) in
  if not (Meta.has_index t.schema class_name attr) then begin
    Meta.set_indexes t.schema (key :: Meta.indexes t.schema);
    sync_indexes t;
    t.index_epoch <- t.index_epoch + 1;
    persist_catalog t
  end

let drop_index t class_name attr =
  check_writable t;
  let key = (class_name, attr) in
  if Meta.has_index t.schema class_name attr then begin
    Meta.set_indexes t.schema (List.filter (( <> ) key) (Meta.indexes t.schema));
    sync_indexes t;
    t.index_epoch <- t.index_epoch + 1;
    persist_catalog t
  end

let has_index t class_name attr = Meta.has_index t.schema class_name attr

(** The index catalog, ascending [(class, attribute)] pairs. *)
let index_defs t = Meta.indexes t.schema

(** Monotone counter bumped by {!create_index}/{!drop_index} and by
    {!define_class}/{!define_rel}; cached query plans carry the epoch
    they were compiled under and replan when it moves — plans bake in
    both access-path choices and which names denote class extents. *)
let index_epoch t = t.index_epoch

let index_lookup t class_name attr (v : Value.t) : OidSet.t option =
  match find_index class_name attr t.indexes with
  | Some table -> Some (Option.value ~default:OidSet.empty (ValueMap.find_opt v !table))
  | None -> None

(** Ordered range scan over an index.  Bounds are [(value, inclusive)];
    a missing bound is unbounded on that side.  Returns [None] when no
    index exists on [(class_name, attr)].  The order is
    {!Value.compare_value} — the same total order the [<]/[<=] query
    operators use, so the result is exactly the candidate superset an
    extent scan with the same comparison predicates would keep. *)
let index_range t class_name attr ?lo ?hi () : OidSet.t option =
  match find_index class_name attr t.indexes with
  | None -> None
  | Some table ->
      let above_lo k =
        match lo with
        | None -> true
        | Some (v, incl) ->
            let c = Value.compare_value v k in
            if incl then c <= 0 else c < 0
      and below_hi k =
        match hi with
        | None -> true
        | Some (v, incl) ->
            let c = Value.compare_value k v in
            if incl then c <= 0 else c < 0
      in
      let seq =
        match lo with
        | Some (v, _) -> ValueMap.to_seq_from v !table
        | None -> ValueMap.to_seq !table
      in
      let acc = ref OidSet.empty in
      let rec go s =
        match s () with
        | Seq.Nil -> ()
        | Seq.Cons ((k, oids), rest) ->
            (* keys ascend: the first key past [hi] ends the scan *)
            if below_hi k then begin
              if above_lo k then acc := OidSet.union !acc oids;
              go rest
            end
      in
      go seq;
      Some !acc

(** All oids whose indexed string value starts with [prefix] (the
    LIKE-'abc%' pushdown).  Strings sharing a prefix are contiguous
    under {!Value.compare_value}, so this is one bounded map walk.
    [None] when no index exists — or when the index holds any
    non-string key: evaluating [like] on such a row raises in the
    interpreter ([Value.as_string]), and a prefix scan that silently
    skipped the row would turn that error into a success.  Declining
    the pushdown keeps the optimized path bit-identical to the reference
    one, error semantics included.  Strings are one contiguous block of
    the value order, so "only string keys" is just "both extreme keys
    are strings" — two O(log n) probes, no full scan. *)
let index_string_prefix t class_name attr prefix : OidSet.t option =
  match find_index class_name attr t.indexes with
  | None -> None
  | Some table
    when (not (ValueMap.is_empty !table))
         && not
              (match (ValueMap.min_binding !table, ValueMap.max_binding !table) with
              | (Value.VString _, _), (Value.VString _, _) -> true
              | _ -> false) ->
      None
  | Some table ->
      let plen = String.length prefix in
      let acc = ref OidSet.empty in
      let rec go s =
        match s () with
        | Seq.Nil -> ()
        | Seq.Cons ((k, oids), rest) -> (
            match k with
            | Value.VString str
              when String.length str >= plen && String.sub str 0 plen = prefix ->
                acc := OidSet.union !acc oids;
                go rest
            | _ -> () (* past the contiguous prefix block *))
      in
      go (ValueMap.to_seq_from (Value.VString prefix) !table);
      Some !acc

(* ---------------------------------------------------------------------- *)
(* Deferred validation: minimum cardinalities                              *)
(* ---------------------------------------------------------------------- *)

(** Validate minimum-cardinality constraints for the objects touched in
    the current transaction.  Called by the rules layer at commit. *)
let validate_min_cards t : string list =
  let errors = ref [] in
  let check_obj oid =
    match get t oid with
    | None -> ()
    | Some o when is_rel_instance t o -> ()
    | Some o ->
        List.iter
          (fun (rdef : Meta.rel_def) ->
            (if rdef.Meta.card_out.Meta.cmin > 0
               && Meta.is_subclass t.schema ~sub:o.Obj.class_name ~super:rdef.Meta.origin
             then
               let n =
                 count_edges t.out_adj (Meta.rel_sub_ids t.schema rdef.Meta.rel_name)
                   Adj.any_context oid
               in
               if n < rdef.Meta.card_out.Meta.cmin then
                 errors :=
                   Format.asprintf "%s: origin #%d has %d outgoing instances, minimum %d"
                     rdef.Meta.rel_name oid n rdef.Meta.card_out.Meta.cmin
                   :: !errors);
            if rdef.Meta.card_in.Meta.cmin > 0
               && Meta.is_subclass t.schema ~sub:o.Obj.class_name ~super:rdef.Meta.destination
            then
              let n =
                count_edges t.in_adj (Meta.rel_sub_ids t.schema rdef.Meta.rel_name)
                  Adj.any_context oid
              in
              if n < rdef.Meta.card_in.Meta.cmin then
                errors :=
                  Format.asprintf "%s: destination #%d has %d incoming instances, minimum %d"
                    rdef.Meta.rel_name oid n rdef.Meta.card_in.Meta.cmin
                  :: !errors)
          (Meta.rels t.schema)
  in
  List.iter check_obj (touched_oids t);
  !errors

(* ---------------------------------------------------------------------- *)
(* Group writer                                                            *)
(* ---------------------------------------------------------------------- *)

(** Objects in the mirror (relationship instances included, the
    reserved schema record excluded).  Unlike {!Store.count}, which
    walks the live B-tree through the page cache, this is safe to call
    from any thread while a {!Writer} is running. *)
let object_count t = Dense.count t.objects

(** Group-commit write routing for the model layer.

    [start] hands the store's write path to a {!Store.Group} writer
    domain; [submit] runs a mutation body in that domain as one soft
    transaction and blocks until it is durable, returning the commit
    LSN.  Concurrent submitters batch into shared fsync cycles.  A body
    that raises is rolled back (store pages soft-aborted, then the
    group's rollback hook rebuilds the mirror and emits [Tx_abort],
    exactly as {!abort} does) and its exception re-raised at the
    submitter.

    While a writer is running, the database must not be driven through
    [begin_tx]/[with_tx] or bare mutators from other threads — the
    writer domain owns the write path.  Bodies must not open
    database-level transactions either: each body already runs inside
    the group's transaction envelope, so deferred (commit-time) rule
    validation does not fire for them, exactly as for out-of-tx
    mutators. *)
module Writer = struct
  type db = t

  type w = { w_db : db; w_group : Store.Group.g }

  let start ?max_batch ?queue_cap (db : db) : w =
    check_writable db;
    if in_tx db then fail "writer start inside a transaction";
    let g =
      Store.Group.start ?max_batch ?queue_cap
        ~on_rollback:(fun () -> rolled_back db)
        db.store
    in
    { w_db = db; w_group = g }

  (** Run a mutation body in the writer domain; blocks until durable
      and returns [(commit lsn, result)]. *)
  let submit (w : w) (f : db -> 'a) : int * 'a =
    let out = ref None in
    let lsn = Store.Group.submit w.w_group (fun _st -> out := Some (f w.w_db)) in
    match !out with Some v -> (lsn, v) | None -> assert false

  (** Run a read-only body in the writer domain, serialised with the
      mutation stream — the safe way to read the live handle while a
      writer is running.  The body's exception (if any) is returned
      rather than treated as a rollback: the body must not mutate. *)
  let read (w : w) (f : db -> 'a) : int * ('a, exn) result =
    let out = ref (Error Store.Group.Stopped) in
    let lsn =
      Store.Group.submit w.w_group (fun _st ->
          out := (try Ok (f w.w_db) with e -> Error e))
    in
    (lsn, !out)

  let stop (w : w) = Store.Group.stop w.w_group
  let stats (w : w) = Store.Group.group_stats w.w_group
end
