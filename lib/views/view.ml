(** The views layer (thesis 6.1.3).

    A view is a named, persistent POOL query.  Views are stored as
    ordinary objects (class [__view]) so they survive restarts, travel
    with the database, and can themselves be queried.  Evaluation is
    either fresh or *materialised*: a materialised view caches its
    result and subscribes to the event bus, invalidating the cache when
    any object or relationship changes (a coarse but sound policy —
    thesis 3.2.2 notes the cost trade-offs of view maintenance).

    Views give classifications one of their main uses: a stored query
    like "the classification of taxonomist X" can be consulted as if it
    were a base collection. *)

open Pmodel
open Pevent

exception View_error of string

let fail fmt = Format.kasprintf (fun s -> raise (View_error s)) fmt

let view_class = "__view"

type t = {
  db : Database.t;
  cache : (string, Value.t) Hashtbl.t; (* materialised results *)
  mutable invalidations : int; (* statistics *)
  mutable sub : Bus.sub_id option;
}

let ensure_schema db =
  let schema = Database.schema db in
  if not (Meta.is_class schema view_class) then
    ignore
      (Database.define_class db view_class
         [
           Meta.attr "name" Value.TString ~required:true;
           Meta.attr "query" Value.TString ~required:true;
           Meta.attr "materialised" Value.TBool ~default:(Value.VBool false);
         ])

let create (db : Database.t) : t =
  ensure_schema db;
  let t = { db; cache = Hashtbl.create 16; invalidations = 0; sub = None } in
  (* Any mutation invalidates materialised results.  View definitions
     themselves are objects, so this also covers view redefinition. *)
  let id =
    Bus.subscribe (Database.bus db) ~name:"__views_invalidate"
      (Event.Any_of
         [
           Event.On_create None;
           Event.On_update (None, None);
           Event.On_delete None;
           Event.On_rel_create None;
           Event.On_rel_update (None, None);
           Event.On_rel_delete None;
         ])
      (fun _ ->
        if Hashtbl.length t.cache > 0 then begin
          Hashtbl.reset t.cache;
          t.invalidations <- t.invalidations + 1
        end)
  in
  t.sub <- Some id;
  t

let find_view t name : Obj.t option =
  Database.fold_extent t.db view_class
    (fun acc oid ->
      match acc with
      | Some _ -> acc
      | None ->
          let o = Database.get_exn t.db oid in
          if Obj.get o "name" = Value.VString name then Some o else None)
    None

(** Define (or redefine) a view.  The query is parsed now, so an
    invalid definition fails fast. *)
let define t ~name ~query ?(materialised = false) () : int =
  ignore (Pool_lang.Parser.parse query);
  (match find_view t name with
  | Some o -> Database.delete t.db o.Obj.oid
  | None -> ());
  Database.create t.db view_class
    [
      ("name", Value.VString name);
      ("query", Value.VString query);
      ("materialised", Value.VBool materialised);
    ]

let drop t name =
  match find_view t name with
  | Some o -> Database.delete t.db o.Obj.oid
  | None -> fail "no view named %s" name

let list t : (string * string) list =
  Database.fold_extent t.db view_class
    (fun acc oid ->
      let o = Database.get_exn t.db oid in
      (Value.as_string (Obj.get o "name"), Value.as_string (Obj.get o "query")) :: acc)
    []
  |> List.sort compare

(** Evaluate a view by name. *)
let query ?(env = []) t name : Value.t =
  match find_view t name with
  | None -> fail "no view named %s" name
  | Some o -> (
      let q = Value.as_string (Obj.get o "query") in
      let materialised = Obj.get o "materialised" = Value.VBool true in
      if not materialised then Pool_lang.Pool.query ~env t.db q
      else
        match Hashtbl.find_opt t.cache name with
        | Some v -> v
        | None ->
            let v = Pool_lang.Pool.query ~env t.db q in
            Hashtbl.replace t.cache name v;
            v)

let rows ?env t name : Value.t list =
  match query ?env t name with Value.VList l | Value.VSet l | Value.VBag l -> l | v -> [ v ]

let is_cached t name = Hashtbl.mem t.cache name
let invalidations t = t.invalidations
