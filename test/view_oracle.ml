(* What a snapshot view must equal: the database that a fresh open
   rebuilds from the store's records at the view's LSN.  [dump] records
   those, [reference] opens a private in-memory store holding exactly
   them, and [describe] renders everything a database answers as one
   text:
   - the schema record;
   - every object's record;
   - every extent, shallow and deep;
   - every adjacency accessor at every object, for every relationship
     name, with and without each context;
   - every index's probe answers;
   - every non-trivial synonym set.
   Two databases answer alike iff their descriptions are equal. *)

open Pmodel
module Store = Pstore.Store
module OidSet = Database.OidSet

(* The store's records, ascending oid *)
let dump st =
  let acc = ref [] in
  Store.iter st (fun oid data -> acc := (oid, data) :: !acc);
  List.rev !acc

(* A read-only database over a private store holding exactly [records] *)
let reference records =
  let vfs = Pstore.Fault.vfs (Pstore.Fault.create ()) in
  let st = Store.open_ ~vfs "reference.db" in
  Store.with_tx st (fun () -> List.iter (fun (oid, data) -> Store.put st ~oid data) records);
  Store.close st;
  Database.open_ ~vfs ~readonly:true "reference.db"

let describe db =
  let b = Buffer.create 4096 in
  let line fmt = Printf.bprintf b (fmt ^^ "\n") in
  let oids l = String.concat "," (List.map string_of_int l) in
  let schema = Database.schema db in
  line "schema %S" (Meta.encode schema);
  let objects = ref [] in
  Database.iter_objects db (fun o ->
      objects := o :: !objects;
      line "obj %d %S" o.Obj.oid (Obj.encode o));
  let objects = List.rev !objects in
  line "count %d" (Database.object_count db);
  let classes =
    List.sort compare
      (List.map (fun (c : Meta.class_def) -> c.Meta.class_name) (Meta.classes schema)
      @ List.map (fun (r : Meta.rel_def) -> r.Meta.rel_name) (Meta.rels schema))
  in
  List.iter
    (fun cls ->
      List.iter
        (fun deep ->
          line "extent %s %b %d [%s]" cls deep (Database.count db ~deep cls)
            (oids (Database.extent_list db ~deep cls)))
        [ false; true ])
    classes;
  let rel_names =
    Meta.object_class :: List.map (fun (r : Meta.rel_def) -> r.Meta.rel_name) (Meta.rels schema)
  in
  let contexts = None :: List.map (fun (c, _) -> Some c) (Database.contexts db) in
  (* the bulk of the text: plain appends, no format interpretation *)
  let add = Buffer.add_string b in
  let add_oids l = List.iter (fun oid -> add (string_of_int oid); add ",") l in
  List.iter
    (fun (o : Obj.t) ->
      let n = string_of_int o.Obj.oid in
      List.iter
        (fun rel_name ->
          List.iter
            (fun context ->
              add "adj ";
              add n;
              add " ";
              add rel_name;
              add (match context with None -> " -" | Some c -> " " ^ string_of_int c);
              add " out ";
              add_oids (List.map (fun (r : Obj.t) -> r.Obj.oid) (Database.outgoing db ?context ~rel_name o.Obj.oid));
              add " in ";
              add_oids (List.map (fun (r : Obj.t) -> r.Obj.oid) (Database.incoming db ?context ~rel_name o.Obj.oid));
              add " to ";
              add_oids (Database.targets db ?context ~rel_name o.Obj.oid);
              add " from ";
              add_oids (Database.sources db ?context ~rel_name o.Obj.oid);
              add " ";
              add (string_of_int (Database.count_targets db ?context ~rel_name o.Obj.oid));
              add " ";
              add (string_of_int (Database.count_sources db ?context ~rel_name o.Obj.oid));
              add "\n")
            contexts)
        rel_names)
    objects;
  List.iter
    (fun (cls, attr) ->
      let values =
        List.sort_uniq Value.compare_value
          (Value.VNull :: List.map (fun oid -> Database.get_attr db oid attr) (Database.extent_list db cls))
      in
      List.iter
        (fun v ->
          line "index %s.%s %s [%s]" cls attr (Value.to_string v)
            (match Database.index_lookup db cls attr v with
            | Some s -> oids (OidSet.elements s)
            | None -> "none"))
        values)
    (Database.index_defs db);
  List.iter
    (fun (o : Obj.t) ->
      let s = Database.synonym_set db o.Obj.oid in
      if OidSet.cardinal s > 1 then line "synonyms %d [%s]" o.Obj.oid (oids (OidSet.elements s)))
    objects;
  Buffer.contents b

(* [describe] of the database a fresh open builds from [records] *)
let describe_records records =
  let db = reference records in
  Fun.protect ~finally:(fun () -> Database.close db) (fun () -> describe db)
