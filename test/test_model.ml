(* Tests for the event layer, the object model and the graph layer. *)

open Pmodel
module V = Value
module E = Pevent.Event
module Bus = Pevent.Bus

let tmp_counter = ref 0

let tmp_path () =
  incr tmp_counter;
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "prom_model_%d_%d.db" (Unix.getpid ()) !tmp_counter)

let with_db f =
  let path = tmp_path () in
  let db = Database.open_ path in
  Fun.protect
    ~finally:(fun () ->
      (try Database.close db with _ -> ());
      if Sys.file_exists path then Sys.remove path;
      if Sys.file_exists (path ^ ".journal") then Sys.remove (path ^ ".journal"))
    (fun () -> f db)

let str s = V.VString s
let vint i = V.VInt i

(* Common schema for tests: people working for companies. *)
let people_schema db =
  ignore
    (Database.define_class db "Person"
       [ Meta.attr "name" V.TString; Meta.attr "age" V.TInt ]);
  ignore
    (Database.define_class db "Employee" ~supers:[ "Person" ] [ Meta.attr "salary" V.TFloat ]);
  ignore (Database.define_class db "Company" [ Meta.attr "name" V.TString ]);
  ignore
    (Database.define_rel db "WorksFor" ~origin:"Person" ~destination:"Company"
       ~attrs:[ Meta.attr "since" V.TInt; Meta.attr "role" V.TString ])

(* ------------------------------------------------------------------ *)
(* Event layer                                                         *)
(* ------------------------------------------------------------------ *)

let test_event_matching () =
  let is_subclass ~sub ~super = sub = "Employee" && super = "Person" in
  let m spec ev = E.matches is_subclass spec ev in
  let created = E.Obj_created { oid = 1; class_name = "Employee" } in
  Alcotest.(check bool) "wildcard create" true (m (E.On_create None) created);
  Alcotest.(check bool) "exact class" true (m (E.On_create (Some "Employee")) created);
  Alcotest.(check bool) "superclass matches" true (m (E.On_create (Some "Person")) created);
  Alcotest.(check bool) "other class" false (m (E.On_create (Some "Company")) created);
  let updated = E.Obj_updated { oid = 1; class_name = "Person"; attr = "age" } in
  Alcotest.(check bool) "update attr match" true (m (E.On_update (Some "Person", Some "age")) updated);
  Alcotest.(check bool) "update attr mismatch" false
    (m (E.On_update (Some "Person", Some "name")) updated);
  Alcotest.(check bool) "any_of" true
    (m (E.Any_of [ E.On_delete None; E.On_update (None, None) ]) updated)

let test_event_seq_tracker () =
  let tr = E.Tracker.create (E.Seq [ E.On_create (Some "A"); E.On_delete (Some "A") ]) in
  let nosub ~sub:_ ~super:_ = false in
  let create = E.Obj_created { oid = 1; class_name = "A" } in
  let delete = E.Obj_deleted { oid = 1; class_name = "A" } in
  Alcotest.(check bool) "delete first: no fire" false (E.Tracker.feed tr nosub delete);
  Alcotest.(check bool) "create: no fire yet" false (E.Tracker.feed tr nosub create);
  Alcotest.(check bool) "then delete: fires" true (E.Tracker.feed tr nosub delete);
  (* tracker reset after firing *)
  Alcotest.(check bool) "reset: delete alone no fire" false (E.Tracker.feed tr nosub delete)

let test_event_both_tracker () =
  let tr = E.Tracker.create (E.Both (E.On_create (Some "A"), E.On_create (Some "B"))) in
  let nosub ~sub:_ ~super:_ = false in
  let a = E.Obj_created { oid = 1; class_name = "A" } in
  let b = E.Obj_created { oid = 2; class_name = "B" } in
  Alcotest.(check bool) "b alone" false (E.Tracker.feed tr nosub b);
  Alcotest.(check bool) "then a fires" true (E.Tracker.feed tr nosub a)

let test_bus_subscribe_unsubscribe () =
  let bus = Bus.create () in
  let fired = ref 0 in
  let id = Bus.subscribe bus (E.On_create None) (fun _ -> incr fired) in
  Bus.emit bus (E.Obj_created { oid = 1; class_name = "X" });
  Alcotest.(check int) "fired once" 1 !fired;
  Bus.unsubscribe bus id;
  Bus.emit bus (E.Obj_created { oid = 2; class_name = "X" });
  Alcotest.(check int) "not fired after unsubscribe" 1 !fired

let test_bus_tx_resets_composites () =
  let bus = Bus.create () in
  let fired = ref 0 in
  ignore
    (Bus.subscribe bus
       (E.Seq [ E.On_create (Some "A"); E.On_delete (Some "A") ])
       (fun _ -> incr fired));
  Bus.emit bus (E.Obj_created { oid = 1; class_name = "A" });
  Bus.emit bus E.Tx_abort;
  (* sequence progress must have been reset *)
  Bus.emit bus (E.Obj_deleted { oid = 1; class_name = "A" });
  Alcotest.(check int) "no fire across tx boundary" 0 !fired

(* ------------------------------------------------------------------ *)
(* Schema / meta                                                       *)
(* ------------------------------------------------------------------ *)

let test_schema_inheritance () =
  with_db (fun db ->
      people_schema db;
      let schema = Database.schema db in
      Alcotest.(check bool) "employee < person" true
        (Meta.is_subclass schema ~sub:"Employee" ~super:"Person");
      Alcotest.(check bool) "person not < employee" false
        (Meta.is_subclass schema ~sub:"Person" ~super:"Employee");
      Alcotest.(check bool) "everything < Object" true
        (Meta.is_subclass schema ~sub:"Company" ~super:"Object");
      let attrs = List.map (fun a -> a.Meta.attr_name) (Meta.all_attrs schema "Employee") in
      Alcotest.(check bool) "inherits name" true (List.mem "name" attrs);
      Alcotest.(check bool) "own salary" true (List.mem "salary" attrs))

let test_schema_validation () =
  with_db (fun db ->
      people_schema db;
      Alcotest.check_raises "duplicate class"
        (Meta.Schema_error "class Person already defined") (fun () ->
          ignore (Database.define_class db "Person" []));
      (match Database.define_rel db "Bad" ~origin:"Nowhere" ~destination:"Person" with
      | exception Meta.Schema_error _ -> ()
      | _ -> Alcotest.fail "expected schema error for unknown origin");
      (* association cannot be lifetime dependent (Table 3) *)
      match
        Database.define_rel db "BadAssoc" ~origin:"Person" ~destination:"Company"
          ~kind:Meta.Association ~lifetime_dep:true
      with
      | exception Meta.Schema_error _ -> ()
      | _ -> Alcotest.fail "expected error: association + lifetime dependency")

let test_schema_persistence () =
  let path = tmp_path () in
  let db = Database.open_ path in
  people_schema db;
  let p = Database.create db "Employee" [ ("name", str "Ada"); ("salary", V.VFloat 100.) ] in
  Database.close db;
  let db = Database.open_ path in
  let schema = Database.schema db in
  Alcotest.(check bool) "class survived" true (Meta.is_class schema "Employee");
  Alcotest.(check bool) "rel survived" true (Meta.is_rel schema "WorksFor");
  Alcotest.(check bool) "rel semantics survived" true
    ((Meta.rel_exn schema "WorksFor").Meta.kind = Meta.Association);
  let o = Database.get_exn db p in
  Alcotest.(check string) "object survived" "Ada" (V.as_string (Obj.get o "name"));
  Database.close db;
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Objects                                                             *)
(* ------------------------------------------------------------------ *)

let test_object_crud () =
  with_db (fun db ->
      people_schema db;
      let p = Database.create db "Person" [ ("name", str "Bob"); ("age", vint 42) ] in
      Alcotest.(check string) "name" "Bob" (V.as_string (Database.get_attr db p "name"));
      Database.update db p "age" (vint 43);
      Alcotest.(check int) "updated age" 43 (V.as_int (Database.get_attr db p "age"));
      Database.delete db p;
      Alcotest.(check bool) "gone" true (Database.get db p = None))

let test_object_type_errors () =
  with_db (fun db ->
      people_schema db;
      (match Database.create db "Person" [ ("age", str "not a number") ] with
      | exception Database.Model_error _ -> ()
      | _ -> Alcotest.fail "expected type error");
      (match Database.create db "Person" [ ("unknown_attr", vint 1) ] with
      | exception Database.Model_error _ -> ()
      | _ -> Alcotest.fail "expected unknown attribute error");
      match Database.create db "Object" [] with
      | exception Database.Model_error _ -> ()
      | _ -> Alcotest.fail "expected abstract class error")

let test_extents () =
  with_db (fun db ->
      people_schema db;
      let _p1 = Database.create db "Person" [ ("name", str "a") ] in
      let _p2 = Database.create db "Person" [ ("name", str "b") ] in
      let _e = Database.create db "Employee" [ ("name", str "c") ] in
      Alcotest.(check int) "shallow extent" 2 (Database.count db ~deep:false "Person");
      Alcotest.(check int) "deep extent" 3 (Database.count db "Person");
      Alcotest.(check int) "employee extent" 1 (Database.count db "Employee"))

let test_int_widens_to_float () =
  with_db (fun db ->
      people_schema db;
      let e = Database.create db "Employee" [ ("salary", vint 50) ] in
      Alcotest.(check int) "stored as int ok" 50 (V.as_int (Database.get_attr db e "salary")))

(* ------------------------------------------------------------------ *)
(* Relationships                                                       *)
(* ------------------------------------------------------------------ *)

let test_link_basics () =
  with_db (fun db ->
      people_schema db;
      let p = Database.create db "Person" [ ("name", str "Bob") ] in
      let c = Database.create db "Company" [ ("name", str "Acme") ] in
      let r = Database.link db "WorksFor" ~origin:p ~destination:c ~attrs:[ ("since", vint 1999) ] in
      let ro = Database.get_exn db r in
      Alcotest.(check int) "origin" p (Obj.origin ro);
      Alcotest.(check int) "destination" c (Obj.destination ro);
      Alcotest.(check int) "rel attr" 1999 (V.as_int (Obj.get ro "since"));
      Alcotest.(check int) "outgoing" 1 (List.length (Database.outgoing db ~rel_name:"WorksFor" p));
      Alcotest.(check int) "incoming" 1 (List.length (Database.incoming db ~rel_name:"WorksFor" c));
      Database.unlink db r;
      Alcotest.(check int) "unlinked" 0 (List.length (Database.outgoing db ~rel_name:"WorksFor" p)))

let test_link_type_checks () =
  with_db (fun db ->
      people_schema db;
      let p = Database.create db "Person" [] in
      let c = Database.create db "Company" [] in
      match Database.link db "WorksFor" ~origin:c ~destination:p with
      | exception Database.Model_error _ -> ()
      | _ -> Alcotest.fail "expected endpoint type error")

let test_delete_removes_links () =
  with_db (fun db ->
      people_schema db;
      let p = Database.create db "Person" [] in
      let c = Database.create db "Company" [] in
      ignore (Database.link db "WorksFor" ~origin:p ~destination:c);
      Database.delete db c;
      Alcotest.(check int) "dangling link removed" 0
        (List.length (Database.outgoing db ~rel_name:"WorksFor" p));
      Alcotest.(check bool) "person survives" true (Database.get db p <> None))

let test_lifetime_dependency_cascade () =
  with_db (fun db ->
      ignore (Database.define_class db "Doc" [ Meta.attr "title" V.TString ]);
      ignore (Database.define_class db "Chapter" [ Meta.attr "n" V.TInt ]);
      ignore
        (Database.define_rel db "HasChapter" ~origin:"Doc" ~destination:"Chapter"
           ~kind:Meta.Aggregation ~lifetime_dep:true ~sharable:false);
      let d = Database.create db "Doc" [] in
      let ch1 = Database.create db "Chapter" [ ("n", vint 1) ] in
      let ch2 = Database.create db "Chapter" [ ("n", vint 2) ] in
      ignore (Database.link db "HasChapter" ~origin:d ~destination:ch1);
      ignore (Database.link db "HasChapter" ~origin:d ~destination:ch2);
      Database.delete db d;
      Alcotest.(check bool) "chapter 1 cascaded" true (Database.get db ch1 = None);
      Alcotest.(check bool) "chapter 2 cascaded" true (Database.get db ch2 = None))

let test_shared_dependent_survives () =
  with_db (fun db ->
      ignore (Database.define_class db "Doc" []);
      ignore (Database.define_class db "Figure" []);
      ignore
        (Database.define_rel db "HasFigure" ~origin:"Doc" ~destination:"Figure"
           ~kind:Meta.Aggregation ~lifetime_dep:true ~sharable:true);
      let d1 = Database.create db "Doc" [] in
      let d2 = Database.create db "Doc" [] in
      let f = Database.create db "Figure" [] in
      ignore (Database.link db "HasFigure" ~origin:d1 ~destination:f);
      ignore (Database.link db "HasFigure" ~origin:d2 ~destination:f);
      Database.delete db d1;
      Alcotest.(check bool) "shared figure survives" true (Database.get db f <> None);
      Database.delete db d2;
      Alcotest.(check bool) "last owner gone: figure cascades" true (Database.get db f = None))

let test_non_sharable () =
  with_db (fun db ->
      ignore (Database.define_class db "Engine" []);
      ignore (Database.define_class db "Car" []);
      ignore
        (Database.define_rel db "HasEngine" ~origin:"Car" ~destination:"Engine"
           ~kind:Meta.Aggregation ~sharable:false);
      let e = Database.create db "Engine" [] in
      let c1 = Database.create db "Car" [] in
      let c2 = Database.create db "Car" [] in
      ignore (Database.link db "HasEngine" ~origin:c1 ~destination:e);
      match Database.link db "HasEngine" ~origin:c2 ~destination:e with
      | exception Database.Model_error _ -> ()
      | _ -> Alcotest.fail "expected sharability violation")

let test_exclusive_per_context () =
  with_db (fun db ->
      ignore (Database.define_class db "Taxon" [ Meta.attr "name" V.TString ]);
      ignore
        (Database.define_rel db "ChildOf" ~origin:"Taxon" ~destination:"Taxon"
           ~kind:Meta.Aggregation ~exclusive:true);
      let parent1 = Database.create db "Taxon" [ ("name", str "P1") ] in
      let parent2 = Database.create db "Taxon" [ ("name", str "P2") ] in
      let child = Database.create db "Taxon" [ ("name", str "C") ] in
      let ctx1 = Database.create_context db "classification-1" in
      let ctx2 = Database.create_context db "classification-2" in
      ignore (Database.link db "ChildOf" ~context:ctx1 ~origin:parent1 ~destination:child);
      (* same context: second parent violates exclusivity *)
      (match Database.link db "ChildOf" ~context:ctx1 ~origin:parent2 ~destination:child with
      | exception Database.Model_error _ -> ()
      | _ -> Alcotest.fail "expected exclusivity violation in same context");
      (* a different context may classify the same child differently:
         multiple overlapping classifications *)
      ignore (Database.link db "ChildOf" ~context:ctx2 ~origin:parent2 ~destination:child);
      Alcotest.(check int) "two classifications overlap on child" 2
        (List.length (Database.incoming db ~rel_name:"ChildOf" child)))

let test_cardinality_max () =
  with_db (fun db ->
      ignore (Database.define_class db "Wheel" []);
      ignore (Database.define_class db "Bike" []);
      ignore
        (Database.define_rel db "HasWheel" ~origin:"Bike" ~destination:"Wheel"
           ~card_out:(Meta.card ~cmax:2 ()));
      let b = Database.create db "Bike" [] in
      let w () = Database.create db "Wheel" [] in
      ignore (Database.link db "HasWheel" ~origin:b ~destination:(w ()));
      ignore (Database.link db "HasWheel" ~origin:b ~destination:(w ()));
      match Database.link db "HasWheel" ~origin:b ~destination:(w ()) with
      | exception Database.Model_error _ -> ()
      | _ -> Alcotest.fail "expected max cardinality violation")

let test_min_cardinality_validation () =
  with_db (fun db ->
      ignore (Database.define_class db "Order" []);
      ignore (Database.define_class db "Item" []);
      ignore
        (Database.define_rel db "HasItem" ~origin:"Order" ~destination:"Item"
           ~card_out:(Meta.card ~cmin:1 ()));
      Database.begin_tx db;
      let o = Database.create db "Order" [] in
      let errs = Database.validate_min_cards db in
      Alcotest.(check bool) "empty order invalid" true (errs <> []);
      let i = Database.create db "Item" [] in
      ignore (Database.link db "HasItem" ~origin:o ~destination:i);
      Alcotest.(check (list string)) "satisfied" [] (Database.validate_min_cards db);
      Database.commit db)

let test_constant_relationship () =
  with_db (fun db ->
      ignore (Database.define_class db "A" []);
      ignore (Database.define_class db "B" []);
      ignore (Database.define_rel db "Fixed" ~origin:"A" ~destination:"B" ~constant:true);
      let a = Database.create db "A" [] in
      let b1 = Database.create db "B" [] in
      let b2 = Database.create db "B" [] in
      let r = Database.link db "Fixed" ~origin:a ~destination:b1 in
      match Database.retarget db r ~destination:b2 () with
      | exception Database.Model_error _ -> ()
      | _ -> Alcotest.fail "expected constancy violation")

let test_retarget () =
  with_db (fun db ->
      people_schema db;
      let p = Database.create db "Person" [] in
      let c1 = Database.create db "Company" [] in
      let c2 = Database.create db "Company" [] in
      let r = Database.link db "WorksFor" ~origin:p ~destination:c1 in
      Database.retarget db r ~destination:c2 ();
      Alcotest.(check int) "moved" 1 (List.length (Database.incoming db ~rel_name:"WorksFor" c2));
      Alcotest.(check int) "left old" 0 (List.length (Database.incoming db ~rel_name:"WorksFor" c1)))

let test_role_attribute_inheritance () =
  with_db (fun db ->
      ignore (Database.define_class db "Specimen" [ Meta.attr "code" V.TString ]);
      ignore (Database.define_class db "NameRec" [ Meta.attr "name" V.TString ]);
      ignore
        (Database.define_rel db "TypeOf" ~origin:"NameRec" ~destination:"Specimen"
           ~attrs:[ Meta.attr "kind" V.TString ]
           ~inherited_attrs:[ "kind" ]);
      let s = Database.create db "Specimen" [ ("code", str "HB107") ] in
      let n = Database.create db "NameRec" [ ("name", str "Apium") ] in
      Alcotest.(check bool) "no role yet" false (Database.has_role db s ~rel_name:"TypeOf");
      Alcotest.(check bool) "kind null before" true
        (V.is_null (Database.get_attr db s "kind"));
      ignore
        (Database.link db "TypeOf" ~origin:n ~destination:s ~attrs:[ ("kind", str "holotype") ]);
      Alcotest.(check bool) "role acquired" true (Database.has_role db s ~rel_name:"TypeOf");
      Alcotest.(check string) "inherited attribute" "holotype"
        (V.as_string (Database.get_attr db s "kind")))

let test_instance_synonyms () =
  with_db (fun db ->
      people_schema db;
      let a = Database.create db "Person" [ ("name", str "Carl Linnaeus") ] in
      let b = Database.create db "Person" [ ("name", str "Carl von Linné") ] in
      let c = Database.create db "Person" [ ("name", str "L.") ] in
      let d = Database.create db "Person" [ ("name", str "Darwin") ] in
      Database.declare_synonym db a b;
      Database.declare_synonym db b c;
      Alcotest.(check bool) "transitive" true (Database.same_entity db a c);
      Alcotest.(check bool) "distinct" false (Database.same_entity db a d);
      Alcotest.(check int) "synonym set" 3 (Database.OidSet.cardinal (Database.synonym_set db a));
      Alcotest.(check int) "synonym set from a non-root" 3
        (Database.OidSet.cardinal (Database.synonym_set db c)))

(* Deleting a synonym record splits the union it made: the live handle,
   a snapshot view and a reopen of the store all give the same answer. *)
let test_synonym_deletion () =
  let path = tmp_path () in
  Fun.protect ~finally:(fun () ->
      List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ path; path ^ ".journal" ])
  @@ fun () ->
  let db = Database.open_ path in
  people_schema db;
  let a, b, c =
    Database.with_tx db (fun () ->
        let p name = Database.create db "Person" [ ("name", str name) ] in
        let a = p "a" and b = p "b" and c = p "c" in
        Database.declare_synonym db a b;
        Database.declare_synonym db b c;
        (a, b, c))
  in
  let syn_ab =
    List.find
      (fun oid -> V.as_ref (Database.get_attr db oid "a") = a)
      (Database.extent_list db Database.synonym_class)
  in
  Database.with_tx db (fun () -> Database.delete db syn_ab);
  let answers db = (Database.same_entity db a b, Database.same_entity db b c) in
  Alcotest.(check (pair bool bool)) "live handle" (false, true) (answers db);
  let view = Database.snapshot db in
  Alcotest.(check (pair bool bool)) "snapshot view" (false, true) (answers view);
  Database.close view;
  Database.close db;
  let db = Database.open_ path in
  Alcotest.(check (pair bool bool)) "reopen" (false, true) (answers db);
  Database.close db

let test_tx_abort_rebuilds_mirror () =
  with_db (fun db ->
      people_schema db;
      let p = Database.create db "Person" [ ("name", str "stable") ] in
      Database.begin_tx db;
      let q = Database.create db "Person" [ ("name", str "temp") ] in
      Database.update db p "name" (str "mutated");
      let c = Database.create db "Company" [] in
      ignore (Database.link db "WorksFor" ~origin:p ~destination:c);
      Database.abort db;
      Alcotest.(check bool) "temp object gone" true (Database.get db q = None);
      Alcotest.(check string) "update rolled back" "stable"
        (V.as_string (Database.get_attr db p "name"));
      Alcotest.(check int) "link rolled back" 0
        (List.length (Database.outgoing db ~rel_name:"WorksFor" p));
      Alcotest.(check int) "extent restored" 1 (Database.count db "Person"))

let test_events_emitted () =
  with_db (fun db ->
      people_schema db;
      let log = ref [] in
      ignore
        (Bus.subscribe (Database.bus db) (E.On_create (Some "Person")) (fun ev ->
             log := ("create", ev) :: !log));
      ignore
        (Bus.subscribe (Database.bus db) (E.On_rel_create (Some "WorksFor")) (fun ev ->
             log := ("link", ev) :: !log));
      let p = Database.create db "Person" [] in
      let c = Database.create db "Company" [] in
      ignore (Database.link db "WorksFor" ~origin:p ~destination:c);
      Alcotest.(check int) "two events" 2 (List.length !log))

let test_index_maintenance () =
  with_db (fun db ->
      people_schema db;
      let mk n = Database.create db "Person" [ ("name", str n) ] in
      let a = mk "alice" in
      let _b = mk "bob" in
      Database.create_index db "Person" "name";
      (match Database.index_lookup db "Person" "name" (str "alice") with
      | Some s -> Alcotest.(check int) "found via index" 1 (Database.OidSet.cardinal s)
      | None -> Alcotest.fail "index missing");
      Database.update db a "name" (str "alicia");
      (match Database.index_lookup db "Person" "name" (str "alice") with
      | Some s -> Alcotest.(check int) "old key empty" 0 (Database.OidSet.cardinal s)
      | None -> Alcotest.fail "index missing");
      (match Database.index_lookup db "Person" "name" (str "alicia") with
      | Some s -> Alcotest.(check int) "new key" 1 (Database.OidSet.cardinal s)
      | None -> Alcotest.fail "index missing");
      (* index covers subclasses *)
      let _e = Database.create db "Employee" [ ("name", str "eve") ] in
      match Database.index_lookup db "Person" "name" (str "eve") with
      | Some s -> Alcotest.(check int) "subclass indexed" 1 (Database.OidSet.cardinal s)
      | None -> Alcotest.fail "index missing")

(* ------------------------------------------------------------------ *)
(* Graph layer                                                         *)
(* ------------------------------------------------------------------ *)

let tree_schema db =
  ignore (Database.define_class db "Node" [ Meta.attr "label" V.TString ]);
  ignore
    (Database.define_rel db "Edge" ~origin:"Node" ~destination:"Node" ~kind:Meta.Aggregation)

let mk_node db l = Database.create db "Node" [ ("label", str l) ]

let test_traverse_descendants () =
  with_db (fun db ->
      tree_schema db;
      (*      r
             / \
            a   b
           / \
          c   d     *)
      let r = mk_node db "r" in
      let a = mk_node db "a" in
      let b = mk_node db "b" in
      let c = mk_node db "c" in
      let d = mk_node db "d" in
      let link o dst = ignore (Database.link db "Edge" ~origin:o ~destination:dst) in
      link r a;
      link r b;
      link a c;
      link a d;
      let desc = Pgraph.Traverse.descendants db ~rel:"Edge" r in
      Alcotest.(check int) "4 descendants" 4 (Database.OidSet.cardinal desc);
      let depth1 = Pgraph.Traverse.descendants db ~rel:"Edge" ~max_depth:1 r in
      Alcotest.(check int) "depth 1" 2 (Database.OidSet.cardinal depth1);
      let depth2only = Pgraph.Traverse.descendants db ~rel:"Edge" ~min_depth:2 r in
      Alcotest.(check int) "depth 2 only" 2 (Database.OidSet.cardinal depth2only);
      let anc = Pgraph.Traverse.ancestors db ~rel:"Edge" c in
      Alcotest.(check int) "ancestors of c" 2 (Database.OidSet.cardinal anc);
      Alcotest.(check bool) "reachable" true (Pgraph.Traverse.reachable db ~rel:"Edge" r d);
      Alcotest.(check bool) "not reachable up" false (Pgraph.Traverse.reachable db ~rel:"Edge" d r);
      (match Pgraph.Traverse.shortest_path db ~rel:"Edge" r c with
      | Some p -> Alcotest.(check (list int)) "path" [ r; a; c ] p
      | None -> Alcotest.fail "no path");
      Alcotest.(check bool) "acyclic" false
        (Pgraph.Traverse.has_cycle db ~rel:"Edge" (Pgraph.Traverse.closure db ~rel:"Edge" r)))

let test_traverse_cycle_safe () =
  with_db (fun db ->
      tree_schema db;
      let a = mk_node db "a" in
      let b = mk_node db "b" in
      ignore (Database.link db "Edge" ~origin:a ~destination:b);
      ignore (Database.link db "Edge" ~origin:b ~destination:a);
      (* proper descendants of a: just b — the root is visited at depth 0
         and not re-counted when the cycle returns to it *)
      let desc = Pgraph.Traverse.descendants db ~rel:"Edge" a in
      Alcotest.(check int) "cycle terminates" 1 (Database.OidSet.cardinal desc);
      let clo = Pgraph.Traverse.closure db ~rel:"Edge" a in
      Alcotest.(check int) "closure includes root" 2 (Database.OidSet.cardinal clo);
      Alcotest.(check bool) "cycle detected" true
        (Pgraph.Traverse.has_cycle db ~rel:"Edge" (Pgraph.Traverse.closure db ~rel:"Edge" a)))

let test_context_scoped_traversal () =
  with_db (fun db ->
      tree_schema db;
      let r = mk_node db "r" in
      let x = mk_node db "x" in
      let y = mk_node db "y" in
      let ctx1 = Database.create_context db "c1" in
      let ctx2 = Database.create_context db "c2" in
      ignore (Database.link db "Edge" ~context:ctx1 ~origin:r ~destination:x);
      ignore (Database.link db "Edge" ~context:ctx2 ~origin:r ~destination:y);
      let d1 = Pgraph.Traverse.descendants db ~context:ctx1 ~rel:"Edge" r in
      let d2 = Pgraph.Traverse.descendants db ~context:ctx2 ~rel:"Edge" r in
      let dall = Pgraph.Traverse.descendants db ~rel:"Edge" r in
      Alcotest.(check int) "ctx1 sees x" 1 (Database.OidSet.cardinal d1);
      Alcotest.(check bool) "ctx1 content" true (Database.OidSet.mem x d1);
      Alcotest.(check int) "ctx2 sees y" 1 (Database.OidSet.cardinal d2);
      Alcotest.(check int) "unscoped sees both" 2 (Database.OidSet.cardinal dall))

let test_subgraph_extract_copy () =
  with_db (fun db ->
      tree_schema db;
      let r = mk_node db "r" in
      let a = mk_node db "a" in
      let b = mk_node db "b" in
      let ctx1 = Database.create_context db "v1" in
      ignore (Database.link db "Edge" ~context:ctx1 ~origin:r ~destination:a);
      ignore (Database.link db "Edge" ~context:ctx1 ~origin:a ~destination:b);
      let g = Pgraph.Subgraph.extract db ~context:ctx1 ~rel:"Edge" r in
      Alcotest.(check int) "nodes" 3 (Pgraph.Subgraph.node_count g);
      Alcotest.(check int) "edges" 2 (Pgraph.Subgraph.edge_count g);
      (* copy into a fresh context: the revision workflow *)
      let ctx2 = Database.create_context db "v2" in
      let new_edges = Pgraph.Subgraph.copy_into db g ~into:ctx2 in
      Alcotest.(check int) "copied edges" 2 (List.length new_edges);
      let g2 = Pgraph.Subgraph.of_context db ~rel:"Edge" ctx2 in
      Alcotest.(check bool) "same structure" true (Pgraph.Subgraph.same_structure db g g2);
      Alcotest.(check int) "overlap is total on nodes" 100
        (int_of_float (Pgraph.Subgraph.overlap g g2 *. 100.)))

(* --- additional coverage -------------------------------------------------- *)

let test_custom_events () =
  with_db (fun db ->
      let log = ref [] in
      ignore
        (Bus.subscribe (Database.bus db) (E.On_custom "import") (fun ev ->
             match ev with
             | E.Custom { payload; _ } -> log := payload :: !log
             | _ -> ()));
      Bus.emit (Database.bus db) (E.Custom { tag = "import"; payload = [ ("file", "x.csv") ] });
      Bus.emit (Database.bus db) (E.Custom { tag = "other"; payload = [] });
      Alcotest.(check int) "only matching tag" 1 (List.length !log))

let test_multi_level_inheritance_override () =
  with_db (fun db ->
      ignore (Database.define_class db "A" [ Meta.attr "x" V.TInt ~default:(V.VInt 1) ]);
      ignore (Database.define_class db "B" ~supers:[ "A" ] []);
      (* C overrides the default of x *)
      ignore
        (Database.define_class db "C" ~supers:[ "B" ]
           [ Meta.attr "x" V.TInt ~default:(V.VInt 3) ]);
      let c = Database.create db "C" [] in
      Alcotest.(check int) "overridden default" 3 (V.as_int (Database.get_attr db c "x"));
      let b = Database.create db "B" [] in
      Alcotest.(check int) "inherited default" 1 (V.as_int (Database.get_attr db b "x"));
      (* deep extent of A counts all three *)
      ignore (Database.create db "A" []);
      Alcotest.(check int) "deep extent" 3 (Database.count db "A"))

let test_collection_attr_conformance () =
  with_db (fun db ->
      people_schema db;
      ignore
        (Database.define_class db "Group"
           [ Meta.attr "members" (V.TSet (V.TRef "Person")) ]);
      let p1 = Database.create db "Person" [] in
      let p2 = Database.create db "Employee" [] (* subclass conforms *) in
      let g =
        Database.create db "Group" [ ("members", V.vset [ V.VRef p1; V.VRef p2 ]) ]
      in
      Alcotest.(check int) "set stored" 2
        (List.length (V.as_elements (Database.get_attr db g "members")));
      let c = Database.create db "Company" [] in
      match Database.update db g "members" (V.vset [ V.VRef c ]) with
      | exception Database.Model_error _ -> ()
      | _ -> Alcotest.fail "Company is not a Person: should fail")

let test_extent_after_delete_and_reopen () =
  let path = tmp_path () in
  let db = Database.open_ path in
  people_schema db;
  let p1 = Database.create db "Person" [ ("name", str "a") ] in
  let _p2 = Database.create db "Person" [ ("name", str "b") ] in
  Database.delete db p1;
  Alcotest.(check int) "extent after delete" 1 (Database.count db "Person");
  Database.close db;
  let db = Database.open_ path in
  Alcotest.(check int) "extent after reopen" 1 (Database.count db "Person");
  Database.close db;
  Sys.remove path

let test_retarget_respects_semantics () =
  with_db (fun db ->
      ignore (Database.define_class db "P" []);
      ignore (Database.define_class db "Q" []);
      ignore
        (Database.define_rel db "Uniq" ~origin:"P" ~destination:"Q" ~kind:Meta.Aggregation
           ~sharable:false);
      let p1 = Database.create db "P" [] in
      let p2 = Database.create db "P" [] in
      let q1 = Database.create db "Q" [] in
      let q2 = Database.create db "Q" [] in
      let _r1 = Database.link db "Uniq" ~origin:p1 ~destination:q1 in
      let r2 = Database.link db "Uniq" ~origin:p2 ~destination:q2 in
      (* retargeting r2 onto q1 violates non-sharability; the failed
         retarget must leave r2 exactly as before *)
      (match Database.retarget db r2 ~destination:q1 () with
      | exception Database.Model_error _ -> ()
      | _ -> Alcotest.fail "expected sharability violation on retarget");
      let r2o = Database.get_exn db r2 in
      Alcotest.(check int) "r2 origin intact" p2 (Obj.origin r2o);
      Alcotest.(check int) "r2 destination intact" q2 (Obj.destination r2o);
      Alcotest.(check int) "adjacency intact" 1
        (List.length (Database.incoming db ~rel_name:"Uniq" q2)))

let test_self_link_and_unlink_counts () =
  with_db (fun db ->
      ignore (Database.define_class db "N" []);
      ignore (Database.define_rel db "E" ~origin:"N" ~destination:"N");
      let n = Database.create db "N" [] in
      let r = Database.link db "E" ~origin:n ~destination:n in
      Alcotest.(check int) "self-loop outgoing" 1
        (List.length (Database.outgoing db ~rel_name:"E" n));
      Alcotest.(check int) "self-loop incoming" 1
        (List.length (Database.incoming db ~rel_name:"E" n));
      Database.unlink db r;
      Alcotest.(check int) "gone" 0 (List.length (Database.rels_of db n)))

let test_date_values () =
  with_db (fun db ->
      ignore (Database.define_class db "Ev" [ Meta.attr "when" V.TDate ]);
      let e1 = Database.create db "Ev" [ ("when", V.VDate (V.date ~month:6 ~day:15 1821)) ] in
      let d = Database.get_attr db e1 "when" in
      (match d with
      | V.VDate dd ->
          Alcotest.(check int) "year" 1821 dd.V.year;
          Alcotest.(check int) "month" 6 dd.V.month
      | _ -> Alcotest.fail "not a date");
      Alcotest.(check bool) "date ordering" true
        (V.compare_value d (V.VDate (V.date 1900)) < 0))

let test_rel_with_rel_superclass_extent () =
  with_db (fun db ->
      ignore (Database.define_class db "N" []);
      ignore (Database.define_rel db "Base" ~origin:"N" ~destination:"N");
      ignore (Database.define_rel db "Special" ~supers:[ "Base" ] ~origin:"N" ~destination:"N");
      let a = Database.create db "N" [] in
      let b = Database.create db "N" [] in
      ignore (Database.link db "Base" ~origin:a ~destination:b);
      ignore (Database.link db "Special" ~origin:a ~destination:b);
      (* navigation through the super-relationship sees both *)
      Alcotest.(check int) "polymorphic outgoing" 2
        (List.length (Database.outgoing db ~rel_name:"Base" a));
      Alcotest.(check int) "exact subclass" 1
        (List.length (Database.outgoing db ~rel_name:"Special" a));
      Alcotest.(check int) "rel extent deep" 2
        (Database.OidSet.cardinal (Database.extent db "Base")))

(* An abort takes the whole schema back to the stored record: a class or
   relationship defined in the rolled-back transaction is gone at once,
   as it is after a reopen, and cached plans see the epoch move. *)
let test_abort_undoes_schema () =
  let path = tmp_path () in
  let db = Database.open_ path in
  people_schema db;
  let gone db name =
    Alcotest.(check bool) (name ^ " undefined") false (Meta.is_class (Database.schema db) name)
  in
  (* plain abort *)
  let epoch = Database.index_epoch db in
  Database.begin_tx db;
  ignore (Database.define_class db "Ghost" [ Meta.attr "x" V.TInt ]);
  ignore (Database.define_rel db "Haunts" ~origin:"Ghost" ~destination:"Person");
  Database.abort db;
  gone db "Ghost";
  Alcotest.(check bool) "Haunts undefined" false (Meta.is_rel (Database.schema db) "Haunts");
  Alcotest.(check bool) "epoch moved" true (Database.index_epoch db > epoch + 2);
  Alcotest.(check bool) "earlier classes kept" true (Meta.is_class (Database.schema db) "Employee");
  (match Database.create db "Ghost" [] with
  | _ -> Alcotest.fail "created an object of a rolled-back class"
  | exception _ -> ());
  (* a raising with_tx *)
  (match
     Database.with_tx db (fun () ->
         ignore (Database.define_class db "Wraith" []);
         failwith "veto")
   with
  | () -> Alcotest.fail "with_tx must re-raise"
  | exception Failure _ -> ());
  gone db "Wraith";
  (* a group-writer rollback *)
  let w = Database.Writer.start db in
  (match
     Database.Writer.submit w (fun db ->
         ignore (Database.define_class db "Spectre" []);
         failwith "veto")
   with
  | _ -> Alcotest.fail "failing body must raise at the submitter"
  | exception Failure _ -> ());
  (match Database.Writer.read w (fun db -> Meta.is_class (Database.schema db) "Spectre") with
  | _, Ok defined -> Alcotest.(check bool) "Spectre undefined" false defined
  | _, Error e -> raise e);
  ignore (Database.Writer.submit w (fun db -> Database.define_class db "Kept" []));
  Database.Writer.stop w;
  Alcotest.(check bool) "a committed class stays" true (Meta.is_class (Database.schema db) "Kept");
  (* the live schema is the stored one *)
  Database.close db;
  let db = Database.open_ path in
  List.iter (gone db) [ "Ghost"; "Wraith"; "Spectre" ];
  Alcotest.(check bool) "Kept after reopen" true (Meta.is_class (Database.schema db) "Kept");
  Database.close db;
  Sys.remove path

(* Opening and closing a store whose schema record is current writes
   nothing: no page write and no fsync. *)
let test_open_of_unchanged_store_writes_nothing () =
  let fs = Pstore.Fault.create () in
  let vfs = Pstore.Fault.vfs fs in
  let db = Database.open_ ~vfs "quiet.db" in
  people_schema db;
  ignore (Database.create db "Person" [ ("name", str "Ada"); ("age", vint 36) ]);
  Database.close db;
  let c = Pstore.Fault.counters fs in
  let writes = c.Pstore.Fault.writes and fsyncs = c.Pstore.Fault.fsyncs in
  for _ = 1 to 2 do
    let db = Database.open_ ~vfs "quiet.db" in
    Alcotest.(check int) "objects" 1 (Database.count db "Person");
    Database.close db
  done;
  Alcotest.(check int) "page writes" writes c.Pstore.Fault.writes;
  Alcotest.(check int) "fsyncs" fsyncs c.Pstore.Fault.fsyncs

let () =
  Alcotest.run "model"
    [
      ( "events",
        [
          Alcotest.test_case "matching" `Quick test_event_matching;
          Alcotest.test_case "seq tracker" `Quick test_event_seq_tracker;
          Alcotest.test_case "both tracker" `Quick test_event_both_tracker;
          Alcotest.test_case "bus subscribe/unsubscribe" `Quick test_bus_subscribe_unsubscribe;
          Alcotest.test_case "tx resets composites" `Quick test_bus_tx_resets_composites;
        ] );
      ( "schema",
        [
          Alcotest.test_case "inheritance" `Quick test_schema_inheritance;
          Alcotest.test_case "validation" `Quick test_schema_validation;
          Alcotest.test_case "persistence" `Quick test_schema_persistence;
        ] );
      ( "objects",
        [
          Alcotest.test_case "crud" `Quick test_object_crud;
          Alcotest.test_case "type errors" `Quick test_object_type_errors;
          Alcotest.test_case "extents" `Quick test_extents;
          Alcotest.test_case "int widens to float" `Quick test_int_widens_to_float;
        ] );
      ( "relationships",
        [
          Alcotest.test_case "link basics" `Quick test_link_basics;
          Alcotest.test_case "endpoint type checks" `Quick test_link_type_checks;
          Alcotest.test_case "delete removes links" `Quick test_delete_removes_links;
          Alcotest.test_case "lifetime cascade" `Quick test_lifetime_dependency_cascade;
          Alcotest.test_case "shared dependent survives" `Quick test_shared_dependent_survives;
          Alcotest.test_case "non-sharable" `Quick test_non_sharable;
          Alcotest.test_case "exclusive per context" `Quick test_exclusive_per_context;
          Alcotest.test_case "max cardinality" `Quick test_cardinality_max;
          Alcotest.test_case "min cardinality validation" `Quick test_min_cardinality_validation;
          Alcotest.test_case "constant relationship" `Quick test_constant_relationship;
          Alcotest.test_case "retarget" `Quick test_retarget;
          Alcotest.test_case "role attribute inheritance" `Quick test_role_attribute_inheritance;
          Alcotest.test_case "instance synonyms" `Quick test_instance_synonyms;
          Alcotest.test_case "synonym deletion splits the union" `Quick test_synonym_deletion;
        ] );
      ( "transactions",
        [
          Alcotest.test_case "abort rebuilds mirror" `Quick test_tx_abort_rebuilds_mirror;
          Alcotest.test_case "events emitted" `Quick test_events_emitted;
          Alcotest.test_case "index maintenance" `Quick test_index_maintenance;
          Alcotest.test_case "abort undoes schema definitions" `Quick test_abort_undoes_schema;
          Alcotest.test_case "open of an unchanged store writes nothing" `Quick
            test_open_of_unchanged_store_writes_nothing;
        ] );
      ( "coverage",
        [
          Alcotest.test_case "custom events" `Quick test_custom_events;
          Alcotest.test_case "multi-level inheritance override" `Quick
            test_multi_level_inheritance_override;
          Alcotest.test_case "collection attr conformance" `Quick test_collection_attr_conformance;
          Alcotest.test_case "extent after delete & reopen" `Quick
            test_extent_after_delete_and_reopen;
          Alcotest.test_case "retarget respects semantics" `Quick test_retarget_respects_semantics;
          Alcotest.test_case "self-link" `Quick test_self_link_and_unlink_counts;
          Alcotest.test_case "date values" `Quick test_date_values;
          Alcotest.test_case "relationship subclass extents" `Quick
            test_rel_with_rel_superclass_extent;
        ] );
      ( "graph",
        [
          Alcotest.test_case "descendants/ancestors/paths" `Quick test_traverse_descendants;
          Alcotest.test_case "cycle safety" `Quick test_traverse_cycle_safe;
          Alcotest.test_case "context-scoped traversal" `Quick test_context_scoped_traversal;
          Alcotest.test_case "subgraph extract & copy" `Quick test_subgraph_extract_copy;
        ] );
    ]
