(* Tests for the plan-then-run query engine: index range/prefix
   pushdown, hash joins and the plan cache, plus the graph traversals
   against their list-based oracle.  The central claim under test is
   bit-identical results: the optimized engine must return exactly what
   the legacy interpreter returns, on every query, after every kind of
   graph mutation. *)

open Pmodel
module V = Value
module P = Pool_lang.Pool
module Traverse = Pgraph.Traverse
module OidSet = Database.OidSet

let tmp_counter = ref 0

let tmp_path () =
  incr tmp_counter;
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "prom_qe_%d_%d.db" (Unix.getpid ()) !tmp_counter)

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

let value_testable =
  Alcotest.testable Value.pp (fun a b -> Value.compare_value a b = 0)

(* Firm schema, as in test_pool. *)
let setup db =
  ignore
    (Database.define_class db "Person" [ Meta.attr "name" V.TString; Meta.attr "age" V.TInt ]);
  ignore (Database.define_class db "Company" [ Meta.attr "name" V.TString ]);
  ignore
    (Database.define_rel db "WorksFor" ~origin:"Person" ~destination:"Company"
       ~attrs:[ Meta.attr "salary" V.TInt ]);
  ignore
    (Database.define_rel db "Manages" ~origin:"Person" ~destination:"Person"
       ~kind:Meta.Aggregation);
  let mk_p name age = Database.create db "Person" [ ("name", str name); ("age", vint age) ] in
  let mk_c name = Database.create db "Company" [ ("name", str name) ] in
  let alice = mk_p "alice" 30 in
  let bob = mk_p "bob" 40 in
  let carol = mk_p "carol" 50 in
  let dave = mk_p "dave" 25 in
  let acme = mk_c "acme" in
  let globex = mk_c "globex" in
  ignore (Database.link db "WorksFor" ~origin:alice ~destination:acme ~attrs:[ ("salary", vint 50) ]);
  ignore (Database.link db "WorksFor" ~origin:bob ~destination:acme ~attrs:[ ("salary", vint 60) ]);
  ignore (Database.link db "WorksFor" ~origin:carol ~destination:globex ~attrs:[ ("salary", vint 70) ]);
  ignore (Database.link db "Manages" ~origin:carol ~destination:bob);
  ignore (Database.link db "Manages" ~origin:bob ~destination:alice);
  ignore (Database.link db "Manages" ~origin:bob ~destination:dave);
  (alice, bob, carol, dave, acme, globex)

(* Both engines on the same query: results must be identical values. *)
let check_both db ?env q =
  let optimized = P.query ?env db q in
  let legacy = P.query ?env ~config:P.legacy_config db q in
  Alcotest.check value_testable (Printf.sprintf "optimized = legacy on %s" q) legacy optimized;
  optimized

(* --- index range / prefix pushdown ------------------------------------ *)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* An index keys objects by their stored attribute, but POOL reads a
   relationship's endpoints and an object's role-inherited attributes
   another way.  An index on either once answered [] where the index-free
   query answered rows.  Each probe must now either be refused at
   [create_index], naming the class and attribute, or answer what the
   index-free query answers. *)
let test_index_only_on_stored_attrs () =
  with_db @@ fun db ->
  ignore (Database.define_class db "Person" [ Meta.attr "name" V.TString ]);
  ignore (Database.define_class db "Tag" [ Meta.attr "label" V.TString ]);
  ignore
    (Database.define_rel db "TypeOf" ~origin:"Tag" ~destination:"Person"
       ~attrs:[ Meta.attr "kind" V.TString ] ~inherited_attrs:[ "kind" ]);
  let alice = Database.create db "Person" [ ("name", str "alice") ] in
  let tag = Database.create db "Tag" [ ("label", str "t") ] in
  ignore (Database.link db "TypeOf" ~origin:tag ~destination:alice ~attrs:[ ("kind", str "holo") ]);
  let probe cls attr q expected =
    let before = check_both db q in
    Alcotest.check value_testable ("index-free " ^ q) expected before;
    (match Database.create_index db cls attr with
    | () -> ()
    | exception Database.Model_error msg ->
        if not (contains msg cls && contains msg attr) then
          Alcotest.failf "create_index %s.%s: message %S names neither" cls attr msg);
    Alcotest.check value_testable ("with the index " ^ q) before (check_both db q)
  in
  let typeof = (List.hd (Database.outgoing db ~rel_name:"TypeOf" tag)).Obj.oid in
  probe "TypeOf" "origin" "select t from TypeOf t where t.origin > 0"
    (V.VList [ V.VRef typeof ]);
  probe "Person" "kind" "select p.name from Person p where p.kind = 'holo'"
    (V.VList [ str "alice" ]);
  (* declared attributes stay indexable, on object and relationship classes *)
  Database.create_index db "Person" "name";
  Database.create_index db "TypeOf" "kind";
  Alcotest.(check bool) "Person.name indexed" true (Database.has_index db "Person" "name");
  Alcotest.(check bool) "TypeOf.kind indexed" true (Database.has_index db "TypeOf" "kind");
  Alcotest.check_raises "unknown class" (Database.Model_error
    "create_index: class Nope does not declare attribute name") (fun () ->
      Database.create_index db "Nope" "name")

let test_range_pushdown () =
  with_db @@ fun db ->
  let _ = setup db in
  Database.create_index db "Person" "age";
  let r = check_both db "select p.name from Person p where p.age > 25 and p.age <= 40" in
  Alcotest.check value_testable "range rows"
    (V.VList [ str "alice"; str "bob" ]) r;
  (* the range scan actually ran, and probed no equality index *)
  let v, kind = P.query_explain db "select p from Person p where p.age >= 40" in
  ignore v;
  Alcotest.(check bool) "no equality probe for range" true (kind = `Extent_scan);
  let s = P.stats db in
  Alcotest.(check bool) "range_scans counted" true (s.Pool_lang.Eval.range_scans > 0)

let test_between () =
  with_db @@ fun db ->
  let _ = setup db in
  Database.create_index db "Person" "age";
  let r = check_both db "select p.name from Person p where p.age between 25 and 30 order by p.name" in
  Alcotest.check value_testable "between rows" (V.VList [ str "alice"; str "dave" ]) r

let test_prefix_pushdown () =
  with_db @@ fun db ->
  let _ = setup db in
  Database.create_index db "Person" "name";
  let r = check_both db "select p.name from Person p where p.name like 'a%'" in
  Alcotest.check value_testable "prefix rows" (V.VList [ str "alice" ]) r;
  (* pattern with a literal prefix and a suffix wildcard still narrows *)
  let r = check_both db "select p.name from Person p where p.name like 'c%l'" in
  Alcotest.check value_testable "prefix+suffix rows" (V.VList [ str "carol" ]) r

let test_index_range_unit () =
  with_db @@ fun db ->
  let _ = setup db in
  Database.create_index db "Person" "age";
  let card ?lo ?hi () =
    match Database.index_range db "Person" "age" ?lo ?hi () with
    | Some s -> OidSet.cardinal s
    | None -> -1
  in
  Alcotest.(check int) "age > 25" 3 (card ~lo:(vint 25, false) ());
  Alcotest.(check int) "age >= 25" 4 (card ~lo:(vint 25, true) ());
  Alcotest.(check int) "age <= 30" 2 (card ~hi:(vint 30, true) ());
  Alcotest.(check int) "25 < age < 50" 2 (card ~lo:(vint 25, false) ~hi:(vint 50, false) ());
  Alcotest.(check int) "unbounded" 4 (card ());
  Alcotest.(check int) "no index" (-1)
    (match Database.index_range db "Person" "name" () with
    | Some s -> OidSet.cardinal s
    | None -> -1);
  Database.create_index db "Person" "name";
  match Database.index_string_prefix db "Person" "name" "" with
  | Some s -> Alcotest.(check int) "empty prefix = all" 4 (OidSet.cardinal s)
  | None -> Alcotest.fail "prefix index missing"

let test_reversed_like () =
  (* [lit like x.attr] matches the literal against the *stored
     pattern*: it must never be normalised into a prefix scan over the
     stored values (a '%llo' pattern sorts outside the 'hello' prefix
     block, so the scan would drop rows the interpreter keeps). *)
  with_db @@ fun db ->
  ignore (Database.define_class db "Rule" [ Meta.attr "pat" V.TString ]);
  ignore (Database.create db "Rule" [ ("pat", str "%llo") ]);
  ignore (Database.create db "Rule" [ ("pat", str "he%") ]);
  ignore (Database.create db "Rule" [ ("pat", str "xyz") ]);
  Database.create_index db "Rule" "pat";
  let r = check_both db "select r.pat from Rule r where 'hello' like r.pat order by r.pat" in
  Alcotest.check value_testable "reversed like keeps pattern rows"
    (V.VList [ str "%llo"; str "he%" ]) r;
  (* reversed comparison operators, by contrast, do invert and push down *)
  let r = check_both db "select r.pat from Rule r where 'he%' <= r.pat order by r.pat" in
  Alcotest.check value_testable "reversed range" (V.VList [ str "he%"; str "xyz" ]) r

let test_prefix_null_error_semantics () =
  (* A row whose indexed attribute is unset indexes under VNull; LIKE
     on it raises in the interpreter.  The prefix pushdown must decline
     (falling back to the extent scan) so the optimized engine raises
     exactly where the legacy one does, instead of skipping the row and
     succeeding. *)
  with_db @@ fun db ->
  ignore (Database.define_class db "Doc" [ Meta.attr "title" V.TString ]);
  ignore (Database.create db "Doc" [ ("title", str "abc") ]);
  ignore (Database.create db "Doc" [ ("title", str "abd") ]);
  let untitled = Database.create db "Doc" [] in
  Database.create_index db "Doc" "title";
  Alcotest.(check bool) "pushdown declined on non-string keys" true
    (Database.index_string_prefix db "Doc" "title" "ab" = None);
  let q = "select d.title from Doc d where d.title like 'ab%'" in
  let outcome config =
    match P.query ?config db q with v -> Ok v | exception e -> Error (Printexc.to_string e)
  in
  let legacy = outcome (Some P.legacy_config) and optimized = outcome None in
  (match legacy with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "legacy unexpectedly succeeded on a null title");
  Alcotest.(check bool) "optimized raises exactly as legacy" true (legacy = optimized);
  (* once every key is a string again the pushdown resumes, still
     agreeing with legacy *)
  Database.delete db untitled;
  Alcotest.(check bool) "pushdown resumes on all-string keys" true
    (Database.index_string_prefix db "Doc" "title" "ab" <> None);
  let r = check_both db q in
  Alcotest.check value_testable "prefix rows" (V.VList [ str "abc"; str "abd" ]) r

(* --- hash joins -------------------------------------------------------- *)

let test_hash_join () =
  with_db @@ fun db ->
  let _ = setup db in
  let before = (P.stats db).Pool_lang.Eval.hash_joins in
  let q =
    "select p.name, q.name from Person p, Person q where p.age = q.age and p.name != q.name"
  in
  let r = check_both db q in
  Alcotest.check value_testable "self-join on age is empty" (V.VList []) r;
  Alcotest.(check bool) "hash join used" true
    ((P.stats db).Pool_lang.Eval.hash_joins > before);
  (* join with matches: people working for the same company *)
  let q =
    "select distinct p.name from Person p, Person q, Company c where c in \
     p.targets('WorksFor') and c in q.targets('WorksFor') and p.name != q.name order by p.name"
  in
  let r = check_both db q in
  Alcotest.check value_testable "colleagues" (V.VList [ str "alice"; str "bob" ]) r

let test_hash_join_mixed_numerics () =
  (* VInt and VFloat compare equal when numerically equal; the hash
     join must bucket them together, exactly as [=] does. *)
  with_db @@ fun db ->
  ignore (Database.define_class db "A" [ Meta.attr "x" V.TFloat ]);
  ignore (Database.define_class db "B" [ Meta.attr "y" V.TInt ]);
  ignore (Database.create db "A" [ ("x", V.VFloat 1.0) ]);
  ignore (Database.create db "A" [ ("x", V.VFloat 2.5) ]);
  ignore (Database.create db "B" [ ("y", vint 1) ]);
  ignore (Database.create db "B" [ ("y", vint 2) ]);
  let q = "select a.x, b.y from A a, B b where a.x = b.y" in
  let r = check_both db q in
  Alcotest.check value_testable "int/float join"
    (V.VList [ V.VList [ V.VFloat 1.0; vint 1 ] ]) r

let test_hash_probe_key_raises () =
  (* The probe key [strlen(p.age)] is evaluated ahead of the WHERE
     clause, which never reaches it ([p.age > 100] is false for every
     row): whatever the probe raises, the join must replay the nested
     loop and answer as the interpreter does. *)
  with_db @@ fun db ->
  let _ = setup db in
  let q = "select p.name, q.name from Person p, Person q where p.age > 100 and q.age = strlen(p.age)" in
  Alcotest.(check bool) "planned as a hash join" true
    (String.starts_with ~prefix:"p<-extent(Person); q<-extent(Person) hash(age)" (P.explain db q));
  let r = check_both db q in
  Alcotest.check value_testable "no rows" (V.VList []) r;
  (* a dangling reference: the probe raises the model's error *)
  let env = [ ("ghost", V.VRef 99999) ] in
  let q = "select p.name, q.name from Person p, Person q where p.age > 100 and q.age = attr(ghost, p.name)" in
  Alcotest.(check bool) "hash join again" true
    (String.starts_with ~prefix:"p<-extent(Person); q<-extent(Person) hash(age)" (P.explain ~env db q));
  let r = check_both db ~env q in
  Alcotest.check value_testable "still no rows" (V.VList []) r

(* --- plan cache -------------------------------------------------------- *)

let test_plan_cache () =
  with_db @@ fun db ->
  let _ = setup db in
  let q = "select p from Person p where p.age > 30" in
  let hits0 = (P.stats db).Pool_lang.Eval.plan_cache_hits in
  ignore (P.query db q);
  ignore (P.query db q);
  ignore (P.query db q);
  let hits1 = (P.stats db).Pool_lang.Eval.plan_cache_hits in
  Alcotest.(check bool) "repeat queries hit the plan cache" true (hits1 >= hits0 + 2);
  (* creating an index moves the epoch: the cached plan is stale and
     the replan must now use the index *)
  Database.create_index db "Person" "age";
  let misses0 = (P.stats db).Pool_lang.Eval.plan_cache_misses in
  ignore (P.query db q);
  let s = P.stats db in
  Alcotest.(check bool) "epoch bump forces replan" true
    (s.Pool_lang.Eval.plan_cache_misses > misses0);
  Alcotest.(check bool) "replanned query uses the range index" true
    (s.Pool_lang.Eval.range_scans > 0)

let test_plan_cache_schema_epoch () =
  (* Plans bake in which names denote class extents.  A query planned
     (and cached) while [Later] was undefined treats the range source
     as a per-row expression; defining the class must invalidate the
     cached plan, not leave the optimized engine erroring where the
     interpreter succeeds. *)
  with_db @@ fun db ->
  let q = "select x.name from Later x order by x.name" in
  (match P.query db q with
  | exception _ -> ()
  | _ -> Alcotest.fail "query on an undefined class should fail");
  ignore (Database.define_class db "Later" [ Meta.attr "name" V.TString ]);
  ignore (Database.create db "Later" [ ("name", str "n1") ]);
  let r = check_both db q in
  Alcotest.check value_testable "defined class now scans as an extent" (V.VList [ str "n1" ]) r

let test_state_survives_many_dbs () =
  (* Per-db engine state lives on the database record: using many
     databases at once must not evict another database's plan cache or
     reset its cumulative statistics (the old capped registry did). *)
  let paths = List.init 10 (fun _ -> tmp_path ()) in
  let dbs = List.map Database.open_ paths in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun db -> try Database.close db with _ -> ()) dbs;
      List.iter
        (fun p ->
          if Sys.file_exists p then Sys.remove p;
          if Sys.file_exists (p ^ ".journal") then Sys.remove (p ^ ".journal"))
        paths)
    (fun () ->
      List.iter
        (fun db ->
          ignore (Database.define_class db "N" [ Meta.attr "name" V.TString ]);
          ignore (Database.define_rel db "E" ~origin:"N" ~destination:"N"))
        dbs;
      let first = List.hd dbs in
      let a = Database.create first "N" [ ("name", str "a") ] in
      let b = Database.create first "N" [ ("name", str "b") ] in
      ignore (Database.link first "E" ~origin:a ~destination:b);
      let q = "select n.name from N n order by n.name" in
      ignore (P.query first q);
      ignore (P.query first q);
      let s0 = P.stats first in
      Alcotest.(check bool) "cache hit recorded" true (s0.Pool_lang.Eval.plan_cache_hits > 0);
      (* touch the engine on every other database *)
      List.iter
        (fun db ->
          let x = Database.create db "N" [ ("name", str "x") ] in
          let y = Database.create db "N" [ ("name", str "y") ] in
          ignore (Database.link db "E" ~origin:x ~destination:y);
          ignore (P.query db q))
        (List.tl dbs);
      let s1 = P.stats first in
      Alcotest.(check int) "plan-cache hits not reset" s0.Pool_lang.Eval.plan_cache_hits
        s1.Pool_lang.Eval.plan_cache_hits;
      ignore (P.query first q);
      let s2 = P.stats first in
      Alcotest.(check bool) "still hitting the same cache" true
        (s2.Pool_lang.Eval.plan_cache_hits > s1.Pool_lang.Eval.plan_cache_hits))

(* --- traversals against the list-based oracle ------------------------- *)

(* The "csr" cases below keep the group name of the snapshot adjacency
   they were written for; they now check the single walk over the
   mirror's adjacency against [Graph_oracle], through links, retargets,
   unlinks, synonyms, aborts and contexts. *)

(* Compare every traversal entry point with the oracle for all nodes
   of interest. *)
let check_traversals db ?context ~rel nodes =
  let module O = Graph_oracle in
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "descendants(%d) = oracle" n)
        true
        (OidSet.equal (Traverse.descendants db ?context ~rel n) (O.descendants db ?context ~rel n));
      Alcotest.(check bool)
        (Printf.sprintf "ancestors(%d) = oracle" n)
        true
        (OidSet.equal (Traverse.ancestors db ?context ~rel n) (O.ancestors db ?context ~rel n));
      Alcotest.(check bool)
        (Printf.sprintf "closure(%d) = oracle" n)
        true
        (OidSet.equal (Traverse.closure db ?context ~rel n) (O.closure db ?context ~rel n));
      let g = Pgraph.Subgraph.extract db ?context ~rel n and g' = O.extract db ?context ~rel n in
      Alcotest.(check bool)
        (Printf.sprintf "subgraph(%d) = oracle" n)
        true
        (OidSet.equal g.Pgraph.Subgraph.nodes g'.Pgraph.Subgraph.nodes
        && g.Pgraph.Subgraph.edges = g'.Pgraph.Subgraph.edges))
    nodes;
  let universe =
    List.fold_left (fun acc n -> OidSet.add n acc) OidSet.empty nodes
  in
  Alcotest.(check (list int)) "roots = oracle"
    (O.roots db ?context ~rel universe)
    (Traverse.roots db ?context ~rel universe);
  Alcotest.(check (list int)) "leaves = oracle"
    (O.leaves db ?context ~rel universe)
    (Traverse.leaves db ?context ~rel universe)

let test_walk_invalidation () =
  with_db @@ fun db ->
  let alice, bob, carol, dave, _, _ = setup db in
  let people = [ alice; bob; carol; dave ] in
  let rel = "Manages" in
  check_traversals db ~rel people;
  (* add: a new edge must appear in the next traversal *)
  let e = Database.link db rel ~origin:dave ~destination:carol in
  check_traversals db ~rel people;
  let d = Traverse.descendants db ~rel dave in
  Alcotest.(check bool) "cycle traverses fully" true
    (OidSet.mem carol d && OidSet.mem bob d && OidSet.mem alice d);
  (* retarget: carol -> bob becomes carol -> dave *)
  Database.retarget db e ~destination:bob ();
  check_traversals db ~rel people;
  (* delete *)
  Database.unlink db e;
  check_traversals db ~rel people;
  (* synonym merge does not touch adjacency, but must not corrupt it *)
  Database.declare_synonym db alice dave;
  check_traversals db ~rel people;
  (* mutations inside an aborted transaction must leave no trace (the
     mirror is rebuilt wholesale on abort) *)
  Database.begin_tx db;
  let e2 = Database.link db rel ~origin:alice ~destination:carol in
  (* traverse mid-transaction, over dirty state *)
  Alcotest.(check bool) "dirty edge visible mid-tx" true
    (OidSet.mem carol (Traverse.descendants db ~rel alice));
  ignore e2;
  Database.abort db;
  check_traversals db ~rel people;
  Alcotest.(check bool) "aborted edge gone" false
    (OidSet.mem carol (Traverse.descendants db ~rel alice));
  (* a self-link: the node is its own child, never its own descendant *)
  ignore (Database.link db rel ~origin:alice ~destination:alice);
  check_traversals db ~rel people;
  Alcotest.(check bool) "self-link traversal = oracle" true
    (OidSet.equal
       (Traverse.descendants db ~rel alice)
       (Graph_oracle.descendants db ~rel alice))

let test_walk_contexts () =
  with_db @@ fun db ->
  let alice, bob, carol, dave, _, _ = setup db in
  let ctx1 = Database.create_context db "c1" in
  let ctx2 = Database.create_context db "c2" in
  ignore (Database.link db "Manages" ~context:ctx1 ~origin:alice ~destination:bob);
  ignore (Database.link db "Manages" ~context:ctx1 ~origin:bob ~destination:carol);
  ignore (Database.link db "Manages" ~context:ctx2 ~origin:alice ~destination:dave);
  let people = [ alice; bob; carol; dave ] in
  check_traversals db ~context:ctx1 ~rel:"Manages" people;
  check_traversals db ~context:ctx2 ~rel:"Manages" people;
  check_traversals db ~rel:"Manages" people;
  (* context-scoped results differ from each other as expected *)
  Alcotest.(check bool) "ctx1 sees carol" true
    (OidSet.mem carol (Traverse.descendants db ~context:ctx1 ~rel:"Manages" alice));
  Alcotest.(check bool) "ctx2 does not" false
    (OidSet.mem carol (Traverse.descendants db ~context:ctx2 ~rel:"Manages" alice))

(* A rule reacting to a link may unlink or retarget that same link,
   inside the link's own call; traversals must see the link as the
   mirror holds it once the call returns.  [repair db oid] is the
   rule's corrective action on a self-managing link. *)
let check_repair_of_firing_link repair =
  with_db @@ fun db ->
  let alice, bob, carol, dave, _, _ = setup db in
  let ctx = Database.create_context db "c" in
  ignore (Database.link db "Manages" ~context:ctx ~origin:carol ~destination:dave);
  let engine = Prules.Engine.create db in
  Prules.Engine.add_rule engine
    (Prules.Rule.make "no_self_management"
       (Pevent.Event.On_rel_create (Some "Manages"))
       ~on_violation:
         (Prules.Rule.Repair
            (fun db ev ->
              match ev with Pevent.Event.Rel_created { oid; _ } -> repair db oid | _ -> ()))
       (fun _ ev ->
         match ev with
         | Pevent.Event.Rel_created { origin; destination; _ } -> origin <> destination
         | _ -> true));
  let people = [ alice; bob; carol; dave ] in
  let check () =
    check_traversals db ~rel:"Manages" people;
    check_traversals db ~context:ctx ~rel:"Manages" people
  in
  check ();
  ignore (Database.link db "Manages" ~origin:alice ~destination:alice);
  check ();
  ignore (Database.link db "Manages" ~context:ctx ~origin:dave ~destination:dave);
  check ()

let test_walk_repair_unlinks () = check_repair_of_firing_link (fun db oid -> Database.unlink db oid)

let test_walk_repair_retargets () =
  check_repair_of_firing_link (fun db oid ->
      let r = Option.get (Database.get db oid) in
      let other = List.find (fun p -> p <> Obj.origin r) (Database.extent_list db "Person") in
      Database.retarget db oid ~destination:other ())

(* --- string helpers ---------------------------------------------------- *)

let test_contains_sub () =
  let c = Pool_lang.Eval.contains_sub in
  Alcotest.(check bool) "empty sub" true (c "abc" "");
  Alcotest.(check bool) "empty both" true (c "" "");
  Alcotest.(check bool) "sub longer" false (c "ab" "abc");
  Alcotest.(check bool) "middle" true (c "abcdef" "cde");
  Alcotest.(check bool) "start" true (c "abcdef" "ab");
  Alcotest.(check bool) "end" true (c "abcdef" "ef");
  Alcotest.(check bool) "missing" false (c "abcdef" "ce");
  Alcotest.(check bool) "overlap" true (c "aaab" "aab");
  Alcotest.(check bool) "full" true (c "abc" "abc")

let test_like_eval_equiv =
  QCheck.Test.make ~name:"like_eval agrees with like_match" ~count:500
    QCheck.(
      pair
        (string_gen_of_size (Gen.int_bound 12) (Gen.oneofl [ 'a'; 'b'; '%'; '_' ]))
        (string_gen_of_size (Gen.int_bound 8) (Gen.oneofl [ 'a'; 'b'; '%'; '_' ])))
    (fun (s, pat) ->
      (* '%'/'_' in the subject are literals there, wildcards in pat *)
      Pool_lang.Eval.like_eval s pat = Pool_lang.Eval.like_match s pat)

(* A range list that rebinds its first name: the WHERE's [p] is the
   last range, so the reference interpreter's first-range index probe
   must decline rather than narrow the first [p]. *)
let test_probe_respects_shadowing () =
  with_db @@ fun db ->
  let _ = setup db in
  Database.create_index db "Person" "age";
  let r = check_both db "select q.name from Person p, Person q, Person p where p.age = 30" in
  (* 4 first-[p] rows x 4 [q] rows x alice as the last [p] *)
  Alcotest.(check int) "every first-range row kept" 16 (List.length (V.as_elements r))

(* --- randomized plan-vs-legacy equivalence ----------------------------- *)

(* Outcome of a query: its value, or the text of what it raised. *)
let outcome ?env ?config db q =
  match P.query ?env ?config db q with
  | v -> Ok v
  | exception e -> Error (Printexc.to_string e)

let same_outcome a b =
  match (a, b) with
  | Ok x, Ok y -> Value.compare_value x y = 0
  | Error x, Error y -> x = y
  | _ -> false

let pp_outcome ppf = function
  | Ok v -> Value.pp ppf v
  | Error e -> Format.fprintf ppf "raised %s" e

(* Pushdown and join predicates, and predicates with a loop-invariant
   subexpression over [p] or over no range at all.  A raising predicate
   comes last: a row on which the interpreter reaches it passes every
   conjunct before it, pushed down or not, so both engines raise on the
   same row.  The other range lists rebind a name last, so the WHERE
   sees the last binding: [q] is range 2 and a subexpression over it is
   not invariant, or [p] is, and the first range (the interpreter's
   index-probe target) is not the one the WHERE constrains. *)
let query_gen =
  let open QCheck.Gen in
  let name_lit = oneofl [ "'alice'"; "'bob'"; "'a%'"; "'%o%'"; "'x'" ] in
  let age_lit = map string_of_int (int_range 0 60) in
  let small = map string_of_int (int_range 0 4) in
  let pred =
    oneof
      [
        map (fun v -> Printf.sprintf "p.age > %s" v) age_lit;
        map (fun v -> Printf.sprintf "p.age <= %s" v) age_lit;
        map (fun v -> Printf.sprintf "p.age = %s" v) age_lit;
        map2 (fun a b -> Printf.sprintf "p.age between %s and %s" a b) age_lit age_lit;
        map (fun v -> Printf.sprintf "p.name = %s" v) name_lit;
        map (fun v -> Printf.sprintf "p.name like %s" v) name_lit;
        map (fun v -> Printf.sprintf "%s like p.name" v) name_lit;
        return "p.age = q.age";
        return "p.name != q.name";
        return "q.age < p.age";
        return "q in descendants(p, 'Manages')";
        return "p in descendants(q, 'Manages')";
        return "q in (select x from Person x where x.age > p.age)";
        map (fun v -> Printf.sprintf "p in (select x from Person x where x.age > %s)" v) age_lit;
        map (fun n -> Printf.sprintf "count(select x from Person x where x.age < p.age) > %s" n) small;
        map2 (fun a b -> Printf.sprintf "strlen(p.name) between %s and %s" a b) small small;
        map (fun v -> Printf.sprintf "count(select x from Person x where x.age >= %s) between 1 and 3" v)
          age_lit;
        return "exists(select x from Person x where x in descendants(p, 'Manages') and x.age < q.age)";
      ]
  in
  let raising =
    oneofl
      [
        [];
        [ "(p.age < 0 and strlen(p.age) > 0)" ];
        [ "(false and strlen(p.age) > 0)" ];
        [ "strlen(p.age) > 0" ];
        [ "strlen(p.age - p.age) > 0" ];
        [ "(strlen(p.name) > 0 or strlen(p.age) > 0)" ];
      ]
  in
  let preds = map2 ( @ ) (list_size (int_range 1 3) pred) raising in
  let from =
    oneofl [ "Person p, Person q"; "Person q, Person p, Person q"; "Person p, Person q, Person p" ]
  in
  let order = oneofl [ ""; " order by p.name"; " order by p.age desc, p.name" ] in
  let distinct = oneofl [ ""; "distinct " ] in
  map3
    (fun (ps, f) ob d ->
      Printf.sprintf "select %sp.name, q.age from %s where %s%s" d f (String.concat " and " ps) ob)
    (pair preds from) order distinct

let test_plan_vs_legacy =
  QCheck.Test.make ~name:"planned results = legacy results" ~count:120
    (QCheck.make ~print:(fun q -> q) query_gen)
    (fun q ->
      with_db @@ fun db ->
      let _ = setup db in
      Database.create_index db "Person" "age";
      Database.create_index db "Person" "name";
      let legacy = outcome ~config:P.legacy_config db q in
      (* the second run takes its plan from the cache *)
      List.iter
        (fun run ->
          let optimized = outcome db q in
          if not (same_outcome optimized legacy) then
            QCheck.Test.fail_reportf "query %s diverged on the %s run:@.opt: %a@.leg: %a" q run
              pp_outcome optimized pp_outcome legacy)
        [ "first"; "cached" ];
      true)

(* --- loop-invariant subexpressions ------------------------------------- *)

(* Invariant evaluations and reuses [f] causes. *)
let invariant_delta db f =
  let s0 = P.stats db in
  let r = f () in
  let s1 = P.stats db in
  ( r,
    s1.Pool_lang.Eval.invariant_evals - s0.Pool_lang.Eval.invariant_evals,
    s1.Pool_lang.Eval.invariant_reuses - s0.Pool_lang.Eval.invariant_reuses )

let check_invariants db ?env q ~evals ~reuses =
  let r, e, u = invariant_delta db (fun () -> check_both db ?env q) in
  Alcotest.(check (pair int int)) (Printf.sprintf "evals, reuses of %s" q) (evals, reuses) (e, u);
  r

let test_once_per_outer_binding () =
  with_db @@ fun db ->
  let _ = setup db in
  (* level 0: once per execution, by the member access path; the
     WHERE re-checks its 2 members *)
  let r =
    check_invariants db "select p.name from Person p where p in (select x from Person x where x.age > 30)"
      ~evals:1 ~reuses:2
  in
  Alcotest.check value_testable "older people" (V.VList [ str "bob"; str "carol" ]) r;
  (* level 1: once per p, reused over the members of each *)
  let q =
    "select p.name, q.name from Person p, Person q where q in (select x from Person x where x.age > p.age)"
  in
  Alcotest.(check string) "EXPLAIN" "p<-extent(Person); q<-member(Person); hoist@1" (P.explain db q);
  let r = check_invariants db q ~evals:4 ~reuses:6 in
  Alcotest.(check int) "pairs with an older second" 6 (List.length (V.as_elements r));
  (* the querying-by-context shape: a sub-select range, then an
     invariant over it — once per binding of the first range *)
  let q =
    "select q.name from (select x from Person x where x.age > 45) g, Person q where q in \
     descendants(g, 'Manages')"
  in
  Alcotest.(check string) "EXPLAIN" "g<-expr; q<-member(Person); hoist@1" (P.explain db q);
  let r = check_invariants db q ~evals:1 ~reuses:3 in
  Alcotest.check value_testable "carol's reports" (V.VList [ str "alice"; str "bob"; str "dave" ]) r;
  (* a select depending on the last range is not hoisted *)
  ignore
    (check_invariants db
       "select p.name, q.name from Person p, Person q where p in (select x from Person x where x.age > q.age)"
       ~evals:0 ~reuses:0)

let test_correlated_subselect_own_invariant () =
  (* the outer WHERE depends on its only range, so nothing hoists
     there; the sub-select's plan hoists descendants(p, ..), which is
     invariant in its own range x: once per outer row, by the member
     access path, and reused by the re-check of its 5 members in all *)
  with_db @@ fun db ->
  let _ = setup db in
  let r =
    check_invariants db
      "select p.name from Person p where exists(select x from Person x where x in descendants(p, \
       'Manages'))"
      ~evals:4 ~reuses:5
  in
  Alcotest.check value_testable "managers" (V.VList [ str "bob"; str "carol" ]) r

let test_invariant_errors_not_kept () =
  with_db @@ fun db ->
  let _ = setup db in
  (* short-circuit: the invariant behind a false conjunct never runs *)
  ignore
    (check_invariants db "select p.name from Person p where false and strlen(1) > 0" ~evals:0
       ~reuses:0);
  (* a raising invariant is not kept: the error surfaces on the first
     row that reaches it, with the interpreter's message *)
  let q = "select p.name from Person p where p.age > 45 and strlen(2) > 0" in
  let _, e, _ =
    invariant_delta db (fun () ->
        let o = outcome db q and l = outcome ~config:P.legacy_config db q in
        Alcotest.(check bool) "raises as legacy" true (same_outcome o l);
        match o with
        | Error m ->
            Alcotest.(check bool) "an evaluation error naming strlen" true
              (String.starts_with ~prefix:"Pool_lang.Eval.Eval_error(\"strlen:" m)
        | Ok _ -> Alcotest.fail "strlen(2) should raise")
  in
  Alcotest.(check int) "nothing computed" 0 e

(* --- scan filters ----------------------------------------------------- *)

let test_filter_explain () =
  with_db @@ fun db ->
  let _ = setup db in
  let q = "select p.name from Person p where p.age > 25 and p.name != 'bob' and p.age <= 40" in
  Alcotest.(check string) "extent scan, every conjunct of the run filtered"
    "p<-extent(Person); filter(p.age); filter(p.name); filter(p.age)" (P.explain db q);
  Alcotest.check value_testable "rows" (V.VList [ str "alice" ]) (check_both db q);
  (* the range walk guarantees both bounds on [age]: only [name] is tested *)
  Database.create_index db "Person" "age";
  Alcotest.(check string) "index access drops what it guarantees"
    "p<-range(Person.age lo hi); filter(p.name)" (P.explain db q);
  Alcotest.check value_testable "same rows" (V.VList [ str "alice" ]) (check_both db q);
  Alcotest.(check string) "a bound on another attribute is tested"
    "p<-range(Person.age lo); filter(p.name)"
    (P.explain db "select p from Person p where p.age >= 30 and p.name > 'b'");
  (* the run ends at the first conjunct of another form, which might
     raise: no conjunct after it narrows the scan, not even through the
     index *)
  Alcotest.(check string) "run ends at a call" "p<-extent(Person); filter(p.name)"
    (P.explain db
       "select p from Person p where 'carol' != p.name and strlen(p.name) > 3 and p.age > 1 and p.name = 'x'");
  (* filters sit after the bindings and the hoists; a membership
     conjunct ending the run is the access path *)
  Alcotest.(check string) "after hoists" "p<-member(Person); hoist@0; filter(p.name)"
    (P.explain db "select p from Person p where p.name = 'dave' and p in (select x from Person x where x.age > 30)")

let test_filter_later_source () =
  (* A later range that is a per-row source runs once per binding of
     the ranges before it, whatever the WHERE answers: rejecting [p]
     before the source ran would turn the interpreter's error into an
     empty answer. *)
  with_db @@ fun db ->
  let _ = setup db in
  let q = "select p from Person p, p.age.x q where p.age > 100" in
  Alcotest.(check string) "no filter before a per-row source" "p<-extent(Person); q<-expr"
    (P.explain db q);
  let o = outcome db q and l = outcome ~config:P.legacy_config db q in
  (match l with
  | Error m ->
      Alcotest.(check bool) "the interpreter cannot navigate" true
        (String.starts_with ~prefix:"Pool_lang.Eval.Eval_error(\"cannot navigate .x on" m)
  | Ok _ -> Alcotest.fail "the interpreter should raise");
  Alcotest.(check bool) "raises as the interpreter does" true (same_outcome o l);
  (* a range after the source is filtered again *)
  Alcotest.(check string) "filtered after the source" "p<-extent(Person); q<-expr; c<-extent(Company); filter(c.name)"
    (P.explain db "select c from Person p, p.targets('WorksFor') q, Company c where c.name = 'acme'")

let test_no_narrowing_past_a_raising_conjunct () =
  (* [strlen(p.age)] raises on the first row the interpreter visits;
     neither an index range nor a hash join taken from a conjunct after
     it may skip that row *)
  with_db @@ fun db ->
  let _ = setup db in
  Database.create_index db "Person" "age";
  let check q plan =
    Alcotest.(check string) ("EXPLAIN " ^ q) plan (P.explain db q);
    let o = outcome db q and l = outcome ~config:P.legacy_config db q in
    (match l with
    | Error m ->
        Alcotest.(check bool) "the interpreter raises in strlen" true
          (String.starts_with ~prefix:"Pool_lang.Eval.Eval_error(\"strlen:" m)
    | Ok _ -> Alcotest.fail "the interpreter should raise");
    Alcotest.(check bool) ("raises as the interpreter does: " ^ q) true (same_outcome o l)
  in
  check "select p from Person p where strlen(p.age) > 0 and p.age > 1000" "p<-extent(Person)";
  check "select p, q from Person p, Person q where strlen(p.age) > 0 and q.age = p.age + 1000"
    "p<-extent(Person); q<-extent(Person); hoist@1";
  (* the conjunct that ends the leading run still narrows *)
  Alcotest.(check string) "join on the conjunct ending the run"
    "p<-range(Person.age lo); q<-extent(Person) hash(age)"
    (P.explain db "select p, q from Person p, Person q where p.age > 1000 and q.age = p.age + 1")

(* Random WHERE chains over a schema with null and missing attributes,
   an attribute declared only on a subclass ([Special.extra]), a
   role-inherited one ([TypeOf.kind], conferred on items) and a
   relationship class with endpoints and contexts ([Link]), against
   random data, with and without indexes.  A chain is a head of
   conjuncts that never raise — scan filter forms on every attribute,
   hash-join keys, other forms — followed by a tail that mixes the same
   with raising conjuncts ([like] on an int or a null, navigation
   through a non-reference, arithmetic on null), so a filter, an index
   access or a hash join taken from past a raising conjunct shows. *)
module Filter_prop = struct
  let setup db seed =
    let rnd = Random.State.make [| seed |] in
    let pick a = a.(Random.State.int rnd (Array.length a)) in
    ignore
      (Database.define_class db "Item" [ Meta.attr "age" V.TInt; Meta.attr "name" V.TString ]);
    ignore (Database.define_class db "Special" ~supers:[ "Item" ] [ Meta.attr "extra" V.TInt ]);
    ignore (Database.define_class db "Tag" [ Meta.attr "label" V.TString ]);
    ignore
      (Database.define_rel db "TypeOf" ~origin:"Tag" ~destination:"Item"
         ~attrs:[ Meta.attr "kind" V.TString ] ~inherited_attrs:[ "kind" ]);
    ignore
      (Database.define_rel db "Link" ~origin:"Item" ~destination:"Item"
         ~attrs:[ Meta.attr "weight" V.TInt ]);
    let ctxs = [| Database.create_context db "c1"; Database.create_context db "c2" |] in
    let opt attr vs = match pick vs with None -> [] | Some v -> [ (attr, v) ] in
    let ages = [| None; Some (vint 10); Some (vint 20); Some (vint 30) |] in
    let names = [| None; Some (str "a"); Some (str "b"); Some (str "ab") |] in
    let items =
      Array.init
        (4 + Random.State.int rnd 6)
        (fun _ ->
          if Random.State.bool rnd then
            Database.create db "Item" (opt "age" ages @ opt "name" names)
          else
            Database.create db "Special"
              (opt "age" ages @ opt "name" names @ opt "extra" [| None; Some (vint 1); Some (vint 2) |]))
    in
    for _ = 1 to Random.State.int rnd 4 do
      let tag = Database.create db "Tag" [ ("label", str "t") ] in
      ignore
        (Database.link db "TypeOf" ~origin:tag ~destination:(pick items)
           ~attrs:(opt "kind" [| None; Some (str "holo"); Some (str "iso") |]))
    done;
    for _ = 1 to Random.State.int rnd 6 do
      let context = if Random.State.bool rnd then Some (pick ctxs) else None in
      ignore
        (Database.link db "Link" ?context ~origin:(pick items) ~destination:(pick items)
           ~attrs:(opt "weight" [| None; Some (vint 1); Some (vint 5) |]))
    done;
    if Random.State.bool rnd then Database.create_index db "Item" "age";
    if Random.State.bool rnd then Database.create_index db "Link" "weight"

  (* range lists: (from clause, [(var, kind)]) *)
  let froms =
    [
      ("Item p", [ ("p", `Item) ]);
      ("Special s", [ ("s", `Item) ]);
      ("Item p, Special s", [ ("p", `Item); ("s", `Item) ]);
      ("Item p, p.age.x q", [ ("p", `Item); ("q", `Src) ]);
      ("Item p, p.targets('Link') q", [ ("p", `Item); ("q", `Src) ]);
      ("Item p, p.targets('Link') q, Special s", [ ("p", `Item); ("q", `Src); ("s", `Item) ]);
      ("Link l", [ ("l", `Rel) ]);
      ("Item p, Link l", [ ("p", `Item); ("l", `Rel) ]);
      ("Link l, Item p", [ ("l", `Rel); ("p", `Item) ]);
      ("Special p, Link l, Item p", [ ("p", `Item); ("l", `Rel) ]);
      ("TypeOf t, Item p", [ ("t", `Rel); ("p", `Item) ]);
    ]

  let gen =
    let open QCheck.Gen in
    (* mostly literals the attribute holds, so boundaries are hit *)
    let lit attr =
      let own =
        match attr with
        | "age" -> [ "10"; "20"; "30"; "20.0"; "25" ]
        | "name" -> [ "'a'"; "'ab'"; "'b'" ]
        | "extra" | "weight" -> [ "1"; "2"; "5" ]
        | "kind" -> [ "'holo'"; "'iso'" ]
        | _ -> [ "0" ]
      in
      frequency [ (4, oneofl own); (1, oneofl [ "null"; "'a'"; "2.5"; "true" ]) ]
    in
    let op = oneofl [ "="; "!="; "<"; "<="; ">"; ">=" ] in
    let form v attr =
      map3
        (fun flip o l ->
          if flip then Printf.sprintf "%s %s %s.%s" l o v attr
          else Printf.sprintf "%s.%s %s %s" v attr o l)
        bool op (lit attr)
    in
    let attrs = function
      | `Item -> [ "age"; "name"; "extra"; "kind"; "nope" ]
      | `Rel -> [ "origin"; "destination"; "context"; "weight"; "kind"; "nope" ]
      | `Src -> [ "age"; "name" ]
    in
    let safe vars =
      let v = oneofl vars in
      oneof
        [
          v >>= (fun (x, k) -> oneofl (attrs k) >>= form x);
          v >>= (fun (x, k) -> oneofl (attrs k) >>= form x);
          map (fun (x, _) -> Printf.sprintf "(%s.name = 'a' or %s.age > 15)" x x) v;
          map (fun (x, _) -> Printf.sprintf "%s.age > -5" x) v;
          map2 (fun (x, _) (y, _) -> Printf.sprintf "%s.age = %s.age" x y) v v;
          return "true";
        ]
    in
    let tail vars =
      let v = oneofl vars in
      oneof
        [
          safe vars;
          map (fun (x, _) -> Printf.sprintf "%s.age like 'a%%'" x) v;
          map (fun (x, _) -> Printf.sprintf "%s.name like 'a%%'" x) v;
          map (fun (x, _) -> Printf.sprintf "%s.age.x = 1" x) v;
          map (fun (x, _) -> Printf.sprintf "%s.age + 1 > 0" x) v;
          map (fun (x, _) -> Printf.sprintf "strlen(%s.name) > 0" x) v;
        ]
    in
    oneofl froms >>= fun (from, vars) ->
    list_size (int_range 0 4) (safe vars) >>= fun head ->
    list_size (int_range 0 3) (tail vars) >>= fun tl ->
    let where = match head @ tl with [] -> "" | cs -> " where " ^ String.concat " and " cs in
    let proj = String.concat ", " (List.sort_uniq compare (List.map fst vars)) in
    map (fun seed -> (seed, Printf.sprintf "select %s from %s%s" proj from where)) (int_bound 1_000_000)
end

let test_filter_vs_legacy =
  QCheck.Test.make ~name:"filtered scans = legacy, value or exception" ~count:400
    (QCheck.make ~print:(fun (seed, q) -> Printf.sprintf "seed %d: %s" seed q) Filter_prop.gen)
    (fun (seed, q) ->
      with_db @@ fun db ->
      Filter_prop.setup db seed;
      let legacy = outcome ~config:P.legacy_config db q in
      List.iter
        (fun run ->
          let planned = outcome db q in
          if not (same_outcome planned legacy) then
            QCheck.Test.fail_reportf "query %s (%s) diverged on the %s run:@.opt: %a@.leg: %a" q
              (P.explain db q) run pp_outcome planned pp_outcome legacy)
        [ "first"; "cached" ];
      true)

(* Membership conjuncts [v in e] over the schema of [Filter_prop], plus
   an empty subclass [Void].  A query is a template whose literals are
   holes ([@A] an age, [@N] a name, [@E] an extra), filled twice with
   independent literals: the second run of a shape takes its plans from
   the cache and must answer with its own literals.  The range [p] the
   membership constrains may be the first range or a later one, an
   object or relationship extent, the empty extent, shadowed, or a
   downcast source; ranges after it may be extents, the empty extent or
   per-row sources; the set may use earlier ranges, [p] itself or a
   later range, and may be a ref, a collection with non-refs and
   duplicates, a downcast, null, or raise on some rows.  The
   membership conjunct follows a head of run conjuncts, sometimes a
   raising one, and precedes a tail that may raise. *)
module Member_prop = struct
  let setup db seed =
    Filter_prop.setup db seed;
    ignore (Database.define_class db "Void" ~supers:[ "Item" ] [])

  (* from clause, earlier ranges a set may use, later ranges *)
  let froms =
    [
      ("Item p", [], []);
      ("Special p", [], []);
      ("Void p", [], []);
      ("Object p", [], []);
      ("Link p", [], []);
      ("Item q, Special p", [ "q" ], []);
      ("Link q, Item p", [ "q" ], []);
      ("Item q, Link p", [ "q" ], []);
      ("Item p, Item q", [], [ "q" ]);
      ("Item p, Void q", [], [ "q" ]);
      ("Item p, p.targets('Link') q", [], [ "q" ]);
      ("Item p, p.age.x q", [], [ "q" ]);
      ("Item q, q.targets('Link') r, Item p", [ "q"; "r" ], []);
      ("Special p, Link q, Item p", [ "q" ], []);
      ("(Special) Item p", [], []);
    ]

  let sets ~outer ~later =
    let open QCheck.Gen in
    let ranged vs f = match vs with [] -> [] | _ -> [ map f (oneofl vs) ] in
    oneof
      ([
         return "(select x from Item x where x.age > @A)";
         return "(select x from Special x where x.extra = @E)";
         return "(select x from Item x where x.name = @N or x.age = @A)";
         return "first(select x from Item x where x.age = @A)";
         return "descendants(first(select x from Item x where x.age = @A), 'Link')";
         return "bag(first(select x from Item x where x.age = @A), first(select x from Item x where x.age >= @A))";
         return "(Special) (select x from Item x where x.age >= @A)";
         return "list(@A, @N)";
         return "Special";
         return "Link";
         return "null";
         return "strlen(@A)";
         return "descendants(p, 'Link')";
       ]
      @ ranged outer (Printf.sprintf "descendants(%s, 'Link')")
      @ ranged outer (Printf.sprintf "%s.targets('Link')")
      @ ranged outer (Printf.sprintf "(select x from Item x where x.age > %s.age)")
      @ ranged outer (Printf.sprintf "(select x from Item x where strlen(%s.name) < @A)")
      @ ranged later (Printf.sprintf "descendants(%s, 'Link')"))

  let gen =
    let open QCheck.Gen in
    let head =
      oneofl
        [
          "p.age > @A"; "@A <= p.age"; "p.name = @N"; "p.extra != @E"; "p.age = @A"; "p.nope = @A";
          "p.weight >= @E"; "true";
        ]
    and raising = oneofl [ "strlen(p.name) > 0"; "p.age + 1 > 0"; "p.age.x = 1" ] in
    oneofl froms >>= fun (from, outer, later) ->
    sets ~outer ~later >>= fun set ->
    list_size (int_range 0 2) head >>= fun hd ->
    frequency [ (4, return []); (1, map (fun r -> [ r ]) raising) ] >>= fun before ->
    frequency [ (5, return (Printf.sprintf "p in %s" set)); (1, return (Printf.sprintf "not (p in %s)" set)) ]
    >>= fun member ->
    list_size (int_range 0 2) (frequency [ (2, head); (1, raising) ]) >>= fun tl ->
    oneofl [ ""; " order by p.age desc"; " in context first(select c from Context c where c.name = 'c1')" ]
    >>= fun suffix ->
    let vars = List.filter (fun v -> v <> "p") (outer @ later) in
    let proj = String.concat ", " ("p" :: vars) in
    let where = String.concat " and " (hd @ before @ (member :: tl)) in
    map
      (fun seed -> (seed, Printf.sprintf "select %s from %s where %s%s" proj from where suffix))
      (int_bound 1_000_000)

  (* [template] with each hole filled from [rnd]: mostly values the
     attribute holds, sometimes another type *)
  let fill rnd template =
    let pick a = a.(Random.State.int rnd (Array.length a)) in
    let other = [| "null"; "'a'"; "2.5"; "true" |] in
    let lit own = if Random.State.int rnd 5 = 0 then pick other else pick own in
    let b = Buffer.create (String.length template) in
    let n = String.length template in
    let i = ref 0 in
    while !i < n do
      if template.[!i] = '@' && !i + 1 < n then begin
        Buffer.add_string b
          (match template.[!i + 1] with
          | 'A' -> lit [| "10"; "20"; "30"; "20.0"; "25"; "0" |]
          | 'N' -> lit [| "'a'"; "'ab'"; "'b'" |]
          | _ -> lit [| "1"; "2"; "5" |]);
        i := !i + 2
      end
      else begin
        Buffer.add_char b template.[!i];
        incr i
      end
    done;
    Buffer.contents b
end

let member_count =
  match Sys.getenv_opt "MEMBER_TORTURE" with Some "long" -> 10_000 | _ -> 1000

let test_member_vs_legacy =
  QCheck.Test.make ~name:"membership paths = legacy, value or exception, new literals from the cache"
    ~count:member_count
    (QCheck.make ~print:(fun (seed, q) -> Printf.sprintf "seed %d: %s" seed q) Member_prop.gen)
    (fun (seed, template) ->
      with_db @@ fun db ->
      Member_prop.setup db seed;
      let rnd = Random.State.make [| seed |] in
      List.iter
        (fun run ->
          let q = Member_prop.fill rnd template in
          let legacy = outcome ~config:P.legacy_config db q in
          let hits0 = (P.stats db).Pool_lang.Eval.plan_cache_hits in
          let planned = outcome db q in
          if not (same_outcome planned legacy) then
            QCheck.Test.fail_reportf "query %s (%s) diverged on the %s run:@.opt: %a@.leg: %a" q
              (P.explain db q) run pp_outcome planned pp_outcome legacy;
          if run = "second" && (P.stats db).Pool_lang.Eval.plan_cache_hits = hits0 then
            QCheck.Test.fail_reportf "query %s: the second shape's run missed the plan cache" q)
        [ "first"; "second" ];
      true)

(* The generator reaches both sides of every rule: the member path
   taken, and declined for each reason. *)
let test_member_gen_coverage () =
  let rnd = Random.State.make [| 31 |] in
  let member = ref 0 and declined = ref 0 in
  for _ = 1 to 200 do
    let seed, template = Member_prop.gen rnd in
    with_db @@ fun db ->
    Member_prop.setup db seed;
    let plan = P.explain db (Member_prop.fill rnd template) in
    if contains plan "member(" then incr member
    else if contains template " in " && not (contains template "not (p in") then incr declined
  done;
  if !member < 60 || !declined < 30 then
    Alcotest.failf "%d plans took the member path, %d declined it" !member !declined

(* The per-binding counts EXPLAIN reports, and the member path beside
   the extent scan it replaces: same rows, fewer candidates. *)
let test_explain_counts () =
  with_db @@ fun db ->
  let _ = setup db in
  Alcotest.(check string) "a filtered extent scan"
    "p<-extent(Person) {candidates 4, rejected 1, emitted 3}; filter(p.age)"
    (P.explain ~counts:true db "select p from Person p where p.age > 25");
  Alcotest.(check string) "the member path, once per outer row"
    "p<-extent(Person) {candidates 4, rejected 0, emitted 4}; q<-member(Person) {candidates 5, \
     rejected 0, emitted 5}; hoist@1"
    (P.explain ~counts:true db "select p, q from Person p, Person q where q in descendants(p, 'Manages')");
  Alcotest.(check string) "a set that names other classes"
    "q<-member(Person) {candidates 3, rejected 1, emitted 2}; hoist@0"
    (P.explain ~counts:true db
       "select q from Person q where q in list(first(select c from Company c), first(select p from \
        Person p where p.age > 45), first(select p from Person p where p.age < 30))");
  Alcotest.(check string) "a later per-row source: no member path"
    "p<-extent(Person) {candidates 4, rejected 0, emitted 4}; w<-expr {candidates 3, rejected 0, \
     emitted 3}; hoist@0"
    (P.explain ~counts:true db
       "select p, w from Person p, p.targets('WorksFor') w where p in descendants(first(select x from \
        Person x where x.name = 'carol'), 'Manages')");
  Alcotest.(check string) "not a select" "expr" (P.explain ~counts:true db "count(Person)")

(* --- POOL-level graph builtins under both engines ---------------------- *)

let test_pool_graph_builtins () =
  with_db @@ fun db ->
  let _, _, carol, _, _, _ = setup db in
  let env = [ ("boss", V.VRef carol) ] in
  ignore (check_both db ~env "descendants(boss, 'Manages')");
  ignore (check_both db ~env "ancestors(boss, 'Manages')");
  ignore (check_both db ~env "closure(boss, 'Manages')");
  ignore
    (check_both db ~env
       "select p from Person p where p in descendants(boss, 'Manages') order by p.name")

(* --- plan-cache key ---------------------------------------------------- *)

(* A hit hashes and compares the parsed select; it must cost less than
   the compile it saves (formatting the select as its key once cost
   more). *)
let test_plan_cache_hit_allocation () =
  with_db @@ fun db ->
  let _ = setup db in
  let q =
    "first(select p from Person p where p.name = 'carol' and p.age > 20 and p.age < 60)"
  in
  let s =
    match Pool_lang.Parser.parse q with
    | Pool_lang.Ast.Call (_, [ Pool_lang.Ast.Select s ]) -> s
    | _ -> Alcotest.fail "expected first(select ...)"
  in
  let words f =
    ignore (f ());
    let n = 100 in
    let w0 = Gc.minor_words () in
    for _ = 1 to n do
      ignore (Sys.opaque_identity (f ()))
    done;
    (Gc.minor_words () -. w0) /. float_of_int n
  in
  let hits0 = (P.stats db).Pool_lang.Eval.plan_cache_hits in
  (* a fresh state per call: its per-query memo would answer otherwise *)
  let hit = words (fun () -> Pool_lang.Eval.plan_for (Pool_lang.Eval.make_state db) [] s) in
  let compile = words (fun () -> Pool_lang.Plan.compile db ~bound:[] s) in
  Alcotest.(check bool) "the lookups hit" true
    ((P.stats db).Pool_lang.Eval.plan_cache_hits >= hits0 + 100);
  if not (hit < compile) then
    Alcotest.failf "a hit allocates %.0f words, a compile %.0f" hit compile

(* --- durable indexes --------------------------------------------------- *)

let person_queries =
  [
    "select p.name from Person p where p.name = 'bob'";
    "first(select p from Person p where p.name = 'carol' and p.age > 20)";
    "select p.name from Person p where p.name = 'nobody'";
    "count(select p from Person p where p.age >= 30)";
  ]

let answers db = List.map (check_both db) person_queries

let reopen path db =
  Database.close db;
  Database.open_ path

(* The index catalog lives in the schema record: a reopened database
   has the index, its queries probe it, and the answers are unchanged. *)
let test_index_survives_reopen () =
  let path = tmp_path () in
  let db = Database.open_ path in
  let _ = setup db in
  Database.create_index db "Person" "name";
  let before = answers db in
  let db = reopen path db in
  Fun.protect
    ~finally:(fun () ->
      Database.close db;
      Sys.remove path)
    (fun () ->
      Alcotest.(check (list (pair string string))) "catalog" [ ("Person", "name") ]
        (Database.index_defs db);
      Alcotest.(check string) "a name lookup probes the index" "p<-probe(Person.name)"
        (P.explain db "select p from Person p where p.name = 'bob'");
      let probes0 = (P.stats db).Pool_lang.Eval.index_probes in
      Alcotest.(check (list value_testable)) "same answers" before (answers db);
      Alcotest.(check bool) "answered through the index" true
        ((P.stats db).Pool_lang.Eval.index_probes > probes0))

(* An index created in a transaction that aborts is gone, one dropped
   in one is back (and holds every object again); the same through the
   group writer, whose rollback rebuilds the mirror the same way. *)
let test_index_abort () =
  let path = tmp_path () in
  let db = Database.open_ path in
  let _ = setup db in
  let before = answers db in
  Database.begin_tx db;
  Database.create_index db "Person" "name";
  Alcotest.(check bool) "created in the transaction" true (Database.has_index db "Person" "name");
  Database.abort db;
  Alcotest.(check bool) "gone after abort" false (Database.has_index db "Person" "name");
  Alcotest.(check string) "scans again" "p<-extent(Person); filter(p.name)"
    (P.explain db "select p from Person p where p.name = 'bob'");
  Database.create_index db "Person" "name";
  (try
     Database.with_tx db (fun () ->
         Database.drop_index db "Person" "name";
         ignore (Database.create db "Person" [ ("name", str "erin"); ("age", vint 20) ]);
         failwith "roll back")
   with Failure _ -> ());
  Alcotest.(check bool) "back after abort" true (Database.has_index db "Person" "name");
  Alcotest.(check (list value_testable)) "answers after abort" before (answers db);
  let w = Database.Writer.start db in
  (match
     Database.Writer.submit w (fun db ->
         Database.drop_index db "Person" "name";
         failwith "roll back")
   with
  | _ -> Alcotest.fail "the body raised"
  | exception Failure _ -> ());
  Database.Writer.stop w;
  Alcotest.(check bool) "back after a writer rollback" true (Database.has_index db "Person" "name");
  Alcotest.(check (list value_testable)) "answers after the writer rollback" before (answers db);
  let db = reopen path db in
  Alcotest.(check (list (pair string string))) "stored catalog" [ ("Person", "name") ]
    (Database.index_defs db);
  Database.close db;
  Sys.remove path

(* A snapshot view (and each clone of it) carries the catalog of the
   LSN it is frozen at, whatever the live handle does after. *)
let test_index_views () =
  with_db @@ fun db ->
  let _ = setup db in
  Database.with_tx db (fun () -> ());
  let v0 = Database.snapshot db in
  Database.create_index db "Person" "name";
  Database.create_index db "Person" "age";
  let v1 = Database.snapshot db in
  Database.drop_index db "Person" "name";
  let v2 = Database.snapshot db in
  let c1 = Database.snapshot_clone v1 in
  let cat = Alcotest.(list (pair string string)) in
  Alcotest.check cat "before any index" [] (Database.index_defs v0);
  Alcotest.check cat "both" [ ("Person", "age"); ("Person", "name") ] (Database.index_defs v1);
  Alcotest.check cat "clone of the view" (Database.index_defs v1) (Database.index_defs c1);
  Alcotest.check cat "after the drop" [ ("Person", "age") ] (Database.index_defs v2);
  Alcotest.(check string) "the view probes its own index" "p<-probe(Person.name)"
    (P.explain c1 "select p from Person p where p.name = 'bob'");
  let expected = answers db in
  List.iter
    (fun v -> Alcotest.(check (list value_testable)) "view answers" expected (answers v))
    [ v0; v1; v2; c1 ];
  Alcotest.check_raises "no index on a view"
    (Database.Model_error "operation not permitted on a read-only snapshot view") (fun () ->
      Database.create_index v1 "Person" "name");
  List.iter Database.close [ v0; v1; v2; c1 ]

(* An index on a relationship class covers its instances and those of
   its relationship subclasses, whenever it is built: at create_index
   over links that already exist, at reopen, after an abort and in a
   snapshot view.  Probe and range answers equal the index-free ones. *)
let test_index_on_relationship () =
  let path = tmp_path () in
  let db = Database.open_ path in
  let _, _, carol, dave, acme, _ = setup db in
  ignore (Database.define_rel db "Contracts" ~supers:[ "WorksFor" ] ~origin:"Person" ~destination:"Company");
  ignore (Database.link db "Contracts" ~origin:dave ~destination:acme ~attrs:[ ("salary", vint 60) ]);
  let qs =
    [
      "select w from WorksFor w where w.salary = 60";
      "select w from WorksFor w where w.salary > 55 and w.salary <= 70";
      "count(select w from Contracts w where w.salary = 60)";
    ]
  in
  let unindexed = List.map (check_both db) qs in
  Alcotest.check value_testable "two links earn 60"
    (V.VInt 2) (P.query db "count(select w from WorksFor w where w.salary = 60)");
  let check label db =
    Alcotest.(check string) (label ^ ": probes") "w<-probe(WorksFor.salary)"
      (P.explain db "select w from WorksFor w where w.salary = 60");
    Alcotest.(check (list value_testable)) (label ^ ": answers") unindexed
      (List.map (check_both db) qs)
  in
  Database.create_index db "WorksFor" "salary";
  check "created over existing links" db;
  let db = reopen path db in
  check "reopened" db;
  Database.begin_tx db;
  ignore (Database.link db "WorksFor" ~origin:carol ~destination:acme ~attrs:[ ("salary", vint 60) ]);
  Database.abort db;
  check "after an abort" db;
  let v = Database.snapshot db in
  check "snapshot view" v;
  Database.close v;
  Database.close db;
  Sys.remove path

(* The schema record before the catalog existed is this encoding with
   no trailing section: a store written so opens with no indexes and
   answers the same.  And a decoder that stops after the relationship
   list (every build before the catalog) reads the same schema from a
   record with one, since the catalog-less encoding is its prefix. *)
let test_index_catalog_compat () =
  let path = tmp_path () in
  let db = Database.open_ path in
  let _ = setup db in
  Database.create_index db "Person" "name";
  let indexed = answers db in
  let schema = Database.schema db in
  let with_catalog = Meta.encode schema in
  Meta.set_indexes schema [];
  let without = Meta.encode schema in
  Meta.set_indexes schema [ ("Person", "name") ];
  Alcotest.(check bool) "catalog-less record is a strict prefix" true
    (String.length without < String.length with_catalog
    && String.sub with_catalog 0 (String.length without) = without);
  Database.close db;
  (* rewrite the schema record as a store without the catalog has it *)
  let st = Pstore.Store.open_ path in
  Pstore.Store.with_tx st (fun () -> Pstore.Store.put st ~oid:Database.schema_oid without);
  Pstore.Store.close st;
  let db = Database.open_ path in
  Alcotest.(check (list (pair string string))) "no indexes" [] (Database.index_defs db);
  Alcotest.(check string) "scans" "p<-extent(Person); filter(p.name)"
    (P.explain db "select p from Person p where p.name = 'bob'");
  Alcotest.(check (list value_testable)) "same answers" indexed (answers db);
  Database.close db;
  Sys.remove path

let () =
  Alcotest.run "query_engine"
    [
      ( "pushdown",
        [
          Alcotest.test_case "range" `Quick test_range_pushdown;
          Alcotest.test_case "between" `Quick test_between;
          Alcotest.test_case "like prefix" `Quick test_prefix_pushdown;
          Alcotest.test_case "index_range unit" `Quick test_index_range_unit;
          Alcotest.test_case "reversed like" `Quick test_reversed_like;
          Alcotest.test_case "prefix null error semantics" `Quick
            test_prefix_null_error_semantics;
          Alcotest.test_case "probe respects shadowing" `Quick test_probe_respects_shadowing;
          Alcotest.test_case "index only on stored attributes" `Quick
            test_index_only_on_stored_attrs;
        ] );
      ( "joins",
        [
          Alcotest.test_case "hash join" `Quick test_hash_join;
          Alcotest.test_case "mixed numerics" `Quick test_hash_join_mixed_numerics;
          Alcotest.test_case "probe key raises" `Quick test_hash_probe_key_raises;
        ] );
      ( "plan cache",
        [
          Alcotest.test_case "hits and epochs" `Quick test_plan_cache;
          Alcotest.test_case "schema epoch" `Quick test_plan_cache_schema_epoch;
          Alcotest.test_case "state survives many dbs" `Quick test_state_survives_many_dbs;
          Alcotest.test_case "a hit allocates less than a compile" `Quick
            test_plan_cache_hit_allocation;
        ] );
      ( "catalog",
        [
          Alcotest.test_case "reopen keeps the index" `Quick test_index_survives_reopen;
          Alcotest.test_case "abort undoes create and drop" `Quick test_index_abort;
          Alcotest.test_case "views carry the catalog at their LSN" `Quick test_index_views;
          Alcotest.test_case "catalog-less records" `Quick test_index_catalog_compat;
          Alcotest.test_case "relationship indexes" `Quick test_index_on_relationship;
        ] );
      ( "csr",
        [
          Alcotest.test_case "invalidation" `Quick test_walk_invalidation;
          Alcotest.test_case "contexts" `Quick test_walk_contexts;
          Alcotest.test_case "repair unlinks the firing link" `Quick test_walk_repair_unlinks;
          Alcotest.test_case "repair retargets the firing link" `Quick test_walk_repair_retargets;
        ] );
      ( "strings",
        [
          Alcotest.test_case "contains_sub" `Quick test_contains_sub;
          QCheck_alcotest.to_alcotest test_like_eval_equiv;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "once per outer binding" `Quick test_once_per_outer_binding;
          Alcotest.test_case "correlated sub-select" `Quick test_correlated_subselect_own_invariant;
          Alcotest.test_case "errors are not kept" `Quick test_invariant_errors_not_kept;
        ] );
      ( "equivalence",
        [
          QCheck_alcotest.to_alcotest test_plan_vs_legacy;
          Alcotest.test_case "graph builtins" `Quick test_pool_graph_builtins;
        ] );
      ( "scan filters",
        [
          Alcotest.test_case "EXPLAIN lists the filters" `Quick test_filter_explain;
          Alcotest.test_case "no filter before a later per-row source" `Quick
            test_filter_later_source;
          Alcotest.test_case "no narrowing past a raising conjunct" `Quick
            test_no_narrowing_past_a_raising_conjunct;
          QCheck_alcotest.to_alcotest test_filter_vs_legacy;
        ] );
      ( "member",
        [
          QCheck_alcotest.to_alcotest test_member_vs_legacy;
          Alcotest.test_case "the generator takes and declines the path" `Quick
            test_member_gen_coverage;
          Alcotest.test_case "EXPLAIN counts" `Quick test_explain_counts;
        ] );
    ]
