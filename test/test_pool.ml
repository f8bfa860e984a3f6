(* Tests for the POOL query language: lexer, parser, evaluator,
   relationship navigation, graph operators, contexts and the index
   optimisation. *)

open Pmodel
module V = Value
module P = Pool_lang.Pool

let tmp_counter = ref 0

let tmp_path () =
  incr tmp_counter;
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "prom_pool_%d_%d.db" (Unix.getpid ()) !tmp_counter)

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

(* Schema: a small firm. *)
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
  (* management chain: carol -> bob -> alice, bob -> dave *)
  ignore (Database.link db "Manages" ~origin:carol ~destination:bob);
  ignore (Database.link db "Manages" ~origin:bob ~destination:alice);
  ignore (Database.link db "Manages" ~origin:bob ~destination:dave);
  (alice, bob, carol, dave, acme, globex)

let strings_of rows = List.map V.as_string rows |> List.sort compare

(* --- parsing ---------------------------------------------------------- *)

let test_parse_roundtrip () =
  let ok q =
    match Pool_lang.Parser.parse q with
    | _ -> ()
    | exception Pool_lang.Lexer.Syntax_error (m, p) ->
        Alcotest.failf "parse %S failed at %d: %s" q p m
  in
  ok "select p from Person p";
  ok "select distinct p.name from Person p where p.age >= 18 order by p.name desc";
  ok "select p.name, c.name from Person p, Company c where c in p.targets('WorksFor')";
  ok "select t from Taxon t where count(t.targets('ChildOf')) > 0 in context ctx";
  ok "1 + 2 * 3";
  ok "not (1 = 2) and 'a' like '%a%'";
  ok "(Species) closure(x, 'ChildOf')";
  ok "select x from Node x where exists(select y from Node y where y = x)";
  ok "[1, 2, 3]";
  ok "-- comment\nselect p from Person p -- trailing"

let test_parse_errors () =
  let bad q =
    match Pool_lang.Parser.parse q with
    | exception Pool_lang.Lexer.Syntax_error _ -> ()
    | _ -> Alcotest.failf "expected syntax error for %S" q
  in
  bad "select";
  bad "select p from";
  bad "select p from Person p where";
  bad "1 +";
  bad "'unterminated";
  bad "select p from Person p extra garbage"

(* --- basic select ------------------------------------------------------ *)

let test_select_where () =
  with_db (fun db ->
      let _ = setup db in
      let rows = P.rows db "select p.name from Person p where p.age > 35" in
      Alcotest.(check (list string)) "over 35" [ "bob"; "carol" ] (strings_of rows))

let test_select_order_distinct () =
  with_db (fun db ->
      let _ = setup db in
      let rows = P.rows db "select p.name from Person p order by p.age desc" in
      Alcotest.(check (list string)) "by age desc" [ "carol"; "bob"; "alice"; "dave" ]
        (List.map V.as_string rows);
      let rows = P.rows db "select distinct c.name from Company c, Person p" in
      Alcotest.(check int) "distinct" 2 (List.length rows))

let test_select_multi_range_join () =
  with_db (fun db ->
      let _ = setup db in
      (* explicit join through relationship instances *)
      let rows =
        P.rows db
          "select p.name from Person p, p.out('WorksFor') w where w.destination.name = 'acme'"
      in
      Alcotest.(check (list string)) "acme employees" [ "alice"; "bob" ] (strings_of rows))

let test_arith_and_strings () =
  with_db (fun db ->
      let _ = setup db in
      Alcotest.(check int) "arith" 7 (V.as_int (P.query db "1 + 2 * 3"));
      Alcotest.(check bool) "like" true (V.as_bool (P.query db "'graveolens' like '%ole%'"));
      Alcotest.(check bool) "like anchors" false (V.as_bool (P.query db "'abc' like 'b%'"));
      Alcotest.(check bool) "endswith" true (V.as_bool (P.query db "endswith('Rosaceae', 'aceae')"));
      Alcotest.(check string) "concat" "ab" (V.as_string (P.query db "'a' + 'b'"));
      Alcotest.(check int) "strlen" 5 (V.as_int (P.query db "strlen('abcde')"));
      Alcotest.(check bool) "date compare" true
        (V.as_bool (P.query db "date(1753, 1, 1) < date(1821, 6, 1)")))

let test_aggregates () =
  with_db (fun db ->
      let _ = setup db in
      Alcotest.(check int) "count" 4 (V.as_int (P.query db "count(select p from Person p)"));
      Alcotest.(check int) "sum" 145
        (V.as_int (P.query db "sum(select p.age from Person p)"));
      Alcotest.(check int) "min" 25 (V.as_int (P.query db "min(select p.age from Person p)"));
      Alcotest.(check bool) "avg" true
        (abs_float (V.as_float (P.query db "avg(select p.age from Person p)") -. 36.25) < 1e-9);
      Alcotest.(check bool) "exists" true
        (V.as_bool (P.query db "exists(select p from Person p where p.age > 45)")))

let test_subquery_in () =
  with_db (fun db ->
      let _ = setup db in
      let rows =
        P.rows db
          "select p.name from Person p where p in (select w.origin from WorksFor w where w.salary \
           >= 60)"
      in
      Alcotest.(check (list string)) "well paid" [ "bob"; "carol" ] (strings_of rows))

(* --- relationships as first-class query objects ------------------------ *)

let test_relationship_extent () =
  with_db (fun db ->
      let _ = setup db in
      (* relationship classes have extents, uniform with objects *)
      let rows = P.rows db "select w from WorksFor w where w.salary > 55" in
      Alcotest.(check int) "rel extent filtered" 2 (List.length rows);
      let rows = P.rows db "select w.origin.name from WorksFor w order by w.salary desc" in
      Alcotest.(check (list string)) "nav through rel" [ "carol"; "bob"; "alice" ]
        (List.map V.as_string rows))

let test_navigation_builtins () =
  with_db (fun db ->
      let alice, bob, _, _, acme, _ = setup db in
      let env = [ ("alice", V.VRef alice); ("bob", V.VRef bob); ("acme", V.VRef acme) ] in
      let q s = P.query ~env db s in
      Alcotest.(check int) "targets" 1 (V.as_int (q "count(alice.targets('WorksFor'))"));
      Alcotest.(check int) "sources at acme" 2 (V.as_int (q "count(acme.sources('WorksFor'))"));
      Alcotest.(check bool) "has role" true (V.as_bool (q "has_role(acme, 'WorksFor')"));
      Alcotest.(check string) "class_of" "Company" (V.as_string (q "class_of(acme)")))

(* --- graph operators ---------------------------------------------------- *)

let test_graph_operators () =
  with_db (fun db ->
      let alice, _bob, carol, _dave, _, _ = setup db in
      let env = [ ("carol", V.VRef carol); ("alice", V.VRef alice) ] in
      let q s = P.query ~env db s in
      Alcotest.(check int) "closure" 4 (V.as_int (q "count(closure(carol, 'Manages'))"));
      Alcotest.(check int) "descendants" 3 (V.as_int (q "count(descendants(carol, 'Manages'))"));
      Alcotest.(check int) "bounded traverse" 1
        (V.as_int (q "count(traverse(carol, 'Manages', 1, 1))"));
      Alcotest.(check bool) "reachable" true (V.as_bool (q "reachable(carol, alice, 'Manages')"));
      Alcotest.(check bool) "not reachable" false
        (V.as_bool (q "reachable(alice, carol, 'Manages')"));
      Alcotest.(check int) "path length" 3 (V.as_int (q "count(path(carol, alice, 'Manages'))"));
      Alcotest.(check int) "ancestors" 2 (V.as_int (q "count(ancestors(alice, 'Manages'))"));
      (* graph extraction *)
      Alcotest.(check int) "graph nodes" 4 (V.as_int (q "count(nodes(graph(carol, 'Manages')))"));
      Alcotest.(check int) "graph edges" 3 (V.as_int (q "count(edges(graph(carol, 'Manages')))")))

let test_downcast () =
  with_db (fun db ->
      ignore (Database.define_class db "Animal" [ Meta.attr "name" V.TString ]);
      ignore (Database.define_class db "Dog" ~supers:[ "Animal" ] []);
      ignore (Database.define_class db "Cat" ~supers:[ "Animal" ] []);
      ignore (Database.create db "Dog" [ ("name", str "rex") ]);
      ignore (Database.create db "Cat" [ ("name", str "tom") ]);
      ignore (Database.create db "Animal" [ ("name", str "generic") ]);
      let rows = P.rows db "select a from Animal a" in
      Alcotest.(check int) "deep extent" 3 (List.length rows);
      (* selective downcast keeps only Dogs *)
      let v = P.query db "(Dog) (select a from Animal a)" in
      Alcotest.(check int) "downcast filters" 1 (List.length (V.as_elements v)))

(* --- contexts ------------------------------------------------------------ *)

let test_query_in_context () =
  with_db (fun db ->
      ignore (Database.define_class db "Taxon" [ Meta.attr "name" V.TString ]);
      ignore
        (Database.define_rel db "ChildOf" ~origin:"Taxon" ~destination:"Taxon"
           ~kind:Meta.Aggregation ~exclusive:true);
      let r = Database.create db "Taxon" [ ("name", str "root") ] in
      let a = Database.create db "Taxon" [ ("name", str "a") ] in
      let b = Database.create db "Taxon" [ ("name", str "b") ] in
      let c1 = Database.create_context db "c1" in
      let c2 = Database.create_context db "c2" in
      ignore (Database.link db "ChildOf" ~context:c1 ~origin:r ~destination:a);
      ignore (Database.link db "ChildOf" ~context:c2 ~origin:r ~destination:a);
      ignore (Database.link db "ChildOf" ~context:c2 ~origin:r ~destination:b);
      let env = [ ("root", V.VRef r); ("ctx1", V.VRef c1); ("ctx2", V.VRef c2) ] in
      (* same query, different classification context, different answer:
         querying by context (thesis 7.1.3.3) *)
      let n1 =
        V.as_int (P.query ~env db "count(select t from Taxon t where t in descendants(root, 'ChildOf') in context ctx1)")
      in
      let n2 =
        V.as_int (P.query ~env db "count(select t from Taxon t where t in descendants(root, 'ChildOf') in context ctx2)")
      in
      Alcotest.(check int) "context 1 sees one child" 1 n1;
      Alcotest.(check int) "context 2 sees two children" 2 n2;
      (* explicit null context escapes the scope *)
      let nall =
        V.as_int
          (P.query ~env db
             "count(descendants(root, 'ChildOf', null))")
      in
      Alcotest.(check int) "null context = unscoped" 2 nall;
      (* descendants(root, ..) does not depend on t: it is computed once
         per run, by the member access path, and reused by the WHERE's
         re-check of each member — on the first run and on the second,
         whose plan comes from the cache *)
      let q c =
        "select t from Taxon t where t in descendants(root, 'ChildOf') in context " ^ c
      in
      Alcotest.(check string) "EXPLAIN lists the member path and the hoist" "t<-member(Taxon); hoist@0"
        (P.explain ~env db (q "ctx1"));
      let hits0 = (P.stats db).Pool_lang.Eval.plan_cache_hits in
      for _ = 1 to 2 do
        List.iter
          (fun (c, rows) ->
            let s0 = P.stats db in
            let n = List.length (P.rows ~env db (q c)) in
            let s1 = P.stats db in
            Alcotest.(check (list int))
              ("rows, evals, reuses in " ^ c)
              [ rows; 1; rows ]
              [
                n;
                s1.Pool_lang.Eval.invariant_evals - s0.Pool_lang.Eval.invariant_evals;
                s1.Pool_lang.Eval.invariant_reuses - s0.Pool_lang.Eval.invariant_reuses;
              ])
          [ ("ctx1", 1); ("ctx2", 2) ]
      done;
      Alcotest.(check bool) "second runs hit the plan cache" true
        ((P.stats db).Pool_lang.Eval.plan_cache_hits >= hits0 + 2))

(* --- index optimisation --------------------------------------------------- *)

let test_index_probe_used () =
  with_db (fun db ->
      let _ = setup db in
      let q = "select p from Person p where p.name = 'alice'" in
      let _, how = P.query_explain db q in
      Alcotest.(check bool) "no index yet" true (how = `Extent_scan);
      Database.create_index db "Person" "name";
      let v, how = P.query_explain db q in
      Alcotest.(check bool) "index used" true (how = `Index_probe);
      Alcotest.(check int) "same answer" 1 (List.length (V.as_elements v));
      (* result equivalence with and without index *)
      let v2 = P.query db "select p.name from Person p where p.name = 'alice'" in
      Alcotest.(check (list string)) "index result correct" [ "alice" ]
        (strings_of (V.as_elements v2)))

let test_synonym_query () =
  with_db (fun db ->
      let alice, bob, _, _, _, _ = setup db in
      Database.declare_synonym db alice bob;
      let env = [ ("alice", V.VRef alice); ("bob", V.VRef bob) ] in
      Alcotest.(check bool) "same_entity in POOL" true
        (V.as_bool (P.query ~env db "same_entity(alice, bob)"));
      Alcotest.(check int) "synonyms set" 2 (V.as_int (P.query ~env db "count(synonyms(alice))")))

(* qcheck: like_match agrees with a naive backtracking implementation *)
let naive_like s p =
  let n = String.length s and m = String.length p in
  let rec go i j =
    if j = m then i = n
    else
      match p.[j] with
      | '%' -> go i (j + 1) || (i < n && go (i + 1) j)
      | '_' -> i < n && go (i + 1) (j + 1)
      | c -> i < n && s.[i] = c && go (i + 1) (j + 1)
  in
  go 0 0

let test_like_equiv =
  QCheck.Test.make ~name:"LIKE matcher agrees with naive backtracking" ~count:500
    QCheck.(
      pair
        (string_gen_of_size Gen.(int_bound 12) Gen.(char_range 'a' 'c'))
        (string_gen_of_size Gen.(int_bound 8) (Gen.oneofl [ 'a'; 'b'; '%'; '_' ])))
    (fun (s, p) -> Pool_lang.Eval.like_match s p = naive_like s p)

(* --- edge cases -------------------------------------------------------- *)

let test_null_handling () =
  with_db (fun db ->
      let _ = setup db in
      (* navigation through null yields null / empty *)
      ignore (Database.define_class db "Lonely" [ Meta.attr "friend" (V.TRef "Person") ]);
      let l = Database.create db "Lonely" [] in
      let env = [ ("l", V.VRef l) ] in
      Alcotest.(check bool) "null nav" true (V.is_null (P.query ~env db "l.friend"));
      Alcotest.(check bool) "null nav chain" true (V.is_null (P.query ~env db "l.friend.name"));
      Alcotest.(check bool) "isnull" true (V.as_bool (P.query ~env db "isnull(l.friend)"));
      Alcotest.(check bool) "null = null" true (V.as_bool (P.query db "null = null"));
      Alcotest.(check int) "count over null" 0 (V.as_int (P.query ~env db "count(l.friend)")))

let test_nested_select () =
  with_db (fun db ->
      let _ = setup db in
      (* correlated subquery: people older than everyone at globex *)
      let rows =
        P.rows db
          "select p.name from Person p where not exists(select q from Person q, q.out('WorksFor') w where w.destination.name = 'globex' and q.age >= p.age)"
      in
      (* carol (50, globex) blocks bob(40)/alice(30)/dave(25); nobody qualifies...
         except nobody is older than carol herself is blocked too: empty *)
      Alcotest.(check (list string)) "correlated" [] (strings_of rows);
      let rows2 =
        P.rows db "select p.name from Person p where p.age > max(select q.age from Person q where q.name != p.name)"
      in
      Alcotest.(check (list string)) "older than all others" [ "carol" ] (strings_of rows2))

let test_multi_key_order () =
  with_db (fun db ->
      ignore (Database.define_class db "Row" [ Meta.attr "a" V.TInt; Meta.attr "b" V.TInt ]);
      List.iter
        (fun (a, b) -> ignore (Database.create db "Row" [ ("a", vint a); ("b", vint b) ]))
        [ (2, 1); (1, 2); (2, 0); (1, 1) ];
      let rows =
        P.rows db "select r.a, r.b from Row r order by r.a asc, r.b desc"
        |> List.map (fun v -> match v with V.VList [ V.VInt a; V.VInt b ] -> (a, b) | _ -> (-1, -1))
      in
      Alcotest.(check (list (pair int int))) "multi-key order"
        [ (1, 2); (1, 1); (2, 1); (2, 0) ] rows)

let test_eval_errors () =
  with_db (fun db ->
      let _ = setup db in
      let expect_eval_error q =
        match P.query db q with
        | exception Pool_lang.Eval.Eval_error _ -> ()
        | v -> Alcotest.failf "expected error for %s, got %s" q (V.to_string v)
      in
      expect_eval_error "select x from NoSuchClass x";
      expect_eval_error "1 / 0";
      expect_eval_error "unknownfn(3)";
      expect_eval_error "1 + 'a'";
      expect_eval_error "'a'.name";
      (* wrong argument and condition types are evaluation errors too *)
      expect_eval_error "strlen(1)";
      expect_eval_error "attr(3, 'x')";
      expect_eval_error "first(descendants(99999, 'R'))";
      expect_eval_error "not 3";
      expect_eval_error "1 like 'a'";
      expect_eval_error "select p from Person p where p.age";
      expect_eval_error "select p from Person p where origin(p) = p")

let test_like_edge_cases () =
  with_db (fun db ->
      let q s = V.as_bool (P.query db s) in
      Alcotest.(check bool) "empty pattern" true (q "'' like ''");
      Alcotest.(check bool) "pct alone" true (q "'anything' like '%'");
      Alcotest.(check bool) "underscore width" false (q "'ab' like '_'");
      Alcotest.(check bool) "underscore exact" true (q "'a' like '_'");
      Alcotest.(check bool) "quoted quote" true (q "'it''s' like 'it''s'"))

let test_rel_extent_in_context () =
  with_db (fun db ->
      ignore (Database.define_class db "T" []);
      ignore (Database.define_rel db "R" ~origin:"T" ~destination:"T");
      let a = Database.create db "T" [] in
      let b = Database.create db "T" [] in
      let c1 = Database.create_context db "one" in
      ignore (Database.link db "R" ~context:c1 ~origin:a ~destination:b);
      ignore (Database.link db "R" ~origin:a ~destination:b);
      (* relationship extent sees all instances; filter by .context *)
      Alcotest.(check int) "all instances" 2 (V.as_int (P.query db "count(select r from R r)"));
      let env = [ ("c", V.VRef c1) ] in
      Alcotest.(check int) "filtered by context attr" 1
        (V.as_int (P.query ~env db "count(select r from R r where r.context = c)"));
      Alcotest.(check int) "context-free instances" 1
        (V.as_int (P.query db "count(select r from R r where isnull(r.context))")))

let test_union_of_selects () =
  with_db (fun db ->
      let _ = setup db in
      let v =
        P.query db
          "(select p.name from Person p where p.age < 30) union (select p.name from Person p where p.age > 45)"
      in
      Alcotest.(check (list string)) "union of selects" [ "carol"; "dave" ]
        (strings_of (V.as_elements v)))

let test_downcast_on_rels () =
  with_db (fun db ->
      ignore (Database.define_class db "N" []);
      ignore (Database.define_rel db "Base" ~origin:"N" ~destination:"N");
      ignore (Database.define_rel db "Special" ~supers:[ "Base" ] ~origin:"N" ~destination:"N");
      let a = Database.create db "N" [] in
      let b = Database.create db "N" [] in
      ignore (Database.link db "Base" ~origin:a ~destination:b);
      ignore (Database.link db "Special" ~origin:a ~destination:b);
      (* rel-class extents are polymorphic; selective downcast narrows *)
      Alcotest.(check int) "polymorphic extent" 2 (V.as_int (P.query db "count(select r from Base r)"));
      Alcotest.(check int) "downcast to subclass" 1
        (V.as_int (P.query db "count((Special) (select r from Base r))")))

(* --- lexer and parser against their polymorphic-compare oracle ------- *)

(* A run's outcome: the value, or the error it raised (a literal too
   large for an int raises [Failure] in both lexers). *)
let outcome f x =
  match f x with
  | v -> Ok v
  | exception Pool_lang.Lexer.Syntax_error (m, p) -> Error (Printf.sprintf "syntax error at %d: %s" p m)
  | exception Failure m -> Error ("failure: " ^ m)

(* Strings over POOL's alphabet, built from fragments that sit on the
   lexer's decisions: keywords in every case mix (only uniform case
   makes a keyword), the two-character operators and their one-character
   prefixes, doubled quotes, comments, unterminated strings, numbers on
   the int/float edge, and characters POOL does not accept. *)
let pool_string_gen =
  let open QCheck.Gen in
  let case_mix w =
    map
      (fun (mode, seed) ->
        match mode with
        | 0 -> w
        | 1 -> String.uppercase_ascii w
        | 2 -> String.capitalize_ascii w
        | _ ->
            String.mapi
              (fun i c -> if (seed lsr (i mod 30)) land 1 = 1 then Char.uppercase_ascii c else c)
              w)
      (pair (int_bound 3) int)
  in
  let keyword =
    oneofl
      [ "select"; "distinct"; "from"; "where"; "order"; "by"; "asc"; "desc"; "and"; "or"; "not";
        "in"; "like"; "between"; "context"; "as"; "true"; "false"; "null"; "mod"; "union";
        "inter"; "except"; "exists" ]
    >>= case_mix
  in
  let ident =
    oneofl [ "x"; "n"; "Name"; "Taxon"; "epithet"; "_t1"; "selects"; "in_"; "Z9"; "ctx" ] >>= case_mix
  in
  let fragment =
    frequency
      [
        (6, keyword);
        (4, ident);
        ( 6,
          oneofl
            [ "<>"; "!="; "<="; ">="; "<"; ">"; "="; "!"; "("; ")"; "["; "]"; ","; "."; "*"; "+"; "-";
              "/"; "<<"; "=>"; "=<"; "><"; "!!" ] );
        ( 4,
          oneofl
            [ "'abc'"; "'it''s'"; "''"; "''''"; "\"a\"\"b\""; "\"\""; "'mixed\"q'"; "'unterminated";
              "\"open"; "'a''"; "'tail''" ] );
        (2, oneofl [ "-- note\n"; "--"; "-- to end"; "--\n"; "- -" ]);
        (3, oneofl [ "0"; "42"; "3.5"; "7."; "1.x"; "12.34.5"; "99999999999999999999"; "5e3" ]);
        (6, oneofl [ " "; " "; "\t"; "\n"; "\r" ]);
        (2, oneofl [ "#"; "%"; "@"; "?"; ";"; "{"; "~"; "\000" ]);
        ( 3,
          oneofl
            [ "select n from Name n where "; "n.epithet = 'x'"; " and n.rank = 'Genus'";
              "first(select c from Context c)"; "descendants(t, 'Circumscribes', c)"; " in context c";
              "x between 1 and 2"; " order by n.epithet desc"; "exists(select y from Y y)"; "[1, 2]";
              "(Taxon) t"; "t.targets('AscribedName', null)"; "not x in y"; "a mod 2" ] );
      ]
  in
  map (String.concat "") (list_size (int_bound 24) fragment)

let test_lexer_differential =
  QCheck.Test.make ~count:3000 ~name:"tokenize = the polymorphic-compare lexer"
    (QCheck.make ~print:(Printf.sprintf "%S") pool_string_gen)
    (fun src ->
      outcome Pool_lang.Lexer.tokenize src = outcome Lexer_oracle.tokenize src
      && outcome Pool_lang.Parser.parse src = outcome Parser_oracle.parse src)

(* The POOL queries examples/ sends (and the one PCL condition), and
   one of each request shape perfbench/flora.ml sends, with sample
   names filled in. *)
let reference_queries =
  let ctx = "first(select c from Context c where c.name = 'revision')" in
  let taxon rank ep =
    Printf.sprintf
      "first(first(select n from Name n where n.epithet = '%s' and n.rank = '%s').sources('AscribedName', null))"
      ep rank
  in
  [
    "select w.origin.name, w.role from WorksFor w where w.destination.name = 'Acme' order by w.origin.name";
    "self.age >= 18";
    "select r.origin.name from Person x, x.into('MemberOf') r where x = ada in context ctx";
    "select b.title from Book b where b in descendants(root, 'Shelves') order by b.title in context ctx";
    "count(b.into('Shelves', null))";
    "select n.epithet, n.rank, n.year, n.status from Name n where n.epithet = 'vulgaris'";
    Printf.sprintf
      "select first(t.targets('AscribedName', null)).epithet from ancestors(%s, 'Circumscribes', %s) t"
      (taxon "Species" "vulgaris") ctx;
    Printf.sprintf "descendants(%s, 'Circumscribes', %s)" (taxon "Genus" "Apium") ctx;
    Printf.sprintf "select s.collector, s.number, s.collected from descendants(%s, 'Circumscribes', %s) s"
      (taxon "Species" "vulgaris") ctx;
    Printf.sprintf
      "select t from (select n from Name n where n.epithet = 'Apium' and n.rank = 'Genus') g, Taxon t where t in \
       descendants(first(g.sources('AscribedName', null)), 'Circumscribes') in context %s"
      ctx;
    Printf.sprintf
      "select t, first(t.targets('AscribedName', null)).year from descendants(%s, 'Circumscribes', %s) t"
      (taxon "Genus" "Apium") ctx;
    "count(select c from Context c)";
  ]

let test_reference_parse_identity () =
  List.iter
    (fun q ->
      if Pool_lang.Lexer.tokenize q <> Lexer_oracle.tokenize q then Alcotest.failf "tokens of %S differ" q;
      match Pool_lang.Parser.parse q with
      | e -> if e <> Parser_oracle.parse q then Alcotest.failf "parse tree of %S differs" q
      | exception Pool_lang.Lexer.Syntax_error (m, p) -> Alcotest.failf "parse %S failed at %d: %s" q p m)
    reference_queries

let () =
  Alcotest.run "pool"
    [
      ( "parser",
        [
          Alcotest.test_case "roundtrip" `Quick test_parse_roundtrip;
          Alcotest.test_case "errors" `Quick test_parse_errors;
        ] );
      ( "select",
        [
          Alcotest.test_case "where" `Quick test_select_where;
          Alcotest.test_case "order/distinct" `Quick test_select_order_distinct;
          Alcotest.test_case "multi-range join" `Quick test_select_multi_range_join;
          Alcotest.test_case "arith & strings" `Quick test_arith_and_strings;
          Alcotest.test_case "aggregates" `Quick test_aggregates;
          Alcotest.test_case "subquery in" `Quick test_subquery_in;
        ] );
      ( "relationships",
        [
          Alcotest.test_case "rel extent" `Quick test_relationship_extent;
          Alcotest.test_case "navigation builtins" `Quick test_navigation_builtins;
        ] );
      ( "graph",
        [
          Alcotest.test_case "operators" `Quick test_graph_operators;
          Alcotest.test_case "selective downcast" `Quick test_downcast;
          Alcotest.test_case "query in context" `Quick test_query_in_context;
        ] );
      ( "optimisation",
        [
          Alcotest.test_case "index probe" `Quick test_index_probe_used;
          Alcotest.test_case "synonyms in POOL" `Quick test_synonym_query;
          QCheck_alcotest.to_alcotest test_like_equiv;
        ] );
      ( "edge cases",
        [
          Alcotest.test_case "null handling" `Quick test_null_handling;
          Alcotest.test_case "nested/correlated selects" `Quick test_nested_select;
          Alcotest.test_case "multi-key order by" `Quick test_multi_key_order;
          Alcotest.test_case "evaluation errors" `Quick test_eval_errors;
          Alcotest.test_case "LIKE edge cases" `Quick test_like_edge_cases;
          Alcotest.test_case "rel extent & context attr" `Quick test_rel_extent_in_context;
          Alcotest.test_case "union of selects" `Quick test_union_of_selects;
          Alcotest.test_case "downcast on relationship classes" `Quick test_downcast_on_rels;
        ] );
      ( "differential",
        [
          QCheck_alcotest.to_alcotest test_lexer_differential;
          Alcotest.test_case "examples and perfbench queries parse as before" `Quick
            test_reference_parse_identity;
        ] );
    ]
