(* Benchmark harness regenerating every table and figure of the
   thesis's evaluation chapter (ch. 7).  See EXPERIMENTS.md for the
   mapping from thesis experiment to harness section and for the
   recorded results.

   Usage: main.exe [all|raw|queries|struct|fig44|fig45|fig46|tax|ablation|tables|schema|micro|recovery|query|obs|repl|integrity|mvcc|serving|loadgen|cluster]
                   [--out DIR]

   Sections that emit machine-readable trajectory records
   (BENCH_PR3.json .. BENCH_PR10.json) write them to the
   current directory by default; --out DIR redirects them so CI can
   validate fresh records without clobbering the committed ones. *)

open Pmodel
module O7 = Oo7bench.Oo7_schema
module Gen = Oo7bench.Oo7_gen
module RawDb = Oo7bench.Oo7_raw
module Ops = Oo7bench.Oo7_ops

let tmp_counter = ref 0

(* Where trajectory records (BENCH_PR*.json) land; see --out. *)
let out_dir = ref "."

let write_record name contents =
  let path = Filename.concat !out_dir name in
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  Printf.printf "wrote %s\n" path

let tmp_path prefix =
  incr tmp_counter;
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "%s_%d_%d.db" prefix (Unix.getpid ()) !tmp_counter)

let cleanup path =
  if Sys.file_exists path then Sys.remove path;
  if Sys.file_exists (path ^ ".journal") then Sys.remove (path ^ ".journal")

(* ------------------------------------------------------------------ *)
(* Timing helpers                                                      *)
(* ------------------------------------------------------------------ *)

let time_once f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let t1 = Unix.gettimeofday () in
  (r, (t1 -. t0) *. 1000.)

(** Median wall-clock of [runs] executions, in ms. *)
let time_median ?(runs = 3) f =
  let samples = List.init runs (fun _ -> snd (time_once f)) in
  match List.sort compare samples with
  | [] -> nan
  | l -> List.nth l (List.length l / 2)

(* ------------------------------------------------------------------ *)
(* Bechamel integration                                                *)
(* ------------------------------------------------------------------ *)

open Bechamel
open Toolkit

let run_bechamel (test : Test.t) : (string * float) list =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~stabilize:false () in
  let raw_results = Benchmark.all cfg instances test in
  let results = Analyze.all ols Instance.monotonic_clock raw_results in
  Hashtbl.fold
    (fun name ols acc ->
      let est =
        match Analyze.OLS.estimates ols with Some (e :: _) -> e | _ -> Float.nan
      in
      (name, est /. 1e6 (* ns -> ms *)) :: acc)
    results []
  |> List.sort compare

let print_two_column_table ~title ~unit rows =
  Printf.printf "\n== %s ==\n" title;
  Printf.printf "%-12s %14s %14s %10s\n" "operation" ("prometheus " ^ unit) ("raw " ^ unit) "overhead";
  List.iter
    (fun (name, prom, raw) ->
      Printf.printf "%-12s %14.3f %14.3f %9.2fx\n" name prom raw
        (if raw > 0. then prom /. raw else nan))
    rows;
  flush stdout

(* ------------------------------------------------------------------ *)
(* Database construction                                               *)
(* ------------------------------------------------------------------ *)

type pair = {
  prom : Ops.Prom.ctx;
  raw : Ops.Raw.ctx;
  prom_path : string;
  raw_path : string;
  pdb : Database.t;
  rdb : RawDb.t;
}

let build_pair ?(params = O7.tiny) ?cache_pages () : pair =
  let prom_path = tmp_path "oo7_prom" in
  let raw_path = tmp_path "oo7_raw" in
  let pdb = Database.open_ ?cache_pages prom_path in
  O7.install pdb;
  let ph = Gen.generate pdb params in
  let rdb = RawDb.open_ ?cache_pages raw_path in
  let rh = RawDb.generate rdb params in
  {
    prom = { Ops.Prom.db = pdb; h = ph };
    raw = { Ops.Raw.t = rdb; h = rh };
    prom_path;
    raw_path;
    pdb;
    rdb;
  }

let destroy_pair pair =
  Database.close pair.pdb;
  RawDb.close pair.rdb;
  cleanup pair.prom_path;
  cleanup pair.raw_path

(* ------------------------------------------------------------------ *)
(* Section: raw performance (traversals T1-T6)                          *)
(* ------------------------------------------------------------------ *)

let bench_raw_performance () =
  let pair = build_pair ~params:O7.small () in
  let p = pair.prom and r = pair.raw in
  let t name fp fr =
    Test.make_grouped ~name
      [
        Test.make ~name:"prometheus" (Staged.stage (fun () -> ignore (fp p)));
        Test.make ~name:"raw" (Staged.stage (fun () -> ignore (fr r)));
      ]
  in
  let tests =
    Test.make_grouped ~name:"traversals"
      [
        t "T1" Ops.Prom.t1 Ops.Raw.t1;
        t "T2" Ops.Prom.t2 Ops.Raw.t2;
        t "T3" Ops.Prom.t3 Ops.Raw.t3;
        t "T5" Ops.Prom.t5 Ops.Raw.t5;
        t "T6" Ops.Prom.t6 Ops.Raw.t6;
      ]
  in
  let results = run_bechamel tests in
  let get name =
    try List.assoc name results with Not_found -> nan
  in
  print_two_column_table ~title:"Raw performance: traversals (thesis 7.2.1.2.1)" ~unit:"(ms)"
    (List.map
       (fun op ->
         ( op,
           get (Printf.sprintf "traversals/%s/prometheus" op),
           get (Printf.sprintf "traversals/%s/raw" op) ))
       [ "T1"; "T2"; "T3"; "T5"; "T6" ]);
  Printf.printf "(T1 visits %d atomic parts on both backends)\n"
    (Ops.Prom.t1 p);
  assert (Ops.Prom.t5 p = Ops.Raw.t5 r);
  destroy_pair pair

(* ------------------------------------------------------------------ *)
(* Section: queries (Q1-Q8)                                             *)
(* ------------------------------------------------------------------ *)

let bench_queries () =
  let pair = build_pair ~params:O7.small () in
  let p = pair.prom and r = pair.raw in
  (* Q1 uses the index layer on the Prometheus side (thesis 6.1.5.2) *)
  Database.create_index pair.pdb O7.atomic_part "id";
  let t name fp fr =
    Test.make_grouped ~name
      [
        Test.make ~name:"prometheus" (Staged.stage (fun () -> ignore (fp p)));
        Test.make ~name:"raw" (Staged.stage (fun () -> ignore (fr r)));
      ]
  in
  let tests =
    Test.make_grouped ~name:"queries"
      [
        t "Q1" (Ops.Prom.q1 ~n:10) (Ops.Raw.q1 ~n:10);
        t "Q2" (Ops.Prom.q_range ~pct:1) (Ops.Raw.q_range ~pct:1);
        t "Q3" (Ops.Prom.q_range ~pct:10) (Ops.Raw.q_range ~pct:10);
        t "Q4" Ops.Prom.q4 Ops.Raw.q4;
        t "Q7" Ops.Prom.q7 Ops.Raw.q7;
        t "Q8" (Ops.Prom.q8 ~len:100) (Ops.Raw.q8 ~len:100);
      ]
  in
  let results = run_bechamel tests in
  let get name = try List.assoc name results with Not_found -> nan in
  print_two_column_table ~title:"Queries (thesis 7.2.1.2.2)" ~unit:"(ms)"
    (List.map
       (fun op ->
         (op, get (Printf.sprintf "queries/%s/prometheus" op), get (Printf.sprintf "queries/%s/raw" op)))
       [ "Q1"; "Q2"; "Q3"; "Q4"; "Q7"; "Q8" ]);
  (* POOL end-to-end query for reference *)
  let pool_ms = time_median (fun () -> ignore (Ops.Prom.q7_pool p)) in
  Printf.printf "(Q7 through the full POOL pipeline: %.3f ms)\n" pool_ms;
  (* both backends scan the same number of atomic parts *)
  assert (Ops.Prom.q7 p = Ops.Raw.q7 r);
  destroy_pair pair

(* ------------------------------------------------------------------ *)
(* Section: structural modifications (S1/S2)                            *)
(* ------------------------------------------------------------------ *)

let bench_struct () =
  let pair = build_pair ~params:O7.small () in
  let p = pair.prom and r = pair.raw in
  let k = 5 and parts_per_comp = 10 in
  (* measured as insert-then-delete pairs so state stays stable *)
  let tests =
    Test.make_grouped ~name:"structural"
      [
        Test.make_grouped ~name:"S1S2"
          [
            Test.make ~name:"prometheus"
              (Staged.stage (fun () ->
                   let cs = Ops.Prom.s1 p ~k ~parts_per_comp in
                   Ops.Prom.s2 p cs));
            Test.make ~name:"raw"
              (Staged.stage (fun () ->
                   let cs = Ops.Raw.s1 r ~k ~parts_per_comp in
                   Ops.Raw.s2 r cs));
          ];
      ]
  in
  let results = run_bechamel tests in
  let get name = try List.assoc name results with Not_found -> nan in
  print_two_column_table
    ~title:
      (Printf.sprintf "Structural modifications: S1 insert + S2 delete of %d composites (thesis 7.2.1.2.3)" k)
    ~unit:"(ms)"
    [
      ( "S1+S2",
        get "structural/S1S2/prometheus",
        get "structural/S1S2/raw" );
    ];
  (* separate one-shot S1 and S2 timings *)
  let s1p, s1pt = time_once (fun () -> Ops.Prom.s1 p ~k ~parts_per_comp) in
  let _, s2pt = time_once (fun () -> Ops.Prom.s2 p s1p) in
  let s1r, s1rt = time_once (fun () -> Ops.Raw.s1 r ~k ~parts_per_comp) in
  let _, s2rt = time_once (fun () -> Ops.Raw.s2 r s1r) in
  Printf.printf "one-shot: S1 prom %.2f ms / raw %.2f ms; S2 prom %.2f ms / raw %.2f ms\n" s1pt
    s1rt s2pt s2rt;
  destroy_pair pair

(* ------------------------------------------------------------------ *)
(* Figures 44-46: cost vs database size                                 *)
(* ------------------------------------------------------------------ *)

(* The sweeps run with a constrained buffer pool (256 pages), so that
   larger databases genuinely exercise the storage layer rather than
   sitting wholly in cache — the regime the thesis's curves measure. *)
let sweep_cache_pages = 256

let size_sweep ~title ~op_name fprom fraw =
  Printf.printf "\n== %s ==\n" title;
  Printf.printf "%-12s %16s %16s %12s %12s\n" "composites" "prometheus (ms)" "raw (ms)"
    "prom/size" "raw/size";
  List.iter
    (fun n ->
      let pair = build_pair ~params:(O7.with_composites O7.tiny n) ~cache_pages:sweep_cache_pages () in
      let pm = time_median ~runs:3 (fun () -> ignore (fprom pair.prom)) in
      let rm = time_median ~runs:3 (fun () -> ignore (fraw pair.raw)) in
      Printf.printf "%-12d %16.3f %16.3f %12.5f %12.5f\n" n pm rm (pm /. float_of_int n)
        (rm /. float_of_int n);
      flush stdout;
      destroy_pair pair)
    [ 25; 50; 100; 200; 400 ];
  Printf.printf "(%s: per-composite cost column flags constant vs non-constant growth)\n" op_name

let bench_fig44 () =
  size_sweep ~title:"Figure 44: increase in cost of T5 with database size"
    ~op_name:"T5" Ops.Prom.t5 Ops.Raw.t5

let bench_fig45 () =
  size_sweep ~title:"Figure 45: increase in cost of S1 with database size" ~op_name:"S1"
    (fun p ->
      let cs = Ops.Prom.s1 p ~k:20 ~parts_per_comp:10 in
      Ops.Prom.s2 p cs (* restore so the size axis stays honest *))
    (fun r ->
      let cs = Ops.Raw.s1 r ~k:20 ~parts_per_comp:10 in
      Ops.Raw.s2 r cs)

let bench_fig46 () =
  Printf.printf "\n== Figure 46: increase in cost of S2 with database size ==\n";
  Printf.printf "%-12s %16s %16s\n" "composites" "prometheus (ms)" "raw (ms)";
  List.iter
    (fun n ->
      let pair = build_pair ~params:(O7.with_composites O7.tiny n) ~cache_pages:sweep_cache_pages () in
      (* time delete alone: inserts happen outside the timer; median
         of 3 insert/delete rounds *)
      let pm =
        let samples =
          List.init 3 (fun _ ->
              let cs = Ops.Prom.s1 pair.prom ~k:20 ~parts_per_comp:10 in
              snd (time_once (fun () -> Ops.Prom.s2 pair.prom cs)))
        in
        List.nth (List.sort compare samples) 1
      in
      let rm =
        let samples =
          List.init 3 (fun _ ->
              let cs = Ops.Raw.s1 pair.raw ~k:20 ~parts_per_comp:10 in
              snd (time_once (fun () -> Ops.Raw.s2 pair.raw cs)))
        in
        List.nth (List.sort compare samples) 1
      in
      Printf.printf "%-12d %16.3f %16.3f\n" n pm rm;
      flush stdout;
      destroy_pair pair)
    [ 25; 50; 100; 200; 400 ]

(* ------------------------------------------------------------------ *)
(* Section: taxonomic workloads (thesis 7.1.3.1)                        *)
(* ------------------------------------------------------------------ *)

let bench_tax () =
  let path = tmp_path "tax" in
  let db = Database.open_ path in
  Taxonomy.Tax_schema.install db;
  let params =
    { Taxonomy.Flora_gen.families = 3; genera_per_family = 6; species_per_genus = 8; specimens_per_species = 3; seed = 11 }
  in
  let flora = Taxonomy.Flora_gen.generate db ~params () in
  let ctx2 = Taxonomy.Flora_gen.perturb db flora () in
  let root = List.hd flora.Taxonomy.Flora_gen.root_taxa in
  let ctx = flora.Taxonomy.Flora_gen.ctx in
  Printf.printf "\n== Taxonomic workloads (thesis 7.1) ==\n";
  Printf.printf "flora: %d species taxa, %d specimens, 2 overlapping classifications\n"
    (List.length flora.Taxonomy.Flora_gen.species_taxa)
    (List.length flora.Taxonomy.Flora_gen.specimens);
  let report name ms = Printf.printf "%-38s %10.3f ms\n" name ms in
  report "recursive circumscription (family)"
    (time_median (fun () ->
         ignore (Taxonomy.Classify.specimens_of db ~ctx root)));
  report "name derivation (whole family)"
    (time_median ~runs:3 (fun () ->
         ignore (Taxonomy.Derivation.derive db ~ctx ~root ())));
  report "specimen-based synonym detection"
    (time_median ~runs:3 (fun () -> ignore (Taxonomy.Synonymy.find db ~ctx_a:ctx ~ctx_b:ctx2)));
  report "name-based synonym detection"
    (time_median ~runs:3 (fun () ->
         ignore (Taxonomy.Synonymy.find_by_name db ~ctx_a:ctx ~ctx_b:ctx2)));
  report "classification comparison (Compare)"
    (time_median ~runs:3 (fun () ->
         ignore
           (Pgraph.Compare.compare_contexts db ~rel:Taxonomy.Tax_schema.circumscribes
              ~ctx_a:ctx ~ctx_b:ctx2 ())));
  let env = [ ("root", Value.VRef root); ("ctx", Value.VRef ctx) ] in
  report "POOL: names at rank Species"
    (time_median (fun () ->
         ignore
           (Pool_lang.Pool.query db "count(select n from Name n where n.rank = 'Species')")));
  report "POOL: taxa below root in context"
    (time_median (fun () ->
         ignore
           (Pool_lang.Pool.query ~env db
              "count(select t from Taxon t where t in descendants(root, 'Circumscribes') in context ctx)")));
  Database.close db;
  cleanup path

(* ------------------------------------------------------------------ *)
(* Section: ablations (DESIGN.md design decisions)                      *)
(* ------------------------------------------------------------------ *)

let bench_ablation () =
  Printf.printf "\n== Ablations ==\n";
  (* 1. index layer on/off for Q1-style lookups *)
  let pair = build_pair ~params:O7.small () in
  let p = pair.prom in
  let without = time_median (fun () -> ignore (Ops.Prom.q1 p ~n:10)) in
  Database.create_index pair.pdb O7.atomic_part "id";
  let with_ = time_median (fun () -> ignore (Ops.Prom.q1 p ~n:10)) in
  Printf.printf "index layer:    Q1 without index %10.3f ms, with index %10.3f ms (%.1fx)\n"
    without with_ (without /. with_);
  destroy_pair pair;
  (* 2. rules engine on/off for S1 *)
  let pair = build_pair ~params:O7.small () in
  let engine = Prules.Engine.create pair.pdb in
  (* install a representative rule load *)
  Prules.Engine.add_rule engine
    (Prules.Rule.invariant "positive_build_date" ~class_name:O7.atomic_part (fun _ o ->
         match Pmodel.Obj.get o "buildDate" with Value.VInt d -> d >= 0 | _ -> true));
  let with_rules =
    time_median ~runs:3 (fun () ->
        let cs = Ops.Prom.s1 pair.prom ~k:5 ~parts_per_comp:10 in
        Ops.Prom.s2 pair.prom cs)
  in
  Prules.Engine.set_enabled engine false;
  let without_rules =
    time_median ~runs:3 (fun () ->
        let cs = Ops.Prom.s1 pair.prom ~k:5 ~parts_per_comp:10 in
        Ops.Prom.s2 pair.prom cs)
  in
  Printf.printf "rules layer:    S1+S2 with rules %9.3f ms, without %9.3f ms (%.2fx)\n" with_rules
    without_rules
    (with_rules /. without_rules);
  destroy_pair pair;
  (* 3. transaction batching (journal) for bulk writes *)
  let path = tmp_path "batch" in
  let store = Pstore.Store.open_ path in
  let n = 500 in
  let batched =
    time_median ~runs:3 (fun () ->
        Pstore.Store.with_tx store (fun () ->
            for i = 1 to n do
              Pstore.Store.put store ~oid:(Pstore.Store.fresh_oid store) (string_of_int i)
            done))
  in
  let per_op =
    time_median ~runs:3 (fun () ->
        for i = 1 to n do
          Pstore.Store.with_tx store (fun () ->
              Pstore.Store.put store ~oid:(Pstore.Store.fresh_oid store) (string_of_int i))
        done)
  in
  Printf.printf
    "journal:        %d puts, one tx %9.3f ms vs one tx per put %9.3f ms (%.1fx)\n" n batched
    per_op (per_op /. batched);
  Pstore.Store.close store;
  cleanup path

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks: storage primitives and the POOL pipeline           *)
(* ------------------------------------------------------------------ *)

let bench_micro () =
  let spath = tmp_path "micro_store" in
  let store = Pstore.Store.open_ spath in
  let payload = String.make 128 'p' in
  let preloaded = Array.init 1000 (fun _ -> Pstore.Store.fresh_oid store) in
  Array.iter (fun oid -> Pstore.Store.put store ~oid payload) preloaded;
  let ppath = tmp_path "micro_pool" in
  let db = Database.open_ ppath in
  ignore (Database.define_class db "Item" [ Meta.attr "v" Value.TInt ]);
  ignore (Database.define_class db "Scratch" [ Meta.attr "v" Value.TInt ]);
  for i = 1 to 500 do
    ignore (Database.create db "Item" [ ("v", Value.VInt i) ])
  done;
  let q = "select i.v from Item i where i.v > 250 order by i.v" in
  let cursor = ref 0 in
  let tests =
    Test.make_grouped ~name:"micro"
      [
        Test.make ~name:"store_get"
          (Staged.stage (fun () ->
               cursor := (!cursor + 1) mod 1000;
               ignore (Pstore.Store.get store ~oid:preloaded.(!cursor))));
        Test.make ~name:"store_put"
          (Staged.stage (fun () ->
               cursor := (!cursor + 1) mod 1000;
               Pstore.Store.put store ~oid:preloaded.(!cursor) payload));
        Test.make ~name:"obj_create"
          (Staged.stage (fun () -> ignore (Database.create db "Scratch" [ ("v", Value.VInt 0) ])));
        Test.make ~name:"pool_parse" (Staged.stage (fun () -> ignore (Pool_lang.Parser.parse q)));
        Test.make ~name:"pool_query" (Staged.stage (fun () -> ignore (Pool_lang.Pool.query db q)));
      ]
  in
  let results = run_bechamel tests in
  Printf.printf "\n== Micro-benchmarks ==\n";
  List.iter (fun (name, ms) -> Printf.printf "%-24s %12.6f ms\n" name ms) results;
  Database.close db;
  Pstore.Store.close store;
  cleanup spath;
  cleanup ppath

(* ------------------------------------------------------------------ *)
(* Tables 4 and 5: comparative matrices                                 *)
(* ------------------------------------------------------------------ *)

(* Table 5's Prometheus column is *verified*: each feature row runs a
   live POOL probe against a scratch database. *)
let bench_tables () =
  Printf.printf "\n== Table 4: database models vs classification requirements (thesis ch. 4) ==\n";
  let rows =
    (* requirement, relational, object-oriented, graph-based, extended-OO, prometheus *)
    [
      ("tree/graph structure", "poor", "partial", "yes", "yes", "yes");
      ("directed graphs", "no", "partial", "yes", "most", "yes");
      ("multiple classifications", "no", "views only", "no", "no", "yes");
      ("traceability", "no", "no", "no", "attrs only", "yes");
      ("composite objects", "no", "partial", "no", "partial", "yes");
      ("population-based classif.", "yes", "no", "yes", "yes", "yes");
      ("roles", "views only", "limited", "no", "ADAM only", "yes");
      ("rules/constraints", "yes", "yes", "some", "some", "yes");
      ("recursive behaviour", "limited", "rare", "yes", "some", "yes");
      ("integration w/ existing", "yes", "partial", "graph only", "yes", "yes");
      ("generic classifications", "generic only", "is-a/is-of", "untyped", "yes", "yes");
      ("orthogonal classification", "no", "no", "no", "partial", "yes");
    ]
  in
  Printf.printf "%-28s %-14s %-12s %-12s %-12s %-12s\n" "requirement" "relational" "object-or."
    "graph" "extended-OO" "prometheus";
  List.iter
    (fun (r, a, b, c, d, e) ->
      Printf.printf "%-28s %-14s %-12s %-12s %-12s %-12s\n" r a b c d e)
    rows;
  (* live verification of the Prometheus column's key claims *)
  let path = tmp_path "probe" in
  let db = Database.open_ path in
  ignore (Database.define_class db "N" [ Meta.attr "v" Value.TInt ]);
  ignore (Database.define_rel db "E" ~origin:"N" ~destination:"N" ~attrs:[ Meta.attr "why" Value.TString ]);
  let a = Database.create db "N" [ ("v", Value.VInt 1) ] in
  let b = Database.create db "N" [ ("v", Value.VInt 2) ] in
  let c1 = Database.create_context db "c1" in
  let c2 = Database.create_context db "c2" in
  ignore (Database.link db "E" ~context:c1 ~origin:a ~destination:b ~attrs:[ ("why", Value.VString "traceable") ]);
  ignore (Database.link db "E" ~context:c2 ~origin:b ~destination:a);
  Printf.printf "\n== Table 5: query language features (thesis ch. 5) — POOL column live-verified ==\n";
  let env = [ ("a", Value.VRef a); ("ctx1", Value.VRef c1) ] in
  let probe name sql oql graphql query expect =
    let ok =
      try Value.equal_value (Pool_lang.Pool.query ~env db query) expect with _ -> false
    in
    Printf.printf "%-30s %-10s %-10s %-10s POOL: %s\n" name sql oql graphql
      (if ok then "yes (verified)" else "PROBE FAILED")
  in
  probe "relationships as objects" "no" "no" "edges" "count(select e from E e)" (Value.VInt 2);
  probe "recursion / closure" "limited" "no" "yes" "count(closure(a, 'E', null))" (Value.VInt 2);
  probe "graph extraction" "no" "no" "some" "count(nodes(graph(a, 'E', null)))" (Value.VInt 2);
  probe "classification context" "no" "no" "no"
    "count(select n from N n where n in descendants(a, 'E') in context ctx1)" (Value.VInt 1);
  probe "selective downcast" "n/a" "cast only" "no" "count((N) (select x from N x))" (Value.VInt 2);
  probe "aggregates" "yes" "yes" "some" "sum(select n.v from N n)" (Value.VInt 3);
  probe "edge attributes" "n/a" "n/a" "some" "first(select e.why from E e where e.why != null)"
    (Value.VString "traceable");
  Database.close db;
  cleanup path

let print_schema () =
  Printf.printf "\n== Benchmark schemas (thesis figs. 41-43, 47-48) ==\n";
  let path = tmp_path "schema" in
  let db = Database.open_ path in
  O7.install db;
  let schema = Database.schema db in
  Printf.printf "-- classes --\n";
  List.iter
    (fun (c : Meta.class_def) ->
      if not (String.length c.Meta.class_name > 1 && c.Meta.class_name.[0] = '_') then
        Printf.printf "  class %-16s supers=[%s] attrs=[%s]%s\n" c.Meta.class_name
          (String.concat "," c.Meta.supers)
          (String.concat ","
             (List.map (fun (a : Meta.attr_def) -> a.Meta.attr_name) c.Meta.attrs))
          (if c.Meta.abstract then " (abstract)" else ""))
    (List.sort compare (Meta.classes schema));
  Printf.printf "-- relationship classes --\n";
  List.iter
    (fun (r : Meta.rel_def) ->
      Printf.printf "  rel %-16s %s -> %s [%s%s%s%s]\n" r.Meta.rel_name r.Meta.origin
        r.Meta.destination
        (match r.Meta.kind with Meta.Aggregation -> "aggregation" | Meta.Association -> "association")
        (if r.Meta.exclusive then ", exclusive" else "")
        (if not r.Meta.sharable then ", non-sharable" else "")
        (if r.Meta.lifetime_dep then ", lifetime-dep" else ""))
    (List.sort compare (Meta.rels schema));
  Database.close db;
  cleanup path

(* ------------------------------------------------------------------ *)
(* Recovery: reopen after a crash                                      *)
(* ------------------------------------------------------------------ *)

(* Journal replay cost, isolated at the pager level: populate N pages,
   open a transaction that touches all of them (N before-image frames),
   simulate a process crash, then time the reopen that replays the
   journal.  See EXPERIMENTS.md "Crash-torture sweep". *)
let bench_recovery () =
  let module P = Pstore.Pager in
  Printf.printf "\n== recovery: reopen after crash (journal replay) ==\n";
  Printf.printf "%-8s %12s %12s\n" "frames" "journal KiB" "reopen ms";
  List.iter
    (fun n ->
      let samples =
        List.init 3 (fun _ ->
            let path = tmp_path "recovery" in
            let p = P.open_file path in
            let pages = List.init n (fun _ -> P.allocate p) in
            List.iter
              (fun no -> P.with_write p no (fun b -> Bytes.fill b 0 P.page_size 'a'))
              pages;
            P.begin_tx p;
            List.iter
              (fun no -> P.with_write p no (fun b -> Bytes.fill b 0 P.page_size 'b'))
              pages;
            (* force the buffered before-image frames to disk so the
               crash leaves a full n-frame journal to replay *)
            P.flush_all p;
            P.crash p;
            let _, ms = time_once (fun () -> P.close (P.open_file path)) in
            cleanup path;
            ms)
      in
      let med = match List.sort compare samples with l -> List.nth l 1 in
      Printf.printf "%-8d %12.1f %12.3f\n" n
        (float_of_int (n * P.journal_frame_size) /. 1024.)
        med)
    [ 16; 128; 1024 ]

(* ------------------------------------------------------------------ *)
(* Section: query engine (compiled plans vs legacy interpreter)        *)
(* ------------------------------------------------------------------ *)

(* Measures the plan-then-run POOL engine ([Pool.default_config]:
   index range/prefix pushdown, hash joins, plan cache, CSR adjacency
   snapshots) against the faithful pre-overhaul tree-walking
   interpreter ([Pool.legacy_config]), on four workloads:

   - deep-descent: graph traversal over a flora classification — CSR
     int-array BFS vs per-node mirror lookups;
   - a POOL query wrapping that same traversal (end-to-end pipeline);
   - join-heavy: a self-join that the planner turns into a hash join,
     vs the legacy O(n*m) nested loop;
   - range and LIKE-prefix predicates that push down into the ordered
     secondary index vs full extent scans.

   Every workload first asserts that both engines return identical
   values, then times each.  Results land in BENCH_PR3.json. *)
let bench_query () =
  let module T = Pgraph.Traverse in
  Printf.printf "\n== query engine (legacy interpreter vs compiled plans) ==\n";
  let path = tmp_path "query" in
  let db = Database.open_ path in
  Taxonomy.Tax_schema.install db;
  let params =
    { Taxonomy.Flora_gen.families = 4; genera_per_family = 8; species_per_genus = 10; specimens_per_species = 3; seed = 7 }
  in
  let flora = Taxonomy.Flora_gen.generate db ~params () in
  let root = List.hd flora.Taxonomy.Flora_gen.root_taxa in
  let ctx = flora.Taxonomy.Flora_gen.ctx in
  let rel = Taxonomy.Tax_schema.circumscribes in
  (* synthetic tables for the join and predicate workloads *)
  ignore
    (Database.define_class db "Item"
       [ Meta.attr "v" Value.TInt; Meta.attr "label" Value.TString ]);
  ignore
    (Database.define_class db "J" [ Meta.attr "k" Value.TInt; Meta.attr "tag" Value.TString ]);
  for i = 1 to 2000 do
    ignore
      (Database.create db "Item"
         [ ("v", Value.VInt i); ("label", Value.VString (Printf.sprintf "item%04d" i)) ])
  done;
  for i = 1 to 400 do
    ignore
      (Database.create db "J"
         [ ("k", Value.VInt (i mod 50)); ("tag", Value.VString (Printf.sprintf "t%d" i)) ])
  done;
  Database.create_index db "Item" "v";
  Database.create_index db "Item" "label";
  let env = [ ("root", Value.VRef root); ("ctx", Value.VRef ctx) ] in
  let measure ~legacy ~optimized =
    (* median of 5; legacy first, so warm-up noise penalises the
       optimized side, and the first optimized run pays the CSR build
       and the plan-cache miss (amortised in the median, exactly as in
       production use) *)
    let leg = time_median ~runs:5 legacy in
    let opt = time_median ~runs:5 optimized in
    (leg, opt)
  in
  let pool_workload q =
    (* both engines must return bit-identical values *)
    let o = Pool_lang.Pool.query ~env db q in
    let l = Pool_lang.Pool.query ~env ~config:Pool_lang.Pool.legacy_config db q in
    assert (Value.compare_value o l = 0);
    measure
      ~legacy:(fun () -> ignore (Pool_lang.Pool.query ~env ~config:Pool_lang.Pool.legacy_config db q))
      ~optimized:(fun () -> ignore (Pool_lang.Pool.query ~env db q))
  in
  let results =
    [
      ( "deep_descent",
        "Traverse.descendants over the flora classification",
        (let o = T.descendants db ~context:ctx ~csr:true ~rel root in
         let l = T.descendants db ~context:ctx ~csr:false ~rel root in
         assert (Database.OidSet.equal o l);
         measure
           ~legacy:(fun () -> ignore (T.descendants db ~context:ctx ~csr:false ~rel root))
           ~optimized:(fun () -> ignore (T.descendants db ~context:ctx ~csr:true ~rel root))) );
      ( "pool_descent",
        "the same traversal through the full POOL pipeline",
        pool_workload
          "count(select t from Taxon t where t in descendants(root, 'Circumscribes') in context ctx)"
      );
      ( "join_heavy",
        "self-join on an unindexed key: hash join vs nested loop",
        pool_workload "count(select a.tag from J a, J b where a.k = b.k and a.tag != b.tag)" );
      ( "range_predicate",
        "range predicate over an indexed attribute",
        pool_workload "count(select i.v from Item i where i.v >= 100 and i.v < 160)" );
      ( "like_prefix",
        "LIKE with a literal prefix over an indexed attribute",
        pool_workload "count(select i.label from Item i where i.label like 'item19%')" );
    ]
  in
  List.iter
    (fun (name, _, (l, o)) ->
      Printf.printf "  %-16s legacy %10.3f ms   optimized %10.3f ms   (%.2fx)\n" name l o
        (l /. o))
    results;
  let q = Pool_lang.Pool.stats db in
  Printf.printf
    "engine counters: %d probes, %d range scans, %d hash joins, %d extent scans, %d/%d plan \
     cache hits/misses, %d CSR rebuilds\n"
    q.Pool_lang.Eval.index_probes q.Pool_lang.Eval.range_scans q.Pool_lang.Eval.hash_joins
    q.Pool_lang.Eval.extent_scans q.Pool_lang.Eval.plan_cache_hits
    q.Pool_lang.Eval.plan_cache_misses q.Pool_lang.Eval.adjacency_rebuilds;
  (* acceptance: >= 2x median speedup on at least two of deep-descent,
     join-heavy, range-predicate *)
  let speedup name =
    let _, _, (l, o) = List.find (fun (n, _, _) -> n = name) results in
    l /. o
  in
  let gates = [ "deep_descent"; "join_heavy"; "range_predicate" ] in
  let passed = List.length (List.filter (fun n -> speedup n >= 2.0) gates) in
  Printf.printf "acceptance: %d/3 gated workloads at >= 2x (need 2)\n" passed;
  (* machine-readable trajectory *)
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"bench\": \"query_engine\",\n";
  Buffer.add_string buf "  \"pr\": 3,\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"dataset\": { \"taxa\": %d, \"items\": 2000, \"join_rows\": 400 },\n"
       (Database.OidSet.cardinal (T.descendants db ~context:ctx ~rel root) + 1));
  Buffer.add_string buf "  \"workloads\": [\n";
  List.iteri
    (fun i (name, note, (l, o)) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    { \"name\": \"%s\", \"note\": \"%s\", \"unit\": \"ms\", \"legacy\": %.3f, \
            \"optimized\": %.3f, \"speedup\": %.2f }%s\n"
           name note l o (l /. o)
           (if i = List.length results - 1 then "" else ",")))
    results;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf "  \"acceptance\": {\n";
  Buffer.add_string buf
    "    \"criterion\": \">= 2x median speedup over legacy on >= 2 of deep-descent, \
     join-heavy, range-predicate\",\n";
  Buffer.add_string buf (Printf.sprintf "    \"workloads_at_2x\": %d,\n" passed);
  Buffer.add_string buf (Printf.sprintf "    \"pass\": %b\n" (passed >= 2));
  Buffer.add_string buf "  }\n";
  Buffer.add_string buf "}\n";
  write_record "BENCH_PR3.json" (Buffer.contents buf);
  Database.close db;
  cleanup path

(* ------------------------------------------------------------------ *)
(* Section: observability overhead (metrics on vs off)                 *)
(* ------------------------------------------------------------------ *)

(* The PR4 acceptance gate: re-run the PR2/PR3 gated workloads — the
   many-small-transactions commit loop, the CSR deep descent, the hash
   join and the index range predicate — with the metrics registry
   enabled and disabled, and record the relative overhead.  Every
   counter increment and histogram observation in the hot paths is
   live in the "on" configuration; "off" exercises the single-branch
   guard.  Tracing stays off in both: it is disabled by default and
   its overhead budget is "free when off", which the obs unit tests
   cover.  Results land in BENCH_PR4.json; the gate is max overhead
   < 5%. *)
let bench_obs () =
  let module S = Pstore.Store in
  let module F = Pstore.Fault in
  let module T = Pgraph.Traverse in
  Printf.printf "\n== observability overhead (metrics on vs off) ==\n";
  (* PR2 gated workload: one 64-byte object per commit on the
     in-memory fault VFS — pure software path, where per-commit
     instrumentation is proportionally largest *)
  let commit_workload () =
    let fs = F.create ~seed:42 () in
    F.set_short_transfers fs false;
    let s = S.open_ ~vfs:(F.vfs fs) "bench_pr4.db" in
    let payload = String.make 64 'c' in
    let (), ms =
      time_once (fun () ->
          for _ = 1 to 400 do
            S.with_tx s (fun () -> S.put s ~oid:(S.fresh_oid s) payload)
          done)
    in
    S.close s;
    ms
  in
  (* PR3 gated workloads, against one shared database *)
  let path = tmp_path "obs" in
  let db = Database.open_ path in
  Taxonomy.Tax_schema.install db;
  let params =
    { Taxonomy.Flora_gen.families = 4; genera_per_family = 8; species_per_genus = 10; specimens_per_species = 3; seed = 7 }
  in
  let flora = Taxonomy.Flora_gen.generate db ~params () in
  let root = List.hd flora.Taxonomy.Flora_gen.root_taxa in
  let ctx = flora.Taxonomy.Flora_gen.ctx in
  let rel = Taxonomy.Tax_schema.circumscribes in
  ignore
    (Database.define_class db "Item"
       [ Meta.attr "v" Value.TInt; Meta.attr "label" Value.TString ]);
  ignore
    (Database.define_class db "J" [ Meta.attr "k" Value.TInt; Meta.attr "tag" Value.TString ]);
  for i = 1 to 2000 do
    ignore
      (Database.create db "Item"
         [ ("v", Value.VInt i); ("label", Value.VString (Printf.sprintf "item%04d" i)) ])
  done;
  for i = 1 to 400 do
    ignore
      (Database.create db "J"
         [ ("k", Value.VInt (i mod 50)); ("tag", Value.VString (Printf.sprintf "t%d" i)) ])
  done;
  Database.create_index db "Item" "v";
  let env = [ ("root", Value.VRef root); ("ctx", Value.VRef ctx) ] in
  let pool_loop q reps () =
    let (), ms =
      time_once (fun () ->
          for _ = 1 to reps do
            ignore (Pool_lang.Pool.query ~env db q)
          done)
    in
    ms
  in
  let descent_loop () =
    let (), ms =
      time_once (fun () ->
          for _ = 1 to 200 do
            ignore (T.descendants db ~context:ctx ~csr:true ~rel root)
          done)
    in
    ms
  in
  let workloads =
    [
      ("pr2_commit_tx", "400 one-object commits, in-memory fault VFS", commit_workload);
      ("pr3_deep_descent", "CSR descent over the flora, x200", descent_loop);
      ( "pr3_join_heavy",
        "hash self-join through POOL, x25",
        pool_loop "count(select a.tag from J a, J b where a.k = b.k and a.tag != b.tag)" 25 );
      ( "pr3_range_predicate",
        "indexed range predicate through POOL, x200",
        pool_loop "count(select i.v from Item i where i.v >= 100 and i.v < 160)" 200 );
    ]
  in
  let saved = !Pobs.Metrics.enabled in
  let results =
    Fun.protect
      ~finally:(fun () -> Pobs.Metrics.enabled := saved)
      (fun () ->
        List.map
          (fun (name, note, w) ->
            ignore (w ()) (* warm-up: CSR snapshots, plan cache, page cache *);
            (* interleave off/on samples so allocator or frequency
               drift during the run cancels instead of biasing one
               configuration *)
            let pairs =
              List.init 7 (fun _ ->
                  Pobs.Metrics.enabled := false;
                  let off = w () in
                  Pobs.Metrics.enabled := true;
                  let on = w () in
                  (off, on))
            in
            (* min, not median: the fastest pass is the code's actual
               cost; anything above it is scheduler/GC noise, which a
               median can still let bias one arm *)
            let fmin l = List.fold_left Float.min infinity l in
            let off = fmin (List.map fst pairs) and on = fmin (List.map snd pairs) in
            let pct = (on -. off) /. off *. 100. in
            Printf.printf "  %-20s off %9.3f ms   on %9.3f ms   overhead %+6.2f%%\n" name off
              on pct;
            (name, note, off, on, pct))
          workloads)
  in
  Database.close db;
  cleanup path;
  let max_pct = List.fold_left (fun a (_, _, _, _, p) -> Float.max a p) neg_infinity results in
  let pass = max_pct < 5.0 in
  Printf.printf "max overhead with metrics on: %.2f%% (gate: < 5%%)\n" max_pct;
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"bench\": \"observability_overhead\",\n";
  Buffer.add_string buf "  \"pr\": 4,\n";
  Buffer.add_string buf "  \"workloads\": [\n";
  List.iteri
    (fun i (name, note, off, on, pct) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    { \"name\": \"%s\", \"note\": \"%s\", \"unit\": \"ms\", \"metrics_off\": \
            %.3f, \"metrics_on\": %.3f, \"overhead_pct\": %.2f }%s\n"
           name note off on pct
           (if i = List.length results - 1 then "" else ",")))
    results;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf "  \"acceptance\": {\n";
  Buffer.add_string buf
    "    \"criterion\": \"< 5% overhead with metrics enabled on the PR2/PR3 gated \
     workloads\",\n";
  Buffer.add_string buf (Printf.sprintf "    \"max_overhead_pct\": %.2f,\n" max_pct);
  Buffer.add_string buf (Printf.sprintf "    \"pass\": %b\n" pass);
  Buffer.add_string buf "  }\n";
  Buffer.add_string buf "}\n";
  write_record "BENCH_PR4.json" (Buffer.contents buf)

(* ------------------------------------------------------------------ *)
(* Section: replication (PR5 tentpole)                                 *)
(* ------------------------------------------------------------------ *)

(* Three numbers, two software-only and one end-to-end:

   - ship: encode a captured redo stream into wire frames (the
     primary's per-conn cost once the delta is in the backlog)
   - apply: replay snapshot + deltas through a fresh replica pager on
     the in-memory fault VFS (the replica's software ceiling)
   - lag: a live loopback primary/replica pair; sample
     (primary LSN - applied LSN) after every commit, then wait for
     convergence and demand byte-identical files.

   Results land in BENCH_PR5.json; the gate is convergence to LSN
   equality with identical bytes plus nonzero throughputs. *)
let bench_repl () =
  let module S = Pstore.Store in
  let module F = Pstore.Fault in
  let module W = Prepl.Wire in
  let module Feed = Prepl.Feed in
  let module R = Prepl.Replica in
  Printf.printf "\n== replication: ship / apply throughput, steady-state lag ==\n";
  let median l = List.nth (List.sort compare l) (List.length l / 2) in
  let mib = 1024. *. 1024. in
  (* --- capture a redo stream on the in-memory fault VFS ------------- *)
  let fs = F.create ~seed:42 () in
  F.set_short_transfers fs false;
  let s = S.open_ ~vfs:(F.vfs fs) "bench_repl.db" in
  let feed = Feed.create s in
  S.with_tx s (fun () -> S.put s ~oid:1 "snapshot floor");
  let snap_lsn, snap_data = Feed.snapshot feed in
  let commits = 300 in
  for i = 1 to commits do
    (* mix of small objects and page-crossing blobs *)
    let payload = String.make (64 + (i mod 7 * 900)) 'r' in
    S.with_tx s (fun () -> S.put s ~oid:(S.fresh_oid s) payload)
  done;
  let stream_id = Feed.stream_id feed in
  let deltas =
    List.map (fun r -> (r.Feed.r_lsn, r.Feed.r_pages)) (Feed.deltas_after feed ~after:0)
  in
  Feed.detach feed;
  S.close s;
  let delta_bytes =
    List.fold_left
      (fun a (_, pages) ->
        List.fold_left (fun a (_, data) -> a + String.length data) a pages)
      0 deltas
  in
  (* --- ship: wire-encode the whole stream --------------------------- *)
  let encode_all () =
    List.fold_left
      (fun a (lsn, pages) -> a + String.length (W.encode (W.Delta { lsn; pages })))
      0 deltas
  in
  let wire_bytes = encode_all () in
  let reps = 10 in
  let ship_ms =
    median
      (List.init 5 (fun _ ->
           snd (time_once (fun () -> for _ = 1 to reps do ignore (encode_all ()) done))))
  in
  let ship_mib_s = float_of_int (wire_bytes * reps) /. mib /. (ship_ms /. 1000.) in
  Printf.printf "  ship   %7.1f MiB/s  (%d records, %.2f MiB on the wire)\n" ship_mib_s
    (List.length deltas)
    (float_of_int wire_bytes /. mib);
  (* --- apply: replay through a fresh replica pager ------------------- *)
  let replay () =
    let rfs = F.create ~seed:7 () in
    F.set_short_transfers rfs false;
    let ap = R.Apply.create ~vfs:(F.vfs rfs) "replica.db" in
    let (), ms =
      time_once (fun () ->
          R.Apply.install_snapshot ap ~stream_id ~lsn:snap_lsn ~data:snap_data;
          List.iter (fun (lsn, pages) -> ignore (R.Apply.apply_delta ap ~lsn ~pages)) deltas)
    in
    ms
  in
  let apply_ms = median (List.init 5 (fun _ -> replay ())) in
  let apply_payload = delta_bytes + String.length snap_data in
  let apply_mib_s = float_of_int apply_payload /. mib /. (apply_ms /. 1000.) in
  Printf.printf "  apply  %7.1f MiB/s  (%.2f MiB snapshot+deltas)\n" apply_mib_s
    (float_of_int apply_payload /. mib);
  (* --- lag: live loopback pair --------------------------------------- *)
  let ppath = tmp_path "repl_primary" and rpath = tmp_path "repl_replica" in
  let scrub path =
    cleanup path;
    List.iter
      (fun suffix ->
        let p = path ^ suffix in
        if Sys.file_exists p then Sys.remove p)
      [ ".replid"; ".replid.tmp"; ".snap" ]
  in
  scrub ppath;
  scrub rpath;
  let s = S.open_ ppath in
  let feed = Feed.create s in
  S.with_tx s (fun () -> S.put s ~oid:1 "bootstrap floor");
  let srv = Feed.serve feed ~port:0 in
  let sess = R.start ~host:"127.0.0.1" ~port:srv.Feed.port rpath in
  let read_disk path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let lag_commits = 150 in
  let result =
    Fun.protect
      ~finally:(fun () ->
        R.stop sess;
        (try Feed.stop_server srv with _ -> ());
        Feed.detach feed;
        S.close s;
        scrub ppath;
        scrub rpath)
      (fun () ->
        let caught_up () = R.Apply.last_lsn sess.R.apply = S.lsn s in
        let deadline = Unix.gettimeofday () +. 30. in
        while (not (caught_up ())) && Unix.gettimeofday () < deadline do
          Unix.sleepf 0.005
        done;
        let samples = ref [] in
        for i = 1 to lag_commits do
          S.with_tx s (fun () -> S.put s ~oid:(S.fresh_oid s) (String.make (200 + (i mod 5 * 800)) 'l'));
          samples := (S.lsn s - R.Apply.last_lsn sess.R.apply) :: !samples
        done;
        let (), catch_up_ms =
          time_once (fun () ->
              let deadline = Unix.gettimeofday () +. 30. in
              while (not (caught_up ())) && Unix.gettimeofday () < deadline do
                Unix.sleepf 0.002
              done)
        in
        let lags = !samples in
        let n = float_of_int (List.length lags) in
        let mean_lag = float_of_int (List.fold_left ( + ) 0 lags) /. n in
        let max_lag = List.fold_left max 0 lags in
        let lsn_equal = caught_up () in
        let identical = lsn_equal && read_disk ppath = read_disk rpath in
        Printf.printf
          "  lag    mean %5.2f LSNs  max %3d LSNs over %d commits; converged=%b \
           identical=%b (%.1f ms)\n"
          mean_lag max_lag lag_commits lsn_equal identical catch_up_ms;
        (mean_lag, max_lag, catch_up_ms, lsn_equal, identical))
  in
  let mean_lag, max_lag, catch_up_ms, lsn_equal, identical = result in
  let pass = lsn_equal && identical && ship_mib_s > 0. && apply_mib_s > 0. in
  Printf.printf "replication gate: %s\n" (if pass then "PASS" else "FAIL");
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"bench\": \"replication\",\n";
  Buffer.add_string buf "  \"pr\": 5,\n";
  Buffer.add_string buf "  \"workloads\": [\n";
  Buffer.add_string buf
    (Printf.sprintf
       "    { \"name\": \"ship_encode\", \"note\": \"wire-encode %d captured delta \
        records\", \"unit\": \"MiB/s\", \"mib_per_s\": %.1f, \"wire_mib\": %.2f },\n"
       (List.length deltas) ship_mib_s
       (float_of_int wire_bytes /. mib));
  Buffer.add_string buf
    (Printf.sprintf
       "    { \"name\": \"apply_replay\", \"note\": \"snapshot + delta replay through a \
        fresh replica pager, fault VFS\", \"unit\": \"MiB/s\", \"mib_per_s\": %.1f, \
        \"payload_mib\": %.2f },\n"
       apply_mib_s
       (float_of_int apply_payload /. mib));
  Buffer.add_string buf
    (Printf.sprintf
       "    { \"name\": \"steady_state_lag\", \"note\": \"per-commit (primary LSN - \
        applied LSN) over a live loopback pair\", \"unit\": \"lsns\", \"commits\": %d, \
        \"mean_lag_lsns\": %.2f, \"max_lag_lsns\": %d, \"catch_up_ms\": %.1f }\n"
       lag_commits mean_lag max_lag catch_up_ms);
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf "  \"acceptance\": {\n";
  Buffer.add_string buf
    "    \"criterion\": \"replica converges to the primary LSN with byte-identical files; \
     ship and apply throughputs nonzero\",\n";
  Buffer.add_string buf (Printf.sprintf "    \"final_lsn_equal\": %b,\n" lsn_equal);
  Buffer.add_string buf (Printf.sprintf "    \"files_identical\": %b,\n" identical);
  Buffer.add_string buf (Printf.sprintf "    \"pass\": %b\n" pass);
  Buffer.add_string buf "  }\n";
  Buffer.add_string buf "}\n";
  write_record "BENCH_PR5.json" (Buffer.contents buf)

(* ------------------------------------------------------------------ *)
(* Section: page integrity (PR6)                                       *)
(* ------------------------------------------------------------------ *)

(* The PR6 acceptance gate: per-page CRC verification must cost < 5%
   on steady-state verified reads vs. a checksum-less file (the same
   store with its header checksum flag cleared, which the pager opens
   unverified), on the in-memory fault VFS (so the comparison measures
   the CRC, not the disk).  Cold full-file scans, scrub throughput and
   detection are reported alongside, ungated.  Results land in
   BENCH_PR6.json. *)
let bench_integrity () =
  let module S = Pstore.Store in
  let module P = Pstore.Pager in
  let module F = Pstore.Fault in
  Printf.printf "\n== integrity: verified-read overhead, scrub throughput ==\n";
  let median l = List.nth (List.sort compare l) (List.length l / 2) in
  let mib = 1024. *. 1024. in
  let objects = 600 in
  (* one populated store per mode, same workload, same VFS seed; the
     "off" store is the same file with its checksum flag cleared *)
  let build ~checksums =
    let fs = F.create ~seed:6 () in
    F.set_short_transfers fs false;
    let vfs = F.vfs fs in
    let s = S.open_ ~vfs "bench_integrity.db" in
    for i = 1 to objects do
      S.with_tx s (fun () ->
          S.put s ~oid:i (String.make (100 + (i * 631 mod 3200)) 'i'))
    done;
    S.close s;
    if not checksums then begin
      let f = vfs.Pstore.Vfs.open_file "bench_integrity.db" in
      ignore (f.Pstore.Vfs.pwrite ~buf:(Bytes.make 1 '\000') ~off:0 ~len:1 ~at:P.checksum_flag_off);
      f.Pstore.Vfs.close ()
    end;
    (fs, vfs)
  in
  (* steady-state verified reads: verification runs only on cache
     misses, so after one warm-up sweep fills (and verifies) the cache
     the measured sweeps see the as-deployed read path.  The cold_scan
     row below reports the unamortised miss-path cost. *)
  let read_pass vfs =
    let s = S.open_ ~vfs "bench_integrity.db" in
    let sweep () =
      for i = 1 to objects do
        ignore (S.get s ~oid:i)
      done
    in
    sweep ();
    let (), ms =
      time_once (fun () ->
          for _ = 1 to 20 do
            sweep ()
          done)
    in
    S.close s;
    ms
  in
  (* interleave the two stores so CPU-frequency / scheduler drift hits
     both equally, and take the min: the fastest achievable pass is the
     robust basis for an overhead comparison *)
  let _fs_on, vfs_on = build ~checksums:true in
  let _fs_off, vfs_off = build ~checksums:false in
  let on_samples = ref [] and off_samples = ref [] in
  for _ = 1 to 9 do
    on_samples := read_pass vfs_on :: !on_samples;
    off_samples := read_pass vfs_off :: !off_samples
  done;
  let on_ms = List.fold_left Float.min infinity !on_samples in
  let off_ms = List.fold_left Float.min infinity !off_samples in
  let overhead_pct = ((on_ms /. off_ms) -. 1.) *. 100. in
  Printf.printf "  verified reads  on %7.2f ms   off %7.2f ms   overhead %+.2f%%\n"
    on_ms off_ms overhead_pct;
  (* cold scan: every page of the file read once through a fresh pager *)
  let cold_scan ~checksums =
    let _fs, vfs = build ~checksums in
    let scan () =
      let p = P.open_file ~vfs "bench_integrity.db" in
      let n = P.page_count p in
      for no = 0 to n - 1 do
        ignore (P.read p no)
      done;
      P.close p;
      n
    in
    let pages = scan () in
    let ms = median (List.init 7 (fun _ -> snd (time_once (fun () -> ignore (scan ()))))) in
    (pages, ms)
  in
  let pages, cold_on_ms = cold_scan ~checksums:true in
  let _, cold_off_ms = cold_scan ~checksums:false in
  let page_mib n = float_of_int (n * P.page_size) /. mib in
  Printf.printf "  cold scan       on %7.2f ms   off %7.2f ms   (%d pages)\n"
    cold_on_ms cold_off_ms pages;
  (* scrub: the background verifier's full-file throughput *)
  let _fs, vfs = build ~checksums:true in
  let p = P.open_file ~vfs "bench_integrity.db" in
  let scrub_ms =
    median
      (List.init 7 (fun _ ->
           snd (time_once (fun () -> ignore (P.scrub p)))))
  in
  let scrub_report = P.scrub p in
  P.close p;
  let scrub_mib_s = page_mib scrub_report.P.scrub_scanned /. (scrub_ms /. 1000.) in
  Printf.printf "  scrub           %7.1f MiB/s  (%d pages, %.2f ms/pass)\n" scrub_mib_s
    scrub_report.P.scrub_scanned scrub_ms;
  (* detection sanity: one flipped bit must surface as Page_corrupt *)
  let detected =
    let fs, vfs = build ~checksums:true in
    F.flip_bit fs "bench_integrity.db" ~off:((2 * P.page_size) + 99) ~bit:5;
    let p = P.open_file ~vfs "bench_integrity.db" in
    Fun.protect
      ~finally:(fun () -> P.close p)
      (fun () ->
        match P.read p 2 with
        | _ -> false
        | exception P.Page_corrupt _ -> true)
  in
  let pass = detected && overhead_pct < 5. in
  Printf.printf "  detection: %b\nintegrity gate: %s (overhead %.2f%% < 5%%)\n" detected
    (if pass then "PASS" else "FAIL")
    overhead_pct;
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"bench\": \"integrity\",\n";
  Buffer.add_string buf "  \"pr\": 6,\n";
  Buffer.add_string buf "  \"workloads\": [\n";
  Buffer.add_string buf
    (Printf.sprintf
       "    { \"name\": \"verified_read\", \"note\": \"steady-state gets after warm-up, \
        %d objects, in-memory VFS; verification runs at cache-miss time\", \"unit\": \
        \"ms\", \"checksums_on_ms\": %.2f, \"checksums_off_ms\": %.2f, \
        \"overhead_pct\": %.2f },\n"
       objects on_ms off_ms overhead_pct);
  Buffer.add_string buf
    (Printf.sprintf
       "    { \"name\": \"cold_scan\", \"note\": \"every page read once through a fresh \
        pager\", \"unit\": \"ms\", \"pages\": %d, \"checksums_on_ms\": %.2f, \
        \"checksums_off_ms\": %.2f },\n"
       pages cold_on_ms cold_off_ms);
  Buffer.add_string buf
    (Printf.sprintf
       "    { \"name\": \"scrub\", \"note\": \"full-file checksum pass, no cache \
        pollution\", \"unit\": \"MiB/s\", \"mib_per_s\": %.1f, \"pages\": %d, \
        \"pass_ms\": %.2f },\n"
       scrub_mib_s scrub_report.P.scrub_scanned scrub_ms);
  Buffer.add_string buf
    (Printf.sprintf
       "    { \"name\": \"detection\", \"note\": \"one flipped bit raises typed \
        Page_corrupt\", \"detected\": %b }\n"
       detected);
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf "  \"acceptance\": {\n";
  Buffer.add_string buf
    "    \"criterion\": \"verified-read overhead < 5% vs checksums-off on the in-memory \
     VFS; bit-rot detected as Page_corrupt\",\n";
  Buffer.add_string buf (Printf.sprintf "    \"overhead_pct\": %.2f,\n" overhead_pct);
  Buffer.add_string buf (Printf.sprintf "    \"detection\": %b,\n" detected);
  Buffer.add_string buf (Printf.sprintf "    \"pass\": %b\n" pass);
  Buffer.add_string buf "  }\n";
  Buffer.add_string buf "}\n";
  write_record "BENCH_PR6.json" (Buffer.contents buf)

(* ------------------------------------------------------------------ *)
(* Section: MVCC reader scaling and group commit (PR7)                 *)
(* ------------------------------------------------------------------ *)

(* Two workloads.  (1) Reader scaling: aggregate POOL query throughput
   over frozen snapshot views from 1/2/4 OCaml domains — each domain
   owns a clone of the same frozen LSN, so reads are lock-free against
   the version chains.  The acceptance gate asks for >= 2x aggregate
   throughput at 4 domains vs 1 when the host actually has >= 4 cores;
   on smaller hosts true parallel speedup is physically unavailable, so
   the gate degrades to "no contention collapse" (4-domain aggregate
   >= 0.5x of 1 domain) and the core count is recorded.  (2) Group
   commit: commits/s of 4 concurrent submitters batched through
   [Store.Group] vs the same number of serial fsync'd transactions —
   reported, ungated.  Results land in BENCH_PR7.json. *)
let bench_mvcc () =
  let module S = Pstore.Store in
  let module F = Pstore.Fault in
  Printf.printf "\n== mvcc: snapshot reader scaling, group commit ==\n";
  (* --- reader scaling over snapshot views --------------------------- *)
  let fs = F.create ~seed:7 () in
  F.set_short_transfers fs false;
  let vfs = F.vfs fs in
  let db = Database.open_ ~vfs "bench_mvcc.db" in
  ignore
    (Database.define_class db "Rec"
       [ Meta.attr "n" Value.TInt; Meta.attr "pad" Value.TString ]);
  Database.create_index db "Rec" "n";
  let n_objects = 2000 in
  Database.with_tx db (fun () ->
      for i = 0 to n_objects - 1 do
        ignore
          (Database.create db "Rec"
             [ ("n", Value.VInt (i mod 500)); ("pad", Value.VString (String.make 32 'r')) ])
      done);
  let view = Database.snapshot db in
  let thresholds = [| 60; 110; 170; 230; 290; 350; 410; 470 |] in
  let queries_per_domain = 120 in
  let query_at v t =
    ignore
      (Pool_lang.Pool.scalar v
         (Printf.sprintf "count(select r from Rec r where r.n < %d)" t))
  in
  let run_queries v =
    (* a larger per-domain minor heap keeps the stop-the-world minor-GC
       barrier (whose cost multiplies with domain count) off the
       measured path; applied identically at every domain count *)
    Gc.set { (Gc.get ()) with Gc.minor_heap_size = 4 * 1024 * 1024 };
    for i = 1 to queries_per_domain do
      query_at v thresholds.(i mod Array.length thresholds)
    done
  in
  let aggregate n_domains =
    (* each domain gets its own clone of the frozen LSN: independent
       plan caches, shared immutable version chains *)
    let clones = List.init n_domains (fun _ -> Database.snapshot_clone view) in
    (* warm each clone's plan cache outside the timed region *)
    List.iter (fun v -> Array.iter (query_at v) thresholds) clones;
    let (), ms =
      time_once (fun () ->
          let ds = List.map (fun v -> Domain.spawn (fun () -> run_queries v)) clones in
          List.iter Domain.join ds)
    in
    List.iter Database.close clones;
    float_of_int (n_domains * queries_per_domain) /. (ms /. 1000.)
  in
  let best f = List.fold_left Float.max neg_infinity (List.init 3 (fun _ -> f ())) in
  let thr1 = best (fun () -> aggregate 1) in
  let thr2 = best (fun () -> aggregate 2) in
  let thr4 = best (fun () -> aggregate 4) in
  let speedup = thr4 /. thr1 in
  let cores = Domain.recommended_domain_count () in
  Printf.printf
    "  readers   1 domain %8.0f q/s   2 domains %8.0f q/s   4 domains %8.0f q/s\n" thr1
    thr2 thr4;
  Printf.printf "  aggregate speedup 4 vs 1: %.2fx  (%d core%s available)\n" speedup cores
    (if cores = 1 then "" else "s");
  Database.close view;
  Database.close db;
  let scaling_pass = if cores >= 4 then speedup >= 2.0 else speedup >= 0.5 in
  (* --- group commit vs serial fsync'd transactions ------------------ *)
  let path = tmp_path "mvcc_gc" in
  let st = S.open_ path in
  let payload = String.make 120 'g' in
  let total = 240 in
  let serial_ms =
    snd
      (time_once (fun () ->
           for i = 1 to total do
             S.with_tx st (fun () -> S.put st ~oid:i payload)
           done))
  in
  let g = S.Group.start ~max_batch:64 st in
  let n_workers = 4 in
  let per = total / n_workers in
  let group_ms =
    snd
      (time_once (fun () ->
           let ds =
             List.init n_workers (fun w ->
                 Domain.spawn (fun () ->
                     for j = 1 to per do
                       ignore
                         (S.Group.submit g (fun st ->
                              S.put st ~oid:(10_000 + (w * per) + j) payload))
                     done))
           in
           List.iter Domain.join ds))
  in
  let gstats = S.Group.group_stats g in
  S.Group.stop g;
  S.close st;
  cleanup path;
  let serial_cps = float_of_int total /. (serial_ms /. 1000.) in
  let group_cps = float_of_int total /. (group_ms /. 1000.) in
  Printf.printf
    "  group commit  serial %8.0f commits/s   grouped %8.0f commits/s  (%d commits in %d \
     batches)\n"
    serial_cps group_cps gstats.S.Group.commits gstats.S.Group.batches;
  Printf.printf "mvcc gate: %s (speedup %.2fx, %d cores)\n"
    (if scaling_pass then "PASS" else "FAIL")
    speedup cores;
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"bench\": \"mvcc\",\n";
  Buffer.add_string buf "  \"pr\": 7,\n";
  Buffer.add_string buf "  \"workloads\": [\n";
  Buffer.add_string buf
    (Printf.sprintf
       "    { \"name\": \"reader_scaling\", \"note\": \"POOL count queries over frozen \
        snapshot views, %d objects, %d queries/domain, one clone per domain, in-memory \
        VFS\", \"unit\": \"queries/s\", \"domains_1\": %.0f, \"domains_2\": %.0f, \
        \"domains_4\": %.0f, \"speedup_4_vs_1\": %.2f, \"cores\": %d },\n"
       n_objects queries_per_domain thr1 thr2 thr4 speedup cores);
  Buffer.add_string buf
    (Printf.sprintf
       "    { \"name\": \"group_commit\", \"note\": \"%d puts: serial fsync'd \
        transactions vs 4 concurrent submitters batched through Store.Group \
        (max_batch 64)\", \"unit\": \"commits/s\", \"serial_commits_per_s\": %.0f, \
        \"group_commits_per_s\": %.0f, \"batches\": %d, \"commits\": %d }\n"
       total serial_cps group_cps gstats.S.Group.batches gstats.S.Group.commits);
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf "  \"acceptance\": {\n";
  Buffer.add_string buf
    "    \"criterion\": \"aggregate snapshot-read throughput at 4 domains >= 2x 1 domain \
     when >= 4 cores are available; on smaller hosts the gate degrades to >= 0.5x (no \
     contention collapse). group commit is reported ungated.\",\n";
  Buffer.add_string buf (Printf.sprintf "    \"speedup_4_vs_1\": %.2f,\n" speedup);
  Buffer.add_string buf (Printf.sprintf "    \"cores\": %d,\n" cores);
  Buffer.add_string buf (Printf.sprintf "    \"pass\": %b\n" scaling_pass);
  Buffer.add_string buf "  }\n";
  Buffer.add_string buf "}\n";
  write_record "BENCH_PR7.json" (Buffer.contents buf)

(* ------------------------------------------------------------------ *)
(* Section: snapshot serving — reader pool QPS + read-your-writes (PR8) *)
(* ------------------------------------------------------------------ *)

(* The serving path introduced for `pdb serve --readers`: a
   {!Pserver.Reader_pool} of N reader domains, each holding a clone of
   the current snapshot generation, fed one job per request by client
   threads (exactly the server's handler-thread shape).

   (1) Serving scaling: aggregate POOL query throughput through the
   pool at 1/2/4 reader domains, driven by 8 submitter threads, vs the
   single-handle baseline the server had before the pool (every query
   sequential on the live handle).  The gate asks for >= 2x aggregate
   QPS at 4 readers vs single-handle when the host has >= 4 cores; on
   smaller hosts it degrades to "no collapse" (>= 0.5x) and records
   the core count.

   (2) Write-heavy mix: concurrent writers push creates through
   [Database.Writer] (group commit) while tokened reads present each
   write's LSN back as min_lsn — read-your-writes must hold for every
   single write (violations are gated at zero).  Pool read p99 under
   the mix is reported alongside the single-handle mix p99, ungated. *)
let bench_serving () =
  let module F = Pstore.Fault in
  let module RP = Pserver.Reader_pool in
  Printf.printf "\n== serving: reader-pool scaling, read-your-writes under writes ==\n";
  let fs = F.create ~seed:8 () in
  F.set_short_transfers fs false;
  let vfs = F.vfs fs in
  let db = Database.open_ ~vfs "bench_serving.db" in
  ignore
    (Database.define_class db "Rec"
       [ Meta.attr "n" Value.TInt; Meta.attr "pad" Value.TString ]);
  let n_objects = 8000 in
  Database.with_tx db (fun () ->
      for i = 0 to n_objects - 1 do
        ignore
          (Database.create db "Rec"
             [ ("n", Value.VInt (i mod 1000)); ("pad", Value.VString (String.make 32 's')) ])
      done);
  (* No index on [n]: every count is an extent scan with a predicate,
     i.e. a query heavy enough to stand in for a real request — the
     pool pays one enqueue/condvar round-trip per request, so
     per-request work must dominate for scaling to be visible, exactly
     as it does on the HTTP path. *)
  let thresholds = [| 120; 220; 370; 430; 540; 660; 780; 910 |] in
  let query_at v t =
    ignore
      (Pool_lang.Pool.scalar v
         (Printf.sprintf "count(select r from Rec r where r.n < %d)" t))
  in
  let total_queries = 480 in
  let submitters = 8 in
  let best f = List.fold_left Float.max neg_infinity (List.init 3 (fun _ -> f ())) in
  (* --- single-handle baseline: the pre-pool server loop ------------- *)
  Array.iter (query_at db) thresholds;
  let qps_single =
    best (fun () ->
        let (), ms =
          time_once (fun () ->
              for i = 1 to total_queries do
                query_at db thresholds.(i mod Array.length thresholds)
              done)
        in
        float_of_int total_queries /. (ms /. 1000.))
  in
  (* --- pooled serving at 1/2/4 reader domains ----------------------- *)
  let pooled n_readers =
    let pool = RP.create ~max_lag_ms:50. ~readers:n_readers (RP.primary_source db) in
    (* warm every reader's plan cache (jobs land on whichever reader is
       free, so warm with several rounds) *)
    for _ = 1 to 3 * n_readers do
      Array.iter (fun t -> ignore (RP.read pool (fun v -> query_at v t))) thresholds
    done;
    let per = total_queries / submitters in
    let (), ms =
      time_once (fun () ->
          let ths =
            List.init submitters (fun s ->
                Thread.create
                  (fun () ->
                    for j = 1 to per do
                      ignore
                        (RP.read pool (fun v ->
                             query_at v thresholds.((s + j) mod Array.length thresholds)))
                    done)
                  ())
          in
          List.iter Thread.join ths)
    in
    RP.stop pool;
    float_of_int total_queries /. (ms /. 1000.)
  in
  let qps1 = best (fun () -> pooled 1) in
  let qps2 = best (fun () -> pooled 2) in
  let qps4 = best (fun () -> pooled 4) in
  let speedup = qps4 /. qps_single in
  let cores = Domain.recommended_domain_count () in
  Printf.printf
    "  serving   single-handle %8.0f q/s   pool x1 %8.0f   x2 %8.0f   x4 %8.0f q/s\n"
    qps_single qps1 qps2 qps4;
  Printf.printf "  aggregate speedup pool x4 vs single-handle: %.2fx  (%d core%s)\n" speedup
    cores
    (if cores = 1 then "" else "s");
  let scaling_pass = if cores >= 4 then speedup >= 2.0 else speedup >= 0.5 in
  (* --- write-heavy mix: read-your-writes + p99 ---------------------- *)
  let pool = RP.create ~max_lag_ms:25. ~readers:4 (RP.primary_source db) in
  let w = Database.Writer.start db in
  let violations = Atomic.make 0 in
  let n_writers = 4 and writes_each = 30 in
  let n_readers_mix = 4 and reads_each = 120 in
  let pool_lat = Array.make (n_readers_mix * reads_each) 0 in
  let marker_count v m =
    match
      Pool_lang.Pool.scalar v
        (Printf.sprintf "count(select r from Rec r where r.n = %d)" m)
    with
    | Value.VInt c -> c
    | _ -> 0
  in
  let (), mix_ms =
    time_once (fun () ->
        let writer_ths =
          List.init n_writers (fun wi ->
              Thread.create
                (fun () ->
                  for j = 1 to writes_each do
                    let marker = 100_000 + (wi * writes_each) + j in
                    let lsn, _oid =
                      Database.Writer.submit w (fun db ->
                          Database.create db "Rec"
                            [ ("n", Value.VInt marker); ("pad", Value.VString "w") ])
                    in
                    (* read-your-writes: the token must make this write
                       visible, on the pool or via the primary *)
                    let seen =
                      match RP.read pool ~min_lsn:lsn (fun v -> marker_count v marker) with
                      | RP.Served (c, _) -> c >= 1
                      | RP.Behind _ -> (
                          match Database.Writer.read w (fun db -> marker_count db marker) with
                          | _, Ok c -> c >= 1
                          | _, Error _ -> false)
                    in
                    if not seen then Atomic.incr violations
                  done)
                ())
        in
        let reader_ths =
          List.init n_readers_mix (fun ri ->
              Thread.create
                (fun () ->
                  for j = 0 to reads_each - 1 do
                    let t0 = Pobs.Monotonic.now_ns () in
                    ignore
                      (RP.read pool (fun v ->
                           query_at v thresholds.(j mod Array.length thresholds)));
                    pool_lat.((ri * reads_each) + j) <- Pobs.Monotonic.now_ns () - t0
                  done)
                ())
        in
        List.iter Thread.join writer_ths;
        List.iter Thread.join reader_ths)
  in
  let wstats = Database.Writer.stats w in
  Database.Writer.stop w;
  RP.stop pool;
  (* single-handle mix: same op schedule on one thread, each write a
     full fsync'd transaction — the latency a read pays when it shares
     the one handle with the write stream *)
  let single_lat = Array.make (n_readers_mix * reads_each) 0 in
  let total_writes = n_writers * writes_each in
  let reads_per_write = Array.length single_lat / total_writes in
  let (), single_mix_ms =
    time_once (fun () ->
        let r = ref 0 in
        for wi = 1 to total_writes do
          Database.with_tx db (fun () ->
              ignore
                (Database.create db "Rec"
                   [ ("n", Value.VInt (200_000 + wi)); ("pad", Value.VString "w") ]));
          for _ = 1 to reads_per_write do
            if !r < Array.length single_lat then begin
              let t0 = Pobs.Monotonic.now_ns () in
              query_at db thresholds.(!r mod Array.length thresholds);
              single_lat.(!r) <- Pobs.Monotonic.now_ns () - t0;
              incr r
            end
          done
        done)
  in
  let p99 a =
    let a = Array.copy a in
    Array.sort compare a;
    float_of_int a.(min (Array.length a - 1) (Array.length a * 99 / 100)) /. 1e6
  in
  let pool_p99 = p99 pool_lat and single_p99 = p99 single_lat in
  let rywr_violations = Atomic.get violations in
  Printf.printf
    "  write mix  %d writes (%d batches, %d commits)  %d reads  rywr violations %d\n"
    total_writes wstats.Pstore.Store.Group.batches wstats.Pstore.Store.Group.commits
    (Array.length pool_lat) rywr_violations;
  Printf.printf "  read p99   pooled %.2f ms   single-handle mix %.2f ms\n" pool_p99
    single_p99;
  let pass = scaling_pass && rywr_violations = 0 in
  Printf.printf "serving gate: %s (speedup %.2fx, %d cores, %d rywr violations)\n"
    (if pass then "PASS" else "FAIL")
    speedup cores rywr_violations;
  Database.close db;
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"bench\": \"serving\",\n";
  Buffer.add_string buf "  \"pr\": 8,\n";
  Buffer.add_string buf "  \"workloads\": [\n";
  Buffer.add_string buf
    (Printf.sprintf
       "    { \"name\": \"serving_scaling\", \"note\": \"POOL count queries (extent \
        scan, %d objects) through Reader_pool, %d submitter threads, one job per \
        request, vs sequential single-handle serving; in-memory VFS\", \"unit\": \
        \"queries/s\", \"single_handle\": %.0f, \"pool_1\": %.0f, \"pool_2\": %.0f, \
        \"pool_4\": %.0f, \"speedup_pool4_vs_single\": %.2f, \"cores\": %d },\n"
       n_objects submitters qps_single qps1 qps2 qps4 speedup cores);
  Buffer.add_string buf
    (Printf.sprintf
       "    { \"name\": \"write_mix\", \"note\": \"%d creates through Database.Writer \
        (group commit) from %d threads, each followed by a tokened read (X-PDB-Min-LSN \
        semantics); %d concurrent untokened reads; single-handle mix interleaves the \
        same ops on one thread; group_commits also counts tokened reads that fell \
        through to the primary, which serialize through the same group\", \
        \"writes\": %d, \"group_batches\": %d, \
        \"group_commits\": %d, \"reads\": %d, \"rywr_violations\": %d, \
        \"pool_read_p99_ms\": %.2f, \"single_handle_read_p99_ms\": %.2f, \
        \"pool_mix_ms\": %.0f, \"single_mix_ms\": %.0f }\n"
       total_writes n_writers (Array.length pool_lat) total_writes
       wstats.Pstore.Store.Group.batches wstats.Pstore.Store.Group.commits
       (Array.length pool_lat) rywr_violations pool_p99 single_p99 mix_ms single_mix_ms);
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf "  \"acceptance\": {\n";
  Buffer.add_string buf
    "    \"criterion\": \"aggregate served QPS at 4 reader domains >= 2x the \
     single-handle baseline when >= 4 cores are available (>= 0.5x no-collapse floor on \
     smaller hosts), and read-your-writes holds for every write under the write-heavy \
     mix (zero violations)\",\n";
  Buffer.add_string buf (Printf.sprintf "    \"speedup_pool4_vs_single\": %.2f,\n" speedup);
  Buffer.add_string buf (Printf.sprintf "    \"cores\": %d,\n" cores);
  Buffer.add_string buf (Printf.sprintf "    \"rywr_violations\": %d,\n" rywr_violations);
  Buffer.add_string buf (Printf.sprintf "    \"pass\": %b\n" pass);
  Buffer.add_string buf "  }\n";
  Buffer.add_string buf "}\n";
  write_record "BENCH_PR8.json" (Buffer.contents buf)

(* ------------------------------------------------------------------ *)
(* PR 9: load generator — event-loop connection scaling               *)
(* ------------------------------------------------------------------ *)

(* Connection-scaling curves over the event-loop front-end: the same
   tiny POOL query driven through four client shapes — HTTP with a
   connection per request, HTTP keep-alive, the binary protocol one
   query per round trip, and the binary protocol batched — at rising
   concurrent-connection counts, plus an admission-control probe
   asserting that connections over [max_conns] are answered 503 rather
   than dropped.  The query is deliberately cheap (a count over 100
   objects): the curve is meant to measure the serving surface, not
   the query engine.  LOADGEN=soak multiplies the request budget for
   the nightly run. *)
let bench_loadgen () =
  let module F = Pstore.Fault in
  Printf.printf "\n== loadgen: event-loop connection scaling, HTTP vs binary ==\n";
  let soak = match Sys.getenv_opt "LOADGEN" with Some "soak" -> true | _ -> false in
  let fs = F.create ~seed:9 () in
  F.set_short_transfers fs false;
  let vfs = F.vfs fs in
  let db = Database.open_ ~vfs "bench_loadgen.db" in
  ignore (Database.define_class db "Rec" [ Meta.attr "n" Value.TInt ]);
  Database.with_tx db (fun () ->
      for i = 0 to 99 do
        ignore (Database.create db "Rec" [ ("n", Value.VInt i) ])
      done);
  let query = "count(select r from Rec r where r.n < 50)" in
  let query_enc =
    let b = Buffer.create 64 in
    String.iter
      (function
        | ('A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '-' | '_' | '.' | '~') as c ->
            Buffer.add_char b c
        | c -> Buffer.add_string b (Printf.sprintf "%%%02X" (Char.code c)))
      query;
    Buffer.contents b
  in
  let start_server ?max_conns () =
    let stop = ref false in
    let ports = ref (0, 0) in
    let m = Mutex.create () and c = Condition.create () in
    let set f =
      Mutex.lock m;
      ports := f !ports;
      Condition.broadcast c;
      Mutex.unlock m
    in
    let th =
      Thread.create
        (fun () ->
          try
            Pserver.Http_server.serve db ~port:0 ~binary_port:0 ?max_conns ~stop
              ~ready:(fun p -> set (fun (_, b) -> (p, b)))
              ~binary_ready:(fun b -> set (fun (p, _) -> (p, b)))
              ()
          with e -> Printf.eprintf "loadgen server died: %s\n%!" (Printexc.to_string e))
        ()
    in
    Mutex.lock m;
    while fst !ports = 0 || snd !ports = 0 do
      Condition.wait c m
    done;
    let http_port, bin_port = !ports in
    Mutex.unlock m;
    (http_port, bin_port, stop, th)
  in
  let stop_server (stop, th) =
    stop := true;
    Thread.join th
  in
  (* raw-socket client plumbing *)
  let send_all fd s =
    let b = Bytes.unsafe_of_string s in
    let pos = ref 0 in
    while !pos < String.length s do
      pos := !pos + Unix.write fd b !pos (String.length s - !pos)
    done
  in
  let recv_until_eof fd =
    let b = Buffer.create 512 in
    let chunk = Bytes.create 4096 in
    let rec go () =
      match Unix.read fd chunk 0 4096 with
      | 0 -> ()
      | n ->
          Buffer.add_subbytes b chunk 0 n;
          go ()
      | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> ()
    in
    go ();
    Buffer.contents b
  in
  let find_sub hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i =
      if i + nn > nh then None else if String.sub hay i nn = needle then Some i else go (i + 1)
    in
    go 0
  in
  (* read exactly one Content-Length-framed response off a keep-alive
     connection, leaving pipelined extras in [bufr] *)
  let read_response fd bufr =
    let chunk = Bytes.create 4096 in
    let refill () =
      match Unix.read fd chunk 0 4096 with
      | 0 -> failwith "connection closed mid-response"
      | n -> bufr := !bufr ^ Bytes.sub_string chunk 0 n
    in
    let rec head_end () =
      match find_sub !bufr "\r\n\r\n" with
      | Some i -> i + 4
      | None ->
          refill ();
          head_end ()
    in
    let he = head_end () in
    let head = String.lowercase_ascii (String.sub !bufr 0 he) in
    let clen =
      match find_sub head "content-length:" with
      | None -> 0
      | Some i ->
          let rest = String.sub head (i + 15) (String.length head - i - 15) in
          int_of_string (String.trim (List.hd (String.split_on_char '\r' rest)))
    in
    while String.length !bufr < he + clen do
      refill ()
    done;
    bufr := String.sub !bufr (he + clen) (String.length !bufr - he - clen)
  in
  let p99_ms (a : int array) =
    let a = Array.copy a in
    Array.sort compare a;
    if Array.length a = 0 then 0.
    else float_of_int a.(min (Array.length a - 1) (Array.length a * 99 / 100)) /. 1e6
  in
  (* Run [conns] concurrent client threads, each doing [per] round
     trips; [mk ci] builds a (round, finish) pair where [round]
     returns the number of requests it completed. *)
  let run_cell ~conns ~per mk =
    let lat = Array.make (conns * per) 0 in
    let completed = Atomic.make 0 in
    let (), ms =
      time_once (fun () ->
          let ths =
            List.init conns (fun ci ->
                Thread.create
                  (fun () ->
                    try
                      let round, finish = mk ci in
                      for j = 0 to per - 1 do
                        let t0 = Pobs.Monotonic.now_ns () in
                        let n = round () in
                        lat.((ci * per) + j) <- Pobs.Monotonic.now_ns () - t0;
                        ignore (Atomic.fetch_and_add completed n)
                      done;
                      finish ()
                    with e ->
                      Printf.eprintf "loadgen client: %s\n%!" (Printexc.to_string e))
                  ())
          in
          List.iter Thread.join ths)
    in
    let reqs = Atomic.get completed in
    (float_of_int reqs /. (ms /. 1000.), p99_ms lat, reqs)
  in
  let http_port, bin_port, stop, th = start_server () in
  let close_req =
    Printf.sprintf "GET /query?q=%s HTTP/1.0\r\nHost: x\r\n\r\n" query_enc
  in
  let ka_req = Printf.sprintf "GET /query?q=%s HTTP/1.1\r\nHost: x\r\n\r\n" query_enc in
  let mk_http_close _ci =
    ( (fun () ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, http_port));
            send_all fd close_req;
            ignore (recv_until_eof fd));
        1),
      fun () -> () )
  in
  let mk_http_keepalive _ci =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, http_port));
    let buf = ref "" in
    ( (fun () ->
        send_all fd ka_req;
        read_response fd buf;
        1),
      fun () -> try Unix.close fd with Unix.Unix_error _ -> () )
  in
  let mk_binary _ci =
    let cl = Pserver.Client.connect ~port:bin_port () in
    ( (fun () ->
        ignore (Pserver.Client.query cl query);
        1),
      fun () -> Pserver.Client.close cl )
  in
  let batch_size = 16 in
  let mk_binary_batch _ci =
    let cl = Pserver.Client.connect ~port:bin_port () in
    let qs = List.init batch_size (fun _ -> query) in
    ( (fun () ->
        ignore (Pserver.Client.batch cl qs);
        batch_size),
      fun () -> Pserver.Client.close cl )
  in
  let budget = if soak then 16384 else 2048 in
  let conn_levels = [ 16; 64; 256 ] in
  let scenarios =
    [
      ("http_close", mk_http_close, 1);
      ("http_keepalive", mk_http_keepalive, 1);
      ("binary", mk_binary, 1);
      ("binary_batch", mk_binary_batch, batch_size);
    ]
  in
  (* warm every path once *)
  List.iter
    (fun (_, mk, _) ->
      let round, finish = mk 0 in
      ignore (round ());
      finish ())
    scenarios;
  let results =
    List.map
      (fun (name, mk, per_round) ->
        let curve =
          List.map
            (fun conns ->
              let per = max 1 (budget / (conns * per_round)) in
              let qps, p99, reqs = run_cell ~conns ~per mk in
              Printf.printf "  %-14s %4d conns  %8.0f req/s   p99 %6.2f ms  (%d reqs)\n%!"
                name conns qps p99 reqs;
              (conns, qps, p99, reqs))
            conn_levels
        in
        (name, curve))
      scenarios
  in
  stop_server (stop, th);
  let qps_at name conns =
    let curve = List.assoc name results in
    let _, qps, _, _ = List.find (fun (c, _, _, _) -> c = conns) curve in
    qps
  in
  let p99_at name conns =
    let curve = List.assoc name results in
    let _, _, p99, _ = List.find (fun (c, _, _, _) -> c = conns) curve in
    p99
  in
  let sat = 256 in
  let speedup = qps_at "binary_batch" sat /. qps_at "http_close" sat in
  let cores = Domain.recommended_domain_count () in
  (* --- admission control: over capacity is answered, never dropped --- *)
  let cap = 8 and probes = 32 in
  let http_port2, _bin2, stop2, th2 = start_server ~max_conns:cap () in
  let served = Atomic.make 0 and rejected = Atomic.make 0 and dropped = Atomic.make 0 in
  let fds =
    List.init probes (fun _ ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, http_port2));
        fd)
  in
  let ths =
    List.map
      (fun fd ->
        Thread.create
          (fun () ->
            (try
               send_all fd "GET / HTTP/1.0\r\nHost: x\r\n\r\n";
               let r = recv_until_eof fd in
               if String.length r >= 12 && String.sub r 9 3 = "200" then Atomic.incr served
               else if String.length r >= 12 && String.sub r 9 3 = "503" then
                 Atomic.incr rejected
               else Atomic.incr dropped
             with _ -> Atomic.incr dropped);
            try Unix.close fd with Unix.Unix_error _ -> ())
          ())
      fds
  in
  List.iter Thread.join ths;
  stop_server (stop2, th2);
  Database.close db;
  let n_served = Atomic.get served
  and n_rejected = Atomic.get rejected
  and n_dropped = Atomic.get dropped in
  Printf.printf
    "  admission  cap %d, %d probes: %d served, %d rejected with 503, %d dropped\n" cap
    probes n_served n_rejected n_dropped;
  let floor_ok = if cores >= 4 then speedup >= 2.0 else speedup >= 0.5 in
  let pass = floor_ok && n_dropped = 0 in
  Printf.printf
    "loadgen gate: %s (binary-batch vs http-close at %d conns: %.2fx, %d core%s; \
     dropped-without-503: %d)\n"
    (if pass then "PASS" else "FAIL")
    sat speedup cores
    (if cores = 1 then "" else "s")
    n_dropped;
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"bench\": \"loadgen\",\n";
  Buffer.add_string buf "  \"pr\": 9,\n";
  Buffer.add_string buf (Printf.sprintf "  \"soak\": %b,\n" soak);
  Buffer.add_string buf "  \"workloads\": [\n";
  Buffer.add_string buf
    (Printf.sprintf
       "    { \"name\": \"connection_scaling\", \"note\": \"closed-loop clients over \
        the event-loop server, one tiny POOL count query (%d objects, in-memory VFS) \
        per request; http_close opens a connection per request, http_keepalive reuses \
        one, binary is one Query frame per round trip, binary_batch packs %d queries \
        per Batch frame; ~%d-request budget per cell\", \"unit\": \"requests/s\",\n"
       100 batch_size budget);
  Buffer.add_string buf "      \"scenarios\": [\n";
  List.iteri
    (fun i (name, curve) ->
      Buffer.add_string buf (Printf.sprintf "        { \"proto\": \"%s\", \"curve\": [" name);
      List.iteri
        (fun j (conns, qps, p99, reqs) ->
          Buffer.add_string buf
            (Printf.sprintf "%s{ \"conns\": %d, \"qps\": %.0f, \"p99_ms\": %.2f, \"requests\": %d }"
               (if j = 0 then " " else ", ")
               conns qps p99 reqs))
        curve;
      Buffer.add_string buf
        (Printf.sprintf " ] }%s\n" (if i = List.length results - 1 then "" else ",")))
    results;
  Buffer.add_string buf "      ] },\n";
  Buffer.add_string buf
    (Printf.sprintf
       "    { \"name\": \"admission_control\", \"note\": \"%d concurrent probes \
        against max_conns=%d: every connection over capacity must be answered 503 + \
        Retry-After, never silently dropped\", \"probes\": %d, \"max_conns\": %d, \
        \"served\": %d, \"rejected_503\": %d, \"dropped_without_503\": %d }\n"
       probes cap probes cap n_served n_rejected n_dropped);
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf "  \"acceptance\": {\n";
  Buffer.add_string buf
    "    \"criterion\": \"binary-batched QPS >= 2x HTTP/close QPS at 256 connections \
     on >= 4 cores (>= 0.5x no-collapse floor on smaller hosts); p99 at saturation \
     recorded for every protocol; zero connections dropped without a 503 under \
     admission control\",\n";
  Buffer.add_string buf
    (Printf.sprintf "    \"qps_http_close_256\": %.0f,\n" (qps_at "http_close" sat));
  Buffer.add_string buf
    (Printf.sprintf "    \"qps_http_keepalive_256\": %.0f,\n" (qps_at "http_keepalive" sat));
  Buffer.add_string buf
    (Printf.sprintf "    \"qps_binary_256\": %.0f,\n" (qps_at "binary" sat));
  Buffer.add_string buf
    (Printf.sprintf "    \"qps_binary_batch_256\": %.0f,\n" (qps_at "binary_batch" sat));
  Buffer.add_string buf
    (Printf.sprintf "    \"p99_http_close_256_ms\": %.2f,\n" (p99_at "http_close" sat));
  Buffer.add_string buf
    (Printf.sprintf "    \"p99_binary_batch_256_ms\": %.2f,\n" (p99_at "binary_batch" sat));
  Buffer.add_string buf
    (Printf.sprintf "    \"speedup_batch_vs_close_256\": %.2f,\n" speedup);
  Buffer.add_string buf (Printf.sprintf "    \"cores\": %d,\n" cores);
  Buffer.add_string buf (Printf.sprintf "    \"dropped_without_503\": %d,\n" n_dropped);
  Buffer.add_string buf (Printf.sprintf "    \"pass\": %b\n" pass);
  Buffer.add_string buf "  }\n";
  Buffer.add_string buf "}\n";
  write_record "BENCH_PR9.json" (Buffer.contents buf)

(* ------------------------------------------------------------------ *)
(* cluster: router replica scaling, lagging-replica tail, failover     *)
(* ------------------------------------------------------------------ *)

let bench_cluster () =
  let module CP = Pcluster.Promote in
  let module CR = Pcluster.Router in
  Printf.printf "\n== cluster: replica-fleet router, failover, promotion ==\n";
  (* --- raw HTTP client plumbing (HTTP/1.0, one connection/request) --- *)
  let send_all fd s =
    let b = Bytes.unsafe_of_string s in
    let pos = ref 0 in
    while !pos < String.length s do
      pos := !pos + Unix.write fd b !pos (String.length s - !pos)
    done
  in
  let recv_until_eof fd =
    let b = Buffer.create 512 in
    let chunk = Bytes.create 4096 in
    let rec go () =
      match Unix.read fd chunk 0 4096 with
      | 0 -> ()
      | n ->
          Buffer.add_subbytes b chunk 0 n;
          go ()
      | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> ()
    in
    go ();
    Buffer.contents b
  in
  let talk port req =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        send_all fd req;
        Unix.shutdown fd Unix.SHUTDOWN_SEND;
        recv_until_eof fd)
  in
  let http_get ?(headers = []) port target =
    let hs =
      String.concat ""
        (List.map (fun (k, v) -> Printf.sprintf "%s: %s\r\n" k v) headers)
    in
    talk port (Printf.sprintf "GET %s HTTP/1.0\r\nHost: x\r\n%s\r\n" target hs)
  in
  let http_post port target =
    talk port (Printf.sprintf "POST %s HTTP/1.0\r\nHost: x\r\n\r\n" target)
  in
  let is_200 r = String.length r >= 12 && String.sub r 9 3 = "200" in
  let header_of r name =
    (* the router re-emits backend headers lowercased *)
    let lower = String.lowercase_ascii r in
    let tag = "\r\n" ^ name ^ ":" in
    match
      let nh = String.length lower and nn = String.length tag in
      let rec go i =
        if i + nn > nh then None
        else if String.sub lower i nn = tag then Some i
        else go (i + 1)
      in
      go 0
    with
    | None -> None
    | Some i -> (
        let at = i + String.length tag in
        let rest = String.sub lower at (min 64 (String.length lower - at)) in
        match String.split_on_char '\r' rest with
        | v :: _ -> int_of_string_opt (String.trim v)
        | [] -> None)
  in
  let p99_ms (a : int array) =
    let a = Array.copy a in
    Array.sort compare a;
    if Array.length a = 0 then 0.
    else float_of_int a.(min (Array.length a - 1) (Array.length a * 99 / 100)) /. 1e6
  in
  (* --- fleet plumbing ---------------------------------------------------- *)
  let cleanup_node p =
    List.iter
      (fun q -> if Sys.file_exists q then Sys.remove q)
      [ p; p ^ ".journal"; p ^ ".replid"; p ^ ".replid.tmp"; p ^ ".snap" ]
  in
  let seed path =
    let db = Database.open_ path in
    ignore (Database.define_class db "Rec" [ Meta.attr "n" Value.TInt ]);
    Database.with_tx db (fun () ->
        for i = 0 to 99 do
          ignore (Database.create db "Rec" [ ("n", Value.VInt i) ])
        done);
    Database.close db
  in
  let start_node node =
    let stop = ref false in
    let m = Mutex.create () and cv = Condition.create () in
    let bbox = ref 0 in
    let th =
      Thread.create
        (fun () ->
          try
            CP.serve node ~stop ~binary_port:0
              ~binary_ready:(fun p ->
                Mutex.lock m;
                bbox := p;
                Condition.broadcast cv;
                Mutex.unlock m)
              ~port:0 ()
          with e ->
            Printf.eprintf "cluster bench node died: %s\n%!" (Printexc.to_string e))
        ()
    in
    Mutex.lock m;
    while !bbox = 0 do
      Condition.wait cv m
    done;
    Mutex.unlock m;
    (!bbox, stop, th)
  in
  let kill_node node (bport, stop, th) =
    stop := true;
    (try
       ignore
         (Pserver.Client.close (Pserver.Client.connect ~port:bport ()))
     with _ -> ());
    (try Thread.join th with _ -> ());
    CP.shutdown node
  in
  let feed_port node =
    match node.CP.n_state with
    | CP.Leading l -> l.l_fsrv.Prepl.Feed.port
    | CP.Following _ -> failwith "bench node is not leading"
  in
  (* A fleet: one primary, [replicas] followers, one router over all of
     them.  Returns the router port plus a closure tearing it all down. *)
  let mk_fleet ?(sync_writes = false) replicas =
    let pp = tmp_path "bench_cluster_p" in
    seed pp;
    let prim = CP.create_leading ~readers:1 ~path:pp ~host:"127.0.0.1" ~repl_port:0 () in
    let upstream = Printf.sprintf "127.0.0.1:%d" (feed_port prim) in
    let lp = start_node prim in
    let reps =
      List.init replicas (fun _ ->
          let p = tmp_path "bench_cluster_r" in
          match
            CP.create_following ~readers:1 ~path:p ~host:"127.0.0.1" ~repl_port:0
              ~upstream ()
          with
          | Ok n -> (p, n, start_node n)
          | Error e -> failwith ("cluster bench follower: " ^ e))
    in
    let bport (b, _, _) = b in
    let r =
      CR.create ~sync_writes ~probe_every_s:0.05 ~fail_threshold:3
        (("127.0.0.1", bport lp)
        :: List.map (fun (_, _, ln) -> ("127.0.0.1", bport ln)) reps)
    in
    let rstop = ref false in
    let m = Mutex.create () and cv = Condition.create () in
    let pbox = ref 0 in
    let rth =
      Thread.create
        (fun () ->
          try
            CR.serve r ~stop:rstop
              ~ready:(fun p ->
                Mutex.lock m;
                pbox := p;
                Condition.broadcast cv;
                Mutex.unlock m)
              ~port:0 ()
          with e ->
            Printf.eprintf "cluster bench router died: %s\n%!" (Printexc.to_string e))
        ()
    in
    Mutex.lock m;
    while !pbox = 0 do
      Condition.wait cv m
    done;
    Mutex.unlock m;
    let teardown () =
      rstop := true;
      (try ignore (http_get !pbox "/") with _ -> ());
      (try Thread.join rth with _ -> ());
      List.iter (fun (_, n, ln) -> kill_node n ln) reps;
      kill_node prim lp;
      cleanup_node pp;
      List.iter (fun (p, _, _) -> cleanup_node p) reps
    in
    (!pbox, prim, lp, reps, teardown)
  in
  let query_target = "/query?q=count(select%20r%20from%20Rec%20r%20where%20r.n%20%3C%2050)" in
  let run_gets ?headers ~conns ~per port =
    let lat = Array.make (conns * per) 0 in
    let ok = Atomic.make 0 and stale = Atomic.make 0 in
    let min_lsn =
      match headers with
      | Some [ (_, v) ] -> Option.value (int_of_string_opt v) ~default:0
      | _ -> 0
    in
    let (), ms =
      time_once (fun () ->
          let ths =
            List.init conns (fun ci ->
                Thread.create
                  (fun () ->
                    for j = 0 to per - 1 do
                      let t0 = Pobs.Monotonic.now_ns () in
                      (try
                         let r = http_get ?headers port query_target in
                         if is_200 r then begin
                           Atomic.incr ok;
                           match header_of r "x-pdb-lsn" with
                           | Some served when served < min_lsn -> Atomic.incr stale
                           | _ -> ()
                         end
                       with _ -> ());
                      lat.((ci * per) + j) <- Pobs.Monotonic.now_ns () - t0
                    done)
                  ())
          in
          List.iter Thread.join ths)
    in
    (float_of_int (Atomic.get ok) /. (ms /. 1000.), p99_ms lat, Atomic.get ok, Atomic.get stale)
  in
  (* --- aggregate GET QPS vs replica count ------------------------------- *)
  let conns = 8 and per = 50 in
  let scaling =
    List.map
      (fun replicas ->
        let rport, _prim, _lp, _reps, teardown = mk_fleet replicas in
        (* warm the routed path once *)
        ignore (http_get rport query_target);
        let qps, p99, okc, _ = run_gets ~conns ~per rport in
        teardown ();
        Printf.printf "  %d replica%s   %8.0f GET/s   p99 %6.2f ms  (%d ok)\n%!"
          replicas
          (if replicas = 1 then " " else "s")
          qps p99 okc;
        (replicas, qps, p99, okc))
      [ 1; 2; 4 ]
  in
  let qps_at k =
    let _, qps, _, _ = List.find (fun (r, _, _, _) -> r = k) scaling in
    qps
  in
  let scaling_4_vs_1 = qps_at 4 /. qps_at 1 in
  (* --- tail latency with one lagging replica ----------------------------- *)
  (* Freeze one replica's applier (its session loop exits; the node
     stays up, healthy, role "replica", LSN frozen): tokened reads must
     steer around it — stale answers are gated at zero, and the p99
     shows the cost of the detour. *)
  let rport, prim, _lp, reps, teardown = mk_fleet 2 in
  let lagging_p99, lag_stale =
    match reps with
    | (_, lagger, _) :: _ ->
        (match lagger.CP.n_state with
        | CP.Following f -> f.f_sess.Prepl.Replica.running := false
        | CP.Leading _ -> ());
        (* advance the primary past the frozen replica *)
        let acked_lsn = ref 0 in
        for i = 0 to 19 do
          let r = http_post rport (Printf.sprintf "/create?class=Rec&n=%d" (1000 + i)) in
          match header_of r "x-pdb-lsn" with
          | Some l when l > !acked_lsn -> acked_lsn := l
          | _ -> ()
        done;
        let _, p99, _, stale =
          run_gets
            ~headers:[ ("X-PDB-Min-LSN", string_of_int !acked_lsn) ]
            ~conns ~per:25 rport
        in
        (p99, stale)
    | [] -> (0., 0)
  in
  ignore prim;
  teardown ();
  Printf.printf "  lagging replica: tokened-read p99 %6.2f ms, %d stale answers\n%!"
    lagging_p99 lag_stale;
  (* --- failover: primary kill -> first successful routed write ----------- *)
  let rport, _prim, lp, reps, teardown = mk_fleet ~sync_writes:true 2 in
  ignore (http_get rport query_target);
  let acked = ref 0 and last_lsn = ref 0 in
  let write i =
    let r = http_post rport (Printf.sprintf "/create?class=Rec&n=%d" (2000 + i)) in
    if is_200 r then begin
      incr acked;
      (match header_of r "x-pdb-lsn" with
      | Some l when l > !last_lsn -> last_lsn := l
      | _ -> ());
      true
    end
    else false
  in
  for i = 0 to 9 do
    ignore (write i)
  done;
  let stop_load = ref false in
  let rywr_violations = ref 0 in
  let reader =
    Thread.create
      (fun () ->
        while not !stop_load do
          let tok = !last_lsn in
          (try
             let r =
               http_get
                 ~headers:[ ("X-PDB-Min-LSN", string_of_int tok) ]
                 rport query_target
             in
             if is_200 r then
               match header_of r "x-pdb-lsn" with
               | Some served when served < tok -> incr rywr_violations
               | _ -> ()
           with _ -> ());
          Thread.delay 0.01
        done)
      ()
  in
  let prim_node = _prim in
  let t_kill = Unix.gettimeofday () in
  kill_node prim_node lp;
  let rec until_write i =
    if write i then Unix.gettimeofday ()
    else begin
      Thread.delay 0.01;
      until_write (i + 1)
    end
  in
  let t_ok = until_write 10 in
  let failover_ms = (t_ok -. t_kill) *. 1000. in
  for i = 1000 to 1009 do
    ignore (write i)
  done;
  stop_load := true;
  Thread.join reader;
  (* zero acknowledged writes lost: every acked create is a row over
     the 100 seeded ones, served by the promoted primary *)
  let rows =
    let r =
      http_get
        ~headers:[ ("X-PDB-Min-LSN", string_of_int !last_lsn) ]
        rport "/query?q=count(select%20r%20from%20Rec%20r)"
    in
    if not (is_200 r) then -1
    else
      let body_at =
        let nh = String.length r in
        let rec go i =
          if i + 4 > nh then nh
          else if String.sub r i 4 = "\r\n\r\n" then i + 4
          else go (i + 1)
        in
        go 0
      in
      let digits =
        String.to_seq (String.sub r body_at (String.length r - body_at))
        |> Seq.filter (fun c -> c >= '0' && c <= '9')
        |> String.of_seq
      in
      Option.value (int_of_string_opt digits) ~default:(-1)
  in
  let promoted =
    List.exists
      (fun (_, n, _) -> match n.CP.n_state with CP.Leading _ -> true | _ -> false)
      reps
  in
  teardown ();
  let acked_writes_lost = if rows < 0 then !acked else max 0 (!acked - (rows - 100)) in
  Printf.printf
    "  failover: %.0f ms to first routed write after primary kill (%d acked, %d rows, promoted=%b)\n%!"
    failover_ms !acked rows promoted;
  let cores = Domain.recommended_domain_count () in
  let floor_ok =
    if cores >= 4 then scaling_4_vs_1 >= 1.8 else scaling_4_vs_1 >= 0.5
  in
  let pass =
    floor_ok && lag_stale = 0 && acked_writes_lost = 0 && !rywr_violations = 0
    && promoted
  in
  Printf.printf
    "cluster gate: %s (4-replica vs 1-replica GET QPS: %.2fx, %d core%s; lagging-replica \
     stale reads: %d; failover %.0f ms; acked writes lost: %d; rywr violations: %d)\n"
    (if pass then "PASS" else "FAIL")
    scaling_4_vs_1 cores
    (if cores = 1 then "" else "s")
    lag_stale failover_ms acked_writes_lost !rywr_violations;
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"bench\": \"cluster\",\n";
  Buffer.add_string buf "  \"pr\": 10,\n";
  Buffer.add_string buf "  \"workloads\": [\n";
  Buffer.add_string buf
    (Printf.sprintf
       "    { \"name\": \"replica_scaling\", \"note\": \"aggregate GET QPS through \
        the router, %d closed-loop HTTP clients, count query over 100 objects, \
        replica fleet behind one router on one host; every fleet is built fresh \
        and torn down\", \"unit\": \"requests/s\",\n"
       conns);
  Buffer.add_string buf "      \"curve\": [";
  List.iteri
    (fun j (replicas, qps, p99, okc) ->
      Buffer.add_string buf
        (Printf.sprintf
           "%s{ \"replicas\": %d, \"qps\": %.0f, \"p99_ms\": %.2f, \"requests\": %d }"
           (if j = 0 then " " else ", ")
           replicas qps p99 okc))
    scaling;
  Buffer.add_string buf " ] },\n";
  Buffer.add_string buf
    (Printf.sprintf
       "    { \"name\": \"lagging_replica\", \"note\": \"one of two replicas has its \
        applier frozen; tokened reads must steer around it — stale answers gated at \
        zero\", \"lagging_p99_ms\": %.2f, \"stale_reads\": %d },\n"
       lagging_p99 lag_stale);
  Buffer.add_string buf
    (Printf.sprintf
       "    { \"name\": \"failover\", \"note\": \"primary killed under concurrent \
        semi-sync writes and tokened reads; time from kill to the first successful \
        routed write on the promoted replica; acknowledged-write loss and \
        read-your-writes violations gated at zero\", \"failover_ms\": %.0f, \
        \"acked_writes\": %d, \"rows_after\": %d, \"replica_promoted\": %b }\n"
       failover_ms !acked rows promoted);
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf "  \"acceptance\": {\n";
  Buffer.add_string buf
    "    \"criterion\": \"aggregate routed GET QPS at 4 replicas >= 1.8x the \
     1-replica fleet on >= 4 cores (>= 0.5x no-collapse floor on smaller hosts); \
     failover time recorded; zero acknowledged writes lost, zero read-your-writes \
     violations, zero stale answers from the lagging replica; a replica must be \
     promoted\",\n";
  Buffer.add_string buf (Printf.sprintf "    \"qps_1_replica\": %.0f,\n" (qps_at 1));
  Buffer.add_string buf (Printf.sprintf "    \"qps_2_replicas\": %.0f,\n" (qps_at 2));
  Buffer.add_string buf (Printf.sprintf "    \"qps_4_replicas\": %.0f,\n" (qps_at 4));
  Buffer.add_string buf
    (Printf.sprintf "    \"scaling_4_vs_1\": %.2f,\n" scaling_4_vs_1);
  Buffer.add_string buf (Printf.sprintf "    \"lagging_p99_ms\": %.2f,\n" lagging_p99);
  Buffer.add_string buf (Printf.sprintf "    \"lagging_stale_reads\": %d,\n" lag_stale);
  Buffer.add_string buf (Printf.sprintf "    \"failover_ms\": %.0f,\n" failover_ms);
  Buffer.add_string buf
    (Printf.sprintf "    \"acked_writes_lost\": %d,\n" acked_writes_lost);
  Buffer.add_string buf
    (Printf.sprintf "    \"rywr_violations\": %d,\n" !rywr_violations);
  Buffer.add_string buf (Printf.sprintf "    \"replica_promoted\": %b,\n" promoted);
  Buffer.add_string buf (Printf.sprintf "    \"cores\": %d,\n" cores);
  Buffer.add_string buf (Printf.sprintf "    \"pass\": %b\n" pass);
  Buffer.add_string buf "  }\n";
  Buffer.add_string buf "}\n";
  write_record "BENCH_PR10.json" (Buffer.contents buf)

(* ------------------------------------------------------------------ *)
(* validate: real JSON validation of emitted bench records             *)
(* ------------------------------------------------------------------ *)

(* A small strict JSON reader — enough to parse what this harness
   emits (and reject what it must not emit).  `validate FILE KEY...`
   replaces ci.sh's old grep of `"pass": false`: the file must parse,
   every KEY must be present somewhere, and no object anywhere may
   carry a false "pass". *)
module Json_check = struct
  type v =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of v list
    | Obj of (string * v) list

  exception Bad of string

  let parse (s : string) : v =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Bad (Printf.sprintf "%s at byte %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let rec skip_ws () =
      match peek () with Some (' ' | '\t' | '\n' | '\r') -> incr pos; skip_ws () | _ -> ()
    in
    let expect c =
      if !pos < n && s.[!pos] = c then incr pos
      else fail (Printf.sprintf "expected '%c'" c)
    in
    let lit word v =
      let l = String.length word in
      if !pos + l <= n && String.sub s !pos l = word then begin
        pos := !pos + l;
        v
      end
      else fail ("expected " ^ word)
    in
    let string_lit () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string"
        else
          match s.[!pos] with
          | '"' -> incr pos
          | '\\' ->
              incr pos;
              if !pos >= n then fail "unterminated escape";
              (match s.[!pos] with
              | '"' -> Buffer.add_char b '"'
              | '\\' -> Buffer.add_char b '\\'
              | '/' -> Buffer.add_char b '/'
              | 'n' -> Buffer.add_char b '\n'
              | 't' -> Buffer.add_char b '\t'
              | 'r' -> Buffer.add_char b '\r'
              | 'b' -> Buffer.add_char b '\b'
              | 'f' -> Buffer.add_char b '\012'
              | 'u' ->
                  if !pos + 4 >= n then fail "truncated \\u escape";
                  (* raw passthrough: key comparison never needs it *)
                  Buffer.add_string b (String.sub s (!pos - 1) 6);
                  pos := !pos + 4
              | c -> fail (Printf.sprintf "bad escape \\%c" c));
              incr pos;
              go ()
          | c ->
              Buffer.add_char b c;
              incr pos;
              go ()
      in
      go ();
      Buffer.contents b
    in
    let number () =
      let start = !pos in
      let is_num_char = function
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && is_num_char s.[!pos] do
        incr pos
      done;
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> Num f
      | None -> fail "bad number"
    in
    let rec value () =
      skip_ws ();
      match peek () with
      | Some '{' -> obj ()
      | Some '[' -> arr ()
      | Some '"' -> Str (string_lit ())
      | Some 't' -> lit "true" (Bool true)
      | Some 'f' -> lit "false" (Bool false)
      | Some 'n' -> lit "null" Null
      | Some ('-' | '0' .. '9') -> number ()
      | _ -> fail "expected a value"
    and obj () =
      expect '{';
      skip_ws ();
      if peek () = Some '}' then begin
        incr pos;
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws ();
          let k = string_lit () in
          skip_ws ();
          expect ':';
          let v = value () in
          fields := (k, v) :: !fields;
          skip_ws ();
          match peek () with
          | Some ',' ->
              incr pos;
              members ()
          | Some '}' -> incr pos
          | _ -> fail "expected ',' or '}'"
        in
        members ();
        Obj (List.rev !fields)
      end
    and arr () =
      expect '[';
      skip_ws ();
      if peek () = Some ']' then begin
        incr pos;
        Arr []
      end
      else begin
        let items = ref [] in
        let rec elements () =
          items := value () :: !items;
          skip_ws ();
          match peek () with
          | Some ',' ->
              incr pos;
              elements ()
          | Some ']' -> incr pos
          | _ -> fail "expected ',' or ']'"
        in
        elements ();
        Arr (List.rev !items)
      end
    in
    let v = value () in
    skip_ws ();
    if !pos <> n then fail "trailing bytes after the document";
    v

  (* every object key, plus every string value of a "name" field —
     workloads are addressed by name, so `validate FILE deep_descent`
     must find { "name": "deep_descent", ... } *)
  let rec all_keys = function
    | Obj fields ->
        List.concat_map
          (fun (k, v) ->
            match (k, v) with
            | "name", Str s -> [ k; s ]
            | _ -> k :: all_keys v)
          fields
    | Arr items -> List.concat_map all_keys items
    | _ -> []

  (* every object carrying "pass": false, as a breadcrumb path *)
  let rec failed_gates path = function
    | Obj fields ->
        let here =
          match List.assoc_opt "pass" fields with
          | Some (Bool false) -> [ path ]
          | _ -> []
        in
        here
        @ List.concat_map (fun (k, v) -> failed_gates (path ^ "." ^ k) v) fields
    | Arr items ->
        List.concat (List.mapi (fun i v -> failed_gates (Printf.sprintf "%s[%d]" path i) v) items)
    | _ -> []
end

let validate_record file keys =
  let contents =
    match open_in_bin file with
    | exception Sys_error m ->
        Printf.eprintf "validate: cannot read %s: %s\n" file m;
        exit 1
    | ic ->
        let n = in_channel_length ic in
        let s = really_input_string ic n in
        close_in ic;
        s
  in
  match Json_check.parse contents with
  | exception Json_check.Bad m ->
      Printf.eprintf "validate: %s: malformed JSON: %s\n" file m;
      exit 1
  | Json_check.Obj _ as v ->
      let present = Json_check.all_keys v in
      let missing = List.filter (fun k -> not (List.mem k present)) keys in
      if missing <> [] then begin
        Printf.eprintf "validate: %s: missing keys: %s\n" file (String.concat ", " missing);
        exit 1
      end;
      (match Json_check.failed_gates "$" v with
      | [] ->
          Printf.printf "validate: %s: ok (%d keys checked, all gates pass)\n" file
            (List.length keys)
      | gates ->
          Printf.eprintf "validate: %s: failed acceptance gates: %s\n" file
            (String.concat ", " gates);
          exit 1)
  | _ ->
      Printf.eprintf "validate: %s: top level is not a JSON object\n" file;
      exit 1

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let () =
  (* extract --out DIR wherever it appears; the first remaining
     argument is the section *)
  let rest = ref [] in
  let i = ref 1 in
  let argc = Array.length Sys.argv in
  while !i < argc do
    (match Sys.argv.(!i) with
    | "--out" when !i + 1 < argc ->
        out_dir := Sys.argv.(!i + 1);
        incr i
    | a -> rest := a :: !rest);
    incr i
  done;
  let args = List.rev !rest in
  let section = match args with s :: _ -> s | [] -> "all" in
  (match args with
  | "validate" :: file :: keys ->
      validate_record file keys;
      exit 0
  | "validate" :: [] ->
      Printf.eprintf "usage: validate FILE [KEY...]\n";
      exit 1
  | _ -> ());
  let run = function
    | "raw" -> bench_raw_performance ()
    | "micro" -> bench_micro ()
    | "queries" -> bench_queries ()
    | "struct" -> bench_struct ()
    | "fig44" -> bench_fig44 ()
    | "fig45" -> bench_fig45 ()
    | "fig46" -> bench_fig46 ()
    | "tax" -> bench_tax ()
    | "ablation" -> bench_ablation ()
    | "tables" -> bench_tables ()
    | "recovery" -> bench_recovery ()
    | "query" -> bench_query ()
    | "obs" -> bench_obs ()
    | "repl" -> bench_repl ()
    | "integrity" -> bench_integrity ()
    | "mvcc" -> bench_mvcc ()
    | "serving" -> bench_serving ()
    | "loadgen" -> bench_loadgen ()
    | "cluster" -> bench_cluster ()
    | "schema" -> print_schema ()
    | s ->
        Printf.eprintf "unknown section %s\n" s;
        exit 1
  in
  match section with
  | "all" ->
      print_schema ();
      bench_tables ();
      bench_raw_performance ();
      bench_queries ();
      bench_struct ();
      bench_fig44 ();
      bench_fig45 ();
      bench_fig46 ();
      bench_tax ();
      bench_ablation ();
      bench_micro ();
      bench_recovery ();
      bench_query ();
      bench_obs ();
      bench_repl ();
      bench_integrity ();
      bench_mvcc ();
      bench_serving ();
      bench_loadgen ();
      bench_cluster ()
  | s -> run s
