(** [oo7_layers]: the thesis's OO7 experiment (ch. 7, figs 44-46), run
    in-process.  OO7 "small" with 400 composite parts, built twice — on
    the Prometheus object layer and on the raw store — both with the
    256-page pool the figure sweeps use.  Each round runs T1, T5, Q1,
    Q7, S1 and S2 on both backends and checks their results.

    Once the objects are in memory, neither backend's operations read
    through the pager: the Prometheus object layer mirrors every object
    at open, and the raw backend caches each object it has fetched.  The
    pool's read path (misses, evictions) runs only while the stores are
    read cold, which the traced replay measures on its own. *)

open Pmodel
module O7 = Oo7bench.Oo7_schema
module Ops = Oo7bench.Oo7_ops
module Raw = Oo7bench.Oo7_raw
module T = Pobs.Trace

let cache_pages = 256
let composites = 400
let s1_k = 5
let s1_parts = 10

(* S1 issues, per composite: composite, document, HasDoc, the parts and
   their HasPart links, RootPart, the Connects ring and UsesPrivate. *)
let s1_mutations = s1_k * (5 + (3 * s1_parts))

type pair = {
  prom : Ops.Prom.ctx;
  raw : Ops.Raw.ctx;
  prom_path : string;
  raw_path : string;
  t1_expect : int list * int list; (* per backend *)
  parts0 : int list; (* composite and atomic parts as generated *)
  objects0 : int * int; (* objects in each store as generated *)
}

(* T1 visits every atomic part of every composite a base assembly
   uses; the two generators draw the sharing independently, so each
   backend is checked against its own structure. *)
let t1_expect (prom : Ops.Prom.ctx) (raw : Ops.Raw.ctx) =
  let per = O7.small.O7.num_atomic_per_comp in
  let uses l f = List.fold_left (fun a ba -> a + List.length (f ba)) 0 l in
  ( [ per * uses (Ops.Prom.base_assemblies prom) (Ops.Prom.components prom.Ops.Prom.db) ],
    [ per * uses (Ops.Raw.base_assemblies raw) (fun ba -> Raw.refs raw.Ops.Raw.t ba "components") ] )

(* Composite and atomic parts in each backend's database: the
   Prometheus extents, and the raw backend's objects by class. *)
let prom_parts (p : Ops.Prom.ctx) =
  let n cls = Database.OidSet.cardinal (Database.extent p.Ops.Prom.db cls) in
  [ n O7.composite_part; n O7.atomic_part ]

let raw_parts (r : Ops.Raw.ctx) =
  let c, a =
    Hashtbl.fold
      (fun _ (o : Obj.t) (c, a) ->
        if o.Obj.class_name = O7.composite_part then (c + 1, a)
        else if o.Obj.class_name = O7.atomic_part then (c, a + 1)
        else (c, a))
      r.Ops.Raw.t.Raw.cache (0, 0)
  in
  [ c; a ]

let store_objects (p : pair) =
  (Pstore.Store.count (Database.store p.prom.Ops.Prom.db), Pstore.Store.count p.raw.Ops.Raw.t.Raw.store)

let build ~work ~seed : pair =
  let prom_path = Filename.concat work "oo7_prom.db" and raw_path = Filename.concat work "oo7_raw.db" in
  Proc.remove_db prom_path;
  Proc.remove_db raw_path;
  let params = { (O7.with_composites O7.small composites) with O7.seed } in
  let pdb = Database.open_ ~cache_pages prom_path in
  O7.install pdb;
  let ph = Oo7bench.Oo7_gen.generate pdb params in
  (* Q1 goes through the index layer on the Prometheus side, as in the
     thesis (6.1.5.2) *)
  Database.create_index pdb O7.atomic_part "id";
  let rdb = Raw.open_ ~cache_pages raw_path in
  let rh = Raw.generate rdb params in
  let prom = { Ops.Prom.db = pdb; h = ph } and raw = { Ops.Raw.t = rdb; h = rh } in
  let p =
    { prom; raw; prom_path; raw_path; t1_expect = t1_expect prom raw; parts0 = prom_parts prom; objects0 = (0, 0) }
  in
  { p with objects0 = store_objects p }

let close (p : pair) =
  Database.close p.prom.Ops.Prom.db;
  Raw.close p.raw.Ops.Raw.t

(** One operation on both backends: its name, and a result per side.
    S1 and S2 answer nothing themselves; {!round} counts the parts they
    leave behind. *)
let ops : (string * (Ops.Prom.ctx -> int list) * (Ops.Raw.ctx -> int list)) list =
  let s1_made = ref ([], []) in
  let one f c = [ f c ] in
  [
    ("T1", one Ops.Prom.t1, one Ops.Raw.t1);
    ("T5", one Ops.Prom.t5, one Ops.Raw.t5);
    ("Q1", one (Ops.Prom.q1 ~n:10), one (Ops.Raw.q1 ~n:10));
    ("Q7", one Ops.Prom.q7, one Ops.Raw.q7);
    ( "S1",
      (fun p ->
        s1_made := (Ops.Prom.s1 p ~k:s1_k ~parts_per_comp:s1_parts, snd !s1_made);
        []),
      fun r ->
        s1_made := (fst !s1_made, Ops.Raw.s1 r ~k:s1_k ~parts_per_comp:s1_parts);
        [] );
    ( "S2",
      (fun p ->
        Ops.Prom.s2 p (fst !s1_made);
        []),
      fun r ->
        Ops.Raw.s2 r (snd !s1_made);
        [] );
  ]

let reads = [ "T1"; "T5"; "Q1"; "Q7" ]

(** What each backend must answer: T1 its own count (see
    {!t1_expect}); after S1 the generated parts plus S1's, after S2 the
    generated parts again; the rest the same on both backends. *)
let agrees (p : pair) op vp vr =
  match (op, p.parts0) with
  | "T1", _ -> (vp, vr) = p.t1_expect
  | "S1", [ c; a ] -> vp = vr && vp = [ c + s1_k; a + (s1_k * s1_parts) ]
  | "S2", _ -> vp = vr && vp = p.parts0
  | _ -> vp = vr

type round = {
  prom_ms : (string * float) list;
  raw_ms : (string * float) list;
  mismatches : int; (* operations a backend answered wrongly *)
  t5 : int list; (* T5 walks the generated composites: the same every round *)
}

(** One round: every operation on Prometheus, then on the raw store
    ([span] wraps each call when tracing). *)
let round ?(span = fun _ f -> f ()) (p : pair) : round =
  let time name f =
    let t0 = Proc.now_ns () in
    let v = span name f in
    (v, Proc.ms_since t0)
  in
  let results =
    List.map
      (fun (op, fp, fr) ->
        let vp, tp = time ("oo7.prom." ^ op) (fun () -> fp p.prom) in
        let vr, tr = time ("oo7.raw." ^ op) (fun () -> fr p.raw) in
        let vp, vr = if op = "S1" || op = "S2" then (prom_parts p.prom, raw_parts p.raw) else (vp, vr) in
        (op, tp, tr, vp, agrees p op vp vr))
      ops
  in
  {
    prom_ms = List.map (fun (op, tp, _, _, _) -> (op, tp)) results;
    raw_ms = List.map (fun (op, _, tr, _, _) -> (op, tr)) results;
    mismatches = List.length (List.filter (fun (_, _, _, _, ok) -> not ok) results);
    t5 = List.find_map (fun (op, _, _, v, _) -> if op = "T5" then Some v else None) results |> Option.get;
  }

(** Failed operations over [rounds]: both sides of every wrong answer,
    and T5 of every round that does not walk what the first did. *)
let round_failures (rounds : round list) =
  match rounds with
  | [] -> 0
  | r0 :: _ -> List.fold_left (fun a r -> a + (2 * r.mismatches) + if r.t5 <> r0.t5 then 2 else 0) 0 rounds

(** Each store whose object count the rounds' S2 did not bring back to
    the generated one. *)
let store_failures (p : pair) =
  let po, ro = store_objects p and po0, ro0 = p.objects0 in
  if po <> po0 || ro <> ro0 then
    Printf.eprintf "perfbench: objects %d/%d after the rounds, %d/%d generated\n%!" po ro po0 ro0;
  (if po <> po0 then 1 else 0) + if ro <> ro0 then 1 else 0

let setup_reps = 5

(** Rounds every run makes: twice the hundred a p90 needs to have ten
    beyond it. *)
let min_rounds = 200

(** Peak memory is taken after this many rounds (within the rounds
    every run makes), so a faster program does not read as a bigger
    one. *)
let checkpoint = 150

let context_json (p : pair) ~seed =
  let pages db = (Pstore.Store.stats ~count_objects:false db).Pstore.Store.pages in
  Printf.sprintf
    "{\"objects\": %d, \"prom_pages\": %d, \"raw_pages\": %d, \"pager_cache_pages\": %d, \"seed\": %d, \
     \"composites\": %d, \"connections\": 0, \"loop\": \"closed, in-process rounds\"}"
    (Pstore.Store.stats (Database.store p.prom.Ops.Prom.db)).Pstore.Store.objects
    (pages (Database.store p.prom.Ops.Prom.db))
    (pages p.raw.Ops.Raw.t.Raw.store) cache_pages seed composites

type outcome = { attempted : int; failed : int }

let sum_of names (ms : (string * float) list) =
  List.fold_left (fun a (op, t) -> if List.mem op names then a +. t else a) 0. ms

let n_ops = 2 * List.length ops

(** Operations per second of a round's timed calls. *)
let round_rate r =
  float_of_int n_ops
  /. ((sum_of (List.map fst r.prom_ms) r.prom_ms +. sum_of (List.map fst r.raw_ms) r.raw_ms) /. 1e3)

let run_e2e ~work ~seed ~seconds =
  let timed_build () =
    let t0 = Proc.now_ns () in
    let p = build ~work ~seed in
    (p, Proc.s_since t0)
  in
  let p, first_setup = timed_build () in
  let context = context_json p ~seed in
  let t0 = Proc.now_ns () in
  let rounds = ref [] and n = ref 0 and rss = ref nan in
  let cap_s = max 60. (3. *. seconds) in
  while
    let el = Proc.s_since t0 in
    el < cap_s && (el < seconds || !n < min_rounds)
  do
    rounds := round p :: !rounds;
    incr n;
    if !n = checkpoint then rss := Proc.peak_rss_mib "self"
  done;
  if Float.is_nan !rss then begin
    prerr_endline "perfbench: the run ended before its checkpoint; memory taken at its end";
    rss := Proc.peak_rss_mib "self"
  end;
  let failed = round_failures !rounds + store_failures p in
  close p;
  let store = Proc.store_mib p.prom_path +. Proc.store_mib p.raw_path in
  (* the other set-ups come after the run, so that what they leave on
     the heap stays out of its peak memory *)
  let setups =
    first_setup
    :: List.init (setup_reps - 1) (fun _ ->
           let p, s = timed_build () in
           close p;
           s)
  in
  let read_ms = List.map (fun r -> sum_of reads r.prom_ms) !rounds in
  let write_ms = List.map (fun r -> sum_of [ "S1"; "S2" ] r.prom_ms) !rounds in
  let pct p xs = Option.get (Util.percentile ~p xs) in
  let m name value = { Util.name; value; unit_ = Spec.unit_of_e2e name } in
  ( { attempted = !n * n_ops; failed },
    [
      m "ops_per_s" (Util.median (List.map round_rate !rounds));
      m "setup_s" (Util.median setups);
      m "peak_rss_mib" !rss;
      m "read_p50_ms" (pct 50. read_ms);
      m "read_p90_ms" (pct 90. read_ms);
      m "write_p50_ms" (pct 50. write_ms);
      m "store_mib" store;
    ],
    Printf.sprintf "%s, \"setup_samples_s\": [%s]}"
      (String.sub context 0 (String.length context - 1))
      (String.concat ", " (List.map (Printf.sprintf "%.4f") setups)) )

(** The per-layer run: rounds untraced, twice as many traced, as many
    untraced again (warm-up and heap growth fall on both sides alike;
    the ratio is the tracing overhead), then the pager's read path: both
    stores reopened cold, with their 256-page pools, and one round run
    on them. *)
let run_trace ~work ~seed ~seconds =
  let p = build ~work ~seed in
  let context = context_json p ~seed in
  let t0 = Proc.now_ns () in
  let untraced = ref [] in
  while Proc.s_since t0 < 0.2 *. seconds do
    untraced := round p :: !untraced
  done;
  let n = List.length !untraced in
  let wall_u1 = Proc.s_since t0 in
  let (traced, wall_t, deliv_s1), spans =
    Layers.traced (fun () ->
        let deliv = ref 0. in
        let span name f =
          if name = "oo7.prom.S1" then begin
            let d0 = Pobs.Metrics.counter_value Layers.deliveries in
            let v = T.with_span name f in
            deliv := !deliv +. (Pobs.Metrics.counter_value Layers.deliveries -. d0);
            v
          end
          else T.with_span name f
        in
        let t0 = Proc.now_ns () in
        let rs = List.init (2 * n) (fun _ -> round ~span p) in
        (rs, Proc.s_since t0, !deliv))
  in
  let t0 = Proc.now_ns () in
  let untraced2 = List.init n (fun _ -> round p) in
  let wall_u = wall_u1 +. Proc.s_since t0 in
  let warm = !untraced @ traced @ untraced2 in
  let failed_warm = round_failures warm + store_failures p in
  close p;
  (* cold: the Prometheus open reads every page into its mirror, the raw
     store reads each object's page on first use (T5 and Q7 fetch every
     composite and atomic part before S1, so [raw_parts] sees them all) *)
  let t0 = Proc.now_ns () in
  let pdb = Database.open_ ~cache_pages p.prom_path in
  let open_s = Proc.s_since t0 in
  let cold = { p with prom = { p.prom with Ops.Prom.db = pdb }; raw = { p.raw with Ops.Raw.t = Raw.open_ ~cache_pages p.raw_path } } in
  let r_cold = round cold in
  let stats =
    List.map
      (fun s -> Pstore.Store.stats ~count_objects:false s)
      [ Database.store pdb; cold.raw.Ops.Raw.t.Raw.store ]
  in
  let failed_cold = round_failures [ List.hd warm; r_cold ] + store_failures cold in
  close cold;
  let total f = List.fold_left (fun a s -> a + f s) 0 stats in
  let hits = total (fun s -> s.Pstore.Store.cache_hits) and misses = total (fun s -> s.Pstore.Store.cache_misses) in
  let mean_of side op = Layers.mean_ms (Layers.named (Printf.sprintf "oo7.%s.%s" side op) spans) in
  let layer =
    List.concat_map
      (fun op ->
        let pm = mean_of "prom" op and rm = mean_of "raw" op in
        [ ("oo7.prom_ms." ^ op, pm); ("oo7.raw_ms." ^ op, rm); ("oo7.overhead." ^ op, Layers.ratio pm rm) ])
      Spec.oo7_ops
    @ [
        ("model.mutation_us", 1e3 *. mean_of "prom" "S1" /. float_of_int s1_mutations);
        ("model.open_s", open_s);
        ("event.deliveries_per_write", deliv_s1 /. float_of_int (2 * n * s1_mutations));
        ("storage.cache_hit_ratio", Layers.ratio_i hits (hits + misses));
        ("storage.evictions_per_op", Layers.ratio_i (total (fun s -> s.Pstore.Store.evictions)) n_ops);
        ("storage.page_reads_per_op", Layers.ratio_i (total (fun s -> s.Pstore.Store.page_reads)) n_ops);
        ("trace.overhead_ratio", wall_t /. wall_u);
      ]
  in
  ( { attempted = (List.length warm + 1) * n_ops; failed = failed_warm + failed_cold },
    layer,
    Printf.sprintf "%s, \"cold_pass\": \"open and one round on both stores\"}"
      (String.sub context 0 (String.length context - 1)) )
