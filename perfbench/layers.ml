(** Per-layer accounting for the traced replays: the spans this
    benchmark records around calls into each layer, and the counters
    the program already keeps, read before and after. *)

open Pmodel
module T = Pobs.Trace
module M = Pobs.Metrics

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

(** Run [f] with tracing on and a ring large enough to keep every span
    it records; returns its result and the spans. *)
let traced (f : unit -> 'a) : 'a * T.span list =
  T.set_capacity (1 lsl 21);
  T.clear ();
  T.enabled := true;
  let v = Fun.protect ~finally:(fun () -> T.enabled := false) f in
  let spans = T.spans () in
  if T.dropped () > 0 then failwith "trace ring overflowed";
  T.set_capacity 512;
  (v, spans)

let named name (spans : T.span list) = List.filter (fun s -> s.T.name = name) spans
let durs_ms ss = List.map (fun s -> float_of_int s.T.dur_ns /. 1e6) ss

(** Mean duration in ms of the spans, 0 when there are none. *)
let mean_ms ss = match ss with [] -> 0. | _ -> Util.mean (durs_ms ss)

(** The outermost ancestor of each span still in [spans]. *)
let root_of (spans : T.span list) : T.span -> T.span =
  let by_id = Hashtbl.create (List.length spans) in
  List.iter (fun s -> Hashtbl.replace by_id s.T.id s) spans;
  let rec up s = match Hashtbl.find_opt by_id s.T.parent with Some p -> up p | None -> s in
  up

let attr k (s : T.span) = List.assoc_opt k s.T.attrs

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

(* The program's own process-wide families; registration is idempotent,
   so these are the very counters the layers increment. *)
let deliveries = M.counter "pdb_event_deliveries_total" ~help:"Event deliveries to subscribers"
let csr_build_ns = M.histogram "pdb_csr_build_ns" ~help:"CSR snapshot build time"
let fsync_ns = M.histogram "pdb_pager_fsync_ns" ~help:"fsync latency"

type counters = {
  reads : int;
  writes : int;
  hits : int;
  misses : int;
  evictions : int;
  journal : int;
  plan_hits : int;
  plan_misses : int;
  extent_scans : int;
  csr_builds : int;
  deliv : float;
  csr_ns : float;
  csr_n : int;
  fsync_sum : float;
  fsync_n : int;
}

let counters (db : Database.t) : counters =
  let s = Pstore.Store.stats ~count_objects:false (Database.store db) in
  let q = Pool_lang.Pool.stats db in
  {
    reads = s.Pstore.Store.page_reads;
    writes = s.Pstore.Store.page_writes;
    hits = s.Pstore.Store.cache_hits;
    misses = s.Pstore.Store.cache_misses;
    evictions = s.Pstore.Store.evictions;
    journal = s.Pstore.Store.journal_bytes;
    plan_hits = q.Pool_lang.Eval.plan_cache_hits;
    plan_misses = q.Pool_lang.Eval.plan_cache_misses;
    extent_scans = q.Pool_lang.Eval.extent_scans;
    csr_builds = q.Pool_lang.Eval.adjacency_rebuilds;
    deliv = M.counter_value deliveries;
    csr_ns = M.hist_sum csr_build_ns;
    csr_n = M.hist_total csr_build_ns;
    fsync_sum = M.hist_sum fsync_ns;
    fsync_n = M.hist_total fsync_ns;
  }

let ratio a b = if b = 0. then 0. else a /. b
let ratio_i a b = ratio (float_of_int a) (float_of_int b)

(* ------------------------------------------------------------------ *)
(* The report                                                          *)
(* ------------------------------------------------------------------ *)

(** Every per-layer metric, in catalogue order: the ones in [got] with
    their values, the rest as 0 — a layer this workload does not
    exercise — named on stderr. *)
let complete ~workload (got : (string * float) list) : Util.metric list =
  let missing = List.filter (fun (n, _) -> not (List.mem_assoc n got)) Spec.per_layer in
  if missing <> [] then
    Printf.eprintf "perfbench: %s does not exercise (reported as 0): %s\n%!" workload
      (String.concat ", " (List.map fst missing));
  List.map
    (fun (name, unit_) ->
      { Util.name; unit_; value = Option.value ~default:0. (List.assoc_opt name got) })
    Spec.per_layer
