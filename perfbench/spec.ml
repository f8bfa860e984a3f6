(** The benchmark's metric catalogue: every metric a run may print, with
    its unit.  [BENCHMARK.json] lists the same names (the unit tests
    check that the two agree). *)

type e2e = { e_name : string; e_unit : string; better : [ `Lower | `Higher ]; bound : float }

let workloads = [ "flora_browse"; "flora_revise"; "oo7_layers" ]

(** End-to-end metrics, reported by every workload with tracing off. *)
let end_to_end =
  [
    { e_name = "ops_per_s"; e_unit = "1/s"; better = `Higher; bound = 0.25 };
    { e_name = "setup_s"; e_unit = "s"; better = `Lower; bound = 0.25 };
    { e_name = "peak_rss_mib"; e_unit = "MiB"; better = `Lower; bound = 0.10 };
    { e_name = "read_p50_ms"; e_unit = "ms"; better = `Lower; bound = 0.25 };
    { e_name = "read_p90_ms"; e_unit = "ms"; better = `Lower; bound = 0.25 };
    { e_name = "write_p50_ms"; e_unit = "ms"; better = `Lower; bound = 0.25 };
    { e_name = "store_mib"; e_unit = "MiB"; better = `Lower; bound = 0.05 };
  ]

let oo7_ops = [ "T1"; "T5"; "Q1"; "Q7"; "S1"; "S2" ]

(** Query classes whose execution time is reported per class: the
    browse mix, and the revise read-back. *)
let exec_classes = [ "name_lookup"; "placement"; "subtree"; "specimens"; "context_query"; "readback" ]

(** Per-layer metrics, reported by the traced replay of every workload;
    a layer a workload does not exercise reads 0 and is named in the
    run's report. *)
let per_layer : (string * string) list =
  [
    ("server.codec_us", "us");
    ("server.dispatch_ms", "ms");
    ("server.wire_overhead_ms", "ms");
    ("pool.parse_us", "us");
  ]
  @ List.map (fun c -> ("pool.exec_ms." ^ c, "ms")) exec_classes
  @ [
      ("pool.plan_cache_hit_ratio", "ratio");
      ("pool.extent_scans_per_request", "count");
      ("graph.csr_builds_per_1k_requests", "count");
      ("graph.csr_build_ms", "ms");
      ("graph.traverse_us", "us");
      ("model.mutation_us", "us");
      ("model.commit_ms", "ms");
      ("model.open_s", "s");
      ("event.deliveries_per_write", "count");
      ("storage.fsync_ms", "ms");
      ("storage.page_writes_per_commit", "count");
      ("storage.journal_bytes_per_commit", "B");
      ("storage.write_amp", "ratio");
      ("storage.cache_hit_ratio", "ratio");
      ("storage.evictions_per_op", "count");
      ("storage.page_reads_per_op", "count");
    ]
  @ List.map (fun op -> ("oo7.prom_ms." ^ op, "ms")) oo7_ops
  @ List.map (fun op -> ("oo7.raw_ms." ^ op, "ms")) oo7_ops
  @ List.map (fun op -> ("oo7.overhead." ^ op, "ratio")) oo7_ops
  @ [
      ("repl.ship_bytes_per_commit", "B");
      ("repl.apply_us_per_record", "us");
      ("trace.overhead_ratio", "ratio");
    ]

let unit_of_e2e name = (List.find (fun e -> e.e_name = name) end_to_end).e_unit
