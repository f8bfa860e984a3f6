(** POOL front-end: parse and run queries against a database.

    {[
      let open Pool_lang in
      let rows = Pool.query db "select p.name from Person p where p.age > 30" in
      ...
    ]} *)

open Pmodel

type plan = { ast : Ast.expr; used_index : bool }

let parse = Parser.parse

(** Execution engine: {!Eval.default_config} runs the plan-then-run
    engine (index pushdown, hash joins, plan cache),
    {!Eval.legacy_config} the reference tree-walking interpreter that
    tests compare it against. *)
let default_config = Eval.default_config

let legacy_config = Eval.legacy_config

let m_queries = Pobs.Metrics.counter "pdb_queries_total" ~help:"POOL queries run"

let m_query_errors =
  Pobs.Metrics.counter "pdb_query_errors_total" ~help:"POOL queries that raised"

let m_parse_ns = Pobs.Metrics.histogram "pdb_query_parse_ns" ~help:"POOL parse time"

(* One histogram per dominant access path, registered up front so all
   kinds appear in /metrics from the first scrape. *)
let exec_kinds = [ "hash_join"; "index_probe"; "range_scan"; "extent_scan"; "expr" ]

let m_exec_ns =
  List.map
    (fun k ->
      ( k,
        Pobs.Metrics.histogram "pdb_query_exec_ns" ~labels:[ ("kind", k) ]
          ~help:"POOL execution time by dominant access path" ))
    exec_kinds

(* The dominant access path actually taken, from the per-query state
   counters — no plan plumbing needed, and it is accurate for the
   reference interpreter too. *)
let kind_of_state (st : Eval.state) : string =
  if st.Eval.hash_joins > 0 then "hash_join"
  else if st.Eval.index_probes > 0 then "index_probe"
  else if st.Eval.range_scans > 0 then "range_scan"
  else if st.Eval.extent_scans > 0 then "extent_scan"
  else "expr"

(* [Eval.eval]; when [plan] is given, it receives the EXPLAIN text,
   with per-binding counts, of the last select the planned engine ran
   at the query's outermost level *)
let exec ?plan st env ast =
  match plan with
  | None -> Eval.eval st env ast
  | Some f ->
      st.Eval.counting <- true;
      let v = Eval.eval st env ast in
      Option.iter (fun (p, counts) -> f (Plan.describe ~counts p)) st.Eval.counted;
      v

(** Run a POOL query string; returns the result value (a [VList] of
    rows for select queries).  [plan], when given, receives the EXPLAIN
    text of the last select the planned engine ran at the query's
    outermost level, with each binding's counts (see {!explain}). *)
let query ?(env = []) ?config ?plan (db : Database.t) (src : string) : Value.t =
  if not !Pobs.Metrics.enabled then begin
    (* metrics off: the untimed PR3 hot path, one branch of overhead *)
    let ast = Pobs.Trace.with_span "pool.parse" (fun () -> Parser.parse src) in
    let st = Eval.make_state ?config db in
    Pobs.Trace.with_span "pool.exec" (fun () -> exec ?plan st env ast)
  end
  else
    Pobs.Trace.with_span "pool.query" ~attrs:[ ("query", src) ] (fun () ->
        Pobs.Metrics.inc m_queries;
        match
          let ast =
            Pobs.Trace.with_span "pool.parse" (fun () ->
                Pobs.Metrics.time m_parse_ns (fun () -> Parser.parse src))
          in
          let st = Eval.make_state ?config db in
          let t0 = Pobs.Monotonic.now_ns () in
          let v = Pobs.Trace.with_span "pool.exec" (fun () -> exec ?plan st env ast) in
          let dur_ns = Pobs.Monotonic.now_ns () - t0 in
          let kind = kind_of_state st in
          (match List.assoc_opt kind m_exec_ns with
          | Some h -> Pobs.Metrics.observe_ns h dur_ns
          | None -> ());
          Pobs.Trace.add_attr "kind" kind;
          Pobs.Slowlog.note ~kind ~dur_ns src;
          v
        with
        | v -> v
        | exception e ->
            Pobs.Metrics.inc m_query_errors;
            raise e)

(** Run a query and return the rows of a select as a list. *)
let rows ?env ?config db src : Value.t list =
  match query ?env ?config db src with
  | Value.VList l | Value.VSet l | Value.VBag l -> l
  | v -> [ v ]

(** Run a query expected to produce a single scalar (e.g.
    [count(select ...)]). *)
let scalar ?env ?config db src : Value.t =
  match query ?env ?config db src with Value.VList [ v ] -> v | v -> v

(** Run a query and report whether an index probe was used — exposed
    for the index-ablation benchmark. *)
let query_explain ?(env = []) ?config db src : Value.t * [ `Index_probe | `Extent_scan ] =
  let ast = Parser.parse src in
  let st = Eval.make_state ?config db in
  let v = Eval.eval st env ast in
  ((v : Value.t), if st.Eval.index_probes > 0 then `Index_probe else `Extent_scan)

(** Compile a query and render its physical plan (EXPLAIN): one
    [var<-access] per range, then the hoisted slots and scan filters.
    With [~counts:true] the query runs under the planned engine, and
    each binding shows what it touched, summed over its outer rows:
    the candidates its access path offered, how many its class test or
    scan filter rejected, and how many it emitted (bound).  The plan
    shown is then that of the last select run at the query's outermost
    level. *)
let explain ?(env = []) ?(counts = false) db src : string =
  match Parser.parse src with
  | ast when counts ->
      let text = ref "expr" in
      ignore (exec ~plan:(fun p -> text := p) (Eval.make_state db) env ast);
      !text
  | Ast.Select s ->
      Plan.describe (Plan.compile db ~bound:(List.map fst env) (fst (Plan.parameterise s)))
  | _ -> "expr"

(** Evaluate a boolean POOL expression — used by rule conditions. *)
let check ?(env = []) ?config db src : bool =
  match query ~env ?config db src with
  | Value.VBool b -> b
  | Value.VList l -> l <> []
  | v -> not (Value.is_null v)

(** Cumulative query-engine statistics for [db] (probes, range scans,
    hash joins, plan-cache hits/misses). *)
let stats = Eval.db_stats
