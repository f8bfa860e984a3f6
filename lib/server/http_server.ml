(** The HTTP front-end to a Prometheus database (thesis 6.1.7).

    The thesis prototype exposed the database to user interfaces
    through an HTTP server; this module provides the same access path:

    - [GET /]            — usage;
    - [GET /query?q=...] — run a POOL query (URL-encoded), text result;
    - [GET /check?q=...] — static-check a POOL query;
    - [GET /schema]      — the schema, classes and relationship classes;
    - [GET /contexts]    — the classifications in the database;
    - [GET /stats]       — storage/query/observability statistics, JSON;
    - [GET /metrics]     — Prometheus text exposition (format 0.0.4);
    - [POST /create?class=C&attr=v...]                  — create an object;
    - [POST /update?oid=N&attr=A&value=V]               — set an attribute;
    - [POST /delete?oid=N]                              — delete (cascades);
    - [POST /link?rel=R&origin=N&destination=M]         — relate two objects;
    - [POST /unlink?oid=N]                              — remove a rel instance.

    {b I/O model}: all connections are served by an {!Event_loop} —
    non-blocking sockets multiplexed through epoll/select on one loop
    thread, with request handlers running on worker threads.  The loop
    gives every mode HTTP keep-alive and pipelining, bounded buffers,
    admission control (503 + [Retry-After] over [max_conns]), and the
    slowloris bounds (414/431 on oversized framing, 408 on a request
    trickling past the deadline).  Responses keep the [HTTP/1.0]
    status line of the original server; keep-alive is honoured when
    the client asks for it (HTTP/1.1 default, or an explicit
    [Connection: keep-alive]) and framed by [Content-Length].

    Two execution modes:

    {b Legacy} ([readers = 0], the default): one worker thread — all
    handlers run single-threaded against the live handle, mutations
    inside [Database.with_tx].  This is the mode the object layer's
    single-user heritage assumes, kept bit-compatible for tests and
    small deployments; the event loop still multiplexes any number of
    concurrent connections onto that one executor.

    {b Snapshot serving} ([readers = N > 0], or an explicit [?pool]):
    GET traffic is routed to a {!Reader_pool} of N reader domains, each
    holding a frozen [Database.snapshot] view refreshed at a bounded
    LSN lag; mutations are funnelled through a [Database.Writer] group
    so concurrent HTTP writers share fsync cycles.  Read-your-writes:
    every mutating response carries an [X-PDB-LSN] header; a GET
    presenting [X-PDB-Min-LSN] waits (bounded) for a refresh to catch
    up or falls through to the primary handle, serialised with the
    write stream.  Responses state their route in [X-PDB-Route]
    ([pool] or [primary]).  A read-only replica given an external
    [?pool] serves the same way but answers 503 when it cannot catch up
    to a client's token.

    {b Binary protocol}: [?binary_port] opens a second listener
    speaking {!Binary_proto} — length-prefixed CRC-framed Query/Batch
    frames for POOL queries, answered from the same pool/writer
    plumbing.  One [Batch] frame costs one read burst and one write
    per side for N queries; see {!Client} for the reference client. *)

open Pmodel

let url_decode (s : string) : string =
  let b = Buffer.create (String.length s) in
  let i = ref 0 in
  let n = String.length s in
  while !i < n do
    (match s.[!i] with
    | '+' -> Buffer.add_char b ' '
    | '%' when !i + 2 < n ->
        (try
           Buffer.add_char b (Char.chr (int_of_string ("0x" ^ String.sub s (!i + 1) 2)));
           i := !i + 2
         with _ -> Buffer.add_char b '%')
    | c -> Buffer.add_char b c);
    incr i
  done;
  Buffer.contents b

let parse_request_line line =
  match String.split_on_char ' ' line with
  | [ meth; target; _version ] -> Some (meth, target)
  | _ -> None

let split_target target =
  match String.index_opt target '?' with
  | None -> (target, [])
  | Some i ->
      let path = String.sub target 0 i in
      let qs = String.sub target (i + 1) (String.length target - i - 1) in
      let params =
        String.split_on_char '&' qs
        |> List.filter_map (fun kv ->
               match String.index_opt kv '=' with
               | Some j ->
                   Some
                     ( String.sub kv 0 j,
                       url_decode (String.sub kv (j + 1) (String.length kv - j - 1)) )
               | None -> Some (kv, ""))
      in
      (path, params)

let schema_text db =
  let schema = Database.schema db in
  let b = Buffer.create 512 in
  List.iter
    (fun (c : Meta.class_def) ->
      if c.Meta.class_name = "" || c.Meta.class_name.[0] <> '_' then
        Buffer.add_string b
          (Printf.sprintf "class %s supers=[%s] attrs=[%s]%s\n" c.Meta.class_name
             (String.concat "," c.Meta.supers)
             (String.concat ","
                (List.map (fun (a : Meta.attr_def) -> a.Meta.attr_name) c.Meta.attrs))
             (if c.Meta.abstract then " abstract" else "")))
    (List.sort compare (Meta.classes schema));
  List.iter
    (fun (r : Meta.rel_def) ->
      Buffer.add_string b
        (Printf.sprintf "rel %s : %s -> %s (%s)\n" r.Meta.rel_name r.Meta.origin
           r.Meta.destination
           (match r.Meta.kind with Meta.Aggregation -> "aggregation" | Meta.Association -> "association")))
    (List.sort compare (Meta.rels schema));
  Buffer.contents b

let usage =
  "Prometheus HTTP interface\n\
   GET /query?q=<pool query>   run a POOL query\n\
   GET /check?q=<pool query>   static-check a POOL query\n\
   GET /schema                 list classes and relationship classes\n\
   GET /contexts               list classifications\n\
   GET /stats                  storage/query/observability statistics (JSON)\n\
   GET /metrics                Prometheus text exposition\n\
   POST /create?class=C&a=v     create an object (other params are attributes)\n\
   POST /update?oid=N&attr=A&value=V\n\
   POST /delete?oid=N           delete an object (cascades)\n\
   POST /link?rel=R&origin=N&destination=M[&context=K]\n\
   POST /unlink?oid=N           remove a relationship instance\n\
   Mutating responses carry X-PDB-LSN; send it back as X-PDB-Min-LSN\n\
   on GETs for read-your-writes.\n"

(* --- observability surfaces ------------------------------------------- *)

let m_requests =
  Pobs.Metrics.counter "pdb_http_requests_total" ~help:"HTTP requests handled"

let m_request_ns = Pobs.Metrics.histogram "pdb_http_request_ns" ~help:"HTTP request latency"

let m_bin_queries =
  Pobs.Metrics.counter "pdb_binary_queries_total"
    ~help:"POOL queries answered over the binary protocol"

let m_fallthrough =
  Pobs.Metrics.counter "pdb_serving_fallthrough_total"
    ~help:"Reads that fell through the snapshot pool to the primary handle"

let m_group_writes =
  Pobs.Metrics.counter "pdb_serving_group_writes_total"
    ~help:"HTTP mutations routed through the group-commit writer"

let g_objects = Pobs.Metrics.gauge "pdb_store_objects" ~help:"Objects in the database"
let g_pages = Pobs.Metrics.gauge "pdb_store_pages" ~help:"Pages in the database file"

(* Gauges are snapshots of store state, refreshed at scrape time.  The
   object count comes from the mirror, not a B-tree walk: scrapes run
   concurrently with the group writer in pool mode, and walking the
   live tree through the page cache from another thread is unsafe. *)
let refresh_gauges db =
  let s = Pstore.Store.stats ~count_objects:false (Database.store db) in
  Pobs.Metrics.seti g_objects (Database.object_count db);
  Pobs.Metrics.seti g_pages s.Pstore.Store.pages

(** The /metrics body: the whole process-wide registry in Prometheus
    text exposition format.  [ensure_metrics] forces the rule-engine
    module to link so its families are present even before any rule is
    loaded. *)
let metrics_text db : string =
  Prules.Engine.ensure_metrics ();
  refresh_gauges db;
  Pobs.Metrics.expose ()

let metrics_content_type = "text/plain; version=0.0.4; charset=utf-8"

(** The /stats body: a JSON superset of the old plaintext document —
    per-database storage and query counters, observability switches,
    the slow-query log, and a JSON mirror of the metric registry.  All
    serialisation goes through {!Pobs.Json}, so no attribute value can
    produce malformed output.  [?serving], when present, contributes a
    "serving" section (snapshot pool + group writer + event loop). *)
let stats_json ?serving (db : Database.t) : string =
  Prules.Engine.ensure_metrics ();
  refresh_gauges db;
  let s = Pstore.Store.stats ~count_objects:false (Database.store db) in
  let q = Pool_lang.Pool.stats db in
  let open Pobs.Json in
  let sections =
    [
      ( "storage",
        Obj
          [
            ("objects", Int (Database.object_count db));
            ("pages", Int s.Pstore.Store.pages);
            ("page_reads", Int s.Pstore.Store.page_reads);
            ("page_writes", Int s.Pstore.Store.page_writes);
            ("cache_hits", Int s.Pstore.Store.cache_hits);
            ("cache_misses", Int s.Pstore.Store.cache_misses);
            ("evictions", Int s.Pstore.Store.evictions);
            ("journal_bytes", Int s.Pstore.Store.journal_bytes);
          ] );
      ( "query",
        Obj
          [
            ("index_probes", Int q.Pool_lang.Eval.index_probes);
            ("range_scans", Int q.Pool_lang.Eval.range_scans);
            ("hash_joins", Int q.Pool_lang.Eval.hash_joins);
            ("extent_scans", Int q.Pool_lang.Eval.extent_scans);
            ("plan_cache_hits", Int q.Pool_lang.Eval.plan_cache_hits);
            ("plan_cache_misses", Int q.Pool_lang.Eval.plan_cache_misses);
            ("invariant_evals", Int q.Pool_lang.Eval.invariant_evals);
            ("invariant_reuses", Int q.Pool_lang.Eval.invariant_reuses);
          ] );
      ( "integrity",
        (* checksum/scrub posture of this database plus the
           process-wide detection counters *)
        let pager = Pstore.Store.pager (Database.store db) in
        let cnt (c : Pobs.Metrics.counter) = Int (int_of_float (Pobs.Metrics.counter_value c)) in
        Obj
          [
            ("checksums_enabled", Bool (Pstore.Pager.checksums_enabled pager));
            ( "quarantined_pages",
              List (List.map (fun no -> Int no) (Pstore.Pager.quarantined pager)) );
            ("pages_corrupt_detected", cnt Pstore.Pager.m_page_corrupt);
            ("scrub_runs", cnt Pstore.Pager.m_scrub_runs);
            ("scrub_pages", cnt Pstore.Pager.m_scrub_pages);
            ("scrub_corrupt", cnt Pstore.Pager.m_scrub_corrupt);
            ("recovery_torn_tails", cnt Pstore.Pager.m_torn_tail);
          ] );
      ( "observability",
        Obj
          [
            ("metrics_enabled", Bool !Pobs.Metrics.enabled);
            ("trace_enabled", Bool !Pobs.Trace.enabled);
            ("trace_spans_recorded", Int (Pobs.Trace.recorded ()));
            ("slow_query_threshold_ns", Int !Pobs.Slowlog.threshold_ns);
          ] );
    ]
  in
  let serving_section =
    match serving with None -> [] | Some f -> [ ("serving", f ()) ]
  in
  to_string
    (Obj
       (sections @ serving_section
       @ [ ("slow_queries", Pobs.Slowlog.to_json ()); ("metrics", Pobs.Metrics.expose_json ()) ]
       ))

let handle ?serving (db : Database.t) (path : string) (params : (string * string) list) :
    string * string =
  match path with
  | "/" -> ("200 OK", usage)
  | "/query" -> (
      match List.assoc_opt "q" params with
      | None | Some "" -> ("400 Bad Request", "missing q parameter\n")
      | Some q -> (
          try ("200 OK", Value.to_string (Pool_lang.Pool.query db q) ^ "\n") with
          | Pool_lang.Lexer.Syntax_error (m, pos) ->
              ("400 Bad Request", Printf.sprintf "syntax error at %d: %s\n" pos m)
          | Pool_lang.Eval.Eval_error m -> ("400 Bad Request", "evaluation error: " ^ m ^ "\n")
          | e -> ("500 Internal Server Error", Printexc.to_string e ^ "\n")))
  | "/check" -> (
      match List.assoc_opt "q" params with
      | None | Some "" -> ("400 Bad Request", "missing q parameter\n")
      | Some q -> (
          try
            match Pool_lang.Typecheck.check_string (Database.schema db) q with
            | [] -> ("200 OK", "ok\n")
            | errs ->
                ( "200 OK",
                  String.concat ""
                    (List.map
                       (fun (e : Pool_lang.Typecheck.error) ->
                         Printf.sprintf "error: %s (in %s)\n" e.Pool_lang.Typecheck.message
                           e.Pool_lang.Typecheck.expr)
                       errs) )
          with Pool_lang.Lexer.Syntax_error (m, pos) ->
            ("400 Bad Request", Printf.sprintf "syntax error at %d: %s\n" pos m)))
  | "/schema" -> ("200 OK", schema_text db)
  | "/contexts" ->
      ( "200 OK",
        String.concat ""
          (List.map
             (fun (oid, name) -> Printf.sprintf "#%d %s\n" oid name)
             (Database.contexts db)) )
  | "/stats" -> ("200 OK", stats_json ?serving db ^ "\n")
  | "/metrics" -> ("200 OK", metrics_text db)
  | _ -> ("404 Not Found", "not found\n")

(* Content type per endpoint; everything else is plain text. *)
let content_type_of_path = function
  | "/stats" -> "application/json; charset=utf-8"
  | "/metrics" -> metrics_content_type
  | _ -> "text/plain; charset=utf-8"

(* --- mutation endpoints ------------------------------------------------ *)

exception Bad_param of string

let bad fmt = Format.kasprintf (fun s -> raise (Bad_param s)) fmt

(* Typed literal syntax for attribute values in query strings: null,
   true/false, integer, float, #oid references; everything else is a
   string. *)
let parse_value (s : string) : Value.t =
  if s = "null" then Value.VNull
  else if s = "true" then Value.VBool true
  else if s = "false" then Value.VBool false
  else if String.length s > 1 && s.[0] = '#' then
    match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
    | Some oid -> Value.VRef oid
    | None -> Value.VString s
  else
    match int_of_string_opt s with
    | Some i -> Value.VInt i
    | None -> (
        match float_of_string_opt s with
        | Some f -> Value.VFloat f
        | None -> Value.VString s)

let oid_of_string k s =
  let s = if String.length s > 1 && s.[0] = '#' then String.sub s 1 (String.length s - 1) else s in
  match int_of_string_opt s with Some oid -> oid | None -> bad "%s: not an oid: %s" k s

let str_param params k =
  match List.assoc_opt k params with
  | Some v when v <> "" -> v
  | _ -> bad "missing %s parameter" k

let oid_param params k = oid_of_string k (str_param params k)

let attr_params ~reserved params =
  List.filter_map
    (fun (k, v) -> if List.mem k reserved then None else Some (k, parse_value v))
    params

type mutation =
  | MCreate of string * (string * Value.t) list
  | MUpdate of int * string * Value.t
  | MDelete of int
  | MLink of {
      rel : string;
      origin : int;
      destination : int;
      context : int option;
      attrs : (string * Value.t) list;
    }
  | MUnlink of int

let write_paths = [ "/create"; "/update"; "/delete"; "/link"; "/unlink" ]

(* Parsing happens before the body is submitted to the writer: a
   malformed request must cost a 400, never a group-batch rollback. *)
let parse_mutation (path : string) params : mutation =
  match path with
  | "/create" -> MCreate (str_param params "class", attr_params ~reserved:[ "class" ] params)
  | "/update" ->
      MUpdate
        ( oid_param params "oid",
          str_param params "attr",
          parse_value (match List.assoc_opt "value" params with Some v -> v | None -> bad "missing value parameter") )
  | "/delete" -> MDelete (oid_param params "oid")
  | "/link" ->
      MLink
        {
          rel = str_param params "rel";
          origin = oid_param params "origin";
          destination = oid_param params "destination";
          context = Option.map (oid_of_string "context") (List.assoc_opt "context" params);
          attrs = attr_params ~reserved:[ "rel"; "origin"; "destination"; "context" ] params;
        }
  | "/unlink" -> MUnlink (oid_param params "oid")
  | _ -> bad "not a mutation endpoint: %s" path

let apply_mutation (db : Database.t) (m : mutation) : string =
  match m with
  | MCreate (cls, attrs) -> Printf.sprintf "created #%d\n" (Database.create db cls attrs)
  | MUpdate (oid, attr, v) ->
      Database.update db oid attr v;
      "ok\n"
  | MDelete oid ->
      Database.delete db oid;
      "ok\n"
  | MLink { rel; origin; destination; context; attrs } ->
      Printf.sprintf "created #%d\n"
        (Database.link db ?context ~attrs rel ~origin ~destination)
  | MUnlink oid ->
      Database.unlink db oid;
      "ok\n"

(* --- HTTP framing ------------------------------------------------------- *)

(* Bounds on what a client may send before we stop listening to it: the
   server must not let one connection buffer without limit (memory) or
   trickle bytes forever (a slowloris holding a connection hostage). *)
let max_request_line = 8192
let max_header_bytes = 65536
let max_header_count = 100
let max_body_bytes = 1 lsl 20
let client_timeout_s = 10.

(** One parsed HTTP request, as extracted from a connection buffer by
    {!parse_http}. *)
type http_req = {
  r_meth : string;
  r_target : string;
  r_headers : (string * string) list; (* lowercased names, trimmed values *)
  r_keep_alive : bool;
  r_bad : bool; (* request line was not [METHOD TARGET VERSION] *)
}

(** Serialise a response.  Status lines stay in the original server's
    [HTTP/1.0] form (clients and tests match on the exact string);
    keep-alive is explicit via the [Connection] header and framed by
    [Content-Length]. *)
let response_string ?(content_type = "text/plain; charset=utf-8") ?(extra = [])
    ~keep_alive ~status ~body () : string =
  let b = Buffer.create (256 + String.length body) in
  Buffer.add_string b (Printf.sprintf "HTTP/1.0 %s\r\n" status);
  Buffer.add_string b (Printf.sprintf "Content-Type: %s\r\n" content_type);
  Buffer.add_string b (Printf.sprintf "Content-Length: %d\r\n" (String.length body));
  List.iter (fun (k, v) -> Buffer.add_string b (Printf.sprintf "%s: %s\r\n" k v)) extra;
  Buffer.add_string b
    (if keep_alive then "Connection: keep-alive\r\n\r\n" else "Connection: close\r\n\r\n");
  Buffer.add_string b body;
  Buffer.contents b

let close_response ?content_type ?extra ~status ~body () : Event_loop.response =
  {
    Event_loop.rsp_data = response_string ?content_type ?extra ~keep_alive:false ~status ~body ();
    rsp_close = true;
  }

let resp_414 = close_response ~status:"414 URI Too Long" ~body:"request line too long\n" ()

let resp_431 =
  close_response ~status:"431 Request Header Fields Too Large" ~body:"header block too large\n" ()

let resp_413 = close_response ~status:"413 Content Too Large" ~body:"request body too large\n" ()

let resp_408 =
  close_response ~status:"408 Request Timeout" ~body:"timed out reading request\n" ()

let resp_503 =
  close_response
    ~extra:[ ("Retry-After", "1") ]
    ~status:"503 Service Unavailable" ~body:"overloaded\n" ()

(** Try to extract one request from the connection buffer starting at
    [off].  Enforces the framing bounds incrementally: an oversized
    request line rejects with 414 and an oversized header block with
    431 {e before} the terminator arrives, so a hostile sender cannot
    make the server buffer past the bound.  A request body
    (Content-Length) is consumed and discarded — no endpoint takes a
    body, but it must not desynchronise keep-alive framing. *)
let parse_http (buf : string) ~(off : int) : http_req Event_loop.parse_result =
  match String.index_from_opt buf off '\n' with
  | None ->
      if String.length buf - off > max_request_line then Event_loop.Reject resp_414
      else Event_loop.Incomplete
  | Some eol ->
      if eol - off > max_request_line then Event_loop.Reject resp_414
      else begin
        let line = String.trim (String.sub buf off (eol - off)) in
        (* header block *)
        let rec go pos acc count total =
          match String.index_from_opt buf pos '\n' with
          | None ->
              let tail = String.length buf - pos in
              if tail > max_request_line || total + tail > max_header_bytes then `Rej resp_431
              else `Inc
          | Some e ->
              if e - pos > max_request_line then `Rej resp_431
              else
                let l = String.trim (String.sub buf pos (e - pos)) in
                if l = "" then `Done (List.rev acc, e + 1)
                else
                  let total = total + String.length l in
                  if total > max_header_bytes || count + 1 > max_header_count then `Rej resp_431
                  else
                    let acc =
                      match String.index_opt l ':' with
                      | Some i ->
                          let k = String.lowercase_ascii (String.trim (String.sub l 0 i)) in
                          let v = String.trim (String.sub l (i + 1) (String.length l - i - 1)) in
                          (k, v) :: acc
                      | None -> acc
                    in
                    go (e + 1) acc (count + 1) total
        in
        match go (eol + 1) [] 0 0 with
        | `Inc -> Event_loop.Incomplete
        | `Rej r -> Event_loop.Reject r
        | `Done (headers, body_off) -> (
            let body_len =
              match Option.bind (List.assoc_opt "content-length" headers) int_of_string_opt with
              | Some n when n > 0 -> n
              | _ -> 0
            in
            if body_len > max_body_bytes then Event_loop.Reject resp_413
            else if String.length buf - body_off < body_len then Event_loop.Incomplete
            else
              let consumed = body_off + body_len - off in
              match parse_request_line line with
              | None ->
                  Event_loop.Parsed
                    ( { r_meth = ""; r_target = ""; r_headers = headers; r_keep_alive = false; r_bad = true },
                      consumed )
              | Some (meth, target) ->
                  let version =
                    match String.rindex_opt line ' ' with
                    | Some i -> String.sub line (i + 1) (String.length line - i - 1)
                    | None -> ""
                  in
                  let keep_alive =
                    match
                      Option.map String.lowercase_ascii (List.assoc_opt "connection" headers)
                    with
                    | Some "close" -> false
                    | Some "keep-alive" -> true
                    | _ -> version = "HTTP/1.1"
                  in
                  Event_loop.Parsed
                    ( { r_meth = meth; r_target = target; r_headers = headers; r_keep_alive = keep_alive; r_bad = false },
                      consumed ))
      end

(* --- request dispatch --------------------------------------------------- *)

(* Cluster identity and control hooks (PR 10): answer [Ping] and [Ctl]
   frames so a router can health-check this node and steer failover. *)
type cluster_hooks = {
  c_role : unit -> string; (* "primary" | "replica" *)
  c_lsn : unit -> int; (* durable (primary) / applied (replica) LSN *)
  c_stream_id : unit -> int; (* replication stream identity, 0 if none *)
  c_repl_port : unit -> int; (* port a Feed listens on, -1 if none *)
  c_ctl : verb:string -> arg:string -> (string, string) result;
}

(* Everything a request handler needs; one value per [serve] call,
   shared by all worker threads.  Handlers fetch the current ctx from
   an [Atomic.t] per request, so a cluster node can swap its whole
   serving role (replica -> primary) in place without restarting the
   event loop. *)
type ctx = {
  x_db : Database.t;
  x_readonly : bool;
  x_repl_status : (unit -> string) option;
  x_pool : Reader_pool.t option;
  x_writer : Database.Writer.w option;
  x_serving : (unit -> Pobs.Json.t) option;
  x_cluster : cluster_hooks option;
}

(* A handler's verdict, before HTTP serialisation. *)
type answer = {
  a_status : string;
  a_content_type : string;
  a_extra : (string * string) list;
  a_body : string;
}

let plain ?(extra = []) status body =
  { a_status = status; a_content_type = "text/plain; charset=utf-8"; a_extra = extra; a_body = body }

(* GET endpoints safe to serve from a frozen snapshot view. *)
let pool_routable = function
  | "/" | "/query" | "/check" | "/schema" | "/contexts" | "/stats" | "/metrics" -> true
  | _ -> false

let lsn_header lsn = ("X-PDB-LSN", string_of_int lsn)

let serve_get (x : ctx) path params headers : answer =
  let content_type =
    if path = "/repl" then "application/json; charset=utf-8" else content_type_of_path path
  in
  let mk ?(extra = []) (status, body) =
    { a_status = status; a_content_type = content_type; a_extra = extra; a_body = body }
  in
  let timed f = Pobs.Metrics.time m_request_ns f in
  match (path, x.x_repl_status) with
  | "/repl", Some f -> mk (timed (fun () -> ("200 OK", f () ^ "\n")))
  | _ -> (
      match x.x_pool with
      | Some pool when pool_routable path -> (
          let min_lsn =
            Option.bind (List.assoc_opt "x-pdb-min-lsn" headers) int_of_string_opt
          in
          match
            Reader_pool.read pool ?min_lsn (fun view ->
                timed (fun () -> handle ?serving:x.x_serving view path params))
          with
          | Reader_pool.Served (sb, lsn) ->
              mk ~extra:[ lsn_header lsn; ("X-PDB-Route", "pool") ] sb
          | Reader_pool.Behind best -> (
              match x.x_writer with
              | Some w -> (
                  (* Primary fallthrough: run the read in the writer
                     domain, serialised with the mutation stream — the
                     only safe way to touch the live handle. *)
                  Pobs.Metrics.inc m_fallthrough;
                  let lsn, r =
                    Database.Writer.read w (fun live ->
                        timed (fun () -> handle ?serving:x.x_serving live path params))
                  in
                  match r with
                  | Ok sb -> mk ~extra:[ lsn_header lsn; ("X-PDB-Route", "primary") ] sb
                  | Error e ->
                      plain "500 Internal Server Error" (Printexc.to_string e ^ "\n"))
              | None ->
                  (* A replica has no primary handle to fall through
                     to: be honest about the lag. *)
                  plain
                    ~extra:[ lsn_header best; ("Retry-After", "1") ]
                    "503 Service Unavailable"
                    (Printf.sprintf "behind: serving lsn %d\n" best))
          | exception Reader_pool.Stopped ->
              plain "503 Service Unavailable" "shutting down\n"
          | exception e ->
              plain "500 Internal Server Error" (Printexc.to_string e ^ "\n"))
      | _ ->
          let sb = timed (fun () -> handle ?serving:x.x_serving x.x_db path params) in
          let extra =
            match x.x_pool with
            | None -> [ lsn_header (Pstore.Store.lsn (Database.store x.x_db)) ]
            | Some _ -> []
          in
          mk ~extra sb)

let serve_mutation (x : ctx) path params : answer =
  match parse_mutation path params with
  | exception Bad_param m -> plain "400 Bad Request" ("error: " ^ m ^ "\n")
  | mut -> (
      match
        Pobs.Metrics.time m_request_ns (fun () ->
            match x.x_writer with
            | Some w ->
                (* Group-commit routing: the body runs in the writer
                   domain as one soft transaction; concurrent HTTP
                   writers share the batch's single fsync. *)
                let lsn, body = Database.Writer.submit w (fun live -> apply_mutation live mut) in
                Pobs.Metrics.inc m_group_writes;
                (lsn, body)
            | None ->
                let body = Database.with_tx x.x_db (fun () -> apply_mutation x.x_db mut) in
                (Pstore.Store.lsn (Database.store x.x_db), body))
      with
      | lsn, body -> plain ~extra:[ lsn_header lsn ] "200 OK" body
      | exception Database.Model_error m -> plain "400 Bad Request" ("error: " ^ m ^ "\n")
      | exception Pstore.Store.Group.Stopped ->
          plain "503 Service Unavailable" "shutting down\n"
      | exception e -> plain "500 Internal Server Error" (Printexc.to_string e ^ "\n"))

(* Dispatch one parsed HTTP request to an answer.  [m_requests] counts
   every routed request — a pipelined connection is as many requests
   as it carries, not one. *)
let dispatch (x : ctx) (r : http_req) : answer =
  if r.r_bad then plain "400 Bad Request" "bad request\n"
  else
    match r.r_meth with
    | "GET" ->
        let path, params = split_target r.r_target in
        Pobs.Metrics.inc m_requests;
        serve_get x path params r.r_headers
    | _ when x.x_readonly -> plain "403 Forbidden" "read-only replica\n"
    | "POST" when List.mem (fst (split_target r.r_target)) write_paths ->
        let path, params = split_target r.r_target in
        Pobs.Metrics.inc m_requests;
        serve_mutation x path params
    | _ -> plain "405 Method Not Allowed" "GET only\n"

let execute_http (x : ctx) (r : http_req) : Event_loop.response =
  let a = dispatch x r in
  let keep_alive = r.r_keep_alive && not r.r_bad in
  {
    Event_loop.rsp_data =
      response_string ~content_type:a.a_content_type ~extra:a.a_extra ~keep_alive
        ~status:a.a_status ~body:a.a_body ();
    rsp_close = not keep_alive;
  }

(* --- binary protocol dispatch ------------------------------------------- *)

(* Run one POOL query through the same routing as GET /query: the
   snapshot pool when present (falling through to the writer-serialised
   primary when the pool is behind), the live handle otherwise. *)
let run_query (x : ctx) (q : string) : (string, string) result =
  let on db =
    match Pobs.Metrics.time m_request_ns (fun () -> Pool_lang.Pool.query db q) with
    | v -> Ok (Value.to_string v)
    | exception Pool_lang.Lexer.Syntax_error (m, pos) ->
        Error (Printf.sprintf "syntax error at %d: %s" pos m)
    | exception Pool_lang.Eval.Eval_error m -> Error ("evaluation error: " ^ m)
    | exception e -> Error (Printexc.to_string e)
  in
  Pobs.Metrics.inc m_bin_queries;
  match x.x_pool with
  | None -> on x.x_db
  | Some pool -> (
      match Reader_pool.read pool (fun view -> on view) with
      | Reader_pool.Served (r, _) -> r
      | Reader_pool.Behind best -> (
          match x.x_writer with
          | Some w -> (
              Pobs.Metrics.inc m_fallthrough;
              match Database.Writer.read w (fun live -> on live) with
              | _, Ok r -> r
              | _, Error e -> Error (Printexc.to_string e))
          | None -> Error (Printf.sprintf "behind: serving lsn %d" best))
      | exception Reader_pool.Stopped -> Error "shutting down"
      | exception e -> Error (Printexc.to_string e))

let execute_bin (x : ctx) (f : Binary_proto.frame) : Event_loop.response =
  let answer (id, q) : string =
    let frame =
      match run_query x q with
      | Ok v -> Binary_proto.Result { id; v }
      | Error msg -> Binary_proto.Error { id; msg }
    in
    try Binary_proto.encode frame
    with Binary_proto.Malformed m ->
      Binary_proto.encode (Binary_proto.Error { id; msg = "response too large: " ^ m })
  in
  let reply frame =
    try { Event_loop.rsp_data = Binary_proto.encode frame; rsp_close = false }
    with Binary_proto.Malformed m ->
      {
        Event_loop.rsp_data =
          Binary_proto.encode
            (Binary_proto.Error { id = 0; msg = "response too large: " ^ m });
        rsp_close = false;
      }
  in
  match f with
  | Binary_proto.Query { id; q } -> { Event_loop.rsp_data = answer (id, q); rsp_close = false }
  | Binary_proto.Batch qs ->
      let b = Buffer.create 256 in
      List.iter (fun iq -> Buffer.add_string b (answer iq)) qs;
      { Event_loop.rsp_data = Buffer.contents b; rsp_close = false }
  | Binary_proto.Hreq { id; meth; target; headers } ->
      (* An HTTP-shaped request riding the binary connection: same
         dispatch as the HTTP listener, answered as [Hresp].  Header
         names arrive lowercased from {!Client.http}. *)
      let r =
        {
          r_meth = meth;
          r_target = target;
          r_headers = List.map (fun (k, v) -> (String.lowercase_ascii k, v)) headers;
          r_keep_alive = true;
          r_bad = false;
        }
      in
      let a = dispatch x r in
      let status =
        match int_of_string_opt (String.sub a.a_status 0 (min 3 (String.length a.a_status))) with
        | Some s -> s
        | None -> 500
      in
      reply
        (Binary_proto.Hresp
           {
             id;
             status;
             headers =
               ("content-type", a.a_content_type)
               :: List.map (fun (k, v) -> (String.lowercase_ascii k, v)) a.a_extra;
             body = a.a_body;
           })
  | Binary_proto.Ping { id } ->
      let pong =
        match x.x_cluster with
        | Some c ->
            Binary_proto.Pong
              {
                id;
                role = c.c_role ();
                lsn = c.c_lsn ();
                stream_id = c.c_stream_id ();
                repl_port = c.c_repl_port ();
              }
        | None ->
            Binary_proto.Pong
              {
                id;
                role = (if x.x_readonly then "replica" else "primary");
                lsn = Pstore.Store.lsn (Database.store x.x_db);
                stream_id = 0;
                repl_port = -1;
              }
      in
      reply pong
  | Binary_proto.Ctl { id; verb; arg } -> (
      match x.x_cluster with
      | None -> reply (Binary_proto.Error { id; msg = "no cluster control on this node" })
      | Some c -> (
          match c.c_ctl ~verb ~arg with
          | Ok v -> reply (Binary_proto.Result { id; v })
          | Error msg -> reply (Binary_proto.Error { id; msg })
          | exception e ->
              reply (Binary_proto.Error { id; msg = Printexc.to_string e })))
  | Binary_proto.Result _ | Binary_proto.Error _ | Binary_proto.Hresp _ | Binary_proto.Pong _ ->
      (* only clients send answers; a server receiving one is talking
         to something confused — answer in kind and hang up *)
      {
        Event_loop.rsp_data =
          Binary_proto.encode (Binary_proto.Error { id = 0; msg = "unexpected frame type" });
        rsp_close = true;
      }

let bin_error msg = Binary_proto.encode (Binary_proto.Error { id = 0; msg })

(* --- the server --------------------------------------------------------- *)

type req = RHttp of http_req | RBin of Binary_proto.frame

let http_listener sock : req Event_loop.listener =
  {
    Event_loop.l_sock = sock;
    l_parse =
      (fun buf ~off ->
        match parse_http buf ~off with
        | Event_loop.Parsed (r, n) -> Event_loop.Parsed (RHttp r, n)
        | Event_loop.Incomplete -> Event_loop.Incomplete
        | Event_loop.Reject r -> Event_loop.Reject r);
    l_overload = resp_503;
    l_timeout = resp_408;
  }

let bin_listener sock : req Event_loop.listener =
  {
    Event_loop.l_sock = sock;
    l_parse =
      (fun buf ~off ->
        match Binary_proto.parse buf ~off with
        | Binary_proto.Frame (f, n) -> Event_loop.Parsed (RBin f, n)
        | Binary_proto.Need_more -> Event_loop.Incomplete
        | Binary_proto.Bad m ->
            Event_loop.Reject { Event_loop.rsp_data = bin_error m; rsp_close = true });
    l_overload = { Event_loop.rsp_data = bin_error "overloaded"; rsp_close = true };
    l_timeout = { Event_loop.rsp_data = bin_error "timed out reading frame"; rsp_close = true };
  }

(** Serve [db] on [port] until [max_requests] requests have been
    handled (None = forever), [stop] is set, or a SIGTERM/SIGINT
    arrives.

    Graceful shutdown: signals only set a flag; in-flight requests are
    always finished and responded to, then the listen socket is closed,
    the previous signal dispositions are restored, and [serve] returns
    so the caller can flush and close the store.  The event loop polls
    with a short timeout, so a stop request on an idle server is
    honoured within a fraction of a second.

    Snapshot serving: [?readers] > 0 builds a {!Reader_pool} over [db]
    (refreshed within [?max_lag_ms]) plus a [Database.Writer] group;
    [?pool] supplies an external pool instead (the read-only replica
    path — no writer is started when [readonly]).  Both are stopped
    before [serve] returns iff they were created here.

    Replication hooks: [?readonly] rejects every non-GET method with
    403 (a read-only replica serves queries but accepts no writes) and
    [?repl_status] is exposed verbatim as [GET /repl] (JSON).
    [?ready] is called with the actually bound port (useful with
    [~port:0]) once the socket is listening; [?binary_port] opens a
    second listener speaking {!Binary_proto} and reports its bound
    port through [?binary_ready].

    Robust against misbehaving clients: SIGPIPE is ignored, framing is
    size-bounded (414/431/413 and oversized binary frames), a
    wall-clock deadline spans each request's reads (408 on a partial
    request, silent close when idle), and connections past [max_conns]
    are answered 503 + [Retry-After] — the event loop's admission
    control — instead of being silently dropped. *)
let serve ?(host = "127.0.0.1") ?max_requests ?stop ?ready ?(readonly = false)
    ?repl_status ?(readers = 0) ?(max_lag_ms = 50.) ?pool
    ?(client_timeout = client_timeout_s) ?(max_conns = 1024) ?binary_port ?binary_ready
    ?cluster ?ctx_cell (db : Database.t) ~port () =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> () (* no SIGPIPE on this platform *));
  let stop = match stop with Some r -> r | None -> ref false in
  let install signum =
    try Some (signum, Sys.signal signum (Sys.Signal_handle (fun _ -> stop := true)))
    with Invalid_argument _ | Sys_error _ -> None
  in
  let saved = List.filter_map install [ Sys.sigterm; Sys.sigint ] in
  let own_pool, pool =
    match pool with
    | Some p -> (false, Some p)
    | None when readers > 0 ->
        (true, Some (Reader_pool.create ~max_lag_ms ~readers (Reader_pool.primary_source db)))
    | None -> (false, None)
  in
  let writer =
    match pool with Some _ when not readonly -> Some (Database.Writer.start db) | _ -> None
  in
  let loop_ref = ref None in
  let loop_json () =
    match !loop_ref with
    | None -> []
    | Some t ->
        let ls = Event_loop.stats t in
        let open Pobs.Json in
        [
          ( "loop",
            Obj
              [
                ("backend", Str (Event_loop.backend_name t));
                ("accepted", Int ls.Event_loop.s_accepted);
                ("overloaded", Int ls.Event_loop.s_overloaded);
                ("timeouts", Int ls.Event_loop.s_timeouts);
                ("handled", Int ls.Event_loop.s_handled);
                ("open_connections", Int ls.Event_loop.s_open_conns);
              ] );
        ]
  in
  (* always present: legacy mode still reports the event loop *)
  let serving_json =
    Some
      (fun () ->
        let open Pobs.Json in
        let cnt c = Int (int_of_float (Pobs.Metrics.counter_value c)) in
        let pool_part =
          match pool with
          | None -> []
          | Some p ->
              Reader_pool.update_metrics p;
              let ps = Reader_pool.stats p in
              let p99 =
                let v = Pobs.Metrics.hist_quantile m_request_ns 0.99 /. 1e6 in
                Float (if Float.is_nan v then 0. else v)
              in
              [
                ("readers", Int ps.Reader_pool.p_readers);
                ("generation_lsn", Int ps.Reader_pool.p_gen_lsn);
                ("generation_age_ms", Float ps.Reader_pool.p_age_ms);
                ("refreshes", Int ps.Reader_pool.p_refreshes);
                ("refresh_errors", Int ps.Reader_pool.p_refresh_errors);
                ("routed_reads", Int ps.Reader_pool.p_routed);
                ("catchup_waits", Int ps.Reader_pool.p_catchup_waits);
                ("draining_generations", Int ps.Reader_pool.p_draining);
                ("fallthroughs", cnt m_fallthrough);
                ("request_p99_ms", p99);
              ]
        in
        let group =
          match writer with
          | None -> []
          | Some w ->
              let gs = Database.Writer.stats w in
              [
                ( "group",
                  Obj
                    [
                      ("batches", Int gs.Pstore.Store.Group.batches);
                      ("commits", Int gs.Pstore.Store.Group.commits);
                      ("aborts", Int gs.Pstore.Store.Group.aborts);
                      ("queued", Int gs.Pstore.Store.Group.queued);
                      ("group_writes", cnt m_group_writes);
                    ] );
              ]
        in
        Obj (pool_part @ group @ loop_json ()))
  in
  let ctx =
    {
      x_db = db;
      x_readonly = readonly;
      x_repl_status = repl_status;
      x_pool = pool;
      x_writer = writer;
      x_serving = serving_json;
      x_cluster = cluster;
    }
  in
  (* Handlers read the ctx through this cell on every request; a
     cluster node hands in its own [?ctx_cell] and swaps a new ctx in
     when its role flips. *)
  let ctx_cell =
    match ctx_cell with
    | Some cell ->
        Atomic.set cell ctx;
        cell
    | None -> Atomic.make ctx
  in
  let bind_sock port =
    let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt sock Unix.SO_REUSEADDR true;
    Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
    (* the backlog must absorb a full admission-control burst: a SYN
       dropped off a short queue is retransmitted after ~1 s, which
       reads as a one-second connect stall, not backpressure *)
    Unix.listen sock (max 128 max_conns);
    let bound = match Unix.getsockname sock with Unix.ADDR_INET (_, p) -> p | _ -> port in
    (sock, bound)
  in
  let sock, bound_port = bind_sock port in
  (match ready with Some f -> f bound_port | None -> ());
  let bin =
    match binary_port with
    | None -> None
    | Some p ->
        let bsock, bport = bind_sock p in
        (match binary_ready with Some f -> f bport | None -> ());
        Some (bsock, bport)
  in
  let listeners =
    http_listener sock :: (match bin with Some (b, _) -> [ bin_listener b ] | None -> [])
  in
  (* Legacy mode executes on exactly one worker thread — the live
     handle keeps its single-threaded discipline; pool mode sizes the
     executor to the reader fleet, as handlers block on reader-domain
     results and group-commit fsyncs. *)
  let workers =
    match pool with Some p -> max 4 (2 * Reader_pool.size p) | None -> 1
  in
  let execute = function
    | RHttp r -> execute_http (Atomic.get ctx_cell) r
    | RBin f -> execute_bin (Atomic.get ctx_cell) f
  in
  let t, worker_threads =
    Event_loop.create ~max_conns ~timeout_s:client_timeout ~workers ~execute listeners
  in
  loop_ref := Some t;
  Printf.printf "prometheus: serving on http://%s:%d/%s%s%s (%s)\n%!" host bound_port
    (if readonly then " (read-only replica)" else "")
    (match pool with
    | Some p -> Printf.sprintf " (snapshot pool: %d readers)" (Reader_pool.size p)
    | None -> "")
    (match bin with
    | Some (_, bp) -> Printf.sprintf " (binary protocol on %d)" bp
    | None -> "")
    (Event_loop.backend_name t);
  let continue () =
    (not !stop)
    && match max_requests with None -> true | Some m -> Event_loop.requests_handled t < m
  in
  Event_loop.run t worker_threads ~continue ();
  Unix.close sock;
  (match bin with Some (b, _) -> Unix.close b | None -> ());
  List.iter
    (fun (signum, prev) -> try Sys.set_signal signum prev with Invalid_argument _ | Sys_error _ -> ())
    saved;
  (match writer with Some w -> ( try Database.Writer.stop w with _ -> ()) | None -> ());
  if own_pool then match pool with Some p -> Reader_pool.stop p | None -> ()
