(* pdb — the Prometheus database command-line tool.

   Subcommands:
     pdb query FILE QUERY       run a POOL query against a database
     pdb check FILE QUERY       static-check a POOL query
     pdb schema FILE            print classes and relationship classes
     pdb contexts FILE          list classifications
     pdb stats FILE             storage statistics
     pdb metrics FILE           Prometheus text exposition of all metrics
     pdb trace FILE QUERY       run a query with span tracing, print the tree
                                and the plan with per-binding counts
     pdb verify FILE            verify every page checksum (exit 1 on corruption)
     pdb scrub FILE [--from H:P] scrub checksums; repair from a primary
     pdb serve FILE [-p PORT]   HTTP interface (thesis 6.1.7)
     pdb replica FILE --from H:P  follow a primary, serve read-only
     pdb router --backends H:P,H:P  fleet front-end: balance, failover
     pdb demo FILE              populate FILE with a demo flora
*)

open Cmdliner
open Pmodel

let db_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Database file.")

let with_db file f =
  let db = Database.open_ file in
  Fun.protect ~finally:(fun () -> Database.close db) (fun () -> f db)

(* Run [f] over FILE; a query that fails to lex, parse or evaluate is
   the caller's error, not a crash: print it and exit 1, after the
   database is closed. *)
let with_query_db cmd file f =
  let outcome =
    with_db file (fun db ->
        match f db with
        | () -> Ok ()
        | exception Pool_lang.Lexer.Syntax_error (m, pos) ->
            Error (Printf.sprintf "syntax error at %d: %s" pos m)
        | exception Pool_lang.Eval.Eval_error m -> Error ("evaluation error: " ^ m)
        | exception (Database.Model_error m | Meta.Schema_error m) -> Error m)
  in
  match outcome with
  | Ok () -> ()
  | Error m ->
      Printf.eprintf "pdb %s: %s\n" cmd m;
      exit 1

(* --- query ----------------------------------------------------------- *)

let query_cmd =
  let q = Arg.(required & pos 1 (some string) None & info [] ~docv:"QUERY" ~doc:"POOL query.") in
  let run file query =
    with_query_db "query" file (fun db ->
        match Pool_lang.Pool.query db query with
        | Value.VList rows ->
            List.iter (fun r -> print_endline (Value.to_string r)) rows;
            Printf.printf "(%d rows)\n" (List.length rows)
        | v -> print_endline (Value.to_string v))
  in
  Cmd.v (Cmd.info "query" ~doc:"Run a POOL query.") Term.(const run $ db_arg $ q)

let check_cmd =
  let q = Arg.(required & pos 1 (some string) None & info [] ~docv:"QUERY" ~doc:"POOL query.") in
  let run file query =
    with_db file (fun db ->
        match Pool_lang.Typecheck.check_string (Database.schema db) query with
        | [] -> print_endline "ok"
        | errs ->
            List.iter
              (fun (e : Pool_lang.Typecheck.error) ->
                Printf.printf "error: %s\n  in: %s\n" e.Pool_lang.Typecheck.message
                  e.Pool_lang.Typecheck.expr)
              errs;
            exit 1)
  in
  Cmd.v (Cmd.info "check" ~doc:"Static-check a POOL query.") Term.(const run $ db_arg $ q)

(* --- introspection ------------------------------------------------------ *)

let schema_cmd =
  let run file = with_db file (fun db -> print_string (Pserver.Http_server.schema_text db)) in
  Cmd.v (Cmd.info "schema" ~doc:"Print the database schema.") Term.(const run $ db_arg)

let contexts_cmd =
  let run file =
    with_db file (fun db ->
        List.iter (fun (oid, name) -> Printf.printf "#%d %s\n" oid name) (Database.contexts db))
  in
  Cmd.v (Cmd.info "contexts" ~doc:"List classifications.") Term.(const run $ db_arg)

(* Minimal HTTP/1.0 GET, for `pdb stats --url` — good enough to ask a
   server (or a router) for its /stats without pulling in a client
   library. *)
let http_get_url (url : string) : string =
  let rest =
    if String.length url >= 7 && String.sub url 0 7 = "http://" then
      String.sub url 7 (String.length url - 7)
    else url
  in
  let hostport, path =
    match String.index_opt rest '/' with
    | Some i -> (String.sub rest 0 i, String.sub rest i (String.length rest - i))
    | None -> (rest, "/stats")
  in
  let host, port =
    match String.rindex_opt hostport ':' with
    | Some i -> (
        let h = String.sub hostport 0 i in
        let p = String.sub hostport (i + 1) (String.length hostport - i - 1) in
        match int_of_string_opt p with
        | Some p -> ((if h = "" then "127.0.0.1" else h), p)
        | None ->
            Printf.eprintf "pdb stats: bad --url %S\n" url;
            exit 2)
    | None -> (hostport, 80)
  in
  let fail m =
    Printf.eprintf "pdb stats: %s\n" m;
    exit 1
  in
  let link = try Prepl.Link.connect ~host ~port with Prepl.Link.Link_down m -> fail m in
  Fun.protect ~finally:link.close (fun () ->
      let req =
        Printf.sprintf "GET %s HTTP/1.0\r\nHost: %s\r\nConnection: close\r\n\r\n" path host
      in
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        match link.recv chunk ~off:0 ~len:(Bytes.length chunk) with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            drain ()
      in
      (try
         Prepl.Link.really_send link (Bytes.unsafe_of_string req) ~off:0 ~len:(String.length req);
         drain ()
       with Prepl.Link.Link_down m -> fail m);
      let all = Buffer.contents buf in
      (* strip the header block *)
      let n = String.length all in
      let rec find i =
        if i + 3 >= n then None
        else if all.[i] = '\r' && all.[i + 1] = '\n' && all.[i + 2] = '\r' && all.[i + 3] = '\n'
        then Some (i + 4)
        else find (i + 1)
      in
      match find 0 with Some i -> String.sub all i (n - i) | None -> all)

let stats_cmd =
  let url =
    Arg.(
      value
      & opt (some string) None
      & info [ "url" ] ~docv:"URL"
          ~doc:
            "Fetch statistics from a running server (or cluster router) over \
             HTTP instead of opening a database file. $(docv) may omit the \
             path, which defaults to /stats.")
  in
  let file_opt =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Database file.")
  in
  let run_url url = print_string (http_get_url url) in
  let run_file file =
    with_db file (fun db ->
        let s = Pstore.Store.stats (Database.store db) in
        Printf.printf
          "objects       %d\npages         %d\npage reads    %d\npage writes   %d\nevictions     %d\njournal bytes %d\n"
          s.Pstore.Store.objects s.Pstore.Store.pages s.Pstore.Store.page_reads
          s.Pstore.Store.page_writes s.Pstore.Store.evictions s.Pstore.Store.journal_bytes;
        let q = Pool_lang.Pool.stats db in
        Printf.printf
          "index probes  %d\nrange scans   %d\nhash joins    %d\nextent scans  %d\nplan hits     %d\nplan misses   %d\ninv evals     %d\ninv reuses    %d\n"
          q.Pool_lang.Eval.index_probes q.Pool_lang.Eval.range_scans q.Pool_lang.Eval.hash_joins
          q.Pool_lang.Eval.extent_scans q.Pool_lang.Eval.plan_cache_hits
          q.Pool_lang.Eval.plan_cache_misses q.Pool_lang.Eval.invariant_evals
          q.Pool_lang.Eval.invariant_reuses)
  in
  let run file url =
    match (url, file) with
    | Some u, _ -> run_url u
    | None, Some f -> run_file f
    | None, None ->
        Printf.eprintf "pdb stats: need a database FILE or --url URL\n";
        exit 2
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Print storage statistics (local file or a running server's /stats).")
    Term.(const run $ file_opt $ url)

let metrics_cmd =
  let run file = with_db file (fun db -> print_string (Pserver.Http_server.metrics_text db)) in
  Cmd.v
    (Cmd.info "metrics" ~doc:"Print all metrics in Prometheus text exposition format.")
    Term.(const run $ db_arg)

let trace_cmd =
  let q = Arg.(required & pos 1 (some string) None & info [] ~docv:"QUERY" ~doc:"POOL query.") in
  let run file query =
    with_query_db "trace" file (fun db ->
        Pobs.Trace.enabled := true;
        Pobs.Trace.set_capacity 4096;
        let plan = ref None in
        let v = Pool_lang.Pool.query ~plan:(fun p -> plan := Some p) db query in
        Pobs.Trace.enabled := false;
        let rows = match v with Value.VList l | Value.VSet l | Value.VBag l -> l | v -> [ v ] in
        Printf.printf "(%d rows)\n\n" (List.length rows);
        print_string (Pobs.Trace.to_text ());
        Option.iter (Printf.printf "\nplan: %s\n") !plan)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a POOL query with span tracing and print the span tree, then the plan of its \
          outermost select with each binding's candidates, rejections and emissions.")
    Term.(const run $ db_arg $ q)

let parse_host_port ~what spec =
  match String.rindex_opt spec ':' with
  | Some i -> (
      let h = String.sub spec 0 i in
      let p = String.sub spec (i + 1) (String.length spec - i - 1) in
      match int_of_string_opt p with
      | Some p -> ((if h = "" then "127.0.0.1" else h), p)
      | None ->
          Printf.eprintf "pdb %s: bad --from %S\n" what spec;
          exit 2)
  | None ->
      Printf.eprintf "pdb %s: bad --from %S (want HOST:PORT)\n" what spec;
      exit 2

(* --- integrity ------------------------------------------------------------ *)

let print_scrub_report (r : Pstore.Pager.scrub_report) =
  List.iter
    (fun (no, expected, got) ->
      Printf.printf "page %6d CORRUPT: stored crc 0x%08x computed 0x%08x\n" no
        expected got)
    r.Pstore.Pager.scrub_corrupt;
  Printf.printf "%d pages scanned, %d skipped, %d corrupt\n"
    r.Pstore.Pager.scrub_scanned r.Pstore.Pager.scrub_skipped
    (List.length r.Pstore.Pager.scrub_corrupt)

(* Scan FILE's checksums and report; exit status is the verdict.
   0 = every page verified, 1 = corruption found (per-page report on
   stdout), 2 = the file cannot be checked at all. *)
let verify_run file =
  if not (Sys.file_exists file) then begin
    Printf.eprintf "pdb verify: no such file: %s\n" file;
    exit 2
  end;
  match Pstore.Pager.open_file file with
  | exception Pstore.Pager.Page_corrupt { page; expected; got } ->
      (* header damage: the file cannot even be opened *)
      Printf.printf "page %6d CORRUPT: stored crc 0x%08x computed 0x%08x\n" page
        expected got;
      Printf.printf "header page corrupt: repair from a peer or restore from a snapshot\n";
      exit 1
  | p ->
      let code =
        Fun.protect
          ~finally:(fun () -> Pstore.Pager.close p)
          (fun () ->
            if not (Pstore.Pager.checksums_enabled p) then begin
              Printf.printf "%s: checksums not enabled (legacy file); nothing to verify\n" file;
              0
            end
            else begin
              let r = Pstore.Pager.scrub p in
              print_scrub_report r;
              if r.Pstore.Pager.scrub_corrupt = [] then 0 else 1
            end)
      in
      exit code

let verify_cmd =
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Verify every page checksum of a database file. Exits 0 when clean, \
          1 with a per-page report when corruption is found.")
    Term.(const verify_run $ db_arg)

let scrub_cmd =
  let from =
    Arg.(
      value
      & opt (some string) None
      & info [ "from" ] ~docv:"HOST:PORT"
          ~doc:
            "Repair corrupt pages from the replication primary at $(docv); \
             without it the scrub only detects and reports.")
  in
  let run file from =
    match from with
    | None -> verify_run file
    | Some spec -> (
        let host, rport = parse_host_port ~what:"scrub" spec in
        match Prepl.Replica.scrub_repair ~host ~port:rport file with
        | `Clean n ->
            Printf.printf "%d pages scanned, 0 corrupt\n" n;
            exit 0
        | `Repaired pages ->
            Printf.printf "repaired %d corrupt page(s) from %s: %s\n"
              (List.length pages) spec
              (String.concat " " (List.map string_of_int pages));
            exit 0
        | `Rebootstrapped lsn ->
            Printf.printf "repair impossible: re-bootstrapped from a full snapshot at lsn %d\n" lsn;
            exit 0
        | exception e ->
            Printf.eprintf "pdb scrub: %s\n" (Printexc.to_string e);
            exit 1)
  in
  Cmd.v
    (Cmd.info "scrub"
       ~doc:
         "Scrub a database file's checksums; with --from, heal corrupt pages \
          from a replication primary (falling back to a full re-bootstrap \
          when in-place repair is impossible).")
    Term.(const run $ db_arg $ from)

(* --- server --------------------------------------------------------------- *)

let port_arg =
  Arg.(value & opt int 8080 & info [ "p"; "port" ] ~docv:"PORT" ~doc:"Port to listen on.")

let slowlog_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "slowlog-ms" ] ~docv:"MS"
        ~doc:"Slow-query log threshold in milliseconds (default 10).")

let apply_slowlog = function
  | Some ms -> Pobs.Slowlog.set_threshold_ms ms
  | None -> ()

let readers_arg ~default =
  Arg.(
    value
    & opt int default
    & info [ "readers" ] ~docv:"N"
        ~doc:
          "Snapshot-serving reader domains. With $(docv) > 0, GET traffic is \
           served from frozen snapshot views refreshed at the configured lag \
           and mutations batch through the group-commit writer; 0 keeps the \
           legacy single-threaded path.")

let max_lag_arg =
  Arg.(
    value
    & opt float 50.
    & info [ "max-lag-ms" ] ~docv:"MS"
        ~doc:"Maximum staleness of the reader pool's snapshot generation.")

let serve_cmd =
  let primary =
    Arg.(
      value
      & opt (some int) None
      & info [ "primary" ] ~docv:"RPORT"
          ~doc:"Also act as a replication primary: stream page deltas to replicas on $(docv) (0 = ephemeral).")
  in
  let proto =
    Arg.(
      value
      & opt (enum [ ("http", `Http); ("binary", `Binary) ]) `Http
      & info [ "proto" ] ~docv:"PROTO"
          ~doc:
            "Wire protocols to serve. $(b,http) serves HTTP only; $(b,binary) \
             additionally opens a second port speaking the length-prefixed \
             CRC-framed binary POOL protocol (Query/Batch frames).")
  in
  let binary_port =
    Arg.(
      value
      & opt (some int) None
      & info [ "binary-port" ] ~docv:"BPORT"
          ~doc:
            "Port for the binary protocol listener (with --proto binary); \
             defaults to PORT+1.")
  in
  let max_conns =
    Arg.(
      value
      & opt int 1024
      & info [ "max-conns" ] ~docv:"N"
          ~doc:
            "Admission-control bound: connections beyond $(docv) are answered \
             503 + Retry-After and closed instead of being queued without limit.")
  in
  let cluster =
    Arg.(
      value & flag
      & info [ "cluster" ]
          ~doc:
            "Serve as a promotable cluster node (requires --primary RPORT). \
             The binary port accepts Ping/Ctl cluster verbs, so a router can \
             health-check this node and a deposed primary can be demoted to \
             follow a newly elected one in place.")
  in
  let run file port primary proto binary_port max_conns slowlog_ms readers max_lag_ms cluster =
    apply_slowlog slowlog_ms;
    let binary_port =
      match (proto, binary_port) with
      | `Binary, Some p -> Some p
      | `Binary, None -> Some (if port = 0 then 0 else port + 1)
      | `Http, _ -> None
    in
    if cluster then begin
      let rport =
        match primary with
        | Some r -> r
        | None ->
            Printf.eprintf "pdb serve: --cluster requires --primary RPORT\n";
            exit 2
      in
      (* cluster verbs ride the binary protocol: always open that port *)
      let binary_port =
        match binary_port with Some p -> p | None -> (if port = 0 then 0 else port + 1)
      in
      let node =
        Pcluster.Promote.create_leading ~readers:(max 1 readers) ~max_lag_ms
          ~path:file ~host:"127.0.0.1" ~repl_port:rport ()
      in
      Fun.protect
        ~finally:(fun () -> Pcluster.Promote.shutdown node)
        (fun () -> Pcluster.Promote.serve node ~binary_port ~port ())
    end
    else
    with_db file (fun db ->
        match primary with
        | None ->
            Pserver.Http_server.serve db ~port ~readers ~max_lag_ms ~max_conns ?binary_port ()
        | Some rport ->
            let feed = Prepl.Feed.create (Database.store db) in
            let srv = Prepl.Feed.serve feed ~port:rport in
            Printf.printf "prometheus: replication feed on port %d (stream %d)\n%!"
              srv.Prepl.Feed.port (Prepl.Feed.stream_id feed);
            Fun.protect
              ~finally:(fun () ->
                Prepl.Feed.stop_server srv;
                Prepl.Feed.detach feed)
              (fun () ->
                Pserver.Http_server.serve db ~port ~readers ~max_lag_ms ~max_conns ?binary_port
                  ~repl_status:(fun () -> Prepl.Feed.status_json feed)
                  ()))
  in
  Cmd.v
    (Cmd.info "serve" ~doc:"Serve the database over HTTP (optionally as a replication primary).")
    Term.(
      const run $ db_arg $ port_arg $ primary $ proto $ binary_port $ max_conns $ slowlog_arg
      $ readers_arg ~default:0 $ max_lag_arg $ cluster)

let replica_cmd =
  let from =
    Arg.(
      required
      & opt (some string) None
      & info [ "from" ] ~docv:"HOST:PORT" ~doc:"Primary replication feed to follow.")
  in
  let scrub_interval =
    Arg.(
      value
      & opt (some float) None
      & info [ "scrub-interval" ] ~docv:"SEC"
          ~doc:
            "Background-scrub the replica file every $(docv) seconds, \
             repairing corrupt pages from the primary.")
  in
  let promotable =
    Arg.(
      value
      & opt (some int) None
      & info [ "promotable" ] ~docv:"RPORT"
          ~doc:
            "Run as a promotable cluster node: open the binary port for \
             Ping/Ctl cluster verbs so a router can elect this replica \
             primary; after promotion it serves its replication feed on \
             $(docv) (0 = ephemeral).")
  in
  let serve_repl =
    Arg.(
      value & flag
      & info [ "serve-repl" ]
          ~doc:
            "Chained replication: republish everything this replica applies \
             as a replication feed on the --promotable port, so downstream \
             replicas can follow this node instead of the primary.")
  in
  let binary_port =
    Arg.(
      value
      & opt (some int) None
      & info [ "binary-port" ] ~docv:"BPORT"
          ~doc:"Binary-protocol port (with --promotable); defaults to PORT+1.")
  in
  let run file from port slowlog_ms scrub_every_s readers max_lag_ms promotable serve_repl
      binary_port =
    apply_slowlog slowlog_ms;
    match promotable with
    | Some rport -> (
        let bport =
          match binary_port with Some b -> b | None -> (if port = 0 then 0 else port + 1)
        in
        match
          Pcluster.Promote.create_following ~readers:(max 1 readers) ~max_lag_ms
            ~cascade:serve_repl ~path:file ~host:"127.0.0.1" ~repl_port:rport
            ~upstream:from ()
        with
        | Error e ->
            Printf.eprintf "pdb replica: %s\n" e;
            exit 1
        | Ok node ->
            Fun.protect
              ~finally:(fun () -> Pcluster.Promote.shutdown node)
              (fun () -> Pcluster.Promote.serve node ~binary_port:bport ~port ()))
    | None ->
    let host, rport = parse_host_port ~what:"replica" from in
    let sess = Prepl.Replica.start ?scrub_every_s ~host ~port:rport file in
    let apply = sess.Prepl.Replica.apply in
    (* Wait for the bootstrap snapshot before serving: until it lands
       there is no database file to open. *)
    while
      Prepl.Replica.Apply.with_lock apply (fun () ->
          apply.Prepl.Replica.Apply.pager = None)
    do
      Thread.delay 0.05
    done;
    (* Replica serving goes through the same snapshot-routing path as
       the primary: a reader pool whose generations are read-only
       handles opened under the applier lock, so requests never race
       delta apply, and a client's X-PDB-Min-LSN token is answered
       honestly (catch-up wait, then 503) instead of from a handle the
       applier is rewriting. *)
    let readers = max 1 readers in
    let open_view () =
      Prepl.Replica.Apply.with_lock apply (fun () -> Database.open_ ~readonly:true file)
    in
    let source =
      {
        Pserver.Reader_pool.src_lsn =
          (fun () ->
            Prepl.Replica.Apply.with_lock apply (fun () ->
                match apply.Prepl.Replica.Apply.pager with
                | Some p -> Pstore.Pager.lsn p
                | None -> -1));
        src_build =
          (fun n ->
            (* One read-only handle per generation, shared by all
               readers: the mirror is immutable once loaded. *)
            let db = open_view () in
            (Array.make n db, [ db ]));
      }
    in
    let pool = Pserver.Reader_pool.create ~max_lag_ms ~readers source in
    let db = open_view () in
    Fun.protect
      ~finally:(fun () ->
        Prepl.Replica.stop sess;
        Pserver.Reader_pool.stop pool;
        try Database.close db with _ -> ())
      (fun () ->
        Pserver.Http_server.serve db ~port ~readonly:true ~pool
          ~repl_status:(fun () -> Prepl.Replica.status_json sess)
          ())
  in
  Cmd.v
    (Cmd.info "replica"
       ~doc:"Follow a primary's replication feed and serve the replica read-only over HTTP.")
    Term.(
      const run $ db_arg $ from $ port_arg $ slowlog_arg $ scrub_interval
      $ readers_arg ~default:1 $ max_lag_arg $ promotable $ serve_repl $ binary_port)

(* --- router ---------------------------------------------------------------- *)

let router_cmd =
  let backends =
    Arg.(
      required
      & opt (some string) None
      & info [ "backends" ] ~docv:"HOST:BPORT,..."
          ~doc:
            "Comma-separated binary-protocol addresses of the fleet's \
             backends (primaries and replicas alike — roles are discovered \
             by health probing).")
  in
  let sync_writes =
    Arg.(
      value & flag
      & info [ "sync-writes" ]
          ~doc:
            "Semi-synchronous writes: acknowledge a mutation only once some \
             healthy replica reports having applied its LSN, so a primary \
             dying right after the ack cannot lose acknowledged writes. \
             Degrades to asynchronous when no healthy replica is in view.")
  in
  let probe_interval =
    Arg.(
      value
      & opt float 0.1
      & info [ "probe-interval" ] ~docv:"SEC"
          ~doc:"Health-probe period per backend.")
  in
  let fail_threshold =
    Arg.(
      value
      & opt int 3
      & info [ "fail-threshold" ] ~docv:"N"
          ~doc:"Consecutive failed probes before a backend is marked down.")
  in
  let run port backends sync_writes probe_interval fail_threshold =
    let addrs =
      String.split_on_char ',' backends
      |> List.filter (fun s -> String.trim s <> "")
      |> List.map (fun s -> parse_host_port ~what:"router" (String.trim s))
    in
    if addrs = [] then begin
      Printf.eprintf "pdb router: --backends lists no addresses\n";
      exit 2
    end;
    let r =
      Pcluster.Router.create ~sync_writes ~probe_every_s:probe_interval
        ~fail_threshold addrs
    in
    Pcluster.Router.serve r ~port ()
  in
  Cmd.v
    (Cmd.info "router"
       ~doc:
         "Front a replica fleet: load-balance reads across healthy replicas \
          (honouring X-PDB-Min-LSN read-your-writes tokens), forward writes \
          to the primary, and promote a replica when the primary dies.")
    Term.(const run $ port_arg $ backends $ sync_writes $ probe_interval $ fail_threshold)

(* --- schema loading ----------------------------------------------------------- *)

let load_schema_cmd =
  let odl =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"ODL" ~doc:"ODL schema file.")
  in
  let run file odl =
    with_db file (fun db ->
        Podl.Odl.load_file db odl;
        Printf.printf "schema loaded from %s into %s\n" odl file)
  in
  Cmd.v (Cmd.info "load-schema" ~doc:"Load an ODL schema file into the database.")
    Term.(const run $ db_arg $ odl)

let dump_schema_cmd =
  let run file =
    with_db file (fun db -> print_string (Podl.Odl.print (Database.schema db)))
  in
  Cmd.v (Cmd.info "dump-schema" ~doc:"Export the schema as ODL text.")
    Term.(const run $ db_arg)

(* --- demo ------------------------------------------------------------------- *)

let demo_cmd =
  let run file =
    with_db file (fun db ->
        Taxonomy.Tax_schema.install db;
        let flora = Taxonomy.Flora_gen.generate db () in
        let ctx2 = Taxonomy.Flora_gen.perturb db flora () in
        let root = List.hd flora.Taxonomy.Flora_gen.root_taxa in
        ignore (Taxonomy.Derivation.derive db ~ctx:flora.Taxonomy.Flora_gen.ctx ~root ());
        Printf.printf
          "demo flora written to %s:\n  %d species taxa, %d specimens\n  classifications: #%d and #%d\n\
           try: pdb query %s \"select n.epithet from Name n where n.rank = 'Species'\"\n"
          file
          (List.length flora.Taxonomy.Flora_gen.species_taxa)
          (List.length flora.Taxonomy.Flora_gen.specimens)
          flora.Taxonomy.Flora_gen.ctx ctx2 file)
  in
  Cmd.v (Cmd.info "demo" ~doc:"Populate a demo taxonomic database.") Term.(const run $ db_arg)

let () =
  let info = Cmd.info "pdb" ~version:"1.0" ~doc:"Prometheus taxonomic database tool" in
  exit (Cmd.eval (Cmd.group info [ query_cmd; check_cmd; schema_cmd; contexts_cmd; stats_cmd; metrics_cmd; trace_cmd; verify_cmd; scrub_cmd; serve_cmd; replica_cmd; router_cmd; demo_cmd; load_schema_cmd; dump_schema_cmd ]))
