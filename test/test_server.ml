(* HTTP server tests: the full endpoint surface over a real loopback
   socket — /query, /check, /schema, /contexts, /stats, /metrics —
   plus the abuse paths (404, 405, 400, the 414 bounded-request-line
   path, malformed request lines) and graceful shutdown via the [stop]
   flag and via a SIGTERM to ourselves.

   The server runs on its own thread on an ephemeral port ([~port:0]
   with [?ready] reporting the bound port); each client is a raw
   [Unix] TCP socket so the tests control exactly what bytes go on the
   wire. *)

open Pmodel

let tmp_counter = ref 0

let tmp_path () =
  incr tmp_counter;
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "prom_server_%d_%d.db" (Unix.getpid ()) !tmp_counter)

let cleanup path =
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ path; path ^ ".journal" ]

(* --- a tiny raw-socket HTTP client ------------------------------------ *)

let recv_all fd =
  let b = Buffer.create 1024 in
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

(* Send [raw] verbatim, return the full response text. *)
let talk_raw port raw =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let pos = ref 0 and len = String.length raw in
      let buf = Bytes.unsafe_of_string raw in
      while !pos < len do
        pos := !pos + Unix.write fd buf !pos (len - !pos)
      done;
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      recv_all fd)

let get port target =
  talk_raw port (Printf.sprintf "GET %s HTTP/1.0\r\nHost: localhost\r\n\r\n" target)

let status_of response =
  match String.index_opt response '\r' with
  | Some i -> String.sub response 0 i
  | None -> response

let find_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = if i + nn > nh then None else if String.sub hay i nn = needle then Some i else go (i + 1) in
  go 0

let contains hay needle = find_sub hay needle <> None

let body_of response =
  match find_sub response "\r\n\r\n" with
  | Some i -> String.sub response (i + 4) (String.length response - i - 4)
  | None -> ""

let check_status msg expected response =
  Alcotest.(check string) msg expected (status_of response)

(* --- server fixture ---------------------------------------------------- *)

(* Run a server for [f]; the stop flag (and a nudge request so the
   accept loop wakes) shuts it down afterwards. *)
let with_server ?readonly ?repl_status ?client_timeout ?max_conns f =
  let path = tmp_path () in
  let db = Database.open_ path in
  Taxonomy.Tax_schema.install db;
  let port_box = ref 0 in
  let port_ready = Mutex.create () in
  let cond = Condition.create () in
  let stop = ref false in
  let ready p =
    Mutex.lock port_ready;
    port_box := p;
    Condition.broadcast cond;
    Mutex.unlock port_ready
  in
  let th =
    Thread.create
      (fun () ->
        try
          Pserver.Http_server.serve ?readonly ?repl_status ?client_timeout ?max_conns db
            ~port:0 ~stop ~ready ()
        with e -> Printf.eprintf "server died: %s\n%!" (Printexc.to_string e))
      ()
  in
  Mutex.lock port_ready;
  while !port_box = 0 do
    Condition.wait cond port_ready
  done;
  let port = !port_box in
  Mutex.unlock port_ready;
  Fun.protect
    ~finally:(fun () ->
      stop := true;
      (* nudge the accept loop so it notices the flag promptly *)
      (try ignore (get port "/") with _ -> ());
      Thread.join th;
      Database.close db;
      cleanup path)
    (fun () -> f port)

(* --- endpoint coverage -------------------------------------------------- *)

let test_usage_and_404 () =
  with_server (fun port ->
      let r = get port "/" in
      check_status "usage 200" "HTTP/1.0 200 OK" r;
      if not (contains (body_of r) "GET /query") then Alcotest.fail "usage lists /query";
      check_status "unknown path 404" "HTTP/1.0 404 Not Found" (get port "/nope"))

let test_query_endpoint () =
  with_server (fun port ->
      let r = get port "/query?q=select%20t.rank%20from%20Taxon%20t" in
      check_status "query 200" "HTTP/1.0 200 OK" r;
      check_status "missing q 400" "HTTP/1.0 400 Bad Request" (get port "/query");
      let r = get port "/query?q=select%20%24%24garbage" in
      check_status "syntax error 400" "HTTP/1.0 400 Bad Request" r;
      if not (contains (body_of r) "syntax error") then
        Alcotest.fail "syntax error body names the problem")

let test_query_type_error_400 () =
  (* a value of the wrong type is the query's fault: the evaluation
     error answer, naming the function, never a 500 *)
  with_server (fun port ->
      List.iter
        (fun (q, fn) ->
          let r = get port ("/query?q=" ^ q) in
          check_status (q ^ " answers 400") "HTTP/1.0 400 Bad Request" r;
          if not (contains (body_of r) ("evaluation error: " ^ fn ^ ":")) then
            Alcotest.failf "%s: body should name %s, got %s" q fn (body_of r))
        [
          ("strlen(1)", "strlen");
          ("attr(3,%20'x')", "attr");
          ("first(descendants(99999,%20'R'))", "descendants");
          ("abs('x')", "abs");
          ("not%203", "not");
        ])

let test_check_endpoint () =
  with_server (fun port ->
      let ok = get port "/check?q=select%20t.rank%20from%20Taxon%20t" in
      check_status "check 200" "HTTP/1.0 200 OK" ok;
      Alcotest.(check string) "check ok body" "ok\n" (body_of ok);
      let bad = get port "/check?q=select%20t.nope%20from%20Taxon%20t" in
      check_status "check of bad query still 200" "HTTP/1.0 200 OK" bad;
      if not (contains (body_of bad) "error") then
        Alcotest.fail "typecheck errors are reported in the body")

let test_schema_contexts_stats_metrics () =
  with_server (fun port ->
      let schema = get port "/schema" in
      check_status "schema 200" "HTTP/1.0 200 OK" schema;
      if not (contains (body_of schema) "class Taxon") then
        Alcotest.fail "schema lists Taxon";
      check_status "contexts 200" "HTTP/1.0 200 OK" (get port "/contexts");
      let stats = get port "/stats" in
      check_status "stats 200" "HTTP/1.0 200 OK" stats;
      if not (contains stats "application/json") then
        Alcotest.fail "stats is served as JSON";
      if not (contains (body_of stats) "\"storage\"") then
        Alcotest.fail "stats JSON has a storage section";
      let metrics = get port "/metrics" in
      check_status "metrics 200" "HTTP/1.0 200 OK" metrics;
      if not (contains metrics "text/plain; version=0.0.4") then
        Alcotest.fail "metrics content type is the Prometheus text format";
      if not (contains (body_of metrics) "pdb_http_requests_total") then
        Alcotest.fail "metrics exposes the request counter")

(* --- abuse paths --------------------------------------------------------- *)

let test_method_not_allowed () =
  with_server (fun port ->
      check_status "POST 405" "HTTP/1.0 405 Method Not Allowed"
        (talk_raw port "POST /query HTTP/1.0\r\n\r\n"))

let test_readonly_rejects_non_get () =
  with_server ~readonly:true (fun port ->
      let r = talk_raw port "POST /query HTTP/1.0\r\n\r\n" in
      check_status "readonly POST 403" "HTTP/1.0 403 Forbidden" r;
      if not (contains (body_of r) "read-only replica") then
        Alcotest.fail "403 body names the read-only replica";
      (* reads still work *)
      check_status "readonly GET 200" "HTTP/1.0 200 OK" (get port "/schema"))

let test_repl_status_endpoint () =
  with_server
    ~repl_status:(fun () -> "{\"role\":\"primary\"}")
    (fun port ->
      let r = get port "/repl" in
      check_status "/repl 200" "HTTP/1.0 200 OK" r;
      if not (contains r "application/json") then Alcotest.fail "/repl is JSON";
      if not (contains (body_of r) "\"role\"") then Alcotest.fail "/repl body passed through")

let test_repl_404_without_hook () =
  with_server (fun port ->
      check_status "/repl without a feed 404" "HTTP/1.0 404 Not Found" (get port "/repl"))

let test_long_request_line_414 () =
  with_server (fun port ->
      let r = talk_raw port ("GET /" ^ String.make 10_000 'a' ^ " HTTP/1.0\r\n\r\n") in
      check_status "overlong request line 414" "HTTP/1.0 414 URI Too Long" r)

let test_malformed_request_line () =
  with_server (fun port ->
      check_status "garbage request 400" "HTTP/1.0 400 Bad Request"
        (talk_raw port "this is not http\r\n\r\n");
      (* a client that connects and says nothing must not wedge the server *)
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Unix.close fd;
      check_status "server alive after silent client" "HTTP/1.0 200 OK" (get port "/"))

(* --- keep-alive, pipelining, event-loop edges ---------------------------- *)

(* A persistent raw-socket client: send bytes, read exactly one
   response at a time (framed by Content-Length), keep the connection
   open between requests. *)
type kconn = { kfd : Unix.file_descr; mutable kbuf : string }

let kconnect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { kfd = fd; kbuf = "" }

let kclose k = try Unix.close k.kfd with Unix.Unix_error _ -> ()

let ksend k s =
  let b = Bytes.unsafe_of_string s in
  let pos = ref 0 in
  while !pos < String.length s do
    pos := !pos + Unix.write k.kfd b !pos (String.length s - !pos)
  done

(* Read one complete response off the connection; extra pipelined bytes
   stay buffered for the next call. *)
let kresponse k =
  let chunk = Bytes.create 4096 in
  let refill () =
    match Unix.read k.kfd chunk 0 4096 with
    | 0 -> Alcotest.fail "connection closed mid-response"
    | n -> k.kbuf <- k.kbuf ^ Bytes.sub_string chunk 0 n
  in
  let rec headers_end () =
    match find_sub k.kbuf "\r\n\r\n" with
    | Some i -> i + 4
    | None ->
        refill ();
        headers_end ()
  in
  let he = headers_end () in
  let head = String.sub k.kbuf 0 he in
  let clen =
    let lower = String.lowercase_ascii head in
    match find_sub lower "content-length:" with
    | None -> Alcotest.fail "response has no Content-Length"
    | Some i -> (
        let rest = String.sub lower (i + 15) (String.length lower - i - 15) in
        let line = List.hd (String.split_on_char '\r' rest) in
        match int_of_string_opt (String.trim line) with
        | Some n -> n
        | None -> Alcotest.fail "bad Content-Length")
  in
  while String.length k.kbuf < he + clen do
    refill ()
  done;
  let resp = String.sub k.kbuf 0 (he + clen) in
  k.kbuf <- String.sub k.kbuf (he + clen) (String.length k.kbuf - he - clen);
  resp

let requests_counted () =
  int_of_float (Pobs.Metrics.counter_value Pserver.Http_server.m_requests)

let test_keep_alive () =
  with_server (fun port ->
      let k = kconnect port in
      Fun.protect
        ~finally:(fun () -> kclose k)
        (fun () ->
          (* HTTP/1.1 defaults to keep-alive: two requests, one socket *)
          ksend k "GET /schema HTTP/1.1\r\nHost: x\r\n\r\n";
          let r1 = kresponse k in
          check_status "first keep-alive response" "HTTP/1.0 200 OK" r1;
          if not (contains r1 "Connection: keep-alive") then
            Alcotest.fail "response advertises keep-alive";
          ksend k "GET /contexts HTTP/1.1\r\nHost: x\r\n\r\n";
          check_status "second response on the same socket" "HTTP/1.0 200 OK" (kresponse k);
          (* an explicit close is honoured *)
          ksend k "GET / HTTP/1.1\r\nConnection: close\r\n\r\n";
          let r3 = kresponse k in
          check_status "final response" "HTTP/1.0 200 OK" r3;
          if not (contains r3 "Connection: close") then
            Alcotest.fail "explicit close is echoed"))

let test_pipelining_counts_per_request () =
  with_server (fun port ->
      let before = requests_counted () in
      let k = kconnect port in
      Fun.protect
        ~finally:(fun () -> kclose k)
        (fun () ->
          (* three requests in one write: responses must come back
             complete, in order, and each must count in the metric *)
          ksend k
            ("GET /schema HTTP/1.1\r\nHost: x\r\n\r\n"
           ^ "GET /nope HTTP/1.1\r\nHost: x\r\n\r\n"
           ^ "GET /contexts HTTP/1.1\r\nHost: x\r\n\r\n");
          check_status "pipelined 1" "HTTP/1.0 200 OK" (kresponse k);
          check_status "pipelined 2 (in order)" "HTTP/1.0 404 Not Found" (kresponse k);
          check_status "pipelined 3" "HTTP/1.0 200 OK" (kresponse k);
          Alcotest.(check int) "pdb_http_requests_total counts per request, not per connection"
            (before + 3) (requests_counted ())))

let test_partial_frame_across_reads () =
  with_server (fun port ->
      let k = kconnect port in
      Fun.protect
        ~finally:(fun () -> kclose k)
        (fun () ->
          (* one request dribbled in three writes: the loop must
             re-parse as bytes arrive, not require one-read framing *)
          ksend k "GET /sch";
          Thread.delay 0.05;
          ksend k "ema HTTP/1.1\r\nHos";
          Thread.delay 0.05;
          ksend k "t: x\r\n\r\n";
          let r = kresponse k in
          check_status "split request answered" "HTTP/1.0 200 OK" r;
          if not (contains (body_of r) "class Taxon") then
            Alcotest.fail "split request routed to /schema"))

let test_slow_drip_408 () =
  with_server ~client_timeout:0.4 (fun port ->
      let k = kconnect port in
      Fun.protect
        ~finally:(fun () -> kclose k)
        (fun () ->
          (* a partial request held past the deadline: 408, then close *)
          ksend k "GET / HTT";
          Thread.delay 0.9;
          let r = recv_all k.kfd in
          check_status "slow drip answered with 408" "HTTP/1.0 408 Request Timeout" r))

let test_admission_control_503 () =
  with_server ~max_conns:2 (fun port ->
      (* two keep-alive connections occupy the admission bound ... *)
      let a = kconnect port and b = kconnect port in
      Fun.protect
        ~finally:(fun () ->
          kclose a;
          kclose b)
        (fun () ->
          ksend a "GET / HTTP/1.1\r\nHost: x\r\n\r\n";
          check_status "conn A served" "HTTP/1.0 200 OK" (kresponse a);
          ksend b "GET / HTTP/1.1\r\nHost: x\r\n\r\n";
          check_status "conn B served" "HTTP/1.0 200 OK" (kresponse b);
          (* ... so the third is answered 503 + Retry-After, not dropped *)
          let r = get port "/" in
          check_status "over capacity answered 503" "HTTP/1.0 503 Service Unavailable" r;
          if not (contains r "Retry-After:") then
            Alcotest.fail "503 carries Retry-After");
      (* capacity freed: service resumes — retry briefly, the loop
         reaps the closed connections asynchronously *)
      let rec resume tries =
        let r = get port "/" in
        if String.length r >= 12 && String.sub r 9 3 = "200" then r
        else if tries = 0 then r
        else begin
          Thread.delay 0.05;
          resume (tries - 1)
        end
      in
      check_status "served again after load drops" "HTTP/1.0 200 OK" (resume 40);
      (* a burst far past the bound: every connection is answered, 200
         or 503 + Retry-After, none reset or closed without a reply *)
      let burst = 32 in
      let served = Atomic.make 0 and rejected = Atomic.make 0 and dropped = Atomic.make 0 in
      let fds =
        List.init burst (fun _ ->
            let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
            Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
            fd)
      in
      List.map
        (fun fd ->
          Thread.create
            (fun () ->
              (match
                 let req = "GET / HTTP/1.0\r\nHost: x\r\n\r\n" in
                 ignore (Unix.write_substring fd req 0 (String.length req));
                 recv_all fd
               with
              | r when status_of r = "HTTP/1.0 200 OK" -> Atomic.incr served
              | r
                when status_of r = "HTTP/1.0 503 Service Unavailable"
                     && contains r "Retry-After:" ->
                  Atomic.incr rejected
              | _ | (exception _) -> Atomic.incr dropped);
              try Unix.close fd with Unix.Unix_error _ -> ())
            ())
        fds
      |> List.iter Thread.join;
      Alcotest.(check int) "burst: none dropped without a 503" 0 (Atomic.get dropped);
      Alcotest.(check int) "burst: every connection answered" burst
        (Atomic.get served + Atomic.get rejected);
      Alcotest.(check bool) "burst went past the bound" true (Atomic.get rejected > 0))

let test_select_fallback_backend () =
  (* PDB_POLLER=select forces the poller's portable backend; the whole
     request path must behave identically on it. *)
  Unix.putenv "PDB_POLLER" "select";
  Fun.protect
    ~finally:(fun () -> Unix.putenv "PDB_POLLER" "")
    (fun () ->
      with_server (fun port ->
          let k = kconnect port in
          Fun.protect
            ~finally:(fun () -> kclose k)
            (fun () ->
              ksend k "GET /schema HTTP/1.1\r\nHost: x\r\n\r\n";
              check_status "select backend serves" "HTTP/1.0 200 OK" (kresponse k);
              ksend k "GET / HTTP/1.1\r\nHost: x\r\n\r\n";
              check_status "keep-alive on select backend" "HTTP/1.0 200 OK" (kresponse k))))

(* --- graceful shutdown --------------------------------------------------- *)

let test_stop_flag_finishes_in_flight () =
  with_server (fun port ->
      (* the with_server teardown itself proves the stop flag works; here
         check a request racing the flag still gets a complete response *)
      let r = get port "/schema" in
      check_status "request completes" "HTTP/1.0 200 OK" r)

let test_sigterm_graceful () =
  (* a dedicated server (not the fixture) so the signal path is exercised
     end to end: SIGTERM to ourselves must make [serve] return — after
     finishing the in-flight request — rather than kill the process. *)
  let path = tmp_path () in
  let db = Database.open_ path in
  let port_box = ref 0 in
  let m = Mutex.create () in
  let c = Condition.create () in
  let returned = ref false in
  let th =
    Thread.create
      (fun () ->
        Pserver.Http_server.serve db ~port:0
          ~ready:(fun p ->
            Mutex.lock m;
            port_box := p;
            Condition.broadcast c;
            Mutex.unlock m)
          ();
        returned := true)
      ()
  in
  Mutex.lock m;
  while !port_box = 0 do
    Condition.wait c m
  done;
  let port = !port_box in
  Mutex.unlock m;
  check_status "server answers before the signal" "HTTP/1.0 200 OK" (get port "/");
  Unix.kill (Unix.getpid ()) Sys.sigterm;
  Thread.join th;
  Alcotest.(check bool) "serve returned after SIGTERM" true !returned;
  Database.close db;
  cleanup path

(* --- the pdb CLI on bad POOL --------------------------------------------- *)

(* Under `dune runtest` the cwd is _build/default/test; under a bare
   `dune exec` it is the workspace root.  Find the binary either way. *)
let pdb =
  List.find_opt Sys.file_exists
    [ Filename.concat ".." "bin/pdb.exe"; Filename.concat "_build/default" "bin/pdb.exe" ]
  |> Option.value ~default:(Filename.concat ".." "bin/pdb.exe")

(* [pdb query] and [pdb trace] answer a query that fails to lex, parse
   or evaluate as /query does: the error on stderr and exit status 1,
   not cmdliner's crash handler (exit 125). *)
let test_cli_bad_query () =
  let path = tmp_path () in
  let out = path ^ ".out" in
  let db = Database.open_ path in
  Taxonomy.Tax_schema.install db;
  Database.close db;
  Fun.protect
    ~finally:(fun () ->
      cleanup path;
      if Sys.file_exists out then Sys.remove out)
    (fun () ->
      let run cmd q =
        let code =
          Sys.command
            (Printf.sprintf "%s %s %s %s > %s 2>&1" pdb cmd (Filename.quote path) (Filename.quote q)
               (Filename.quote out))
        in
        let ic = open_in_bin out in
        let text = really_input_string ic (in_channel_length ic) in
        close_in ic;
        (code, text)
      in
      List.iter
        (fun (cmd, q, expected) ->
          let code, text = run cmd q in
          Alcotest.(check int) (Printf.sprintf "pdb %s %S exits 1" cmd q) 1 code;
          if not (contains text expected) then
            Alcotest.failf "pdb %s %S printed %S, expected %S" cmd q text expected)
        [
          ("query", "descendants(#6, 'Circumscribes')", "pdb query: syntax error at 12");
          ("query", "select t from Taxon t where", "pdb query: syntax error");
          ("query", "strlen(1)", "pdb query: evaluation error: strlen");
          ("trace", "select n from Name n where", "pdb trace: syntax error");
          ("trace", "not 3", "pdb trace: evaluation error");
        ];
      let code, text = run "query" "count(select t from Taxon t)" in
      Alcotest.(check (pair int string)) "a good query" (0, "0\n") (code, text))

(* [pdb trace] ends with the plan of the query's select and what each
   binding touched: the member path offers the one descendant. *)
let test_cli_trace_plan () =
  let path = tmp_path () in
  let out = path ^ ".out" in
  let db = Database.open_ path in
  Taxonomy.Tax_schema.install db;
  let taxon rank = Database.create db "Taxon" [ ("rank", Value.VString rank) ] in
  let genus = taxon "Genus" in
  ignore (taxon "Genus");
  ignore (Database.link db "Circumscribes" ~origin:genus ~destination:(taxon "Species"));
  Database.close db;
  Fun.protect
    ~finally:(fun () ->
      cleanup path;
      if Sys.file_exists out then Sys.remove out)
    (fun () ->
      let q =
        "select t from Taxon t where t in descendants(first(select g from Taxon g where g.rank = \
         'Genus'), 'Circumscribes')"
      in
      let code =
        Sys.command
          (Printf.sprintf "%s trace %s %s > %s 2>&1" pdb (Filename.quote path) (Filename.quote q)
             (Filename.quote out))
      in
      let ic = open_in_bin out in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check int) "exit status" 0 code;
      let plan = "\nplan: t<-member(Taxon) {candidates 1, rejected 0, emitted 1}; hoist@0\n" in
      if not (contains text plan) then Alcotest.failf "pdb trace printed %S, expected %S" text plan)

let () =
  Alcotest.run "server"
    [
      ( "endpoints",
        [
          Alcotest.test_case "usage and 404" `Quick test_usage_and_404;
          Alcotest.test_case "/query" `Quick test_query_endpoint;
          Alcotest.test_case "/check" `Quick test_check_endpoint;
          Alcotest.test_case "/schema /contexts /stats /metrics" `Quick
            test_schema_contexts_stats_metrics;
          Alcotest.test_case "/repl passthrough" `Quick test_repl_status_endpoint;
          Alcotest.test_case "/repl 404 without hook" `Quick test_repl_404_without_hook;
          Alcotest.test_case "/query type error 400" `Quick test_query_type_error_400;
          Alcotest.test_case "pdb query/trace: bad POOL exits 1" `Quick test_cli_bad_query;
          Alcotest.test_case "pdb trace prints the plan with counts" `Quick test_cli_trace_plan;
        ] );
      ( "abuse",
        [
          Alcotest.test_case "405 on non-GET" `Quick test_method_not_allowed;
          Alcotest.test_case "403 on non-GET when read-only" `Quick
            test_readonly_rejects_non_get;
          Alcotest.test_case "414 on overlong request line" `Quick test_long_request_line_414;
          Alcotest.test_case "400 on malformed request" `Quick test_malformed_request_line;
        ] );
      ( "event-loop",
        [
          Alcotest.test_case "keep-alive" `Quick test_keep_alive;
          Alcotest.test_case "pipelining counts per request" `Quick
            test_pipelining_counts_per_request;
          Alcotest.test_case "partial frame across reads" `Quick
            test_partial_frame_across_reads;
          Alcotest.test_case "slow drip 408" `Quick test_slow_drip_408;
          Alcotest.test_case "admission control 503" `Quick test_admission_control_503;
          Alcotest.test_case "select fallback backend" `Quick test_select_fallback_backend;
        ] );
      ( "shutdown",
        [
          Alcotest.test_case "stop flag" `Quick test_stop_flag_finishes_in_flight;
          Alcotest.test_case "SIGTERM is graceful" `Quick test_sigterm_graceful;
        ] );
    ]
