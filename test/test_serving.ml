(* Snapshot-serving tests: the reader-domain pool behind `pdb serve
   --readers` and the read-your-writes token protocol around it.

   Covered here, per the serving design:
   - LSN-token monotonicity: a write's X-PDB-LSN presented back as
     X-PDB-Min-LSN is never served stale, even when the background
     refresh cadence is effectively disabled;
   - the refresh-lag bound: an untokened read observes a write within
     the configured lag (plus scheduling slack);
   - old-generation release: stopping the server releases every
     generation, leaving the live handle free to commit;
   - concurrent writers batch through the group-commit writer (the
     /stats serving.group counters prove shared fsync cycles);
   - the pool survives a reader job raising (direct API and HTTP);
   - the slowloris guards: oversized header blocks (431) and trickled
     headers past the wall-clock deadline (408).

   Same raw-socket style as test_server.ml: the server runs on its own
   thread on an ephemeral port and every client is a hand-rolled
   [Unix] TCP connection so the tests control the exact bytes. *)

open Pmodel

let tmp_counter = ref 0

let tmp_path () =
  incr tmp_counter;
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "prom_serving_%d_%d.db" (Unix.getpid ()) !tmp_counter)

let cleanup path =
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ path; path ^ ".journal" ]

(* --- raw-socket HTTP client -------------------------------------------- *)

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

let send_str fd s =
  let pos = ref 0 and len = String.length s in
  let buf = Bytes.unsafe_of_string s in
  while !pos < len do
    pos := !pos + Unix.write fd buf !pos (len - !pos)
  done

let talk_raw port raw =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      send_str fd raw;
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      recv_all fd)

let get ?(headers = []) port target =
  let hs =
    String.concat "" (List.map (fun (k, v) -> Printf.sprintf "%s: %s\r\n" k v) headers)
  in
  talk_raw port (Printf.sprintf "GET %s HTTP/1.0\r\nHost: localhost\r\n%s\r\n" target hs)

let post port target =
  talk_raw port (Printf.sprintf "POST %s HTTP/1.0\r\nHost: localhost\r\n\r\n" target)

let status_of response =
  match String.index_opt response '\r' with
  | Some i -> String.sub response 0 i
  | None -> response

let find_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then None else if String.sub hay i nn = needle then Some i else go (i + 1)
  in
  go 0

let contains hay needle = find_sub hay needle <> None

let body_of response =
  match find_sub response "\r\n\r\n" with
  | Some i -> String.sub response (i + 4) (String.length response - i - 4)
  | None -> ""

(* Value of header [name] in [response] (case-sensitive match on the
   name the server actually emits). *)
let header_of response name =
  let head =
    match find_sub response "\r\n\r\n" with
    | Some i -> String.sub response 0 i
    | None -> response
  in
  let prefix = name ^ ": " in
  List.find_map
    (fun line ->
      if String.length line > String.length prefix
         && String.sub line 0 (String.length prefix) = prefix
      then Some (String.sub line (String.length prefix) (String.length line - String.length prefix))
      else None)
    (String.split_on_char '\n' (String.concat "" (String.split_on_char '\r' head)))

let lsn_of response =
  match Option.bind (header_of response "X-PDB-LSN") int_of_string_opt with
  | Some l -> l
  | None -> Alcotest.failf "no X-PDB-LSN header in: %s" (status_of response)

(* First integer following ["key":] in a compact-JSON body.  Good
   enough for /stats assertions without a JSON parser: the serving
   section keys we probe don't collide with metric names. *)
let json_int body key =
  let tag = Printf.sprintf "\"%s\":" key in
  match find_sub body tag with
  | None -> Alcotest.failf "no %s in stats" key
  | Some i ->
      let start = i + String.length tag in
      let stop = ref start in
      while !stop < String.length body && (body.[!stop] = '-' || (body.[!stop] >= '0' && body.[!stop] <= '9')) do
        incr stop
      done;
      int_of_string (String.sub body start (!stop - start))

let count_sub hay needle =
  let nn = String.length needle in
  let rec go i acc =
    match find_sub (String.sub hay i (String.length hay - i)) needle with
    | None -> acc
    | Some j -> go (i + j + nn) (acc + 1)
  in
  if nn = 0 then 0 else go 0 0

(* --- server fixture ---------------------------------------------------- *)

(* Run a pooled server for [f port db]; tear everything down after.
   [readers]/[max_lag_ms]/[client_timeout] shape the serving config
   under test. *)
let with_server ?(readers = 2) ?(max_lag_ms = 50.) ?client_timeout f =
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
          Pserver.Http_server.serve ~readers ~max_lag_ms ?client_timeout db ~port:0 ~stop ~ready
            ()
        with e -> Printf.eprintf "server died: %s\n%!" (Printexc.to_string e))
      ()
  in
  Mutex.lock port_ready;
  while !port_box = 0 do
    Condition.wait cond port_ready
  done;
  let port = !port_box in
  Mutex.unlock port_ready;
  let stop_server () =
    if not !stop then begin
      stop := true;
      (try ignore (get port "/") with _ -> ());
      Thread.join th
    end
  in
  Fun.protect
    ~finally:(fun () ->
      stop_server ();
      Database.close db;
      cleanup path)
    (fun () -> f ~stop_server port db)

let create_taxon port =
  let r = post port "/create?class=Taxon&rank=genus" in
  Alcotest.(check string) "create ok" "HTTP/1.0 200 OK" (status_of r);
  r

let taxon_query = "/query?q=select%20t.rank%20from%20Taxon%20t"

(* --- read-your-writes -------------------------------------------------- *)

(* With the background refresh effectively disabled (10s lag), only the
   X-PDB-Min-LSN catch-up path can make a write visible on the pool.
   [writers] threads each write 20 taxa under their own rank tag and
   follow every write with a read tokened by its LSN: the read must see
   all of that writer's writes so far, and its served LSN must never
   run behind the token.  Several writers make the tokens race the
   group-commit batches. *)
let test_monotonicity ~writers () =
  with_server ~readers:2 ~max_lag_ms:10000. (fun ~stop_server:_ port _db ->
      let violations = ref [] and m = Mutex.create () in
      let violation s = Mutex.protect m (fun () -> violations := s :: !violations) in
      let writer w () =
        let rank = Printf.sprintf "genus%c" (Char.chr (Char.code 'a' + w)) in
        for i = 1 to 20 do
          try
            let l = lsn_of (post port ("/create?class=Taxon&rank=" ^ rank)) in
            let r = get ~headers:[ ("X-PDB-Min-LSN", string_of_int l) ] port taxon_query in
            if status_of r <> "HTTP/1.0 200 OK" then
              violation (Printf.sprintf "%s read %d: %s" rank i (status_of r))
            else begin
              let seen = count_sub (body_of r) rank in
              if seen <> i then
                violation (Printf.sprintf "%s read %d sees %d of its writes" rank i seen);
              let served = lsn_of r in
              if served < l then
                violation (Printf.sprintf "%s read %d: served lsn %d behind token %d" rank i served l)
            end
          with e -> violation (Printf.sprintf "%s write %d: %s" rank i (Printexc.to_string e))
        done
      in
      List.init writers (fun w -> Thread.create (writer w) ()) |> List.iter Thread.join;
      Alcotest.(check (list string)) "every tokened read sees its writes" [] !violations)

(* A tokened read that no refresh can ever satisfy (the token is far
   beyond the store's LSN) must fall through to the primary handle and
   still answer — and say so in X-PDB-Route. *)
let test_fallthrough () =
  with_server ~readers:1 (fun ~stop_server:_ port _db ->
      ignore (create_taxon port);
      let r = get ~headers:[ ("X-PDB-Min-LSN", "999999999") ] port taxon_query in
      Alcotest.(check string) "fallthrough ok" "HTTP/1.0 200 OK" (status_of r);
      Alcotest.(check int) "fallthrough sees the row" 1 (count_sub (body_of r) "genus");
      Alcotest.(check (option string))
        "routed to primary" (Some "primary")
        (header_of r "X-PDB-Route"))

(* --- refresh lag -------------------------------------------------------- *)

(* An untokened read serves whatever generation is current, but the
   refresher must catch it up within max_lag (plus generous scheduling
   slack): a write becomes visible without any token within 5s. *)
let test_refresh_lag () =
  with_server ~readers:1 ~max_lag_ms:50. (fun ~stop_server:_ port _db ->
      ignore (create_taxon port);
      let deadline = Unix.gettimeofday () +. 5.0 in
      let rec poll () =
        let r = get port taxon_query in
        Alcotest.(check string) "poll ok" "HTTP/1.0 200 OK" (status_of r);
        if count_sub (body_of r) "genus" >= 1 then ()
        else if Unix.gettimeofday () > deadline then
          Alcotest.fail "write not visible on pool within 5s at 50ms max lag"
        else begin
          Thread.delay 0.02;
          poll ()
        end
      in
      poll ())

(* --- generation lifecycle ----------------------------------------------- *)

(* Stopping the server must release every snapshot generation and
   leave the live handle free: a commit goes through, and a view taken
   afterwards is at the live LSN and sees it. *)
let test_generation_release () =
  with_server ~readers:2 ~max_lag_ms:20. (fun ~stop_server port db ->
      for _ = 1 to 5 do
        ignore (create_taxon port);
        (* give the refresher a chance to turn generations over *)
        Thread.delay 0.05
      done;
      stop_server ();
      Database.with_tx db (fun () ->
          ignore (Database.create db "Taxon" [ ("rank", Value.VString "species") ]));
      let view = Database.snapshot db in
      Alcotest.(check int) "a view after stop is at the live LSN"
        (Pstore.Store.lsn (Database.store db)) (Database.view_lsn view);
      Alcotest.(check int) "and sees the commit" (Database.count db "Taxon")
        (Database.count view "Taxon");
      Database.close view)

(* --- group-commit writer ------------------------------------------------ *)

(* Eight concurrent HTTP writers, five creates each: every mutation
   commits exactly once through the group writer, and at least some of
   them share a batch (fewer hard batches than commits would be ideal,
   but timing-dependent — the hard assertions are the exact commit
   count and that batching stayed within bounds). *)
let test_concurrent_writers () =
  with_server ~readers:2 (fun ~stop_server:_ port _db ->
      let writers = 8 and each = 5 in
      let ths =
        List.init writers (fun _ ->
            Thread.create
              (fun () ->
                for _ = 1 to each do
                  ignore (create_taxon port)
                done)
              ())
      in
      List.iter Thread.join ths;
      let stats = body_of (get port "/stats") in
      let commits = json_int stats "commits" in
      let batches = json_int stats "batches" in
      Alcotest.(check int) "every write committed once" (writers * each) commits;
      Alcotest.(check bool) "at least one batch" true (batches >= 1);
      Alcotest.(check bool) "no more batches than commits" true (batches <= commits);
      let r = get port taxon_query in
      Alcotest.(check int)
        "all rows visible eventually" (writers * each)
        (let deadline = Unix.gettimeofday () +. 5.0 in
         let rec poll r =
           let n = count_sub (body_of r) "genus" in
           if n >= writers * each || Unix.gettimeofday () > deadline then n
           else (Thread.delay 0.02; poll (get port taxon_query))
         in
         poll r))

(* --- fault tolerance ---------------------------------------------------- *)

(* A reader job raising must surface to that caller only: the pool keeps
   serving afterwards.  Exercised directly on the Reader_pool API (an
   HTTP /query never raises — the handler turns bad queries into 400s). *)
let test_pool_survives_raising () =
  let path = tmp_path () in
  let db = Database.open_ path in
  Taxonomy.Tax_schema.install db;
  Fun.protect
    ~finally:(fun () ->
      Database.close db;
      cleanup path)
    (fun () ->
      Database.with_tx db (fun () ->
          ignore (Database.create db "Taxon" [ ("rank", Value.VString "genus") ]));
      let pool =
        Pserver.Reader_pool.create ~readers:2 (Pserver.Reader_pool.primary_source db)
      in
      Fun.protect
        ~finally:(fun () -> Pserver.Reader_pool.stop pool)
        (fun () ->
          (match Pserver.Reader_pool.read pool (fun _ -> failwith "boom") with
          | exception Failure m -> Alcotest.(check string) "job exn surfaces" "boom" m
          | _ -> Alcotest.fail "raising job did not raise");
          (* every reader still answers after a job raised *)
          for _ = 1 to 4 do
            match Pserver.Reader_pool.read pool (fun v -> Database.object_count v) with
            | Pserver.Reader_pool.Served (n, _) ->
                Alcotest.(check bool) "pool still serves" true (n >= 1)
            | Pserver.Reader_pool.Behind _ -> Alcotest.fail "unexpected Behind"
          done))

(* Each reader-pool generation is built from its snapshot's own schema
   record, so it carries exactly the index catalog of its LSN: indexes
   created and dropped through the group writer appear and disappear
   generation by generation, and name lookups probe what is there. *)
let test_generation_index_catalog () =
  let path = tmp_path () in
  let db = Database.open_ path in
  Taxonomy.Tax_schema.install db;
  Database.with_tx db (fun () ->
      ignore
        (Database.create db "Name" [ ("epithet", Value.VString "alba"); ("rank", Value.VString "Species") ]));
  let w = Database.Writer.start db in
  let pool = Pserver.Reader_pool.create ~readers:2 (Pserver.Reader_pool.primary_source db) in
  Fun.protect
    ~finally:(fun () ->
      Pserver.Reader_pool.stop pool;
      Database.Writer.stop w;
      Database.close db;
      cleanup path)
    (fun () ->
      let catalog_at ?min_lsn () =
        match
          Pserver.Reader_pool.read pool ?min_lsn (fun v ->
              ( Database.index_defs v,
                Pool_lang.Pool.explain v "select n from Name n where n.epithet = 'alba'" ))
        with
        | Pserver.Reader_pool.Served (r, _) -> r
        | Pserver.Reader_pool.Behind _ -> Alcotest.fail "generation behind its token"
      in
      let check msg defs plan (defs', plan') =
        Alcotest.(check (list (pair string string))) msg defs defs';
        Alcotest.(check string) (msg ^ ": plan") plan plan'
      in
      check "first generation" [ ("Name", "epithet") ] "n<-probe(Name.epithet)" (catalog_at ());
      let lsn, () = Database.Writer.submit w (fun db -> Database.create_index db "Taxon" "rank") in
      check "after create_index"
        [ ("Name", "epithet"); ("Taxon", "rank") ]
        "n<-probe(Name.epithet)" (catalog_at ~min_lsn:lsn ());
      let lsn, () = Database.Writer.submit w (fun db -> Database.drop_index db "Name" "epithet") in
      check "after drop_index" [ ("Taxon", "rank") ] "n<-extent(Name); filter(n.epithet)"
        (catalog_at ~min_lsn:lsn ()))

(* The HTTP face of the same property: a malformed query is a 400, and
   the next query on the same pool is a clean 200. *)
let test_bad_query_then_good () =
  with_server ~readers:2 (fun ~stop_server:_ port _db ->
      let bad = get port "/query?q=select%20%24%24garbage" in
      Alcotest.(check string) "bad query rejected" "HTTP/1.0 400 Bad Request" (status_of bad);
      ignore (create_taxon port);
      let r = get ~headers:[ ("X-PDB-Min-LSN", "1") ] port taxon_query in
      Alcotest.(check string) "pool healthy after bad query" "HTTP/1.0 200 OK" (status_of r))

(* --- slowloris guards --------------------------------------------------- *)

(* More headers than the server will hold: 431, connection still torn
   down cleanly (the next request works). *)
let test_header_count_bound () =
  with_server (fun ~stop_server:_ port _db ->
      let b = Buffer.create 4096 in
      Buffer.add_string b "GET / HTTP/1.0\r\n";
      for i = 1 to 150 do
        Buffer.add_string b (Printf.sprintf "X-Pad-%d: x\r\n" i)
      done;
      Buffer.add_string b "\r\n";
      let r = talk_raw port (Buffer.contents b) in
      Alcotest.(check string)
        "header flood rejected" "HTTP/1.0 431 Request Header Fields Too Large" (status_of r);
      let ok = get port "/" in
      Alcotest.(check string) "server healthy after flood" "HTTP/1.0 200 OK" (status_of ok))

(* A header block over the byte bound (few headers, each huge): 431 via
   the total-bytes cap rather than the per-line cap. *)
let test_header_bytes_bound () =
  with_server (fun ~stop_server:_ port _db ->
      let b = Buffer.create (80 * 1024) in
      Buffer.add_string b "GET / HTTP/1.0\r\n";
      (* 17 headers x ~4KiB = ~68KiB > 64KiB total, each line well under
         the 8KiB per-line bound *)
      for i = 1 to 17 do
        Buffer.add_string b (Printf.sprintf "X-Big-%d: %s\r\n" i (String.make 4096 'a'))
      done;
      Buffer.add_string b "\r\n";
      let r = talk_raw port (Buffer.contents b) in
      Alcotest.(check string)
        "oversized header block rejected" "HTTP/1.0 431 Request Header Fields Too Large"
        (status_of r))

(* Trickled headers: keep the per-read socket timeout happy (a byte
   every 100ms) but never finish the header block.  The wall-clock
   deadline across reads must trip: 408. *)
let test_header_trickle_timeout () =
  with_server ~client_timeout:0.5 (fun ~stop_server:_ port _db ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
          send_str fd "GET / HTTP/1.0\r\n";
          (try
             for _ = 1 to 10 do
               Thread.delay 0.1;
               send_str fd "X-Trickle: a\r\n"
             done
           with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
             () (* server already gave up on us — expected *));
          let r = recv_all fd in
          Alcotest.(check string)
            "trickler timed out" "HTTP/1.0 408 Request Timeout" (status_of r)))

(* --- serving stats surface ---------------------------------------------- *)

(* /stats grows a "serving" section in pool mode with the pool and
   group counters the operator needs; routed reads count up. *)
let test_serving_stats () =
  with_server ~readers:2 (fun ~stop_server:_ port _db ->
      ignore (create_taxon port);
      ignore (get port taxon_query);
      let body = body_of (get port "/stats") in
      Alcotest.(check bool) "serving section present" true (contains body "\"serving\":");
      Alcotest.(check int) "readers reported" 2 (json_int body "readers");
      Alcotest.(check bool) "routed reads counted" true (json_int body "routed_reads" >= 1);
      Alcotest.(check bool)
        "group writes counted" true
        (json_int body "group_writes" >= 1);
      let r = get port taxon_query in
      Alcotest.(check (option string)) "pool route header" (Some "pool")
        (header_of r "X-PDB-Route"))

let () =
  Alcotest.run "serving"
    [
      ( "read-your-writes",
        [
          Alcotest.test_case "lsn token monotonicity" `Slow (test_monotonicity ~writers:1);
          Alcotest.test_case "unreachable token falls through" `Quick test_fallthrough;
          Alcotest.test_case "lsn tokens under concurrent writers" `Slow
            (test_monotonicity ~writers:4);
        ] );
      ( "refresh",
        [
          Alcotest.test_case "lag bound" `Quick test_refresh_lag;
          Alcotest.test_case "generations carry the index catalog" `Quick
            test_generation_index_catalog;
        ] );
      ( "lifecycle",
        [ Alcotest.test_case "generations released on stop" `Quick test_generation_release ]
      );
      ( "group-writer",
        [ Alcotest.test_case "concurrent writers batch" `Slow test_concurrent_writers ] );
      ( "faults",
        [
          Alcotest.test_case "pool survives raising job" `Quick test_pool_survives_raising;
          Alcotest.test_case "bad query then good" `Quick test_bad_query_then_good;
        ] );
      ( "slowloris",
        [
          Alcotest.test_case "header count bound" `Quick test_header_count_bound;
          Alcotest.test_case "header bytes bound" `Quick test_header_bytes_bound;
          Alcotest.test_case "trickle timeout" `Slow test_header_trickle_timeout;
        ] );
      ("stats", [ Alcotest.test_case "serving section" `Quick test_serving_stats ]);
    ]
