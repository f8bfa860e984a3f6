(* Cluster-tier tests: the replica-fleet router, health-checked
   failover, replica promotion, and chained replication.

   Covered here, per the cluster design:
   - the pure election rule: highest durable LSN wins, lowest address
     breaks ties, and the result is independent of candidate order —
     determinism is the split-brain defence;
   - the pipelined backend pool: typed answers over the binary
     protocol, Backend_down (not a hang) against a dead port, and the
     fail-fast backoff gate;
   - stopping a feed with a peer-repair PageFetch in flight answers
     promptly (refusal or close) instead of hanging the fetcher to its
     timeout;
   - the acceptance fault sweep: kill the primary under concurrent
     read/write load through the router with read-your-writes tokens —
     a replica is promoted, acknowledged writes survive, tokens are
     never served stale, and the old primary re-bootstraps off the new
     primary's feed to a byte-identical file;
   - a replica whose applier is frozen is never chosen for a read
     whose X-PDB-Min-LSN token it is behind;
   - two concurrent elections over the same fleet converge on ONE new
     primary (and an election aborts while a primary is reachable);
   - chained replication: primary -> cascading replica -> downstream
     replica, all three files byte-identical.

   Same in-process style as test_serving.ml: every server runs on its
   own thread on an ephemeral port; HTTP clients are raw sockets. *)

open Pmodel
module S = Pstore.Store
module Feed = Prepl.Feed
module R = Prepl.Replica
module W = Prepl.Wire
module L = Prepl.Link
module BP = Pserver.Backend_pool
module Client = Pserver.Client
module Topo = Pcluster.Topology
module Promote = Pcluster.Promote
module Router = Pcluster.Router

let tmp_counter = ref 0

let tmp_path () =
  incr tmp_counter;
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "prom_cluster_%d_%d.db" (Unix.getpid ()) !tmp_counter)

let cleanup path =
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ path; path ^ ".journal"; path ^ ".replid"; path ^ ".replid.tmp"; path ^ ".snap" ]

let wait ?(timeout = 30.) msg cond =
  let deadline = Unix.gettimeofday () +. timeout in
  while (not (cond ())) && Unix.gettimeofday () < deadline do
    Thread.delay 0.02
  done;
  if not (cond ()) then Alcotest.failf "timeout waiting for %s" msg

let read_disk path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

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

(* Case-insensitive header lookup: the router re-emits backend headers
   in the lowercased form the binary protocol carries them in. *)
let header_of response name =
  let name = String.lowercase_ascii name in
  let head =
    match find_sub response "\r\n\r\n" with
    | Some i -> String.sub response 0 i
    | None -> response
  in
  List.find_map
    (fun line ->
      match String.index_opt line ':' with
      | Some i
        when String.lowercase_ascii (String.sub line 0 i) = name
             && String.length line > i + 1 ->
          Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
      | _ -> None)
    (String.split_on_char '\n' (String.concat "" (String.split_on_char '\r' head)))

let lsn_of response =
  Option.bind (header_of response "x-pdb-lsn") int_of_string_opt

let count_sub hay needle =
  let nn = String.length needle in
  let rec go i acc =
    match find_sub (String.sub hay i (String.length hay - i)) needle with
    | None -> acc
    | Some j -> go (i + j + nn) (acc + 1)
  in
  if nn = 0 then 0 else go 0 0

let taxon_query = "/query?q=select%20t.rank%20from%20Taxon%20t"

(* --- fixtures ----------------------------------------------------------- *)

(* Seed a database file with the taxonomy schema so /create works. *)
let seed path =
  let db = Database.open_ path in
  Taxonomy.Tax_schema.install db;
  Database.close db

type live_node = {
  ln_node : Promote.node;
  ln_path : string;
  ln_port : int; (* HTTP *)
  ln_bport : int; (* binary protocol (Ping/Ctl/Hreq) *)
  ln_stop : bool ref;
  ln_thread : Thread.t;
}

(* Serve a cluster node (HTTP + binary, both ephemeral) on its own
   thread; block until both ports are known. *)
let start_node ~path (node : Promote.node) : live_node =
  let stop = ref false in
  let m = Mutex.create () and cv = Condition.create () in
  let pbox = ref 0 and bbox = ref 0 in
  let set box p =
    Mutex.lock m;
    box := p;
    Condition.broadcast cv;
    Mutex.unlock m
  in
  let th =
    Thread.create
      (fun () ->
        try
          Promote.serve node ~stop ~ready:(set pbox) ~binary_port:0
            ~binary_ready:(set bbox) ~port:0 ()
        with e -> Printf.eprintf "node died: %s\n%!" (Printexc.to_string e))
      ()
  in
  Mutex.lock m;
  while !pbox = 0 || !bbox = 0 do
    Condition.wait cv m
  done;
  Mutex.unlock m;
  { ln_node = node; ln_path = path; ln_port = !pbox; ln_bport = !bbox; ln_stop = stop; ln_thread = th }

(* Abrupt death: stop serving (HTTP and binary both go dark), then tear
   the node's replication machinery down. *)
let kill_node (ln : live_node) =
  if not !(ln.ln_stop) then begin
    ln.ln_stop := true;
    (try ignore (get ln.ln_port "/") with _ -> ());
    (try Thread.join ln.ln_thread with _ -> ());
    Promote.shutdown ln.ln_node
  end

let feed_port (node : Promote.node) =
  match node.Promote.n_state with
  | Promote.Leading l -> l.l_fsrv.Feed.port
  | Promote.Following _ -> Alcotest.fail "node is not leading"

let is_leading (node : Promote.node) =
  match node.Promote.n_state with Promote.Leading _ -> true | Promote.Following _ -> false

let mk_follower ~upstream path =
  match
    Promote.create_following ~readers:1 ~path ~host:"127.0.0.1" ~repl_port:0
      ~upstream ()
  with
  | Ok n -> n
  | Error e -> Alcotest.failf "create_following: %s" e

type live_router = {
  lr_router : Router.t;
  lr_port : int;
  lr_stop : bool ref;
  lr_thread : Thread.t;
}

let start_router ?(sync_writes = false) backends : live_router =
  let r =
    Router.create ~sync_writes ~probe_every_s:0.05 ~fail_threshold:3 backends
  in
  let stop = ref false in
  let m = Mutex.create () and cv = Condition.create () in
  let pbox = ref 0 in
  let th =
    Thread.create
      (fun () ->
        try
          Router.serve r ~stop
            ~ready:(fun p ->
              Mutex.lock m;
              pbox := p;
              Condition.broadcast cv;
              Mutex.unlock m)
            ~port:0 ()
        with e -> Printf.eprintf "router died: %s\n%!" (Printexc.to_string e))
      ()
  in
  Mutex.lock m;
  while !pbox = 0 do
    Condition.wait cv m
  done;
  Mutex.unlock m;
  { lr_router = r; lr_port = !pbox; lr_stop = stop; lr_thread = th }

let stop_router (lr : live_router) =
  if not !(lr.lr_stop) then begin
    lr.lr_stop := true;
    (try ignore (get lr.lr_port "/") with _ -> ());
    try Thread.join lr.lr_thread with _ -> ()
  end

(* ------------------------------------------------------------------ *)
(* The election rule (pure)                                            *)
(* ------------------------------------------------------------------ *)

let test_elect_rule () =
  Alcotest.(check (option string))
    "highest LSN wins" (Some "b:1")
    (Topo.elect [ ("a:1", 5); ("b:1", 9) ]);
  Alcotest.(check (option string))
    "equal LSN: lowest address wins" (Some "a:1")
    (Topo.elect [ ("c:1", 7); ("a:1", 7); ("b:1", 7) ]);
  Alcotest.(check (option string)) "no candidates" None (Topo.elect []);
  (* order-independence: every permutation elects the same winner *)
  let cands = [ ("n2:9002", 40); ("n1:9001", 41); ("n3:9003", 41) ] in
  let rec perms = function
    | [] -> [ [] ]
    | l ->
        List.concat_map
          (fun x -> List.map (fun p -> x :: p) (perms (List.filter (( != ) x) l)))
          l
  in
  List.iter
    (fun p ->
      Alcotest.(check (option string))
        "permutation-invariant" (Some "n1:9001") (Topo.elect p))
    (perms cands)

(* ------------------------------------------------------------------ *)
(* Backend pool                                                        *)
(* ------------------------------------------------------------------ *)

let test_backend_pool () =
  let path = tmp_path () in
  seed path;
  let node =
    Promote.create_leading ~readers:1 ~path ~host:"127.0.0.1" ~repl_port:0 ()
  in
  let ln = start_node ~path node in
  Fun.protect
    ~finally:(fun () ->
      kill_node ln;
      cleanup path)
    (fun () ->
      let pool = BP.create ~host:"127.0.0.1" ~port:ln.ln_bport () in
      Fun.protect
        ~finally:(fun () -> BP.close pool)
        (fun () ->
          (* typed ping: a leading cluster node names its role, feed *)
          let p = BP.ping pool in
          Alcotest.(check string) "role" "primary" p.Client.p_role;
          Alcotest.(check int) "repl port" (feed_port node) p.Client.p_repl_port;
          Alcotest.(check bool) "stream id minted" true (p.Client.p_stream_id <> 0);
          (* HTTP-over-binary: mutate, then read back *)
          let st, hdrs, _ = BP.http pool ~meth:"POST" ~target:"/create?class=Taxon&rank=genus" in
          Alcotest.(check int) "create ok" 200 st;
          Alcotest.(check bool) "write acks an LSN" true
            (List.mem_assoc "x-pdb-lsn" hdrs);
          (* read-your-writes over the binary protocol: the token makes
             the backend wait out any snapshot lag *)
          let tok = List.assoc "x-pdb-lsn" hdrs in
          let st, _, body =
            BP.http pool
              ~headers:[ ("x-pdb-min-lsn", tok) ]
              ~meth:"GET" ~target:taxon_query
          in
          Alcotest.(check int) "query ok" 200 st;
          Alcotest.(check int) "row visible" 1 (count_sub body "genus");
          (* unknown control verb is a typed error, not a hang *)
          (match BP.ctl pool ~verb:"frobnicate" ~arg:"" with
          | Client.Err _ -> ()
          | Client.Ok v -> Alcotest.failf "bogus verb accepted: %s" v));
      (* a dead backend fails fast with Backend_down, and the armed
         backoff gate keeps later requests fail-fast too *)
      let dead = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.bind dead (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      let dport =
        match Unix.getsockname dead with Unix.ADDR_INET (_, p) -> p | _ -> 0
      in
      Unix.close dead;
      let pool = BP.create ~host:"127.0.0.1" ~port:dport () in
      Fun.protect
        ~finally:(fun () -> BP.close pool)
        (fun () ->
          let t0 = Unix.gettimeofday () in
          (match BP.query pool "select 1" with
          | _ -> Alcotest.fail "query against a dead port succeeded"
          | exception Client.Backend_down _ -> ());
          (match BP.query pool "select 1" with
          | _ -> Alcotest.fail "second query against a dead port succeeded"
          | exception Client.Backend_down _ -> ());
          Alcotest.(check bool) "fail-fast, no hang" true
            (Unix.gettimeofday () -. t0 < 5.)))

(* A port nothing listens on: bind an ephemeral port, then release it. *)
let closed_port () =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let p = match Unix.getsockname s with Unix.ADDR_INET (_, p) -> p | _ -> 0 in
  Unix.close s;
  p

(* A health probe of a backend named by hostname that refuses the
   connection is a recorded failure, not an exception out of the
   sweep. *)
let test_probe_localhost_closed_port () =
  let topo = Topo.create [ ("localhost", closed_port ()) ] in
  Fun.protect
    ~finally:(fun () -> Topo.close topo)
    (fun () ->
      let m = Pcluster.Health.create topo in
      Pcluster.Health.probe_once m;
      let b = topo.Topo.backends.(0) in
      Alcotest.(check int) "one failed probe recorded" 1 b.Topo.b_fail_streak)

(* A stand-in backend on an ephemeral port: [serve] runs on each
   accepted connection until the pool hangs up.  Returns the port, the
   number of connections accepted so far, and a stopper. *)
let fake_backend (serve : Client.t -> unit) =
  let l = L.listen ~host:"127.0.0.1" ~port:0 in
  let accepted = Atomic.make 0 and stop = Atomic.make false in
  let th =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          if L.poll_listener l 0.05 then begin
            let c = Client.of_link (L.accept l) in
            Atomic.incr accepted;
            ignore
              (Thread.create
                 (fun () ->
                   (try serve c with Client.Backend_down _ | Client.Protocol_error _ -> ());
                   Client.close c)
                 ())
          end
        done;
        L.close_listener l)
      ()
  in
  (l.L.bound_port, accepted, fun () -> Atomic.set stop true; Thread.join th)

(* A backend that accepts and never answers: the request fails with
   "request timed out" once the timeout passes, at the reader's next
   tick, instead of hanging. *)
let test_pool_request_timeout () =
  let port, _, stop =
    fake_backend (fun c ->
        while true do
          ignore (Client.recv_frame c)
        done)
  in
  Fun.protect ~finally:stop (fun () ->
      let timeout_s = 0.5 in
      let pool = BP.create ~channels:1 ~timeout_s ~host:"127.0.0.1" ~port () in
      Fun.protect
        ~finally:(fun () -> BP.close pool)
        (fun () ->
          (* asked on a thread, so a reader that never expires the
             request fails the test instead of hanging it *)
          let t0 = Unix.gettimeofday () in
          let outcome = Atomic.make None in
          ignore
            (Thread.create
               (fun () ->
                 Atomic.set outcome
                   (Some (try Ok (BP.query pool "select 1") with e -> Error e)))
               ());
          wait ~timeout:(timeout_s +. 5.) "the request to end" (fun () ->
              Atomic.get outcome <> None);
          let took = Unix.gettimeofday () -. t0 in
          (match Atomic.get outcome with
          | Some (Error (Client.Backend_down m)) ->
              Alcotest.(check string) "failure names the timeout" "request timed out" m
          | Some (Error e) -> Alcotest.failf "unexpected failure: %s" (Printexc.to_string e)
          | _ -> Alcotest.fail "a silent backend answered");
          if took < timeout_s || took > timeout_s +. BP.reader_tick_s +. 0.5 then
            Alcotest.failf "timed out after %.2fs (timeout %.2fs, tick %.2fs)" took timeout_s
              BP.reader_tick_s))

(* An idle channel outlives several reader ticks and serves the next
   request on the same connection. *)
let test_pool_idle_channel_survives () =
  let port, accepted, stop =
    fake_backend (fun c ->
        while true do
          match Client.recv_frame c with
          | Pserver.Binary_proto.Query { id; _ } ->
              Client.send_frame c (Pserver.Binary_proto.Result { id; v = "ok" })
          | _ -> ()
        done)
  in
  Fun.protect ~finally:stop (fun () ->
      let pool = BP.create ~channels:1 ~host:"127.0.0.1" ~port () in
      Fun.protect
        ~finally:(fun () -> BP.close pool)
        (fun () ->
          let ask () =
            match BP.query pool "select 1" with
            | Client.Ok v -> Alcotest.(check string) "answer" "ok" v
            | Client.Err e -> Alcotest.fail e
          in
          ask ();
          Thread.delay (4. *. BP.reader_tick_s);
          Alcotest.(check int) "still connected after idle ticks" 1 (BP.connected pool);
          ask ();
          Alcotest.(check int) "no reconnect" 1 (Atomic.get accepted)))

(* A send that fails while the channel's reader polls the connection.
   The connection must be detached and shut down, not closed: a close
   would free its descriptor number for the reconnect while the reader
   still polls that number, and the reader would read the new
   connection's answers as the old one's.  First the interleaving is
   forced under the channel lock (the reader cannot close anything
   while the test holds it), then the request path fails sends and
   reconnects at once, twenty times: every answer comes promptly (the
   shut-down connection wakes the reader instead of holding it to its
   tick), and the reader closes every detached descriptor. *)
let test_pool_send_failure_vs_poll () =
  let port, accepted, stop =
    fake_backend (fun c ->
        while true do
          match Client.recv_frame c with
          | Pserver.Binary_proto.Query { id; _ } ->
              Client.send_frame c (Pserver.Binary_proto.Result { id; v = "ok" })
          | _ -> ()
        done)
  in
  let open_fds () =
    if Sys.file_exists "/proc/self/fd" then Array.length (Sys.readdir "/proc/self/fd") else 0
  in
  Fun.protect ~finally:stop (fun () ->
      let pool = BP.create ~channels:1 ~host:"127.0.0.1" ~port () in
      Fun.protect
        ~finally:(fun () -> BP.close pool)
        (fun () ->
          let ask () =
            match
              BP.request ~force:true pool
                (fun id -> Pserver.Binary_proto.Query { id; q = "select 1" })
                Client.answer_of
            with
            | Client.Ok v -> Alcotest.(check string) "answer" "ok" v
            | Client.Err e -> Alcotest.fail e
          in
          ask ();
          let fds = open_fds () in
          let ch = pool.BP.chans.(0) in
          Mutex.lock ch.BP.cm;
          let old = Option.get ch.BP.c_conn in
          BP.fail_channel_locked ch "forced";
          let still_open =
            match old.Client.link.L.poll 0. with
            | _ -> true
            | exception L.Link_down _ -> false
          in
          Mutex.unlock ch.BP.cm;
          Alcotest.(check bool) "a detached connection keeps its descriptor" true still_open;
          ask ();
          let cycles = 20 in
          let t0 = Unix.gettimeofday () in
          for _ = 1 to cycles do
            (match
               BP.request ~force:true pool (fun _ -> failwith "unbuildable frame") Client.answer_of
             with
            | _ -> Alcotest.fail "a failed send answered"
            | exception Client.Backend_down _ -> ());
            ask ()
          done;
          let took = Unix.gettimeofday () -. t0 in
          if took > float_of_int cycles *. BP.reader_tick_s /. 4. then
            Alcotest.failf "%d reconnects took %.2fs: the reader waited out its tick" cycles took;
          Alcotest.(check int) "one dial per failure" (cycles + 2) (Atomic.get accepted);
          wait ~timeout:5. "the reader to close the detached connections" (fun () ->
              open_fds () <= fds)))

(* ------------------------------------------------------------------ *)
(* Feed shutdown vs in-flight PageFetch (satellite)                    *)
(* ------------------------------------------------------------------ *)

(* A peer-repair fetch racing the feed's shutdown must be answered
   promptly — the typed refusal (empty PageData) or a closed link —
   never left unanswered until the fetcher's multi-second timeout. *)
let test_stop_with_fetch_in_flight () =
  let path = tmp_path () in
  let s = S.open_ path in
  Fun.protect
    ~finally:(fun () ->
      (try S.close s with _ -> ());
      cleanup path)
    (fun () ->
      for i = 1 to 4 do
        S.with_tx s (fun () -> S.put s ~oid:i (String.make 900 'x'))
      done;
      let feed = Feed.create s in
      let srv = Feed.serve feed ~port:0 in
      let link = L.connect ~host:"127.0.0.1" ~port:srv.Feed.port in
      (* caught-up hello: the handler parks in its streaming wait *)
      W.to_link link (W.Hello { stream_id = Feed.stream_id feed; last_lsn = S.lsn s });
      Thread.delay 0.1;
      let t0 = Unix.gettimeofday () in
      let stopper = Thread.create (fun () -> Feed.stop_server srv) () in
      (try W.to_link link (W.PageFetch { lsn = S.lsn s; pages = [ 0 ] })
       with L.Link_down _ -> ());
      let outcome =
        try
          match W.from_link link with
          | W.PageData { pages = []; _ } -> `Refused
          | W.PageData _ -> `Served
          | _ -> `Other
        with L.Link_down _ | W.Wire_error _ -> `Dropped
      in
      Thread.join stopper;
      let elapsed = Unix.gettimeofday () -. t0 in
      Feed.detach feed;
      (match outcome with
      | `Refused | `Served | `Dropped -> ()
      | `Other -> Alcotest.fail "unexpected frame answering a racing PageFetch");
      if elapsed >= 8. then
        Alcotest.failf "shutdown left the fetcher hanging %.1fs" elapsed)

(* ------------------------------------------------------------------ *)
(* Chained replication                                                 *)
(* ------------------------------------------------------------------ *)

let test_chained_replication () =
  let p1 = tmp_path () and p2 = tmp_path () and p3 = tmp_path () in
  seed p1;
  let n1 = Promote.create_leading ~readers:1 ~path:p1 ~host:"127.0.0.1" ~repl_port:0 () in
  let db1 =
    match n1.Promote.n_state with
    | Promote.Leading l -> l.l_db
    | _ -> assert false
  in
  let s1 = Database.store db1 in
  (* middle node: follows the primary AND republishes through a cascade
     feed on its own port *)
  let n2 =
    match
      Promote.create_following ~readers:1 ~cascade:true ~path:p2
        ~host:"127.0.0.1" ~repl_port:0
        ~upstream:(Printf.sprintf "127.0.0.1:%d" (feed_port n1))
        ()
    with
    | Ok n -> n
    | Error e -> Alcotest.failf "middle replica: %s" e
  in
  let cascade_port =
    match n2.Promote.n_cascade_state with
    | Some (_, srv) -> srv.Feed.port
    | None -> Alcotest.fail "cascade feed did not come up"
  in
  (* downstream replica chains off the MIDDLE node, not the primary *)
  let sess3 = R.start ~host:"127.0.0.1" ~port:cascade_port p3 in
  Fun.protect
    ~finally:(fun () ->
      (try R.stop sess3 with _ -> ());
      Promote.shutdown n2;
      Promote.shutdown n1;
      List.iter cleanup [ p1; p2; p3 ])
    (fun () ->
      for i = 100 to 110 do
        S.with_tx s1 (fun () -> S.put s1 ~oid:i (String.make (200 + i) 'c'))
      done;
      let lsn1 () = S.lsn s1 in
      wait "middle catches up" (fun () ->
          R.Apply.last_lsn
            (match n2.Promote.n_state with
            | Promote.Following f -> f.f_sess.R.apply
            | _ -> Alcotest.fail "middle stopped following")
          = lsn1 ());
      wait "downstream catches up through the chain" (fun () ->
          R.Apply.last_lsn sess3.R.apply = lsn1 ());
      Alcotest.(check bool) "all three files byte-identical" true
        (read_disk p1 = read_disk p2 && read_disk p2 = read_disk p3);
      (* the chain inherits ONE stream id: LSNs stay comparable *)
      Alcotest.(check int) "downstream shares the primary's stream id"
        (Feed.stream_id
           (match n1.Promote.n_state with
           | Promote.Leading l -> l.l_feed
           | _ -> assert false))
        (R.Apply.stream_id sess3.R.apply))

(* The index catalog survives failover.  It is part of the schema
   record, so a follower holds the primary's indexes (the taxonomic
   schema's [Name.epithet], and one created after the follower
   bootstrapped) and so does the primary it is promoted to: its name
   lookups still probe an index and answer as the old primary did. *)
let test_promotion_keeps_indexes () =
  let p1 = tmp_path () and p2 = tmp_path () in
  seed p1;
  let n1 = Promote.create_leading ~readers:1 ~path:p1 ~host:"127.0.0.1" ~repl_port:0 () in
  let db1 =
    match n1.Promote.n_state with
    | Promote.Leading l -> l.l_db
    | _ -> assert false
  in
  Database.with_tx db1 (fun () ->
      List.iteri
        (fun i e ->
          ignore
            (Database.create db1 Taxonomy.Tax_schema.name
               [
                 ("epithet", Value.VString e);
                 ("rank", Value.VString (if i mod 2 = 0 then "Species" else "Genus"));
               ]))
        [ "alba"; "rubra"; "alba"; "nigra"; "rubra" ]);
  let n2 = mk_follower ~upstream:(Printf.sprintf "127.0.0.1:%d" (feed_port n1)) p2 in
  Fun.protect
    ~finally:(fun () ->
      Promote.shutdown n2;
      Promote.shutdown n1;
      List.iter cleanup [ p1; p2 ])
    (fun () ->
      Database.create_index db1 Taxonomy.Tax_schema.taxon "rank";
      let apply =
        match n2.Promote.n_state with
        | Promote.Following f -> f.f_sess.R.apply
        | _ -> Alcotest.fail "not following"
      in
      wait "follower catches up" (fun () ->
          R.Apply.last_lsn apply = S.lsn (Database.store db1));
      let catalog = [ ("Name", "epithet"); ("Taxon", "rank") ] in
      Alcotest.(check (list (pair string string))) "primary" catalog (Database.index_defs db1);
      let replica = R.Apply.with_lock apply (fun () -> Database.open_ ~readonly:true p2) in
      Alcotest.(check (list (pair string string))) "follower" catalog
        (Database.index_defs replica);
      Database.close replica;
      let lookups =
        [
          "select n.rank from Name n where n.epithet = 'alba'";
          "first(select n from Name n where n.epithet = 'rubra' and n.rank = 'Genus')";
          "select n from Name n where n.epithet = 'none'";
        ]
      in
      let expected = List.map (Pool_lang.Pool.query db1) lookups in
      (match Promote.promote n2 with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "promote: %s" e);
      let db2 =
        match n2.Promote.n_state with
        | Promote.Leading l -> l.l_db
        | _ -> Alcotest.fail "not leading after promotion"
      in
      Alcotest.(check (list (pair string string))) "promoted primary" catalog
        (Database.index_defs db2);
      Alcotest.(check string) "a name lookup probes" "n<-probe(Name.epithet)"
        (Pool_lang.Pool.explain db2 "select n from Name n where n.epithet = 'alba'");
      List.iter2
        (fun q v ->
          Alcotest.(check string) q (Value.to_string v)
            (Value.to_string (Pool_lang.Pool.query db2 q)))
        lookups expected)

(* ------------------------------------------------------------------ *)
(* The acceptance fault sweep: failover under load                     *)
(* ------------------------------------------------------------------ *)

let test_failover_under_load () =
  let p1 = tmp_path () and p2 = tmp_path () and p3 = tmp_path () in
  seed p1;
  let n1 = Promote.create_leading ~readers:1 ~path:p1 ~host:"127.0.0.1" ~repl_port:0 () in
  let upstream = Printf.sprintf "127.0.0.1:%d" (feed_port n1) in
  let l1 = start_node ~path:p1 n1 in
  let n2 = mk_follower ~upstream p2 in
  let l2 = start_node ~path:p2 n2 in
  let n3 = mk_follower ~upstream p3 in
  let l3 = start_node ~path:p3 n3 in
  let lr =
    start_router ~sync_writes:true
      [
        ("127.0.0.1", l1.ln_bport);
        ("127.0.0.1", l2.ln_bport);
        ("127.0.0.1", l3.ln_bport);
      ]
  in
  let rport = lr.lr_port in
  Fun.protect
    ~finally:(fun () ->
      stop_router lr;
      List.iter kill_node [ l1; l2; l3 ];
      List.iter cleanup [ p1; p2; p3 ])
    (fun () ->
      let acked = ref 0 and last_lsn = ref 0 in
      let write () =
        let resp = post rport "/create?class=Taxon&rank=genus" in
        if status_of resp = "HTTP/1.0 200 OK" then begin
          (match lsn_of resp with
          | Some l -> if l > !last_lsn then last_lsn := l
          | None -> ());
          incr acked;
          true
        end
        else false
      in
      (* before the fault: writes ack and read-your-writes holds
         through the router *)
      for _ = 1 to 5 do
        ignore (write ())
      done;
      Alcotest.(check int) "initial writes acknowledged" 5 !acked;
      let r1 =
        get ~headers:[ ("X-PDB-Min-LSN", string_of_int !last_lsn) ] rport taxon_query
      in
      Alcotest.(check string) "tokened read through the router" "HTTP/1.0 200 OK"
        (status_of r1);
      Alcotest.(check int) "router read sees every acked write" !acked
        (count_sub (body_of r1) "genus");
      (* /stats works against the router (pdb stats --url) *)
      let st = body_of (get rport "/stats") in
      Alcotest.(check bool) "router stats has a cluster section" true
        (contains st "\"cluster\"" && contains st "\"backends\"");
      (* concurrent load while the primary dies *)
      let stop_load = ref false in
      let violations = ref 0 in
      let reader =
        Thread.create
          (fun () ->
            while not !stop_load do
              let tok = !last_lsn in
              let resp =
                get ~headers:[ ("X-PDB-Min-LSN", string_of_int tok) ] rport taxon_query
              in
              (if status_of resp = "HTTP/1.0 200 OK" then
                 match lsn_of resp with
                 | Some served when served < tok -> incr violations
                 | _ -> ());
              Thread.delay 0.01
            done)
          ()
      in
      let writer =
        Thread.create
          (fun () ->
            while not !stop_load do
              ignore (write ());
              Thread.delay 0.02
            done)
          ()
      in
      Thread.delay 0.3;
      kill_node l1; (* abrupt primary death *)
      let before = !acked in
      wait ~timeout:40. "writes resume on the promoted replica" (fun () ->
          !acked > before);
      Thread.delay 0.3;
      stop_load := true;
      Thread.join reader;
      Thread.join writer;
      Alcotest.(check int) "zero read-your-writes violations" 0 !violations;
      (* exactly one replica was promoted *)
      Alcotest.(check bool) "exactly one new primary" true
        (is_leading n2 <> is_leading n3);
      let newp, newp_path = if is_leading n2 then (n2, p2) else (n3, p3) in
      let other_sess () =
        match (if is_leading n2 then n3 else n2).Promote.n_state with
        | Promote.Following f -> f.f_sess
        | Promote.Leading _ -> Alcotest.fail "both replicas promoted"
      in
      let new_store () =
        match newp.Promote.n_state with
        | Promote.Leading l -> Database.store l.l_db
        | _ -> Alcotest.fail "new primary stopped leading"
      in
      (* the surviving replica was re-pointed at the new primary *)
      wait "surviving replica follows the new primary" (fun () ->
          (other_sess ()).R.port = feed_port newp);
      wait "surviving replica catches up" (fun () ->
          R.Apply.last_lsn (other_sess ()).R.apply = S.lsn (new_store ()));
      (* zero acknowledged writes lost: every acked create is a row *)
      let fin =
        get ~headers:[ ("X-PDB-Min-LSN", string_of_int !last_lsn) ] rport taxon_query
      in
      Alcotest.(check string) "post-failover read ok" "HTTP/1.0 200 OK" (status_of fin);
      let rows = count_sub (body_of fin) "genus" in
      if rows < !acked then
        Alcotest.failf "lost acknowledged writes: %d acked, %d rows" !acked rows;
      (* the old primary re-bootstraps off the new primary's feed: its
         stale stream id forces a snapshot, converging byte-identically
         (acknowledged-but-unreplicated state is discarded with its
         incarnation — which is why acks are semi-sync) *)
      let sess = R.start ~host:"127.0.0.1" ~port:(feed_port newp) p1 in
      Fun.protect
        ~finally:(fun () -> try R.stop sess with _ -> ())
        (fun () ->
          wait "old primary converges on the new stream" (fun () ->
              R.Apply.stream_id sess.R.apply
              = Feed.stream_id
                  (match newp.Promote.n_state with
                  | Promote.Leading l -> l.l_feed
                  | _ -> assert false)
              && R.Apply.last_lsn sess.R.apply = S.lsn (new_store ()));
          Alcotest.(check bool) "re-bootstrap used a snapshot" true
            (sess.R.apply.R.Apply.snapshots_loaded >= 1);
          Alcotest.(check bool) "old primary byte-identical with new primary" true
            (read_disk p1 = read_disk newp_path)))

(* ------------------------------------------------------------------ *)
(* Lagging replica: tokened reads steer around it                      *)
(* ------------------------------------------------------------------ *)

(* One of two replicas has its applier frozen: it stays up, healthy and
   a replica, but its LSN stops.  Once routed writes move the primary
   past it, every read carrying the last ack as X-PDB-Min-LSN must be
   answered at or past that LSN — by the live replica or the primary,
   never by the frozen one.  A backend also re-checks the token and
   refuses a read it is behind on, so the router must steer around the
   frozen replica itself, not lean on that refusal. *)
let test_lagging_replica () =
  let p1 = tmp_path () and p2 = tmp_path () and p3 = tmp_path () in
  seed p1;
  let n1 = Promote.create_leading ~readers:1 ~path:p1 ~host:"127.0.0.1" ~repl_port:0 () in
  let upstream = Printf.sprintf "127.0.0.1:%d" (feed_port n1) in
  let l1 = start_node ~path:p1 n1 in
  let n2 = mk_follower ~upstream p2 in
  let l2 = start_node ~path:p2 n2 in
  let n3 = mk_follower ~upstream p3 in
  let l3 = start_node ~path:p3 n3 in
  let lr =
    start_router
      [
        ("127.0.0.1", l1.ln_bport);
        ("127.0.0.1", l2.ln_bport);
        ("127.0.0.1", l3.ln_bport);
      ]
  in
  let rport = lr.lr_port in
  Fun.protect
    ~finally:(fun () ->
      stop_router lr;
      List.iter kill_node [ l3; l2; l1 ];
      List.iter cleanup [ p1; p2; p3 ])
    (fun () ->
      let frozen =
        match n2.Promote.n_state with
        | Promote.Following f ->
            f.f_sess.R.running := false;
            f.f_sess
        | Promote.Leading _ -> Alcotest.fail "replica is leading"
      in
      let acked = ref 0 in
      for i = 1 to 20 do
        let r = post rport "/create?class=Taxon&rank=genus" in
        Alcotest.(check string)
          (Printf.sprintf "routed write %d ok" i)
          "HTTP/1.0 200 OK" (status_of r);
        Option.iter (fun l -> acked := max !acked l) (lsn_of r)
      done;
      if R.Apply.last_lsn frozen.R.apply >= !acked then
        Alcotest.failf "frozen replica kept applying (lsn %d, last ack %d)"
          (R.Apply.last_lsn frozen.R.apply) !acked;
      let token = [ ("X-PDB-Min-LSN", string_of_int !acked) ] in
      let retried () = Atomic.get lr.lr_router.Router.retried in
      let retried_before = retried () in
      let stale = Atomic.make 0 and unanswered = Atomic.make 0 in
      let readers =
        List.init 8 (fun _ ->
            Thread.create
              (fun () ->
                for _ = 1 to 25 do
                  match get ~headers:token rport taxon_query with
                  | r when status_of r = "HTTP/1.0 200 OK" -> (
                      match lsn_of r with
                      | Some served when served >= !acked -> ()
                      | _ -> Atomic.incr stale)
                  | _ | (exception _) -> Atomic.incr unanswered
                done)
              ())
      in
      List.iter Thread.join readers;
      Alcotest.(check int) "zero stale answers" 0 (Atomic.get stale);
      Alcotest.(check int) "every tokened read answered" 0 (Atomic.get unanswered);
      (* the router steers at pick time: no read reached the frozen
         replica only to be refused as behind and retried elsewhere *)
      Alcotest.(check int) "no read bounced off the frozen replica" 0
        (retried () - retried_before))

(* ------------------------------------------------------------------ *)
(* Election edges                                                      *)
(* ------------------------------------------------------------------ *)

(* An election with a reachable primary aborts: the old primary
   rejoining mid-election wins by default instead of being fenced. *)
let test_election_aborts_on_live_primary () =
  let p1 = tmp_path () and p2 = tmp_path () in
  seed p1;
  let n1 = Promote.create_leading ~readers:1 ~path:p1 ~host:"127.0.0.1" ~repl_port:0 () in
  let l1 = start_node ~path:p1 n1 in
  let n2 = mk_follower ~upstream:(Printf.sprintf "127.0.0.1:%d" (feed_port n1)) p2 in
  let l2 = start_node ~path:p2 n2 in
  let topo =
    Topo.create [ ("127.0.0.1", l1.ln_bport); ("127.0.0.1", l2.ln_bport) ]
  in
  Fun.protect
    ~finally:(fun () ->
      Topo.close topo;
      kill_node l2;
      kill_node l1;
      List.iter cleanup [ p1; p2 ])
    (fun () ->
      (match Promote.run_election topo with
      | Error e ->
          Alcotest.(check bool) "abort names the live primary" true
            (contains e "primary")
      | Ok addr ->
          Alcotest.failf "election promoted %s past a live primary" addr);
      Alcotest.(check bool) "replica stayed a replica" true (not (is_leading n2)))

(* Two routers racing the same dead-primary fleet must converge on ONE
   new primary: the deterministic rule makes both pick the same winner
   (equal LSNs -> lowest address), and the loser's promote is
   idempotent on the already-promoted node. *)
let test_concurrent_elections_one_winner () =
  let p1 = tmp_path () and p2 = tmp_path () and p3 = tmp_path () in
  seed p1;
  let n1 = Promote.create_leading ~readers:1 ~path:p1 ~host:"127.0.0.1" ~repl_port:0 () in
  let upstream = Printf.sprintf "127.0.0.1:%d" (feed_port n1) in
  let l1 = start_node ~path:p1 n1 in
  let n2 = mk_follower ~upstream p2 in
  let l2 = start_node ~path:p2 n2 in
  let n3 = mk_follower ~upstream p3 in
  let l3 = start_node ~path:p3 n3 in
  (* a couple of writes, then quiesce so both replicas sit at the same
     LSN — the tie-break case *)
  (try
     for _ = 1 to 3 do
       ignore (post l1.ln_port "/create?class=Taxon&rank=genus")
     done
   with _ -> ());
  let lead_store () =
    match n1.Promote.n_state with
    | Promote.Leading l -> Database.store l.l_db
    | _ -> assert false
  in
  let follower_lsn n =
    match n.Promote.n_state with
    | Promote.Following f -> R.Apply.last_lsn f.f_sess.R.apply
    | Promote.Leading _ -> -1
  in
  wait "replicas level" (fun () ->
      follower_lsn n2 = S.lsn (lead_store ()) && follower_lsn n3 = S.lsn (lead_store ()));
  kill_node l1;
  let replicas = [ ("127.0.0.1", l2.ln_bport); ("127.0.0.1", l3.ln_bport) ] in
  let t1 = Topo.create replicas and t2 = Topo.create replicas in
  Fun.protect
    ~finally:(fun () ->
      Topo.close t1;
      Topo.close t2;
      kill_node l3;
      kill_node l2;
      List.iter cleanup [ p1; p2; p3 ])
    (fun () ->
      let r1 = ref (Error "unset") and r2 = ref (Error "unset") in
      let th1 = Thread.create (fun () -> r1 := Promote.run_election t1) () in
      let th2 = Thread.create (fun () -> r2 := Promote.run_election t2) () in
      Thread.join th1;
      Thread.join th2;
      (* exactly one node leads, no matter how the two elections raced *)
      Alcotest.(check bool) "one and only one new primary" true
        (is_leading n2 <> is_leading n3);
      (* any successful election reported the same winner's feed *)
      (match (!r1, !r2) with
      | Ok a, Ok b ->
          Alcotest.(check string) "both elections agree on the winner" a b
      | Ok _, Error _ | Error _, Ok _ -> ()
      | Error e1, Error e2 ->
          Alcotest.failf "both elections failed: %s / %s" e1 e2);
      (* equal LSNs: the deterministic tie-break picks the LOWEST
         address, which is the lower binary port here *)
      let expect_leader = if l2.ln_bport < l3.ln_bport then n2 else n3 in
      Alcotest.(check bool) "tie-break elected the lowest address" true
        (is_leading expect_leader))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "cluster"
    [
      ( "elect",
        [
          Alcotest.test_case "rule + determinism" `Quick test_elect_rule;
          Alcotest.test_case "aborts on live primary" `Quick
            test_election_aborts_on_live_primary;
          Alcotest.test_case "concurrent elections, one winner" `Slow
            test_concurrent_elections_one_winner;
        ] );
      ( "pool",
        [
          Alcotest.test_case "pipelined typed requests" `Quick test_backend_pool;
          Alcotest.test_case "probe of localhost on a closed port" `Quick
            test_probe_localhost_closed_port;
          Alcotest.test_case "silent backend times out" `Quick test_pool_request_timeout;
          Alcotest.test_case "idle channel survives ticks" `Quick
            test_pool_idle_channel_survives;
          Alcotest.test_case "send failure while the reader polls" `Quick
            test_pool_send_failure_vs_poll;
        ] );
      ( "feed",
        [
          Alcotest.test_case "stop with fetch in flight" `Quick
            test_stop_with_fetch_in_flight;
        ] );
      ( "chain",
        [ Alcotest.test_case "primary->replica->replica" `Quick test_chained_replication ]
      );
      ( "failover",
        [
          Alcotest.test_case "promotion under load" `Slow test_failover_under_load;
          Alcotest.test_case "promotion keeps the indexes" `Quick test_promotion_keeps_indexes;
        ] );
      ( "steering",
        [ Alcotest.test_case "lagging replica never serves a token" `Quick test_lagging_replica ]
      );
    ]
