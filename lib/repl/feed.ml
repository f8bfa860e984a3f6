(** The primary's replication feed.

    Installs the pager redo hook on a store and turns the stream of
    committed after-image records into something replicas can subscribe
    to:

    - a {b mirror}: an in-memory copy of the database file, kept current
      by applying every redo record to it.  Snapshots for bootstrapping
      replicas are cut from the mirror under the feed mutex, so they are
      always a consistent committed image and never race the live pager
      (which is single-threaded and must not be touched from sender
      threads).  Cost: one copy of the database in RAM — the price of
      lock-free primaries; documented in DESIGN.md "Replication".
    - a {b backlog}: a byte-capped queue of recent redo records.  A
      reconnecting replica whose last LSN is still covered resumes with
      deltas; one that fell off the tail (or followed a different
      stream incarnation) gets a fresh snapshot.
    - a random {b stream id}, minted per feed: LSNs are only comparable
      within one stream incarnation.  A vacuum or restore replaces the
      file wholesale, so `pdb` mints a new feed (new id) and every
      replica re-bootstraps instead of applying deltas over a file with
      a different history.

    The hook runs on the committing thread strictly after the commit
    point and only takes the feed mutex — the commit hot path gains one
    lock and one page-set copy per transaction. *)

open Pstore

let m_shipped_records =
  Pobs.Metrics.counter "pdb_repl_shipped_records_total"
    ~help:"Redo records sent to replicas"

let m_shipped_bytes =
  Pobs.Metrics.counter "pdb_repl_shipped_bytes_total"
    ~help:"Encoded delta bytes sent to replicas"

let m_snapshots =
  Pobs.Metrics.counter "pdb_repl_snapshots_total"
    ~help:"Full snapshots sent to bootstrapping replicas"

let g_lag_lsns =
  Pobs.Metrics.gauge "pdb_repl_lag_lsns"
    ~help:"Primary LSN minus the slowest connected replica's acked LSN"

let g_lag_ns =
  Pobs.Metrics.gauge "pdb_repl_lag_ns"
    ~help:"Commit-to-ack latency of the most recent acked record"

let g_backlog_bytes =
  Pobs.Metrics.gauge "pdb_repl_backlog_bytes" ~help:"Redo backlog size in bytes"

let m_page_fetches =
  Pobs.Metrics.counter "pdb_repl_page_fetches_total"
    ~help:"Clean page images served to replicas repairing corruption"

let m_page_fetch_refusals =
  Pobs.Metrics.counter "pdb_repl_page_fetch_refusals_total"
    ~help:"Page-fetch requests refused (LSN not serveable from the mirror)"

type record = {
  r_lsn : int;
  r_pages : (int * string) list;
  r_bytes : int; (* page payload bytes, for backlog accounting *)
  r_at_ns : int; (* capture time, for lag-in-ns *)
}

type conn = {
  conn_id : int;
  mutable sent_lsn : int;
  mutable acked_lsn : int;
  mutable conn_alive : bool;
}

type t = {
  store : Store.t option; (* None: a detached (cascade) feed, fed by [publish] *)
  stream_id : int;
  mutable mirror : Bytes.t; (* page-multiple; first [mirror_pages] pages valid *)
  mutable mirror_pages : int;
  mutable lsn : int;
  backlog : record Queue.t;
  mutable backlog_bytes : int;
  backlog_cap : int;
  mutable snapshots_sent : int;
  mutable records_captured : int;
  mutable pages_served : int;
  mutable fetch_refusals : int;
  mutable conns : conn list;
  mutable next_conn_id : int;
  m : Mutex.t;
}

let fresh_stream_id () =
  let bits =
    Int64.to_int (Int64.bits_of_float (Unix.gettimeofday ()))
    lxor (Unix.getpid () lsl 17)
  in
  let id = bits land max_int in
  if id = 0 then 1 else id

(* LSN of the oldest record still in the backlog; when the backlog is
   empty everything up to [t.lsn] is "covered" vacuously. *)
let backlog_start t =
  match Queue.peek_opt t.backlog with Some r -> r.r_lsn | None -> t.lsn + 1

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let ingest t ~(lsn : int) ~(pages : (int * string) list) =
  locked t (fun () ->
      (* grow the mirror to cover the record's highest page *)
      let maxp = List.fold_left (fun acc (no, _) -> max acc no) (-1) pages in
      if maxp >= t.mirror_pages then begin
        let need = (maxp + 1) * Pager.page_size in
        if Bytes.length t.mirror < need then begin
          let b = Bytes.make (max need (2 * Bytes.length t.mirror)) '\000' in
          Bytes.blit t.mirror 0 b 0 (t.mirror_pages * Pager.page_size);
          t.mirror <- b
        end;
        t.mirror_pages <- maxp + 1
      end;
      List.iter
        (fun (no, data) ->
          Bytes.blit_string data 0 t.mirror (no * Pager.page_size) Pager.page_size)
        pages;
      t.lsn <- lsn;
      let bytes = List.length pages * Pager.page_size in
      Queue.add
        { r_lsn = lsn; r_pages = pages; r_bytes = bytes;
          r_at_ns = Pobs.Monotonic.now_ns () }
        t.backlog;
      t.records_captured <- t.records_captured + 1;
      t.backlog_bytes <- t.backlog_bytes + bytes;
      while t.backlog_bytes > t.backlog_cap && Queue.length t.backlog > 1 do
        let dropped = Queue.pop t.backlog in
        t.backlog_bytes <- t.backlog_bytes - dropped.r_bytes
      done;
      Pobs.Metrics.seti g_backlog_bytes t.backlog_bytes)

let on_commit t (r : Pager.redo_record) = ingest t ~lsn:r.Pager.lsn ~pages:r.Pager.pages

(** Feed an applied record into a {e detached} feed — the cascade path:
    a replica republishes every delta it applies so downstream replicas
    can subscribe to it instead of the primary. *)
let publish t ~lsn ~pages = ingest t ~lsn ~pages

(** Create a feed over [store] and install its redo hook.  Must be
    called with no transaction in progress: the mirror is seeded from
    the pager's current pages, which are only a committed image between
    transactions. *)
let create ?(backlog_cap_bytes = 64 * 1024 * 1024) (store : Store.t) : t =
  if Store.in_tx store then
    invalid_arg "Feed.create: store has a transaction in progress";
  let pager = Store.pager store in
  let pages = Pager.page_count pager in
  let mirror = Bytes.make (pages * Pager.page_size) '\000' in
  for no = 0 to pages - 1 do
    Bytes.blit (Pager.read pager no) 0 mirror (no * Pager.page_size) Pager.page_size
  done;
  let t =
    {
      store = Some store;
      stream_id = fresh_stream_id ();
      mirror;
      mirror_pages = pages;
      lsn = Pager.lsn pager;
      backlog = Queue.create ();
      backlog_bytes = 0;
      backlog_cap = backlog_cap_bytes;
      snapshots_sent = 0;
      records_captured = 0;
      pages_served = 0;
      fetch_refusals = 0;
      conns = [];
      next_conn_id = 1;
      m = Mutex.create ();
    }
  in
  Store.set_redo_hook store (fun r -> on_commit t r);
  t

(** A feed with no store of its own: the mirror is seeded from a
    snapshot [image] at [lsn], the stream identity is {e inherited} —
    a cascading replica serves the same stream its upstream does, so a
    downstream replica's LSNs stay comparable when it re-attaches
    anywhere in the tree.  New records arrive via {!publish}. *)
let create_detached ?(backlog_cap_bytes = 64 * 1024 * 1024) ~stream_id ~lsn
    ~(image : string) () : t =
  let mirror = Bytes.of_string image in
  if Bytes.length mirror mod Pager.page_size <> 0 then
    invalid_arg "Feed.create_detached: image is not a whole number of pages";
  {
    store = None;
    stream_id;
    mirror;
    mirror_pages = Bytes.length mirror / Pager.page_size;
    lsn;
    backlog = Queue.create ();
    backlog_bytes = 0;
    backlog_cap = backlog_cap_bytes;
    snapshots_sent = 0;
    records_captured = 0;
    pages_served = 0;
    fetch_refusals = 0;
    conns = [];
    next_conn_id = 1;
    m = Mutex.create ();
  }

let detach t = match t.store with Some s -> Store.clear_redo_hook s | None -> ()
let lsn t = locked t (fun () -> t.lsn)
let stream_id t = t.stream_id

(** Cut a consistent snapshot (stamped with its LSN) from the mirror. *)
let snapshot t : int * string =
  locked t (fun () ->
      t.snapshots_sent <- t.snapshots_sent + 1;
      Pobs.Metrics.inc m_snapshots;
      (t.lsn, Bytes.sub_string t.mirror 0 (t.mirror_pages * Pager.page_size)))

(** Decide how to serve a replica that last saw ([stream_id], [last_lsn]):
    resume the delta stream iff it followed {e this} stream, is not
    ahead of us, and everything past its LSN is still in the backlog. *)
let plan t ~stream_id ~last_lsn : [ `Resume | `Snapshot ] =
  locked t (fun () ->
      if
        stream_id = t.stream_id && last_lsn <= t.lsn
        && last_lsn >= backlog_start t - 1
      then `Resume
      else `Snapshot)

(** Backlog records with LSN strictly greater than [after], in order. *)
let deltas_after t ~after : record list =
  locked t (fun () ->
      Queue.fold (fun acc r -> if r.r_lsn > after then r :: acc else acc) [] t.backlog
      |> List.rev)

(** What the sender should push next for a connection whose stream is at
    [after]: the backlog tail — but {e only} when the backlog still
    starts at or before [after + 1].  LSNs are dense, so a backlog that
    was evicted past [after] has lost records this connection never saw;
    shipping the survivors would silently skip the evicted pages and
    diverge the replica.  In that case the connection restarts from a
    fresh snapshot.  The check and the read happen under one lock so an
    eviction cannot slip between them. *)
let next_batch t ~after : [ `Deltas of record list | `Snapshot of int * string ] =
  locked t (fun () ->
      if after >= backlog_start t - 1 then
        `Deltas
          (Queue.fold
             (fun acc r -> if r.r_lsn > after then r :: acc else acc)
             [] t.backlog
          |> List.rev)
      else begin
        t.snapshots_sent <- t.snapshots_sent + 1;
        Pobs.Metrics.inc m_snapshots;
        `Snapshot (t.lsn, Bytes.sub_string t.mirror 0 (t.mirror_pages * Pager.page_size))
      end)

(** Serve clean copies of [pages] {e as they were at [lsn]} — the
    repair path for a replica that found corrupt pages.  The mirror is
    at [t.lsn], so the request is serveable only when the mirror's
    content for those pages provably equals their content at [lsn]:
    either [lsn = t.lsn], or every backlog record in ([lsn], [t.lsn]]
    is present and touches none of the requested pages.  Anything else
    — replica ahead, backlog evicted past [lsn], a requested page
    rewritten since, or a page beyond the mirror — returns [None] and
    the replica falls back to a full re-bootstrap.  LSN-consistency
    over availability: a page from the future spliced into an older
    file would diverge silently. *)
let pages_at t ~lsn ~(pages : int list) : (int * string) list option =
  locked t (fun () ->
      let untouched_since r =
        r.r_lsn <= lsn
        || List.for_all (fun (no, _) -> not (List.mem no pages)) r.r_pages
      in
      let serveable =
        lsn = t.lsn
        || (lsn < t.lsn
           && backlog_start t <= lsn + 1
           && Queue.fold (fun acc r -> acc && untouched_since r) true t.backlog)
      in
      let in_range = List.for_all (fun no -> no >= 0 && no < t.mirror_pages) pages in
      if serveable && in_range then begin
        t.pages_served <- t.pages_served + List.length pages;
        Pobs.Metrics.addi m_page_fetches (List.length pages);
        Some
          (List.map
             (fun no ->
               (no, Bytes.sub_string t.mirror (no * Pager.page_size) Pager.page_size))
             pages)
      end
      else begin
        t.fetch_refusals <- t.fetch_refusals + 1;
        Pobs.Metrics.inc m_page_fetch_refusals;
        None
      end)

(* Lag gauges: LSN distance to the slowest live connection, and the
   commit-to-ack time of the record just acked. *)
let note_ack t (conn : conn) lsn =
  locked t (fun () ->
      conn.acked_lsn <- max conn.acked_lsn lsn;
      (match
         Queue.fold (fun acc r -> if r.r_lsn = lsn then Some r else acc) None t.backlog
       with
      | Some r -> Pobs.Metrics.seti g_lag_ns (Pobs.Monotonic.now_ns () - r.r_at_ns)
      | None -> ());
      let live = List.filter (fun c -> c.conn_alive) t.conns in
      let slowest =
        List.fold_left (fun acc c -> min acc c.acked_lsn) max_int live
      in
      if slowest < max_int then Pobs.Metrics.seti g_lag_lsns (t.lsn - slowest))

let register_conn t : conn =
  locked t (fun () ->
      let c =
        { conn_id = t.next_conn_id; sent_lsn = 0; acked_lsn = 0; conn_alive = true }
      in
      t.next_conn_id <- t.next_conn_id + 1;
      t.conns <- c :: t.conns;
      c)

let drop_conn t (c : conn) =
  locked t (fun () ->
      c.conn_alive <- false;
      t.conns <- List.filter (fun c' -> c'.conn_id <> c.conn_id) t.conns)

(* --- the per-replica sender loop --------------------------------------- *)

(* Headroom for the Snapshot frame's non-data fields (ints + string
   header) under the wire payload cap. *)
let max_snapshot_bytes = Wire.max_payload - 64

(* A database bigger than the wire's payload cap cannot be framed as a
   snapshot; replicas would reject the frame and re-request it forever.
   Fail loudly here on the primary — the only place an operator can see
   why bootstrap never completes. *)
let send_snapshot t link ~lsn ~(data : string) =
  if String.length data > max_snapshot_bytes then begin
    Printf.eprintf
      "repl: snapshot at lsn %d is %d bytes, over the %d-byte wire frame cap; \
       replicas cannot bootstrap from this primary\n%!"
      lsn (String.length data) Wire.max_payload;
    raise (Wire.Wire_error "snapshot exceeds the wire frame cap")
  end;
  Wire.to_link link (Wire.Snapshot { stream_id = t.stream_id; lsn; data })

(** Serve one replica connection until the link dies or [running] goes
    false.  Handshake (resume or snapshot), then a loop that drains
    inbound acks without blocking and pushes any backlog past what this
    connection has seen; if the backlog gets evicted past this
    connection, the stream restarts with a fresh snapshot rather than
    skipping records. *)
let handle_conn t (link : Link.t) ~(running : bool ref) =
  let conn = register_conn t in
  Fun.protect
    ~finally:(fun () ->
      drop_conn t conn;
      link.Link.close ())
    (fun () ->
      match Wire.from_link link with
      | Wire.Hello { stream_id; last_lsn } ->
          let start =
            match plan t ~stream_id ~last_lsn with
            | `Resume -> last_lsn
            | `Snapshot ->
                let lsn, data = snapshot t in
                send_snapshot t link ~lsn ~data;
                lsn
          in
          conn.sent_lsn <- start;
          conn.acked_lsn <- start;
          while !running do
            while link.Link.poll 0. do
              match Wire.from_link link with
              | Wire.Ack { lsn } -> note_ack t conn lsn
              | Wire.PageFetch { lsn; pages } ->
                  (* Repair request: answer with clean images at the
                     replica's LSN, or an empty page list — the typed
                     refusal that sends it to re-bootstrap. *)
                  let served = Option.value (pages_at t ~lsn ~pages) ~default:[] in
                  Wire.to_link link (Wire.PageData { lsn; pages = served })
              | _ -> raise (Wire.Wire_error "unexpected frame from replica")
            done;
            match next_batch t ~after:conn.sent_lsn with
            | `Deltas [] -> Thread.delay 0.02
            | `Deltas pending ->
                List.iter
                  (fun r ->
                    let f = Wire.Delta { lsn = r.r_lsn; pages = r.r_pages } in
                    let s = Wire.encode f in
                    Frame.write link s;
                    Pobs.Metrics.inc m_shipped_records;
                    Pobs.Metrics.addi m_shipped_bytes (String.length s);
                    conn.sent_lsn <- r.r_lsn)
                  pending
            | `Snapshot (lsn, data) ->
                (* the backlog no longer covers this connection *)
                send_snapshot t link ~lsn ~data;
                conn.sent_lsn <- lsn
          done;
          (* Shutdown drain: a repair fetch that arrived as [running]
             dropped must still get an answer — an unanswered
             [PageFetch] leaves the fetching replica waiting out its
             timeout.  Answer the typed refusal (empty page list): the
             feed is going away, so "re-bootstrap elsewhere" is the
             honest verdict.  [stop_server] holds the link open for a
             grace window so this can actually be sent. *)
          (try
             while link.Link.poll 0. do
               match Wire.from_link link with
               | Wire.Ack { lsn } -> note_ack t conn lsn
               | Wire.PageFetch { lsn; _ } ->
                   locked t (fun () ->
                       t.fetch_refusals <- t.fetch_refusals + 1;
                       Pobs.Metrics.inc m_page_fetch_refusals);
                   Wire.to_link link (Wire.PageData { lsn; pages = [] })
               | _ -> ()
             done
           with Link.Link_down _ | Wire.Wire_error _ -> ())
      | _ -> raise (Wire.Wire_error "expected Hello"))

(* --- the TCP server ----------------------------------------------------- *)

type server = {
  feed : t;
  port : int;
  running : bool ref;
  listener : Link.listener;
  mutable acceptor : Thread.t option;
  mutable threads : Thread.t list; (* handler threads; guarded by [sm] *)
  mutable links : Link.t list; (* their live links; guarded by [sm] *)
  sm : Mutex.t;
}

(* Cap on how long one send may block on a stalled replica before the
   link is declared down (full TCP buffer on a wedged peer).  Dropping
   such a replica is safe: it reconnects and resumes from its LSN. *)
let sender_timeout_s = 30.

(** Listen on [port] (0 = ephemeral; see {!server.port} for the actual
    one) and serve each replica on its own thread. *)
let serve ?(host = "127.0.0.1") t ~port : server =
  let listener = Link.listen ~host ~port in
  let running = ref true in
  let srv =
    { feed = t; port = listener.Link.bound_port; running; listener;
      acceptor = None; threads = []; links = []; sm = Mutex.create () }
  in
  let reg f =
    Mutex.lock srv.sm;
    Fun.protect ~finally:(fun () -> Mutex.unlock srv.sm) f
  in
  let acceptor =
    Thread.create
      (fun () ->
        (* Bounded wait before each accept: a thread parked in accept(2)
           would never notice [stop_server] closing the listener. *)
        while !running do
          if Link.poll_listener listener 0.25 && !running then
            match Link.accept ~sndtimeo:sender_timeout_s listener with
            | link ->
                reg (fun () -> srv.links <- link :: srv.links);
                let th =
                  Thread.create
                    (fun () ->
                      (try handle_conn t link ~running
                       with Link.Link_down _ | Wire.Wire_error _ | Pager.Io_error _ -> ());
                      reg (fun () ->
                          srv.links <- List.filter (fun l -> l != link) srv.links))
                    ()
                in
                reg (fun () -> srv.threads <- th :: srv.threads)
            | exception Link.Link_down _ -> () (* listener closed: loop re-checks [running] *)
        done)
      ()
  in
  srv.acceptor <- Some acceptor;
  srv

(** Stop accepting, let the handlers run their shutdown drains, then
    wake any straggler — [shutdown], not [close], so a thread blocked
    mid-send on a stalled replica fails over to {!Link.Link_down}
    instead of wedging the join — and wait for all of them.  The
    acceptor is joined first, so no new connection can register behind
    the teardown's back.

    The grace window matters for correctness, not politeness: a handler
    that noticed [running] dropping may still owe a refusal to an
    in-flight [PageFetch]; shutting its link down first would strand
    the fetching replica until its own timeout. *)
let stop_server (srv : server) =
  srv.running := false;
  Link.close_listener srv.listener;
  (match srv.acceptor with
  | Some th -> ( try Thread.join th with _ -> ())
  | None -> ());
  (* handlers deregister their link as they exit; wait briefly for the
     drains to finish before forcing the rest down *)
  let deadline = Unix.gettimeofday () +. 1.0 in
  let links_left () =
    Mutex.lock srv.sm;
    let l = srv.links in
    Mutex.unlock srv.sm;
    l
  in
  while links_left () <> [] && Unix.gettimeofday () < deadline do
    Thread.delay 0.005
  done;
  List.iter (fun l -> try l.Link.shutdown () with _ -> ()) (links_left ());
  Mutex.lock srv.sm;
  let threads = srv.threads in
  Mutex.unlock srv.sm;
  List.iter (fun th -> try Thread.join th with _ -> ()) threads

(** The primary half of the [/repl] admin document. *)
let status_json t : string =
  locked t (fun () ->
      let open Pobs.Json in
      to_string
        (Obj
           [
             ("role", Str "primary");
             ("stream_id", Int t.stream_id);
             ("lsn", Int t.lsn);
             ("records_captured", Int t.records_captured);
             ("backlog_records", Int (Queue.length t.backlog));
             ("backlog_bytes", Int t.backlog_bytes);
             ("snapshots_sent", Int t.snapshots_sent);
             ("repair_pages_served", Int t.pages_served);
             ("repair_refusals", Int t.fetch_refusals);
             ( "connections",
               List
                 (List.map
                    (fun c ->
                      Obj
                        [
                          ("id", Int c.conn_id);
                          ("sent_lsn", Int c.sent_lsn);
                          ("acked_lsn", Int c.acked_lsn);
                        ])
                    t.conns) );
           ]))
