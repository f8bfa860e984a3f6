(** The replica: snapshot bootstrap, atomic delta apply, reconnect.

    The applier owns a {e pager} — not a [Store] — on the replica file:
    applying a delta means replaying foreign page images, and doing that
    under an open store would desync its in-memory directory/heap state.
    Serving reads is a separate concern: the HTTP side opens its own
    {e read-only} store/database handle over the same file and refreshes
    it (under {!with_lock}) when the applied LSN advances.

    Apply protocol, per delta: skip if the record's LSN is not ahead of
    the file's; otherwise begin a pager transaction, grow the file to
    cover the record's pages, blit every after-image, and commit with
    the record's own LSN.  The pager's undo journal makes this atomic
    and the commit fsyncs make it durable — a crash mid-apply recovers
    to the {e previous} LSN's image on reopen, never a torn mix — and
    only then is the LSN acked to the primary.

    Snapshot bootstrap writes the image to a side file, fsyncs, removes
    any stale journal (before-images of the {e old} file must never
    replay over the new one), and renames into place — the same
    crash-ordering discipline as [Store.vacuum].  The stream id is
    remembered in a tiny sidecar ([<path>.replid]) rather than in the
    file itself, keeping the replica file byte-identical to the
    primary's. *)

open Pstore

let m_applied_records =
  Pobs.Metrics.counter "pdb_repl_applied_records_total"
    ~help:"Redo records applied by the replica"

let m_applied_bytes =
  Pobs.Metrics.counter "pdb_repl_applied_bytes_total"
    ~help:"After-image bytes applied by the replica"

let m_reconnects =
  Pobs.Metrics.counter "pdb_repl_reconnects_total"
    ~help:"Replica reconnect attempts after a link failure"

let m_snapshots_applied =
  Pobs.Metrics.counter "pdb_repl_snapshots_applied_total"
    ~help:"Full snapshots installed by the replica"

let m_page_repairs =
  Pobs.Metrics.counter "pdb_repl_page_repairs_total"
    ~help:"Corrupt pages repaired in place from the primary"

let m_repair_failures =
  Pobs.Metrics.counter "pdb_repl_page_repair_failures_total"
    ~help:"Page repairs that failed or were refused (degraded to re-bootstrap)"

exception Replica_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Replica_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Applier                                                             *)
(* ------------------------------------------------------------------ *)

module Apply = struct
  type t = {
    vfs : Vfs.t;
    path : string;
    mutable pager : Pager.t option; (* None until the first snapshot lands *)
    mutable stream_id : int; (* 0 = never bootstrapped *)
    mutable applied_records : int;
    mutable snapshots_loaded : int;
    mutable repaired_pages : int;
    m : Mutex.t;
  }

  let sidecar path = path ^ ".replid"

  (* The sidecar holds the stream id as a decimal line.  Written via
     write-fsync-rename so it can never be half-written. *)
  let read_sidecar (vfs : Vfs.t) path =
    if not (vfs.Vfs.exists (sidecar path)) then 0
    else begin
      let fd = vfs.Vfs.open_file (sidecar path) in
      let len = fd.Vfs.size () in
      let buf = Bytes.create len in
      let n = fd.Vfs.pread ~buf ~off:0 ~len ~at:0 in
      fd.Vfs.close ();
      try int_of_string (String.trim (Bytes.sub_string buf 0 n)) with _ -> 0
    end

  let write_sidecar (vfs : Vfs.t) path id =
    let tmp = sidecar path ^ ".tmp" in
    let fd = vfs.Vfs.open_file ~trunc:true tmp in
    let s = Bytes.of_string (string_of_int id ^ "\n") in
    let pos = ref 0 in
    while !pos < Bytes.length s do
      let n = fd.Vfs.pwrite ~buf:s ~off:!pos ~len:(Bytes.length s - !pos) ~at:!pos in
      if n <= 0 then fail "sidecar write made no progress";
      pos := !pos + n
    done;
    fd.Vfs.fsync ();
    fd.Vfs.close ();
    vfs.Vfs.rename tmp (sidecar path)

  (** Open (or prepare to bootstrap) the replica state at [path].  An
      existing file is opened through the normal pager path, so a crash
      mid-apply is rolled back by journal recovery right here. *)
  let create ?(vfs = Vfs.unix) path : t =
    let stream_id = read_sidecar vfs path in
    let pager = if vfs.Vfs.exists path then Some (Pager.open_file ~vfs path) else None in
    {
      vfs;
      path;
      pager;
      stream_id;
      applied_records = 0;
      snapshots_loaded = 0;
      repaired_pages = 0;
      m = Mutex.create ();
    }

  (** Run [f] under the applier mutex.  The HTTP side uses this to
      refresh its read-only store without racing a batch mid-apply. *)
  let with_lock t f =
    Mutex.lock t.m;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

  let last_lsn t =
    with_lock t (fun () -> match t.pager with Some p -> Pager.lsn p | None -> 0)

  let stream_id t = t.stream_id

  let install_snapshot t ~stream_id ~lsn ~(data : string) =
    with_lock t (fun () ->
        (match t.pager with
        | Some p -> Pager.close p
        | None -> ());
        t.pager <- None;
        let vfs = t.vfs in
        let tmp = t.path ^ ".snap" in
        let fd = vfs.Vfs.open_file ~trunc:true tmp in
        let buf = Bytes.unsafe_of_string data in
        let pos = ref 0 in
        while !pos < Bytes.length buf do
          let n =
            fd.Vfs.pwrite ~buf ~off:!pos ~len:(Bytes.length buf - !pos) ~at:!pos
          in
          if n <= 0 then fail "snapshot write made no progress";
          pos := !pos + n
        done;
        fd.Vfs.fsync ();
        fd.Vfs.close ();
        (* A journal left by the previous incarnation holds before-images
           of the *old* file; replaying it over the snapshot would corrupt
           it.  Remove it before the rename commit point. *)
        if vfs.Vfs.exists (t.path ^ ".journal") then vfs.Vfs.remove (t.path ^ ".journal");
        vfs.Vfs.rename tmp t.path;
        write_sidecar vfs t.path stream_id;
        t.stream_id <- stream_id;
        t.snapshots_loaded <- t.snapshots_loaded + 1;
        Pobs.Metrics.inc m_snapshots_applied;
        let p = Pager.open_file ~vfs t.path in
        if Pager.lsn p <> lsn then
          Printf.eprintf "replica: snapshot header lsn %d != announced %d\n%!"
            (Pager.lsn p) lsn;
        t.pager <- Some p)

  (** Apply one delta; returns the file's LSN afterwards (unchanged when
      the record was a duplicate from a resumed stream).  LSNs are dense
      — every page-dirtying commit is exactly [previous + 1] — so a
      record that skips ahead means records were lost upstream (e.g.
      evicted from the primary's backlog); applying it would silently
      diverge.  Reject it instead: the session drops the link and the
      re-handshake gets a fresh snapshot. *)
  let apply_delta t ~lsn ~(pages : (int * string) list) : int =
    with_lock t (fun () ->
        match t.pager with
        | None -> fail "delta before any snapshot: replica has no database file"
        | Some p ->
            if lsn <= Pager.lsn p then Pager.lsn p
            else if lsn > Pager.lsn p + 1 then
              fail "delta lsn %d skips past %d: records lost upstream" lsn
                (Pager.lsn p)
            else begin
              Pager.begin_tx p;
              (try
                 List.iter
                   (fun (no, data) ->
                     while no >= Pager.page_count p do
                       ignore (Pager.allocate p)
                     done;
                     Pager.with_write p no (fun b ->
                         Bytes.blit_string data 0 b 0 Pager.page_size))
                   pages;
                 Pager.commit ~lsn p
               with e ->
                 (try Pager.abort p with _ -> ());
                 raise e);
              t.applied_records <- t.applied_records + 1;
              Pobs.Metrics.inc m_applied_records;
              Pobs.Metrics.addi m_applied_bytes (List.length pages * Pager.page_size);
              Pager.lsn p
            end)

  (** Splice clean page images (fetched from the primary) over corrupt
      pages, as one journalled transaction that leaves the LSN where it
      is — the images are {e at} the file's LSN, not past it.

      Order matters: each image's own trailer is verified first (the
      fetch crossed a CRC-framed link, but defence in depth is the
      point of this PR); the pages are then quarantined so journalling
      their damaged before-images does not re-raise; and after the
      commit the quarantine is lifted and every page is re-read from
      disk and re-verified to prove the repair landed.  Page 0 is
      refused here — its LSN/flag fields are what repair consistency is
      judged against, so a damaged header can only re-bootstrap. *)
  let apply_repair t ~lsn ~(pages : (int * string) list) : unit =
    with_lock t (fun () ->
        match t.pager with
        | None -> fail "repair before any snapshot: replica has no database file"
        | Some p ->
            if lsn <> Pager.lsn p then
              fail "repair images are at lsn %d but the file is at %d" lsn
                (Pager.lsn p);
            List.iter
              (fun (no, data) ->
                if String.length data <> Pager.page_size then
                  fail "repair page %d has %d bytes (want %d)" no
                    (String.length data) Pager.page_size;
                if no <= 0 || no >= Pager.page_count p then
                  fail "repair page %d out of range" no;
                if Pager.checksums_enabled p then
                  Pager.verify_image ~page:no (Bytes.of_string data))
              pages;
            List.iter (fun (no, _) -> Pager.quarantine p no) pages;
            Pager.begin_tx p;
            (try
               List.iter
                 (fun (no, data) ->
                   Pager.with_write p no (fun b ->
                       Bytes.blit_string data 0 b 0 Pager.page_size))
                 pages;
               Pager.commit ~lsn:(Pager.lsn p) p
             with e ->
               (try Pager.abort p with _ -> ());
               Pobs.Metrics.inc m_repair_failures;
               raise e);
            List.iter (fun (no, _) -> Pager.unquarantine p no) pages;
            List.iter (fun (no, _) -> Pager.verify_page p no) pages;
            t.repaired_pages <- t.repaired_pages + List.length pages;
            Pobs.Metrics.addi m_page_repairs (List.length pages))

  (** One checksum pass over the replica file (see {!Pager.scrub});
      [None] when no snapshot has been installed yet. *)
  let scrub t : Pager.scrub_report option =
    with_lock t (fun () -> Option.map Pager.scrub t.pager)

  let quarantined t =
    with_lock t (fun () ->
        match t.pager with Some p -> Pager.quarantined p | None -> [])

  (** Degrade to PR 5 re-bootstrap: forget the stream (sidecar id 0) so
      the next [Hello] is answered with a full snapshot, and drop the
      pager — the damaged file stays on disk until the snapshot rename
      replaces it wholesale. *)
  let force_rebootstrap t =
    with_lock t (fun () ->
        (match t.pager with
        | Some p -> ( try Pager.close p with _ -> ())
        | None -> ());
        t.pager <- None;
        t.stream_id <- 0;
        write_sidecar t.vfs t.path 0;
        Pobs.Metrics.inc m_repair_failures)

  let close t =
    with_lock t (fun () ->
        (match t.pager with Some p -> Pager.close p | None -> ());
        t.pager <- None)
end

(* ------------------------------------------------------------------ *)
(* Client session: connect, handshake, apply, ack, reconnect           *)
(* ------------------------------------------------------------------ *)

(* How long a repair waits for the primary's [PageData] before giving
   up on this connection (the reconnect path retries from scratch). *)
let fetch_timeout_s = 10.

(* ------------------------------------------------------------------ *)
(* Peer repair: fetch clean pages over an open link                    *)
(* ------------------------------------------------------------------ *)

(** Repair [pages] of [apply]'s file in place through [link]: send
    [PageFetch] at the applied LSN, wait for the matching [PageData]
    (buffering and afterwards replaying any [Delta]s that race it),
    verify + splice + re-verify via {!Apply.apply_repair}.

    Degrades to re-bootstrap — sidecar reset so the next [Hello] gets a
    snapshot — exactly when repair is impossible: the header page is
    among the damage, or the primary refuses (gone past our LSN, page
    beyond its mirror, backlog evicted).  A timeout merely drops the
    connection; the damage is still quarantined and the next session
    retries. *)
let repair_via (apply : Apply.t) (link : Link.t) (pages : int list) : unit =
  if List.mem 0 pages then begin
    Apply.force_rebootstrap apply;
    fail "header page corrupt: repair impossible, re-bootstrapping"
  end;
  let lsn = Apply.last_lsn apply in
  Wire.to_link link (Wire.PageFetch { lsn; pages });
  let buffered = Queue.create () in
  let deadline = Unix.gettimeofday () +. fetch_timeout_s in
  let rec await () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0. then begin
      Pobs.Metrics.inc m_repair_failures;
      fail "timed out waiting for page data from the primary"
    end;
    if not (link.Link.poll (Float.min left 0.25)) then await ()
    else
      match Wire.from_link link with
      | Wire.PageData { lsn = l; pages = imgs } ->
          if imgs = [] then begin
            Apply.force_rebootstrap apply;
            fail "primary refused page fetch at lsn %d: re-bootstrapping" l
          end;
          Apply.apply_repair apply ~lsn:l ~pages:imgs
      | Wire.Delta { lsn; pages } ->
          (* committed while we waited; ordered before the reply only
             by chance of thread interleaving on the primary *)
          Queue.add (lsn, pages) buffered;
          await ()
      | Wire.Snapshot { stream_id; lsn; data } ->
          (* the primary restarted the stream under us; installing the
             snapshot rewrites the whole file and supersedes the repair *)
          Apply.install_snapshot apply ~stream_id ~lsn ~data
      | _ -> raise (Wire.Wire_error "unexpected frame from primary")
  in
  await ();
  (* Deltas that raced the repair are all ≤ the primary's LSN at reply
     time; duplicates are skipped by the applier's LSN check. *)
  Queue.iter (fun (lsn, pages) -> ignore (Apply.apply_delta apply ~lsn ~pages)) buffered

type session = {
  apply : Apply.t;
  host : string;
  port : int;
  running : bool ref;
  mutable link : Link.t option;
  mutable connected : bool;
  mutable made_progress : bool; (* did the last run_once reach the stream? *)
  mutable reconnects : int;
  mutable last_error : string;
  mutable on_applied : int -> unit; (* called (outside the lock) after the LSN advances *)
  (* Cascade hooks: republish what this replica applies so it can feed
     downstream replicas (chained replication).  [on_record] fires only
     for deltas that actually advanced the file; [on_snapshot] fires
     after a snapshot install, with the stream id and raw image, so the
     cascade feed can be rebuilt around the new incarnation. *)
  mutable on_record : lsn:int -> pages:(int * string) list -> unit;
  mutable on_snapshot : stream_id:int -> lsn:int -> image:string -> unit;
  mutable thread : Thread.t option;
  scrub_every_s : float option; (* in-session background scrub period *)
  mutable scrubs_run : int;
  mutable last_scrub_at : float;
}

(* One connection's lifetime: hello, then apply-and-ack until the link
   dies or the session is stopped. *)
let run_once (s : session) =
  let link = Link.connect ~host:s.host ~port:s.port in
  s.link <- Some link;
  Fun.protect
    ~finally:(fun () ->
      s.connected <- false;
      s.link <- None;
      link.Link.close ())
    (fun () ->
      Wire.to_link link
        (Wire.Hello { stream_id = Apply.stream_id s.apply; last_lsn = Apply.last_lsn s.apply });
      s.connected <- true;
      s.made_progress <- true;
      s.last_error <- "";
      while !(s.running) do
        (* Periodic in-session scrub: walk the file's checksums and
           repair whatever has rotted through the live link. *)
        (match s.scrub_every_s with
        | Some every when Unix.gettimeofday () -. s.last_scrub_at >= every -> (
            s.last_scrub_at <- Unix.gettimeofday ();
            s.scrubs_run <- s.scrubs_run + 1;
            match Apply.scrub s.apply with
            | Some { Pager.scrub_corrupt = (_ :: _) as bad; _ } ->
                repair_via s.apply link (List.map (fun (no, _, _) -> no) bad)
            | _ -> ())
        | _ -> ());
        (* Bounded poll so a stop request is noticed promptly even on an
           idle stream. *)
        if link.Link.poll 0.25 then begin
          let applied =
            match Wire.from_link link with
            | Wire.Snapshot { stream_id; lsn; data } ->
                Apply.install_snapshot s.apply ~stream_id ~lsn ~data;
                s.on_snapshot ~stream_id ~lsn ~image:data;
                lsn
            | Wire.Delta { lsn; pages } ->
                let before = Apply.last_lsn s.apply in
                let a =
                  (* At-rest rot surfaces here as [Page_corrupt] when the
                     apply journals the damaged before-image.  The apply
                     aborted cleanly; repair the page from the peer and
                     re-apply the same record. *)
                  try Apply.apply_delta s.apply ~lsn ~pages
                  with Pager.Page_corrupt { page; _ } ->
                    repair_via s.apply link [ page ];
                    Apply.apply_delta s.apply ~lsn ~pages
                in
                if a > before then s.on_record ~lsn ~pages;
                a
            | _ -> raise (Wire.Wire_error "unexpected frame from primary")
          in
          (* Ack only what is durably applied; duplicates re-ack the
             current LSN, which the primary treats as a no-op. *)
          Wire.to_link link (Wire.Ack { lsn = applied });
          s.on_applied applied
        end
      done)

(** Start the replication client: a background thread that follows
    [host:port] and keeps the file at [path] in sync, reconnecting with
    capped exponential backoff (50 ms doubling to 2 s) and resuming from
    the file's last durable LSN.  [scrub_every_s] turns on an in-session
    background scrub: every that many seconds the file's checksums are
    walked and corrupt pages repaired from the primary. *)
let start ?(vfs = Vfs.unix) ?scrub_every_s ~host ~port path : session =
  let s =
    {
      apply = Apply.create ~vfs path;
      host;
      port;
      running = ref true;
      link = None;
      connected = false;
      made_progress = false;
      reconnects = 0;
      last_error = "";
      on_applied = (fun _ -> ());
      on_record = (fun ~lsn:_ ~pages:_ -> ());
      on_snapshot = (fun ~stream_id:_ ~lsn:_ ~image:_ -> ());
      thread = None;
      scrub_every_s;
      scrubs_run = 0;
      last_scrub_at = Unix.gettimeofday ();
    }
  in
  let th =
    Thread.create
      (fun () ->
        let delay = ref Link.backoff_first in
        while !(s.running) do
          s.made_progress <- false;
          (match run_once s with
          | () -> ()
          | exception (Link.Link_down m | Wire.Wire_error m | Replica_error m) ->
              s.last_error <- m
          | exception Pager.Io_error { op; path; _ } ->
              s.last_error <- Printf.sprintf "io error: %s %s" op path
          | exception e -> s.last_error <- Printexc.to_string e);
          (* a run that reached the stream resets the backoff — keyed on
             the flag, not on [last_error], which the failure that ended
             the run has already overwritten *)
          if s.made_progress then delay := Link.backoff_first;
          if !(s.running) then begin
            s.reconnects <- s.reconnects + 1;
            Pobs.Metrics.inc m_reconnects;
            Thread.delay !delay;
            delay := Link.backoff_next !delay
          end
        done)
      ()
  in
  s.thread <- Some th;
  s

let stop (s : session) =
  s.running := false;
  (* shutdown, not close: it wakes a thread blocked mid-recv without
     racing the session thread's own close of the same descriptor *)
  (match s.link with Some l -> (try l.Link.shutdown () with _ -> ()) | None -> ());
  (match s.thread with Some th -> (try Thread.join th with _ -> ()) | None -> ());
  Apply.close s.apply

(* ------------------------------------------------------------------ *)
(* Offline scrub-and-repair (the [pdb scrub --from] path)              *)
(* ------------------------------------------------------------------ *)

(** Scrub the replica file at [path] and repair any corruption from the
    primary at [host:port], without starting a session: one scrub pass,
    one connection, then close.  Outcomes:

    - [`Clean n] — all [n] scanned pages verified; nothing sent.
    - [`Repaired pages] — those pages were fetched, spliced and
      re-verified; the file is clean again.
    - [`Rebootstrapped lsn] — repair was impossible (header page
      damaged, primary refused, or the primary answered the handshake
      with a snapshot) and a full snapshot at [lsn] was installed
      instead.

    Anything else — primary unreachable, timeout, wire damage — raises
    ({!Link.Link_down}, {!Wire.Wire_error} or {!Replica_error}); the
    file keeps its quarantine and a later run can retry. *)
let scrub_repair ?(vfs = Vfs.unix) ~host ~port path :
    [ `Clean of int | `Repaired of int list | `Rebootstrapped of int ] =
  let with_link f =
    let link = Link.connect ~host ~port in
    Fun.protect ~finally:(fun () -> link.Link.close ()) (fun () -> f link)
  in
  (* Full re-bootstrap: a [Hello] for stream 0 is unanswerable by
     deltas, so the primary must send a snapshot. *)
  let bootstrap (apply : Apply.t) =
    with_link (fun link ->
        Wire.to_link link (Wire.Hello { stream_id = 0; last_lsn = 0 });
        match Wire.from_link link with
        | Wire.Snapshot { stream_id; lsn; data } ->
            Apply.install_snapshot apply ~stream_id ~lsn ~data;
            Wire.to_link link (Wire.Ack { lsn });
            `Rebootstrapped lsn
        | _ -> raise (Wire.Wire_error "expected a snapshot from the primary"))
  in
  match Apply.create ~vfs path with
  | exception Pager.Page_corrupt _ ->
      (* The header page is damaged: the file cannot even be opened.
         Degrade straight to re-bootstrap. *)
      Pobs.Metrics.inc m_repair_failures;
      let apply =
        Apply.
          {
            vfs;
            path;
            pager = None;
            stream_id = 0;
            applied_records = 0;
            snapshots_loaded = 0;
            repaired_pages = 0;
            m = Mutex.create ();
          }
      in
      Fun.protect ~finally:(fun () -> Apply.close apply) (fun () -> bootstrap apply)
  | apply ->
      Fun.protect
        ~finally:(fun () -> Apply.close apply)
        (fun () ->
          match Apply.scrub apply with
          | None -> fail "no replica file at %s" path
          | Some { Pager.scrub_scanned; scrub_corrupt = []; _ } -> `Clean scrub_scanned
          | Some { Pager.scrub_corrupt = bad; _ } ->
              let pages = List.map (fun (no, _, _) -> no) bad in
              if List.mem 0 pages then begin
                Apply.force_rebootstrap apply;
                bootstrap apply
              end
              else
                with_link (fun link ->
                    Wire.to_link link
                      (Wire.Hello
                         {
                           stream_id = Apply.stream_id apply;
                           last_lsn = Apply.last_lsn apply;
                         });
                    match repair_via apply link pages with
                    | () -> `Repaired pages
                    | exception Replica_error _ when Apply.stream_id apply = 0 ->
                        (* repair_via degraded (refusal): re-bootstrap now
                           rather than leaving a quarantined file behind *)
                        bootstrap apply))

(** The replica half of the [/repl] admin document. *)
let status_json (s : session) : string =
  let open Pobs.Json in
  to_string
    (Obj
       [
         ("role", Str "replica");
         ("primary", Str (Printf.sprintf "%s:%d" s.host s.port));
         ("stream_id", Int (Apply.stream_id s.apply));
         ("applied_lsn", Int (Apply.last_lsn s.apply));
         ("applied_records", Int s.apply.Apply.applied_records);
         ("snapshots_loaded", Int s.apply.Apply.snapshots_loaded);
         ("repaired_pages", Int s.apply.Apply.repaired_pages);
         ("quarantined_pages", List (List.map (fun no -> Int no) (Apply.quarantined s.apply)));
         ("scrubs_run", Int s.scrubs_run);
         ("connected", Bool s.connected);
         ("reconnects", Int s.reconnects);
         ("last_error", Str s.last_error);
       ])
