(** Pipelined connection pool to one backend's binary port.

    The router keeps one of these per backend.  Each pool holds a small
    fixed set of {e channels}; a channel is one TCP connection plus a
    dedicated reader thread, a table of in-flight requests keyed by
    frame id, and a condition variable the requesters sleep on.  Many
    router workers can have requests outstanding on the same connection
    at once — true pipelining: the send is one locked write, the reader
    dispatches answers by id as they arrive, in whatever order the
    backend produces them.

    Failure discipline: any transport error, framing damage or request
    timeout kills the whole channel — every in-flight request on it
    fails with {!Client.Backend_down}, the connection is detached and
    shut down, and the channel enters capped exponential backoff (50 ms
    doubling to 2 s).  Only the channel's reader closes a connection,
    and only one it is not polling: a connection closed under a polling
    reader would free its descriptor number for the next dial, and the
    reader would then read the new connection's answers as the old
    one's.  While in backoff the channel {e fails fast} instead of
    re-dialing a dead host on every request; health probes pass
    [~force:true] to bypass the gate, so probe cadence — not request
    traffic — decides when a recovered backend is re-admitted. *)

(* The reader's poll tick: an idle reader wakes this often to expire
   stale requests and notice close. *)
let reader_tick_s = 0.25

type slot = {
  s_at : float; (* enqueue time, for the request timeout *)
  mutable s_reply : Binary_proto.frame option;
  mutable s_fail : string option;
}

type chan = {
  cm : Mutex.t;
  cv : Condition.t;
  mutable c_conn : Client.t option;
  mutable c_retired : Client.t list; (* detached and shut down; the reader closes them *)
  c_pending : (int, slot) Hashtbl.t;
  mutable c_outstanding : int;
  mutable c_next_try : float; (* earliest re-dial when down *)
  mutable c_delay : float; (* current backoff step *)
  mutable c_closed : bool;
  mutable c_reader : Thread.t option;
}

type t = {
  host : string;
  port : int;
  timeout_s : float;
  chans : chan array;
  sent : int Atomic.t;
  failed : int Atomic.t;
}

let frame_id = function
  | Binary_proto.Query { id; _ }
  | Binary_proto.Result { id; _ }
  | Binary_proto.Error { id; _ }
  | Binary_proto.Hreq { id; _ }
  | Binary_proto.Hresp { id; _ }
  | Binary_proto.Ping { id }
  | Binary_proto.Pong { id; _ }
  | Binary_proto.Ctl { id; _ } ->
      id
  | Binary_proto.Batch _ -> -1

(* Kill the channel: fail every in-flight request, detach the
   connection, arm the backoff.  The connection is shut down, which
   wakes a reader polling it, but not closed: its descriptor stays
   allocated until the reader closes it.  Caller holds [cm]. *)
let fail_channel_locked (ch : chan) (msg : string) =
  (match ch.c_conn with
  | Some c ->
      Client.shutdown c;
      ch.c_retired <- c :: ch.c_retired
  | None -> ());
  ch.c_conn <- None;
  Hashtbl.iter (fun _ s -> s.s_fail <- Some msg) ch.c_pending;
  Hashtbl.reset ch.c_pending;
  ch.c_outstanding <- 0;
  ch.c_next_try <- Unix.gettimeofday () +. ch.c_delay;
  ch.c_delay <- Prepl.Link.backoff_next ch.c_delay;
  Condition.broadcast ch.cv

(* Close the detached connections.  Called by the reader, holding
   [cm], between polls: none of them is being polled. *)
let close_retired_locked (ch : chan) =
  List.iter Client.close ch.c_retired;
  ch.c_retired <- []

(* Dedicated per-channel reader: dispatch answers by id; on transport
   death or a stale request, kill the channel.  Exits when the pool
   closes. *)
let reader_loop (t : t) (ch : chan) =
  let rec go () =
    Mutex.lock ch.cm;
    close_retired_locked ch;
    while ch.c_conn = None && not ch.c_closed do
      Condition.wait ch.cv ch.cm;
      close_retired_locked ch
    done;
    if ch.c_closed then Mutex.unlock ch.cm
    else begin
      let conn = Option.get ch.c_conn in
      Mutex.unlock ch.cm;
      (match Client.recv_frame_within conn reader_tick_s with
      | Some f ->
          Mutex.lock ch.cm;
          (* [==] on the payload: a fresh [Some] box would never be
             physically equal *)
          (if (match ch.c_conn with Some c -> c == conn | None -> false) then
             match Hashtbl.find_opt ch.c_pending (frame_id f) with
             | Some s ->
                 s.s_reply <- Some f;
                 Hashtbl.remove ch.c_pending (frame_id f);
                 ch.c_outstanding <- ch.c_outstanding - 1;
                 Condition.broadcast ch.cv
             | None -> () (* answer to nothing we sent: ignore *));
          Mutex.unlock ch.cm
      | None ->
          (* idle tick: expire requests past the deadline —
             a timed-out request poisons the channel, because its
             answer may still arrive and must not be matched to a
             recycled id on a fresh exchange *)
          let now = Unix.gettimeofday () in
          Mutex.lock ch.cm;
          (if (match ch.c_conn with Some c -> c == conn | None -> false) then
             let stale =
               Hashtbl.fold
                 (fun _ s acc -> acc || now -. s.s_at > t.timeout_s)
                 ch.c_pending false
             in
             if stale then fail_channel_locked ch "request timed out");
          Mutex.unlock ch.cm
      | exception e ->
          let msg =
            match e with
            | Client.Backend_down m -> m
            | Client.Protocol_error m -> "protocol: " ^ m
            | e -> Printexc.to_string e
          in
          Mutex.lock ch.cm;
          if (match ch.c_conn with Some c -> c == conn | None -> false) then
            fail_channel_locked ch msg;
          Mutex.unlock ch.cm);
      go ()
    end
  in
  go ()

let create ?(channels = 2) ?(timeout_s = 10.) ~host ~port () : t =
  let mk_chan () =
    {
      cm = Mutex.create ();
      cv = Condition.create ();
      c_conn = None;
      c_retired = [];
      c_pending = Hashtbl.create 16;
      c_outstanding = 0;
      c_next_try = 0.;
      c_delay = Prepl.Link.backoff_first;
      c_closed = false;
      c_reader = None;
    }
  in
  let t =
    {
      host;
      port;
      timeout_s;
      chans = Array.init (max 1 channels) (fun _ -> mk_chan ());
      sent = Atomic.make 0;
      failed = Atomic.make 0;
    }
  in
  Array.iter
    (fun ch -> ch.c_reader <- Some (Thread.create (fun () -> reader_loop t ch) ()))
    t.chans;
  t

(* Dial if down.  Caller holds [cm].  [force] bypasses the backoff gate
   (health probes); everyone else fails fast while the gate is armed. *)
let ensure_conn_locked (t : t) (ch : chan) ~force =
  if ch.c_closed then raise (Client.Backend_down "pool closed");
  match ch.c_conn with
  | Some _ -> ()
  | None ->
      if (not force) && Unix.gettimeofday () < ch.c_next_try then
        raise
          (Client.Backend_down
             (Printf.sprintf "%s:%d down (in backoff)" t.host t.port));
      (match Client.connect ~host:t.host ~port:t.port () with
      | conn ->
          ch.c_conn <- Some conn;
          ch.c_delay <- Prepl.Link.backoff_first;
          Condition.broadcast ch.cv (* wake the reader *)
      | exception Client.Backend_down m ->
          ch.c_next_try <- Unix.gettimeofday () +. ch.c_delay;
          ch.c_delay <- Prepl.Link.backoff_next ch.c_delay;
          raise (Client.Backend_down m))

(* Least-outstanding channel, preferring live connections. *)
let pick (t : t) : chan =
  let best = ref t.chans.(0) in
  let score ch = (if ch.c_conn = None then 1_000_000 else 0) + ch.c_outstanding in
  Array.iter (fun ch -> if score ch < score !best then best := ch) t.chans;
  !best

let outstanding (t : t) : int =
  Array.fold_left (fun acc ch -> acc + ch.c_outstanding) 0 t.chans

let connected (t : t) : int =
  Array.fold_left (fun acc ch -> acc + if ch.c_conn <> None then 1 else 0) 0 t.chans

(** Send one frame (built around a fresh id by [mk]) and decode its
    answer with [answer] (one of {!Client}'s decoders).  Raises
    {!Client.Backend_down} on transport failure or timeout,
    {!Client.Protocol_error} on framing damage. *)
let request ?(force = false) (t : t) (mk : int -> Binary_proto.frame)
    (answer : int -> Binary_proto.frame -> 'a) : 'a =
  let ch = pick t in
  Mutex.lock ch.cm;
  let id, reply =
    Fun.protect
      ~finally:(fun () -> Mutex.unlock ch.cm)
      (fun () ->
        (try ensure_conn_locked t ch ~force
         with e ->
           Atomic.incr t.failed;
           raise e);
        let conn = Option.get ch.c_conn in
        let id = Client.fresh_id conn in
        let slot = { s_at = Unix.gettimeofday (); s_reply = None; s_fail = None } in
        Hashtbl.replace ch.c_pending id slot;
        ch.c_outstanding <- ch.c_outstanding + 1;
        (try Client.send_frame conn (mk id)
         with e ->
           Atomic.incr t.failed;
           fail_channel_locked ch
             (match e with Client.Backend_down m -> m | e -> Printexc.to_string e);
           raise
             (match e with
             | Client.Backend_down _ -> e
             | e -> Client.Backend_down (Printexc.to_string e)));
        Atomic.incr t.sent;
        while slot.s_reply = None && slot.s_fail = None do
          Condition.wait ch.cv ch.cm
        done;
        match (slot.s_reply, slot.s_fail) with
        | Some f, _ -> (id, f)
        | None, Some m ->
            Atomic.incr t.failed;
            raise (Client.Backend_down m)
        | None, None -> assert false)
  in
  answer id reply

(* --- typed request surface --------------------------------------------- *)

let http ?(headers = []) ?(body = "") (t : t) ~meth ~target :
    int * (string * string) list * string =
  request t (Client.hreq ~meth ~target ~headers ~body) Client.hresp_of

let ping ?(force = true) (t : t) : Client.pong =
  request ~force t (fun id -> Binary_proto.Ping { id }) Client.pong_of

let ctl (t : t) ~verb ~arg : Client.answer =
  request t (fun id -> Binary_proto.Ctl { id; verb; arg }) Client.answer_of

let query (t : t) (q : string) : Client.answer =
  request t (fun id -> Binary_proto.Query { id; q }) Client.answer_of

let close (t : t) =
  Array.iter
    (fun ch ->
      Mutex.lock ch.cm;
      ch.c_closed <- true;
      fail_channel_locked ch "pool closed";
      Mutex.unlock ch.cm)
    t.chans;
  Array.iter
    (fun ch ->
      match ch.c_reader with
      | Some th -> ( try Thread.join th with _ -> ())
      | None -> ())
    t.chans
