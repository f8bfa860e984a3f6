(** An epoll/poll-based event loop: the serving front-end.

    One loop thread owns every socket: it accepts, reads, parses
    protocol frames out of bounded per-connection buffers, and writes
    responses — all on non-blocking file descriptors multiplexed
    through epoll (Linux) or [Unix.select] (fallback, or forced with
    [PDB_POLLER=select]).  Parsed requests are executed on a small pool
    of worker threads (request handlers may block: reader-pool condvar
    waits, group-commit fsyncs), and completed responses come back to
    the loop over a self-pipe, so the loop thread itself never blocks
    on anything but the poller.

    Per-connection state machine:

    {v
      Accept -> Reading -(complete request)-> Executing -> Writing
                   ^                                          |
                   +---------------- keep-alive --------------+
    v}

    - {b Pipelining}: a read may complete several requests; they queue
      per connection and execute one at a time, responses written in
      request order.  The pending queue is bounded ([pipeline_depth]);
      past it the loop simply stops reading that socket — backpressure
      into the kernel buffer, never unbounded memory.
    - {b Bounded buffers}: input is capped by the parser's own limits
      (it must reject oversized frames), output by [max_buffer]; a
      connection over the output cap stops being read until it drains.
    - {b Admission control}: at most [max_conns] connections are
      served; beyond that, new arrivals are still accepted but answered
      with the listener's [l_overload] response (HTTP: 503 +
      Retry-After) and closed — never silently dropped.
    - {b Deadlines}: a connection holding a partial request past
      [timeout_s] is answered with [l_timeout] (HTTP: 408) and closed;
      an idle keep-alive connection past the deadline is closed
      silently.  The wall clock spans all reads of one request, so a
      byte-at-a-time trickle cannot hold a slot forever.
    - {b Ordering}: a protocol violation or deadline in the middle of a
      pipelined burst is answered {e after} the responses to the
      requests already parsed, never interleaved ahead of them.

    The protocol is pluggable (the [l_parse]/[execute] pair), so the
    HTTP front-end and the binary POOL protocol share this loop, and
    one loop serves both on different listening sockets. *)

(* --- poller: epoll with a select fallback ------------------------------- *)

external raw_epoll_create : unit -> int = "pdb_epoll_create"
external raw_epoll_ctl : int -> int -> int -> int -> int = "pdb_epoll_ctl"
external raw_epoll_wait : int -> int -> int array = "pdb_epoll_wait"

let ev_read = 1
let ev_write = 2

(* Unix.file_descr is an int on every Unix port of OCaml; the poller
   traffics in ints so the epoll stub stays trivial. *)
let fd_int : Unix.file_descr -> int = Obj.magic
let int_fd : int -> Unix.file_descr = Obj.magic

module Poller = struct
  type backend = Epoll of int | Select

  type t = {
    backend : backend;
    interest : (int, int) Hashtbl.t; (* fd -> mask, the registered set *)
  }

  let backend_name t = match t.backend with Epoll _ -> "epoll" | Select -> "select"

  let create () : t =
    let want_select =
      match Sys.getenv_opt "PDB_POLLER" with Some "select" -> true | _ -> false
    in
    let backend =
      if want_select then Select
      else match raw_epoll_create () with ep when ep >= 0 -> Epoll ep | _ -> Select
    in
    { backend; interest = Hashtbl.create 64 }

  (** Set the interest mask for [fd]; [mask = 0] deregisters. *)
  let set t (fd : Unix.file_descr) (mask : int) =
    let fd = fd_int fd in
    let prev = Hashtbl.find_opt t.interest fd in
    match (prev, mask) with
    | None, 0 -> ()
    | Some m, _ when m = mask -> ()
    | _ ->
        if mask = 0 then Hashtbl.remove t.interest fd
        else Hashtbl.replace t.interest fd mask;
        (match t.backend with
        | Select -> ()
        | Epoll ep ->
            let op =
              match (prev, mask) with
              | None, _ -> 0 (* add *)
              | Some _, 0 -> 2 (* del *)
              | Some _, _ -> 1 (* mod *)
            in
            ignore (raw_epoll_ctl ep op fd mask))

  let remove t fd = set t fd 0

  (** Wait for events; returns [(fd, mask)] pairs.  A poller error or
      EINTR returns the empty list — callers re-check their stop flag
      and come back. *)
  let wait t ~timeout_s : (Unix.file_descr * int) list =
    match t.backend with
    | Epoll ep ->
        let a = raw_epoll_wait ep (int_of_float (timeout_s *. 1000.)) in
        let n = Array.length a / 2 in
        List.init n (fun i -> (int_fd a.(2 * i), a.((2 * i) + 1)))
    | Select -> (
        let rd = ref [] and wr = ref [] in
        Hashtbl.iter
          (fun fd m ->
            if m land ev_read <> 0 then rd := int_fd fd :: !rd;
            if m land ev_write <> 0 then wr := int_fd fd :: !wr)
          t.interest;
        match Unix.select !rd !wr [] timeout_s with
        | r, w, _ ->
            let tbl = Hashtbl.create 16 in
            List.iter (fun fd -> Hashtbl.replace tbl (fd_int fd) ev_read) r;
            List.iter
              (fun fd ->
                let prev = Option.value ~default:0 (Hashtbl.find_opt tbl (fd_int fd)) in
                Hashtbl.replace tbl (fd_int fd) (prev lor ev_write))
              w;
            Hashtbl.fold (fun fd m acc -> (int_fd fd, m) :: acc) tbl []
        | exception Unix.Unix_error ((Unix.EINTR | Unix.EBADF), _, _) -> [])

  let close t =
    match t.backend with
    | Epoll ep -> ( try Unix.close (int_fd ep) with Unix.Unix_error _ -> ())
    | Select -> ()
end

(* --- protocol seam ------------------------------------------------------- *)

type response = {
  rsp_data : string;  (** raw bytes to write back *)
  rsp_close : bool;  (** close the connection after the write drains *)
}

type 'req parse_result =
  | Parsed of 'req * int  (** one complete request and the bytes it consumed *)
  | Incomplete  (** need more bytes *)
  | Reject of response
      (** protocol violation: answer this (after any already-parsed
          requests) and close — the parser is the layer that enforces
          size bounds (414/431/oversized frame) *)

type 'req listener = {
  l_sock : Unix.file_descr;  (** listening socket; the loop owns it *)
  l_parse : string -> off:int -> 'req parse_result;
      (** try to extract one request from the unconsumed input *)
  l_overload : response;  (** admission-control answer (503) *)
  l_timeout : response;  (** mid-request deadline answer (408) *)
}

(* --- connections --------------------------------------------------------- *)

type 'req conn = {
  c_fd : Unix.file_descr;
  c_lst : 'req listener;
  mutable c_in : string;  (** unconsumed input bytes *)
  mutable c_out : string;  (** response bytes not yet fully written *)
  mutable c_out_off : int;
  mutable c_busy : bool;  (** a request is executing on a worker *)
  c_pending : 'req Queue.t;  (** parsed requests awaiting execution *)
  mutable c_final : response option;
      (** reject/timeout response, emitted after pending drains *)
  mutable c_close_after : bool;  (** stop reading; close once drained *)
  mutable c_lingering : bool;  (** write side shut; draining client bytes *)
  mutable c_deadline : int;  (** monotonic ns; request-read deadline *)
  mutable c_closed : bool;
  mutable c_mask : int;  (** current poller interest *)
}

type 'req t = {
  poller : Poller.t;
  listeners : 'req listener list;
  execute : 'req -> response;
  conns : (int, 'req conn) Hashtbl.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  jobs : ('req conn * 'req) Queue.t;
  jmu : Mutex.t;
  jcv : Condition.t;
  done_q : ('req conn * response) Queue.t;
  dmu : Mutex.t;
  mutable stop_workers : bool;
  max_conns : int;
  max_buffer : int;
  pipeline_depth : int;
  timeout_ns : int;
  handled : int Atomic.t;  (** requests answered (all protocols) *)
  rbuf : Bytes.t;
      (** the loop's one read buffer: every socket and the wake pipe are
          read into it, and a read's bytes are copied out (into [c_in])
          before the next.  Only the loop thread touches it *)
  mutable accepted : int;
  mutable overloaded : int;  (** connections answered with l_overload *)
  mutable timeouts : int;  (** connections answered with l_timeout *)
  mutable draining : bool;
}

let m_conns =
  Pobs.Metrics.gauge "pdb_loop_connections"
    ~help:"Connections currently held by the event loop"

let m_accepted =
  Pobs.Metrics.counter "pdb_loop_accepted_total"
    ~help:"Connections accepted by the event loop"

let m_overload =
  Pobs.Metrics.counter "pdb_loop_overload_total"
    ~help:"Connections answered with the admission-control overload response"

let m_timeout =
  Pobs.Metrics.counter "pdb_loop_timeouts_total"
    ~help:"Connections that hit the request-read deadline"

(* How often the loop wakes with no events to check stop flags and
   sweep deadlines.  Bounds shutdown latency. *)
let poll_interval_s = 0.25

(* Bytes per socket read.  The buffer is far above the minor heap's
   size limit, so it is allocated once per loop, never per read. *)
let read_chunk = 65536

(* The byte a worker writes to the wake pipe; never mutated. *)
let wake_byte = Bytes.make 1 '!'

(* Worker threads: execute handlers, post completions, poke the pipe.
   [execute] is expected to be total (the protocol layer catches its
   own errors); if it raises anyway the connection is closed without a
   response rather than wedged forever. *)
let worker_loop (t : _ t) =
  let rec go () =
    Mutex.lock t.jmu;
    while Queue.is_empty t.jobs && not t.stop_workers do
      Condition.wait t.jcv t.jmu
    done;
    (* drain before exiting: every parsed request gets a response *)
    if Queue.is_empty t.jobs then Mutex.unlock t.jmu
    else begin
      let conn, req = Queue.pop t.jobs in
      Mutex.unlock t.jmu;
      let resp =
        try t.execute req with _ -> { rsp_data = ""; rsp_close = true }
      in
      Mutex.lock t.dmu;
      Queue.push (conn, resp) t.done_q;
      Mutex.unlock t.dmu;
      (try ignore (Unix.write t.wake_w wake_byte 0 1)
       with
      | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EPIPE | Unix.EBADF), _, _)
        ->
          ());
      go ()
    end
  in
  go ()

let create ?(max_conns = 1024) ?(max_buffer = 4 lsl 20) ?(pipeline_depth = 64)
    ?(timeout_s = 10.) ~workers ~execute (listeners : 'req listener list) :
    'req t * Thread.t array =
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let t =
    {
      poller = Poller.create ();
      listeners;
      execute;
      conns = Hashtbl.create 256;
      wake_r;
      wake_w;
      jobs = Queue.create ();
      jmu = Mutex.create ();
      jcv = Condition.create ();
      done_q = Queue.create ();
      dmu = Mutex.create ();
      stop_workers = false;
      max_conns;
      max_buffer;
      pipeline_depth;
      timeout_ns = int_of_float (timeout_s *. 1e9);
      handled = Atomic.make 0;
      rbuf = Bytes.create read_chunk;
      accepted = 0;
      overloaded = 0;
      timeouts = 0;
      draining = false;
    }
  in
  List.iter
    (fun l ->
      Unix.set_nonblock l.l_sock;
      Poller.set t.poller l.l_sock ev_read)
    listeners;
  Poller.set t.poller t.wake_r ev_read;
  let ths = Array.init (max 1 workers) (fun _ -> Thread.create worker_loop t) in
  (t, ths)

let backend_name t = Poller.backend_name t.poller
let requests_handled t = Atomic.get t.handled

(* --- connection plumbing ------------------------------------------------- *)

let out_pending (c : _ conn) = String.length c.c_out - c.c_out_off > 0

let update_interest t (c : _ conn) =
  if not c.c_closed then begin
    let want_read =
      c.c_lingering
      || (not c.c_close_after) && (not t.draining)
         && Queue.length c.c_pending < t.pipeline_depth
         && String.length c.c_out - c.c_out_off < t.max_buffer
    in
    let want_write = out_pending c in
    let mask =
      (if want_read then ev_read else 0) lor if want_write then ev_write else 0
    in
    if mask <> c.c_mask then begin
      c.c_mask <- mask;
      Poller.set t.poller c.c_fd mask
    end
  end

let close_conn t (c : _ conn) =
  if not c.c_closed then begin
    c.c_closed <- true;
    Poller.remove t.poller c.c_fd;
    Hashtbl.remove t.conns (fd_int c.c_fd);
    Pobs.Metrics.seti m_conns (Hashtbl.length t.conns);
    try Unix.close c.c_fd with Unix.Unix_error _ -> ()
  end

(* Append response bytes; compact the consumed prefix when it dominates. *)
let push_out (c : _ conn) (data : string) =
  if c.c_out_off > 0 && (c.c_out_off = String.length c.c_out || c.c_out_off > 1 lsl 16)
  then begin
    c.c_out <- String.sub c.c_out c.c_out_off (String.length c.c_out - c.c_out_off);
    c.c_out_off <- 0
  end;
  c.c_out <- (if c.c_out = "" then data else c.c_out ^ data)

(* Lingering close: when the loop answers *before* reading everything
   the client sent (an overload 503, a reject, a Connection: close
   response with pipelined requests behind it), a full [close] would
   make the kernel RST the socket on the next late-arriving byte —
   destroying the response in flight.  Instead shut down the write
   side only, keep reading and discarding until the client's EOF (or
   a short linger deadline), then close. *)
let linger_ns = 1_000_000_000

let start_linger t (c : _ conn) =
  if not (c.c_closed || c.c_lingering) then begin
    c.c_lingering <- true;
    c.c_deadline <- Pobs.Monotonic.now_ns () + linger_ns;
    match Unix.shutdown c.c_fd Unix.SHUTDOWN_SEND with
    | () -> update_interest t c
    | exception Unix.Unix_error _ -> close_conn t c
  end

(* Write as much pending output as the socket accepts.  Errors close
   the connection: the client is gone, nothing to salvage. *)
let flush_out t (c : _ conn) =
  if not c.c_closed then begin
    let len = String.length c.c_out in
    let buf = Bytes.unsafe_of_string c.c_out in
    let continue = ref true in
    while !continue && c.c_out_off < len do
      match Unix.write c.c_fd buf c.c_out_off (len - c.c_out_off) with
      | 0 -> continue := false
      | n -> c.c_out_off <- c.c_out_off + n
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
          continue := false
      | exception _ ->
          close_conn t c;
          continue := false
    done;
    if (not c.c_closed) && c.c_out_off >= String.length c.c_out then begin
      c.c_out <- "";
      c.c_out_off <- 0;
      if
        c.c_close_after && (not c.c_busy)
        && Queue.is_empty c.c_pending
        && c.c_final = None
      then start_linger t c
    end;
    if not c.c_closed then update_interest t c
  end

(* Drive the connection forward: start the next pending request on a
   worker, emit the deferred reject/timeout once pending work drains,
   flush.  Every event path funnels through here. *)
let advance t (c : _ conn) =
  if not c.c_closed then begin
    if (not c.c_busy) && not (Queue.is_empty c.c_pending) then begin
      let req = Queue.pop c.c_pending in
      c.c_busy <- true;
      Mutex.lock t.jmu;
      Queue.push (c, req) t.jobs;
      Condition.signal t.jcv;
      Mutex.unlock t.jmu
    end;
    (match c.c_final with
    | Some r when (not c.c_busy) && Queue.is_empty c.c_pending ->
        c.c_final <- None;
        Atomic.incr t.handled;
        push_out c r.rsp_data
    | _ -> ());
    flush_out t c
  end

(* Parse as many complete requests as the buffer holds. *)
let parse_available t (c : _ conn) =
  let continue = ref true in
  let off = ref 0 in
  while !continue && (not c.c_close_after) && c.c_final = None do
    match c.c_lst.l_parse c.c_in ~off:!off with
    | Parsed (req, consumed) ->
        off := !off + consumed;
        Queue.push req c.c_pending;
        if Queue.length c.c_pending >= t.pipeline_depth then continue := false
    | Incomplete -> continue := false
    | Reject resp ->
        (* protocol violation: stop reading; the response is emitted
           after the requests already parsed, then the conn closes *)
        c.c_final <- Some resp;
        c.c_close_after <- true;
        continue := false
  done;
  if !off > 0 then c.c_in <- String.sub c.c_in !off (String.length c.c_in - !off);
  (* the deadline covers reading one full request: re-arm it whenever
     no partial request is sitting in the buffer (idle timeout) *)
  if c.c_in = "" then c.c_deadline <- Pobs.Monotonic.now_ns () + t.timeout_ns;
  advance t c

let handle_readable t (c : _ conn) =
  let buf = t.rbuf in
  if c.c_lingering then begin
    (* drain and discard until the client's EOF closes us cleanly *)
    match Unix.read c.c_fd buf 0 read_chunk with
    | 0 -> close_conn t c
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()
    | exception _ -> close_conn t c
  end
  else
  match Unix.read c.c_fd buf 0 read_chunk with
  | 0 ->
      (* EOF: finish what is already parsed, then close *)
      if c.c_busy || (not (Queue.is_empty c.c_pending)) || out_pending c then begin
        c.c_close_after <- true;
        advance t c
      end
      else close_conn t c
  | n ->
      let was_empty = c.c_in = "" in
      c.c_in <-
        (if was_empty then Bytes.sub_string buf 0 n
         else c.c_in ^ Bytes.sub_string buf 0 n);
      if was_empty then c.c_deadline <- Pobs.Monotonic.now_ns () + t.timeout_ns;
      parse_available t c
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      ()
  | exception _ -> close_conn t c

let accept_ready t (l : _ listener) =
  let continue = ref true in
  while !continue do
    match Unix.accept ~cloexec:true l.l_sock with
    | client, _addr ->
        Unix.set_nonblock client;
        (try Unix.setsockopt client Unix.TCP_NODELAY true
         with Unix.Unix_error _ -> ());
        t.accepted <- t.accepted + 1;
        Pobs.Metrics.inc m_accepted;
        let c =
          {
            c_fd = client;
            c_lst = l;
            c_in = "";
            c_out = "";
            c_out_off = 0;
            c_busy = false;
            c_pending = Queue.create ();
            c_final = None;
            c_close_after = false;
            c_lingering = false;
            c_deadline = Pobs.Monotonic.now_ns () + t.timeout_ns;
            c_closed = false;
            c_mask = 0;
          }
        in
        Hashtbl.replace t.conns (fd_int client) c;
        Pobs.Metrics.seti m_conns (Hashtbl.length t.conns);
        if Hashtbl.length t.conns > t.max_conns || t.draining then begin
          (* admission control: over capacity we still *answer* — a 503
             the client can retry — instead of leaving the connection
             to rot in the backlog or resetting it *)
          t.overloaded <- t.overloaded + 1;
          Pobs.Metrics.inc m_overload;
          Atomic.incr t.handled;
          push_out c l.l_overload.rsp_data;
          c.c_close_after <- true;
          flush_out t c
        end
        else update_interest t c
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        continue := false
    | exception Unix.Unix_error _ -> continue := false
  done

let drain_completions t =
  (try
     while Unix.read t.wake_r t.rbuf 0 read_chunk > 0 do
       ()
     done
   with Unix.Unix_error _ -> ());
  let batch = ref [] in
  Mutex.lock t.dmu;
  while not (Queue.is_empty t.done_q) do
    batch := Queue.pop t.done_q :: !batch
  done;
  Mutex.unlock t.dmu;
  List.iter
    (fun (c, (resp : response)) ->
      Atomic.incr t.handled;
      c.c_busy <- false;
      if not c.c_closed then begin
        push_out c resp.rsp_data;
        if resp.rsp_close then c.c_close_after <- true;
        (* more pipelined input may already be buffered *)
        if not c.c_close_after then parse_available t c else advance t c
      end)
    (List.rev !batch)

let sweep_deadlines t =
  let now = Pobs.Monotonic.now_ns () in
  let expired =
    Hashtbl.fold
      (fun _ c acc ->
        if (not c.c_closed) && (not c.c_busy) && now > c.c_deadline then c :: acc
        else acc)
      t.conns []
  in
  List.iter
    (fun c ->
      if c.c_lingering then
        (* client never sent its EOF: give up on the half-close *)
        close_conn t c
      else if c.c_in <> "" && c.c_final = None && not c.c_close_after then begin
        (* a partial request trickling past the deadline: 408 *)
        t.timeouts <- t.timeouts + 1;
        Pobs.Metrics.inc m_timeout;
        c.c_final <- Some c.c_lst.l_timeout;
        c.c_close_after <- true;
        advance t c
      end
      else if
        c.c_in = "" && Queue.is_empty c.c_pending && c.c_final = None
        && not (out_pending c)
      then
        (* idle keep-alive connection past the deadline: close silently *)
        close_conn t c)
    expired

(* --- main loop ----------------------------------------------------------- *)

type stats = {
  s_accepted : int;
  s_overloaded : int;
  s_timeouts : int;
  s_handled : int;
  s_open_conns : int;
}

let stats t : stats =
  {
    s_accepted = t.accepted;
    s_overloaded = t.overloaded;
    s_timeouts = t.timeouts;
    s_handled = Atomic.get t.handled;
    s_open_conns = Hashtbl.length t.conns;
  }

(** Run the loop until [continue ()] is false, then drain: stop
    accepting new work (late arrivals are answered with the overload
    response), finish in-flight and pipelined requests (bounded by
    [grace_s]), flush, close everything, join the workers. *)
let run (t : 'req t) (workers : Thread.t array) ~(continue : unit -> bool)
    ?(grace_s = 2.0) () =
  let listener_fds = List.map (fun l -> (fd_int l.l_sock, l)) t.listeners in
  let step timeout =
    let events = Poller.wait t.poller ~timeout_s:timeout in
    drain_completions t;
    List.iter
      (fun (fd, mask) ->
        if fd = t.wake_r then ()
        else
          match List.assoc_opt (fd_int fd) listener_fds with
          | Some l -> accept_ready t l
          | None -> (
              match Hashtbl.find_opt t.conns (fd_int fd) with
              | None -> ()
              | Some c ->
                  if mask land ev_write <> 0 then flush_out t c;
                  if mask land ev_read <> 0 && not c.c_closed then
                    handle_readable t c))
      events;
    sweep_deadlines t
  in
  while continue () do
    step poll_interval_s
  done;
  t.draining <- true;
  Hashtbl.iter (fun _ c -> update_interest t c) t.conns;
  let deadline = Pobs.Monotonic.now_ns () + int_of_float (grace_s *. 1e9) in
  let in_flight () =
    Hashtbl.fold
      (fun _ c acc ->
        acc || c.c_busy
        || (not (Queue.is_empty c.c_pending))
        || c.c_final <> None || out_pending c)
      t.conns false
  in
  while in_flight () && Pobs.Monotonic.now_ns () < deadline do
    step 0.02
  done;
  drain_completions t;
  (* tear down *)
  List.iter (fun l -> Poller.remove t.poller l.l_sock) t.listeners;
  Mutex.lock t.jmu;
  t.stop_workers <- true;
  Condition.broadcast t.jcv;
  Mutex.unlock t.jmu;
  Array.iter Thread.join workers;
  let remaining = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
  List.iter (fun c -> flush_out t c) remaining;
  List.iter (fun c -> close_conn t c) remaining;
  Poller.remove t.poller t.wake_r;
  Poller.close t.poller;
  (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
  try Unix.close t.wake_w with Unix.Unix_error _ -> ()
