(** Byte-stream seam between primary and replica.

    Replication traffic flows through a {!t} — a record of closures over
    send/recv/poll/close — in the same spirit as {!Pstore.Vfs}: the real
    implementation wraps a TCP socket, and tests substitute in-memory
    links that tear frames, cut the connection after N bytes, or replay
    a recorded stream, so the reconnect/resume protocol can be proven
    correct without a network (see [test/test_repl.ml]).

    Contract: [send]/[recv] are single-shot and may transfer fewer bytes
    than asked; [recv] returns 0 when the peer has closed; [poll t]
    says whether a [recv] would make progress within [t] seconds.  Any
    transport failure surfaces as {!Link_down} — never a raw
    [Unix_error]. *)

(** The connection is gone: the peer vanished, the OS refused, or a
    fault-injecting link decided to cut the wire.  Both ends treat it
    the same way — abandon the connection and let the replica's
    reconnect loop take over. *)
exception Link_down of string

type t = {
  send : Bytes.t -> off:int -> len:int -> int;
  recv : Bytes.t -> off:int -> len:int -> int;  (** 0 = peer closed *)
  poll : float -> bool;
  close : unit -> unit;
  shutdown : unit -> unit;
      (** Force any thread blocked in [send]/[recv] on this link to fail
          with {!Link_down}, {e without} releasing the descriptor — safe
          to call from another thread (a cross-thread [close] would race
          fd reuse, and on Linux does not even wake a blocked writer). *)
}

let down fmt = Format.kasprintf (fun s -> raise (Link_down s)) fmt

(* --- exact-transfer helpers (short transfers retried) ----------------- *)

let really_send (l : t) buf ~off ~len =
  let pos = ref 0 in
  while !pos < len do
    let n = l.send buf ~off:(off + !pos) ~len:(len - !pos) in
    if n <= 0 then down "send made no progress";
    pos := !pos + n
  done

(** Read exactly [len] bytes; {!Link_down} if the peer closes mid-way.
    A clean close *before the first byte* also raises — framing above us
    treats any mid-stream EOF as a cut link. *)
let really_recv (l : t) buf ~off ~len =
  let pos = ref 0 in
  while !pos < len do
    let n = l.recv buf ~off:(off + !pos) ~len:(len - !pos) in
    if n = 0 then down "peer closed (got %d of %d bytes)" !pos len;
    pos := !pos + n
  done

(* --- reconnect backoff --------------------------------------------------- *)

(** The one reconnect backoff of every dialler — the replica session,
    the router's backend channels and [Pserver.Client.connect_retry]:
    the first retry waits 50 ms, each failure doubles it, capped at 2 s. *)
let backoff_first = 0.05

let backoff_next delay = Float.min 2.0 (delay *. 2.)

(* --- TCP --------------------------------------------------------------- *)

(* A peer that vanishes mid-send must surface as EPIPE → Link_down, not
   deliver a process-killing SIGPIPE; set once per endpoint creation. *)
let ignore_sigpipe () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ | Sys_error _ -> ()

(* [Unix.inet_addr_of_string] raises [Failure] on anything that is not a
   numeric literal, so hostnames ("localhost", DNS names) go through
   getaddrinfo.  Every failure mode becomes {!Link_down}. *)
let resolve host port =
  match Unix.inet_addr_of_string host with
  | addr -> Unix.ADDR_INET (addr, port)
  | exception Failure _ -> (
      match
        Unix.getaddrinfo host (string_of_int port)
          [ Unix.AI_FAMILY Unix.PF_INET; Unix.AI_SOCKTYPE Unix.SOCK_STREAM ]
      with
      | { Unix.ai_addr = Unix.ADDR_INET _ as addr; _ } :: _ -> addr
      | _ -> down "cannot resolve host %S" host
      | exception _ -> down "cannot resolve host %S" host)

let of_fd fd : t =
  let closed = ref false in
  (* serializes close/shutdown: a cross-thread [shutdown] must never
     touch the descriptor after the owner's [close] released it *)
  let cm = Mutex.create () in
  let rec send buf ~off ~len =
    match Unix.write fd buf off len with
    | n -> n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> send buf ~off ~len
    | exception Unix.Unix_error (e, _, _) -> down "send: %s" (Unix.error_message e)
  in
  let rec recv buf ~off ~len =
    match Unix.read fd buf off len with
    | n -> n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> recv buf ~off ~len
    | exception Unix.Unix_error (e, _, _) -> down "recv: %s" (Unix.error_message e)
  in
  let poll timeout =
    match Unix.select [ fd ] [] [] timeout with
    | [], _, _ -> false
    | _ -> true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
    | exception Unix.Unix_error (e, _, _) -> down "poll: %s" (Unix.error_message e)
  in
  let close () =
    Mutex.lock cm;
    if not !closed then begin
      closed := true;
      (try Unix.close fd with Unix.Unix_error _ -> ())
    end;
    Mutex.unlock cm
  in
  let shutdown () =
    Mutex.lock cm;
    if not !closed then (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    Mutex.unlock cm
  in
  { send; recv; poll; close; shutdown }

let connect ~host ~port : t =
  ignore_sigpipe ();
  let addr = resolve host port in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.connect fd addr;
     Unix.setsockopt fd Unix.TCP_NODELAY true
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     (match e with
     | Unix.Unix_error (er, _, _) ->
         down "connect %s:%d: %s" host port (Unix.error_message er)
     | e -> down "connect %s:%d: %s" host port (Printexc.to_string e)));
  of_fd fd

type listener = { l_fd : Unix.file_descr; bound_port : int }

let listen ~host ~port : listener =
  ignore_sigpipe ();
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (resolve host port);
  Unix.listen fd 16;
  let bound_port =
    match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> port
  in
  { l_fd = fd; bound_port }

(** Is a connection waiting on [l] within [timeout] seconds?  An accept
    loop must wait here rather than block in [accept]: on Linux a thread
    parked in [accept(2)] is {e not} woken when another thread closes
    the listening descriptor, so a blocking accept could never be shut
    down. *)
let poll_listener (l : listener) timeout =
  match Unix.select [ l.l_fd ] [] [] timeout with
  | [], _, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
  | exception Unix.Unix_error (_, _, _) -> false

(** [sndtimeo] caps how long a [send] may block on a stalled peer (full
    TCP buffer): past it the write fails with {!Link_down} instead of
    wedging the sender thread forever. *)
let accept ?sndtimeo (l : listener) : t =
  let rec go () =
    match Unix.accept l.l_fd with
    | fd, _addr ->
        (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
        (match sndtimeo with
        | Some s -> (
            try Unix.setsockopt_float fd Unix.SO_SNDTIMEO s
            with Unix.Unix_error _ | Invalid_argument _ -> ())
        | None -> ());
        of_fd fd
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (e, _, _) -> down "accept: %s" (Unix.error_message e)
  in
  go ()

let close_listener (l : listener) = try Unix.close l.l_fd with Unix.Unix_error _ -> ()

(* --- in-memory pair ---------------------------------------------------- *)

(* One direction of an in-memory duplex link: a chunk queue guarded by a
   mutex/condition so the bench can run a writer and an applier thread
   over it without sockets. *)
type chan = {
  q : string Queue.t;
  mutable pos : int; (* consumed bytes of the front chunk *)
  m : Mutex.t;
  c : Condition.t;
  mutable chan_closed : bool;
}

let chan () = { q = Queue.create (); pos = 0; m = Mutex.create (); c = Condition.create (); chan_closed = false }

let chan_send ch buf ~off ~len =
  Mutex.lock ch.m;
  if ch.chan_closed then begin
    Mutex.unlock ch.m;
    down "send on closed in-memory link"
  end;
  Queue.add (Bytes.sub_string buf off len) ch.q;
  Condition.broadcast ch.c;
  Mutex.unlock ch.m;
  len

let chan_recv ch buf ~off ~len =
  Mutex.lock ch.m;
  while Queue.is_empty ch.q && not ch.chan_closed do
    Condition.wait ch.c ch.m
  done;
  let n =
    if Queue.is_empty ch.q then 0
    else begin
      let front = Queue.peek ch.q in
      let avail = String.length front - ch.pos in
      let n = min len avail in
      Bytes.blit_string front ch.pos buf off n;
      ch.pos <- ch.pos + n;
      if ch.pos >= String.length front then begin
        ignore (Queue.pop ch.q);
        ch.pos <- 0
      end;
      n
    end
  in
  Mutex.unlock ch.m;
  n

(* No timed condition wait in the stdlib: poll by short sleeps. *)
let chan_poll ch timeout =
  let ready () =
    Mutex.lock ch.m;
    let r = (not (Queue.is_empty ch.q)) || ch.chan_closed in
    Mutex.unlock ch.m;
    r
  in
  if ready () then true
  else if timeout <= 0. then false
  else begin
    let deadline = Unix.gettimeofday () +. timeout in
    let rec wait () =
      if ready () then true
      else if Unix.gettimeofday () >= deadline then false
      else begin
        Thread.delay 0.002;
        wait ()
      end
    in
    wait ()
  end

let chan_close ch =
  Mutex.lock ch.m;
  ch.chan_closed <- true;
  Condition.broadcast ch.c;
  Mutex.unlock ch.m

(** An in-memory duplex pair: bytes sent on one endpoint arrive at the
    other.  Thread-safe; closing either endpoint EOFs both directions. *)
let pair () : t * t =
  let a2b = chan () and b2a = chan () in
  let mk tx rx =
    let close () =
      chan_close tx;
      chan_close rx
    in
    {
      send = (fun buf ~off ~len -> chan_send tx buf ~off ~len);
      recv = (fun buf ~off ~len -> chan_recv rx buf ~off ~len);
      poll = (fun timeout -> chan_poll rx timeout);
      close;
      shutdown = close (* in-memory: closing the chans wakes both sides *);
    }
  in
  (mk a2b b2a, mk b2a a2b)

(** A replayed inbound stream for deterministic tests: [recv] serves the
    bytes of [s] (optionally only the first [cut] bytes, then behaves as
    a vanished peer), [send] appends to an internal buffer returned by
    the second component. *)
let of_string ?cut (s : string) : t * Buffer.t =
  let sent = Buffer.create 256 in
  let limit = match cut with Some c -> min c (String.length s) | None -> String.length s in
  let pos = ref 0 in
  let recv buf ~off ~len =
    if !pos >= limit then
      if limit < String.length s then down "link cut at byte %d" limit else 0
    else begin
      let n = min len (limit - !pos) in
      Bytes.blit_string s !pos buf off n;
      pos := !pos + n;
      n
    end
  in
  ( {
      send =
        (fun buf ~off ~len ->
          Buffer.add_subbytes sent buf off len;
          len);
      recv;
      poll = (fun _ -> !pos < String.length s);
      close = (fun () -> ());
      shutdown = (fun () -> ());
    },
    sent )
