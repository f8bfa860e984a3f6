(** Blocking client for the binary POOL protocol.

    Deliberately small: connect, send {!Binary_proto} frames, read
    answers.  [query] is the one-shot path; [batch] is the amortisation
    path — one [Batch] frame out, N answers back in request order, one
    write syscall and one read burst instead of N round trips.  The load
    generator, the router's backend pool and the protocol tests are all
    built on this module, and it is the reference implementation for
    anyone speaking the protocol from another language.

    The transport is a {!Prepl.Link.t} — a TCP socket from {!connect},
    or any in-memory link from {!of_link} — so the dialling, hostname
    resolution and error mapping are the replication link's.  Transport
    failures (refused connects, resets, EOF mid-frame) surface as the
    typed {!Backend_down}, so callers distinguish "this backend is gone,
    try a peer" from programming errors.  {!Protocol_error} means
    framing damage: the stream cannot be resynchronised and the
    connection must die. *)

module Link = Prepl.Link

type t = {
  link : Link.t;
  mutable buf : Bytes.t;
      (* the read chunk: one [recv] usually brings a whole answer *)
  mutable lo : int; (* first byte not yet parsed *)
  mutable hi : int; (* end of the received bytes *)
  mutable next_id : int;
}

type answer = Ok of string | Err of string

exception Backend_down of string
exception Protocol_error of string

let down fmt = Printf.ksprintf (fun m -> raise (Backend_down m)) fmt
let on_link f = try f () with Link.Link_down m -> raise (Backend_down m)
let chunk_size = 65536

let of_link (link : Link.t) : t =
  { link; buf = Bytes.create chunk_size; lo = 0; hi = 0; next_id = 0 }

let connect ?(host = "127.0.0.1") ~port () : t =
  of_link (on_link (fun () -> Link.connect ~host ~port))

(** Connect with {!Link}'s capped exponential backoff: [attempts] tries.
    Raises the last {!Backend_down} if every attempt fails. *)
let connect_retry ?(host = "127.0.0.1") ~port ?(attempts = 5) () : t =
  let rec go n delay =
    match connect ~host ~port () with
    | t -> t
    | exception Backend_down _ when n < attempts ->
        Thread.delay delay;
        go (n + 1) (Link.backoff_next delay)
  in
  go 1 Link.backoff_first

let close (t : t) = t.link.close ()

(** Wake any thread blocked reading or writing [t], without releasing
    its descriptor (see {!Prepl.Link.t}); the owner still calls
    {!close}. *)
let shutdown (t : t) = t.link.shutdown ()

let fresh_id (t : t) : int =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let send_frame (t : t) (f : Binary_proto.frame) =
  on_link (fun () -> Prepl.Frame.write t.link (Binary_proto.encode f))

(* The next whole frame already buffered, if any. *)
let buffered (t : t) : Binary_proto.frame option =
  match
    Binary_proto.decode
      (Prepl.Frame.parse Binary_proto.spec (Bytes.unsafe_to_string t.buf) ~off:t.lo
         ~stop:t.hi)
  with
  | Binary_proto.Frame (f, n) ->
      t.lo <- t.lo + n;
      if t.lo = t.hi then begin
        t.lo <- 0;
        t.hi <- 0
      end;
      Some f
  | Binary_proto.Bad m -> raise (Protocol_error m)
  | Binary_proto.Need_more -> None

(* One [recv] into the chunk after the partial frame, which first slides
   to the front; a frame bigger than the chunk doubles it. *)
let fill (t : t) =
  if t.lo > 0 then begin
    Bytes.blit t.buf t.lo t.buf 0 (t.hi - t.lo);
    t.hi <- t.hi - t.lo;
    t.lo <- 0
  end;
  if t.hi = Bytes.length t.buf then t.buf <- Bytes.extend t.buf 0 (Bytes.length t.buf);
  match on_link (fun () -> t.link.recv t.buf ~off:t.hi ~len:(Bytes.length t.buf - t.hi)) with
  | 0 -> down "connection closed mid-frame"
  | n -> t.hi <- t.hi + n

(** Read frames until one arrives; framing damage raises
    {!Protocol_error}, connection loss raises {!Backend_down}. *)
let rec recv_frame (t : t) : Binary_proto.frame =
  match buffered t with
  | Some f -> f
  | None ->
      fill t;
      recv_frame t

(** {!recv_frame}, giving up with [None] once [timeout_s] pass without a
    byte arriving; a partial frame stays buffered for the next call. *)
let rec recv_frame_within (t : t) (timeout_s : float) : Binary_proto.frame option =
  match buffered t with
  | Some f -> Some f
  | None ->
      if on_link (fun () -> t.link.poll timeout_s) then begin
        fill t;
        recv_frame_within t timeout_s
      end
      else None

(* --- answer decoders (shared with {!Backend_pool}) ---------------------- *)

let answer_of (id : int) (f : Binary_proto.frame) : answer =
  match f with
  | Binary_proto.Result r when r.id = id -> Ok r.v
  | Binary_proto.Error e when e.id = id -> Err e.msg
  | Binary_proto.Result _ | Binary_proto.Error _ ->
      raise (Protocol_error "answer id does not match query id")
  | _ -> raise (Protocol_error "unexpected frame type in answer")

(** An HTTP-shaped request.  A request body rides in the ["x-pdb-body"]
    header — mutation bodies are small form-encoded strings, far under
    the frame cap. *)
let hreq ~meth ~target ~headers ~body (id : int) : Binary_proto.frame =
  let headers = if body = "" then headers else ("x-pdb-body", body) :: headers in
  Binary_proto.Hreq { id; meth; target; headers }

let hresp_of (id : int) (f : Binary_proto.frame) : int * (string * string) list * string =
  match f with
  | Binary_proto.Hresp r when r.id = id -> (r.status, r.headers, r.body)
  | Binary_proto.Error e when e.id = id -> raise (Protocol_error e.msg)
  | _ -> raise (Protocol_error "unexpected frame type in http answer")

type pong = { p_role : string; p_lsn : int; p_stream_id : int; p_repl_port : int }

let pong_of (id : int) (f : Binary_proto.frame) : pong =
  match f with
  | Binary_proto.Pong p when p.id = id ->
      { p_role = p.role; p_lsn = p.lsn; p_stream_id = p.stream_id; p_repl_port = p.repl_port }
  | Binary_proto.Error e when e.id = id -> raise (Protocol_error e.msg)
  | _ -> raise (Protocol_error "unexpected frame type in ping answer")

(* --- requests ---------------------------------------------------------- *)

(** Run one POOL query; returns its printed value or error text. *)
let query (t : t) (q : string) : answer =
  let id = fresh_id t in
  send_frame t (Binary_proto.Query { id; q });
  answer_of id (recv_frame t)

(** Run a batch of POOL queries in one frame; answers come back in
    query order. *)
let batch (t : t) (qs : string list) : answer list =
  let ids = List.map (fun q -> (fresh_id t, q)) qs in
  send_frame t (Binary_proto.Batch ids);
  List.map (fun (id, _) -> answer_of id (recv_frame t)) ids

(** One HTTP-shaped request over the binary connection.  Returns
    (status, headers, body). *)
let http (t : t) ~(meth : string) ~(target : string)
    ?(headers : (string * string) list = []) ?(body : string = "") () :
    int * (string * string) list * string =
  let id = fresh_id t in
  send_frame t (hreq ~meth ~target ~headers ~body id);
  hresp_of id (recv_frame t)
