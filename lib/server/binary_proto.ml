(** Compact binary wire protocol for POOL queries: {!Prepl.Frame}
    envelopes with magic "PDBQ", whose payloads this module encodes.
    The magic is distinct from the replication magic ("PDRL") so a
    client pointed at the wrong port fails loudly instead of decoding
    garbage.  Payloads are capped at 1 MiB — a query text or printed
    result beyond that is a protocol violation, not a bigger
    allocation.

    Frames:
    - [Query {id; q}] — one POOL query; [id] is an opaque client token
      echoed back in the answer so batched responses can be matched up.
    - [Result {id; v}] — the printed value of a successful query.
    - [Error {id; msg}] — the error text of a failed query.
    - [Batch qs] — several queries in one frame; the server answers
      with one [Result]/[Error] frame per query, in order.  Batching is
      the client-side amortisation lever: one write syscall, one read
      burst, N answers.

    Cluster frames (PR 10) — the router speaks these to backends so a
    whole HTTP request can ride the pipelined binary connection instead
    of a second HTTP socket:
    - [Hreq {id; meth; target; headers}] — an HTTP-shaped request
      (GET/POST + target + selected headers, e.g. [x-pdb-min-lsn] and a
      body smuggled under [x-pdb-body]); answered by [Hresp].
    - [Hresp {id; status; headers; body}] — status + headers (the
      backend's applied LSN rides in [x-pdb-lsn]) + body.
    - [Ping {id}] / [Pong {id; role; lsn; stream_id; repl_port}] — the
      health-check probe; [role] is ["primary"] or ["replica"], [lsn]
      the applied/durable LSN, [stream_id] the replication stream
      identity, [repl_port] the port a [Feed] (primary or cascade)
      listens on, or [-1].
    - [Ctl {id; verb; arg}] — a control verb ("promote", "demote",
      "follow") used during failover; answered with [Result]/[Error]. *)

let spec = { Prepl.Frame.magic = 0x50444251 (* "PDBQ" *); max_payload = 1 lsl 20 }
let magic = spec.magic
let header_size = Prepl.Frame.header_size
let max_payload = spec.max_payload
let max_batch = 4096

let max_headers = 64

type frame =
  | Query of { id : int; q : string }
  | Result of { id : int; v : string }
  | Error of { id : int; msg : string }
  | Batch of (int * string) list
  | Hreq of {
      id : int;
      meth : string;
      target : string;
      headers : (string * string) list;
    }
  | Hresp of {
      id : int;
      status : int;
      headers : (string * string) list;
      body : string;
    }
  | Ping of { id : int }
  | Pong of {
      id : int;
      role : string;
      lsn : int;
      stream_id : int;
      repl_port : int;
    }
  | Ctl of { id : int; verb : string; arg : string }

let tag = function
  | Query _ -> 1
  | Result _ -> 2
  | Error _ -> 3
  | Batch _ -> 4
  | Hreq _ -> 5
  | Hresp _ -> 6
  | Ping _ -> 7
  | Pong _ -> 8
  | Ctl _ -> 9

let encode_payload (f : frame) : string =
  let open Pstore.Codec in
  let e = Enc.create () in
  (match f with
  | Query { id; q } ->
      Enc.int e id;
      Enc.string e q
  | Result { id; v } ->
      Enc.int e id;
      Enc.string e v
  | Error { id; msg } ->
      Enc.int e id;
      Enc.string e msg
  | Batch qs ->
      Enc.u32 e (List.length qs);
      List.iter
        (fun (id, q) ->
          Enc.int e id;
          Enc.string e q)
        qs
  | Hreq { id; meth; target; headers } ->
      Enc.int e id;
      Enc.string e meth;
      Enc.string e target;
      Enc.u32 e (List.length headers);
      List.iter
        (fun (k, v) ->
          Enc.string e k;
          Enc.string e v)
        headers
  | Hresp { id; status; headers; body } ->
      Enc.int e id;
      Enc.u32 e status;
      Enc.u32 e (List.length headers);
      List.iter
        (fun (k, v) ->
          Enc.string e k;
          Enc.string e v)
        headers;
      Enc.string e body
  | Ping { id } -> Enc.int e id
  | Pong { id; role; lsn; stream_id; repl_port } ->
      Enc.int e id;
      Enc.string e role;
      Enc.int e lsn;
      Enc.int e stream_id;
      Enc.int e repl_port
  | Ctl { id; verb; arg } ->
      Enc.int e id;
      Enc.string e verb;
      Enc.string e arg);
  Enc.to_string e

exception Malformed of string

let decode_payload (ty : int) (payload : string) : frame =
  let open Pstore.Codec in
  let d = Dec.of_string payload in
  try
    let f =
      match ty with
      | 1 ->
          let id = Dec.int d in
          Query { id; q = Dec.string d }
      | 2 ->
          let id = Dec.int d in
          Result { id; v = Dec.string d }
      | 3 ->
          let id = Dec.int d in
          Error { id; msg = Dec.string d }
      | 4 ->
          let n = Dec.u32 d in
          if n > max_batch then
            raise (Malformed (Printf.sprintf "batch of %d queries" n));
          Batch
            (List.init n (fun _ ->
                 let id = Dec.int d in
                 (id, Dec.string d)))
      | 5 ->
          let id = Dec.int d in
          let meth = Dec.string d in
          let target = Dec.string d in
          let n = Dec.u32 d in
          if n > max_headers then
            raise (Malformed (Printf.sprintf "%d request headers" n));
          let headers =
            List.init n (fun _ ->
                let k = Dec.string d in
                (k, Dec.string d))
          in
          Hreq { id; meth; target; headers }
      | 6 ->
          let id = Dec.int d in
          let status = Dec.u32 d in
          let n = Dec.u32 d in
          if n > max_headers then
            raise (Malformed (Printf.sprintf "%d response headers" n));
          let headers =
            List.init n (fun _ ->
                let k = Dec.string d in
                (k, Dec.string d))
          in
          Hresp { id; status; headers; body = Dec.string d }
      | 7 -> Ping { id = Dec.int d }
      | 8 ->
          let id = Dec.int d in
          let role = Dec.string d in
          let lsn = Dec.int d in
          let stream_id = Dec.int d in
          Pong { id; role; lsn; stream_id; repl_port = Dec.int d }
      | 9 ->
          let id = Dec.int d in
          let verb = Dec.string d in
          Ctl { id; verb; arg = Dec.string d }
      | ty -> raise (Malformed (Printf.sprintf "unknown frame type %d" ty))
    in
    if Dec.remaining d <> 0 then raise (Malformed "trailing payload bytes");
    f
  with Corrupt m -> raise (Malformed m)

(** The complete on-wire encoding of a frame.  Oversized payloads raise
    [Malformed] on the sender. *)
let encode (f : frame) : string =
  try Prepl.Frame.encode spec ~ty:(tag f) (encode_payload f)
  with Prepl.Frame.Damaged m -> raise (Malformed m)

type parsed = Frame of frame * int | Need_more | Bad of string

(** Decode one envelope-level parse result.  Any envelope violation —
    wrong magic, oversized length, CRC mismatch — or a malformed payload
    is [Bad]: there is no resynchronising a byte stream after corrupt
    framing, the connection must die. *)
let decode : Prepl.Frame.parsed -> parsed = function
  | Prepl.Frame.Parsed { ty; payload; size } -> (
      match decode_payload ty payload with
      | f -> Frame (f, size)
      | exception Malformed m -> Bad m)
  | Prepl.Frame.Need_more -> Need_more
  | Prepl.Frame.Bad m -> Bad m

(** Try to extract one frame starting at [off] in a stream buffer.
    [Frame (f, n)] means [n] bytes were consumed. *)
let parse (buf : string) ~(off : int) : parsed =
  decode (Prepl.Frame.parse spec buf ~off ~stop:(String.length buf))
