(** The replication wire protocol: {!Frame} envelopes with magic
    "PDRL", whose payloads this module encodes.

    Payloads (all little-endian, via {!Pstore.Codec}):

    - [Hello]    (replica → primary): [i64 stream_id | i64 last_lsn] —
      the replica announces which stream it last followed and the LSN
      its file is durably at; the primary answers by resuming the delta
      stream past that LSN, or by sending a full [Snapshot] when it
      cannot (unknown stream, backlog evicted, replica ahead).
    - [Snapshot] (primary → replica): [i64 stream_id | i64 lsn | string
      file bytes] — a consistent image of the whole database file at
      [lsn].
    - [Delta]    (primary → replica): [i64 lsn | u32 npages |
      (i64 page_no | page bytes)*] — one committed transaction's
      after-images (see {!Pstore.Pager.redo_record}).
    - [Ack]      (replica → primary): [i64 lsn] — durably applied.
    - [PageFetch] (replica → primary): [i64 lsn | u32 npages | i64*] —
      the replica found corrupt pages and asks for clean copies
      consistent with its applied [lsn].
    - [PageData] (primary → replica): [i64 lsn | u32 npages |
      (i64 page_no | page bytes)*] — the requested images, or an
      {e empty} page list when the primary cannot serve them at that
      LSN (the refusal that sends the replica to re-bootstrap).

    Anything malformed — bad magic, unknown type, oversized payload,
    CRC mismatch — raises {!Wire_error}, and a mid-frame EOF
    {!Link.Link_down}; the connection is abandoned and the replica's
    reconnect/resume protocol recovers, so a torn frame can never be
    half-applied. *)

open Pstore

exception Wire_error of string

let err fmt = Format.kasprintf (fun s -> raise (Wire_error s)) fmt

(** The payload cap is a snapshot of a ~1 GiB database file; anything
    larger is treated as a corrupt length field. *)
let spec = { Frame.magic = 0x5044524C (* "PDRL" *); max_payload = 1 lsl 30 }

let header_size = Frame.header_size
let max_payload = spec.max_payload

type frame =
  | Hello of { stream_id : int; last_lsn : int }
  | Snapshot of { stream_id : int; lsn : int; data : string }
  | Delta of { lsn : int; pages : (int * string) list }
  | Ack of { lsn : int }
  | PageFetch of { lsn : int; pages : int list }
  | PageData of { lsn : int; pages : (int * string) list }

let type_byte = function
  | Hello _ -> 1
  | Snapshot _ -> 2
  | Delta _ -> 3
  | Ack _ -> 4
  | PageFetch _ -> 5
  | PageData _ -> 6

let encode_payload (f : frame) : string =
  let e = Codec.Enc.create () in
  (match f with
  | Hello { stream_id; last_lsn } ->
      Codec.Enc.int e stream_id;
      Codec.Enc.int e last_lsn
  | Snapshot { stream_id; lsn; data } ->
      Codec.Enc.int e stream_id;
      Codec.Enc.int e lsn;
      Codec.Enc.string e data
  | Delta { lsn; pages } ->
      Codec.Enc.int e lsn;
      Codec.Enc.u32 e (List.length pages);
      List.iter
        (fun (no, data) ->
          if String.length data <> Pager.page_size then
            err "delta page %d has %d bytes (want %d)" no (String.length data)
              Pager.page_size;
          Codec.Enc.int e no;
          Codec.Enc.raw e data)
        pages
  | Ack { lsn } -> Codec.Enc.int e lsn
  | PageFetch { lsn; pages } ->
      Codec.Enc.int e lsn;
      Codec.Enc.u32 e (List.length pages);
      List.iter (fun no -> Codec.Enc.int e no) pages
  | PageData { lsn; pages } ->
      Codec.Enc.int e lsn;
      Codec.Enc.u32 e (List.length pages);
      List.iter
        (fun (no, data) ->
          if String.length data <> Pager.page_size then
            err "page-data page %d has %d bytes (want %d)" no
              (String.length data) Pager.page_size;
          Codec.Enc.int e no;
          Codec.Enc.raw e data)
        pages);
  Codec.Enc.to_string e

let decode_payload ty (payload : string) : frame =
  let d = Codec.Dec.of_string payload in
  try
    let f =
      match ty with
      | 1 ->
          let stream_id = Codec.Dec.int d in
          let last_lsn = Codec.Dec.int d in
          Hello { stream_id; last_lsn }
      | 2 ->
          let stream_id = Codec.Dec.int d in
          let lsn = Codec.Dec.int d in
          let data = Codec.Dec.string d in
          Snapshot { stream_id; lsn; data }
      | 3 ->
          let lsn = Codec.Dec.int d in
          let n = Codec.Dec.u32 d in
          let pages =
            List.init n (fun _ ->
                let no = Codec.Dec.int d in
                Codec.Dec.need d Pager.page_size;
                let data = String.sub payload d.Codec.Dec.pos Pager.page_size in
                d.Codec.Dec.pos <- d.Codec.Dec.pos + Pager.page_size;
                (no, data))
          in
          Delta { lsn; pages }
      | 4 -> Ack { lsn = Codec.Dec.int d }
      | 5 ->
          let lsn = Codec.Dec.int d in
          let n = Codec.Dec.u32 d in
          let pages = List.init n (fun _ -> Codec.Dec.int d) in
          PageFetch { lsn; pages }
      | 6 ->
          let lsn = Codec.Dec.int d in
          let n = Codec.Dec.u32 d in
          let pages =
            List.init n (fun _ ->
                let no = Codec.Dec.int d in
                Codec.Dec.need d Pager.page_size;
                let data = String.sub payload d.Codec.Dec.pos Pager.page_size in
                d.Codec.Dec.pos <- d.Codec.Dec.pos + Pager.page_size;
                (no, data))
          in
          PageData { lsn; pages }
      | ty -> err "unknown frame type %d" ty
    in
    if Codec.Dec.remaining d <> 0 then err "trailing bytes in frame payload";
    f
  with Codec.Corrupt m -> err "corrupt payload: %s" m

(** The complete on-wire encoding of a frame.  A payload over
    {!max_payload} (a snapshot of a > 1 GiB database) raises here, on
    the sender. *)
let encode (f : frame) : string =
  try Frame.encode spec ~ty:(type_byte f) (encode_payload f)
  with Frame.Damaged m -> raise (Wire_error m)

let to_link (l : Link.t) (f : frame) : unit = Frame.write l (encode f)

(** Read one frame off the link.  Mid-frame EOF surfaces as
    {!Link.Link_down} (the transport died); structural damage — the
    bytes arrived but are not a frame — as {!Wire_error}. *)
let from_link (l : Link.t) : frame =
  match Frame.read spec l with
  | ty, payload -> decode_payload ty payload
  | exception Frame.Damaged m -> raise (Wire_error m)
