(** The one frame envelope shared by the replication link ({!Wire},
    magic "PDRL") and the binary query protocol ([Pserver.Binary_proto],
    magic "PDBQ"):

    {v
      off 0 : u32  magic
      off 4 : u8   frame type
      off 5 : u32  payload length
      off 9 : payload bytes
      then  : u32  CRC-32 of the payload
    v}

    All integers little-endian.  A protocol is a {!spec} — its magic and
    its payload cap — plus a payload codec keyed by the type byte; this
    module owns everything else.  Distinct magics make a client pointed
    at the wrong port fail loudly instead of decoding garbage.  The CRC
    covers the payload only, so a damaged type byte can still yield a
    frame of another type; the payload codec is the last line there.

    Damage — wrong magic, a length over the cap, a CRC mismatch — is
    {!Damaged} on the blocking path and [Bad] from {!parse}: a byte
    stream cannot be resynchronised after corrupt framing, so the
    connection must die either way. *)

open Pstore

type spec = { magic : int; max_payload : int }

exception Damaged of string

let header_size = 9
let trailer_size = 4

let u32_at (s : string) at = Int32.to_int (String.get_int32_le s at) land 0xffffffff
let crc_sub s pos len = Int32.to_int (Codec.Crc32.digest_sub s pos len) land 0xffffffff

(* Validate the header at [off] (caller checked [header_size] bytes are
   there); returns the payload length.  The length is checked before any
   byte of the alleged payload is buffered. *)
let payload_len (spec : spec) (s : string) off : int =
  let m = u32_at s off in
  if m <> spec.magic then raise (Damaged (Printf.sprintf "bad magic 0x%08x" m));
  let len = u32_at s (off + 5) in
  if len > spec.max_payload then
    raise (Damaged (Printf.sprintf "oversized frame (%d-byte payload)" len));
  len

(** The complete on-wire encoding of one frame.  A payload over the cap
    raises {!Damaged} here, on the sender: the receiver would reject the
    length field anyway, and failing at the source is where the bug is
    visible. *)
let encode (spec : spec) ~ty (payload : string) : string =
  let len = String.length payload in
  if len > spec.max_payload then
    raise
      (Damaged
         (Printf.sprintf "frame payload of %d bytes exceeds the %d-byte cap" len
            spec.max_payload));
  let b = Bytes.create (header_size + len + trailer_size) in
  Bytes.set_int32_le b 0 (Int32.of_int spec.magic);
  Bytes.set_uint8 b 4 ty;
  Bytes.set_int32_le b 5 (Int32.of_int len);
  Bytes.blit_string payload 0 b header_size len;
  Bytes.set_int32_le b (header_size + len) (Codec.Crc32.digest payload);
  Bytes.unsafe_to_string b

type parsed =
  | Parsed of { ty : int; payload : string; size : int }
      (** one whole frame; [size] bytes consumed *)
  | Need_more
  | Bad of string

(** Try to extract one frame from the bytes [off, stop) of a stream
    buffer. *)
let parse (spec : spec) (buf : string) ~off ~stop : parsed =
  let avail = stop - off in
  if avail < header_size then Need_more
  else
    match payload_len spec buf off with
    | exception Damaged m -> Bad m
    | len ->
        if avail < header_size + len + trailer_size then Need_more
        else if crc_sub buf (off + header_size) len <> u32_at buf (off + header_size + len)
        then Bad "frame CRC mismatch"
        else
          Parsed
            {
              ty = Char.code buf.[off + 4];
              payload = String.sub buf (off + header_size) len;
              size = header_size + len + trailer_size;
            }

(** Read one frame off a link: its type byte and payload.  Mid-frame EOF
    surfaces as {!Link.Link_down} (the transport died); bytes that
    arrived but are not a frame as {!Damaged}. *)
let read (spec : spec) (l : Link.t) : int * string =
  let hdr = Bytes.create header_size in
  Link.really_recv l hdr ~off:0 ~len:header_size;
  let len = payload_len spec (Bytes.unsafe_to_string hdr) 0 in
  let body = Bytes.create (len + trailer_size) in
  Link.really_recv l body ~off:0 ~len:(len + trailer_size);
  let body = Bytes.unsafe_to_string body in
  if crc_sub body 0 len <> u32_at body len then raise (Damaged "frame CRC mismatch");
  (Bytes.get_uint8 hdr 4, String.sub body 0 len)

(** Send one encoded frame whole. *)
let write (l : Link.t) (frame : string) : unit =
  Link.really_send l (Bytes.unsafe_of_string frame) ~off:0 ~len:(String.length frame)
