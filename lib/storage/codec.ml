(** Binary encoding and decoding of primitive values.

    All multi-byte quantities are little-endian.  Strings are
    length-prefixed with an unsigned 32-bit length.  This module is the
    single place in the storage substrate that defines the on-disk
    representation of scalars; higher layers (object serialisation,
    B-tree nodes, page headers) build on it. *)

exception Corrupt of string

let corrupt fmt = Format.kasprintf (fun s -> raise (Corrupt s)) fmt

(** Encoder: an append-only buffer of bytes. *)
module Enc = struct
  type t = Buffer.t

  let create ?(size = 256) () : t = Buffer.create size
  let to_string (t : t) = Buffer.contents t
  let length (t : t) = Buffer.length t
  let u8 t v = Buffer.add_uint8 t (v land 0xff)
  let u16 t v = Buffer.add_uint16_le t (v land 0xffff)
  let u32 t v = Buffer.add_int32_le t (Int32.of_int v)
  let i64 t v = Buffer.add_int64_le t v
  let int t v = Buffer.add_int64_le t (Int64.of_int v)
  let bool t v = u8 t (if v then 1 else 0)
  let float t v = Buffer.add_int64_le t (Int64.bits_of_float v)

  let string t s =
    u32 t (String.length s);
    Buffer.add_string t s

  let raw t s = Buffer.add_string t s
end

(** In-place little-endian stores, for encoding fixed-layout frames
    directly into a caller-owned buffer.  The pager's group-journal
    buffer is encoded this way: the frame header lands straight in the
    write buffer, with no intermediate [Buffer]/[string]/[Bytes]
    copies on the hot path. *)
module Put = struct
  let u8 b off v = Bytes.set_uint8 b off (v land 0xff)
  let u16 b off v = Bytes.set_uint16_le b off (v land 0xffff)
  let u32 b off v = Bytes.set_int32_le b off (Int32.of_int v)
  let i64 b off v = Bytes.set_int64_le b off v
end

(** Decoder: a cursor over an immutable string. *)
module Dec = struct
  type t = { src : string; mutable pos : int }

  let of_string ?(pos = 0) src = { src; pos }
  let remaining t = String.length t.src - t.pos
  let eof t = remaining t <= 0

  let need t n =
    if remaining t < n then
      corrupt "decoder underrun: need %d bytes, have %d" n (remaining t)

  let u8 t =
    need t 1;
    let v = Char.code t.src.[t.pos] in
    t.pos <- t.pos + 1;
    v

  let u16 t =
    need t 2;
    let v = String.get_uint16_le t.src t.pos in
    t.pos <- t.pos + 2;
    v

  let u32 t =
    need t 4;
    let v = Int32.to_int (String.get_int32_le t.src t.pos) in
    t.pos <- t.pos + 4;
    v land 0xffffffff

  let i64 t =
    need t 8;
    let v = String.get_int64_le t.src t.pos in
    t.pos <- t.pos + 8;
    v

  let int t = Int64.to_int (i64 t)
  let bool t = u8 t <> 0
  let float t = Int64.float_of_bits (i64 t)

  let string t =
    let n = u32 t in
    need t n;
    let s = String.sub t.src t.pos n in
    t.pos <- t.pos + n;
    s
end

(** CRC-32 (IEEE 802.3 polynomial), used to validate journal frames
    and page trailers.

    The digest runs once per 4 KiB journal frame on the transaction
    commit path, so it is computed with native-[int] arithmetic: OCaml
    [Int32] values are boxed, and an [Int32]-based loop allocates on
    every byte (~26 us per frame, more than the rest of the frame encode
    put together).  The slicing-by-4 loop below is an order of magnitude
    faster. *)
module Crc32 = struct
  let poly = 0xEDB88320

  (* Slicing-by-4: tables.(k).(n) is the CRC contribution of byte [n]
     seen [k] positions before the end of a 4-byte word, letting the
     main loop consume 32 bits per iteration. *)
  let tables =
    lazy
      (let t = Array.make_matrix 4 256 0 in
       for n = 0 to 255 do
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 <> 0 then poly lxor (!c lsr 1) else !c lsr 1
         done;
         t.(0).(n) <- !c
       done;
       for k = 1 to 3 do
         for n = 0 to 255 do
           t.(k).(n) <- t.(0).(t.(k - 1).(n) land 0xff) lxor (t.(k - 1).(n) lsr 8)
         done
       done;
       t)

  let digest_sub s pos len =
    let t = Lazy.force tables in
    let t0 = t.(0) and t1 = t.(1) and t2 = t.(2) and t3 = t.(3) in
    let c = ref 0xFFFFFFFF in
    let i = ref pos in
    let stop = pos + len in
    while stop - !i >= 4 do
      (* two unboxed 16-bit reads; [String.get_int32_le] would box *)
      let d = String.get_uint16_le s !i lor (String.get_uint16_le s (!i + 2) lsl 16) in
      let x = !c lxor d in
      c :=
        Array.unsafe_get t3 (x land 0xff)
        lxor Array.unsafe_get t2 ((x lsr 8) land 0xff)
        lxor Array.unsafe_get t1 ((x lsr 16) land 0xff)
        lxor Array.unsafe_get t0 ((x lsr 24) land 0xff);
      i := !i + 4
    done;
    while !i < stop do
      c :=
        Array.unsafe_get t0 ((!c lxor Char.code (String.unsafe_get s !i)) land 0xff)
        lxor (!c lsr 8);
      incr i
    done;
    Int32.of_int (!c lxor 0xFFFFFFFF)

  let digest s = digest_sub s 0 (String.length s)
  let digest_bytes b = digest (Bytes.unsafe_to_string b)
  let digest_bytes_sub b pos len = digest_sub (Bytes.unsafe_to_string b) pos len
end
