(* Binary POOL protocol tests: frame codec round-trips, the
   damage matrix (every single-byte flip of an encoded frame must
   either be rejected or decode to something other than the original —
   never silently pass through), oversized-frame and truncation
   handling, and end-to-end equivalence: the same queries answered over
   the binary port and over HTTP /query must agree, one at a time and
   batched.  The client also runs over in-memory links, where every
   truncation of an answer must surface as Backend_down. *)

open Pmodel
module BP = Pserver.Binary_proto
module L = Prepl.Link

let tmp_counter = ref 0

let tmp_path () =
  incr tmp_counter;
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "prom_binary_%d_%d.db" (Unix.getpid ()) !tmp_counter)

let cleanup path =
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ path; path ^ ".journal" ]

(* --- codec ------------------------------------------------------------- *)

let frame_eq (a : BP.frame) (b : BP.frame) = a = b

let sample_frames : BP.frame list =
  [
    BP.Query { id = 0; q = "select t from Taxon t" };
    BP.Query { id = max_int; q = "" };
    BP.Result { id = 42; v = "[1, 2, 3]" };
    BP.Error { id = 7; msg = "evaluation error: no such class" };
    BP.Batch [];
    BP.Batch [ (1, "select 1"); (2, "select 2"); (3, String.make 1000 'q') ];
  ]

let test_roundtrip () =
  List.iter
    (fun f ->
      let s = BP.encode f in
      match BP.parse s ~off:0 with
      | BP.Frame (f', n) ->
          Alcotest.(check bool) "frame round-trips" true (frame_eq f f');
          Alcotest.(check int) "consumes the whole encoding" (String.length s) n
      | BP.Need_more -> Alcotest.fail "complete frame parsed as incomplete"
      | BP.Bad m -> Alcotest.fail ("complete frame rejected: " ^ m))
    sample_frames

let test_incremental_parse () =
  (* every prefix of a frame is Need_more; appending a second frame
     leaves the first parseable at off 0 and the second at the cut *)
  let f1 = BP.Query { id = 1; q = "select t from Taxon t" } in
  let f2 = BP.Batch [ (2, "a"); (3, "b") ] in
  let s1 = BP.encode f1 and s2 = BP.encode f2 in
  for cut = 0 to String.length s1 - 1 do
    match BP.parse (String.sub s1 0 cut) ~off:0 with
    | BP.Need_more -> ()
    | BP.Frame _ -> Alcotest.fail "truncated frame parsed"
    | BP.Bad m -> Alcotest.fail ("truncated frame rejected instead of Need_more: " ^ m)
  done;
  let both = s1 ^ s2 in
  (match BP.parse both ~off:0 with
  | BP.Frame (f, n) ->
      Alcotest.(check bool) "first of two" true (frame_eq f f1);
      Alcotest.(check int) "first length" (String.length s1) n
  | _ -> Alcotest.fail "first frame of a pair");
  match BP.parse both ~off:(String.length s1) with
  | BP.Frame (f, _) -> Alcotest.(check bool) "second of two" true (frame_eq f f2)
  | _ -> Alcotest.fail "second frame of a pair"

(* Flip every byte of an encoded frame (all 8 bit positions would be
   slow; one flip per byte suffices to cover magic, type, length,
   payload and CRC regions).  No flip may yield the original frame
   back: either the parser rejects, or it decodes to a different frame
   (a type-byte flip can legitimately produce a valid frame of another
   type — the CRC covers the payload, as on the replication link). *)
let test_damage_matrix () =
  let f = BP.Query { id = 12345; q = "select t.rank from Taxon t" } in
  let s = BP.encode f in
  let rejected = ref 0 and mutated = ref 0 in
  for i = 0 to String.length s - 1 do
    let b = Bytes.of_string s in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x41));
    match BP.parse (Bytes.to_string b) ~off:0 with
    | BP.Bad _ -> incr rejected
    | BP.Need_more -> incr rejected (* length field shrank/grew: no silent accept *)
    | BP.Frame (f', _) ->
        if frame_eq f f' then
          Alcotest.fail (Printf.sprintf "flip at byte %d silently accepted" i)
        else incr mutated
  done;
  (* the CRC must catch every payload flip: only header-region flips
     (magic/type/length) may decode to a different valid frame *)
  if !mutated > BP.header_size then
    Alcotest.fail
      (Printf.sprintf "%d flips decoded as valid frames (header is only %d bytes)"
         !mutated BP.header_size);
  Alcotest.(check bool) "damage is overwhelmingly rejected" true (!rejected > 0)

let test_oversized_frame_rejected () =
  (* a header claiming a payload over the cap must be rejected from the
     header alone — before any buffering of the alleged payload *)
  let e = Pstore.Codec.Enc.create () in
  Pstore.Codec.Enc.u32 e BP.magic;
  Pstore.Codec.Enc.u8 e 1;
  Pstore.Codec.Enc.u32 e (BP.max_payload + 1);
  (match BP.parse (Pstore.Codec.Enc.to_string e) ~off:0 with
  | BP.Bad m ->
      if not (String.length m > 0) then Alcotest.fail "oversized rejection names itself"
  | _ -> Alcotest.fail "oversized length accepted");
  (* and the encoder refuses to build one *)
  match BP.encode (BP.Query { id = 1; q = String.make (BP.max_payload + 1) 'x' }) with
  | _ -> Alcotest.fail "encoder accepted an oversized payload"
  | exception BP.Malformed _ -> ()

let test_wrong_magic_rejected () =
  let s = BP.encode (BP.Query { id = 1; q = "select 1" }) in
  let b = Bytes.of_string s in
  Bytes.set b 0 'X';
  match BP.parse (Bytes.to_string b) ~off:0 with
  | BP.Bad m ->
      if not (String.length m >= 9 && String.sub m 0 9 = "bad magic") then
        Alcotest.fail ("wrong rejection: " ^ m)
  | _ -> Alcotest.fail "wrong magic accepted"

(* The binary twin of the replication link's cut sweep: a query whose
   answer arrives cut at any byte raises Backend_down — never decodes,
   never hangs — and the uncut answer decodes. *)
let test_client_cut_everywhere () =
  let answer = BP.encode (BP.Result { id = 0; v = "[1, 2, 3]" }) in
  let ask cut =
    let link, sent = L.of_string ?cut answer in
    let r = Pserver.Client.query (Pserver.Client.of_link link) "select 1" in
    (match BP.parse (Buffer.contents sent) ~off:0 with
    | BP.Frame (BP.Query { id = 0; q = "select 1" }, _) -> ()
    | _ -> Alcotest.fail "query frame not sent whole");
    r
  in
  for cut = 0 to String.length answer - 1 do
    match ask (Some cut) with
    | _ -> Alcotest.failf "cut@%d: truncated answer decoded" cut
    | exception Pserver.Client.Backend_down _ -> ()
  done;
  match ask None with
  | Pserver.Client.Ok v -> Alcotest.(check string) "uncut answer decodes" "[1, 2, 3]" v
  | Pserver.Client.Err e -> Alcotest.fail ("uncut answer is an error: " ^ e)

(* --- end-to-end: binary port vs HTTP ------------------------------------ *)

let with_server f =
  let path = tmp_path () in
  let db = Database.open_ path in
  Taxonomy.Tax_schema.install db;
  (* a few objects so queries have answers *)
  Database.with_tx db (fun () ->
      for i = 1 to 20 do
        ignore
          (Database.create db "Taxon"
             [ ("notes", Value.VString (Printf.sprintf "t%02d" i)); ("rank", Value.VString "species") ])
      done);
  let ports = ref (0, 0) in
  let m = Mutex.create () in
  let c = Condition.create () in
  let stop = ref false in
  let set f' =
    Mutex.lock m;
    ports := f' !ports;
    Condition.broadcast c;
    Mutex.unlock m
  in
  let th =
    Thread.create
      (fun () ->
        try
          Pserver.Http_server.serve db ~port:0 ~binary_port:0 ~stop
            ~ready:(fun p -> set (fun (_, b) -> (p, b)))
            ~binary_ready:(fun b -> set (fun (p, _) -> (p, b)))
            ()
        with e -> Printf.eprintf "server died: %s\n%!" (Printexc.to_string e))
      ()
  in
  Mutex.lock m;
  while fst !ports = 0 || snd !ports = 0 do
    Condition.wait c m
  done;
  let http_port, bin_port = !ports in
  Mutex.unlock m;
  Fun.protect
    ~finally:(fun () ->
      stop := true;
      Thread.join th;
      Database.close db;
      cleanup path)
    (fun () -> f http_port bin_port)

(* minimal HTTP GET for the equivalence check *)
let http_get port target =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req = Printf.sprintf "GET %s HTTP/1.0\r\nHost: x\r\n\r\n" target in
      ignore (Unix.write fd (Bytes.unsafe_of_string req) 0 (String.length req));
      let b = Buffer.create 1024 in
      let chunk = Bytes.create 4096 in
      let rec go () =
        match Unix.read fd chunk 0 4096 with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes b chunk 0 n;
            go ()
        | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> ()
      in
      go ();
      let s = Buffer.contents b in
      let rec find i =
        if i + 4 > String.length s then String.length s
        else if String.sub s i 4 = "\r\n\r\n" then i + 4
        else find (i + 1)
      in
      let body_off = find 0 in
      String.sub s body_off (String.length s - body_off))

let url_encode s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | ('A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '-' | '_' | '.' | '~') as c ->
          Buffer.add_char b c
      | c -> Buffer.add_string b (Printf.sprintf "%%%02X" (Char.code c)))
    s;
  Buffer.contents b

let equiv_queries =
  [
    "select t.notes from Taxon t where t.notes = \"t05\"";
    "select t.rank from Taxon t where t.notes = \"t17\"";
    "select t from Taxon t where t.notes = \"t01\"";
  ]

let test_query_equivalence () =
  with_server (fun http_port bin_port ->
      let cl = Pserver.Client.connect ~port:bin_port () in
      Fun.protect
        ~finally:(fun () -> Pserver.Client.close cl)
        (fun () ->
          List.iter
            (fun q ->
              let http = http_get http_port ("/query?q=" ^ url_encode q) in
              match Pserver.Client.query cl q with
              | Pserver.Client.Ok v ->
                  (* HTTP appends a newline to the printed value *)
                  Alcotest.(check string) ("equivalence: " ^ q) http (v ^ "\n")
              | Pserver.Client.Err e -> Alcotest.fail ("binary error for " ^ q ^ ": " ^ e))
            equiv_queries))

let test_batch_equivalence () =
  with_server (fun http_port bin_port ->
      let cl = Pserver.Client.connect ~port:bin_port () in
      Fun.protect
        ~finally:(fun () -> Pserver.Client.close cl)
        (fun () ->
          let answers = Pserver.Client.batch cl equiv_queries in
          Alcotest.(check int) "one answer per query" (List.length equiv_queries)
            (List.length answers);
          List.iter2
            (fun q a ->
              let http = http_get http_port ("/query?q=" ^ url_encode q) in
              match a with
              | Pserver.Client.Ok v ->
                  Alcotest.(check string) ("batch equivalence: " ^ q) http (v ^ "\n")
              | Pserver.Client.Err e -> Alcotest.fail ("batch error for " ^ q ^ ": " ^ e))
            equiv_queries answers))

let test_error_equivalence () =
  with_server (fun _http_port bin_port ->
      let cl = Pserver.Client.connect ~port:bin_port () in
      Fun.protect
        ~finally:(fun () -> Pserver.Client.close cl)
        (fun () ->
          match Pserver.Client.query cl "select $$garbage" with
          | Pserver.Client.Ok v -> Alcotest.fail ("garbage query succeeded: " ^ v)
          | Pserver.Client.Err e ->
              if not (String.length e >= 12 && String.sub e 0 12 = "syntax error") then
                Alcotest.fail ("unexpected error text: " ^ e)))

(* The client dials by name, not only by numeric address. *)
let test_localhost_resolves () =
  with_server (fun _http_port bin_port ->
      let ask host =
        let cl = Pserver.Client.connect ~host ~port:bin_port () in
        Fun.protect
          ~finally:(fun () -> Pserver.Client.close cl)
          (fun () -> Pserver.Client.query cl (List.hd equiv_queries))
      in
      match (ask "localhost", ask "127.0.0.1") with
      | Pserver.Client.Ok v, Pserver.Client.Ok v' ->
          Alcotest.(check string) "same answer by name and by address" v' v
      | _ -> Alcotest.fail "query failed")

let test_server_rejects_damage () =
  with_server (fun _http_port bin_port ->
      (* a corrupt frame gets an Error answer and a closed connection;
         the server survives and keeps serving *)
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, bin_port));
      let s = BP.encode (BP.Query { id = 9; q = "select 1" }) in
      let b = Bytes.of_string s in
      let mid = BP.header_size + 2 in
      Bytes.set b mid (Char.chr (Char.code (Bytes.get b mid) lxor 0xff));
      ignore (Unix.write fd b 0 (Bytes.length b));
      (* read everything the server sends before closing *)
      let buf = Buffer.create 256 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        match Unix.read fd chunk 0 4096 with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            drain ()
        | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> ()
      in
      drain ();
      Unix.close fd;
      (match BP.parse (Buffer.contents buf) ~off:0 with
      | BP.Frame (BP.Error _, _) -> ()
      | _ -> Alcotest.fail "damage not answered with an Error frame");
      (* the listener is still alive for a clean client *)
      let cl = Pserver.Client.connect ~port:bin_port () in
      Fun.protect
        ~finally:(fun () -> Pserver.Client.close cl)
        (fun () ->
          match Pserver.Client.query cl "select t.notes from Taxon t where t.notes = \"t03\"" with
          | Pserver.Client.Ok _ -> ()
          | Pserver.Client.Err e -> Alcotest.fail ("clean query after damage: " ^ e)))

(* The serving front end's fixed cost per request stays in the minor
   heap: 2,000 binary-protocol queries over a real socket may promote or
   allocate directly in the major heap fewer than 1,024 words each (a
   64 KiB read buffer allocated per readable event would be 8,193 words
   on its own).  Counted over the whole process: loop, workers and this
   client. *)
let test_major_words_per_request () =
  with_server (fun _http_port bin_port ->
      let cl = Pserver.Client.connect ~port:bin_port () in
      Fun.protect
        ~finally:(fun () -> Pserver.Client.close cl)
        (fun () ->
          let q = List.hd equiv_queries in
          let ask () =
            match Pserver.Client.query cl q with
            | Pserver.Client.Ok _ -> ()
            | Pserver.Client.Err e -> Alcotest.fail ("query failed: " ^ e)
          in
          for _ = 1 to 200 do
            ask ()
          done;
          let n = 2000 in
          Gc.minor ();
          let before = (Gc.quick_stat ()).Gc.major_words in
          for _ = 1 to n do
            ask ()
          done;
          Gc.minor ();
          let per = ((Gc.quick_stat ()).Gc.major_words -. before) /. float_of_int n in
          if per >= 1024. then
            Alcotest.failf "%.0f major-heap words per request (limit 1024)" per))

let () =
  Alcotest.run "binary"
    [
      ( "codec",
        [
          Alcotest.test_case "round-trip" `Quick test_roundtrip;
          Alcotest.test_case "incremental parse" `Quick test_incremental_parse;
          Alcotest.test_case "damage matrix" `Quick test_damage_matrix;
          Alcotest.test_case "oversized frame rejected" `Quick test_oversized_frame_rejected;
          Alcotest.test_case "wrong magic rejected" `Quick test_wrong_magic_rejected;
          Alcotest.test_case "client cut at every byte" `Quick test_client_cut_everywhere;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "query equivalence vs HTTP" `Quick test_query_equivalence;
          Alcotest.test_case "batch equivalence vs HTTP" `Quick test_batch_equivalence;
          Alcotest.test_case "error equivalence" `Quick test_error_equivalence;
          Alcotest.test_case "server rejects damage" `Quick test_server_rejects_damage;
          Alcotest.test_case "client connects to localhost" `Quick test_localhost_resolves;
          Alcotest.test_case "major-heap words per request" `Quick test_major_words_per_request;
        ] );
    ]
