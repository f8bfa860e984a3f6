(* End-to-end page-integrity torture tests (the bit-rot analogue of
   test_crash's power-cut sweep).

   Layers, bottom up:

   - crc: the slicing-by-4 CRC-32 agrees with a byte-at-a-time
     reference and with the standard check value.
   - recovery: a torn/corrupt journal tail is counted and logged, not
     silently swallowed.
   - checksum-less files: a store whose header flag is 0 opens
     unverified (rot goes unreported) until vacuum upgrades it.
   - rot (the tentpole sweep): a populated store on the fault VFS gets
     one bit flipped in *every* page, one page at a time; each flip
     must be detected as a typed [Page_corrupt] naming that page — 100%
     detection, zero tolerance — and healing the bit must verify clean.
   - quarantine/scrub: quarantined pages read without raising and are
     skipped by scrub; scrub reports the exact corrupt set without
     polluting the page cache.
   - cli: `pdb verify` exits 0 on a clean store and 1 with a per-page
     report on a rotted one.
   - repair: a live primary/replica pair over loopback; bits flipped in
     the replica file at rest are healed from the primary's mirror
     ([scrub_repair] and the `pdb scrub --from` CLI), ending
     byte-identical; header-page damage degrades to a full
     re-bootstrap.

   Environment knobs:
     SCRUB_TORTURE=long  bigger store, denser sweep (CI nightly)
     SCRUB_SEED=<int>    fault-VFS seed (default 0x5C12) *)

open Pstore
module F = Fault
module V = Vfs
module P = Pager
module S = Store
module Feed = Prepl.Feed
module R = Prepl.Replica

let long_mode =
  match Sys.getenv_opt "SCRUB_TORTURE" with Some "long" -> true | _ -> false

let seed =
  match Sys.getenv_opt "SCRUB_SEED" with
  | Some s -> int_of_string s
  | None -> 0x5C12

let cval (c : Pobs.Metrics.counter) = int_of_float (Pobs.Metrics.counter_value c)

(* A fabricated page image filled with [c], valid under verification:
   the header checksum flag is set (any image may land on page 0) and
   the trailer stamped. *)
let page_of c =
  let b = Bytes.make P.page_size c in
  Bytes.set_uint8 b P.checksum_flag_off P.checksum_flag_on;
  P.stamp_image b;
  Bytes.to_string b

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

(* A store with a spread of record sizes: small inline records, records
   near the inline threshold, and multi-page overflow blobs. *)
let populate ~txs (vfs : V.t) path : S.t =
  let s = S.open_ ~vfs path in
  for i = 1 to txs do
    S.with_tx s (fun () ->
        S.put s ~oid:i
          (String.make (200 + (i * 937 mod 5200)) (Char.chr (65 + (i mod 26)))))
  done;
  s

let write_file (vfs : V.t) path (chunks : string list) =
  let fd = vfs.V.open_file ~trunc:true path in
  let off = ref 0 in
  List.iter
    (fun s ->
      let b = Bytes.of_string s in
      let n = fd.V.pwrite ~buf:b ~off:0 ~len:(Bytes.length b) ~at:!off in
      assert (n = Bytes.length b);
      off := !off + n)
    chunks;
  fd.V.fsync ();
  fd.V.close ()

(* A journal frame, as journal_append writes it. *)
let frame page_no (data : string) =
  assert (String.length data = P.page_size);
  let e = Codec.Enc.create ~size:(16 + P.page_size) () in
  Codec.Enc.u32 e 0x4A524E4C;
  Codec.Enc.i64 e (Int64.of_int page_no);
  Codec.Enc.u32 e (Int32.to_int (Codec.Crc32.digest data) land 0xffffffff);
  Codec.Enc.raw e data;
  Codec.Enc.to_string e

(* Overwrite / read back one byte of a file through the VFS. *)
let poke (vfs : V.t) path ~at v =
  let fd = vfs.V.open_file path in
  assert (fd.V.pwrite ~buf:(Bytes.make 1 (Char.chr v)) ~off:0 ~len:1 ~at = 1);
  fd.V.fsync ();
  fd.V.close ()

let peek (vfs : V.t) path ~at =
  let fd = vfs.V.open_file path in
  let b = Bytes.create 1 in
  assert (fd.V.pread ~buf:b ~off:0 ~len:1 ~at = 1);
  fd.V.close ();
  Bytes.get_uint8 b 0

(* XOR one bit of a real on-disk file (the unix-VFS rot injector). *)
let patch_byte path off =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      ignore (Unix.lseek fd off Unix.SEEK_SET);
      let b = Bytes.create 1 in
      if Unix.read fd b 0 1 <> 1 then Alcotest.failf "patch_byte: short read at %d" off;
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x40));
      ignore (Unix.lseek fd off Unix.SEEK_SET);
      if Unix.write fd b 0 1 <> 1 then Alcotest.failf "patch_byte: short write at %d" off)

let read_disk path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let wait ?(timeout = 20.) msg cond =
  let deadline = Unix.gettimeofday () +. timeout in
  while (not (cond ())) && Unix.gettimeofday () < deadline do
    Thread.delay 0.02
  done;
  if not (cond ()) then Alcotest.failf "timeout waiting for %s" msg

(* ------------------------------------------------------------------ *)
(* CRC equivalence: slicing-by-4 against a byte-at-a-time reference    *)
(* ------------------------------------------------------------------ *)

(* The textbook bitwise CRC-32 (reflected, polynomial 0xEDB88320). *)
let reference_crc32 (b : Bytes.t) =
  let c = ref 0xFFFFFFFF in
  Bytes.iter
    (fun ch ->
      c := !c lxor Char.code ch;
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done)
    b;
  Int32.of_int (!c lxor 0xFFFFFFFF)

let test_crc_equivalence () =
  let rng = Random.State.make [| seed; 0xC2C |] in
  for _ = 1 to 300 do
    let len = Random.State.int rng 6000 in
    let b = Bytes.init len (fun _ -> Char.chr (Random.State.int rng 256)) in
    Alcotest.(check int32) "reference CRC = slicing-by-4 CRC" (reference_crc32 b)
      (Codec.Crc32.digest_bytes b)
  done;
  Alcotest.(check int32) "empty input" (reference_crc32 Bytes.empty)
    (Codec.Crc32.digest_bytes Bytes.empty);
  Alcotest.(check int32) "check value CRC-32(\"123456789\")" 0xCBF43926l
    (Codec.Crc32.digest "123456789")

(* ------------------------------------------------------------------ *)
(* Torn journal tail is counted, not swallowed (satellite)             *)
(* ------------------------------------------------------------------ *)

let test_torn_tail_counter () =
  let fs = F.create ~seed:3 () in
  F.set_short_transfers fs false;
  let vfs = F.vfs fs in
  write_file vfs "t.db" [ page_of 'H'; page_of 'B' ];
  write_file vfs "t.db.journal"
    [ frame 1 (page_of 'A'); String.sub (frame 0 (page_of 'Z')) 0 14 ];
  let before = cval P.m_torn_tail in
  let p = P.open_file ~vfs "t.db" in
  P.close p;
  Alcotest.(check int) "torn-tail counter fired once" (before + 1)
    (cval P.m_torn_tail);
  (* a journal of only complete, valid frames must not fire it *)
  write_file vfs "t.db.journal" [ frame 1 (page_of 'A') ];
  let p = P.open_file ~vfs "t.db" in
  P.close p;
  Alcotest.(check int) "clean journal does not fire" (before + 1)
    (cval P.m_torn_tail)

(* ------------------------------------------------------------------ *)
(* Checksum-less files: opened unverified, upgraded by vacuum          *)
(* ------------------------------------------------------------------ *)

(* A file whose header flag is 0 (written before page checksums
   existed) is the only way to get an unverified pager: it must open,
   read and commit without verifying or re-flagging, and [Store.vacuum]
   must turn it into a verified file. *)
let test_checksumless_file () =
  let fs = F.create ~seed:(seed + 3) () in
  let vfs = F.vfs fs in
  let s = populate ~txs:20 vfs "nc.db" in
  let records = List.init 20 (fun i -> S.get s ~oid:(i + 1)) in
  S.close s;
  poke vfs "nc.db" ~at:P.checksum_flag_off 0;
  let rot_page = 3 in
  let off = (rot_page * P.page_size) + 777 and bit = 2 in
  let read_rot () =
    let p = P.open_file ~vfs "nc.db" in
    Fun.protect
      ~finally:(fun () -> P.close p)
      (fun () ->
        match P.read p rot_page with
        | _ -> (P.checksums_enabled p, false)
        | exception P.Page_corrupt { page; _ } ->
            Alcotest.(check int) "the damaged page is blamed" rot_page page;
            (P.checksums_enabled p, true))
  in
  F.flip_bit fs "nc.db" ~off ~bit;
  Alcotest.(check (pair bool bool)) "unverified: flip not reported" (false, false)
    (read_rot ());
  F.flip_bit fs "nc.db" ~off ~bit;
  (* a commit on the checksum-less file keeps it checksum-less *)
  let s = S.open_ ~vfs "nc.db" in
  Alcotest.(check bool) "store opens unverified" false
    (P.checksums_enabled (S.pager s));
  S.with_tx s (fun () -> S.put s ~oid:1 (Option.get (List.hd records)));
  Alcotest.(check int) "scrub scans nothing" 0 (S.scrub s).P.scrub_scanned;
  S.close s;
  Alcotest.(check int) "flag still 0 after a commit" 0
    (peek vfs "nc.db" ~at:P.checksum_flag_off);
  (* vacuum upgrades it *)
  let s = S.vacuum (S.open_ ~vfs "nc.db") in
  Alcotest.(check bool) "vacuumed store verified" true (P.checksums_enabled (S.pager s));
  Alcotest.(check bool) "records survive vacuum" true
    (List.init 20 (fun i -> S.get s ~oid:(i + 1)) = records);
  let pages = P.page_count (S.pager s) in
  S.close s;
  Alcotest.(check bool) "rot page still in the file" true (rot_page < pages);
  Alcotest.(check int) "flag reads 0xA5" P.checksum_flag_on
    (peek vfs "nc.db" ~at:P.checksum_flag_off);
  F.flip_bit fs "nc.db" ~off ~bit;
  Alcotest.(check (pair bool bool)) "verified: same flip raises Page_corrupt" (true, true)
    (read_rot ())

(* ------------------------------------------------------------------ *)
(* The bit-rot sweep (tentpole): every page, 100% detection            *)
(* ------------------------------------------------------------------ *)

let test_bitrot_sweep () =
  let txs = if long_mode then 150 else 30 in
  let fs = F.create ~seed () in
  let vfs = F.vfs fs in
  let s = populate ~txs vfs "rot.db" in
  S.close s;
  let pages =
    match F.file_size fs "rot.db" with
    | Some n -> n / P.page_size
    | None -> Alcotest.fail "store file missing"
  in
  Alcotest.(check bool) "sweep covers a real store" true (pages >= 10);
  let before = cval P.m_page_corrupt in
  let detected = ref 0 in
  for no = 0 to pages - 1 do
    (* one deterministic bit per page, drifting across offsets and bit
       positions so trailer bytes and the header flag get hit too *)
    let off = (no * P.page_size) + (no * 131 mod P.page_size)
    and bit = no mod 8 in
    F.flip_bit fs "rot.db" ~off ~bit;
    (match P.open_file ~vfs "rot.db" with
    | exception P.Page_corrupt { page; _ } ->
        (* header damage surfaces at open, before anything is trusted *)
        if no <> 0 then
          Alcotest.failf "rot in page %d misreported as page %d at open" no page;
        incr detected
    | p ->
        Fun.protect
          ~finally:(fun () -> P.close p)
          (fun () ->
            match P.read p no with
            | _ -> Alcotest.failf "page %d: flipped bit went undetected" no
            | exception P.Page_corrupt { page; expected; got } ->
                Alcotest.(check int) "the damaged page is blamed" no page;
                Alcotest.(check bool) "crc pair differs" true (expected <> got);
                incr detected));
    (* heal the bit: the page must verify clean again *)
    F.flip_bit fs "rot.db" ~off ~bit
  done;
  Alcotest.(check int) "100% detection across the sweep" pages !detected;
  Alcotest.(check bool) "detection counter advanced" true
    (cval P.m_page_corrupt >= before + pages);
  let p = P.open_file ~vfs "rot.db" in
  let r = P.scrub p in
  Alcotest.(check int) "healed store scrubs clean" 0
    (List.length r.P.scrub_corrupt);
  Alcotest.(check int) "every page scanned" pages r.P.scrub_scanned;
  P.close p

(* ------------------------------------------------------------------ *)
(* Quarantine semantics                                                *)
(* ------------------------------------------------------------------ *)

let test_quarantine () =
  let fs = F.create ~seed:(seed + 1) () in
  let vfs = F.vfs fs in
  let s = populate ~txs:12 vfs "q.db" in
  S.close s;
  let target = 2 in
  F.flip_bit fs "q.db" ~off:((target * P.page_size) + 77) ~bit:3;
  let p = P.open_file ~vfs "q.db" in
  Fun.protect
    ~finally:(fun () -> P.close p)
    (fun () ->
      (match P.read p target with
      | _ -> Alcotest.fail "corrupt page read did not raise"
      | exception P.Page_corrupt _ -> ());
      P.quarantine p target;
      (* quarantined: the damaged bytes are readable for repair *)
      ignore (P.read p target);
      Alcotest.(check (list int)) "quarantine listed" [ target ] (P.quarantined p);
      let r = P.scrub p in
      Alcotest.(check bool) "scrub skips the quarantined page" true
        (r.P.scrub_skipped >= 1);
      Alcotest.(check int) "scrub reports nothing else" 0
        (List.length r.P.scrub_corrupt);
      (* the damage is still there underneath *)
      (match P.verify_page p target with
      | _ -> Alcotest.fail "verify_page missed the damage"
      | exception P.Page_corrupt _ -> ());
      P.unquarantine p target;
      Alcotest.(check (list int)) "quarantine lifted" [] (P.quarantined p))

(* ------------------------------------------------------------------ *)
(* Scrub: exact report, no cache pollution                             *)
(* ------------------------------------------------------------------ *)

let test_scrub_report () =
  let fs = F.create ~seed:(seed + 2) () in
  let vfs = F.vfs fs in
  let s = populate ~txs:25 vfs "s.db" in
  (* a live, just-committed store scrubs clean through the Store API *)
  let r = S.scrub s in
  Alcotest.(check int) "live store clean" 0 (List.length r.P.scrub_corrupt);
  Alcotest.(check bool) "live store scanned" true (r.P.scrub_scanned > 0);
  S.close s;
  let pages =
    match F.file_size fs "s.db" with Some n -> n / P.page_size | None -> 0
  in
  let bad = List.sort_uniq compare [ 3; 5; pages - 1 ] in
  List.iter
    (fun no -> F.flip_bit fs "s.db" ~off:((no * P.page_size) + 501) ~bit:6)
    bad;
  let p = P.open_file ~vfs "s.db" in
  Fun.protect
    ~finally:(fun () -> P.close p)
    (fun () ->
      let r = P.scrub p in
      Alcotest.(check (list int)) "exact corrupt set, ascending" bad
        (List.map (fun (no, _, _) -> no) r.P.scrub_corrupt);
      List.iter
        (fun (_, expected, got) ->
          Alcotest.(check bool) "report carries both crcs" true (expected <> got))
        r.P.scrub_corrupt;
      (* scrubbing must not pull scanned pages into the LRU *)
      List.iter
        (fun no ->
          Alcotest.(check bool)
            (Printf.sprintf "page %d not cached by scrub" no)
            false (P.cached p no))
        bad)

(* ------------------------------------------------------------------ *)
(* CLI: pdb verify (satellite)                                         *)
(* ------------------------------------------------------------------ *)

let tmp_base =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "prom_integ_%d" (Unix.getpid ()))

let cleanup () =
  List.iter
    (fun suffix ->
      let p = tmp_base ^ suffix in
      if Sys.file_exists p then Sys.remove p)
    [
      "_v.db"; "_v.db.journal"; "_v.out";
      "_p.db"; "_p.db.journal";
      "_r.db"; "_r.db.journal"; "_r.db.replid"; "_r.db.replid.tmp"; "_r.db.snap";
      "_c.out";
    ]

(* Under `dune runtest` the cwd is _build/default/test; under a bare
   `dune exec` it is the workspace root.  Find the binary either way. *)
let pdb =
  let candidates =
    [
      Filename.concat ".." "bin/pdb.exe";
      Filename.concat "_build/default" "bin/pdb.exe";
      Filename.concat "bin" "pdb.exe";
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> List.hd candidates

let run_cli args ~out =
  Sys.command
    (Printf.sprintf "%s %s > %s 2>&1" pdb
       (String.concat " " (List.map Filename.quote args))
       (Filename.quote out))

let test_cli_verify () =
  cleanup ();
  let path = tmp_base ^ "_v.db" and out = tmp_base ^ "_v.out" in
  let s = S.open_ path in
  for i = 1 to 12 do
    S.with_tx s (fun () -> S.put s ~oid:i (String.make 900 'v'))
  done;
  S.close s;
  Fun.protect ~finally:cleanup (fun () ->
      Alcotest.(check int) "verify exits 0 on a clean store" 0
        (run_cli [ "verify"; path ] ~out);
      patch_byte path ((2 * P.page_size) + 1234);
      Alcotest.(check int) "verify exits 1 on a rotted store" 1
        (run_cli [ "verify"; path ] ~out);
      let text = read_disk out in
      Alcotest.(check bool) "per-page report names the page" true
        (contains text "page      2 CORRUPT");
      (* healing the bit restores a clean verdict *)
      patch_byte path ((2 * P.page_size) + 1234);
      Alcotest.(check int) "verify exits 0 after heal" 0
        (run_cli [ "verify"; path ] ~out))

(* ------------------------------------------------------------------ *)
(* Peer repair end-to-end (tentpole)                                   *)
(* ------------------------------------------------------------------ *)

let test_peer_repair () =
  cleanup ();
  let ppath = tmp_base ^ "_p.db" and rpath = tmp_base ^ "_r.db" in
  let s = S.open_ ppath in
  let feed = Feed.create s in
  for i = 1 to 24 do
    S.with_tx s (fun () -> S.put s ~oid:i (String.make (500 + (i * 97)) 'p'))
  done;
  let srv = Feed.serve feed ~port:0 in
  Fun.protect
    ~finally:(fun () ->
      (try Feed.stop_server srv with _ -> ());
      Feed.detach feed;
      S.close s;
      cleanup ())
    (fun () ->
      (* bootstrap a replica, then stop the session so the file is at
         rest — rot strikes cold files, not live ones *)
      let sess = R.start ~host:"127.0.0.1" ~port:srv.Feed.port rpath in
      (try wait "replica bootstrap" (fun () -> R.Apply.last_lsn sess.R.apply = S.lsn s)
       with e ->
         R.stop sess;
         raise e);
      R.stop sess;
      Alcotest.(check bool) "replica byte-identical before rot" true
        (read_disk ppath = read_disk rpath);
      let npages = String.length (read_disk rpath) / P.page_size in
      Alcotest.(check bool) "replica big enough to rot" true (npages > 5);

      (* 1. at-rest rot in two data pages: healed in place from the peer *)
      patch_byte rpath ((2 * P.page_size) + 1000);
      patch_byte rpath ((4 * P.page_size) + 2000);
      (match R.scrub_repair ~host:"127.0.0.1" ~port:srv.Feed.port rpath with
      | `Repaired pages ->
          Alcotest.(check (list int)) "both pages repaired" [ 2; 4 ] pages
      | `Clean _ -> Alcotest.fail "rot not detected"
      | `Rebootstrapped _ -> Alcotest.fail "repairable rot re-bootstrapped");
      Alcotest.(check bool) "byte-identical after peer repair" true
        (read_disk ppath = read_disk rpath);

      (* 2. the same heal through the CLI verb *)
      patch_byte rpath ((3 * P.page_size) + 123);
      let out = tmp_base ^ "_c.out" in
      let code =
        run_cli
          [ "scrub"; rpath; "--from";
            Printf.sprintf "127.0.0.1:%d" srv.Feed.port ]
          ~out
      in
      Alcotest.(check int) "pdb scrub --from exits 0" 0 code;
      Alcotest.(check bool) "CLI reports the repair" true
        (contains (read_disk out) "repaired 1 corrupt page");
      Alcotest.(check bool) "byte-identical after CLI repair" true
        (read_disk ppath = read_disk rpath);

      (* 3. a clean replica is left alone *)
      (match R.scrub_repair ~host:"127.0.0.1" ~port:srv.Feed.port rpath with
      | `Clean n -> Alcotest.(check int) "every page scanned" npages n
      | _ -> Alcotest.fail "clean file not reported clean");

      (* 4. header-page damage is unrepairable: degrade to re-bootstrap *)
      patch_byte rpath 10;
      (match R.scrub_repair ~host:"127.0.0.1" ~port:srv.Feed.port rpath with
      | `Rebootstrapped lsn ->
          Alcotest.(check int) "snapshot at the primary's lsn" (S.lsn s) lsn
      | `Repaired _ -> Alcotest.fail "header page claimed repaired in place"
      | `Clean _ -> Alcotest.fail "header rot not detected");
      Alcotest.(check bool) "byte-identical after re-bootstrap" true
        (read_disk ppath = read_disk rpath);
      Alcotest.(check bool) "repair metrics exposed" true
        (contains (Pobs.Metrics.expose ()) "pdb_repl_page_repairs_total"))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "integrity"
    [
      ( "crc",
        [ Alcotest.test_case "reference and fast CRC-32 agree" `Quick test_crc_equivalence ] );
      ( "recovery",
        [ Alcotest.test_case "torn journal tail counted" `Quick test_torn_tail_counter ] );
      ( "checksum-less",
        [ Alcotest.test_case "opened unverified, vacuum upgrades" `Quick test_checksumless_file ] );
      ( "rot",
        [
          Alcotest.test_case "bit-rot sweep: every page detected" `Quick
            test_bitrot_sweep;
          Alcotest.test_case "quarantine semantics" `Quick test_quarantine;
          Alcotest.test_case "scrub report and cache hygiene" `Quick
            test_scrub_report;
        ] );
      ( "cli",
        [ Alcotest.test_case "pdb verify exit codes" `Quick test_cli_verify ] );
      ( "repair",
        [
          Alcotest.test_case "peer repair end-to-end" `Quick test_peer_repair;
        ] );
    ]
