(* Crash-recovery torture harness for the storage substrate.

   Runs a deterministic randomized workload of transactional
   put/delete/abort/vacuum steps over the fault-injecting in-memory VFS
   ({!Pstore.Fault}) and systematically crashes at *every* mutating
   syscall index, reopening through recovery each time and checking the
   core durability invariant:

     committed data exactly present, uncommitted data exactly absent,
     [Store.check] passes.

   A crash that lands inside [Store.commit] is ambiguous by design —
   the transaction either happened or it did not — so at those points
   *two* snapshots are acceptable: the pre-transaction state and the
   post-transaction state.  Everywhere else exactly the last-committed
   snapshot must come back.

   On top of the first-level sweep, every Nth crash point also sweeps a
   second level: crash *during recovery itself*, repeatedly, proving
   recovery is idempotent / re-runnable.  Separate cases cover torn
   journal frames, duplicate before-images, crash during abort, I/O
   errors (ENOSPC/EIO) on write, failed fsync, and a lying (no-op)
   fsync.

   Environment knobs:
     CRASH_TORTURE=long   longer workload (CI sweep)
     CRASH_SEED=<int>     workload seed (default 0xC0FFEE) *)

open Pstore
module F = Fault
module V = Vfs
module P = Pager
module S = Store

let long_mode =
  match Sys.getenv_opt "CRASH_TORTURE" with Some "long" -> true | _ -> false

let seed =
  match Sys.getenv_opt "CRASH_SEED" with
  | Some s -> int_of_string s
  | None -> 0xC0FFEE

(* ------------------------------------------------------------------ *)
(* Workload scripts                                                    *)
(* ------------------------------------------------------------------ *)

type op = Put of int * string | Del of int

type step =
  | Tx of op list * bool (* ops, true = commit, false = deliberate abort *)
  | Vacuum

let rand_data rng =
  let n =
    match Random.State.int rng 10 with
    | 0 -> 5000 + Random.State.int rng 4000 (* forces the blob path *)
    | 1 -> 0
    | _ -> Random.State.int rng 200
  in
  let c0 = Random.State.int rng 26 in
  String.init n (fun i -> Char.chr (97 + ((c0 + i) mod 26)))

let gen_script rng n =
  List.init n (fun _ ->
      match Random.State.int rng 12 with
      | 0 -> Vacuum
      | k ->
          let commit = k <> 1 in
          let nops = 1 + Random.State.int rng 4 in
          let ops =
            List.init nops (fun _ ->
                let oid = 1 + Random.State.int rng 12 in
                if Random.State.int rng 4 = 0 then Del oid
                else Put (oid, rand_data rng))
          in
          Tx (ops, commit))

(* ------------------------------------------------------------------ *)
(* Model + executor                                                    *)
(* ------------------------------------------------------------------ *)

type model = {
  mutable committed : (int, string) Hashtbl.t; (* last successful commit *)
  mutable committing : (int, string) Hashtbl.t option; (* commit in flight *)
}

let apply_ops base ops =
  let h = Hashtbl.copy base in
  List.iter
    (function
      | Put (oid, d) -> Hashtbl.replace h oid d
      | Del oid -> Hashtbl.remove h oid)
    ops;
  h

let run_tx store model ops commit =
  S.begin_tx store;
  ignore (S.fresh_oid store);
  List.iter
    (function
      | Put (oid, d) -> S.put store ~oid d
      | Del oid -> ignore (S.delete store ~oid))
    ops;
  if commit then begin
    let next = apply_ops model.committed ops in
    model.committing <- Some next;
    S.commit store;
    model.committed <- next;
    model.committing <- None
  end
  else S.abort store

(* Run [script]; a small cache forces evictions mid-transaction so the
   steal path (journal-fsync barrier before a dirty page hits disk) is
   exercised, not just the commit path. *)
let run_script ~vfs ~path script =
  let model = { committed = Hashtbl.create 16; committing = None } in
  match
    let store = ref (S.open_ ~cache_pages:16 ~vfs path) in
    List.iter
      (fun step ->
        match step with
        | Tx (ops, commit) -> run_tx !store model ops commit
        | Vacuum -> store := S.vacuum !store)
      script;
    S.close !store
  with
  | () -> `Completed model.committed
  | exception V.Crash ->
      `Crashed
        (model.committed
        :: (match model.committing with Some h -> [ h ] | None -> []))

(* ------------------------------------------------------------------ *)
(* Verification                                                        *)
(* ------------------------------------------------------------------ *)

let dump store =
  let h = Hashtbl.create 16 in
  S.iter store (fun oid data -> Hashtbl.replace h oid data);
  h

let same a b =
  Hashtbl.length a = Hashtbl.length b
  && Hashtbl.fold (fun k v ok -> ok && Hashtbl.find_opt b k = Some v) a true

let verify_open store acceptable ctx =
  ignore (S.check store);
  let actual = dump store in
  if not (List.exists (same actual) acceptable) then
    Alcotest.failf
      "%s: recovered state matches no acceptable snapshot (actual %d objects; \
       acceptable sizes [%s])"
      ctx (Hashtbl.length actual)
      (String.concat ";"
         (List.map (fun h -> string_of_int (Hashtbl.length h)) acceptable))

(* Reopen while repeatedly crashing recovery itself: each attempt lets
   recovery make [j] more syscalls of progress before the next power
   cut.  Recovery must be idempotent, so the eventual clean open still
   lands on an acceptable snapshot. *)
let rec reopen_with_chaos fs vfs path j =
  F.set_crash_at fs (F.syscalls fs + j);
  match S.open_ ~vfs path with
  | store ->
      F.revive fs (* disarm the unfired crash point *);
      store
  | exception V.Crash ->
      F.revive fs;
      reopen_with_chaos fs vfs path (j + 1)

(* ------------------------------------------------------------------ *)
(* The sweep                                                           *)
(* ------------------------------------------------------------------ *)

let crash_sweep ~steps ~chaos_every () =
  let script = gen_script (Random.State.make [| seed |]) steps in
  let path = "torture.db" in
  (* Calibration run: no injection; counts the mutating syscalls the
     full workload performs, which bounds the sweep. *)
  let total =
    let fs = F.create ~seed () in
    match run_script ~vfs:(F.vfs fs) ~path script with
    | `Completed _ -> F.syscalls fs
    | `Crashed _ -> Alcotest.fail "calibration run crashed with no injection"
  in
  Alcotest.(check bool) "workload does real I/O" true (total > 50);
  let torn = ref 0 and short_w = ref 0 and short_r = ref 0 and ext = ref 0 in
  for i = 1 to total do
    let fs = F.create ~seed () in
    let vfs = F.vfs fs in
    F.set_crash_at fs i;
    (match run_script ~vfs ~path script with
    | `Completed _ -> Alcotest.failf "crash point %d never fired" i
    | `Crashed acceptable ->
        F.revive fs;
        let store =
          if chaos_every > 0 && i mod chaos_every = 0 then
            reopen_with_chaos fs vfs path 1
          else S.open_ ~vfs path
        in
        verify_open store acceptable (Printf.sprintf "crash@%d/%d" i total);
        (* the recovered store must be fully usable, not just readable *)
        S.with_tx store (fun () -> S.put store ~oid:999 "post-recovery");
        (match S.get store ~oid:999 with
        | Some "post-recovery" -> ()
        | _ -> Alcotest.failf "crash@%d: post-recovery write lost" i);
        S.close store);
    let c = F.counters fs in
    torn := !torn + c.F.torn_writes;
    short_w := !short_w + c.F.short_writes;
    short_r := !short_r + c.F.short_reads;
    ext := !ext + c.F.extent_writes
  done;
  (* prove the nasty branches actually fired across the sweep *)
  Alcotest.(check bool) "torn writes exercised" true (!torn > 0);
  Alcotest.(check bool) "short writes exercised" true (!short_w > 0);
  Alcotest.(check bool) "short reads exercised" true (!short_r > 0);
  Alcotest.(check bool) "coalesced extent writes exercised" true (!ext > 0)

let test_sweep () =
  if long_mode then crash_sweep ~steps:40 ~chaos_every:5 ()
  else crash_sweep ~steps:12 ~chaos_every:5 ()

(* ------------------------------------------------------------------ *)
(* Journal edge cases (hand-crafted journal files)                     *)
(* ------------------------------------------------------------------ *)

let frame page_no (data : string) =
  assert (String.length data = P.page_size);
  let e = Codec.Enc.create ~size:(16 + P.page_size) () in
  Codec.Enc.u32 e 0x4A524E4C;
  Codec.Enc.i64 e (Int64.of_int page_no);
  Codec.Enc.u32 e (Int32.to_int (Codec.Crc32.digest data) land 0xffffffff);
  Codec.Enc.raw e data;
  Codec.Enc.to_string e

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

(* A fabricated page image filled with [c], valid under verification:
   the header checksum flag is set (any image may land on page 0) and
   the trailer stamped, so the journal unit tests open their raw files
   verified, as production does. *)
let page_of c =
  let b = Bytes.make P.page_size c in
  Bytes.set_uint8 b P.checksum_flag_off P.checksum_flag_on;
  P.stamp_image b;
  Bytes.to_string b

let read_page p no =
  let b = P.read p no in
  Bytes.to_string b

(* A torn tail — here cut inside the CRC field of the second frame —
   must end the trustworthy prefix: the first frame is applied, the
   torn one ignored. *)
let test_torn_frame () =
  let fs = F.create ~seed:3 () in
  F.set_short_transfers fs false;
  let vfs = F.vfs fs in
  write_file vfs "t.db" [ page_of 'H'; page_of 'B' ];
  let f1 = frame 1 (page_of 'A') in
  let torn = String.sub (frame 0 (page_of 'Z')) 0 14 (* cut mid-CRC *) in
  write_file vfs "t.db.journal" [ f1; torn ];
  let p = P.open_file ~vfs "t.db" in
  Alcotest.(check string) "frame applied" (page_of 'A') (read_page p 1);
  Alcotest.(check string) "torn frame ignored" (page_of 'H') (read_page p 0);
  Alcotest.(check bool) "journal removed" false (vfs.V.exists "t.db.journal");
  P.close p

(* A full-length frame whose CRC does not match its payload ends the
   prefix too — and a perfectly valid frame *after* it must not be
   applied (nothing past the first bad frame can be trusted). *)
let test_bad_crc_stops_replay () =
  let fs = F.create ~seed:4 () in
  F.set_short_transfers fs false;
  let vfs = F.vfs fs in
  write_file vfs "t.db" [ page_of 'H'; page_of 'B' ];
  let f1 = frame 1 (page_of 'A') in
  let bad =
    let s = Bytes.of_string (frame 0 (page_of 'Z')) in
    Bytes.set s 100 '!' (* corrupt the payload: CRC now mismatches *);
    Bytes.to_string s
  in
  let after = frame 0 (page_of 'Q') in
  write_file vfs "t.db.journal" [ f1; bad; after ];
  let p = P.open_file ~vfs "t.db" in
  Alcotest.(check string) "valid prefix applied" (page_of 'A') (read_page p 1);
  Alcotest.(check string) "frames after bad CRC ignored" (page_of 'H')
    (read_page p 0);
  P.close p

(* Duplicate before-images of one page: the *first* is the
   pre-transaction state; later ones are intermediate and must lose. *)
let test_duplicate_before_images () =
  let fs = F.create ~seed:5 () in
  F.set_short_transfers fs false;
  let vfs = F.vfs fs in
  write_file vfs "t.db" [ page_of 'H'; page_of 'B' ];
  write_file vfs "t.db.journal"
    [ frame 1 (page_of 'A'); frame 1 (page_of 'X') ];
  let p = P.open_file ~vfs "t.db" in
  Alcotest.(check string) "first before-image wins" (page_of 'A')
    (read_page p 1);
  P.close p

(* Crash during [Store.abort]: sweep the cut over every syscall the
   rollback makes; after each cut, recovery must restore the
   pre-transaction state. *)
let test_crash_during_abort () =
  let rec attempt j =
    let fs = F.create ~seed:11 () in
    let vfs = F.vfs fs in
    let store = S.open_ ~vfs "a.db" in
    S.with_tx store (fun () ->
        S.put store ~oid:1 "one";
        S.put store ~oid:2 "two");
    S.begin_tx store;
    S.put store ~oid:1 (String.make 9000 'x');
    ignore (S.delete store ~oid:2);
    F.set_crash_at fs (F.syscalls fs + j);
    match S.abort store with
    | () ->
        F.revive fs;
        Alcotest.(check (option string)) "abort restored oid1" (Some "one")
          (S.get store ~oid:1);
        Alcotest.(check (option string)) "abort restored oid2" (Some "two")
          (S.get store ~oid:2);
        S.close store;
        j
    | exception V.Crash ->
        F.revive fs;
        let store = S.open_ ~vfs "a.db" in
        ignore (S.check store);
        Alcotest.(check (option string)) "post-crash oid1" (Some "one")
          (S.get store ~oid:1);
        Alcotest.(check (option string)) "post-crash oid2" (Some "two")
          (S.get store ~oid:2);
        S.close store;
        attempt (j + 1)
  in
  let completed_at = attempt 1 in
  Alcotest.(check bool) "abort sweep saw at least one crash" true
    (completed_at > 1)

(* Crash during a coalesced multi-page flush: adjacent dirty pages land
   as ONE extent write, and the fault VFS models the extra freedom a
   large write gives the disk — at a power cut an arbitrary per-sector
   subset of the extent may have reached the platter.  Sweep the cut
   across every syscall of the commit; after recovery every page must
   be entirely old or entirely new, and the outcome must be atomic
   across the whole batch (all old or all new, never a mix). *)
let test_crash_during_coalesced_flush () =
  let npages = 8 in
  let baseline k = Char.chr (Char.code 'A' + k) in
  let updated k = Char.chr (Char.code 'a' + k) in
  let page_is p no c =
    let b = P.read p no in
    let ok = ref true in
    for i = 0 to P.page_capacity - 1 do
      if Bytes.get b i <> c then ok := false
    done;
    !ok
  in
  let ext = ref 0 and crashes = ref 0 in
  let rec attempt i =
    let fs = F.create ~seed:29 () in
    F.set_short_transfers fs false;
    let vfs = F.vfs fs in
    let p = P.open_file ~vfs "c.db" in
    let pages = List.init npages (fun _ -> P.allocate p) in
    List.iteri
      (fun k no -> P.with_write p no (fun b -> Bytes.fill b 0 P.page_size (baseline k)))
      pages;
    P.begin_tx p;
    P.commit p;
    (* durable baseline *)
    P.begin_tx p;
    List.iteri
      (fun k no -> P.with_write p no (fun b -> Bytes.fill b 0 P.page_size (updated k)))
      pages;
    F.set_crash_at fs (F.syscalls fs + i);
    match P.commit p with
    | () ->
        F.revive fs;
        ext := !ext + (F.counters fs).F.extent_writes;
        List.iteri
          (fun k no ->
            Alcotest.(check bool) (Printf.sprintf "page %d new" no) true (page_is p no (updated k)))
          pages;
        P.close p
    | exception V.Crash ->
        F.revive fs;
        incr crashes;
        ext := !ext + (F.counters fs).F.extent_writes;
        let p2 = P.open_file ~vfs "c.db" in
        let indexed = List.mapi (fun k no -> (k, no)) pages in
        let all_old = List.for_all (fun (k, no) -> page_is p2 no (baseline k)) indexed in
        let all_new = List.for_all (fun (k, no) -> page_is p2 no (updated k)) indexed in
        if not (all_old || all_new) then
          Alcotest.failf "crash@%d: recovered state is a mix of old and new pages" i;
        P.close p2;
        attempt (i + 1)
  in
  attempt 1;
  Alcotest.(check bool) "coalesced flush crashed at least once" true (!crashes > 0);
  Alcotest.(check bool) "extent writes exercised under fault injection" true (!ext > 0)

(* Crash in the middle of a commit, then crash repeatedly during the
   recoveries that follow: the final state must still be one of the two
   legal outcomes. *)
let test_crash_during_recovery () =
  let fs = F.create ~seed:13 () in
  let vfs = F.vfs fs in
  let store = S.open_ ~vfs "r.db" in
  S.with_tx store (fun () -> S.put store ~oid:1 "base");
  S.begin_tx store;
  S.put store ~oid:1 (String.make 6000 'n');
  S.put store ~oid:2 "new";
  F.set_crash_at fs (F.syscalls fs + 3) (* lands inside commit *);
  (match S.commit store with
  | () -> Alcotest.fail "crash point never fired inside commit"
  | exception V.Crash -> ());
  F.revive fs;
  let store = reopen_with_chaos fs vfs "r.db" 1 in
  ignore (S.check store);
  let pre = Hashtbl.create 4 and post = Hashtbl.create 4 in
  Hashtbl.replace pre 1 "base";
  Hashtbl.replace post 1 (String.make 6000 'n');
  Hashtbl.replace post 2 "new";
  verify_open store [ pre; post ] "chaos-recovery";
  Alcotest.(check bool) "recovery was crashed at least twice" true
    ((F.counters fs).F.crashes >= 3);
  S.close store

(* ------------------------------------------------------------------ *)
(* I/O-error injections (no crash: typed errors, clean rollback)       *)
(* ------------------------------------------------------------------ *)

let io_error_sweep err =
  let fired = ref 0 in
  let k = ref 1 in
  let continue = ref true in
  while !continue do
    let fs = F.create ~seed:17 () in
    let vfs = F.vfs fs in
    let store = S.open_ ~vfs "e.db" in
    S.with_tx store (fun () ->
        S.put store ~oid:1 "base";
        S.put store ~oid:2 (String.make 5500 'b'));
    let base = dump store in
    F.fail_write fs ~nth:((F.counters fs).F.writes + !k) err;
    (match
       S.with_tx store (fun () ->
           S.put store ~oid:1 (String.make 7000 'z');
           S.put store ~oid:3 "three")
     with
    | () ->
        (* the armed write index lies beyond this transaction: done *)
        if (F.counters fs).F.failed_writes = 0 then continue := false
    | exception P.Io_error { error; _ } ->
        incr fired;
        Alcotest.(check bool) "typed error carries injected errno" true
          (error = err);
        Alcotest.(check bool) "store recovered to base state" true
          (same (dump store) base);
        ignore (S.check store));
    F.revive fs (* disarm an unfired injection before close *);
    S.close store;
    incr k
  done;
  Alcotest.(check bool) "write-error branch fired" true (!fired > 0)

let test_enospc () = io_error_sweep Unix.ENOSPC
let test_eio () = io_error_sweep Unix.EIO

(* Failed fsync during commit: the error is typed; afterwards the store
   holds either the old or the new state (the failure may land after
   the commit point), and is structurally sound either way. *)
let test_failed_fsync () =
  let fired = ref 0 in
  let k = ref 1 in
  let continue = ref true in
  while !continue do
    let fs = F.create ~seed:19 () in
    let vfs = F.vfs fs in
    let store = S.open_ ~vfs "f.db" in
    S.with_tx store (fun () -> S.put store ~oid:1 "base");
    let base = dump store in
    F.fail_fsync fs ~nth:((F.counters fs).F.fsyncs + !k);
    (match
       S.with_tx store (fun () ->
           S.put store ~oid:1 "new";
           S.put store ~oid:2 "two")
     with
    | () -> if (F.counters fs).F.failed_fsyncs = 0 then continue := false
    | exception P.Io_error { op; _ } ->
        incr fired;
        Alcotest.(check string) "fsync failure is typed" "fsync" op;
        ignore (S.check store);
        let post = Hashtbl.create 4 in
        Hashtbl.replace post 1 "new";
        Hashtbl.replace post 2 "two";
        let actual = dump store in
        Alcotest.(check bool) "old or new state, nothing torn" true
          (same actual base || same actual post));
    F.revive fs (* disarm an unfired injection before close *);
    S.close store;
    incr k
  done;
  Alcotest.(check bool) "failed-fsync branch fired" true (!fired > 0)

(* A lying disk: fsync silently does nothing.  Durability is forfeit —
   after a power cut the store may even be corrupt — but corruption
   must surface as a *typed* error from open/check, never as an
   untyped crash of the process. *)
let test_noop_fsync () =
  let fs = F.create ~seed:23 () in
  let vfs = F.vfs fs in
  F.set_fsync_noop fs true;
  let store = S.open_ ~vfs "n.db" in
  for i = 1 to 6 do
    S.with_tx store (fun () -> S.put store ~oid:i (rand_data (Random.State.make [| i |])))
  done;
  F.set_crash_at fs (F.syscalls fs + 1);
  (match
     S.with_tx store (fun () -> S.put store ~oid:7 "boom")
   with
  | () -> Alcotest.fail "crash point never fired"
  | exception V.Crash -> ());
  Alcotest.(check bool) "no-op fsync branch fired" true
    ((F.counters fs).F.noop_fsyncs > 0);
  F.revive fs;
  (match S.open_ ~vfs "n.db" with
  | store ->
      (try ignore (S.check store)
       with S.Store_error _ | P.Io_error _ | Pager.Pager_error _
       | Heap.Heap_error _ | Btree.Btree_error _ | Codec.Corrupt _ -> ());
      S.close store
  | exception
      ( S.Store_error _ | P.Io_error _ | Pager.Pager_error _
      | Heap.Heap_error _ | Btree.Btree_error _ | Codec.Corrupt _ ) ->
      (* detected corruption is an acceptable outcome on a lying disk *)
      ())

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "crash"
    [
      ( "torture",
        [
          Alcotest.test_case "crash sweep over full workload" `Slow test_sweep;
        ] );
      ( "journal",
        [
          Alcotest.test_case "torn frame mid-CRC" `Quick test_torn_frame;
          Alcotest.test_case "bad CRC stops replay" `Quick
            test_bad_crc_stops_replay;
          Alcotest.test_case "duplicate before-images: first wins" `Quick
            test_duplicate_before_images;
          Alcotest.test_case "crash during abort" `Quick test_crash_during_abort;
          Alcotest.test_case "crash during coalesced flush" `Quick
            test_crash_during_coalesced_flush;
          Alcotest.test_case "crash during recovery (idempotent)" `Quick
            test_crash_during_recovery;
        ] );
      ( "errors",
        [
          Alcotest.test_case "ENOSPC on write" `Quick test_enospc;
          Alcotest.test_case "EIO on write" `Quick test_eio;
          Alcotest.test_case "failed fsync" `Quick test_failed_fsync;
          Alcotest.test_case "no-op fsync (lying disk)" `Quick test_noop_fsync;
        ] );
    ]
