(* Tests for the storage substrate: codec, pager/journal, heap, btree, store. *)

open Pstore

let tmp_counter = ref 0

let tmp_path () =
  incr tmp_counter;
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "prometheus_test_%d_%d.db" (Unix.getpid ()) !tmp_counter)

let with_store ?cache_pages f =
  let path = tmp_path () in
  let s = Store.open_ ?cache_pages path in
  Fun.protect
    ~finally:(fun () ->
      (try Store.close s with _ -> ());
      if Sys.file_exists path then Sys.remove path;
      if Sys.file_exists (path ^ ".journal") then Sys.remove (path ^ ".journal"))
    (fun () -> f path s)

(* ------------------------------------------------------------------ *)
(* Codec                                                               *)
(* ------------------------------------------------------------------ *)

let test_codec_roundtrip () =
  let e = Codec.Enc.create () in
  Codec.Enc.u8 e 200;
  Codec.Enc.u16 e 60000;
  Codec.Enc.u32 e 4000000000;
  Codec.Enc.int e (-12345678901234);
  Codec.Enc.bool e true;
  Codec.Enc.float e 3.14159;
  Codec.Enc.string e "hello prometheus";
  Codec.Enc.string e "";
  let d = Codec.Dec.of_string (Codec.Enc.to_string e) in
  Alcotest.(check int) "u8" 200 (Codec.Dec.u8 d);
  Alcotest.(check int) "u16" 60000 (Codec.Dec.u16 d);
  Alcotest.(check int) "u32" 4000000000 (Codec.Dec.u32 d);
  Alcotest.(check int) "int" (-12345678901234) (Codec.Dec.int d);
  Alcotest.(check bool) "bool" true (Codec.Dec.bool d);
  Alcotest.(check (float 1e-12)) "float" 3.14159 (Codec.Dec.float d);
  Alcotest.(check string) "string" "hello prometheus" (Codec.Dec.string d);
  Alcotest.(check string) "empty string" "" (Codec.Dec.string d);
  Alcotest.(check bool) "eof" true (Codec.Dec.eof d)

let test_codec_underrun () =
  let d = Codec.Dec.of_string "ab" in
  Alcotest.check_raises "underrun raises"
    (Codec.Corrupt "decoder underrun: need 8 bytes, have 2") (fun () ->
      ignore (Codec.Dec.i64 d))

let test_crc32 () =
  (* Known vector: CRC32("123456789") = 0xCBF43926 *)
  let c = Codec.Crc32.digest "123456789" in
  Alcotest.(check int32) "crc32 vector" 0xCBF43926l c

(* ------------------------------------------------------------------ *)
(* Pager                                                               *)
(* ------------------------------------------------------------------ *)

let test_pager_basic () =
  let path = tmp_path () in
  let p = Pager.open_file path in
  let no = Pager.allocate p in
  Pager.with_write p no (fun b -> Bytes.blit_string "hello" 0 b 0 5);
  let b = Pager.read p no in
  Alcotest.(check string) "page content" "hello" (Bytes.sub_string b 0 5);
  Pager.close p;
  (* reopen and reread *)
  let p = Pager.open_file path in
  let b = Pager.read p no in
  Alcotest.(check string) "persisted" "hello" (Bytes.sub_string b 0 5);
  Pager.close p;
  Sys.remove path

let test_pager_abort_restores () =
  let path = tmp_path () in
  let p = Pager.open_file path in
  let no = Pager.allocate p in
  Pager.with_write p no (fun b -> Bytes.blit_string "before" 0 b 0 6);
  Pager.begin_tx p;
  Pager.with_write p no (fun b -> Bytes.blit_string "after!" 0 b 0 6);
  Alcotest.(check string) "in-tx view" "after!" (Bytes.sub_string (Pager.read p no) 0 6);
  Pager.abort p;
  Alcotest.(check string) "rolled back" "before" (Bytes.sub_string (Pager.read p no) 0 6);
  Pager.close p;
  Sys.remove path

let test_pager_commit_persists () =
  let path = tmp_path () in
  let p = Pager.open_file path in
  let no = Pager.allocate p in
  Pager.begin_tx p;
  Pager.with_write p no (fun b -> Bytes.blit_string "commit" 0 b 0 6);
  Pager.commit p;
  Pager.close p;
  let p = Pager.open_file path in
  Alcotest.(check string) "committed" "commit" (Bytes.sub_string (Pager.read p no) 0 6);
  Pager.close p;
  Sys.remove path

let test_pager_crash_recovery () =
  (* Simulate a crash: flush dirty pages mid-transaction (journal holds
     before-images), then abandon the pager without commit/abort. *)
  let path = tmp_path () in
  let p = Pager.open_file path in
  let no = Pager.allocate p in
  Pager.with_write p no (fun b -> Bytes.blit_string "stable" 0 b 0 6);
  Pager.begin_tx p;
  Pager.commit p;
  (* now mutate inside a tx and "crash" *)
  Pager.begin_tx p;
  Pager.with_write p no (fun b -> Bytes.blit_string "dirty!" 0 b 0 6);
  Pager.flush_all p;
  (* crash: abandon the pager, leaving the journal in place *)
  Pager.crash p;
  (* recovery happens on reopen *)
  let p2 = Pager.open_file path in
  Alcotest.(check string) "recovered" "stable" (Bytes.sub_string (Pager.read p2 no) 0 6);
  Pager.close p2;
  Sys.remove path

let test_pager_eviction () =
  let path = tmp_path () in
  let p = Pager.open_file ~cache_pages:8 path in
  let pages = List.init 64 (fun _ -> Pager.allocate p) in
  List.iteri
    (fun i no -> Pager.with_write p no (fun b -> Bytes.set_uint16_le b 0 i))
    pages;
  List.iteri
    (fun i no ->
      Alcotest.(check int) (Printf.sprintf "page %d" i) i (Bytes.get_uint16_le (Pager.read p no) 0))
    pages;
  Pager.close p;
  Sys.remove path

let test_coalesce_runs () =
  let check name expected nos =
    Alcotest.(check (list (pair int int))) name expected (Pager.coalesce_runs nos)
  in
  check "empty" [] [];
  check "single" [ (7, 1) ] [ 7 ];
  check "contiguous" [ (3, 4) ] [ 3; 4; 5; 6 ];
  check "two runs" [ (1, 2); (9, 3) ] [ 1; 2; 9; 10; 11 ];
  check "all singletons" [ (1, 1); (3, 1); (5, 1) ] [ 1; 3; 5 ];
  (* runs are capped at max_extent_pages *)
  let n = Pager.max_extent_pages in
  let long = List.init (n + 5) (fun i -> 100 + i) in
  check "capped" [ (100, n); (100 + n, 5) ] long

let test_pager_lru_order_in_tx () =
  (* LRU eviction must pick the least recently *touched* pages, and an
     eviction inside a transaction must steal dirty journaled pages
     correctly (journal synced first), leaving abort able to roll the
     whole transaction back. *)
  let path = tmp_path () in
  (* 8 data pages + the pinned header page: commits stamp the LSN on
     page 0, so it is always part of the working set. *)
  let p = Pager.open_file ~cache_pages:9 path in
  ignore (Pager.read p 0);
  let pages = List.init 8 (fun _ -> Pager.allocate p) in
  List.iteri
    (fun i no -> Pager.with_write p no (fun b -> Bytes.set_uint16_le b 0 (100 + i)))
    pages;
  Pager.begin_tx p;
  Pager.commit p;
  (* durable baseline *)
  Pager.begin_tx p;
  List.iteri
    (fun i no -> Pager.with_write p no (fun b -> Bytes.set_uint16_le b 0 (200 + i)))
    pages;
  (* refresh pages 3 and 4: pages 1 and 2 become the two oldest *)
  ignore (Pager.read p (List.nth pages 2));
  ignore (Pager.read p (List.nth pages 3));
  (* allocating a 9th data page overflows the cache: evict 10/4 = 2 *)
  let extra = Pager.allocate p in
  Alcotest.(check bool) "page 1 evicted" false (Pager.cached p 1);
  Alcotest.(check bool) "page 2 evicted" false (Pager.cached p 2);
  List.iter
    (fun no -> Alcotest.(check bool) (Printf.sprintf "page %d cached" no) true (Pager.cached p no))
    [ 3; 4; 5; 6; 7; 8; extra ];
  let st = Pager.stats p in
  Alcotest.(check int) "eviction count" 2 st.Pager.s_evictions;
  (* the evicted pages were dirty and journaled: reading them back must
     show the in-tx value (stolen to disk), and abort must undo it *)
  Alcotest.(check int) "stolen page readable" 200 (Bytes.get_uint16_le (Pager.read p 1) 0);
  Pager.abort p;
  List.iteri
    (fun i no ->
      Alcotest.(check int)
        (Printf.sprintf "page %d rolled back" no)
        (100 + i)
        (Bytes.get_uint16_le (Pager.read p no) 0))
    pages;
  Pager.close p;
  Sys.remove path

let test_journal_buffer_boundary () =
  (* Exercise the group-journal buffer at its flush boundary: a
     transaction journaling exactly [journal_buffer_frames] pages fills
     the buffer without flushing; one more forces a mid-transaction
     flush.  Both must roll back cleanly, through abort and through
     crash recovery. *)
  let nframes = Pager.journal_buffer_frames in
  let npages = nframes + 1 in
  let path = tmp_path () in
  let p = Pager.open_file ~cache_pages:(4 * npages) path in
  let pages = List.init npages (fun _ -> Pager.allocate p) in
  List.iteri (fun i no -> Pager.with_write p no (fun b -> Bytes.set_uint16_le b 0 i)) pages;
  Pager.begin_tx p;
  Pager.commit p;
  (* case 1: exactly at the buffer edge, frames never flushed — abort
     must still restore (the pages never reached disk either) *)
  Pager.begin_tx p;
  List.iteri
    (fun i no ->
      if i < nframes then Pager.with_write p no (fun b -> Bytes.set_uint16_le b 0 (1000 + i)))
    pages;
  Pager.abort p;
  List.iteri
    (fun i no ->
      Alcotest.(check int) (Printf.sprintf "abort page %d" no) i
        (Bytes.get_uint16_le (Pager.read p no) 0))
    pages;
  (* case 2: one frame past the edge (forces a mid-tx buffer flush),
     then flush dirty pages and crash — recovery must restore all *)
  Pager.begin_tx p;
  List.iteri
    (fun i no -> Pager.with_write p no (fun b -> Bytes.set_uint16_le b 0 (2000 + i)))
    pages;
  Pager.flush_all p;
  let st = Pager.stats p in
  Alcotest.(check int) "journal bytes (whole frames)" 0
    (st.Pager.s_journal_bytes mod Pager.journal_frame_size);
  Alcotest.(check bool) "all frames flushed" true
    (st.Pager.s_journal_bytes >= npages * Pager.journal_frame_size);
  Pager.crash p;
  let p2 = Pager.open_file path in
  List.iteri
    (fun i no ->
      Alcotest.(check int) (Printf.sprintf "recovered page %d" no) i
        (Bytes.get_uint16_le (Pager.read p2 no) 0))
    pages;
  Pager.close p2;
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Heap                                                                *)
(* ------------------------------------------------------------------ *)

let make_heap path =
  let pager = Pager.open_file path in
  (* reserve page 0 as pseudo-header *)
  if Pager.page_count pager <= 1 then ignore (Pager.allocate pager);
  let pa = { Heap.alloc_page = (fun () -> Pager.allocate pager); free_page = (fun _ -> ()) } in
  (pager, Heap.create pager pa)

let test_heap_insert_get () =
  let path = tmp_path () in
  let pager, h = make_heap path in
  let r1 = Heap.insert h "alpha" in
  let r2 = Heap.insert h "beta" in
  Alcotest.(check string) "r1" "alpha" (Heap.get h r1);
  Alcotest.(check string) "r2" "beta" (Heap.get h r2);
  Pager.close pager;
  Sys.remove path

let test_heap_update_shrink_grow () =
  let path = tmp_path () in
  let pager, h = make_heap path in
  let r = Heap.insert h (String.make 100 'x') in
  let r2 = Heap.update h r "small" in
  Alcotest.(check bool) "in place" true (Heap.rid_equal r r2);
  Alcotest.(check string) "shrunk" "small" (Heap.get h r2);
  let r3 = Heap.update h r2 (String.make 200 'y') in
  Alcotest.(check string) "grown" (String.make 200 'y') (Heap.get h r3);
  Pager.close pager;
  Sys.remove path

let test_heap_delete_reuse () =
  let path = tmp_path () in
  let pager, h = make_heap path in
  let rs = List.init 50 (fun i -> Heap.insert h (Printf.sprintf "record-%04d" i)) in
  List.iteri (fun i r -> if i mod 2 = 0 then Heap.delete h r) rs;
  List.iteri
    (fun i r ->
      if i mod 2 = 1 then
        Alcotest.(check string) "survivor" (Printf.sprintf "record-%04d" i) (Heap.get h r))
    rs;
  (* deleted slots must raise *)
  (match rs with
  | r0 :: _ -> (
      match Heap.get h r0 with
      | exception Heap.Heap_error _ -> ()
      | _ -> Alcotest.fail "expected dead slot error")
  | [] -> ());
  Pager.close pager;
  Sys.remove path

let test_heap_blob () =
  let path = tmp_path () in
  let pager, h = make_heap path in
  let big = String.init 20_000 (fun i -> Char.chr (i mod 256)) in
  let r = Heap.insert h big in
  Alcotest.(check int) "blob len" 20_000 (String.length (Heap.get h r));
  Alcotest.(check string) "blob content" big (Heap.get h r);
  let bigger = String.init 50_000 (fun i -> Char.chr ((i * 7) mod 256)) in
  let r2 = Heap.update h r bigger in
  Alcotest.(check string) "blob update" bigger (Heap.get h r2);
  Heap.delete h r2;
  Pager.close pager;
  Sys.remove path

let test_heap_fragmentation_compaction () =
  let path = tmp_path () in
  let pager, h = make_heap path in
  (* Fill a page with records, delete alternate ones, then insert a
     record that only fits after compaction. *)
  let rs = List.init 8 (fun _ -> Heap.insert h (String.make 400 'a')) in
  List.iteri (fun i r -> if i mod 2 = 0 then Heap.delete h r) rs;
  let r = Heap.insert h (String.make 700 'b') in
  Alcotest.(check string) "compacted insert" (String.make 700 'b') (Heap.get h r);
  Pager.close pager;
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Btree                                                               *)
(* ------------------------------------------------------------------ *)

let make_btree path =
  let pager = Pager.open_file path in
  if Pager.page_count pager <= 1 then ignore (Pager.allocate pager);
  let root = ref 0 in
  let bt =
    Btree.create pager ~root:0 ~set_root:(fun r -> root := r)
      ~alloc_page:(fun () -> Pager.allocate pager)
  in
  (pager, bt)

let test_btree_basic () =
  let path = tmp_path () in
  let pager, bt = make_btree path in
  Btree.insert bt 42L { Heap.page = 7; slot = 3 };
  (match Btree.find bt 42L with
  | Some r ->
      Alcotest.(check int) "page" 7 r.Heap.page;
      Alcotest.(check int) "slot" 3 r.Heap.slot
  | None -> Alcotest.fail "not found");
  Alcotest.(check bool) "missing" false (Btree.mem bt 43L);
  Pager.close pager;
  Sys.remove path

let test_btree_many_sequential () =
  let path = tmp_path () in
  let pager, bt = make_btree path in
  let n = 5000 in
  for i = 1 to n do
    Btree.insert bt (Int64.of_int i) { Heap.page = i; slot = i mod 100 }
  done;
  Alcotest.(check int) "check count" n (Btree.check bt);
  for i = 1 to n do
    match Btree.find bt (Int64.of_int i) with
    | Some r -> if r.Heap.page <> i then Alcotest.failf "wrong value for %d" i
    | None -> Alcotest.failf "missing key %d" i
  done;
  (* iteration is in key order *)
  let prev = ref Int64.min_int in
  Btree.iter bt (fun k _ ->
      if Int64.compare k !prev <= 0 then Alcotest.fail "iter not sorted";
      prev := k);
  Pager.close pager;
  Sys.remove path

let test_btree_random_delete () =
  let path = tmp_path () in
  let pager, bt = make_btree path in
  let n = 3000 in
  let keys = Array.init n (fun i -> Int64.of_int ((i * 2654435761) land 0xFFFFFF)) in
  Array.iter (fun k -> Btree.insert bt k { Heap.page = 1; slot = 0 }) keys;
  let module S = Set.Make (Int64) in
  let live = ref (Array.fold_left (fun s k -> S.add k s) S.empty keys) in
  Array.iteri
    (fun i k ->
      if i mod 3 = 0 then begin
        ignore (Btree.delete bt k);
        live := S.remove k !live
      end)
    keys;
  Alcotest.(check int) "cardinal after delete" (S.cardinal !live) (Btree.cardinal bt);
  S.iter (fun k -> if not (Btree.mem bt k) then Alcotest.fail "live key missing") !live;
  ignore (Btree.check bt);
  Pager.close pager;
  Sys.remove path

let test_btree_overwrite () =
  let path = tmp_path () in
  let pager, bt = make_btree path in
  Btree.insert bt 1L { Heap.page = 1; slot = 1 };
  Btree.insert bt 1L { Heap.page = 2; slot = 2 };
  (match Btree.find bt 1L with
  | Some r -> Alcotest.(check int) "overwritten" 2 r.Heap.page
  | None -> Alcotest.fail "missing");
  Alcotest.(check int) "no duplicate" 1 (Btree.cardinal bt);
  Pager.close pager;
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Store                                                               *)
(* ------------------------------------------------------------------ *)

let test_store_put_get () =
  with_store (fun _ s ->
      let o1 = Store.fresh_oid s in
      let o2 = Store.fresh_oid s in
      Store.put s ~oid:o1 "object one";
      Store.put s ~oid:o2 "object two";
      Alcotest.(check (option string)) "o1" (Some "object one") (Store.get s ~oid:o1);
      Alcotest.(check (option string)) "o2" (Some "object two") (Store.get s ~oid:o2);
      Alcotest.(check (option string)) "missing" None (Store.get s ~oid:9999);
      Store.put s ~oid:o1 "object one v2";
      Alcotest.(check (option string)) "updated" (Some "object one v2") (Store.get s ~oid:o1);
      Alcotest.(check bool) "delete" true (Store.delete s ~oid:o1);
      Alcotest.(check (option string)) "deleted" None (Store.get s ~oid:o1);
      Alcotest.(check bool) "delete missing" false (Store.delete s ~oid:o1))

let test_store_persistence () =
  let path = tmp_path () in
  let s = Store.open_ path in
  let oids = List.init 100 (fun _ -> Store.fresh_oid s) in
  List.iteri (fun i oid -> Store.put s ~oid (Printf.sprintf "payload %d" i)) oids;
  Store.close s;
  let s = Store.open_ path in
  List.iteri
    (fun i oid ->
      Alcotest.(check (option string))
        (Printf.sprintf "oid %d" oid)
        (Some (Printf.sprintf "payload %d" i))
        (Store.get s ~oid))
    oids;
  (* fresh oids don't collide after reopen *)
  let o = Store.fresh_oid s in
  if List.mem o oids then Alcotest.fail "oid collision after reopen";
  Store.close s;
  Sys.remove path

let test_store_tx_commit_abort () =
  with_store (fun _ s ->
      let o = Store.fresh_oid s in
      Store.with_tx s (fun () -> Store.put s ~oid:o "committed");
      Alcotest.(check (option string)) "committed" (Some "committed") (Store.get s ~oid:o);
      Store.begin_tx s;
      Store.put s ~oid:o "uncommitted";
      let o2 = Store.fresh_oid s in
      Store.put s ~oid:o2 "new in tx";
      Store.abort s;
      Alcotest.(check (option string)) "rolled back" (Some "committed") (Store.get s ~oid:o);
      Alcotest.(check (option string)) "new object gone" None (Store.get s ~oid:o2);
      ignore (Store.check s))

let test_store_tx_exception_aborts () =
  with_store (fun _ s ->
      let o = Store.fresh_oid s in
      Store.put s ~oid:o "v0";
      (try Store.with_tx s (fun () ->
               Store.put s ~oid:o "v1";
               failwith "boom")
       with Failure _ -> ());
      Alcotest.(check (option string)) "aborted on exception" (Some "v0") (Store.get s ~oid:o))

let test_store_nested_tx () =
  with_store (fun _ s ->
      let o = Store.fresh_oid s in
      Store.with_tx s (fun () ->
          Store.put s ~oid:o "outer";
          Store.with_tx s (fun () -> Store.put s ~oid:o "inner"));
      Alcotest.(check (option string)) "nested commit" (Some "inner") (Store.get s ~oid:o))

let test_store_iter_count () =
  with_store (fun _ s ->
      let oids = List.init 25 (fun _ -> Store.fresh_oid s) in
      List.iter (fun oid -> Store.put s ~oid (string_of_int oid)) oids;
      Alcotest.(check int) "count" 25 (Store.count s);
      let seen = ref [] in
      Store.iter s (fun oid data ->
          Alcotest.(check string) "iter payload" (string_of_int oid) data;
          seen := oid :: !seen);
      Alcotest.(check int) "iter count" 25 (List.length !seen))

let test_store_large_objects () =
  with_store (fun _ s ->
      let o = Store.fresh_oid s in
      let big = String.init 100_000 (fun i -> Char.chr (i mod 251)) in
      Store.put s ~oid:o big;
      Alcotest.(check (option string)) "big object" (Some big) (Store.get s ~oid:o);
      (* shrink it back to a small one: blob pages go to the free list *)
      Store.put s ~oid:o "tiny";
      Alcotest.(check (option string)) "shrunk" (Some "tiny") (Store.get s ~oid:o);
      let before = (Store.stats s).Store.pages in
      let o2 = Store.fresh_oid s in
      Store.put s ~oid:o2 (String.make 50_000 'z');
      let after = (Store.stats s).Store.pages in
      (* free blob pages must have been recycled: little or no growth *)
      if after - before > 14 then
        Alcotest.failf "free pages not recycled: grew by %d pages" (after - before))

let test_store_many_objects_eviction () =
  with_store ~cache_pages:32 (fun _ s ->
      let n = 2000 in
      let oids = Array.init n (fun _ -> Store.fresh_oid s) in
      Array.iteri (fun i oid -> Store.put s ~oid (Printf.sprintf "obj%06d" i)) oids;
      Array.iteri
        (fun i oid ->
          match Store.get s ~oid with
          | Some v -> if v <> Printf.sprintf "obj%06d" i then Alcotest.fail "bad value"
          | None -> Alcotest.fail "missing under eviction")
        oids;
      ignore (Store.check s))

(* qcheck: random workload equivalence against a Hashtbl model *)
let test_store_model_equivalence =
  QCheck.Test.make ~name:"store behaves like a map (random ops)" ~count:30
    QCheck.(list (pair (int_bound 50) (string_of_size Gen.(int_bound 2000))))
    (fun ops ->
      let path = tmp_path () in
      let s = Store.open_ path in
      let model : (int, string) Hashtbl.t = Hashtbl.create 16 in
      let oid_of i = i + 1 in
      List.iter
        (fun (i, data) ->
          let oid = oid_of i in
          if String.length data mod 7 = 0 && Hashtbl.mem model oid then begin
            ignore (Store.delete s ~oid);
            Hashtbl.remove model oid
          end
          else begin
            Store.put s ~oid data;
            Hashtbl.replace model oid data
          end)
        ops;
      let ok = ref true in
      Hashtbl.iter
        (fun oid data -> if Store.get s ~oid <> Some data then ok := false)
        model;
      if Store.count s <> Hashtbl.length model then ok := false;
      Store.close s;
      Sys.remove path;
      if Sys.file_exists (path ^ ".journal") then Sys.remove (path ^ ".journal");
      !ok)

let test_store_vacuum () =
  let path = tmp_path () in
  let s = Store.open_ path in
  (* create churn: lots of inserts and deletes leave dead pages behind *)
  let keep = ref [] in
  for i = 1 to 400 do
    let oid = Store.fresh_oid s in
    Store.put s ~oid (String.make (100 + (i mod 50)) 'x');
    if i mod 4 = 0 then keep := (oid, String.make (100 + (i mod 50)) 'x') :: !keep
    else ignore (Store.delete s ~oid)
  done;
  let before = (Store.stats s).Store.pages in
  let s = Store.vacuum s in
  let after = (Store.stats s).Store.pages in
  if after > before then Alcotest.failf "vacuum grew the file: %d -> %d pages" before after;
  List.iter
    (fun (oid, data) ->
      Alcotest.(check (option string)) "record survives vacuum" (Some data) (Store.get s ~oid))
    !keep;
  Alcotest.(check int) "count preserved" (List.length !keep) (Store.count s);
  (* fresh oids still unique after vacuum *)
  let o = Store.fresh_oid s in
  if List.mem_assoc o !keep then Alcotest.fail "oid reuse after vacuum";
  ignore (Store.check s);
  Store.close s;
  Sys.remove path

let test_journal_partial_frame_ignored () =
  (* a torn write leaves a partial frame at the journal tail: recovery
     must apply the complete frames and ignore the tail *)
  let path = tmp_path () in
  let p = Pager.open_file path in
  let no = Pager.allocate p in
  Pager.with_write p no (fun b -> Bytes.blit_string "base" 0 b 0 4);
  Pager.begin_tx p;
  Pager.with_write p no (fun b -> Bytes.blit_string "temp" 0 b 0 4);
  Pager.flush_all p;
  (* crash, then corrupt the journal by appending a partial frame *)
  Pager.crash p;
  let jc = open_out_gen [ Open_append; Open_binary ] 0o644 (path ^ ".journal") in
  output_string jc "JRNL-partial-garbage";
  close_out jc;
  let p2 = Pager.open_file path in
  Alcotest.(check string) "recovered despite torn tail" "base"
    (Bytes.sub_string (Pager.read p2 no) 0 4);
  Pager.close p2;
  Sys.remove path

let test_journal_garbage_rejected () =
  (* a journal of pure garbage must not corrupt recovery *)
  let path = tmp_path () in
  let p = Pager.open_file path in
  let no = Pager.allocate p in
  Pager.with_write p no (fun b -> Bytes.blit_string "keep" 0 b 0 4);
  Pager.close p;
  let jc = open_out_bin (path ^ ".journal") in
  output_string jc (String.make 10000 'Z');
  close_out jc;
  let p2 = Pager.open_file path in
  Alcotest.(check string) "data intact" "keep" (Bytes.sub_string (Pager.read p2 no) 0 4);
  Alcotest.(check bool) "journal removed" false (Sys.file_exists (path ^ ".journal"));
  Pager.close p2;
  Sys.remove path

(* qcheck: the pager's cache counters against a model LRU.  The model
   keeps the cached pages other than pinned page 0 oldest first; a touch
   moves a page to the newest end, and when the cache (page 0 included)
   exceeds its capacity the oldest quarter (at least one page) goes. *)
let test_pager_lru_model =
  QCheck.Test.make ~name:"pager hits/misses/evictions = model LRU" ~count:200
    QCheck.(
      pair (int_range 4 16)
        (list_of_size Gen.(int_range 1 300) (pair (int_bound 2) (int_bound 1000))))
    (fun (cap, ops) ->
      let path = tmp_path () in
      let p = Pager.open_file ~cache_pages:cap path in
      let order = ref [] (* oldest first, page 0 excluded *) in
      let cached0 = ref false in
      let hits = ref 0 and misses = ref 0 and evictions = ref 0 in
      let size () = List.length !order + if !cached0 then 1 else 0 in
      let add no =
        if no = 0 then cached0 := true else order := List.filter (( <> ) no) !order @ [ no ]
      in
      let evict () =
        let n = size () in
        if n > cap then begin
          let k = max 1 (n / 4) in
          let victims = List.filteri (fun i _ -> i < k) !order in
          evictions := !evictions + List.length victims;
          order := List.filter (fun no -> not (List.mem no victims)) !order
        end
      in
      let touch no =
        if (no = 0 && !cached0) || List.mem no !order then begin
          incr hits;
          add no
        end
        else begin
          incr misses;
          add no;
          evict ()
        end
      in
      let ok = ref true in
      List.iter
        (fun (kind, k) ->
          let no = k mod Pager.page_count p in
          (match kind with
          | 0 ->
              ignore (Pager.read p no);
              touch no
          | 1 ->
              Pager.with_write p no (fun b -> Bytes.set_uint16_le b 0 k);
              touch no
          | _ ->
              let fresh = Pager.allocate p in
              add fresh;
              evict ());
          let st = Pager.stats p in
          if
            st.Pager.s_hits <> !hits || st.Pager.s_misses <> !misses
            || st.Pager.s_evictions <> !evictions
          then ok := false;
          for no = 0 to Pager.page_count p - 1 do
            let model = if no = 0 then !cached0 else List.mem no !order in
            if Pager.cached p no <> model then ok := false
          done)
        ops;
      Pager.close p;
      Sys.remove path;
      !ok)

(* qcheck: first-fit free-space reuse.  Random inserts, updates and
   deletes, blobs included; a model heap does the same slot accounting
   (free = capacity - header - slots - live bytes) and picks pages first
   fit by page number.  Checked after every step: each insert lands on
   the lowest heap page whose [page_total_free] has room (a brute-force
   scan of the file), and on the model's page and slot; an update that
   moves its record lands where the model puts it; every heap page's
   [page_total_free] equals the model's; every live record reads back;
   [Store.check] passes; the store never holds more heap pages than the
   model. *)
let test_store_first_fit =
  let size_gen =
    QCheck.Gen.(
      frequency
        [ (6, int_bound 300); (2, int_range 301 Heap.inline_threshold); (1, int_range 3501 12000) ])
  in
  QCheck.Test.make ~name:"heap reuses free space first fit (random ops)" ~count:100
    QCheck.(make Gen.(list_size (int_range 1 80) (triple (int_bound 9) nat size_gen)))
    (fun ops ->
      with_store (fun _ s ->
          let pager = s.Store.pager in
          (* page -> each slot's stored length, -1 when dead *)
          let model : (int, int array) Hashtbl.t = Hashtbl.create 16 in
          let live : (int, string) Hashtbl.t = Hashtbl.create 16 in
          let where : (int, int * int) Hashtbl.t = Hashtbl.create 16 in
          let stored len = if len > Heap.inline_threshold then Heap.blob_ptr_len else len in
          let m_free slots =
            Array.fold_left (fun a l -> if l >= 0 then a - l else a)
              (Pager.page_capacity - Heap.header_size - (Heap.slot_size * Array.length slots))
              slots
          in
          let m_pages () = Hashtbl.fold (fun no _ acc -> no :: acc) model [] |> List.sort compare in
          let m_delete (page, slot) =
            let slots = Hashtbl.find model page in
            slots.(slot) <- -1;
            Hashtbl.replace model page (if Array.for_all (( > ) 0) slots then [||] else slots)
          in
          (* the page the model inserts [need] bytes into: [Some no], or
             [None] for a fresh page *)
          let m_choose need =
            List.find_opt
              (fun no -> m_free (Hashtbl.find model no) >= need + Heap.slot_size)
              (m_pages ())
          in
          let m_place page need =
            let slots = try Hashtbl.find model page with Not_found -> [||] in
            let rec dead i =
              if i >= Array.length slots then None else if slots.(i) < 0 then Some i else dead (i + 1)
            in
            match dead 0 with
            | Some i ->
                slots.(i) <- need;
                (page, i)
            | None ->
                Hashtbl.replace model page (Array.append slots [| need |]);
                (page, Array.length slots)
          in
          let heap_pages () =
            List.filter
              (fun no -> Bytes.get_uint8 (Pager.read pager no) 0 = Heap.kind_heap)
              (List.init (Pager.page_count pager - 1) (fun i -> i + 1))
          in
          let rid_of oid = Option.get (Btree.find s.Store.dir (Int64.of_int oid)) in
          let ok = ref true in
          let expect what cond =
            if not cond then begin
              ok := false;
              Printf.eprintf "first fit: %s\n%!" what
            end
          in
          (* [moved]: an update relocating its record, which the store
             deletes only inside [put], so the file cannot be scanned
             in between; the model has deleted it already *)
          let insert ?(moved = false) oid data =
            let need = stored (String.length data) in
            let chosen = m_choose need in
            if not moved then begin
              let brute =
                List.find_opt
                  (fun no -> Heap.page_total_free (Pager.read pager no) >= need + Heap.slot_size)
                  (heap_pages ())
              in
              expect "model and scan agree on the page" (brute = chosen)
            end;
            Store.put s ~oid data;
            let r = rid_of oid in
            (match chosen with
            | Some no -> expect "lowest page with room" (r.Heap.page = no)
            | None -> expect "fresh page" (not (Hashtbl.mem model r.Heap.page)));
            let page, slot = m_place (match chosen with Some no -> no | None -> r.Heap.page) need in
            expect "model slot" (r.Heap.page = page && r.Heap.slot = slot);
            Hashtbl.replace where oid (page, slot)
          in
          let next = ref 1 in
          List.iter
            (fun (kind, pick, len) ->
              let data = String.init len (fun i -> Char.chr (97 + ((i + !next) mod 26))) in
              let oids = Hashtbl.fold (fun oid _ acc -> oid :: acc) live [] |> List.sort compare in
              (match (kind, oids) with
              | (0 | 1 | 2 | 3 | 4), _ | _, [] ->
                  let oid = !next in
                  incr next;
                  insert oid data;
                  Hashtbl.replace live oid data
              | (5 | 6 | 7), _ ->
                  let oid = List.nth oids (pick mod List.length oids) in
                  let old = Hashtbl.find live oid in
                  let page, slot = Hashtbl.find where oid in
                  let len = String.length data in
                  if String.length old <= Heap.inline_threshold && len <= String.length old then begin
                    Store.put s ~oid data;
                    (Hashtbl.find model page).(slot) <- len;
                    expect "updated in place" (rid_of oid = { Heap.page; slot })
                  end
                  else begin
                    m_delete (page, slot);
                    insert ~moved:true oid data
                  end;
                  Hashtbl.replace live oid data
              | _ ->
                  let oid = List.nth oids (pick mod List.length oids) in
                  ignore (Store.delete s ~oid);
                  m_delete (Hashtbl.find where oid);
                  Hashtbl.remove where oid;
                  Hashtbl.remove live oid);
              List.iter
                (fun no ->
                  expect "free bytes = model"
                    (Heap.page_total_free (Pager.read pager no) = m_free (Hashtbl.find model no)))
                (heap_pages ());
              Hashtbl.iter (fun oid data -> expect "reads back" (Store.get s ~oid = Some data)) live;
              ignore (Store.check s);
              expect "no more heap pages than the model"
                (List.length (heap_pages ()) <= Hashtbl.length model))
            ops;
          !ok))

(* Minor words per fresh put and per delete on a warm 40k-record store.
   Measured with this test before the pager's LRU list, the heap's
   free-space tree and its tuple-free slot reads: 1351 words per put,
   1087 per delete.  Each must stay at or below a quarter of that. *)
let test_store_write_allocation () =
  with_store (fun _ s ->
      let payload = String.make 100 'r' in
      for _ = 1 to 40_000 do
        Store.put s ~oid:(Store.fresh_oid s) payload
      done;
      let k = 2000 in
      let oids = Array.init k (fun _ -> Store.fresh_oid s) in
      let per_op f =
        let w0 = Gc.minor_words () in
        Array.iter f oids;
        (Gc.minor_words () -. w0) /. float k
      in
      let put = per_op (fun oid -> Store.put s ~oid payload) in
      let delete = per_op (fun oid -> ignore (Store.delete s ~oid)) in
      List.iter
        (fun (op, words, before) ->
          if words > before /. 4. then
            Alcotest.failf "%s: %.1f minor words, above a quarter of %.0f" op words before)
        [ ("put", put, 1351.); ("delete", delete, 1087.) ])

let () =
  Alcotest.run "storage"
    [
      ( "codec",
        [
          Alcotest.test_case "roundtrip" `Quick test_codec_roundtrip;
          Alcotest.test_case "underrun" `Quick test_codec_underrun;
          Alcotest.test_case "crc32 vector" `Quick test_crc32;
        ] );
      ( "pager",
        [
          Alcotest.test_case "basic read/write" `Quick test_pager_basic;
          Alcotest.test_case "abort restores" `Quick test_pager_abort_restores;
          Alcotest.test_case "commit persists" `Quick test_pager_commit_persists;
          Alcotest.test_case "crash recovery" `Quick test_pager_crash_recovery;
          Alcotest.test_case "eviction" `Quick test_pager_eviction;
          Alcotest.test_case "coalesce runs" `Quick test_coalesce_runs;
          Alcotest.test_case "LRU order under tx" `Quick test_pager_lru_order_in_tx;
          Alcotest.test_case "journal buffer boundary" `Quick test_journal_buffer_boundary;
          Alcotest.test_case "torn journal frame ignored" `Quick test_journal_partial_frame_ignored;
          Alcotest.test_case "garbage journal rejected" `Quick test_journal_garbage_rejected;
          QCheck_alcotest.to_alcotest test_pager_lru_model;
        ] );
      ( "heap",
        [
          Alcotest.test_case "insert/get" `Quick test_heap_insert_get;
          Alcotest.test_case "update shrink/grow" `Quick test_heap_update_shrink_grow;
          Alcotest.test_case "delete & reuse" `Quick test_heap_delete_reuse;
          Alcotest.test_case "blob records" `Quick test_heap_blob;
          Alcotest.test_case "fragmentation compaction" `Quick test_heap_fragmentation_compaction;
        ] );
      ( "btree",
        [
          Alcotest.test_case "basic" `Quick test_btree_basic;
          Alcotest.test_case "many sequential" `Quick test_btree_many_sequential;
          Alcotest.test_case "random delete" `Quick test_btree_random_delete;
          Alcotest.test_case "overwrite" `Quick test_btree_overwrite;
        ] );
      ( "store",
        [
          Alcotest.test_case "put/get/delete" `Quick test_store_put_get;
          Alcotest.test_case "persistence across reopen" `Quick test_store_persistence;
          Alcotest.test_case "tx commit/abort" `Quick test_store_tx_commit_abort;
          Alcotest.test_case "tx exception aborts" `Quick test_store_tx_exception_aborts;
          Alcotest.test_case "nested tx" `Quick test_store_nested_tx;
          Alcotest.test_case "iter/count" `Quick test_store_iter_count;
          Alcotest.test_case "large objects & page recycling" `Quick test_store_large_objects;
          Alcotest.test_case "eviction workload" `Quick test_store_many_objects_eviction;
          QCheck_alcotest.to_alcotest test_store_model_equivalence;
          Alcotest.test_case "vacuum" `Quick test_store_vacuum;
          QCheck_alcotest.to_alcotest test_store_first_fit;
          Alcotest.test_case "write path allocation" `Quick test_store_write_allocation;
        ] );
    ]
