(* MVCC and group-commit test suite (PR 7).

   Covers the multicore read path end to end:

   - database-level snapshot views: POOL queries over a shared view
     from several domains while the parent mutates;
   - views copied on one domain while the live handle commits, aborts
     and rolls back group batches (failing jobs, a failing fsync) on
     others: each view answers like a fresh open of the store at its
     LSN;
   - group commit: concurrent committers are batched into few fsync
     cycles, every caller's data is durable once its submit returns,
     and a simulated power cut mid-batch recovers to a consistent
     prefix;
   - domain-safety of the obs substrate (atomic counters, monotonic
     clock) and of per-database layer state under a 4-domain hammer;
   - a group-commit rollback leaving no trace in graph traversals;
   - POOL queries with loop-invariant WHERE subexpressions run by
     several domains over one shared view, their cached plans shared,
     while the group writer commits;
   - relationship hops, graph traversals, extent scans and filtered
     POOL scans by several domains over one shared view while the group
     writer links, creates and deletes. *)

open Pstore
module F = Fault
module S = Store
module D = Pmodel.Database

let value_cls = "Rec"

(* --- store-level fixtures ------------------------------------------- *)

let open_mem fs path = S.open_ ~vfs:(F.vfs fs) path

let put_records st lo hi tag =
  S.begin_tx st;
  for i = lo to hi do
    let oid = i + 10 in
    S.put st ~oid (Printf.sprintf "%s-%06d-%s" tag i (String.make (i mod 97) 'x'))
  done;
  S.commit st

(* --- 2. database-level snapshot views -------------------------------- *)

let mk_db fs path =
  let db = D.open_ ~vfs:(F.vfs fs) path in
  ignore (D.define_class db value_cls [ Pmodel.Meta.attr "n" Pmodel.Value.TInt ]);
  D.create_index db value_cls "n";
  D.with_tx db (fun () ->
      for i = 0 to 199 do
        ignore (D.create db value_cls [ ("n", Pmodel.Value.VInt i) ])
      done);
  db

let count_below db k =
  match
    Pool_lang.Pool.scalar db
      (Printf.sprintf "count(select r from %s r where r.n < %d)" value_cls k)
  with
  | Pmodel.Value.VInt n -> n
  | v -> Alcotest.failf "unexpected scalar %s" (Pmodel.Value.to_string v)

let test_database_view () =
  let fs = F.create () in
  let db = mk_db fs "mvcc2.db" in
  let view = D.snapshot db in
  let expected = count_below db 100 in
  Alcotest.(check int) "view matches parent at freeze" expected (count_below view 100);
  (* shared view across 4 domains, while the parent keeps writing *)
  let readers =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            let ok = ref true in
            for _ = 1 to 25 do
              if count_below view 100 <> expected then ok := false
            done;
            !ok))
  in
  D.with_tx db (fun () ->
      for i = 200 to 299 do
        ignore (D.create db value_cls [ ("n", Pmodel.Value.VInt (i mod 50)) ])
      done);
  List.iter
    (fun d -> Alcotest.(check bool) "shared view stable" true (Domain.join d))
    readers;
  (* the parent sees its own writes; the view still does not *)
  Alcotest.(check bool) "parent moved on" true (count_below db 100 > expected);
  Alcotest.(check int) "view frozen" expected (count_below view 100);
  (* clones pin the same LSN *)
  let clone = D.snapshot_clone view in
  Alcotest.(check int) "clone same lsn" (D.view_lsn view) (D.view_lsn clone);
  Alcotest.(check int) "clone same answer" expected (count_below clone 100);
  D.close clone;
  (* mutators are rejected on a view *)
  (match D.create view value_cls [ ("n", Pmodel.Value.VInt 1) ] with
  | _ -> Alcotest.fail "create on view should fail"
  | exception D.Model_error _ -> ());
  (match D.begin_tx view with
  | _ -> Alcotest.fail "begin_tx on view should fail"
  | exception D.Model_error _ -> ());
  D.close view;
  D.close db

(* --- 3. group commit: batching + durability --------------------------- *)

let test_group_batching () =
  let fs = F.create () in
  let st = open_mem fs "mvcc3.db" in
  put_records st 0 10 "seed";
  let g = S.Group.start ~max_batch:32 st in
  (* prime the writer with a slow job so the K concurrent submitters
     all land in the queue and retire as one (or at most two) hard
     cycles *)
  let slow =
    Domain.spawn (fun () ->
        S.Group.submit g (fun st ->
            Unix.sleepf 0.08;
            S.put st ~oid:9000 "slow"))
  in
  Unix.sleepf 0.02 (* let the slow job enter its batch *);
  let fsyncs_before = (F.counters fs).F.fsyncs in
  let k = 8 in
  let workers =
    List.init k (fun w ->
        Domain.spawn (fun () ->
            S.Group.submit g (fun st ->
                S.put st ~oid:(9100 + w) (Printf.sprintf "worker-%d" w))))
  in
  let lsns = List.map Domain.join workers in
  let slow_lsn = Domain.join slow in
  let fsyncs_after = (F.counters fs).F.fsyncs in
  let stats = S.Group.group_stats g in
  S.Group.stop g;
  (* every committer got a real LSN *)
  List.iter (fun l -> Alcotest.(check bool) "positive lsn" true (l > 0)) (slow_lsn :: lsns);
  Alcotest.(check int) "all soft commits retired" (k + 1) stats.S.Group.commits;
  Alcotest.(check bool) "batched: fewer cycles than commits" true
    (stats.S.Group.batches >= 1 && stats.S.Group.batches <= k);
  (* fsync cycles across the K concurrent commits: >= 1 and <= K.
     (each hard cycle costs a bounded constant number of fsyncs) *)
  let cycles_cost = fsyncs_after - fsyncs_before in
  Alcotest.(check bool) "fsyncs bounded" true (cycles_cost >= 1 && cycles_cost <= 3 * k);
  (* durable: a fresh open (recovery path) sees every record *)
  S.close st;
  let st2 = open_mem fs "mvcc3.db" in
  ignore (S.check st2);
  Alcotest.(check (option string)) "slow durable" (Some "slow") (S.get st2 ~oid:9000);
  List.iteri
    (fun w _ ->
      Alcotest.(check (option string))
        "worker durable"
        (Some (Printf.sprintf "worker-%d" w))
        (S.get st2 ~oid:(9100 + w)))
    lsns;
  S.close st2

let test_group_abort_isolated () =
  (* a body that raises is rolled back without disturbing its batch *)
  let fs = F.create () in
  let st = open_mem fs "mvcc4.db" in
  let g = S.Group.start st in
  let l1 = S.Group.submit g (fun st -> S.put st ~oid:100 "one") in
  (match S.Group.submit g (fun st -> S.put st ~oid:101 "poison"; failwith "veto") with
  | _ -> Alcotest.fail "failing body must raise at the submitter"
  | exception Failure m -> Alcotest.(check string) "body error surfaced" "veto" m);
  let l2 = S.Group.submit g (fun st -> S.put st ~oid:102 "two") in
  Alcotest.(check bool) "lsns advance" true (l2 > l1);
  let stats = S.Group.group_stats g in
  Alcotest.(check int) "abort counted" 1 stats.S.Group.aborts;
  S.Group.stop g;
  S.close st;
  let st2 = open_mem fs "mvcc4.db" in
  ignore (S.check st2);
  Alcotest.(check (option string)) "first kept" (Some "one") (S.get st2 ~oid:100);
  Alcotest.(check (option string)) "poison rolled back" None (S.get st2 ~oid:101);
  Alcotest.(check (option string)) "third kept" (Some "two") (S.get st2 ~oid:102);
  S.close st2

(* --- 4. crash mid-batch recovers a consistent prefix ------------------ *)

let test_group_crash_prefix () =
  (* Sweep several crash offsets.  For each: arm a power cut, submit a
     wave of group commits, let the writer die, then reopen through
     recovery and check (a) the store is structurally sound, (b) every
     submit that returned Ok is durable, (c) each batch is all-or-
     nothing: the recovered state never holds a strict subset of one
     batch's soft commits interleaved with later ones. *)
  let offsets = [ 5; 17; 41; 97; 193 ] in
  List.iter
    (fun off ->
      let fs = F.create () in
      let st = open_mem fs "mvcc5.db" in
      put_records st 0 20 "seed";
      let g = S.Group.start ~max_batch:64 st in
      F.set_crash_at fs (F.syscalls fs + off);
      let k = 12 in
      let results = Array.make k `Pending in
      let workers =
        List.init k (fun w ->
            Domain.spawn (fun () ->
                match
                  S.Group.submit g (fun st ->
                      S.put st ~oid:(7000 + w) (Printf.sprintf "c-%d" w))
                with
                | _lsn -> results.(w) <- `Ok
                | exception _ -> results.(w) <- `Failed))
      in
      List.iter Domain.join workers;
      (match S.Group.stop g with () -> () | exception Vfs.Crash -> ());
      F.revive fs;
      (* reopen: recovery must produce a consistent store *)
      let st2 = open_mem fs "mvcc5.db" in
      ignore (S.check st2);
      Array.iteri
        (fun w r ->
          match r with
          | `Ok ->
              Alcotest.(check (option string))
                (Printf.sprintf "crash@%d: acked commit %d durable" off w)
                (Some (Printf.sprintf "c-%d" w))
                (S.get st2 ~oid:(7000 + w))
          | `Failed | `Pending -> () (* may have made it or not: crash ambiguity *))
        results;
      (* the seed data is always intact *)
      for i = 0 to 20 do
        Alcotest.(check bool)
          (Printf.sprintf "crash@%d: seed %d intact" off i)
          true
          (S.get st2 ~oid:(i + 10) <> None)
      done;
      S.close st2)
    offsets

(* --- 6. obs substrate under domains ----------------------------------- *)

let test_obs_domain_safety () =
  let c = Pobs.Metrics.counter "test_mvcc_hammer_total" ~help:"test" in
  let n_domains = 4 and per = 25_000 in
  let workers =
    List.init n_domains (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per do
              Pobs.Metrics.inc c
            done))
  in
  List.iter Domain.join workers;
  Alcotest.(check (float 0.001))
    "no lost counter increments"
    (float_of_int (n_domains * per))
    (Pobs.Metrics.counter_value c);
  (* the monotonic clock never goes backwards, on any domain *)
  let mono_ok () =
    let last = ref 0 in
    let ok = ref true in
    for _ = 1 to 10_000 do
      let t = Pobs.Monotonic.now_ns () in
      if t < !last then ok := false;
      last := t
    done;
    !ok
  in
  let ds = List.init n_domains (fun _ -> Domain.spawn mono_ok) in
  List.iter (fun d -> Alcotest.(check bool) "monotonic per domain" true (Domain.join d)) ds

(* --- 7. layer-state hammer over a shared view -------------------------- *)

let test_ext_hammer () =
  let fs = F.create () in
  let db = mk_db fs "mvcc7.db" in
  (* link some taxonomy-ish structure for the traversals *)
  ignore
    (D.define_rel db "child_of" ~origin:value_cls ~destination:value_cls);
  D.with_tx db (fun () ->
      let oids = D.extent_list db value_cls in
      let arr = Array.of_list oids in
      Array.iteri
        (fun i oid -> if i > 0 then ignore (D.link db "child_of" ~origin:oid ~destination:arr.((i - 1) / 2)))
        arr);
  let view = D.snapshot db in
  let expected = count_below view 100 in
  (* 4 domains race: plan-cache misses, ext get-or-init, traversals *)
  let workers =
    List.init 4 (fun w ->
        Domain.spawn (fun () ->
            let ok = ref true in
            for round = 1 to 15 do
              if count_below view ((round mod 3) + 99) < 1 then ok := false;
              if count_below view 100 <> expected then ok := false;
              ignore
                (Pgraph.Traverse.descendants view ~rel:"child_of"
                   (List.nth (D.extent_list view value_cls) w))
            done;
            !ok))
  in
  List.iter
    (fun d -> Alcotest.(check bool) "hammer domain clean" true (Domain.join d))
    workers;
  D.close view;
  D.close db

(* --- 8. a group rollback leaves no edge behind ---------------------------- *)

module Traverse = Pgraph.Traverse

let tree_rel = "parent_of"

let test_writer_rollback_walk () =
  let fs = F.create () in
  let db = mk_db fs "mvcc8.db" in
  ignore (D.define_rel db tree_rel ~origin:value_cls ~destination:value_cls);
  let a, b =
    match D.extent_list db value_cls with a :: b :: _ -> (a, b) | _ -> assert false
  in
  let w = D.Writer.start db in
  (* the body links, traverses (seeing the edge), then fails *)
  (match
     D.Writer.submit w (fun db ->
         ignore (D.link db tree_rel ~origin:a ~destination:b);
         ignore (Traverse.descendants db ~rel:tree_rel a);
         failwith "veto")
   with
  | _ -> Alcotest.fail "failing body must raise at the submitter"
  | exception Failure _ -> ());
  (match
     D.Writer.read w (fun db ->
         ( Traverse.descendants db ~rel:tree_rel a,
           Graph_oracle.descendants db ~rel:tree_rel a ))
   with
  | _, Ok (walk, oracle) ->
      Alcotest.(check int) "rolled-back edge gone (oracle)" 0 (D.OidSet.cardinal oracle);
      Alcotest.(check bool) "rolled-back edge gone (walk)" true (D.OidSet.equal walk oracle)
  | _, Error e -> raise e);
  D.Writer.stop w;
  D.close db

(* --- 9. the tree the shared-view cases mutate ----------------------------- *)

(* A tree over the first [tree_size] records, edges parent -> child;
   returns the record oids and each tree node's incoming edge. *)
let tree_size = 180

let hammer_tree db =
  ignore (D.define_rel db tree_rel ~origin:value_cls ~destination:value_cls);
  let nodes = Array.of_list (D.extent_list db value_cls) in
  let edge_of = Array.make tree_size 0 in
  D.with_tx db (fun () ->
      for i = 1 to tree_size - 1 do
        edge_of.(i) <- D.link db tree_rel ~origin:nodes.((i - 1) / 2) ~destination:nodes.(i)
      done);
  (nodes, edge_of)

(* Step [k] of the writer's script: even steps detach a subtree, odd
   steps hang it under another record, which may lie outside the tree
   or inside its own subtree (a cycle). *)
let hammer_step db nodes edge_of k =
  let j = k / 2 in
  let i = 1 + (j * 37 mod (tree_size - 1)) in
  if k mod 2 = 0 then D.unlink db edge_of.(i)
  else
    let p = ((i * 7) + j) mod Array.length nodes in
    edge_of.(i) <- D.link db tree_rel ~origin:nodes.(p) ~destination:nodes.(i)

(* --- 9b. views copied while the live handle commits and rolls back ----- *)

(* A record's attribute, one edge and one fresh record: what [churn]
   changes in one transaction. *)
let churn db nodes k =
  let n = Array.length nodes in
  let a = nodes.(k * 7 mod n) and b = nodes.(((k * 13) + 1) mod n) in
  D.update db a "n" (Pmodel.Value.VInt (k mod 50));
  (match D.outgoing db ~rel_name:tree_rel b with
  | r :: _ -> D.unlink db r.Pmodel.Obj.oid
  | [] -> ignore (D.link db tree_rel ~origin:b ~destination:a));
  let c = D.create db value_cls [ ("n", Pmodel.Value.VInt (1000 + k)) ] in
  if k mod 2 = 0 then D.delete db c

(* One domain copies views of the live handle as fast as it can while
   the handle goes through every way a transaction ends:
   - group batches from three submitter domains, every third job
     failing after its changes;
   - batches whose hard commit fails (an fsync error);
   - commits, aborts and raising [with_tx] bodies on the main domain.
   Every successful job returns the store dump at its LSN, taken in the
   writer domain.  Each view must answer exactly like a fresh open of
   the dump at its LSN. *)
let test_views_track_commits () =
  let fs = F.create () in
  let db = D.open_ ~vfs:(F.vfs fs) "mvcc9b.db" in
  ignore (D.define_class db value_cls [ Pmodel.Meta.attr "n" Pmodel.Value.TInt ]);
  ignore (D.define_rel db tree_rel ~origin:value_cls ~destination:value_cls);
  D.create_index db value_cls "n";
  let nodes =
    D.with_tx db (fun () ->
        let nodes = Array.init 40 (fun i -> D.create db value_cls [ ("n", Pmodel.Value.VInt i) ]) in
        for i = 1 to 39 do
          ignore (D.link db tree_rel ~origin:nodes.((i - 1) / 2) ~destination:nodes.(i))
        done;
        nodes)
  in
  let dumps = Hashtbl.create 256 and dumps_mu = Mutex.create () in
  let record lsn dump =
    Mutex.lock dumps_mu;
    Hashtbl.replace dumps lsn dump;
    Mutex.unlock dumps_mu
  in
  record (S.lsn (D.store db)) (View_oracle.dump (D.store db));
  let stop = Atomic.make false in
  let copier =
    Domain.spawn (fun () ->
        (* LSN -> the distinct descriptions of the views taken at it *)
        let seen = Hashtbl.create 256 and n = ref 0 in
        while not (Atomic.get stop) do
          let v = D.snapshot db in
          (* a view copied half way through a change may not even read *)
          let d = try View_oracle.describe v with e -> Printexc.to_string e in
          let l = D.view_lsn v in
          D.close v;
          let ds = Option.value ~default:[] (Hashtbl.find_opt seen l) in
          if not (List.mem d ds) then Hashtbl.replace seen l (d :: ds);
          incr n
        done;
        (!n, seen))
  in
  let w = D.Writer.start db in
  let submitters =
    List.init 3 (fun s ->
        Domain.spawn (fun () ->
            for j = 0 to 29 do
              let k = (j * 3) + s in
              match
                D.Writer.submit w (fun db ->
                    churn db nodes k;
                    if j mod 3 = 2 then failwith "veto";
                    View_oracle.dump (D.store db))
              with
              | lsn, dump -> record lsn dump
              | exception Failure _ -> ()
            done))
  in
  List.iter Domain.join submitters;
  D.Writer.stop w;
  for k = 100 to 105 do
    let w = D.Writer.start db in
    F.fail_fsync fs ~nth:((F.counters fs).F.fsyncs + 1);
    (match D.Writer.submit w (fun db -> churn db nodes k) with
    | _ -> Alcotest.fail "a batch whose fsync failed must fail"
    | exception Pager.Io_error _ -> ());
    try D.Writer.stop w with _ -> ()
  done;
  for k = 200 to 289 do
    match k mod 3 with
    | 0 ->
        D.with_tx db (fun () -> churn db nodes k);
        record (S.lsn (D.store db)) (View_oracle.dump (D.store db))
    | 1 ->
        D.begin_tx db;
        churn db nodes k;
        D.abort db
    | _ -> (
        try D.with_tx db (fun () -> churn db nodes k; raise Exit) with Exit -> ())
  done;
  Atomic.set stop true;
  let views, seen = Domain.join copier in
  Alcotest.(check bool) "views taken" true (views > 0);
  Hashtbl.iter
    (fun lsn descriptions ->
      match Hashtbl.find_opt dumps lsn with
      | None -> Alcotest.failf "a view at LSN %d, where nothing committed" lsn
      | Some dump ->
          let expected = View_oracle.describe_records dump in
          List.iter
            (fun d ->
              if not (String.equal d expected) then
                Alcotest.failf "a view at LSN %d differs from the store at that LSN" lsn)
            descriptions)
    seen;
  D.close db

(* --- 10. hoisted subexpressions across domains --------------------------- *)

(* Each query hoists a WHERE subexpression, at level 0 or 1; every
   domain after the first takes its plan from the view's shared plan
   cache, so one immutable plan's slots are filled by several domains
   at once, each in its own frame. *)
let hoisting_queries =
  [
    Printf.sprintf
      "select r.n from %s r where r in descendants(first(select x from %s x where x.n = 1), '%s')"
      value_cls value_cls tree_rel;
    Printf.sprintf
      "select a.n, b.n from %s a, %s b where a.n < 4 and b in descendants(a, '%s') and b.n < 40"
      value_cls value_cls tree_rel;
    Printf.sprintf
      "select a.n, b.n from %s a, %s b where a.n < 3 and b.n < 30 and b in (select x from %s x \
       where x.n > a.n * 9)"
      value_cls value_cls value_cls;
  ]

let test_hoisting_shared_view () =
  let db = mk_db (F.create ()) "mvcc10.db" in
  let nodes, edge_of = hammer_tree db in
  let view = D.snapshot db in
  let answer ?config q = Pool_lang.Pool.query ?config view q in
  let expected = List.map (answer ~config:Pool_lang.Pool.legacy_config) hoisting_queries in
  let w = D.Writer.start db in
  let readers =
    List.init 3 (fun _ ->
        Domain.spawn (fun () ->
            let ok = ref true in
            for _ = 1 to 8 do
              List.iter2
                (fun q e -> if Pmodel.Value.compare_value (answer q) e <> 0 then ok := false)
                hoisting_queries expected
            done;
            !ok))
  in
  for k = 0 to 59 do
    ignore (D.Writer.submit w (fun db -> hammer_step db nodes edge_of k))
  done;
  List.iter
    (fun d -> Alcotest.(check bool) "every answer = legacy at the view's LSN" true (Domain.join d))
    readers;
  D.Writer.stop w;
  let s = Pool_lang.Pool.stats view in
  Alcotest.(check bool) "plans came from the shared cache" true
    (s.Pool_lang.Eval.plan_cache_hits > 0);
  Alcotest.(check bool) "invariants reused" true (s.Pool_lang.Eval.invariant_reuses > 0);
  (* the parent moved on: its answers differ from the frozen view's *)
  Alcotest.(check bool) "writer changed the parent" true
    (List.exists2
       (fun q e -> Pmodel.Value.compare_value (Pool_lang.Pool.query db q) e <> 0)
       hoisting_queries expected);
  D.close view;
  D.close db

(* --- 11. relationship adjacency over a shared view ----------------------- *)

(* Two domains hop over one shared snapshot view (far ends from the
   per-endpoint adjacency, and the relationship objects) while the
   writer links and unlinks on the live handle: every answer equals the
   one a single domain read from the same view before they started. *)
let test_adjacency_shared_view () =
  let db = mk_db (F.create ()) "mvcc11.db" in
  let nodes, edge_of = hammer_tree db in
  let view = D.snapshot db in
  let oids = List.map (fun (r : Pmodel.Obj.t) -> r.Pmodel.Obj.oid) in
  let hops db =
    Array.map
      (fun n ->
        ( D.targets db ~rel_name:tree_rel n,
          D.sources db ~rel_name:tree_rel n,
          oids (D.outgoing db ~rel_name:tree_rel n),
          oids (D.incoming db ~rel_name:tree_rel n) ))
      nodes
  in
  let expected = hops view in
  let w = D.Writer.start db in
  let readers =
    List.init 2 (fun _ ->
        Domain.spawn (fun () ->
            let ok = ref true in
            for _ = 1 to 20 do
              if hops view <> expected then ok := false
            done;
            !ok))
  in
  for k = 0 to 59 do
    ignore (D.Writer.submit w (fun db -> hammer_step db nodes edge_of k))
  done;
  List.iter
    (fun d -> Alcotest.(check bool) "every hop = the single-domain answer" true (Domain.join d))
    readers;
  D.Writer.stop w;
  Alcotest.(check bool) "view unchanged" true (hops view = expected);
  Alcotest.(check bool) "writer changed the parent" true (hops db <> expected);
  D.close view;
  D.close db

(* --- 12. extent scans over a shared view --------------------------------- *)

(* Two domains scan one shared snapshot view's extents (the oid-indexed
   mirror's extent vectors and object table) while the group writer
   creates and deletes records on the live handle, its fresh oids
   crossing several chunks of the live mirror: every scan equals the
   one a single domain took from the view before they started. *)
let test_extent_scans_shared_view () =
  let db = mk_db (F.create ()) "mvcc12.db" in
  let view = D.snapshot db in
  let scan db =
    let values = ref [] in
    D.iter_extent db value_cls (fun o -> values := (o, D.get_attr db o "n") :: !values);
    ( !values,
      D.fold_extent db ~deep:true Pmodel.Meta.object_class (fun n _ -> n + 1) 0,
      D.count db value_cls,
      D.object_count db )
  in
  let expected = scan view in
  let w = D.Writer.start db in
  let readers =
    List.init 2 (fun _ ->
        Domain.spawn (fun () ->
            let ok = ref true in
            for _ = 1 to 30 do
              if scan view <> expected then ok := false
            done;
            !ok))
  in
  (* 60 batches of 40 creates, each deleting the previous batch: 2400
     fresh oids, so chunks are allocated and freed behind the readers *)
  let prev = ref [] in
  for k = 1 to 60 do
    ignore
      (D.Writer.submit w (fun db ->
           List.iter (D.delete db) !prev;
           prev := List.init 40 (fun i -> D.create db value_cls [ ("n", Pmodel.Value.VInt ((k * 1000) + i)) ])))
  done;
  List.iter
    (fun d -> Alcotest.(check bool) "every scan = the single-domain answer" true (Domain.join d))
    readers;
  D.Writer.stop w;
  Alcotest.(check bool) "view unchanged" true (scan view = expected);
  Alcotest.(check bool) "writer changed the parent" true (scan db <> expected);
  Alcotest.(check bool) "fresh oids crossed a chunk" true
    (List.for_all (fun o -> o > Pmodel.Dense.chunk_size) !prev);
  D.close view;
  D.close db

(* --- 13. filtered scans over a shared view --------------------------------- *)

(* Three domains run POOL scans whose leading [var.attr OP literal]
   conjuncts are pushed into the extent scan — on an object class (read
   straight from the mirrored object) and on a relationship class
   (endpoints through the evaluator) — over one shared snapshot view,
   their plans shared through the view's plan cache, while the group
   writer links, unlinks, creates and deletes on the live handle: every
   answer equals the one a single domain took from the view first, and
   the reference interpreter's. *)
let filter_queries =
  [
    Printf.sprintf "select r.n from %s r where r.n >= 50 and r.n < 150 and r.n != 99" value_cls;
    Printf.sprintf "select a.n, b.n from %s a, %s b where a.n < 4 and 196 <= b.n and a.n != b.n"
      value_cls value_cls;
    Printf.sprintf "select e from %s e where e.context = null and e.origin != null" tree_rel;
  ]

let test_filtered_scans_shared_view () =
  let db = mk_db (F.create ()) "mvcc13.db" in
  let nodes, edge_of = hammer_tree db in
  D.drop_index db value_cls "n" (* so every bound on [n] is a filter *);
  let view = D.snapshot db in
  List.iter
    (fun q ->
      Alcotest.(check bool) ("filtered: " ^ q) true
        (let plan = Pool_lang.Pool.explain view q in
         let rec has i = i + 7 <= String.length plan && (String.sub plan i 7 = "filter(" || has (i + 1)) in
         has 0))
    filter_queries;
  let answer ?config db = List.map (Pool_lang.Pool.query ?config db) filter_queries in
  let same = List.for_all2 (fun a b -> Pmodel.Value.compare_value a b = 0) in
  let expected = answer view in
  Alcotest.(check bool) "= the reference interpreter" true
    (same expected (answer ~config:Pool_lang.Pool.legacy_config view));
  let w = D.Writer.start db in
  let readers =
    List.init 3 (fun _ ->
        Domain.spawn (fun () ->
            let ok = ref true in
            for _ = 1 to 10 do
              if not (same (answer view) expected) then ok := false
            done;
            !ok))
  in
  let prev = ref None in
  for k = 0 to 59 do
    ignore
      (D.Writer.submit w (fun db ->
           hammer_step db nodes edge_of k;
           Option.iter (D.delete db) !prev;
           prev := Some (D.create db value_cls [ ("n", Pmodel.Value.VInt (60 + k)) ])))
  done;
  List.iter
    (fun d -> Alcotest.(check bool) "every answer = the single-domain answer" true (Domain.join d))
    readers;
  D.Writer.stop w;
  Alcotest.(check bool) "view unchanged" true (same (answer view) expected);
  Alcotest.(check bool) "writer changed the parent" true (not (same (answer db) expected));
  D.close view;
  D.close db

(* --- 14. traversals over a shared view ------------------------------------ *)

(* Two domains walk one shared snapshot view (descendants, ancestors
   and subgraph extraction, each call with its own visited set and
   queue) while the group writer links and unlinks on the live handle:
   every answer equals the one a single domain took from the view
   before they started. *)
let test_traversals_shared_view () =
  let db = mk_db (F.create ()) "mvcc14.db" in
  let nodes, edge_of = hammer_tree db in
  let view = D.snapshot db in
  let walks db =
    List.map
      (fun i ->
        let n = nodes.(i) in
        ( Traverse.descendants db ~rel:tree_rel n,
          Traverse.ancestors db ~rel:tree_rel n,
          Pgraph.Subgraph.extract db ~rel:tree_rel n ))
      [ 0; 1; 5; 150 ]
  in
  let same =
    List.for_all2 (fun (d, a, (g : Pgraph.Subgraph.t)) (d', a', (g' : Pgraph.Subgraph.t)) ->
        D.OidSet.equal d d' && D.OidSet.equal a a' && D.OidSet.equal g.nodes g'.nodes
        && g.edges = g'.edges)
  in
  let expected = walks view in
  let w = D.Writer.start db in
  let readers =
    List.init 2 (fun _ ->
        Domain.spawn (fun () ->
            let ok = ref true in
            for _ = 1 to 20 do
              if not (same (walks view) expected) then ok := false
            done;
            !ok))
  in
  for k = 0 to 59 do
    ignore (D.Writer.submit w (fun db -> hammer_step db nodes edge_of k))
  done;
  List.iter
    (fun d -> Alcotest.(check bool) "every answer = the single-domain answer" true (Domain.join d))
    readers;
  D.Writer.stop w;
  Alcotest.(check bool) "view unchanged" true (same (walks view) expected);
  Alcotest.(check bool) "writer changed the parent" true (not (same (walks db) expected));
  D.close view;
  D.close db

(* ---------------------------------------------------------------------- *)

let () =
  Alcotest.run "mvcc"
    [
      ( "snapshots",
        [
          Alcotest.test_case "database view across domains" `Quick test_database_view;
          Alcotest.test_case "views copied across domains = the store at their LSN" `Quick
            test_views_track_commits;
        ] );
      ( "group-commit",
        [
          Alcotest.test_case "concurrent committers batched + durable" `Quick
            test_group_batching;
          Alcotest.test_case "failing body isolated" `Quick test_group_abort_isolated;
          Alcotest.test_case "crash mid-batch recovers a prefix" `Quick
            test_group_crash_prefix;
          Alcotest.test_case "rollback drops CSR snapshots" `Quick test_writer_rollback_walk;
        ] );
      ( "domains",
        [
          Alcotest.test_case "obs counters and clock" `Quick test_obs_domain_safety;
          Alcotest.test_case "layer-state hammer on shared view" `Quick test_ext_hammer;
          Alcotest.test_case "hoisting queries over a shared view" `Quick
            test_hoisting_shared_view;
          Alcotest.test_case "adjacency hops over a shared view" `Quick
            test_adjacency_shared_view;
          Alcotest.test_case "extent scans over a shared view" `Quick
            test_extent_scans_shared_view;
          Alcotest.test_case "filtered scans over a shared view" `Quick
            test_filtered_scans_shared_view;
          Alcotest.test_case "traversals over a shared view" `Quick test_traversals_shared_view;
        ] );
    ]
