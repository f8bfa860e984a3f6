(* Tests for the OO7 benchmark substrate: generation invariants,
   backend equivalence, and structural-modification round-trips. *)

open Pmodel
module O7 = Oo7bench.Oo7_schema
module Gen = Oo7bench.Oo7_gen
module RawDb = Oo7bench.Oo7_raw
module Ops = Oo7bench.Oo7_ops

let tmp_counter = ref 0

let tmp_path () =
  incr tmp_counter;
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "prom_oo7_%d_%d.db" (Unix.getpid ()) !tmp_counter)

let cleanup path =
  if Sys.file_exists path then Sys.remove path;
  if Sys.file_exists (path ^ ".journal") then Sys.remove (path ^ ".journal")

let with_pair f =
  let pp = tmp_path () and rp = tmp_path () in
  let pdb = Database.open_ pp in
  O7.install pdb;
  let ph = Gen.generate pdb O7.tiny in
  let rdb = RawDb.open_ rp in
  let rh = RawDb.generate rdb O7.tiny in
  Fun.protect
    ~finally:(fun () ->
      (try Database.close pdb with _ -> ());
      (try RawDb.close rdb with _ -> ());
      cleanup pp;
      cleanup rp)
    (fun () -> f { Ops.Prom.db = pdb; h = ph } { Ops.Raw.t = rdb; h = rh } pdb)

let p = O7.tiny

let test_generation_invariants () =
  with_pair (fun prom raw pdb ->
      let h = prom.Ops.Prom.h in
      Alcotest.(check int) "composites" p.O7.num_comp_per_module (Array.length h.O7.composites);
      Alcotest.(check int) "atomics" (p.O7.num_comp_per_module * p.O7.num_atomic_per_comp)
        (Array.length h.O7.atomics);
      Alcotest.(check int) "documents" p.O7.num_comp_per_module (Array.length h.O7.documents);
      (* every composite has exactly one root part and one document *)
      Array.iter
        (fun comp ->
          Alcotest.(check int) "one root" 1
            (List.length (Database.outgoing pdb ~rel_name:O7.root_part comp));
          Alcotest.(check int) "one doc" 1
            (List.length (Database.outgoing pdb ~rel_name:O7.has_doc comp));
          Alcotest.(check int) "parts per composite" p.O7.num_atomic_per_comp
            (List.length (Database.outgoing pdb ~rel_name:O7.has_part comp)))
        h.O7.composites;
      (* the raw backend has the same logical cardinalities *)
      let rh = raw.Ops.Raw.h in
      Alcotest.(check int) "raw composites" (Array.length h.O7.composites)
        (Array.length rh.O7.composites);
      Alcotest.(check int) "raw atomics" (Array.length h.O7.atomics) (Array.length rh.O7.atomics))

let test_traversals_agree () =
  with_pair (fun prom raw _ ->
      (* the ring connection guarantees each composite's graph is fully
         connected, so counts depend only on the structure parameters *)
      Alcotest.(check int) "T5 equal across backends" (Ops.Prom.t5 prom) (Ops.Raw.t5 raw);
      Alcotest.(check int) "T5 = composites * parts"
        (p.O7.num_comp_per_module * p.O7.num_atomic_per_comp)
        (Ops.Prom.t5 prom);
      (* T1/T6 depend on the random assembly wiring, which differs
         between the two independently-generated databases; they must
         still be non-trivial and bounded by the same structure *)
      let t1p = Ops.Prom.t1 prom and t1r = Ops.Raw.t1 raw in
      Alcotest.(check bool) "T1 non-trivial on both" true (t1p > 0 && t1r > 0);
      Alcotest.(check bool) "T1 bounded by structure" true
        (t1p mod p.O7.num_atomic_per_comp = 0 && t1r mod p.O7.num_atomic_per_comp = 0);
      Alcotest.(check int) "Q7 equal" (Ops.Prom.q7 prom) (Ops.Raw.q7 raw);
      Alcotest.(check int) "Q1 finds all" 10 (Ops.Prom.q1 prom ~n:10);
      Alcotest.(check int) "raw Q1 finds all" 10 (Ops.Raw.q1 raw ~n:10))

let test_t2_is_undoable () =
  with_pair (fun prom _ pdb ->
      (* each T2 run swaps every visited part the same number of times
         (shared composites are visited once per referencing assembly),
         so two runs restore every part exactly *)
      let originals =
        Array.map
          (fun a -> (Database.get_attr pdb a "x", Database.get_attr pdb a "y"))
          prom.Ops.Prom.h.O7.atomics
      in
      ignore (Ops.Prom.t2 prom);
      ignore (Ops.Prom.t2 prom);
      Array.iteri
        (fun i a ->
          let x0, y0 = originals.(i) in
          if not (Database.get_attr pdb a "x" = x0 && Database.get_attr pdb a "y" = y0) then
            Alcotest.failf "part %d not restored after double T2" i)
        prom.Ops.Prom.h.O7.atomics)

let test_s1_s2_roundtrip () =
  with_pair (fun prom raw pdb ->
      let before = Database.count pdb O7.atomic_part in
      let comps = Ops.Prom.s1 prom ~k:3 ~parts_per_comp:5 in
      Alcotest.(check int) "inserted parts" (before + 15) (Database.count pdb O7.atomic_part);
      Ops.Prom.s2 prom comps;
      (* lifetime dependency cascaded: parts and documents gone *)
      Alcotest.(check int) "parts cascaded" before (Database.count pdb O7.atomic_part);
      Alcotest.(check int) "composites restored" p.O7.num_comp_per_module
        (Database.count pdb O7.composite_part);
      (* raw backend round-trips too *)
      let rcomps = Ops.Raw.s1 raw ~k:3 ~parts_per_comp:5 in
      Ops.Raw.s2 raw rcomps;
      Alcotest.(check int) "raw T5 stable" (Ops.Prom.t5 prom) (Ops.Raw.t5 raw))

let test_cascade_on_module_delete () =
  with_pair (fun prom _ pdb ->
      (* deleting the module cascades down the whole private hierarchy:
         design root -> assemblies (lifetime dep) but composites are
         shared associations, so they survive *)
      Database.delete pdb prom.Ops.Prom.h.O7.module_oid;
      Alcotest.(check int) "assemblies cascaded" 0 (Database.count pdb O7.assembly);
      Alcotest.(check int) "composites survive (associations)" p.O7.num_comp_per_module
        (Database.count pdb O7.composite_part))

(* Minor-heap words are a host-independent cost: wall time moves with
   the host's CPU speed, the words an operation allocates do not.  The
   prom/raw ratios below were, before relationship hops read the
   per-endpoint adjacency instead of each relationship object (OO7 tiny,
   this test's setup): T1 2.71, T5 2.55, T6 19.44, Q8 7.68.  Each must
   stay at or below a third of that. *)
let words f =
  ignore (f ());
  let w0 = Gc.minor_words () in
  ignore (f ());
  Gc.minor_words () -. w0

let test_allocation_ratios () =
  with_pair (fun prom raw _ ->
      List.iter
        (fun (op, before, fp, fr) ->
          let ratio = words fp /. words fr in
          if ratio > before /. 3. then
            Alcotest.failf "%s: prom/raw minor words %.2f, above a third of %.2f" op ratio before)
        [
          ("T1", 2.71, (fun () -> Ops.Prom.t1 prom), fun () -> Ops.Raw.t1 raw);
          ("T5", 2.55, (fun () -> Ops.Prom.t5 prom), fun () -> Ops.Raw.t5 raw);
          ("T6", 19.44, (fun () -> Ops.Prom.t6 prom), fun () -> Ops.Raw.t6 raw);
          ("Q8", 7.68, (fun () -> Ops.Prom.q8 prom ~len:0), fun () -> Ops.Raw.q8 raw ~len:0);
        ])

(* The same guard for the full extent scan and the structural
   modifications.  Measured at the parent of the oid-indexed mirror
   (OO7 tiny, this setup): Q7 1.01, S1 2.91, S2 5.51.  Q7 must stay at
   or below two thirds of its value (the option box of each scanned
   object's lookup is gone); S1 and S2, which the dense tables barely
   change (2.78 and 5.37 with them), must not rise by more than 5%. *)
let test_allocation_ratios_scan_and_modify () =
  with_pair (fun prom raw _ ->
      (* S1 then S2 twice per backend; the second pair is measured *)
      let s1_s2 s1 s2 =
        ignore (s2 (s1 ()));
        let w0 = Gc.minor_words () in
        let made = s1 () in
        let w1 = Gc.minor_words () in
        s2 made;
        (w1 -. w0, Gc.minor_words () -. w1)
      in
      let ps1, ps2 =
        s1_s2 (fun () -> Ops.Prom.s1 prom ~k:3 ~parts_per_comp:5) (Ops.Prom.s2 prom)
      and rs1, rs2 = s1_s2 (fun () -> Ops.Raw.s1 raw ~k:3 ~parts_per_comp:5) (Ops.Raw.s2 raw) in
      List.iter
        (fun (op, ratio, bound) ->
          if ratio > bound then
            Alcotest.failf "%s: prom/raw minor words %.2f, above %.2f" op ratio bound)
        [
          ( "Q7",
            words (fun () -> Ops.Prom.q7 prom) /. words (fun () -> Ops.Raw.q7 raw),
            1.01 *. 2. /. 3. );
          ("S1", ps1 /. rs1, 2.91 *. 1.05);
          ("S2", ps2 /. rs2, 5.51 *. 1.05);
        ])

let () =
  Alcotest.run "oo7"
    [
      ( "oo7",
        [
          Alcotest.test_case "generation invariants" `Quick test_generation_invariants;
          Alcotest.test_case "traversals agree across backends" `Quick test_traversals_agree;
          Alcotest.test_case "T2 is an involution" `Quick test_t2_is_undoable;
          Alcotest.test_case "S1/S2 round-trip" `Quick test_s1_s2_roundtrip;
          Alcotest.test_case "module delete cascades" `Quick test_cascade_on_module_delete;
          Alcotest.test_case "prom/raw allocation ratios" `Quick test_allocation_ratios;
          Alcotest.test_case "prom/raw allocation ratios: Q7, S1, S2" `Quick
            test_allocation_ratios_scan_and_modify;
        ] );
    ]
