(* Unit tests for the benchmark's own helpers and its metric catalogue. *)

let zipf_repeats () =
  let z = Util.Zipf.make ~n:128 ~s:1.1 in
  let stream seed =
    let rng = Random.State.make [| seed |] in
    List.init 500 (fun _ -> Util.Zipf.sample z rng)
  in
  Alcotest.(check (list int)) "same seed, same draws" (stream 7) (stream 7);
  Alcotest.(check bool) "another seed, other draws" true (stream 7 <> stream 8);
  List.iter (fun k -> Alcotest.(check bool) "in range" true (k >= 0 && k < 128)) (stream 9)

let zipf_skewed () =
  let z = Util.Zipf.make ~n:128 ~s:1.1 in
  let rng = Random.State.make [| 1 |] in
  let counts = Array.make 128 0 in
  for _ = 1 to 20_000 do
    let k = Util.Zipf.sample z rng in
    counts.(k) <- counts.(k) + 1
  done;
  Alcotest.(check bool) "rank 0 is the hottest" true (Array.for_all (fun c -> c <= counts.(0)) counts);
  Alcotest.(check bool) "rank 0 beats rank 9 several times over" true (counts.(0) > 5 * counts.(9))

let permutation_repeats () =
  let p seed = Array.to_list (Util.permutation (Random.State.make [| seed |]) 50) in
  Alcotest.(check (list int)) "same seed" (p 4) (p 4);
  Alcotest.(check (list int)) "a permutation" (List.init 50 Fun.id) (List.sort compare (p 4))

let floats n = List.init n (fun i -> float_of_int (n - i))

let percentile_ten_beyond () =
  let check_opt = Alcotest.(check (option (float 0.))) in
  (* nearest rank: p95 of 1..200 is 190, with 10 samples beyond *)
  check_opt "p95 of 200" (Some 190.) (Util.percentile ~p:95. (floats 200));
  check_opt "p95 of 199: nine beyond" None (Util.percentile ~p:95. (floats 199));
  check_opt "p99 of 1000" (Some 990.) (Util.percentile ~p:99. (floats 1000));
  check_opt "p99 of 999: nine beyond" None (Util.percentile ~p:99. (floats 999));
  check_opt "p50 of 20" (Some 10.) (Util.percentile ~p:50. (floats 20));
  check_opt "p50 of 19: nine beyond" None (Util.percentile ~p:50. (floats 19));
  check_opt "empty" None (Util.percentile ~p:50. [])

let median () =
  Alcotest.(check (float 1e-9)) "odd" 2. (Util.median [ 3.; 1.; 2. ]);
  Alcotest.(check (float 1e-9)) "even" 2.5 (Util.median [ 4.; 1.; 3.; 2. ])

let names_valid () =
  let names = List.map (fun e -> e.Spec.e_name) Spec.end_to_end @ List.map fst Spec.per_layer in
  List.iter (fun n -> Alcotest.(check bool) ("valid name " ^ n) true (Util.valid_name n)) (names @ Spec.workloads);
  List.iter
    (fun u -> Alcotest.(check bool) ("valid unit " ^ u) true (Util.valid_unit u))
    (List.map (fun e -> e.Spec.e_unit) Spec.end_to_end @ List.map snd Spec.per_layer);
  Alcotest.(check int) "names used once" (List.length names) (List.length (List.sort_uniq compare names));
  Alcotest.(check bool) "setup_s is there" true (List.exists (fun e -> e.Spec.e_name = "setup_s") Spec.end_to_end);
  List.iter
    (fun e -> Alcotest.(check bool) ("bound of " ^ e.Spec.e_name) true (e.Spec.bound > 0. && e.Spec.bound <= 0.25))
    Spec.end_to_end;
  Alcotest.(check bool) "rejects a leading dot" false (Util.valid_name ".x");
  Alcotest.(check bool) "rejects a space" false (Util.valid_name "a b");
  Alcotest.(check bool) "rejects 65 letters" false (Util.valid_name (String.make 65 'a'))

(* The names listed in one array of BENCHMARK.json, in order. *)
let json_names (text : string) (key : string) : string list =
  let start = Str.search_forward (Str.regexp_string ("\"" ^ key ^ "\"")) text 0 in
  let stop = Str.search_forward (Str.regexp_string "]") text start in
  let section = String.sub text start (stop - start) in
  let re = Str.regexp "\"name\": *\"\\([^\"]*\\)\"" in
  let rec go pos acc =
    match Str.search_forward re section pos with
    | _ -> go (Str.match_end ()) (Str.matched_group 1 section :: acc)
    | exception Not_found -> List.rev acc
  in
  go 0 []

let benchmark_json_agrees () =
  let text = In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all in
  Alcotest.(check (list string)) "workloads" Spec.workloads (json_names text "workloads");
  Alcotest.(check (list string))
    "end_to_end"
    (List.map (fun e -> e.Spec.e_name) Spec.end_to_end)
    (json_names text "end_to_end");
  Alcotest.(check (list string)) "per_layer" (List.map fst Spec.per_layer) (json_names text "per_layer")

let result_line () =
  Alcotest.(check string) "shape"
    "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
    (Util.result_line ~correct:true ~attempted:3 ~failed:0 [ { Util.name = "a_ms"; value = 1.5; unit_ = "ms" } ])

let () =
  Alcotest.run "perfbench"
    [
      ( "sampling",
        [
          Alcotest.test_case "zipf repeats for a seed" `Quick zipf_repeats;
          Alcotest.test_case "zipf is skewed" `Quick zipf_skewed;
          Alcotest.test_case "permutation repeats" `Quick permutation_repeats;
        ] );
      ( "statistics",
        [
          Alcotest.test_case "percentile needs ten beyond" `Quick percentile_ten_beyond;
          Alcotest.test_case "median" `Quick median;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "names and units are valid" `Quick names_valid;
          Alcotest.test_case "BENCHMARK.json agrees" `Quick benchmark_json_agrees;
          Alcotest.test_case "result line" `Quick result_line;
        ] );
    ]
