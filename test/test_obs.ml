(* Tests for the observability layer (lib/obs): metric registry
   semantics, histogram bucket boundaries, tracer ring-buffer
   wraparound, Prometheus text-exposition grammar, the shared JSON
   escaper, and an overhead smoke check. *)

open Pmodel
module M = Pobs.Metrics
module Tr = Pobs.Trace
module J = Pobs.Json

let tmp_counter = ref 0

let tmp_path () =
  incr tmp_counter;
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "prom_obs_%d_%d.db" (Unix.getpid ()) !tmp_counter)

let cleanup path =
  if Sys.file_exists path then Sys.remove path;
  if Sys.file_exists (path ^ ".journal") then Sys.remove (path ^ ".journal")

let with_db f =
  let path = tmp_path () in
  let db = Database.open_ path in
  Fun.protect
    ~finally:(fun () ->
      (try Database.close db with _ -> ());
      cleanup path)
    (fun () -> f db)

(* --- counters under interleaved transactions/aborts ------------------- *)

(* The process-wide handles are idempotent: re-registering by name
   returns the live instrument the storage layer increments. *)
let c_commits = M.counter "pdb_store_tx_commits_total" ~help:""
let c_aborts = M.counter "pdb_store_tx_aborts_total" ~help:""
let c_pager_commits = M.counter "pdb_pager_commits_total" ~help:""
let c_pager_aborts = M.counter "pdb_pager_aborts_total" ~help:""

let test_counter_monotonic () =
  let module S = Pstore.Store in
  let path = tmp_path () in
  let s = S.open_ path in
  Fun.protect
    ~finally:(fun () ->
      (try S.close s with _ -> ());
      cleanup path)
    (fun () ->
      let commits0 = M.counter_value c_commits and aborts0 = M.counter_value c_aborts in
      let last = ref (commits0, aborts0) in
      let observe () =
        let now = (M.counter_value c_commits, M.counter_value c_aborts) in
        let lc, la = !last and nc, na = now in
        if nc < lc || na < la then Alcotest.fail "counter went backwards";
        last := now
      in
      for i = 1 to 20 do
        S.begin_tx s;
        S.put s ~oid:(S.fresh_oid s) (Printf.sprintf "payload-%d" i);
        if i mod 3 = 0 then S.abort s else S.commit s;
        observe ()
      done;
      let committed = 20 - (20 / 3) and aborted = 20 / 3 in
      Alcotest.(check int)
        "tx commits counted" committed
        (int_of_float (M.counter_value c_commits -. commits0));
      Alcotest.(check int)
        "tx aborts counted" aborted
        (int_of_float (M.counter_value c_aborts -. aborts0));
      (* the pager-level mirrors moved at least as much *)
      if M.counter_value c_pager_commits < M.counter_value c_commits then
        Alcotest.fail "pager commits behind store commits";
      if M.counter_value c_pager_aborts < float_of_int aborted then
        Alcotest.fail "pager aborts behind store aborts")

let test_counter_api () =
  let reg = M.create () in
  let c = M.counter ~registry:reg "t_total" ~help:"h" in
  M.inc c;
  M.addi c 4;
  Alcotest.(check (float 0.0)) "inc+addi" 5.0 (M.counter_value c);
  (match M.add c (-1.) with
  | () -> Alcotest.fail "negative add must be rejected"
  | exception Invalid_argument _ -> ());
  (* idempotent registration returns the same handle *)
  let c' = M.counter ~registry:reg "t_total" ~help:"other" in
  M.inc c';
  Alcotest.(check (float 0.0)) "same handle" 6.0 (M.counter_value c);
  (* disabled guard: mutations become no-ops *)
  M.enabled := false;
  M.inc c;
  M.enabled := true;
  Alcotest.(check (float 0.0)) "guarded" 6.0 (M.counter_value c)

(* --- histogram bucket boundaries --------------------------------------- *)

let test_histogram_buckets () =
  let reg = M.create () in
  let h = M.histogram ~registry:reg ~buckets:[| 10.; 20.; 30. |] "h_ns" ~help:"h" in
  List.iter (M.observe h) [ 5.; 10.; 10.5; 20.; 25.; 30.; 31. ];
  (* le semantics: a value equal to a bound lands in that bound's bucket *)
  Alcotest.(check (array int)) "per-bucket counts" [| 2; 2; 2; 1 |] (M.hist_counts h);
  Alcotest.(check int) "total" 7 (M.hist_total h);
  Alcotest.(check (float 1e-9)) "sum" 131.5 (M.hist_sum h);
  (match M.histogram ~registry:reg ~buckets:[| 10.; 10. |] "bad_ns" ~help:"" with
  | _ -> Alcotest.fail "non-ascending buckets must be rejected"
  | exception Invalid_argument _ -> ())

(* --- tracer ring wraparound --------------------------------------------- *)

let test_trace_wraparound () =
  Tr.set_capacity 8;
  Tr.clear ();
  Tr.enabled := true;
  Fun.protect
    ~finally:(fun () ->
      Tr.enabled := false;
      Tr.set_capacity 512;
      Tr.clear ())
    (fun () ->
      for i = 1 to 10 do
        Tr.with_span "outer" (fun () ->
            Tr.with_span "inner"
              ~attrs:[ ("i", string_of_int i) ]
              (fun () -> ignore (Sys.opaque_identity (i * i))))
      done;
      Alcotest.(check int) "recorded" 20 (Tr.recorded ());
      Alcotest.(check int) "dropped" 12 (Tr.dropped ());
      let spans = Tr.spans () in
      Alcotest.(check int) "ring holds capacity" 8 (List.length spans);
      let by_id = Hashtbl.create 8 in
      List.iter (fun (s : Tr.span) -> Hashtbl.replace by_id s.Tr.id s) spans;
      List.iter
        (fun (s : Tr.span) ->
          (* parent links stay valid after wraparound: 0 (root) or a
             strictly earlier id, never a dangling forward reference *)
          if s.Tr.parent <> 0 then begin
            if s.Tr.parent >= s.Tr.id then Alcotest.fail "parent id not earlier than child";
            match Hashtbl.find_opt by_id s.Tr.parent with
            | None -> () (* parent evicted by wraparound: allowed *)
            | Some p ->
                (* a surviving parent's interval encloses the child *)
                if p.Tr.start_ns > s.Tr.start_ns then Alcotest.fail "child starts before parent";
                if
                  p.Tr.start_ns + p.Tr.dur_ns < s.Tr.start_ns + s.Tr.dur_ns
                then Alcotest.fail "child ends after parent"
          end)
        spans;
      (* inner spans finish first, so the newest span is an "outer" with
         a live link to its (already recorded) "inner" child's parent *)
      let inners = List.filter (fun (s : Tr.span) -> s.Tr.name = "inner") spans in
      Alcotest.(check bool) "inner spans survive" true (inners <> []);
      List.iter
        (fun (s : Tr.span) ->
          if not (List.mem_assoc "i" s.Tr.attrs) then Alcotest.fail "attr lost")
        inners;
      (* rendering never raises, and reports the drop *)
      let txt = Tr.to_text () in
      Alcotest.(check bool) "drop note" true
        (String.length txt > 0
        &&
        let needle = "dropped" in
        let n = String.length txt and m = String.length needle in
        let rec go i = i + m <= n && (String.sub txt i m = needle || go (i + 1)) in
        go 0))

let test_trace_disabled_is_free () =
  Tr.clear ();
  Alcotest.(check bool) "tracing default off" false !Tr.enabled;
  let r = Tr.with_span "nope" (fun () -> 42) in
  Alcotest.(check int) "passthrough" 42 r;
  Alcotest.(check int) "nothing recorded" 0 (Tr.recorded ())

(* --- Prometheus text-format grammar ------------------------------------- *)

(* A strict line-by-line parser for the exposition format (version
   0.0.4): HELP/TYPE headers, sample lines with optional labels, label
   values with the three escapes, float values.  Raises Alcotest.fail
   with the offending line. *)

let is_name_start c =
  match c with 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false

let is_name_char c =
  match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true | _ -> false

let is_label_char c =
  match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false

let valid_value (s : string) =
  s = "+Inf" || s = "-Inf" || s = "NaN"
  || match float_of_string_opt s with Some _ -> true | None -> false

type sample = { s_name : string; s_labels : (string * string) list; s_value : string }

type line = L_help of string | L_type of string * string | L_sample of sample

let parse_line (line : string) : line =
  let bad reason = Alcotest.fail (Printf.sprintf "bad exposition line (%s): %S" reason line) in
  let n = String.length line in
  if n = 0 then bad "empty";
  if String.length line >= 7 && String.sub line 0 7 = "# HELP " then begin
    (match String.index_from_opt line 7 ' ' with
    | Some i -> L_help (String.sub line 7 (i - 7))
    | None -> L_help (String.sub line 7 (n - 7)))
  end
  else if String.length line >= 7 && String.sub line 0 7 = "# TYPE " then begin
    match String.split_on_char ' ' line with
    | [ "#"; "TYPE"; name; kind ] ->
        if not (List.mem kind [ "counter"; "gauge"; "histogram"; "summary"; "untyped" ]) then
          bad "unknown type";
        L_type (name, kind)
    | _ -> bad "malformed TYPE"
  end
  else if line.[0] = '#' then bad "unknown comment"
  else begin
    let i = ref 0 in
    while !i < n && is_name_char line.[!i] do incr i done;
    let name = String.sub line 0 !i in
    if name = "" || not (is_name_start name.[0]) then bad "metric name";
    let labels = ref [] in
    if !i < n && line.[!i] = '{' then begin
      incr i;
      let parsing = ref true in
      while !parsing do
        let st = !i in
        while !i < n && is_label_char line.[!i] do incr i done;
        let lname = String.sub line st (!i - st) in
        if lname = "" then bad "label name";
        if !i >= n || line.[!i] <> '=' then bad "expected =";
        incr i;
        if !i >= n || line.[!i] <> '"' then bad "expected opening quote";
        incr i;
        let b = Buffer.create 16 in
        let closed = ref false in
        while not !closed do
          if !i >= n then bad "unterminated label value";
          (match line.[!i] with
          | '\\' ->
              if !i + 1 >= n then bad "dangling escape";
              (match line.[!i + 1] with
              | '\\' -> Buffer.add_char b '\\'
              | '"' -> Buffer.add_char b '"'
              | 'n' -> Buffer.add_char b '\n'
              | _ -> bad "unknown escape");
              i := !i + 2
          | '"' ->
              closed := true;
              incr i
          | c ->
              Buffer.add_char b c;
              incr i)
        done;
        labels := (lname, Buffer.contents b) :: !labels;
        if !i >= n then bad "unterminated label set";
        (match line.[!i] with
        | ',' -> incr i
        | '}' ->
            incr i;
            parsing := false
        | _ -> bad "expected , or }")
      done
    end;
    if !i >= n || line.[!i] <> ' ' then bad "expected space before value";
    incr i;
    let value = String.sub line !i (n - !i) in
    if not (valid_value value) then bad "value not a float";
    L_sample { s_name = name; s_labels = List.rev !labels; s_value = value }
  end

(* Validate a full exposition document: every line parses, every sample
   belongs to a declared family (histogram samples via the
   _bucket/_sum/_count suffixes), cumulative buckets never decrease and
   the +Inf bucket equals _count.  Returns the family table. *)
let validate_exposition (text : string) : (string, string) Hashtbl.t =
  if text = "" || text.[String.length text - 1] <> '\n' then
    Alcotest.fail "exposition must end with a newline";
  let lines = String.split_on_char '\n' text in
  let lines = List.filteri (fun i l -> not (l = "" && i = List.length lines - 1)) lines in
  let types = Hashtbl.create 64 in
  let family_of (s : sample) : string =
    let strip suffix name =
      let ls = String.length suffix and ln = String.length name in
      if ln > ls && String.sub name (ln - ls) ls = suffix then Some (String.sub name 0 (ln - ls))
      else None
    in
    let candidates =
      List.filter_map
        (fun x -> x)
        [
          (match strip "_bucket" s.s_name with
          | Some f when Hashtbl.find_opt types f = Some "histogram" -> Some f
          | _ -> None);
          (match strip "_sum" s.s_name with
          | Some f when Hashtbl.find_opt types f = Some "histogram" -> Some f
          | _ -> None);
          (match strip "_count" s.s_name with
          | Some f when Hashtbl.find_opt types f = Some "histogram" -> Some f
          | _ -> None);
          (if Hashtbl.mem types s.s_name then Some s.s_name else None);
        ]
    in
    match candidates with
    | f :: _ -> f
    | [] -> Alcotest.fail (Printf.sprintf "sample %s has no TYPE declaration" s.s_name)
  in
  (* histogram bookkeeping keyed by (family, labels-minus-le) *)
  let buckets : (string * (string * string) list, float list ref) Hashtbl.t =
    Hashtbl.create 32
  in
  let counts : (string * (string * string) list, float) Hashtbl.t = Hashtbl.create 32 in
  let inf_buckets : (string * (string * string) list, float) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun l ->
      match parse_line l with
      | L_help _ -> ()
      | L_type (name, kind) ->
          if Hashtbl.mem types name then Alcotest.fail ("duplicate TYPE for " ^ name);
          Hashtbl.replace types name kind
      | L_sample s -> (
          let fam = family_of s in
          let kind = Hashtbl.find types fam in
          match kind with
          | "histogram" ->
              let base = List.remove_assoc "le" s.s_labels in
              let key = (fam, base) in
              let v = float_of_string (match s.s_value with "+Inf" -> "infinity" | x -> x) in
              if
                String.length s.s_name > 7
                && String.sub s.s_name (String.length s.s_name - 7) 7 = "_bucket"
              then begin
                let le =
                  match List.assoc_opt "le" s.s_labels with
                  | Some le -> le
                  | None -> Alcotest.fail "bucket sample without le label"
                in
                (match Hashtbl.find_opt buckets key with
                | Some r ->
                    (match !r with
                    | prev :: _ when v < prev ->
                        Alcotest.fail ("bucket counts not cumulative in " ^ fam)
                    | _ -> ());
                    r := v :: !r
                | None -> Hashtbl.replace buckets key (ref [ v ]));
                if le = "+Inf" then Hashtbl.replace inf_buckets key v
              end
              else if
                String.length s.s_name > 6
                && String.sub s.s_name (String.length s.s_name - 6) 6 = "_count"
              then Hashtbl.replace counts key v
          | _ ->
              if s.s_name <> fam then Alcotest.fail ("sample/family name mismatch: " ^ s.s_name)))
    lines;
  Hashtbl.iter
    (fun key count ->
      match Hashtbl.find_opt inf_buckets key with
      | Some inf ->
          if inf <> count then Alcotest.fail "histogram +Inf bucket != _count"
      | None -> Alcotest.fail "histogram without +Inf bucket")
    counts;
  types

let test_metrics_exposition_grammar () =
  with_db (fun db ->
      (* touch storage, query and rules so their instruments move *)
      ignore (Database.define_class db "Star" [ Meta.attr "name" Value.TString ]);
      ignore (Database.create db "Star" [ ("name", Value.VString "sun") ]);
      let engine = Prules.Engine.create db in
      Prules.Engine.add_rule engine
        (Prules.Rule.invariant "named" ~class_name:"Star" (fun _ o ->
             match Obj.get o "name" with Value.VString s -> s <> "" | _ -> false));
      ignore (Database.create db "Star" [ ("name", Value.VString "vega") ]);
      ignore (Pool_lang.Pool.query db "select s.name from Star s where s.name = 'sun'");
      let text = Pserver.Http_server.metrics_text db in
      let types = validate_exposition text in
      List.iter
        (fun (fam, kind) ->
          match Hashtbl.find_opt types fam with
          | Some k when k = kind -> ()
          | Some k ->
              Alcotest.fail (Printf.sprintf "family %s has kind %s, expected %s" fam k kind)
          | None -> Alcotest.fail ("family missing from /metrics: " ^ fam))
        [
          (* storage *)
          ("pdb_pager_commits_total", "counter");
          ("pdb_pager_cache_hits_total", "counter");
          ("pdb_pager_fsync_ns", "histogram");
          ("pdb_pager_pwrite_ns", "histogram");
          ("pdb_store_tx_commits_total", "counter");
          ("pdb_store_objects", "gauge");
          (* query *)
          ("pdb_queries_total", "counter");
          ("pdb_query_exec_ns", "histogram");
          ("pdb_plan_cache_misses_total", "counter");
          ("pdb_query_invariant_evals_total", "counter");
          ("pdb_query_invariant_reuses_total", "counter");
          (* rules *)
          ("pdb_rule_firings_total", "counter");
          ("pdb_rule_violations_total", "counter");
          (* events *)
          ("pdb_events_emitted_total", "counter");
        ])

let test_exposition_escaping () =
  let reg = M.create () in
  let nasty = "he said \"hi\"\nthen C:\\path" in
  let c = M.counter ~registry:reg ~labels:[ ("q", nasty) ] "esc_total" ~help:"line1\nline2" in
  M.inc c;
  let text = M.expose ~registry:reg () in
  let types = validate_exposition text in
  Alcotest.(check (option string)) "family present" (Some "counter")
    (Hashtbl.find_opt types "esc_total");
  (* round-trip: the parser must recover the original label value *)
  let recovered = ref None in
  List.iter
    (fun l ->
      match parse_line l with
      | L_sample s when s.s_name = "esc_total" -> recovered := List.assoc_opt "q" s.s_labels
      | _ -> ())
    (List.filter (fun l -> l <> "") (String.split_on_char '\n' text));
  Alcotest.(check (option string)) "label round-trips" (Some nasty) !recovered

(* --- shared JSON escaper -------------------------------------------------- *)

let test_json_escaper () =
  Alcotest.(check string)
    "quotes and newlines" "{\"k\":\"a\\\"b\\nc\\\\d\"}"
    (J.to_string (J.Obj [ ("k", J.Str "a\"b\nc\\d") ]));
  Alcotest.(check string) "control chars" "\"x\\u0001\\ty\"" (J.to_string (J.Str "x\001\ty"));
  Alcotest.(check string) "non-finite floats are null" "[null,null]"
    (J.to_string (J.List [ J.Float Float.nan; J.Float Float.infinity ]));
  Alcotest.(check string) "integral floats stay compact" "2" (J.to_string (J.Float 2.0));
  (* Prometheus label escaping: exactly backslash, quote, newline *)
  Alcotest.(check string) "prom label escapes" "a\\\"b\\nc\\\\d\tz"
    (J.escape `Prom_label "a\"b\nc\\d\tz")

let test_stats_json_well_formed () =
  with_db (fun db ->
      ignore (Database.define_class db "Star" [ Meta.attr "name" Value.TString ]);
      ignore (Database.create db "Star" [ ("name", Value.VString "sun") ]);
      let body = Pserver.Http_server.stats_json db in
      (* body must contain the per-database storage keys and balance
         its braces (a cheap well-formedness check on top of the
         escaper tests above) *)
      let contains sub =
        let n = String.length body and m = String.length sub in
        let rec go i = i + m <= n && (String.sub body i m = sub || go (i + 1)) in
        go 0
      in
      List.iter
        (fun key ->
          if not (contains (Printf.sprintf "\"%s\"" key)) then
            Alcotest.fail ("stats JSON missing key " ^ key))
        [ "storage"; "objects"; "query"; "observability"; "slow_queries"; "metrics" ];
      let depth = ref 0 and in_str = ref false and esc = ref false in
      String.iter
        (fun c ->
          if !esc then esc := false
          else if !in_str then begin
            if c = '\\' then esc := true else if c = '"' then in_str := false
          end
          else
            match c with
            | '"' -> in_str := true
            | '{' | '[' -> incr depth
            | '}' | ']' -> decr depth
            | _ -> ())
        body;
      Alcotest.(check int) "balanced braces" 0 !depth;
      Alcotest.(check bool) "closed strings" false !in_str)

(* --- overhead smoke -------------------------------------------------------- *)

let test_overhead_smoke () =
  let module S = Pstore.Store in
  let workload () =
    let path = tmp_path () in
    let s = S.open_ path in
    let payload = String.make 64 'c' in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to 50 do
      S.with_tx s (fun () -> S.put s ~oid:(S.fresh_oid s) payload)
    done;
    let dt = Unix.gettimeofday () -. t0 in
    S.close s;
    cleanup path;
    dt
  in
  ignore (workload ());
  let median l = List.nth (List.sort compare l) (List.length l / 2) in
  let sample enabled = List.init 3 (fun _ -> M.enabled := enabled; workload ()) in
  Fun.protect
    ~finally:(fun () -> M.enabled := true)
    (fun () ->
      let off = median (sample false) in
      let on = median (sample true) in
      (* generous CI-safe bound — the bench gate enforces the real <5%
         budget; this only catches pathological regressions like an
         accidental syscall or allocation per counter increment *)
      if on > (off *. 2.5) +. 0.005 then
        Alcotest.fail
          (Printf.sprintf "metrics-on overhead pathological: off %.6fs on %.6fs" off on))

(* --- slow-query log: configurable threshold --------------------------- *)

let test_slowlog_threshold () =
  with_db (fun db ->
      ignore (Database.define_class db "Star" [ Meta.attr "name" Value.TString ]);
      ignore (Database.create db "Star" [ ("name", Value.VString "sun") ]);
      Fun.protect
        ~finally:(fun () ->
          Pobs.Slowlog.set_threshold_ns Pobs.Slowlog.default_threshold_ns;
          Pobs.Slowlog.clear ())
        (fun () ->
          Pobs.Slowlog.clear ();
          (* a prohibitive threshold logs nothing *)
          Pobs.Slowlog.set_threshold_ms 60_000.;
          ignore (Pool_lang.Pool.query db "select s.name from Star s");
          Alcotest.(check int) "fast query not logged" 0
            (List.length (Pobs.Slowlog.entries ()));
          (* threshold 0 — "log every query", what pdb --slowlog-ms 0 sets *)
          Pobs.Slowlog.set_threshold_ns 0;
          let q = "select s.name from Star s where s.name = 'sun'" in
          ignore (Pool_lang.Pool.query db q);
          (match Pobs.Slowlog.entries () with
          | [ e ] ->
              Alcotest.(check string) "entry names the query" q e.Pobs.Slowlog.query;
              Alcotest.(check bool) "duration recorded" true (e.Pobs.Slowlog.dur_ns >= 0)
          | es -> Alcotest.failf "expected 1 slow entry, got %d" (List.length es));
          (* negative values clamp to "log everything" *)
          Pobs.Slowlog.set_threshold_ns (-5);
          Alcotest.(check int) "negative clamps to zero" 0 !Pobs.Slowlog.threshold_ns;
          (* the ms convenience setter feeds the same knob *)
          Pobs.Slowlog.set_threshold_ms 2.5;
          Alcotest.(check int) "ms setter converts" 2_500_000 !Pobs.Slowlog.threshold_ns))

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter monotonicity under tx/abort" `Quick
            test_counter_monotonic;
          Alcotest.test_case "counter api + guard" `Quick test_counter_api;
          Alcotest.test_case "histogram bucket boundaries" `Quick test_histogram_buckets;
        ] );
      ( "trace",
        [
          Alcotest.test_case "ring wraparound keeps parent links" `Quick test_trace_wraparound;
          Alcotest.test_case "disabled tracer records nothing" `Quick
            test_trace_disabled_is_free;
        ] );
      ( "exposition",
        [
          Alcotest.test_case "/metrics obeys the text-format grammar" `Quick
            test_metrics_exposition_grammar;
          Alcotest.test_case "label escaping round-trips" `Quick test_exposition_escaping;
          Alcotest.test_case "shared JSON escaper" `Quick test_json_escaper;
          Alcotest.test_case "/stats JSON well-formed" `Quick test_stats_json_well_formed;
        ] );
      ( "slowlog",
        [ Alcotest.test_case "threshold is configurable" `Quick test_slowlog_threshold ] );
      ( "overhead",
        [ Alcotest.test_case "metrics-on vs metrics-off smoke" `Quick test_overhead_smoke ] );
    ]
