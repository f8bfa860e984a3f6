(** The benchmark: one closed-loop run of one workload.

    {v
      perfbench/run.sh --workload flora_browse|flora_revise|oo7_layers
                       --seed N --seconds S --trace 0|1
    v}

    [--trace 0] measures whole requests with tracing off and prints the
    end-to-end metrics; [--trace 1] replays the same seeded stream
    in-process with spans at every layer boundary and prints the
    per-layer metrics.  Either way the last line of standard output is
    one JSON object: [correct], [attempted], [failed] and [metrics].
    The line before it records the run context (host, sizes against
    the page cache, seed, connections, loop).  Scratch files live in a
    directory beside the build's [default] tree and are removed on
    exit. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload flora_browse|flora_revise|oo7_layers --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref 0 and trace = ref (-1) in
  let rec parse = function
    | "--workload" :: w :: rest ->
        workload := w;
        parse rest
    | "--seed" :: n :: rest ->
        seed := (match int_of_string_opt n with None -> usage () | s -> s);
        parse rest
    | "--seconds" :: n :: rest ->
        seconds := (match int_of_string_opt n with Some n when n >= 1 -> n | _ -> usage ());
        parse rest
    | "--trace" :: t :: rest ->
        trace := (match t with "0" -> 0 | "1" -> 1 | _ -> usage ());
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed = match !seed with Some s -> s | None -> usage () in
  if (not (List.mem !workload Spec.workloads)) || !seconds < 1 || !trace < 0 then usage ();
  let seconds = float_of_int !seconds in
  (* this binary is <build>/default/perfbench/main.exe; the served one
     sits beside it in the same build tree, scratch files under <build> *)
  let default = Filename.dirname (Filename.dirname Sys.executable_name) in
  let pdb = Filename.concat (Filename.concat default "bin") "pdb.exe" in
  if not (Sys.file_exists pdb) then failwith ("missing " ^ pdb);
  let work = Filename.concat (Filename.dirname default) (Printf.sprintf "perfbench-%d" (Unix.getpid ())) in
  Sys.mkdir work 0o755;
  let cleanup () =
    Array.iter (fun f -> Sys.remove (Filename.concat work f)) (Sys.readdir work);
    Sys.rmdir work
  in
  let attempted, failed, metrics, context =
    Fun.protect ~finally:cleanup (fun () ->
        let env = { Flora.work; pdb } in
        match (!workload, !trace) with
        | "oo7_layers", 0 ->
            let o, ms, ctx = Oo7_work.run_e2e ~work ~seed ~seconds in
            (o.Oo7_work.attempted, o.Oo7_work.failed, ms, ctx)
        | "oo7_layers", _ ->
            let o, layer, ctx = Oo7_work.run_trace ~work ~seed ~seconds in
            (o.Oo7_work.attempted, o.Oo7_work.failed, Layers.complete ~workload:"oo7_layers" layer, ctx)
        | w, tr ->
            let mode = if w = "flora_browse" then Flora.Browse else Flora.Revise in
            if tr = 0 then
              let t, ms, ctx = Flora.run_e2e env ~mode ~seed ~seconds in
              (t.Flora.attempted, t.Flora.failed, ms, ctx)
            else
              let t, layer, ctx = Flora.run_trace env ~mode ~seed ~seconds in
              (t.Flora.attempted, t.Flora.failed, Layers.complete ~workload:w layer, ctx))
  in
  List.iter
    (fun (m : Util.metric) -> Printf.printf "%-40s %14.4f %s\n" m.Util.name m.Util.value m.Util.unit_)
    metrics;
  (* run.sh records the host's CPU count before it pins the run, and
     the CPU it pinned it to *)
  let nproc =
    match Option.bind (Sys.getenv_opt "PERFBENCH_NPROC") int_of_string_opt with
    | Some n when n > 0 -> n
    | _ -> Domain.recommended_domain_count ()
  in
  let cpu = Option.value ~default:"unpinned" (Sys.getenv_opt "PERFBENCH_CPU") in
  Printf.printf
    "{\"context\": {\"workload\": %s, \"trace\": %d, \"nproc\": %d, \"cpu\": %s, \"ocaml\": %s, \"run\": %s}}\n"
    (Util.json_string !workload) !trace nproc (Util.json_string cpu)
    (Util.json_string Sys.ocaml_version) context;
  print_endline (Util.result_line ~correct:(failed = 0) ~attempted ~failed metrics)
