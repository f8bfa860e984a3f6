(** The two taxonomic workloads, served by [pdb serve --proto binary]:

    - [flora_browse]: a curator browsing two overlapping classifications
      of a 16-family flora — name lookups, placements, subtrees,
      specimen lists and a 1% share of the thesis's context query,
      read-only; 2 connections;
    - [flora_revise]: one curator revising the flora, one fsync'd write
      (species move, new specimen or name amendment) then a read-back
      of the affected genus's subtree per cycle; 1 connection.

    Both run closed-loop from this single process: the next request
    goes out only when the previous answer is in.  Requests are plain
    POOL text and mutation targets; the server sees nothing else. *)

open Pmodel
module F = Taxonomy.Flora_gen
module BP = Pserver.Binary_proto
module H = Pserver.Http_server
module C = Pserver.Client
module T = Pobs.Trace

let rel = Taxonomy.Tax_schema.circumscribes
let ctx_names = [| "generated-classification"; "revision" |]

let params seed =
  { F.families = 16; genera_per_family = 8; species_per_genus = 10; specimens_per_species = 4; seed }

(* ------------------------------------------------------------------ *)
(* The generated flora, as the client knows it                         *)
(* ------------------------------------------------------------------ *)

type genus = { g_taxon : int; g_epithet : string; g_unique : bool }

type species = { s_taxon : int; s_name : int; s_epithet : string }

type world = {
  genera : genus array;
  species : species array;
  ctxs : int array; (* the two classifications, as [ctx_names] *)
  rev_ctx : int;
  rev_place : (int * int) array; (* per species: (genus index, link oid) in the revision *)
  objects : int;
  pages : int;
}

let epithet db oid = Value.as_string (Database.get_attr db oid "epithet")

(** Generate the flora and its revision into [path] (one transaction),
    and read back what a curator would know of it. *)
let generate ~seed path : world =
  Proc.remove_db path;
  let db = Database.open_ path in
  Taxonomy.Tax_schema.install db;
  let flora, rev_ctx =
    Database.with_tx db (fun () ->
        let f = F.generate db ~params:(params seed) () in
        (f, F.perturb db f ()))
  in
  let name_of t = Option.get (Taxonomy.Classify.ascribed_name_of db t) in
  let count = Hashtbl.create 256 in
  let genera =
    Array.of_list
      (List.map
         (fun t ->
           let e = epithet db (name_of t) in
           Hashtbl.replace count e (1 + Option.value ~default:0 (Hashtbl.find_opt count e));
           { g_taxon = t; g_epithet = e; g_unique = false })
         flora.F.genus_taxa)
  in
  let genera = Array.map (fun g -> { g with g_unique = Hashtbl.find count g.g_epithet = 1 }) genera in
  let index_of_genus = Hashtbl.create 256 in
  Array.iteri (fun i g -> Hashtbl.replace index_of_genus g.g_taxon i) genera;
  let species =
    Array.of_list
      (List.map
         (fun t ->
           let n = name_of t in
           { s_taxon = t; s_name = n; s_epithet = epithet db n })
         flora.F.species_taxa)
  in
  let rev_place =
    Array.map
      (fun s ->
        match Database.incoming db ~context:rev_ctx ~rel_name:rel s.s_taxon with
        | r :: _ -> (Hashtbl.find index_of_genus (Obj.origin r), r.Obj.oid)
        | [] -> failwith "species unplaced in the revision")
      species
  in
  let st = Pstore.Store.stats (Database.store db) in
  Database.close db;
  { genera; species; ctxs = [| flora.F.ctx; rev_ctx |]; rev_ctx; rev_place; objects = st.Pstore.Store.objects; pages = st.Pstore.Store.pages }

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

let ctx_expr c = Printf.sprintf "first(select c from Context c where c.name = '%s')" ctx_names.(c)

let taxon_expr ~rank ep =
  Printf.sprintf
    "first(first(select n from Name n where n.epithet = '%s' and n.rank = '%s').sources('AscribedName', null))"
    ep rank

let genus_expr (g : genus) = taxon_expr ~rank:"Genus" g.g_epithet
let species_expr (s : species) = taxon_expr ~rank:"Species" s.s_epithet

type check =
  | Oracle (* compare with the same query run in-process *)
  | Shows of string list (* the answer must contain every fragment *)
  | Status_ok (* a mutation answered 200 *)
  | Created (* a mutation answered 200 "created #N" *)

type req = { cls : string; body : [ `Read of string | `Write of string ]; check : check }

let read cls q check = { cls; body = `Read q; check }
let write cls target check = { cls; body = `Write target; check }

(** The browse mix, per block of 100 requests.  No published trace
    gives the shares of taxonomic browsing (BODHI and the
    polyhierarchy work say only that it is read-heavy and crosses
    classifications), so the four lookup classes share the block
    equally; their latencies overlap, so the pooled percentiles rest on
    no class boundary.  The thesis's context query is a small share. *)
let browse_mix =
  [ ("name_lookup", 25); ("placement", 25); ("subtree", 25); ("specimens", 24); ("context_query", 1) ]

(** Classes whose latency is [read_*] on browse: the cheap lookups,
    whose costs overlap.  The context query is two orders of magnitude
    slower and is measured through [ops_per_s] and its own per-class
    figures instead. *)
let browse_read_classes = [ "name_lookup"; "placement"; "subtree"; "specimens" ]

type browse_gen = {
  b_rng : Random.State.t;
  b_zipf : Util.Zipf.t;
  b_hot : int array; (* Zipf rank -> genus index *)
}

let browse_gen ~seed (w : world) =
  let rng = Random.State.make [| seed; 0xb0 |] in
  {
    b_rng = rng;
    b_zipf = Util.Zipf.make ~n:(Array.length w.genera) ~s:1.1;
    b_hot = Util.permutation rng (Array.length w.genera);
  }

let browse_request (g : browse_gen) (w : world) (cls : string) : req =
  let rng = g.b_rng in
  let gi = g.b_hot.(Util.Zipf.sample g.b_zipf rng) in
  let genus = w.genera.(gi) in
  let per_genus = Array.length w.species / Array.length w.genera in
  let sp = w.species.((gi * per_genus) + Random.State.int rng per_genus) in
  let c = Random.State.int rng 2 in
  match cls with
  | "name_lookup" ->
      read cls
        (Printf.sprintf "select n.epithet, n.rank, n.year, n.status from Name n where n.epithet = '%s'"
           sp.s_epithet)
        Oracle
  | "placement" ->
      read cls
        (Printf.sprintf
           "select first(t.targets('AscribedName', null)).epithet from ancestors(%s, 'Circumscribes', %s) t"
           (species_expr sp) (ctx_expr c))
        Oracle
  | "subtree" ->
      read cls (Printf.sprintf "descendants(%s, 'Circumscribes', %s)" (genus_expr genus) (ctx_expr c)) Oracle
  | "specimens" ->
      read cls
        (Printf.sprintf "select s.collector, s.number, s.collected from descendants(%s, 'Circumscribes', %s) s"
           (species_expr sp) (ctx_expr c))
        Oracle
  | "context_query" ->
      (* uniform over genera whose epithet names no other: a shared
         epithet would join the query with two genera and double its
         cost, and one hot genus would make every run's figure hinge on
         that genus *)
      let rec unique () =
        let g = w.genera.(Random.State.int rng (Array.length w.genera)) in
        if g.g_unique then g else unique ()
      in
      let genus = unique () in
      read cls
        (Printf.sprintf
           "select t from (select n from Name n where n.epithet = '%s' and n.rank = 'Genus') g, Taxon t where t in \
            descendants(first(g.sources('AscribedName', null)), 'Circumscribes') in context %s"
           genus.g_epithet (ctx_expr c))
        Oracle
  | _ -> invalid_arg cls

let browse_block (g : browse_gen) (w : world) : req array =
  let classes = Array.of_list (List.concat_map (fun (c, n) -> List.init n (fun _ -> c)) browse_mix) in
  let order = Util.permutation g.b_rng (Array.length classes) in
  Array.map (fun i -> browse_request g w classes.(i)) order

(* The revise session: the client's model of the revision, updated from
   the server's answers ("created #N" gives the new link's oid). *)
type revise_gen = {
  r_rng : Random.State.t;
  r_zipf : Util.Zipf.t;
  r_hot : int array; (* Zipf rank -> genus index, unique epithets only *)
  r_place : (int * int) array; (* per species: genus index, link oid *)
  mutable r_cycle : int;
  mutable r_kinds : string list; (* rest of the current block of 10 cycles *)
}

let revise_mix = [ ("move", 5); ("new_specimen", 3); ("amend", 2) ]

let revise_gen ~seed (w : world) =
  let rng = Random.State.make [| seed; 0x4e |] in
  let unique =
    Array.of_list
      (List.filter (fun i -> w.genera.(i).g_unique) (List.init (Array.length w.genera) Fun.id))
  in
  let perm = Util.permutation rng (Array.length unique) in
  {
    r_rng = rng;
    r_zipf = Util.Zipf.make ~n:(Array.length unique) ~s:1.1;
    r_hot = Array.map (fun i -> unique.(i)) perm;
    r_place = Array.copy w.rev_place;
    r_cycle = 0;
    r_kinds = [];
  }

let created_oid (body : string) : int option =
  match String.split_on_char '#' (String.trim body) with
  | [ "created "; n ] -> int_of_string_opt n
  | _ -> None

let readback_query (w : world) gi =
  Printf.sprintf
    "select t, first(t.targets('AscribedName', null)).year from descendants(%s, 'Circumscribes', %s) t"
    (genus_expr w.genera.(gi)) (ctx_expr 1)

(** One revise cycle: the write, then the read-back of the genus it
    touched, each sent through [exec], which times and checks a request
    and returns its answer when it passed. *)
let revise_cycle (g : revise_gen) (w : world) (exec : req -> string option) : unit =
  let rng = g.r_rng in
  (match g.r_kinds with
  | [] ->
      let kinds = List.concat_map (fun (k, n) -> List.init n (fun _ -> k)) revise_mix in
      let a = Array.of_list kinds in
      g.r_kinds <- Array.to_list (Array.map (fun i -> a.(i)) (Util.permutation rng (Array.length a)))
  | _ -> ());
  let kind = List.hd g.r_kinds in
  g.r_kinds <- List.tl g.r_kinds;
  g.r_cycle <- g.r_cycle + 1;
  let k = g.r_cycle in
  let hot () = g.r_hot.(Util.Zipf.sample g.r_zipf rng) in
  let members gi =
    List.filter (fun i -> fst g.r_place.(i) = gi) (List.init (Array.length g.r_place) Fun.id)
  in
  (* a hot genus that currently holds a species, and one of them *)
  let rec hot_species tries =
    let gi = hot () in
    match members gi with
    | [] when tries > 0 -> hot_species (tries - 1)
    | [] -> None
    | l -> Some (gi, List.nth l (Random.State.int rng (List.length l)))
  in
  let ctx = w.rev_ctx in
  match kind with
  | "move" -> (
      (* any species, drawn from a hot genus, moved to another hot genus *)
      let gi = hot () in
      let si =
        match members gi with
        | [] -> Random.State.int rng (Array.length w.species)
        | l -> List.nth l (Random.State.int rng (List.length l))
      in
      let rec target () =
        let b = hot () in
        if b = fst g.r_place.(si) then target () else b
      in
      let b = target () in
      let sp = w.species.(si) in
      ignore (exec (write "write" (Printf.sprintf "/unlink?oid=%d" (snd g.r_place.(si))) Status_ok));
      match
        exec
          (write "write"
             (Printf.sprintf "/link?rel=Circumscribes&origin=%d&destination=%d&context=%d&reason=revise-%d"
                w.genera.(b).g_taxon sp.s_taxon ctx k)
             Created)
      with
      | Some body -> (
          match created_oid body with
          | Some link ->
              g.r_place.(si) <- (b, link);
              ignore
                (exec (read "readback" (readback_query w b) (Shows [ Printf.sprintf "[#%d, " sp.s_taxon ])))
          | None -> ())
      | None -> ())
  | "new_specimen" -> (
      match hot_species 8 with
      | None -> ()
      | Some (gi, si) -> (
          let sp = w.species.(si) in
          match
            exec
              (write "write"
                 (Printf.sprintf "/create?class=Specimen&collector=Curator&number=%d&herbarium=E" k)
                 Created)
          with
          | Some body -> (
              match created_oid body with
              | Some spec -> (
                  match
                    exec
                      (write "write"
                         (Printf.sprintf "/link?rel=Circumscribes&origin=%d&destination=%d&context=%d" sp.s_taxon
                            spec ctx)
                         Created)
                  with
                  | Some _ ->
                      ignore
                        (exec (read "readback" (readback_query w gi) (Shows [ Printf.sprintf "[#%d, " spec ])))
                  | None -> ())
              | None -> ())
          | None -> ()))
  | _ (* amend *) -> (
      match hot_species 8 with
      | None -> ()
      | Some (gi, si) -> (
          let sp = w.species.(si) in
          let year = 3000 + k in
          match exec (write "write" (Printf.sprintf "/update?oid=%d&attr=year&value=%d" sp.s_name year) Status_ok) with
          | Some _ ->
              ignore
                (exec
                   (read "readback_amend" (readback_query w gi)
                      (Shows [ Printf.sprintf "[#%d, %d]" sp.s_taxon year ])))
          | None -> ()))

(* ------------------------------------------------------------------ *)
(* Transports: over the wire, or in-process through the same handlers  *)
(* ------------------------------------------------------------------ *)

type answer = { ok : bool; text : string }

let wire_read (c : C.t) q =
  match C.query c q with C.Ok v -> { ok = true; text = v } | C.Err e -> { ok = false; text = e }

let wire_write (c : C.t) target =
  let status, _, body = C.http c ~meth:"POST" ~target () in
  { ok = status = 200; text = body }

(** The in-process transport runs the server's own handlers on a local
    handle: [Http_server.handle] for queries, [parse_mutation] +
    [apply_mutation] in one transaction for writes — the legacy serving
    path of [pdb serve] without the socket.  With [traced], every layer
    boundary is a span. *)
let local_exec ?(traced = false) (db : Database.t) (r : req) : answer =
  let span name f = if traced then T.with_span name f else f () in
  let roundtrip frame =
    span "server.codec" (fun () ->
        match BP.parse (BP.encode frame) ~off:0 with BP.Frame (f, _) -> f | _ -> failwith "codec")
  in
  match r.body with
  | `Read q ->
      ignore (roundtrip (BP.Query { id = 1; q }));
      let status, body = span "server.dispatch" (fun () -> H.handle db "/query" [ ("q", q) ]) in
      let text = if String.ends_with ~suffix:"\n" body then String.sub body 0 (String.length body - 1) else body in
      let ok = status = "200 OK" in
      ignore (roundtrip (if ok then BP.Result { id = 1; v = text } else BP.Error { id = 1; msg = text }));
      { ok; text }
  | `Write target ->
      ignore (roundtrip (BP.Hreq { id = 1; meth = "POST"; target; headers = [] }));
      let a =
        span "server.dispatch" (fun () ->
            let path, params = H.split_target target in
            match H.parse_mutation path params with
            | exception H.Bad_param m -> { ok = false; text = m }
            | m -> (
                Database.begin_tx db;
                match span "model.mutation" (fun () -> H.apply_mutation db m) with
                | body ->
                    span "model.commit" (fun () -> Database.commit db);
                    { ok = true; text = body }
                | exception e ->
                    Database.abort db;
                    { ok = false; text = Printexc.to_string e }))
      in
      ignore (roundtrip (BP.Hresp { id = 1; status = (if a.ok then 200 else 400); headers = []; body = a.text }));
      a

let check_answer (r : req) (a : answer) : bool =
  a.ok
  &&
  match r.check with
  | Oracle | Status_ok -> true
  | Created -> created_oid a.text <> None
  | Shows frags -> List.for_all (Proc.contains a.text) frags

(* ------------------------------------------------------------------ *)
(* Sessions                                                            *)
(* ------------------------------------------------------------------ *)

type tally = {
  lat : (string, float list) Hashtbl.t; (* class -> latencies, ms *)
  mutable attempted : int;
  mutable failed : int;
  answers : (string, string * int) Hashtbl.t; (* oracle-checked query -> first answer, uses *)
  mutable done_ops : int;
  mutable blocks : float list; (* ops per second of each block of the mix *)
}

let tally () =
  { lat = Hashtbl.create 16; attempted = 0; failed = 0; answers = Hashtbl.create 1024; done_ops = 0; blocks = [] }

let samples t cls = Option.value ~default:[] (Hashtbl.find_opt t.lat cls)
let samples_of t classes = List.concat_map (samples t) classes

(** Send [r] through [send], time it, check it; the answer text when it
    passed. *)
let timed (t : tally) (send : req -> answer) (r : req) : string option =
  let t0 = Proc.now_ns () in
  let a = try send r with e -> { ok = false; text = Printexc.to_string e } in
  let ms = Proc.ms_since t0 in
  t.attempted <- t.attempted + 1;
  t.done_ops <- t.done_ops + 1;
  Hashtbl.replace t.lat r.cls (ms :: samples t r.cls);
  let ok = check_answer r a in
  (match (r.check, r.body) with
  | Oracle, `Read q when ok -> (
      match Hashtbl.find_opt t.answers q with
      | None -> Hashtbl.replace t.answers q (a.text, 1)
      | Some (first, n) ->
          if first = a.text then Hashtbl.replace t.answers q (first, n + 1) else t.failed <- t.failed + 1)
  | _ -> ());
  if not ok then begin
    t.failed <- t.failed + 1;
    if t.failed <= 3 then
      Printf.eprintf "perfbench: %s failed: %s\n%!" r.cls
        (String.sub a.text 0 (min 200 (String.length a.text)))
  end;
  if ok then Some a.text else None

(** Compare every distinct oracle-checked answer with the same query
    run in-process on [db]; a mismatch fails every use of it. *)
let oracle_check (t : tally) (db : Database.t) =
  Hashtbl.iter
    (fun q (text, uses) ->
      let expect = try Value.to_string (Pool_lang.Pool.query db q) with e -> "error: " ^ Printexc.to_string e in
      if expect <> text then begin
        t.failed <- t.failed + uses;
        Printf.eprintf "perfbench: oracle mismatch on %s\n%!" q
      end)
    t.answers

type mode = Browse | Revise

(** Minimum samples per reported class: twice the hundred a p90 needs
    to have ten samples beyond it. *)
let min_samples = 200

let read_classes = function Browse -> browse_read_classes | Revise -> [ "readback" ]

(** Run the workload's stream through [send] until [seconds] have
    passed and every reported class has enough samples (capped at
    [cap_s]); browse stops on block boundaries so each run carries the
    exact mix.  [on_unit] sees the count of browse blocks or revise
    cycles done. *)
let drive ~mode ~seed ~(w : world) ~seconds ~cap_s ?(max_ops = max_int) ?(need_samples = true)
    ?(on_unit = fun _ -> ()) (send : req -> answer) : tally * float =
  let t = tally () in
  let t0 = Proc.now_ns () in
  let enough () =
    (not need_samples)
    ||
    let classes = match mode with Browse -> [ browse_read_classes ] | Revise -> [ [ "readback" ]; [ "write" ] ] in
    List.for_all (fun cs -> List.length (samples_of t cs) >= min_samples) classes
  in
  let go_on () =
    let el = Proc.s_since t0 in
    t.done_ops < max_ops && el < cap_s && (el < seconds || not (enough ()))
  in
  let block f =
    let b0 = Proc.now_ns () and n0 = t.done_ops in
    f ();
    t.blocks <- (float_of_int (t.done_ops - n0) /. Proc.s_since b0) :: t.blocks
  in
  (match mode with
  | Browse ->
      let g = browse_gen ~seed w and blocks = ref 0 in
      while go_on () do
        block (fun () -> Array.iter (fun r -> ignore (timed t send r)) (browse_block g w));
        incr blocks;
        on_unit !blocks
      done
  | Revise ->
      let g = revise_gen ~seed w in
      while go_on () do
        block (fun () ->
            for _ = 1 to List.fold_left (fun a (_, n) -> a + n) 0 revise_mix do
              revise_cycle g w (timed t send);
              on_unit g.r_cycle
            done)
      done);
  (t, Proc.s_since t0)

(* ------------------------------------------------------------------ *)
(* End-to-end run                                                      *)
(* ------------------------------------------------------------------ *)

type env = { work : string; pdb : string }

let setup_reps = 5

(** Store size and peak memory are taken after this many browse blocks
    or revise cycles — reached within [min_samples] — so a faster program
    (more work per run) does not read as a bigger one. *)
let checkpoint = function Browse -> 20 | Revise -> 150

let pct p xs =
  match Util.percentile ~p xs with
  | Some v -> v
  | None -> failwith (Printf.sprintf "p%.0f needs ten samples beyond it (%d samples)" p (List.length xs))

let connect port = C.connect_retry ~port ~attempts:8 ()

(** The curator's client: 2 connections for browse, 1 for revise, used
    in turn, one request outstanding.  Returns the sender and a
    hang-up. *)
let wire_client port mode =
  let conns = Array.init (match mode with Browse -> 2 | Revise -> 1) (fun _ -> connect port) in
  let next = ref 0 in
  let send r =
    let c = conns.(!next mod Array.length conns) in
    incr next;
    match r.body with `Read q -> wire_read c q | `Write target -> wire_write c target
  in
  (send, fun () -> Array.iter C.close conns)

let context_json (w : world) ~mode ~seed =
  Printf.sprintf
    "{\"objects\": %d, \"pages\": %d, \"pager_cache_pages\": 2048, \"fits_cache\": %b, \"seed\": %d, \
     \"connections\": %d, \"loop\": \"closed, one request outstanding\"}"
    w.objects w.pages (w.pages <= 2048) seed (match mode with Browse -> 2 | Revise -> 1)

let run_e2e (e : env) ~mode ~seed ~seconds =
  let path i = Filename.concat e.work (Printf.sprintf "flora%d.db" i) in
  (* set-up, [setup_reps] times: generate the flora, start the server,
     first answer; the last server stays up for the load *)
  let setups = ref [] and world = ref None and server = ref None in
  for i = 1 to setup_reps do
    let t0 = Proc.now_ns () in
    let w = generate ~seed (path i) in
    let s = Proc.spawn ~pdb:e.pdb ~db:(path i) ~log:(Filename.concat e.work "server.log") in
    let c = connect s.Proc.port in
    (match C.query c "count(select c from Context c)" with
    | C.Ok "2" -> ()
    | _ -> failwith "server answered the set-up probe wrongly");
    setups := Proc.s_since t0 :: !setups;
    C.close c;
    if i < setup_reps then begin
      Proc.stop s;
      Proc.remove_db (path i)
    end
    else begin
      world := Some w;
      server := Some s
    end
  done;
  let w = Option.get !world and s = Option.get !server in
  let db_path = path setup_reps in
  let send, hang_up = wire_client s.Proc.port mode in
  let store = ref nan and rss = ref nan in
  let on_unit n =
    if n = checkpoint mode then begin
      store := Proc.store_mib db_path;
      rss := Proc.peak_rss_mib (string_of_int s.Proc.pid)
    end
  in
  let t, _ = drive ~mode ~seed ~w ~seconds ~cap_s:(max 60. (3. *. seconds)) ~on_unit send in
  if Float.is_nan !store then begin
    prerr_endline "perfbench: the run ended before its checkpoint; store and memory taken at its end";
    on_unit (checkpoint mode)
  end;
  hang_up ();
  Proc.stop s;
  (* answers against the in-process oracle on the served file *)
  if mode = Browse then begin
    let db = Database.open_ ~readonly:true db_path in
    oracle_check t db;
    Database.close db
  end;
  (* browse is read-only: its write_p50_ms repeats read_p50_ms, a filler
     the benchmark's format asks for, with no write traffic behind it *)
  let reads = samples_of t (read_classes mode) in
  let writes = match mode with Browse -> reads | Revise -> samples t "write" in
  let m name value = { Util.name; value; unit_ = Spec.unit_of_e2e name } in
  let metrics =
    [
      m "ops_per_s" (Util.median t.blocks);
      m "setup_s" (Util.median !setups);
      m "peak_rss_mib" !rss;
      m "read_p50_ms" (pct 50. reads);
      m "read_p90_ms" (pct 90. reads);
      m "write_p50_ms" (pct 50. writes);
      m "store_mib" !store;
    ]
  in
  let per_class =
    Hashtbl.fold
      (fun cls xs acc ->
        let p q = match Util.percentile ~p:q xs with Some v -> Printf.sprintf "%.3f" v | None -> "null" in
        Printf.sprintf "\"%s\": {\"n\": %d, \"p50_ms\": %.3f, \"p90_ms\": %s, \"p95_ms\": %s, \"p99_ms\": %s}" cls
          (List.length xs) (Util.median xs) (p 90.) (p 95.) (p 99.)
        :: acc)
      t.lat []
  in
  let context =
    Printf.sprintf "%s, \"classes\": {%s}, \"setup_samples_s\": [%s]"
      (let c = context_json w ~mode ~seed in
       String.sub c 0 (String.length c - 1))
      (String.concat ", " (List.sort compare per_class))
      (String.concat ", " (List.map (Printf.sprintf "%.4f") (List.rev !setups)))
    ^ "}"
  in
  (t, metrics, context)

(* ------------------------------------------------------------------ *)
(* Traced replay                                                       *)
(* ------------------------------------------------------------------ *)

(** The per-layer run: a short untraced wire phase (client latency),
    then the same requests replayed in-process untraced and traced on
    fresh copies of the flora (the difference is the tracing overhead),
    and a replicated replay feeding a replica. *)
let run_trace (e : env) ~mode ~seed ~seconds =
  let file name = Filename.concat e.work name in
  let base = file "flora_base.db" in
  let w = generate ~seed base in
  let fresh name =
    let p = file name in
    Proc.remove_db p;
    Proc.copy_file base p;
    p
  in
  let cap_s = max 60. (3. *. seconds) in
  (* 1. over the wire, tracing off *)
  let s = Proc.spawn ~pdb:e.pdb ~db:(fresh "wire.db") ~log:(file "server.log") in
  let send, hang_up = wire_client s.Proc.port mode in
  let t_wire, _ = drive ~mode ~seed ~w ~seconds:(0.3 *. seconds) ~cap_s ~need_samples:false send in
  hang_up ();
  Proc.stop s;
  let n = t_wire.done_ops in
  let client_p50 = Util.median (samples_of t_wire (read_classes mode)) in
  (* 2. in-process, in the order untraced, traced, traced, untraced so
     that warm-up and heap growth fall on both sides alike *)
  let replay ~traced name =
    let path = fresh name in
    if traced then T.enabled := true;
    let t0 = Proc.now_ns () in
    let db = T.with_span "model.open" (fun () -> Database.open_ path) in
    let c0 = Layers.counters db in
    let t, _ =
      drive ~mode ~seed ~w ~seconds:infinity ~cap_s ~max_ops:n (fun r ->
          if traced then
            T.with_span "request" ~attrs:[ ("class", r.cls) ] (fun () -> local_exec ~traced:true db r)
          else local_exec db r)
    in
    let wall = Proc.s_since t0 in
    T.enabled := false;
    (db, t, wall, c0, Layers.counters db)
  in
  let close (db, t, wall, _, _) =
    Database.close db;
    (t, wall)
  in
  let t_u1, wall_u1 = close (replay ~traced:false "untraced1.db") in
  let (db, t_t, wall_t1, c0, c1), spans = Layers.traced (fun () -> replay ~traced:true "traced1.db") in
  (* the graph layer alone: warm descendants() over the hottest genera *)
  let (), traverse =
    Layers.traced (fun () ->
        let top = Array.sub (browse_gen ~seed w).b_hot 0 32 in
        Array.iter
          (fun context ->
            ignore (Pgraph.Traverse.descendants db ~context ~rel w.genera.(top.(0)).g_taxon);
            Array.iter
              (fun gi ->
                ignore
                  (T.with_span "graph.traverse" (fun () ->
                       Pgraph.Traverse.descendants db ~context ~rel w.genera.(gi).g_taxon)))
              top)
          w.ctxs)
  in
  Database.close db;
  let t_t2, wall_t2 = close (replay ~traced:true "traced2.db") in
  let t_u2, wall_u2 = close (replay ~traced:false "untraced2.db") in
  (* 3. replicated: a Feed on the store, and a replica file beside it
     applying every record the feed captures *)
  let db = Database.open_ (fresh "replicated.db") in
  let feed = Prepl.Feed.create (Database.store db) in
  let replica_path = file "replica.db" in
  Proc.remove_db replica_path;
  let replica = Prepl.Replica.Apply.create replica_path in
  (let lsn, data = Prepl.Feed.snapshot feed in
   Prepl.Replica.Apply.install_snapshot replica ~stream_id:(Prepl.Feed.stream_id feed) ~lsn ~data);
  let applied = ref (Prepl.Feed.lsn feed) and shipped = ref 0 and records = ref 0 in
  let apply_us = ref [] and logical = ref 0 in
  let size oid = match Database.get db oid with Some o -> String.length (Obj.encode o) | None -> 0 in
  let c_r0 = Layers.counters db in
  let send_repl r =
    let before =
      match r.body with
      | `Write target when String.length target > 7 && String.sub target 0 7 = "/unlink" -> (
          match H.split_target target with
          | _, [ ("oid", o) ] -> size (int_of_string o)
          | _ -> 0)
      | _ -> 0
    in
    let a = local_exec db r in
    (match r.body with
    | `Write target ->
        let after =
          match created_oid a.text with
          | Some oid -> size oid
          | None -> (
              match H.split_target target with
              | "/update", ps -> size (int_of_string (List.assoc "oid" ps))
              | _ -> 0)
        in
        logical := !logical + before + after
    | `Read _ -> ());
    List.iter
      (fun (rc : Prepl.Feed.record) ->
        shipped :=
          !shipped
          + String.length (Prepl.Wire.encode (Prepl.Wire.Delta { lsn = rc.Prepl.Feed.r_lsn; pages = rc.r_pages }));
        incr records;
        let t0 = Proc.now_ns () in
        ignore (Prepl.Replica.Apply.apply_delta replica ~lsn:rc.r_lsn ~pages:rc.r_pages);
        apply_us := (float_of_int (Proc.now_ns () - t0) /. 1e3) :: !apply_us;
        applied := rc.r_lsn)
      (Prepl.Feed.deltas_after feed ~after:!applied);
    a
  in
  let t_r, _ = drive ~mode ~seed ~w ~seconds:infinity ~cap_s ~max_ops:(min n 600) send_repl in
  let c_r1 = Layers.counters db in
  let replica_lsn = Prepl.Replica.Apply.last_lsn replica in
  Prepl.Feed.detach feed;
  Prepl.Replica.Apply.close replica;
  let primary_lsn = Pstore.Store.lsn (Database.store db) in
  Database.close db;
  (* the per-layer figures *)
  let root = Layers.root_of spans in
  let cls_of s = Option.value ~default:"" (Layers.attr "class" (root s)) in
  let reqs = Layers.named "request" spans in
  let n_req = List.length reqs in
  let is_write s = cls_of s = "write" in
  let n_writes = List.length (List.filter is_write reqs) in
  let n_reads = n_req - n_writes in
  let dispatch = Layers.named "server.dispatch" spans in
  let dispatch_p50 =
    Util.median (Layers.durs_ms (List.filter (fun s -> List.mem (cls_of s) (read_classes mode)) dispatch))
  in
  let exec = Layers.named "pool.exec" spans in
  let d f = f c1 - f c0 in
  let dr f = f c_r1 - f c_r0 in
  let layer =
    [
      ( "server.codec_us",
        1e3 *. List.fold_left ( +. ) 0. (Layers.durs_ms (Layers.named "server.codec" spans)) /. float_of_int n_req );
      ("server.dispatch_ms", Layers.mean_ms dispatch);
      ("server.wire_overhead_ms", client_p50 -. dispatch_p50);
      ("pool.parse_us", 1e3 *. Layers.mean_ms (Layers.named "pool.parse" spans));
    ]
    @ List.map
        (fun c -> ("pool.exec_ms." ^ c, Layers.mean_ms (List.filter (fun s -> cls_of s = c) exec)))
        (List.filter
           (fun c -> List.exists (fun s -> cls_of s = c) exec)
           Spec.exec_classes)
    @ [
        ( "pool.plan_cache_hit_ratio",
          Layers.ratio_i (d (fun c -> c.Layers.plan_hits))
            (d (fun c -> c.Layers.plan_hits) + d (fun c -> c.Layers.plan_misses)) );
        ("pool.extent_scans_per_request", Layers.ratio_i (d (fun c -> c.Layers.extent_scans)) n_reads);
        ("graph.csr_builds_per_1k_requests", 1000. *. Layers.ratio_i (d (fun c -> c.Layers.csr_builds)) n_req);
        ( "graph.csr_build_ms",
          Layers.ratio (c1.Layers.csr_ns -. c0.Layers.csr_ns) (float_of_int (d (fun c -> c.Layers.csr_n))) /. 1e6 );
        ("graph.traverse_us", 1e3 *. Layers.mean_ms (Layers.named "graph.traverse" traverse));
        ("model.mutation_us", 1e3 *. Layers.mean_ms (Layers.named "model.mutation" spans));
        ("model.commit_ms", Layers.mean_ms (Layers.named "model.commit" spans));
        ("model.open_s", Layers.mean_ms (Layers.named "model.open" spans) /. 1e3);
        ("event.deliveries_per_write", Layers.ratio (c1.Layers.deliv -. c0.Layers.deliv) (float_of_int n_writes));
        ( "storage.fsync_ms",
          Layers.ratio (c1.Layers.fsync_sum -. c0.Layers.fsync_sum) (float_of_int (d (fun c -> c.Layers.fsync_n)))
          /. 1e6 );
        ("storage.page_writes_per_commit", Layers.ratio_i (d (fun c -> c.Layers.writes)) n_writes);
        ("storage.journal_bytes_per_commit", Layers.ratio_i (d (fun c -> c.Layers.journal)) n_writes);
        ( "storage.write_amp",
          Layers.ratio_i ((dr (fun c -> c.Layers.writes) * Pstore.Pager.page_size) + dr (fun c -> c.Layers.journal)) !logical
        );
        ( "storage.cache_hit_ratio",
          Layers.ratio_i (d (fun c -> c.Layers.hits)) (d (fun c -> c.Layers.hits) + d (fun c -> c.Layers.misses)) );
        ("storage.evictions_per_op", Layers.ratio_i (d (fun c -> c.Layers.evictions)) n_req);
        ("storage.page_reads_per_op", Layers.ratio_i (d (fun c -> c.Layers.reads)) n_req);
        ("repl.ship_bytes_per_commit", Layers.ratio_i !shipped !records);
        ("repl.apply_us_per_record", Util.mean !apply_us);
        ("trace.overhead_ratio", (wall_t1 +. wall_t2) /. (wall_u1 +. wall_u2));
      ]
  in
  (* a read-only stream measures nothing on the write side: leave those
     figures out, and [Layers.complete] names them as not exercised *)
  let write_side =
    [
      "model.mutation_us";
      "model.commit_ms";
      "event.deliveries_per_write";
      "storage.fsync_ms";
      "storage.page_writes_per_commit";
      "storage.journal_bytes_per_commit";
      "storage.write_amp";
      "repl.ship_bytes_per_commit";
      "repl.apply_us_per_record";
    ]
  in
  let layer = if n_writes = 0 then List.filter (fun (k, _) -> not (List.mem k write_side)) layer else layer in
  (* the replays must agree with each other and the replica with its primary *)
  let t = tally () in
  List.iter
    (fun (x : tally) ->
      t.attempted <- t.attempted + x.attempted;
      t.failed <- t.failed + x.failed)
    [ t_wire; t_u1; t_t; t_t2; t_u2; t_r ];
  if List.exists (fun (x : tally) -> x.done_ops <> n) [ t_u1; t_t; t_t2; t_u2 ] then t.failed <- t.failed + 1;
  if replica_lsn <> primary_lsn then begin
    Printf.eprintf "perfbench: replica at lsn %d, primary at %d\n%!" replica_lsn primary_lsn;
    t.failed <- t.failed + 1
  end;
  let context =
    let c = context_json w ~mode ~seed in
    Printf.sprintf
      "%s, \"replayed_requests\": %d, \"replay_s\": {\"untraced\": [%.4f, %.4f], \"traced\": [%.4f, %.4f]}, \
       \"spans\": %d}"
      (String.sub c 0 (String.length c - 1))
      n wall_u1 wall_u2 wall_t1 wall_t2 (List.length spans)
  in
  (t, layer, context)
