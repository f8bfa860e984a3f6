(** OO7 database generation on Prometheus (first-class relationships). *)

open Pmodel
module S = Oo7_schema

let vint i = Value.VInt i
let vstr s = Value.VString s

(** Build an OO7 database in [db]; the schema must be installed.
    Deterministic for a given [params.seed]. *)
let generate (db : Database.t) (p : S.params) : S.handles =
  let rng = Random.State.make [| p.S.seed |] in
  let next_id = ref 0 in
  let id () =
    incr next_id;
    !next_id
  in
  let atomics = ref [] in
  let documents = ref [] in
  (* composite parts with their atomic-part graphs *)
  let composites =
    Array.init p.S.num_comp_per_module (fun _ ->
        let comp =
          Database.create db S.composite_part
            [ ("id", vint (id ())); ("buildDate", vint (Random.State.int rng 10000)) ]
        in
        let doc =
          Database.create db S.document
            [
              ("title", vstr (Printf.sprintf "Composite Part %d" comp));
              ("text", vstr (String.make p.S.doc_size 'd'));
            ]
        in
        documents := doc :: !documents;
        ignore (Database.link db S.has_doc ~origin:comp ~destination:doc);
        let parts =
          Array.init p.S.num_atomic_per_comp (fun _ ->
              let a =
                Database.create db S.atomic_part
                  [
                    ("id", vint (id ()));
                    ("x", vint (Random.State.int rng 100000));
                    ("y", vint (Random.State.int rng 100000));
                    ("buildDate", vint (Random.State.int rng 10000));
                  ]
              in
              ignore (Database.link db S.has_part ~origin:comp ~destination:a);
              atomics := a :: !atomics;
              a)
        in
        ignore (Database.link db S.root_part ~origin:comp ~destination:parts.(0));
        (* connections: ring plus random chords, as in OO7 *)
        let n = Array.length parts in
        Array.iteri
          (fun i a ->
            for k = 0 to p.S.num_conn_per_atomic - 1 do
              let target = if k = 0 then parts.((i + 1) mod n) else parts.(Random.State.int rng n) in
              ignore
                (Database.link db S.connects ~origin:a ~destination:target
                   ~attrs:
                     [ ("ctype", vstr "wire"); ("length", vint (Random.State.int rng 1000)) ])
            done)
          parts;
        comp)
  in
  (* assembly hierarchy *)
  let base_assemblies = ref [] in
  let rec build_assembly level =
    if level >= p.S.num_assm_levels then begin
      let ba = Database.create db S.base_assembly [ ("id", vint (id ())) ] in
      base_assemblies := ba :: !base_assemblies;
      for _ = 1 to p.S.num_comp_per_assm do
        let comp = composites.(Random.State.int rng (Array.length composites)) in
        let rel = if Random.State.bool rng then S.uses_shared else S.uses_private in
        (* the same composite may already be linked to this assembly:
           skip duplicates to keep generation idempotent *)
        if not (List.mem comp (Database.targets db ~rel_name:rel ba)) then
          ignore (Database.link db rel ~origin:ba ~destination:comp)
      done;
      ba
    end
    else begin
      let ca = Database.create db S.complex_assembly [ ("id", vint (id ())) ] in
      for _ = 1 to p.S.num_assm_per_assm do
        let child = build_assembly (level + 1) in
        ignore (Database.link db S.sub_assembly ~origin:ca ~destination:child)
      done;
      ca
    end
  in
  let root = build_assembly 1 in
  let module_oid = Database.create db S.module_cls [ ("id", vint (id ())) ] in
  ignore (Database.link db S.design_root ~origin:module_oid ~destination:root);
  {
    S.module_oid;
    root_assembly = root;
    base_assemblies = Array.of_list (List.rev !base_assemblies);
    composites;
    atomics = Array.of_list (List.rev !atomics);
    documents = Array.of_list (List.rev !documents);
  }
