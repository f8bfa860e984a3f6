(** OO7 benchmark operations, implemented twice:

    - {!Prom}: over Prometheus first-class relationships (the system
      under evaluation);
    - {!Raw}: over the raw store with embedded references (the
      underlying-storage baseline).

    The operation set mirrors the thesis's three groups (7.2.1.2):
    raw performance (traversals T1–T6), queries (Q1–Q8 subset) and
    structural modifications (S1 insert, S2 delete).  The exact
    workload definitions are recorded in EXPERIMENTS.md. *)

open Pmodel
module S = Oo7_schema

let vint i = Value.VInt i

(* ==================================================================== *)
(* Prometheus backend                                                    *)
(* ==================================================================== *)

module Prom = struct
  type ctx = { db : Database.t; h : S.handles }

  let components db ba =
    Database.targets db ~rel_name:S.uses_private ba @ Database.targets db ~rel_name:S.uses_shared ba

  let rec assemblies db a acc =
    match Database.class_of db a with
    | Some c when c = S.complex_assembly ->
        List.fold_left
          (fun acc sub -> assemblies db sub acc)
          acc
          (Database.targets db ~rel_name:S.sub_assembly a)
    | Some c when c = S.base_assembly -> a :: acc
    | _ -> acc

  let base_assemblies { db; h } =
    match Database.targets db ~rel_name:S.design_root h.S.module_oid with
    | root :: _ -> assemblies db root []
    | [] -> []

  let dfs_composite db comp (f : int -> unit) : int =
    match Database.targets db ~rel_name:S.root_part comp with
    | [] -> 0
    | root :: _ ->
        let visited = Hashtbl.create 64 in
        let count = ref 0 in
        let rec go a =
          if not (Hashtbl.mem visited a) then begin
            Hashtbl.replace visited a ();
            incr count;
            f a;
            List.iter go (Database.targets db ~rel_name:S.connects a)
          end
        in
        go root;
        !count

  (** T1: full traversal — assemblies to composite parts to the atomic
      part graph; returns the number of atomic-part visits. *)
  let t1 ({ db; _ } as c) : int =
    List.fold_left
      (fun acc ba ->
        List.fold_left (fun acc comp -> acc + dfs_composite db comp (fun _ -> ())) acc
          (components db ba))
      0 (base_assemblies c)

  (** T2: full traversal with an update (swap x and y) on every atomic
      part visited. *)
  let t2 ({ db; _ } as c) : int =
    List.fold_left
      (fun acc ba ->
        List.fold_left
          (fun acc comp ->
            acc
            + dfs_composite db comp (fun a ->
                  let x = Database.get_attr db a "x" and y = Database.get_attr db a "y" in
                  Database.update db a "x" y;
                  Database.update db a "y" x))
          acc (components db ba))
      0 (base_assemblies c)

  (** T3: traversal updating the (possibly indexed) buildDate. *)
  let t3 ({ db; _ } as c) : int =
    List.fold_left
      (fun acc ba ->
        List.fold_left
          (fun acc comp ->
            acc
            + dfs_composite db comp (fun a ->
                  match Database.get_attr db a "buildDate" with
                  | Value.VInt d -> Database.update db a "buildDate" (vint (d + 1))
                  | _ -> ()))
          acc (components db ba))
      0 (base_assemblies c)

  (** T5: the figure-44 traversal — like T1 but touching composites
      once each (visits every composite's atomic graph exactly once,
      independent of assembly sharing), so its cost is proportional to
      database size. *)
  let t5 { db; h } : int =
    Array.fold_left (fun acc comp -> acc + dfs_composite db comp (fun _ -> ())) 0 h.S.composites

  (** T6: traversal touching only composite roots. *)
  let t6 ({ db; _ } as c) : int =
    List.fold_left
      (fun acc ba ->
        List.fold_left
          (fun acc comp ->
            acc + match Database.targets db ~rel_name:S.root_part comp with [] -> 0 | _ -> 1)
          acc (components db ba))
      0 (base_assemblies c)

  (** Q1: exact-match lookups of [n] atomic parts by id (uses the
      secondary index when one has been created). *)
  let q1 { db; h } ~n : int =
    let total = Array.length h.S.atomics in
    let found = ref 0 in
    for k = 1 to n do
      let target_id = Database.get_attr db h.S.atomics.(k * total / (n + 1)) "id" in
      match Database.index_lookup db S.atomic_part "id" target_id with
      | Some s -> if not (Database.OidSet.is_empty s) then incr found
      | None ->
          (* extent scan *)
          if
            Database.fold_extent db S.atomic_part
              (fun hit a -> hit || Database.get_attr db a "id" = target_id)
              false
          then incr found
    done;
    !found

  (** Q2/Q3: range selection on buildDate covering [pct] percent. *)
  let q_range { db; h } ~pct : int =
    ignore h;
    let lo = 0 and hi = 10000 * pct / 100 in
    let n = ref 0 in
    Database.iter_extent db S.atomic_part (fun a ->
        match Database.get_attr db a "buildDate" with
        | Value.VInt d when d >= lo && d < hi -> incr n
        | _ -> ());
    !n

  (** Q4: document title lookup. *)
  let q4 { db; h } : int =
    let title = Database.get_attr db h.S.documents.(Array.length h.S.documents / 2) "title" in
    let n = ref 0 in
    Database.iter_extent db S.document (fun d ->
        if Database.get_attr db d "title" = title then incr n);
    !n

  (** Q7: full extent scan of atomic parts (reads an attribute of each,
      like a projection would). *)
  let q7 { db; _ } : int =
    let n = ref 0 in
    Database.iter_extent db S.atomic_part (fun a ->
        match Database.get_attr db a "id" with Value.VInt _ -> incr n | _ -> ());
    !n

  (** Q8: navigation join — atomic parts whose composite's document is
      longer than [len]. *)
  let q8 { db; _ } ~len : int =
    let n = ref 0 in
    Database.iter_extent db S.composite_part (fun comp ->
        match Database.targets db ~rel_name:S.has_doc comp with
        | doc :: _ -> (
            match Database.get_attr db doc "text" with
            | Value.VString t when String.length t > len ->
                n := !n + List.length (Database.targets db ~rel_name:S.has_part comp)
            | _ -> ())
        | [] -> ());
    !n

  (** A POOL version of Q7, exercising the query layer end to end. *)
  let q7_pool { db; _ } : int =
    match Pool_lang.Pool.query db "count(select a from AtomicPart a)" with
    | Value.VInt n -> n
    | _ -> 0

  (** S1: structural insert — create [k] composite parts (document +
      atomic graph) and attach each to a random base assembly.
      Returns the new composite oids (for S2). *)
  let s1 ({ db; h } as c) ~k ~parts_per_comp : int list =
    let rng = Random.State.make [| 99 |] in
    ignore h;
    let bas = Array.of_list (base_assemblies c) in
    List.init k (fun _ ->
        let comp = Database.create db S.composite_part [ ("id", vint 0); ("buildDate", vint 1) ] in
        let doc = Database.create db S.document [ ("title", Value.VString "new"); ("text", Value.VString "t") ] in
        ignore (Database.link db S.has_doc ~origin:comp ~destination:doc);
        let parts =
          Array.init parts_per_comp (fun i ->
              let a =
                Database.create db S.atomic_part
                  [ ("id", vint 0); ("x", vint i); ("y", vint i); ("buildDate", vint 1) ]
              in
              ignore (Database.link db S.has_part ~origin:comp ~destination:a);
              a)
        in
        ignore (Database.link db S.root_part ~origin:comp ~destination:parts.(0));
        Array.iteri
          (fun i a ->
            ignore
              (Database.link db S.connects ~origin:a
                 ~destination:parts.((i + 1) mod parts_per_comp)))
          parts;
        let ba = bas.(Random.State.int rng (Array.length bas)) in
        ignore (Database.link db S.uses_private ~origin:ba ~destination:comp);
        comp)

  (** S2: structural delete — remove composites; lifetime dependency
      cascades to their parts and documents automatically. *)
  let s2 { db; _ } comps : unit = List.iter (fun c -> Database.delete db c) comps
end

(* ==================================================================== *)
(* Raw-store backend                                                    *)
(* ==================================================================== *)

module Raw = struct
  type ctx = { t : Oo7_raw.t; h : S.handles }

  let rec assemblies t a acc =
    let o = Oo7_raw.get t a in
    if o.Obj.class_name = S.complex_assembly then
      List.fold_left (fun acc c -> assemblies t c acc) acc (Oo7_raw.refs t a "sub")
    else a :: acc

  let base_assemblies { t; h } =
    match Oo7_raw.refs t h.S.module_oid "designRoot" with
    | r :: _ -> assemblies t r []
    | [] -> []

  let dfs_composite t comp (f : int -> unit) : int =
    match Oo7_raw.refs t comp "rootPart" with
    | [] -> 0
    | root :: _ ->
        let visited = Hashtbl.create 64 in
        let count = ref 0 in
        let rec go a =
          if not (Hashtbl.mem visited a) then begin
            Hashtbl.replace visited a ();
            incr count;
            f a;
            List.iter go (Oo7_raw.refs t a "conns")
          end
        in
        go root;
        !count

  let t1 ({ t; _ } as c) : int =
    List.fold_left
      (fun acc ba ->
        List.fold_left
          (fun acc comp -> acc + dfs_composite t comp (fun _ -> ()))
          acc (Oo7_raw.refs t ba "components"))
      0 (base_assemblies c)

  let t2 ({ t; _ } as c) : int =
    List.fold_left
      (fun acc ba ->
        List.fold_left
          (fun acc comp ->
            acc
            + dfs_composite t comp (fun a ->
                  let x = Oo7_raw.get_attr t a "x" and y = Oo7_raw.get_attr t a "y" in
                  Oo7_raw.set t a "x" y;
                  Oo7_raw.set t a "y" x))
          acc (Oo7_raw.refs t ba "components"))
      0 (base_assemblies c)

  let t3 ({ t; _ } as c) : int =
    List.fold_left
      (fun acc ba ->
        List.fold_left
          (fun acc comp ->
            acc
            + dfs_composite t comp (fun a ->
                  match Oo7_raw.get_attr t a "buildDate" with
                  | Value.VInt d -> Oo7_raw.set t a "buildDate" (vint (d + 1))
                  | _ -> ()))
          acc (Oo7_raw.refs t ba "components"))
      0 (base_assemblies c)

  let t5 { t; h } : int =
    Array.fold_left (fun acc comp -> acc + dfs_composite t comp (fun _ -> ())) 0 h.S.composites

  let t6 ({ t; _ } as c) : int =
    List.fold_left
      (fun acc ba ->
        List.fold_left
          (fun acc comp -> acc + match Oo7_raw.refs t comp "rootPart" with [] -> 0 | _ -> 1)
          acc (Oo7_raw.refs t ba "components"))
      0 (base_assemblies c)

  let q1 { t; h } ~n : int =
    let total = Array.length h.S.atomics in
    let found = ref 0 in
    for k = 1 to n do
      let target_id = Oo7_raw.get_attr t h.S.atomics.(k * total / (n + 1)) "id" in
      if Array.exists (fun a -> Oo7_raw.get_attr t a "id" = target_id) h.S.atomics then
        incr found
    done;
    !found

  let q_range { t; h } ~pct : int =
    let lo = 0 and hi = 10000 * pct / 100 in
    Array.fold_left
      (fun acc a ->
        match Oo7_raw.get_attr t a "buildDate" with
        | Value.VInt d when d >= lo && d < hi -> acc + 1
        | _ -> acc)
      0 h.S.atomics

  let q4 { t; h } : int =
    let title = Oo7_raw.get_attr t h.S.documents.(Array.length h.S.documents / 2) "title" in
    Array.fold_left
      (fun acc d -> if Oo7_raw.get_attr t d "title" = title then acc + 1 else acc)
      0 h.S.documents

  let q7 { t; h } : int =
    Array.fold_left
      (fun acc a -> match Oo7_raw.get_attr t a "id" with Value.VInt _ -> acc + 1 | _ -> acc)
      0 h.S.atomics

  let q8 { t; h } ~len : int =
    Array.fold_left
      (fun acc comp ->
        match Oo7_raw.refs t comp "doc" with
        | doc :: _ -> (
            match Oo7_raw.get_attr t doc "text" with
            | Value.VString s when String.length s > len ->
                acc + List.length (Oo7_raw.refs t comp "parts")
            | _ -> acc)
        | [] -> acc)
      0 h.S.composites

  let s1 ({ t; _ } as c) ~k ~parts_per_comp : int list =
    let rng = Random.State.make [| 99 |] in
    let bas = Array.of_list (base_assemblies c) in
    List.init k (fun _ ->
        let doc = Oo7_raw.create t S.document [ ("title", Value.VString "new"); ("text", Value.VString "t") ] in
        let parts =
          Array.init parts_per_comp (fun i ->
              Oo7_raw.create t S.atomic_part
                [ ("id", vint 0); ("x", vint i); ("y", vint i); ("buildDate", vint 1); ("conns", Value.VList []) ])
        in
        Array.iteri
          (fun i a -> Oo7_raw.push_ref t a "conns" parts.((i + 1) mod parts_per_comp))
          parts;
        let comp =
          Oo7_raw.create t S.composite_part
            [
              ("id", vint 0);
              ("buildDate", vint 1);
              ("doc", Value.VRef doc);
              ("rootPart", Value.VRef parts.(0));
              ("parts", Value.VList (Array.to_list (Array.map (fun a -> Value.VRef a) parts)));
            ]
        in
        let ba = bas.(Random.State.int rng (Array.length bas)) in
        Oo7_raw.push_ref t ba "components" comp;
        comp)

  (** Raw delete must do by hand what lifetime dependency automates:
      delete parts and document, then scrub the assembly references. *)
  let s2 ({ t; _ } as c) comps : unit =
    let bas = base_assemblies c in
    List.iter
      (fun comp ->
        List.iter (fun a -> Oo7_raw.delete t a) (Oo7_raw.refs t comp "parts");
        List.iter (fun d -> Oo7_raw.delete t d) (Oo7_raw.refs t comp "doc");
        List.iter
          (fun ba ->
            if List.mem comp (Oo7_raw.refs t ba "components") then
              Oo7_raw.remove_ref t ba "components" comp)
          bas;
        Oo7_raw.delete t comp)
      comps
end
