(* Property-based tests over the core data structures and invariants:
   value serialisation, value ordering, schema round-trips, graph
   dualities, the adjacency walk against the list-based oracle,
   derivation determinism, synonymy symmetry, and POOL
   algebraic laws. *)

open Pmodel
module V = Value
module OidSet = Database.OidSet

let tmp_counter = ref 0

let tmp_path () =
  incr tmp_counter;
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "prom_prop_%d_%d.db" (Unix.getpid ()) !tmp_counter)

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

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let value_gen : V.t QCheck.Gen.t =
  let open QCheck.Gen in
  sized (fun size ->
      fix
        (fun self size ->
          let scalar =
            oneof
              [
                return V.VNull;
                map (fun i -> V.VInt i) small_signed_int;
                map (fun f -> V.VFloat f) (float_bound_inclusive 1000.);
                map (fun s -> V.VString s) (string_size (int_bound 12));
                map (fun b -> V.VBool b) bool;
                map3 (fun y m d -> V.VDate (V.date ~month:(1 + m) ~day:(1 + d) y))
                  (int_range 1700 2100) (int_bound 11) (int_bound 27);
                map (fun o -> V.VRef (1 + o)) (int_bound 10000);
              ]
          in
          if size <= 1 then scalar
          else
            frequency
              [
                (4, scalar);
                (1, map (fun l -> V.VList l) (list_size (int_bound 4) (self (size / 2))));
                (1, map V.vset (list_size (int_bound 4) (self (size / 2))));
                (1, map V.vbag (list_size (int_bound 4) (self (size / 2))));
              ])
        (min size 12))

let value_arb = QCheck.make ~print:V.to_string value_gen

let ty_gen : V.ty QCheck.Gen.t =
  let open QCheck.Gen in
  sized
    (fix (fun self size ->
         let base =
           oneofl [ V.TInt; V.TFloat; V.TString; V.TBool; V.TDate; V.TRef "Object"; V.TAny ]
         in
         if size <= 1 then base
         else
           frequency
             [
               (4, base);
               (1, map (fun t -> V.TList t) (self (size / 2)));
               (1, map (fun t -> V.TSet t) (self (size / 2)));
               (1, map (fun t -> V.TBag t) (self (size / 2)));
             ]))

(* ------------------------------------------------------------------ *)
(* Value properties                                                    *)
(* ------------------------------------------------------------------ *)

let prop_value_roundtrip =
  QCheck.Test.make ~name:"value encode/decode roundtrip" ~count:500 value_arb (fun v ->
      let e = Pstore.Codec.Enc.create () in
      V.encode e v;
      let d = Pstore.Codec.Dec.of_string (Pstore.Codec.Enc.to_string e) in
      V.equal_value v (V.decode d))

let prop_ty_roundtrip =
  QCheck.Test.make ~name:"type encode/decode roundtrip" ~count:300 (QCheck.make ty_gen)
    (fun t ->
      let e = Pstore.Codec.Enc.create () in
      V.encode_ty e t;
      let d = Pstore.Codec.Dec.of_string (Pstore.Codec.Enc.to_string e) in
      V.decode_ty d = t)

let prop_compare_reflexive =
  QCheck.Test.make ~name:"compare_value reflexive" ~count:300 value_arb (fun v ->
      V.compare_value v v = 0)

let prop_compare_antisymmetric =
  QCheck.Test.make ~name:"compare_value antisymmetric" ~count:300 (QCheck.pair value_arb value_arb)
    (fun (a, b) ->
      let ab = V.compare_value a b and ba = V.compare_value b a in
      (ab = 0 && ba = 0) || (ab > 0 && ba < 0) || (ab < 0 && ba > 0))

let prop_compare_transitive =
  QCheck.Test.make ~name:"compare_value transitive (sampled)" ~count:300
    (QCheck.triple value_arb value_arb value_arb) (fun (a, b, c) ->
      let sorted = List.sort V.compare_value [ a; b; c ] in
      match sorted with
      | [ x; y; z ] -> V.compare_value x y <= 0 && V.compare_value y z <= 0 && V.compare_value x z <= 0
      | _ -> false)

let prop_vset_idempotent =
  QCheck.Test.make ~name:"vset is sorted, unique, idempotent" ~count:300
    (QCheck.list_of_size QCheck.Gen.(int_bound 8) value_arb) (fun l ->
      match V.vset l with
      | V.VSet items ->
          let again = match V.vset items with V.VSet i -> i | _ -> [] in
          let sorted = List.sort_uniq V.compare_value l in
          List.length items = List.length sorted && again = items
      | _ -> false)

let prop_obj_roundtrip =
  QCheck.Test.make ~name:"object encode/decode roundtrip" ~count:300
    (QCheck.list_of_size
       QCheck.Gen.(int_bound 6)
       (QCheck.pair (QCheck.make QCheck.Gen.(string_size ~gen:(char_range 'a' 'z') (int_range 1 8))) value_arb))
    (fun attrs ->
      let o = Obj.make ~oid:42 ~class_name:"Probe" attrs in
      let o' = Obj.decode ~oid:42 (Obj.encode o) in
      o'.Obj.class_name = "Probe"
      && List.for_all (fun (k, _) -> V.equal_value (Obj.get o k) (Obj.get o' k)) attrs)

(* ------------------------------------------------------------------ *)
(* Schema round-trip                                                   *)
(* ------------------------------------------------------------------ *)

let prop_schema_roundtrip =
  QCheck.Test.make ~name:"schema encode/decode roundtrip" ~count:50
    QCheck.(pair (int_range 1 6) (int_range 0 4))
    (fun (nclasses, nrels) ->
      let s = Meta.empty () in
      for i = 1 to nclasses do
        let supers = if i > 1 && i mod 2 = 0 then [ Printf.sprintf "C%d" (i - 1) ] else [] in
        ignore
          (Meta.define_class s ~supers (Printf.sprintf "C%d" i)
             [ Meta.attr "a" V.TInt; Meta.attr "b" (V.TSet (V.TRef "Object")) ])
      done;
      for i = 1 to min nrels nclasses do
        ignore
          (Meta.define_rel s (Printf.sprintf "R%d" i) ~origin:(Printf.sprintf "C%d" i)
             ~destination:"C1" ~kind:Meta.Aggregation ~exclusive:(i mod 2 = 0)
             ~attrs:[ Meta.attr "w" V.TInt ])
      done;
      let s2 = Meta.empty () in
      Meta.decode_into s2 (Meta.encode s);
      List.for_all
        (fun (c : Meta.class_def) -> Meta.find_class s2 c.Meta.class_name = Some c)
        (Meta.classes s)
      && List.for_all (fun (r : Meta.rel_def) -> Meta.find_rel s2 r.Meta.rel_name = Some r)
           (Meta.rels s))

(* ------------------------------------------------------------------ *)
(* Graph properties on random DAGs                                     *)
(* ------------------------------------------------------------------ *)

(* build a random DAG over n nodes: edges only i -> j with i < j *)
let build_dag db n (edges : (int * int) list) =
  ignore (Database.define_class db "GNode" [ Meta.attr "i" V.TInt ]);
  ignore (Database.define_rel db "GEdge" ~origin:"GNode" ~destination:"GNode");
  let nodes = Array.init n (fun i -> Database.create db "GNode" [ ("i", V.VInt i) ]) in
  List.iter
    (fun (i, j) ->
      if i <> j then
        let i, j = if i < j then (i, j) else (j, i) in
        if
          not
            (List.exists
               (fun (r : Obj.t) -> Obj.destination r = nodes.(j))
               (Database.outgoing db ~rel_name:"GEdge" nodes.(i)))
        then ignore (Database.link db "GEdge" ~origin:nodes.(i) ~destination:nodes.(j)))
    edges;
  nodes

let dag_gen =
  QCheck.make
    ~print:(fun (n, es) ->
      Printf.sprintf "n=%d edges=[%s]" n
        (String.concat ";" (List.map (fun (a, b) -> Printf.sprintf "%d-%d" a b) es)))
    QCheck.Gen.(
      int_range 2 10 >>= fun n ->
      list_size (int_bound 20) (pair (int_bound (n - 1)) (int_bound (n - 1))) >>= fun es ->
      return (n, es))

let prop_closure_is_descendants_plus_root =
  QCheck.Test.make ~name:"closure = descendants + root" ~count:60 dag_gen (fun (n, es) ->
      with_db (fun db ->
          let nodes = build_dag db n es in
          Array.for_all
            (fun v ->
              let c = Pgraph.Traverse.closure db ~rel:"GEdge" v in
              let d = Pgraph.Traverse.descendants db ~rel:"GEdge" v in
              OidSet.equal c (OidSet.add v d))
            nodes))

let prop_ancestors_descendants_dual =
  QCheck.Test.make ~name:"u in descendants(v) iff v in ancestors(u)" ~count:60 dag_gen
    (fun (n, es) ->
      with_db (fun db ->
          let nodes = build_dag db n es in
          Array.for_all
            (fun v ->
              OidSet.for_all
                (fun u -> OidSet.mem v (Pgraph.Traverse.ancestors db ~rel:"GEdge" u))
                (Pgraph.Traverse.descendants db ~rel:"GEdge" v))
            nodes))

let prop_dag_has_no_cycle =
  QCheck.Test.make ~name:"generated DAGs are acyclic; adding a back edge creates a cycle"
    ~count:60 dag_gen (fun (n, es) ->
      with_db (fun db ->
          let nodes = build_dag db n es in
          let universe = Array.fold_left (fun s v -> OidSet.add v s) OidSet.empty nodes in
          let acyclic = not (Pgraph.Traverse.has_cycle db ~rel:"GEdge" universe) in
          (* force a cycle when at least one edge exists *)
          let with_back_edge =
            match
              Array.to_list nodes
              |> List.concat_map (fun v -> Database.outgoing db ~rel_name:"GEdge" v)
            with
            | [] -> true (* no edges: nothing to test *)
            | r :: _ ->
                ignore
                  (Database.link db "GEdge" ~origin:(Obj.destination r) ~destination:(Obj.origin r));
                Pgraph.Traverse.has_cycle db ~rel:"GEdge" universe
          in
          acyclic && with_back_edge))

let prop_path_endpoints =
  QCheck.Test.make ~name:"shortest_path endpoints and adjacency" ~count:60 dag_gen
    (fun (n, es) ->
      with_db (fun db ->
          let nodes = build_dag db n es in
          Array.for_all
            (fun src ->
              Array.for_all
                (fun dst ->
                  match Pgraph.Traverse.shortest_path db ~rel:"GEdge" src dst with
                  | None -> not (Pgraph.Traverse.reachable db ~rel:"GEdge" src dst) || src = dst
                  | Some p ->
                      List.hd p = src
                      && List.nth p (List.length p - 1) = dst
                      && (* consecutive nodes are connected *)
                      let rec adj = function
                        | a :: (b :: _ as rest) ->
                            List.exists
                              (fun (r : Obj.t) -> Obj.destination r = b)
                              (Database.outgoing db ~rel_name:"GEdge" a)
                            && adj rest
                        | _ -> true
                      in
                      adj p)
                nodes)
            nodes))

(* ------------------------------------------------------------------ *)
(* The adjacency walk = the list-based oracle                          *)
(* ------------------------------------------------------------------ *)

(* Edges are "Edge" instances or instances of its lifetime-dependent
   sub-relationship "Part", each in no context or one of two; links may
   be self-links and close cycles. *)
type graph_op =
  | Link of bool * int * int * int (* Part?, origin, destination, context 0-2 *)
  | Unlink of int (* k-th live edge *)
  | Retarget of int * int * int (* k-th live edge, new origin, new destination *)
  | Reweigh of int * int (* k-th live edge, new weight: not an endpoint change *)
  | Delete_node of int (* cascades along Part *)
  | Add_node
  | Begin
  | Abort
  | Vetoed of int * int (* origin, destination: linked in a [with_tx] that raises *)
  | Rolled_back of int * int (* ... in a group-writer body that raises *)

let pp_graph_op = function
  | Link (part, a, b, c) ->
      Printf.sprintf "link%s %d->%d ctx%d" (if part then "-part" else "") a b c
  | Unlink k -> Printf.sprintf "unlink #%d" k
  | Retarget (k, a, b) -> Printf.sprintf "retarget #%d %d->%d" k a b
  | Reweigh (k, w) -> Printf.sprintf "reweigh #%d %d" k w
  | Delete_node i -> Printf.sprintf "delete %d" i
  | Add_node -> "add-node"
  | Begin -> "begin"
  | Abort -> "abort"
  | Vetoed (a, b) -> Printf.sprintf "vetoed %d->%d" a b
  | Rolled_back (a, b) -> Printf.sprintf "rolled-back %d->%d" a b

(* Depth bounds for the whole run, then the steps, each carrying
   whether to compare after it *)
let graph_ops_arb =
  let open QCheck.Gen in
  let node = int_bound 9 in
  let op =
    frequency
      [
        (6, map (fun (p, a, b, c) -> Link (p, a, b, c)) (quad bool node node (int_bound 2)));
        (2, map (fun k -> Unlink k) small_nat);
        (2, map (fun (k, a, b) -> Retarget (k, a, b)) (triple small_nat node node));
        (1, map (fun (k, w) -> Reweigh (k, w)) (pair small_nat small_nat));
        (1, map (fun i -> Delete_node i) node);
        (1, return Add_node);
        (1, return Begin);
        (1, return Abort);
        (1, map (fun (a, b) -> Vetoed (a, b)) (pair node node));
        (1, map (fun (a, b) -> Rolled_back (a, b)) (pair node node));
      ]
  in
  QCheck.make
    ~print:(fun ((min_depth, max_depth), steps) ->
      Printf.sprintf "depths %d..%s: %s" min_depth
        (match max_depth with Some m -> string_of_int m | None -> "")
        (String.concat "; "
           (List.map (fun (o, c) -> pp_graph_op o ^ if c then "" else " (no check)") steps)))
    (pair
       (pair (int_bound 2) (opt (int_bound 3)))
       (list_size (int_range 1 30) (pair op (map (fun k -> k > 0) (int_bound 2)))))

let setup_graph db =
  ignore (Database.define_class db "GNode" [ Meta.attr "i" V.TInt ]);
  ignore
    (Database.define_rel db "Edge" ~origin:"GNode" ~destination:"GNode"
       ~attrs:[ Meta.attr "w" V.TInt ]);
  ignore
    (Database.define_rel db "Part" ~supers:[ "Edge" ] ~kind:Meta.Aggregation ~lifetime_dep:true
       ~origin:"GNode" ~destination:"GNode");
  let contexts = [ Database.create_context db "c1"; Database.create_context db "c2" ] in
  let nodes = List.init 6 (fun i -> Database.create db "GNode" [ ("i", V.VInt i) ]) in
  (contexts, nodes)

(* Every entry point of [Traverse], [Subgraph] and [Compare] equals the
   oracle, for both relationship classes, with and without a context,
   from every node ever created (deleted ones included).  Prints the
   first disagreement. *)
let walk_agrees ~depths:(min_depth, max_depth) db contexts nodes =
  let universe = OidSet.of_list nodes in
  let rel_agrees rel =
    List.for_all
      (fun context ->
        List.for_all
          (fun n ->
            match
              Graph_oracle.disagreements db ?context ~min_depth ?max_depth ~rel ~universe n
            with
            | [] -> true
            | names ->
                Printf.printf "%s from %d: %s\n" rel n (String.concat ", " names);
                false)
          nodes)
      (None :: List.map Option.some contexts)
    &&
    match contexts with
    | [ a; b ] ->
        List.for_all
          (fun (ctx_a, ctx_b) ->
            Graph_oracle.same_report
              (Pgraph.Compare.compare_contexts db ~rel ~ctx_a ~ctx_b ())
              (Graph_oracle.compare_contexts db ~rel ~ctx_a ~ctx_b ()))
          [ (a, b); (b, a); (a, a) ]
    | _ -> true
  in
  List.for_all rel_agrees [ "Edge"; "Part" ]

(* ... on the live handle, and on a snapshot view of it when no
   transaction is open (an empty transaction first makes the
   mutations made outside one visible to snapshots) *)
let walk_and_view_agree ~depths db contexts nodes =
  walk_agrees ~depths db contexts nodes
  && (Database.in_tx db
     ||
     let view = Database.with_tx db ignore; Database.snapshot db in
     Fun.protect
       ~finally:(fun () -> Database.close view)
       (fun () -> walk_agrees ~depths view contexts nodes))

let prop_walk_matches_oracle =
  QCheck.Test.make ~name:"adjacency walk = list-based oracle after every step" ~count:200
    graph_ops_arb (fun (depths, steps) ->
      with_db (fun db ->
          let contexts, nodes = setup_graph db in
          let nodes = ref nodes in
          let node i = List.nth !nodes (i mod List.length !nodes) in
          let edge k =
            match Database.extent_list db "Edge" with
            | [] -> None
            | es -> Some (List.nth es (k mod List.length es))
          in
          let attempt f = try f () with Database.Model_error _ -> () in
          let vetoed f = try f () with Failure _ | Database.Model_error _ -> () in
          let apply = function
            | Link (part, a, b, c) ->
                let context = if c = 0 then None else List.nth_opt contexts (c - 1) in
                attempt (fun () ->
                    ignore
                      (Database.link db ?context
                         (if part then "Part" else "Edge")
                         ~origin:(node a) ~destination:(node b)))
            | Unlink k -> Option.iter (fun e -> attempt (fun () -> Database.unlink db e)) (edge k)
            | Retarget (k, a, b) ->
                Option.iter
                  (fun e ->
                    attempt (fun () ->
                        Database.retarget db e ~origin:(node a) ~destination:(node b) ()))
                  (edge k)
            | Reweigh (k, w) ->
                Option.iter
                  (fun e -> attempt (fun () -> Database.update db e "w" (V.VInt w)))
                  (edge k)
            | Delete_node i -> Database.delete db (node i)
            | Add_node ->
                nodes :=
                  !nodes @ [ Database.create db "GNode" [ ("i", V.VInt (List.length !nodes)) ] ]
            | Begin -> if not (Database.in_tx db) then Database.begin_tx db
            | Abort -> if Database.in_tx db then Database.abort db
            | Vetoed (a, b) ->
                vetoed (fun () ->
                    Database.with_tx db (fun () ->
                        ignore (Database.link db "Edge" ~origin:(node a) ~destination:(node b));
                        failwith "veto"))
            | Rolled_back (a, b) ->
                if not (Database.in_tx db) then begin
                  let w = Database.Writer.start db in
                  Fun.protect
                    ~finally:(fun () -> Database.Writer.stop w)
                    (fun () ->
                      vetoed (fun () ->
                          ignore
                            (Database.Writer.submit w (fun db ->
                                 ignore
                                   (Database.link db "Edge" ~origin:(node a) ~destination:(node b));
                                 failwith "veto"))))
                end
          in
          let ok =
            List.for_all
              (fun (op, check) ->
                apply op;
                (not check) || walk_and_view_agree ~depths db contexts !nodes)
              steps
          in
          if Database.in_tx db then Database.abort db;
          ok && walk_and_view_agree ~depths db contexts !nodes))

(* ------------------------------------------------------------------ *)
(* Taxonomy properties                                                 *)
(* ------------------------------------------------------------------ *)

let prop_derivation_deterministic =
  QCheck.Test.make ~name:"derivation is deterministic and total" ~count:10
    QCheck.(int_range 1 1000)
    (fun seed ->
      with_db (fun db ->
          Taxonomy.Tax_schema.install db;
          let params =
            { Taxonomy.Flora_gen.families = 1; genera_per_family = 2; species_per_genus = 3; specimens_per_species = 2; seed }
          in
          let flora = Taxonomy.Flora_gen.generate db ~params () in
          let root = List.hd flora.Taxonomy.Flora_gen.root_taxa in
          let ctx = flora.Taxonomy.Flora_gen.ctx in
          let a1 = Taxonomy.Derivation.derive db ~ctx ~root () in
          let names1 =
            List.map
              (fun a -> (a.Taxonomy.Derivation.taxon, Taxonomy.Derivation.name_of_outcome a.Taxonomy.Derivation.outcome))
              a1
          in
          (* every taxon in the classification got a name *)
          let n_taxa = 1 + 2 + 6 in
          List.length a1 = n_taxa
          && (* re-deriving assigns the same names for taxa that had
                Existing outcomes (new combinations are reused the second
                time: the names now exist) *)
          List.for_all
            (fun (t, n) ->
              match Taxonomy.Classify.calculated_name db t with
              | Some n' -> n' = n
              | None -> false)
            names1))

let prop_synonymy_symmetric =
  QCheck.Test.make ~name:"specimen-based synonymy is symmetric" ~count:8
    QCheck.(int_range 1 1000)
    (fun seed ->
      with_db (fun db ->
          Taxonomy.Tax_schema.install db;
          let params =
            { Taxonomy.Flora_gen.families = 1; genera_per_family = 2; species_per_genus = 3; specimens_per_species = 2; seed }
          in
          let flora = Taxonomy.Flora_gen.generate db ~params () in
          let ctx2 = Taxonomy.Flora_gen.perturb db flora ~fraction:0.5 () in
          let ctx1 = flora.Taxonomy.Flora_gen.ctx in
          let ab = Taxonomy.Synonymy.find db ~ctx_a:ctx1 ~ctx_b:ctx2 in
          let ba = Taxonomy.Synonymy.find db ~ctx_a:ctx2 ~ctx_b:ctx1 in
          let key s = (s.Taxonomy.Synonymy.taxon_a, s.Taxonomy.Synonymy.taxon_b, s.Taxonomy.Synonymy.extent = Taxonomy.Synonymy.Full) in
          let flip s = (s.Taxonomy.Synonymy.taxon_b, s.Taxonomy.Synonymy.taxon_a, s.Taxonomy.Synonymy.extent = Taxonomy.Synonymy.Full) in
          List.sort compare (List.map key ab) = List.sort compare (List.map flip ba)))

let prop_compare_copy_is_identity =
  QCheck.Test.make ~name:"a fresh revision copy agrees 100% with its source" ~count:8
    QCheck.(int_range 1 1000)
    (fun seed ->
      with_db (fun db ->
          Taxonomy.Tax_schema.install db;
          let params =
            { Taxonomy.Flora_gen.families = 1; genera_per_family = 2; species_per_genus = 2; specimens_per_species = 2; seed }
          in
          let flora = Taxonomy.Flora_gen.generate db ~params () in
          let ctx1 = flora.Taxonomy.Flora_gen.ctx in
          let ctx2 = Taxonomy.Classify.start_revision db ~from_ctx:ctx1 "copy" in
          let r =
            Pgraph.Compare.compare_contexts db ~rel:Taxonomy.Tax_schema.circumscribes
              ~ctx_a:ctx1 ~ctx_b:ctx2 ()
          in
          r.Pgraph.Compare.agreement = 1.0
          && r.Pgraph.Compare.moved = []
          && OidSet.is_empty r.Pgraph.Compare.only_in_a
          && OidSet.is_empty r.Pgraph.Compare.only_in_b))

let prop_revision_copy_preserves_specimen_sets =
  QCheck.Test.make ~name:"starting a revision preserves every circumscription" ~count:8
    QCheck.(int_range 1 1000)
    (fun seed ->
      with_db (fun db ->
          Taxonomy.Tax_schema.install db;
          let params =
            { Taxonomy.Flora_gen.families = 1; genera_per_family = 2; species_per_genus = 2; specimens_per_species = 2; seed }
          in
          let flora = Taxonomy.Flora_gen.generate db ~params () in
          let ctx1 = flora.Taxonomy.Flora_gen.ctx in
          let ctx2 = Taxonomy.Classify.start_revision db ~from_ctx:ctx1 "copy" in
          List.for_all
            (fun t ->
              OidSet.equal
                (Taxonomy.Classify.specimens_of db ~ctx:ctx1 t)
                (Taxonomy.Classify.specimens_of db ~ctx:ctx2 t))
            (flora.Taxonomy.Flora_gen.species_taxa @ flora.Taxonomy.Flora_gen.genus_taxa)))

(* ------------------------------------------------------------------ *)
(* POOL algebraic laws                                                 *)
(* ------------------------------------------------------------------ *)

let with_numbers f =
  with_db (fun db ->
      ignore (Database.define_class db "Num" [ Meta.attr "v" V.TInt ]);
      f db (fun vals -> List.iter (fun v -> ignore (Database.create db "Num" [ ("v", V.VInt v) ])) vals))

let ints_arb = QCheck.(list_of_size Gen.(int_bound 12) (int_bound 20))

let prop_pool_where_filters =
  QCheck.Test.make ~name:"POOL where = List.filter" ~count:40 ints_arb (fun vals ->
      with_numbers (fun db load ->
          load vals;
          let got =
            Pool_lang.Pool.rows db "select n.v from Num n where n.v > 10 order by n.v"
            |> List.map V.as_int
          in
          got = List.sort compare (List.filter (fun v -> v > 10) vals)))

let prop_pool_distinct_set_semantics =
  QCheck.Test.make ~name:"POOL distinct = sort_uniq" ~count:40 ints_arb (fun vals ->
      with_numbers (fun db load ->
          load vals;
          let got =
            Pool_lang.Pool.rows db "select distinct n.v from Num n order by n.v"
            |> List.map V.as_int
          in
          got = List.sort_uniq compare vals))

let prop_pool_set_algebra =
  QCheck.Test.make ~name:"POOL union/inter/except match set algebra" ~count:40
    (QCheck.pair ints_arb ints_arb) (fun (xs, ys) ->
      with_numbers (fun db load ->
          load [];
          ignore load;
          let lit l = "[" ^ String.concat ", " (List.map string_of_int l) ^ "]" in
          let run op =
            Pool_lang.Pool.query db (Printf.sprintf "%s %s %s" (lit xs) op (lit ys))
            |> V.as_elements |> List.map V.as_int
          in
          let module IS = Set.Make (Int) in
          let sx = IS.of_list xs and sy = IS.of_list ys in
          run "union" = IS.elements (IS.union sx sy)
          && run "inter" = IS.elements (IS.inter sx sy)
          && run "except" = IS.elements (IS.diff sx sy)))

let prop_pool_count_sum =
  QCheck.Test.make ~name:"POOL count/sum/min/max agree with folds" ~count:40 ints_arb
    (fun vals ->
      with_numbers (fun db load ->
          load vals;
          let scalar q = Pool_lang.Pool.query db q in
          V.as_int (scalar "count(select n from Num n)") = List.length vals
          && V.as_int (scalar "sum(select n.v from Num n)") = List.fold_left ( + ) 0 vals
          && (vals = []
             || V.as_int (scalar "min(select n.v from Num n)")
                  = List.fold_left min max_int vals
                && V.as_int (scalar "max(select n.v from Num n)")
                  = List.fold_left max min_int vals)))

(* ------------------------------------------------------------------ *)
(* Schema closures = their definitions                                 *)
(* ------------------------------------------------------------------ *)

(* The schema's closures as they were computed on every read before
   [Meta] computed them at definition time: the oracle for the
   precomputed ones. *)
module Schema_oracle = struct
  let rec superclasses s name =
    match Meta.find_class s name with
    | None -> []
    | Some c ->
        List.concat_map (fun x -> x :: superclasses s x) c.Meta.supers |> List.sort_uniq compare

  let rec rel_superclasses s name =
    match Meta.find_rel s name with
    | None -> []
    | Some r ->
        List.concat_map (fun x -> x :: rel_superclasses s x) r.Meta.rel_supers
        |> List.sort_uniq compare

  let is_subclass s ~sub ~super =
    sub = super
    || List.mem super (superclasses s sub)
    || List.mem super (rel_superclasses s sub)
    || (super = Meta.object_class && (Meta.is_class s sub || Meta.is_rel s sub))

  let subclasses s name =
    List.filter_map
      (fun (c : Meta.class_def) ->
        if is_subclass s ~sub:c.Meta.class_name ~super:name then Some c.Meta.class_name else None)
      (Meta.classes s)

  let rel_subclasses s name =
    List.filter_map
      (fun (r : Meta.rel_def) ->
        if is_subclass s ~sub:r.Meta.rel_name ~super:name then Some r.Meta.rel_name else None)
      (Meta.rels s)

  let all_attrs s name =
    let seen = Hashtbl.create 8 in
    let out = ref [] in
    let add (a : Meta.attr_def) =
      if not (Hashtbl.mem seen a.Meta.attr_name) then begin
        Hashtbl.replace seen a.Meta.attr_name ();
        out := a :: !out
      end
    in
    let rec walk n =
      (match Meta.find_class s n with
      | Some c ->
          List.iter add c.Meta.attrs;
          List.iter walk c.Meta.supers
      | None -> ());
      match Meta.find_rel s n with
      | Some r ->
          List.iter add r.Meta.rel_attrs;
          List.iter walk r.Meta.rel_supers
      | None -> ()
    in
    walk name;
    List.rev !out
end

(* Class [i] takes supertypes among classes [0..i-1] and attributes
   from a small pool, so redefinitions and diamonds are common.  A
   relationship takes super relationships among the earlier ones and
   endpoints among the classes; definitions the schema rejects
   (covariance, inherited attributes) are skipped. *)
type schema_spec = {
  class_specs : (int list * (int * bool) list) list; (* supers, (attr, int-typed?) *)
  rel_specs : (int list * int * int * int list * int list) list;
      (* supers, origin, destination, attrs, inherited *)
}

let schema_spec_arb =
  let open QCheck.Gen in
  let attrs = list_size (int_bound 3) (pair (int_bound 4) bool) in
  let gen =
    int_range 1 7 >>= fun nc ->
    list_repeat nc (pair (list_size (int_bound 3) (int_bound 6)) attrs) >>= fun class_specs ->
    list_size (int_bound 6)
      (map
         (fun ((supers, o, d), (a, i)) -> (supers, o, d, a, i))
         (pair
            (triple (list_size (int_bound 2) (int_bound 5)) (int_bound nc) (int_bound nc))
            (pair (list_size (int_bound 3) (int_bound 4)) (list_size (int_bound 2) (int_bound 4)))))
    >>= fun rel_specs -> return { class_specs; rel_specs }
  in
  QCheck.make
    ~print:(fun s ->
      let ints l = String.concat "," (List.map string_of_int l) in
      String.concat "; "
        (List.mapi
           (fun i (su, a) ->
             Printf.sprintf "C%d<[%s]{%s}" i (ints su)
               (ints (List.map (fun (n, b) -> if b then n else -n - 1) a)))
           s.class_specs
        @ List.mapi
            (fun i (su, o, d, a, inh) ->
              Printf.sprintf "R%d<[%s] %d->%d {%s} inh{%s}" i (ints su) o d (ints a) (ints inh))
            s.rel_specs))
    gen

let build_schema spec =
  let s = Meta.empty () in
  let cname i = if i = 0 then Meta.object_class else Printf.sprintf "C%d" i in
  let aname n = Printf.sprintf "a%d" n in
  List.iteri
    (fun i (supers, attrs) ->
      let i = i + 1 in
      let supers = List.sort_uniq compare (List.filter (fun k -> k < i) supers) in
      let attrs =
        List.map (fun (n, b) -> Meta.attr (aname n) (if b then V.TInt else V.TString)) attrs
      in
      ignore (Meta.define_class s ~supers:(List.map cname supers) (cname i) attrs))
    spec.class_specs;
  let nclasses = List.length spec.class_specs + 1 in
  List.iteri
    (fun i (supers, o, d, attrs, inherited) ->
      let supers = List.sort_uniq compare (List.filter (fun k -> k < i) supers) in
      let attrs = List.sort_uniq compare attrs in
      try
        ignore
          (Meta.define_rel s (Printf.sprintf "R%d" i)
             ~supers:(List.map (Printf.sprintf "R%d") supers)
             ~origin:(cname (o mod nclasses)) ~destination:(cname (d mod nclasses))
             ~attrs:(List.map (fun n -> Meta.attr (aname n) V.TInt) attrs)
             ~inherited_attrs:(List.sort_uniq compare (List.map aname inherited)))
      with Meta.Schema_error _ -> ())
    spec.rel_specs;
  s

let closures_agree s =
  let names =
    List.map (fun (c : Meta.class_def) -> c.Meta.class_name) (Meta.classes s)
    @ List.map (fun (r : Meta.rel_def) -> r.Meta.rel_name) (Meta.rels s)
    @ [ "Nope" ]
  in
  let sorted = List.sort compare in
  List.for_all
    (fun n ->
      List.for_all
        (fun m ->
          Meta.is_subclass s ~sub:n ~super:m = Schema_oracle.is_subclass s ~sub:n ~super:m)
        names
      && sorted (Meta.subclasses s n) = sorted (Schema_oracle.subclasses s n)
      && sorted (Meta.rel_subclasses s n) = sorted (Schema_oracle.rel_subclasses s n)
      && Meta.all_attrs s n = Schema_oracle.all_attrs s n
      (* the interned ids name the same relationship classes *)
      && sorted
           (List.map
              (fun id -> (Meta.rel_of_id s id).Meta.rel_name)
              (Array.to_list (Meta.rel_sub_ids s n)))
         = sorted (Meta.rel_subclasses s n)
      && match Meta.find_rel s n with
         | Some r -> Meta.rel_of_id s (Meta.rel_id s n) == r
         | None -> Meta.rel_id s n = -1)
    names

let prop_schema_closures =
  QCheck.Test.make ~name:"schema closures = their definitions, defined and decoded" ~count:300
    schema_spec_arb (fun spec ->
      let s = build_schema spec in
      let s2 = Meta.empty () in
      Meta.decode_into s2 (Meta.encode s);
      closures_agree s && closures_agree s2)

(* ------------------------------------------------------------------ *)
(* Relationship adjacency = brute force over the mirror                *)
(* ------------------------------------------------------------------ *)

(* "Base" declares [kind] inherited; "Sub" specialises it and declares
   [w]; "SubSub" specialises "Sub".  "Own" is a lifetime-dependent,
   exclusive aggregation with at most three outgoing instances per
   context; its sub-relationship "Solo" is not sharable. *)
let adj_rels = [| "Base"; "Sub"; "SubSub"; "Own"; "Solo" |]

(* what the accessors are asked about: every relationship class, their
   common root, an object class and an unknown name *)
let adj_names = Array.to_list adj_rels @ [ Meta.object_class; "ANode"; "Nope" ]

let setup_adj db =
  ignore (Database.define_class db "ANode" [ Meta.attr "i" V.TInt ]);
  ignore
    (Database.define_rel db "Base" ~origin:"ANode" ~destination:"ANode"
       ~attrs:[ Meta.attr "kind" V.TString ] ~inherited_attrs:[ "kind" ]);
  ignore
    (Database.define_rel db "Sub" ~supers:[ "Base" ] ~origin:"ANode" ~destination:"ANode"
       ~attrs:[ Meta.attr "w" V.TInt ] ~inherited_attrs:[ "w" ]);
  ignore (Database.define_rel db "SubSub" ~supers:[ "Sub" ] ~origin:"ANode" ~destination:"ANode");
  ignore
    (Database.define_rel db "Own" ~kind:Meta.Aggregation ~lifetime_dep:true ~exclusive:true
       ~card_out:(Meta.card ~cmax:3 ()) ~origin:"ANode" ~destination:"ANode");
  ignore
    (Database.define_rel db "Solo" ~supers:[ "Own" ] ~kind:Meta.Aggregation ~sharable:false
       ~origin:"ANode" ~destination:"ANode");
  let contexts = [ Database.create_context db "c1"; Database.create_context db "c2" ] in
  let nodes = List.init 4 (fun i -> Database.create db "ANode" [ ("i", V.VInt i) ]) in
  (contexts, nodes)

type adj_op =
  | A_create
  | A_link of int * int * int * int * int (* class, origin, destination, context 0-2, value *)
  | A_unlink of int (* k-th live instance *)
  | A_retarget of int * int * int (* k-th live instance, new origin, new destination *)
  | A_delete of int
  | A_abort of adj_op list (* run inside [with_tx], then raise *)

let rec pp_adj_op = function
  | A_create -> "create"
  | A_link (r, a, b, c, v) -> Printf.sprintf "link %s %d->%d ctx%d v%d" adj_rels.(r) a b c v
  | A_unlink k -> Printf.sprintf "unlink #%d" k
  | A_retarget (k, a, b) -> Printf.sprintf "retarget #%d %d->%d" k a b
  | A_delete i -> Printf.sprintf "delete %d" i
  | A_abort ops -> "abort[" ^ String.concat "; " (List.map pp_adj_op ops) ^ "]"

let adj_ops_arb =
  let open QCheck.Gen in
  let node = int_bound 7 in
  let op =
    fix
      (fun self depth ->
        frequency
          ([
             (2, return A_create);
             ( 8,
               map
                 (fun ((r, a, b), (c, v)) -> A_link (r, a, b, c, v))
                 (pair (triple (int_bound 4) node node) (pair (int_bound 2) (int_bound 3))) );
             (2, map (fun k -> A_unlink k) small_nat);
             (2, map (fun (k, a, b) -> A_retarget (k, a, b)) (triple small_nat node node));
             (1, map (fun i -> A_delete i) node);
           ]
          @ if depth = 0 then [] else [ (1, map (fun l -> A_abort l) (list_size (int_range 1 4) (self 0))) ]))
      1
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_adj_op ops))
    (list_size (int_range 1 25) op)

(* every relationship instance in the mirror, ascending oid:
   (oid, class, origin, destination, context, object) *)
let mirror_rels db =
  let acc = ref [] in
  Database.iter_objects db (fun o ->
      if Database.is_rel_instance db o then
        acc := (o.Obj.oid, o.Obj.class_name, Obj.origin o, Obj.destination o, Obj.context o, o) :: !acc);
  List.sort (fun (a, _, _, _, _, _) (b, _, _, _, _, _) -> compare a b) !acc

(* Every adjacency-backed accessor, asked about every node ever
   created, equals a filter over [mirror_rels], order included. *)
let adjacency_agrees db contexts nodes =
  let schema = Database.schema db in
  let rels = mirror_rels db in
  let desc l = List.rev l in
  let brute ~out ?context ~rel_name n =
    desc
      (List.filter
         (fun (_, cls, o, d, c, _) ->
           (if out then o = n else d = n)
           && Schema_oracle.is_subclass schema ~sub:cls ~super:rel_name
           && match context with None -> true | Some _ -> c = context)
         rels)
  in
  let oids l = List.map (fun (oid, _, _, _, _, _) -> oid) l in
  let objs l = List.map (fun (r : Obj.t) -> r.Obj.oid) l in
  let role n attr =
    match
      desc
        (List.filter_map
           (fun (_, cls, _, d, _, r) ->
             if d = n && List.mem attr (Meta.rel_exn schema cls).Meta.inherited_attrs then
               Some (Obj.get r attr)
             else None)
           rels)
    with
    | [] -> V.VNull
    | [ v ] -> v
    | vs -> V.vset vs
  in
  List.for_all
    (fun n ->
      objs (Database.rels_of db n)
      = oids (desc (List.filter (fun (_, _, o, _, _, _) -> o = n) rels))
        @ oids (desc (List.filter (fun (_, _, _, d, _, _) -> d = n) rels))
      && (Database.get db n = None
         || List.for_all
              (fun attr -> V.equal_value (Database.get_attr db n attr) (role n attr))
              [ "kind"; "w" ])
      && List.for_all
           (fun rel_name ->
             Database.has_role db n ~rel_name = (brute ~out:false ~rel_name n <> [])
             && List.for_all
                  (fun m ->
                    OidSet.elements (Database.rel_instances_between db ~rel_name ~origin:n ~destination:m)
                    = oids
                        (List.filter
                           (fun (_, cls, o, d, _, _) -> cls = rel_name && o = n && d = m)
                           rels))
                  nodes
             && List.for_all
                  (fun context ->
                    let out = brute ~out:true ?context ~rel_name n
                    and into = brute ~out:false ?context ~rel_name n in
                    objs (Database.outgoing db ?context ~rel_name n) = oids out
                    && objs (Database.incoming db ?context ~rel_name n) = oids into
                    && Database.targets db ?context ~rel_name n
                       = List.map (fun (_, _, _, d, _, _) -> d) out
                    && Database.sources db ?context ~rel_name n
                       = List.map (fun (_, _, o, _, _, _) -> o) into)
                  (None :: List.map Option.some contexts))
           adj_names)
    nodes

(* Does [link] have to refuse this instance?  The semantic checks,
   counted by brute force over the mirror. *)
let link_refused db ~rel_name ~origin ~destination ~context =
  let schema = Database.schema db in
  let rdef = Meta.rel_exn schema rel_name in
  let count ~out ?(any = false) n =
    List.length
      (List.filter
         (fun (_, cls, o, d, c, _) ->
           (if out then o = n else d = n)
           && Schema_oracle.is_subclass schema ~sub:cls ~super:rel_name
           && (any || c = context))
         (mirror_rels db))
  in
  Database.get db origin = None
  || Database.get db destination = None
  || (rdef.Meta.exclusive && count ~out:false destination > 0)
  || ((not rdef.Meta.sharable) && count ~out:false ~any:true destination > 0)
  || (match rdef.Meta.card_out.Meta.cmax with Some m -> count ~out:true origin >= m | None -> false)
  || match rdef.Meta.card_in.Meta.cmax with Some m -> count ~out:false destination >= m | None -> false

let prop_adjacency_matches_mirror =
  QCheck.Test.make
    ~name:"adjacency accessors = brute force over the mirror (live, snapshot, reopened)" ~count:80
    adj_ops_arb (fun ops ->
      let path = tmp_path () in
      Fun.protect
        ~finally:(fun () -> cleanup path)
        (fun () ->
          let db = Database.open_ path in
          (* each step commits on its own, so a snapshot view sees it *)
          let contexts, nodes = Database.with_tx db (fun () -> setup_adj db) in
          let nodes = ref nodes in
          let node i = List.nth !nodes (i mod List.length !nodes) in
          let instance k =
            match mirror_rels db with
            | [] -> None
            | rs ->
                let oid, _, _, _, _, _ = List.nth rs (k mod List.length rs) in
                Some oid
          in
          let attempt f = try f () with Database.Model_error _ -> () in
          let semantics_ok = ref true in
          let rec apply = function
            | A_create ->
                nodes :=
                  !nodes @ [ Database.create db "ANode" [ ("i", V.VInt (List.length !nodes)) ] ]
            | A_link (r, a, b, c, v) ->
                let rel_name = adj_rels.(r) in
                let context = if c = 0 then None else List.nth_opt contexts (c - 1) in
                let origin = node a and destination = node b in
                let attrs =
                  match rel_name with
                  | "Base" -> [ ("kind", V.VString (string_of_int v)) ]
                  | "Sub" | "SubSub" -> [ ("kind", V.VString "s"); ("w", V.VInt v) ]
                  | _ -> []
                in
                let refused = link_refused db ~rel_name ~origin ~destination ~context in
                let linked =
                  match Database.link db ?context ~attrs rel_name ~origin ~destination with
                  | _ -> true
                  | exception Database.Model_error _ -> false
                in
                if linked = refused then semantics_ok := false
            | A_unlink k -> Option.iter (fun e -> attempt (fun () -> Database.unlink db e)) (instance k)
            | A_retarget (k, a, b) ->
                Option.iter
                  (fun e ->
                    attempt (fun () ->
                        Database.retarget db e ~origin:(node a) ~destination:(node b) ()))
                  (instance k)
            | A_delete i -> Database.delete db (node i)
            | A_abort ops -> (
                try
                  Database.with_tx db (fun () ->
                      List.iter apply ops;
                      raise Exit)
                with Exit -> ())
          in
          let agrees_everywhere () =
            adjacency_agrees db contexts !nodes
            &&
            let view = Database.snapshot db in
            Fun.protect
              ~finally:(fun () -> Database.close view)
              (fun () -> adjacency_agrees view contexts !nodes)
          in
          let ok =
            List.for_all
              (fun op ->
                (match op with
                | A_abort _ -> apply op
                | _ -> Database.with_tx db (fun () -> apply op));
                !semantics_ok && agrees_everywhere ())
              ops
          in
          Database.close db;
          let db = Database.open_ path in
          Fun.protect
            ~finally:(fun () -> Database.close db)
            (fun () -> ok && adjacency_agrees db contexts !nodes)))

(* ------------------------------------------------------------------ *)
(* The oid-indexed mirror against the hash-table mirror it replaced     *)
(* ------------------------------------------------------------------ *)

(* The mirror's tables as they were before they became oid-indexed
   arrays: a hash table of objects, an [OidSet] per exact class and an
   [OidSet] of relationship oids per endpoint and direction, rebuilt
   here from the store's records. *)
module Mirror_oracle = struct
  type t = {
    objects : (int, Obj.t) Hashtbl.t;
    extents : (string, OidSet.t) Hashtbl.t;
    out_rels : (int, OidSet.t) Hashtbl.t;
    in_rels : (int, OidSet.t) Hashtbl.t;
  }

  let add tbl k oid =
    Hashtbl.replace tbl k (OidSet.add oid (Option.value ~default:OidSet.empty (Hashtbl.find_opt tbl k)))

  let set_of tbl k = Option.value ~default:OidSet.empty (Hashtbl.find_opt tbl k)

  (* [iter] walks (oid, record) pairs; oid 1 is the schema record *)
  let build schema (iter : (int -> string -> unit) -> unit) =
    let t =
      {
        objects = Hashtbl.create 64;
        extents = Hashtbl.create 16;
        out_rels = Hashtbl.create 64;
        in_rels = Hashtbl.create 64;
      }
    in
    iter (fun oid data ->
        if oid <> 1 then begin
          let o = Obj.decode ~oid data in
          Hashtbl.replace t.objects oid o;
          add t.extents o.Obj.class_name oid;
          if Meta.is_rel schema o.Obj.class_name then begin
            add t.out_rels (Obj.origin o) oid;
            add t.in_rels (Obj.destination o) oid
          end
        end);
    t

  let extent schema t ~deep cls =
    if deep then
      List.fold_left
        (fun acc c -> OidSet.union acc (set_of t.extents c))
        OidSet.empty
        (if Meta.is_rel schema cls then Meta.rel_subclasses schema cls else Meta.subclasses schema cls)
    else set_of t.extents cls

  (* the relationship objects at [oid] of class [rel_name] or below,
     optionally in [context]: descending relationship oid, as the
     mirror's accessors return them *)
  let rels schema t ~out ?context ~rel_name oid =
    OidSet.fold
      (fun r acc ->
        let o = Hashtbl.find t.objects r in
        if
          Schema_oracle.is_subclass schema ~sub:o.Obj.class_name ~super:rel_name
          && match context with None -> true | Some _ -> Obj.context o = context
        then o :: acc
        else acc)
      (set_of (if out then t.out_rels else t.in_rels) oid)
      []
end

(* The store's records, in oid order *)
let store_dump st =
  let acc = ref [] in
  Pstore.Store.iter st (fun oid data -> acc := (oid, data) :: !acc);
  List.rev !acc

(* Every mirror read of [db] equals the oracle rebuilt from [iter], the
   store's records behind [db]: objects for every oid up to [hi],
   relationship hops for every node ever created. *)
let mirror_matches_oracle db iter ~hi contexts nodes =
  let schema = Database.schema db in
  let m = Mirror_oracle.build schema iter in
  let enc = Option.map Obj.encode in
  let classes =
    Meta.object_class :: "Nope" :: List.map (fun (c : Meta.class_def) -> c.Meta.class_name) (Meta.classes schema)
    @ List.map (fun (r : Meta.rel_def) -> r.Meta.rel_name) (Meta.rels schema)
  in
  let oids = List.init (hi + 2) Fun.id in
  let objs l = List.map (fun (r : Obj.t) -> r.Obj.oid) l in
  Database.object_count db = Hashtbl.length m.Mirror_oracle.objects
  && List.for_all
       (fun oid ->
         enc (Database.get db oid) = enc (Hashtbl.find_opt m.Mirror_oracle.objects oid)
         && Database.class_of db oid
            = Option.map (fun (o : Obj.t) -> o.Obj.class_name) (Hashtbl.find_opt m.Mirror_oracle.objects oid))
       oids
  && List.for_all
       (fun cls ->
         List.for_all
           (fun deep ->
             let expected = OidSet.elements (Mirror_oracle.extent schema m ~deep cls) in
             let scanned = ref [] in
             Database.iter_extent db ~deep cls (fun o -> scanned := o :: !scanned);
             OidSet.elements (Database.extent db ~deep cls) = expected
             && List.rev !scanned = expected
             && List.rev (Database.fold_extent db ~deep cls (fun acc o -> o :: acc) []) = expected
             && Database.extent_list db ~deep cls = expected
             && Database.count db ~deep cls = List.length expected)
           [ true; false ])
       classes
  && List.for_all
       (fun n ->
         List.for_all
           (fun rel_name ->
             List.for_all
               (fun context ->
                 let out = Mirror_oracle.rels schema m ~out:true ?context ~rel_name n
                 and into = Mirror_oracle.rels schema m ~out:false ?context ~rel_name n in
                 objs (Database.outgoing db ?context ~rel_name n) = objs out
                 && objs (Database.incoming db ?context ~rel_name n) = objs into
                 && Database.targets db ?context ~rel_name n = List.map Obj.destination out
                 && Database.sources db ?context ~rel_name n = List.map Obj.origin into)
               (None :: List.map Option.some contexts))
           adj_names)
       nodes

let prop_dense_mirror_matches_oracle =
  QCheck.Test.make
    ~name:"oid-indexed mirror = hash-table oracle from the store (live, snapshot, reopened)"
    ~count:40 adj_ops_arb (fun ops ->
      let path = tmp_path () in
      Fun.protect
        ~finally:(fun () -> cleanup path)
        (fun () ->
          let db = Database.open_ path in
          let contexts, nodes =
            Database.with_tx db (fun () ->
                let cn = setup_adj db in
                ignore (Database.define_class db "BNode" ~supers:[ "ANode" ] []);
                (* enough of them that one step changes a small share of
                   the extent, which [extent] patches instead of
                   rebuilding *)
                for i = 1 to 30 do
                  ignore (Database.create db "BNode" [ ("i", V.VInt (-i)) ])
                done;
                cn)
          in
          (* skip oids so the session's objects straddle a chunk boundary *)
          let st = Database.store db in
          while Pstore.Store.fresh_oid st < Dense.chunk_size - 8 do
            ()
          done;
          let nodes = ref nodes in
          let node i = List.nth !nodes (i mod List.length !nodes) in
          let instance k =
            match mirror_rels db with
            | [] -> None
            | rs ->
                let oid, _, _, _, _, _ = List.nth rs (k mod List.length rs) in
                Some oid
          in
          let attempt f = try f () with Database.Model_error _ -> () in
          let rec apply = function
            | A_create ->
                let cls = if List.length !nodes mod 2 = 0 then "ANode" else "BNode" in
                nodes := !nodes @ [ Database.create db cls [ ("i", V.VInt (List.length !nodes)) ] ]
            | A_link (r, a, b, c, v) ->
                let context = if c = 0 then None else List.nth_opt contexts (c - 1) in
                let attrs =
                  match adj_rels.(r) with
                  | "Base" -> [ ("kind", V.VString (string_of_int v)) ]
                  | _ -> []
                in
                attempt (fun () ->
                    ignore
                      (Database.link db ?context ~attrs adj_rels.(r) ~origin:(node a)
                         ~destination:(node b)))
            | A_unlink k -> Option.iter (fun e -> attempt (fun () -> Database.unlink db e)) (instance k)
            | A_retarget (k, a, b) ->
                Option.iter
                  (fun e ->
                    attempt (fun () ->
                        Database.retarget db e ~origin:(node a) ~destination:(node b) ()))
                  (instance k)
            | A_delete i -> Database.delete db (node i)
            | A_abort ops -> (
                try
                  Database.with_tx db (fun () ->
                      List.iter apply ops;
                      raise Exit)
                with Exit -> ())
          in
          let hi () = Pstore.Store.fresh_oid st in
          let agrees db =
            let hi = hi () in
            let dump = store_dump (Database.store db) in
            let replay f = List.iter (fun (oid, data) -> f oid data) dump in
            mirror_matches_oracle db replay ~hi contexts !nodes
            &&
            let view = Database.snapshot db in
            Fun.protect
              ~finally:(fun () -> Database.close view)
              (fun () -> mirror_matches_oracle view replay ~hi contexts !nodes)
          in
          let ok =
            List.for_all
              (fun op ->
                (match op with
                | A_abort _ -> apply op
                | _ -> Database.with_tx db (fun () -> apply op));
                agrees db)
              ops
          in
          let hi = hi () in
          Database.close db;
          let db = Database.open_ path in
          Fun.protect
            ~finally:(fun () -> Database.close db)
            (fun () ->
              ok && mirror_matches_oracle db (Pstore.Store.iter (Database.store db)) ~hi contexts !nodes)))

(* Objects created and deleted again in turn, 10^5 times, each linked to
   a long-lived node: the oid-indexed tables free every chunk they
   empty, so what the mirror holds stays what it held after the first
   thousand. *)
let test_mirror_churn_bounded () =
  let fs = Pstore.Fault.create () in
  let db = Database.open_ ~vfs:(Pstore.Fault.vfs fs) "churn.db" in
  Fun.protect
    ~finally:(fun () -> Database.close db)
    (fun () ->
      ignore (Database.define_class db "N" [ Meta.attr "i" V.TInt ]);
      ignore (Database.define_rel db "E" ~origin:"N" ~destination:"N");
      let hub = Database.with_tx db (fun () -> Database.create db "N" [ ("i", V.VInt 0) ]) in
      let churn pairs =
        for _ = 1 to pairs / 1000 do
          Database.with_tx db (fun () ->
              for i = 1 to 1000 do
                let o = Database.create db "N" [ ("i", V.VInt i) ] in
                ignore (Database.link db "E" ~origin:hub ~destination:o);
                Database.delete db o
              done)
        done
      in
      let words () =
        Stdlib.Obj.reachable_words
          (Stdlib.Obj.repr
             ( db.Database.objects,
               db.Database.extents,
               db.Database.out_adj,
               db.Database.in_adj ))
      in
      churn 1000;
      let before = words () in
      churn 100_000;
      let after = words () in
      (* 10^5 pairs issue 2 * 10^5 oids: each of the three tables'
         directory and live-count arrays may grow to twice a word per
         chunk of them; nothing else may grow *)
      let slack = 3 * 2 * 2 * (2 * 100_000 / Dense.chunk_size) in
      if after > before + slack then
        Alcotest.failf "mirror grew from %d to %d words over 10^5 create/delete pairs" before after;
      Alcotest.(check int) "one live object" 1 (Database.object_count db);
      Alcotest.(check bool) "at most the hub's and the top chunk left" true
        (Dense.chunks db.Database.objects <= 2))

(* ------------------------------------------------------------------ *)
(* Held snapshot views against the store at their LSN                  *)
(* ------------------------------------------------------------------ *)

(* A curator session: the mutations a view must not see once taken,
   the three ways a transaction rolls back, and taking, cloning and
   releasing views. *)
type session_op =
  | S_create of int (* class: ANode, BNode or a class the session defined *)
  | S_update of int * int (* node, new [i] *)
  | S_link of int * int * int * int (* class, origin, destination, context 0-2 *)
  | S_unlink of int (* k-th live instance *)
  | S_retarget of int * int * int
  | S_delete of int
  | S_synonym of int * int
  | S_unsynonym of int (* k-th synonym record *)
  | S_define_class
  | S_index of bool * int (* create or drop the index on class k's [i] *)
  | S_abort of session_op list (* [begin_tx], the ops, [abort] *)
  | S_raise of session_op list (* a [with_tx] body running the ops, then raising *)
  | S_group_rollback of session_op list (* a group-writer job running them, then raising *)
  | S_view
  | S_clone
  | S_release

let index_classes = [| "ANode"; "BNode" |]

let rec pp_session_op = function
  | S_create c -> Printf.sprintf "create/%d" c
  | S_update (n, v) -> Printf.sprintf "update %d.i=%d" n v
  | S_link (r, a, b, c) -> Printf.sprintf "link %s %d->%d ctx%d" adj_rels.(r) a b c
  | S_unlink k -> Printf.sprintf "unlink #%d" k
  | S_retarget (k, a, b) -> Printf.sprintf "retarget #%d %d->%d" k a b
  | S_delete n -> Printf.sprintf "delete %d" n
  | S_synonym (a, b) -> Printf.sprintf "synonym %d=%d" a b
  | S_unsynonym k -> Printf.sprintf "unsynonym #%d" k
  | S_define_class -> "define_class"
  | S_index (on, k) -> Printf.sprintf "%s_index %s.i" (if on then "create" else "drop") index_classes.(k)
  | S_abort ops -> "abort[" ^ String.concat "; " (List.map pp_session_op ops) ^ "]"
  | S_raise ops -> "raise[" ^ String.concat "; " (List.map pp_session_op ops) ^ "]"
  | S_group_rollback ops -> "group_rollback[" ^ String.concat "; " (List.map pp_session_op ops) ^ "]"
  | S_view -> "view"
  | S_clone -> "clone"
  | S_release -> "release"

let session_arb =
  let open QCheck.Gen in
  let node = int_bound 9 in
  let mutation =
    frequency
      [
        (3, map (fun c -> S_create c) (int_bound 3));
        (3, map2 (fun n v -> S_update (n, v)) node (int_bound 5));
        (5, map (fun ((r, a), (b, c)) -> S_link (r, a, b, c)) (pair (pair (int_bound 4) node) (pair node (int_bound 2))));
        (2, map (fun k -> S_unlink k) small_nat);
        (2, map (fun (k, a, b) -> S_retarget (k, a, b)) (triple small_nat node node));
        (1, map (fun n -> S_delete n) node);
        (2, map2 (fun a b -> S_synonym (a, b)) node node);
        (1, map (fun k -> S_unsynonym k) small_nat);
        (1, return S_define_class);
        (1, map2 (fun on k -> S_index (on, k)) bool (int_bound 1));
      ]
  in
  let nested = list_size (int_range 1 4) mutation in
  let op =
    frequency
      [
        (12, mutation);
        (1, map (fun l -> S_abort l) nested);
        (1, map (fun l -> S_raise l) nested);
        (1, map (fun l -> S_group_rollback l) nested);
        (3, return S_view);
        (1, return S_clone);
        (1, return S_release);
      ]
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_session_op ops))
    (list_size (int_range 1 30) op)

let prop_held_views_match_store =
  QCheck.Test.make ~name:"held views = a fresh open of the store at their LSN" ~count:30 session_arb
    (fun ops ->
      let path = tmp_path () in
      let db = Database.open_ path in
      let held = ref [] in
      Fun.protect
        ~finally:(fun () ->
          List.iter (fun (v, _) -> Database.close v) !held;
          Database.close db;
          cleanup path)
        (fun () ->
          let contexts, first =
            Database.with_tx db (fun () ->
                let cn = setup_adj db in
                ignore (Database.define_class db "BNode" ~supers:[ "ANode" ] []);
                Database.create_index db "ANode" "i";
                cn)
          in
          let nodes = ref first and classes = ref [ "ANode"; "BNode" ] in
          let node i = List.nth !nodes (i mod List.length !nodes) in
          let nth l k = match l with [] -> None | l -> Some (List.nth l (k mod List.length l)) in
          let attempt f = try f () with Database.Model_error _ | Meta.Schema_error _ -> () in
          let rec apply = function
            | S_create c ->
                attempt (fun () ->
                    let cls = List.nth !classes (c mod List.length !classes) in
                    nodes := !nodes @ [ Database.create db cls [ ("i", V.VInt (List.length !nodes)) ] ])
            | S_update (n, v) -> attempt (fun () -> Database.update db (node n) "i" (V.VInt v))
            | S_link (r, a, b, c) ->
                let context = if c = 0 then None else List.nth_opt contexts (c - 1) in
                attempt (fun () ->
                    ignore (Database.link db ?context adj_rels.(r) ~origin:(node a) ~destination:(node b)))
            | S_unlink k ->
                Option.iter
                  (fun (e, _, _, _, _, _) -> attempt (fun () -> Database.unlink db e))
                  (nth (mirror_rels db) k)
            | S_retarget (k, a, b) ->
                Option.iter
                  (fun (e, _, _, _, _, _) ->
                    attempt (fun () -> Database.retarget db e ~origin:(node a) ~destination:(node b) ()))
                  (nth (mirror_rels db) k)
            | S_delete n -> attempt (fun () -> Database.delete db (node n))
            | S_synonym (a, b) -> attempt (fun () -> Database.declare_synonym db (node a) (node b))
            | S_unsynonym k ->
                Option.iter (Database.delete db) (nth (Database.extent_list db Database.synonym_class) k)
            | S_define_class ->
                let name = Printf.sprintf "Extra%d" (List.length !classes) in
                attempt (fun () ->
                    ignore (Database.define_class db name ~supers:[ "ANode" ] []);
                    classes := !classes @ [ name ])
            | S_index (on, k) ->
                let cls = index_classes.(k) in
                attempt (fun () ->
                    if on then Database.create_index db cls "i" else Database.drop_index db cls "i")
            | S_abort ops ->
                Database.begin_tx db;
                List.iter apply ops;
                Database.abort db
            | S_raise ops -> (
                try
                  Database.with_tx db (fun () ->
                      List.iter apply ops;
                      raise Exit)
                with Exit -> ())
            | S_group_rollback ops ->
                let w = Database.Writer.start db in
                Fun.protect
                  ~finally:(fun () -> Database.Writer.stop w)
                  (fun () ->
                    match
                      Database.Writer.submit w (fun _ ->
                          List.iter apply ops;
                          raise Exit)
                    with
                    | _ -> ()
                    | exception Exit -> ())
            | S_view ->
                let expected = View_oracle.describe_records (View_oracle.dump (Database.store db)) in
                let v = Database.snapshot db in
                if Database.view_lsn v <> Pstore.Store.lsn (Database.store db) then
                  QCheck.Test.fail_report "view LSN is not the store's";
                held := !held @ [ (v, expected) ]
            | S_clone -> (
                match List.rev !held with
                | [] -> ()
                | (v, expected) :: _ -> held := !held @ [ (Database.snapshot_clone v, expected) ])
            | S_release -> (
                match !held with
                | [] -> ()
                | (v, _) :: rest ->
                    Database.close v;
                    held := rest)
          in
          List.for_all
            (fun op ->
              (match op with
              | S_abort _ | S_raise _ | S_group_rollback _ | S_view | S_clone | S_release -> apply op
              | _ -> Database.with_tx db (fun () -> apply op));
              List.for_all (fun (v, expected) -> String.equal (View_oracle.describe v) expected) !held)
            ops
          && String.equal (View_oracle.describe db)
               (View_oracle.describe_records (View_oracle.dump (Database.store db)))))

(* ------------------------------------------------------------------ *)
(* Transaction properties                                              *)
(* ------------------------------------------------------------------ *)

(* A random interleaving of creates/updates/deletes inside aborted
   transactions must leave the database exactly as before. *)
let prop_abort_is_identity =
  QCheck.Test.make ~name:"aborted transactions leave no trace" ~count:25
    QCheck.(list_of_size Gen.(int_bound 15) (pair (int_bound 2) small_nat))
    (fun ops ->
      with_db (fun db ->
          ignore (Database.define_class db "Thing" [ Meta.attr "v" V.TInt ]);
          ignore (Database.define_rel db "Link" ~origin:"Thing" ~destination:"Thing");
          (* committed baseline *)
          let base = List.init 5 (fun i -> Database.create db "Thing" [ ("v", V.VInt i) ]) in
          let l0 = Database.link db "Link" ~origin:(List.nth base 0) ~destination:(List.nth base 1) in
          let snapshot () =
            ( Database.count db "Thing",
              List.map (fun o -> Database.get_attr db o "v") base,
              Database.get db l0 <> None )
          in
          let before = snapshot () in
          Database.begin_tx db;
          List.iter
            (fun (kind, x) ->
              let target = List.nth base (x mod 5) in
              match kind with
              | 0 -> ignore (Database.create db "Thing" [ ("v", V.VInt x) ])
              | 1 -> ( try Database.update db target "v" (V.VInt (x * 7)) with _ -> ())
              | _ -> ( try Database.delete db target with _ -> ()))
            ops;
          Database.abort db;
          snapshot () = before))

(* The index on [Name.epithet] (declared by the taxonomic schema) is
   only an access path: over random floras, after committed and
   rolled-back renames and a reopen that rebuilds it from the stored
   catalog, name lookups answer exactly as they do once it is dropped,
   rows in the same order. *)
let prop_name_index_differential =
  let gen =
    QCheck.Gen.(
      quad (int_range 1 1000) (int_range 1 2) (int_range 1 3)
        (list_size (int_range 0 6) (triple (int_range 0 1000) (int_range 0 3) bool)))
  in
  let print (seed, fams, gens, renames) =
    Printf.sprintf "seed %d, %d families x %d genera, renames %s" seed fams gens
      (String.concat "; "
         (List.map (fun (i, e, c) -> Printf.sprintf "%d->%d%s" i e (if c then "" else " (aborted)")) renames))
  in
  QCheck.Test.make ~name:"name lookups: indexed = unindexed, same order" ~count:25
    (QCheck.make ~print gen) (fun (seed, families, genera, renames) ->
      let path = tmp_path () in
      let db = ref (Database.open_ path) in
      Fun.protect
        ~finally:(fun () ->
          (try Database.close !db with _ -> ());
          cleanup path)
        (fun () ->
          Taxonomy.Tax_schema.install !db;
          let params =
            { Taxonomy.Flora_gen.families; genera_per_family = genera; species_per_genus = 3; specimens_per_species = 1; seed }
          in
          Database.with_tx !db (fun () -> ignore (Taxonomy.Flora_gen.generate !db ~params ()));
          let names = Array.of_list (Database.extent_list !db "Name") in
          let epithet oid = V.as_string (Database.get_attr !db oid "epithet") in
          let pool = [| epithet names.(0); "zzz"; epithet names.(Array.length names - 1); "Nus" |] in
          List.iter
            (fun (i, e, commit) ->
              let rename () = Database.update !db names.(i mod Array.length names) "epithet" (V.VString pool.(e)) in
              if commit then Database.with_tx !db rename
              else (
                Database.begin_tx !db;
                rename ();
                Database.abort !db))
            renames;
          let epithets =
            List.sort_uniq compare
              ("absent" :: Array.to_list pool @ List.map epithet (List.filteri (fun i _ -> i < 6) (Array.to_list names)))
          in
          let queries =
            List.concat_map
              (fun e ->
                List.concat_map
                  (fun r ->
                    [
                      Printf.sprintf "first(select n from Name n where n.epithet = '%s' and n.rank = '%s')" e r;
                      Printf.sprintf "count(select n from Name n where n.rank = '%s' and n.epithet = '%s')" r e;
                    ])
                  [ "Familia"; "Genus"; "Species" ]
                @ [
                    Printf.sprintf "select n from Name n where n.epithet = '%s'" e;
                    Printf.sprintf "select n.year from Name n where n.epithet = '%s' order by n.year desc" e;
                  ])
              epithets
          in
          let answers () = List.map (fun q -> V.to_string (Pool_lang.Pool.query !db q)) queries in
          let probes () =
            Pool_lang.Pool.explain !db "select n from Name n where n.epithet = 'x'"
            = "n<-probe(Name.epithet)"
          in
          let live = answers () and live_probes = probes () in
          Database.close !db;
          db := Database.open_ path;
          let reopened = answers () and reopened_probes = probes () in
          Database.drop_index !db "Name" "epithet";
          let unindexed = answers () in
          live_probes && reopened_probes && (not (probes ())) && live = unindexed
          && reopened = unindexed))

let () =
  Alcotest.run "properties"
    [
      ( "values",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_value_roundtrip; prop_ty_roundtrip; prop_compare_reflexive;
            prop_compare_antisymmetric; prop_compare_transitive; prop_vset_idempotent;
            prop_obj_roundtrip; prop_schema_roundtrip; prop_schema_closures;
          ] );
      ( "graphs",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_closure_is_descendants_plus_root; prop_ancestors_descendants_dual;
            prop_dag_has_no_cycle; prop_path_endpoints; prop_walk_matches_oracle;
          ]
        @ [
            QCheck_alcotest.to_alcotest prop_adjacency_matches_mirror;
            QCheck_alcotest.to_alcotest prop_dense_mirror_matches_oracle;
            Alcotest.test_case "mirror churn stays bounded" `Quick test_mirror_churn_bounded;
          ] );
      ( "taxonomy",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_derivation_deterministic; prop_synonymy_symmetric;
            prop_revision_copy_preserves_specimen_sets; prop_compare_copy_is_identity;
            prop_name_index_differential;
          ] );
      ( "pool",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_pool_where_filters; prop_pool_distinct_set_semantics; prop_pool_set_algebra;
            prop_pool_count_sum;
          ] );
      ( "transactions",
        List.map QCheck_alcotest.to_alcotest [ prop_abort_is_identity; prop_held_views_match_store ] );
    ]
