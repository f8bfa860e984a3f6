(* Tests for the taxonomy library: ranks, nomenclature, classification,
   the ICBN name-derivation algorithm (thesis fig. 3), the multiple-
   classifications scenario (thesis fig. 4), synonym detection and the
   ICBN rule set. *)

open Pmodel
open Taxonomy
module V = Value
module S = Tax_schema
module OidSet = Database.OidSet

let tmp_counter = ref 0

let tmp_path () =
  incr tmp_counter;
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "prom_tax_%d_%d.db" (Unix.getpid ()) !tmp_counter)

let with_db f =
  let path = tmp_path () in
  let db = Database.open_ path in
  Tax_schema.install db;
  Fun.protect
    ~finally:(fun () ->
      (try Database.close db with _ -> ());
      if Sys.file_exists path then Sys.remove path;
      if Sys.file_exists (path ^ ".journal") then Sys.remove (path ^ ".journal"))
    (fun () -> f db)

(* --- ranks ---------------------------------------------------------------- *)

let test_rank_order () =
  Alcotest.(check bool) "genus above species" true (Rank.strictly_above Rank.Genus Rank.Species);
  Alcotest.(check bool) "species not above genus" false
    (Rank.strictly_above Rank.Species Rank.Genus);
  Alcotest.(check bool) "subgenus between" true
    (Rank.strictly_above Rank.Genus Rank.Subgenus && Rank.strictly_above Rank.Subgenus Rank.Sectio);
  Alcotest.(check int) "24 ranks" 24 (List.length Rank.all);
  Alcotest.(check int) "7 primary" 7 (List.length Rank.primary);
  Alcotest.(check bool) "roundtrip" true (Rank.of_string "genus" = Some Rank.Genus);
  Alcotest.(check bool) "multinomial" true
    (Rank.is_multinomial Rank.Species && Rank.is_multinomial Rank.Varietas
    && not (Rank.is_multinomial Rank.Genus));
  Alcotest.(check (option string)) "family suffix" (Some "aceae")
    (Rank.required_suffix Rank.Familia)

(* --- nomenclature ------------------------------------------------------------ *)

let test_name_rendering () =
  with_db (fun db ->
      let linnaeus = Nomen.create_author db ~name:"Carl von Linnaeus" ~abbreviation:"L." in
      let lag = Nomen.create_author db ~name:"Lagasca" ~abbreviation:"Lag." in
      let jacq = Nomen.create_author db ~name:"Jacquin" ~abbreviation:"Jacq." in
      let apium =
        Nomen.create_name db ~epithet:"Apium" ~rank:Rank.Genus ~year:1753 ~author:linnaeus ()
      in
      let graveolens =
        Nomen.create_name db ~epithet:"graveolens" ~rank:Rank.Species ~year:1753
          ~author:linnaeus ~placed_in:apium ()
      in
      Alcotest.(check string) "genus" "Apium L." (Nomen.full_name db apium);
      Alcotest.(check string) "binomial" "Apium graveolens L." (Nomen.full_name db graveolens);
      (* recombination: basionym author in brackets *)
      let repens =
        Nomen.create_name db ~epithet:"repens" ~rank:Rank.Species ~year:1821 ~author:lag
          ~basionym_author:jacq ~placed_in:apium ()
      in
      Alcotest.(check string) "recombination" "Apium repens (Jacq.)Lag."
        (Nomen.full_name db repens))

let test_typification () =
  with_db (fun db ->
      let n = Nomen.create_name db ~epithet:"Apium" ~rank:Rank.Genus () in
      let s = Nomen.create_specimen db ~collector:"Linnaeus" ~number:107 ~herbarium:"BM" () in
      ignore (Nomen.set_type db ~name:n ~target:s ~kind:"lectotype");
      Alcotest.(check int) "one type" 1 (List.length (Nomen.types db n));
      (* role acquisition: the specimen now carries the inherited kind *)
      Alcotest.(check string) "role attr" "lectotype"
        (V.as_string (Database.get_attr db s "kind"));
      Alcotest.(check bool) "has type role" true (Database.has_role db s ~rel_name:S.has_type);
      Alcotest.(check (list int)) "typified_by" [ n ] (Nomen.typified_by db s))

(* --- classification ------------------------------------------------------------ *)

let test_circumscription_recursion () =
  with_db (fun db ->
      let ctx = Classify.create_classification db "test" in
      let genus = Classify.create_taxon db ~rank:Rank.Genus () in
      let sp1 = Classify.create_taxon db ~rank:Rank.Species () in
      let sp2 = Classify.create_taxon db ~rank:Rank.Species () in
      let mk_spec () = Nomen.create_specimen db () in
      let s1 = mk_spec () and s2 = mk_spec () and s3 = mk_spec () in
      ignore (Classify.circumscribe db ~ctx ~group:genus ~item:sp1 ());
      ignore (Classify.circumscribe db ~ctx ~group:genus ~item:sp2 ());
      ignore (Classify.circumscribe db ~ctx ~group:sp1 ~item:s1 ());
      ignore (Classify.circumscribe db ~ctx ~group:sp1 ~item:s2 ());
      ignore (Classify.circumscribe db ~ctx ~group:sp2 ~item:s3 ());
      Alcotest.(check int) "genus sees all specimens" 3
        (OidSet.cardinal (Classify.specimens_of db ~ctx genus));
      Alcotest.(check int) "species sees own" 2
        (OidSet.cardinal (Classify.specimens_of db ~ctx sp1));
      Alcotest.(check (list int)) "subtaxa" [ sp1; sp2 ]
        (List.sort compare (Classify.subtaxa db ~ctx genus));
      Alcotest.(check (option int)) "group_of" (Some genus) (Classify.group_of db ~ctx sp1);
      Alcotest.(check (list int)) "roots" [ genus ] (Classify.roots db ctx))

let test_exclusive_within_classification () =
  with_db (fun db ->
      let ctx = Classify.create_classification db "c" in
      let g1 = Classify.create_taxon db ~rank:Rank.Genus () in
      let g2 = Classify.create_taxon db ~rank:Rank.Genus () in
      let s = Nomen.create_specimen db () in
      ignore (Classify.circumscribe db ~ctx ~group:g1 ~item:s ());
      (match Classify.circumscribe db ~ctx ~group:g2 ~item:s () with
      | exception Database.Model_error _ -> ()
      | _ -> Alcotest.fail "specimen cannot be in two groups of one classification");
      (* but freely in another classification *)
      let ctx2 = Classify.create_classification db "c2" in
      ignore (Classify.circumscribe db ~ctx:ctx2 ~group:g2 ~item:s ());
      Alcotest.(check int) "overlapping classifications" 2
        (List.length (Database.incoming db ~rel_name:S.circumscribes s)))

(* --- name derivation: the thesis fig. 3 worked example ----------------------- *)

(* Nomenclatural background:
     Apium L. (Genus) 1753, type: Apium graveolens L. 1753,
       whose lectotype is specimen herb_cliff.
     Apium repens (Jacq.)Lag. (Species) 1821, placed in Apium,
       type: specimen rep_spec.
     Heliosciadium W.D.J.Koch. (Genus) 1824,
       type: Heliosciadium nodiflorum (L.)W.D.J.Koch. (Species) 1824,
       whose holotype is specimen nod_spec.
   Classification under revision:
     Taxon1 (Genus) contains Taxon2 (Species)
     Taxon2 contains rep_spec and nod_spec.
   Expected (thesis 2.1.2): Taxon1 = Heliosciadium (only genus name
   reachable from the type specimens); Taxon2's oldest species name is
   Apium repens (1821), but the combination (Heliosciadium, repens) was
   never published, so a NEW combination "Heliosciadium repens (Jacq.)"
   is created. *)
let apium_setup db =
  let linnaeus = Nomen.create_author db ~name:"Carl von Linnaeus" ~abbreviation:"L." in
  let lag = Nomen.create_author db ~name:"Lagasca" ~abbreviation:"Lag." in
  let jacq = Nomen.create_author db ~name:"Jacquin" ~abbreviation:"Jacq." in
  let koch = Nomen.create_author db ~name:"Koch" ~abbreviation:"W.D.J.Koch." in
  let apium = Nomen.create_name db ~epithet:"Apium" ~rank:Rank.Genus ~year:1753 ~author:linnaeus () in
  let graveolens =
    Nomen.create_name db ~epithet:"graveolens" ~rank:Rank.Species ~year:1753 ~author:linnaeus
      ~placed_in:apium ()
  in
  let herb_cliff = Nomen.create_specimen db ~collector:"Linnaeus" ~number:107 ~herbarium:"BM" () in
  ignore (Nomen.set_type db ~name:graveolens ~target:herb_cliff ~kind:"lectotype");
  ignore (Nomen.set_type db ~name:apium ~target:graveolens ~kind:"holotype");
  let repens =
    Nomen.create_name db ~epithet:"repens" ~rank:Rank.Species ~year:1821 ~author:lag
      ~basionym_author:jacq ~placed_in:apium ()
  in
  let rep_spec = Nomen.create_specimen db ~collector:"Jacquin" ~number:1 () in
  ignore (Nomen.set_type db ~name:repens ~target:rep_spec ~kind:"holotype");
  let helio =
    Nomen.create_name db ~epithet:"Heliosciadium" ~rank:Rank.Genus ~year:1824 ~author:koch ()
  in
  let nodiflorum =
    Nomen.create_name db ~epithet:"nodiflorum" ~rank:Rank.Species ~year:1824 ~author:koch
      ~basionym_author:linnaeus ~placed_in:helio ()
  in
  let nod_spec = Nomen.create_specimen db ~collector:"Koch" ~number:12 () in
  ignore (Nomen.set_type db ~name:nodiflorum ~target:nod_spec ~kind:"holotype");
  ignore (Nomen.set_type db ~name:helio ~target:nodiflorum ~kind:"holotype");
  ((apium, repens, helio, nodiflorum), (rep_spec, nod_spec), (linnaeus, lag, jacq, koch))

let test_derivation_apium () =
  with_db (fun db ->
      let (_apium, repens, helio, _nodiflorum), (rep_spec, nod_spec), _ = apium_setup db in
      let ctx = Classify.create_classification db "revision 2000" in
      let taxon1 = Classify.create_taxon db ~rank:Rank.Genus () in
      let taxon2 = Classify.create_taxon db ~rank:Rank.Species () in
      ignore (Classify.circumscribe db ~ctx ~group:taxon1 ~item:taxon2 ());
      ignore (Classify.circumscribe db ~ctx ~group:taxon2 ~item:rep_spec ());
      ignore (Classify.circumscribe db ~ctx ~group:taxon2 ~item:nod_spec ());
      let assignments = Derivation.derive db ~ctx ~root:taxon1 ~year:2000 () in
      Alcotest.(check int) "two taxa named" 2 (List.length assignments);
      let a1 = List.find (fun a -> a.Derivation.taxon = taxon1) assignments in
      let a2 = List.find (fun a -> a.Derivation.taxon = taxon2) assignments in
      (* Taxon1 must be Heliosciadium, an existing name *)
      (match a1.Derivation.outcome with
      | Derivation.Existing n -> Alcotest.(check int) "taxon1 = Heliosciadium" helio n
      | _ -> Alcotest.fail "taxon1 should reuse Heliosciadium");
      (* Taxon2 must be a NEW combination based on repens *)
      (match a2.Derivation.outcome with
      | Derivation.New_combination { name; basionym } ->
          Alcotest.(check int) "basionym is Apium repens" repens basionym;
          Alcotest.(check string) "epithet kept" "repens" (Nomen.epithet db name);
          Alcotest.(check (option int)) "placed in Heliosciadium" (Some helio)
            (Nomen.placement db name);
          Alcotest.(check bool) "rendered with bracketed basionym author" true
            (let fn = Nomen.full_name db name in
             fn = "Heliosciadium repens (Lag.)"
             || String.length fn >= 20
                && String.sub fn 0 20 = "Heliosciadium repens")
      | _ -> Alcotest.fail "taxon2 should be a new combination");
      (* calculated names recorded *)
      Alcotest.(check (option int)) "calculated name recorded" (Some helio)
        (Classify.calculated_name db taxon1))

let test_derivation_existing_combination () =
  with_db (fun db ->
      (* When the group's specimens all point to names already combined
         with the derived genus, the existing name is reused. *)
      let (apium, _repens, _helio, _nodiflorum), _, (linnaeus, _, _, _) = apium_setup db in
      let grav_spec = Nomen.create_specimen db () in
      let graveolens2 =
        Nomen.create_name db ~epithet:"dulce" ~rank:Rank.Species ~year:1800 ~author:linnaeus
          ~placed_in:apium ()
      in
      ignore (Nomen.set_type db ~name:graveolens2 ~target:grav_spec ~kind:"holotype");
      (* make the genus typified via this species so Apium is derivable:
         Apium's existing type is graveolens; add grav specimen under it *)
      let ctx = Classify.create_classification db "conservative" in
      let g = Classify.create_taxon db ~rank:Rank.Genus () in
      let s = Classify.create_taxon db ~rank:Rank.Species () in
      ignore (Classify.circumscribe db ~ctx ~group:g ~item:s ());
      ignore (Classify.circumscribe db ~ctx ~group:s ~item:grav_spec ());
      (* the genus-level candidate: dulce is not the type of any genus, so
         walk up from grav_spec: dulce (Species) only -> no genus name ->
         new genus name published *)
      let assignments = Derivation.derive db ~ctx ~root:g ~year:2001 () in
      let ag = List.find (fun a -> a.Derivation.taxon = g) assignments in
      let as_ = List.find (fun a -> a.Derivation.taxon = s) assignments in
      (match ag.Derivation.outcome with
      | Derivation.New_name _ -> ()
      | _ -> Alcotest.fail "genus has no reachable genus-rank name: new name expected");
      match as_.Derivation.outcome with
      | Derivation.New_combination _ -> () (* placed in the fresh genus *)
      | Derivation.Existing n ->
          Alcotest.(check int) "existing species name" graveolens2 n
      | _ -> Alcotest.fail "species should reuse or recombine dulce")

let test_derivation_elects_types () =
  with_db (fun db ->
      (* groups without any type specimen elect one and publish *)
      let ctx = Classify.create_classification db "fresh" in
      let g = Classify.create_taxon db ~rank:Rank.Genus () in
      Classify.set_working_name db ~taxon:g "Novagenus";
      let s1 = Nomen.create_specimen db ~collected:(V.date 1900) () in
      let s2 = Nomen.create_specimen db ~collected:(V.date 1850) () in
      ignore (Classify.circumscribe db ~ctx ~group:g ~item:s1 ());
      ignore (Classify.circumscribe db ~ctx ~group:g ~item:s2 ());
      let assignments = Derivation.derive db ~ctx ~root:g ~year:2002 () in
      match (List.hd assignments).Derivation.outcome with
      | Derivation.New_name { name; elected_type } ->
          Alcotest.(check string) "working name used" "Novagenus" (Nomen.epithet db name);
          Alcotest.(check int) "oldest specimen elected" s2 elected_type;
          Alcotest.(check (list (pair int string))) "holotype recorded"
            [ (s2, "holotype") ] (Nomen.types db name)
      | _ -> Alcotest.fail "expected new name")

(* --- multiple classifications: the fig. 4 shapes scenario ---------------------- *)

(* The thesis fig. 4 scenario: five shape specimens classified by
   shape (c1, two levels) and by brightness (c2). *)
let shapes_setup db =
  (* specimens: shapes *)
  let white_square = Nomen.create_specimen db ~collector:"shape" ~number:1 () in
  let white_rect = Nomen.create_specimen db ~collector:"shape" ~number:2 () in
  let grey_tri = Nomen.create_specimen db ~collector:"shape" ~number:3 () in
  let black_oval = Nomen.create_specimen db ~collector:"shape" ~number:4 () in
  let dark_circle = Nomen.create_specimen db ~collector:"shape" ~number:5 () in
  (* classification 1 (taxonomist 1, by shape): two levels *)
  let c1 = Classify.create_classification db "taxonomist-1 by shape" in
  let shapes1 = Classify.create_taxon db ~rank:Rank.Genus () in
  let squares1 = Classify.create_taxon db ~rank:Rank.Species () in
  let triangles1 = Classify.create_taxon db ~rank:Rank.Species () in
  let ovals1 = Classify.create_taxon db ~rank:Rank.Species () in
  List.iter
    (fun (g, i) -> ignore (Classify.circumscribe db ~ctx:c1 ~group:g ~item:i ()))
    [
      (shapes1, squares1); (shapes1, triangles1); (shapes1, ovals1);
      (squares1, white_square); (squares1, white_rect);
      (triangles1, grey_tri);
      (ovals1, black_oval); (ovals1, dark_circle);
    ];
  (* classification 2 (taxonomist 3, by brightness) over the same specimens *)
  let c2 = Classify.create_classification db "taxonomist-3 by brightness" in
  let shapes2 = Classify.create_taxon db ~rank:Rank.Genus () in
  let light2 = Classify.create_taxon db ~rank:Rank.Species () in
  let dark2 = Classify.create_taxon db ~rank:Rank.Species () in
  List.iter
    (fun (g, i) -> ignore (Classify.circumscribe db ~ctx:c2 ~group:g ~item:i ()))
    [
      (shapes2, light2); (shapes2, dark2);
      (light2, white_square); (light2, white_rect);
      (dark2, grey_tri); (dark2, black_oval); (dark2, dark_circle);
    ];
  ((c1, shapes1, squares1, triangles1, ovals1), (c2, shapes2, light2, dark2))

let test_shapes_multiple_classifications () =
  with_db (fun db ->
      let (c1, shapes1, squares1, triangles1, ovals1), (c2, shapes2, light2, dark2) =
        shapes_setup db
      in
      (* both classifications coexist and overlap on every specimen *)
      Alcotest.(check int) "c1 specimens" 5
        (OidSet.cardinal (Classify.specimens_of db ~ctx:c1 shapes1));
      Alcotest.(check int) "c2 specimens" 5
        (OidSet.cardinal (Classify.specimens_of db ~ctx:c2 shapes2));
      (* specimen-based synonym detection across classifications *)
      let syns = Synonymy.find db ~ctx_a:c1 ~ctx_b:c2 in
      (* squares1 {ws, wr} = light2 {ws, wr}: a full synonym *)
      let full =
        List.filter (fun s -> s.Synonymy.extent = Synonymy.Full) syns
        |> List.filter (fun s -> s.Synonymy.taxon_a = squares1 && s.Synonymy.taxon_b = light2)
      in
      Alcotest.(check int) "squares ~ light is a full synonym" 1 (List.length full);
      (* ovals1 {bo, dc} vs dark2 {gt, bo, dc}: pro parte *)
      let pp =
        List.filter
          (fun s ->
            s.Synonymy.taxon_a = ovals1 && s.Synonymy.taxon_b = dark2
            && s.Synonymy.extent = Synonymy.Pro_parte)
          syns
      in
      Alcotest.(check int) "ovals ~ dark pro parte" 1 (List.length pp);
      (* single-specimen overlap detection: triangles1 vs dark2 share grey_tri *)
      let susp = Synonymy.suspicious_overlaps db ~ctx_a:c1 ~ctx_b:c2 in
      Alcotest.(check bool) "suspicious single overlap found" true
        (List.exists (fun s -> s.Synonymy.taxon_a = triangles1 && s.Synonymy.taxon_b = dark2) susp))

let test_homotypic_synonyms () =
  with_db (fun db ->
      let spec = Nomen.create_specimen db () in
      let n1 = Nomen.create_name db ~epithet:"una" ~rank:Rank.Species ~year:1800 () in
      ignore (Nomen.set_type db ~name:n1 ~target:spec ~kind:"holotype");
      let c1 = Classify.create_classification db "a" in
      let c2 = Classify.create_classification db "b" in
      let t1 = Classify.create_taxon db ~rank:Rank.Species () in
      let t2 = Classify.create_taxon db ~rank:Rank.Species () in
      ignore (Classify.circumscribe db ~ctx:c1 ~group:t1 ~item:spec ());
      ignore (Classify.circumscribe db ~ctx:c2 ~group:t2 ~item:spec ());
      match Synonymy.find db ~ctx_a:c1 ~ctx_b:c2 with
      | [ s ] ->
          Alcotest.(check bool) "homotypic" true (s.Synonymy.typ = Synonymy.Homotypic);
          Alcotest.(check bool) "full" true (s.Synonymy.extent = Synonymy.Full)
      | l -> Alcotest.failf "expected one synonym, got %d" (List.length l))

(* --- revisions ------------------------------------------------------------------ *)

let test_revision_workflow () =
  with_db (fun db ->
      let flora = Flora_gen.generate db ~params:{ Flora_gen.default with seed = 7 } () in
      let ctx2 = Classify.start_revision db ~from_ctx:flora.Flora_gen.ctx "revision-1" in
      (* revision starts as a faithful copy *)
      let g1 = Pgraph.Subgraph.of_context db ~rel:S.circumscribes flora.Flora_gen.ctx in
      let g2 = Pgraph.Subgraph.of_context db ~rel:S.circumscribes ctx2 in
      Alcotest.(check bool) "copy preserves structure" true (Pgraph.Subgraph.same_structure db g1 g2);
      (* move one species to another genus in the revision only *)
      let sp = List.hd flora.Flora_gen.species_taxa in
      let target =
        List.find (fun g -> Classify.group_of db ~ctx:ctx2 sp <> Some g) flora.Flora_gen.genus_taxa
      in
      Classify.move db ~ctx:ctx2 ~item:sp ~group:target ~reason:"test move" ();
      Alcotest.(check (option int)) "moved in revision" (Some target)
        (Classify.group_of db ~ctx:ctx2 sp);
      Alcotest.(check bool) "original untouched" true
        (Classify.group_of db ~ctx:flora.Flora_gen.ctx sp <> Some target);
      (* traceability: the motivation is recorded on the edge *)
      match Database.incoming db ~context:ctx2 ~rel_name:S.circumscribes sp with
      | [ r ] ->
          Alcotest.(check string) "reason recorded" "test move"
            (V.as_string (Obj.get r "reason"))
      | _ -> Alcotest.fail "expected exactly one placement in revision")

let test_flora_generator_scale () =
  with_db (fun db ->
      let params =
        { Flora_gen.families = 2; genera_per_family = 3; species_per_genus = 4; specimens_per_species = 2; seed = 3 }
      in
      let flora = Flora_gen.generate db ~params () in
      Alcotest.(check int) "species taxa" 24 (List.length flora.Flora_gen.species_taxa);
      Alcotest.(check int) "specimens" 48 (List.length flora.Flora_gen.specimens);
      (* every species taxon has exactly 2 specimens *)
      List.iter
        (fun t ->
          Alcotest.(check int) "specimens per species" 2
            (OidSet.cardinal (Classify.specimens_of db ~ctx:flora.Flora_gen.ctx t)))
        flora.Flora_gen.species_taxa;
      (* derivation runs over a generated family without error *)
      let root = List.hd flora.Flora_gen.root_taxa in
      let assignments = Derivation.derive db ~ctx:flora.Flora_gen.ctx ~root () in
      Alcotest.(check bool) "derivation covers the tree" true (List.length assignments >= 13))

(* --- ICBN rules -------------------------------------------------------------------- *)

let with_rules f =
  with_db (fun db ->
      let engine = Prules.Engine.create db in
      Icbn.install engine;
      f db engine)

let test_icbn_family_suffix () =
  with_rules (fun db _ ->
      ignore (Nomen.create_name db ~epithet:"Rosaceae" ~rank:Rank.Familia ());
      ignore (Nomen.create_name db ~epithet:"Palmae" ~rank:Rank.Familia ()) (* exception *);
      match Nomen.create_name db ~epithet:"Rosa" ~rank:Rank.Familia () with
      | exception Prules.Rule.Violation _ -> ()
      | _ -> Alcotest.fail "family without -aceae should be rejected")

let test_icbn_capitalisation () =
  with_rules (fun db _ ->
      ignore (Nomen.create_name db ~epithet:"Apium" ~rank:Rank.Genus ());
      ignore (Nomen.create_name db ~epithet:"repens" ~rank:Rank.Species ());
      (match Nomen.create_name db ~epithet:"apium" ~rank:Rank.Genus () with
      | exception Prules.Rule.Violation _ -> ()
      | _ -> Alcotest.fail "lowercase genus should be rejected");
      match Nomen.create_name db ~epithet:"Repens" ~rank:Rank.Species () with
      | exception Prules.Rule.Violation _ -> ()
      | _ -> Alcotest.fail "capitalised species epithet should be rejected")

let test_icbn_single_word () =
  with_rules (fun db _ ->
      ignore (Nomen.create_name db ~epithet:"Uva-ursi" ~rank:Rank.Genus ()) (* hyphen ok at genus *);
      match Nomen.create_name db ~epithet:"two words" ~rank:Rank.Species () with
      | exception Prules.Rule.Violation _ -> ()
      | _ -> Alcotest.fail "multi-word epithet should be rejected")

let test_icbn_unique_holotype () =
  with_rules (fun db _ ->
      let n = Nomen.create_name db ~epithet:"unica" ~rank:Rank.Species () in
      let s1 = Nomen.create_specimen db () in
      let s2 = Nomen.create_specimen db () in
      ignore (Nomen.set_type db ~name:n ~target:s1 ~kind:"holotype");
      ignore (Nomen.set_type db ~name:n ~target:s2 ~kind:"isotype") (* many isotypes fine *);
      match Nomen.set_type db ~name:n ~target:s2 ~kind:"holotype" with
      | exception Prules.Rule.Violation _ -> ()
      | _ -> Alcotest.fail "second holotype should be rejected")

let test_icbn_placement_ranks () =
  with_rules (fun db _ ->
      let g = Nomen.create_name db ~epithet:"Apium" ~rank:Rank.Genus () in
      let s = Nomen.create_name db ~epithet:"repens" ~rank:Rank.Species () in
      ignore (Database.link db S.placed_in ~origin:s ~destination:g) (* fine *);
      match Database.link db S.placed_in ~origin:g ~destination:s with
      | exception Prules.Rule.Violation _ -> ()
      | _ -> Alcotest.fail "genus placed in species should be rejected")

let test_icbn_circumscription_ranks () =
  with_rules (fun db _ ->
      let ctx = Classify.create_classification db "r" in
      let g = Classify.create_taxon db ~rank:Rank.Genus () in
      let s = Classify.create_taxon db ~rank:Rank.Species () in
      ignore (Classify.circumscribe db ~ctx ~group:g ~item:s ());
      match Classify.circumscribe db ~ctx ~group:s ~item:g () with
      | exception Prules.Rule.Violation _ -> ()
      | _ -> Alcotest.fail "species containing genus should be rejected")

let test_icbn_type_existence_warns () =
  with_rules (fun db engine ->
      Database.begin_tx db;
      ignore (Nomen.create_name db ~epithet:"sine" ~rank:Rank.Species ());
      Database.commit db;
      Alcotest.(check bool) "warning for untypified name" true
        (List.exists
           (fun (rule, _) -> rule = "icbn_type_existence")
           (Prules.Engine.warnings engine)))

(* --- infraspecific names (trinomials) ---------------------------------- *)

let test_trinomial_rendering () =
  with_db (fun db ->
      let l = Nomen.create_author db ~name:"L" ~abbreviation:"L." in
      let apium = Nomen.create_name db ~epithet:"Apium" ~rank:Rank.Genus ~year:1753 ~author:l () in
      let grav =
        Nomen.create_name db ~epithet:"graveolens" ~rank:Rank.Species ~year:1753 ~author:l
          ~placed_in:apium ()
      in
      let dulce =
        Nomen.create_name db ~epithet:"dulce" ~rank:Rank.Varietas ~year:1768 ~author:l
          ~placed_in:grav ()
      in
      Alcotest.(check string) "trinomial" "Apium graveolens var. dulce L."
        (Nomen.full_name db dulce))

let test_infraspecific_derivation () =
  with_db (fun db ->
      (* a variety group under a species: derivation must anchor its
         combination on the derived SPECIES name, not the genus *)
      let l = Nomen.create_author db ~name:"L" ~abbreviation:"L." in
      let genus_n = Nomen.create_name db ~epithet:"Apium" ~rank:Rank.Genus ~year:1753 ~author:l () in
      let sp_n =
        Nomen.create_name db ~epithet:"graveolens" ~rank:Rank.Species ~year:1753 ~author:l
          ~placed_in:genus_n ()
      in
      let var_spec = Nomen.create_specimen db ~collected:(V.date 1760) () in
      let sp_spec = Nomen.create_specimen db ~collected:(V.date 1750) () in
      ignore (Nomen.set_type db ~name:sp_n ~target:sp_spec ~kind:"holotype");
      ignore (Nomen.set_type db ~name:genus_n ~target:sp_n ~kind:"holotype");
      let ctx = Classify.create_classification db "infra" in
      let g = Classify.create_taxon db ~rank:Rank.Genus () in
      let s = Classify.create_taxon db ~rank:Rank.Species () in
      let v = Classify.create_taxon db ~rank:Rank.Varietas () in
      Classify.set_working_name db ~taxon:v "dulce";
      ignore (Classify.circumscribe db ~ctx ~group:g ~item:s ());
      ignore (Classify.circumscribe db ~ctx ~group:s ~item:v ());
      ignore (Classify.circumscribe db ~ctx ~group:s ~item:sp_spec ());
      ignore (Classify.circumscribe db ~ctx ~group:v ~item:var_spec ());
      let assignments = Derivation.derive db ~ctx ~root:g ~year:2003 () in
      let av = List.find (fun a -> a.Derivation.taxon = v) assignments in
      match av.Derivation.outcome with
      | Derivation.New_name { name; _ } ->
          Alcotest.(check string) "epithet from working name" "dulce" (Nomen.epithet db name);
          (* the variety's placement anchor is the derived species name *)
          let as_ = List.find (fun a -> a.Derivation.taxon = s) assignments in
          let species_name = Derivation.name_of_outcome as_.Derivation.outcome in
          Alcotest.(check (option int)) "anchored on species" (Some species_name)
            (Nomen.placement db name);
          Alcotest.(check string) "renders as a trinomial" "Apium graveolens var. dulce"
            (Nomen.full_name db name)
      | _ -> Alcotest.fail "expected a new infraspecific name")

(* --- historical classifications (thesis 7.1.2) --------------------------- *)

let test_historical_from_placements () =
  with_db (fun db ->
      let l = Nomen.create_author db ~name:"L" ~abbreviation:"L." in
      let apium = Nomen.create_name db ~epithet:"Apium" ~rank:Rank.Genus ~year:1753 ~author:l () in
      let grav =
        Nomen.create_name db ~epithet:"graveolens" ~rank:Rank.Species ~year:1753 ~author:l
          ~placed_in:apium ()
      in
      let inund =
        Nomen.create_name db ~epithet:"inundatum" ~rank:Rank.Species ~year:1753 ~author:l
          ~placed_in:apium ()
      in
      let h = Historical.from_placements db ~names:[ apium; grav; inund ] ~classification_name:"Linnaeus 1753" () in
      Alcotest.(check int) "one root" 1 (List.length h.Historical.roots);
      let root = List.hd h.Historical.roots in
      Alcotest.(check int) "two species below genus" 2
        (List.length (Classify.subtaxa db ~ctx:h.Historical.ctx root));
      (* taxa carry ascribed names; no specimens -> no derivation *)
      Alcotest.(check (option int)) "ascribed name" (Some apium)
        (Classify.ascribed_name_of db root);
      Alcotest.(check bool) "no derivation without specimens" false
        (Historical.supports_derivation db h);
      (* a name placed outside the set becomes a root *)
      let other_genus = Nomen.create_name db ~epithet:"Daucus" ~rank:Rank.Genus ~year:1753 ~author:l () in
      let carota =
        Nomen.create_name db ~epithet:"carota" ~rank:Rank.Species ~year:1753 ~author:l
          ~placed_in:other_genus ()
      in
      let h2 = Historical.from_placements db ~names:[ carota ] () in
      Alcotest.(check int) "orphan placement is a root" 1 (List.length h2.Historical.roots))

let test_historical_with_types_supports_derivation () =
  with_db (fun db ->
      let n = Nomen.create_name db ~epithet:"Apium" ~rank:Rank.Genus () in
      let h = Historical.from_placements db ~names:[ n ] () in
      (* attach a specimen under the historical taxon: derivation becomes possible *)
      let s = Nomen.create_specimen db () in
      let _, taxon = List.hd h.Historical.taxa in
      ignore (Classify.circumscribe db ~ctx:h.Historical.ctx ~group:taxon ~item:s ());
      Alcotest.(check bool) "derivation now possible" true
        (Historical.supports_derivation db h))

let test_historical_name_comparison () =
  with_db (fun db ->
      let l = Nomen.create_author db ~name:"L" ~abbreviation:"L." in
      let apium = Nomen.create_name db ~epithet:"Apium" ~rank:Rank.Genus ~year:1753 ~author:l () in
      let grav =
        Nomen.create_name db ~epithet:"graveolens" ~rank:Rank.Species ~year:1753 ~author:l
          ~placed_in:apium ()
      in
      let h = Historical.from_placements db ~names:[ apium; grav ] () in
      (* a modern classification using the same name (ascribed) *)
      let ctx2 = Classify.create_classification db "modern" in
      let t = Classify.create_taxon db ~rank:Rank.Species () in
      ignore (Classify.ascribe_name db ~taxon:t ~name:grav);
      let s = Nomen.create_specimen db () in
      ignore (Classify.circumscribe db ~ctx:ctx2 ~group:t ~item:s ());
      let matches = Historical.compare_by_name db h ~other_ctx:ctx2 in
      Alcotest.(check bool) "name-based match found" true
        (List.exists (fun (_, b) -> b = t) matches))

(* --- extra ICBN rules ---------------------------------------------------- *)

let test_icbn_tautonym () =
  with_rules (fun db _ ->
      let linaria_g = Nomen.create_name db ~epithet:"Linaria" ~rank:Rank.Genus () in
      (* valid placement *)
      let vulgaris = Nomen.create_name db ~epithet:"vulgaris" ~rank:Rank.Species () in
      ignore (Database.link db S.placed_in ~origin:vulgaris ~destination:linaria_g);
      (* tautonym rejected *)
      let linaria_s = Nomen.create_name db ~epithet:"linaria" ~rank:Rank.Species () in
      match Database.link db S.placed_in ~origin:linaria_s ~destination:linaria_g with
      | exception Prules.Rule.Violation _ -> ()
      | _ -> Alcotest.fail "tautonym should be rejected")

let test_icbn_combination_year_warns () =
  with_rules (fun db engine ->
      let g = Nomen.create_name db ~epithet:"Novus" ~rank:Rank.Genus ~year:1900 () in
      let s = Nomen.create_name db ~epithet:"ante" ~rank:Rank.Species ~year:1850 () in
      ignore (Database.link db S.placed_in ~origin:s ~destination:g);
      Alcotest.(check bool) "year anomaly warned" true
        (List.exists (fun (r, _) -> r = "icbn_combination_year") (Prules.Engine.warnings engine)))

(* --- classification comparison (Pgraph.Compare) --------------------------- *)

let test_compare_classifications () =
  with_db (fun db ->
      let s1 = Nomen.create_specimen db () in
      let s2 = Nomen.create_specimen db () in
      let s3 = Nomen.create_specimen db () in
      let s4 = Nomen.create_specimen db () in
      let ctx1 = Classify.create_classification db "a" in
      let ctx2 = Classify.create_classification db "b" in
      let mk r = Classify.create_taxon db ~rank:r () in
      (* a: {s1 s2} {s3} ; b: {s1 s2} {s3 -> moved with s4} *)
      let a1 = mk Rank.Species and a2 = mk Rank.Species in
      let b1 = mk Rank.Species and b2 = mk Rank.Species in
      List.iter (fun (g, i) -> ignore (Classify.circumscribe db ~ctx:ctx1 ~group:g ~item:i ()))
        [ (a1, s1); (a1, s2); (a2, s3) ];
      List.iter (fun (g, i) -> ignore (Classify.circumscribe db ~ctx:ctx2 ~group:g ~item:i ()))
        [ (b1, s1); (b1, s2); (b2, s3); (b2, s4) ];
      let r =
        Pgraph.Compare.compare_contexts db ~rel:S.circumscribes ~ctx_a:ctx1 ~ctx_b:ctx2 ()
      in
      Alcotest.(check int) "only in b" 1 (Database.OidSet.cardinal r.Pgraph.Compare.only_in_b);
      Alcotest.(check int) "only in a" 0 (Database.OidSet.cardinal r.Pgraph.Compare.only_in_a);
      (* s1, s2 agree (same leafsets); s3 moved to a group with different leafset *)
      Alcotest.(check int) "moved" 1 (List.length r.Pgraph.Compare.moved);
      Alcotest.(check bool) "agreeing groups found" true
        (List.mem (a1, b1) r.Pgraph.Compare.agreeing_groups);
      Alcotest.(check bool) "agreement fraction" true
        (abs_float (r.Pgraph.Compare.agreement -. (2. /. 3.)) < 1e-9))

(* --- traversal and comparison against the list-based oracle --------------- *)

(* [compare_contexts] builds each context's leaf sets once; its report,
   list order included, is the all-pairs oracle's on the thesis fig. 3
   (Apium/Heliosciadium before and after the revision) and fig. 4
   (shapes) examples, both ways round and against itself. *)
let test_compare_contexts_oracle () =
  let check db contexts =
    List.iter
      (fun (ctx_a, ctx_b) ->
        Alcotest.(check bool)
          (Printf.sprintf "compare_contexts %d %d = oracle" ctx_a ctx_b)
          true
          (Graph_oracle.same_report
             (Pgraph.Compare.compare_contexts db ~rel:S.circumscribes ~ctx_a ~ctx_b ())
             (Graph_oracle.compare_contexts db ~rel:S.circumscribes ~ctx_a ~ctx_b ())))
      (List.concat_map (fun a -> List.map (fun b -> (a, b)) contexts) contexts)
  in
  with_db (fun db ->
      let _, (rep_spec, nod_spec), _ = apium_setup db in
      let taxon ctx rank items =
        let t = Classify.create_taxon db ~rank () in
        List.iter (fun i -> ignore (Classify.circumscribe db ~ctx ~group:t ~item:i ())) items;
        t
      in
      let before = Classify.create_classification db "before 2000" in
      ignore (taxon before Rank.Genus [ taxon before Rank.Species [ rep_spec ] ]);
      ignore (taxon before Rank.Genus [ taxon before Rank.Species [ nod_spec ] ]);
      let revision = Classify.create_classification db "revision 2000" in
      ignore (taxon revision Rank.Genus [ taxon revision Rank.Species [ rep_spec; nod_spec ] ]);
      check db [ before; revision ]);
  with_db (fun db ->
      let (c1, _, _, _, _), (c2, _, _, _) = shapes_setup db in
      check db [ c1; c2 ])

(* A traversal allocates for what it visits, not for the size of the
   graph: a species' descendants and ancestors cost as many words in a
   flora of 576 species as in one of 144 (within 2x).  Counted as minor
   plus major words, so arrays allocated straight in the major heap
   count too.  ([Gc.allocated_bytes] would do, but on OCaml 5.1 its
   minor-heap term reads about an eighth of the words allocated.) *)
let test_traversal_allocation_flat () =
  let words () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  let words_per_call f =
    ignore (f ());
    let runs = 200 in
    let before = words () in
    for _ = 1 to runs do
      ignore (Sys.opaque_identity (f ()))
    done;
    (words () -. before) /. float_of_int runs
  in
  let measure families =
    with_db (fun db ->
        let params =
          {
            Flora_gen.families;
            genera_per_family = 6;
            species_per_genus = 8;
            specimens_per_species = 3;
            seed = 42;
          }
        in
        let f = Database.with_tx db (fun () -> Flora_gen.generate db ~params ()) in
        let context = f.Flora_gen.ctx and rel = S.circumscribes in
        let species = List.hd f.Flora_gen.species_taxa in
        ( words_per_call (fun () -> Pgraph.Traverse.descendants db ~context ~rel species),
          words_per_call (fun () -> Pgraph.Traverse.ancestors db ~context ~rel species) ))
  in
  let d144, a144 = measure 3 and d576, a576 = measure 12 in
  let flat name small large =
    if large > 2. *. small then
      Alcotest.failf "%s: %.0f words per call at 576 species, %.0f at 144" name large small
  in
  flat "descendants of a species" d144 d576;
  flat "ancestors of a species" a144 a576

(* A scan filter rejects an object without allocating, so the minor
   words of a filtered scan that keeps nothing do not grow with the
   extent: Specimens outnumber Names by ~900 here, and one word per
   rejected object would already set the two scans further apart than
   the 256 words allowed. *)
let test_filtered_scan_allocation_flat () =
  with_db (fun db ->
      let params =
        { Flora_gen.families = 4; genera_per_family = 8; species_per_genus = 10; specimens_per_species = 4; seed = 42 }
      in
      Database.with_tx db (fun () -> ignore (Flora_gen.generate db ~params ()));
      let names = Database.count db S.name and specimens = Database.count db S.specimen in
      if specimens - names < 512 then Alcotest.failf "%d specimens, %d names" specimens names;
      let scan_words q =
        ignore (Pool_lang.Pool.query db q);
        let runs = 20 in
        let before = Gc.minor_words () in
        for _ = 1 to runs do
          ignore (Sys.opaque_identity (Pool_lang.Pool.query db q))
        done;
        (Gc.minor_words () -. before) /. float_of_int runs
      in
      let s_names = "select n from Name n where n.rank = 'none'"
      and s_specimens = "select s from Specimen s where s.herbarium = 'none'" in
      Alcotest.(check string) "names: a filtered scan" "n<-extent(Name); filter(n.rank)"
        (Pool_lang.Pool.explain db s_names);
      Alcotest.(check string) "specimens: a filtered scan" "s<-extent(Specimen); filter(s.herbarium)"
        (Pool_lang.Pool.explain db s_specimens);
      let count s = "count(" ^ s ^ ")" in
      let w_names = scan_words (count s_names) and w_specimens = scan_words (count s_specimens) in
      if Float.abs (w_specimens -. w_names) > 256. then
        Alcotest.failf "no-match scan: %.0f minor words over %d specimens, %.0f over %d names"
          w_specimens specimens w_names names)

(* The request shapes of the flora browse workload (perfbench/flora.ml),
   over a classification named [ctx]. *)
let browse_shapes =
  let ctx c = Printf.sprintf "first(select c from Context c where c.name = '%s')" c in
  let taxon rank ep =
    Printf.sprintf
      "first(first(select n from Name n where n.epithet = '%s' and n.rank = '%s').sources('AscribedName', null))"
      ep rank
  in
  [
    ( "name_lookup",
      `Species,
      fun ep _ -> Printf.sprintf "select n.epithet, n.rank, n.year, n.status from Name n where n.epithet = '%s'" ep );
    ( "placement",
      `Species,
      fun ep c ->
        Printf.sprintf
          "select first(t.targets('AscribedName', null)).epithet from ancestors(%s, 'Circumscribes', %s) t"
          (taxon "Species" ep) (ctx c) );
    ("subtree", `Genus, fun ep c -> Printf.sprintf "descendants(%s, 'Circumscribes', %s)" (taxon "Genus" ep) (ctx c));
    ( "specimens",
      `Species,
      fun ep c ->
        Printf.sprintf "select s.collector, s.number, s.collected from descendants(%s, 'Circumscribes', %s) s"
          (taxon "Species" ep) (ctx c) );
    ( "context_query",
      `Genus,
      fun ep c ->
        Printf.sprintf
          "select t from (select n from Name n where n.epithet = '%s' and n.rank = 'Genus') g, Taxon t where t in \
           descendants(first(g.sources('AscribedName', null)), 'Circumscribes') in context %s"
          ep (ctx c) );
  ]

let browse_flora db =
  let params =
    { Flora_gen.families = 32; genera_per_family = 10; species_per_genus = 2; specimens_per_species = 1; seed = 5 }
  in
  let flora = Database.with_tx db (fun () -> Flora_gen.generate db ~params ()) in
  ignore (Database.with_tx db (fun () -> Flora_gen.perturb db flora ()));
  let epithets rank =
    List.sort_uniq compare
      (List.map V.as_string
         (V.as_elements (Pool_lang.Pool.query db (Printf.sprintf "select n.epithet from Name n where n.rank = '%s'" rank))))
  in
  (epithets "Species", epithets "Genus")

(* A plan serves every query of its shape: replaying each browse shape
   with 200 distinct epithets and both classifications, every plan
   after the first query of a shape comes from the cache, and every
   answer is the reference interpreter's. *)
let test_browse_plans_cached () =
  with_db (fun db ->
      let species, genera = browse_flora db in
      let take n l = List.filteri (fun i _ -> i < n) l in
      if List.length species < 200 || List.length genera < 200 then
        Alcotest.failf "%d species and %d genus epithets" (List.length species) (List.length genera);
      let stats () = Pool_lang.Pool.stats db in
      List.iter
        (fun (shape, rank, text) ->
          let eps = take 200 (match rank with `Species -> species | `Genus -> genera) in
          let q i ep = text ep (if i mod 2 = 0 then "generated-classification" else "revision") in
          ignore (Pool_lang.Pool.query db (q 0 (List.hd eps)));
          let s0 = stats () in
          List.iteri
            (fun i ep ->
              if i > 0 then begin
                let planned = Pool_lang.Pool.query db (q i ep) in
                if i mod 20 = 0 then
                  let legacy = Pool_lang.Pool.query ~config:Pool_lang.Pool.legacy_config db (q i ep) in
                  if V.compare_value planned legacy <> 0 then Alcotest.failf "%s: %s differs" shape (q i ep)
              end)
            eps;
          let s1 = stats () in
          let hits = s1.Pool_lang.Eval.plan_cache_hits - s0.Pool_lang.Eval.plan_cache_hits
          and misses = s1.Pool_lang.Eval.plan_cache_misses - s0.Pool_lang.Eval.plan_cache_misses in
          let ratio = float_of_int hits /. float_of_int (hits + misses) in
          if ratio < 0.99 then Alcotest.failf "%s: hit ratio %.3f (%d hits, %d misses)" shape ratio hits misses)
        browse_shapes)

(* The browse workload's context query ranges over its genus's
   descendants, not over every taxon: EXPLAIN shows the member path,
   and its Taxon candidates are the elements descendants(...) returns
   (taxa and specimens; the specimens are rejected). *)
let test_context_query_members () =
  with_db (fun db ->
      let _, genera = browse_flora db in
      let _, _, text = List.find (fun (s, _, _) -> s = "context_query") browse_shapes in
      List.iter
        (fun ep ->
          let q = text ep "generated-classification" in
          let plan = Pool_lang.Pool.explain ~counts:true db q in
          let candidates, rejected, emitted =
            try
              Scanf.sscanf plan
                "g<-expr {candidates 1, rejected 0, emitted 1}; t<-member(Taxon) {candidates %d, rejected %d, \
                 emitted %d}; hoist@1"
                (fun c r e -> (c, r, e))
            with Scanf.Scan_failure _ | End_of_file -> Alcotest.failf "plan of %s: %s" q plan
          in
          let below =
            V.as_int
              (Pool_lang.Pool.query db
                 (Printf.sprintf
                    "count(descendants(first(first(select n from Name n where n.epithet = '%s' and n.rank = \
                     'Genus').sources('AscribedName', null)), 'Circumscribes', first(select c from Context c where \
                     c.name = 'generated-classification')))"
                    ep))
          in
          let rows = List.length (Pool_lang.Pool.rows db q) in
          Alcotest.(check (list int)) ("candidates, rejected, emitted of " ^ ep) [ below; below - rows; rows ]
            [ candidates; rejected; emitted ])
        (List.filteri (fun i _ -> i < 10)
           (* as the workload does, genera whose epithet names no other *)
           (List.filter
              (fun ep ->
                Pool_lang.Pool.query db
                  (Printf.sprintf "count(select n from Name n where n.epithet = '%s' and n.rank = 'Genus')" ep)
                = V.VInt 1)
              genera)))

let () =
  Alcotest.run "taxonomy"
    [
      ("ranks", [ Alcotest.test_case "order & properties" `Quick test_rank_order ]);
      ( "nomenclature",
        [
          Alcotest.test_case "name rendering" `Quick test_name_rendering;
          Alcotest.test_case "typification & roles" `Quick test_typification;
        ] );
      ( "classification",
        [
          Alcotest.test_case "circumscription recursion" `Quick test_circumscription_recursion;
          Alcotest.test_case "exclusive within classification" `Quick
            test_exclusive_within_classification;
        ] );
      ( "derivation",
        [
          Alcotest.test_case "Apium/Heliosciadium (fig. 3)" `Quick test_derivation_apium;
          Alcotest.test_case "existing vs new combination" `Quick
            test_derivation_existing_combination;
          Alcotest.test_case "elects types" `Quick test_derivation_elects_types;
        ] );
      ( "multiple classifications",
        [
          Alcotest.test_case "shapes scenario (fig. 4)" `Quick test_shapes_multiple_classifications;
          Alcotest.test_case "homotypic synonyms" `Quick test_homotypic_synonyms;
          Alcotest.test_case "revision workflow" `Quick test_revision_workflow;
          Alcotest.test_case "flora generator" `Quick test_flora_generator_scale;
        ] );
      ( "historical",
        [
          Alcotest.test_case "from placements" `Quick test_historical_from_placements;
          Alcotest.test_case "with types supports derivation" `Quick
            test_historical_with_types_supports_derivation;
          Alcotest.test_case "name comparison" `Quick test_historical_name_comparison;
        ] );
      ( "infraspecific",
        [
          Alcotest.test_case "trinomial rendering" `Quick test_trinomial_rendering;
          Alcotest.test_case "infraspecific derivation" `Quick test_infraspecific_derivation;
          Alcotest.test_case "compare classifications" `Quick test_compare_classifications;
        ] );
      ( "icbn rules",
        [
          Alcotest.test_case "family suffix" `Quick test_icbn_family_suffix;
          Alcotest.test_case "capitalisation" `Quick test_icbn_capitalisation;
          Alcotest.test_case "single word" `Quick test_icbn_single_word;
          Alcotest.test_case "unique holotype" `Quick test_icbn_unique_holotype;
          Alcotest.test_case "placement ranks" `Quick test_icbn_placement_ranks;
          Alcotest.test_case "circumscription ranks" `Quick test_icbn_circumscription_ranks;
          Alcotest.test_case "type existence warns" `Quick test_icbn_type_existence_warns;
          Alcotest.test_case "tautonym" `Quick test_icbn_tautonym;
          Alcotest.test_case "combination year warns" `Quick test_icbn_combination_year_warns;
        ] );
      ( "traversal",
        [
          Alcotest.test_case "compare_contexts = oracle (figs 3, 4)" `Quick
            test_compare_contexts_oracle;
          Alcotest.test_case "allocation follows the walk, not the flora" `Quick
            test_traversal_allocation_flat;
        ] );
      ( "queries",
        [
          Alcotest.test_case "a rejected object allocates nothing" `Quick
            test_filtered_scan_allocation_flat;
          Alcotest.test_case "browse plans come from the cache" `Quick test_browse_plans_cached;
          Alcotest.test_case "the context query touches its members only" `Quick
            test_context_query_members;
        ] );
    ]
