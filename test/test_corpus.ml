(* Stores written by an earlier build open, read-write and read-only, and
   answer as they did when written.  [corpus/demo.pdb] is what `pdb demo`
   wrote before the pager's page-version chains and the read-only
   heap and B-tree constructors were removed (30 species, 90 specimens,
   two classifications).  Each case opens a copy, so the committed file
   stays byte-for-byte what that build wrote. *)

open Pmodel

let copy_to_temp src =
  let dst = Filename.temp_file "corpus" ".pdb" in
  let ic = open_in_bin src and oc = open_out_bin dst in
  output_string oc (really_input_string ic (in_channel_length ic));
  close_in ic;
  close_out oc;
  dst

let answers =
  [
    ("count(select n from Name n where n.rank = 'Species')", "30");
    ("count(select t from Taxon t)", "38");
    ("count(select s from Specimen s)", "90");
    ("select c.name from Context c", "[\"generated-classification\", \"revision\"]");
  ]

let check_store ~readonly file () =
  let path = copy_to_temp file in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ path; path ^ ".journal" ])
    (fun () ->
      let db = Database.open_ ~readonly path in
      Fun.protect
        ~finally:(fun () -> Database.close db)
        (fun () ->
          List.iter
            (fun (q, expected) ->
              Alcotest.(check string) q expected (Value.to_string (Pool_lang.Pool.query db q)))
            answers;
          Alcotest.(check string) "the stored index catalog is probed" "n<-probe(Name.epithet)"
            (Pool_lang.Pool.explain db "select n from Name n where n.epithet = 'x'");
          let view = Database.snapshot db in
          Alcotest.(check string) "a view answers alike" (List.assoc "count(select t from Taxon t)" answers)
            (Value.to_string (Pool_lang.Pool.query view "count(select t from Taxon t)"));
          Database.close view))

let () =
  Alcotest.run "corpus"
    [
      ( "demo",
        [
          Alcotest.test_case "read-write open" `Quick (check_store ~readonly:false "corpus/demo.pdb");
          Alcotest.test_case "read-only open" `Quick (check_store ~readonly:true "corpus/demo.pdb");
        ] );
    ]
