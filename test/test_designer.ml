(* The interactive designer engine, driven as a pure function. *)

module Engine = Designer.Engine
module Feedback = Designer.Feedback

let test = Util.test

let start () = Engine.start (Util.session_of (Util.university ()))

let run state line = Engine.exec_line state line

let run_all state lines = List.fold_left (fun st l -> fst (run st l)) state lines

let has_error feedback = List.exists Feedback.is_error feedback

let output_contains feedback fragment =
  List.exists (fun f -> Str_contains.contains (Feedback.to_string f) fragment) feedback

let concepts_lists_all () =
  let _, fb = run (start ()) "concepts" in
  Alcotest.(check bool) "wagon wheel listed" true
    (output_contains fb "ww:Course_Offering");
  Alcotest.(check bool) "hierarchy listed" true (output_contains fb "gh:Person");
  Alcotest.(check bool) "no errors" false (has_error fb)

let focus_and_show () =
  let st, fb = run (start ()) "focus ww:Book" in
  Alcotest.(check bool) "confirmation" true (output_contains fb "focused ww:Book");
  let _, fb = run st "show" in
  Alcotest.(check bool) "renders the wheel" true
    (output_contains fb "wagon wheel: Book")

let focus_unknown () =
  let _, fb = run (start ()) "focus ww:Ghost" in
  Alcotest.(check bool) "error" true (has_error fb)

let show_without_focus () =
  let _, fb = run (start ()) "show" in
  Alcotest.(check bool) "error" true (has_error fb)

(* a concept the customization removed still resolves through the original
   schema: it renders as the original had it and keeps its permission row *)
let removed_concept_resolves () =
  let st =
    run_all (start ()) [ "focus ww:Book"; "apply delete_type_definition(Book)" ]
  in
  let _, fb = run st "odl Book" in
  Alcotest.(check bool) "Book is gone from the workspace" true (has_error fb);
  let _, fb = run st "show ww:Book" in
  Alcotest.(check bool) "show resolves" false (has_error fb);
  Alcotest.(check bool) "renders the original wheel" true
    (output_contains fb "attr  isbn : string<13>");
  let _, fb = run st "explain" in
  Alcotest.(check bool) "explain resolves" false (has_error fb);
  let _, fb = run st "apply add_type_definition(Book)" in
  Alcotest.(check bool) "apply runs in the wagon wheel" true
    (output_contains fb "applied add_type_definition(Book)")

(* a generalization hierarchy exists only while its root is an ISA root: a
   workspace-only hierarchy disappears once its root gains a supertype *)
let focus_gh_needs_isa_root () =
  let st =
    run_all (start ())
      [
        "focus gh:Person";
        "apply add_type_definition(Lab)";
        "apply add_type_definition(Sublab)";
        "apply add_supertype(Sublab, Lab)";
      ]
  in
  let st, fb = run st "focus gh:Lab" in
  Alcotest.(check bool) "focused while a root" true
    (output_contains fb "focused gh:Lab (generalization hierarchy)");
  let st, fb = run st "apply add_supertype(Lab, Person)" in
  Alcotest.(check bool) "supertype added" false (has_error fb);
  let _, fb = run st "focus gh:Lab" in
  Alcotest.(check bool) "no longer a hierarchy" true
    (output_contains fb "no concept schema named gh:Lab")

let apply_requires_focus () =
  let _, fb = run (start ()) "apply add_type_definition(Lab)" in
  Alcotest.(check bool) "error" true (has_error fb);
  Alcotest.(check bool) "explains" true (output_contains fb "focus")

let apply_with_focus () =
  let st = run_all (start ()) [ "focus ww:Person" ] in
  let st, fb = run st "apply add_attribute(Person, string, 12, phone)" in
  Alcotest.(check bool) "applied" true (output_contains fb "applied");
  let _, fb = run st "odl Person" in
  Alcotest.(check bool) "attribute visible" true (output_contains fb "phone")

let apply_denied_with_hint () =
  let st = run_all (start ()) [ "focus ww:Person" ] in
  let _, fb = run st "apply add_supertype(Student, Book)" in
  Alcotest.(check bool) "denied" true (has_error fb);
  Alcotest.(check bool) "points at GH" true
    (output_contains fb "generalization hierarchy")

let cautions_surface () =
  let st = run_all (start ()) [ "focus ww:Book" ] in
  let _, fb = run st "preview delete_type_definition(Book)" in
  Alcotest.(check bool) "caution shown" true (output_contains fb "caution:")

let preview_then_workspace_unchanged () =
  let st = run_all (start ()) [ "focus ww:Book" ] in
  let st, _ = run st "preview delete_type_definition(Book)" in
  let _, fb = run st "odl Book" in
  Alcotest.(check bool) "Book still there" true (output_contains fb "interface Book")

let undo_via_engine () =
  let st =
    run_all (start ())
      [ "focus ww:Person"; "apply add_attribute(Person, string, 12, phone)" ]
  in
  let st, fb = run st "undo" in
  Alcotest.(check bool) "confirmed" true (output_contains fb "reverted");
  let _, fb = run st "odl Person" in
  Alcotest.(check bool) "gone" false (output_contains fb "phone");
  let _, fb = run st "undo" in
  Alcotest.(check bool) "empty undo errors" true (has_error fb)

let check_and_reports () =
  let st = start () in
  let _, fb = run st "check" in
  Alcotest.(check bool) "no findings" true (output_contains fb "no findings");
  let _, fb = run st "mapping" in
  Alcotest.(check bool) "mapping" true (output_contains fb "mapping report");
  let _, fb = run st "impact" in
  Alcotest.(check bool) "impact" true (output_contains fb "impact report");
  let _, fb = run st "rules" in
  Alcotest.(check bool) "rules" true (output_contains fb "propagation")

let custom_named () =
  let _, fb = run (start ()) "custom Tailored" in
  Alcotest.(check bool) "renamed" true (output_contains fb "schema Tailored")

let summary_and_schema () =
  let st = start () in
  let _, fb = run st "summary" in
  Alcotest.(check bool) "inventory" true (output_contains fb "object types");
  let _, fb = run st "schema" in
  Alcotest.(check bool) "odl" true (output_contains fb "schema University")

let bad_commands () =
  let st = start () in
  let checks = [ "frobnicate"; "focus"; "apply"; "apply nonsense(" ] in
  List.iter
    (fun line ->
      let _, fb = run st line in
      Alcotest.(check bool) (line ^ " errors") true (has_error fb))
    checks

let quit_finishes () =
  let st, _ = run (start ()) "quit" in
  Alcotest.(check bool) "finished" true st.Engine.finished

let help_lists_commands () =
  let _, fb = run (start ()) "help" in
  List.iter
    (fun cmd ->
      Alcotest.(check bool) (cmd ^ " documented") true (output_contains fb cmd))
    [ "concepts"; "apply"; "preview"; "undo"; "mapping"; "save" ]

let explain_command () =
  let st = run_all (start ()) [ "focus ww:Course_Offering" ] in
  let _, fb = run st "explain" in
  Alcotest.(check bool) "prose" true
    (output_contains fb "presents the course offering point of view");
  let _, fb = run st "explain gh:Person" in
  Alcotest.(check bool) "explicit id" true
    (output_contains fb "generalization hierarchy rooted at person")

let alias_commands () =
  let st = start () in
  let st, fb = run st "alias Student Learner" in
  Alcotest.(check bool) "confirmed" true (output_contains fb "locally known as");
  let _, fb = run st "aliases" in
  Alcotest.(check bool) "listed" true (output_contains fb "Student -> Learner");
  let _, fb = run st "alias Ghost Spooky" in
  Alcotest.(check bool) "bad target errors" true (has_error fb);
  let _, fb = run st "alias Student" in
  Alcotest.(check bool) "usage errors" true (has_error fb);
  let st, _ = run st "unalias Student" in
  let _, fb = run st "aliases" in
  Alcotest.(check bool) "empty after unalias" true
    (output_contains fb "no local names")

let suggestions_on_rejection () =
  let st = run_all (start ()) [ "focus ww:Person" ] in
  let _, fb = run st "apply delete_type_definition(Studnet)" in
  Alcotest.(check bool) "did-you-mean shown" true
    (output_contains fb "did you mean")

let log_after_apply () =
  let st =
    run_all (start ())
      [ "focus ww:Person"; "apply add_attribute(Person, string, 12, phone)" ]
  in
  let _, fb = run st "log" in
  Alcotest.(check bool) "log line" true
    (output_contains fb "add_attribute(Person, string, 12, phone)")

let redo_command () =
  let st =
    run_all (start ())
      [ "focus ww:Person"; "apply add_attribute(Person, string, 12, phone)";
        "undo" ]
  in
  let st, fb = run st "redo" in
  Alcotest.(check bool) "confirmed" true (output_contains fb "re-applied");
  let _, fb = run st "odl Person" in
  Alcotest.(check bool) "attribute back" true (output_contains fb "phone");
  let st, _ = run st "undo" in
  let st, _ = run st "apply add_attribute(Person, string, 12, fax)" in
  let _, fb = run st "redo" in
  Alcotest.(check bool) "cleared by fresh apply" true (has_error fb)

let source_command () =
  let script = Filename.temp_file "swsd_script" ".txt" in
  let oc = open_out script in
  output_string oc
    "# comment line\nfocus ww:Person\napply add_attribute(Person, string, 12, \
     phone)\nsummary\n";
  close_out oc;
  Fun.protect
    ~finally:(fun () -> Sys.remove script)
    (fun () ->
      let st, fb = run (start ()) ("source " ^ script) in
      Alcotest.(check bool) "commands echoed" true (output_contains fb "> focus");
      Alcotest.(check bool) "no errors" false (has_error fb);
      let _, fb = run st "odl Person" in
      Alcotest.(check bool) "applied" true (output_contains fb "phone"));
  let _, fb = run (start ()) "source /no/such/file" in
  Alcotest.(check bool) "missing file errors" true (has_error fb)

let quality_command () =
  let _, fb = run (start ()) "quality" in
  Alcotest.(check bool) "score shown" true (output_contains fb "schema quality:")

let todo_tracks_review () =
  let st = start () in
  let _, fb = run st "todo" in
  Alcotest.(check bool) "all pending initially" true
    (output_contains fb "not yet considered");
  Alcotest.(check bool) "lists a wheel" true (output_contains fb "ww:Person");
  let st = run_all st [ "focus ww:Person"; "focus gh:Person" ] in
  let _, fb = run st "todo" in
  Alcotest.(check bool) "visited dropped" false (output_contains fb "ww:Person ");
  Alcotest.(check bool) "others remain" true (output_contains fb "ww:Book");
  (* visiting everything clears the list *)
  let all_ids =
    Core.Session.concepts st.Engine.session
    |> List.map (fun c -> "focus " ^ c.Core.Concept.c_id)
  in
  let st = run_all st all_ids in
  let _, fb = run st "todo" in
  Alcotest.(check bool) "done" true
    (output_contains fb "every concept schema has been considered")

let data_workflow () =
  let data = Filename.temp_file "swsd_data" ".objs" in
  let oc = open_out data in
  output_string oc
    "object @1 : Time_Slot {\n  day = \"Mon\";\n  starts = \"09:00\";\n  \
     ends = \"10:00\";\n}\n";
  close_out oc;
  Fun.protect
    ~finally:(fun () -> Sys.remove data)
    (fun () ->
      let st, fb = run (start ()) ("data " ^ data) in
      Alcotest.(check bool) "loaded" true (output_contains fb "loaded 1 object");
      (* deleting the type the data inhabits reports a data impact *)
      let st, _ = run st "focus ww:Time_Slot" in
      let st, fb = run st "apply delete_type_definition(Time_Slot)" in
      Alcotest.(check bool) "data impact caution" true
        (output_contains fb "data impact");
      let _, fb = run st "migrate" in
      Alcotest.(check bool) "drop reported" true
        (output_contains fb "dropped: @1 object"));
  let _, fb = run (start ()) "migrate" in
  Alcotest.(check bool) "no data loaded errors" true (has_error fb);
  let _, fb = run (start ()) "data /no/such/file" in
  Alcotest.(check bool) "missing file errors" true (has_error fb)

let select_command () =
  let data = Filename.temp_file "swsd_q" ".objs" in
  let oc = open_out data in
  output_string oc "object @1 : Person { name = \"Alice\"; ssn = \"1\"; }\n";
  close_out oc;
  Fun.protect
    ~finally:(fun () -> Sys.remove data)
    (fun () ->
      let _, fb = run (start ()) "select Person" in
      Alcotest.(check bool) "needs data" true (has_error fb);
      let st, _ = run (start ()) ("data " ^ data) in
      let _, fb = run st "select Person where name like \"Ali\"" in
      Alcotest.(check bool) "match shown" true (output_contains fb "@1 : Person");
      let _, fb = run st "select Person where name = \"Zed\"" in
      Alcotest.(check bool) "no matches" true (output_contains fb "no matches"))

let save_includes_data () =
  let data = Filename.temp_file "swsd_save" ".objs" in
  let oc = open_out data in
  output_string oc "object @1 : Book { isbn = \"i\"; title = \"t\"; }\n";
  close_out oc;
  let dir = Filename.temp_file "swsd_save_dir" "" in
  Sys.remove dir;
  let rec rm p =
    if Sys.is_directory p then begin
      Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p
  in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove data;
      if Sys.file_exists dir then rm dir)
    (fun () ->
      let st = run_all (start ()) [ "data " ^ data ] in
      let _, fb = run st ("save " ^ dir) in
      Alcotest.(check bool) "confirmed" true (output_contains fb "saved");
      Alcotest.(check bool) "data persisted" true
        (Sys.file_exists (Filename.concat dir "data.objs")))

(* Every Command constructor has a decided service classification.  The
   [expected] match below is exhaustive with no catch-all — as are
   [Command.access] and [Command.mutates] themselves — so adding a
   constructor without deciding its read/write class fails to compile in
   all three places; this test then pins the decisions at run time. *)
let command_classification () =
  let module C = Designer.Command in
  let op =
    match C.parse "apply add_attribute(Person, string, 8, x)" with
    | C.Apply op -> op
    | _ -> Alcotest.fail "apply should parse to Apply"
    | exception C.Bad_command m -> Alcotest.fail m
  in
  let expected (c : C.t) =
    match c with
    (* pure reads: lock-free against the published snapshot *)
    | C.Concepts -> (C.Read, false)
    | C.Show _ -> (C.Read, false)
    | C.Odl _ -> (C.Read, false)
    | C.Print_schema -> (C.Read, false)
    | C.Summary -> (C.Read, false)
    | C.Preview _ -> (C.Read, false)
    | C.Plan _ -> (C.Read, false)
    | C.Check -> (C.Read, false)
    | C.Quality -> (C.Read, false)
    | C.Todo -> (C.Read, false)
    | C.Migrate_data -> (C.Read, false)
    | C.Query _ -> (C.Read, false)
    | C.Mapping -> (C.Read, false)
    | C.Impact -> (C.Read, false)
    | C.Custom _ -> (C.Read, false)
    | C.Explain _ -> (C.Read, false)
    | C.List_aliases -> (C.Read, false)
    | C.Log -> (C.Read, false)
    | C.Rules -> (C.Read, false)
    | C.Help -> (C.Read, false)
    (* design mutations: writer lock, refused on readonly connections *)
    | C.Apply _ -> (C.Write, true)
    | C.Undo -> (C.Write, true)
    | C.Redo -> (C.Write, true)
    | C.Alias _ -> (C.Write, true)
    | C.Unalias _ -> (C.Write, true)
    | C.Source _ -> (C.Write, true)
    | C.Save _ -> (C.Write, true)
    | C.Load_data _ -> (C.Write, true)
    (* engine-state changes that are not design mutations: the writer
       lock, but allowed readonly *)
    | C.Focus _ -> (C.Write, false)
    | C.Quit -> (C.Write, false)
  in
  let samples =
    [
      ("concepts", C.Concepts);
      ("focus", C.Focus "ww:Person");
      ("show", C.Show None);
      ("show <c>", C.Show (Some "ww:Person"));
      ("odl", C.Odl "ww:Person");
      ("schema", C.Print_schema);
      ("summary", C.Summary);
      ("apply", C.Apply op);
      ("preview", C.Preview op);
      ("plan", C.Plan op);
      ("undo", C.Undo);
      ("redo", C.Redo);
      ("source", C.Source "cmds.txt");
      ("check", C.Check);
      ("quality", C.Quality);
      ("todo", C.Todo);
      ("data", C.Load_data "objs");
      ("migrate", C.Migrate_data);
      ("select", C.Query "select Person");
      ("mapping", C.Mapping);
      ("impact", C.Impact);
      ("custom", C.Custom None);
      ("custom <n>", C.Custom (Some "mine"));
      ("explain", C.Explain None);
      ("explain <r>", C.Explain (Some "r1"));
      ("alias", C.Alias ("aa", "apply add_attribute"));
      ("unalias", C.Unalias "aa");
      ("aliases", C.List_aliases);
      ("log", C.Log);
      ("rules", C.Rules);
      ("save", C.Save "/tmp/out");
      ("help", C.Help);
      ("quit", C.Quit);
    ]
  in
  List.iter
    (fun (name, c) ->
      let acc, mut = expected c in
      Alcotest.(check bool)
        (name ^ ": access")
        (acc = C.Write)
        (C.access c = C.Write);
      Alcotest.(check bool) (name ^ ": mutates") mut (C.mutates c);
      (* the invariant the service relies on: every mutating command goes
         through the writer lock — nothing mutating may classify Read *)
      if C.mutates c then
        Alcotest.(check bool)
          (name ^ ": mutating implies write-class")
          true
          (C.access c = C.Write))
    samples

let tests =
  [
    test "concepts lists all" concepts_lists_all;
    test "focus and show" focus_and_show;
    test "focus unknown concept" focus_unknown;
    test "show without focus" show_without_focus;
    test "removed concept resolves through the original" removed_concept_resolves;
    test "focus gh needs an ISA root" focus_gh_needs_isa_root;
    test "apply requires focus" apply_requires_focus;
    test "apply with focus" apply_with_focus;
    test "apply denied with hint" apply_denied_with_hint;
    test "cautions surface" cautions_surface;
    test "preview leaves workspace unchanged" preview_then_workspace_unchanged;
    test "undo via engine" undo_via_engine;
    test "check and reports" check_and_reports;
    test "custom with a name" custom_named;
    test "summary and schema" summary_and_schema;
    test "bad commands" bad_commands;
    test "every command constructor has a decided service classification"
      command_classification;
    test "quit finishes" quit_finishes;
    test "help lists commands" help_lists_commands;
    test "log after apply" log_after_apply;
    test "explain command" explain_command;
    test "alias commands" alias_commands;
    test "suggestions on rejection" suggestions_on_rejection;
    test "redo command" redo_command;
    test "source command" source_command;
    test "quality command" quality_command;
    test "todo tracks review" todo_tracks_review;
    test "data workflow" data_workflow;
    test "select command" select_command;
    test "save includes data" save_includes_data;
  ]
