(* The query subsystem's core: parser, planner, evaluator, and — the
   correctness foundation — the incrementally maintained {!Query.View}.
   The central property is differential, in the house style of the PR 1
   index-vs-naive checker: after an arbitrary accepted op sequence (plus
   undo/redo), the incrementally refreshed view is logically identical to
   a from-scratch build at every step.

   Run with QCHECK_LONG=1 (the [fuzz-long] alias) for a 10x deeper pass;
   the [query-fuzz] alias scales the never-crash fuzz property instead. *)

module Ast = Query.Ast
module Parser = Query.Parser
module Plan = Query.Plan
module View = Query.View
module Eval = Query.Eval

let test = Util.test

let prop name ?(count = 500) gen f =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count ~long_factor:10 gen f)

let parse_ok text =
  match Parser.parse text with
  | Ok q -> q
  | Error m -> Alcotest.failf "%S should parse: %s" text m

let parse_err text =
  match Parser.parse text with
  | Ok _ -> Alcotest.failf "%S should be rejected" text
  | Error m -> m

(* --- parser ---------------------------------------------------------------- *)

let parser_forms () =
  let q = parse_ok "name Person" in
  Alcotest.(check bool) "not all" false q.Ast.q_all;
  Alcotest.(check bool) "not explain" false q.Ast.q_explain;
  (match q.q_atom with
  | Ast.Name (Ast.Exact "Person") -> ()
  | _ -> Alcotest.fail "name Person should be an exact name atom");
  (match (parse_ok "name \"Per*\"").q_atom with
  | Ast.Name (Ast.Glob "Per*") -> ()
  | _ -> Alcotest.fail "quoted wildcard pattern should be a glob");
  (* a quoted pattern without wildcards is a point lookup *)
  (match (parse_ok "name \"Person\"").q_atom with
  | Ast.Name (Ast.Exact "Person") -> ()
  | _ -> Alcotest.fail "quoted non-wildcard pattern should be exact");
  (match (parse_ok "attr gpa inherited").q_atom with
  | Ast.Attr { pat = Ast.Exact "gpa"; inherited = true } -> ()
  | _ -> Alcotest.fail "attr ... inherited");
  (match (parse_ok "isa Person").q_atom with
  | Ast.Isa { name = "Person"; dir = Ast.Down } -> ()
  | _ -> Alcotest.fail "isa defaults down");
  (match (parse_ok "partof Engine up").q_atom with
  | Ast.Part { name = "Engine"; dir = Ast.Up } -> ()
  | _ -> Alcotest.fail "partof ... up");
  (match (parse_ok "diff 3").q_atom with
  | Ast.Diff { since = 3; until = None } -> ()
  | _ -> Alcotest.fail "diff with one stamp");
  (match (parse_ok "diff 3 9").q_atom with
  | Ast.Diff { since = 3; until = Some 9 } -> ()
  | _ -> Alcotest.fail "diff with a range");
  let q = parse_ok "all explain name Person" in
  Alcotest.(check bool) "all" true q.q_all;
  Alcotest.(check bool) "explain" true q.q_explain

let parser_rejects () =
  let contains m frag =
    if not (Str_contains.contains m frag) then
      Alcotest.failf "error %S should mention %S" m frag
  in
  contains (parse_err "") "expected a query form";
  contains (parse_err "frobnicate Person") "expected a query form";
  contains (parse_err "name") "expected a name";
  contains (parse_err "diff") "expected";
  (* trailing garbage is an error, not silently ignored *)
  contains (parse_err "name Person Person") "";
  contains (parse_err "isa Person sideways") "";
  (* lex errors surface with a position, not an exception *)
  contains (parse_err "name \"unterminated") "lex error"

let glob_semantics () =
  let m pat s = Ast.matches (Ast.Glob pat) s in
  Alcotest.(check bool) "* spans" true (m "P*n" "Person");
  Alcotest.(check bool) "* empty run" true (m "Person*" "Person");
  Alcotest.(check bool) "? is one char" true (m "Pers?n" "Person");
  Alcotest.(check bool) "? not empty" false (m "Person?" "Person");
  Alcotest.(check bool) "star runs collapse" true (m "P**n" "Person");
  Alcotest.(check bool) "no match" false (m "Q*" "Person");
  Alcotest.(check string) "literal prefix" "Per" (Ast.literal_prefix "Per*o?");
  Alcotest.(check string) "no prefix" "" (Ast.literal_prefix "*Person")

let planner_picks_access_paths () =
  let plan text = Plan.of_atom (parse_ok text).Ast.q_atom in
  (match plan "name Person" with
  | Plan.Name_point "Person" -> ()
  | _ -> Alcotest.fail "exact name should be a point lookup");
  (match plan "name \"Per*\"" with
  | Plan.Name_prefix { prefix = "Per"; _ } -> ()
  | _ -> Alcotest.fail "prefixed glob should be a bounded scan");
  (match plan "name \"*son\"" with
  | Plan.Name_scan _ -> ()
  | _ -> Alcotest.fail "prefixless glob should be a full scan");
  (match plan "attr gpa" with
  | Plan.Attr_point { attr = "gpa"; inherited = false } -> ()
  | _ -> Alcotest.fail "exact attr should probe the attribute index");
  List.iter
    (fun text ->
      let d = Plan.describe (plan text) in
      if not (Str_contains.contains d "plan:") then
        Alcotest.failf "describe %S should start with plan:" text)
    [ "name x"; "name \"x*\""; "attr \"*\" inherited"; "isa A up";
      "partof B"; "wheel C"; "diff 1 2" ]

(* --- evaluation on the university schema ----------------------------------- *)

let university_view () =
  let session = Util.session_of (Util.university ()) in
  (session, View.build ~stamp:1 session)

let run view text =
  match Eval.run view (parse_ok text).Ast.q_atom with
  | Ok lines -> lines
  | Error m -> Alcotest.failf "%S should evaluate: %s" text m

let run_err view text =
  match Eval.run view (parse_ok text).Ast.q_atom with
  | Ok _ -> Alcotest.failf "%S should fail" text
  | Error m -> m

let eval_university () =
  let _, v = university_view () in
  Alcotest.(check (list string)) "point name" [ "Person" ] (run v "name Person");
  Alcotest.(check (list string)) "missing name" [] (run v "name Nobody");
  Alcotest.(check (list string))
    "glob name"
    [ "Course"; "Course_Offering" ]
    (run v "name \"Course*\"");
  Alcotest.(check (list string))
    "isa down is transitive"
    [ "Doctoral"; "Employee"; "Faculty"; "Graduate"; "Nonthesis_Masters";
      "Student"; "Thesis_Masters"; "Undergraduate" ]
    (run v "isa Person");
  Alcotest.(check (list string))
    "isa up" [ "Graduate"; "Person"; "Student" ] (run v "isa Doctoral up");
  Alcotest.(check (list string))
    "attr point" [ "Student.gpa" ] (run v "attr gpa");
  (* inherited attrs walk the ISA closure and report the declarer *)
  Alcotest.(check (list string))
    "attr inherited"
    [ "Doctoral.gpa (from Student)"; "Graduate.gpa (from Student)";
      "Nonthesis_Masters.gpa (from Student)"; "Student.gpa";
      "Thesis_Masters.gpa (from Student)"; "Undergraduate.gpa (from Student)" ]
    (run v "attr gpa inherited");
  let wheel = run v "wheel Course" in
  if not (List.mem "Course" wheel) then
    Alcotest.fail "wagon wheel should contain its focus";
  if not (Str_contains.contains (run_err v "isa Nobody") "no interface") then
    Alcotest.fail "closure of a missing interface names the problem";
  if not (Str_contains.contains (run_err v "diff 0 9") "ahead") then
    Alcotest.fail "a future stamp is refused"

(* A pinned digest over a battery of queries: the canonical (sorted)
   output is a wire-format promise — shard-merged answers reassemble to
   these exact bytes, so any ordering change must be deliberate and show
   up here. *)
let battery =
  [ "name \"*\""; "name \"Co*\""; "attr \"*\""; "attr \"*\" inherited";
    "isa Person"; "isa Person up"; "isa Doctoral up"; "partof Course";
    "partof Syllabus up"; "wheel Course"; "wheel Person"; "diff 0" ]

let pinned_digest () =
  let _, v = university_view () in
  let text =
    String.concat "\n"
      (List.concat_map
         (fun q ->
           (q ^ ":")
           ::
           (match Eval.run v (parse_ok q).Ast.q_atom with
           | Ok lines -> lines
           | Error m -> [ "error: " ^ m ]))
         battery)
  in
  Alcotest.(check string)
    "university battery digest"
    "222e112af2ae2b3d0ced3d535602ca5e"
    (Digest.to_hex (Digest.string text))

(* --- incremental maintenance ----------------------------------------------- *)

let refresh_after_ops () =
  let s, v = university_view () in
  let s, _ = Util.apply_ok s "add_attribute(Person, string, 8, badge)" in
  let v = View.refresh v ~stamp:2 s in
  Alcotest.(check int) "one refresh" 1 (View.refresh_count v);
  Alcotest.(check (list string)) "new attr indexed" [ "Person.badge" ]
    (run v "attr badge");
  let s, _ = Util.apply_ok s "delete_attribute(Person, badge)" in
  let v = View.refresh v ~stamp:3 s in
  Alcotest.(check (list string)) "deleted attr deindexed" [] (run v "attr badge");
  Alcotest.(check (list string))
    "history records both steps, chronologically"
    [ "2 @ww add_attribute(Person, string, 8, badge)";
      "3 @ww delete_attribute(Person, badge)" ]
    (run v "diff 1")

let refresh_sees_undo () =
  let s, v = university_view () in
  let s, _ = Util.apply_ok s "add_attribute(Person, string, 8, badge)" in
  let v = View.refresh v ~stamp:2 s in
  let s = Option.get (Core.Session.undo s) in
  let v = View.refresh v ~stamp:3 s in
  Alcotest.(check (list string)) "undo removed the attr" [] (run v "attr badge");
  Alcotest.(check (list string))
    "undo shows in the history"
    [ "2 @ww add_attribute(Person, string, 8, badge)";
      "3 undo @ww add_attribute(Person, string, 8, badge)" ]
    (run v "diff 1");
  match Core.Session.redo s with
  | None -> Alcotest.fail "redo should be available"
  | Some (s, _) ->
      let v = View.refresh v ~stamp:4 s in
      Alcotest.(check (list string))
        "redo restores the attr" [ "Person.badge" ] (run v "attr badge")

let history_is_bounded () =
  let s, v = university_view () in
  let n = 520 (* past max_history = 512 *) in
  let rec go s v i =
    if i > n then (s, v)
    else
      let s, _ =
        Util.apply_ok s
          (Printf.sprintf "add_attribute(Person, string, 8, b%04d)" i)
      in
      go s (View.refresh v ~stamp:(i + 1) s) (i + 1)
  in
  let _, v = go s v 1 in
  Alcotest.(check int) "stamp tracks" (n + 1) (View.stamp v);
  if View.floor_stamp v <= 1 then
    Alcotest.fail "floor should have moved past the dropped prefix";
  (match run v "diff 0" with
  | note :: _ when Str_contains.contains note "history truncated" -> ()
  | _ -> Alcotest.fail "a pre-floor diff should carry the truncation note");
  (* a slice entirely above the floor is complete: no note *)
  match run v (Printf.sprintf "diff %d" (View.floor_stamp v)) with
  | note :: _ when Str_contains.contains note "history truncated" ->
      Alcotest.fail "an in-window diff should not claim truncation"
  | _ -> ()

let update_is_monotone () =
  let s, v = university_view () in
  let s', _ = Util.apply_ok s "add_attribute(Person, string, 8, badge)" in
  let v2 = View.update ~prev:v ~stamp:2 s' in
  (* a racing writer that lost the CAS re-updates at an older stamp: the
     newer view must win unchanged *)
  let v2' = View.update ~prev:v2 ~stamp:1 s in
  if not (v2 == v2') then Alcotest.fail "update must keep a newer view";
  match View.update ~stamp:5 s' with
  | v5 ->
      Alcotest.(check int) "build from nothing adopts the stamp" 5
        (View.stamp v5)

(* --- the differential property --------------------------------------------- *)

let apply_act (kind, op) session =
  match Core.Session.apply session ~kind op with
  | Ok (s, _) -> Some s
  | Error _ -> None

let build_equal stamp session v =
  View.equal_logical v (View.build ~stamp session)

(* Incremental refresh after every accepted op (and undo/redo) produces
   exactly the rows and attribute index of a from-scratch build.  This is
   the property the whole subsystem leans on: it exercises
   Schema_index.changed_names (the pointer-diff dirty seed) and the
   neighbourhood widening in View.refresh against arbitrary generated
   schemas and workloads.  A second view refreshes only after every k-th
   step, k ∈ 1..4 — a lagging view, or a writer that lost the publication
   race — so one refresh spans several ops and its seeds mix names that
   different ops touched. *)
let incremental_equals_scratch =
  let gen = QCheck2.Gen.pair (QCheck2.Gen.int_range 1 4) Gen.schema_and_ops in
  prop "incremental view refresh = from-scratch build" gen
    (fun (k, (schema, steps)) ->
      match Core.Session.create schema with
      | Error _ -> QCheck2.assume_fail () (* synth schemas are valid *)
      | Ok session ->
          let step ((session, v, lag, pending, ok) as acc) act =
            if not ok then acc
            else
              match act session with
              | None -> acc
              | Some session ->
                  let stamp = View.stamp v + 1 in
                  let built = View.build ~stamp session in
                  let v = View.refresh v ~stamp session in
                  let lag, pending =
                    if pending + 1 < k then (lag, pending + 1)
                    else (View.refresh lag ~stamp session, 0)
                  in
                  ( session,
                    v,
                    lag,
                    pending,
                    View.equal_logical v built
                    && (pending > 0 || View.equal_logical lag built) )
          in
          let acts =
            List.map apply_act steps
            @ [
                (fun s -> Core.Session.undo s);
                (fun s -> Core.Session.undo s);
                (fun s -> Option.map fst (Core.Session.redo s));
              ]
          in
          let v = View.build ~stamp:1 session in
          let session, v, lag, _, ok =
            List.fold_left step (session, v, v, 0, true) acts
          in
          (* the lagging view catches up at the end *)
          ok
          && build_equal (View.stamp v) session
               (View.refresh lag ~stamp:(View.stamp v) session))

(* Ops that edit one interface's members and leave its edges alone. *)
let member_op schema =
  let open QCheck2.Gen in
  let names = Odl.Schema.interface_names schema in
  let* n = oneofl names in
  let attrs =
    match Odl.Schema.find_interface schema n with
    | Some i -> List.map (fun a -> a.Odl.Types.attr_name) i.i_attrs
    | None -> []
  in
  let pick_attr = if attrs = [] then Gen.ident else oneofl attrs in
  let open Core.Modop in
  oneof
    [
      map (fun a -> Add_attribute (n, Odl.Types.D_int, None, a)) Gen.ident;
      map (fun a -> Delete_attribute (n, a)) pick_attr;
      map (fun a -> Modify_attribute_size (n, a, None, Some 9)) pick_attr;
      map (fun o -> Add_operation (n, Odl.Types.D_void, o, [], [])) Gen.ident;
      map (fun a -> Add_key_list (n, [ a ])) pick_attr;
      map (fun e -> Add_extent_name (n, e)) Gen.ident;
    ]

(* The reuse claim behind the light refresh: when every name an op changed
   kept its declaration position, supertypes and relationships, no row but
   those names' is rebuilt, and their closures and wheels are the old
   values themselves. *)
let light_refresh_shares_rows =
  let gen =
    QCheck2.Gen.(
      let* schema = Gen.any_synth_schema in
      let* ops = list_size (int_range 1 8) (member_op schema) in
      return (schema, ops))
  in
  prop "members-only refresh shares every untouched row" gen
    (fun (schema, ops) ->
      match Core.Session.create schema with
      | Error _ -> QCheck2.assume_fail ()
      | Ok session ->
          let module Si = Core.Schema_index in
          let keeps_edges old_idx idx name =
            match
              (Si.find_positioned old_idx name, Si.find_positioned idx name)
            with
            | Some (o, po), Some (n, pn) ->
                po = pn
                && o.Odl.Types.i_supertypes = n.Odl.Types.i_supertypes
                && o.i_rels = n.i_rels
            | _ -> false
          in
          let shared old_v v changed =
            View.SMap.for_all
              (fun name (e : View.entry) ->
                match View.find_entry old_v name with
                | None -> false
                | Some o when List.mem name changed ->
                    o.e_anc == e.e_anc && o.e_desc == e.e_desc
                    && o.e_wholes == e.e_wholes && o.e_parts == e.e_parts
                    && o.e_wheel == e.e_wheel
                | Some o -> o == e)
              (View.entries v)
            && View.interface_count v = View.interface_count old_v
          in
          let _, _, ok =
            List.fold_left
              (fun ((session, v, ok) as acc) op ->
                if not ok then acc
                else
                  match apply_act (Core.Concept.Wagon_wheel, op) session with
                  | None -> acc
                  | Some session' ->
                      let old_idx = Core.Session.index session
                      and idx = Core.Session.index session' in
                      let changed = Si.changed_names old_idx idx in
                      let stamp = View.stamp v + 1 in
                      let v' = View.refresh v ~stamp session' in
                      let light = List.for_all (keeps_edges old_idx idx) changed in
                      ( session',
                        v',
                        build_equal stamp session' v'
                        && ((not light) || shared v v' changed) ))
              (session, View.build ~stamp:1 session, true)
              ops
          in
          ok)

(* An interface deleted and re-added with identical edges inside one
   refresh keeps its name and its edges but moves to the end of the
   declaration order.  The hub it points at has identical relationships
   before and after (its inverse end was, and is again, its last one), yet
   its wheel lists incoming edges in owner order, which the move changed:
   only the re-added name's position tells the refresh to rebuild it. *)
let refresh_after_delete_and_readd () =
  let s, _ = university_view () in
  let s =
    List.fold_left
      (fun s op -> fst (Util.apply_ok s op))
      s
      [ "add_type_definition(Hub)"; "add_type_definition(Xa)";
        "add_type_definition(Qb)"; "add_relationship(Qb, Hub, hub_q, qs)";
        "add_relationship(Xa, Hub, hub_x, xs)" ]
  in
  let v = View.build ~stamp:1 s in
  let s' =
    List.fold_left
      (fun s op -> fst (Util.apply_ok s op))
      s
      [ "delete_type_definition(Xa)"; "add_type_definition(Xa)";
        "add_relationship(Xa, Hub, hub_x, xs)" ]
  in
  let built = View.build ~stamp:2 s' in
  let module Si = Core.Schema_index in
  let hub s = Si.get_interface (Core.Session.index s) "Hub" in
  if (hub s).i_rels <> (hub s').i_rels then
    Alcotest.fail "the hub's relationships should be the same again";
  let wheel v = (Option.get (View.find_entry v "Hub")).e_wheel in
  if Core.Concept.equal (wheel v) (wheel built) then
    Alcotest.fail "the move should reorder the hub's wheel";
  if not (View.equal_logical (View.refresh v ~stamp:2 s') built) then
    Alcotest.fail "refresh across delete and re-add should equal a build"

(* One refresh spanning a members edit of Doctoral and a new root above
   Person: Doctoral's own change is light, but Person's new supertype
   reaches Doctoral's ancestors, so its row must be rebuilt whole. *)
let refresh_light_seed_in_reach () =
  let s, v = university_view () in
  let s =
    List.fold_left
      (fun s (kind, op) -> fst (Util.apply_ok ~kind s op))
      s
      Core.Concept.
        [ (Wagon_wheel, "add_attribute(Doctoral, int, none, badge)");
          (Generalization, "add_type_definition(Top)");
          (Generalization, "add_supertype(Person, Top)") ]
  in
  let v = View.refresh v ~stamp:2 s in
  Alcotest.(check (list string))
    "the new ancestor reaches Doctoral"
    [ "Graduate"; "Person"; "Student"; "Top" ]
    (run v "isa Doctoral up");
  if not (View.equal_logical v (View.build ~stamp:2 s)) then
    Alcotest.fail "refresh should equal a build"

(* The evaluator's other invariant: every answer except [diff] is sorted
   and duplicate-free, whatever the view holds. *)
let answers_are_canonical =
  let gen =
    QCheck2.Gen.(
      let* schema, ops = Gen.schema_and_ops in
      let* pat = oneofl [ "*"; "a*"; "?*"; "x" ] in
      return (schema, ops, pat))
  in
  prop "non-diff answers are sorted and unique" gen (fun (schema, ops, pat) ->
      match Core.Session.create schema with
      | Error _ -> QCheck2.assume_fail ()
      | Ok session ->
          let session =
            List.fold_left
              (fun s (kind, op) ->
                match Core.Session.apply s ~kind op with
                | Ok (s', _) -> s'
                | Error _ -> s)
              session ops
          in
          let v = View.build ~stamp:1 session in
          let sorted_unique lines =
            lines = List.sort_uniq String.compare lines
          in
          let q text =
            match Eval.run v (parse_ok text).Ast.q_atom with
            | Ok lines -> sorted_unique lines
            | Error _ -> true
          in
          q (Printf.sprintf "name \"%s\"" pat)
          && q (Printf.sprintf "attr \"%s\"" pat)
          && q (Printf.sprintf "attr \"%s\" inherited" pat))

(* --- query fuzz: parse/evaluate never raises -------------------------------
   Tier-1 runs 500 random token soups; the nightly [query-fuzz] alias
   scales up through SWSD_QUERY_FUZZ. *)

let fuzz_count =
  match Sys.getenv_opt "SWSD_QUERY_FUZZ" with
  | Some n -> ( match int_of_string_opt n with Some n -> max 1 n | None -> 500)
  | None -> 500

let query_soup =
  QCheck2.Gen.(
    let fragment =
      oneofl
        [ "name"; "attr"; "isa"; "partof"; "wheel"; "diff"; "all"; "explain";
          "up"; "down"; "inherited"; "Person"; "Student"; "Nobody"; "x";
          "\"*\""; "\"Per?on\""; "\"\""; "\"unterminated"; "0"; "1"; "7";
          "999999"; "-3"; "("; "::"; "~"; "3.14"; "set<int>" ]
    in
    map (String.concat " ") (list_size (int_range 0 6) fragment))

let fuzz_never_crashes =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"parse+eval never raises on token soup"
       ~count:fuzz_count ~long_factor:10 query_soup
       (fun text ->
         let v = lazy (snd (university_view ())) in
         match Parser.parse text with
         | Error m -> String.length m > 0
         | Ok q -> (
             ignore (Eval.explain q.Ast.q_atom);
             match Eval.run (Lazy.force v) q.q_atom with
             | Ok _ | Error _ -> true)))

(* run_fresh (the bench baseline) answers exactly like the maintained view *)
let fresh_equals_materialized () =
  let s, v = university_view () in
  let s, _ = Util.apply_ok s "add_attribute(Person, string, 8, badge)" in
  let v = View.refresh v ~stamp:2 s in
  List.iter
    (fun q ->
      let atom = (parse_ok q).Ast.q_atom in
      match (Eval.run v atom, Eval.run_fresh ~stamp:2 s atom) with
      | Ok a, Ok b ->
          Alcotest.(check (list string)) (q ^ " agrees") a b
      | Error a, Error b -> Alcotest.(check string) (q ^ " agrees") a b
      | _ -> Alcotest.failf "%s: fresh and materialized disagree on status" q)
    [ "name \"*\""; "attr badge"; "attr \"*\" inherited"; "isa Person";
      "partof Course up"; "wheel Course" ]

let tests =
  [
    test "parser: every query form round-trips" parser_forms;
    test "parser: malformed queries are structured errors" parser_rejects;
    test "glob: * and ? semantics" glob_semantics;
    test "planner: picks the right access path" planner_picks_access_paths;
    test "eval: university answers are exact" eval_university;
    test "eval: pinned digest over the battery" pinned_digest;
    test "view: refresh tracks adds and deletes" refresh_after_ops;
    test "view: refresh tracks undo and redo" refresh_sees_undo;
    test "view: history is bounded with an honest floor" history_is_bounded;
    test "view: update is stamp-monotone" update_is_monotone;
    test "eval: fresh build answers = materialized answers"
      fresh_equals_materialized;
    test "view: delete and re-add inside one refresh = build"
      refresh_after_delete_and_readd;
    test "view: a light seed a structural one reaches is rebuilt"
      refresh_light_seed_in_reach;
    incremental_equals_scratch;
    light_refresh_shares_rows;
    answers_are_canonical;
    fuzz_never_crashes;
  ]
