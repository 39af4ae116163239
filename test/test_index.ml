(* Differential tests of the indexed schema core against the naive
   reference: Schema_index's incremental checking vs Odl.Validate.check,
   and Apply.Indexed vs the naive Apply engine.  Equality is demanded on
   everything observable — acceptance, error messages, resulting workspace,
   impact events, the full diagnostics list, and decompositions.

   Run with QCHECK_LONG=1 (the [fuzz-long] alias) for a 10x deeper pass. *)

open Odl.Types
module Apply = Core.Apply
module Index = Core.Schema_index
module Validate = Odl.Validate

let prop name ?(count = 500) gen f =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count ~long_factor:10 gen f)

let diags_equal = List.equal Validate.equal_diagnostic

(* 1. a freshly built index reports exactly the naive checker's
   diagnostics, in the same order, with the same messages *)
let fresh_diagnostics_agree =
  prop "fresh index diagnostics = naive check" Gen.any_synth_schema (fun s ->
      diags_equal (Index.diagnostics (Index.build s)) (Validate.check s))

(* 2. same on deliberately broken schemas: dropping a random interface
   without repair leaves dangling supertypes, relationship targets and
   unpaired inverses — the checkers must agree on invalid input too *)
let broken_diagnostics_agree =
  let gen =
    QCheck2.Gen.(
      let* s = Gen.any_synth_schema in
      let* k = int_bound (max 0 (List.length s.s_interfaces - 1)) in
      return
        { s with s_interfaces = List.filteri (fun i _ -> i <> k) s.s_interfaces })
  in
  prop "broken-schema diagnostics agree" gen (fun s ->
      diags_equal (Index.diagnostics (Index.build s)) (Validate.check s))

(* 3. incremental re-check: after warming the diagnostics cache, mutate the
   index directly (bypassing the engine's validity gate) and compare the
   dirty-set re-check against a full naive check of the updated schema *)
let incremental_diagnostics_agree =
  let gen = QCheck2.Gen.(pair Gen.any_synth_schema (int_range 0 9999)) in
  prop "incremental re-check after raw index updates" gen (fun (s, r) ->
      let idx = Index.build s in
      ignore (Index.diagnostics idx);
      let names = Odl.Schema.interface_names s in
      let victim = List.nth names (r mod List.length names) in
      (* duplicate every attribute of the victim: naming errors appear *)
      let dup =
        Index.update_interface idx victim (fun i ->
            { i with i_attrs = i.i_attrs @ i.i_attrs })
      in
      (* remove the victim outright: dangling references appear *)
      let removed = Index.remove_interface idx victim in
      diags_equal (Index.diagnostics dup) (Validate.check (Index.schema dup))
      && diags_equal (Index.diagnostics removed)
           (Validate.check (Index.schema removed)))

(* 4. the engines agree on every step of an operation workload: both accept
   with identical workspace, events and diagnostics, or both reject with
   identical error messages.  Applies each accepted step and continues, so
   later steps run against customized workspaces. *)
let engines_agree =
  prop "indexed engine = naive engine over op sequences" Gen.schema_and_ops
    (fun (schema, steps) ->
      let orig_idx = Index.build schema in
      let rec go ws idx = function
        | [] -> true
        | (kind, op) :: rest -> (
            let naive = Apply.apply ~original:schema ~kind ws op in
            let indexed = Apply.Indexed.apply ~original:orig_idx ~kind idx op in
            match (naive, indexed) with
            | Error e, Error e' ->
                Apply.error_to_string e = Apply.error_to_string e'
                && go ws idx rest
            | Ok (ws', evs), Ok (idx', evs') ->
                equal_schema ws' (Index.schema idx')
                && List.equal Core.Change.equal_event evs evs'
                && diags_equal (Validate.check ws') (Index.diagnostics idx')
                && go ws' idx' rest
            | Ok _, Error _ | Error _, Ok _ -> false)
      in
      go schema orig_idx steps)

(* 5. a paranoid session survives whole workloads (its per-op cross-check
   raises Divergence on any disagreement), including undo/redo, and its
   incremental consistency report equals a fresh naive check *)
let paranoid_session_agrees =
  prop "paranoid session never diverges" Gen.schema_and_ops
    (fun (schema, steps) ->
      match Core.Session.create ~paranoid:true schema with
      | Error _ -> false (* synthetic schemas are valid *)
      | Ok session ->
          let s =
            List.fold_left
              (fun s (kind, op) ->
                match Core.Session.apply s ~kind op with
                | Ok (s', _) -> s'
                | Error _ -> s)
              session steps
          in
          let s = match Core.Session.undo s with Some s' -> s' | None -> s in
          let s =
            match Core.Session.redo s with Some (s', _) -> s' | None -> s
          in
          diags_equal
            (Core.Session.consistency_report s)
            (Validate.check (Core.Session.workspace s)))

(* 6. both backends produce the identical concept-schema list, initially
   and after every accepted operation *)
let decompositions_agree =
  prop "indexed decompose = naive decompose" Gen.schema_and_ops
    (fun (schema, steps) ->
      let agree idx =
        List.equal Core.Concept.equal
          (Core.Decompose.decompose (Index.schema idx))
          (Core.Decompose.Indexed.decompose idx)
      in
      let orig_idx = Index.build schema in
      let rec go idx = function
        | [] -> true
        | (kind, op) :: rest -> (
            match Apply.Indexed.apply ~original:orig_idx ~kind idx op with
            | Error _ -> go idx rest
            | Ok (idx', _) -> agree idx' && go idx' rest)
      in
      agree orig_idx && go orig_idx steps)

(* 7. resolving one concept id builds exactly the concept the full
   decomposition holds under that id, [None] included, on both backends:
   every decomposed id, every interface under every prefix (and an
   unknown one), bare names and degenerate ids *)
let probe_ids s =
  List.concat_map
    (fun n ->
      n :: List.map (fun p -> p ^ ":" ^ n) [ "ww"; "gh"; "ah"; "ih"; "xx"; "" ])
    (Odl.Schema.interface_names s)
  @ [ ""; ":"; "ww"; "ww:"; "gh:"; "ah:ww:" ]

let find_agrees_with_decompose idx =
  let s = Index.schema idx in
  let full = Core.Decompose.Indexed.decompose idx in
  List.for_all
    (fun id ->
      let expected = Core.Decompose.find full id in
      Option.equal Core.Concept.equal (Core.Decompose.Indexed.find idx id) expected
      && Option.equal Core.Concept.equal (Core.Decompose.Naive.find s id) expected)
    (List.map (fun (c : Core.Concept.t) -> c.c_id) full @ probe_ids s)

let find_agrees =
  prop "per-id find = find in decompose" Gen.synth_schema_colon_names (fun s ->
      find_agrees_with_decompose (Index.build s))

let find_agrees_after_ops =
  prop "per-id find = find in decompose over op sequences"
    Gen.colon_schema_and_ops (fun (schema, steps) ->
      let orig_idx = Index.build schema in
      let rec go idx = function
        | [] -> true
        | (kind, op) :: rest -> (
            match Apply.Indexed.apply ~original:orig_idx ~kind idx op with
            | Error _ -> go idx rest
            | Ok (idx', _) -> find_agrees_with_decompose idx' && go idx' rest)
      in
      find_agrees_with_decompose orig_idx && go orig_idx steps)

(* 8. duplicate interface names (invalid, but representable): each backend's
   find still equals lookup in its own decomposition.  The appended copy
   drops its supertypes, so the name's later record is an ISA root while
   its first may not be. *)
let find_agrees_with_duplicates =
  let gen =
    QCheck2.Gen.(
      let* s = Gen.any_synth_schema in
      let* k = int_bound (List.length s.s_interfaces - 1) in
      let copy = { (List.nth s.s_interfaces k) with i_supertypes = [] } in
      return { s with s_interfaces = s.s_interfaces @ [ copy ] })
  in
  prop "per-id find = find in decompose with duplicate names" gen (fun s ->
      let agree find decompose v =
        let full = decompose v in
        List.for_all
          (fun id ->
            Option.equal Core.Concept.equal (find v id)
              (Core.Decompose.find full id))
          (List.map (fun (c : Core.Concept.t) -> c.c_id) full @ probe_ids s)
      in
      agree Core.Decompose.Naive.find Core.Decompose.Naive.decompose s
      && agree Core.Decompose.Indexed.find Core.Decompose.Indexed.decompose
           (Index.build s))

(* 9. the knowledge component's cautions read the same on the index as on
   the plain schema, before every step of a workload — for the step's op
   and for deleting each interface, with attributes re-typed onto named
   domains so deletions have domain uses to count *)
let cautions_agree =
  let gen = QCheck2.Gen.(pair Gen.schema_and_ops (int_bound 10_000)) in
  prop "indexed cautions = naive cautions over op sequences" gen
    (fun ((schema, steps), seed) ->
      let schema = Gen.with_named_domains seed schema in
      let orig_idx = Index.build schema in
      let agree idx op =
        List.equal String.equal
          (Repository.Knowledge.Indexed.cautions idx op)
          (Repository.Knowledge.cautions (Index.schema idx) op)
      in
      let rec go idx steps =
        List.for_all
          (fun n -> agree idx (Core.Modop.Delete_type_definition n))
          (Index.interface_names idx)
        &&
        match steps with
        | [] -> true
        | (kind, op) :: rest -> (
            agree idx op
            &&
            match Apply.Indexed.apply ~original:orig_idx ~kind idx op with
            | Error _ -> go idx rest
            | Ok (idx', _) -> go idx' rest)
      in
      go orig_idx steps)

(* 10. raw index edits, bypassing the engine's validity gate: some add
   errors (duplicate attributes, dangling references after a removal), some
   clear them again, one changes nothing, one renames (the rebuild path) *)
type edit =
  | Touch of int  (** add a fresh attribute *)
  | Dup of int  (** duplicate every attribute: naming errors *)
  | Undup of int  (** drop repeated attribute names again *)
  | Same of int  (** an update returning the record unchanged *)
  | Fresh of int  (** add an interface under an existing one *)
  | Drop of int  (** remove: dangling supertypes and targets *)
  | Rename of int  (** a rename rebuilds the index *)

(* every edit but the rename, which the lineages below place themselves *)
let edit_gen =
  QCheck2.Gen.(
    let* k = int_bound 10_000 in
    oneofl [ Touch k; Dup k; Undup k; Same k; Fresh k; Drop k ])

let apply_edit idx e =
  match Index.interface_names idx with
  | [] -> idx
  | names -> (
      let pick k = List.nth names (k mod List.length names) in
      let update k f = Index.update_interface idx (pick k) f in
      match e with
      | Touch k ->
          update k (fun i ->
              let a =
                {
                  attr_name = Printf.sprintf "t%d" k;
                  attr_type = D_int;
                  attr_size = None;
                }
              in
              { i with i_attrs = i.i_attrs @ [ a ] })
      | Dup k -> update k (fun i -> { i with i_attrs = i.i_attrs @ i.i_attrs })
      | Undup k ->
          update k (fun i ->
              let seen = Hashtbl.create 8 in
              let first a =
                (not (Hashtbl.mem seen a.attr_name))
                && (Hashtbl.add seen a.attr_name (); true)
              in
              { i with i_attrs = List.filter first i.i_attrs })
      | Same k -> update k Fun.id
      | Fresh k ->
          let name = Printf.sprintf "Fresh%d" k in
          if Index.mem_interface idx name then idx
          else
            Index.add_interface idx
              { (empty_interface name) with i_supertypes = [ pick k ] }
      | Drop k -> Index.remove_interface idx (pick k)
      | Rename k -> update k (fun i -> { i with i_name = i.i_name ^ "_r" }))

(* [idx] and each version the edits derive from it, oldest first *)
let apply_edits idx edits =
  List.fold_left (fun acc e -> apply_edit (List.hd acc) e :: acc) [ idx ] edits
  |> List.rev

(* The oracle: [changed_names] by brute force, every name whose record is
   not physically shared between the two versions. *)
let changed_by_fold a b =
  let record v n = Index.find_interface v n in
  Index.interface_names a @ Index.interface_names b
  |> List.sort_uniq String.compare
  |> List.filter (fun n ->
         match (record a n, record b n) with
         | Some ia, Some ib -> ia != ib
         | None, None -> false
         | _ -> true)

(* Versions of one lineage: the accepted steps of an engine workload, then
   raw edits on a trunk, and a sibling branch forked from a trunk version
   that ends in a rename; plus two separate builds of the same schemas. *)
let lineage_gen =
  QCheck2.Gen.(
    let* schema, steps = Gen.schema_and_ops in
    let* trunk = list_size (int_range 1 6) edit_gen in
    let* branch = list_size (int_range 0 4) edit_gen in
    let* at = int_bound 10_000 in
    let* rename = int_bound 10_000 in
    return (schema, steps, trunk, branch, at, rename))

let lineage_versions (schema, steps, trunk, branch, at, rename) =
  let orig = Index.build schema in
  let engine =
    List.fold_left
      (fun acc (kind, op) ->
        match Apply.Indexed.apply ~original:orig ~kind (List.hd acc) op with
        | Ok (idx, _) -> idx :: acc
        | Error _ -> acc)
      [ orig ] steps
    |> List.rev
  in
  let trunk = apply_edits (List.nth engine (List.length engine - 1)) trunk in
  let trunk = engine @ List.tl trunk in
  let fork = List.nth trunk (at mod List.length trunk) in
  let branch = List.tl (apply_edits fork (branch @ [ Rename rename ])) in
  let last = List.nth trunk (List.length trunk - 1) in
  trunk @ branch @ [ Index.build schema; Index.build (Index.schema last) ]

let changed_names_agree =
  prop "changed_names = pointer fold over version pairs" lineage_gen
    (fun case ->
      let versions = lineage_versions case in
      List.for_all
        (fun a ->
          List.for_all
            (fun b ->
              List.equal String.equal (Index.changed_names a b)
                (changed_by_fold a b))
            versions)
        versions)

(* 11. the findings set: after chains of raw edits, under every order in
   which versions get checked — each parent warmed before its child is
   derived, no parent ever warmed (cold all the way), and a warm root whose
   descendants are checked newest first (every parent warmed only after its
   child was derived) — diagnostics and errors equal the naive checker's,
   in the same order, and stay equal when served again *)
let findings_agree_naive idx =
  let check = Validate.check (Index.schema idx) in
  (* [Validate.errors] is this filter of [Validate.check] *)
  let errors =
    List.filter (fun (d : Validate.diagnostic) -> d.severity = Error) check
  in
  let agree () =
    diags_equal (Index.diagnostics idx) check
    && diags_equal (Index.errors idx) errors
    && Index.is_valid idx = (errors = [])
  in
  agree () && agree ()

let findings_agree =
  let gen =
    QCheck2.Gen.(
      pair Gen.any_synth_schema
        (list_size (int_range 1 5) edit_gen))
  in
  prop "findings set = naive checker over raw edit chains" gen
    (fun (schema, edits) ->
      let warm_parents =
        List.fold_left
          (fun acc e ->
            let parent = List.hd acc in
            ignore (Index.diagnostics parent);
            apply_edit parent e :: acc)
          [ Index.build schema ] edits
      in
      let cold = apply_edits (Index.build schema) edits in
      let late =
        let root = Index.build schema in
        ignore (Index.diagnostics root);
        List.rev (apply_edits root edits)
      in
      List.for_all findings_agree_naive (List.rev warm_parents)
      && List.for_all findings_agree_naive (List.rev cold)
      && List.for_all findings_agree_naive late)

(* 12. two threads serve the first diagnostics of one freshly derived
   version — the published-snapshot read path shares versions between
   lock-free readers — and both get the naive answer *)
let concurrent_diagnostics =
  Alcotest.test_case "two threads warm one derived version" `Quick (fun () ->
      let schema =
        Schemas.Synth.generate (Schemas.Synth.default_params ~n_types:300)
      in
      let root = Index.build schema in
      ignore (Index.diagnostics root);
      List.iter
        (fun k ->
          (* a cold version (full walk) and a dirty one (re-check) *)
          let edits = [ Dup k; Drop (k + 1); Touch k ] in
          List.iter
            (fun idx ->
              let expected = Validate.check (Index.schema idx) in
              let results = Array.make 2 [] in
              let threads =
                List.init 2 (fun j ->
                    Thread.create
                      (fun () -> results.(j) <- Index.diagnostics idx)
                      ())
              in
              List.iter Thread.join threads;
              Array.iter
                (fun r ->
                  Alcotest.(check bool) "thread agrees" true
                    (diags_equal r expected))
                results;
              Alcotest.(check bool) "served again" true
                (diags_equal (Index.diagnostics idx) expected))
            [
              List.nth (apply_edits (Index.build schema) edits) 3;
              List.nth (apply_edits root edits) 3;
            ])
        (List.init 20 (fun k -> k * 13)))

(* 13. seed schemas: the named examples and fixed-size synthetic schemas,
   checked deterministically *)
let seed_case name schema =
  Alcotest.test_case name `Quick (fun () ->
      let idx = Index.build schema in
      Alcotest.(check bool)
        "diagnostics agree" true
        (diags_equal (Index.diagnostics idx) (Validate.check schema));
      Alcotest.(check bool)
        "decompositions agree" true
        (List.equal Core.Concept.equal
           (Core.Decompose.decompose schema)
           (Core.Decompose.Indexed.decompose idx)))

let seed_units =
  seed_case "university seed" (Schemas.University.v ())
  :: seed_case "emsl seed" (Schemas.Emsl.v ())
  :: List.map
       (fun n ->
         seed_case
           (Printf.sprintf "synthetic seed n=%d" n)
           (Schemas.Synth.generate (Schemas.Synth.default_params ~n_types:n)))
       [ 10; 25; 50 ]

let tests =
  [
    fresh_diagnostics_agree;
    broken_diagnostics_agree;
    incremental_diagnostics_agree;
    engines_agree;
    paranoid_session_agrees;
    decompositions_agree;
    find_agrees;
    find_agrees_after_ops;
    find_agrees_with_duplicates;
    cautions_agree;
    changed_names_agree;
    findings_agree;
    concurrent_diagnostics;
  ]
  @ seed_units
