(** Performance characterization (experiments P1-P5 of EXPERIMENTS.md).

    The paper reports no performance numbers — its evaluation is
    qualitative — so these benches characterize our implementation of its
    algorithms across synthetic shrink wrap schemas of growing size:

    - P1 decompose: full concept-schema decomposition
    - P2 apply: a representative operation applied under full constraint
      checking and propagation
    - P3 check: the complete consistency check
    - P4 parse: ODL text -> schema
    - P5 custom: custom schema generation + mapping derivation
    - P6 diff: operation-log inference between two schemas
    - P7 affinity: semantic affinity between two schemas
    - P8 index: incremental (dirty-set) consistency re-check vs a full
      naive check, the indexed vs naive apply engine, and the re-check
      after a leaf update from 100 to 10000 interfaces (gated)
    - P9 migrate: instance migration through a customization
    - P10 journal: appending one durable record to an n-record operation
      journal vs rewriting the whole log (the persistence cost per accepted
      operation before and after incremental persistence)
*)

open Bechamel
open Toolkit

let sizes = [ 10; 25; 50; 100 ]

let schema_of n = Schemas.Synth.generate (Schemas.Synth.default_params ~n_types:n)

let staged_for n =
  let schema = schema_of n in
  let text = Odl.Printer.schema_to_string schema in
  let session = Result.get_ok (Core.Session.create schema) in
  let op =
    Core.Modop.Add_attribute ("T0", Odl.Types.D_string, Some 12, "bench_attr")
  in
  [
    Test.make
      ~name:(Printf.sprintf "decompose/%d" n)
      (Staged.stage (fun () -> ignore (Core.Decompose.decompose schema)));
    Test.make
      ~name:(Printf.sprintf "apply/%d" n)
      (Staged.stage (fun () ->
           ignore
             (Core.Apply.apply ~original:schema ~kind:Core.Concept.Wagon_wheel
                schema op)));
    Test.make
      ~name:(Printf.sprintf "check/%d" n)
      (Staged.stage (fun () -> ignore (Odl.Validate.check schema)));
    Test.make
      ~name:(Printf.sprintf "parse/%d" n)
      (Staged.stage (fun () -> ignore (Odl.Parser.parse_schema text)));
    Test.make
      ~name:(Printf.sprintf "custom/%d" n)
      (Staged.stage (fun () ->
           ignore (Core.Session.custom_schema session);
           ignore (Core.Session.mapping session)));
    (let other =
       Schemas.Synth.generate
         { (Schemas.Synth.default_params ~n_types:n) with seed = 7 }
     in
     Test.make
       ~name:(Printf.sprintf "diff/%d" n)
       (Staged.stage (fun () ->
            ignore (Core.Diff.infer ~original:schema ~target:other))));
    (let other =
       Schemas.Synth.generate
         { (Schemas.Synth.default_params ~n_types:n) with seed = 7 }
     in
     Test.make
       ~name:(Printf.sprintf "affinity/%d" n)
       (Staged.stage (fun () ->
            ignore (Core.Affinity.semantic_affinity schema other))));
  ]

(* Ablations: the cost of the guarantees, measured by running the machinery
   with a guarantee-providing stage removed. *)
let ablations_for n =
  let schema = schema_of n in
  let op =
    Core.Modop.Add_attribute ("T0", Odl.Types.D_string, Some 12, "bench_attr")
  in
  [
    (* A1: apply without post-validation and propagation — the marginal cost
       of the validity-preservation guarantee is apply/N minus this *)
    Test.make
      ~name:(Printf.sprintf "ablate-primary-only/%d" n)
      (Staged.stage (fun () -> ignore (Core.Apply.primary ~original:schema schema op)));
    (* A2: the propagation fixpoint on an already-closed schema — the
       steady-state overhead of cascade repair *)
    Test.make
      ~name:(Printf.sprintf "ablate-repair-noop/%d" n)
      (Staged.stage (fun () -> ignore (Core.Propagate.repair schema)));
    (* A3: wagon wheels only vs the full decomposition *)
    Test.make
      ~name:(Printf.sprintf "ablate-wheels-only/%d" n)
      (Staged.stage (fun () -> ignore (Core.Decompose.wagon_wheels schema)));
  ]

(* P8: the schema index — one interface of a warm-indexed schema is
   modified, then consistency is re-established.  check-full pays a naive
   whole-schema check; check-incremental pays the index update plus the
   dirty-set re-check.  apply vs apply-indexed measures the same contrast
   through the full operation engine (constraint check + propagation). *)
let index_checks_for n =
  let schema = schema_of n in
  let probe i =
    {
      i with
      Odl.Types.i_attrs =
        { Odl.Types.attr_name = "bench_ix"; attr_type = D_int; attr_size = None }
        :: i.Odl.Types.i_attrs;
    }
  in
  let updated = Odl.Schema.update_interface schema "T0" probe in
  let warm = Core.Schema_index.build schema in
  ignore (Core.Schema_index.diagnostics warm);
  let op =
    Core.Modop.Add_attribute ("T0", Odl.Types.D_string, Some 12, "bench_attr")
  in
  [
    Test.make
      ~name:(Printf.sprintf "check-full/%d" n)
      (Staged.stage (fun () -> ignore (Odl.Validate.check updated)));
    Test.make
      ~name:(Printf.sprintf "check-incremental/%d" n)
      (Staged.stage (fun () ->
           let idx = Core.Schema_index.update_interface warm "T0" probe in
           ignore (Core.Schema_index.diagnostics idx)));
    Test.make
      ~name:(Printf.sprintf "apply-indexed/%d" n)
      (Staged.stage (fun () ->
           ignore
             (Core.Apply.Indexed.apply ~original:warm
                ~kind:Core.Concept.Wagon_wheel warm op)));
  ]

(* P8 leaf cells: the same update-then-check on an interface with no
   subtypes and a dirty neighbourhood of at most 8, from 100 to 10000
   interfaces.  The re-check itself is O(dirty); what still grows with n is
   the schema's interface-list rebuild, so the gate below bounds the growth
   at 15x over the 100x size range.  A return of any whole-schema walk per
   check (one per-interface cache probe each) breaks it. *)
let leaf_sizes = [ 100; 1000; 10000 ]
let leaf_gate_bound = 15.

let leaf_checks_for n =
  let module Index = Core.Schema_index in
  let warm = Index.build (schema_of n) in
  ignore (Index.diagnostics warm);
  let leaf =
    List.find
      (fun name ->
        Index.direct_subtypes warm name = []
        && List.length (Index.affected_by warm [ name ]) <= 8)
      (Index.interface_names warm)
  in
  let probe i =
    {
      i with
      Odl.Types.i_attrs =
        {
          Odl.Types.attr_name = "bench_leaf";
          attr_type = D_int;
          attr_size = None;
        }
        :: i.Odl.Types.i_attrs;
    }
  in
  Test.make
    ~name:(Printf.sprintf "check-incremental-leaf/%d" n)
    (Staged.stage (fun () ->
         ignore (Index.diagnostics (Index.update_interface warm leaf probe))))

(* P9: instance migration — a store of [3n] objects migrated through a
   customization that deletes one type *)
let migration_bench n =
  let schema = schema_of n in
  let store =
    (* one object per type, keyed, plus links along the instance chain *)
    List.fold_left
      (fun st i ->
        match Objects.Store.new_object st i.Odl.Types.i_name with
        | Ok (st, oid) -> (
            match i.Odl.Types.i_attrs with
            | a :: _ when a.attr_type = Odl.Types.D_int -> (
                match Objects.Store.set_attr st oid a.attr_name (Objects.Value.V_int oid) with
                | Ok st -> st
                | Error _ -> st)
            | _ -> st)
        | Error _ -> st)
      (Objects.Store.create schema) schema.s_interfaces
  in
  let custom =
    match
      Core.Apply.apply ~original:schema ~kind:Core.Concept.Wagon_wheel schema
        (Core.Modop.Delete_type_definition "T0")
    with
    | Ok (s, _) -> s
    | Error _ -> schema
  in
  Test.make
    ~name:(Printf.sprintf "migrate/%d" n)
    (Staged.stage (fun () -> ignore (Objects.Migrate.migrate store ~custom)))

let tests () =
  Test.make_grouped ~name:"swsd"
    (List.concat_map staged_for sizes
    @ List.concat_map ablations_for sizes
    @ List.concat_map index_checks_for sizes
    @ List.map migration_bench sizes)

(* Run a bechamel test tree and return (name, ns/run) rows, sorted. *)
let measure_rows tests =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) () in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun name ols acc ->
      let ns =
        match Analyze.OLS.estimates ols with
        | Some [ est ] -> est
        | _ -> Float.nan
      in
      (name, ns) :: acc)
    results []
  |> List.sort compare

let print_rows title rows =
  Printf.printf "\n%s\n%s\n%s\n" (String.make 78 '-') title
    (String.make 78 '-');
  Printf.printf "%-32s %16s %14s\n" "benchmark" "ns/run" "us/run";
  List.iter
    (fun (name, ns) ->
      Printf.printf "%-32s %16.0f %14.2f\n" name ns (ns /. 1_000.))
    rows

let run_and_print () =
  print_rows "Performance characterization (ns/run, OLS on monotonic clock)"
    (measure_rows (tests ()))

(* P10: the durable journal on the real filesystem — appending one fsync'd
   record to a log already holding [n] records vs atomically rewriting all
   [n].  Append should stay flat as [n] grows; the rewrite pays O(n). *)
let journal_sizes = [ 10; 100; 1000 ]

let journal_benches_for ~dirs n =
  let io = Repository.Io.unix in
  let op =
    Core.Modop.Add_attribute ("T0", Odl.Types.D_string, Some 12, "bench_attr")
  in
  let entries =
    List.init n (fun _ -> Repository.Journal.Op (Core.Concept.Wagon_wheel, op))
  in
  let dir = Filename.temp_file "swsd_bench_journal" "" in
  Sys.remove dir;
  Repository.Io.mkdir_p io dir;
  dirs := dir :: !dirs;
  let log_path = Filename.concat dir "log.ops" in
  Repository.Journal.rewrite io log_path entries;
  [
    Test.make
      ~name:(Printf.sprintf "append/%d" n)
      (Staged.stage (fun () ->
           Repository.Journal.append io log_path
             (Repository.Journal.Op (Core.Concept.Wagon_wheel, op))));
    Test.make
      ~name:(Printf.sprintf "rewrite/%d" n)
      (Staged.stage (fun () -> Repository.Journal.rewrite io log_path entries));
  ]

(* [q]-quantile of a non-empty sample, interpolating between ranks. *)
let quantile q xs =
  let a = Array.of_list (List.sort compare xs) in
  let r = q *. float_of_int (Array.length a - 1) in
  let lo = int_of_float r in
  let hi = min (lo + 1) (Array.length a - 1) in
  a.(lo) +. ((r -. float_of_int lo) *. (a.(hi) -. a.(lo)))

(* P8 cells are repeated: single bechamel estimates of one cell spread by
   up to 40% between runs of the same code. *)
let index_repeats = 5

type cell = { c_name : string; c_p10 : float; c_median : float; c_p90 : float }

(* Measure [tests] [index_repeats] times; each cell is summarised by the
   median and p10/p90 of its estimates. *)
let measure_cells tests =
  let runs = List.init index_repeats (fun _ -> measure_rows tests) in
  List.map
    (fun (name, _) ->
      let xs = List.map (List.assoc name) runs in
      {
        c_name = name;
        c_p10 = quantile 0.1 xs;
        c_median = quantile 0.5 xs;
        c_p90 = quantile 0.9 xs;
      })
    (List.hd runs)

(* P8 baseline: incremental vs full checking, recorded as JSON so later
   work can compare against a committed reference.  Exits 1 when the leaf
   gate, evaluated on the cell medians, fails. *)
let run_index ~json_path () =
  let cells =
    measure_cells
      (Test.make_grouped ~name:"index" (List.concat_map index_checks_for sizes))
  in
  (* the leaf cells' large schemas are built only now, so the GC work of
     their heap does not land on the small cells above *)
  let cells =
    cells
    @ measure_cells
        (Test.make_grouped ~name:"index" (List.map leaf_checks_for leaf_sizes))
  in
  let strip name =
    (* "index/check-full/100" -> "check-full/100" *)
    match String.index_opt name '/' with
    | Some i -> String.sub name (i + 1) (String.length name - i - 1)
    | None -> name
  in
  let cells = List.map (fun c -> { c with c_name = strip c.c_name }) cells in
  Printf.printf "\n%s\nP8: incremental vs full consistency check, %d runs \
                 (us/run)\n%s\n"
    (String.make 78 '-') index_repeats (String.make 78 '-');
  Printf.printf "%-32s %12s %12s %12s\n" "benchmark" "p10" "median" "p90";
  List.iter
    (fun c ->
      Printf.printf "%-32s %12.2f %12.2f %12.2f\n" c.c_name (c.c_p10 /. 1e3)
        (c.c_median /. 1e3) (c.c_p90 /. 1e3))
    cells;
  let leaf n =
    (List.find
       (fun c -> c.c_name = Printf.sprintf "check-incremental-leaf/%d" n)
       cells)
      .c_median
  in
  let ratio = leaf 10000 /. leaf 100 in
  let passed = ratio <= leaf_gate_bound in
  let entry c =
    Printf.sprintf
      "    { \"name\": \"%s\", \"ns_per_run\": %.1f, \"p10\": %.1f, \
       \"p90\": %.1f }"
      c.c_name c.c_median c.c_p10 c.c_p90
  in
  let json =
    String.concat "\n"
      [
        "{";
        "  \"benchmark\": \"P8 incremental vs full consistency check\",";
        "  \"schema\": \"Schemas.Synth.default_params, sizes below\",";
        Printf.sprintf "  \"sizes\": [%s],"
          (String.concat ", " (List.map string_of_int sizes));
        Printf.sprintf "  \"leaf_sizes\": [%s],"
          (String.concat ", " (List.map string_of_int leaf_sizes));
        Printf.sprintf "  \"repeats\": %d," index_repeats;
        Printf.sprintf
          "  \"leaf_gate\": { \"ratio_10000_over_100\": %.2f, \"bound\": %.1f, \
           \"on\": \"medians\", \"passed\": %b },"
          ratio leaf_gate_bound passed;
        "  \"unit\": \"ns/run; ns_per_run is the median of the repeats\",";
        "  \"results\": [";
        String.concat ",\n" (List.map entry cells);
        "  ]";
        "}";
        "";
      ]
  in
  let oc = open_out json_path in
  output_string oc json;
  close_out oc;
  Printf.printf "\nwrote %s\n" json_path;
  Printf.printf
    "leaf gate: check-incremental-leaf/10000 = %.1fx /100 on medians (bound \
     %.0fx): %s\n"
    ratio leaf_gate_bound
    (if passed then "pass" else "FAIL");
  if not passed then exit 1

(* P10 baseline: journal append vs whole-log rewrite, recorded as JSON so
   the O(1)-ish append per accepted operation stays an auditable claim. *)
let run_journal ~json_path () =
  let dirs = ref [] in
  let rows =
    measure_rows
      (Test.make_grouped ~name:"journal"
         (List.concat_map (journal_benches_for ~dirs) journal_sizes))
  in
  List.iter
    (fun d ->
      Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
      Sys.rmdir d)
    !dirs;
  print_rows "P10: journal append vs whole-log rewrite (ns/run)" rows;
  let strip name =
    match String.index_opt name '/' with
    | Some i -> String.sub name (i + 1) (String.length name - i - 1)
    | None -> name
  in
  let entry (name, ns) =
    Printf.sprintf "    { \"name\": \"%s\", \"ns_per_run\": %.1f }" (strip name)
      ns
  in
  let json =
    String.concat "\n"
      [
        "{";
        "  \"benchmark\": \"P10 journal append vs whole-log rewrite\",";
        "  \"setup\": \"one fsync'd append to an n-record log vs an atomic \
         rewrite of all n records, real filesystem\",";
        Printf.sprintf "  \"sizes\": [%s],"
          (String.concat ", " (List.map string_of_int journal_sizes));
        "  \"unit\": \"ns/run\",";
        "  \"results\": [";
        String.concat ",\n" (List.map entry rows);
        "  ]";
        "}";
        "";
      ]
  in
  let oc = open_out json_path in
  output_string oc json;
  close_out oc;
  Printf.printf "\nwrote %s\n" json_path
