(* P17: incrementally maintained query views vs from-scratch evaluation.

   The claim under test: maintaining each variant's materialized
   {!Query.View} incrementally from the session's dirty set makes
   [@query] answers cheap — the view is refreshed once per committed op
   (a cost proportional to the op's neighbourhood), and every query then
   evaluates against ready-made indexes.  The naive alternative rebuilds
   the whole view per request ({!Query.Eval.run_fresh}) — a cost
   proportional to the schema, paid on every query.

   Setup: synthetic schemas of 100, 1000 and 10000 interfaces.  On each,
   200 committed ops, each followed by the incremental refresh the
   service's write path performs (the write path's cost, reported
   separately).  Then, on the 1000-interface one (the paper-scale stress
   point), a battery of representative queries — point and glob name
   lookups, attribute search with inheritance, ISA and part-of closures,
   a wagon wheel — evaluated both ways over identical state.  ([diff] is
   absent: history slices only exist on a maintained view — a
   from-scratch rebuild has no stamps to slice, which is its own argument
   for the views.)

   Reported: per-op maintain cost, per-query latency for both paths, and
   the aggregate speedup = naive / materialized.  The run FAILS (exit 1)
   below 5x: at that point the views would not be paying for their
   maintenance.

   The maintain cost is reported for two kinds of write: attribute edits, which leave every ISA and
   relationship edge alone (the refresh rewrites one row's attribute
   names), and edge edits — a relationship added and then deleted, issued
   from the wagon wheel, which admits both — whose refresh rebuilds every
   row the two ends reach.  The run also FAILS unless the attribute-edit
   cost at n=1000 is at most a quarter of the edge-edit cost: a return to
   rebuilding the edited row's neighbourhood on a members-only write
   breaks it.

   Both paths produce answers over the same view/session, and the bench
   asserts they are line-identical before timing anything — a speedup
   over wrong answers would be worthless.

   Knobs: SWSD_QUERY_TYPES (battery schema size, default 1000; it joins
   the sweep), SWSD_QUERY_OPS (ops per write kind, default 200),
   SWSD_QUERY_ROUNDS (battery repetitions per path, default 20). *)

module View = Query.View
module Eval = Query.Eval
module Parser = Query.Parser

let env_int name default =
  match Option.bind (Sys.getenv_opt name) int_of_string_opt with
  | Some n when n > 0 -> n
  | _ -> default

let n_types () = env_int "SWSD_QUERY_TYPES" 1000
let n_ops () = env_int "SWSD_QUERY_OPS" 200
let rounds () = env_int "SWSD_QUERY_ROUNDS" 20

let session_of schema =
  match Core.Session.create schema with
  | Ok s -> s
  | Error _ -> failwith "synth schema should be valid"

let apply session text =
  match
    Core.Session.apply session ~kind:Core.Concept.Wagon_wheel
      (Core.Op_parser.parse text)
  with
  | Ok (s, _) -> s
  | Error e -> failwith (text ^ ": " ^ Core.Apply.error_to_string e)

(* the battery: one of each access path, over names the generator emits *)
let battery =
  [
    "name T1";
    "name \"T1*\"";
    "name \"*7\"";
    "attr a1_0";
    "attr \"a1_*\" inherited";
    "attr \"bench_*\"";
    "isa T0";
    "isa T1 up";
    "partof T0";
    "wheel T1";
  ]

let atom q =
  match Parser.parse q with
  | Ok p -> p.Query.Ast.q_atom
  | Error m -> failwith (q ^ ": " ^ m)

let lines_of = function
  | Ok ls -> ls
  | Error m -> [ "error: " ^ m ]

type timing = { query : string; mat_us : float; naive_us : float }

(* Per-op refresh cost of one write kind, µs. *)
type maintain = { m_mean : float; m_median : float }

type cell = { n : int; attr : maintain; edge : maintain }

let attr_share_bound = 0.25
let sweep () = List.sort_uniq compare [ 100; 1000; 10000; n_types () ]

(* Commit each op text in turn and time only the view refresh after it. *)
let maintain_stream (session, view) texts =
  let step (session, view, samples) text =
    let session = apply session text in
    let stamp = View.stamp view + 1 in
    let t0 = Unix.gettimeofday () in
    let view = View.refresh view ~stamp session in
    (session, view, ((Unix.gettimeofday () -. t0) *. 1e6) :: samples)
  in
  let session, view, xs = List.fold_left step (session, view, []) texts in
  ( (session, view),
    {
      m_mean = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs);
      m_median = Perf.quantile 0.5 xs;
    } )

(* One sweep cell: [ops] attribute adds spread over the schema, then
   [ops / 2] relationship add/delete pairs between two of its interfaces.
   Returns the final session and view with the costs. *)
let measure_cell ~ops n =
  let session = session_of Schemas.Synth.(generate (default_params ~n_types:n)) in
  let state, attr =
    maintain_stream
      (session, View.build ~stamp:1 session)
      (List.init ops (fun k ->
           Printf.sprintf "add_attribute(T%d, string, 8, bench_%d)"
             (k * 7919 mod n) k))
  in
  let pair k =
    let a = k * 7919 mod n in
    let b = (a + 1 + (k * 104729 mod (n - 1))) mod n in
    [
      Printf.sprintf "add_relationship(T%d, T%d, bench_r%d, bench_i%d)" a b k k;
      Printf.sprintf "delete_relationship(T%d, bench_r%d)" a k;
    ]
  in
  let state, edge =
    maintain_stream state (List.concat (List.init (max 1 (ops / 2)) pair))
  in
  (state, { n; attr; edge })

let run ~json_path () =
  let ops = n_ops () and reps = rounds () and types = n_types () in
  Printf.printf "P17: materialized query views, %d ops per write kind\n" ops;
  Printf.printf "  %-8s %24s %24s\n" "n" "attr edit us/op (p50)"
    "edge edit us/op (p50)";
  let battery_state = ref None in
  let cells =
    List.map
      (fun n ->
        let state, c = measure_cell ~ops n in
        if n = types then battery_state := Some state;
        Printf.printf "  %-8d %15.1f (%6.1f) %15.1f (%6.1f)\n%!" n
          c.attr.m_mean c.attr.m_median c.edge.m_mean c.edge.m_median;
        c)
      (sweep ())
  in
  let at n = List.find (fun c -> c.n = n) cells in
  let share = (at 1000).attr.m_median /. (at 1000).edge.m_median in
  let share_passed = share <= attr_share_bound in
  Printf.printf
    "  attribute / edge edit maintain at n=1000: %.3f on medians (bound \
     %.2f)\n"
    share attr_share_bound;
  let session, view = Option.get !battery_state in
  let stamp = View.stamp view in
  Printf.printf "  battery on %d interfaces\n" types;
  (* both paths must answer identically before any timing matters *)
  List.iter
    (fun q ->
      let a = atom q in
      let mat = lines_of (Eval.run view a)
      and fresh = lines_of (Eval.run_fresh ~stamp session a) in
      if mat <> fresh then
        failwith (Printf.sprintf "%s: materialized and fresh answers differ" q))
    battery;
  let time_one f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      ignore (f ())
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int reps *. 1e6
  in
  Printf.printf "  %-22s %14s %14s %9s\n" "query" "mat (us)" "naive (us)"
    "speedup";
  let timings =
    List.map
      (fun q ->
        let a = atom q in
        let mat_us = time_one (fun () -> Eval.run view a) in
        let naive_us = time_one (fun () -> Eval.run_fresh ~stamp session a) in
        Printf.printf "  %-22s %14.1f %14.1f %8.1fx\n%!" q mat_us naive_us
          (if mat_us > 0.0 then naive_us /. mat_us else 0.0);
        { query = q; mat_us; naive_us })
      battery
  in
  let total which = List.fold_left (fun s t -> s +. which t) 0.0 timings in
  let mat_total = total (fun t -> t.mat_us)
  and naive_total = total (fun t -> t.naive_us) in
  let speedup = if mat_total > 0.0 then naive_total /. mat_total else 0.0 in
  let passed = speedup >= 5.0 in
  Printf.printf "\n  battery: %.1f us materialized, %.1f us naive — %.1fx\n"
    mat_total naive_total speedup;
  let entry t =
    Printf.sprintf
      "    { \"query\": %S, \"materialized_us\": %.2f, \"naive_us\": %.2f }"
      t.query t.mat_us t.naive_us
  in
  let maintain m =
    Printf.sprintf "{ \"mean\": %.2f, \"median\": %.2f }" m.m_mean m.m_median
  in
  let cell c =
    Printf.sprintf "    { \"n\": %d, \"attr_edit_us\": %s, \"edge_edit_us\": %s }"
      c.n (maintain c.attr) (maintain c.edge)
  in
  let json =
    String.concat "\n"
      [
        "{";
        "  \"benchmark\": \"P17 incrementally maintained query views\",";
        "  \"setup\": \"synthetic schemas; per-op incremental refresh after \
         attribute edits and after relationship add/delete pairs, then a \
         query battery evaluated on the materialized view vs a from-scratch \
         rebuild per request\",";
        Printf.sprintf "  \"n_types\": %d," types;
        Printf.sprintf "  \"ops\": %d," ops;
        Printf.sprintf "  \"rounds\": %d," reps;
        Printf.sprintf "  \"maintain_us_per_op\": %.2f,"
          (at types).attr.m_mean;
        "  \"maintain\": [";
        String.concat ",\n" (List.map cell cells);
        "  ],";
        Printf.sprintf
          "  \"attr_share_gate\": { \"attr_over_edge_at_1000\": %.3f, \
           \"on\": \"medians\", \"bound\": %.2f, \"passed\": %b },"
          share attr_share_bound share_passed;
        Printf.sprintf "  \"battery_materialized_us\": %.2f," mat_total;
        Printf.sprintf "  \"battery_naive_us\": %.2f," naive_total;
        Printf.sprintf
          "  \"speedup_gate\": { \"speedup\": %.2f, \"floor\": 5.0, \
           \"passed\": %b },"
          speedup passed;
        "  \"results\": [";
        String.concat ",\n" (List.map entry timings);
        "  ]";
        "}";
        "";
      ]
  in
  let oc = open_out json_path in
  output_string oc json;
  close_out oc;
  Printf.printf "wrote %s\n" json_path;
  if not passed then
    Printf.printf
      "FAIL: battery speedup %.2fx is below the 5x floor — the views are \
       not paying for their maintenance\n"
      speedup;
  if not share_passed then
    Printf.printf
      "FAIL: an attribute edit's refresh costs %.2f of an edge edit's at \
       n=1000 (bound %.2f) — members-only writes rebuild rows they cannot \
       change\n"
      share attr_share_bound;
  if not (passed && share_passed) then exit 1
