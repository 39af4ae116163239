(* The benchmark's own invariants: a seed fixes the request stream byte
   for byte, the routed shape's variant placement, and BENCHMARK.json
   declares what a run reports.  A change to any of these changes what two
   commits are compared on, so it must show up here first. *)

open Perfbench

let stream w ~seed ~conn n =
  let g = Workload.generator w ~seed ~conn in
  List.init n (fun _ -> snd (Workload.next g))

let digest w ~seed =
  w.Workload.conns
  |> List.mapi (fun conn _ -> String.concat "\n" (stream w ~seed ~conn 2000))
  |> String.concat "\n--\n" |> Digest.string |> Digest.to_hex

let workload name = Option.get (Workload.find name)

let test_same_seed_same_stream () =
  List.iter
    (fun (w : Workload.t) ->
      List.iteri
        (fun conn _ ->
          Alcotest.(check (list string))
            (w.name ^ " same seed") (stream w ~seed:7 ~conn 3000)
            (stream w ~seed:7 ~conn 3000);
          Alcotest.(check bool)
            (w.name ^ " other seed differs") false
            (stream w ~seed:7 ~conn 300 = stream w ~seed:8 ~conn 300))
        w.conns)
    Workload.all

(* Pinned: any change to the generator shows here, and means numbers taken
   before it are not comparable with numbers taken after. *)
let test_pinned_streams () =
  List.iter
    (fun (w, hex) ->
      Alcotest.(check string) w.Workload.name hex (digest w ~seed:1))
    [
      (workload "small-multi", "098e8873587125f5012345d828f8e85e");
      (workload "large-schema", "dd46320b77f36a1aaf82dd90569eeb45");
      (workload "one-variant-slow-disk", "7ad46fb16f0ac5d2899fb4eb0c07b7f9");
      (Workload.routed, "2e336ef41f0295cde33042ce78d96640");
    ]

(* Every delete names an attribute the same connection added earlier and
   has not deleted yet, and at most [live_cap] are live at once: the schema
   size stays constant and no op can be refused. *)
let test_writes_balance () =
  List.iter
    (fun (w : Workload.t) ->
      List.iteri
        (fun conn _ ->
          let live = Hashtbl.create 8 in
          List.iter
            (fun line ->
              match
                Scanf.sscanf_opt line "apply add_attribute(%s@, string, 8, %s@)%!"
                  (fun i a -> (i, a))
              with
              | Some (i, a) ->
                  Alcotest.(check bool)
                    "fresh name" false (Hashtbl.mem live (i, a));
                  Hashtbl.replace live (i, a) ();
                  Alcotest.(check bool) "bounded" true
                    (Hashtbl.length live <= Workload.live_cap)
              | None -> (
                  match
                    Scanf.sscanf_opt line "apply delete_attribute(%s@, %s@)%!"
                      (fun i a -> (i, a))
                  with
                  | Some key ->
                      Alcotest.(check bool)
                        ("deletes a live attribute: " ^ line)
                        true (Hashtbl.mem live key);
                      Hashtbl.remove live key
                  | None -> ()))
            (stream w ~seed:3 ~conn 4000))
        w.conns)
    Workload.all

let test_cycles () =
  List.iter
    (fun (w : Workload.t) ->
      let g = Workload.generator w ~seed:1 ~conn:0 in
      let classes =
        List.init (List.length w.cycle) (fun _ -> fst (Workload.next g))
      in
      Alcotest.(check bool)
        (w.name ^ " follows its cycle") true (classes = w.cycle);
      List.iter
        (fun c ->
          Alcotest.(check bool)
            (w.name ^ " exercises " ^ Workload.cls_name c)
            true (List.mem c w.cycle))
        Workload.classes)
    Workload.all

let test_routed_placement () =
  let w = Workload.routed in
  Alcotest.(check (list string)) "variant names" [ "v1"; "v0" ] w.conns;
  List.iteri
    (fun k v ->
      Alcotest.(check int) (v ^ " has its own worker") k
        (Server.Router.shard_of ~shards:2 v))
    w.conns;
  Alcotest.(check (list string)) "small-multi uses the same variants" w.conns
    (workload "small-multi").conns;
  Alcotest.(check (option string)) "small-multi's traced run serves it"
    (Some w.name)
    (Option.map
       (fun (r : Workload.t) -> r.name)
       (Workload.traced_extra (workload "small-multi")));
  Alcotest.(check bool) "not a timed workload" true
    (Workload.find w.name = None)

let test_percentile () =
  let a = Stats.sorted_of_list [ 5.0; 1.0; 4.0; 2.0; 3.0 ] in
  Alcotest.(check (float 0.0)) "p50" 3.0 (Stats.percentile a 50.0);
  Alcotest.(check (float 0.0)) "p90" 5.0 (Stats.percentile a 90.0);
  Alcotest.(check (float 0.0)) "p0" 1.0 (Stats.percentile a 0.0)

let test_choose () =
  Alcotest.(check (list int)) "every calm slice, in time order" [ 1; 2; 3; 4 ]
    (Traffic.choose [| 0.05; 0.0; 0.02; 0.01; 0.0 |]);
  Alcotest.(check (list int)) "none calm: the least stolen" [ 2 ]
    (Traffic.choose [| 0.05; 0.3; 0.03; 0.1 |]);
  Alcotest.(check (list int)) "ties go to the earlier slice" [ 0 ]
    (Traffic.choose [| 0.1; 0.1; 0.1 |])

let test_json () =
  let doc =
    {|{"router": {"counters": {"a": 3},
                  "histograms": {"h": {"count": 2, "sum": 0.5, "p50": 1e-3}}},
       "shard-0": {"counters": {"a": 4},
                   "histograms": {"h": {"count": 6, "sum": 1.5, "p50": 2e-3}},
                   "s": "x\"y", "l": [true, null]}}|}
  in
  let snaps = Layers.snapshots (Json.parse doc) in
  Alcotest.(check (float 0.0)) "counter summed" 7.0 (Layers.counter snaps "a");
  let h = Layers.histo snaps "h" in
  Alcotest.(check (float 1e-12)) "count" 8.0 h.Layers.h_count;
  Alcotest.(check (float 1e-12)) "weighted p50" 1.75e-3 h.h_p50

(* The committed BENCHMARK.json is exactly what [--benchmark-json] prints:
   the metrics a run reports and the ones it declares cannot drift apart. *)
let test_benchmark_json () =
  Alcotest.(check string) "BENCHMARK.json"
    (Json.pretty Definition.benchmark ^ "\n")
    (In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all)

let () =
  Alcotest.run "perfbench"
    [
      ( "generator",
        [
          Alcotest.test_case "same seed, same stream" `Quick
            test_same_seed_same_stream;
          Alcotest.test_case "pinned streams" `Quick test_pinned_streams;
          Alcotest.test_case "writes keep the schema size" `Quick
            test_writes_balance;
          Alcotest.test_case "cycles cover every class" `Quick test_cycles;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "nearest-rank percentile" `Quick test_percentile;
          Alcotest.test_case "calm slices" `Quick test_choose;
          Alcotest.test_case "stats json" `Quick test_json;
          Alcotest.test_case "BENCHMARK.json is generated" `Quick
            test_benchmark_json;
        ] );
      ( "routed",
        [ Alcotest.test_case "variant placement" `Quick test_routed_placement ]
      );
    ]
