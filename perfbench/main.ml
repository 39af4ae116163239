(* perfbench: the design service's benchmark.

   Usage (from the repository root, through perfbench/run.sh, which builds
   [swsd] and this program from source first):

     perfbench --workload NAME --seed N --seconds S --trace 0|1
     perfbench --benchmark-json     print BENCHMARK.json for these definitions

   A run prepares a repository, spawns the real [swsd serve] as a separate
   process, drives its connections over its Unix socket in a closed loop
   from one client thread for S seconds (after a warm-up), drains it, and
   checks every answer (see [Check]).  With [--trace 0] the last line of
   standard output carries the end-to-end metrics; with [--trace 1] it
   carries the per-layer metrics of a traced run (see [Layers]). *)

open Perfbench
open Definition

(* ---- one run of the service --------------------------------------------- *)

let line fmt = Printf.printf (fmt ^^ "\n%!")

type outcome = {
  traffic : Traffic.result;
  setup_s : float list;
  rss_mb : float;
  stats : Json.t option;
  failures : string list;  (** correctness failures: drain, fsck, answers *)
  phases : (string * float) list;  (** wall seconds of each step of the run *)
  initial : Designer.Engine.state;  (** what every variant starts from *)
}

let command_output cmd =
  match Unix.open_process_in (cmd ^ " 2>/dev/null") with
  | ic ->
      let out = try String.trim (input_line ic) with End_of_file -> "" in
      ignore (Unix.close_process_in ic);
      if out = "" then "unknown" else out

let request_ok c line =
  match Server.Client.request c line with
  | Some lines when List.mem "!ok" lines -> ()
  | Some lines -> Serve.fail "%s: %s" line (String.concat " | " lines)
  | None -> Serve.fail "%s: server hung up" line

(* Server spawns of a timed run; [setup_s] is their median. *)
let setups = 5

let run_service (w : Workload.t) ~seed ~seconds ~no_obs ~setups ~work =
  let dir = Filename.concat work "repo" in
  let socket = Filename.concat work "swsd.sock" in
  let log = Filename.concat work "server.log" in
  let phases = ref [] in
  let phase name f =
    let t0 = Traffic.now () in
    let r = f () in
    phases := (name, Traffic.now () -. t0) :: !phases;
    r
  in
  let initial = phase "prepare" (fun () -> Repo_setup.prepare w ~seed ~dir) in
  (* set-up: spawn on the prepared repository until every connection's
     @open is acknowledged; the last instance serves the traffic *)
  let rec spawn k times =
    let t0 = Traffic.now () in
    let srv = Serve.spawn ~dir ~socket ~log ~no_obs w in
    let clients =
      try List.map (Serve.attach srv) w.conns
      with e ->
        ignore (Serve.stop srv);
        raise e
    in
    let times = (Traffic.now () -. t0) :: times in
    if k > 1 then begin
      List.iter Server.Client.close clients;
      (match Serve.stop srv with
      | Ok () -> ()
      | Error m -> Serve.fail "set-up drain: %s" m);
      spawn (k - 1) times
    end
    else (srv, clients, List.rev times)
  in
  let srv, clients, setup_s = phase "set-up" (fun () -> spawn setups []) in
  let finish () = List.iter Server.Client.close clients in
  match
    List.iter (fun c -> request_ok c ("focus " ^ w.focus)) clients;
    let gens = List.mapi (fun conn _ -> Workload.generator w ~seed ~conn) w.conns in
    let warmup = Float.min 1.0 (0.125 *. seconds) in
    let rss_at = ref None in
    let at_writes = (w.rss_writes, fun () -> rss_at := Some (Serve.rss_mb srv)) in
    let traffic =
      phase "traffic" (fun () ->
          Traffic.run ~clients ~gens ~warmup ~seconds ~at_writes)
    in
    let finals =
      List.mapi
        (fun k c ->
          ( k,
            List.map
              (fun line ->
                let start = Traffic.now () in
                let response =
                  Option.value (Server.Client.request c line) ~default:[]
                in
                {
                  Traffic.conn = k;
                  cls = Workload.Query;
                  line;
                  start;
                  finish = Traffic.now ();
                  response;
                })
              (Workload.final_queries w) ))
        clients
    in
    let stats = if no_obs then None else Some (Serve.stats (List.hd clients)) in
    let rss_mb =
      match !rss_at with
      | Some mb -> mb
      | None ->
          line "  server_rss_mb: fewer than %d writes acknowledged; read at the end"
            w.rss_writes;
          Serve.rss_mb srv
    in
    (traffic, finals, stats, rss_mb)
  with
  | exception e ->
      finish ();
      ignore (Serve.stop srv);
      raise e
  | traffic, finals, stats, rss_mb ->
      finish ();
      let drained = phase "drain" (fun () -> Serve.stop srv) in
      let failures =
        match drained with
        | Error m -> [ "drain: " ^ m ]
        | Ok () -> (
            match phase "fsck" (fun () -> Serve.fsck ~dir ~log) with
            | Error m -> [ m ]
            | Ok () ->
                phase "check" (fun () ->
                    Check.run w ~initial ~dir ~traffic ~finals))
      in
      let phases = List.rev !phases in
      { traffic; setup_s; rss_mb; stats; failures; phases; initial }

(* ---- reporting ---------------------------------------------------------- *)

let e2e_metrics o =
  let lat c = Traffic.latencies_ms o.traffic c in
  let p50 c = Stats.percentile (lat c) 50.0 in
  let tail c = Stats.percentile (lat c) Workload.tail in
  [
    ("throughput_rps", Traffic.throughput o.traffic);
    ("write_p50_ms", p50 Write);
    ("write_tail_ms", tail Write);
    ("read_p50_ms", p50 Read);
    ("read_tail_ms", tail Read);
    ("query_p50_ms", p50 Query);
    ("query_tail_ms", tail Query);
    ("setup_s", Stats.median o.setup_s);
    ("server_rss_mb", o.rss_mb);
  ]

let print_classes o =
  List.iter
    (fun c ->
      let l = Traffic.latencies_ms o.traffic c in
      let n = Array.length l in
      let p = Workload.tail in
      let beyond = n - int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
      line "  %-5s n=%-6d p50=%.3f ms  tail=p%g %.3f ms (%d samples beyond%s)"
        (Workload.cls_name c) n (Stats.percentile l 50.0) p (Stats.percentile l p)
        beyond
        (if beyond < 10 then "; fewer than 10: tail unreliable" else "");
      line "        p10..p90 %s ms"
        (String.concat " "
           (List.map
              (fun q -> Printf.sprintf "%.3f" (Stats.percentile l q))
              [ 10.0; 25.0; 50.0; 75.0; 90.0 ])))
    Workload.classes

let failed o = Traffic.failed o.traffic + List.length o.failures
let attempted o = Traffic.attempted o.traffic

let print_outcome label o =
  line "%s: %d requests, %d failed, throughput %.1f req/s, setup %s s, rss %.1f MB"
    label (attempted o) (failed o) (Traffic.throughput o.traffic)
    (String.concat " " (List.map (Printf.sprintf "%.3f") o.setup_s))
    o.rss_mb;
  print_classes o;
  let row f xs = String.concat " " (List.map f xs) in
  line "  slices (req/s steal%%, * = measured): %s"
    (row
       (fun (i, rate) ->
         Printf.sprintf "%.0f/%.1f%s" rate
           (100.0 *. o.traffic.steal.(i))
           (if List.mem i o.traffic.chosen then "*" else ""))
       (List.mapi (fun i r -> (i, r)) (Traffic.slice_rates o.traffic)));
  line "  phases: %s"
    (row (fun (n, t) -> Printf.sprintf "%s %.2fs" n t) o.phases);
  line "  failed_ratio %.6f"
    (float_of_int (failed o) /. float_of_int (max 1 (attempted o)));
  List.iteri (fun i f -> if i < 10 then line "  FAIL %s" f) o.failures

let result_json ~correct ~attempted ~failed metrics =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Int attempted);
         ("failed", Json.Int failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun (n, v) ->
                  ( n,
                    Json.Obj
                      [ ("value", Json.Num v); ("unit", Json.Str (unit_of n)) ] ))
                metrics) );
       ])

let env_json (w : Workload.t) ~seconds ~trace =
  let nproc =
    Option.value (int_of_string_opt (command_output "nproc")) ~default:0
  in
  let procs = Workload.server_processes w in
  Json.to_string
    (Json.Obj
       [
         ("workload", Json.Str w.name);
         ("legacy_bench", Json.Str w.legacy);
         ("nproc", Json.Int nproc);
         ("ocaml", Json.Str Sys.ocaml_version);
         ("commit", Json.Str (command_output "git rev-parse HEAD"));
         ( "server_flags",
           Json.Arr
             (List.map
                (fun s -> Json.Str s)
                ((if trace then [] else [ "--no-obs" ]) @ Workload.server_args w))
         );
         ("fsync_model", Json.Str (Workload.fsync_model w));
         ("server_processes", Json.Int procs);
         ("client_threads", Json.Int 1);
         ("connections", Json.Int (List.length w.conns));
         ("processes_fit_cores", Json.Bool (procs + 1 <= nproc));
         ("seconds", Json.Num seconds);
         ("trace", Json.Bool trace);
       ])


(* ---- the traced run ----------------------------------------------------- *)

let layer_metrics (w : Workload.t) ~seed ~work ~untraced ~traced ~routed =
  let sp : Layers.spans = Hashtbl.create 32 in
  let dir = Filename.concat work "repo" in
  Layers.replay_setup sp ~dir ~reps:3 ~initial:traced.initial;
  Layers.replay_requests sp ~scratch:work ~initial:traced.initial ~seed w;
  let r_p50 name = Stats.median (Layers.values sp name) in
  let r_metrics =
    List.concat_map
      (fun (base, u) ->
        let xs = Layers.values sp base in
        [
          (base ^ "_" ^ u, Stats.median xs *. scale u);
          (base ^ ".count", float_of_int (List.length xs));
          (base ^ ".busy_s", Stats.sum xs);
        ])
      r_spans
  in
  let dirty = Layers.values sp "core.schema_index.dirty_names" in
  let snaps = Layers.snapshots (Option.get traced.stats) in
  let s_timed snaps (base, u, instrument) =
    let h = Layers.histo snaps instrument in
    [
      (base ^ "_" ^ u, h.Layers.h_p50 *. scale u);
      (base ^ ".count", h.h_count);
      (base ^ ".busy_s", h.h_sum);
    ]
  in
  let routed_snaps =
    match routed with
    | Some o -> Layers.snapshots (Option.get o.stats)
    | None -> []
  in
  let s_metrics =
    List.concat_map (s_timed snaps) s_spans @ s_timed routed_snaps router_span
  in
  let batch = Layers.histo snaps "swsd.commit.batch_size" in
  let fsyncs = (Layers.histo snaps "swsd.io.fsync_seconds").h_count in
  let counter = Layers.counter snaps in
  let lockfree = counter "swsd.read.lockfree_total" in
  let untraced_rps = Traffic.throughput untraced.traffic in
  let traced_rps = Traffic.throughput traced.traffic in
  let routed_rps =
    match routed with Some o -> Traffic.throughput o.traffic | None -> 0.0
  in
  let s_apply = (Layers.histo snaps "swsd.engine.apply_seconds").h_p50 in
  let s_maintain = (Layers.histo snaps "swsd.query.view.maintain_seconds").h_p50 in
  let write_p50_s =
    Stats.percentile (Traffic.latencies_ms traced.traffic Write) 50.0 /. 1000.0
  in
  let write_path =
    [
      "server.protocol.parse_request";
      "designer.command.parse";
      "designer.engine.exec";
      "core.session.consistency_report";
      "query.view.update";
      "repository.journal.encode";
      "repository.io.append_fsync";
      "server.publish.publish";
      "server.protocol.to_string";
    ]
  in
  let explained = Stats.sum (List.map r_p50 write_path) in
  line "cross-check (R replay vs service instruments):";
  line "  designer.engine.exec p50 %.3f ms vs server.engine.apply p50 %.3f ms"
    (r_p50 "designer.engine.exec" *. 1e3)
    (s_apply *. 1e3);
  line "  query.view.update p50 %.3f ms vs server.query.view.maintain p50 %.3f ms"
    (r_p50 "query.view.update" *. 1e3)
    (s_maintain *. 1e3);
  line "  R write-path spans explain %.3f ms of write_p50 %.3f ms (traced run)"
    (explained *. 1e3) (write_p50_s *. 1e3);
  (* the overhead means something only beside the run's own noise: the
     spread of the untraced run's per-second rates *)
  let rates =
    Traffic.chosen_slices untraced.traffic
    |> List.map Traffic.rate |> Stats.sorted_of_list
  in
  let slice_spread =
    Layers.ratio
      (Stats.percentile rates 75.0 -. Stats.percentile rates 25.0)
      (Stats.percentile rates 50.0)
  in
  line
    "tracing overhead: %.1f req/s untraced vs %.1f req/s traced (untraced \
     per-second rates spread %.1f%%)"
    untraced_rps traced_rps (100.0 *. slice_spread);
  r_metrics
  @ [
      ("core.schema_index.dirty_names", Stats.median dirty);
      ("core.schema_index.dirty_names.sum", Stats.sum dirty);
      ("repository.journal.bytes_per_write",
        Stats.median (Layers.values sp "repository.journal.bytes_per_write"));
    ]
  @ s_metrics
  @ [
      ("server.group_commit.batch_size", batch.h_p50);
      ("server.group_commit.batch_size.count", batch.h_count);
      ( "repository.io.fsyncs_per_write",
        Layers.ratio fsyncs (counter "swsd.write_total") );
      ( "server.read.lockfree_ratio",
        Layers.ratio lockfree (lockfree +. counter "swsd.read.fallback_total") );
      ( "server.shed_ratio",
        Layers.ratio
          (counter "swsd.shed.deadline_total"
          +. counter "swsd.shed.queue_full_total")
          (counter "swsd.requests_total") );
      ("trace.untraced_throughput_rps", untraced_rps);
      ("trace.traced_throughput_rps", traced_rps);
      ("trace.routed_throughput_rps", routed_rps);
      ( "trace.overhead_pct",
        100.0 *. Layers.ratio (untraced_rps -. traced_rps) untraced_rps );
      ("trace.slice_spread_pct", 100.0 *. slice_spread);
      ( "crosscheck.engine_exec_r_over_s",
        Layers.ratio (r_p50 "designer.engine.exec") s_apply );
      ( "crosscheck.view_update_r_over_s",
        Layers.ratio (r_p50 "query.view.update") s_maintain );
      ("write_path.unexplained_share", 1.0 -. Layers.ratio explained write_p50_s);
    ]

(* ---- command line ------------------------------------------------------- *)

let usage =
  "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n\
  \       perfbench --benchmark-json\n\
   workloads: "
  ^ String.concat ", " (List.map (fun (w : Workload.t) -> w.name) Workload.all)

let die m =
  prerr_endline ("perfbench: " ^ m);
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  if args = [ "--benchmark-json" ] then begin
    print_endline (Json.pretty benchmark);
    exit 0
  end;
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        opts ((k, v) :: acc) rest
    | [] -> acc
    | _ -> die usage
  in
  let opts = opts [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> die usage in
  let int k =
    match int_of_string_opt (get k) with Some n -> n | None -> die usage
  in
  let w =
    match Workload.find (get "--workload") with Some w -> w | None -> die usage
  in
  let seed = int "--seed" and seconds = float_of_int (int "--seconds") in
  let trace =
    match get "--trace" with "0" -> false | "1" -> true | _ -> die usage
  in
  if seconds <= 0.0 then die usage;
  if not (Sys.file_exists Serve.swsd) then die (Serve.swsd ^ " is not built");
  let work = Filename.concat ".perfbench" w.name in
  Server.Transport.ignore_sigpipe ();
  (* a run that hangs (a server that stops answering) must still end, and
     leave no server behind *)
  ignore
    (Thread.create
       (fun () ->
         Thread.delay 170.0;
         prerr_endline "perfbench: the run did not finish within 170 s";
         Serve.kill_all ();
         exit 1)
       ());
  line "# env %s" (env_json w ~seconds ~trace);
  let jiffies0 = Traffic.cpu_jiffies () in
  let report_steal () =
    line "cpu steal during the run: %.1f%%"
      (100.0 *. Traffic.steal_between jiffies0 (Traffic.cpu_jiffies ()))
  in
  match
    if not trace then begin
      let o = run_service w ~seed ~seconds ~no_obs:true ~setups ~work in
      print_outcome "run" o;
      let metrics = e2e_metrics o in
      (o.failures = [] && failed o = 0, attempted o, failed o, metrics)
    end
    else begin
      let untraced = run_service w ~seed ~seconds ~no_obs:true ~setups:1 ~work in
      print_outcome "untraced" untraced;
      let traced = run_service w ~seed ~seconds ~no_obs:false ~setups:1 ~work in
      print_outcome "traced" traced;
      let routed =
        Option.map
          (fun (r : Workload.t) ->
            line "# routed pass: %s, server flags %s" r.name
              (String.concat " " (Workload.server_args r));
            let o = run_service r ~seed ~seconds ~no_obs:false ~setups:1 ~work in
            print_outcome "traced, routed" o;
            o)
          (Workload.traced_extra w)
      in
      let metrics = layer_metrics w ~seed ~work ~untraced ~traced ~routed in
      let runs = untraced :: traced :: Option.to_list routed in
      let total f = List.fold_left (fun acc o -> acc + f o) 0 runs in
      ( List.for_all (fun o -> o.failures = [] && failed o = 0) runs,
        total attempted,
        total failed,
        metrics )
    end
  with
  | exception Serve.Failed m ->
      prerr_endline ("perfbench: " ^ m);
      exit 1
  | correct, attempted, failed, metrics ->
      List.iter (fun (n, v) -> line "%-44s %14.4f %s" n v (unit_of n)) metrics;
      report_steal ();
      Repo_setup.remove_tree work;
      (try Unix.rmdir (Filename.dirname work) with Unix.Unix_error _ -> ());
      print_endline (result_json ~correct ~attempted ~failed metrics);
      if not correct then exit 1
