(* The metrics the benchmark reports, and the BENCHMARK.json document that
   declares them and the workloads to whoever runs it. *)

(* name, unit, better, bound (the share of the parent's median by which the
   metric may worsen before a change counts as a regression).  The bounds
   are the widest the result format allows: on a two-core virtual machine
   whose host steals a varying share of its time, and whose speed shifts
   for minutes at a time, ten runs of one commit spread by 10-25% of the
   median on most of these metrics. *)
let end_to_end =
  [
    ("throughput_rps", "1/s", "higher", 0.25);
    ("write_p50_ms", "ms", "lower", 0.25);
    ("write_tail_ms", "ms", "lower", 0.25);
    ("read_p50_ms", "ms", "lower", 0.25);
    ("read_tail_ms", "ms", "lower", 0.25);
    ("query_p50_ms", "ms", "lower", 0.25);
    ("query_tail_ms", "ms", "lower", 0.25);
    ("setup_s", "s", "lower", 0.25);
    ("server_rss_mb", "MB", "lower", 0.25);
  ]

(* R spans: layer, unit of its p50 *)
let r_spans =
  [
    ("server.protocol.parse_request", "us");
    ("designer.command.parse", "us");
    ("designer.engine.exec", "us");
    ("core.session.consistency_report", "us");
    ("query.view.update", "us");
    ("query.eval", "us");
    ("repository.journal.encode", "us");
    ("repository.io.append_fsync", "us");
    ("server.publish.publish", "us");
    ("server.protocol.to_string", "us");
    ("odl.parser.parse_schema", "ms");
    ("core.session.create", "ms");
    ("core.oplog.replay", "ms");
  ]

(* S histograms of durations: metric, unit, instrument *)
let s_spans =
  [
    ("server.locks.wait", "ms", "swsd.lock.wait_seconds");
    ("server.locks.hold", "ms", "swsd.lock.hold_seconds");
    ("server.group_commit.flush", "ms", "swsd.commit.flush_seconds");
    ("server.engine.apply", "ms", "swsd.engine.apply_seconds");
    ("server.query.view.maintain", "ms", "swsd.query.view.maintain_seconds");
    ("server.respond", "us", "swsd.respond_seconds");
  ]

(* The S histogram read from the routed pass of small-multi's traced run
   ([Workload.traced_extra]); 0 on the other workloads. *)
let router_span =
  ("server.router.forward", "ms", "swsd.router.forward_seconds")

let scale = function "us" -> 1e6 | "ms" -> 1e3 | _ -> 1.0

(* name, unit, better *)
let per_layer =
  let timed (base, u) =
    [
      (base ^ "_" ^ u, u, "lower");
      (base ^ ".count", "count", "higher");
      (base ^ ".busy_s", "s", "lower");
    ]
  in
  List.concat_map timed r_spans
  @ [
      ("core.schema_index.dirty_names", "count", "lower");
      ("core.schema_index.dirty_names.sum", "count", "lower");
      ("repository.journal.bytes_per_write", "bytes", "lower");
    ]
  @ List.concat_map (fun (b, u, _) -> timed (b, u)) (s_spans @ [ router_span ])
  @ [
      ("server.group_commit.batch_size", "count", "higher");
      ("server.group_commit.batch_size.count", "count", "lower");
      ("repository.io.fsyncs_per_write", "ratio", "lower");
      ("server.read.lockfree_ratio", "ratio", "higher");
      ("server.shed_ratio", "ratio", "lower");
      ("trace.untraced_throughput_rps", "1/s", "higher");
      ("trace.traced_throughput_rps", "1/s", "higher");
      ("trace.routed_throughput_rps", "1/s", "higher");
      ("trace.overhead_pct", "%", "lower");
      ("trace.slice_spread_pct", "%", "lower");
      ("crosscheck.engine_exec_r_over_s", "ratio", "lower");
      ("crosscheck.view_update_r_over_s", "ratio", "lower");
      ("write_path.unexplained_share", "ratio", "lower");
    ]

let unit_of n =
  match
    List.find_map (fun (m, u, _, _) -> if m = n then Some u else None) end_to_end
  with
  | Some u -> u
  | None -> (
      match
        List.find_map (fun (m, u, _) -> if m = n then Some u else None) per_layer
      with
      | Some u -> u
      | None -> invalid_arg ("no metric " ^ n))

let run_seconds = 10

let benchmark =
  let str s = Json.Str s in
  let obj kvs = Json.Obj (List.map (fun (k, v) -> (k, str v)) kvs) in
  Json.Obj
    [
      ("command", Json.Arr [ str "sh"; str "perfbench/run.sh" ]);
      ("paths", Json.Arr [ str "perfbench" ]);
      ("run_seconds", Json.Int run_seconds);
      ( "workloads",
        Json.Arr
          (List.map
             (fun (w : Workload.t) -> obj [ ("name", w.name); ("why", w.why) ])
             Workload.all) );
      ( "end_to_end",
        Json.Arr
          (List.map
             (fun (n, u, better, bound) ->
               Json.Obj
                 [
                   ("name", str n);
                   ("unit", str u);
                   ("better", str better);
                   ("bound", Json.Num bound);
                 ])
             end_to_end) );
      ( "per_layer",
        Json.Arr
          (List.map
             (fun (n, u, better) ->
               obj [ ("name", n); ("unit", u); ("better", better) ])
             per_layer) );
    ]
