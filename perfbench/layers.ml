(* Per-layer numbers for the traced run, from two sources.

   (R) A single-thread replay, in this process, of the workload's seeded
   request stream through each layer's public entry point, with a span
   around each call: the same calls the service makes for a request, in
   the same order, without threads, sockets or locks.

   (S) The service's own instruments: the [@stats json] snapshot of every
   server process, taken at the end of the traced run. *)

module Engine = Designer.Engine
module Command = Designer.Command
module Protocol = Server.Protocol
module Journal = Repository.Journal
module Io = Repository.Io

(* ---- R: spans ----------------------------------------------------------- *)

type spans = (string, float list) Hashtbl.t

let record (sp : spans) name v =
  Hashtbl.replace sp name (v :: Option.value (Hashtbl.find_opt sp name) ~default:[])

let time sp name f =
  let t0 = Traffic.now () in
  let r = f () in
  record sp name (Traffic.now () -. t0);
  r

let values sp name = Option.value (Hashtbl.find_opt sp name) ~default:[]

(* The fsync model of the workload, as [swsd serve --fsync-delay-ms]
   builds it. *)
let io_model (w : Workload.t) =
  if w.fsync_delay_ms <= 0.0 then Io.unix
  else
    {
      Io.unix with
      Io.fsync =
        (fun path ->
          Io.unix.Io.fsync path;
          Thread.delay (w.fsync_delay_ms /. 1000.0));
    }

(* Set-up layers: schema load, session build, replay of the seeded
   history ([initial]'s log) — what the server pays at [@open]. *)
let replay_setup sp ~dir ~reps ~(initial : Engine.state) =
  let text =
    In_channel.with_open_bin (Filename.concat dir "shrinkwrap.odl")
      In_channel.input_all
  in
  let history = Core.Oplog.pairs (Core.Oplog.of_session initial.session) in
  for _ = 1 to reps do
    let schema =
      time sp "odl.parser.parse_schema" (fun () -> Odl.Parser.parse_schema text)
    in
    ignore (time sp "core.session.create" (fun () -> Core.Session.create schema));
    ignore
      (time sp "core.oplog.replay" (fun () -> Core.Oplog.replay schema history))
  done

(* Requests replayed per workload: a fixed amount of work, so counts, busy
   seconds and sums describe the same requests on every commit however fast
   it runs.  A write on the large schema costs tens of milliseconds. *)
let replay_count (w : Workload.t) =
  match w.schema with Workload.Small -> 4000 | Workload.Synth _ -> 160

(* The first [replay_count w] requests of the stream through each layer,
   round-robin over connections. *)
let replay_requests sp ~scratch ~initial ~seed (w : Workload.t) =
  let time name f = time sp name f in
  let io = io_model w in
  let journal = Filename.concat scratch "replay.ops" in
  Repo_setup.remove_tree journal;
  let pub = Server.Publish.create () in
  let states = Hashtbl.create 4 and views = Hashtbl.create 4 in
  List.iter
    (fun v ->
      Hashtbl.replace states v initial;
      ignore (Server.Publish.publish pub v initial))
    (Workload.variants w);
  let gens =
    Array.of_list
      (List.mapi (fun conn _ -> Workload.generator w ~seed ~conn) w.conns)
  in
  let variants = Array.of_list w.conns in
  for i = 0 to replay_count w - 1 do
    let k = i mod Array.length gens in
    let variant = variants.(k) in
    let cls, line = Workload.next gens.(k) in
    let req =
      time "server.protocol.parse_request" (fun () -> Protocol.parse_request line)
    in
    let state = Hashtbl.find states variant in
    let version = Server.Publish.seq pub variant in
    let response =
      match (req, cls) with
      | Ok (Protocol.Query text), _ ->
          let view =
            Query.View.update ?prev:(Hashtbl.find_opt views variant) ~stamp:version
              state.Engine.session
          in
          Hashtbl.replace views variant view;
          let lines =
            time "query.eval" (fun () ->
                match Query.Parser.parse text with
                | Error m -> [ m ]
                | Ok q -> (
                    match Query.Eval.run view q.Query.Ast.q_atom with
                    | Ok lines -> lines
                    | Error m -> [ m ]))
          in
          Protocol.ok ~version lines
      | Ok (Protocol.Command text), Workload.Write ->
          let cmd = time "designer.command.parse" (fun () -> Command.parse text) in
          let st, fb =
            time "designer.engine.exec" (fun () -> Engine.exec state cmd)
          in
          let dirty =
            Core.Schema_index.changed_names
              (Core.Session.index state.Engine.session)
              (Core.Session.index st.Engine.session)
          in
          record sp "core.schema_index.dirty_names"
            (float_of_int (List.length dirty));
          ignore
            (time "core.session.consistency_report" (fun () ->
                 Core.Session.consistency_report st.Engine.session));
          let stamp = version + 1 in
          let view =
            time "query.view.update" (fun () ->
                Query.View.update ?prev:(Hashtbl.find_opt views variant) ~stamp
                  st.Engine.session)
          in
          Hashtbl.replace views variant view;
          (match (cmd, state.Engine.focus) with
          | Command.Apply op, Some focus ->
              let kind =
                match Core.Session.find_concept state.Engine.session focus with
                | Some c -> c.Core.Concept.c_kind
                | None -> Core.Concept.Wagon_wheel
              in
              let bytes =
                time "repository.journal.encode" (fun () ->
                    Journal.encode (Journal.Op (kind, op)))
              in
              record sp "repository.journal.bytes_per_write"
                (float_of_int (String.length bytes));
              time "repository.io.append_fsync" (fun () ->
                  Journal.append_raw io journal bytes)
          | _ -> ());
          let version =
            time "server.publish.publish" (fun () ->
                Server.Publish.publish pub variant st)
          in
          Hashtbl.replace states variant st;
          Protocol.ok ~version (List.map Designer.Feedback.to_string fb)
      | Ok (Protocol.Command text), _ ->
          let cmd = time "designer.command.parse" (fun () -> Command.parse text) in
          let _, fb = Engine.exec state cmd in
          Protocol.ok ~version (List.map Designer.Feedback.to_string fb)
      | _, _ -> Protocol.err ("unexpected request " ^ line)
    in
    ignore
      (time "server.protocol.to_string" (fun () -> Protocol.to_string response))
  done;
  Repo_setup.remove_tree journal

(* ---- S: the service's instruments --------------------------------------- *)

(* One snapshot per server process: the router's merged answer carries one
   object per process ([router], [shard-0], ...). *)
let snapshots stats =
  match Json.member "counters" stats with
  | Some _ -> [ stats ]
  | None -> ( match stats with Json.Obj kvs -> List.map snd kvs | _ -> [])

let counter snaps name =
  Stats.sum (List.map (fun s -> Json.num (Json.path [ "counters"; name ] s)) snaps)

type histo = { h_count : float; h_sum : float; h_p50 : float }

(* Histograms summed over processes; the p50 is the count-weighted mean of
   the per-process medians. *)
let histo snaps name =
  let parts =
    List.filter_map (fun s -> Json.path [ "histograms"; name ] s) snaps
  in
  let f k h = Json.num (Json.member k h) in
  let count = Stats.sum (List.map (f "count") parts) in
  {
    h_count = count;
    h_sum = Stats.sum (List.map (f "sum") parts);
    h_p50 =
      (if count = 0.0 then 0.0
       else
         Stats.sum (List.map (fun h -> f "count" h *. f "p50" h) parts) /. count);
  }

let ratio a b = if b = 0.0 then 0.0 else a /. b
