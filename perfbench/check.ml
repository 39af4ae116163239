(* The correctness check.  The sequential designer ([Designer.Engine] over
   [Core.Session]) is the specification: every answer the server gave must
   be the one the engine gives at the same point of the variant's history,
   and the drained repository must hold exactly the acknowledged ops.

   Per variant, the acknowledged writes are replayed in [#version] order
   (the stamp the service published each one at).  A read or query
   stamped [s] must equal the engine's answer after every write stamped at
   most [s]; a write's own answer must equal the engine's feedback for it.
   After the drain, the repository reopened through [Repository.Repo] must
   hold the replayed workspace, and the final [@query] answers must equal a
   from-scratch evaluation ([Query.Eval.run_fresh]) on it. *)

module Engine = Designer.Engine
module Protocol = Server.Protocol
module Repo = Repository.Repo

let expected_lines ?version feedback =
  let body = List.map Designer.Feedback.to_string feedback in
  if List.exists Designer.Feedback.is_error feedback then
    Protocol.to_lines (Protocol.err ~body ?version "command rejected")
  else Protocol.to_lines (Protocol.ok ?version body)

let query_text line =
  match Protocol.parse_request line with
  | Ok (Protocol.Query q) -> q
  | _ -> invalid_arg ("not a query: " ^ line)

let query_lines ?version ~eval line =
  match Query.Parser.parse (query_text line) with
  | Error m -> Protocol.to_lines (Protocol.err m)
  | Ok q -> (
      match eval q.Query.Ast.q_atom with
      | Ok lines -> Protocol.to_lines (Protocol.ok ?version lines)
      | Error m -> Protocol.to_lines (Protocol.err ?version m))

type mismatch = { m_line : string; got : string list; want : string list }

let describe m =
  Printf.sprintf "%s\n    got:  %s\n    want: %s" m.m_line
    (String.concat " | " m.got)
    (String.concat " | " m.want)

(* Replay one variant's answered requests; returns the final engine state
   and every answer that differs from the engine's. *)
let replay_variant ~initial (samples : Traffic.sample list) =
  let stamped =
    samples
    |> List.filter Traffic.ok
    |> List.filter_map (fun s -> Option.map (fun v -> (v, s)) (Traffic.version s))
  in
  (* writes before reads at an equal stamp: the stamp is the write's own
     publication, which a read stamped the same already sees *)
  let rank (s : Traffic.sample) = if s.cls = Workload.Write then 0 else 1 in
  let ordered =
    List.stable_sort
      (fun (v1, s1) (v2, s2) ->
        match compare v1 v2 with 0 -> compare (rank s1) (rank s2) | c -> c)
      stamped
  in
  let mismatches = ref [] in
  let compare_answer (s : Traffic.sample) want =
    if want <> s.response then
      mismatches := { m_line = s.line; got = s.response; want } :: !mismatches
  in
  let state = ref initial and view = ref None and stamp = ref 0 in
  let current_view () =
    incr stamp;
    let v =
      Query.View.update ?prev:!view ~stamp:!stamp (!state).Engine.session
    in
    view := Some v;
    v
  in
  List.iter
    (fun (version, (s : Traffic.sample)) ->
      match s.cls with
      | Workload.Write ->
          let st, fb = Engine.exec_line !state s.line in
          state := st;
          compare_answer s (expected_lines ~version fb)
      | Workload.Read ->
          let _, fb = Engine.exec_line !state s.line in
          compare_answer s (expected_lines ~version fb)
      | Workload.Query ->
          compare_answer s
            (query_lines ~version ~eval:(Query.Eval.run (current_view ())) s.line))
    ordered;
  (!state, List.rev !mismatches)

let schema_text s = Odl.Printer.schema_to_string (Core.Session.workspace s)

(* [finals]: per connection, the final query answers taken after traffic
   stopped.  Returns the failures found (empty = correct). *)
let run (w : Workload.t) ~initial ~dir ~(traffic : Traffic.result)
    ~(finals : (int * Traffic.sample list) list) =
  match Repo.open_dir dir with
  | Error m -> [ "reopen repository: " ^ m ]
  | Ok repo ->
      List.concat_map
        (fun variant ->
          let conns =
            w.conns
            |> List.mapi (fun k v -> (k, v))
            |> List.filter (fun (_, v) -> String.equal v variant)
            |> List.map fst
          in
          let samples =
            Array.to_list traffic.samples
            |> List.filter (fun (s : Traffic.sample) -> List.mem s.conn conns)
          in
          let final, mismatches = replay_variant ~initial samples in
          let answers =
            List.map (fun m -> variant ^ ": " ^ describe m) mismatches
          in
          match Repo.open_variant repo variant with
          | Error e ->
              answers
              @ [ variant ^ ": reopen: " ^ Repo.open_error_to_string e ]
          | Ok reopened ->
              let workspace =
                if String.equal (schema_text reopened) (schema_text final.session)
                then []
                else [ variant ^ ": reopened workspace differs from the replay" ]
              in
              let queries =
                List.concat_map
                  (fun k ->
                    List.filter_map
                      (fun (s : Traffic.sample) ->
                        let version = Traffic.version s in
                        let want =
                          query_lines ?version
                            ~eval:
                              (Query.Eval.run_fresh
                                 ~stamp:(Option.value version ~default:0)
                                 reopened)
                            s.line
                        in
                        if want = s.response then None
                        else
                          Some
                            (variant ^ ": final "
                            ^ describe { m_line = s.line; got = s.response; want }))
                      (List.assoc k finals))
                  conns
              in
              answers @ workspace @ queries)
        (Workload.variants w)
