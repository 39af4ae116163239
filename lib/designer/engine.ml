(** The interactive schema designer's engine: interprets commands against a
    design session and produces feedback.  The REPL in [bin/swsd.ml] is a
    thin loop around {!exec}; keeping the engine pure makes the designer
    fully testable. *)

module Session = Core.Session

type state = {
  session : Session.t;
  focus : string option;  (** focused concept schema id *)
  reviewed : string list;  (** concept schemas already considered *)
  store : Objects.Store.t option;
      (** instance data under the shrink wrap schema, for data impact *)
  repo : Repository.Store.t option;
      (** when set, every accepted operation (and undo) is journalled
          durably before it is acknowledged *)
  finished : bool;
}

let start ?repo session =
  { session; focus = None; reviewed = []; store = None; repo; finished = false }

(* Journal one durable record; a persistence failure never loses the
   in-memory state, it only warns. *)
let persist state entry =
  match state.repo with
  | None -> []
  | Some repo -> (
      match entry repo with
      | () -> []
      | exception Sys_error m ->
          [ Feedback.caution ("persistence failed: " ^ m) ])

let persist_step state kind op =
  persist state (fun repo -> Repository.Store.append_step repo (kind, op))

let persist_undo state = persist state Repository.Store.append_undo

(* what migrating the loaded data onto [schema] would drop *)
let data_impact state schema =
  match state.store with
  | None -> []
  | Some store ->
      let migrated, report = Objects.Migrate.migrate store ~custom:schema in
      let residual = Objects.Migrate.residual_problems migrated in
      (if report = [] then []
       else
         [
           Feedback.caution
             (Printf.sprintf "data impact: %d value/object drop(s) when migrating the loaded data"
                (List.length report));
         ])
      @
      if residual = [] then []
      else
        [
          Feedback.caution
            (Printf.sprintf
               "data impact: %d object(s) would need manual completion"
               (List.length residual));
        ]

let concept_line (c : Core.Concept.t) =
  Printf.sprintf "%-24s %-26s %d type(s)" c.c_id
    (Core.Concept.kind_name c.c_kind)
    (List.length c.c_members)

(* builds the one concept schema [id] names (workspace first, then the
   original), at a cost bounded by that concept, not by the schema *)
let find_concept state id = Session.lookup_concept state.session id

(* the schema to render [c] against: the workspace, unless the
   customization removed [c]'s focus — then it shows as the original had it *)
let rendering_schema state (c : Core.Concept.t) =
  if Core.Schema_index.mem_interface (Session.index state.session) c.c_focus
  then Session.workspace state.session
  else Session.original state.session

let focused_kind state =
  match state.focus with
  | None -> None
  | Some id ->
      Option.map (fun c -> c.Core.Concept.c_kind) (find_concept state id)

let apply_feedback events =
  List.map (fun e -> Feedback.info (Core.Change.event_to_string e)) events

let do_apply state op =
  match focused_kind state with
  | None ->
      ( state,
        [ Feedback.error "no concept schema focused; use: focus <concept-id>" ] )
  | Some kind -> (
      let cautions =
        Repository.Knowledge.Indexed.cautions (Session.index state.session) op
        |> List.map Feedback.caution
      in
      match Session.apply state.session ~kind op with
      | Ok (session, events) ->
          ( { state with session },
            Feedback.info ("applied " ^ Core.Op_printer.to_string op)
            :: (persist_step state kind op @ cautions @ apply_feedback events
               @ data_impact state (Session.workspace session)) )
      | Error e ->
          let suggestions =
            Core.Advisor.suggest_text
              ~original:(Session.original state.session)
              (Session.workspace state.session)
              kind op e
            |> List.map Feedback.info
          in
          (state, Feedback.error (Core.Apply.error_to_string e) :: suggestions))

let do_preview state op =
  match focused_kind state with
  | None ->
      ( state,
        [ Feedback.error "no concept schema focused; use: focus <concept-id>" ] )
  | Some kind -> (
      let cautions =
        Repository.Knowledge.Indexed.cautions (Session.index state.session) op
        |> List.map Feedback.caution
      in
      match Session.preview state.session ~kind op with
      | Ok events ->
          ( state,
            Feedback.info ("previewing " ^ Core.Op_printer.to_string op)
            :: (cautions @ apply_feedback events) )
      | Error e -> (state, [ Feedback.error (Core.Apply.error_to_string e) ]))

let do_plan state op =
  match focused_kind state with
  | None ->
      ( state,
        [ Feedback.error "no concept schema focused; use: focus <concept-id>" ] )
  | Some kind -> (
      let original = Session.original state.session in
      let workspace = Session.workspace state.session in
      match Core.Apply.apply ~original ~kind workspace op with
      | Ok _ ->
          (state, [ Feedback.info "the operation applies as is; no plan needed" ])
      | Error e -> (
          match Core.Advisor.repair_plan ~original workspace kind op with
          | Some steps ->
              ( state,
                Feedback.info
                  (Printf.sprintf "plan (%d steps) repairing: %s"
                     (List.length steps)
                     (Core.Apply.error_to_string e))
                :: List.map
                     (fun (k, o) ->
                       Feedback.output
                         (Printf.sprintf "  [%s] %s" (Core.Concept.kind_name k)
                            (Core.Op_printer.to_string o)))
                     steps )
          | None ->
              ( state,
                Feedback.error (Core.Apply.error_to_string e)
                :: List.map Feedback.info
                     (Core.Advisor.suggest_text ~original workspace kind op e) )))

(** Execute one parsed command. *)
let rec exec state (cmd : Command.t) =
  let workspace = Session.workspace state.session in
  match cmd with
  | Concepts ->
      let lines =
        Session.current_concepts state.session |> List.map concept_line
      in
      (state, List.map Feedback.output lines)
  | Focus id -> (
      match find_concept state id with
      | Some c ->
          ( {
              state with
              focus = Some id;
              reviewed =
                (if List.mem id state.reviewed then state.reviewed
                 else id :: state.reviewed);
            },
            [
              Feedback.info
                (Printf.sprintf "focused %s (%s)" id
                   (Core.Concept.kind_name c.c_kind));
            ] )
      | None -> (state, [ Feedback.error ("no concept schema named " ^ id) ]))
  | Show id_opt -> (
      let id = match id_opt with Some id -> Some id | None -> state.focus in
      match id with
      | None -> (state, [ Feedback.error "nothing focused; show <concept-id>" ])
      | Some id -> (
          match find_concept state id with
          | Some c ->
              ( state,
                [
                  Feedback.output
                    (Core.Render.concept (rendering_schema state c) c);
                ] )
          | None -> (state, [ Feedback.error ("no concept schema named " ^ id) ])))
  | Odl name -> (
      match Odl.Schema.find_interface workspace name with
      | Some i -> (state, [ Feedback.output (Odl.Printer.interface_to_string i) ])
      | None -> (state, [ Feedback.error ("no interface named " ^ name) ]))
  | Print_schema ->
      (state, [ Feedback.output (Odl.Printer.schema_to_string workspace) ])
  | Summary -> (state, [ Feedback.output (Core.Render.summary workspace) ])
  | Apply op -> do_apply state op
  | Preview op -> do_preview state op
  | Plan op -> do_plan state op
  | Undo -> (
      match Session.undo state.session with
      | Some session ->
          ( { state with session },
            Feedback.info
              (Printf.sprintf "reverted last operation (%d redoable)"
                 (Session.redoable session))
            :: persist_undo state )
      | None -> (state, [ Feedback.error "nothing to undo" ]))
  | Redo -> (
      match Session.redo state.session with
      | Some (session, events) ->
          let persisted =
            (* the redone step is the most recent entry of the log *)
            match Session.steps_rev session with
            | (s : Session.step) :: _ -> persist_step state s.st_kind s.st_op
            | [] -> []
          in
          ( { state with session },
            Feedback.info "re-applied" :: (persisted @ apply_feedback events) )
      | None -> (state, [ Feedback.error "nothing to redo" ]))
  | Source path -> (
      match In_channel.with_open_text path In_channel.input_all with
      | exception Sys_error m -> (state, [ Feedback.error m ])
      | contents ->
          let lines =
            String.split_on_char '\n' contents
            |> List.map String.trim
            |> List.filter (fun l ->
                   l <> "" && not (String.length l >= 1 && l.[0] = '#'))
          in
          List.fold_left
            (fun (st, fb) line ->
              let st, fb' = exec_line st line in
              (st, fb @ (Feedback.info ("> " ^ line) :: fb')))
            (state, []) lines)
  | Check ->
      (state, [ Feedback.output (Session.consistency_report_text state.session) ])
  | Quality -> (state, [ Feedback.output (Core.Quality.report workspace) ])
  | Load_data path -> (
      match In_channel.with_open_text path In_channel.input_all with
      | exception Sys_error m -> (state, [ Feedback.error m ])
      | text -> (
          match
            Objects.Serial.of_string (Session.original state.session) text
          with
          | exception Objects.Serial.Bad_store m ->
              (state, [ Feedback.error m ])
          | store ->
              let problems = Objects.Check.check store in
              ( { state with store = Some store },
                Feedback.info
                  (Printf.sprintf "loaded %d object(s)"
                     (Objects.Store.count store))
                :: List.map
                     (fun p -> Feedback.caution (Objects.Check.to_string p))
                     problems )))
  | Migrate_data -> (
      match state.store with
      | None -> (state, [ Feedback.error "no data loaded; use: data <file>" ])
      | Some store ->
          let migrated, report =
            Objects.Migrate.migrate store ~custom:workspace
          in
          ( state,
            List.map
              (fun d -> Feedback.info ("dropped: " ^ Objects.Migrate.to_string d))
              report
            @ List.map
                (fun p ->
                  Feedback.caution
                    ("needs completion: " ^ Objects.Check.to_string p))
                (Objects.Migrate.residual_problems migrated)
            @ [ Feedback.output (Objects.Serial.to_string migrated) ] ))
  | Query src -> (
      match state.store with
      | None -> (state, [ Feedback.error "no data loaded; use: data <file>" ])
      | Some store -> (
          match Objects.Query.query store src with
          | exception Objects.Query.Bad_query m -> (state, [ Feedback.error m ])
          | [] -> (state, [ Feedback.info "no matches" ])
          | objs ->
              ( state,
                List.map
                  (fun (o : Objects.Store.obj) ->
                    Feedback.output (Printf.sprintf "@%d : %s" o.o_id o.o_type))
                  objs )))
  | Todo ->
      (* the paper's process: the designer considers the concept schemas one
         by one; this lists the ones not yet visited *)
      let pending =
        Session.current_concepts state.session
        |> List.filter (fun c ->
               not (List.mem c.Core.Concept.c_id state.reviewed))
      in
      if pending = [] then
        (state, [ Feedback.info "every concept schema has been considered" ])
      else
        ( state,
          Feedback.info
            (Printf.sprintf "%d concept schema(s) not yet considered:"
               (List.length pending))
          :: List.map (fun c -> Feedback.output (concept_line c)) pending )
  | Mapping -> (state, [ Feedback.output (Session.mapping_report state.session) ])
  | Impact -> (state, [ Feedback.output (Session.impact_report state.session) ])
  | Custom name ->
      ( state,
        [
          Feedback.output
            (Odl.Printer.schema_to_string (Session.custom_schema ?name state.session));
        ] )
  | Explain id_opt -> (
      let id = match id_opt with Some id -> Some id | None -> state.focus in
      match id with
      | None -> (state, [ Feedback.error "nothing focused; explain <concept-id>" ])
      | Some id -> (
          match find_concept state id with
          | Some c ->
              ( state,
                [
                  Feedback.output
                    (Core.Explain.concept_text (rendering_schema state c) c);
                ] )
          | None -> (state, [ Feedback.error ("no concept schema named " ^ id) ])))
  | Alias (canonical, local) -> (
      let target = Core.Aliases.target_of_string canonical in
      match Session.add_alias state.session target local with
      | Ok session ->
          ( { state with session },
            [ Feedback.info (Printf.sprintf "%s is locally known as %s" canonical local) ]
          )
      | Error m -> (state, [ Feedback.error m ]))
  | Unalias canonical ->
      let target = Core.Aliases.target_of_string canonical in
      ( { state with session = Session.remove_alias state.session target },
        [ Feedback.info ("local name of " ^ canonical ^ " dropped") ] )
  | List_aliases ->
      (state, [ Feedback.output (Session.aliases_report state.session) ])
  | Log -> (state, [ Feedback.output (Core.Oplog.(render (of_session state.session))) ])
  | Rules ->
      ( state,
        Repository.Knowledge.rule_summaries
        |> List.map (fun (name, what) ->
               Feedback.output (Printf.sprintf "%-24s %s" name what)) )
  | Save dir ->
      let repo = Repository.Store.open_dir dir in
      Repository.Store.save_session repo state.session;
      (match state.store with
      | Some store ->
          Out_channel.with_open_text (Filename.concat dir "data.objs")
            (fun oc -> Out_channel.output_string oc (Objects.Serial.to_string store))
      | None -> ());
      (state, [ Feedback.info ("session saved to " ^ dir) ])
  | Help -> (state, [ Feedback.output Command.help_text ])
  | Quit -> ({ state with finished = true }, [ Feedback.info "bye" ])

(** Parse and execute one command line. *)
and exec_line state line =
  match Command.parse line with
  | cmd -> exec state cmd
  | exception Command.Bad_command m -> (state, [ Feedback.error m ])
