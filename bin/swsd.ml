(** swsd — the shrink wrap schema designer command line.

    A schema argument is either a path to an extended-ODL file or the name
    of a built-in example schema (university, lumber, emsl, acedb, aatdb,
    sacchdb). *)

let builtins =
  [
    ("university", Schemas.University.v);
    ("lumber", Schemas.Lumber.v);
    ("vlsi", Schemas.Vlsi.v);
    ("commerce", Schemas.Commerce.v);
    ("emsl", Schemas.Emsl.v);
    ("acedb", Schemas.Genome.acedb_v);
    ("aatdb", Schemas.Genome.aatdb_v);
    ("sacchdb", Schemas.Genome.sacchdb_v);
  ]

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_schema arg =
  match List.assoc_opt arg builtins with
  | Some f -> Ok (f ())
  | None -> (
      if not (Sys.file_exists arg) then
        Error (Printf.sprintf "%s: not a file and not a built-in schema" arg)
      else
        try Ok (Odl.Parser.parse_schema (read_file arg)) with
        | Odl.Parser.Parse_error (m, line, col) ->
            Error (Printf.sprintf "%s:%d:%d: %s" arg line col m)
        | Odl.Lexer.Lex_error (m, line, col) ->
            Error (Printf.sprintf "%s:%d:%d: %s" arg line col m))

let with_schema arg f =
  match load_schema arg with
  | Error m ->
      prerr_endline m;
      1
  | Ok schema -> f schema

(* In paranoid mode the session cross-checks every operation against the
   naive reference engine; a divergence is an index bug, reported loudly. *)
let guard_divergence f session =
  try f session with
  | Core.Session.Divergence m ->
      prerr_endline ("engine divergence (index bug): " ^ m);
      2

let with_session ?(paranoid = false) arg f =
  with_schema arg (fun schema ->
      match Core.Session.create ~paranoid schema with
      | Error ds ->
          prerr_endline "the shrink wrap schema is not valid:";
          List.iter
            (fun d ->
              prerr_endline ("  " ^ Fmt.str "%a" Odl.Validate.pp_diagnostic_line d))
            ds;
          1
      | Ok session -> guard_divergence f session)

let load_log path =
  try Ok (Repository.Store.log_of_string (read_file path)) with
  | Repository.Store.Bad_log m -> Error m
  | Sys_error m -> Error m

let with_replayed ?(paranoid = false) arg log_path f =
  with_schema arg (fun schema ->
      match load_log log_path with
      | Error m ->
          prerr_endline m;
          1
      | Ok steps -> (
          try
            match Core.Oplog.replay ~paranoid schema steps with
            | Error e ->
                prerr_endline (Core.Apply.error_to_string e);
                1
            | Ok session -> guard_divergence f session
          with Core.Session.Divergence m ->
            prerr_endline ("engine divergence (index bug): " ^ m);
            2))

(* --- commands ------------------------------------------------------------ *)

let cmd_decompose arg =
  with_session arg (fun session ->
      Core.Session.concepts session
      |> List.iter (fun (c : Core.Concept.t) ->
             Printf.printf "%-24s %-26s %s\n" c.c_id
               (Core.Concept.kind_name c.c_kind)
               (String.concat ", " c.c_members));
      0)

let cmd_show arg concept_id =
  with_session arg (fun session ->
      match Core.Session.find_concept session concept_id with
      | None ->
          prerr_endline ("no concept schema named " ^ concept_id);
          1
      | Some c ->
          print_string (Core.Render.concept (Core.Session.workspace session) c);
          0)

let cmd_check arg paranoid =
  with_schema arg (fun schema ->
      let ds = Odl.Validate.check schema in
      let diverged =
        paranoid
        &&
        let di = Core.Schema_index.diagnostics (Core.Schema_index.build schema) in
        if List.equal Odl.Validate.equal_diagnostic di ds then begin
          print_endline "paranoid: indexed and naive checkers agree";
          false
        end
        else begin
          prerr_endline
            "engine divergence (index bug): indexed and naive diagnostics differ";
          true
        end
      in
      if diverged then 2
      else if ds = [] then begin
        print_endline "no findings";
        0
      end
      else begin
        List.iter
          (fun d -> print_endline (Fmt.str "%a" Odl.Validate.pp_diagnostic_line d))
          ds;
        if Odl.Validate.errors schema = [] then 0 else 1
      end)

let cmd_custom arg log_path paranoid =
  with_replayed ~paranoid arg log_path (fun session ->
      print_string (Odl.Printer.schema_to_string (Core.Session.custom_schema session));
      0)

let cmd_report arg log_path paranoid =
  with_replayed ~paranoid arg log_path (fun session ->
      print_endline (Core.Session.deliverables session);
      0)

let cmd_repl arg save_dir paranoid readonly =
  (* A readonly repl never journals, so pairing it with --save would
     promise durability it cannot deliver. *)
  if readonly && save_dir <> None then begin
    prerr_endline "--readonly cannot be combined with --save";
    Stdlib.exit 2
  end;
  (* Fail fast if another process (a server, another repl) owns the save
     directory: a second writer would interleave journal appends. *)
  let flock =
    match save_dir with
    | None -> None
    | Some dir -> (
        if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
        match
          Server.Locks.lock_file (Filename.concat dir Server.Locks.lock_file_name)
        with
        | Ok l -> Some l
        | Error m ->
            prerr_endline ("cannot save to locked repository: " ^ m);
            Stdlib.exit 2)
  in
  with_session ~paranoid arg (fun session ->
      (* With --save the session is persisted up front and then journalled
         incrementally: one durable record per accepted operation, so a
         crash loses at most the operation in flight. *)
      let repo =
        Option.map
          (fun dir ->
            let repo = Repository.Store.open_dir dir in
            Repository.Store.save_session repo session;
            repo)
          save_dir
      in
      let rec loop state =
        if state.Designer.Engine.finished then state
        else begin
          print_string "swsd> ";
          match In_channel.input_line stdin with
          | None -> state
          | Some line ->
              if String.trim line = "" then loop state
              else begin
                (* Mirror the server's [!readonly] refusal: parse first so
                   syntax errors read the same either way, then classify. *)
                let state, feedback =
                  match Designer.Command.parse line with
                  | cmd when readonly && Designer.Command.mutates cmd ->
                      ( state,
                        [
                          Designer.Feedback.error
                            "readonly session; restart without --readonly to \
                             modify";
                        ] )
                  | cmd -> Designer.Engine.exec state cmd
                  | exception Designer.Command.Bad_command m ->
                      (state, [ Designer.Feedback.error m ])
                in
                List.iter
                  (fun f -> print_endline (Designer.Feedback.to_string f))
                  feedback;
                loop state
              end
        end
      in
      let state = Designer.Engine.start ?repo session in
      print_endline
        ("shrink wrap schema designer; 'help' lists commands"
        ^ if readonly then " (readonly)" else "");
      let final = loop state in
      (* a full save on exit snapshots the final state (not the initial
         session) and regenerates the derived artifacts *)
      (match repo with
      | Some repo ->
          Repository.Store.save_session repo final.Designer.Engine.session
      | None -> ());
      Option.iter Server.Locks.unlock_file flock;
      0)

let cmd_diff arg_a arg_b =
  with_schema arg_a (fun a ->
      with_schema arg_b (fun b ->
          let steps, _reached, converged = Core.Diff.infer ~original:a ~target:b in
          print_endline (Repository.Store.log_to_string steps);
          if not converged then begin
            prerr_endline
              "// warning: the inferred log does not fully converge on the target";
            1
          end
          else 0))

let cmd_explain arg concept_id =
  with_session arg (fun session ->
      match Core.Session.find_concept session concept_id with
      | None ->
          prerr_endline ("no concept schema named " ^ concept_id);
          1
      | Some c ->
          print_endline
            (Core.Explain.concept_text (Core.Session.workspace session) c);
          0)

let cmd_affinity arg_a arg_b =
  with_schema arg_a (fun a ->
      with_schema arg_b (fun b ->
          Printf.printf "semantic affinity: %.3f\n"
            (Core.Affinity.semantic_affinity a b);
          Printf.printf "type overlap: %.3f (%d shared object types)\n"
            (Core.Affinity.type_overlap a b)
            (List.length (Core.Affinity.shared_types a b));
          print_endline "shared types by structural similarity:";
          List.iter
            (fun (n, sim) -> Printf.printf "  %-24s %.3f\n" n sim)
            (Core.Affinity.shared_type_detail a b);
          0))

let cmd_library dir sketch =
  let lib, failures = Repository.Library.load dir in
  List.iter
    (fun (path, reason) ->
      Printf.eprintf "warning: skipped %s (%s)\n" path reason)
    failures;
  (match sketch with
  | None -> print_endline (Repository.Library.catalog lib)
  | Some sketch_arg -> (
      match load_schema sketch_arg with
      | Error m ->
          prerr_endline m;
          exit 1
      | Ok sketch ->
          print_endline "best shrink wrap schemas for the sketch:";
          Repository.Library.search lib ~sketch
          |> List.iter (fun (e, a) ->
                 Printf.printf "  %-20s affinity %.3f (%s)\n"
                   e.Repository.Library.e_schema.Odl.Types.s_name a e.e_path)));
  0

let cmd_graph arg concept =
  match concept with
  | None -> with_schema arg (fun schema ->
      print_string (Core.Dot.schema_graph schema);
      0)
  | Some concept_id ->
      with_session arg (fun session ->
          match Core.Session.find_concept session concept_id with
          | None ->
              prerr_endline ("no concept schema named " ^ concept_id);
              1
          | Some c ->
              print_string
                (Core.Dot.concept_graph (Core.Session.workspace session) c);
              0)

let cmd_data_check arg data_path =
  with_schema arg (fun schema ->
      match Objects.Serial.of_string schema (read_file data_path) with
      | exception Objects.Serial.Bad_store m ->
          prerr_endline m;
          1
      | store -> (
          match Objects.Check.check store with
          | [] ->
              Printf.printf "%d object(s), consistent\n" (Objects.Store.count store);
              0
          | ps ->
              List.iter (fun p -> print_endline (Objects.Check.to_string p)) ps;
              1))

let cmd_migrate_data arg log_path data_path =
  with_replayed arg log_path (fun session ->
      let original = Core.Session.original session in
      let custom = Core.Session.custom_schema session in
      match Objects.Serial.of_string original (read_file data_path) with
      | exception Objects.Serial.Bad_store m ->
          prerr_endline m;
          1
      | store ->
          let migrated, report = Objects.Migrate.migrate store ~custom in
          List.iter
            (fun d -> Printf.eprintf "dropped: %s\n" (Objects.Migrate.to_string d))
            report;
          List.iter
            (fun p ->
              Printf.eprintf "needs completion: %s\n" (Objects.Check.to_string p))
            (Objects.Migrate.residual_problems migrated);
          print_endline (Objects.Serial.to_string migrated);
          0)

let cmd_oql arg data_path query_text =
  with_schema arg (fun schema ->
      match Objects.Serial.of_string schema (read_file data_path) with
      | exception Objects.Serial.Bad_store m ->
          prerr_endline m;
          1
      | store -> (
          match Objects.Query.query store query_text with
          | exception Objects.Query.Bad_query m ->
              prerr_endline m;
              1
          | [] ->
              print_endline "no matches";
              0
          | objs ->
              List.iter
                (fun (o : Objects.Store.obj) ->
                  Printf.printf "@%d : %s\n" o.o_id o.o_type)
                objs;
              0))

let cmd_quality arg =
  with_schema arg (fun schema ->
      print_string (Core.Quality.report schema);
      0)

let cmd_er arg =
  with_schema arg (fun schema ->
      print_string (Core.Er.to_string (Core.Er.of_schema schema));
      0)

let cmd_sql arg =
  with_schema arg (fun schema ->
      print_string (Core.Relational.ddl schema);
      0)

(* --- variants: the multi-variant repository ----------------------------- *)

let with_variant_repo dir f =
  match Repository.Repo.open_dir dir with
  | Ok repo -> f repo
  | Error m ->
      prerr_endline m;
      (* a present-but-unreadable repository is corruption (exit 2); a
         directory that simply is not a repository is an ordinary error *)
      if Sys.file_exists (Filename.concat dir "shrinkwrap.odl") then 2 else 1

(* Exit code for a variant that would not open: damage is 2, like any
   corrupt repository; an unknown name is an ordinary error. *)
let variant_error e =
  prerr_endline (Repository.Repo.open_error_to_string e);
  match e with Repository.Repo.No_variant _ -> 1 | Repository.Repo.Load _ -> 2

let cmd_variants_init dir schema_arg =
  with_schema schema_arg (fun schema ->
      match Repository.Repo.init dir schema with
      | Ok _ ->
          Printf.printf "initialized %s for schema %s\n" dir schema.s_name;
          0
      | Error m ->
          prerr_endline m;
          1)

let cmd_variants_list dir =
  with_variant_repo dir (fun repo ->
      print_endline (Repository.Repo.catalog repo);
      0)

let cmd_variants_new dir name =
  with_variant_repo dir (fun repo ->
      match Repository.Repo.create_variant repo name with
      | Ok _ ->
          Printf.printf "variant %s created\n" name;
          0
      | Error m ->
          prerr_endline m;
          1)

let cmd_variants_apply dir name log_path =
  with_variant_repo dir (fun repo ->
      match Repository.Repo.open_variant repo name with
      | Error e -> variant_error e
      | Ok session -> (
          match load_log log_path with
          | Error m ->
              prerr_endline m;
              1
          | Ok steps -> (
              let applied =
                List.fold_left
                  (fun acc (kind, op) ->
                    Result.bind acc (fun s ->
                        Result.map fst (Core.Session.apply s ~kind op)))
                  (Ok session) steps
              in
              match applied with
              | Error e ->
                  prerr_endline (Core.Apply.error_to_string e);
                  1
              | Ok session -> (
                  match Repository.Repo.save_variant repo name session with
                  | Ok () ->
                      Printf.printf "%d operation(s) applied to %s\n"
                        (List.length steps) name;
                      0
                  | Error m ->
                      prerr_endline m;
                      1))))

let cmd_variants_interop dir a b =
  with_variant_repo dir (fun repo ->
      match Repository.Repo.interop_report repo a b with
      | Ok text ->
          print_string text;
          0
      | Error e -> variant_error e)

let cmd_variants_affinity dir =
  with_variant_repo dir (fun repo ->
      print_string (Repository.Repo.affinity_matrix repo);
      0)

(* Check (and optionally salvage) a repository directory: a plain session
   store, or a multi-variant repository (every variant is checked).
   Exit codes: 0 clean, 1 damage found and salvaged (--salvage repaired
   everything it found), 2 corrupt (damage present and not repaired, or
   the directory is not a repository at all).  Multi-variant repositories
   aggregate by max, so one unsalvageable variant makes the whole run 2. *)
let cmd_fsck dir salvage =
  if not (Sys.file_exists dir && Sys.is_directory dir) then begin
    prerr_endline (dir ^ ": not a directory");
    2
  end
  else begin
    let fsck_store label sdir =
      let report =
        Repository.Store.fsck ~salvage (Repository.Store.open_dir sdir)
      in
      List.iter
        (fun m -> Printf.printf "%s: %s\n" label m)
        report.Repository.Store.fsck_issues;
      match report with
      | { fsck_issues = []; _ } -> 0
      | { fsck_session = None; _ } -> 2
      | { fsck_session = Some _; _ } ->
          if salvage then begin
            Printf.printf "%s: salvaged\n" label;
            1
          end
          else 2
    in
    let variants_dir = Filename.concat dir "variants" in
    let code =
      if Sys.file_exists variants_dir && Sys.is_directory variants_dir then begin
        (* multi-variant repository: the top-level schema plus each variant *)
        let top =
          match Repository.Repo.open_dir dir with
          | Ok _ -> 0
          | Error m ->
              print_endline ("shrinkwrap.odl: " ^ m);
              2
        in
        Sys.readdir variants_dir |> Array.to_list |> List.sort compare
        |> List.filter (fun n ->
               (* dot-prefixed entries are hidden staging directories (a
                  crashed @branch): not variants, never counted as damage *)
               n <> "" && n.[0] <> '.'
               &&
               try Sys.is_directory (Filename.concat variants_dir n)
               with Sys_error _ -> false)
        |> List.fold_left
             (fun acc n ->
               max acc
                 (fsck_store ("variants/" ^ n) (Filename.concat variants_dir n)))
             top
      end
      else fsck_store "." dir
    in
    if code = 0 then print_endline (dir ^ ": clean");
    code
  end

(* Serve a multi-variant repository to concurrent designer sessions over
   a Unix domain socket or TCP.  SIGTERM/SIGINT drain gracefully:
   in-flight requests finish, dirty sessions are snapshotted, locks
   released.  With --shards N (N >= 2) this process becomes a
   variant-hashing router over a supervised pool of worker processes
   (each a plain single-process `swsd serve` on its own Unix socket).

   Replication (DESIGN.md §14): --replicate accepts follower streams;
   --follow ADDR serves this directory as a read-only replica of the
   leader at ADDR; --replicas N supervises a leader plus N followers and
   promotes a follower if the leader dies; --promote-from DIR recovers a
   dead leader's directory into this one and fences the old era before
   serving (what the supervisor passes to the follower it promotes). *)
let cmd_serve dir socket listen shards shard_id shard_total no_obs
    no_group_commit flush_linger_ms flush_max_batch fsync_delay_ms replicate
    repl_ring follow replicas promote_from era =
  let listen_spec =
    match listen with
    | Some s -> Server.Protocol.parse_address s
    | None ->
        Result.Ok
          (Server.Protocol.Unix_path
             (match socket with
             | Some p -> p
             | None -> Filename.concat dir "swsd.sock"))
  in
  match listen_spec with
  | Error m ->
      prerr_endline m;
      1
  | Ok listen when
      shards >= 2
      && (replicate || follow <> None || replicas > 0 || promote_from <> None)
    ->
      ignore listen;
      prerr_endline
        "serve: --shards cannot be combined with \
         --replicate/--follow/--replicas/--promote-from (shard stores are \
         replicated individually)";
      1
  | Ok listen -> (
      let obs = if no_obs then Obs.noop else Obs.create () in
      let fsync_delay = Float.max 0.0 fsync_delay_ms /. 1000.0 in
      (* benchmarks model a slower disk by stretching fsync; everything
         else (writes, renames) keeps real speed *)
      let io =
        if fsync_delay <= 0.0 then None
        else
          let module Io = Repository.Io in
          Some
            {
              Io.unix with
              Io.fsync =
                (fun path ->
                  Io.unix.Io.fsync path;
                  Thread.delay fsync_delay);
            }
      in
      let serve_flags =
        (if no_obs then [ "--no-obs" ] else [])
        @ (if no_group_commit then [ "--no-group-commit" ] else [])
        @ [
            "--flush-linger-ms";
            string_of_float flush_linger_ms;
            "--flush-max-batch";
            string_of_int flush_max_batch;
          ]
        @ (if repl_ring <> 1024 then
             [ "--repl-ring"; string_of_int repl_ring ]
           else [])
        @
        if fsync_delay_ms > 0.0 then
          [ "--fsync-delay-ms"; string_of_float fsync_delay_ms ]
        else []
      in
      if shards >= 2 then begin
        (* router mode: fork+exec one worker per shard, then route.  Each
           worker learns the pool size so [@query all] fan-out partitions:
           a worker answers only for the variants the router's hash sends
           its way. *)
        let pool =
          Server.Shard_pool.create ~worker_args:serve_flags
            ~exe:Sys.executable_name ~dir ~shards ()
        in
        match Server.Shard_pool.start pool with
        | Error m ->
            Server.Shard_pool.stop pool;
            prerr_endline m;
            1
        | Ok () -> (
            match Server.Router.create ~obs ~listen pool with
            | Error m ->
                Server.Shard_pool.stop pool;
                prerr_endline m;
                1
            | Ok router ->
                Server.Router.install_signal_handlers router;
                Printf.printf "serving %s on %s (%d shards)\n%!" dir
                  (Server.Protocol.address_to_string
                     (Server.Router.listen_address router))
                  shards;
                Server.Router.run router;
                Server.Shard_pool.stop pool;
                print_endline "server stopped";
                0)
      end
      else if replicas > 0 then begin
        (* replication pool: one leader plus N follower processes under a
           supervisor that respawns dead followers and promotes a follower
           over the leader's socket when the leader dies *)
        let pool =
          Server.Replication.Pool.create ~worker_args:serve_flags
            ~exe:Sys.executable_name ~dir ~replicas ()
        in
        match Server.Replication.Pool.start pool with
        | Error m ->
            Server.Replication.Pool.stop pool;
            prerr_endline m;
            1
        | Ok () ->
            let stopping = Atomic.make false in
            let handle _ = Atomic.set stopping true in
            (try Sys.set_signal Sys.sigterm (Sys.Signal_handle handle)
             with Invalid_argument _ | Sys_error _ -> ());
            (try Sys.set_signal Sys.sigint (Sys.Signal_handle handle)
             with Invalid_argument _ | Sys_error _ -> ());
            Printf.printf "serving %s on %s (leader, %d replicas)\n" dir
              (Server.Replication.Pool.leader_socket pool)
              replicas;
            for k = 0 to replicas - 1 do
              Printf.printf "replica %d (readonly) on %s\n%!" k
                (Server.Replication.Pool.follower_socket pool k)
            done;
            while not (Atomic.get stopping) do
              Thread.delay 0.2
            done;
            Server.Replication.Pool.stop pool;
            print_endline "pool stopped";
            0
      end
      else begin
        let instance_notes =
          (match shard_id with
          | Some k -> [ ("instance.shard", string_of_int k) ]
          | None -> [])
          @ [ ("instance.listen", Server.Protocol.address_to_string listen) ]
        in
        let shard_span =
          match (shard_id, shard_total) with
          | Some k, Some n when n >= 2 -> Some (k, n)
          | _ -> None
        in
        let base_config extra_notes =
          {
            Server.Service.default_config with
            group_commit = not no_group_commit;
            flush_linger = Float.max 0.0 flush_linger_ms /. 1000.0;
            flush_max_batch = max 1 flush_max_batch;
            instance_notes = extra_notes @ instance_notes;
            shard_span;
          }
        in
        let serve_one ~banner make_server cleanup =
          match make_server () with
          | Result.Error m ->
              prerr_endline m;
              1
          | Result.Ok server ->
              Server.install_signal_handlers server;
              Printf.printf "%s on %s\n%!" banner
                (Server.Protocol.address_to_string
                   (Server.listen_address server));
              let failures = Server.run server in
              cleanup ();
              List.iter
                (fun (variant, reason) ->
                  Printf.eprintf
                    "warning: %s: snapshot failed (%s); journal remains \
                     authoritative\n"
                    variant reason)
                failures;
              print_endline "server stopped";
              0
        in
        match follow with
        | Some leader_spec -> (
            (* follower: replicate the leader's repository into [dir] and
               serve it read-only; reconnects and re-bootstraps on its own *)
            match Server.Protocol.parse_address leader_spec with
            | Error m ->
                prerr_endline m;
                1
            | Ok leader -> (
                let config =
                  base_config [ ("instance.role", "follower") ]
                in
                match
                  Server.Replication.Follower.create ~config ?io ~obs ~leader
                    dir
                with
                | Error m ->
                    prerr_endline m;
                    1
                | Ok follower ->
                    serve_one
                      ~banner:
                        (Printf.sprintf "following %s into %s" leader_spec dir)
                      (fun () ->
                        Server.of_service ~listen
                          (Server.Replication.Follower.service follower))
                      (fun () -> Server.Replication.Follower.stop follower)))
        | None -> (
            (* leader (or plain single server).  --promote-from recovers a
               dead leader's directory into this one first and fences the
               old era; the era the store carries afterwards is what this
               writer must present at session load. *)
            let promoted =
              match promote_from with
              | None -> Result.Ok 0
              | Some src -> (
                  match Server.Replication.promote ~src ~dst:dir () with
                  | Error m -> Result.Error m
                  | Ok (new_era, outcomes) ->
                      List.iter
                        (fun (v, r) ->
                          match r with
                          | Ok () ->
                              Printf.printf "promoted variant %s from %s\n" v
                                src
                          | Error m ->
                              Printf.eprintf
                                "warning: variant %s not recovered during \
                                 promotion: %s\n"
                                v m)
                        outcomes;
                      Printf.printf "promotion complete: era %d\n%!" new_era;
                      Result.Ok new_era)
            in
            match promoted with
            | Error m ->
                prerr_endline ("promotion failed: " ^ m);
                1
            | Ok promoted_era ->
                (* A fresh writer adopts the era its store already carries:
                   fencing exists to refuse a *still-running* stale writer
                   (whose config keeps the era it started with), not the
                   next clean restart of this directory — without adoption
                   a once-promoted repository would refuse `swsd serve`
                   until the operator guessed --era by hand. *)
                let stored_era =
                  match Repository.Repo.open_dir ?io dir with
                  | Error _ | (exception _) -> 0
                  | Ok repo ->
                      List.fold_left
                        (fun acc v ->
                          match
                            Repository.Store.stored_era
                              (Repository.Repo.variant_store repo v)
                          with
                          | e -> max acc e
                          | exception _ -> acc)
                        0
                        (Repository.Repo.variant_names repo)
                in
                if stored_era > max era promoted_era then
                  Printf.printf "adopting write era %d from the store\n%!"
                    stored_era;
                let era = max (max era promoted_era) stored_era in
                let replicate = replicate || promote_from <> None in
                let config =
                  base_config
                    ((if replicate then [ ("instance.role", "leader") ]
                      else [])
                    @ if era > 0 then [ ("instance.era", string_of_int era) ]
                      else [])
                in
                let config = { config with era } in
                serve_one
                  ~banner:(Printf.sprintf "serving %s" dir)
                  (fun () ->
                    Server.create ~config ~obs ?io ~replicate
                      ~repl_ring ~listen dir)
                  (fun () -> ()))
      end)

(* Ask a running server for its observability snapshot.  The transcript is
   plain line protocol: consume the greeting, send @stats, strip the body
   prefix from the reply.  Exit 1 when the server refuses (e.g. --no-obs)
   or cannot be reached. *)
let cmd_stats socket json =
  (* ride out a server that is still binding (startup race) *)
  match Server.Client.connect ~retry_for:2.0 socket with
  | Error m ->
      prerr_endline m;
      1
  | Ok c ->
      let finish code =
        Server.Client.close c;
        code
      in
      let strip line =
        let p = Server.Protocol.body_prefix in
        let pl = String.length p in
        if String.length line >= pl && String.sub line 0 pl = p then
          String.sub line pl (String.length line - pl)
        else line
      in
      (match Server.Client.read_response c with
      | None ->
          prerr_endline (socket ^ ": server hung up before greeting");
          finish 1
      | Some _greeting -> (
          match
            Server.Client.request c (if json then "@stats json" else "@stats")
          with
          | None ->
              prerr_endline (socket ^ ": server hung up");
              finish 1
          | Some lines ->
              let body, status =
                match List.rev lines with
                | status :: rev_body -> (List.rev rev_body, status)
                | [] -> ([], "!err empty response")
              in
              List.iter (fun l -> print_endline (strip l)) body;
              if String.length status >= 3 && String.sub status 0 3 = "!ok" then
                finish 0
              else begin
                prerr_endline status;
                finish 1
              end))

(* Ask a running server (leader, follower, or router front end) one
   [@query] and print the answer body.  [--variant V] attaches readonly
   first; [all]-scoped and [explain] queries need no attachment.  Exit 0
   on [!ok], 1 otherwise. *)
let cmd_query addr variant expr =
  match Server.Client.connect ~retry_for:2.0 addr with
  | Error m ->
      prerr_endline m;
      1
  | Ok c ->
      let finish code =
        Server.Client.close c;
        code
      in
      let strip line =
        let p = Server.Protocol.body_prefix in
        let pl = String.length p in
        if String.length line >= pl && String.sub line 0 pl = p then
          String.sub line pl (String.length line - pl)
        else line
      in
      let run line =
        match Server.Client.request c line with
        | None -> Result.Error (addr ^ ": server hung up")
        | Some lines -> (
            match List.rev lines with
            | status :: rev_body
              when String.length status >= 3 && String.sub status 0 3 = "!ok"
              ->
                Result.Ok (List.rev_map strip rev_body)
            | status :: rev_body ->
                Result.Error
                  (String.concat "\n"
                     (List.rev_map strip rev_body @ [ status ]))
            | [] -> Result.Error "empty response")
      in
      (match Server.Client.read_response c with
      | None ->
          prerr_endline (addr ^ ": server hung up before greeting");
          finish 1
      | Some _greeting -> (
          let opened =
            match variant with
            | None -> Result.Ok []
            | Some v -> run ("@open " ^ v ^ " readonly")
          in
          match Result.bind opened (fun _ -> run ("@query " ^ expr)) with
          | Error m ->
              prerr_endline m;
              finish 1
          | Ok body ->
              List.iter print_endline body;
              finish 0))

(* Send one request line to a running server and print the reply body;
   exit 0 on [!ok], 1 otherwise.  `swsd branch` and `swsd merge` are thin
   shells over this — the server does the work, through its lock manager
   and commit pipeline, so concurrent designers are undisturbed. *)
let cmd_request addr line =
  match Server.Client.connect ~retry_for:2.0 addr with
  | Error m ->
      prerr_endline m;
      1
  | Ok c ->
      let finish code =
        Server.Client.close c;
        code
      in
      let strip line =
        let p = Server.Protocol.body_prefix in
        let pl = String.length p in
        if String.length line >= pl && String.sub line 0 pl = p then
          String.sub line pl (String.length line - pl)
        else line
      in
      (match Server.Client.read_response c with
      | None ->
          prerr_endline (addr ^ ": server hung up before greeting");
          finish 1
      | Some _greeting -> (
          match Server.Client.request c line with
          | None ->
              prerr_endline (addr ^ ": server hung up");
              finish 1
          | Some lines -> (
              match List.rev lines with
              | status :: rev_body
                when String.length status >= 3 && String.sub status 0 3 = "!ok"
                ->
                  List.iter print_endline (List.rev_map strip rev_body);
                  finish 0
              | status :: rev_body ->
                  List.iter prerr_endline (List.rev_map strip rev_body);
                  prerr_endline status;
                  finish 1
              | [] ->
                  prerr_endline "empty response";
                  finish 1)))

let cmd_branch addr parent child at =
  cmd_request addr
    ("@branch " ^ parent ^ " " ^ child
    ^ match at with None -> "" | Some n -> " @at " ^ string_of_int n)

let cmd_merge addr source dest dry_run =
  cmd_request addr
    ("@merge " ^ source ^ " into " ^ dest
    ^ if dry_run then " --dry-run" else "")

let cmd_examples () =
  List.iter
    (fun (name, f) -> print_endline (name ^ ": " ^ Core.Render.summary (f ())))
    builtins;
  0

(* --- cmdliner wiring ----------------------------------------------------- *)

open Cmdliner

let schema_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"SCHEMA" ~doc:"ODL file or built-in schema name.")

let concept_arg =
  Arg.(
    required
    & pos 1 (some string) None
    & info [] ~docv:"CONCEPT" ~doc:"Concept schema id, e.g. ww:Course.")

let log_arg =
  Arg.(
    required
    & pos 1 (some string) None
    & info [] ~docv:"LOG" ~doc:"Operation log file (@ww/@gh/@ah/@ih lines).")

let save_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "save" ] ~docv:"DIR" ~doc:"Repository directory to save on exit.")

let paranoid_arg =
  Arg.(
    value & flag
    & info [ "paranoid" ]
        ~doc:
          "Cross-check the indexed engine against the naive reference \
           checker (full-scan oracle); abort with exit code 2 on any \
           divergence.")

let term_of f = Term.(const (fun x -> Stdlib.exit (f x)) $ schema_arg)

let decompose_cmd =
  Cmd.v
    (Cmd.info "decompose" ~doc:"List the concept schemas of a shrink wrap schema")
    (term_of cmd_decompose)

let show_cmd =
  Cmd.v
    (Cmd.info "show" ~doc:"Render one concept schema")
    Term.(const (fun s c -> Stdlib.exit (cmd_show s c)) $ schema_arg $ concept_arg)

let check_cmd =
  Cmd.v
    (Cmd.info "check" ~doc:"Run the consistency checks on a schema")
    Term.(
      const (fun s p -> Stdlib.exit (cmd_check s p)) $ schema_arg $ paranoid_arg)

let custom_cmd =
  Cmd.v
    (Cmd.info "custom" ~doc:"Replay an operation log and print the custom schema")
    Term.(
      const (fun s l p -> Stdlib.exit (cmd_custom s l p))
      $ schema_arg $ log_arg $ paranoid_arg)

let report_cmd =
  Cmd.v
    (Cmd.info "report" ~doc:"Replay an operation log and print all deliverables")
    Term.(
      const (fun s l p -> Stdlib.exit (cmd_report s l p))
      $ schema_arg $ log_arg $ paranoid_arg)

let readonly_arg =
  Arg.(
    value & flag
    & info [ "readonly" ]
        ~doc:
          "Browse without write access: mutating commands (apply, undo, \
           redo, alias, data, source, save) are refused.  Cannot be \
           combined with $(b,--save).")

let repl_cmd =
  Cmd.v
    (Cmd.info "repl" ~doc:"Interactive shrink wrap schema designer")
    Term.(
      const (fun s d p r -> Stdlib.exit (cmd_repl s d p r))
      $ schema_arg $ save_arg $ paranoid_arg $ readonly_arg)

let schema_b_arg =
  Arg.(
    required
    & pos 1 (some string) None
    & info [] ~docv:"TARGET" ~doc:"Target schema (ODL file or built-in name).")

let sketch_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "sketch" ] ~docv:"SCHEMA"
        ~doc:"Application sketch to rank the library against.")

let library_dir_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"DIR" ~doc:"Directory of .odl schema files.")

let affinity_cmd =
  Cmd.v
    (Cmd.info "affinity" ~doc:"Measure the semantic affinity of two schemas")
    Term.(
      const (fun a b -> Stdlib.exit (cmd_affinity a b)) $ schema_arg $ schema_b_arg)

let library_cmd =
  Cmd.v
    (Cmd.info "library"
       ~doc:"Browse a schema library, or rank it against an application sketch")
    Term.(
      const (fun d s -> Stdlib.exit (cmd_library d s)) $ library_dir_arg $ sketch_arg)

let diff_cmd =
  Cmd.v
    (Cmd.info "diff"
       ~doc:"Infer the operation log transforming one schema into another")
    Term.(const (fun a b -> Stdlib.exit (cmd_diff a b)) $ schema_arg $ schema_b_arg)

let explain_cmd =
  Cmd.v
    (Cmd.info "explain" ~doc:"Explain a concept schema in prose")
    Term.(const (fun s c -> Stdlib.exit (cmd_explain s c)) $ schema_arg $ concept_arg)

let optional_concept_arg =
  Arg.(
    value
    & pos 1 (some string) None
    & info [] ~docv:"CONCEPT" ~doc:"Optional concept schema id.")

let graph_cmd =
  Cmd.v
    (Cmd.info "graph" ~doc:"Emit a schema or concept schema as Graphviz DOT")
    Term.(
      const (fun s c -> Stdlib.exit (cmd_graph s c))
      $ schema_arg $ optional_concept_arg)

let repo_dir_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"DIR" ~doc:"Variant repository directory.")

let variants_cmd =
  let init =
    Cmd.v
      (Cmd.info "init" ~doc:"Initialize a variant repository for a schema")
      Term.(
        const (fun d s -> Stdlib.exit (cmd_variants_init d s))
        $ repo_dir_arg
        $ Arg.(
            required
            & pos 1 (some string) None
            & info [] ~docv:"SCHEMA" ~doc:"ODL file or built-in name."))
  in
  let list =
    Cmd.v
      (Cmd.info "list" ~doc:"Catalog the variants")
      Term.(const (fun d -> Stdlib.exit (cmd_variants_list d)) $ repo_dir_arg)
  in
  let new_ =
    Cmd.v
      (Cmd.info "new" ~doc:"Create a fresh variant")
      Term.(
        const (fun d n -> Stdlib.exit (cmd_variants_new d n))
        $ repo_dir_arg
        $ Arg.(
            required
            & pos 1 (some string) None
            & info [] ~docv:"NAME" ~doc:"Variant name."))
  in
  let apply =
    Cmd.v
      (Cmd.info "apply" ~doc:"Apply an operation log to a variant")
      Term.(
        const (fun d n l -> Stdlib.exit (cmd_variants_apply d n l))
        $ repo_dir_arg
        $ Arg.(
            required
            & pos 1 (some string) None
            & info [] ~docv:"NAME" ~doc:"Variant name.")
        $ Arg.(
            required
            & pos 2 (some string) None
            & info [] ~docv:"LOG" ~doc:"Operation log file."))
  in
  let interop =
    Cmd.v
      (Cmd.info "interop"
         ~doc:"Interoperation report between two variants (common objects)")
      Term.(
        const (fun d a b -> Stdlib.exit (cmd_variants_interop d a b))
        $ repo_dir_arg
        $ Arg.(
            required
            & pos 1 (some string) None
            & info [] ~docv:"A" ~doc:"First variant.")
        $ Arg.(
            required
            & pos 2 (some string) None
            & info [] ~docv:"B" ~doc:"Second variant."))
  in
  let affinity =
    Cmd.v
      (Cmd.info "affinity" ~doc:"Pairwise affinity matrix of the variants")
      Term.(const (fun d -> Stdlib.exit (cmd_variants_affinity d)) $ repo_dir_arg)
  in
  Cmd.group
    (Cmd.info "variants"
       ~doc:"Manage a multi-variant repository (one shrink wrap schema, many              derived designs)")
    [ init; list; new_; apply; interop; affinity ]

let sql_cmd =
  Cmd.v
    (Cmd.info "sql" ~doc:"Translate a schema to relational DDL")
    (term_of cmd_sql)

let er_cmd =
  Cmd.v
    (Cmd.info "er" ~doc:"Translate a schema to an entity-relationship model")
    (term_of cmd_er)

let data_arg =
  Arg.(
    required
    & pos 1 (some string) None
    & info [] ~docv:"DATA" ~doc:"Object store file.")

let data2_arg =
  Arg.(
    required
    & pos 2 (some string) None
    & info [] ~docv:"DATA" ~doc:"Object store file.")

let oql_cmd =
  Cmd.v
    (Cmd.info "oql" ~doc:"Run an OQL query over an object store")
    Term.(
      const (fun s d q -> Stdlib.exit (cmd_oql s d q))
      $ schema_arg $ data_arg
      $ Arg.(
          required
          & pos 2 (some string) None
          & info [] ~docv:"QUERY" ~doc:"e.g. 'select Person where name = \"A\"'"))

let query_cmd =
  Cmd.v
    (Cmd.info "query"
       ~doc:
         "Query a running server's repository: interface names, \
          attributes, ISA/part-of reachability, wagon-wheel \
          neighborhoods, version diffs — served lock-free from \
          incrementally maintained views (see LANGUAGE.md)")
    Term.(
      const (fun a v e -> Stdlib.exit (cmd_query a v e))
      $ Arg.(
          required
          & pos 0 (some string) None
          & info [] ~docv:"ADDR"
              ~doc:"The server's Unix socket path, or HOST:PORT for TCP.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "variant" ] ~docv:"V"
              ~doc:
                "Attach (readonly) to this variant first.  Required unless \
                 the query is $(b,all)-scoped or $(b,explain).")
      $ Arg.(
          required
          & pos 1 (some string) None
          & info [] ~docv:"QUERY"
              ~doc:
                "e.g. 'name \"Course*\"', 'all attr units', 'isa Person \
                 down', 'wheel Course', 'diff 4'"))

let data_check_cmd =
  Cmd.v
    (Cmd.info "data-check" ~doc:"Validate an object store against a schema")
    Term.(
      const (fun s d -> Stdlib.exit (cmd_data_check s d)) $ schema_arg $ data_arg)

let migrate_data_cmd =
  Cmd.v
    (Cmd.info "migrate-data"
       ~doc:"Migrate an object store through a customization log")
    Term.(
      const (fun s l d -> Stdlib.exit (cmd_migrate_data s l d))
      $ schema_arg $ log_arg $ data2_arg)

let quality_cmd =
  Cmd.v
    (Cmd.info "quality" ~doc:"Assess how well-crafted a schema is")
    (term_of cmd_quality)

let salvage_arg =
  Arg.(
    value & flag
    & info [ "salvage" ]
        ~doc:
          "Rewrite a damaged repository from its best recoverable state \
           (longest replayable journal prefix) and sweep stale temporary \
           files.")

let fsck_cmd =
  Cmd.v
    (Cmd.info "fsck"
       ~doc:
         "Check the integrity of a repository directory (a session store or \
          a variants repository) and optionally salvage it.  Exit status: 0 \
          the repository is clean; 1 damage was found and --salvage repaired \
          it; 2 the repository is corrupt (damage present and not repaired, \
          or the path is not a repository).  Multi-variant repositories \
          report the worst variant's status.")
    Term.(
      const (fun d s -> Stdlib.exit (cmd_fsck d s)) $ repo_dir_arg $ salvage_arg)

let serve_cmd =
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve a variant repository to concurrent designer sessions over a \
          Unix domain socket or TCP (line protocol; graceful drain on \
          SIGTERM).  With --shards N, route variants across a supervised \
          pool of worker processes by consistent hashing.  With --replicate \
          / --follow / --replicas, ship acked journal records to read-only \
          follower processes and promote one if the leader dies.")
    Term.(
      const (fun d s l sh sid st n ngc lm mb fd rep rr fo nrep pf er ->
          Stdlib.exit
            (cmd_serve d s l sh sid st n ngc lm mb fd rep rr fo nrep pf er))
      $ repo_dir_arg
      $ Arg.(
          value
          & opt (some string) None
          & info [ "socket" ] ~docv:"PATH"
              ~doc:"Unix socket path (default: DIR/swsd.sock).")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "listen" ] ~docv:"ADDR"
              ~doc:
                "Listen address: a Unix socket path, or HOST:PORT for TCP \
                 (port 0 picks a free port).  Overrides $(b,--socket).")
      $ Arg.(
          value & opt int 1
          & info [ "shards" ] ~docv:"N"
              ~doc:
                "Run N worker processes and route variants onto them by \
                 consistent hashing (rendezvous over the variant name); \
                 this process becomes the accept/router front end and \
                 restarts workers that crash.  Default 1: serve in-process.")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "shard-id" ] ~docv:"K"
              ~doc:
                "Identity note reported in @stats (set by the router when \
                 it spawns workers; rarely useful by hand).")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "shard-total" ] ~docv:"N"
              ~doc:
                "Total shard count of the pool this worker belongs to (set \
                 by the router alongside --shard-id): restricts @query all \
                 to the variants this shard owns under the router's \
                 consistent hash, so fan-out answers merge without \
                 duplicates.")
      $ Arg.(
          value & flag
          & info [ "no-obs" ]
              ~doc:
                "Disable observability: every metric, histogram, and trace \
                 hook becomes a no-op, and @stats reports an error.")
      $ Arg.(
          value & flag
          & info [ "no-group-commit" ]
              ~doc:
                "Fsync each journal record individually instead of batching \
                 concurrent writers' records into one fsync (the group-commit \
                 default).")
      $ Arg.(
          value & opt float 2.0
          & info [ "flush-linger-ms" ] ~docv:"MS"
              ~doc:
                "Group commit: maximum time a journal record waits for \
                 company before its batch is flushed anyway (default 2ms; \
                 idle lanes flush immediately).")
      $ Arg.(
          value & opt int 64
          & info [ "flush-max-batch" ] ~docv:"N"
              ~doc:
                "Group commit: flush a batch as soon as it holds this many \
                 records (default 64).")
      $ Arg.(
          value & opt float 0.0
          & info [ "fsync-delay-ms" ] ~docv:"MS"
              ~doc:
                "Stretch every fsync by this many milliseconds (benchmarks: \
                 model a slower disk; default 0).")
      $ Arg.(
          value & flag
          & info [ "replicate" ]
              ~doc:
                "Accept replication followers: a connection that sends \
                 $(b,@follow) receives the acked journal stream (bootstrap \
                 snapshots, then every durable record in stamp order) \
                 instead of the line protocol.")
      $ Arg.(
          value & opt int 1024
          & info [ "repl-ring" ] ~docv:"N"
              ~doc:
                "Replication hub event-ring size (default 1024, clamped to \
                 [2, 1048576]): a follower that falls more than N events \
                 behind is re-seeded from a fresh snapshot instead of \
                 stalling the leader.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "follow" ] ~docv:"ADDR"
              ~doc:
                "Serve this directory as a read-only replica of the leader \
                 at ADDR (a Unix socket path or HOST:PORT).  The repository \
                 is bootstrapped from the leader's snapshot stream, then \
                 kept current by replaying its acked journal records; \
                 clients attach with $(b,@open <variant> readonly) and see \
                 bounded staleness (a follower's #version stamp never \
                 exceeds the leader's).  Reconnects with jittered backoff \
                 and re-bootstraps after any gap.")
      $ Arg.(
          value & opt int 0
          & info [ "replicas" ] ~docv:"N"
              ~doc:
                "Supervise a leader plus N follower processes: the leader \
                 serves DIR on $(i,DIR)/leader.sock with --replicate, each \
                 follower serves $(i,DIR)/replica-$(i,k) on \
                 $(i,DIR)/replica-$(i,k).sock.  Dead followers respawn in \
                 place; a dead leader is replaced by promoting the first \
                 live follower onto the leader's socket (--promote-from), \
                 fencing the old generation.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "promote-from" ] ~docv:"DIR"
              ~doc:
                "Before serving, recover the (dead) leader repository at \
                 DIR into this directory — every acked write is in its \
                 journal; a torn tail is unacknowledged — and fence both \
                 stores at a fresh era so the old leader, if it ever \
                 restarts without promotion, is refused at session load.  \
                 Implies --replicate.")
      $ Arg.(
          value & opt int 0
          & info [ "era" ] ~docv:"N"
              ~doc:
                "This writer's replication era (default 0; raised \
                 automatically by --promote-from).  A variant whose store \
                 manifest carries a higher era was taken over by a newer \
                 writer and is refused at session load."))

let stats_cmd =
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Fetch the observability snapshot (request counters, latency \
          histogram quantiles, lock contention, breaker state, recent \
          traces) from a running server")
    Term.(
      const (fun s j -> Stdlib.exit (cmd_stats s j))
      $ Arg.(
          required
          & pos 0 (some string) None
          & info [] ~docv:"ADDR"
              ~doc:"The server's Unix socket path, or HOST:PORT for TCP.")
      $ Arg.(
          value & flag
          & info [ "json" ] ~doc:"Emit the snapshot as one JSON object."))

let addr_pos0_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"ADDR"
        ~doc:"The server's Unix socket path, or HOST:PORT for TCP.")

let branch_cmd =
  Cmd.v
    (Cmd.info "branch"
       ~doc:
         "Fork a variant on a running server: $(b,swsd branch ADDR V W) \
          copies variant V to a new variant W with a lineage record \
          (parent, fork stamp), crash-safely, without locking V — \
          designers attached to V are undisturbed")
    Term.(
      const (fun a p c at -> Stdlib.exit (cmd_branch a p c at))
      $ addr_pos0_arg
      $ Arg.(
          required
          & pos 1 (some string) None
          & info [] ~docv:"PARENT" ~doc:"The variant to branch from.")
      $ Arg.(
          required
          & pos 2 (some string) None
          & info [] ~docv:"CHILD" ~doc:"The new variant's name.")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "at" ] ~docv:"N"
              ~doc:
                "Branch after the parent's first N committed operations \
                 instead of its tip."))

let merge_cmd =
  Cmd.v
    (Cmd.info "merge"
       ~doc:
         "Merge one variant's work into another on a running server: \
          $(b,swsd merge ADDR W V) rebases the operations W made since \
          its fork onto V's current state.  Each operation replays \
          through the permission matrix and the consistency checker; \
          conflicts are reported in the impact report, never silently \
          applied.  $(b,--dry-run) classifies without changing anything")
    Term.(
      const (fun a s d n -> Stdlib.exit (cmd_merge a s d n))
      $ addr_pos0_arg
      $ Arg.(
          required
          & pos 1 (some string) None
          & info [] ~docv:"SOURCE" ~doc:"The branch to merge from.")
      $ Arg.(
          required
          & pos 2 (some string) None
          & info [] ~docv:"DEST" ~doc:"The variant to merge into.")
      $ Arg.(
          value & flag
          & info [ "dry-run" ]
              ~doc:"Classify and report only; mutate nothing."))

let examples_cmd =
  Cmd.v
    (Cmd.info "examples" ~doc:"List the built-in example schemas")
    Term.(const (fun () -> Stdlib.exit (cmd_examples ())) $ const ())

let () =
  let info =
    Cmd.info "swsd" ~version:"1.0.0"
      ~doc:"Shrink wrap schema-based database design with concept schemas"
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            decompose_cmd; show_cmd; check_cmd; custom_cmd; report_cmd; repl_cmd;
            diff_cmd; explain_cmd; affinity_cmd; library_cmd; graph_cmd;
            sql_cmd; er_cmd; quality_cmd; data_check_cmd; migrate_data_cmd;
            oql_cmd;
            variants_cmd; serve_cmd; query_cmd; stats_cmd; fsck_cmd;
            branch_cmd; merge_cmd; examples_cmd;
          ]))
