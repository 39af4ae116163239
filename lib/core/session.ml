(** A shrink wrap schema design session.

    The session owns the artifacts of the paper's architecture (Figure 1):
    the original shrink wrap schema, the workspace for the schema under
    design, the operation log with recorded impacts, and — derived on
    demand — the concept schemas, the custom schema, the consistency
    report, and the shrink-wrap → custom mapping.  Sessions are immutable
    values: applying an operation returns a new session, and undo is
    structural.

    Operations run on the {e indexed} engine ({!Apply.Indexed} over
    {!Schema_index}): per-op constraint checking and propagation touch only
    the affected neighbourhood, and the consistency report is served from
    the index's dirty-set cache.  The plain [workspace] schema is kept in
    lock-step for callers that want the value.  In {e paranoid} mode every
    operation is additionally run through the naive reference engine and
    the two outcomes compared — a mismatch raises {!Divergence}. *)

open Odl.Types
module Validate = Odl.Validate

type step = {
  st_kind : Concept.kind;  (** concept schema type the op was issued from *)
  st_op : Modop.t;
  st_events : Change.event list;  (** direct + propagated impact *)
  st_before : schema;  (** workspace before this step, for undo *)
}

type t = {
  original : schema;  (** the shrink wrap schema, never modified *)
  original_index : Schema_index.t;
      (** index of [original] (stability checks, concept lookup) *)
  workspace : schema;  (** the schema under design; equals [schema index] *)
  index : Schema_index.t;  (** the workspace's index, updated per op *)
  past_indexes : Schema_index.t list;
      (** index versions before each step, newest first (parallels
          [rev_log]); undo restores from here in O(1) *)
  rev_log : step list;
      (** applied steps, {e newest} first: apply conses and undo pops, so
          the spine below any point is shared physically across every
          session derived from it — {!steps_rev} exposes this so the
          journal layer can diff two lineage-related sessions in
          O(changed steps) instead of walking both full logs *)
  nlog : int;  (** [List.length rev_log], maintained for O(1) counting *)
  aliases : Aliases.t;  (** local names (presentation-level renaming) *)
  future : (Concept.kind * Modop.t) list;  (** undone steps, for redo *)
  paranoid : bool;  (** cross-check every op against the naive engine *)
  version : int;
      (** monotonic change stamp: bumped by every state transition (apply,
          undo, redo, alias changes) and never decremented — two sessions
          with the same version along one lineage are the same value *)
}

exception Divergence of string

let divergence fmt = Printf.ksprintf (fun m -> raise (Divergence m)) fmt

(* --- observation hooks ---------------------------------------------------- *)

type hooks = {
  h_now : unit -> float;
      (** clock for [h_check] timing — supplied by the installer so this
          library stays clock-free (core does not link unix) *)
  h_op_applied : kind:Concept.kind -> dirty:int -> unit;
      (** a committed operation, with the size of the neighbourhood the
          incremental checker re-examined for it *)
  h_check : seconds:float -> findings:int -> unit;
      (** a consistency report was served: wall time and finding count *)
}

(* Process-wide rather than per-session: sessions are immutable values
   copied on every apply, so per-value hooks would have to be re-threaded
   through replay/undo/redo and serialized alongside.  The observability
   layer is a singleton anyway.  [None] (the default) costs one load. *)
let hooks : hooks option ref = ref None
let set_hooks h = hooks := h

let observe_apply ~kind ~index ~subject =
  match !hooks with
  | None -> ()
  | Some h ->
      h.h_op_applied ~kind
        ~dirty:(List.length (Schema_index.affected_by index [ subject ]))

(* Differential cross-check of one operation: the indexed outcome must match
   the naive engine's exactly — acceptance, workspace, events, and the full
   diagnostics list (the error messages embed the first diagnostic, so
   diagnostic equality also pins error-message equality). *)
let check_divergence t ~kind op indexed_outcome =
  let naive = Apply.apply ~original:t.original ~kind t.workspace op in
  let ctx = Fmt.str "%a" Op_printer.pp op in
  match (indexed_outcome, naive) with
  | Ok (idx, evs), Ok (ws, evs') ->
      if not (equal_schema (Schema_index.schema idx) ws) then
        divergence "%s: indexed and naive workspaces differ" ctx;
      if not (List.equal Change.equal_event evs evs') then
        divergence "%s: indexed and naive impact events differ" ctx;
      if
        not
          (List.equal Validate.equal_diagnostic
             (Schema_index.diagnostics idx)
             (Validate.check ws))
      then divergence "%s: indexed and naive diagnostics differ" ctx
  | Error e, Error e' ->
      if Apply.error_to_string e <> Apply.error_to_string e' then
        divergence "%s: engines reject with different errors (%s vs %s)" ctx
          (Apply.error_to_string e) (Apply.error_to_string e')
  | Ok _, Error e ->
      divergence "%s: indexed engine accepted what the naive engine rejects (%s)"
        ctx (Apply.error_to_string e)
  | Error e, Ok _ ->
      divergence "%s: indexed engine rejected (%s) what the naive engine accepts"
        ctx (Apply.error_to_string e)

(** Start a session on [shrink_wrap].  The shrink wrap schema must be valid;
    otherwise its error diagnostics are returned so the designer can fix the
    repository copy first.  [paranoid] turns on per-operation differential
    checking against the naive engine (see {!Divergence}). *)
let create ?(paranoid = false) shrink_wrap =
  let index = Schema_index.build shrink_wrap in
  if paranoid then begin
    let di = Schema_index.diagnostics index in
    let dn = Validate.check shrink_wrap in
    if not (List.equal Validate.equal_diagnostic di dn) then
      divergence "create: indexed and naive diagnostics differ"
  end;
  match Schema_index.errors index with
  | [] ->
      Ok
        {
          original = shrink_wrap;
          original_index = index;
          workspace = shrink_wrap;
          index;
          past_indexes = [];
          rev_log = [];
          nlog = 0;
          aliases = Aliases.empty;
          future = [];
          paranoid;
          version = 0;
        }
  | errors -> Error errors

let original t = t.original
let workspace t = t.workspace
let index t = t.index
let concepts t = Decompose.Indexed.decompose t.original_index
let log t = List.rev t.rev_log
let steps_rev t = t.rev_log
let step_count t = t.nlog
let version t = t.version

let find_concept t id = Decompose.Indexed.find t.original_index id

(* The workspace shows customizations; the original still resolves the
   concepts a customization removed. *)
let lookup_concept t id =
  match Decompose.Indexed.find t.index id with
  | Some _ as c -> c
  | None -> find_concept t id

let indexed_apply t ~kind op =
  let outcome = Apply.Indexed.apply ~original:t.original_index ~kind t.index op in
  if t.paranoid then check_divergence t ~kind op outcome;
  outcome

let commit t ~kind op (index, events) ~future =
  observe_apply ~kind ~index ~subject:(Modop.subject op);
  ( {
      t with
      workspace = Schema_index.schema index;
      index;
      past_indexes = t.index :: t.past_indexes;
      future;
      version = t.version + 1;
      rev_log =
        { st_kind = kind; st_op = op; st_events = events; st_before = t.workspace }
        :: t.rev_log;
      nlog = t.nlog + 1;
    },
    events )

(** Apply [op] in a concept schema of type [kind].  A fresh application
    clears the redo history. *)
let apply t ~kind op =
  match indexed_apply t ~kind op with
  | Error _ as e -> e
  | Ok (index, events) -> Ok (commit t ~kind op (index, events) ~future:[])

(** Apply [op] from the concept schema identified by [concept_id]; the
    operation must also mention only interfaces that concept schema covers
    (you modify what you are looking at). *)
let apply_in t ~concept_id op =
  match find_concept t concept_id with
  | None -> Error (Apply.Unknown (Printf.sprintf "concept schema %s" concept_id))
  | Some c ->
      let subj = Modop.subject op in
      if Concept.mem_type c subj || not (Schema_index.mem_interface t.index subj)
      then apply t ~kind:c.Concept.c_kind op
      else
        Error
          (Apply.Not_allowed
             (Printf.sprintf "%s is not part of concept schema %s" subj concept_id))

(** Impact preview: what would [op] change, without committing. *)
let preview t ~kind op =
  Apply.Indexed.preview ~original:t.original_index ~kind t.index op

(** Undo the most recent step; [None] when the log is empty.  The undone
    operation becomes redoable until the next fresh application.  The index
    version recorded at apply time is restored in O(1). *)
let undo t =
  match t.rev_log with
  | [] -> None
  | last :: rest ->
      let index, past_indexes =
        match t.past_indexes with
        | idx :: rest -> (idx, rest)
        | [] -> (Schema_index.build last.st_before, [])  (* unreachable *)
      in
      Some
        {
          t with
          workspace = last.st_before;
          index;
          past_indexes;
          rev_log = rest;
          nlog = t.nlog - 1;
          future = (last.st_kind, last.st_op) :: t.future;
          version = t.version + 1;
        }

(** Redo the most recently undone step; [None] when there is nothing to
    redo.  Cannot fail otherwise: the operation applied before and the
    workspace is back in the state it applied to. *)
let redo t =
  match t.future with
  | [] -> None
  | (kind, op) :: rest -> (
      match indexed_apply t ~kind op with
      | Error _ -> None  (* unreachable by construction; be defensive *)
      | Ok (index, events) ->
          Some (commit t ~kind op (index, events) ~future:rest))

let redoable t = List.length t.future

(** The customized user schema: the current workspace, renamed. *)
let custom_schema ?name t =
  let name = Option.value name ~default:(t.original.s_name ^ "_custom") in
  { t.workspace with s_name = name }

(* --- local names (paper section 5 extension) ----------------------------- *)

(** Bind a local (presentation) name to a construct of the workspace. *)
let add_alias t target local =
  Result.map
    (fun aliases -> { t with aliases; version = t.version + 1 })
    (Aliases.add t.workspace t.aliases target local)

(** Remove a construct's local name. *)
let remove_alias t target =
  { t with aliases = Aliases.remove t.aliases target; version = t.version + 1 }

(** The live bindings: stale ones (whose construct was deleted since) are
    pruned on read. *)
let aliases t = fst (Aliases.prune t.workspace t.aliases)

let aliases_report t = Aliases.report (aliases t)

(** Install persisted bindings wholesale (used when loading a repository);
    stale bindings are dropped lazily by {!aliases}. *)
let restore_aliases t aliases = { t with aliases; version = t.version + 1 }

(** Consistency report over the workspace (errors cannot occur — accepted
    operations preserve validity — so this surfaces the warnings).  Served
    from the index's diagnostics cache: only checks invalidated since the
    last report are recomputed. *)
let consistency_report t =
  match !hooks with
  | None -> Schema_index.diagnostics t.index
  | Some h ->
      let t0 = h.h_now () in
      let ds = Schema_index.diagnostics t.index in
      h.h_check ~seconds:(h.h_now () -. t0) ~findings:(List.length ds);
      ds

let mapping t = Mapping.compute ~original:t.original ~custom:t.workspace

(** The full decomposition of the workspace, which shows the customized
    concepts.  O(schema): for listings; resolve one id with
    {!lookup_concept}. *)
let current_concepts t = Decompose.Indexed.decompose t.index

(* --- deliverables -------------------------------------------------------- *)

let pp_step ppf (idx, s) =
  Fmt.pf ppf "@[<v 2>%d. [%s] %a" (idx + 1)
    (Concept.kind_name s.st_kind)
    Op_printer.pp s.st_op;
  List.iter (fun e -> Fmt.pf ppf "@,%s" (Change.event_to_string e)) s.st_events;
  Fmt.pf ppf "@]"

(** The impact report: every applied operation with its direct and
    propagated changes. *)
let impact_report t =
  Fmt.str "@[<v>impact report for %s@,%a@]" t.original.s_name
    Fmt.(list ~sep:(any "@,") pp_step)
    (List.mapi (fun i s -> (i, s)) (log t))

let consistency_report_text t =
  let ds = consistency_report t in
  if ds = [] then "consistency report: no findings"
  else
    Fmt.str "@[<v>consistency report (%d findings)@,%a@]" (List.length ds)
      Fmt.(list ~sep:(any "@,") Validate.pp_diagnostic_line)
      ds

let mapping_report t = Fmt.str "@[<v>mapping report@,%a@]" Mapping.pp (mapping t)

(** All designer deliverables in one document: schema summaries, the
    operation log with impacts, the consistency report, and the mapping. *)
let deliverables t =
  String.concat "\n"
    [
      "== shrink wrap schema ==";
      Render.summary t.original;
      "";
      "== custom schema ==";
      Render.summary (custom_schema t);
      "";
      "== " ^ impact_report t;
      "";
      "== " ^ consistency_report_text t;
      "";
      "== " ^ mapping_report t;
      "";
      "== local names ==";
      aliases_report t;
    ]

(* Serialization of the log and replay live in {!Oplog}, which builds on
   this module: the session records steps, the op-log is their durable,
   exchangeable (and rebase-capable) projection. *)
