(** A shrink wrap schema design session.

    The session owns the artifacts of the paper's architecture (Figure 1):
    the original shrink wrap schema, the workspace for the schema under
    design, the operation log with recorded impacts, the local-name
    bindings, and — derived on demand — the concept schemas, the custom
    schema, the consistency report, and the shrink-wrap → custom mapping.  Sessions are
    immutable values: applying an operation returns a new session, and undo
    is structural. *)

open Odl.Types

type step = {
  st_kind : Concept.kind;  (** concept schema type the op was issued from *)
  st_op : Modop.t;
  st_events : Change.event list;  (** direct + propagated impact *)
  st_before : schema;  (** workspace before this step, for undo *)
}

type t

exception Divergence of string
(** Raised in paranoid mode when the indexed engine's outcome for an
    operation differs from the naive reference engine's — acceptance,
    resulting workspace, impact events, or diagnostics.  Indicates a bug in
    the index; the operation is not committed. *)

(** {1 Observation hooks}

    Process-wide, installed once by the serving layer; [None] (the default)
    reduces every instrumentation point to a single load.  The hooks run on
    the applying thread and must be fast and non-raising. *)

type hooks = {
  h_now : unit -> float;
      (** clock for [h_check] timing — supplied by the installer, since this
          library links no clock source *)
  h_op_applied : kind:Concept.kind -> dirty:int -> unit;
      (** a committed operation (apply or redo), with the size of the
          neighbourhood the incremental checker re-examines for it *)
  h_check : seconds:float -> findings:int -> unit;
      (** a consistency report was served: wall time and finding count *)
}

val set_hooks : hooks option -> unit

val create : ?paranoid:bool -> schema -> (t, Odl.Validate.diagnostic list) result
(** Start a session; an invalid shrink wrap schema is rejected with its
    error diagnostics.  Operations run on the indexed engine; with
    [~paranoid:true] (default [false]) every operation is additionally run
    through the naive engine and compared (see {!Divergence}). *)

val original : t -> schema
(** The shrink wrap schema; never modified. *)

val workspace : t -> schema

val index : t -> Schema_index.t
(** The workspace's schema index (kept in lock-step with {!workspace}). *)

val concepts : t -> Concept.t list
(** The decomposition of the original schema, computed on each call:
    O(schema).  For listings; {!find_concept} resolves one id. *)

val log : t -> step list
(** The applied steps, oldest first (rebuilt on each call — report-path
    cost; the hot path uses {!steps_rev}). *)

val steps_rev : t -> step list
(** The applied steps, {e newest} first — the session's internal spine.
    Apply conses onto it and undo pops it, so two sessions of one lineage
    share the spine below their divergence point {e physically}; callers
    (the service's journal delta) exploit this to diff logs by pointer
    equality in O(changed steps). *)

val step_count : t -> int
(** [List.length (log t)]: committed (not undone) steps.  O(1). *)

val version : t -> int
(** Monotonic change stamp: [0] at {!create}, bumped by every state
    transition (apply, undo, redo, alias changes).  Unlike {!step_count} it
    never goes backwards along a session's lineage, so snapshot readers can
    use it to detect staleness. *)

val find_concept : t -> string -> Concept.t option
(** The concept schema of the original schema with this id
    ([Decompose.Indexed.find]): cost bounded by that concept's size, not
    the schema's. *)

val lookup_concept : t -> string -> Concept.t option
(** The designer's lookup rule: the concept schema with this id in the
    workspace (customizations visible), else in the original schema (a
    concept a customization removed).  Two {!Decompose.Indexed.find}
    calls, so its cost is independent of schema size. *)

val apply :
  t -> kind:Concept.kind -> Modop.t -> (t * Change.event list, Apply.error) result

val apply_in :
  t -> concept_id:string -> Modop.t -> (t * Change.event list, Apply.error) result
(** Apply from a specific concept schema; the operation's subject must be
    covered by that concept schema. *)

val preview : t -> kind:Concept.kind -> Modop.t -> (Change.event list, Apply.error) result

val undo : t -> t option
(** Revert the most recent step; [None] when the log is empty.  The undone
    operation becomes redoable until the next fresh application. *)

val redo : t -> (t * Change.event list) option
(** Re-apply the most recently undone step; [None] when there is nothing to
    redo. *)

val redoable : t -> int
(** How many undone steps could be redone. *)

val custom_schema : ?name:string -> t -> schema
(** The customized user schema (default name: ["<original>_custom"]). *)

(** {1 Local names} *)

val add_alias : t -> Aliases.target -> string -> (t, string) result
val remove_alias : t -> Aliases.target -> t
val aliases : t -> Aliases.t
(** Live bindings; stale ones are pruned on read. *)

val aliases_report : t -> string
val restore_aliases : t -> Aliases.t -> t

(** {1 Reports and deliverables} *)

val consistency_report : t -> Odl.Validate.diagnostic list
(** Equal to [Odl.Validate.check (workspace t)], served from the index's
    findings set in O(findings): every session's index version was already
    checked when it was created, applied or replayed, so nothing is
    re-checked here. *)
val consistency_report_text : t -> string
val mapping : t -> Mapping.t
val mapping_report : t -> string
val impact_report : t -> string
val current_concepts : t -> Concept.t list
(** The full decomposition of the workspace (reflects customizations),
    computed on each call: O(schema).  For listings; {!lookup_concept}
    resolves one id. *)

val deliverables : t -> string
(** All designer deliverables in one document. *)

(** The replayable op-log projection of a session — serialization
    ([Oplog.render]), replay ([Oplog.replay]), and optimistic rebase across
    branched variants ([Oplog.rebase]) — lives in {!Oplog}. *)
