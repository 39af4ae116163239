(** Indexed schema backend: map-backed name→interface lookup, reverse ISA /
    reverse-mention adjacency, and incremental consistency checking with a
    dirty-set diagnostics cache.

    Implements {!Schema_view.S}, so the functorized engine ({!Apply.Make},
    {!Propagate.Make}, {!Decompose.Make}) runs unchanged over it; the naive
    backend {!Schema_view.Naive} is the reference oracle it is
    differentially tested against.

    The index is persistent: every update returns a new value and old values
    remain usable (undo in {!Session} keeps superseded versions).  The
    mutable fields are memoization caches only; each version owns its own,
    so divergent versions cannot corrupt one another, and concurrent
    readers of one version may all call {!diagnostics}.

    {!diagnostics} equals [Odl.Validate.check (schema t)] for {e any}
    schema, including invalid ones.  The other queries assume interface
    names are unique (duplicate names are an error-level diagnostic, and
    {!Session.create} refuses such schemas). *)

type t

val build : Odl.Types.schema -> t
(** Index a schema from scratch; O(size of schema).  The diagnostics cache
    starts cold — the first {!diagnostics} call pays full-check cost, and
    so does the first call on a version derived before that. *)

include Schema_view.S with type t := t

(** On a warm index, {!diagnostics}, {!errors} and {!is_valid} re-check only
    the neighbourhoods the updates since the last call invalidated, and
    assemble the rest from the interfaces with non-empty cached results:
    O((dirty + findings) · log n) when the schema-global block survives the
    updates (attribute, operation and key edits); adding or removing an
    interface, or editing a supertype, relationship or extent, re-runs the
    global checks in O(n). *)

val find_positioned : t -> Odl.Types.type_name -> (Odl.Types.interface * int) option
(** The interface record and its declaration position, in one O(log n)
    lookup.  Positions order the interfaces as {!interface_names} does.
    Within one {!build}, an update keeps its name's position, and a removed
    and re-added name takes a fresh one after every other. *)

val is_valid : t -> bool
(** No error-level diagnostics (cache-served where possible). *)

val changed_names : t -> t -> Odl.Types.type_name list
(** [changed_names old new_] — the interface names whose records differ
    physically between two index versions, sorted: for versions of one
    {!build}, in either direction and for forked siblings, O(changed ·
    log n), where changed counts the updates since their last common
    version; for versions of different builds (a rename rebuilds), the full
    O(n) comparison.  A no-op update that returns the old record is not
    reported.  This is the dirty seed the materialized query views
    ({!Query.View}) refresh from. *)
