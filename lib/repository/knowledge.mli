(** The knowledge component: cautionary statements for the designer.

    Beyond hard constraint enforcement and propagation, the paper's
    knowledge component issues advisory feedback — consequences the designer
    should be aware of even though the operation is legal. *)

(** Functorized over {!Core.Schema_view.S} like the engine: every query is
    a neighbourhood query, so on the indexed backend the cost is bounded by
    the named interfaces' degree and hierarchy, not by the schema. *)
module Make (V : Core.Schema_view.S) : sig
  val cautions : V.t -> Core.Modop.t -> string list
  (** Cautionary statements for applying the operation to the view,
      computed against the workspace {e before} application.  Empty when
      nothing is noteworthy. *)
end

module Indexed : module type of Make (Core.Schema_index)
(** Over a session's {!Core.Schema_index}; the designer's path. *)

val cautions : Odl.Types.schema -> Core.Modop.t -> string list
(** The naive instantiation, over a plain schema; the {!Indexed} text is
    equal to it for every schema with unique interface names (tested by
    property). *)

val rule_summaries : (string * string) list
(** The rule base by group, for documentation and the designer's [rules]
    command. *)
