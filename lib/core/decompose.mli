(** Algorithmic decomposition of a shrink wrap schema into concept schemas.

    Guarantees (tested): at least one wagon wheel exists per object type, and
    the union of all wagon wheel projections reconstructs the original schema
    ({!Recompose.reconstruct}).

    Functorized over {!Schema_view.S}; the top-level functions below are the
    naive instantiation, {!Indexed} the one over {!Schema_index.t}.  Both
    backends produce identical concept lists (tested by property). *)

open Odl.Types

module Make (V : Schema_view.S) : sig
  val wagon_wheel : V.t -> type_name -> Concept.t
  val wagon_wheels : V.t -> Concept.t list
  val generalization_hierarchy : V.t -> type_name -> Concept.t
  val generalization_hierarchies : V.t -> Concept.t list
  val aggregation_hierarchy : V.t -> type_name -> Concept.t
  val aggregation_roots : V.t -> type_name list
  val aggregation_hierarchies : V.t -> Concept.t list
  val instance_chain : V.t -> type_name -> Concept.t
  val instance_heads : V.t -> type_name list
  val instance_chains : V.t -> Concept.t list
  val decompose : V.t -> Concept.t list

  val find : V.t -> string -> Concept.t option
  (** [find v id] builds just the concept schema [id] names: the id splits
      at its first [':'] into a kind prefix ([ww], [gh], [ah], [ih]) and an
      interface name, and the root, whole-part and instance-head tests
      {!decompose} filters by decide whether that concept exists.

      Guarantee (tested by property): [find v id] equals
      [List.find_opt (fun c -> c.c_id = id) (decompose v)], [None]
      included.

      Cost on the indexed backend, independent of schema size [n]: a
      wagon wheel of degree [d] takes O(d log n); a hierarchy of [m]
      members and [e] edges O((m + e) log n) plus, for a generalization
      hierarchy, sorting each member's subtypes into declaration order.
      An id with no colon or an unknown prefix costs O(1). *)
end

module Naive : module type of Make (Schema_view.Naive)
module Indexed : module type of Make (Schema_index)

val wagon_wheel : schema -> type_name -> Concept.t
(** The wagon wheel centred on the given object type: the focal interface,
    every interface one relationship link away (any kind, either direction),
    and the focal point's direct supertypes and subtypes. *)

val wagon_wheels : schema -> Concept.t list
(** One per object type, in declaration order. *)

val generalization_hierarchy : schema -> type_name -> Concept.t
(** The ISA tree rooted at the given type. *)

val generalization_hierarchies : schema -> Concept.t list
(** One per ISA root that has subtypes. *)

val aggregation_hierarchy : schema -> type_name -> Concept.t
(** The parts explosion rooted at the given type. *)

val aggregation_roots : schema -> type_name list
(** Interfaces that aggregate parts but are not parts themselves. *)

val aggregation_hierarchies : schema -> Concept.t list

val instance_chain : schema -> type_name -> Concept.t
(** The instance-of chain headed at the given type. *)

val instance_heads : schema -> type_name list
(** Generic entities that are not themselves instances of anything. *)

val instance_chains : schema -> Concept.t list

val decompose : schema -> Concept.t list
(** Wagon wheels, then generalization, aggregation and instance-of
    hierarchies. *)

val find : Concept.t list -> string -> Concept.t option
(** Look a concept schema up by its id (e.g. ["ww:Course_Offering"]) in an
    already computed list.  To resolve one id against a schema without
    decomposing it, use [Make(V).find] ({!Indexed.find}). *)
