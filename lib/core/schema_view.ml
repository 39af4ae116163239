(** Abstract schema views: the query/update surface the operation engine is
    written against.

    The engine ({!Apply}, {!Propagate}, {!Decompose}) is functorized over
    this signature so it can run on two backends:

    - {!Naive} — a plain {!Odl.Types.schema}, every query a list scan.  This
      is the reference implementation and the oracle for differential
      testing.
    - {!Schema_index} — an incrementally-maintained index with O(log n)
      lookups, adjacency maps and a dirty-set diagnostics cache.

    Both backends must answer every query identically, {e including result
    order} (declaration order unless documented otherwise): check results,
    propagation events and decompositions are all order-sensitive. *)

open Odl.Types

module type S = sig
  type t

  val schema : t -> schema
  (** The underlying schema value (interfaces in declaration order). *)

  (** {1 Lookup} *)

  val find_interface : t -> type_name -> interface option
  val mem_interface : t -> type_name -> bool

  val get_interface : t -> type_name -> interface
  (** @raise Odl.Schema.Unknown_interface when absent. *)

  val interface_names : t -> type_name list
  (** In declaration order. *)

  (** {1 Generalization hierarchy} *)

  val direct_supertypes : t -> type_name -> type_name list
  val direct_subtypes : t -> type_name -> type_name list
  val ancestors : t -> type_name -> type_name list
  val descendants : t -> type_name -> type_name list
  val same_isa_line : t -> type_name -> type_name -> bool
  val isa_roots : t -> type_name list

  val is_isa_root : t -> type_name -> bool
  (** [List.mem n (isa_roots t)], answered for one name. *)

  val visible_attrs : t -> type_name -> attribute list

  (** {1 Relationship queries} *)

  val relationships_targeting :
    t -> type_name -> (interface * relationship) list

  val referrers : t -> type_name -> interface list
  (** Interfaces whose definition mentions the name anywhere (supertype,
      relationship target, attribute domain, operation signature), in
      declaration order — see {!Odl.Schema.mentioned_names}. *)

  (** {1 Functional updates}

      Updates return a new view; old values stay valid (undo keeps them). *)

  val update_interface : t -> type_name -> (interface -> interface) -> t
  (** @raise Odl.Schema.Unknown_interface when absent. *)

  val add_interface : t -> interface -> t
  (** Appends; the caller must ensure the name is fresh. *)

  val remove_interface : t -> type_name -> t
  (** No-op when absent. *)

  (** {1 Consistency checking} *)

  val affected_by : t -> type_name list -> type_name list
  (** Existing interfaces (declaration order) whose checks or propagation
      rules may react to a change of the named interfaces.  A sound
      over-approximation: the naive backend returns every interface; the
      index returns the dirty neighbourhood closure. *)

  val diagnostics : t -> Odl.Validate.diagnostic list
  (** Equal to [Odl.Validate.check (schema t)] — possibly served from a
      cache. *)

  val errors : t -> Odl.Validate.diagnostic list
end

(** The reference backend: plain schemas, no caching, every query a scan. *)
module Naive : S with type t = schema = struct
  module Schema = Odl.Schema

  type t = schema

  let schema s = s
  let find_interface = Schema.find_interface
  let mem_interface = Schema.mem_interface
  let get_interface = Schema.get_interface
  let interface_names = Schema.interface_names
  let direct_supertypes = Schema.direct_supertypes
  let direct_subtypes = Schema.direct_subtypes
  let ancestors = Schema.ancestors
  let descendants = Schema.descendants
  let same_isa_line = Schema.same_isa_line
  let isa_roots = Schema.isa_roots
  let is_isa_root = Schema.is_isa_root
  let visible_attrs = Schema.visible_attrs
  let relationships_targeting = Schema.relationships_targeting
  let referrers = Schema.referrers
  let update_interface = Schema.update_interface
  let add_interface = Schema.add_interface
  let remove_interface = Schema.remove_interface

  (* No dirty tracking: everything is always (re)checked. *)
  let affected_by s _touched = Schema.interface_names s
  let diagnostics = Odl.Validate.check
  let errors = Odl.Validate.errors
end
