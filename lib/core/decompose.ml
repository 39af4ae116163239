(** Algorithmic decomposition of a shrink wrap schema into concept schemas.

    The paper requires that a schema defined in extended ODL can be
    decomposed algorithmically: at least one wagon wheel exists for every
    object type, and the union of all initial concept schemas gives back the
    original shrink wrap schema.

    Functorized over {!Schema_view.S}: the naive backend scans the schema
    for every neighbourhood query, the indexed backend answers them from
    its adjacency maps.  Both produce identical concept lists (tested by
    property). *)

open Odl.Types
module SSet = Set.Make (String)

module Make (V : Schema_view.S) = struct
  (** The wagon wheel centred on [focus]: the focal interface, every
      interface one relationship link away (any kind, either direction),
      and the focal point's direct supertypes and subtypes. *)
  let wagon_wheel v focus =
    let i = V.get_interface v focus in
    let own_edges = List.map (fun r -> (focus, r.rel_name)) i.i_rels in
    let incoming =
      V.relationships_targeting v focus
      |> List.filter (fun (owner, _) -> not (String.equal owner.i_name focus))
      |> List.map (fun (owner, r) -> (owner.i_name, r.rel_name))
    in
    let neighbours =
      List.map (fun r -> r.rel_target) i.i_rels
      @ List.map fst incoming
      @ List.filter (V.mem_interface v) i.i_supertypes
      @ V.direct_subtypes v focus
    in
    let members =
      focus
      :: (neighbours
         |> List.filter (fun n -> not (String.equal n focus))
         |> List.sort_uniq compare)
    in
    Concept.make Wagon_wheel focus members (own_edges @ incoming)

  let wagon_wheels v =
    List.map (fun i -> wagon_wheel v i.i_name) (V.schema v).s_interfaces

  (* Reachable closure with an explicit edge accumulator; the visited set
     keeps it O(members · log members) beyond the edge lookups. *)
  let reach children_edges start =
    let rec go seen members edges = function
      | [] -> (List.rev members, List.rev edges)
      | n :: rest ->
          if SSet.mem n seen then go seen members edges rest
          else
            let es = children_edges n in
            let nexts = List.map (fun (_, _, target) -> target) es in
            go (SSet.add n seen) (n :: members)
              (List.rev_append
                 (List.map (fun (owner, path, _) -> (owner, path)) es)
                 edges)
              (nexts @ rest)
    in
    let members, edges = go SSet.empty [] [] [ start ] in
    (members, List.rev edges)

  (** The generalization hierarchy rooted at [root]: the root and all its
      descendants; edges are not relationship paths (ISA is structural), so
      [c_edges] is empty and the projection keeps ISA links among members. *)
  let generalization_hierarchy v root =
    let members = root :: V.descendants v root in
    Concept.make Generalization root members []

  let has_subtypes v n = V.direct_subtypes v n <> []

  (** One generalization-hierarchy concept schema per ISA root that actually
      has subtypes (a lone interface is not a hierarchy). *)
  let generalization_hierarchies v =
    V.isa_roots v
    |> List.filter (has_subtypes v)
    |> List.map (generalization_hierarchy v)

  let is_generalization_root v n = V.is_isa_root v n && has_subtypes v n

  let whole_part_edges v name =
    match V.find_interface v name with
    | None -> []
    | Some i ->
        i.i_rels
        |> List.filter (fun r -> role_of_relationship r = Whole_end)
        |> List.map (fun r -> (name, r.rel_name, r.rel_target))

  (** The aggregation hierarchy (parts explosion) rooted at [root]. *)
  let aggregation_hierarchy v root =
    let members, edges = reach (whole_part_edges v) root in
    Concept.make Aggregation root members edges

  (** Roots of aggregation hierarchies: interfaces that aggregate parts but
      are not themselves a part of anything. *)
  let is_aggregation_root v n =
    whole_part_edges v n <> []
    && not
         (V.relationships_targeting v n
         |> List.exists (fun (_, r) -> role_of_relationship r = Whole_end))

  let aggregation_roots v =
    V.interface_names v |> List.filter (is_aggregation_root v)

  let aggregation_hierarchies v =
    List.map (aggregation_hierarchy v) (aggregation_roots v)

  let generic_instance_edges v name =
    match V.find_interface v name with
    | None -> []
    | Some i ->
        i.i_rels
        |> List.filter (fun r -> role_of_relationship r = Generic_end)
        |> List.map (fun r -> (name, r.rel_name, r.rel_target))

  (** The instance-of hierarchy headed at [head]: the chain (in our
      experience linear, but branching is representable) of instance-of
      links. *)
  let instance_chain v head =
    let members, edges = reach (generic_instance_edges v) head in
    Concept.make Instance_chain head members edges

  (** Heads of instance-of chains: generic entities that are not themselves
      an instance of anything. *)
  let is_instance_head v n =
    generic_instance_edges v n <> []
    && not
         (V.relationships_targeting v n
         |> List.exists (fun (_, r) -> role_of_relationship r = Generic_end))

  let instance_heads v = V.interface_names v |> List.filter (is_instance_head v)

  let instance_chains v = List.map (instance_chain v) (instance_heads v)

  (** Full decomposition: wagon wheels (one per object type) followed by the
      generalization, aggregation, and instance-of hierarchies. *)
  let decompose v =
    wagon_wheels v
    @ generalization_hierarchies v
    @ aggregation_hierarchies v
    @ instance_chains v

  (* Each test below is the one [decompose] filters by, so the name passes
     iff the decomposition holds a concept with this id (each test fails on
     a name that is not an interface). *)
  let find v id =
    match String.index_opt id ':' with
    | None -> None
    | Some k -> (
        let name = String.sub id (k + 1) (String.length id - k - 1) in
        let build holds concept = if holds then Some (concept v name) else None in
        match Concept.kind_of_id_prefix (String.sub id 0 k) with
        | None -> None
        | Some Wagon_wheel -> build (V.mem_interface v name) wagon_wheel
        | Some Generalization ->
            build (is_generalization_root v name) generalization_hierarchy
        | Some Aggregation ->
            build (is_aggregation_root v name) aggregation_hierarchy
        | Some Instance_chain -> build (is_instance_head v name) instance_chain)
end

module Naive = Make (Schema_view.Naive)
module Indexed = Make (Schema_index)

let wagon_wheel = Naive.wagon_wheel
let wagon_wheels = Naive.wagon_wheels
let generalization_hierarchy = Naive.generalization_hierarchy
let generalization_hierarchies = Naive.generalization_hierarchies
let aggregation_hierarchy = Naive.aggregation_hierarchy
let aggregation_roots = Naive.aggregation_roots
let aggregation_hierarchies = Naive.aggregation_hierarchies
let instance_chain = Naive.instance_chain
let instance_heads = Naive.instance_heads
let instance_chains = Naive.instance_chains
let decompose = Naive.decompose

let find concepts id = List.find_opt (fun c -> String.equal c.Concept.c_id id) concepts
