(** Concept schemas: single-viewpoint subsets of a shrink wrap schema.

    The paper defines four generic structure patterns (concept schema types):

    - {e wagon wheel} — one focal object type plus all attributes,
      operations, and relationship links of distance one;
    - {e generalization hierarchy} — a rooted ISA tree;
    - {e aggregation hierarchy} — a rooted part-of explosion;
    - {e instance-of hierarchy} — a chain of instance-of links.

    A concept schema here is a named selection over a schema: the set of
    member object types and the set of relationship edges it presents.  The
    projection of a concept schema ({!project}) is itself a schema — a
    subset of the application schema, as required by the paper. *)

open Odl.Types

type kind =
  | Wagon_wheel
  | Generalization
  | Aggregation
  | Instance_chain
[@@deriving show, eq, ord]

type t = {
  c_kind : kind;
  c_id : string;  (** unique within a decomposition, e.g. ["ww:Course"] *)
  c_focus : type_name;  (** focal point, hierarchy root, or chain head *)
  c_members : type_name list;  (** object types covered, focus first *)
  c_edges : (type_name * string) list;
      (** relationship edges included, as [(owner, traversal path)] *)
}
[@@deriving show, eq]

let kind_name = function
  | Wagon_wheel -> "wagon wheel"
  | Generalization -> "generalization hierarchy"
  | Aggregation -> "aggregation hierarchy"
  | Instance_chain -> "instance-of hierarchy"

let id_prefix = function
  | Wagon_wheel -> "ww"
  | Generalization -> "gh"
  | Aggregation -> "ah"
  | Instance_chain -> "ih"

let kinds = [ Wagon_wheel; Generalization; Aggregation; Instance_chain ]

let kind_of_id_prefix p =
  List.find_opt (fun k -> String.equal (id_prefix k) p) kinds

let make kind focus members edges =
  {
    c_kind = kind;
    c_id = id_prefix kind ^ ":" ^ focus;
    c_focus = focus;
    c_members = members;
    c_edges = edges;
  }

let mem_type c name = List.mem name c.c_members
let mem_edge c owner path = List.mem (owner, path) c.c_edges

(** [project schema c] is the sub-schema presented by concept schema [c].

    The focal point of a wagon wheel keeps its complete definition; all other
    members keep only the constructs [c] selects (the edges, plus — for
    hierarchy concept schemas — their ISA links within the members).  The
    union of the projections of all wagon wheels reconstructs the original
    schema (see {!Recompose.union}). *)
let project schema c =
  let keep_edge i (r : relationship) =
    mem_edge c i.i_name r.rel_name
    ||
    (* keep the inverse end of any selected edge so projections are
       structurally well formed *)
    mem_edge c r.rel_target r.rel_inverse
  in
  let restrict i =
    let full =
      match c.c_kind with
      | Wagon_wheel -> String.equal i.i_name c.c_focus
      | Generalization | Aggregation | Instance_chain -> false
    in
    if full then
      (* keep only ISA links to members so the projection is closed *)
      { i with i_supertypes = List.filter (mem_type c) i.i_supertypes }
    else
      {
        i with
        i_supertypes =
          (match c.c_kind with
          | Generalization -> List.filter (mem_type c) i.i_supertypes
          | Wagon_wheel | Aggregation | Instance_chain -> []);
        i_extent = None;
        i_keys = [];
        i_attrs = [];
        i_ops = [];
        i_rels = List.filter (keep_edge i) i.i_rels;
      }
  in
  {
    s_name = c.c_id;
    s_interfaces =
      schema.s_interfaces
      |> List.filter (fun i -> mem_type c i.i_name)
      |> List.map restrict;
  }
