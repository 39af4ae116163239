(** Well-formedness checking for extended-ODL schemas.

    Diagnostics carry the paper's knowledge-component classification:
    structural, hierarchy, semantic and naming categories, at error or
    warning severity.  A schema is {e valid} when it has no error-level
    diagnostics; warnings are designer feedback.

    The checks themselves are written once, in the {!Checks} functor,
    against an abstract {!LOOKUP} backend.  The naive backend (this module's
    top-level [check]) resolves every lookup by scanning the interface list;
    [Core.Schema_index] instantiates the same functor over its adjacency
    maps, which is what makes the indexed checker's diagnostics equal to the
    naive checker's by construction (and differentially tested). *)

open Types

(* Note: no [@@deriving] on these types — a constructor named [Error] clashes
   with the [result] constructor re-exported by the deriving runtime. *)

type severity = Error | Warning

type category =
  | Structural  (** dangling references, inverse mismatches, end shapes *)
  | Hierarchy  (** cycles, multi-root components, branching chains *)
  | Semantic  (** keys, order-by, overriding, domains *)
  | Naming  (** uniqueness and identifier validity *)

type diagnostic = {
  severity : severity;
  category : category;
  subject : string;  (** the construct at fault, e.g. ["Employee.works_in"] *)
  message : string;
}

let equal_diagnostic (a : diagnostic) (b : diagnostic) = a = b
let compare_diagnostic (a : diagnostic) (b : diagnostic) = compare a b

let diag severity category subject message =
  { severity; category; subject; message }

let err = diag Error
let warn = diag Warning

let category_name = function
  | Structural -> "structural"
  | Hierarchy -> "hierarchy"
  | Semantic -> "semantic"
  | Naming -> "naming"

let pp_diagnostic_line ppf d =
  Fmt.pf ppf "%s [%s] %s: %s"
    (match d.severity with Error -> "error" | Warning -> "warning")
    (category_name d.category)
    d.subject d.message

let duplicates key xs =
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun x ->
      let k = key x in
      if Hashtbl.mem seen k then Some k
      else begin
        Hashtbl.add seen k ();
        None
      end)
    xs

(* --- the abstract lookup backend ---------------------------------------- *)

module type LOOKUP = sig
  type t

  val schema : t -> schema
  val find_interface : t -> type_name -> interface option
  val mem_interface : t -> type_name -> bool

  val direct_supertypes : t -> type_name -> type_name list
  (** Declared supertypes that exist, in declaration order. *)

  val direct_subtypes : t -> type_name -> type_name list
  (** Interfaces listing the name as a supertype, in schema declaration
      order (check results depend on this order). *)

  val ancestors : t -> type_name -> type_name list
  val visible_attrs : t -> type_name -> attribute list
end

module Checks (L : LOOKUP) = struct
  (* --- naming ------------------------------------------------------------ *)

  (** Duplicate interface names; the only schema-global naming check. *)
  let naming_global t =
    duplicates (fun i -> i.i_name) (L.schema t).s_interfaces
    |> List.map (fun n -> err Naming n "duplicate interface name")

  (** Naming checks local to one interface (no schema context needed). *)
  let naming_interface i =
    let sub s = i.i_name ^ "." ^ s in
    let bad_ident =
      List.filter_map
        (fun name ->
          if not (Names.is_valid name) then
            Some (err Naming (sub name) "invalid identifier")
          else if Names.is_keyword name then
            Some (err Naming (sub name) "identifier is an ODL keyword")
          else None)
        (List.map (fun a -> a.attr_name) i.i_attrs
        @ List.map (fun r -> r.rel_name) i.i_rels
        @ List.map (fun o -> o.op_name) i.i_ops)
    in
    let dup msg names =
      duplicates Fun.id names |> List.map (fun n -> err Naming (sub n) msg)
    in
    (* attributes and relationships share the property namespace: both are
       traversed by dot paths, so a clash is ambiguous. *)
    let property_names =
      List.map (fun a -> a.attr_name) i.i_attrs
      @ List.map (fun r -> r.rel_name) i.i_rels
    in
    bad_ident
    @ dup "duplicate property name (attribute/relationship)" property_names
    @ dup "duplicate operation name" (List.map (fun o -> o.op_name) i.i_ops)

  (* --- structural --------------------------------------------------------- *)

  let structural_interface t i =
    let sub s = i.i_name ^ "." ^ s in
    let missing_supers =
      i.i_supertypes
      |> List.filter_map (fun s ->
             if L.mem_interface t s then None
             else Some (err Structural i.i_name ("unknown supertype " ^ s)))
    in
    let rel_checks r =
      let subject = sub r.rel_name in
      match L.find_interface t r.rel_target with
      | None -> [ err Structural subject ("unknown target type " ^ r.rel_target) ]
      | Some target -> (
          match Schema.find_rel target r.rel_inverse with
          | None ->
              [
                err Structural subject
                  (Printf.sprintf "inverse %s::%s does not exist" r.rel_target
                     r.rel_inverse);
              ]
          | Some inv ->
              let back =
                if not (String.equal inv.rel_target i.i_name) then
                  [
                    err Structural subject
                      (Printf.sprintf
                         "inverse %s::%s targets %s instead of %s" r.rel_target
                         r.rel_inverse inv.rel_target i.i_name);
                  ]
                else if not (String.equal inv.rel_inverse r.rel_name) then
                  [
                    err Structural subject
                      (Printf.sprintf "inverse %s::%s names %s as its inverse"
                         r.rel_target r.rel_inverse inv.rel_inverse);
                  ]
                else []
              in
              let kind =
                if inv.rel_kind <> r.rel_kind then
                  [
                    err Structural subject
                      "relationship and its inverse have different kinds";
                  ]
                else []
              in
              let shape =
                match r.rel_kind with
                | Association -> []
                | Part_of | Instance_of -> (
                    let what =
                      match r.rel_kind with
                      | Part_of -> "part-of"
                      | _ -> "instance-of"
                    in
                    match (r.rel_card, inv.rel_card) with
                    | Some _, None | None, Some _ -> []
                    | Some _, Some _ ->
                        [
                          err Structural subject
                            (what
                           ^ " relationship must be 1:N (both ends are \
                              collections)");
                        ]
                    | None, None ->
                        [
                          err Structural subject
                            (what
                           ^ " relationship must be 1:N (neither end is a \
                              collection)");
                        ])
              in
              back @ kind @ shape)
    in
    missing_supers @ List.concat_map rel_checks i.i_rels

  (* --- hierarchy ----------------------------------------------------------- *)

  (* Cycle detection over a type-level edge relation via DFS colouring. *)
  let find_cycles next nodes =
    let state = Hashtbl.create 16 in
    (* 0 = in progress, 1 = done *)
    let cycles = ref [] in
    let rec visit n =
      match Hashtbl.find_opt state n with
      | Some 0 -> cycles := n :: !cycles
      | Some _ -> ()
      | None ->
          Hashtbl.add state n 0;
          List.iter visit (next n);
          Hashtbl.replace state n 1
    in
    List.iter visit nodes;
    List.sort_uniq compare !cycles

  (* Whole -> part edges of the aggregation graph (declared on the whole). *)
  let part_of_children t name =
    match L.find_interface t name with
    | None -> []
    | Some i ->
        i.i_rels
        |> List.filter (fun r -> role_of_relationship r = Whole_end)
        |> List.map (fun r -> r.rel_target)

  let instance_of_children t name =
    match L.find_interface t name with
    | None -> []
    | Some i ->
        i.i_rels
        |> List.filter (fun r -> role_of_relationship r = Generic_end)
        |> List.map (fun r -> r.rel_target)

  (* Connected components of the undirected ISA graph, used to flag components
     with two or more roots (the paper's single-root assumption). *)
  let isa_components t =
    let nodes = Schema.interface_names (L.schema t) in
    let neighbours n = L.direct_supertypes t n @ L.direct_subtypes t n in
    let seen = Hashtbl.create 16 in
    let component start =
      let rec go acc = function
        | [] -> acc
        | n :: rest ->
            if Hashtbl.mem seen n then go acc rest
            else begin
              Hashtbl.add seen n ();
              go (n :: acc) (neighbours n @ rest)
            end
      in
      go [] [ start ]
    in
    List.filter_map
      (fun n -> if Hashtbl.mem seen n then None else Some (component n))
      nodes

  let hierarchy t =
    let nodes = Schema.interface_names (L.schema t) in
    let isa_cycles =
      find_cycles (L.direct_supertypes t) nodes
      |> List.map (fun n ->
             err Hierarchy n "interface participates in an ISA cycle")
    in
    let part_cycles =
      find_cycles (part_of_children t) nodes
      |> List.map (fun n ->
             err Hierarchy n "interface participates in a part-of cycle")
    in
    let inst_cycles =
      find_cycles (instance_of_children t) nodes
      |> List.map (fun n ->
             err Hierarchy n "interface participates in an instance-of cycle")
    in
    let multi_root =
      if isa_cycles <> [] then []
      else
        isa_components t
        |> List.filter_map (fun comp ->
               match
                 List.filter (fun n -> L.direct_supertypes t n = []) comp
               with
               | _ :: _ :: _ as roots when List.length comp > 1 ->
                   Some
                     (warn Hierarchy
                        (String.concat ", " (List.sort compare roots))
                        "generalization hierarchy has multiple roots; consider \
                         an abstract supertype")
               | _ -> None)
    in
    let branching_chain =
      nodes
      |> List.filter_map (fun n ->
             match instance_of_children t n with
             | _ :: _ :: _ ->
                 Some
                   (warn Hierarchy n
                      "instance-of hierarchy branches at this interface \
                       (chains are expected to be linear)")
             | _ -> None)
    in
    isa_cycles @ part_cycles @ inst_cycles @ multi_root @ branching_chain

  (* --- semantic ------------------------------------------------------------ *)

  (** Duplicate extent names; the only schema-global semantic check. *)
  let semantic_global t =
    (L.schema t).s_interfaces
    |> List.filter_map (fun i -> i.i_extent)
    |> duplicates Fun.id
    |> List.map (fun e -> err Semantic e "duplicate extent name")

  let semantic_interface t i =
    let known_domain d =
      match base_name d with
      | None -> true
      | Some n -> L.mem_interface t n
    in
    let sub s = i.i_name ^ "." ^ s in
    (* the ISA closures are computed at most once, and only when a key,
       operation or attribute needs them *)
    let visible = lazy (L.visible_attrs t i.i_name) in
    let visible_attr n =
      List.exists (fun a -> String.equal a.attr_name n) (Lazy.force visible)
    in
    let key_checks =
      i.i_keys
      |> List.concat_map (fun key ->
             key
             |> List.filter_map (fun a ->
                    if visible_attr a then None
                    else
                      Some
                        (err Semantic (sub a)
                           "key names an attribute not visible on this \
                            interface")))
    in
    let attr_domains =
      i.i_attrs
      |> List.filter_map (fun a ->
             if known_domain a.attr_type then None
             else
               Some
                 (err Semantic (sub a.attr_name)
                    "attribute domain names an unknown type"))
    in
    let op_domains =
      i.i_ops
      |> List.concat_map (fun o ->
             let ret =
               if known_domain o.op_return then []
               else
                 [
                   err Semantic (sub o.op_name)
                     "operation return type names an unknown type";
                 ]
             in
             let args =
               o.op_args
               |> List.filter_map (fun a ->
                      if known_domain a.arg_type then None
                      else
                        Some
                          (err Semantic (sub o.op_name)
                             (Printf.sprintf
                                "argument %s names an unknown type" a.arg_name)))
             in
             ret @ args)
    in
    let order_by_checks =
      i.i_rels
      |> List.concat_map (fun r ->
             match r.rel_order_by with
             | [] -> []  (* nothing to look up on the target *)
             | order_by -> (
                 match L.find_interface t r.rel_target with
                 | None -> []  (* already a structural error *)
                 | Some _ ->
                     let target_attrs = L.visible_attrs t r.rel_target in
                     order_by
                     |> List.filter_map (fun a ->
                            if
                              List.exists
                                (fun ta -> String.equal ta.attr_name a)
                                target_attrs
                            then None
                            else
                              Some
                                (err Semantic (sub r.rel_name)
                                   (Printf.sprintf
                                      "order_by attribute %s is not visible \
                                       on %s"
                                      a r.rel_target)))))
    in
    let supers = lazy (L.ancestors t i.i_name) in
    let override_checks =
      (* a redefinition with a different signature is legal but suspicious *)
      i.i_ops
      |> List.concat_map (fun o ->
             Lazy.force supers
             |> List.filter_map (fun s ->
                    match L.find_interface t s with
                    | None -> None
                    | Some si -> (
                        match Schema.find_op si o.op_name with
                        | Some so
                          when not (equal_domain_type so.op_return o.op_return)
                               || List.map (fun a -> a.arg_type) so.op_args
                                  <> List.map (fun a -> a.arg_type) o.op_args ->
                            Some
                              (warn Semantic (sub o.op_name)
                                 (Printf.sprintf
                                    "overrides %s::%s with a different \
                                     signature"
                                    s o.op_name))
                        | _ -> None)))
    in
    let shadow_checks =
      i.i_attrs
      |> List.concat_map (fun a ->
             Lazy.force supers
             |> List.filter_map (fun s ->
                    match L.find_interface t s with
                    | None -> None
                    | Some si -> (
                        match Schema.find_attr si a.attr_name with
                        | Some sa when not (equal_domain_type sa.attr_type a.attr_type)
                          ->
                            Some
                              (warn Semantic (sub a.attr_name)
                                 (Printf.sprintf
                                    "shadows %s::%s with a different domain" s
                                    a.attr_name))
                        | _ -> None)))
    in
    key_checks @ attr_domains @ op_domains @ order_by_checks @ override_checks
    @ shadow_checks

  (** All diagnostics, in the canonical order: naming first (later categories
      assume the names are at least unique), then structural, hierarchy and
      semantic. *)
  let check t =
    let ifaces = (L.schema t).s_interfaces in
    naming_global t
    @ List.concat_map naming_interface ifaces
    @ List.concat_map (structural_interface t) ifaces
    @ hierarchy t @ semantic_global t
    @ List.concat_map (semantic_interface t) ifaces
end

(* --- the naive backend: direct list scans over the schema ---------------- *)

module Schema_lookup = struct
  type t = schema

  let schema s = s
  let find_interface = Schema.find_interface
  let mem_interface = Schema.mem_interface
  let direct_supertypes = Schema.direct_supertypes
  let direct_subtypes = Schema.direct_subtypes
  let ancestors = Schema.ancestors
  let visible_attrs = Schema.visible_attrs
end

module Naive = Checks (Schema_lookup)

(** All diagnostics for [schema], naming first (later categories assume the
    names are at least unique). *)
let check schema = Naive.check schema

let errors schema = List.filter (fun d -> d.severity = Error) (check schema)
let warnings schema = List.filter (fun d -> d.severity = Warning) (check schema)
let is_valid schema = errors schema = []

(* Exposed for the decomposition algorithms. *)
let part_of_children = Naive.part_of_children
let instance_of_children = Naive.instance_of_children
let isa_components = Naive.isa_components
