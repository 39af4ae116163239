(** QCheck generators for schemas and modification operations. *)

open QCheck2.Gen
open Odl.Types

let ident =
  let* len = int_range 1 8 in
  let* first = char_range 'a' 'z' in
  let* rest = list_size (return (len - 1)) (char_range 'a' 'z') in
  let s = String.init len (fun i -> if i = 0 then first else List.nth rest (i - 1)) in
  if Odl.Names.is_keyword s then return (s ^ "_") else return s

let type_ident = map String.capitalize_ascii ident

let collection_kind = oneofl [ Set; List; Bag; Array ]

let rec domain_type_sized n =
  if n = 0 then oneofl [ D_int; D_float; D_string; D_char; D_boolean ]
  else
    frequency
      [
        (4, oneofl [ D_int; D_float; D_string; D_char; D_boolean ]);
        (2, map (fun t -> D_named t) type_ident);
        (1,
         let* k = collection_kind in
         let* inner = domain_type_sized (n - 1) in
         return (D_collection (k, inner)));
      ]

let domain_type = domain_type_sized 2

let size_opt = opt (int_range 1 200)

(** Parameters for the synthetic schema generator. *)
let synth_params =
  let* n_types = int_range 1 40 in
  let* attrs_per_type = int_range 0 4 in
  let* ops_per_type = int_range 0 2 in
  let* assocs_per_type = int_range 0 3 in
  let* isa_fraction = float_bound_inclusive 0.9 in
  let* part_edges = int_range 0 (max 1 (n_types / 3)) in
  let* instance_chain_length = int_range 0 (min 5 (max 0 (n_types - 1))) in
  let* seed = int_range 0 10_000 in
  return
    {
      Schemas.Synth.n_types;
      attrs_per_type;
      ops_per_type;
      assocs_per_type;
      isa_fraction;
      part_edges;
      instance_chain_length;
      seed;
    }

let synth_schema = map Schemas.Synth.generate synth_params

(** Parameters biased towards deep structure: dense part-of hierarchies and
    long (near schema-spanning) linear instance-of chains.  The general
    [synth_params] rarely produces more than shallow aggregation, so the
    hierarchy-shaped concept schemas — and the index's adjacency maps for
    part-of / instance-of edges — would otherwise go under-exercised. *)
let synth_params_hierarchical =
  let* n_types = int_range 4 30 in
  let* attrs_per_type = int_range 0 3 in
  let* ops_per_type = int_range 0 1 in
  let* assocs_per_type = int_range 0 2 in
  let* isa_fraction = float_bound_inclusive 0.6 in
  let* part_edges = int_range (n_types / 2) n_types in
  let* instance_chain_length = int_range (n_types / 2) (n_types - 1) in
  let* seed = int_range 0 10_000 in
  return
    {
      Schemas.Synth.n_types;
      attrs_per_type;
      ops_per_type;
      assocs_per_type;
      isa_fraction;
      part_edges;
      instance_chain_length;
      seed;
    }

let synth_schema_hierarchical =
  map Schemas.Synth.generate synth_params_hierarchical

(** Any synthetic schema: mostly the general shape, one third with heavy
    part-of / instance-of structure. *)
let any_synth_schema =
  frequency [ (2, synth_schema); (1, synth_schema_hierarchical) ]

(* Rename every interface (and every mention of it) by [f]; [f] must be
   injective so names stay unique. *)
let rename_interfaces f (s : schema) =
  let rec domain = function
    | D_named n -> D_named (f n)
    | D_collection (k, d) -> D_collection (k, domain d)
    | d -> d
  in
  let iface i =
    {
      i with
      i_name = f i.i_name;
      i_supertypes = List.map f i.i_supertypes;
      i_attrs =
        List.map (fun a -> { a with attr_type = domain a.attr_type }) i.i_attrs;
      i_rels = List.map (fun r -> { r with rel_target = f r.rel_target }) i.i_rels;
      i_ops =
        List.map
          (fun o ->
            {
              o with
              op_return = domain o.op_return;
              op_args =
                List.map (fun a -> { a with arg_type = domain a.arg_type }) o.op_args;
            })
          i.i_ops;
    }
  in
  { s with s_interfaces = List.map iface s.s_interfaces }

(** A synthetic schema in which some interfaces carry quoted names
    containing [':'] — among them names that look like concept ids
    (["ww:T3"]), so an id splits at its {e first} colon only. *)
let synth_schema_colon_names =
  let* s = any_synth_schema in
  let* prefixes =
    list_repeat (List.length s.s_interfaces)
      (oneofl [ ""; ""; "ww:"; "gh:"; ":"; "a:b:"; "ih: "; "x\\:" ])
  in
  let table = List.combine (Odl.Schema.interface_names s) prefixes in
  let rename n =
    match List.assoc_opt n table with Some p -> p ^ n | None -> n
  in
  return (rename_interfaces rename s)

let concept_kind =
  oneofl
    Core.Concept.[ Wagon_wheel; Generalization; Aggregation; Instance_chain ]

(* --- arbitrary operations (for parser/printer round trips) -------------- *)

let name_list = list_size (int_range 0 3) ident

let add_rel =
  let* ar_owner = type_ident in
  let* ar_target = type_ident in
  let* ar_card = opt collection_kind in
  let* ar_name = ident in
  let* ar_inverse = ident in
  let* ar_order_by = name_list in
  return { Core.Modop.ar_owner; ar_target; ar_card; ar_name; ar_inverse; ar_order_by }

let argument =
  let* arg_type = domain_type in
  let* arg_name = ident in
  return { arg_name; arg_type }

let arg_list = list_size (int_range 0 3) argument

let modop : Core.Modop.t t =
  let open Core.Modop in
  let t2 f = map2 f type_ident ident in
  oneof
    [
      map (fun n -> Add_type_definition n) type_ident;
      map (fun n -> Delete_type_definition n) type_ident;
      map2 (fun n s -> Add_supertype (n, s)) type_ident type_ident;
      map2 (fun n s -> Delete_supertype (n, s)) type_ident type_ident;
      map3
        (fun n o w -> Modify_supertype (n, o, w))
        type_ident
        (list_size (int_range 0 3) type_ident)
        (list_size (int_range 0 3) type_ident);
      t2 (fun n e -> Add_extent_name (n, e));
      t2 (fun n e -> Delete_extent_name (n, e));
      map3 (fun n o w -> Modify_extent_name (n, o, w)) type_ident ident ident;
      map2 (fun n k -> Add_key_list (n, k)) type_ident name_list;
      map2 (fun n k -> Delete_key_list (n, k)) type_ident name_list;
      map3 (fun n o w -> Modify_key_list (n, o, w)) type_ident name_list name_list;
      (let* n = type_ident and* d = domain_type and* s = size_opt and* a = ident in
       return (Add_attribute (n, d, s, a)));
      t2 (fun n a -> Delete_attribute (n, a));
      map3 (fun n a n' -> Modify_attribute (n, a, n')) type_ident ident type_ident;
      (let* n = type_ident and* a = ident and* o = domain_type and* w = domain_type in
       return (Modify_attribute_type (n, a, o, w)));
      (let* n = type_ident and* a = ident and* o = size_opt and* w = size_opt in
       return (Modify_attribute_size (n, a, o, w)));
      map (fun ar -> Add_relationship ar) add_rel;
      t2 (fun n p -> Delete_relationship (n, p));
      (let* n = type_ident and* p = ident and* o = type_ident and* w = type_ident in
       return (Modify_relationship_target_type (n, p, o, w)));
      (let* n = type_ident
       and* p = ident
       and* o = opt collection_kind
       and* w = opt collection_kind in
       return (Modify_relationship_cardinality (n, p, o, w)));
      (let* n = type_ident and* p = ident and* o = name_list and* w = name_list in
       return (Modify_relationship_order_by (n, p, o, w)));
      (let* n = type_ident
       and* ret = domain_type
       and* o = ident
       and* args = arg_list
       and* raises = name_list in
       return (Add_operation (n, ret, o, args, raises)));
      t2 (fun n o -> Delete_operation (n, o));
      map3 (fun n o n' -> Modify_operation (n, o, n')) type_ident ident type_ident;
      (let* n = type_ident and* o = ident and* ot = domain_type and* nt = domain_type in
       return (Modify_operation_return_type (n, o, ot, nt)));
      (let* n = type_ident and* o = ident and* oa = arg_list and* na = arg_list in
       return (Modify_operation_arg_list (n, o, oa, na)));
      (let* n = type_ident and* o = ident and* oe = name_list and* ne = name_list in
       return (Modify_operation_exceptions_raised (n, o, oe, ne)));
      map (fun ar -> Add_part_of_relationship ar) add_rel;
      t2 (fun n p -> Delete_part_of_relationship (n, p));
      (let* n = type_ident and* p = ident and* o = type_ident and* w = type_ident in
       return (Modify_part_of_target_type (n, p, o, w)));
      (let* n = type_ident and* p = ident and* o = collection_kind and* w = collection_kind in
       return (Modify_part_of_cardinality (n, p, o, w)));
      (let* n = type_ident and* p = ident and* o = name_list and* w = name_list in
       return (Modify_part_of_order_by (n, p, o, w)));
      map (fun ar -> Add_instance_of_relationship ar) add_rel;
      t2 (fun n p -> Delete_instance_of_relationship (n, p));
      (let* n = type_ident and* p = ident and* o = type_ident and* w = type_ident in
       return (Modify_instance_of_target_type (n, p, o, w)));
      (let* n = type_ident and* p = ident and* o = collection_kind and* w = collection_kind in
       return (Modify_instance_of_cardinality (n, p, o, w)));
      (let* n = type_ident and* p = ident and* o = name_list and* w = name_list in
       return (Modify_instance_of_order_by (n, p, o, w)));
    ]

(* --- pathological names (for persistence round trips) ------------------- *)

(** Names that stress the journal's line discipline: embedded newlines,
    leading comment markers, concept tags, quotes, backslashes, separators —
    everything that once could corrupt an op-log line.  Such names are only
    representable as quoted identifiers, so the generator guarantees
    [Odl.Names.needs_quoting]. *)
let pathological_name =
  let nasty_char =
    oneofl
      [ '\n'; '\r'; '\t'; ' '; '"'; '\\'; '/'; '@'; ';'; '('; ')'; ':'; ',' ]
  in
  let* prefix = oneofl [ ""; "//"; "@ww "; "@undo"; "\"" ] in
  let* chars =
    list_size (int_range 1 8)
      (frequency [ (2, char_range 'a' 'z'); (3, nasty_char) ])
  in
  let s = prefix ^ String.concat "" (List.map (String.make 1) chars) in
  return (if Odl.Names.needs_quoting s then s else s ^ "!")

(** Operations whose every name position is pathological: a representative
    subset of constructors covering the printer's name holes (targets,
    members, name lists, relationship records, operation signatures, named
    domains). *)
let pathological_op : Core.Modop.t t =
  let open Core.Modop in
  let name = pathological_name in
  let names n = list_size (int_range 0 n) name in
  let named_domain = map (fun t -> D_named t) name in
  oneof
    [
      map (fun n -> Add_type_definition n) name;
      map (fun n -> Delete_type_definition n) name;
      map2 (fun n s -> Add_supertype (n, s)) name name;
      map3 (fun n o w -> Modify_supertype (n, o, w)) name (names 2) (names 2);
      map2 (fun n e -> Add_extent_name (n, e)) name name;
      map2 (fun n k -> Add_key_list (n, k)) name (list_size (int_range 1 3) name);
      map3 (fun n o w -> Modify_key_list (n, o, w)) name (names 2) (names 2);
      (let* n = name and* d = named_domain and* s = size_opt and* a = name in
       return (Add_attribute (n, d, s, a)));
      map2 (fun n a -> Delete_attribute (n, a)) name name;
      (let* ar_owner = name
       and* ar_target = name
       and* ar_card = opt collection_kind
       and* ar_name = name
       and* ar_inverse = name
       and* ar_order_by = names 2 in
       return
         (Add_relationship
            { ar_owner; ar_target; ar_card; ar_name; ar_inverse; ar_order_by }));
      (let* n = name
       and* ret = named_domain
       and* o = name
       and* args =
         list_size (int_range 0 2)
           (let* arg_type = named_domain and* arg_name = name in
            return { arg_name; arg_type })
       and* raises = names 2 in
       return (Add_operation (n, ret, o, args, raises)));
      (let* n = name and* p = name and* o = name and* w = name in
       return (Modify_part_of_target_type (n, p, o, w)));
    ]

(** Ops for persistence round trips: plain names, pathological names, and a
    mix inside one log. *)
let roundtrip_op = frequency [ (3, modop); (2, pathological_op) ]

(* --- plausible operations against a concrete schema --------------------- *)

(** Operations whose names mostly refer to constructs that actually exist in
    [schema]: a workload for exercising the application engine's accept and
    reject paths alike. *)
let plausible_op schema : Core.Modop.t t =
  let interfaces = Odl.Schema.interface_names schema in
  let pick_type =
    if interfaces = [] then type_ident
    else frequency [ (9, oneofl interfaces); (1, type_ident) ]
  in
  let pick_attr_of n =
    match Odl.Schema.find_interface schema n with
    | Some i when i.i_attrs <> [] ->
        frequency
          [ (9, oneofl (List.map (fun a -> a.attr_name) i.i_attrs)); (1, ident) ]
    | _ -> ident
  in
  let pick_rel_of n =
    match Odl.Schema.find_interface schema n with
    | Some i when i.i_rels <> [] ->
        frequency
          [ (9, oneofl (List.map (fun r -> r.rel_name) i.i_rels)); (1, ident) ]
    | _ -> ident
  in
  let pick_op_of n =
    match Odl.Schema.find_interface schema n with
    | Some i when i.i_ops <> [] ->
        frequency
          [ (9, oneofl (List.map (fun o -> o.op_name) i.i_ops)); (1, ident) ]
    | _ -> ident
  in
  let open Core.Modop in
  let* n = pick_type in
  oneof
    [
      map (fun t -> Add_type_definition t) type_ident;
      return (Delete_type_definition n);
      map (fun s -> Add_supertype (n, s)) pick_type;
      map (fun s -> Delete_supertype (n, s)) pick_type;
      (let* d = domain_type_sized 0 and* s = size_opt and* a = ident in
       return (Add_attribute (n, d, s, a)));
      map (fun a -> Delete_attribute (n, a)) (pick_attr_of n);
      (let* a = pick_attr_of n and* n' = pick_type in
       return (Modify_attribute (n, a, n')));
      map (fun p -> Delete_relationship (n, p)) (pick_rel_of n);
      (let* p = pick_rel_of n and* o = pick_type and* w = pick_type in
       return (Modify_relationship_target_type (n, p, o, w)));
      (let* target = pick_type
       and* card = opt collection_kind
       and* name = ident
       and* inv = ident in
       return
         (Add_relationship
            {
              ar_owner = n;
              ar_target = target;
              ar_card = card;
              ar_name = name;
              ar_inverse = inv;
              ar_order_by = [];
            }));
      (let* target = pick_type and* name = ident and* inv = ident in
       return
         (Add_part_of_relationship
            {
              ar_owner = n;
              ar_target = target;
              ar_card = Some Set;
              ar_name = name;
              ar_inverse = inv;
              ar_order_by = [];
            }));
      map (fun p -> Delete_part_of_relationship (n, p)) (pick_rel_of n);
      (let* target = pick_type and* name = ident and* inv = ident in
       return
         (Add_instance_of_relationship
            {
              ar_owner = n;
              ar_target = target;
              ar_card = Some Set;
              ar_name = name;
              ar_inverse = inv;
              ar_order_by = [];
            }));
      map (fun o -> Delete_operation (n, o)) (pick_op_of n);
      (let* o = pick_op_of n and* n' = pick_type in
       return (Modify_operation (n, o, n')));
      map (fun e -> Add_extent_name (n, e)) ident;
      map (fun k -> Add_key_list (n, k)) (list_size (int_range 1 2) (pick_attr_of n));
      (let* e = ident and* e' = ident in
       return (Modify_extent_name (n, e, e')));
      map (fun e -> Delete_extent_name (n, e)) ident;
      (let* old_k = list_size (int_range 1 2) (pick_attr_of n)
       and* new_k = list_size (int_range 1 2) (pick_attr_of n) in
       return (Modify_key_list (n, old_k, new_k)));
      map (fun k -> Delete_key_list (n, k)) (list_size (int_range 1 2) (pick_attr_of n));
      (let* a = pick_attr_of n and* o = domain_type_sized 0 and* w = domain_type_sized 0 in
       return (Modify_attribute_type (n, a, o, w)));
      (let* a = pick_attr_of n and* o = size_opt and* w = size_opt in
       return (Modify_attribute_size (n, a, o, w)));
      (let* p = pick_rel_of n
       and* o = opt collection_kind
       and* w = opt collection_kind in
       return (Modify_relationship_cardinality (n, p, o, w)));
      (let* p = pick_rel_of n
       and* old_l = list_size (int_range 0 1) (pick_attr_of n)
       and* new_l = list_size (int_range 0 1) (pick_attr_of n) in
       return (Modify_relationship_order_by (n, p, old_l, new_l)));
      (let* p = pick_rel_of n and* o = collection_kind and* w = collection_kind in
       return (Modify_part_of_cardinality (n, p, o, w)));
      (let* p = pick_rel_of n and* o = collection_kind and* w = collection_kind in
       return (Modify_instance_of_cardinality (n, p, o, w)));
      (let* p = pick_rel_of n
       and* old_l = list_size (int_range 0 1) (pick_attr_of n)
       and* new_l = list_size (int_range 0 1) (pick_attr_of n) in
       return (Modify_part_of_order_by (n, p, old_l, new_l)));
      (let* p = pick_rel_of n
       and* old_l = list_size (int_range 0 1) (pick_attr_of n)
       and* new_l = list_size (int_range 0 1) (pick_attr_of n) in
       return (Modify_instance_of_order_by (n, p, old_l, new_l)));
      (let* p = pick_rel_of n and* o = pick_type and* w = pick_type in
       return (Modify_part_of_target_type (n, p, o, w)));
      (let* p = pick_rel_of n and* o = pick_type and* w = pick_type in
       return (Modify_instance_of_target_type (n, p, o, w)));
      map (fun p -> Delete_instance_of_relationship (n, p)) (pick_rel_of n);
      (let* ret = domain_type_sized 0 and* name = ident in
       return (Add_operation (n, ret, name, [], [])));
      (let* o = pick_op_of n and* ot = domain_type_sized 0 and* nt = domain_type_sized 0 in
       return (Modify_operation_return_type (n, o, ot, nt)));
      (let* o = pick_op_of n and* ne = name_list in
       return (Modify_operation_exceptions_raised (n, o, [], ne)));
      (let* olds = list_size (int_range 0 2) pick_type
       and* news = list_size (int_range 0 2) pick_type in
       return (Modify_supertype (n, olds, news)));
    ]

(* --- operation workloads ------------------------------------------------- *)

(** A sequence of up to [max_len] (concept kind, plausible op) steps against
    [schema].  Built from [list_size] over element generators, so QCheck2
    shrinks a failing case by dropping steps and simplifying the survivors. *)
let op_sequence ?(max_len = 10) schema =
  list_size (int_range 0 max_len) (pair concept_kind (plausible_op schema))

(** A synthetic schema together with an operation workload against it — the
    shared input shape of the differential and fuzz suites. *)
let schema_and_ops =
  let* schema = any_synth_schema in
  let* ops = op_sequence schema in
  return (schema, ops)

(** Like {!schema_and_ops}, but half the schemas carry colon names
    ({!synth_schema_colon_names}), which the workload then targets. *)
let colon_schema_and_ops =
  let* schema =
    frequency [ (1, any_synth_schema); (1, synth_schema_colon_names) ]
  in
  let* ops = op_sequence schema in
  return (schema, ops)

(** [s] with about a third of its attributes re-typed to a named domain,
    plain or set-valued, over one of its own interfaces: domain uses, which
    synthetic schemas and {!plausible_op} never create.  Deterministic in
    [seed]. *)
let with_named_domains seed (s : schema) =
  let names = Array.of_list (Odl.Schema.interface_names s) in
  let rng = Random.State.make [| seed |] in
  let retype a =
    if Array.length names = 0 || Random.State.int rng 3 <> 0 then a
    else
      let d = D_named names.(Random.State.int rng (Array.length names)) in
      {
        a with
        attr_type = (if Random.State.bool rng then d else D_collection (Set, d));
        attr_size = None;
      }
  in
  {
    s with
    s_interfaces =
      List.map (fun i -> { i with i_attrs = List.map retype i.i_attrs }) s.s_interfaces;
  }
