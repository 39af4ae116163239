(** The indexed schema backend: O(log n) lookups, adjacency maps and
    incremental, dirty-set consistency checking.

    A value of type {!t} carries, alongside the schema itself:

    - [by_name] — name → (interface record, declaration position);
    - [subs] — supertype name → set of interfaces declaring it (the reverse
      ISA adjacency; keys may be dangling names);
    - [mentions] — name → set of interfaces whose definition mentions it
      anywhere (supertype list, relationship target, attribute domain,
      operation signature).  This is the reverse dependency relation the
      dirty-set is computed from;
    - a per-interface diagnostics cache, the {e findings} set of interfaces
      whose cached diagnostics are non-empty, the {e pending} set of
      interfaces whose cache entries an update invalidated, and a cache of
      the schema-global check results;
    - a change {e journal}: the names each update touched since {!build},
      newest first, sharing its tail with the parent version's journal,
      and a [clock] counting its length from the build's interface
      count.

    The index is {e persistent}: updates return a new value and old values
    stay usable, which is what lets {!Session} implement undo by keeping
    old index versions.  For that reason the maps are balanced trees
    ([Map.Make (String)]) rather than mutable hashtables — a hashtable
    would be shared across versions and corrupted by divergence (the
    check-state fields are mutable, but they are {e per-version} fields
    holding persistent values, so mutation is only ever memoization).

    Incrementality: when interface [x] changes, the set of interfaces whose
    per-interface check results (or propagation-rule firings) can change is

    {v affected(x) = B ∪ ⋃ {mentions(b) | b ∈ B}   where B = {x} ∪ descendants(x) v}

    — descendants because inherited visibility flows down the ISA graph,
    mentions because every cross-interface check first names the interface
    it depends on.  {!update_interface} adds exactly that neighbourhood to
    the pending set, so a later {!diagnostics} re-checks O(degree)
    interfaces and assembles its answer from the findings set —
    O(dirty + findings), not O(schema), whenever the global block below
    survives the update.  A freshly built index is {e cold}: its first
    {!diagnostics} walks every interface once.
    The schema-global checks (duplicate names, hierarchy shape, duplicate
    extents) are cached as a block and invalidated only by updates that
    touch names, supertypes, relationships or extents.

    Degenerate schemas with duplicate interface names (always an error, and
    rejected by {!Session.create}) are handled by falling back to a full
    rebuild on update and an uncached full check, so {!diagnostics} still
    equals the naive checker's output exactly. *)

open Odl.Types
module Schema = Odl.Schema
module Validate = Odl.Validate
module SMap = Map.Make (String)
module SSet = Set.Make (String)
module IMap = Map.Make (Int)

type iface_diags = {
  d_naming : Validate.diagnostic list;
  d_structural : Validate.diagnostic list;
  d_semantic : Validate.diagnostic list;
}

type global_diags = {
  g_naming : Validate.diagnostic list;
  g_hierarchy : Validate.diagnostic list;
  g_extents : Validate.diagnostic list;
}

(* The findings — declaration position → name of the interfaces whose
   cached diagnostics are non-empty — and which cache entries may be stale.
   [Clean f]: none.  [Dirty (f, p)]: those of the names in [p]; every other
   existing interface has a valid cache entry and is in [f] iff that entry
   is non-empty.  [Cold]: all of them (a fresh build, or a version derived
   from a cold one). *)
type check =
  | Clean of type_name IMap.t
  | Dirty of type_name IMap.t * SSet.t
  | Cold

(* Allocated once per [build]: versions share it iff they descend from the
   same build.  It carries the one build-time fact that never changes in a
   lineage — every update of a version with duplicated names rebuilds. *)
type origin = { dups : bool }

type t = {
  sch : schema;
  by_name : (interface * int) SMap.t;
      (** position = declaration order; not contiguous *)
  subs : SSet.t SMap.t;
  mentions : SSet.t SMap.t;
  origin : origin;
  clock : int;
      (** the build's interface count plus one per update since: the
          position the next added interface takes, and [clock] minus
          [List.length journal] is the same for every version of a build *)
  journal : type_name list;
      (** the names the updates since [build] touched, newest first; each
          update conses onto its parent's, so two versions of one build
          share their last common version's journal physically *)
  mutable cache : iface_diags SMap.t;
  mutable check : check;
  mutable g_cache : global_diags option;
}

let has_dups t = t.origin.dups

(* --- reverse-reference maintenance -------------------------------------- *)

let multi_add key v m =
  SMap.update key
    (function None -> Some (SSet.singleton v) | Some s -> Some (SSet.add v s))
    m

let multi_remove key v m =
  SMap.update key
    (function
      | None -> None
      | Some s ->
          let s = SSet.remove v s in
          if SSet.is_empty s then None else Some s)
    m

let index_refs name i (subs, mentions) =
  let subs = List.fold_left (fun m s -> multi_add s name m) subs i.i_supertypes in
  let mentions =
    List.fold_left
      (fun acc m -> multi_add m name acc)
      mentions (Schema.mentioned_names i)
  in
  (subs, mentions)

let deindex_refs name i (subs, mentions) =
  let subs =
    List.fold_left (fun m s -> multi_remove s name m) subs i.i_supertypes
  in
  let mentions =
    List.fold_left
      (fun acc m -> multi_remove m name acc)
      mentions (Schema.mentioned_names i)
  in
  (subs, mentions)

let build sch =
  let by_name, subs, mentions, clock, dups =
    List.fold_left
      (fun (by, subs, mentions, pos, dups) i ->
        let dups = dups || SMap.mem i.i_name by in
        let by =
          if SMap.mem i.i_name by then by else SMap.add i.i_name (i, pos) by
        in
        let subs, mentions = index_refs i.i_name i (subs, mentions) in
        (by, subs, mentions, pos + 1, dups))
      (SMap.empty, SMap.empty, SMap.empty, 0, false)
      sch.s_interfaces
  in
  {
    sch;
    by_name;
    subs;
    mentions;
    origin = { dups };
    clock;
    journal = [];
    cache = SMap.empty;
    check = Cold;
    g_cache = None;
  }

(* --- queries -------------------------------------------------------------

   Each must answer exactly as the corresponding [Odl.Schema] scan does,
   including result order; the traversal code below mirrors the naive
   algorithms with the list scans replaced by map lookups. *)

let schema t = t.sch
let find_interface t n = Option.map fst (SMap.find_opt n t.by_name)
let find_positioned t n = SMap.find_opt n t.by_name
let mem_interface t n = SMap.mem n t.by_name

let get_interface t n =
  match find_interface t n with
  | Some i -> i
  | None -> raise (Schema.Unknown_interface n)

let interface_names t = List.map (fun i -> i.i_name) t.sch.s_interfaces

let pos_of t n =
  match SMap.find_opt n t.by_name with Some (_, p) -> p | None -> max_int

let in_declaration_order t names =
  List.sort (fun a b -> compare (pos_of t a) (pos_of t b)) names

let direct_supertypes t n =
  match find_interface t n with
  | None -> []
  | Some i -> List.filter (mem_interface t) i.i_supertypes

let direct_subtypes t n =
  match SMap.find_opt n t.subs with
  | None -> []
  | Some s -> in_declaration_order t (SSet.elements s)

(* The naive closure's visit order, with a set for the visited test. *)
let closure next frontier =
  let rec go seen visited = function
    | [] -> List.rev visited
    | n :: rest ->
        if SSet.mem n seen then go seen visited rest
        else go (SSet.add n seen) (n :: visited) (next n @ rest)
  in
  go SSet.empty [] frontier

let ancestors t n = closure (direct_supertypes t) (direct_supertypes t n)
let descendants t n = closure (direct_subtypes t) (direct_subtypes t n)

let same_isa_line t a b =
  String.equal a b || List.mem b (ancestors t a) || List.mem b (descendants t a)

let declares_no_supertype t i =
  not (List.exists (mem_interface t) i.i_supertypes)

let isa_roots t =
  t.sch.s_interfaces
  |> List.filter (declares_no_supertype t)
  |> List.map (fun i -> i.i_name)

let is_isa_root t n =
  if has_dups t then
    (* a later record of a duplicated name may be the root *)
    List.exists
      (fun i -> String.equal i.i_name n && declares_no_supertype t i)
      t.sch.s_interfaces
  else
    match find_interface t n with
    | Some i -> declares_no_supertype t i
    | None -> false

let topo_ancestors t name = List.rev (name :: ancestors t name)

let dedup_by key xs =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun x ->
      let k = key x in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    xs

let visible_attrs t name =
  topo_ancestors t name
  |> List.concat_map (fun n ->
         match find_interface t n with None -> [] | Some i -> i.i_attrs)
  |> List.rev
  |> dedup_by (fun a -> a.attr_name)
  |> List.rev

let referrers t name =
  (match SMap.find_opt name t.mentions with
  | None -> []
  | Some owners -> in_declaration_order t (SSet.elements owners))
  |> List.filter_map (find_interface t)

let relationships_targeting t name =
  referrers t name
  |> List.concat_map (fun owner ->
         owner.i_rels
         |> List.filter (fun r -> String.equal r.rel_target name)
         |> List.map (fun r -> (owner, r)))

(* --- the dirty neighbourhood --------------------------------------------- *)

(* [seeds] plus all their transitive subtypes, as a set (order irrelevant
   here).  Walks [subs] directly so it also works for just-removed names. *)
let desc_set t seeds =
  let rec go visited = function
    | [] -> visited
    | n :: rest ->
        if SSet.mem n visited then go visited rest
        else
          let subs =
            match SMap.find_opt n t.subs with
            | None -> []
            | Some s -> SSet.elements s
          in
          go (SSet.add n visited) (subs @ rest)
  in
  go SSet.empty seeds

let dirty_closure t names =
  let b = desc_set t names in
  SSet.fold
    (fun n acc ->
      match SMap.find_opt n t.mentions with
      | None -> acc
      | Some refs -> SSet.union refs acc)
    b b

let affected_by t names =
  dirty_closure t names |> SSet.elements
  |> List.filter (mem_interface t)
  |> in_declaration_order t

(* --- updates -------------------------------------------------------------

   The dirty set is computed on the pre-update index; it is invariant under
   the update itself ([subs] entries reachable from the changed name and the
   [mentions] of that region only ever change in ways already covered by the
   seed), so pre- and post-computation agree. *)

(* A child version's check state: the parent's, with the dirty
   neighbourhood added to the pending names.  The child starts from the
   parent's cache, read after this: {!diagnostics} may be warming the
   parent concurrently, and it writes [check] last. *)
let inherit_check t dirty =
  match t.check with
  | Cold -> Cold
  | Clean f -> Dirty (f, dirty)
  | Dirty (f, p) -> Dirty (f, SSet.union p dirty)

(* Schema-global checks survive an interface update that leaves names,
   supertype links, relationship ends and extents untouched. *)
let globals_survive old_i new_i =
  old_i.i_supertypes = new_i.i_supertypes
  && old_i.i_rels = new_i.i_rels
  && old_i.i_extent = new_i.i_extent

let update_interface t name f =
  match SMap.find_opt name t.by_name with
  | None -> raise (Schema.Unknown_interface name)
  | Some (old_i, p) ->
      let new_i = f old_i in
      if has_dups t || not (String.equal new_i.i_name name) then
        (* rename or duplicated names: rare, degenerate — rebuild *)
        build (Schema.update_interface t.sch name f)
      else
        let check = inherit_check t (dirty_closure t [ name ]) in
        let refs = deindex_refs name old_i (t.subs, t.mentions) in
        let subs, mentions = index_refs name new_i refs in
        {
          t with
          sch = Schema.update_interface t.sch name (fun _ -> new_i);
          by_name = SMap.add name (new_i, p) t.by_name;
          subs;
          mentions;
          clock = t.clock + 1;
          journal = name :: t.journal;
          cache = t.cache;
          check;
          g_cache =
            (if globals_survive old_i new_i then t.g_cache else None);
        }

let add_interface t i =
  let name = i.i_name in
  if has_dups t || SMap.mem name t.by_name then
    build (Schema.add_interface t.sch i)
  else
    let check = inherit_check t (dirty_closure t [ name ]) in
    let subs, mentions = index_refs name i (t.subs, t.mentions) in
    {
      t with
      sch = Schema.add_interface t.sch i;
      by_name = SMap.add name (i, t.clock) t.by_name;
      subs;
      mentions;
      clock = t.clock + 1;
      journal = name :: t.journal;
      cache = t.cache;
      check;
      g_cache = None;
    }

let remove_interface t name =
  if has_dups t then build (Schema.remove_interface t.sch name)
  else
    match SMap.find_opt name t.by_name with
    | None -> t  (* naive removal of an absent name is a no-op *)
    | Some (old_i, p) ->
        let check =
          (* the removed name's position leaves the findings with it: a
             later re-check can no longer look the position up *)
          match inherit_check t (dirty_closure t [ name ]) with
          | Dirty (f, d) -> Dirty (IMap.remove p f, d)
          | check -> check
        in
        let subs, mentions = deindex_refs name old_i (t.subs, t.mentions) in
        {
          t with
          sch = Schema.remove_interface t.sch name;
          by_name = SMap.remove name t.by_name;
          subs;
          mentions;
          clock = t.clock + 1;
          journal = name :: t.journal;
          cache = SMap.remove name t.cache;
          check;
          g_cache = None;
        }

(* --- version deltas ------------------------------------------------------ *)

(* The brute-force answer: every name whose [by_name] entry is not
   physically shared between the two versions.  Only versions of different
   builds need it. *)
let changed_by_fold a b =
  let s =
    SMap.fold
      (fun n (ia, _) acc ->
        match SMap.find_opt n b.by_name with
        | Some (ib, _) when ia == ib -> acc
        | _ -> SSet.add n acc)
      a.by_name SSet.empty
  in
  SMap.fold
    (fun n _ acc -> if SMap.mem n a.by_name then acc else SSet.add n acc)
    b.by_name s
  |> SSet.elements

(* The names journalled by either of two versions of one build since their
   last common version: align the journals by length (the clocks differ by
   exactly that), then step both back until they meet physically. *)
let since_common a b =
  let rec drop k j acc =
    match j with
    | n :: rest when k > 0 -> drop (k - 1) rest (n :: acc)
    | _ -> (j, acc)
  in
  let ja, acc = drop (a.clock - b.clock) a.journal [] in
  let jb, acc = drop (b.clock - a.clock) b.journal acc in
  let rec sync ja jb acc =
    match (ja, jb) with
    | x :: ja', y :: jb' when ja != jb -> sync ja' jb' (x :: y :: acc)
    | _ -> acc
  in
  sync ja jb acc

(* An update replaces only its own name's [by_name] entry, so every entry
   that differs between two versions of one build belongs to a name some
   update since their last common version journalled.  Filtering those
   candidates with the fold's pointer test gives exactly the fold's answer
   in O(changed · log n).  A no-op update that returns the old record
   unchanged compares equal and is (correctly) not reported. *)
let changed_names a b =
  if a.sch == b.sch then []
  else if a.origin != b.origin then changed_by_fold a b
  else
    let differs n =
      match (SMap.find_opt n a.by_name, SMap.find_opt n b.by_name) with
      | Some (ia, _), Some (ib, _) -> ia != ib
      | None, None -> false
      | _ -> true
    in
    List.sort_uniq String.compare (since_common a b) |> List.filter differs

(* --- incremental consistency checking ------------------------------------ *)

module Lookup = struct
  type nonrec t = t

  let schema = schema
  let find_interface = find_interface
  let mem_interface = mem_interface
  let direct_supertypes = direct_supertypes
  let direct_subtypes = direct_subtypes
  let ancestors = ancestors
  let visible_attrs = visible_attrs
end

module C = Validate.Checks (Lookup)

let globals t =
  match t.g_cache with
  | Some g -> g
  | None ->
      let g =
        {
          g_naming = C.naming_global t;
          g_hierarchy = C.hierarchy t;
          g_extents = C.semantic_global t;
        }
      in
      t.g_cache <- Some g;
      g

let interface_diags t i =
  {
    d_naming = C.naming_interface i;
    d_structural = C.structural_interface t i;
    d_semantic = C.semantic_interface t i;
  }

(* Re-check [name] and bring its cache entry and findings membership up to
   date.  An unchanged result keeps the old entry, so a version whose
   re-checks all come out as before shares its parent's cache whole. *)
let recheck t (cache, findings) name =
  match SMap.find_opt name t.by_name with
  | None -> (cache, findings)
  | Some (i, pos) ->
      let d = interface_diags t i in
      let cache =
        match SMap.find_opt name cache with
        | Some old when old = d -> cache
        | _ -> SMap.add name d cache
      in
      let clean =
        d.d_naming = [] && d.d_structural = [] && d.d_semantic = []
      in
      ( cache,
        if clean then IMap.remove pos findings else IMap.add pos name findings
      )

(* Every warm version without per-interface findings shares this value. *)
let clean_empty = Clean IMap.empty

(* The per-interface results that are non-empty, in declaration order.  The
   cache is written back before [check], and [check] is read first: a
   reader racing a warm-up on a shared published version sees either the
   old pending names (and re-checks them into an equal state) or the new,
   complete state. *)
let interface_findings t =
  let check = t.check in
  let cache, findings =
    match check with
    | Clean f -> (t.cache, f)
    | Dirty (f, names) ->
        SSet.fold (fun n acc -> recheck t acc n) names (t.cache, f)
    | Cold ->
        List.fold_left
          (fun acc i -> recheck t acc i.i_name)
          (t.cache, IMap.empty) t.sch.s_interfaces
  in
  (match check with
  | Clean _ -> ()
  | Dirty _ | Cold ->
      t.cache <- cache;
      t.check <-
        (if IMap.is_empty findings then clean_empty else Clean findings));
  List.map (fun (_, n) -> SMap.find n cache) (IMap.bindings findings)

let diagnostics t =
  let g = globals t in
  let per =
    (* duplicated names share one cache slot: check each record afresh,
       exactly as the naive checker does *)
    if has_dups t then List.map (interface_diags t) t.sch.s_interfaces
    else interface_findings t
  in
  g.g_naming
  @ List.concat_map (fun d -> d.d_naming) per
  @ List.concat_map (fun d -> d.d_structural) per
  @ g.g_hierarchy @ g.g_extents
  @ List.concat_map (fun d -> d.d_semantic) per

let errors t =
  List.filter
    (fun (d : Validate.diagnostic) -> d.severity = Validate.Error)
    (diagnostics t)

let is_valid t = errors t = []
