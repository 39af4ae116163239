(** Materialized, incrementally maintained query views over one variant.

    A view is an immutable value carrying everything the evaluator reads:

    - per-interface entries — declared attribute names, transitive ISA
      ancestor/descendant sets, transitive part-of whole/part sets, and the
      materialized {!Core.Decompose} wagon wheel;
    - an attribute-name → declaring-interfaces index;
    - a bounded, newest-first history of (publication stamp, rendered op)
      pairs feeding [diff] queries.

    Views are published epoch-stamped alongside the snapshot (see
    {!Service_query} in the server): the writer {!refresh}es after each
    committed operation, so a query never recomputes closures or wheels per
    request.  {!refresh} is incremental in the size of the change, not the
    schema: the dirty seed is {!Core.Schema_index.changed_names} (the
    names both index versions journalled since their last common version,
    O(changed · log n) within one build; the O(n) pointer fold only across
    builds, such as a rename), split in two kinds.  A {e light} seed exists
    in both versions at the same declaration position with equal
    supertypes and relationships — an attribute, operation, key or extent
    edit: it keeps its old row's closures and wheel (physically), and only
    its attribute names and their index entries change.  A {e structural}
    seed is widened to every interface whose materialized row can react —
    the seed's old and new closure neighbourhoods — and only those rows are
    recomputed; a light seed inside that set is recomputed with them.  The
    position matters because it orders subtypes and incoming edges in the
    wheels that mention the interface: a name deleted and re-added with the
    same edges moves to the end, so it is structural.  The
    equivalence [refresh* ≡ build] is the subsystem's correctness
    foundation, differentially tested by property (500+ generated op
    sequences) exactly like the PR 1 index-vs-naive checker. *)

module SMap = Map.Make (String)
module SSet = Set.Make (String)
module Si = Core.Schema_index
module D = Core.Decompose.Indexed
open Odl.Types

type entry = {
  e_attrs : string list;  (** declared attribute names, declaration order *)
  e_anc : SSet.t;  (** transitive ISA ancestors *)
  e_desc : SSet.t;  (** transitive ISA descendants *)
  e_wholes : SSet.t;  (** transitive part-of wholes this type belongs to *)
  e_parts : SSet.t;  (** transitive parts under this type *)
  e_wheel : Core.Concept.t;  (** materialized wagon wheel *)
}

type t = {
  v_stamp : int;  (** publication stamp this view reflects *)
  v_index : Si.t;  (** the index version the entries were computed from *)
  v_steps : Core.Session.step list;  (** captured [steps_rev] spine *)
  v_nsteps : int;
  v_entries : entry SMap.t;
  v_attrs : SSet.t SMap.t;  (** attribute name → declaring interfaces *)
  v_history : (int * string) list;  (** newest first; feeds [diff] *)
  v_floor : int;  (** stamps ≤ this have no retained history *)
  v_refreshes : int;  (** incremental refreshes since [build] *)
  v_lineage : (string * int) option;
      (** the variant's (parent, fork stamp) manifest record, cached at
          build time; feeds the [lineage] atom *)
}

let max_history = 512

let stamp v = v.v_stamp
let floor_stamp v = v.v_floor
let lineage v = v.v_lineage
let refresh_count v = v.v_refreshes
let interface_count v = SMap.cardinal v.v_entries
let find_entry v name = SMap.find_opt name v.v_entries
let entries v = v.v_entries
let attr_index v = v.v_attrs

(* --- part-of adjacency ----------------------------------------------------

   A part-of edge is declared on either end ({!Odl.Types.role_of_relationship}):
   the whole holds a collection of parts ([Whole_end], target = part) or the
   part points at its whole ([Part_end], target = whole).  Both directions
   are walked through the index — forward via the owner's own rels, backward
   via [relationships_targeting] — so the closure is complete whichever end
   declared the edge.  Dangling targets are excluded, cycles are cut by the
   visited set. *)

let direct_parts idx name =
  let fwd =
    match Si.find_interface idx name with
    | None -> []
    | Some i ->
        List.filter_map
          (fun r ->
            match role_of_relationship r with
            | Whole_end when Si.mem_interface idx r.rel_target ->
                Some r.rel_target
            | _ -> None)
          i.i_rels
  in
  let bwd =
    Si.relationships_targeting idx name
    |> List.filter_map (fun (owner, r) ->
           match role_of_relationship r with
           | Part_end -> Some owner.i_name
           | _ -> None)
  in
  fwd @ bwd

let direct_wholes idx name =
  let fwd =
    match Si.find_interface idx name with
    | None -> []
    | Some i ->
        List.filter_map
          (fun r ->
            match role_of_relationship r with
            | Part_end when Si.mem_interface idx r.rel_target ->
                Some r.rel_target
            | _ -> None)
          i.i_rels
  in
  let bwd =
    Si.relationships_targeting idx name
    |> List.filter_map (fun (owner, r) ->
           match role_of_relationship r with
           | Whole_end -> Some owner.i_name
           | _ -> None)
  in
  fwd @ bwd

let closure_set step start =
  let rec go visited = function
    | [] -> visited
    | n :: rest ->
        if SSet.mem n visited then go visited rest
        else go (SSet.add n visited) (step n @ rest)
  in
  go SSet.empty (step start)

(* --- entry computation ---------------------------------------------------- *)

let compute_entry idx name =
  let i = Si.get_interface idx name in
  {
    e_attrs = List.map (fun a -> a.attr_name) i.i_attrs;
    e_anc = SSet.of_list (Si.ancestors idx name);
    e_desc = SSet.of_list (Si.descendants idx name);
    e_wholes = closure_set (direct_wholes idx) name;
    e_parts = closure_set (direct_parts idx) name;
    e_wheel = D.wagon_wheel idx name;
  }

(* Every name an entry's materialized row mentions: the set of rows that can
   react when this interface changes. *)
let entry_neighbourhood e =
  SSet.union e.e_anc e.e_desc
  |> SSet.union e.e_wholes |> SSet.union e.e_parts
  |> SSet.union (SSet.of_list e.e_wheel.Core.Concept.c_members)

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

let deindex_attrs name e attrs =
  List.fold_left (fun m a -> multi_remove a name m) attrs e.e_attrs

let index_attrs name e attrs =
  List.fold_left (fun m a -> multi_add a name m) attrs e.e_attrs

(* --- history -------------------------------------------------------------- *)

let render_step (s : Core.Session.step) =
  "@"
  ^ Core.Concept.id_prefix s.Core.Session.st_kind
  ^ " "
  ^ Core.Op_printer.to_string s.Core.Session.st_op

(* The steps turning the captured spine into the session's: undos for the
   popped tail, then the fresh steps — the same pointer-equality walk as the
   service's journal delta (see Service_types.journal_delta), O(changed
   steps) because both spines share structure below the divergence point.
   Both results are oldest first; structurally equal pairs (undone then
   reapplied unchanged) are trimmed as noise. *)
let spine_delta ~old_steps ~old_n ~new_steps ~new_n =
  let rec chop n popped l =
    if n = 0 then (popped, l)
    else
      match l with
      | s :: rest -> chop (n - 1) (s :: popped) rest
      | [] -> (popped, [])
  in
  let popped, o = chop (max 0 (old_n - new_n)) [] old_steps in
  let added, a = chop (max 0 (new_n - old_n)) [] new_steps in
  let rec sync popped added o a =
    if o == a then (popped, added)
    else
      match (o, a) with
      | so :: o', sa :: a' -> sync (so :: popped) (sa :: added) o' a'
      | _ -> (popped, added)
  in
  let popped, added = sync popped added o a in
  let step_eq (s1 : Core.Session.step) (s2 : Core.Session.step) =
    s1.Core.Session.st_kind = s2.Core.Session.st_kind
    && Core.Modop.equal s1.st_op s2.st_op
  in
  let rec trim = function
    | pb :: p', aa :: a' when step_eq pb aa -> trim (p', a')
    | rest -> rest
  in
  trim (popped, added)

let bound_history v hist =
  let rec take n acc = function
    | x :: tl when n > 0 -> take (n - 1) (x :: acc) tl
    | rest -> (List.rev acc, rest)
  in
  let kept, dropped = take max_history [] hist in
  match dropped with
  | [] -> (kept, v)
  | (s, _) :: _ -> (kept, max v s)

(* --- build and refresh ---------------------------------------------------- *)

let build ?lineage ~stamp (session : Core.Session.t) =
  let idx = Core.Session.index session in
  let entries =
    List.fold_left
      (fun m name -> SMap.add name (compute_entry idx name) m)
      SMap.empty
      (Si.interface_names idx)
  in
  let attrs =
    SMap.fold (fun name e m -> index_attrs name e m) entries SMap.empty
  in
  {
    v_stamp = stamp;
    v_index = idx;
    v_steps = Core.Session.steps_rev session;
    v_nsteps = Core.Session.step_count session;
    v_entries = entries;
    v_attrs = attrs;
    v_history = [];
    v_floor = stamp;
    v_refreshes = 0;
    v_lineage = lineage;
  }

(* A seed that exists in both versions at one declaration position with
   equal supertypes and relationships.  Every closure and wheel is a
   function of the edges, of which names exist, and of the positions that
   order subtypes and incoming edges; such a seed changed none of them, so
   only its own attribute names can differ. *)
let keeps_edges v idx name =
  match (Si.find_positioned v.v_index name, Si.find_positioned idx name) with
  | Some (o, po), Some (n, pn) ->
      po = pn && o.i_supertypes = n.i_supertypes && o.i_rels = n.i_rels
  | _ -> false

let refresh v ~stamp (session : Core.Session.t) =
  let idx = Core.Session.index session in
  let new_steps = Core.Session.steps_rev session in
  let new_n = Core.Session.step_count session in
  let light, structural =
    List.partition (keeps_edges v idx) (Si.changed_names v.v_index idx)
  in
  (* widen each structural seed to every row its change can reach: the row
     itself, everything its *old* materialized row mentioned, and
     everything its *new* neighbourhood mentions (closures and wheel
     recomputed fresh on the new index) — then rebuild exactly those rows *)
  let recompute =
    List.fold_left
      (fun acc name ->
        let acc = SSet.add name acc in
        let acc =
          match SMap.find_opt name v.v_entries with
          | None -> acc
          | Some e -> SSet.union (entry_neighbourhood e) acc
        in
        if Si.mem_interface idx name then
          SSet.union (entry_neighbourhood (compute_entry idx name)) acc
        else acc)
      SSet.empty structural
  in
  let entries, attrs =
    SSet.fold
      (fun name (entries, attrs) ->
        let attrs =
          match SMap.find_opt name v.v_entries with
          | None -> attrs
          | Some old -> deindex_attrs name old attrs
        in
        if Si.mem_interface idx name then
          let e = compute_entry idx name in
          (SMap.add name e entries, index_attrs name e attrs)
        else (SMap.remove name entries, attrs))
      recompute (v.v_entries, v.v_attrs)
  in
  (* a light seed no structural seed reached keeps its old row but for
     the attribute names *)
  let entries, attrs =
    List.fold_left
      (fun ((entries, attrs) as acc) name ->
        let old = SMap.find name v.v_entries in
        let e_attrs =
          List.map (fun a -> a.attr_name) (Si.get_interface idx name).i_attrs
        in
        if SSet.mem name recompute || e_attrs = old.e_attrs then acc
        else
          let e = { old with e_attrs } in
          ( SMap.add name e entries,
            index_attrs name e (deindex_attrs name old attrs) ))
      (entries, attrs) light
  in
  let popped, added =
    spine_delta ~old_steps:v.v_steps ~old_n:v.v_nsteps ~new_steps ~new_n
  in
  (* chronological event order: undos newest-popped first, then the fresh
     steps oldest first; history is kept newest first *)
  let events =
    List.rev_map (fun s -> "undo " ^ render_step s) popped
    @ List.map render_step added
  in
  let history =
    List.rev_append (List.map (fun e -> (stamp, e)) events) v.v_history
  in
  let history, floor = bound_history v.v_floor history in
  {
    v_stamp = stamp;
    v_index = idx;
    v_steps = new_steps;
    v_nsteps = new_n;
    v_entries = entries;
    v_attrs = attrs;
    v_history = history;
    v_floor = floor;
    v_refreshes = v.v_refreshes + 1;
    v_lineage = v.v_lineage;
  }

(** Bring a (possibly absent) view to [stamp]: build from scratch when there
    is none, keep it when it is already at or past [stamp] (a racing writer
    advanced it first), refresh otherwise. *)
let update ?prev ?lineage ~stamp session =
  match prev with
  | None -> build ?lineage ~stamp session
  | Some v when v.v_stamp >= stamp -> v
  | Some v -> refresh v ~stamp session

(* --- equivalence (differential testing) ----------------------------------- *)

let entry_equal a b =
  a.e_attrs = b.e_attrs
  && SSet.equal a.e_anc b.e_anc
  && SSet.equal a.e_desc b.e_desc
  && SSet.equal a.e_wholes b.e_wholes
  && SSet.equal a.e_parts b.e_parts
  && Core.Concept.equal a.e_wheel b.e_wheel

(** Logical equality: same materialized rows and attribute index.  Stamp,
    history and refresh bookkeeping are excluded — a from-scratch [build]
    has no history, and the property incremental ≡ from-scratch compares
    exactly the derived data. *)
let equal_logical a b =
  SMap.equal entry_equal a.v_entries b.v_entries
  && SMap.equal SSet.equal a.v_attrs b.v_attrs

let history v = v.v_history
