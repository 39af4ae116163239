open Odl.Validate

let test = Util.test

let valid src =
  Alcotest.(check int) "no errors" 0 (List.length (errors (Util.parse src)))

let expect_error src fragment =
  let s = Util.parse src in
  if not (Util.has_error_containing s fragment) then
    Alcotest.failf "expected error containing %S, got: %s" fragment
      (Fmt.str "%a" Fmt.(list ~sep:(any "; ") pp_diagnostic_line) (check s))

let expect_warning src fragment =
  let s = Util.parse src in
  Alcotest.(check int) "but no errors" 0 (List.length (errors s));
  if not (Util.has_warning_containing s fragment) then
    Alcotest.failf "expected warning containing %S, got: %s" fragment
      (Fmt.str "%a" Fmt.(list ~sep:(any "; ") pp_diagnostic_line) (check s))

let examples_valid () =
  Util.check_valid "university" (Util.university ());
  Util.check_valid "lumber" (Util.lumber ());
  Util.check_valid "emsl" (Util.emsl ());
  Alcotest.(check int) "university warnings" 0
    (List.length (warnings (Util.university ())))

let unknown_supertype () =
  expect_error "interface A : Ghost { };" "unknown supertype"

let unknown_rel_target () =
  expect_error "interface A { relationship Ghost r inverse Ghost::s; };"
    "unknown target"

let missing_inverse () =
  expect_error
    "interface A { relationship B r inverse B::ghost; }; interface B { };"
    "does not exist"

let inverse_wrong_target () =
  expect_error
    {|interface A { relationship B r inverse B::s; };
      interface B { relationship C s inverse C::t; };
      interface C { relationship B t inverse B::s; };|}
    "targets"

let inverse_wrong_back_path () =
  expect_error
    {|interface A { relationship B r inverse B::s; relationship B r2 inverse B::s; };
      interface B { relationship A s inverse A::r2; };|}
    "as its inverse"

let kind_mismatch () =
  expect_error
    {|interface A { part_of relationship set<B> r inverse B::s; };
      interface B { relationship A s inverse A::r; };|}
    "different kinds"

let part_of_shape () =
  expect_error
    {|interface A { part_of relationship set<B> r inverse B::s; };
      interface B { part_of relationship set<A> s inverse A::r; };|}
    "1:N";
  expect_error
    {|interface A { part_of relationship B r inverse B::s; };
      interface B { part_of relationship A s inverse A::r; };|}
    "1:N"

let isa_cycle () =
  expect_error "interface A : B { }; interface B : A { };" "ISA cycle"

let part_of_cycle () =
  expect_error
    {|interface A { part_of relationship set<B> parts inverse B::whole;
                    part_of relationship B whole2 inverse B::parts2; };
      interface B { part_of relationship A whole inverse A::parts;
                    part_of relationship set<A> parts2 inverse A::whole2; };|}
    "part-of cycle"

let instance_of_cycle () =
  expect_error
    {|interface A { instance_of relationship set<B> insts inverse B::gen;
                    instance_of relationship B gen2 inverse B::insts2; };
      interface B { instance_of relationship A gen inverse A::insts;
                    instance_of relationship set<A> insts2 inverse A::gen2; };|}
    "instance-of cycle"

let multi_root_warning () =
  expect_warning
    "interface A { }; interface B { }; interface C : A, B { };"
    "multiple roots"

let branching_chain_warning () =
  expect_warning
    {|interface G { instance_of relationship set<A> ia inverse A::g;
                    instance_of relationship set<B> ib inverse B::g; };
      interface A { instance_of relationship G g inverse G::ia; };
      interface B { instance_of relationship G g inverse G::ib; };|}
    "branches"

let key_unknown_attr () =
  expect_error "interface A { key ghost; attribute int x; };" "key names"

let key_inherited_ok () =
  valid
    "interface A { attribute int x; }; interface B : A { key x; };"

let unknown_attr_domain () =
  expect_error "interface A { attribute Ghost x; };" "unknown type"

let unknown_op_types () =
  expect_error "interface A { Ghost f(); };" "unknown type";
  expect_error "interface A { void f(Ghost g); };" "unknown type"

let order_by_unknown () =
  expect_error
    {|interface A { relationship set<B> r inverse B::s order_by (ghost); };
      interface B { relationship A s inverse A::r; };|}
    "order_by"

let order_by_inherited_ok () =
  valid
    {|interface Base { attribute int x; };
      interface B : Base { relationship A s inverse A::r; };
      interface A { relationship set<B> r inverse B::s order_by (x); };|}

let override_signature_warning () =
  expect_warning
    "interface A { int f(); }; interface B : A { float f(); };"
    "different signature"

let shadow_warning () =
  expect_warning
    "interface A { attribute int x; }; interface B : A { attribute float x; };"
    "different domain"

let duplicate_names () =
  expect_error "interface A { }; interface A { };" "duplicate interface";
  expect_error "interface A { attribute int x; attribute float x; };"
    "duplicate property";
  expect_error
    {|interface A { attribute int x;
        relationship B x inverse B::y; };
      interface B { relationship A y inverse A::x; };|}
    "duplicate property";
  expect_error "interface A { void f(); int f(); };" "duplicate operation"

let duplicate_extent () =
  expect_error "interface A { extent e; }; interface B { extent e; };"
    "duplicate extent"

let self_relationship_valid () =
  valid
    {|interface Course { relationship set<Course> prereqs inverse Course::prereq_of;
                         relationship set<Course> prereq_of inverse Course::prereqs; };|}

let severity_partition () =
  let s = Util.parse "interface A : Ghost { };" in
  Alcotest.(check int) "total = errors + warnings"
    (List.length (check s))
    (List.length (errors s) + List.length (warnings s))

(* --- the per-interface check kernel -----------------------------------------
   The order_by and keyword checks skip work when nothing can fire: these
   pin their exact output, in order, on the naive checker and on the
   indexed one (fresh, and re-checked after an update that dirties the
   owner). *)

let lines ds = List.map (Fmt.str "%a" pp_diagnostic_line) ds

let kernel_agrees name schema expected =
  Alcotest.(check (list string)) (name ^ ": naive") expected
    (lines (check schema));
  let module Index = Core.Schema_index in
  let idx = Index.build schema in
  Alcotest.(check (list string)) (name ^ ": indexed") expected
    (lines (Index.diagnostics idx));
  (* warm, then touch every interface: each re-check runs the kernel *)
  let touched =
    List.fold_left
      (fun idx n ->
        Index.update_interface idx n (fun i -> { i with i_ops = i.i_ops }))
      idx (Index.interface_names idx)
  in
  Alcotest.(check (list string)) (name ^ ": re-checked") expected
    (lines (Index.diagnostics touched))

let order_by_kernel () =
  kernel_agrees "order_by"
    (Util.parse
       {|interface Base { attribute int x; };
         interface B : Base { attribute int y; relationship A s inverse A::r; };
         interface A {
           attribute int z;
           relationship set<B> r inverse B::s order_by (z, x, y, w);
           relationship set<Ghost> g inverse Ghost::h order_by (z);
           relationship set<B> plain inverse B::t;
         };|})
    [
      "error [structural] A.g: unknown target type Ghost";
      "error [structural] A.plain: inverse B::t does not exist";
      "error [semantic] A.r: order_by attribute z is not visible on B";
      "error [semantic] A.r: order_by attribute w is not visible on B";
    ]

let near_misses = [ "Set"; "sets"; "interfaces"; "int_"; "Schema"; "voids" ]

let keyword_kernel () =
  Alcotest.(check int) "22 keywords" 22 (List.length Odl.Names.odl_keywords);
  (* the lookup agrees with the list on each keyword, each of its proper
     prefixes and its capitalised form, and on the near misses *)
  let candidates =
    near_misses
    @ List.concat_map
        (fun k ->
          String.capitalize_ascii k
          :: List.init (String.length k + 1) (fun n -> String.sub k 0 n))
        Odl.Names.odl_keywords
  in
  List.iter
    (fun s ->
      Alcotest.(check bool) (Printf.sprintf "is_keyword %S" s)
        (List.mem s Odl.Names.odl_keywords)
        (Odl.Names.is_keyword s))
    candidates;
  let attr n = { Odl.Types.attr_name = n; attr_type = D_int; attr_size = None } in
  let k =
    {
      Odl.Types.i_name = "K";
      i_supertypes = [];
      i_extent = None;
      i_keys = [];
      i_attrs = List.map attr (Odl.Names.odl_keywords @ near_misses);
      i_rels = [];
      i_ops = [];
    }
  in
  kernel_agrees "keywords"
    { Odl.Types.s_name = "keywords"; s_interfaces = [ k ] }
    (List.map
       (fun kw ->
         Printf.sprintf "error [naming] K.%s: identifier is an ODL keyword" kw)
       Odl.Names.odl_keywords)

let tests =
  [
    test "bundled examples are valid" examples_valid;
    test "unknown supertype" unknown_supertype;
    test "unknown relationship target" unknown_rel_target;
    test "missing inverse" missing_inverse;
    test "inverse targets wrong type" inverse_wrong_target;
    test "inverse names wrong back path" inverse_wrong_back_path;
    test "kind mismatch" kind_mismatch;
    test "part-of 1:N shape" part_of_shape;
    test "ISA cycle" isa_cycle;
    test "part-of cycle" part_of_cycle;
    test "instance-of cycle" instance_of_cycle;
    test "multi-root warning" multi_root_warning;
    test "branching chain warning" branching_chain_warning;
    test "key with unknown attribute" key_unknown_attr;
    test "key with inherited attribute is fine" key_inherited_ok;
    test "unknown attribute domain" unknown_attr_domain;
    test "unknown operation types" unknown_op_types;
    test "order_by unknown attribute" order_by_unknown;
    test "order_by inherited attribute is fine" order_by_inherited_ok;
    test "override signature warning" override_signature_warning;
    test "shadowing warning" shadow_warning;
    test "duplicate names" duplicate_names;
    test "duplicate extent" duplicate_extent;
    test "self relationship is valid" self_relationship_valid;
    test "severity partition" severity_partition;
    test "kernel: order_by targets, visible or dangling" order_by_kernel;
    test "kernel: each ODL keyword as an attribute name" keyword_kernel;
  ]
