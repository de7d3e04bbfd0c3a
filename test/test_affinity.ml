(* Tests for Slo_affinity: affinity groups, Minimum Heuristic, Figure 5. *)

module Parser = Slo_ir.Parser
module Typecheck = Slo_ir.Typecheck
module Interp = Slo_profile.Interp
module Counts = Slo_profile.Counts
module Group = Slo_affinity.Group
module Affinity_graph = Slo_affinity.Affinity_graph
module Prng = Slo_util.Prng

let check_int = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-6))

let profile src ~entries ~loop_n =
  let p = Typecheck.check (Parser.parse_program ~file:"t.mc" src) in
  let counts = Counts.create () in
  let ctx = Interp.make_ctx p in
  let prng = Prng.create ~seed:1 in
  let s = Interp.make_instance p ~struct_name:"S" in
  for _ = 1 to entries do
    Interp.run ctx ~counts ~prng ~proc:"f" [ Interp.Ainst s; Interp.Aint loop_n ]
  done;
  (p, counts)

(* The paper's Figure 4 program. *)
let fig4 =
  {|
struct S { long f1; long f2; long f3; };
void f(struct S *s, int n) {
  s->f1 = 1;
  s->f2 = 2;
  for (i = 0; i < n; i++) {
    s->f3 = i;
    x = s->f3 + s->f1;
    y = s->f3;
  }
}
|}

let test_figure5_groups () =
  let p, counts = profile fig4 ~entries:10 ~loop_n:100 in
  let groups = Group.of_program p counts ~struct_name:"S" in
  check_int "two groups" 2 (List.length groups);
  let straight =
    List.find (fun g -> g.Group.g_kind = Group.Straight_line) groups
  in
  let loop =
    List.find (fun g -> g.Group.g_kind <> Group.Straight_line) groups
  in
  check_int "straight weight = entry count" 10 straight.Group.g_weight;
  check_int "loop weight = EC" 1000 loop.Group.g_weight;
  (* straight-line group: f1 and f2, one write each per entry *)
  check_int "f1 W in straight" 10 (Group.field_refs straight "f1").Counts.writes;
  check_int "f2 W in straight" 10 (Group.field_refs straight "f2").Counts.writes;
  check_int "f3 not in straight" 0 (Group.refs (Group.field_refs straight "f3"));
  (* loop group: f1 read once, f3 read twice + written once per iteration *)
  check_int "f1 R in loop" 1000 (Group.field_refs loop "f1").Counts.reads;
  check_int "f3 R in loop" 2000 (Group.field_refs loop "f3").Counts.reads;
  check_int "f3 W in loop" 1000 (Group.field_refs loop "f3").Counts.writes

let test_figure5_graph () =
  let p, counts = profile fig4 ~entries:10 ~loop_n:100 in
  let ag = Affinity_graph.build p counts ~struct_name:"S" in
  (* Minimum Heuristic: w(f1,f2) = min(10, 10); w(f1,f3) = min(1000, 3000). *)
  checkf "f1-f2 = n" 10.0 (Affinity_graph.affinity ag "f1" "f2");
  checkf "f1-f3 = N" 1000.0 (Affinity_graph.affinity ag "f1" "f3");
  checkf "f2-f3 absent" 0.0 (Affinity_graph.affinity ag "f2" "f3");
  check_int "h(f1) = N + n" 1010 (Affinity_graph.hotness_of ag "f1");
  check_int "h(f2) = n" 10 (Affinity_graph.hotness_of ag "f2");
  check_int "h(f3) = 3N" 3000 (Affinity_graph.hotness_of ag "f3")

let test_minimum_heuristic_asymmetric () =
  (* One field touched 3x per iteration, another once: affinity = min. *)
  let src =
    {|
struct S { long a; long b; long c; };
void f(struct S *s, int n) {
  for (i = 0; i < n; i++) {
    x = s->a + s->a + s->a + s->b;
    pause(1);
  }
}
|}
  in
  let p, counts = profile src ~entries:1 ~loop_n:50 in
  let ag = Affinity_graph.build p counts ~struct_name:"S" in
  checkf "min(150, 50)" 50.0 (Affinity_graph.affinity ag "a" "b")

let test_require_read_drops_write_write () =
  (* Two fields only ever written in the same loop: affinity only without
     require_read (the §2 store rule). *)
  let src =
    {|
struct S { long a; long b; long c; };
void f(struct S *s, int n) {
  for (i = 0; i < n; i++) {
    s->a = i;
    s->b = i;
  }
}
|}
  in
  let p, counts = profile src ~entries:1 ~loop_n:20 in
  let lax = Affinity_graph.build ~require_read:false p counts ~struct_name:"S" in
  let strict = Affinity_graph.build ~require_read:true p counts ~struct_name:"S" in
  checkf "affinity without rule" 20.0 (Affinity_graph.affinity lax "a" "b");
  checkf "no gain for store-store" 0.0 (Affinity_graph.affinity strict "a" "b")

let test_unreferenced_fields_are_isolated_nodes () =
  let p, counts = profile fig4 ~entries:1 ~loop_n:5 in
  let src_fields = [ "f1"; "f2"; "f3" ] in
  let ag = Affinity_graph.build p counts ~struct_name:"S" in
  Alcotest.(check (list string))
    "all fields present" src_fields
    (Array.to_list ag.Affinity_graph.fields.Slo_util.Names.names)

let test_groups_separate_loops () =
  (* Fields in two different loops of the same proc form separate groups:
     no affinity across them. *)
  let src =
    {|
struct S { long a; long b; long c; };
void f(struct S *s, int n) {
  for (i = 0; i < n; i++) { x = s->a; pause(1); }
  for (j = 0; j < n; j++) { y = s->b; pause(1); }
}
|}
  in
  let p, counts = profile src ~entries:1 ~loop_n:30 in
  let ag = Affinity_graph.build p counts ~struct_name:"S" in
  checkf "no cross-loop affinity" 0.0 (Affinity_graph.affinity ag "a" "b")

let test_nested_loop_inner_group () =
  (* A field accessed only in the inner loop must not join the outer
     group. *)
  let src =
    {|
struct S { long outer; long inner; long c; };
void f(struct S *s, int n) {
  for (i = 0; i < n; i++) {
    x = s->outer;
    for (j = 0; j < n; j++) {
      y = s->inner;
      pause(1);
    }
  }
}
|}
  in
  let p, counts = profile src ~entries:1 ~loop_n:8 in
  let groups = Group.of_program p counts ~struct_name:"S" in
  (* straight-line group is empty (dropped); outer and inner loop groups. *)
  check_int "two loop groups" 2 (List.length groups);
  let ag = Affinity_graph.build p counts ~struct_name:"S" in
  checkf "inner and outer not affine" 0.0
    (Affinity_graph.affinity ag "outer" "inner")

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_affinity_bounded_by_hotness =
  QCheck2.Test.make
    ~name:"affinity(f,g) <= min(hotness f, hotness g) on random programs"
    ~count:50
    (Gen.minic_program ())
    (fun src ->
      match Typecheck.check (Parser.parse_program ~file:"t" src) with
      | exception _ -> QCheck2.assume_fail ()
      | p ->
        let counts = Counts.create () in
        let ctx = Interp.make_ctx p in
        let prng = Prng.create ~seed:3 in
        let inst = Interp.make_instance p ~struct_name:"G" in
        List.iter
          (fun (pd : Slo_ir.Ast.proc_decl) ->
            Interp.run ctx ~counts ~prng ~proc:pd.Slo_ir.Ast.pd_name
              [ Interp.Ainst inst; Interp.Aint 4 ])
          p.Slo_ir.Ast.procs;
        let ag = Affinity_graph.build p counts ~struct_name:"G" in
        let fields = Array.to_list ag.Affinity_graph.fields.Slo_util.Names.names in
        List.for_all
          (fun a ->
            List.for_all
              (fun b ->
                a = b
                || Affinity_graph.affinity ag a b
                   <= float_of_int
                        (min
                           (Affinity_graph.hotness_of ag a)
                           (Affinity_graph.hotness_of ag b))
                      +. 1e-6)
              fields)
          fields)

let props = List.map QCheck_alcotest.to_alcotest [ prop_affinity_bounded_by_hotness ]

let suites =
  [
    ( "affinity",
      [
        Alcotest.test_case "figure 5 groups" `Quick test_figure5_groups;
        Alcotest.test_case "figure 5 graph" `Quick test_figure5_graph;
        Alcotest.test_case "minimum heuristic" `Quick test_minimum_heuristic_asymmetric;
        Alcotest.test_case "store rule" `Quick test_require_read_drops_write_write;
        Alcotest.test_case "isolated fields" `Quick test_unreferenced_fields_are_isolated_nodes;
        Alcotest.test_case "separate loops" `Quick test_groups_separate_loops;
        Alcotest.test_case "nested loops" `Quick test_nested_loop_inner_group;
      ] );
    ("affinity.properties", props);
  ]
