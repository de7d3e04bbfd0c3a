(* Tests for the global-variable extension: parsing, typechecking,
   interpretation, simulation, and the GVL layout pipeline. *)

module Ast = Slo_ir.Ast
module Parser = Slo_ir.Parser
module Typecheck = Slo_ir.Typecheck
module Cfg = Slo_ir.Cfg
module Pretty = Slo_ir.Pretty
module Interp = Slo_profile.Interp
module Counts = Slo_profile.Counts
module Machine = Slo_sim.Machine
module Topology = Slo_sim.Topology
module Layout = Slo_layout.Layout
module Fmf = Slo_concurrency.Fmf
module Affinity_graph = Slo_affinity.Affinity_graph
module Gvl = Slo_core.Gvl
module Pipeline = Slo_core.Pipeline
module Prng = Slo_util.Prng

let check_int = Alcotest.(check int)

let parse_tc src = Typecheck.check (Parser.parse_program ~file:"t.mc" src)

let src =
  {|
struct S { long a; };
long g_count;
long g_limit;
int g_flag;

void bump(int n) {
  for (i = 0; i < n; i++) {
    g_count = g_count + 1;
  }
}

void watch(struct S *s, int n) {
  for (i = 0; i < n; i++) {
    x = g_limit + g_flag;
    s->a = s->a + x;
  }
}
|}

let test_parse_globals () =
  let p = parse_tc src in
  check_int "three globals" 3 (List.length p.Ast.globals);
  let gs = Option.get (Ast.globals_struct p) in
  Alcotest.(check string) "synthetic struct name" "$globals" gs.Ast.sd_name;
  Alcotest.(check bool) "find_struct resolves it" true
    (Ast.find_struct p Ast.globals_struct_name <> None)

let test_globals_rejects () =
  let expect_error s =
    match parse_tc s with
    | exception Typecheck.Error _ -> ()
    | exception Parser.Error _ -> ()
    | _ -> Alcotest.fail ("accepted invalid program:\n" ^ s)
  in
  expect_error "long g; long g; void f(int n) { x = g; }";
  (* globals must be scalars *)
  expect_error "long g[4]; void f(int n) { x = n; }";
  (* shadowing forbidden *)
  expect_error "long g; void f(int g) { x = g; }";
  expect_error "long i; void f(int n) { for (i = 0; i < n; i++) { x = i; } }"

let test_globals_roundtrip () =
  let p1 = parse_tc src in
  let printed = Pretty.program_to_string p1 in
  let p2 = Typecheck.check (Parser.parse_program ~file:"t" printed) in
  Alcotest.(check string) "pretty round trip" printed (Pretty.program_to_string p2)

let test_globals_in_accesses () =
  let p = parse_tc src in
  let cfg = List.assoc "bump" (Cfg.of_program p) in
  let accs = Cfg.accesses cfg in
  check_int "read + write of g_count" 2 (List.length accs);
  List.iter
    (fun (a : Cfg.access) ->
      Alcotest.(check string) "reported under $globals" Ast.globals_struct_name
        a.Cfg.a_struct;
      Alcotest.(check string) "field name" "g_count" a.Cfg.a_field)
    accs

let test_interp_globals () =
  let p = parse_tc src in
  let ctx = Interp.make_ctx p in
  let prng = Prng.create ~seed:1 in
  check_int "zero initialized" 0 (Interp.get_global ctx ~name:"g_count");
  Interp.run ctx ~prng ~proc:"bump" [ Interp.Aint 7 ];
  check_int "incremented" 7 (Interp.get_global ctx ~name:"g_count");
  (* persists across runs on the same ctx *)
  Interp.run ctx ~prng ~proc:"bump" [ Interp.Aint 3 ];
  check_int "accumulates" 10 (Interp.get_global ctx ~name:"g_count");
  Interp.set_global ctx ~name:"g_limit" 42;
  let s = Interp.make_instance p ~struct_name:"S" in
  Interp.run ctx ~prng ~proc:"watch" [ Interp.Ainst s; Interp.Aint 1 ];
  check_int "reads set global" 42 (Interp.get_field s ~field:"a" ())

let test_profile_counts_globals () =
  let p = parse_tc src in
  let ctx = Interp.make_ctx p in
  let counts = Counts.create () in
  let prng = Prng.create ~seed:1 in
  Interp.run ctx ~counts ~prng ~proc:"bump" [ Interp.Aint 5 ];
  let totals = Counts.field_totals counts ~struct_name:Ast.globals_struct_name in
  let rw = List.assoc "g_count" totals in
  check_int "reads" 5 rw.Counts.reads;
  check_int "writes" 5 rw.Counts.writes

let test_machine_globals () =
  let p = parse_tc src in
  let topology = Topology.superdome ~cpus:2 () in
  let m = Machine.create (Machine.default_config topology) p in
  Machine.add_thread m ~cpu:0 ~work:[ ("bump", [ Machine.Aint 9 ]) ];
  ignore (Machine.run m);
  check_int "simulated global value" 9 (Machine.read_global m ~name:"g_count")

let test_machine_global_layout_override () =
  let p = parse_tc src in
  let topology = Topology.superdome ~cpus:2 () in
  let m = Machine.create (Machine.default_config topology) p in
  let fields = Slo_layout.Field.of_struct (Option.get (Ast.globals_struct p)) in
  let spread =
    Layout.of_clusters ~struct_name:Ast.globals_struct_name ~line_size:128
      (List.map (fun f -> [ f ]) fields)
  in
  Machine.set_layout m spread;
  Machine.add_thread m ~cpu:0 ~work:[ ("bump", [ Machine.Aint 4 ]) ];
  ignore (Machine.run m);
  check_int "value correct under override" 4 (Machine.read_global m ~name:"g_count")

let test_fmf_and_affinity_on_globals () =
  let p = parse_tc src in
  let fmf = Fmf.of_program p in
  let lines =
    List.init (List.length (String.split_on_char '\n' src)) (fun l -> l + 1)
    |> List.filter (fun line ->
           Fmf.fields_at fmf ~line ~struct_name:Ast.globals_struct_name <> [])
  in
  Alcotest.(check bool) "global lines found" true (List.length lines >= 2);
  let ctx = Interp.make_ctx p in
  let counts = Counts.create () in
  let prng = Prng.create ~seed:1 in
  let s = Interp.make_instance p ~struct_name:"S" in
  Interp.run ctx ~counts ~prng ~proc:"watch" [ Interp.Ainst s; Interp.Aint 10 ];
  let ag = Affinity_graph.build p counts ~struct_name:Ast.globals_struct_name in
  Alcotest.(check bool) "g_limit and g_flag affine" true
    (Affinity_graph.affinity ag "g_limit" "g_flag" > 0.0)

let test_gvl_separates_writer () =
  (* g_count is written concurrently with reads of g_limit/g_flag: the GVL
     layout must not colocate them. *)
  let p = parse_tc src in
  let ctx = Interp.make_ctx p in
  let counts = Counts.create () in
  let prng = Prng.create ~seed:1 in
  let s = Interp.make_instance p ~struct_name:"S" in
  Interp.run ctx ~counts ~prng ~proc:"bump" [ Interp.Aint 32 ];
  Interp.run ctx ~counts ~prng ~proc:"watch" [ Interp.Ainst s; Interp.Aint 32 ];
  (* sampling run: one bumper, three watchers *)
  let topology = Topology.superdome ~cpus:4 () in
  let m =
    Machine.create
      { (Machine.default_config topology) with Machine.sample_period = Some 150 }
      p
  in
  let inst = Machine.alloc m ~struct_name:"S" in
  Machine.add_thread m ~cpu:0 ~work:(List.init 80 (fun _ -> ("bump", [ Machine.Aint 10 ])));
  for cpu = 1 to 3 do
    Machine.add_thread m ~cpu
      ~work:(List.init 80 (fun _ -> ("watch", [ Machine.Ainst inst; Machine.Aint 10 ])))
  done;
  let r = Machine.run m in
  let samples =
    List.map
      (fun (smp : Machine.sample) ->
        { Slo_concurrency.Sample.cpu = smp.Machine.s_cpu; itc = smp.Machine.s_itc;
          line = smp.Machine.s_line })
      r.Machine.samples
  in
  let params =
    { Pipeline.default_params with Pipeline.k2 = 2.0; cc_interval = 1500 }
  in
  let flg = Gvl.analyze ~params ~program:p ~counts ~samples () in
  let layout = Gvl.automatic_layout ~params flg in
  Layout.check_invariants layout;
  Alcotest.(check bool) "writer separated from read pair" false
    (Layout.same_line layout ~line_size:128 "g_count" "g_limit");
  Alcotest.(check bool) "read pair colocated" true
    (Layout.same_line layout ~line_size:128 "g_limit" "g_flag")

let test_gvl_requires_globals () =
  let p = parse_tc "struct S { long a; }; void f(struct S *s) { s->a = 1; }" in
  (match Gvl.declared_layout p with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted program without globals");
  match
    Gvl.analyze ~program:p ~counts:(Counts.create ()) ~samples:[] ()
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "analyze accepted program without globals"

let suites =
  [
    ( "globals",
      [
        Alcotest.test_case "parsing" `Quick test_parse_globals;
        Alcotest.test_case "rejections" `Quick test_globals_rejects;
        Alcotest.test_case "round trip" `Quick test_globals_roundtrip;
        Alcotest.test_case "accesses" `Quick test_globals_in_accesses;
        Alcotest.test_case "interpreter" `Quick test_interp_globals;
        Alcotest.test_case "profile counts" `Quick test_profile_counts_globals;
        Alcotest.test_case "machine" `Quick test_machine_globals;
        Alcotest.test_case "layout override" `Quick test_machine_global_layout_override;
        Alcotest.test_case "fmf/affinity" `Quick test_fmf_and_affinity_on_globals;
        Alcotest.test_case "gvl separates writer" `Quick test_gvl_separates_writer;
        Alcotest.test_case "gvl needs globals" `Quick test_gvl_requires_globals;
      ] );
  ]
