(* Tests for Slo_core: FLG, clustering, heuristics, subgraph mode, report,
   pipeline. *)

module Ast = Slo_ir.Ast
module Field = Slo_layout.Field
module Layout = Slo_layout.Layout
module Counts = Slo_profile.Counts
module Affinity_graph = Slo_affinity.Affinity_graph
module Group = Slo_affinity.Group
module Flg = Slo_core.Flg
module Cluster = Slo_core.Cluster
module Hotness_heuristic = Slo_core.Hotness_heuristic
module Subgraph = Slo_core.Subgraph
module Report = Slo_core.Report
module Pipeline = Slo_core.Pipeline

let check_int = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-6))
let fld ?(count = 1) name = Field.make ~name ~prim:Ast.Long ~count ()
let rw reads writes = { Counts.reads; writes }

(* [flg] with each [(u, v, w)] of [gain] and [loss] added to that
   component of the pair, which then has an edge. *)
let splice (flg : Flg.t) ~gain ~loss =
  let n = Flg.size flg in
  let add m edge (u, v, w) =
    let i = Flg.index flg u and j = Flg.index flg v in
    List.iter
      (fun c ->
        Float.Array.set m c (Float.Array.get m c +. w);
        Bytes.set edge c '\001')
      [ (i * n) + j; (j * n) + i ]
  in
  let g = Float.Array.copy flg.Flg.gain and l = Float.Array.copy flg.Flg.loss in
  let edge = Bytes.copy flg.Flg.edge in
  List.iter (add g edge) gain;
  List.iter (add l edge) loss;
  Flg.make ~struct_name:flg.Flg.struct_name ~fields:(Array.to_list flg.Flg.fields)
    ~hotness:flg.Flg.hotness ~gain:g ~loss:l ~edge

(* An edge list by name. *)
let named flg = List.map (fun (i, j, w) -> (Flg.name flg i, Flg.name flg j, w))

(* Build an FLG directly from synthetic groups: fields f0..f3 where
   (f0,f1) are strongly affine, f2 is a contended writer (loss to all),
   f3 is cold. *)
let mk_flg ?(k1 = 1.0) ?(k2 = 1.0) ?loss_pairs () =
  let fields = [ fld "f0"; fld "f1"; fld "f2"; fld "f3" ] in
  let groups =
    [
      {
        Group.g_proc = "p";
        g_kind = Group.Loop 0;
        g_weight = 100;
        g_fields = [ ("f0", rw 100 0); ("f1", rw 80 0) ];
      };
      {
        Group.g_proc = "q";
        g_kind = Group.Loop 0;
        g_weight = 50;
        g_fields = [ ("f2", rw 0 50) ];
      };
    ]
  in
  let affinity =
    Affinity_graph.of_groups ~struct_name:"S"
      ~all_fields:(List.map (fun (f : Field.t) -> f.Field.name) fields)
      groups
  in
  let flg = Flg.build ~k1 ~k2 ~fields ~affinity () in
  (* splice in loss edges directly, as CycleLoss of k2·w *)
  match loss_pairs with
  | None -> flg
  | Some pairs ->
    splice flg ~gain:[] ~loss:(List.map (fun (a, b, w) -> (a, b, k2 *. w)) pairs)

let test_flg_weights () =
  let flg = mk_flg () in
  checkf "affinity edge" 80.0 (Flg.weight flg "f0" "f1");
  checkf "no edge" 0.0 (Flg.weight flg "f0" "f2");
  check_int "hotness f0" 100 flg.Flg.hotness.(Flg.index flg "f0");
  check_int "hotness f3" 0 flg.Flg.hotness.(Flg.index flg "f3")

let test_flg_k_scaling () =
  let flg = mk_flg ~k1:2.0 () in
  checkf "k1 scales gain" 160.0 (Flg.weight flg "f0" "f1")

let test_flg_hotness_order () =
  let flg = mk_flg () in
  Alcotest.(check (list string)) "by hotness, stable"
    [ "f0"; "f1"; "f2"; "f3" ]
    (List.map (Flg.name flg) (Array.to_list (Flg.hotness_order flg)))

let test_flg_edge_lists () =
  let flg = mk_flg ~loss_pairs:[ ("f2", "f0", 500.0) ] () in
  (match named flg (Flg.negative_edges flg) with
  | [ ("f0", "f2", w) ] -> checkf "negative edge" (-500.0) w
  | _ -> Alcotest.fail "expected one negative edge");
  match named flg (Flg.positive_edges flg) with
  | [ ("f0", "f1", _) ] -> ()
  | _ -> Alcotest.fail "expected one positive edge"

(* ------------------------------------------------------------------ *)
(* Clustering *)

let test_cluster_affine_together () =
  let flg = mk_flg () in
  let clusters = Cluster.run flg ~line_size:128 in
  (* f0 seeds, f1 joins; f2 has no positive edge -> own cluster; f3 cold *)
  let first = List.hd clusters in
  Alcotest.(check string) "seed is hottest" "f0" first.Cluster.seed;
  Alcotest.(check (list string)) "f1 joined"
    [ "f0"; "f1" ]
    (List.map (fun (f : Field.t) -> f.Field.name) first.Cluster.members)

let test_cluster_partition () =
  let flg = mk_flg () in
  let clusters = Cluster.run flg ~line_size:128 in
  let all =
    List.concat_map
      (fun c -> List.map (fun (f : Field.t) -> f.Field.name) c.Cluster.members)
      clusters
  in
  Alcotest.(check (list string)) "every field exactly once"
    [ "f0"; "f1"; "f2"; "f3" ]
    (List.sort compare all)

let test_cluster_negative_separates () =
  let flg = mk_flg ~loss_pairs:[ ("f0", "f1", 1000.0) ] () in
  let clusters = Cluster.run flg ~line_size:128 in
  let first = List.hd clusters in
  Alcotest.(check (list string)) "f1 repelled" [ "f0" ]
    (List.map (fun (f : Field.t) -> f.Field.name) first.Cluster.members)

let test_cluster_capacity () =
  (* 20 mutually affine longs cannot fit one 128B line: must split. *)
  let names = List.init 20 (fun i -> Printf.sprintf "h%d" i) in
  let fields = List.map fld names in
  let groups =
    [
      {
        Group.g_proc = "p";
        g_kind = Group.Loop 0;
        g_weight = 10;
        g_fields = List.map (fun n -> (n, rw 10 0)) names;
      };
    ]
  in
  let affinity = Affinity_graph.of_groups ~struct_name:"S" ~all_fields:names groups in
  let flg = Flg.build ~fields ~affinity () in
  let clusters = Cluster.run flg ~line_size:128 in
  check_int "two clusters" 2 (List.length clusters);
  List.iter
    (fun c ->
      Alcotest.(check bool) "fits a line" true
        (Layout.packed_size c.Cluster.members <= 128))
    clusters

let test_cluster_pack_cold () =
  let names = List.init 40 (fun i -> Printf.sprintf "c%d" i) in
  let fields = List.map fld names in
  let affinity =
    Affinity_graph.of_groups ~struct_name:"S" ~all_fields:names []
  in
  let flg = Flg.build ~fields ~affinity () in
  let packed = Cluster.run flg ~line_size:128 in
  let raw = Cluster.run ~pack_cold:false flg ~line_size:128 in
  check_int "raw: one cluster per cold field" 40 (List.length raw);
  Alcotest.(check bool) "packed: few clusters" true (List.length packed <= 3)

let test_cluster_oversized_field () =
  let fields = [ fld ~count:40 "big"; fld "x" ] in
  let affinity =
    Affinity_graph.of_groups ~struct_name:"S"
      ~all_fields:[ "big"; "x" ]
      [ { Group.g_proc = "p"; g_kind = Group.Straight_line; g_weight = 5;
          g_fields = [ ("big", rw 5 0); ("x", rw 5 0) ] } ]
  in
  let flg = Flg.build ~fields ~affinity () in
  let clusters = Cluster.run flg ~line_size:128 in
  (* big (320 bytes) seeds its own cluster; x cannot join (no room). *)
  check_int "two clusters" 2 (List.length clusters)

let test_intra_inter_weights () =
  let flg = mk_flg ~loss_pairs:[ ("f2", "f0", 500.0) ] () in
  let clusters = Cluster.run flg ~line_size:128 in
  let c0 = List.nth clusters 0 in
  checkf "intra = affinity" 80.0 (Cluster.intra_cluster_weight flg c0);
  let c_f2 =
    List.find
      (fun c ->
        List.exists (fun (f : Field.t) -> f.Field.name = "f2") c.Cluster.members)
      clusters
  in
  checkf "inter includes the negative edge" (-500.0)
    (Cluster.inter_cluster_weight flg c0 c_f2)

(* Hand-authored FLG for the shared scoring primitives: four longs with
   edge weights small enough to sum by hand. *)
let hand_flg () =
  let fields = [ fld "f0"; fld "f1"; fld "f2"; fld "f3" ] in
  let names = List.map (fun (f : Field.t) -> f.Field.name) fields in
  Test_exec.flg_of ~fields
    ~edges:
      [
        ("f0", "f1", 10.0);
        ("f0", "f2", -3.0);
        ("f1", "f3", 2.0);
        ("f2", "f3", 7.0);
      ]
    ~hotness:(List.map (fun n -> (n, 1)) names)

let test_inter_weight_hand_computed () =
  let flg = hand_flg () in
  let c1 = { Cluster.seed = "f0"; members = [ fld "f0"; fld "f1" ] } in
  let c2 = { Cluster.seed = "f2"; members = [ fld "f2"; fld "f3" ] } in
  (* cross pairs: (f0,f2) = -3, (f0,f3) = 0, (f1,f2) = 0, (f1,f3) = 2 *)
  checkf "inter by hand" (-1.0) (Cluster.inter_cluster_weight flg c1 c2);
  checkf "inter symmetric" (-1.0) (Cluster.inter_cluster_weight flg c2 c1);
  checkf "intra c1" 10.0 (Cluster.intra_cluster_weight flg c1);
  checkf "intra c2" 7.0 (Cluster.intra_cluster_weight flg c2)

let test_cluster_score_law () =
  (* Laying each cluster on its own line keeps exactly the intra pairs
     colocated, so the shared objective scores the clustering's layout as
     the sum of its intra-cluster weights. *)
  let flg = hand_flg () in
  let line_size = 32 in
  let params = { Pipeline.default_params with Pipeline.line_size } in
  List.iter
    (fun pack_cold ->
      let clusters = Cluster.run ~pack_cold flg ~line_size in
      let layout = Cluster.layout_of_clusters flg ~line_size clusters in
      let obj = Pipeline.search_problem ~params flg in
      let sum_intra =
        List.fold_left
          (fun acc c -> acc +. Cluster.intra_cluster_weight flg c)
          0.0 clusters
      in
      checkf
        (Printf.sprintf "score = sum intra (pack_cold=%b)" pack_cold)
        sum_intra
        (Slo_search.Objective.score obj layout))
    [ false; true ]

(* ------------------------------------------------------------------ *)
(* Hotness heuristic *)

let test_hotness_alignment_groups () =
  let fields =
    [
      Field.make ~name:"i_cold" ~prim:Ast.Int ();
      Field.make ~name:"l_hot" ~prim:Ast.Long ();
      Field.make ~name:"i_hot" ~prim:Ast.Int ();
      Field.make ~name:"l_cold" ~prim:Ast.Long ();
      Field.make ~name:"c_hot" ~prim:Ast.Char ();
    ]
  in
  let hotness =
    [ ("i_cold", 1); ("l_hot", 100); ("i_hot", 90); ("l_cold", 2); ("c_hot", 80) ]
  in
  let order = Hotness_heuristic.order ~fields ~hotness in
  Alcotest.(check (list string)) "align desc, hotness desc within"
    [ "l_hot"; "l_cold"; "i_hot"; "i_cold"; "c_hot" ]
    order;
  let layout = Hotness_heuristic.layout ~struct_name:"S" ~fields ~hotness in
  Layout.check_invariants layout;
  (* only tail padding (25 bytes of content rounded up to alignment 8) *)
  check_int "no internal padding" 7 (Layout.padding_bytes layout)

(* ------------------------------------------------------------------ *)
(* Subgraph / incremental *)

let test_subgraph_filter () =
  let flg =
    mk_flg ~loss_pairs:[ ("f2", "f0", 500.0); ("f2", "f1", 400.0) ] ()
  in
  let sub = Subgraph.filter flg ~top_positive:1 in
  (* keeps both negative edges + the single positive edge; f3 dropped *)
  Alcotest.(check (list string)) "f3 dropped"
    [ "f0"; "f1"; "f2" ]
    (List.sort compare
       (List.map (fun (f : Field.t) -> f.Field.name) (Array.to_list sub.Flg.fields)));
  check_int "three edges survive" 3 (List.length (Flg.edges sub))

let test_subgraph_filter_limits_positive () =
  let flg = mk_flg () in
  let sub = Subgraph.filter flg ~top_positive:0 in
  check_int "no positive edges kept" 0 (List.length (Flg.edges sub));
  check_int "no nodes left" 0 (Array.length sub.Flg.fields)

let test_incremental_applies_constraints () =
  (* Baseline packs everything; FLG says f2 false-shares with f0/f1.
     The incremental layout must separate f2 while keeping order edits
     minimal. *)
  let flg =
    mk_flg ~loss_pairs:[ ("f2", "f0", 500.0); ("f2", "f1", 400.0) ] ()
  in
  let baseline =
    Layout.of_fields ~struct_name:"S" [ fld "f0"; fld "f1"; fld "f2"; fld "f3" ]
  in
  let incr = Subgraph.incremental_layout flg ~baseline ~line_size:128 () in
  Layout.check_invariants incr;
  Alcotest.(check bool) "f2 off the hot line" false
    (Layout.same_line incr ~line_size:128 "f0" "f2");
  Alcotest.(check bool) "f0,f1 still together" true
    (Layout.same_line incr ~line_size:128 "f0" "f1");
  (* all fields still present *)
  Alcotest.(check (list string)) "permutation"
    [ "f0"; "f1"; "f2"; "f3" ]
    (List.sort compare (Layout.field_names incr))

let test_incremental_no_constraints_is_baseline () =
  let flg = mk_flg () in
  (* no negative edges and top_positive 0: nothing to do *)
  let baseline =
    Layout.of_fields ~struct_name:"S" [ fld "f3"; fld "f2"; fld "f1"; fld "f0" ]
  in
  let incr =
    Subgraph.incremental_layout flg ~baseline ~line_size:128 ~top_positive:0 ()
  in
  Alcotest.(check bool) "baseline unchanged" true (Layout.equal_order baseline incr)

let test_apply_rejects_foreign_fields () =
  let flg = mk_flg () in
  let baseline = Layout.of_fields ~struct_name:"S" [ fld "f0"; fld "f1" ] in
  let clusters = [ { Cluster.seed = "zz"; members = [ fld "zz" ] } ] in
  match Subgraph.apply flg ~baseline ~line_size:128 clusters with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted cluster with unknown field"

(* ------------------------------------------------------------------ *)
(* Report and automatic layout *)

let test_report () =
  let flg = mk_flg ~loss_pairs:[ ("f2", "f0", 500.0) ] () in
  let report = Report.make flg ~line_size:128 in
  Alcotest.(check string) "struct name" "S" report.Report.struct_name;
  Alcotest.(check bool) "has clusters" true (report.Report.clusters <> []);
  Alcotest.(check bool) "top negative listed" true
    (List.exists (fun (u, v, _) -> u = "f0" && v = "f2") report.Report.top_negative);
  let rendered = Report.render report in
  Alcotest.(check bool) "render mentions clusters" true
    (Tutil.contains rendered "cluster 0");
  Layout.check_invariants report.Report.layout

let test_automatic_layout_properties () =
  let flg = mk_flg ~loss_pairs:[ ("f2", "f0", 500.0); ("f2", "f1", 400.0) ] () in
  let layout = Cluster.automatic_layout flg ~line_size:128 in
  Layout.check_invariants layout;
  Alcotest.(check bool) "affine pair colocated" true
    (Layout.same_line layout ~line_size:128 "f0" "f1");
  Alcotest.(check bool) "writer separated" false
    (Layout.same_line layout ~line_size:128 "f0" "f2")

(* ------------------------------------------------------------------ *)
(* Properties *)

let flg_gen =
  QCheck2.Gen.(
    let* fields = Gen.fields in
    let names = List.map (fun (f : Field.t) -> f.Field.name) fields in
    let* edges = Gen.edges_over names in
    let* hot = Gen.hotness_for names in
    return (fields, edges, hot))

let flg_of (fields, edges, hot) =
  let names = List.map (fun (f : Field.t) -> f.Field.name) fields in
  let groups =
    [ { Group.g_proc = "p"; g_kind = Group.Straight_line; g_weight = 1;
        g_fields = List.map (fun (n, h) -> (n, rw h 0)) hot } ]
  in
  let affinity = Affinity_graph.of_groups ~struct_name:"S" ~all_fields:names groups in
  splice (Flg.build ~fields ~affinity ()) ~gain:edges ~loss:[]

let prop_cluster_partition =
  QCheck2.Test.make ~name:"clustering partitions the field set" ~count:150
    flg_gen (fun input ->
      let fields, _, _ = input in
      let flg = flg_of input in
      let clusters = Cluster.run flg ~line_size:128 in
      let all =
        List.concat_map
          (fun c -> List.map (fun (f : Field.t) -> f.Field.name) c.Cluster.members)
          clusters
      in
      List.sort compare all
      = List.sort compare (List.map (fun (f : Field.t) -> f.Field.name) fields))

let prop_cluster_capacity =
  QCheck2.Test.make
    ~name:"multi-member clusters fit within one cache line" ~count:150 flg_gen
    (fun input ->
      let flg = flg_of input in
      let clusters = Cluster.run flg ~line_size:128 in
      List.for_all
        (fun c ->
          match c.Cluster.members with
          | [ _ ] -> true (* a single oversized field may exceed a line *)
          | members -> Layout.packed_size members <= 128)
        clusters)

let prop_automatic_layout_valid =
  QCheck2.Test.make ~name:"automatic layout is a valid permutation" ~count:150
    flg_gen (fun input ->
      let fields, _, _ = input in
      let flg = flg_of input in
      let layout = Cluster.automatic_layout flg ~line_size:128 in
      Layout.check_invariants layout;
      List.sort compare (Layout.field_names layout)
      = List.sort compare (List.map (fun (f : Field.t) -> f.Field.name) fields))

let prop_incremental_layout_valid =
  QCheck2.Test.make
    ~name:"incremental layout is a valid permutation of the baseline"
    ~count:150 flg_gen (fun input ->
      let fields, _, _ = input in
      let flg = flg_of input in
      let baseline = Layout.of_fields ~struct_name:"S" fields in
      let incr = Subgraph.incremental_layout flg ~baseline ~line_size:128 () in
      Layout.check_invariants incr;
      List.sort compare (Layout.field_names incr)
      = List.sort compare (Layout.field_names baseline))

let prop_hotness_layout_valid =
  QCheck2.Test.make ~name:"hotness layout is a valid permutation" ~count:150
    flg_gen (fun input ->
      let fields, _, _ = input in
      let flg = flg_of input in
      let layout = Hotness_heuristic.layout_of_flg flg in
      Layout.check_invariants layout;
      List.sort compare (Layout.field_names layout)
      = List.sort compare (List.map (fun (f : Field.t) -> f.Field.name) fields))

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_cluster_partition; prop_cluster_capacity; prop_automatic_layout_valid;
      prop_incremental_layout_valid; prop_hotness_layout_valid;
    ]

let suites =
  [
    ( "core.flg",
      [
        Alcotest.test_case "weights" `Quick test_flg_weights;
        Alcotest.test_case "k scaling" `Quick test_flg_k_scaling;
        Alcotest.test_case "hotness order" `Quick test_flg_hotness_order;
        Alcotest.test_case "edge lists" `Quick test_flg_edge_lists;
      ] );
    ( "core.cluster",
      [
        Alcotest.test_case "affine together" `Quick test_cluster_affine_together;
        Alcotest.test_case "partition" `Quick test_cluster_partition;
        Alcotest.test_case "negative separates" `Quick test_cluster_negative_separates;
        Alcotest.test_case "capacity" `Quick test_cluster_capacity;
        Alcotest.test_case "cold packing" `Quick test_cluster_pack_cold;
        Alcotest.test_case "oversized field" `Quick test_cluster_oversized_field;
        Alcotest.test_case "intra/inter weights" `Quick test_intra_inter_weights;
        Alcotest.test_case "inter weight, hand-computed FLG" `Quick
          test_inter_weight_hand_computed;
        Alcotest.test_case "score(layout of clusters) = sum intra" `Quick
          test_cluster_score_law;
      ] );
    ( "core.hotness",
      [ Alcotest.test_case "alignment groups" `Quick test_hotness_alignment_groups ] );
    ( "core.subgraph",
      [
        Alcotest.test_case "filter" `Quick test_subgraph_filter;
        Alcotest.test_case "filter limit" `Quick test_subgraph_filter_limits_positive;
        Alcotest.test_case "incremental constraints" `Quick test_incremental_applies_constraints;
        Alcotest.test_case "no-op without constraints" `Quick test_incremental_no_constraints_is_baseline;
        Alcotest.test_case "foreign fields rejected" `Quick test_apply_rejects_foreign_fields;
      ] );
    ( "core.report",
      [
        Alcotest.test_case "report" `Quick test_report;
        Alcotest.test_case "automatic layout" `Quick test_automatic_layout_properties;
      ] );
    ("core.properties", props);
  ]

(* ------------------------------------------------------------------ *)
(* Advisor *)

module Advisor = Slo_core.Advisor

let test_advisor () =
  let flg = mk_flg ~loss_pairs:[ ("f2", "f0", 500.0); ("f2", "f1", 400.0) ] () in
  let adv = Advisor.analyze flg in
  Alcotest.(check (list string)) "dead field" [ "f3" ] adv.Advisor.dead_fields;
  (* every endpoint of a dominant negative edge is flagged; f2 (the
     writer, loss mass 900 vs gain 0) must rank first *)
  (match adv.Advisor.contended with
  | ("f2", neg, pos) :: _ ->
    checkf "neg mass" 900.0 neg;
    checkf "pos mass" 0.0 pos
  | _ -> Alcotest.fail "expected f2 as the top contended field");
  List.iter
    (fun (_, neg, pos) ->
      Alcotest.(check bool) "negative dominates" true (neg > pos))
    adv.Advisor.contended;
  (* hot split covers at least 90% of references and is hotness-prefixed *)
  Alcotest.(check string) "hottest first" "f0"
    (List.hd adv.Advisor.split.Advisor.hot_fields);
  Alcotest.(check bool) "coverage >= 0.9" true
    (adv.Advisor.split.Advisor.ref_coverage >= 0.9);
  Alcotest.(check bool) "hot part smaller" true
    (adv.Advisor.split.Advisor.hot_bytes < adv.Advisor.split.Advisor.total_bytes)

let test_advisor_coverage_param () =
  let flg = mk_flg () in
  let adv = Advisor.analyze ~hot_coverage:0.5 flg in
  Alcotest.(check bool) "smaller hot set" true
    (List.length adv.Advisor.split.Advisor.hot_fields <= 2);
  match Advisor.analyze ~hot_coverage:1.5 flg with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted coverage > 1"

let suites =
  suites
  @ [
      ( "core.advisor",
        [
          Alcotest.test_case "advisories" `Quick test_advisor;
          Alcotest.test_case "coverage param" `Quick test_advisor_coverage_param;
        ] );
    ]

(* ------------------------------------------------------------------ *)
(* Geometry preservation and the locality-only pipeline *)

let test_incremental_preserves_baseline_geometry () =
  (* Unconstrained fields must keep their baseline line-mates: the
     incremental edit may not reflow the hand layout. *)
  let flg = mk_flg ~loss_pairs:[ ("f2", "f0", 500.0); ("f2", "f1", 400.0) ] () in
  let baseline =
    Layout.of_clusters ~struct_name:"S" ~line_size:128
      [ [ fld "f0"; fld "f1" ]; [ fld "f2"; fld "f3" ] ]
  in
  let incr = Subgraph.incremental_layout flg ~baseline ~line_size:128 () in
  (* f3 was f2's line-mate; f2 gets quarantined but f3 must not migrate
     onto the hot line. *)
  Alcotest.(check bool) "f3 stays off the hot line" false
    (Layout.same_line incr ~line_size:128 "f3" "f0");
  Alcotest.(check bool) "constraint satisfied" false
    (Layout.same_line incr ~line_size:128 "f2" "f0")

let test_pipeline_locality_only () =
  (* Empty samples: the pipeline degenerates to the CGO'06 single-threaded
     optimizer — pure affinity clustering, no negative edges. *)
  let module Parser = Slo_ir.Parser in
  let module Typecheck = Slo_ir.Typecheck in
  let module Interp = Slo_profile.Interp in
  let src =
    {|
struct S { long a; long b; long c; long d; };
void f(struct S *s, int n) {
  for (i = 0; i < n; i++) {
    x = s->a + s->c;
    pause(5);
  }
}
|}
  in
  let p = Typecheck.check (Parser.parse_program ~file:"t" src) in
  let counts = Counts.create () in
  let ctx = Interp.make_ctx p in
  let prng = Slo_util.Prng.create ~seed:1 in
  let s = Interp.make_instance p ~struct_name:"S" in
  Interp.run ctx ~counts ~prng ~proc:"f" [ Interp.Ainst s; Interp.Aint 10 ];
  let flg =
    Pipeline.analyze ~program:p ~counts ~samples:[] ~struct_name:"S" ()
  in
  Alcotest.(check (list (triple string string (float 1e-6))))
    "no negative edges" [] (named flg (Flg.negative_edges flg));
  let layout = Pipeline.automatic_layout flg in
  Alcotest.(check bool) "affine pair colocated" true
    (Layout.same_line layout ~line_size:128 "a" "c")

(* Each analysis is recorded once, as one [pipeline.analyze_s] sample in
   the process registry: two structs analysed add two samples. *)
let test_pipeline_analyze_samples () =
  let module Parser = Slo_ir.Parser in
  let module Typecheck = Slo_ir.Typecheck in
  let module Interp = Slo_profile.Interp in
  let module Obs = Slo_obs.Obs in
  let src =
    {|
struct S { long a; long b; };
struct T { long c; long d; };
void f(struct S *s, struct T *t, int n) {
  for (i = 0; i < n; i++) {
    x = s->a + t->c;
  }
}
|}
  in
  let p = Typecheck.check (Parser.parse_program ~file:"t" src) in
  let counts = Counts.create () in
  let ctx = Interp.make_ctx p in
  let prng = Slo_util.Prng.create ~seed:1 in
  let s = Interp.make_instance p ~struct_name:"S"
  and t = Interp.make_instance p ~struct_name:"T" in
  Interp.run ctx ~counts ~prng ~proc:"f" [ Interp.Ainst s; Interp.Ainst t; Interp.Aint 10 ];
  let samples () =
    match Obs.histogram "pipeline.analyze_s" with Some h -> h.Obs.count | None -> 0
  in
  let before = samples () in
  let flgs =
    Pipeline.analyze_all ~program:p ~counts ~samples:[] ~struct_names:[ "S"; "T" ] ()
  in
  Alcotest.(check (list string)) "one FLG per struct" [ "S"; "T" ] (List.map fst flgs);
  Alcotest.(check int) "one sample per struct" (before + 2) (samples ())

let suites =
  suites
  @ [
      ( "core.pipeline",
        [
          Alcotest.test_case "geometry preserved" `Quick
            test_incremental_preserves_baseline_geometry;
          Alcotest.test_case "locality-only (no samples)" `Quick
            test_pipeline_locality_only;
          Alcotest.test_case "one analyze_s sample per struct" `Quick
            test_pipeline_analyze_samples;
        ] );
    ]
