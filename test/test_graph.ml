(* Tests for the test-side Sgraph (the Wgraph functor over strings) that
   the frozen oracles use. *)

module G = Sgraph

let check_int = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

let abc = List.fold_left G.add_node G.empty [ "a"; "b"; "c" ]

let test_empty () =
  check_int "no nodes" 0 (G.num_nodes G.empty);
  check_int "no edges" 0 (G.num_edges G.empty);
  Alcotest.(check bool) "mem" false (G.mem_node G.empty "x")

let test_add_edge_symmetric () =
  let g = G.add_edge G.empty "a" "b" 3.0 in
  checkf "a->b" 3.0 (G.weight0 g "a" "b");
  checkf "b->a" 3.0 (G.weight0 g "b" "a");
  Alcotest.(check (option (float 1e-9))) "weight some" (Some 3.0) (G.weight g "a" "b");
  Alcotest.(check (option (float 1e-9))) "absent edge" None (G.weight g "a" "c")

let test_accumulate () =
  let g = G.add_edge (G.add_edge G.empty "a" "b" 2.0) "b" "a" 3.0 in
  checkf "accumulated" 5.0 (G.weight0 g "a" "b");
  check_int "one edge" 1 (G.num_edges g)

let test_set_edge () =
  let g = G.set_edge (G.add_edge G.empty "a" "b" 2.0) "a" "b" 7.0 in
  checkf "replaced" 7.0 (G.weight0 g "a" "b")

let test_self_edge_rejected () =
  Alcotest.check_raises "self edge" (Invalid_argument "Wgraph.add_edge: self edge")
    (fun () -> ignore (G.add_edge G.empty "a" "a" 1.0))

let test_remove () =
  let g = G.add_edge (G.add_edge abc "a" "b" 1.0) "b" "c" 2.0 in
  let g' = G.remove_edge g "a" "b" in
  checkf "removed" 0.0 (G.weight0 g' "a" "b");
  checkf "other kept" 2.0 (G.weight0 g' "b" "c");
  let g'' = G.remove_node g "b" in
  Alcotest.(check bool) "node gone" false (G.mem_node g'' "b");
  check_int "edges gone with node" 0 (G.num_edges g'')

let test_neighbors_degree () =
  let g = G.add_edge (G.add_edge abc "a" "b" 1.0) "a" "c" 2.0 in
  check_int "degree a" 2 (G.degree g "a");
  check_int "degree b" 1 (G.degree g "b");
  Alcotest.(check (list (pair string (float 1e-9))))
    "neighbors sorted" [ ("b", 1.0); ("c", 2.0) ] (G.neighbors g "a");
  Alcotest.(check (list string)) "nodes" [ "a"; "b"; "c" ] (G.nodes g)

let test_edges_once () =
  let g = G.add_edge (G.add_edge abc "a" "b" 1.0) "b" "c" 2.0 in
  Alcotest.(check (list (triple string string (float 1e-9))))
    "each edge once, ordered" [ ("a", "b", 1.0); ("b", "c", 2.0) ] (G.edges g)

let test_filter_and_isolated () =
  let g =
    G.add_edge (G.add_edge (G.add_edge abc "a" "b" 5.0) "b" "c" (-2.0)) "a" "c" 1.0
  in
  let neg = G.filter_edges g ~f:(fun _ _ w -> w < 0.0) in
  check_int "kept one edge" 1 (G.num_edges neg);
  check_int "nodes retained" 3 (G.num_nodes neg);
  let pruned = G.drop_isolated neg in
  Alcotest.(check (list string)) "isolated dropped" [ "b"; "c" ] (G.nodes pruned)

let test_top_edges () =
  let g =
    G.add_edge (G.add_edge (G.add_edge abc "a" "b" 5.0) "b" "c" (-7.0)) "a" "c" 1.0
  in
  let top = G.top_edges g ~k:2 ~by:Float.abs in
  Alcotest.(check (list (triple string string (float 1e-9))))
    "by magnitude" [ ("b", "c", -7.0); ("a", "b", 5.0) ] top

let test_weight_sum_to () =
  let g = G.add_edge (G.add_edge abc "a" "b" 5.0) "a" "c" (-2.0) in
  checkf "sum" 3.0 (G.weight_sum_to g "a" [ "b"; "c" ]);
  checkf "missing nodes count 0" 5.0 (G.weight_sum_to g "a" [ "b"; "zz" ])

let test_union_map () =
  let g1 = G.add_edge G.empty "a" "b" 1.0 in
  let g2 = G.add_edge G.empty "a" "b" 2.0 in
  checkf "union accumulates" 3.0 (G.weight0 (G.union g1 g2) "a" "b");
  let neg = G.map_weights g1 ~f:(fun _ _ w -> -.w) in
  checkf "map" (-1.0) (G.weight0 neg "a" "b")

let test_dot () =
  let g = G.add_edge G.empty "a" "b" 1.5 in
  let dot = G.to_dot ~name:"t" g in
  Alcotest.(check bool) "contains edge" true
    (Tutil.contains dot "\"a\" -- \"b\"")

(* ------------------------------------------------------------------ *)
(* Properties over random edge lists *)

let graph_of_edges edges =
  List.fold_left (fun g (u, v, w) -> G.add_edge g u v w) G.empty edges

let names = List.init 10 (fun i -> Printf.sprintf "n%d" i)

let gen_edges =
  QCheck2.Gen.(
    let* n = int_range 0 40 in
    list_size (return n)
      (let* i = int_range 0 9 in
       let* j = int_range 0 9 in
       let* w = float_range (-50.0) 50.0 in
       return (List.nth names i, List.nth names j, w)))
  |> QCheck2.Gen.map (List.filter (fun (u, v, _) -> u <> v))

let prop_symmetric =
  QCheck2.Test.make ~name:"weights are symmetric" ~count:200 gen_edges
    (fun edges ->
      let g = graph_of_edges edges in
      List.for_all (fun (u, v, _) -> G.weight0 g u v = G.weight0 g v u) edges)

let prop_edge_count =
  QCheck2.Test.make ~name:"edges list length = num_edges" ~count:200 gen_edges
    (fun edges ->
      let g = graph_of_edges edges in
      List.length (G.edges g) = G.num_edges g)

let prop_accumulation =
  QCheck2.Test.make ~name:"weight is the sum of contributions" ~count:200
    gen_edges (fun edges ->
      let g = graph_of_edges edges in
      let expect u v =
        List.fold_left
          (fun acc (a, b, w) ->
            if (a = u && b = v) || (a = v && b = u) then acc +. w else acc)
          0.0 edges
      in
      List.for_all
        (fun (u, v, _) -> Float.abs (G.weight0 g u v -. expect u v) < 1e-6)
        edges)

let prop_filter_subset =
  QCheck2.Test.make ~name:"filter_edges yields a sub-edge-set" ~count:200
    gen_edges (fun edges ->
      let g = graph_of_edges edges in
      let f = G.filter_edges g ~f:(fun _ _ w -> w > 0.0) in
      List.for_all
        (fun (u, v, w) -> w > 0.0 && G.weight0 g u v = w)
        (G.edges f))

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_symmetric; prop_edge_count; prop_accumulation; prop_filter_subset ]

let suites =
  [
    ( "graph.basics",
      [
        Alcotest.test_case "empty" `Quick test_empty;
        Alcotest.test_case "symmetric add" `Quick test_add_edge_symmetric;
        Alcotest.test_case "accumulate" `Quick test_accumulate;
        Alcotest.test_case "set_edge" `Quick test_set_edge;
        Alcotest.test_case "self edge rejected" `Quick test_self_edge_rejected;
        Alcotest.test_case "remove" `Quick test_remove;
        Alcotest.test_case "neighbors/degree" `Quick test_neighbors_degree;
        Alcotest.test_case "edges visited once" `Quick test_edges_once;
        Alcotest.test_case "filter + drop_isolated" `Quick test_filter_and_isolated;
        Alcotest.test_case "top_edges" `Quick test_top_edges;
        Alcotest.test_case "weight_sum_to" `Quick test_weight_sum_to;
        Alcotest.test_case "union/map" `Quick test_union_map;
        Alcotest.test_case "dot export" `Quick test_dot;
      ] );
    ("graph.properties", props);
  ]
