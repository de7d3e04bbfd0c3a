(* Tests for lib/search: the shared layout objective, the metaheuristic
   optimizers, and the parallel portfolio. Small random FLGs come from
   Test_exec's generator so the brute-force partition oracle there and the
   optimizers here are exercised against the same instances. *)

module Field = Slo_layout.Field
module Layout = Slo_layout.Layout
module Prng = Slo_util.Prng
module Pool = Slo_exec.Pool
module Obs = Slo_obs.Obs
module Flg = Slo_core.Flg
module Cluster = Slo_core.Cluster
module Pipeline = Slo_core.Pipeline
module Objective = Slo_search.Objective
module Optimizer = Slo_search.Optimizer
module Trap = Slo_workload.Trap

let checkf = Alcotest.(check (float 1e-6))
let check_int = Alcotest.(check int)
let fld name = Field.make ~name ~prim:Slo_ir.Ast.Long ~count:1 ()
let line_size = 32 (* 4 longs per line, matching the oracle's *)

let objective_of flg = Test_exec.objective_of ~line_size flg

let greedy_init flg =
  List.map
    (fun (c : Cluster.cluster) -> c.Cluster.members)
    (Cluster.run flg ~line_size)

(* A small hand FLG where the best partition is known by inspection:
   chain a-b-c with w(a,b) = 10, w(b,c) = 11 and two-long lines, so the
   optimum is {b,c} | {a} with score 11. *)
let chain_flg () =
  let fields = [ fld "a"; fld "b"; fld "c" ] in
  Test_exec.flg_of ~fields
    ~edges:[ ("a", "b", 10.0); ("b", "c", 11.0) ]
    ~hotness:[ ("a", 3); ("b", 2); ("c", 1) ]

let chain_objective () = Test_exec.objective_of ~line_size:16 (chain_flg ())

(* ------------------------------------------------------------------ *)
(* Objective *)

let test_make_validation () =
  let fields = [ fld "a" ] in
  let weights n = Float.Array.make (n * n) 0.0 and active = [||] in
  Alcotest.check_raises "line_size <= 0"
    (Invalid_argument "Search.Objective.make: line_size <= 0") (fun () ->
      ignore
        (Objective.make ~struct_name:"S" ~fields ~weights:(weights 1) ~active
           ~line_size:0));
  Alcotest.check_raises "empty fields"
    (Invalid_argument "Search.Objective.make: no fields") (fun () ->
      ignore
        (Objective.make ~struct_name:"S" ~fields:[] ~weights:(weights 0) ~active
           ~line_size:64));
  Alcotest.check_raises "duplicate field"
    (Invalid_argument "Search.Objective.make: duplicate field \"a\"")
    (fun () ->
      ignore
        (Objective.make ~struct_name:"S" ~fields:[ fld "a"; fld "a" ]
           ~weights:(weights 2) ~active ~line_size:64));
  Alcotest.check_raises "weights not n x n"
    (Invalid_argument "Search.Objective.make: weights are not n x n")
    (fun () ->
      ignore
        (Objective.make ~struct_name:"S" ~fields ~weights:(weights 2) ~active
           ~line_size:64))

let test_score_hand_computed () =
  let obj = chain_objective () in
  checkf "a|b|c" 0.0 (Objective.score_blocks obj [ [ fld "a" ]; [ fld "b" ]; [ fld "c" ] ]);
  checkf "{a,b}|{c}" 10.0
    (Objective.score_blocks obj [ [ fld "a"; fld "b" ]; [ fld "c" ] ]);
  checkf "{b,c}|{a}" 11.0
    (Objective.score_blocks obj [ [ fld "b"; fld "c" ]; [ fld "a" ] ]);
  checkf "weight is symmetric"
    (Objective.block_weight obj [ fld "a"; fld "b" ])
    (Objective.block_weight obj [ fld "b"; fld "a" ])

(* The partition/layout agreement law: scoring a partition directly equals
   scoring the layout produced by giving each block its own line. *)
let prop_score_blocks_eq_score_layout =
  QCheck2.Test.make ~name:"score (layout_of_blocks bs) = score_blocks bs"
    ~count:200 Test_exec.gen_small_flg (fun flg ->
      let obj = objective_of flg in
      Test_exec.partitions (Array.to_list flg.Flg.fields)
      |> List.filter (List.for_all (Objective.block_fits obj))
      |> List.for_all (fun blocks ->
             let direct = Objective.score_blocks obj blocks in
             let via_layout =
               Objective.score obj (Objective.layout_of_blocks obj blocks)
             in
             Float.abs (direct -. via_layout) < 1e-9))

let prop_gain_loss_decomposition =
  QCheck2.Test.make ~name:"score = gain - loss, gain and loss nonnegative"
    ~count:200 Test_exec.gen_small_flg (fun flg ->
      let obj = objective_of flg in
      let layout =
        Objective.layout_of_blocks obj (greedy_init flg)
      in
      let gain, loss = Objective.gain_loss obj layout in
      gain >= 0.0 && loss >= 0.0
      && Float.abs (gain -. loss -. Objective.score obj layout) < 1e-9)

let test_active_fields () =
  let obj =
    Test_exec.objective_of ~line_size:16
      (Test_exec.flg_of
         ~fields:[ fld "a"; fld "b"; fld "c"; fld "isolated" ]
         ~edges:[ ("a", "b", 10.0); ("b", "c", 11.0) ]
         ~hotness:[])
  in
  Alcotest.(check (list string))
    "only fields with incident edges are active"
    [ "a"; "b"; "c" ]
    (List.map (fun (f : Field.t) -> f.Field.name) (Objective.active_fields obj))

(* ------------------------------------------------------------------ *)
(* Optimizer *)

let test_selector_parsing () =
  let open Optimizer in
  Alcotest.(check bool) "greedy" true (selector_of_string "greedy" = One Greedy);
  Alcotest.(check bool) "swap" true (selector_of_string "swap" = One Swap);
  Alcotest.(check bool) "swap_descent alias" true
    (selector_of_string "swap_descent" = One Swap);
  Alcotest.(check bool) "swap-descent alias" true
    (selector_of_string "swap-descent" = One Swap);
  Alcotest.(check bool) "anneal" true (selector_of_string "anneal" = One Anneal);
  Alcotest.(check bool) "annealing alias" true
    (selector_of_string "annealing" = One Anneal);
  Alcotest.(check bool) "portfolio" true
    (selector_of_string "Portfolio" = Portfolio);
  Alcotest.(check bool) "case-insensitive" true
    (selector_of_string " GREEDY " = One Greedy);
  Alcotest.check_raises "unknown optimizer lists the valid names"
    (Invalid_argument
       "Search.Optimizer.selector_of_string: unknown optimizer \"bogus\" \
        (valid: greedy|swap|anneal|portfolio)") (fun () ->
      ignore (selector_of_string "bogus"))

let test_run_validation () =
  let obj = chain_objective () in
  Alcotest.check_raises "init not a partition"
    (Invalid_argument "Search.Optimizer.run: init is not a partition of the fields")
    (fun () ->
      ignore (Optimizer.run obj ~init:[ [ fld "a" ] ] Optimizer.Greedy));
  Alcotest.check_raises "oversized block"
    (Invalid_argument "Search.Optimizer.run: init block exceeds the cache line")
    (fun () ->
      ignore
        (Optimizer.run obj
           ~init:[ [ fld "a"; fld "b"; fld "c" ] ]
           Optimizer.Greedy));
  Alcotest.check_raises "steps <= 0"
    (Invalid_argument "Search.Optimizer.run: steps <= 0") (fun () ->
      ignore
        (Optimizer.run ~steps:0 obj
           ~init:[ [ fld "a" ]; [ fld "b" ]; [ fld "c" ] ]
           Optimizer.Anneal))

let test_swap_fixes_chain_trap () =
  (* Greedy seeds at the hottest field [a], takes its only positive edge
     (a,b), fills the two-long line and strands c: score 10. One exchange
     (a <-> c) reaches the optimum {b,c} | {a}: score 11. *)
  let flg = chain_flg () in
  let obj =
    Test_exec.objective_of ~line_size:16 flg
  in
  let init =
    List.map
      (fun (c : Cluster.cluster) -> c.Cluster.members)
      (Cluster.run flg ~line_size:16)
  in
  checkf "greedy is trapped" 10.0 (Objective.score_blocks obj init);
  let r = Optimizer.run obj ~init Optimizer.Swap in
  checkf "swap descent reaches the optimum" 11.0 r.Optimizer.score;
  check_int "in one move" 1 r.Optimizer.moves;
  Alcotest.(check bool) "b and c share a line" true
    (Layout.same_line r.Optimizer.layout ~line_size:16 "b" "c")

(* Every optimizer returns a valid line-respecting partition of the field
   set and never scores below the greedy seed. *)
let prop_optimizers_valid_and_never_below_greedy =
  QCheck2.Test.make
    ~name:"optimizers: valid partition, score >= greedy (1, 2, N domains)"
    ~count:100 Test_exec.gen_small_flg (fun flg ->
      let obj = objective_of flg in
      let init = greedy_init flg in
      let greedy_score = Objective.score_blocks obj init in
      let names blocks =
        List.sort compare
          (List.concat_map
             (List.map (fun (f : Field.t) -> f.Field.name))
             blocks)
      in
      let all_names = names [ Array.to_list flg.Flg.fields ] in
      List.for_all
        (fun kind ->
          let r = Optimizer.run ~prng:(Prng.create ~seed:3) obj ~init kind in
          names r.Optimizer.blocks = all_names
          && List.for_all (Objective.block_fits obj) r.Optimizer.blocks
          && r.Optimizer.score >= greedy_score
          && Float.abs
               (Objective.score_blocks obj r.Optimizer.blocks
               -. r.Optimizer.score)
             < 1e-9)
        [ Optimizer.Greedy; Optimizer.Swap; Optimizer.Anneal ])

(* The portfolio never beats the brute-force oracle (all its candidates
   are valid partitions) and never scores below greedy or the declaration
   order (it descends from both seeds). *)
let prop_portfolio_vs_oracle =
  QCheck2.Test.make
    ~name:"portfolio: greedy <= best, decl <= best, best <= oracle (≤7 fields)"
    ~count:60 Test_exec.gen_small_flg (fun flg ->
      let obj = objective_of flg in
      let init = greedy_init flg in
      let p =
        Optimizer.run_selector ~restarts:2 obj ~init Optimizer.Portfolio
      in
      let best = p.Optimizer.best.Optimizer.score in
      let oracle =
        Test_exec.partitions (Array.to_list flg.Flg.fields)
        |> List.filter (List.for_all (Objective.block_fits obj))
        |> List.fold_left
             (fun acc blocks ->
               Float.max acc (Objective.score_blocks obj blocks))
             neg_infinity
      in
      let decl_score =
        Objective.score_blocks obj (Optimizer.decl_blocks obj)
      in
      best >= p.Optimizer.greedy.Optimizer.score
      && best >= decl_score -. 1e-9
      && best <= oracle +. 1e-6)

let test_trap_search_beats_greedy () =
  (* The engineered greedy-trap workload (lib/workload/trap.ml): the
     portfolio must strictly beat greedy and reunite the scan block. *)
  let p =
    Pipeline.search ~restarts:2 ~selector:Optimizer.Portfolio (Trap.flg ())
  in
  Alcotest.(check bool) "strict improvement" true
    (p.Optimizer.best.Optimizer.score
    > p.Optimizer.greedy.Optimizer.score +. 1e-9);
  let best = p.Optimizer.best.Optimizer.layout in
  Alcotest.(check bool) "decoy pair colocated" true
    (Layout.same_line best ~line_size:Trap.line_size "t_x" "t_y");
  Alcotest.(check bool) "scan block reunited with its seed" true
    (Layout.same_line best ~line_size:Trap.line_size "t_s" "t_c14")

(* ------------------------------------------------------------------ *)
(* Portfolio determinism *)

let result_repr (r : Optimizer.result) =
  Format.asprintf "%s/%d %.9f %d %a" r.Optimizer.label r.Optimizer.stream
    r.Optimizer.score r.Optimizer.moves Layout.pp r.Optimizer.layout

let portfolio_repr (p : Optimizer.portfolio) =
  String.concat "\n"
    (result_repr p.Optimizer.best
    :: result_repr p.Optimizer.greedy
    :: List.map result_repr p.Optimizer.scoreboard)

let test_portfolio_pool_identity () =
  let flg = Trap.flg () in
  let run pool =
    portfolio_repr
      (Pipeline.search ?pool ~seed:0 ~restarts:4
         ~selector:Optimizer.Portfolio flg)
  in
  let serial = run None in
  List.iter
    (fun domains ->
      let par = Pool.with_pool ~domains (fun p -> run (Some p)) in
      Alcotest.(check string)
        (Printf.sprintf "portfolio, %d domains" domains)
        serial par)
    (Test_exec.pool_sizes ())

let test_anneal_deterministic () =
  let obj = chain_objective () in
  let init = [ [ fld "a" ]; [ fld "b" ]; [ fld "c" ] ] in
  let run () =
    result_repr
      (Optimizer.run ~prng:(Prng.create ~seed:9) obj ~init Optimizer.Anneal)
  in
  Alcotest.(check string) "same prng, same result" (run ()) (run ());
  let other =
    result_repr
      (Optimizer.run
         ~prng:(Prng.derive ~seed:9 ~stream:1)
         obj ~init Optimizer.Anneal)
  in
  ignore other (* different stream may or may not differ; just must run *)

let test_portfolio_shape () =
  let flg = chain_flg () in
  let obj =
    Test_exec.objective_of ~line_size:16 flg
  in
  let init =
    List.map
      (fun (c : Cluster.cluster) -> c.Cluster.members)
      (Cluster.run flg ~line_size:16)
  in
  let before = Obs.counter "search.tasks" in
  let p = Optimizer.run_selector ~restarts:3 obj ~init Optimizer.Portfolio in
  (* greedy + swap + swap@decl + 3 anneals *)
  check_int "scoreboard size" 6 (List.length p.Optimizer.scoreboard);
  check_int "search.tasks bumped" (before + 6) (Obs.counter "search.tasks");
  check_int "greedy is stream 0" 0 p.Optimizer.greedy.Optimizer.stream;
  Alcotest.(check string) "greedy label" "greedy" p.Optimizer.greedy.Optimizer.label;
  (* scoreboard is sorted by score descending *)
  let scores = List.map (fun r -> r.Optimizer.score) p.Optimizer.scoreboard in
  Alcotest.(check (list (float 1e-9)))
    "sorted descending"
    (List.sort (fun a b -> compare b a) scores)
    scores;
  checkf "best is the max" (List.hd scores) p.Optimizer.best.Optimizer.score;
  checkf "chain trap solved by the portfolio" 11.0
    p.Optimizer.best.Optimizer.score;
  Alcotest.check_raises "restarts < 1"
    (Invalid_argument "Search.Optimizer.run_selector: restarts < 1")
    (fun () ->
      ignore (Optimizer.run_selector ~restarts:0 obj ~init Optimizer.Portfolio))

let test_selector_task_counts () =
  let obj = chain_objective () in
  let init = [ [ fld "a" ]; [ fld "b" ]; [ fld "c" ] ] in
  let n selector =
    List.length
      (Optimizer.run_selector ~restarts:2 obj ~init selector)
        .Optimizer.scoreboard
  in
  check_int "greedy alone" 1 (n (Optimizer.One Optimizer.Greedy));
  check_int "swap = baseline + descent" 2 (n (Optimizer.One Optimizer.Swap));
  check_int "anneal = baseline + restarts" 3 (n (Optimizer.One Optimizer.Anneal));
  check_int "portfolio" 5 (n Optimizer.Portfolio)

let suites =
  [
    ( "search.objective",
      [
        Alcotest.test_case "make validation" `Quick test_make_validation;
        Alcotest.test_case "hand-computed scores" `Quick
          test_score_hand_computed;
        Alcotest.test_case "active fields" `Quick test_active_fields;
        QCheck_alcotest.to_alcotest prop_score_blocks_eq_score_layout;
        QCheck_alcotest.to_alcotest prop_gain_loss_decomposition;
      ] );
    ( "search.optimizer",
      [
        Alcotest.test_case "selector parsing" `Quick test_selector_parsing;
        Alcotest.test_case "run validation" `Quick test_run_validation;
        Alcotest.test_case "swap fixes the chain trap" `Quick
          test_swap_fixes_chain_trap;
        Alcotest.test_case "trap workload: search beats greedy" `Quick
          test_trap_search_beats_greedy;
        QCheck_alcotest.to_alcotest
          prop_optimizers_valid_and_never_below_greedy;
        QCheck_alcotest.to_alcotest prop_portfolio_vs_oracle;
      ] );
    ( "search.portfolio",
      [
        Alcotest.test_case "pool sizes 1/2/N byte-identical" `Quick
          test_portfolio_pool_identity;
        Alcotest.test_case "anneal determinism" `Quick test_anneal_deterministic;
        Alcotest.test_case "portfolio shape + obs" `Quick test_portfolio_shape;
        Alcotest.test_case "selector task counts" `Quick
          test_selector_task_counts;
      ] );
  ]
