(* Tests for lib/codelayout — the block substrate of the generic search
   engine — plus the substrate laws pinning the functor refactor: the
   field substrate must score byte-identically to a transcription of the
   pre-refactor evaluator, and the block substrate must agree with a
   brute-force pair-sum oracle on tiny (<= 7 block) procedures. *)

module Field = Slo_layout.Field
module Pool = Slo_exec.Pool
module Engine = Slo_search.Engine
module Objective = Slo_search.Objective
module Codelayout = Slo_codelayout.Codelayout
module Ctrap = Slo_workload.Ctrap
module Machine = Slo_sim.Machine
module Topology = Slo_sim.Topology

let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Substrate law 1: the field substrate is byte-identical to the
   pre-refactor evaluator. This is a transcription of the original
   Objective.score_blocks — sum over unordered pairs in list order,
   left-to-right, blocks left-to-right — now served by the shared
   Substrate.score_indices. If the scorer ever changes its visit order,
   float sums reassociate and this pin fails on some random FLG. *)

(* A weight by name, read from the objective's matrix. *)
let weight (obj : Objective.t) a b =
  let index name = Option.get (Slo_util.Names.find_opt obj.Objective.names name) in
  Float.Array.get obj.Objective.weights
    ((index a * Array.length obj.Objective.nodes) + index b)

let prerefactor_score obj blocks =
  List.fold_left
    (fun acc block ->
      let rec pair_sum acc = function
        | [] -> acc
        | (x : Field.t) :: rest ->
          pair_sum
            (List.fold_left
               (fun acc (y : Field.t) ->
                 acc +. weight obj x.Field.name y.Field.name)
               acc rest)
            rest
      in
      acc +. pair_sum 0.0 block)
    0.0 blocks

let prop_field_substrate_byte_identical =
  QCheck2.Test.make
    ~name:
      "field substrate: score_blocks is byte-identical to the pre-refactor \
       evaluator on every partition of random FLGs" ~count:40
    Test_exec.gen_small_flg
    (fun flg ->
      let obj = Test_exec.objective_of flg in
      List.for_all
        (fun blocks ->
          Int64.bits_of_float (Objective.score_blocks obj blocks)
          = Int64.bits_of_float (prerefactor_score obj blocks))
        (Test_exec.partitions (Array.to_list flg.Slo_core.Flg.fields)))

(* ------------------------------------------------------------------ *)
(* Substrate law 2: the block substrate agrees with a brute-force oracle.
   Integer-valued edge weights make every summation order exact, so the
   oracle can sum pairs however it likes; the law is about the value, not
   the fold order. *)

let gen_small_problem =
  QCheck2.Gen.(
    let* n = int_range 1 7 in
    let* sizes = list_size (return n) (int_range 4 24) in
    let blocks =
      List.mapi (fun i s -> Codelayout.Block.make ~proc:"p" ~id:i ~size:s) sizes
    in
    let names = Array.of_list (List.map Codelayout.Block.name blocks) in
    let* nedges = int_range 0 (3 * n) in
    let* raw =
      list_size (return nedges)
        (let* i = int_range 0 (n - 1) in
         let* j = int_range 0 (n - 1) in
         let* w = int_range 1 100 in
         return (i, j, w))
    in
    let graph, weights =
      Tutil.graph_and_matrix names
        (List.map (fun (i, j, w) -> (i, j, float_of_int w)) raw)
    in
    let* capacity = int_range 8 48 in
    return (graph, Codelayout.make ~capacity ~blocks ~weights))

let oracle_score graph bins =
  List.fold_left
    (fun acc bin ->
      let rec pair_sum acc = function
        | [] -> acc
        | x :: rest ->
          pair_sum
            (List.fold_left
               (fun acc y ->
                 acc
                 +. Sgraph.weight0 graph (Codelayout.Block.name x)
                      (Codelayout.Block.name y))
               acc rest)
            rest
      in
      acc +. pair_sum 0.0 bin)
    0.0 bins

let bin_fits ~capacity bin =
  match bin with
  | [] | [ _ ] -> true
  | _ ->
    List.fold_left (fun a b -> a + Codelayout.Block.size b) 0 bin <= capacity

let prop_block_substrate_vs_oracle =
  QCheck2.Test.make
    ~name:
      "block substrate: score agrees with the brute-force pair-sum oracle \
       on <= 7-block procedures, and the portfolio never beats the \
       exhaustive optimum" ~count:40 gen_small_problem
    (fun (graph, p) ->
      let capacity = Codelayout.capacity p in
      let valid =
        List.filter
          (List.for_all (bin_fits ~capacity))
          (Test_exec.partitions (Codelayout.blocks p))
      in
      let agree =
        List.for_all
          (fun bins ->
            Float.abs (Codelayout.score p bins -. oracle_score graph bins)
            = 0.0)
          valid
      in
      let optimum =
        List.fold_left (fun m bins -> Float.max m (oracle_score graph bins))
          neg_infinity valid
      in
      let pf = Codelayout.search ~seed:0 ~restarts:2 p Engine.Portfolio in
      let b = pf.Codelayout.best.Codelayout.score in
      agree
      && b <= optimum +. 1e-9
      && b >= Codelayout.score p (Codelayout.decl_bins p) -. 1e-9)

(* ------------------------------------------------------------------ *)
(* Construction and validation *)

let test_block_validation () =
  let expect_invalid label f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted" label
  in
  expect_invalid "size 0" (fun () ->
      Codelayout.Block.make ~proc:"p" ~id:0 ~size:0);
  expect_invalid "negative id" (fun () ->
      Codelayout.Block.make ~proc:"p" ~id:(-1) ~size:8);
  let b = Codelayout.Block.make ~proc:"p" ~id:3 ~size:8 in
  Alcotest.(check string) "name is proc#id" "p#3" (Codelayout.Block.name b);
  let blocks = [ b ] in
  let zeros n = Float.Array.make (n * n) 0.0 in
  expect_invalid "capacity 0" (fun () ->
      Codelayout.make ~capacity:0 ~blocks ~weights:(zeros 1));
  expect_invalid "duplicate block" (fun () ->
      Codelayout.make ~capacity:64 ~blocks:[ b; b ] ~weights:(zeros 2));
  expect_invalid "weights of the wrong size" (fun () ->
      Codelayout.make ~capacity:64 ~blocks ~weights:(zeros 2))

(* ------------------------------------------------------------------ *)
(* The trap problem end to end: block set matches the machine's code
   table, declaration bins respect capacity and procedure boundaries,
   flattening them reproduces declaration order, and the portfolio is
   pool-size invariant. *)

let ctrap_problem () =
  Codelayout.of_program ~capacity:Ctrap.icache.Slo_sim.Coherence.i_line_size
    (Ctrap.program ()) (Ctrap.profile ())

let test_ctrap_problem_shape () =
  let p = ctrap_problem () in
  let blocks = Codelayout.blocks p in
  let machine =
    Machine.create
      (Machine.default_config (Topology.bus ~cpus:2 ()))
      (Ctrap.program ())
  in
  let table = Machine.code_blocks machine in
  check_int "one node per machine code block" (List.length table)
    (List.length blocks);
  List.iter2
    (fun b (proc, id, _addr, size) ->
      Alcotest.(check string) "proc order matches" proc (Codelayout.Block.proc b);
      check_int "id matches" id (Codelayout.Block.id b);
      check_int "size is the machine's" size (Codelayout.Block.size b))
    blocks
    (List.sort (fun (_, _, a, _) (_, _, b, _) -> compare a b) table);
  let capacity = Codelayout.capacity p in
  let bins = Codelayout.decl_bins p in
  List.iter
    (fun bin ->
      Alcotest.(check bool) "bin fits (or is a singleton)" true
        (bin_fits ~capacity bin);
      match bin with
      | [] -> Alcotest.fail "empty bin"
      | b0 :: rest ->
        List.iter
          (fun b ->
            Alcotest.(check string) "bins never span a procedure"
              (Codelayout.Block.proc b0) (Codelayout.Block.proc b))
          rest)
    bins;
  Alcotest.(check (list (pair string int)))
    "flattened decl bins = declaration order" (Codelayout.decl_order p)
    (Codelayout.order_of_bins bins)

let result_repr (r : Codelayout.result) =
  Printf.sprintf "%s:%d:%h:%d:%s" r.Codelayout.label r.Codelayout.stream
    r.Codelayout.score r.Codelayout.moves
    (String.concat ","
       (List.map (fun (p, b) -> Printf.sprintf "%s#%d" p b) r.Codelayout.order))

let portfolio_repr (pf : Codelayout.portfolio) =
  String.concat "|"
    (result_repr pf.Codelayout.best :: result_repr pf.Codelayout.greedy
    :: List.map result_repr pf.Codelayout.scoreboard)

let test_ctrap_pool_identity () =
  let p = ctrap_problem () in
  let run pool =
    portfolio_repr (Codelayout.search ?pool ~seed:0 ~restarts:3 p Engine.Portfolio)
  in
  let serial = run None in
  List.iter
    (fun domains ->
      let par = Pool.with_pool ~domains (fun pl -> run (Some pl)) in
      Alcotest.(check string)
        (Printf.sprintf "portfolio, %d domains" domains)
        serial par)
    [ 1; 2 ]

(* The searched order must be a valid machine layout: applying it to a
   fresh machine succeeds (full cover, no duplicates) and the end-to-end
   trap run fetches strictly fewer I-cache lines than declaration order. *)
let test_ctrap_search_confirmed () =
  let p = ctrap_problem () in
  let pf = Codelayout.search ~seed:0 ~restarts:3 p Engine.Portfolio in
  let base = Ctrap.run_sim () in
  let opt = Ctrap.run_sim ~code_layout:pf.Codelayout.best.Codelayout.order () in
  let module S = Slo_sim.Sim_stats in
  Alcotest.(check bool) "identical instruction stream" true
    (base.Machine.stats.S.ifetches > 0 && opt.Machine.stats.S.ifetches > 0);
  Alcotest.(check bool)
    (Printf.sprintf "searched layout misses less (%d < %d)"
       opt.Machine.stats.S.imisses base.Machine.stats.S.imisses)
    true
    (opt.Machine.stats.S.imisses < base.Machine.stats.S.imisses)

let suites =
  [
    ( "codelayout.substrate",
      [
        QCheck_alcotest.to_alcotest prop_field_substrate_byte_identical;
        QCheck_alcotest.to_alcotest prop_block_substrate_vs_oracle;
      ] );
    ( "codelayout.problem",
      [
        Alcotest.test_case "construction validation" `Quick
          test_block_validation;
        Alcotest.test_case "trap problem mirrors the machine code table"
          `Quick test_ctrap_problem_shape;
      ] );
    ( "codelayout.search",
      [
        Alcotest.test_case "pool sizes 1/2 byte-identical" `Quick
          test_ctrap_pool_identity;
        Alcotest.test_case "searched order reduces trap I-cache misses"
          `Quick test_ctrap_search_confirmed;
      ] );
  ]
