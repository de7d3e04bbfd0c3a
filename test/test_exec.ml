(* Differential and property tests for the parallel execution engine
   (Slo_exec.Pool): the pool must be observably identical to the serial
   code paths for every domain count, which is the determinism contract
   the parallel pipeline/sim/bench entry points rely on. *)

module Pool = Slo_exec.Pool
module Prng = Slo_util.Prng
module Ast = Slo_ir.Ast
module Parser = Slo_ir.Parser
module Typecheck = Slo_ir.Typecheck
module Interp = Slo_profile.Interp
module Counts = Slo_profile.Counts
module Sample = Slo_concurrency.Sample
module Field = Slo_layout.Field
module Layout = Slo_layout.Layout
module Flg = Slo_core.Flg
module Cluster = Slo_core.Cluster
module Pipeline = Slo_core.Pipeline
module Report = Slo_core.Report
module Sdet = Slo_workload.Sdet
module Topology = Slo_sim.Topology

(* Pool sizes every differential property runs at: the serial special case,
   the smallest true parallel pool, and whatever this machine recommends. *)
let pool_sizes () =
  List.sort_uniq compare [ 1; 2; Domain.recommended_domain_count () ]

(* ------------------------------------------------------------------ *)
(* Pool.map ≡ List.map *)

let prop_map_eq_list_map =
  QCheck2.Test.make ~name:"Pool.map = List.map for 1, 2, N domains" ~count:40
    QCheck2.Gen.(list (int_bound 10_000))
    (fun xs ->
      let f x = (x * 31) + (x mod 7) in
      let expected = List.map f xs in
      List.for_all
        (fun domains ->
          Pool.with_pool ~domains (fun p -> Pool.map p f xs) = expected)
        (pool_sizes ()))

let prop_mapi_order =
  QCheck2.Test.make ~name:"Pool.mapi preserves index order" ~count:40
    QCheck2.Gen.(list (int_bound 1000))
    (fun xs ->
      let expected = List.mapi (fun i x -> (i, x)) xs in
      List.for_all
        (fun domains ->
          Pool.with_pool ~domains (fun p ->
              Pool.mapi p (fun i x -> (i, x)) xs)
          = expected)
        (pool_sizes ()))

let prop_no_lost_tasks =
  QCheck2.Test.make ~name:"no lost tasks: every element executed once"
    ~count:30
    QCheck2.Gen.(int_range 0 500)
    (fun n ->
      let xs = List.init n Fun.id in
      List.for_all
        (fun domains ->
          let executed = Atomic.make 0 in
          let r =
            Pool.with_pool ~domains (fun p ->
                Pool.map p
                  (fun x ->
                    Atomic.incr executed;
                    x)
                  xs)
          in
          r = xs && Atomic.get executed = n)
        (pool_sizes ()))

exception Task_failed of int

let prop_exceptions_propagated =
  QCheck2.Test.make
    ~name:"lowest-index exception propagated, same as serial" ~count:40
    QCheck2.Gen.(list (pair (int_bound 100) bool))
    (fun xs ->
      let f (x, fail) = if fail then raise (Task_failed x) else x in
      let serial_outcome =
        try Ok (List.map f xs) with Task_failed i -> Error i
      in
      List.for_all
        (fun domains ->
          let outcome =
            try
              Ok (Pool.with_pool ~domains (fun p -> Pool.map p f xs))
            with Task_failed i -> Error i
          in
          outcome = serial_outcome)
        (pool_sizes ()))

let prop_map_reduce =
  QCheck2.Test.make ~name:"map_reduce = serial map + fold (float order)"
    ~count:40
    QCheck2.Gen.(list (float_range (-1000.0) 1000.0))
    (fun xs ->
      let fm x = (x *. 1.7) +. 0.3 in
      let expected = List.fold_left (fun a x -> a +. fm x) 0.0 xs in
      List.for_all
        (fun domains ->
          Pool.with_pool ~domains (fun p ->
              Pool.map_reduce p ~map:fm ~reduce:( +. ) ~init:0.0 xs)
          = expected)
        (pool_sizes ()))

let prop_map_seeded_deterministic =
  QCheck2.Test.make
    ~name:"map_seeded: per-task streams independent of pool size" ~count:30
    QCheck2.Gen.(pair small_nat (int_range 0 60))
    (fun (seed, n) ->
      let xs = List.init n Fun.id in
      let f prng x = (x, Prng.int prng 1_000_000, Prng.float prng 1.0) in
      let runs =
        List.map
          (fun domains ->
            Pool.with_pool ~domains (fun p -> Pool.map_seeded p ~seed f xs))
          (pool_sizes ())
      in
      match runs with
      | [] -> true
      | first :: rest -> List.for_all (( = ) first) rest)

let prop_derive_pure =
  QCheck2.Test.make
    ~name:"Prng.derive depends only on (seed, stream)" ~count:100
    QCheck2.Gen.(pair small_nat (int_bound 1000))
    (fun (seed, stream) ->
      (* deriving other streams first must not perturb stream [stream] *)
      let a = Prng.next_int64 (Prng.derive ~seed ~stream) in
      let _ = Prng.derive ~seed ~stream:(stream + 1) in
      let _ = Prng.derive ~seed:(seed + 1) ~stream in
      let b = Prng.next_int64 (Prng.derive ~seed ~stream) in
      Int64.equal a b)

let test_pool_basics () =
  Alcotest.(check (list int)) "empty list" []
    (Pool.with_pool ~domains:2 (fun p -> Pool.map p succ []));
  Alcotest.check_raises "domains < 1 rejected"
    (Invalid_argument "Pool.create: domains < 1") (fun () ->
      ignore (Pool.create ~domains:0));
  let p = Pool.create ~domains:2 in
  Alcotest.(check int) "size" 2 (Pool.size p);
  Pool.shutdown p;
  Pool.shutdown p (* idempotent *);
  Alcotest.check_raises "map after shutdown"
    (Invalid_argument "Pool.mapi: pool is shut down") (fun () ->
      ignore (Pool.map p succ [ 1 ]))

(* Regression for the reuse guarantee long-lived pool owners (the serve
   daemon's simulated clients) rely on: a failing batch must leave the
   pool fully usable — no wedged workers, no leaked queue entries. *)
let test_pool_survives_failing_batch () =
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun p ->
          let boom x = if x mod 3 = 0 then raise (Task_failed x) else x in
          (match Pool.map p boom [ 1; 2; 3; 4; 5 ] with
          | _ -> Alcotest.fail "expected Task_failed"
          | exception Task_failed i ->
            Alcotest.(check int) "lowest failing index" 3 i);
          Alcotest.(check (list int))
            "pool still maps after a failing batch" [ 2; 4; 6 ]
            (Pool.map p (fun x -> 2 * x) [ 1; 2; 3 ]);
          (* and again: fail, then succeed, on the same pool *)
          (match Pool.map p boom [ 9 ] with
          | _ -> Alcotest.fail "expected Task_failed"
          | exception Task_failed _ -> ());
          Alcotest.(check (list int))
            "still healthy after a second failure" [ 10; 20 ]
            (Pool.map p (fun x -> 10 * x) [ 1; 2 ])))
    (pool_sizes ())

(* ------------------------------------------------------------------ *)
(* End-to-end: Pipeline.analyze through the pool on generated programs *)

(* Profile a generated program the way bin/slayout's generic harness does:
   every procedure once, against one scratch instance per struct. *)
let profile_generated program =
  let counts = Counts.create () in
  let ctx = Interp.make_ctx program in
  let prng = Prng.create ~seed:5 in
  let scratch = Hashtbl.create 4 in
  let instance_of name =
    match Hashtbl.find_opt scratch name with
    | Some i -> i
    | None ->
      let i = Interp.make_instance program ~struct_name:name in
      Hashtbl.replace scratch name i;
      i
  in
  List.iter
    (fun (pd : Ast.proc_decl) ->
      let args =
        List.map
          (fun p ->
            match p with
            | Ast.Pstruct { struct_name; _ } ->
              Interp.Ainst (instance_of struct_name)
            | Ast.Pint _ -> Interp.Aint 6)
          pd.Ast.pd_params
      in
      Interp.run ctx ~counts ~prng ~proc:pd.Ast.pd_name args)
    program.Ast.procs;
  counts

let gen_samples : Sample.t list QCheck2.Gen.t =
  QCheck2.Gen.(
    let sample =
      let* cpu = int_bound 3 in
      let* itc = int_bound 200 in
      let* line = int_range 1 30 in
      return { Sample.cpu; itc = itc * 40; line }
    in
    list_size (int_bound 120) sample)

let prop_pipeline_parallel_eq_serial =
  QCheck2.Test.make
    ~name:"Pipeline.analyze_all via pool = serial (reports + layouts)"
    ~count:15
    QCheck2.Gen.(pair (Gen.minic_program ~max_fields:6 ~max_procs:3 ()) gen_samples)
    (fun (src, samples) ->
      let program = Typecheck.check (Parser.parse_program ~file:"gen.mc" src) in
      let counts = profile_generated program in
      let analyze pool =
        Pipeline.analyze_all ?pool ~program ~counts ~samples
          ~struct_names:[ "G" ] ()
      in
      let render flgs =
        List.map
          (fun (name, flg) ->
            ( name,
              Report.render (Pipeline.report flg),
              Format.asprintf "%a" Layout.pp (Pipeline.automatic_layout flg),
              Format.asprintf "%a" Layout.pp (Pipeline.hotness_layout flg) ))
          flgs
      in
      let serial = render (analyze None) in
      List.for_all
        (fun domains ->
          Pool.with_pool ~domains (fun p -> render (analyze (Some p)))
          = serial)
        (pool_sizes ()))

(* ------------------------------------------------------------------ *)
(* Simulator determinism: the same machine config run concurrently from
   two domains must yield identical stats and sample streams — guards the
   per-thread PRNG derivation against shared-state leaks. *)

let test_machine_concurrent_determinism () =
  let cfg =
    { (Sdet.default_config (Topology.superdome ~cpus:8 ())) with
      Sdet.reps = 6;
      sample_period = Some 400 }
  in
  let reference = Sdet.run_once cfg in
  let d1 = Domain.spawn (fun () -> Sdet.run_once cfg) in
  let d2 = Domain.spawn (fun () -> Sdet.run_once cfg) in
  let r1 = Domain.join d1 in
  let r2 = Domain.join d2 in
  let module M = Slo_sim.Machine in
  let check_result tag (r : M.result) =
    Alcotest.(check int) (tag ^ ": makespan") reference.M.makespan r.M.makespan;
    Alcotest.(check int)
      (tag ^ ": invocations") reference.M.invocations r.M.invocations;
    Alcotest.(check bool)
      (tag ^ ": whole-machine stats") true
      (reference.M.stats = r.M.stats);
    Alcotest.(check bool)
      (tag ^ ": per-cpu stats") true
      (reference.M.per_cpu_stats = r.M.per_cpu_stats);
    Alcotest.(check bool)
      (tag ^ ": cpu cycle counts") true
      (reference.M.cpu_cycles = r.M.cpu_cycles);
    Alcotest.(check int)
      (tag ^ ": sample count")
      (List.length reference.M.samples)
      (List.length r.M.samples);
    Alcotest.(check bool)
      (tag ^ ": sample stream") true
      (reference.M.samples = r.M.samples)
  in
  check_result "domain 1" r1;
  check_result "domain 2" r2

let test_throughputs_pool_eq_serial () =
  let cfg =
    { (Sdet.default_config (Topology.superdome ~cpus:8 ())) with Sdet.reps = 6 }
  in
  let serial = Sdet.throughputs cfg ~runs:5 in
  List.iter
    (fun domains ->
      let par =
        Pool.with_pool ~domains (fun p -> Sdet.throughputs ~pool:p cfg ~runs:5)
      in
      Alcotest.(check (list (float 0.0)))
        (Printf.sprintf "throughputs, %d domains" domains)
        serial par)
    (pool_sizes ())

(* ------------------------------------------------------------------ *)
(* Small-instance oracle: brute-force all line-respecting partitions of a
   ≤7-field FLG and check the greedy clustering's invariants against it.
   Scoring goes through the shared Search.Objective evaluator — the same
   implementation the optimizers and Cluster's intra/inter weights use. *)

(* Direct FLG construction from edge lists by name: each [(u, v, w)] of
   [gain_edges] adds [w] to the pair's gain and each of [loss_edges] to
   its loss, in list order, and every listed pair has an edge. Fields
   missing from [hotness] have hotness 0. *)
let flg_of_parts ~fields ~hotness ~gain_edges ~loss_edges =
  let n = List.length fields in
  let index = Hashtbl.create 16 in
  List.iteri (fun i (f : Field.t) -> Hashtbl.replace index f.Field.name i) fields;
  let gain = Float.Array.make (n * n) 0.0 and loss = Float.Array.make (n * n) 0.0 in
  let edge = Bytes.make (n * n) '\000' in
  let add m (u, v, w) =
    let i = Hashtbl.find index u and j = Hashtbl.find index v in
    List.iter
      (fun c ->
        Float.Array.set m c (Float.Array.get m c +. w);
        Bytes.set edge c '\001')
      [ (i * n) + j; (j * n) + i ]
  in
  List.iter (add gain) gain_edges;
  List.iter (add loss) loss_edges;
  let hot (f : Field.t) =
    Option.value (List.assoc_opt f.Field.name hotness) ~default:0
  in
  Flg.make ~struct_name:"S" ~fields ~gain ~loss ~edge
    ~hotness:(Array.of_list (List.map hot fields))

(* An FLG from a random graph (the clustering only reads the weights,
   the edges, the hotness and the fields): the weights are the gain. *)
let flg_of ~fields ~edges ~hotness =
  flg_of_parts ~fields ~hotness ~gain_edges:edges ~loss_edges:[]

let line_size = 32 (* 4 longs per line: the capacity constraint bites *)

let objective_of ?(line_size = line_size) flg =
  Slo_core.Pipeline.search_problem
    ~params:{ Slo_core.Pipeline.default_params with line_size }
    flg

(* All set partitions of a list (Bell(7) = 877 for the sizes we generate). *)
let rec partitions = function
  | [] -> [ [] ]
  | x :: rest ->
    List.concat_map
      (fun part ->
        ([ x ] :: part)
        :: List.mapi
             (fun i _ ->
               List.mapi
                 (fun j block -> if i = j then x :: block else block)
                 part)
             part)
      (partitions rest)

let block_fits ~line_size block =
  match block with
  | [ _ ] -> true (* an oversized field still gets its own cluster *)
  | _ -> Layout.packed_size block <= line_size

let partition_score flg blocks =
  Slo_search.Objective.score_blocks (objective_of flg) blocks

(* Uniform 8-byte longs make packed_size order-independent, so a partition
   (a set of blocks) has a well-defined fit and score. *)
let gen_small_flg =
  QCheck2.Gen.(
    let* n = int_range 1 7 in
    let fields =
      List.init n (fun i ->
          Field.make ~name:(Printf.sprintf "f%d" i) ~prim:Ast.Long ~count:1 ())
    in
    let names = List.map (fun (f : Field.t) -> f.Field.name) fields in
    let* edges = Gen.edges_over names in
    let* hotness = Gen.hotness_for names in
    return (flg_of ~fields ~edges ~hotness))

let prop_greedy_never_adds_negative =
  QCheck2.Test.make
    ~name:"greedy: every grown member has positive weight into its cluster"
    ~count:300 gen_small_flg
    (fun flg ->
      let clusters = Cluster.run ~pack_cold:false flg ~line_size in
      List.for_all
        (fun (c : Cluster.cluster) ->
          let rec grown prev = function
            | [] -> true
            | (f : Field.t) :: rest ->
              let w =
                List.fold_left
                  (fun acc (m : Field.t) ->
                    acc +. Flg.weight flg f.Field.name m.Field.name)
                  0.0 prev
              in
              w > 0.0 && grown (prev @ [ f ]) rest
          in
          match c.Cluster.members with
          | [] -> false
          | seed :: rest -> grown [ seed ] rest)
        clusters)

let prop_greedy_respects_line_size =
  QCheck2.Test.make
    ~name:"greedy: multi-member clusters fit in one line (pack_cold too)"
    ~count:300
    QCheck2.Gen.(pair gen_small_flg bool)
    (fun (flg, pack_cold) ->
      Cluster.run ~pack_cold flg ~line_size
      |> List.for_all (fun (c : Cluster.cluster) ->
             block_fits ~line_size c.Cluster.members))

let prop_greedy_vs_oracle =
  QCheck2.Test.make
    ~name:"greedy never beats the brute-force oracle (≤7 fields)" ~count:150
    gen_small_flg
    (fun flg ->
      let clusters = Cluster.run ~pack_cold:false flg ~line_size in
      let greedy_blocks =
        List.map (fun (c : Cluster.cluster) -> c.Cluster.members) clusters
      in
      let greedy_score = partition_score flg greedy_blocks in
      let oracle_score =
        partitions (Array.to_list flg.Flg.fields)
        |> List.filter (List.for_all (block_fits ~line_size))
        |> List.fold_left
             (fun best blocks -> Float.max best (partition_score flg blocks))
             neg_infinity
      in
      (* the greedy partition must itself be a valid candidate, so beating
         the oracle is only possible by violating the line-size constraint *)
      List.for_all (block_fits ~line_size) greedy_blocks
      && greedy_score <= oracle_score +. 1e-6)

(* ------------------------------------------------------------------ *)
(* Differential check of the incremental-packed-size clustering: a direct
   reimplementation of the pre-optimization greedy (Figure 7) that
   recomputes [packed_size (members @ [field])] from scratch for every
   candidate. The shipping version carries the size incrementally via
   [Layout.packed_extend]; both must pick identical clusters. *)

let reference_clusters flg ~line_size =
  let field_of name = flg.Flg.fields.(Flg.index flg name) in
  let find_best members unassigned =
    let member_names = List.map (fun (f : Field.t) -> f.Field.name) members in
    List.fold_left
      (fun best name ->
        let field = field_of name in
        if Layout.packed_size (members @ [ field ]) > line_size then best
        else begin
          let w =
            List.fold_left
              (fun acc m -> acc +. Flg.weight flg name m)
              0.0 member_names
          in
          match best with
          | Some (_, bw) when bw >= w -> best
          | _ when w > 0.0 -> Some (name, w)
          | best -> best
        end)
      None unassigned
    |> Option.map fst
  in
  let rec build unassigned acc =
    match unassigned with
    | [] -> List.rev acc
    | seed :: rest ->
      let rec grow members unassigned =
        match find_best members unassigned with
        | None -> (members, unassigned)
        | Some name ->
          grow
            (members @ [ field_of name ])
            (List.filter (fun n -> n <> name) unassigned)
      in
      let members, rest = grow [ field_of seed ] rest in
      build rest (members :: acc)
  in
  build (List.map (Flg.name flg) (Array.to_list (Flg.hotness_order flg))) []

(* Mixed alignments and array fields, up to 24 fields — large enough that
   the incremental size actually diverges from a naive recomputation if
   the O(1) step is wrong. *)
let gen_mixed_flg =
  QCheck2.Gen.(
    let* fields = Gen.fields in
    let names = List.map (fun (f : Field.t) -> f.Field.name) fields in
    let* edges = Gen.edges_over names in
    let* hotness = Gen.hotness_for names in
    return (flg_of ~fields ~edges ~hotness))

let member_names clusters =
  List.map
    (fun (c : Cluster.cluster) ->
      List.map (fun (f : Field.t) -> f.Field.name) c.Cluster.members)
    clusters

let prop_incremental_eq_reference =
  QCheck2.Test.make
    ~name:"incremental packed size = from-scratch reference clustering"
    ~count:200 gen_mixed_flg
    (fun flg ->
      member_names (Cluster.run ~pack_cold:false flg ~line_size)
      = List.map
          (List.map (fun (f : Field.t) -> f.Field.name))
          (reference_clusters flg ~line_size))

let prop_packed_extend_law =
  QCheck2.Test.make
    ~name:"packed_extend size f = packed_size (fields @ [f])" ~count:300
    Gen.fields
    (fun fields ->
      match List.rev fields with
      | [] -> true
      | last :: rev_init ->
        let init = List.rev rev_init in
        Layout.packed_extend (Layout.packed_size init) last
        = Layout.packed_size fields)

(* ------------------------------------------------------------------ *)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_map_eq_list_map;
      prop_mapi_order;
      prop_no_lost_tasks;
      prop_exceptions_propagated;
      prop_map_reduce;
      prop_map_seeded_deterministic;
      prop_derive_pure;
      prop_pipeline_parallel_eq_serial;
    ]

let oracle_props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_greedy_never_adds_negative;
      prop_greedy_respects_line_size;
      prop_greedy_vs_oracle;
      prop_incremental_eq_reference;
      prop_packed_extend_law;
    ]

let suites =
  [
    ( "exec.pool",
      Alcotest.test_case "basics" `Quick test_pool_basics
      :: Alcotest.test_case "reusable after a failing batch" `Quick
           test_pool_survives_failing_batch
      :: props );
    ( "exec.determinism",
      [
        Alcotest.test_case "concurrent machine runs identical" `Quick
          test_machine_concurrent_determinism;
        Alcotest.test_case "throughputs via pool identical" `Quick
          test_throughputs_pool_eq_serial;
      ] );
    ("exec.cluster-oracle", oracle_props);
  ]
