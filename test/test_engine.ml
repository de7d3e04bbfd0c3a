(* The search engine against its frozen oracle, and its allocation
   budget.

   Engine_oracle is the list-state engine the index-based one replaced.
   The differential law runs both on random field and code-block problems
   and requires the same trajectory, not just the same optimum: label,
   stream, score bits, move count and blocks (names, in order) for every
   optimizer kind, several anneal seeds and step counts, and the
   portfolio with and without a declaration seed at pool sizes 1 and 2.
   The oracle's problems below transcribe the by-name substrates as they
   were, so the law also pins the dense weights, the active set and the
   [extend]-based capacity tests.

   The allocation guard counts minor words — deterministic, unlike wall
   time — for annealing steps and a swap descent on a fixed problem of
   struct A's shape (its 127 fields). *)

module Ast = Slo_ir.Ast
module Field = Slo_layout.Field
module Layout = Slo_layout.Layout
module Prng = Slo_util.Prng
module Pool = Slo_exec.Pool
module Flg = Slo_core.Flg
module Cluster = Slo_core.Cluster
module Engine = Slo_search.Engine
module Objective = Slo_search.Objective
module Optimizer = Slo_search.Optimizer
module Codelayout = Slo_codelayout.Codelayout
module Kernel = Slo_workload.Kernel

(* ------------------------------------------------------------------ *)
(* The oracle's problems: the by-name substrates as they were. *)

let max_abs_edge graph =
  List.fold_left
    (fun acc (_, _, w) -> Float.max acc (Float.abs w))
    0.0 (Sgraph.edges graph)

module Old_fields = struct
  module Node = struct
    type t = Field.t

    let name (f : Field.t) = f.Field.name
  end

  (* The objective's fields and line size, and its by-name graph. *)
  type t = { obj : Objective.t; graph : Sgraph.t }

  let nodes o = o.obj.Objective.fields
  let weight o a b = Sgraph.weight0 o.graph a b

  let active o =
    List.filter
      (fun (f : Field.t) -> Sgraph.degree o.graph f.Field.name > 0)
      o.obj.Objective.fields

  let block_fits o = function
    | [] | [ _ ] -> true
    | block -> Layout.packed_size block <= o.obj.Objective.line_size

  let fits o block f =
    Layout.packed_extend (Layout.packed_size block) f <= o.obj.Objective.line_size

  let max_abs_weight o = max_abs_edge o.graph
end

module Old_blocks = struct
  module Node = struct
    type t = Codelayout.Block.t

    let name = Codelayout.Block.name
  end

  (* The problem's blocks and capacity, and its by-name graph. *)
  type t = { prob : Codelayout.t; graph : Sgraph.t }

  let nodes p = Codelayout.blocks p.prob
  let weight p a b = Sgraph.weight0 p.graph a b

  let active p =
    List.filter
      (fun b -> Sgraph.degree p.graph (Codelayout.Block.name b) > 0)
      (Codelayout.blocks p.prob)

  let bin_size bin =
    List.fold_left (fun acc b -> acc + Codelayout.Block.size b) 0 bin

  let block_fits p = function
    | [] | [ _ ] -> true
    | bin -> bin_size bin <= Codelayout.capacity p.prob

  let fits p bin b =
    bin_size bin + Codelayout.Block.size b <= Codelayout.capacity p.prob

  let max_abs_weight p = max_abs_edge p.graph
end

module Oracle_fields = Engine_oracle.Make (Old_fields)
module Oracle_blocks = Engine_oracle.Make (Old_blocks)

(* The production field substrate, instantiated here only to reach the
   portfolio without a declaration seed (Optimizer always passes one). *)
module New_fields = Engine.Make (struct
  module Node = Old_fields.Node

  type t = Objective.t

  let nodes (o : Objective.t) = o.Objective.nodes
  let weights (o : Objective.t) = o.Objective.weights
  let active (o : Objective.t) = o.Objective.active
  let capacity (o : Objective.t) = o.Objective.line_size
  let extend (o : Objective.t) s i = Layout.packed_extend s o.Objective.nodes.(i)
end)

(* One printable line per result: everything the law compares. *)
let repr ~label ~stream ~score ~moves names =
  Printf.sprintf "%s/%d %Lx %d [%s]" label stream (Int64.bits_of_float score)
    moves
    (String.concat " | " (List.map (String.concat ",") names))

let field_names = List.map (List.map (fun (f : Field.t) -> f.Field.name))
let block_names = List.map (List.map Codelayout.Block.name)

(* ------------------------------------------------------------------ *)
(* Random problems *)

(* 2–40 fields of sizes and alignments 1/2/4/8 (some small arrays), a
   line size in 16–128, a tail of fields with no edge, and mixed-sign,
   non-integer weights, so any reassociation of a float sum shows in the
   score bits. *)
let gen_field_problem =
  QCheck2.Gen.(
    let* n = int_range 2 40 in
    let* prims =
      list_size (return n) (oneofl [ Ast.Char; Ast.Short; Ast.Int; Ast.Long ])
    in
    let* counts =
      list_size (return n) (frequency [ (5, return 1); (1, int_range 2 4) ])
    in
    let fields =
      List.mapi
        (fun i (prim, count) ->
          Field.make ~name:(Printf.sprintf "f%d" i) ~prim ~count ())
        (List.combine prims counts)
    in
    let* line_size = int_range 16 128 in
    let* isolated = int_range 0 (n / 3) in
    let linked = Array.of_list (List.filteri (fun i _ -> i < n - isolated) fields) in
    let* edges =
      if Array.length linked < 2 then return []
      else
        let m = Array.length linked - 1 in
        let* k = int_range 0 (3 * Array.length linked) in
        list_size (return k)
          (triple (int_range 0 m) (int_range 0 m) (float_range (-100.0) 100.0))
    in
    let* hotness = list_size (return n) (int_range 0 1000) in
    let name (f : Field.t) = f.Field.name in
    let edges =
      List.filter_map
        (fun (i, j, w) ->
          if i = j then None else Some (name linked.(i), name linked.(j), w))
        edges
    in
    let flg =
      Test_exec.flg_of ~fields ~edges
        ~hotness:(List.combine (List.map name fields) hotness)
    in
    let graph =
      List.fold_left
        (fun g (u, v, w) -> Sgraph.add_edge g u v w)
        (List.fold_left (fun g f -> Sgraph.add_node g (name f)) Sgraph.empty fields)
        edges
    in
    let* seed_kind = int_range 0 2 in
    return (flg, graph, line_size, seed_kind))

let field_init flg obj line_size = function
  | 0 -> List.map (fun f -> [ f ]) (Array.to_list flg.Flg.fields)
  | 1 -> Optimizer.decl_blocks obj
  | _ ->
    List.map
      (fun (c : Cluster.cluster) -> c.Cluster.members)
      (Cluster.run flg ~line_size)

(* Basic blocks of 4–40 bytes in up to three procedures, capacity 16–96,
   mixed-sign weights, some blocks without edges. *)
let gen_block_problem =
  QCheck2.Gen.(
    let* n = int_range 2 40 in
    let* sizes = list_size (return n) (int_range 4 40) in
    let* procs = list_size (return n) (int_range 0 2) in
    let procs = List.sort compare procs in
    let blocks =
      List.mapi
        (fun i (s, p) ->
          Codelayout.Block.make ~proc:(Printf.sprintf "p%d" p) ~id:i ~size:s)
        (List.combine sizes procs)
    in
    let names = Array.of_list (List.map Codelayout.Block.name blocks) in
    let* isolated = int_range 0 (n / 3) in
    let m = n - isolated - 1 in
    let* k = int_range 0 (3 * n) in
    let* raw =
      list_size (return k)
        (triple (int_range 0 m) (int_range 0 m) (float_range (-50.0) 100.0))
    in
    let graph, weights = Tutil.graph_and_matrix names raw in
    let* capacity = int_range 16 96 in
    return { Old_blocks.prob = Codelayout.make ~capacity ~blocks ~weights; graph })

(* ------------------------------------------------------------------ *)
(* The law *)

(* Every kind; the annealer under its default schedule and a few PRNG
   seeds and step counts. *)
let schedule =
  List.concat_map
    (fun kind ->
      List.map
        (fun run -> (kind, run))
        (if kind = Engine.Anneal then
           [ (None, None); (Some 1, Some 40); (Some 7, Some 400); (Some 3, None) ]
         else [ (None, None) ]))
    [ Engine.Greedy; Engine.Swap; Engine.Anneal ]

let prng = Option.map (fun s -> Prng.create ~seed:s)

let agree pairs =
  List.for_all
    (fun (a, b) ->
      a = b || QCheck2.Test.fail_reportf "engine  %s\noracle  %s" a b)
    pairs

let field_law ~pools (flg, graph, line_size, seed_kind) =
  let obj = Test_exec.objective_of ~line_size flg in
  let old = { Old_fields.obj; graph } in
  let init = field_init flg obj line_size seed_kind in
  let decl = Optimizer.decl_blocks obj in
  let n_repr (r : Optimizer.result) =
    repr ~label:r.label ~stream:r.stream ~score:r.score ~moves:r.moves
      (field_names r.blocks)
  and m_repr (r : New_fields.result) =
    repr ~label:r.label ~stream:r.stream ~score:r.score ~moves:r.moves
      (field_names r.blocks)
  and o_repr (r : Oracle_fields.result) =
    repr ~label:r.label ~stream:r.stream ~score:r.score ~moves:r.moves
      (field_names r.blocks)
  in
  let single =
    List.map
      (fun (kind, (seed, steps)) ->
        ( n_repr (Optimizer.run ?prng:(prng seed) ?steps obj ~init kind),
          o_repr (Oracle_fields.run ?prng:(prng seed) ?steps old ~init kind) ))
      schedule
  in
  let portfolio pool =
    let (n : Optimizer.portfolio) =
      Optimizer.run_selector ?pool ~seed:5 ~restarts:2 ~steps:500 obj ~init
        Optimizer.Portfolio
    and (o : Oracle_fields.portfolio) =
      Oracle_fields.run_selector ?pool ~seed:5 ~restarts:2 ~steps:500 ~decl
        old ~init Engine_oracle.Portfolio
    and (m : New_fields.portfolio) =
      New_fields.run_selector ?pool ~seed:2 ~restarts:2 ~steps:300 obj ~init
        Engine.Portfolio
    and (o' : Oracle_fields.portfolio) =
      Oracle_fields.run_selector ?pool ~seed:2 ~restarts:2 ~steps:300 old
        ~init Engine_oracle.Portfolio
    in
    List.combine
      (List.map n_repr (n.best :: n.greedy :: n.scoreboard))
      (List.map o_repr (o.best :: o.greedy :: o.scoreboard))
    @ List.combine
        (List.map m_repr (m.best :: m.greedy :: m.scoreboard))
        (List.map o_repr (o'.best :: o'.greedy :: o'.scoreboard))
  in
  agree (single @ List.concat_map portfolio pools)

let block_law ~pools (old : Old_blocks.t) =
  let p = old.Old_blocks.prob in
  let init = Codelayout.decl_bins p in
  let n_repr (r : Codelayout.result) =
    repr ~label:r.label ~stream:r.stream ~score:r.score ~moves:r.moves
      (block_names r.bins)
  and o_repr (r : Oracle_blocks.result) =
    repr ~label:r.label ~stream:r.stream ~score:r.score ~moves:r.moves
      (block_names r.blocks)
  in
  let single =
    List.map
      (fun (kind, (seed, steps)) ->
        ( n_repr (Codelayout.run ?prng:(prng seed) ?steps p kind),
          o_repr (Oracle_blocks.run ?prng:(prng seed) ?steps old ~init kind) ))
      schedule
  in
  let portfolio pool =
    let (n : Codelayout.portfolio) =
      Codelayout.search ?pool ~seed:4 ~restarts:2 p Engine.Portfolio
    and (o : Oracle_blocks.portfolio) =
      Oracle_blocks.run_selector ?pool ~seed:4 ~restarts:2 old ~init
        Engine_oracle.Portfolio
    in
    List.combine
      (List.map n_repr (n.best :: n.greedy :: n.scoreboard))
      (List.map o_repr (o.best :: o.greedy :: o.scoreboard))
  in
  agree (single @ List.concat_map portfolio pools)

let with_pools f =
  Pool.with_pool ~domains:1 (fun p1 ->
      Pool.with_pool ~domains:2 (fun p2 -> f [ None; Some p1; Some p2 ]))

let check_law ~name ~count gen law () =
  with_pools (fun pools ->
      QCheck2.Test.check_exn
        ~rand:(Random.State.make [| 16 |])
        (QCheck2.Test.make ~name ~count gen (law ~pools)))

(* ------------------------------------------------------------------ *)
(* Allocation guard *)

(* Struct A's 127 fields with a seeded random FLG: three edges per field
   on average, mixed-sign weights, line size 128. *)
let struct_a_problem () =
  let fields = Layout.fields (Kernel.declared_layout "A") in
  let names = Array.of_list (List.map (fun (f : Field.t) -> f.Field.name) fields) in
  let n = Array.length names in
  let prng = Prng.create ~seed:16 in
  let edges =
    List.init (3 * n) (fun _ ->
        let i = Prng.int prng n and j = Prng.int prng n in
        (names.(i), names.(j), Prng.float prng 200.0 -. 60.0))
    |> List.filter (fun (u, v, _) -> u <> v)
  in
  let flg =
    Test_exec.flg_of ~fields ~edges
      ~hotness:(Array.to_list (Array.mapi (fun i name -> (name, n - i)) names))
  in
  let obj = Test_exec.objective_of ~line_size:Kernel.line_size flg in
  let init =
    List.map
      (fun (c : Cluster.cluster) -> c.Cluster.members)
      (Cluster.run flg ~line_size:Kernel.line_size)
  in
  (obj, init)

let minor_words f =
  let before = Gc.minor_words () in
  let r = f () in
  (Gc.minor_words () -. before, r)

(* Measured on the index engine: 1.3 words per anneal step, the boxed
   result of [Prng.float] for worsening proposals ([Prng.int] allocates
   nothing; with a boxed Int64 state the step took 23.2 words), and 17k
   words for the 9-move descent below, most of them the seed's and the
   result's lists and layout. The list engine took 100 words per step and
   40M words for the same descent. *)
let max_words_per_anneal_step = 4.0
let max_words_per_descent = 40_000.0

let test_allocation_budget () =
  let obj, init = struct_a_problem () in
  let anneal steps =
    fst
      (minor_words (fun () ->
           Optimizer.run ~prng:(Prng.create ~seed:1) ~steps obj ~init
             Optimizer.Anneal))
  in
  let per_step = (anneal 20_000 -. anneal 4_000) /. 16_000.0 in
  let descent, r =
    minor_words (fun () -> Optimizer.run obj ~init Optimizer.Swap)
  in
  Alcotest.(check bool) "the descent moves" true (r.Optimizer.moves > 0);
  if per_step > max_words_per_anneal_step then
    Alcotest.failf "anneal allocates %.1f words per step (budget %.0f)"
      per_step max_words_per_anneal_step;
  if descent > max_words_per_descent then
    Alcotest.failf "a %d-move swap descent allocates %.0f words (budget %.0f)"
      r.Optimizer.moves descent max_words_per_descent

let suites =
  [
    ( "search.engine",
      [
        Alcotest.test_case "field problems: engine = list oracle, move for move"
          `Quick
          (check_law ~name:"field engine = oracle" ~count:60 gen_field_problem
             field_law);
        Alcotest.test_case "code-block problems: engine = list oracle" `Quick
          (check_law ~name:"block engine = oracle" ~count:60 gen_block_problem
             block_law);
        Alcotest.test_case "allocation budget (minor words)" `Quick
          test_allocation_budget;
      ] );
  ]
