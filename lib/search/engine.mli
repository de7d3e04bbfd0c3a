(** The substrate-independent optimizer core.

    {!Make} builds the full metaheuristic search — greedy baseline,
    steepest-descent swap, simulated annealing, and the parallel portfolio
    fan-out — from any {!Substrate.PROBLEM}. {!Optimizer} is its field
    instantiation (kept as the stable public face of struct-layout
    search); [Slo_codelayout] instantiates it over basic blocks.

    {b A flat kernel over node indices.} Names appear only at the edges:
    [run] matches the seed partition to node indices once, and
    [result.blocks] maps the winning index blocks back to nodes. In
    between, every weight is one read of the problem's dense row-major
    matrix, [pos] is an int array, and each block is a doubly linked list
    threaded through per-node [next]/[prev] arrays with a head, a tail, a
    length and a running packed size per block slot — O(n + blocks)
    ints, whatever the block lengths. A move unlinks the node (member
    order kept) and appends it at the destination's tail; the source's
    packed size is recomputed by folding [P.extend] over what is left.
    Capacity tests are engine code over [P.extend] and [P.capacity]: the
    packed size of "block minus f" is a loop that skips f. A swap scan
    and a rejected anneal proposal allocate nothing.

    {b Unchanged contract.} The algorithms, enumeration orders, PRNG draw
    sequence, float summation orders, capacity short-circuits, and
    observability counters are exactly those documented in {!Optimizer}
    and those of the list-state engine this one replaced:
    - enumeration: single-node moves (active nodes ascending, destination
      slots ascending), then cross-block exchanges ([i < j] in active
      order); ties go to the first strict improvement;
    - PRNG: one [Prng.int n_active] per anneal step, then [Prng.int 3]
      only when at least two nodes are active, then either
      [Prng.int nblocks] (move) or [Prng.int n_active] (exchange), and
      [Prng.float 1.0] only for a worsening proposal;
    - floats: a score sums pairs in block order, left to right, block by
      block, as {!Substrate.score_indices} does; an attachment sums a block's
      members in order.
    [test/engine_oracle.ml] keeps the list engine frozen, and a QCheck2
    law checks this one against it move for move — labels, streams,
    score bits, move counts and blocks.

    Error messages keep the historical ["Search.Optimizer.run"] prefix:
    the engine is the optimizer core, whatever the substrate.

    {b Determinism contract.} [run] is a pure function of
    [(problem, init, kind, prng state, steps)]. {!Make.run_selector}
    derives one independent PRNG per task {e index} via
    {!Slo_util.Prng.derive} — the same discipline as
    {!Slo_exec.Pool.map_seeded} — so a portfolio returns bit-identical
    results for every pool size (serial included).

    {b Observability.} Each task bumps [search.tasks] and [search.moves]
    and records its duration into [search.task_s]; [run_selector] times
    itself into [search.portfolio_s]. Write-only, as everywhere else. *)

type kind = Greedy | Swap | Anneal

val kind_name : kind -> string

type selector = One of kind | Portfolio

val selector_name : selector -> string

module Make (P : Substrate.PROBLEM) : sig
  type result = {
    kind : kind;
    label : string;  (** "greedy", "swap", "swap\@decl", "anneal#i" *)
    stream : int;  (** PRNG stream / task index within the portfolio *)
    score : float;
        (** exact score of [blocks], recomputed: {!Substrate.score_indices}
            fold over the problem's weights *)
    blocks : P.Node.t list list;
    moves : int;  (** applied (swap) / accepted (anneal) moves; 0 greedy *)
  }

  val default_steps : P.t -> int
  (** [max 500 (120 · |active|)] — the annealing schedule default. *)

  val run :
    ?prng:Slo_util.Prng.t ->
    ?steps:int ->
    P.t ->
    init:P.Node.t list list ->
    kind ->
    result
  (** Run one optimizer from the seed partition [init]. [init] must
      partition the problem's node set (matched by name); multi-node
      blocks must fold under [P.extend] to at most [P.capacity]. The
      result never scores below [init].
      @raise Invalid_argument if [init] is not a partition or violates
      the capacity rule, or if [steps <= 0]. *)

  type portfolio = {
    best : result;  (** highest score; ties go to the lowest stream *)
    greedy : result;  (** the baseline candidate (always stream 0) *)
    scoreboard : result list;  (** score descending, ties by stream *)
  }

  val run_selector :
    ?pool:Slo_exec.Pool.t ->
    ?seed:int ->
    ?restarts:int ->
    ?steps:int ->
    ?decl:P.Node.t list list ->
    P.t ->
    init:P.Node.t list list ->
    selector ->
    portfolio
  (** Fan the selected candidates out as independent tasks: baseline
      greedy, plus per-selector extras, plus [restarts] annealing runs
      (default 4) for [One Anneal]/[Portfolio]. With [decl] (a
      declaration-order seed partition), [Portfolio] adds a "swap\@decl"
      descent from it, so the best candidate never scores below the
      declaration order either. With [pool] tasks run via
      {!Slo_exec.Pool.map_seeded}; results are bit-identical for every
      pool size. [seed] (default 0) is the master seed.
      @raise Invalid_argument if [restarts < 1] (or [run]'s
      conditions). *)
end
