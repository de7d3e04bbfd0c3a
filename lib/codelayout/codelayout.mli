(** Code-layout optimization: the second substrate of the search engine.

    The paper's layout machinery — an affinity graph, a capacity-bounded
    partition objective, and the greedy/swap/anneal portfolio — is not
    specific to struct fields. This module instantiates the same
    {!Slo_search.Engine} over {e basic blocks}: nodes are the program's
    CFG blocks (sized {!Slo_sim.Machine.code_block_size} bytes), affinity
    is the CFG edge execution count from the collect phase (how often
    control passes between two blocks), and bins are I-cache lines. A
    high-scoring partition co-locates hot control-flow neighbours on one
    line, which is what code-layout tools in the Pettis–Hansen /
    Codestitcher line optimize for.

    The deliverable is a flattened block order for
    {!Slo_sim.Machine.set_code_layout}; the simulator's instruction-fetch
    side then confirms the objective gap as I-cache misses. *)

(** A basic block as a layout node. *)
module Block : sig
  type t

  val make : proc:string -> id:int -> size:int -> t
  (** @raise Invalid_argument when [size <= 0] or [id < 0]. *)

  val name : t -> string
  (** ["proc#id"] — the node key in the affinity graph. *)

  val proc : t -> string
  val id : t -> int
  val size : t -> int  (** code bytes *)
end

type t
(** A code-layout problem: blocks, affinity graph, bin capacity. *)

val default_capacity : int
(** 64 bytes — a typical I-cache line. *)

val make : capacity:int -> blocks:Block.t list -> weights:Float.Array.t -> t
(** Explicit constructor (tests, custom graphs). [blocks] is the
    declaration-order baseline; [weights] is the dense row-major
    [n × n] affinity over [blocks]' indices, symmetric, and a pair of
    blocks has an edge exactly when its weight is non-zero.
    @raise Invalid_argument on a non-positive capacity, duplicate block
    names, or [weights] of the wrong size. *)

val of_program :
  ?capacity:int -> Slo_ir.Ast.program -> Slo_profile.Counts.t -> t
(** Derive the problem from a typechecked program and collect-phase
    profile: one node per CFG block of every procedure (program order,
    sizes from {!Slo_sim.Machine.code_block_size}), edge weights from
    {!Slo_profile.Counts.fold_edges} summed straight into the block
    matrix (intra-procedure control-flow transfer counts; zero-count
    edges, self-loops and blocks the program does not have dropped). *)

val capacity : t -> int
val blocks : t -> Block.t list
val weights : t -> Float.Array.t

val active : t -> int array
(** Ascending indices of the blocks with an edge. *)

val num_edges : t -> int

val score : t -> Block.t list list -> float
(** Partition objective: sum over bins of intra-bin pair affinity
    ({!Slo_search.Substrate.score_indices}; cross-bin pairs contribute
    nothing) — the engine's scorer, so bit-identical to its
    [result.score] for the same bins. *)

val decl_bins : t -> Block.t list list
(** The "as compiled" seed partition: blocks in program order packed
    greedily into capacity-bounded runs that never span a procedure
    boundary. *)

val order_of_bins : Block.t list list -> (string * int) list
(** Flatten a partition into the block order
    {!Slo_sim.Machine.set_code_layout} consumes. *)

val decl_order : t -> (string * int) list
(** Program declaration order — the baseline the machine uses when no
    code layout is set. *)

type result = {
  kind : Slo_search.Engine.kind;
  label : string;
  stream : int;
  score : float;
  bins : Block.t list list;
  order : (string * int) list;  (** [order_of_bins bins] *)
  moves : int;
}

val run :
  ?prng:Slo_util.Prng.t ->
  ?steps:int ->
  t ->
  Slo_search.Engine.kind ->
  result
(** One optimizer seeded from {!decl_bins}; the result never scores below
    the seed. Same contract as {!Slo_search.Engine.Make.run}. *)

type portfolio = { best : result; greedy : result; scoreboard : result list }

val search :
  ?pool:Slo_exec.Pool.t ->
  ?seed:int ->
  ?restarts:int ->
  ?steps:int ->
  t ->
  Slo_search.Engine.selector ->
  portfolio
(** The portfolio fan-out seeded from {!decl_bins} — same determinism
    contract as {!Slo_search.Engine.Make.run_selector}: bit-identical
    results for every pool size. *)
