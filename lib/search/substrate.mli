(** The layout substrate signature: what a domain must provide for the
    generic optimizer core ({!Engine}) to search over it.

    The paper's machinery is substrate-agnostic — nodes, pairwise affinity
    weights (already [k1·gain − k2·penalty] when the graph is an FLG), and
    capacity-bounded blocks. Struct fields packed into cache lines
    ({!Objective}/{!Optimizer}) are one instantiation; basic blocks packed
    into I-cache lines (Codestitcher-style, [Slo_codelayout]) are another.
    A substrate supplies, over {b node indices} [0 .. n−1]:

    - the {b nodes} as an array; a node's index is its position there.
      Names ({!NODE.name}) are used only to read a seed partition in and
      to hand the result back out;
    - the {b weights} as one dense row-major [n × n] {!Float.Array.t}
      (entry [i·n + j] is the affinity/penalty balance of nodes [i] and
      [j], 0 for absent edges), built by the producer of the graph;
    - the {b active} nodes, ascending;
    - a {b capacity} and an {b extend} rule: [extend t s i] is the packed
      size of a block of packed size [s] after appending node [i]. A
      multi-node block is valid when the fold of [extend] over its
      members, from 0, is at most the capacity; an empty block accepts
      any node, and a singleton is always valid (an oversized node still
      gets its own block). The engine derives both capacity tests from
      these two values.

    The scorers below are the one implementation of a weight sum over
    index lists: the fold order over unordered pairs is part of the
    contract, so every consumer (the engine, {!Objective}, the greedy
    clusterer, the code-layout substrate) sums the same pairs in the same
    order and float scores are byte-identical across them. *)

module type NODE = sig
  type t

  val name : t -> string
  (** Stable unique key: how seed partitions are matched to indices. *)
end

val pair_sum : Float.Array.t -> int -> int list -> float
(** [pair_sum w n xs]: [w.(x·n + y)] over the pairs [(x, y)] with [x]
    before [y] in [xs], summed left to right from 0. *)

val score_indices : Float.Array.t -> int -> int list list -> float
(** A partition's score: [pair_sum] of each block, summed left to right
    from 0. *)

val cross_sum : Float.Array.t -> int -> int list -> int list -> float
(** [cross_sum w n xs ys]: [w.(x·n + y)] for [x] in [xs], then [y] in
    [ys], summed left to right from 0. *)

(** A complete search problem over node indices. {!Engine.Make} builds
    the full greedy/swap/anneal portfolio from this. *)
module type PROBLEM = sig
  module Node : NODE

  type t
  (** The problem instance (graph + geometry + capacity). *)

  val nodes : t -> Node.t array
  (** All nodes, in declaration order; index [i] is node [i]. Seed
      partitions are validated against this set. *)

  val weights : t -> Float.Array.t
  (** The dense [n × n] weights; read-only. *)

  val active : t -> int array
  (** Ascending indices of the nodes with at least one incident edge —
      the only ones worth moving; the engine leaves every other node
      where the seed partition put it. *)

  val capacity : t -> int
  (** The most a multi-node block may pack to (one cache line). *)

  val extend : t -> int -> int -> int
  (** [extend t s i]: the packed size after appending node [i] to a block
      of packed size [s] (0 for the empty block). *)
end
