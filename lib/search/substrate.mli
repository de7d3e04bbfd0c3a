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
      [j], 0 for absent edges), built once per problem by {!dense_weights}
      in one pass over the edges — O(n + E) lookups, not n² map
      lookups;
    - the {b active} nodes, ascending;
    - a {b capacity} and an {b extend} rule: [extend t s i] is the packed
      size of a block of packed size [s] after appending node [i]. A
      multi-node block is valid when the fold of [extend] over its
      members, from 0, is at most the capacity; an empty block accepts
      any node, and a singleton is always valid (an oversized node still
      gets its own block). The engine derives both capacity tests from
      these two values.

    {!Pairs} is the shared by-name scoring primitive for callers that hold
    node lists: the fold order over unordered pairs is part of the
    contract — every consumer (the greedy clusterer, the brute-force test
    oracles, the engine's index-based scorer) sums the same pairs in the
    same order so that float scores are byte-identical across
    implementations. *)

module type NODE = sig
  type t

  val name : t -> string
  (** Stable unique key: how seed partitions are matched to indices. *)
end

(** Pairwise scoring primitives over a node type. The fold visits
    unordered pairs of distinct nodes in list order — pair [(x, y)] with
    [x] before [y] — and sums left-to-right, so float results are
    reproducible to the bit across substrates. *)
module Pairs (N : NODE) : sig
  val fold_pairs : f:('a -> string -> string -> 'a) -> 'a -> N.t list -> 'a
  (** Fold [f] over unordered pairs of distinct nodes, by name. *)

  val pair_weight_sum : weight:(string -> string -> float) -> N.t list -> float
  (** Sum of [weight a b] over unordered pairs of distinct nodes. *)

  val blocks_weight_sum :
    weight:(string -> string -> float) -> N.t list list -> float
  (** A partition's score: [pair_weight_sum] of each block, summed left to
      right. *)

  val cross_weight_sum :
    weight:(string -> string -> float) -> N.t list -> N.t list -> float
  (** Sum of [weight a b] for [a] in the first list, [b] in the second. *)
end

val dense_weights : string array -> Slo_graph.Sgraph.t -> Float.Array.t
(** [dense_weights names g]: the row-major [n × n] weight matrix of [g]
    over [names] (node [i] is [names.(i)]), symmetric, 0 on the diagonal
    and for absent edges; edges naming a node outside [names] are
    ignored. One pass over the edges: O(n² + E) to allocate and fill, no
    per-pair map lookups. Entry [i·n + j] is bit-identical to
    [Sgraph.weight0 g names.(i) names.(j)]. *)

val active : string array -> Slo_graph.Sgraph.t -> int array
(** [active names g]: the ascending indices of the nodes with at least one
    incident edge in [g] — a problem's {!PROBLEM.active}. *)

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
  (** The dense [n × n] weights ({!dense_weights}); read-only. *)

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
