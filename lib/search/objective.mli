(** The shared layout objective: how good is a concrete field placement
    against an FLG?

    The paper's §4.4 clustering maximizes the same quantity implicitly —
    the sum of FLG edge weights over colocated field pairs, where each
    weight is already [k1·CycleGain − k2·CycleLoss]. This module makes the
    objective a first-class value that every consumer scores with one
    implementation, the index scorers of {!Substrate}: the greedy
    clusterer's intra/inter cluster weights ({!Slo_core.Cluster}), the
    brute-force partition oracle in the test suite, and the
    metaheuristic optimizers of {!Optimizer}.

    Two equivalent views are scored:
    - a {e partition} ([score_blocks]): the candidate representation the
      optimizers search over — blocks of fields, each multi-field block
      constrained to fit one cache line ([block_fits]);
    - a {e layout} ([score]): any {!Slo_layout.Layout.t}; fields are
      grouped by the cache line of their first byte (the colocation
      predicate {!Slo_layout.Layout.same_line} uses).

    For a partition laid out with {!Slo_layout.Layout.of_clusters} (every
    block starting on a fresh line) whose multi-field blocks all fit one
    line, the two views agree: [score (layout_of_blocks t bs) =
    score_blocks t bs]. The law is pinned by a test in
    [test/test_search.ml]. *)

type t = private {
  struct_name : string;
  fields : Slo_layout.Field.t list;  (** declaration order *)
  line_size : int;
  nodes : Slo_layout.Field.t array;  (** [fields]; index = search node *)
  names : Slo_util.Names.t;  (** [nodes]' names *)
  weights : Float.Array.t;
      (** the combined FLG edge weights, dense row-major over [nodes] *)
  active : int array;  (** ascending indices of {!active_fields} *)
}

val make :
  struct_name:string ->
  fields:Slo_layout.Field.t list ->
  weights:Float.Array.t ->
  active:int array ->
  line_size:int ->
  t
(** [weights] is read, not copied.
    @raise Invalid_argument if [line_size <= 0], [fields] is empty, a
    field name repeats, or [weights] is not [n × n]. *)

val block_weight : t -> Slo_layout.Field.t list -> float
(** The sum of the weights of the block's pairs, in block order
    ({!Substrate.pair_sum}). @raise Invalid_argument for a field that
    is not one of the objective's. *)

val score_blocks : t -> Slo_layout.Field.t list list -> float
(** Objective value of a partition: the sum of [block_weight] over its
    blocks (cross-block pairs contribute nothing — each block gets its own
    cache line when laid out); {!Substrate.score_indices}, the engine's
    scorer. *)

val score : t -> Slo_layout.Layout.t -> float
(** Objective value of a concrete layout: fields are grouped by
    [offset / line_size] (the line of the first byte) and each group is
    scored with [block_weight]. *)

val gain_loss : t -> Slo_layout.Layout.t -> float * float
(** [(gain, loss)]: the positive and (absolute) negative components of the
    colocated pair weights, so [score t l = gain -. loss]. *)

val line_groups : t -> Slo_layout.Layout.t -> Slo_layout.Field.t list list
(** The layout's fields grouped by cache line of first byte, in layout
    order — the grouping [score] uses. *)

val active_fields : t -> Slo_layout.Field.t list
(** Fields with at least one incident FLG edge. Moving any other field
    between lines cannot change the objective, so the optimizers leave
    them where the seed partition put them (keeping cold packing, and the
    struct footprint, intact). *)

val block_fits : t -> Slo_layout.Field.t list -> bool
(** The partition validity rule, identical to the clustering's: a
    singleton block always fits (an oversized field still gets its own
    cluster); a multi-field block must pack into one cache line
    ({!Slo_layout.Layout.packed_size}). *)

val layout_of_blocks : t -> Slo_layout.Field.t list list -> Slo_layout.Layout.t
(** [Slo_layout.Layout.of_clusters] over the non-empty blocks: each block
    starts on a fresh cache line. *)
