(** The affinity graph (§4.1, Figures 4-5): nodes are the fields of one
    struct, edge weights are affinities computed with the {e Minimum
    Heuristic} — within each affinity group, the affinity contribution of a
    field pair is the minimum of the two fields' dynamic reference counts in
    that group; contributions sum across groups.

    Hotness of a field is its total dynamic reference count. For the code
    in Figure 4, this module produces exactly Figure 5: edge (f1,f3) = N,
    edge (f1,f2) = n, h(f1) = N + n, R(f3) = 2N, W(f3) = N.

    The graph is dense over the struct's field indices ({!Slo_util.Names}).
    Every contribution is positive, so a pair has an edge exactly when
    its weight is non-zero. *)

type t = {
  struct_name : string;
  fields : Slo_util.Names.t;  (** the struct's fields, declaration order *)
  weight : Float.Array.t;
      (** [n × n] row-major affinity, symmetric, 0 on the diagonal; each
          cell sums its contributions in group order *)
  hotness : int array;  (** per field, total refs *)
  rw : Slo_profile.Counts.rw array;  (** total R/W per field *)
}

val build :
  ?require_read:bool ->
  Slo_ir.Ast.program ->
  Slo_profile.Counts.t ->
  struct_name:string ->
  t
(** Build from affinity groups over the whole program. Fields never
    referenced still appear as isolated nodes (they must end up in the
    layout). [require_read] (default [false], matching the implemented
    Minimum Heuristic of §4.1) suppresses the affinity of pairs whose
    references within a group are all writes — the model's rule that
    store-store proximity yields no CycleGain (§2). *)

val of_groups :
  ?require_read:bool ->
  struct_name:string ->
  all_fields:string list ->
  Group.t list ->
  t
(** Same, from precomputed groups (for tests and the CLI).
    @raise Invalid_argument if a field repeats in [all_fields] or a
    group names a field outside it. *)

val hotness_of : t -> string -> int
val affinity : t -> string -> string -> float

val pp : Format.formatter -> t -> unit
(** The edges and then every field's hotness, both in name order. *)
