(** CycleLoss (§3.2): the estimated false-sharing penalty of colocating two
    fields, derived from the concurrency map and the field mapping file.

    {v CycleLoss(f1,f2) = k2 · Σ CC(L1,L2) v}
    over line pairs where f1 is accessed at L1, f2 at L2, and {e at least
    one} of those two accesses is a write. Both orientations of a line pair
    contribute (f1@L1 with f2@L2, and f1@L2 with f2@L1); the diagonal
    L1 = L2 contributes once. This is a normalization, not a double count:
    the invariant is {e one unit of loss per ordered (CPU pair, field
    orientation) conflict event}. CC's diagonal sums ordered CPU pairs
    (one coincident sample pair on two CPUs yields CC(L,L) = 2) and a
    single diagonal contribution walks both field orientations of the
    line's field set, so a same-line pair {f1,f2} collects 2·CC(L,L) = 4 —
    matching its 4 ordered conflict events (both CPUs touch both fields).
    Off-diagonal CC counts each CPU-to-line assignment once
    (CC(L1,L2) = 1 for the same coincident pair) and each orientation
    call contributes one field orientation, so a cross-line pair collects
    2·CC(L1,L2) = 2 — matching its 2 ordered conflict events. Dropping
    the second orientation call would halve cross-line loss relative to
    same-line loss.

    As the paper notes, this over-approximates false sharing: concurrent
    accesses to fields of {e different instances} of the struct also count.
    The [per-instance] refinement the paper assigns to alias analysis is
    out of scope for line-granular samples. *)

type t = {
  struct_name : string;
  fields : Slo_util.Names.t;  (** the index space [compute] was given *)
  loss : Float.Array.t;
      (** [n × n] row-major raw (un-scaled) loss, symmetric, 0 on the
          diagonal and for pairs never concurrent *)
}
(** CycleLoss values for the fields of one struct. *)

val compute :
  cm:Code_concurrency.t ->
  fmf:Fmf.t ->
  struct_name:string ->
  fields:Slo_util.Names.t ->
  t
(** The loss over [fields]' indices: in practice the struct's declared
    fields in declaration order, the affinity graph's index space, which
    [Flg.build] requires. Fields the FMF mentions that [fields]
    does not name are left out. Walks {!Code_concurrency.pairs} once.
    Each line of a pair is one read of the struct's {!Fmf.Table.t} over
    [fields], and each conflict adds into the field × field matrix.

    The walk keeps [pairs]' order (decreasing CC), then orientation, then
    the lines' entry order. A map with saturated cells ([max_int])
    gives a field pair sums above 2{^53}, where a float sum depends on
    the order of its terms, so that order fixes every cell (and the FLG
    built from it) to the bit. *)
