(** Hierarchy-aware layout objective (the paper's machine-dependence
    result, §5).

    The classic field-layout graph weighs every cross-CPU conflict
    identically, which is accurate on a bus machine where any
    cache-to-cache transfer costs about one memory access. On a
    cellular NUMA machine ({!Slo_sim.Topology.superdome}) the cost of a
    conflict spans a ~17x range depending on where the two CPUs sit:
    colocating two fields written from opposite ends of the machine is
    far worse than colocating the same fields written within one chip.

    This module builds layout objectives from a per-CPU access profile:

    - {e gain}: same-CPU co-accesses of a field pair (machine-independent
      — a hit is a hit at any distance);
    - {e loss}: cross-CPU write/access conflict pairs, each scaled by a
      level weight. {!objective} uses the topology's
      cache-to-cache transfer latency normalized by memory latency
      ({!penalty}); {!flat_objective} uses the constant 1.0 — the
      distance-blind estimate the single-level FLG makes.

    Both return an {!Objective.t}, so the whole {!Optimizer} machinery
    (greedy, annealing, portfolio selectors) applies unchanged. The NUMA
    workload bench demonstrates that on [superdome ~cpus:128] the
    hierarchy-aware layout strictly beats the flat one in simulated
    cycles while the two are a wash on [bus ~cpus:4]. *)

type profile
(** Per-field, per-CPU read and write counts for one struct. *)

val profile :
  fmf:Slo_concurrency.Fmf.t ->
  struct_name:string ->
  fields:Slo_layout.Field.t list ->
  ncpus:int ->
  Slo_sim.Machine.sample list ->
  profile
(** Build a profile from PMU samples: each sample's source line is mapped
    through the field/mode finder to the fields of [struct_name] it
    accesses, and the count for (field, sample's CPU, mode) is bumped.
    Samples from CPUs outside [0, ncpus) and fields not in [fields] are
    ignored. [fields], in the order given, is the profile's one field
    index space ({!Slo_util.Names.t}): the mapping is resolved once into
    a {!Slo_concurrency.Fmf.Table.t} over it, so a sample costs one
    array read and its counter bumps at the entries' indices, with no
    lookup by name and no allocation.
    @raise Invalid_argument if [ncpus <= 0], [fields] is empty, or a
    field name repeats. *)

val ncpus : profile -> int
val fields : profile -> Slo_layout.Field.t list
val read_count : profile -> field:string -> cpu:int -> int
val write_count : profile -> field:string -> cpu:int -> int

val penalty : Slo_sim.Topology.t -> src:int -> dst:int -> float
(** The level weight of one conflict between CPUs [src] and [dst]: their
    cache-to-cache transfer latency divided by the memory latency, so a
    conflict exactly as expensive as a memory fetch weighs 1.0. Zero when
    [src = dst]. On the scaled Superdome this ranges from 0.2 (same chip)
    to ~3.3 (cross crossbar); on a bus it is a flat 1.1. *)

val objective :
  ?k1:float ->
  ?k2:float ->
  topo:Slo_sim.Topology.t ->
  struct_name:string ->
  line_size:int ->
  profile ->
  Objective.t
(** The hierarchy-aware objective: FLG edge weights
    [k1·gain − k2·loss_topo] where each cross-CPU conflict in the loss is
    scaled by {!penalty} of the conflicting CPU pair. [k1] and [k2]
    default to 1.0.

    Only fields with an access in the profile can carry an edge, so the
    gain and loss sums run over those fields' pairs, and over each
    field's CPUs with a non-zero count, in ascending order. The terms
    skipped are exact zeros and the rest are added in the order of the
    full field × CPU scan, so every weight equals that scan's to the bit.
    @raise Invalid_argument if [k1] or [k2] is not finite. *)

val flat_objective :
  ?k1:float ->
  ?k2:float ->
  struct_name:string ->
  line_size:int ->
  profile ->
  Objective.t
(** The distance-blind control: identical construction but every
    cross-CPU conflict weighs 1.0 regardless of where the CPUs sit — the
    single-level objective's view of the machine.
    @raise Invalid_argument if [k1] or [k2] is not finite. *)
