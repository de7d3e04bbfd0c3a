(** The NUMA trap workload: the machine-dependence counterexample for the
    hierarchy-aware objective ({!Slo_search.Hier}).

    Struct [N] carries two write/read-mostly field pairs with {e identical}
    access mixes and different geography:

    - the {e far} pair [(n_hot, n_ro)]: one CPU at each end of the machine
      — [n_hot]'s owner read-modify-writes it while co-reading [n_ro];
      the far peer just reads [n_ro];
    - the {e near} pair [(n_loc, n_lro)]: the same pattern between two
      CPUs on one chip.

    The owner's co-access makes colocation look good — its gain always
    caps the flat objective's [min]-paired loss, so the distance-blind
    objective keeps both pairs together. On a scaled Superdome the far
    conflict costs ~10/3 of a memory fetch while the near one costs 1/5,
    so the hierarchy-aware objective splits only the far pair — and the simulator confirms it: under the
    flat layout the far peeker's reads and the owner's upgrades ping-pong
    a line across the crossbar every sweep, so the hierarchy-aware layout
    finishes in strictly fewer cycles on [superdome ~cpus:128]. On
    [bus ~cpus:4] every conflict costs ~1.1 memory fetches, both
    objectives colocate both pairs, and the two layouts are a wash. The
    [hierarchy] bench block gates both facts. *)

val source : string
(** The minic source (struct [N] + the four role procedures). *)

val program : unit -> Slo_ir.Ast.program
(** Parsed and typechecked, memoized. *)

val struct_name : string
(** ["N"]. *)

val line_size : int
(** 128, as everywhere else. *)

val fields : unit -> Slo_layout.Field.t list
(** [N]'s fields in declaration order. *)

val hierarchy : Slo_sim.Coherence.hierarchy
(** The multi-level geometry the demo machines run under (8-line private
    L1s, 64-line per-cell LLCs, fully associative). *)

val samples : Slo_sim.Topology.t -> Slo_sim.Machine.sample list
(** One deterministic PMU-sampled profiling run on the given topology
    (role CPUs looping on one shared instance). *)

val profile : Slo_sim.Topology.t -> Slo_search.Hier.profile
(** {!samples} folded into per-CPU per-field counts. *)

val flat_objective : Slo_sim.Topology.t -> Slo_search.Objective.t
(** The distance-blind control built from the {e same} profile. *)

val layout_hier : Slo_sim.Topology.t -> Slo_layout.Layout.t
(** Portfolio-optimized layout under {!Slo_search.Hier.objective} of
    {!profile}. Deterministic. *)

val layout_flat : Slo_sim.Topology.t -> Slo_layout.Layout.t
(** Portfolio-optimized layout under {!flat_objective}. Deterministic. *)

val measure_makespan : topo:Slo_sim.Topology.t -> Slo_layout.Layout.t -> int
(** Simulator makespan (cycles) of the full trap mix — role CPUs sweeping
    a 12-instance population — under the given layout, with {!hierarchy}
    configured. Deterministic for a fixed layout and topology. *)
