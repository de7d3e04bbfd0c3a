(** Exhaustive small-config model checker for the coherence kernel.

    The QCheck2 differential suites hold {!Coherence} to the pure
    {!Spec} on random traces. This module closes the gap random traces
    leave with explicit-state model checking in the spirit of the
    Kronecker-algebra verification of shared-memory concurrent systems
    (Mittermayr & Blieberger): enumerate {e all} reachable spec states of
    k CPUs x m lines under every interleaving of a small access alphabet,
    and at every transition check the kernel against the spec.

    For each reachable state the checker asserts:
    - global protocol invariants: at most one M/E/O holder per line, an
      M/E holder excludes every other copy, Owned only under MOESI, no
      stale dirty copy after an invalidating write (the writer ends as the
      sole holder, in M), no invalidation hint outlives its line's sharing
      episode, and under the hierarchy L1 inclusion and LLC exclusivity;
    - kernel conformance on {e every} edge: the kernel's latency equals
      the spec's for that transition, all per-CPU {!Sim_stats} match
      exactly, and the full introspected state
      ({!Coherence.owner}/[sharers]/[holders]/[cache_state]/[inv_hint]/
      [touched]/[l1_resident]/[llc_cell]) agrees with the spec;
    - in eviction-free configs, that {!Trace_oracle} classifies the
      sharing misses of the state's generating trace exactly as the
      coherence classifier does.

    States are canonicalized by packing every per-(CPU, line) summary
    (cache-state code, pending-hint code, L1 residency) plus the per-line
    touched bits and LLC cell into a single nonnegative [int] (<= 62 bits
    for every accepted config), and the visited set is a
    {!Slo_util.Flat_tab} over those packed keys. Reachable-state counts are
    pinned in {!standard_suite}; any semantic drift in the protocol changes
    a count or trips a conformance check and fails loudly.

    Exploration is breadth-first, so the trace stored for each state is a
    minimal-length witness; on violation it is shrunk further by greedy
    1-minimal trimming before being reported. *)

type topo_kind =
  | Bus  (** {!Topology.bus}: uniform transfer latency *)
  | Superdome  (** {!Topology.superdome}: hierarchical latencies *)

type config = {
  mc_protocol : Coherence.protocol;
  mc_topo : topo_kind;
  mc_cpus : int;  (** k: number of CPUs (Superdome: power of two) *)
  mc_lines : int;  (** m: number of distinct cache lines in the model *)
  mc_capacity : int;  (** per-CPU cache capacity in lines *)
  mc_ways : int;  (** associativity *)
  mc_offsets : int list;  (** byte offsets within the line accessed *)
  mc_line_size : int;
  mc_hierarchy : Coherence.hierarchy option;
      (** simulate the multi-level hierarchy; both its levels must be
          direct-mapped or eviction-free *)
}

val config :
  ?protocol:Coherence.protocol ->
  ?topo:topo_kind ->
  ?cpus:int ->
  ?lines:int ->
  ?capacity:int ->
  ?ways:int ->
  ?offsets:int list ->
  ?line_size:int ->
  ?hierarchy:Coherence.hierarchy ->
  unit ->
  config
(** Defaults: MESI, [Bus], 2 CPUs, 2 lines, capacity 2, ways 2, offsets
    [\[0; 8\]], line size 128, no hierarchy. Validation happens in
    {!run}. *)

val config_name : config -> string
(** Short id, e.g. ["mesi/bus/k2/m2/c2w2"], with an
    ["/L1c1w1/LLCc1w1"] suffix under the hierarchy. *)

type step = { v_cpu : int; v_line : int; v_off : int; v_write : bool }
(** One access of the model alphabet (size is fixed at 8 bytes). *)

exception Violation of { vmsg : string; vtrace : step list }
(** Raised by {!run} on any invariant or conformance failure. [vtrace] is
    the greedily shrunk (1-minimal) witness ending in the violation. *)

(** Deliberate protocol bugs (see {!Spec.mutation}), used to prove the
    checker's net catches and minimizes real violations (the
    [sim.mc.mutation] tests). Mutations perturb the spec only; kernel
    conformance is disabled under a mutation (the spec {e is} the system
    under test). *)
type mutation = Spec.mutation =
  | Read_keeps_modified
  | Skip_last_invalidation

type report = {
  r_states : int;  (** distinct reachable states (including the initial) *)
  r_transitions : int;  (** edges explored (= states x alphabet size) *)
  r_max_depth : int;  (** BFS depth of the deepest state *)
  r_max_frontier : int;  (** widest BFS frontier *)
  r_oracle_traces : int;
      (** witness traces cross-checked against {!Trace_oracle} (0 when the
          config can evict, where the oracle's episode model differs) *)
}

val run : ?mutate:mutation -> ?max_states:int -> config -> report
(** Exhaustively explore the configuration; raise {!Violation} on the
    first failed check (with a shrunk witness). [max_states] (default
    200_000) bounds the exploration as a runaway guard.

    Bumps the [sim.mc.runs]/[sim.mc.states]/[sim.mc.transitions] counters
    and the [sim.mc.depth]/[sim.mc.max_frontier] gauges.

    @raise Invalid_argument if the config is malformed, needs more than 62
    bits of packed state, or the geometry of any level makes LRU choice
    observable (the model requires [ways = 1] or an eviction-free
    geometry so victims are deterministic). *)

val spec_violation : ?mutate:mutation -> config -> step list -> string option
(** Replay one trace through the (optionally mutated) pure spec and return
    the first protocol-invariant violation, if any — exposed so tests can
    assert a shrunk counterexample is 1-minimal. *)

val standard_suite : (config * int) list
(** The pinned configurations: each with its exact reachable-state count.
    [bench model_check], [slayout verify] and the [sim.mc] tests all
    re-explore these and fail on any drift. *)
