(** The SDET-like throughput driver (§5: SPEC SDM 057.sdet).

    SDET models many concurrent users running short scripts that spend most
    of their time in the kernel. Here, every CPU runs one script thread; a
    script is [reps] repetitions of a fixed mix of kernel operations over
    the shared structure populations:

    - one hot accounting update on the thread's {b A} instance (shared by
      [cpus/8] threads with distinct writer classes),
    - lookups/scans over a rotating window of the {b B} population and an
      occasional dirty-flag update,
    - a sweep of reads over the {b C} population (read-only, cache-pressure
      bound),
    - a device operation on a {b D} instance shared by one even and one odd
      thread (parity counters),
    - a lock acquire or a lock-free peek on an {b E} instance.

    Populations are sized so the per-CPU working set exceeds the cache:
    locality (footprint) effects and coherence effects are both live, as on
    the paper's machine.

    Throughput is invocations per million cycles (the scripts/hour analog);
    {!measure} applies the paper's protocol — several runs with different
    seeds, outliers removed, mean reported (§5: warmup + 10 runs, outliers
    removed; our runs are independent simulations so the warmup run is
    unnecessary). *)

type config = {
  topology : Slo_sim.Topology.t;
  overrides : Slo_layout.Layout.t list;
      (** layouts replacing the hand baseline, keyed by struct name *)
  reps : int;  (** script repetitions per thread *)
  cache_lines : int;  (** per-CPU cache capacity in lines *)
  protocol : Slo_sim.Coherence.protocol;  (** coherence protocol *)
  sample_period : int option;
  seed : int;
  trace : bool;  (** record the memory trace (for the trace oracle) *)
  icache : Slo_sim.Coherence.icache option;
      (** simulate the instruction-fetch side (default [None]: off, and
          the run is byte-identical to the fetch-free model) *)
  code_layout : (string * int) list option;
      (** basic-block order override applied via
          {!Slo_sim.Machine.set_code_layout} (default [None]: program
          declaration order); only observable with [icache] set *)
}

val default_config : Slo_sim.Topology.t -> config
(** reps 30, cache_lines 512, MESI, no sampling, seed 1, no I-cache. *)

val build : config -> Slo_sim.Machine.t
(** Build the machine (baseline layouts + overrides), allocate populations
    and queue one full SDET round, ready to {!Slo_sim.Machine.run}. *)

val run_once : config -> Slo_sim.Machine.result
(** [Machine.run (build config)]. *)

val trace_oracle : config -> Slo_sim.Trace_oracle.t
(** Run one traced round and replay the trace through the
    {!Slo_sim.Trace_oracle} — the measured-false-sharing oracle of the
    paper's §3 discussion. *)

val throughputs : ?pool:Slo_exec.Pool.t -> config -> runs:int -> float list
(** [runs] independent runs with seeds [seed, seed+1, ...]. With [pool],
    runs execute in parallel (one self-contained machine per domain task);
    the list is bit-identical to the serial result for every pool size. *)

val measure : ?pool:Slo_exec.Pool.t -> config -> runs:int -> float
(** Outlier-trimmed mean throughput over [runs] runs. *)
