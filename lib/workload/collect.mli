(** The data-collection phase of the pipeline (paper Figure 3): PBO
    profile counts and synchronized PMU samples.

    For the synthetic kernel both are gathered on the {e baseline}
    layouts — the tool analyzes the kernel as it exists today. Profiling
    runs the single-threaded interpreter over every kernel operation once
    per writer class on scratch instances (the paper's instrumented
    profile-collect run over a representative input), so each counter
    branch contributes equally. Sampling runs one full SDET round on the
    simulator with the PMU sampler enabled.

    For any other program, the generic harness below needs no workload
    description: it runs every procedure against shared instances, which
    exposes the program's sharing behaviour. *)

val profile : ?iters:int -> unit -> Slo_profile.Counts.t
(** Profile counts over all kernel operations. [iters] is the loop trip
    count used for each operation (default 32). *)

val of_machine : Slo_sim.Machine.sample list -> Slo_concurrency.Sample.t list
(** A run's samples in the pipeline's representation, in the same order. *)

val samples :
  ?config:Sdet.config -> ?period:int -> unit -> Slo_concurrency.Sample.t list
(** PMU samples from one SDET collection run on the baseline layouts.
    [period] is the sampling period in cycles (default 400). The default
    config is {!Sdet.default_config} on the collection machine — the paper
    collects on a 16-way machine and finds the high-CC pairs stable across
    machine sizes (§4.3); we default to a 16-CPU superdome for the same
    reason. *)

val flg :
  ?params:Slo_core.Pipeline.params ->
  ?cm:Slo_concurrency.Code_concurrency.t ->
  counts:Slo_profile.Counts.t ->
  samples:Slo_concurrency.Sample.t list ->
  struct_name:string ->
  unit ->
  Slo_core.Flg.t
(** Assemble the FLG for one kernel struct. With [cm], the precomputed
    concurrency map is shared instead of re-binning [samples]. *)

val calibrated_params : Slo_core.Pipeline.params
(** Pipeline parameters calibrated for this kernel workload: the CC
    interval matched to the sampling period above, and k2 scaled so that
    sampled CodeConcurrency (sparse counts) balances profile-derived
    CycleGain (dense counts). The k2 ablation bench sweeps around this
    value. *)

(** {1 The generic harness} *)

val generic_profile :
  Slo_ir.Ast.program -> int_arg:int -> rounds:int -> Slo_profile.Counts.t
(** Run every procedure [rounds] times through the interpreter, binding
    struct-pointer parameters to one scratch instance per struct and
    integer parameters to [int_arg + round]. *)

val generic_machine :
  ?hierarchy:Slo_sim.Coherence.hierarchy ->
  ?period:int ->
  Slo_ir.Ast.program ->
  topology:Slo_sim.Topology.t ->
  seed:int ->
  reps:int ->
  int_arg:int ->
  Slo_sim.Machine.t option
(** The collection machine, built and not yet run: every CPU of
    [topology] runs [reps] work items, cycling through the procedures
    from its own CPU number, against one machine-wide instance per
    struct; integer parameters are [int_arg + cpu mod 8]. It samples
    every [period] cycles (default: no sampling) and simulates
    [hierarchy] (default: none). [None] when the program has no
    procedures. *)

val generic_samples :
  ?hierarchy:Slo_sim.Coherence.hierarchy ->
  ?on_result:(Slo_sim.Machine.result -> unit) ->
  Slo_ir.Ast.program ->
  topology:Slo_sim.Topology.t ->
  seed:int ->
  period:int ->
  reps:int ->
  int_arg:int ->
  Slo_concurrency.Sample.t list
(** Run {!generic_machine} with sampling every [period] cycles and return
    its samples through {!of_machine}; [on_result] sees the raw result
    (statistics and machine samples) first. [[]] when the program has no
    procedures. *)
