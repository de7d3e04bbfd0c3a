(** End-to-end analysis pipeline (the paper's Figure 3).

    Inputs are the three data products of the collection phase:
    - the typechecked program (SYZYGY's IR in the paper, minic here),
    - profile counts (the PBO feedback file),
    - synchronized PMU samples (Caliper's whole-system trace).

    From those it derives the affinity graph, the concurrency map, the
    field mapping file, CycleLoss, and finally the FLG, from which the
    three layout policies are produced: automatic (greedy clustering),
    incremental (important-edge subgraph constraints on a baseline), and
    the sort-by-hotness strawman.

    {b Observability.} [analyze] records its phase timings into
    {!Slo_obs.Obs.default}: histograms [pipeline.affinity_s],
    [pipeline.concurrency_s], [pipeline.flg_s] and [pipeline.analyze_s];
    [analyze_all] adds [pipeline.analyze_all_s] and the
    [pipeline.structs] gauge. Recording is write-only, so instrumented
    runs stay byte-identical to uninstrumented ones. *)

type params = {
  k1 : float;  (** CycleGain scale *)
  k2 : float;  (** CycleLoss scale *)
  line_size : int;  (** cache-line / coherence-block size *)
  cc_interval : int;  (** CodeConcurrency interval, in ITC ticks *)
  top_positive : int;  (** important positive edges kept in subgraph mode *)
}
(** The affinity graph keeps write-write affinity
    ([Affinity_graph.build]'s default). *)

val default_params : params
(** k1 = 1.0, k2 = 1.0, line_size = 128, cc_interval = 20_000,
    top_positive = 20. *)

val concurrency_map_store :
  ?pool:Slo_exec.Pool.t ->
  ?params:params ->
  Slo_concurrency.Sample_store.t ->
  Slo_concurrency.Code_concurrency.t
(** The profile's concurrency map: {!Slo_concurrency.Code_concurrency.compute}
    at [params.cc_interval], fanned across [pool] (identical for every
    pool size). Pass it to [analyze]/[analyze_all] via [?cm] to compute CC
    once per profile instead of once per struct. *)

val concurrency_map :
  ?pool:Slo_exec.Pool.t ->
  ?params:params ->
  ((Slo_concurrency.Sample.t -> unit) -> unit) ->
  Slo_concurrency.Code_concurrency.t
(** {!concurrency_map_store} over the store a sample producer fills (e.g.
    {!Slo_persist.Persist.iter_samples_file} partially applied to a path,
    or [fun f -> List.iter f samples]). *)

val analyze :
  ?params:params ->
  ?cm:Slo_concurrency.Code_concurrency.t ->
  program:Slo_ir.Ast.program ->
  counts:Slo_profile.Counts.t ->
  samples:Slo_concurrency.Sample.t list ->
  struct_name:string ->
  unit ->
  Flg.t
(** Build the FLG for one struct. With [cm], the precomputed concurrency
    map is used and [samples] is ignored (pass [[]]); otherwise the
    samples go through {!Slo_concurrency.Sample_store.of_samples} into
    CC, and an empty list yields a locality-only FLG (no CycleLoss). *)

val analyze_all :
  ?params:params ->
  ?pool:Slo_exec.Pool.t ->
  ?cm:Slo_concurrency.Code_concurrency.t ->
  program:Slo_ir.Ast.program ->
  counts:Slo_profile.Counts.t ->
  samples:Slo_concurrency.Sample.t list ->
  struct_names:string list ->
  unit ->
  (string * Flg.t) list
(** [analyze] for every named struct, in input order. With [pool], FLG
    construction fans out one task per struct across the pool's domains;
    the result is guaranteed identical to the serial path (see the
    {!Slo_exec.Pool} determinism contract). With [cm] (see
    {!concurrency_map}), every struct shares one concurrency map instead
    of re-binning the samples per struct. *)

val automatic_layout : ?params:params -> Flg.t -> Slo_layout.Layout.t
val hotness_layout : Flg.t -> Slo_layout.Layout.t

val search_problem : ?params:params -> Flg.t -> Slo_search.Objective.t
(** The FLG as a first-class layout objective ({!Slo_search.Objective}):
    same fields, same combined edge weights, [params.line_size] as the
    colocation granularity. *)

val search :
  ?params:params ->
  ?pool:Slo_exec.Pool.t ->
  ?seed:int ->
  ?restarts:int ->
  ?steps:int ->
  selector:Slo_search.Optimizer.selector ->
  Flg.t ->
  Slo_search.Optimizer.portfolio
(** Metaheuristic layout search: seed with the greedy clustering
    ({!Cluster.run}) and refine via {!Slo_search.Optimizer.run_selector}.
    The portfolio's [greedy] entry therefore scores exactly the paper's
    automatic layout, and [best] never scores below it. With [pool] the
    candidates fan out across domains; results are bit-identical for
    every pool size. Timed into the [pipeline.search_s] histogram. *)

val incremental_layout :
  ?params:params -> Flg.t -> baseline:Slo_layout.Layout.t -> Slo_layout.Layout.t

val report : ?params:params -> Flg.t -> Report.t
