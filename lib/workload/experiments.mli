(** Reproductions of the paper's evaluation figures (§5).

    Each function returns printable rows; the bench harness formats them.
    All figures share one analysis: profile + samples collected once on the
    baseline kernel (16-way machine, §4.3), one FLG per struct, three layout
    policies (automatic / sort-by-hotness / incremental). *)

type layouts = {
  struct_name : string;
  baseline : Slo_layout.Layout.t;
  automatic : Slo_layout.Layout.t;
  hotness : Slo_layout.Layout.t;
  incremental : Slo_layout.Layout.t;
}

val analyze_all :
  ?params:Slo_core.Pipeline.params -> ?pool:Slo_exec.Pool.t -> unit -> layouts list
(** Run the collection + analysis pipeline for every kernel struct. With
    [pool], the per-struct analysis (FLG + three layouts) fans out across
    domains; results are identical to the serial path. *)

(** Speedups (percent over the hand-tuned baseline) of the three policies
    for one struct on one machine. *)
type measurement = {
  m_struct : string;
  m_automatic : float;
  m_hotness : float;
  m_incremental : float;
}

val measurement_json : measurement -> Slo_obs.Json.t
(** One Figure 8/9 row as the artifacts record it:
    [{struct, automatic_pct, hotness_pct, incremental_pct}]. *)

val measure_machine :
  ?runs:int ->
  ?pool:Slo_exec.Pool.t ->
  Slo_sim.Topology.t ->
  layouts list ->
  measurement list
(** Measure every struct's three candidate layouts against a shared
    baseline measurement ([runs] seeds each, trimmed mean). With [pool],
    the [runs] independent simulator runs of each measurement execute in
    parallel; cycle counts are bit-identical to the serial path. *)

val fig8 :
  ?runs:int -> ?cpus:int -> ?pool:Slo_exec.Pool.t -> layouts list ->
  measurement list
(** Figure 8: automatic and sort-by-hotness layouts on the 128-way
    Superdome (scale down with [cpus] for quick tests). *)

val fig9 :
  ?runs:int -> ?cpus:int -> ?pool:Slo_exec.Pool.t -> layouts list ->
  measurement list
(** Figure 9: the 4-way bus machine, same layouts. *)

type fig10_row = {
  b_struct : string;
  b_best : float;  (** speedup % of the best layout *)
  b_which : string;  (** "automatic" or "incremental" *)
}

val fig10 : measurement list -> fig10_row list
(** Figure 10: best of automatic and incremental per struct, derived from
    the Figure 8 measurements. *)

val gvl :
  ?runs:int -> ?cpus:int -> ?pool:Slo_exec.Pool.t -> unit -> float * float
(** The GVL extension (paper §7 future work): speedup of the
    CodeConcurrency-aware globals layout over the naive declaration-order
    globals segment, on the big machine and on the 4-way bus —
    [(big, bus)]. *)

type accumulation = {
  acc_individual : (string * float) list;  (** per-struct best-layout gains *)
  acc_sum : float;  (** sum of individual gains *)
  acc_combined : float;  (** gain with every best layout applied at once *)
}

val accumulation :
  ?runs:int -> ?cpus:int -> ?pool:Slo_exec.Pool.t -> layouts list ->
  accumulation
(** §5.2's closing observation: the per-struct improvements "are not
    accumulative" on a highly tuned kernel. Applies every struct's best
    layout simultaneously and compares against the sum of the individual
    gains. *)

val cc_stability : ?period:int -> unit -> float
(** §4.3: Spearman rank correlation between CC values of the top line pairs
    collected on a 4-way and a 16-way machine. *)
