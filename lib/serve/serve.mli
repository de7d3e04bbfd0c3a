(** The always-on layout service behind [slayout serve] (DESIGN §14).

    A server ingests batches of PMU samples from many concurrent clients,
    maintains a decay-weighted sliding {!Window} of CC state, and re-runs
    the {!Slo_search.Optimizer} portfolio whenever the weighted CC drifts
    past [drift_threshold] since the last publication — publishing
    versioned layout suggestions as it goes.

    {b Threading.} Two locks. The ingest side is a bounded batch queue:
    {!submit} is non-blocking admission control (a full queue {e drops}
    the batch and says so), {!submit_wait} is backpressure (blocks until
    space or shutdown). The state side (window, publications) is held by
    exactly one processor at a time — either the daemon domain started
    with {!run}, or the caller of {!drain} (the deterministic path tests
    and benches use). Clients only ever touch the queue lock, so
    ingestion never contends with a running re-search.

    {b Determinism.} Processing is serial in batch-arrival order; the
    search seed is fixed in the config. Feeding the same batches in the
    same order therefore yields byte-identical publications whatever the
    client parallelism — and a {!snapshot}/{!restore} round trip followed
    by {!research} reproduces the suggestion exactly (the bench serve
    gate enforces both).

    {b Observability} (all under [serve.*] in {!Slo_obs.Obs.default}):
    counters [batches], [dropped_batches], [samples], [late_samples],
    [retired_intervals], [publications], [researches], [snapshots];
    gauges [queue_depth], [window_samples], [window_intervals], [drift],
    [version]; histograms [ingest_s], [research_s]. *)

type config = {
  interval : int;  (** CC interval length in ITC ticks, >= 1 *)
  window : int;  (** sliding-window length in intervals, >= 1 *)
  decay : float;  (** per-interval-of-age decay in (0, 1]; 1.0 = none *)
  drift_threshold : float;
      (** re-search when {!Slo_concurrency.Code_concurrency.drift} since
          the last publication exceeds this ([0, 1] scale; the first
          publication ignores it). >= 0 and not NaN; [infinity] never
          re-searches. *)
  min_samples : int;  (** live samples required before any publication *)
  queue_capacity : int;  (** max queued batches before admission drops *)
  params : Slo_core.Pipeline.params;
  program : Slo_ir.Ast.program;
  counts : Slo_profile.Counts.t;
  struct_name : string;  (** the struct whose layout is being served *)
  selector : Slo_search.Optimizer.selector;
  seed : int;
  restarts : int;
}

(** One versioned layout suggestion. *)
type publication = {
  version : int;  (** 1, 2, ... *)
  best : Slo_search.Optimizer.result;
  greedy_score : float;  (** the greedy baseline's score, for reference *)
  cc_pairs : ((int * int) * int) list;
      (** the weighted window CC this suggestion was searched against *)
  pub_drift : float;  (** the drift value that triggered it *)
  window_samples : int;
  window_intervals : int;
}

type t

val create : config -> t
(** A fresh server with an empty window, version 0, nothing queued.
    @raise Invalid_argument on out-of-range config fields. *)

val config : t -> config
val window : t -> Window.t

val version : t -> int
(** Version of the latest publication; 0 before the first (survives
    {!restore}). *)

val publications : t -> publication list
(** Oldest first. Restored servers start with an empty list even when
    [version > 0]. *)

val current : t -> publication option
(** The latest publication. *)

(** {1 Ingest} *)

val submit : t -> Slo_concurrency.Sample.t array -> [ `Accepted | `Dropped ]
(** Non-blocking admission: enqueue the batch, or drop it (counted, and
    [`Dropped] returned) when the queue is at capacity or the server is
    stopping. @raise Invalid_argument naming the index and field if any
    sample's [cpu] or [line] is outside [0 .. Sample.max_id]; the whole
    batch is checked first, so nothing is enqueued or counted. *)

val submit_wait : t -> Slo_concurrency.Sample.t array -> bool
(** Backpressure: block until the queue has space, then enqueue. Returns
    [false] (batch dropped) only when the server is stopping.
    @raise Invalid_argument as {!submit}, before blocking. *)

val queue_depth : t -> int
val dropped_batches : t -> int

(** {1 Processing} *)

val drain : t -> unit
(** Process every currently queued batch in the calling thread, in
    arrival order: feed the window (retiring intervals past the
    watermark), then publish if the drift trigger fires. The
    deterministic, single-threaded alternative to {!run}. *)

val run : t -> unit
(** Spawn the daemon domain: blocks on the queue, processes batches as
    they arrive, exits once {!stop} is called and the queue is drained.
    @raise Invalid_argument if already running. *)

val stop : t -> unit
(** Signal shutdown, wake all waiters, and join the daemon (which first
    drains the remaining queue). Idempotent; no-op when {!run} was never
    called. Subsequent submissions are dropped. *)

val research : t -> publication
(** Force a re-search and publication from the current window now,
    bypassing the drift trigger and [min_samples] — what the CLI uses on
    demand and the bench uses to prove restored state reproduces the
    suggestion byte-for-byte. *)

(** {1 Snapshot / restore} *)

val snapshot : t -> path:string -> unit
(** Atomically write the windowed state as [slo-serve-snapshot 1]
    ({!Slo_persist.Persist.save_serve_snapshot}): the live interval
    histograms plus window length, version and newest interval. *)

val restore : config -> path:string -> t
(** Rebuild a server from a snapshot: same window contents, same
    version; queue empty, publication history empty (the next
    {!research} reproduces the current suggestion).
    @raise Slo_persist.Persist.Bin_error on a malformed snapshot;
    @raise Invalid_argument if the snapshot's interval or window length
    disagrees with the config. *)
