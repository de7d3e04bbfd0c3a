(** Sliding window of interval histograms with exponential decay — the
    state the serve daemon keeps fresh under continuous ingestion.

    The window covers the [window] most recent intervals
    [(newest − window, newest]]. Feeding a sample whose interval index
    advances [newest] retires every interval at or below the new
    watermark ({!Slo_concurrency.Sample.below_watermark}, exact near
    [min_int]) by {e dropping} its table from the master
    ({!Slo_concurrency.Sample.drop_interval}), which leaves exactly the
    binner that never saw those samples — no re-binning of the
    survivors. Samples arriving {e below} the watermark are dropped and
    counted ({!late}).

    {b Weighted CC.} The window weights interval [idx]'s CC map by the
    fixed-point decay [num = round (1024 · decay^age)] over [den = 1024]
    (age in intervals, newest = 0) and sums
    [floor (v · num / den)] per pair, saturating — exact integer
    arithmetic, independent of the order intervals are added in.

    {e Slots.} Every pair of the live window has a dense slot. Each
    interval's CC is memoized on the interval's sample total as two
    arrays, its pairs' slots and counts: one code → slot lookup per pair,
    paid when the memo is computed, so a batch recomputes only the
    intervals that actually changed. The weighted window is then one
    pass over the memos into a reusable int accumulator indexed by slot,
    with no hashing. When the last memo holding a pair goes (its interval
    retires or is recomputed without it), the slot is reclaimed, so the
    slot arrays track the pairs of the live window, not the daemon's
    uptime.

    {e When a map is built.} A batch that only checks drift never builds
    a {!Slo_concurrency.Code_concurrency.t}: {!weighted_view} sorts the
    accumulator's non-zero pairs into a drift view. Only a publication,
    or an explicit {!weighted_cc}, builds the map. Both are computed from
    the same accumulator, which is summed once per fed batch.

    {e Drift.} The serve daemon prepares the last publication's side of
    {!Slo_concurrency.Code_concurrency.drift_views} once, when it
    publishes; each batch then sorts only the current pairs and walks the
    two sequences. The drift is bit-identical to
    {!Slo_concurrency.Code_concurrency.drift} of the two maps.

    Not thread-safe: the serve daemon serializes access. *)

type t

val weight_den : int
(** 1024 — the fixed-point denominator of the decay weights. *)

val create : ?decay:float -> interval:int -> window:int -> unit -> t
(** [decay] defaults to 1.0 (no decay: plain sliding window).
    @raise Invalid_argument if [interval <= 0], [window <= 0], or [decay]
    is outside (0, 1]. *)

val interval : t -> int
val window_length : t -> int
val decay : t -> float

val feed : t -> cpu:int -> itc:int -> line:int -> bool
(** Ingest one sample. Returns [false] — and counts it {!late} — when the
    sample's interval is at or below the retirement watermark; [true]
    when accepted (possibly retiring older intervals first when it
    advances the watermark). @raise Invalid_argument on out-of-range
    identifiers ({!Slo_concurrency.Sample.check_ids}), checked before
    lateness: a rejected sample changes nothing, {!late} included. *)

val newest : t -> int option
(** The newest interval index accepted, [None] before the first sample. *)

val live_samples : t -> int
(** Samples currently in the window (fed minus retired). *)

val live_intervals : t -> int
val retired : t -> int
(** Intervals retired so far. *)

val late : t -> int
(** Samples dropped below the watermark. *)

val master : t -> Slo_concurrency.Sample.binner
(** The live window's binner — read-only by convention (snapshots,
    identity checks); mutating it bypasses the window accounting. *)

val weight : t -> age:int -> int
(** [round (weight_den · decay^age)]. @raise Invalid_argument if
    [age < 0]. *)

val weighted_cc : t -> Slo_concurrency.Code_concurrency.t
(** The decay-weighted CC of the live window (empty map when empty). *)

val weighted_view : t -> Slo_concurrency.Code_concurrency.view
(** The drift view of [weighted_cc], without building the map. *)

val slots : t -> int
(** Pairs currently holding a slot: the distinct pairs of the memoized
    live intervals. With [decay = 1.0] every one of them is in
    [weighted_cc]. *)

val restore :
  ?decay:float ->
  window:int ->
  newest:int ->
  Slo_concurrency.Sample.binner ->
  t
(** Rebuild a window around a binner loaded from a snapshot
    ({!Slo_persist.Persist.load_serve_snapshot}); the binner is owned by
    the window afterwards. [retired]/[late] restart at 0.
    @raise Invalid_argument if [window <= 0], [decay] is outside (0, 1],
    or a live interval lies outside (newest − window, newest]. *)
