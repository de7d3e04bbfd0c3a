(** Sliding window of interval histograms with exponential decay — the
    state the serve daemon keeps fresh under continuous ingestion.

    The window covers the [window] most recent intervals
    [(newest − window, newest]]. Its live intervals sit in one ring in
    ascending order, each owning the {!Slo_concurrency.Sample.interval_table}
    its samples are counted into; the ring is the window's only index of
    them. A sample is counted into the entry of its interval, found by a
    compare with the last accepted sample's interval, and otherwise by a
    binary search of the ring (opening the entry if it is new). Feeding a
    sample whose interval index advances [newest] retires every interval
    at or below the new watermark
    ({!Slo_concurrency.Sample.below_watermark}, exact near [min_int]) by
    {e popping} its entry, table and all: what is left is exactly the
    tables of the samples never below the watermark, with no re-binning
    of the survivors. Samples arriving {e below} the watermark are dropped
    and counted ({!late}).

    {b Weighted CC.} The window weights interval [idx]'s CC map by the
    fixed-point decay [num = round (1024 · decay^age)] over [den = 1024]
    (age in intervals, newest = 0) and sums
    [floor (v · num / den)] per pair, saturating — exact integer
    arithmetic, independent of the order intervals are added in.

    {e Slots.} Every pair of the live window has a dense slot. Each
    interval's CC is memoized on the interval's sample total as two
    arrays, its pairs' slots and counts in code order: the CC kernel's
    rows ({!Slo_concurrency.Code_concurrency.interval_rows}), emitted
    into a buffer and a kernel scratch the window keeps for its lifetime,
    then one code → slot lookup per pair. A batch recomputes only the
    intervals that actually changed. The weighted window is then one
    pass over the memos into a reusable int accumulator indexed by slot,
    with no hashing. When the last memo holding a pair goes (its interval
    retires or is recomputed without it), the slot is reclaimed, so the
    slot arrays track the pairs of the live window, not the daemon's
    uptime.

    {e Code order.} The window also keeps its slots sorted by code. The
    slots handed out while memos are recomputed come in ascending runs
    (one per memo); once per view they are sorted together and merged
    into that order in one pass, which drops the entries of slots freed
    or handed to another pair since.

    {e When a map is built.} A batch that only checks drift never builds
    a {!Slo_concurrency.Code_concurrency.t}: {!weighted_view} walks the
    slots in code order and takes the non-zero sums, which is already
    the view's order, so nothing is sorted. Only a publication, or an
    explicit {!weighted_cc}, builds the map. Both are computed from the
    same accumulator, which is summed once per fed batch.

    {e Drift.} The serve daemon prepares the last publication's side of
    {!Slo_concurrency.Code_concurrency.drift_views} once, when it
    publishes; each batch then walks its slots into the current side and
    walks the two sequences. The drift is bit-identical to
    {!Slo_concurrency.Code_concurrency.drift} of the two maps.

    Not thread-safe: the serve daemon serializes access. *)

type t

val weight_den : int
(** 1024 — the fixed-point denominator of the decay weights. *)

val create : ?decay:float -> interval:int -> window:int -> unit -> t
(** [decay] defaults to 1.0 (no decay: plain sliding window).
    @raise Invalid_argument naming [Window.create] if [interval <= 0],
    [window <= 0], or [decay] is outside (0, 1]. *)

val interval : t -> int
val window_length : t -> int

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
(** Samples currently in the window (fed minus retired): the sum of the
    live tables' totals, stopping at [max_int] like the totals do. *)

val live_intervals : t -> int
(** Intervals currently in the window, the ring's length; nothing is
    listed. *)

val retired : t -> int
(** Intervals retired so far. *)

val late : t -> int
(** Samples dropped below the watermark. *)

val tables : t -> (int * Slo_concurrency.Sample.interval_table) list
(** The live intervals with their tables, by ascending interval index;
    every table holds at least one sample. The tables are the window's
    own, read-only by convention (snapshots, identity checks): counting
    into one bypasses the window's memos. *)

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
  interval:int ->
  window:int ->
  newest:int ->
  (int * Slo_concurrency.Sample.interval_table) list ->
  t
(** Rebuild a window around live tables by interval index, such as a
    snapshot's ({!Slo_persist.Persist.load_serve_snapshot}); the tables
    are owned by the window afterwards, and those holding no sample are
    left out. [retired]/[late] restart at 0.
    @raise Invalid_argument naming [Window.restore] if [interval <= 0],
    [window <= 0], [decay] is outside (0, 1], the indices are not
    strictly ascending, or a live interval lies outside
    (newest − window, newest]. *)
