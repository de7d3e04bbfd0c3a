(** Process-wide observability: named counters, gauges, histograms and
    span timers.

    {b Domain-safety contract.} A registry is a single mutex around three
    hash tables: every mutation takes the lock, so concurrent updates from
    pool workers are safe, and integer/float accumulation is
    order-independent — metrics recorded under any scheduling sum to the
    same totals.

    {b Metrics never feed back into results.} Instrumented code paths read
    the clock and write the registry but never branch on either, which is
    what keeps the parallel pipeline byte-identical to the serial one with
    metrics enabled (the [bench smoke] differential runs with this module
    active).

    All recording entry points default to {!default}, the process-wide
    registry; pass [~r] (e.g. a fresh {!create}) to isolate, as the tests
    do. *)

type registry

val create : unit -> registry
val default : registry

val now : unit -> float
(** Monotonic timestamp in seconds. Backed by the wall clock but clamped to
    be non-decreasing across all callers (a backward [gettimeofday] step —
    NTP, VM migration — reads as a zero-length interval, never a negative
    span). *)

val incr : ?r:registry -> ?by:int -> string -> unit
(** Add [by] (default 1) to a counter, creating it at 0 first.
    @raise Invalid_argument if [by < 0] — counters only go up; use a gauge
    for values that move both ways. *)

val set_gauge : ?r:registry -> string -> float -> unit
(** Last-write-wins instantaneous value. *)

val observe : ?r:registry -> string -> float -> unit
(** Record one sample into a histogram, creating it empty first. *)

val time : ?r:registry -> string -> (unit -> 'a) -> 'a
(** [time name f] runs [f] and records its wall-clock duration (seconds)
    into histogram [name]. The duration is recorded also when [f] raises;
    the exception is re-raised. *)

(** Order statistics of one histogram. Percentiles use nearest-rank on the
    recorded samples. *)
type summary = {
  count : int;
  sum : float;
  min_v : float;
  max_v : float;
  mean : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

val counter : ?r:registry -> string -> int
(** Current value; 0 for a counter never incremented. *)

val gauge : ?r:registry -> string -> float option
val histogram : ?r:registry -> string -> summary option

val counters : ?r:registry -> unit -> (string * int) list
(** All counters, sorted by name (deterministic regardless of the
    hash-table iteration order). Same for {!gauges} and {!histograms}. *)

val gauges : ?r:registry -> unit -> (string * float) list
val histograms : ?r:registry -> unit -> (string * summary) list

val reset : ?r:registry -> unit -> unit
(** Drop every metric; registries in long-lived processes (the
    bench harness between sections) are cumulative unless reset. *)

val to_json : ?r:registry -> unit -> Json.t
(** Snapshot as
    [{"counters": {..}, "gauges": {..}, "histograms": {..}}]
    with keys sorted; histogram objects carry
    [count/sum/min/max/mean/p50/p90/p99]. *)
