(** Synchronized PMU samples and their interval binning (§4.2).

    A sample is (CPU id, code location, timestamp), where timestamps are
    comparable across CPUs — the Itanium ITC property the paper relies on;
    in this reproduction they come from the simulator's per-CPU clocks,
    which start synchronized at 0. Code locations are source lines, as in
    the paper's concurrency map.

    A {!binner} divides time into fixed-size intervals and produces, for
    each interval, the frequency table F_I(P, L): how many samples
    interval I holds for CPU P at line L. It consumes samples one at a
    time ({!feed}) and aggregates them into interval tables keyed by the
    absolute interval index (floor of itc / interval), so the resulting
    tables — and everything computed from them — are independent of how
    the sample stream was chunked or buffered. An
    interval table is a histogram, not a sample list; its size is bounded
    by the number of distinct (cpu, line) pairs, not by the profile
    length.

    {b Identifier bounds.} [cpu] and [line] are identifiers in
    [0 .. ]{!max_id}[ = 2^31 - 1]: a (cpu, line) pair packs into a single
    non-negative OCaml int inside the frequency tables, and both fit the
    32-bit columns of the binary sample store
    ({!Slo_persist.Persist.save_samples_bin}). Feeding an out-of-range
    identifier raises [Invalid_argument]; the persist layer rejects such
    records at parse time, so data loaded from disk is in range by
    construction. The [itc] timestamp is any OCaml int — binning is exact
    over the whole range, including [min_int]. *)

type t = { cpu : int; itc : int; line : int }

val max_id : int
(** Upper bound (inclusive, [2^31 - 1]) on [cpu] and [line]. *)

val check_ids : cpu:int -> line:int -> unit
(** The identifier check every feeding path applies.
    @raise Invalid_argument naming the field if [cpu] or [line] is
    outside [0 .. max_id]. *)

val floor_div : int -> int -> int
(** Exact floor division for any int numerator and positive denominator —
    the interval-index function ([floor_div itc interval]), exposed so
    windowed consumers classify a sample into the same bin the binner
    will. *)

type interval_table
(** Frequencies of one interval: (cpu, line) -> count. *)

val freq : interval_table -> cpu:int -> line:int -> int

val rows : interval_table -> int array * int array * int array
(** [(lines, cpus, counts)]: one row per distinct (cpu, line) pair, in
    ascending (line, cpu) order, every count positive — the one read view
    of a table, built by one {!Slo_util.Int_sort} of its packed keys
    with their counts. The arrays are fresh and owned by the caller. *)

val rows_into :
  interval_table -> lines:int array -> cpus:int array -> counts:int array -> unit
(** {!rows} written into the first {!entries} cells of [lines], [cpus]
    and [counts], the same extraction without allocating: how the CC
    kernel reads a table into its reused scratch.
    @raise Invalid_argument if an array is shorter than {!entries}. *)

val entries : interval_table -> int
(** Distinct (cpu, line) pairs in the table — its memory footprint proxy. *)

val total_samples : interval_table -> int

(** {1 One interval at a time}

    A table the caller owns, for counting one interval's samples,
    reading them and clearing the table for the next interval:
    {!Code_concurrency.compute} counts a whole store that way through
    one table per chunk of intervals, with no binner and no table per
    interval. *)

val empty_table : unit -> interval_table

val clear_table : interval_table -> unit
(** Drop every count of a table made by {!empty_table}, keeping its
    storage. (A table of a {!binner} is the binner's to change.) *)

val count : interval_table -> cpu:int -> line:int -> unit
(** Count one sample into the table: {!feed_raw}'s identifier check and
    saturating add, with the interval already chosen by the caller.
    @raise Invalid_argument if [cpu] or [line] is outside
    [0 .. max_id]. *)

(** {1 Binning} *)

type binner
(** An incremental sample accumulator: feeding the same samples in any
    order and chunking yields the same tables. *)

val binner : interval:int -> binner
(** Tables are indexed by floor division ({!floor_div}), so negative
    timestamps land in negative bins rather than sharing bin 0 with early
    positive samples. @raise Invalid_argument if [interval <= 0]. *)

val interval : binner -> int
(** The interval length this binner was created with. *)

val feed : binner -> t -> unit
(** @raise Invalid_argument if [cpu] or [line] is outside [0 .. max_id]. *)

val feed_n : binner -> cpu:int -> itc:int -> line:int -> count:int -> unit
(** Feed [count] identical samples in one probe — what snapshot restore
    and stored counts use to rebuild a binner from (interval, cpu, line,
    count) rows. [count = 0] is a no-op. Like every path into a table, it
    saturates: a key's count, a table's {!total_samples} and {!fed} stop
    at [max_int] instead of wrapping.
    @raise Invalid_argument if [count < 0] or an identifier is out of
    range. *)

val feed_raw : binner -> cpu:int -> itc:int -> line:int -> unit
(** {!feed} without the record: the allocation-free entry point columnar
    readers ({!Sample_store}) use. Same bounds discipline as {!feed}. *)

val fed : binner -> int
(** Samples fed so far, less those of dropped intervals; at most
    [max_int]. *)

val drop_interval : binner -> int -> unit
(** [drop_interval b idx] removes interval [idx]'s table and subtracts
    its samples from {!fed}: [b] is then exactly a binner that never saw
    them. This is what makes a sliding window cheap: retiring an interval
    is one table removal, not re-binning the survivors. No-op when [idx]
    holds no samples. *)

val below_watermark : newest:int -> window:int -> int -> bool
(** [below_watermark ~newest ~window idx]: interval [idx] is at or below
    [newest - window], the retirement watermark of a window of [window]
    (>= 1) intervals ending at [newest]. Exact for every int: when the
    watermark would wrap below [min_int], no interval is below it. *)

val peak_entries : binner -> int
(** Largest {!entries} over the accumulated interval tables (0 when no
    sample was fed) — the high-water mark streaming ingestion reports. *)

val table_count : binner -> int
(** The number of accumulated tables, [List.length (binned b)], without
    listing or sorting them. *)

val table : binner -> int -> interval_table option
(** Interval [idx]'s table, if it holds samples. *)

val binned : binner -> interval_table list
(** The accumulated tables in ascending interval order; empty intervals
    are omitted. *)

val binned_idx : binner -> (int * interval_table) list
(** The accumulated tables with their absolute interval indices, in
    ascending index order — what windowed consumers (the serve daemon's
    retirement watermark, snapshots) key on. *)
