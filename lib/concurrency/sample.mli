(** Synchronized PMU samples and their interval tables (§4.2).

    A sample is (CPU id, code location, timestamp), where timestamps are
    comparable across CPUs — the Itanium ITC property the paper relies on;
    in this reproduction they come from the simulator's per-CPU clocks,
    which start synchronized at 0. Code locations are source lines, as in
    the paper's concurrency map.

    Time is divided into fixed-size intervals, indexed by the floor of
    itc / interval ({!floor_div}), and an {!interval_table} holds one
    interval's frequency table F_I(P, L): how many samples interval I
    holds for CPU P at line L. A table is a histogram, not a sample list;
    its size is bounded by the number of distinct (cpu, line) pairs, not
    by the profile length. Its owner picks the interval of each sample
    and counts it in ({!count}): the serve window ({!Slo_serve.Window})
    keeps one table per live interval, and its snapshot loader rebuilds
    them with {!count_n}. {!Code_concurrency.compute} makes no table: it
    bins a store by a counting sort over the store's line and CPU ranks.
    The CC kernel reads a table's rows only through
    {!Code_concurrency.interval_rows} and {!Code_concurrency.of_interval}.

    {b Identifier bounds.} [cpu] and [line] are identifiers in
    [0 .. ]{!max_id}[ = 2^31 - 1]: a (cpu, line) pair packs into a single
    non-negative OCaml int inside the frequency tables, and both fit the
    32-bit columns of the binary sample store
    ({!Slo_persist.Persist.save_samples_bin}). Counting an out-of-range
    identifier raises [Invalid_argument]; the persist layer rejects such
    records at parse time, so data loaded from disk is in range by
    construction. The [itc] timestamp is any OCaml int — {!floor_div} is
    exact over the whole range, including [min_int]. *)

type t = { cpu : int; itc : int; line : int }

val max_id : int
(** Upper bound (inclusive, [2^31 - 1]) on [cpu] and [line]. *)

val check_ids : cpu:int -> line:int -> unit
(** The identifier check every counting path applies;
    {!Code_concurrency.compute} applies it to the least and the greatest
    id of each store column.
    @raise Invalid_argument naming the field if [cpu] or [line] is
    outside [0 .. max_id]. *)

val floor_div : int -> int -> int
(** Exact floor division for any int numerator and positive denominator —
    the interval-index function ([floor_div itc interval]) every binning
    path uses, so they all put a sample in the same interval. *)

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
    and [counts], the same extraction without allocating: how
    {!Code_concurrency.interval_rows} reads a table into its reused
    scratch.
    @raise Invalid_argument if an array is shorter than {!entries}. *)

val entries : interval_table -> int
(** Distinct (cpu, line) pairs in the table — its memory footprint proxy. *)

val total_samples : interval_table -> int

(** {1 Counting}

    A table made by {!empty_table} belongs to its caller, who counts the
    samples of one interval into it. *)

val empty_table : unit -> interval_table

val count : interval_table -> cpu:int -> line:int -> unit
(** Count one sample into the table, with the interval already chosen by
    the caller. Like every path into a table, it saturates: a key's count
    and the table's {!total_samples} stop at [max_int] instead of
    wrapping.
    @raise Invalid_argument if [cpu] or [line] is outside
    [0 .. max_id]. *)

val count_n : interval_table -> cpu:int -> line:int -> count:int -> unit
(** Count [count] identical samples in one probe: how the snapshot loader
    rebuilds a table from its (cpu, line, count) rows. [count = 0] is a
    no-op. Saturates like {!count}.
    @raise Invalid_argument if [count < 0] or an identifier is out of
    range. *)

val below_watermark : newest:int -> window:int -> int -> bool
(** [below_watermark ~newest ~window idx]: interval [idx] is at or below
    [newest - window], the retirement watermark of a window of [window]
    (>= 1) intervals ending at [newest]. Exact for every int: when the
    watermark would wrap below [min_int], no interval is below it. *)
