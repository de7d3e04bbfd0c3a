(** CodeConcurrency (§3.2): a sampling-based estimate of how often two
    pieces of code execute {e at the same time on different processors}.

    For an interval I and lines Li, Lj:
    {v CC_I(Li,Lj) = Σ_{Pm ≠ Pn} min(F_I(Pm,Li), F_I(Pn,Lj)) v}
    and CC(Li,Lj) = Σ_I CC_I(Li,Lj). The result is the paper's
    {e Concurrency Map}: unordered line pairs (including the diagonal,
    which captures two CPUs running the same line concurrently) mapped to
    their CC value.

    {b Kernel.} The inner double sum over CPU pairs is
    Σ_{m,n} min(a_m, b_n) − Σ_m min(a_m, b_m), computed per line pair
    without allocating. An interval's entries, one per (line, CPU) with
    its count, grouped by line in ascending order with the CPUs numbered
    densely, sit in flat compressed-row arrays of a {!scratch} reused
    across intervals, so an interval allocates nothing either: each
    line's entries sorted by count with {!Slo_util.Int_sort}, its counts
    run-length encoded with prefix counts and sums, and the same entries
    transposed by CPU. {!compute}'s bucket pass writes the entries there
    directly; rows are read from an interval table
    ({!Sample.rows_into}, the extraction {!Sample.rows} makes) only by
    {!interval_rows} and {!of_interval}.
    The first sum is a two-pointer merge of two lines' runs (as a's
    counts rise, the split point in b only moves right), so it costs the
    number of distinct counts, not of CPUs. The second is summed per CPU: pairing
    line i, each of its CPUs walks the later lines it ran and adds into
    a scratch row over lines, Σ_m k_m² work per interval for k_m the
    lines CPU m ran. Memory is O(entries + lines), never lines². All
    counting arithmetic saturates at [max_int] instead of wrapping —
    profile-scale frequencies stay non-negative, and saturating sums and
    products of non-negative values equal min(true value, [max_int]) in
    any order, which the merges and the sharded reduce below depend on.
    A difference of two saturated sums is not, so a pair whose first sum
    saturates is summed term by term over its cross-CPU entry pairs
    instead: every value is min(CC, [max_int]) exactly.

    {b Emission order.} The kernel pairs each line, in ascending order,
    with itself and then with every later line, so the pairs of one
    interval come out in ascending (l1, l2) order, each once. It hands
    them to its caller one line at a time ({!interval_rows}), through a
    row buffer of at most one entry per line kept in its {!scratch}.
    There is one kernel loop and three consumers: {!compute}'s interval
    ranges and {!of_interval} add the rows into their map in emission
    order, and the serve window appends them to its memo of the interval.

    {b Representation.} The map is one flat {!Slo_util.Flat_tab} keyed by
    the packed pair [(l1 lsl 31) lor l2], [l1 <= l2]. Lines are
    {!Sample} identifiers in [0 .. ]{!Sample.max_id}, so a key is a
    non-negative int and ascending keys are ascending (l1, l2) pairs —
    the order {!pairs}, {!pp} and {!drift} use.

    {b Scaling.} {!compute} is the one way samples enter: it takes a
    columnar {!Sample_store} and reads its shared columns in place (zero
    copies). One ordering pass over the itc column finds where each
    interval's samples start, dividing only where an interval begins.
    Stores in interval order (every collection run and sample file,
    which are in (itc, CPU) order) need nothing more; a store where some
    sample's interval is below its predecessor's has its sample indices
    sorted by interval once ({!Slo_util.Int_sort}), and is read through
    that permutation. One rank pass then numbers the store's distinct
    line ids and its distinct CPU ids in ascending order, after
    {!Sample.check_ids} on each column's least and greatest id. A column
    whose span (greatest − least + 1) is at most the store's length plus
    64 finds an id's rank in a direct table over its span; any other
    column, in a {!Slo_util.Flat_tab} from id to rank. This is the only
    place where dense and sparse ids differ, and the column decides.
    Each interval is then binned by a counting sort on its samples' line
    ranks: a histogram over the lines it touches, prefix sums over those
    lines in ascending order (the one sort is of those line ranks), and
    a scatter of the samples' CPU ranks into line buckets. Each bucket's
    CPUs are counted with a dense per-CPU counter, and the (line, CPU,
    count) entries go straight into the kernel's scratch, lines
    ascending: no hash upsert per sample and no sort of an interval's
    entries. Memory per call is O(lines + CPUs + longest interval), plus
    a direct table's span, never lines × CPUs. Serially, and on a pool
    of one domain (which runs its tasks in the caller), one set of
    bucket arrays and one scratch serve every interval, and the rows add
    into the result directly. On a pool of two or more domains the
    intervals are split into [Pool.size] contiguous ranges, one task
    each: the tasks share the ranks (a task rebuilds a hashed lookup for
    itself, as a lookup counts its probes in the table), each makes its
    own bucket arrays, scratch and partial map, and the partial maps are
    reduced in range order with the pointwise-sum {!merge}. Intervals
    are independent and the saturating merge is associative and
    commutative, so the result is identical for every pool size and
    every order of the store (test_concurrency's shard and store suites
    pin this against a definitional brute-force oracle and the
    {!of_interval} fold over a reference binning, with ids drawn from
    both ends of their range so that both lookups run). Lists and sample
    producers reach it through {!Sample_store.of_samples} and
    {!Sample_store.of_iter}, text and binary files through the persist
    layer's store loaders.

    {b Observability.} {!compute} records counters [cc.intervals] /
    [cc.samples], gauge [cc.table.peak_entries] (the largest interval's
    entry count: its distinct (line, CPU) pairs) and histograms
    [cc.ingest_s] (the ordering pass, with its sort when there is one,
    and the rank pass) / [cc.compute_s] (the bucket pass and the kernel)
    into {!Slo_obs.Obs.default}; write-only, so instrumented runs stay
    byte-identical. *)

type t
(** A concurrency map. *)

val create : unit -> t
(** The empty map ([cc] is 0 everywhere) — the unit of {!merge}. *)

val compute : ?pool:Slo_exec.Pool.t -> interval:int -> Sample_store.t -> t
(** Bin the store into intervals of [interval] ticks and accumulate CC
    over all of them, on [pool]'s domains when given. Equals the merge of
    {!of_interval} over the store's interval tables (each sample counted
    into the table of interval [Sample.floor_div itc interval]), for
    every pool size and every order of the store's samples.
    @raise Invalid_argument if [interval <= 0]. *)

val of_interval : Sample.interval_table -> t
(** CC of a single interval: the map of its {!interval_rows}. *)

val cc : t -> int -> int -> int
(** [cc t l1 l2] — symmetric; 0 when never concurrent or when a line is
    outside [0 .. ]{!Sample.max_id}. *)

val pairs : t -> ((int * int) * int) list
(** All line pairs with non-zero CC, [(l1 <= l2)], sorted by decreasing
    CC. *)

val top : t -> k:int -> ((int * int) * int) list
(** The [k] hottest pairs ([k = 0] is allowed and yields []).
    @raise Invalid_argument if [k < 0]. *)

val merge : t -> t -> t
(** Pointwise (saturating) sum — combining collection runs or shard
    results. Associative and commutative up to {!pairs}. *)

val merge_scaled : t -> t -> num:int -> den:int -> unit
(** [merge_scaled dst src ~num ~den] adds [floor (v * num / den)] into
    [dst] for every pair count [v] of [src] — fixed-point decay weighting
    for windowed consumers (the serve daemon weights interval maps by
    [decay^age] as [num/den] with a power-of-two [den], so the weighted
    window sum is exact integer arithmetic, independent of merge order).
    Products are saturating; a saturated product stays [max_int] rather
    than being divided down. [src] is untouched.
    @raise Invalid_argument if [num < 0] or [den <= 0]. *)

(** {2 Pair codes}

    A pair's {e code} is the packed key the map stores it under: a
    non-negative int, equal for equal pairs, and ascending codes are
    ascending (l1, l2) pairs. Codes let a consumer that re-weights the
    same pairs over and over (the serve window) keep them in its own
    dense arrays, in code order, and hand them back to build a map or a
    drift {!view}. *)

type scratch
(** The kernel's working arrays: they grow to the largest interval seen
    and are reused, never shrunk. One per domain. *)

val scratch : unit -> scratch

val interval_rows :
  scratch -> Sample.interval_table -> (int array -> int array -> int -> unit) -> unit
(** [interval_rows sc tbl emit] runs the kernel on one interval: for each
    line l1 of [tbl], in ascending order, it calls [emit codes values n]
    with the pairs (l1, l2), l2 >= l1, whose CC is positive, their codes
    ascending in [codes.(0 .. n - 1)] and their CC in [values]. Lines
    without such a pair are skipped. Over the interval the codes are
    strictly ascending and every value is positive; {!of_interval} is the
    map of all the rows. The two arrays belong to [sc] and the next row
    overwrites them: [emit] copies what it keeps. *)

val of_codes : int array -> int array -> t
(** The map with pair [codes.(i)] at [values.(i)] (non-positive values
    are skipped, repeated codes add saturating). *)

val accumulate_scaled :
  int array -> slots:int array -> counts:int array -> num:int -> den:int -> unit
(** [accumulate_scaled sums ~slots ~counts ~num ~den] adds
    [floor (counts.(i) * num / den)] into [sums.(slots.(i))] for every
    [i], saturating — {!merge_scaled}'s rule on a consumer's dense
    accumulator (a saturated product stays [max_int]).
    @raise Invalid_argument if [num < 0] or [den <= 0]. *)

(** {2 Shape drift} *)

type view
(** A map's pairs in ascending (l1, l2) order with its mass: everything
    {!drift} reads of one side, so a side that does not change (the last
    published map) is prepared once. *)

val view : t -> view

val view_of_ascending : int array -> int array -> view
(** The view of [of_codes codes values], built without the map and
    without a sort: the codes must already be strictly ascending (one
    O(n) check) and the values positive. The view keeps both arrays; the
    caller must not change them afterwards.
    @raise Invalid_argument if the codes are not strictly ascending or
    the arrays' lengths differ. *)

val drift_views : view -> view -> float
(** {!drift} of the two viewed maps, to the bit. *)

val drift : t -> t -> float
(** Shape drift in [0, 1]: half the L1 distance between the two maps
    normalized to unit mass. 0 when the sharing pattern is identical —
    including at a different sample volume, so pure growth never reads
    as drift — and 1 when the patterns are disjoint (or exactly one map
    is empty). The serve daemon re-searches when this exceeds its
    threshold.

    Deterministic to the bit: each mass is the float sum of the map's
    values in descending order, and the distance sums over the union of
    pairs in ascending (l1, l2) order, the orders of {!pairs}. The mass
    is taken as [float_of_int] of the integer total whenever that total
    is at most 2{^53}: then every value and every partial sum of the
    descending sum is an integer of at most 2{^53}, so each float
    addition is exact and the two agree bit for bit. Larger totals (maps
    with saturated cells) are summed in descending order as stated. *)

val pp : Format.formatter -> t -> unit

(**/**)

(** Test-only access to the saturating counting kernel: two (cpu, count)
    vectors, each with distinct CPUs, loaded as the two lines of one
    interval and summed by the production kernel. *)
module For_tests : sig
  val sum_min_all : (int * int) list -> (int * int) list -> int
  (** Σ_{m,n} min(a_m, b_n) over the two vectors. *)

  val sum_min_same_cpu : (int * int) list -> (int * int) list -> int
  (** Σ over CPUs present in both vectors of min(a_cpu, b_cpu), through
      the per-CPU scratch row. *)

  val add : t -> int -> int -> int -> unit
  val sat_add : int -> int -> int
  val sat_mul : int -> int -> int
end
