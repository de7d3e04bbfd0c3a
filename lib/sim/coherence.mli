(** Cache-coherence controller over all CPUs of a machine: the flat,
    allocation-free memory-system kernel every simulation rides.

    Two invalidation-based protocols are implemented (the paper's machines
    use MESI-family protocols; §1 cites MESI, MSI, MOSI, MOESI):

    - {b MESI} (default): a Modified line downgrades to Shared on a remote
      read and is written back at that point;
    - {b MOESI}: a Modified line downgrades to Owned, keeps supplying dirty
      data cache-to-cache, and writes back only on eviction or
      invalidation — fewer writebacks, same invalidation behaviour. An
      ablation bench compares the two.

    The protocol operates at cache-line (coherence-block) granularity, as
    on the Itanium systems of the paper (§1: "The coherence protocol does
    not distinguish between individual bytes within a coherence block"). A
    directory tracks, per line, the exclusive/dirty owner and the sharer
    set, so misses resolve without scanning every cache.

    [access] returns the latency in cycles of one load or store and updates
    per-CPU statistics. Latencies come from the machine {!Topology}: hits
    cost [l1_hit]; misses cost a cache-to-cache transfer from the
    owner/nearest sharer, or a memory fetch; invalidating writes
    additionally pay the farthest-holder round trip.

    False-sharing classification: when a write invalidates a remote copy,
    the writer's byte interval within the line is recorded against the
    invalidated CPU; if that CPU later misses on the line with an access
    disjoint from the recorded interval, the miss is a false-sharing miss,
    otherwise a true-sharing miss. (Only the most recent invalidating write
    is kept — the same approximation HITM-based tools make.) Hints are
    scoped to the sharing episode: when the last cached copy of a line is
    evicted its pending hints are dropped, so a much-later re-fetch counts
    as a capacity miss rather than a stale sharing miss.

    Representation: one dense lookup. The kernel numbers lines 0, 1,
    2, ... in first-seen order (data and I-cache lines in two id spaces);
    one {!Slo_util.Flat_tab} per space maps a real line to its id and is
    read only at the API boundary. Every per-line table is an array
    indexed by id: a line's slot in each unit of each cache level (the
    L2, I-cache, L1 filter and victim LLC are one structure of packed
    [id lsl 2 lor state] slot words with array-index LRU chains), its
    directory row (owner, and sharers as a mask over 62-bit words), its
    invalidation hints (id × CPU), the touched set and the LLC index. A
    line's set is its real line mod the set count, as in the spec. A
    CPUs × lines table costs [ncpus × ids] words. The access path
    allocates nothing once the tables are sized.

    The oracle is {!Spec}, a pure declarative transcription of the same
    protocol with the directory derived from cache states. The QCheck2
    differential suites replay random traces through both and demand
    identical latencies, statistics, cache states, directory views and
    L1/LLC residency; {!Modelcheck} does the same exhaustively on small
    configurations. *)

type protocol = Mesi | Moesi

type t

(** Instruction-cache geometry for the optional fetch side (the code-layout
    subsystem). I-caches are private per CPU and coherence-free: code is
    read-only, so there are no states, no directory and no writebacks —
    just presence and true LRU. *)
type icache = {
  i_lines : int;  (** per-CPU capacity in I-cache lines *)
  i_ways : int option;  (** associativity; [None] = fully associative *)
  i_line_size : int;  (** I-cache line size in bytes *)
}

(** Multi-level hierarchy geometry. When given, every CPU gets a private
    L1 residency filter in front of its coherent cache (which becomes the
    L2), and every topology cell ({!Topology.num_cells}) gets a shared
    victim LLC. The L1 is strictly inclusive in the L2 (back-invalidated
    whenever a line leaves the L2); the LLC is exclusive of the whole L2
    layer — a line enters the evicting CPU's cell LLC only when its last
    L2 copy dies, and is consumed again by the next L2 fill anywhere, so
    an LLC line can never be stale and at most one cell holds any line.
    L1 hits cost [l1_hit]; L1-miss/L2-hits cost [l2_hit]; an L2 miss with
    no cached copy anywhere probes the LLCs and pays the topological
    distance to the holding cell, capped at memory latency — the
    asymmetric local/remote cliff the paper's Superdome results hinge on.
    Line size is the data [line_size]. *)
type hierarchy = {
  h_l1_lines : int;  (** per-CPU L1 capacity in lines *)
  h_l1_ways : int option;  (** L1 associativity; [None] = fully assoc. *)
  h_llc_lines : int;  (** per-cell LLC capacity in lines *)
  h_llc_ways : int option;  (** LLC associativity *)
}

val create :
  Topology.t ->
  line_size:int ->
  cache_capacity:int ->
  ?ways:int ->
  ?icache:icache ->
  ?hierarchy:hierarchy ->
  ?protocol:protocol ->
  unit ->
  t
(** [ways] defaults to fully associative; [protocol] to {!Mesi}; [icache]
    to absent (no instruction side is simulated); [hierarchy] to absent (a
    single private cache level per CPU).
    @raise Invalid_argument on non-positive sizes or invalid
    associativity (for the data cache, the I-cache or the hierarchy). *)

val line_size : t -> int
val topology : t -> Topology.t
val protocol : t -> protocol

val access : t -> cpu:int -> addr:int -> size:int -> is_write:bool -> int
(** Perform one access of [size] bytes at byte address [addr] by [cpu];
    returns its latency in cycles. Accesses must not straddle a line
    boundary (the layout engine never produces such accesses for properly
    aligned fields; arrays are accessed element-wise).
    @raise Invalid_argument if [cpu] is out of range, [size <= 0],
    [addr < 0], or the access straddles a line — before any statistic is
    counted. *)

(** {2 Dense line ids}

    {!access} and {!ifetch} intern their lines. A caller that knows its
    lines before it runs (the machine) reserves and interns them once,
    then drives the id entry points, which look nothing up. *)

val reserve : t -> lines:int -> code_lines:int -> unit
(** Size every per-line table, and the two interners that hand out the
    ids, for [lines] data and [code_lines] I-cache ids in one step;
    interning that many lines then allocates nothing. Past that, a table
    grows by doubling. *)

val intern : t -> line:int -> int
(** The id of data line [line] ([addr / line_size]), handed out 0, 1,
    2, ... on first sight. @raise Invalid_argument if [line < 0]. *)

val intern_code : t -> line:int -> int
(** {!intern} in the I-cache line id space. *)

val access_id :
  t -> cpu:int -> id:int -> off:int -> size:int -> is_write:bool -> int
(** {!access} to byte [off] of line [id]; [cpu] in range, [size > 0].
    @raise Invalid_argument for an id never handed out or a straddling
    access, before any statistic is counted. *)

val ifetch_ids : t -> cpu:int -> first:int -> last:int -> int
(** {!ifetch} of the I-cache lines [first..last], by id. *)

val has_icache : t -> bool

val icache_line_size : t -> int
(** @raise Invalid_argument when no I-cache is configured. *)

val ifetch : t -> cpu:int -> addr:int -> size:int -> int
(** Fetch the instruction bytes [addr, addr + size) — a basic block's
    address range — into [cpu]'s I-cache and return the total latency in
    cycles. Unlike {!access} the range may span any number of I-cache
    lines: each overlapped line counts one [ifetches] stat (and on absence
    one [imisses] plus a memory fetch; hits cost [l1_hit]). Evicted lines
    are dropped — code is never dirty.
    @raise Invalid_argument when no I-cache is configured, [cpu] is out of
    range, [addr < 0], or [size <= 0]. *)

val icache_resident : t -> cpu:int -> line:int -> bool
(** Whether the I-cache line is resident in [cpu]'s I-cache (false when no
    I-cache is configured). *)

val has_hierarchy : t -> bool

val l1_resident : t -> cpu:int -> line:int -> bool
(** Whether the line is resident in [cpu]'s private L1 filter (false when
    no hierarchy is configured). *)

val llc_cell : t -> line:int -> int option
(** The cell whose victim LLC holds the line — at most one by the LLC
    exclusivity invariant. [None] when absent or no hierarchy. *)

val num_cells : t -> int
(** Number of LLC cells simulated (1 when no hierarchy is configured). *)

val stats : t -> cpu:int -> Sim_stats.t
val total_stats : t -> Sim_stats.t

val check_invariants : t -> unit
(** Protocol invariants: the owner holds M/E/O (O only under MOESI), an
    M/E owner excludes sharers, the owner is never in the sharer mask,
    every sharer holds S, every cached line is directory-tracked, and no
    invalidation hint outlives its line's directory entry. Representation
    invariants: ids are dense and map back to their lines, and in every
    level the slot lookup and the slot words agree, LRU chains and fill
    counts agree, and free chains account for every way. Under the
    hierarchy, also L1 inclusion (every L1 line has a live L2 copy) and
    LLC exclusivity (no LLC line has a directory entry; the line → cell
    index is exact).
    @raise Invalid_argument describing the violated invariant. *)

val holders : t -> line:int -> int list
(** CPUs currently holding the line (any state), sorted. *)

val owner : t -> line:int -> int option
(** The directory's M/E/O owner of the line, if any. *)

val sharers : t -> line:int -> int list
(** The directory's sharer set for the line, ascending. *)

val cache_state : t -> cpu:int -> line:int -> Cache.state option
(** The given CPU's cached state of the line ([None] = not resident). This
    and every other query taking a [cpu] raise [Invalid_argument] when the
    CPU is out of range. *)

val inv_hint : t -> cpu:int -> line:int -> (int * int) option
(** The pending invalidation hint recorded against [cpu] for [line] — the
    byte interval [(off, len)] of the write that invalidated that CPU's
    copy, or [None] if its next miss on the line would not be a sharing
    miss. *)

val touched : t -> line:int -> bool
(** Whether the line has ever been accessed anywhere (the cold-miss
    classifier state). *)

(** Kernel-health numbers behind the [sim.kernel.*] observability
    counters; cumulative since [create]. *)
type kstats = {
  k_dir_live : int;  (** directory entries currently allocated *)
  k_dir_peak : int;  (** high-water mark of live directory entries *)
  k_hint_drops : int;
      (** stale invalidation hints dropped because the last cached copy of
          their line was evicted (the sharing episode ended) *)
  k_probe_steps : int;
      (** cumulative probe steps beyond the home slot in the two line
          interners ({!Slo_util.Flat_tab}); the id tables are not probed *)
  k_llc_fills : int;
      (** lines dropped into a cell LLC on last-copy eviction (0 unless
          the multi-level hierarchy is simulated) *)
}

val kstats : t -> kstats
