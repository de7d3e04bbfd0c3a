(** The coherence oracle: a pure, declarative transcription of the protocol
    {!Coherence} implements — MESI/MOESI with the false-sharing classifier,
    set-associative true-LRU caches, the optional private I-cache, and the
    optional multi-level hierarchy (inclusive per-CPU L1, per-cell
    exclusive victim LLC).

    Readability is the point. Every cache level is a persistent map from
    resident line to its last-use stamp; a full set evicts its least
    recently stamped line. The directory is never stored: owner, sharers
    and holders are derived from the per-CPU cache states, so the protocol
    invariants that tie them together hold by construction. Line numbers
    are any non-negative int.

    The recency rules match the kernel exactly: a hit marks the line most
    recently used, so does every state change (including the owner's
    downgrade on a remote read), an Owned owner supplying a read is not
    touched, and an L1 hit leaves the L2's recency alone.

    The random-trace differential suites replay traces through both this
    spec and {!Coherence} and demand identical latencies, statistics and
    introspected state; {!Modelcheck} explores it exhaustively. *)

(** Deliberate protocol bugs, for proving that the model checker's
    invariant net catches and minimizes real violations. *)
type mutation =
  | Read_keeps_modified
      (** a remote read of a Modified line forgets to downgrade the owner:
          M and S copies coexist *)
  | Skip_last_invalidation
      (** an invalidating write skips the highest-numbered holder: a stale
          copy survives the write *)

type t

val create :
  Topology.t ->
  line_size:int ->
  cache_capacity:int ->
  ?ways:int ->
  ?icache:Coherence.icache ->
  ?hierarchy:Coherence.hierarchy ->
  ?protocol:Coherence.protocol ->
  ?mutate:mutation ->
  unit ->
  t
(** Same geometry arguments and defaults as {!Coherence.create}.
    @raise Invalid_argument on non-positive sizes or invalid
    associativity. *)

val copy : t -> t
(** An independent copy; O(cpus), the cache maps are shared. *)

val access : t -> cpu:int -> addr:int -> size:int -> is_write:bool -> int
(** Same contract as {!Coherence.access}, including its argument checks. *)

val ifetch : t -> cpu:int -> addr:int -> size:int -> int
(** Same contract as {!Coherence.ifetch}. *)

val stats : t -> cpu:int -> Sim_stats.t

(** {2 Introspection} — the same views {!Coherence} exposes. *)

val cache_state : t -> cpu:int -> line:int -> Cache.state option
val owner : t -> line:int -> int option
val sharers : t -> line:int -> int list
val holders : t -> line:int -> int list
val inv_hint : t -> cpu:int -> line:int -> (int * int) option
val touched : t -> line:int -> bool
val l1_resident : t -> cpu:int -> line:int -> bool
val llc_cell : t -> line:int -> int option
val has_icache : t -> bool
val icache_line_size : t -> int
val icache_resident : t -> cpu:int -> line:int -> bool
val has_hierarchy : t -> bool
val num_cells : t -> int
