(** Machine topologies and their latency models.

    Two machine shapes from the paper's evaluation (§5):

    - {!superdome}: a 128-CPU HP Superdome-like machine — 64 dual-CPU chips,
      2 chips per bus, 2 buses per cell, 4 cells per crossbar, 4 crossbars.
      Cache-to-cache transfer cost grows with topological distance;
      inter-crossbar transfers cost on the order of 1000 cycles.
    - {!bus}: a small bus-based SMP where a remote cache access costs only
      slightly more than an L2 miss.

    All latencies are in CPU cycles and deliberately round: the goal is the
    {e shape} of the memory-system behaviour (ratio between local and
    remote costs, growth with machine size), not any specific silicon. *)

type latencies = {
  l1_hit : int;  (** cost charged for a cache hit *)
  l2_hit : int;
      (** cost of an access that misses the private L1 but hits the private
          L2 — only charged when the multi-level hierarchy is simulated
          (single-level runs keep charging [l1_hit] for every hit) *)
  same_chip : int;  (** cache-to-cache within a dual-CPU chip *)
  same_bus : int;
  same_cell : int;
  same_crossbar : int;
  cross_crossbar : int;  (** the ~1000-cycle remote access of §5 *)
  memory : int;  (** local memory fetch *)
}

type t

val superdome : ?cpus:int -> unit -> t
(** [superdome ()] is the 128-CPU machine; [~cpus] scales it down (power of
    two, at least 2) keeping the same hierarchy shape.
    @raise Invalid_argument if [cpus] < 2 or > 128 or not a power of two. *)

val bus : ?cpus:int -> unit -> t
(** [bus ()] is the paper's 4-CPU bus machine. *)

val num_cpus : t -> int
val latencies : t -> latencies

val transfer_latency : t -> src:int -> dst:int -> int
(** Cache-to-cache transfer cost between two CPUs.
    @raise Invalid_argument on out-of-range CPU ids or [src = dst]. *)

val memory_latency : t -> int

val l2_hit_latency : t -> int
(** Cost of an L1-miss/L2-hit access under the multi-level hierarchy. *)

val num_cells : t -> int
(** Number of cells — the LLC-sharing domains. Hierarchical machines have
    one cell per 8 CPUs (minimum 1); a bus machine is a single cell. *)

val cell_of : t -> int -> int
(** The cell a CPU belongs to. @raise Invalid_argument on out-of-range. *)

val llc_hit_latency : t -> cpu:int -> cell:int -> int
(** Latency of an L2 miss served by [cell]'s shared LLC as seen from
    [cpu]: an intra-cell transfer locally, the crossbar distance for a
    remote cell. Monotone in topological distance (a pinned law). Callers
    cap it at {!memory_latency} — memory can always serve in parallel.
    @raise Invalid_argument on out-of-range [cpu] or [cell]. *)

val invalidation_latency : t -> writer:int -> holders:int list -> int
(** Cost of invalidating every holder: the farthest round trip (holders are
    invalidated in parallel). 0 for no holders. *)

val describe : t -> string
