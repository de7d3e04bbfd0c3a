(** Memory-system statistics collected by the coherence controller.

    Misses are classified the way false-sharing studies (and tools like
    perf c2c) do:
    - {e cold}: first global touch of the line;
    - {e coherence}: the line was previously resident here and was
      invalidated by another CPU's write; further split into {e true} and
      {e false} sharing by comparing the invalidating write's byte interval
      with the current access's interval (disjoint intervals = false
      sharing);
    - {e capacity}: everything else (the line was evicted by LRU). *)

type t = {
  mutable loads : int;
  mutable stores : int;
  mutable hits : int;
  mutable cold_misses : int;
  mutable capacity_misses : int;
  mutable true_sharing_misses : int;
  mutable false_sharing_misses : int;
  mutable upgrades : int;  (** S->M transitions (invalidating writes on hits) *)
  mutable invalidations : int;  (** copies invalidated in other caches *)
  mutable writebacks : int;  (** M lines evicted or downgraded *)
  mutable stall_cycles : int;  (** cycles spent waiting on memory system *)
  mutable ifetches : int;
      (** instruction-cache line fetches (one per line of each fetched
          block-address range); 0 unless an I-cache is simulated *)
  mutable imisses : int;  (** instruction-cache line misses *)
  mutable istall_cycles : int;  (** cycles spent waiting on ifetch misses *)
  mutable l1_hits : int;
      (** hits satisfied entirely by the private L1 filter; 0 unless the
          multi-level hierarchy is simulated. [hits = l1_hits + l2_hits]
          in hierarchy runs *)
  mutable l2_hits : int;  (** L1 misses that hit the private L2 *)
  mutable llc_local_hits : int;
      (** L2 misses served by the CPU's own cell's shared LLC (a subset of
          the miss classification above — LLC hits are still misses) *)
  mutable llc_remote_hits : int;  (** L2 misses served by a remote cell's LLC *)
}

val create : unit -> t
val accesses : t -> int
val misses : t -> int

val imiss_rate : t -> float
(** [imisses / ifetches]; 0 when no ifetches happened. *)

val sum : t list -> t
val pp : Format.formatter -> t -> unit
