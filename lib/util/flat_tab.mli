(** Flat open-addressing int -> int hash table for hot paths — the
    simulator memory kernel, the sample interval tables, the
    CodeConcurrency map and its rank lookup for sparse ids sit on it.

    The boxed [Hashtbl] the memory system used to sit on allocates an
    [option] per [find_opt], a bucket cons per insert and (for the
    coherence side tables) a tuple per key. This table is two int arrays
    with linear probing and backward-shift deletion: lookups, inserts and
    deletes allocate nothing (growth reallocates the arrays, amortized),
    probe sequences are short because deletion leaves no tombstones, and
    the layout is two contiguous arrays the CPU prefetches well — the
    flat-kernel discipline of the resource-oblivious multicore literature
    applied to our own simulator.

    {b Hash.} A key's home slot is the top log2(capacity) bits of its
    Fibonacci product [k * 0x2545F4914F6CDD1D] (wrapped to 63 bits). The
    top bits depend on every bit of the key; the low bits depend only on
    the key's low bits, so keys packed as [(hi lsl 31) lor lo] — the
    interval tables' (cpu, line) and the CC map's (line, line) — would
    all share one home per [lo] under a low-bit mask.

    Keys must be non-negative (the sentinel for an empty slot is -1);
    values are arbitrary ints. Iteration order is the internal slot order —
    deterministic for a fixed operation history, but {e not} sorted;
    callers that need canonical output sort. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] is a size hint (rounded up to a power of two, minimum 8). *)

val length : t -> int
(** Number of live bindings. *)

val mem : t -> int -> bool

val find : t -> int -> default:int -> int
(** The bound value, or [default] when absent. Never allocates. *)

val set : t -> int -> int -> unit
(** Insert or replace. @raise Invalid_argument on a negative key. *)

val add : t -> int -> int -> int
(** [add t k delta] adds [delta] to the binding of [k] (creating it at
    [delta] when absent) in a single probe and returns the new value. A
    binding whose new value is 0 is removed, so a table fed by matched
    [+d]/[-d] streams never accumulates dead entries — the upsert the
    interval tables and the CC map rest on.
    @raise Invalid_argument on a negative key. *)

val reserve : t -> int -> unit
(** [reserve t n] grows [t] at once to the capacity at which [n]
    bindings fit without growing again (a no-op if it is already that
    large). Bindings and lookups are unchanged; only the slot order and
    the probe counts can differ. *)

val remove : t -> int -> unit
(** Delete a binding (no-op when absent). Backward-shift deletion: no
    tombstones, so load factor — and probe length — only reflects live
    bindings. *)

val iter : t -> (int -> int -> unit) -> unit
(** In slot order (see above). *)

val fold : t -> init:'a -> f:('a -> int -> int -> 'a) -> 'a

val clear : t -> unit
(** Drop all bindings, keeping the current arrays. *)

val probe_steps : t -> int
(** Cumulative probe steps beyond the home slot across all operations so
    far — the kernel-health number behind the [sim.kernel.probe_steps]
    observability counter. *)
