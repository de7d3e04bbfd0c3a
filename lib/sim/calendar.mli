(** Exact calendar queue: the simulator's scheduler.

    A priority queue of small int ids keyed by clock, popping in
    (clock, id) order — exactly a {!Slo_util.Heap} with priority
    [clock * ids + id] — under one precondition: no id is pushed with a
    clock below the last popped one. The simulator meets it because a
    thread's clock never decreases and it is re-queued only after its own
    pop. Push order plays no part: ids queued at one clock pop lowest
    first, however and whenever they were pushed.

    Clocks within {!width} of the last pop sit in a ring of slots, one per
    clock, each a bitmap of its queued ids with a count, under an
    occupancy bitmap of the slots: a push or pop there costs O(1) plus a
    scan of at most [width / 32] occupancy words and [ids / 62] id words,
    and allocates nothing. Later clocks wait in a {!Slo_util.Heap} and
    enter their slot's bitmap once the ring reaches them. *)

type t

val width : int
(** Clocks the ring spans: 1024. *)

val create : ids:int -> t
(** An empty queue for ids [0 .. ids-1]. An id may be queued at most once
    at a time. *)

val push : t -> int -> clock:int -> unit
(** Queue an id at a clock.
    @raise Invalid_argument if the clock is below the last popped one. *)

val pop : t -> int
(** Remove and return the id with the least clock, the lowest id among
    equal clocks; [-1] when the queue is empty. *)

val lowest_bit : int -> int
(** Index of the lowest set bit of a word whose lowest set bit is among
    its low 32, by de Bruijn multiplication. *)
