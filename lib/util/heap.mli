(** Mutable binary min-heap with integer priorities.

    Ties are broken by insertion order (FIFO). The simulator's calendar
    queue parks far-future clocks here, and its tests use the heap's
    (priority, FIFO) order as the oracle the calendar must reproduce. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val size : 'a t -> int
val push : 'a t -> priority:int -> 'a -> unit

val pop : 'a t -> (int * 'a) option
(** Remove and return the minimum-priority element. The vacated backing
    slot is cleared, so popped values become collectable as soon as the
    caller drops them — the heap never pins values it no longer holds. *)

val peek : 'a t -> (int * 'a) option
