(** Loser tree over small int ids: the simulator's scheduler.

    Every id is queued with a clock. {!top} is the winner, the id with the
    least clock, the lowest id among equal clocks: exactly the least
    priority [(clock lsl shift) lor id], where [shift] is the number of
    bits ids need ([ceil (log2 ids)]). Each priority is unique and packs
    the clock above the id, so the order is (clock, id) whatever the order
    of the calls that set the clocks. Only the winner is re-keyed: the
    step loop takes [top], runs that thread, then {!requeue}s or
    {!retire}s it. A re-key replays the winner's matches from its leaf to
    the root, one compare per level ([shift] levels: 6 at 64 ids, 7 at
    128), and allocates nothing. *)

type t

val create : ids:int -> t
(** A tree with every id in [0 .. ids-1] queued at clock 0. *)

val top : t -> int
(** The winner; [-1] once every id is retired, or when [ids] is 0. *)

val requeue : t -> clock:int -> unit
(** Queue the winner again at a clock, which may be any clock in range,
    below its last one too.
    @raise Invalid_argument naming the clock if it is outside
    [[0, max_int lsr shift)] (up to 2{^56} cycles at 64 ids), which the
    tree cannot order, or if every id is retired. *)

val retire : t -> unit
(** Remove the winner for good.
    @raise Invalid_argument if every id is retired. *)
