(** Deterministic pseudo-random number generation.

    All randomized components of the reproduction (workload interleaving,
    arena placement jitter, sampling phase) draw from this splittable
    SplitMix64 generator so that every experiment is reproducible from a
    single integer seed. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] makes a fresh generator. Equal seeds yield equal
    streams. *)

val copy : t -> t
(** [copy t] is an independent generator with the same current state. *)

val split : t -> t
(** [split t] derives a new generator from [t], advancing [t]; the two
    subsequent streams are statistically independent. *)

val derive : seed:int -> stream:int -> t
(** [derive ~seed ~stream] is an independent generator determined solely by
    the [(seed, stream)] pair — stream [i] is the same whether generators
    were derived for streams [0..i-1] first or not, and on which domain.
    This is the per-task stream derivation used by the parallel pool:
    seeding task [i] with [derive ~seed ~stream:i] makes results
    bit-identical for every worker count and scheduling order.
    [stream] must be non-negative.
    @raise Invalid_argument otherwise. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive.
    @raise Invalid_argument if [bound <= 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array.
    @raise Invalid_argument on an empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val geometric : t -> p:float -> int
(** [geometric t ~p] counts Bernoulli(p) failures before the first success;
    used for exponential-ish pause lengths in workloads. [p] must be in
    (0, 1]. *)
