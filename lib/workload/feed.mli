(** The phased sample feed the layout service is driven with: one
    collection's samples replayed phase after phase, each phase shifted
    forward by whole intervals so the service's window keeps sliding. From
    the second half of the phases on, every line moves half-way round the
    sorted distinct lines, a different sharing pattern, so the weighted
    CodeConcurrency drifts and the service re-searches. *)

type t

val create :
  interval:int -> phases:int -> Slo_concurrency.Sample.t array -> t
(** A feed of [phases] phases over the base samples, for a service that
    bins by [interval] cycles.
    @raise Invalid_argument when there are no base samples. *)

val lo : t -> int
(** The base samples' smallest timestamp. *)

val span : t -> int
(** The shift between two phases: [((hi - lo) / interval + 2) * interval]
    over the base samples' timestamps. *)

val window : t -> int
(** The default window length in intervals: two phases,
    [max 1 (2 * span / interval)]. *)

val phase : t -> phase:int -> offset:int -> Slo_concurrency.Sample.t array
(** Phase [phase]: every base sample, in order, with its timestamp moved
    by [phase * span + offset], and its line moved [n / 2] places along
    the [n] sorted distinct lines once [2 * phase >= phases]. *)
