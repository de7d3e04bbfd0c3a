(** The coherence state of a resident cache line; absence is Invalid. *)
type state =
  | Modified
  | Owned  (** dirty but shared — MOESI only *)
  | Exclusive
  | Shared
