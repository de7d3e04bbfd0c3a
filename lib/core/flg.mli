(** The Field Layout Graph (§2): the paper's central data structure.

    Nodes are the fields of one struct; the weight of edge (f1,f2) is
    {v w(f1,f2) = k1·CycleGain(f1,f2) − k2·CycleLoss(f1,f2) v}
    A positive weight means colocating the fields on a cache line is
    expected to pay (spatial locality); a negative weight means it is
    expected to cost (false sharing).

    CycleGain comes from the affinity analysis ({!Slo_affinity}), CycleLoss
    from the concurrency analysis ({!Slo_concurrency}). Fields that are
    never referenced appear as isolated nodes with hotness 0 — the layout
    must still place them (they are the "cold" fields that should not
    pollute hot lines). *)

type t = {
  struct_name : string;
  fields : Slo_layout.Field.t list;  (** every field, declaration order *)
  graph : Slo_graph.Sgraph.t;  (** combined edge weights *)
  gain : Slo_graph.Sgraph.t;  (** k1-scaled CycleGain component *)
  loss : Slo_graph.Sgraph.t;  (** k2-scaled CycleLoss component *)
  hotness : (string * int) list;  (** total dynamic references per field *)
}

val build :
  ?k1:float ->
  ?k2:float ->
  fields:Slo_layout.Field.t list ->
  affinity:Slo_affinity.Affinity_graph.t ->
  ?cycle_loss:Slo_concurrency.Cycle_loss.t ->
  unit ->
  t
(** Defaults: [k1 = 1.0], [k2 = 1.0]. Omitting [cycle_loss] yields the
    single-threaded FLG (pure locality optimization — the CGO'06 baseline
    this paper builds on). @raise Invalid_argument if [k1] or [k2] is not
    finite (a NaN or infinite scale makes every weight NaN or infinite),
    the affinity graph's struct differs or a hotness entry names an
    unknown field. *)

val weight : t -> string -> string -> float
val hotness_of : t -> string -> int
val field_of : t -> string -> Slo_layout.Field.t
(** @raise Not_found for unknown names. *)

val field_names_by_hotness : t -> string list
(** Descending hotness; ties broken by declaration order (stable). *)

val negative_edges : t -> (string * string * float) list
(** Edges with negative combined weight, most negative first. *)

val positive_edges : t -> (string * string * float) list
(** Edges with positive combined weight, largest first. *)

val pp : Format.formatter -> t -> unit
