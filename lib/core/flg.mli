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
    pollute hot lines).

    {b Representation} (DESIGN §19). The graph is dense over the field
    indices, declaration order: [n × n] row-major matrices for the
    combined weight, the gain and the loss, an int hotness per field, and
    the set of pairs that have an edge. A pair has an edge when its raw
    affinity or its raw loss is non-zero, so [--k1 0] and [--k2 0] leave
    edges of weight 0; a field with an edge is {e active}, one the search
    may move. Names are read only for what a user reads, and there ties
    keep name order ({!Slo_util.Names}). *)

type t = private {
  struct_name : string;
  fields : Slo_layout.Field.t array;  (** declaration order; index = field *)
  names : Slo_util.Names.t;  (** [fields]' names *)
  weight : Float.Array.t;  (** combined: [gain -. loss], cell by cell *)
  gain : Float.Array.t;  (** k1-scaled CycleGain *)
  loss : Float.Array.t;  (** k2-scaled CycleLoss *)
  hotness : int array;  (** total dynamic references per field *)
  edge : Bytes.t;  (** [n × n]; a non-zero byte where the pair has an edge *)
}

val make :
  struct_name:string ->
  fields:Slo_layout.Field.t list ->
  hotness:int array ->
  gain:Float.Array.t ->
  loss:Float.Array.t ->
  edge:Bytes.t ->
  t
(** The FLG from its parts, each over [fields]' indices and symmetric.
    @raise Invalid_argument if a field name repeats or a part's size does
    not match [fields]. *)

val build :
  ?k1:float ->
  ?k2:float ->
  fields:Slo_layout.Field.t list ->
  affinity:Slo_affinity.Affinity_graph.t ->
  ?cycle_loss:Slo_concurrency.Cycle_loss.t ->
  unit ->
  t
(** [fields] are the struct's fields in declaration order, the affinity
    graph's, whose index space the FLG shares; the cycle loss must be
    computed over it too ([Cycle_loss.compute ~fields]), so each of its
    cells is scaled where it lies. Defaults: [k1 = 1.0], [k2 = 1.0].
    Omitting [cycle_loss] yields the single-threaded FLG (pure locality
    optimization — the CGO'06 baseline this paper builds on).
    @raise Invalid_argument if [k1] or [k2] is not finite (a NaN or
    infinite scale makes every weight NaN or infinite), [fields] are not
    the affinity graph's, or the cycle loss was computed for another
    struct or over other fields (other names, or the same names in
    another order). *)

val size : t -> int
val has_edge : t -> int -> int -> bool

val active : t -> int array
(** Ascending indices of the fields with at least one edge. *)

val name : t -> int -> string

val index : t -> string -> int
(** @raise Not_found for unknown names. *)

val weight : t -> string -> string -> float
(** Combined weight by name; 0 for a pair without an edge. *)

val hotness_order : t -> int array
(** Field indices by descending hotness; ties in declaration order. *)

val edges : t -> (int * int * float) list
(** Every edge [(i, j, weight)], in name order: [names.(i) < names.(j)],
    sorted by the two names. *)

val negative_edges : t -> (int * int * float) list
(** Edges with negative weight, most negative first; ties in name order. *)

val positive_edges : t -> (int * int * float) list
(** Edges with positive weight, largest first; ties in name order. *)

val to_dot : t -> string
(** Graphviz text named after the struct: every field, then every edge
    (weight 0 too) labelled with its weight, both in name order. *)
