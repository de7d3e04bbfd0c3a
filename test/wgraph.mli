(** Weighted undirected graphs with float edge weights (the test-side
    copy the oracles use).

    Both the affinity graph (§4.1) and the Field Layout Graph (§2) are
    weighted undirected graphs over struct fields; this functor provides the
    shared representation. Edges are stored symmetrically; adding an edge
    twice accumulates its weight, matching how affinity contributions from
    multiple code regions aggregate. Self-edges are rejected: a field has no
    locality or sharing relation with itself. *)

module type NODE = sig
  type t

  val compare : t -> t -> int
  val pp : Format.formatter -> t -> unit
end

module Make (Node : NODE) : sig
  type node = Node.t

  type t
  (** Immutable graph. *)

  val empty : t

  val add_node : t -> node -> t
  (** Ensure the node exists (possibly with no incident edges). *)

  val add_edge : t -> node -> node -> float -> t
  (** [add_edge g u v w] accumulates [w] onto the (u,v) edge weight, adding
      the nodes if absent. @raise Invalid_argument if [u = v]. *)

  val set_edge : t -> node -> node -> float -> t
  (** Like {!add_edge} but replaces the weight instead of accumulating. *)

  val remove_edge : t -> node -> node -> t
  val remove_node : t -> node -> t

  val mem_node : t -> node -> bool
  val weight : t -> node -> node -> float option
  val weight0 : t -> node -> node -> float
  (** [weight0 g u v] is the edge weight, or [0.] when absent. *)

  val neighbors : t -> node -> (node * float) list
  (** Sorted by node order. Empty for unknown nodes. *)

  val degree : t -> node -> int
  val nodes : t -> node list
  val num_nodes : t -> int
  val num_edges : t -> int

  val fold_nodes : t -> init:'a -> f:('a -> node -> 'a) -> 'a

  val fold_edges : t -> init:'a -> f:('a -> node -> node -> float -> 'a) -> 'a
  (** Each undirected edge is visited exactly once, with [u < v] in node
      order. *)

  val edges : t -> (node * node * float) list
  (** All edges as (u, v, w) with [u < v], sorted. *)

  val filter_edges : t -> f:(node -> node -> float -> bool) -> t
  (** Keep only edges satisfying [f]; all nodes are retained. *)

  val drop_isolated : t -> t
  (** Remove nodes with no incident edges (paper §5.2: after filtering to
      important edges, zero-degree nodes are removed). *)

  val top_edges : t -> k:int -> by:(float -> float) -> (node * node * float) list
  (** [top_edges g ~k ~by] are the [k] edges with the largest [by w] values,
      descending (ties broken by node order). *)

  val weight_sum_to : t -> node -> node list -> float
  (** Sum of edge weights from a node to a set of nodes; the quantity the
      clustering algorithm maximizes when growing a cluster. *)

  val union : t -> t -> t
  (** Edge-weight-accumulating union. *)

  val map_weights : t -> f:(node -> node -> float -> float) -> t

  val to_dot : ?name:string -> t -> string
  (** Graphviz rendering, for the tool's diagnostic output. *)

  val pp : Format.formatter -> t -> unit
end
