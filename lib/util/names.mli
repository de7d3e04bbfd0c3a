(** The index space of a field-indexed graph: node [i] is [names.(i)],
    in declaration order, with one name → index table.

    Weights live in dense row-major [n × n] matrices over these indices.
    Names are read only where a user reads them, and there every listing
    keeps the order of the names under [String.compare]: a pair list runs
    over pairs [(i, j)] with [names.(i) < names.(j)], sorted by
    [(names.(i), names.(j))], so equal weights keep that order after a
    stable sort by weight. *)

type t = private {
  names : string array;  (** index -> name, declaration order *)
  index : (string, int) Hashtbl.t;  (** name -> index *)
  by_name : int array;  (** the indices, ascending by name *)
}

val make : string array -> (t, string) result
(** [Error name] when [name] repeats. *)

val length : t -> int
val find_opt : t -> string -> int option

val fold_pairs_by_name : t -> init:'a -> f:('a -> int -> int -> 'a) -> 'a
(** [f] over every pair [(i, j)] with [names.(i) < names.(j)], in the
    order of [(names.(i), names.(j))]. *)
