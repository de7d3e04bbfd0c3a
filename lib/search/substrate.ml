(* See substrate.mli. *)

module type NODE = sig
  type t

  val name : t -> string
end

let pair_sum w n xs =
  let rec pairs s = function
    | [] -> s
    | x :: rest ->
      let row = x * n in
      pairs
        (List.fold_left (fun s y -> s +. Float.Array.unsafe_get w (row + y)) s rest)
        rest
  in
  pairs 0.0 xs

let score_indices w n blocks =
  List.fold_left (fun acc block -> acc +. pair_sum w n block) 0.0 blocks

let cross_sum w n xs ys =
  List.fold_left
    (fun acc x ->
      List.fold_left (fun acc y -> acc +. Float.Array.get w ((x * n) + y)) acc ys)
    0.0 xs

module type PROBLEM = sig
  module Node : NODE

  type t

  val nodes : t -> Node.t array
  val weights : t -> Float.Array.t
  val active : t -> int array
  val capacity : t -> int
  val extend : t -> int -> int -> int
end
