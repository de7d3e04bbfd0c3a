(* See substrate.mli. *)

module Sgraph = Slo_graph.Sgraph

module type NODE = sig
  type t

  val name : t -> string
end

module Pairs (N : NODE) = struct
  (* fold over unordered pairs of distinct nodes *)
  let fold_pairs ~f init nodes =
    let rec go acc = function
      | [] -> acc
      | x :: rest ->
        let acc =
          List.fold_left (fun acc y -> f acc (N.name x) (N.name y)) acc rest
        in
        go acc rest
    in
    go init nodes

  let pair_weight_sum ~weight nodes =
    fold_pairs ~f:(fun acc a b -> acc +. weight a b) 0.0 nodes

  let blocks_weight_sum ~weight blocks =
    List.fold_left (fun acc b -> acc +. pair_weight_sum ~weight b) 0.0 blocks

  let cross_weight_sum ~weight b1 b2 =
    List.fold_left
      (fun acc x ->
        List.fold_left (fun acc y -> acc +. weight (N.name x) (N.name y)) acc b2)
      0.0 b1
end

(* The graph stores each edge's weight once per direction, both copies
   the same float, so the symmetric matrix reproduces [weight0]. *)
let dense_weights names graph =
  let n = Array.length names in
  let index = Hashtbl.create (2 * n) in
  Array.iteri (fun i name -> Hashtbl.replace index name i) names;
  let w = Float.Array.make (n * n) 0.0 in
  Sgraph.fold_edges graph ~init:() ~f:(fun () u v x ->
      match (Hashtbl.find_opt index u, Hashtbl.find_opt index v) with
      | Some i, Some j ->
        Float.Array.set w ((i * n) + j) x;
        Float.Array.set w ((j * n) + i) x
      | _ -> ());
  w

let active names graph =
  List.init (Array.length names) Fun.id
  |> List.filter (fun i -> Sgraph.degree graph names.(i) > 0)
  |> Array.of_list

module type PROBLEM = sig
  module Node : NODE

  type t

  val nodes : t -> Node.t array
  val weights : t -> Float.Array.t
  val active : t -> int array
  val capacity : t -> int
  val extend : t -> int -> int -> int
end
