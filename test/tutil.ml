(* Small helpers shared by the test modules. *)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

(* A random graph over [names] two ways: the by-name Sgraph the frozen
   oracles read, and the dense row-major matrix the production code
   reads. Each [(i, j, w)] with [i <> j] adds [w] to the pair, in list
   order, so the two hold the same float sums. *)
let graph_and_matrix names raw =
  let n = Array.length names in
  let m = Float.Array.make (n * n) 0.0 in
  let g =
    List.fold_left
      (fun g (i, j, w) ->
        if i = j then g
        else begin
          let v = Float.Array.get m ((i * n) + j) +. w in
          Float.Array.set m ((i * n) + j) v;
          Float.Array.set m ((j * n) + i) v;
          Sgraph.add_edge g names.(i) names.(j) w
        end)
      (Array.fold_left Sgraph.add_node Sgraph.empty names)
      raw
  in
  (g, m)
