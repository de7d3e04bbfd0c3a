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

module Sample = Slo_concurrency.Sample

(* The reference binning of the tests: each sample counted with
   [Sample.count] into its interval's table, the tables in a Hashtbl by
   interval index, listed by ascending index. Independent of the serve
   window's ring and of [Code_concurrency.compute]'s ordering pass. *)
let bin_idx ~interval samples =
  let tables = Hashtbl.create 16 in
  List.iter
    (fun { Sample.cpu; itc; line } ->
      let idx = Sample.floor_div itc interval in
      let tbl =
        match Hashtbl.find_opt tables idx with
        | Some tbl -> tbl
        | None ->
          let tbl = Sample.empty_table () in
          Hashtbl.add tables idx tbl;
          tbl
      in
      Sample.count tbl ~cpu ~line)
    samples;
  Hashtbl.fold (fun idx tbl acc -> (idx, tbl) :: acc) tables []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

(* Tables by index as (idx, total, rows): equal lists are equal counts,
   whatever each table's capacity and insertion history. *)
let canon tables =
  List.map
    (fun (idx, tbl) -> (idx, Sample.total_samples tbl, Sample.rows tbl))
    tables
