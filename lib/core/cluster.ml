module Field = Slo_layout.Field
module Layout = Slo_layout.Layout

type cluster = { seed : string; members : Field.t list }

(* Cold singletons come out of the greedy loop as one-field clusters
   whose field has zero hotness and no FLG edge: their placement cannot
   change any edge weight sum, so they share lines, packed in order. *)
let pack_cold_singletons fields ~cold ~line_size clusters =
  let cold, rest =
    List.partition (function [ i ] -> cold.(i) | _ -> false) clusters
  in
  match cold with
  | [] -> clusters
  | _ ->
    let packed =
      List.fold_left
        (fun acc c ->
          let i = List.hd c in
          let f = fields.(i) in
          match acc with
          | (cur, cur_size) :: others
            when Layout.packed_extend cur_size f <= line_size ->
            (cur @ [ i ], Layout.packed_extend cur_size f) :: others
          | _ -> ([ i ], Layout.packed_size [ f ]) :: acc)
        [] cold
      |> List.rev_map fst
    in
    rest @ packed

(* The greedy loop (Figure 6) over field indices. [w] is the FLG's
   weight matrix; [order] is the hotness order. find_best_match
   (Figure 7) is the inner scan: the unassigned field, in hotness order,
   with the largest strictly-positive sum of edge weights into the
   current cluster, among fields that still fit its cache line; the sum
   runs over the members in insertion order, and a later candidate wins
   only when strictly heavier. The cluster's packed size is carried
   incrementally, so each fit test is O(1). Clusters come out as member
   indices, seed first. *)
let greedy fields w order ~line_size =
  let n = Array.length fields in
  let assigned = Array.make n false in
  let members = Array.make n 0 in
  Array.fold_left
    (fun acc seed ->
      if assigned.(seed) then acc
      else begin
        assigned.(seed) <- true;
        members.(0) <- seed;
        let k = ref 1 and size = ref (Layout.packed_extend 0 fields.(seed)) in
        let grown = ref true in
        while !grown do
          let best = ref (-1) and best_w = ref 0.0 and best_size = ref 0 in
          for o = 0 to Array.length order - 1 do
            let c = order.(o) in
            if not assigned.(c) then begin
              let c_size = Layout.packed_extend !size fields.(c) in
              if c_size <= line_size then begin
                let row = c * n and sum = ref 0.0 in
                for m = 0 to !k - 1 do
                  sum := !sum +. Float.Array.get w (row + members.(m))
                done;
                if not (!best >= 0 && !best_w >= !sum) && !sum > 0.0 then begin
                  best := c;
                  best_w := !sum;
                  best_size := c_size
                end
              end
            end
          done;
          grown := !best >= 0;
          if !grown then begin
            assigned.(!best) <- true;
            members.(!k) <- !best;
            incr k;
            size := !best_size
          end
        done;
        List.init !k (Array.get members) :: acc
      end)
    [] order
  |> List.rev

let run ?(pack_cold = true) (flg : Flg.t) ~line_size =
  if line_size <= 0 then invalid_arg "Cluster.run: line_size <= 0";
  let fields = flg.Flg.fields in
  let clusters = greedy fields flg.Flg.weight (Flg.hotness_order flg) ~line_size in
  let clusters =
    if pack_cold then begin
      let cold = Array.map (fun h -> h = 0) flg.Flg.hotness in
      Array.iter (fun i -> cold.(i) <- false) (Flg.active flg);
      pack_cold_singletons fields ~cold ~line_size clusters
    end
    else clusters
  in
  List.map
    (fun members ->
      let members = List.map (Array.get fields) members in
      { seed = (List.hd members).Field.name; members })
    clusters

let layout_of_clusters (flg : Flg.t) ~line_size clusters =
  Layout.of_clusters ~struct_name:flg.Flg.struct_name ~line_size
    (List.map (fun c -> c.members) clusters)

let automatic_layout flg ~line_size =
  layout_of_clusters flg ~line_size (run flg ~line_size)

(* Weights between named members: the index scorers of the search, so a
   cluster scores exactly as the same block does there. *)
let indices flg c = List.map (fun (f : Field.t) -> Flg.index flg f.Field.name) c.members

let intra_cluster_weight flg c =
  Slo_search.Substrate.pair_sum flg.Flg.weight (Flg.size flg) (indices flg c)

let inter_cluster_weight flg c1 c2 =
  Slo_search.Substrate.cross_sum flg.Flg.weight (Flg.size flg) (indices flg c1)
    (indices flg c2)
