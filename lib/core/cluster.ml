module Field = Slo_layout.Field
module Layout = Slo_layout.Layout

type cluster = { seed : string; members : Field.t list }

(* A cold singleton is a cluster whose only member has zero hotness and no
   incident FLG edges: its placement cannot change any edge weight sum. *)
let is_cold_singleton flg c =
  match c.members with
  | [ f ] ->
    let name = f.Field.name in
    Flg.hotness_of flg name = 0
    && Slo_graph.Sgraph.degree flg.Flg.graph name = 0
  | _ -> false

let pack_cold_singletons flg ~line_size clusters =
  let cold, rest = List.partition (is_cold_singleton flg) clusters in
  match cold with
  | [] -> clusters
  | _ ->
    let packed =
      List.fold_left
        (fun acc c ->
          let f = List.hd c.members in
          match acc with
          | (cur, cur_size) :: others
            when Layout.packed_extend cur_size f <= line_size ->
            ( { cur with members = cur.members @ [ f ] },
              Layout.packed_extend cur_size f )
            :: others
          | _ ->
            ({ seed = f.Field.name; members = [ f ] }, Layout.packed_size [ f ])
            :: acc)
        [] cold
      |> List.rev_map fst
    in
    rest @ packed

(* The greedy loop (Figure 6) over field indices. [w] is the FLG as a
   dense matrix ({!Slo_search.Substrate.dense_weights}); [order] is the
   hotness order. find_best_match (Figure 7) is the inner scan: the
   unassigned field, in hotness order, with the largest strictly-positive
   sum of edge weights into the current cluster, among fields that still
   fit its cache line; the sum runs over the members in insertion order,
   and a later candidate wins only when strictly heavier. The cluster's
   packed size is carried incrementally, so each fit test is O(1). *)
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
        {
          seed = fields.(seed).Field.name;
          members = List.init !k (fun m -> fields.(members.(m)));
        }
        :: acc
      end)
    [] order
  |> List.rev

let run ?(pack_cold = true) flg ~line_size =
  if line_size <= 0 then invalid_arg "Cluster.run: line_size <= 0";
  let fields = Array.of_list flg.Flg.fields in
  let names = Array.map (fun (f : Field.t) -> f.Field.name) fields in
  let index = Hashtbl.create (2 * Array.length names) in
  Array.iteri (fun i name -> Hashtbl.replace index name i) names;
  let order =
    Array.of_list
      (List.map (Hashtbl.find index) (Flg.field_names_by_hotness flg))
  in
  let w = Slo_search.Substrate.dense_weights names flg.Flg.graph in
  let clusters = greedy fields w order ~line_size in
  if pack_cold then pack_cold_singletons flg ~line_size clusters else clusters

let layout_of_clusters flg ~line_size clusters =
  Layout.of_clusters ~struct_name:flg.Flg.struct_name ~line_size
    (List.map (fun c -> c.members) clusters)

let automatic_layout flg ~line_size =
  layout_of_clusters flg ~line_size (run flg ~line_size)

let intra_cluster_weight flg c =
  Slo_search.Objective.pair_weight_sum ~weight:(Flg.weight flg) c.members

let inter_cluster_weight flg c1 c2 =
  Slo_search.Objective.cross_weight_sum ~weight:(Flg.weight flg) c1.members
    c2.members
