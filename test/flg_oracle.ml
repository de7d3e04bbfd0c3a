(* The frozen by-name FLG path: the affinity graph, Flg.build,
   Cluster.run, Subgraph, Report.make, Advisor.analyze, the Graphviz text
   and the code-layout graph as they were when every weighted graph was a
   string-keyed Sgraph and the search rebuilt a dense matrix from it by
   name. Kept verbatim apart from the module wrappers, with production
   record types for the results; test_flg.ml checks the field-indexed
   production path against it bit for bit. Do not optimize this file; it
   is the reference. *)

module Field = Slo_layout.Field
module Layout = Slo_layout.Layout
module Counts = Slo_profile.Counts
module Ast = Slo_ir.Ast
module Group = Slo_affinity.Group

(* The substrate's by-name scorer: unordered pairs in list order, summed
   left to right. *)
module Pairs (N : sig
  type t

  val name : t -> string
end) = struct
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

(* The dense view the search read: [dense_weights] and [active] of the
   substrate. *)
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

module Field_pairs = Pairs (struct
  type t = Field.t

  let name (f : Field.t) = f.Field.name
end)

module Affinity_graph = struct
  type t = {
    struct_name : string;
    graph : Sgraph.t;
    hotness : (string * int) list;
    rw : (string * Counts.rw) list;
  }

  let add_group_edges ~require_read g (group : Group.t) =
    (* All unordered pairs of fields referenced in the group. *)
    let rec pairs acc = function
      | [] -> acc
      | (f1, rw1) :: rest ->
        let acc =
          List.fold_left
            (fun acc (f2, rw2) -> ((f1, rw1), (f2, rw2)) :: acc)
            acc rest
        in
        pairs acc rest
    in
    List.fold_left
      (fun g ((f1, rw1), (f2, rw2)) ->
        (* Minimum Heuristic: the dynamic weight of the acyclic path containing
           both fields is upper-bounded by the smaller reference count. *)
        let w = min (Group.refs rw1) (Group.refs rw2) in
        let no_gain =
          require_read && rw1.Counts.reads = 0 && rw2.Counts.reads = 0
        in
        if w <= 0 || no_gain then g
        else Sgraph.add_edge g f1 f2 (float_of_int w))
      g
      (pairs [] group.g_fields)

  let of_groups ?(require_read = false) ~struct_name ~all_fields groups =
    let g = List.fold_left Sgraph.add_node Sgraph.empty all_fields in
    let graph = List.fold_left (add_group_edges ~require_read) g groups in
    let totals = Hashtbl.create 16 in
    List.iter (fun f -> Hashtbl.replace totals f { Counts.reads = 0; writes = 0 }) all_fields;
    List.iter
      (fun (group : Group.t) ->
        List.iter
          (fun (f, (rw : Counts.rw)) ->
            let cur =
              try Hashtbl.find totals f
              with Not_found -> { Counts.reads = 0; writes = 0 }
            in
            Hashtbl.replace totals f
              {
                Counts.reads = cur.Counts.reads + rw.Counts.reads;
                writes = cur.Counts.writes + rw.Counts.writes;
              })
          group.Group.g_fields)
      groups;
    let rw =
      Hashtbl.fold (fun f c l -> (f, c) :: l) totals []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    in
    let hotness = List.map (fun (f, c) -> (f, Group.refs c)) rw in
    { struct_name; graph; hotness; rw }

  let build ?require_read program counts ~struct_name =
    let all_fields =
      match Ast.find_struct program struct_name with
      | Some sd -> List.map (fun (fd : Ast.field_decl) -> fd.Ast.fd_name) sd.Ast.sd_fields
      | None ->
        invalid_arg
          (Printf.sprintf "Affinity_graph.build: unknown struct %S" struct_name)
    in
    let groups = Group.of_program program counts ~struct_name in
    of_groups ?require_read ~struct_name ~all_fields groups

  let hotness_of t f = match List.assoc_opt f t.hotness with Some h -> h | None -> 0
  let affinity t f1 f2 = Sgraph.weight0 t.graph f1 f2

  let pp ppf t =
    Format.fprintf ppf "@[<v>affinity graph for struct %s@,%a@,hotness:" t.struct_name
      Sgraph.pp t.graph;
    List.iter
      (fun (f, h) ->
        let rw = List.assoc f t.rw in
        Format.fprintf ppf "@,  %s: h=%d R=%d W=%d" f h rw.Counts.reads rw.Counts.writes)
      t.hotness;
    Format.fprintf ppf "@]"
end

module Flg = struct
  module Affinity_graph = Affinity_graph

  type t = {
    struct_name : string;
    fields : Field.t list;
    graph : Sgraph.t;
    gain : Sgraph.t;
    loss : Sgraph.t;
    hotness : (string * int) list;
  }

  (* [cycle_loss] is a struct name and its by-name loss pairs
     (Fmf_oracle.Cycle_loss). *)
  let build ?(k1 = 1.0) ?(k2 = 1.0) ~fields ~affinity ?cycle_loss () =
    if not (Float.is_finite k1 && Float.is_finite k2) then
      invalid_arg "Flg.build: k1 and k2 must be finite";
    let struct_name = affinity.Affinity_graph.struct_name in
    let names = List.map (fun (f : Field.t) -> f.Field.name) fields in
    let known = Hashtbl.create 16 in
    List.iter (fun n -> Hashtbl.replace known n ()) names;
    List.iter
      (fun (n, _) ->
        if not (Hashtbl.mem known n) then
          invalid_arg (Printf.sprintf "Flg.build: hotness for unknown field %S" n))
      affinity.Affinity_graph.hotness;
    let base = List.fold_left Sgraph.add_node Sgraph.empty names in
    let gain =
      Sgraph.fold_edges affinity.Affinity_graph.graph ~init:base
        ~f:(fun g f1 f2 w -> Sgraph.add_edge g f1 f2 (k1 *. w))
    in
    let loss =
      match cycle_loss with
      | None -> base
      | Some cl ->
        if not (String.equal (fst cl) struct_name) then
          invalid_arg "Flg.build: cycle loss computed for a different struct";
        List.fold_left
          (fun g ((f1, f2), v) ->
            if Hashtbl.mem known f1 && Hashtbl.mem known f2 then
              Sgraph.add_edge g f1 f2 (k2 *. v)
            else g)
          base (snd cl)
    in
    let graph =
      Sgraph.union gain (Sgraph.map_weights loss ~f:(fun _ _ w -> -.w))
    in
    let hotness =
      List.map (fun n -> (n, Affinity_graph.hotness_of affinity n)) names
    in
    { struct_name; fields; graph; gain; loss; hotness }

  let weight t f1 f2 = Sgraph.weight0 t.graph f1 f2

  let hotness_of t f =
    match List.assoc_opt f t.hotness with Some h -> h | None -> 0

  let field_of t name =
    match List.find_opt (fun (f : Field.t) -> String.equal f.Field.name name) t.fields with
    | Some f -> f
    | None -> raise Not_found

  let field_names_by_hotness t =
    (* List.stable_sort keeps declaration order among equal hotness. *)
    List.stable_sort
      (fun (_, h1) (_, h2) -> compare h2 h1)
      t.hotness
    |> List.map fst

  let negative_edges t =
    Sgraph.edges t.graph
    |> List.filter (fun (_, _, w) -> w < 0.0)
    |> List.sort (fun (_, _, w1) (_, _, w2) -> compare w1 w2)

  let positive_edges t =
    Sgraph.edges t.graph
    |> List.filter (fun (_, _, w) -> w > 0.0)
    |> List.sort (fun (_, _, w1) (_, _, w2) -> compare w2 w1)

  let dot t = Sgraph.to_dot ~name:t.struct_name t.graph
end

module Cluster = struct
  type cluster = Slo_core.Cluster.cluster = { seed : string; members : Field.t list }

  (* A cold singleton is a cluster whose only member has zero hotness and no
     incident FLG edges: its placement cannot change any edge weight sum. *)
  let is_cold_singleton flg c =
    match c.members with
    | [ f ] ->
      let name = f.Field.name in
      Flg.hotness_of flg name = 0
      && Sgraph.degree flg.Flg.graph name = 0
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
     dense matrix ([dense_weights]); [order] is the
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
    let w = dense_weights names flg.Flg.graph in
    let clusters = greedy fields w order ~line_size in
    if pack_cold then pack_cold_singletons flg ~line_size clusters else clusters

  let layout_of_clusters flg ~line_size clusters =
    Layout.of_clusters ~struct_name:flg.Flg.struct_name ~line_size
      (List.map (fun c -> c.members) clusters)

  let automatic_layout flg ~line_size =
    layout_of_clusters flg ~line_size (run flg ~line_size)

  let intra_cluster_weight flg c =
    Field_pairs.pair_weight_sum ~weight:(Flg.weight flg) c.members

  let inter_cluster_weight flg c1 c2 =
    Field_pairs.cross_weight_sum ~weight:(Flg.weight flg) c1.members
      c2.members
end

module Subgraph = struct
  let filter (flg : Flg.t) ~top_positive =
    let g = flg.Flg.graph in
    let keep = Hashtbl.create 64 in
    List.iter
      (fun (u, v, _) -> Hashtbl.replace keep (u, v) ())
      (Flg.negative_edges flg);
    let positives = Flg.positive_edges flg in
    List.iteri
      (fun i (u, v, _) -> if i < top_positive then Hashtbl.replace keep (u, v) ())
      positives;
    let filtered =
      Sgraph.filter_edges g ~f:(fun u v _ ->
          Hashtbl.mem keep (u, v) || Hashtbl.mem keep (v, u))
      |> Sgraph.drop_isolated
    in
    let surviving = Sgraph.nodes filtered in
    let member n = List.mem n surviving in
    let restrict g' =
      Sgraph.fold_edges g' ~init:(List.fold_left Sgraph.add_node Sgraph.empty surviving)
        ~f:(fun acc u v w ->
          if member u && member v && Sgraph.weight filtered u v <> None then
            Sgraph.add_edge acc u v w
          else acc)
    in
    {
      Flg.struct_name = flg.Flg.struct_name;
      fields =
        List.filter (fun (f : Field.t) -> member f.Field.name) flg.Flg.fields;
      graph = filtered;
      gain = restrict flg.Flg.gain;
      loss = restrict flg.Flg.loss;
      hotness = List.filter (fun (n, _) -> member n) flg.Flg.hotness;
    }

  let constraints flg ~line_size ~top_positive =
    Cluster.run (filter flg ~top_positive) ~line_size

  let negative_edge flg f1 f2 = Flg.weight flg f1 f2 < 0.0

  (* The baseline is edited at cache-line granularity: every baseline line's
     leftover fields keep their own line, so the hand layout's geometric
     separations survive the edit (a packed reflow would silently move fields
     across line boundaries and re-introduce the very sharing the hand layout
     avoided). *)
  let apply flg ~baseline ~line_size clusters =
    let base_order = Layout.field_names baseline in
    let by_name = Hashtbl.create 32 in
    List.iter
      (fun (f : Field.t) -> Hashtbl.replace by_name f.Field.name f)
      (Layout.fields baseline);
    (* Map each constrained field to its cluster index; check disjointness. *)
    let cluster_of = Hashtbl.create 16 in
    List.iteri
      (fun ci (c : Cluster.cluster) ->
        List.iter
          (fun (f : Field.t) ->
            let name = f.Field.name in
            if not (Hashtbl.mem by_name name) then
              invalid_arg
                (Printf.sprintf "Subgraph.apply: field %S not in baseline" name);
            if Hashtbl.mem cluster_of name then
              invalid_arg
                (Printf.sprintf "Subgraph.apply: field %S in two clusters" name);
            Hashtbl.replace cluster_of name ci)
          c.Cluster.members)
      clusters;
    (* Residual baseline lines: per line, the fields not pulled into a
       multi-member cluster. Mutable so singleton resolution below can see
       fields leaving their line. *)
    let multi_member name =
      match Hashtbl.find_opt cluster_of name with
      | None -> false
      | Some ci ->
        (match (List.nth clusters ci).Cluster.members with
        | [ _ ] -> false
        | _ -> true)
    in
    let num_lines = Layout.lines_used baseline ~line_size in
    let residual =
      Array.init num_lines (fun line ->
          Layout.fields_on_line baseline ~line_size line
          |> List.filter (fun (f : Field.t) -> not (multi_member f.Field.name)))
    in
    let line_of = Hashtbl.create 32 in
    List.iter
      (fun name ->
        Hashtbl.replace line_of name (Layout.cache_line_of baseline ~line_size name))
      base_order;
    (* Resolve singleton constraints in cluster (hotness) order: a singleton
       at peace with the current residue of its line stays; otherwise it is
       quarantined (removed from its line), which can pacify later
       singletons on the same line. *)
    let quarantine = ref [] in
    List.iter
      (fun (c : Cluster.cluster) ->
        match c.Cluster.members with
        | [ f ] ->
          let name = f.Field.name in
          let line = Hashtbl.find line_of name in
          let conflict =
            List.exists
              (fun (m : Field.t) ->
                (not (String.equal m.Field.name name))
                && negative_edge flg name m.Field.name)
              residual.(line)
          in
          if conflict then begin
            residual.(line) <-
              List.filter
                (fun (m : Field.t) -> not (String.equal m.Field.name name))
                residual.(line);
            quarantine := f :: !quarantine
          end
        | _ -> ())
      clusters;
    (* Pack quarantined fields into fresh-line groups without internal
       negative edges. *)
    let quarantine_groups =
      List.fold_left
        (fun groups (f : Field.t) ->
          let compatible group =
            Layout.packed_size (group @ [ f ]) <= line_size
            && List.for_all
                 (fun (g : Field.t) ->
                   not (negative_edge flg f.Field.name g.Field.name))
                 group
          in
          let rec place = function
            | [] -> [ [ f ] ]
            | g :: rest -> if compatible g then (g @ [ f ]) :: rest else g :: place rest
          in
          place groups)
        [] (List.rev !quarantine)
    in
    (* Emit: walk baseline lines in order; a line whose first (baseline)
       member belongs to a multi-member cluster is preceded by that cluster's
       fresh-line segment; every non-empty residual line is its own
       fresh-line segment. *)
    let emitted = Hashtbl.create 16 in
    let segments = ref [] in
    for line = 0 to num_lines - 1 do
      List.iter
        (fun (f : Field.t) ->
          match Hashtbl.find_opt cluster_of f.Field.name with
          | Some ci when multi_member f.Field.name && not (Hashtbl.mem emitted ci) ->
            Hashtbl.replace emitted ci ();
            segments :=
              Layout.Line_start (List.nth clusters ci).Cluster.members :: !segments
          | _ -> ())
        (Layout.fields_on_line baseline ~line_size line);
      if residual.(line) <> [] then
        segments := Layout.Line_start residual.(line) :: !segments
    done;
    List.iter
      (fun group -> segments := Layout.Line_start group :: !segments)
      quarantine_groups;
    Layout.of_segments ~struct_name:baseline.Layout.struct_name ~line_size
      (List.rev !segments)

  let incremental_layout flg ~baseline ~line_size ?(top_positive = 20) () =
    let cs = constraints flg ~line_size ~top_positive in
    if cs = [] then baseline else apply flg ~baseline ~line_size cs
end

module Report = struct
  let make ?(top_k = 20) flg ~line_size =
    let clusters = Cluster.run flg ~line_size in
    let arr = Array.of_list clusters in
    let intra =
      List.mapi (fun i c -> (i, Cluster.intra_cluster_weight flg c)) clusters
    in
    let inter = ref [] in
    Array.iteri
      (fun i ci ->
        Array.iteri
          (fun j cj ->
            if i < j then begin
              let w = Cluster.inter_cluster_weight flg ci cj in
              if w <> 0.0 then inter := (i, j, w) :: !inter
            end)
          arr)
      arr;
    let takek l = List.filteri (fun i _ -> i < top_k) l in
    {
      Slo_core.Report.struct_name = flg.Flg.struct_name;
      clusters;
      intra;
      inter = List.rev !inter;
      top_positive = takek (Flg.positive_edges flg);
      top_negative = takek (Flg.negative_edges flg);
      layout = Cluster.layout_of_clusters flg ~line_size clusters;
      hotness =
        List.sort (fun (_, a) (_, b) -> compare b a) flg.Flg.hotness;
    }
end

module Advisor = struct
  let analyze ?(hot_coverage = 0.9) (flg : Flg.t) =
    if hot_coverage <= 0.0 || hot_coverage > 1.0 then
      invalid_arg "Advisor.analyze: hot_coverage outside (0, 1]";
    let dead_fields =
      List.filter_map
        (fun (f : Field.t) ->
          if Flg.hotness_of flg f.Field.name = 0 then Some f.Field.name else None)
        flg.Flg.fields
    in
    (* Hot/cold split: smallest hotness-ordered prefix covering the target
       fraction of dynamic references. *)
    let total_refs =
      List.fold_left (fun acc (_, h) -> acc + h) 0 flg.Flg.hotness
    in
    let ordered = Flg.field_names_by_hotness flg in
    let hot_fields, covered =
      let rec take acc covered = function
        | [] -> (List.rev acc, covered)
        | name :: rest ->
          if
            total_refs > 0
            && float_of_int covered >= hot_coverage *. float_of_int total_refs
          then (List.rev acc, covered)
          else take (name :: acc) (covered + Flg.hotness_of flg name) rest
      in
      take [] 0 ordered
    in
    let cold_fields =
      List.filter (fun n -> not (List.mem n hot_fields)) ordered
    in
    let descriptors names = List.map (Flg.field_of flg) names in
    let split =
      {
        Slo_core.Advisor.hot_fields;
        cold_fields;
        hot_bytes = Layout.packed_size (descriptors hot_fields);
        total_bytes = Layout.packed_size flg.Flg.fields;
        ref_coverage =
          (if total_refs = 0 then 1.0
           else float_of_int covered /. float_of_int total_refs);
      }
    in
    (* Contended fields: negative edge mass vs positive edge mass. *)
    let contended =
      List.filter_map
        (fun (f : Field.t) ->
          let name = f.Field.name in
          let neg, pos =
            List.fold_left
              (fun (neg, pos) (other, w) ->
                ignore other;
                if w < 0.0 then (neg -. w, pos) else (neg, pos +. w))
              (0.0, 0.0)
              (Sgraph.neighbors flg.Flg.graph name)
          in
          if neg > pos && neg > 0.0 then Some (name, neg, pos) else None)
        flg.Flg.fields
      |> List.sort (fun (_, n1, p1) (_, n2, p2) -> compare (n2 -. p2) (n1 -. p1))
    in
    { Slo_core.Advisor.dead_fields; split; contended }
end

(* The code-layout graph over block names, and the dense view of it. *)
module Codelayout = struct
  module Block = Slo_codelayout.Codelayout.Block

  let graph_of_counts counts ~known =
    Counts.fold_edges counts ~init:Sgraph.empty
      ~f:(fun g ~proc ~src ~dst n ->
        if n <= 0 || src = dst then g
        else
          let u = Printf.sprintf "%s#%d" proc src
          and v = Printf.sprintf "%s#%d" proc dst in
          if Hashtbl.mem known u && Hashtbl.mem known v then
            Sgraph.add_edge g u v (float_of_int n)
          else g)

  (* Block names in program order, and the graph over them. *)
  let of_program program counts =
    let names =
      List.concat_map
        (fun (name, (c : Slo_ir.Cfg.t)) ->
          Array.to_list
            (Array.mapi (fun id _ -> Printf.sprintf "%s#%d" name id) c.Slo_ir.Cfg.blocks))
        (Slo_ir.Cfg.of_program program)
      |> Array.of_list
    in
    let known = Hashtbl.create 64 in
    Array.iter (fun b -> Hashtbl.replace known b ()) names;
    (names, graph_of_counts counts ~known)
end
