module Field = Slo_layout.Field
module Layout = Slo_layout.Layout

type t = {
  struct_name : string;
  clusters : Cluster.cluster list;
  intra : (int * float) list;
  inter : (int * int * float) list;
  top_positive : (string * string * float) list;
  top_negative : (string * string * float) list;
  layout : Layout.t;
  hotness : (string * int) list;
}

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
  let name = Flg.name flg in
  let takek l =
    List.filteri (fun i _ -> i < top_k) l
    |> List.map (fun (i, j, w) -> (name i, name j, w))
  in
  {
    struct_name = flg.Flg.struct_name;
    clusters;
    intra;
    inter = List.rev !inter;
    top_positive = takek (Flg.positive_edges flg);
    top_negative = takek (Flg.negative_edges flg);
    layout = Cluster.layout_of_clusters flg ~line_size clusters;
    hotness =
      List.map (fun i -> (name i, flg.Flg.hotness.(i))) (Array.to_list (Flg.hotness_order flg));
  }

let pp ppf t =
  Format.fprintf ppf "@[<v>=== Layout report: struct %s ===" t.struct_name;
  Format.fprintf ppf "@,@,--- clusters (one cache line each) ---";
  List.iteri
    (fun i (c : Cluster.cluster) ->
      let intra = List.assoc i t.intra in
      Format.fprintf ppf "@,cluster %d (seed %s, intra-weight %.1f):" i
        c.Cluster.seed intra;
      List.iter
        (fun (f : Field.t) -> Format.fprintf ppf " %s" f.Field.name)
        c.Cluster.members)
    t.clusters;
  if t.inter <> [] then begin
    Format.fprintf ppf "@,@,--- inter-cluster weights ---";
    List.iter
      (fun (i, j, w) ->
        Format.fprintf ppf "@,cluster %d x cluster %d: %.1f" i j w)
      t.inter
  end;
  if t.top_positive <> [] then begin
    Format.fprintf ppf "@,@,--- strongest positive edges (colocate) ---";
    List.iter
      (fun (u, v, w) -> Format.fprintf ppf "@,%s -- %s: %+.1f" u v w)
      t.top_positive
  end;
  if t.top_negative <> [] then begin
    Format.fprintf ppf "@,@,--- strongest negative edges (separate) ---";
    List.iter
      (fun (u, v, w) -> Format.fprintf ppf "@,%s -- %s: %+.1f" u v w)
      t.top_negative
  end;
  Format.fprintf ppf "@,@,--- hottest fields ---";
  List.iteri
    (fun i (f, h) -> if i < 10 then Format.fprintf ppf "@,%s: %d" f h)
    t.hotness;
  Format.fprintf ppf "@,@,--- suggested layout ---@,%a@]" Layout.pp t.layout

let render t = Format.asprintf "%a@." pp t
