module Field = Slo_layout.Field
module Layout = Slo_layout.Layout

(* The kept edges are marked in an [n × n] byte matrix; the subgraph is
   the FLG over the fields with a kept edge, declaration order, with
   every other pair's gain, loss and edge cleared. *)
let filter (flg : Flg.t) ~top_positive =
  let n = Flg.size flg in
  let keep = Bytes.make (n * n) '\000' in
  let mark (i, j, _) =
    Bytes.set keep ((i * n) + j) '\001';
    Bytes.set keep ((j * n) + i) '\001'
  in
  List.iter mark (Flg.negative_edges flg);
  List.iteri (fun k e -> if k < top_positive then mark e) (Flg.positive_edges flg);
  let kept c = Bytes.get keep c <> '\000' in
  let rec linked i j = j < n && (kept ((i * n) + j) || linked i (j + 1)) in
  let surviving =
    Array.of_list (List.filter (fun i -> linked i 0) (List.init n Fun.id))
  in
  let m = Array.length surviving in
  let cell c = (surviving.(c / m) * n) + surviving.(c mod m) in
  let sub a =
    Float.Array.init (m * m) (fun c ->
        if kept (cell c) then Float.Array.get a (cell c) else 0.0)
  in
  Flg.make ~struct_name:flg.Flg.struct_name
    ~fields:(Array.to_list (Array.map (Array.get flg.Flg.fields) surviving))
    ~hotness:(Array.map (Array.get flg.Flg.hotness) surviving)
    ~gain:(sub flg.Flg.gain) ~loss:(sub flg.Flg.loss)
    ~edge:(Bytes.init (m * m) (fun c -> Bytes.get keep (cell c)))

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
