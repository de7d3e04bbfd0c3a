module Field = Slo_layout.Field
module Layout = Slo_layout.Layout

let order ~fields ~hotness =
  let hot f =
    match List.assoc_opt f.Field.name hotness with Some h -> h | None -> 0
  in
  let aligns =
    List.sort_uniq (fun a b -> compare b a) (List.map Field.align fields)
  in
  List.concat_map
    (fun a ->
      List.filter (fun f -> Field.align f = a) fields
      |> List.stable_sort (fun f1 f2 -> compare (hot f2) (hot f1)))
    aligns
  |> List.map (fun f -> f.Field.name)

let layout ~struct_name ~fields ~hotness =
  let by_name = Hashtbl.create 16 in
  List.iter (fun (f : Field.t) -> Hashtbl.replace by_name f.Field.name f) fields;
  let ordered =
    List.map (fun n -> Hashtbl.find by_name n) (order ~fields ~hotness)
  in
  Layout.of_fields ~struct_name ordered

let layout_of_flg (flg : Flg.t) =
  layout ~struct_name:flg.Flg.struct_name ~fields:(Array.to_list flg.Flg.fields)
    ~hotness:
      (Array.to_list
         (Array.mapi (fun i (f : Field.t) -> (f.Field.name, flg.Flg.hotness.(i)))
            flg.Flg.fields))
