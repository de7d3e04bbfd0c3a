module Field = Slo_layout.Field
module Names = Slo_util.Names
module Affinity_graph = Slo_affinity.Affinity_graph
module Cycle_loss = Slo_concurrency.Cycle_loss

type t = {
  struct_name : string;
  fields : Field.t array;
  names : Names.t;
  weight : Float.Array.t;
  gain : Float.Array.t;
  loss : Float.Array.t;
  hotness : int array;
  edge : Bytes.t;
}

let assemble ~struct_name ~fields ~names ~hotness ~gain ~loss ~edge =
  let weight =
    Float.Array.init (Float.Array.length gain) (fun c ->
        Float.Array.get gain c -. Float.Array.get loss c)
  in
  { struct_name; fields; names; weight; gain; loss; hotness; edge }

let make ~struct_name ~fields ~hotness ~gain ~loss ~edge =
  let fields = Array.of_list fields in
  let names =
    match Names.make (Array.map (fun (f : Field.t) -> f.Field.name) fields) with
    | Ok names -> names
    | Error f -> invalid_arg (Printf.sprintf "Flg.make: duplicate field %S" f)
  in
  let n = Array.length fields in
  if
    Array.length hotness <> n
    || Float.Array.length gain <> n * n
    || Float.Array.length loss <> n * n
    || Bytes.length edge <> n * n
  then invalid_arg "Flg.make: a part does not match the fields";
  assemble ~struct_name ~fields ~names ~hotness ~gain ~loss ~edge

(* The FLG shares the affinity graph's index space, and so does the
   loss. A cell of [gain] or [loss] is [0.0 +. k *. raw]: the sum a
   by-name graph made when it added the scaled edge to an empty one, so
   0 and -0 both read +0. *)
let build ?(k1 = 1.0) ?(k2 = 1.0) ~fields ~affinity ?cycle_loss () =
  if not (Float.is_finite k1 && Float.is_finite k2) then
    invalid_arg "Flg.build: k1 and k2 must be finite";
  let struct_name = affinity.Affinity_graph.struct_name in
  let names = affinity.Affinity_graph.fields in
  let fields = Array.of_list fields in
  if Array.map (fun (f : Field.t) -> f.Field.name) fields <> names.Names.names then
    invalid_arg "Flg.build: fields are not the affinity graph's";
  let n = Array.length fields in
  let edge = Bytes.make (n * n) '\000' in
  let scaled k c raw =
    if raw <> 0.0 then Bytes.set edge c '\001';
    0.0 +. (k *. raw)
  in
  let gain = Float.Array.mapi (scaled k1) affinity.Affinity_graph.weight in
  let loss =
    match cycle_loss with
    | None -> Float.Array.make (n * n) 0.0
    | Some (cl : Cycle_loss.t) ->
      if not (String.equal cl.Cycle_loss.struct_name struct_name) then
        invalid_arg "Flg.build: cycle loss computed for a different struct";
      if cl.Cycle_loss.fields.Names.names <> names.Names.names then
        invalid_arg "Flg.build: cycle loss is not over the affinity graph's fields";
      Float.Array.mapi (scaled k2) cl.Cycle_loss.loss
  in
  assemble ~struct_name ~fields ~names
    ~hotness:(Array.copy affinity.Affinity_graph.hotness) ~gain ~loss ~edge

let size t = Array.length t.fields
let has_edge t i j = Bytes.get t.edge ((i * size t) + j) <> '\000'

let active t =
  let n = size t in
  let rec linked i j = j < n && (has_edge t i j || linked i (j + 1)) in
  Array.of_list (List.filter (fun i -> linked i 0) (List.init n Fun.id))

let name t i = t.names.Names.names.(i)

let index t name =
  match Names.find_opt t.names name with Some i -> i | None -> raise Not_found

let weight t f1 f2 =
  match (Names.find_opt t.names f1, Names.find_opt t.names f2) with
  | Some i, Some j -> Float.Array.get t.weight ((i * size t) + j)
  | _ -> 0.0

let hotness_order t =
  let order = Array.init (size t) Fun.id in
  Array.stable_sort (fun a b -> compare t.hotness.(b) t.hotness.(a)) order;
  order

let edges t =
  let n = size t in
  Names.fold_pairs_by_name t.names ~init:[] ~f:(fun acc i j ->
      if has_edge t i j then (i, j, Float.Array.get t.weight ((i * n) + j)) :: acc
      else acc)
  |> List.rev

(* List.sort is stable: equal weights keep name order. *)
let negative_edges t =
  List.filter (fun (_, _, w) -> w < 0.0) (edges t)
  |> List.sort (fun (_, _, w1) (_, _, w2) -> compare w1 w2)

let positive_edges t =
  List.filter (fun (_, _, w) -> w > 0.0) (edges t)
  |> List.sort (fun (_, _, w1) (_, _, w2) -> compare w2 w1)

let to_dot t =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "graph %s {\n" t.struct_name;
  Array.iter (fun i -> Printf.bprintf buf "  \"%s\";\n" (name t i)) t.names.Names.by_name;
  List.iter
    (fun (i, j, w) ->
      Printf.bprintf buf "  \"%s\" -- \"%s\" [label=\"%.1f\"];\n" (name t i) (name t j) w)
    (edges t);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
