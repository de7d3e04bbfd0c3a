module Sgraph = Slo_graph.Sgraph
module Field = Slo_layout.Field
module Affinity_graph = Slo_affinity.Affinity_graph
module Cycle_loss = Slo_concurrency.Cycle_loss

type t = {
  struct_name : string;
  fields : Field.t list;
  graph : Sgraph.t;
  gain : Sgraph.t;
  loss : Sgraph.t;
  hotness : (string * int) list;
}

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
      if not (String.equal (Cycle_loss.struct_name cl) struct_name) then
        invalid_arg "Flg.build: cycle loss computed for a different struct";
      List.fold_left
        (fun g ((f1, f2), v) ->
          if Hashtbl.mem known f1 && Hashtbl.mem known f2 then
            Sgraph.add_edge g f1 f2 (k2 *. v)
          else g)
        base (Cycle_loss.pairs cl)
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

let pp ppf t =
  Format.fprintf ppf "@[<v>FLG for struct %s (%d fields)@,%a@]" t.struct_name
    (List.length t.fields) Sgraph.pp t.graph
