module Field = Slo_layout.Field
module Layout = Slo_layout.Layout
module Sgraph = Slo_graph.Sgraph

type t = {
  struct_name : string;
  fields : Field.t list;
  graph : Sgraph.t;
  line_size : int;
  nodes : Field.t array;
  weights : Float.Array.t;
  active : int array;
}

let make ~struct_name ~fields ~graph ~line_size =
  if line_size <= 0 then invalid_arg "Search.Objective.make: line_size <= 0";
  if fields = [] then invalid_arg "Search.Objective.make: no fields";
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (f : Field.t) ->
      if Hashtbl.mem seen f.Field.name then
        invalid_arg
          (Printf.sprintf "Search.Objective.make: duplicate field %S"
             f.Field.name);
      Hashtbl.replace seen f.Field.name ())
    fields;
  let nodes = Array.of_list fields in
  let names = Array.map (fun (f : Field.t) -> f.Field.name) nodes in
  { struct_name; fields; graph; line_size; nodes;
    weights = Substrate.dense_weights names graph;
    active = Substrate.active names graph }

let weight t f1 f2 = Sgraph.weight0 t.graph f1 f2

(* The scoring primitives are the generic substrate ones, instantiated at
   fields — the same code path every other substrate scores through, so
   fold order (and hence float results) cannot drift between domains. *)
module Node = struct
  type t = Field.t

  let name (f : Field.t) = f.Field.name
end

module Pairs = Substrate.Pairs (Node)

let fold_pairs = Pairs.fold_pairs
let pair_weight_sum = Pairs.pair_weight_sum
let cross_weight_sum = Pairs.cross_weight_sum

let block_weight t block = pair_weight_sum ~weight:(weight t) block

let score_blocks t blocks = Pairs.blocks_weight_sum ~weight:(weight t) blocks

let line_groups t (layout : Layout.t) =
  let rev =
    List.fold_left
      (fun acc (s : Layout.slot) ->
        let line = s.Layout.offset / t.line_size in
        match acc with
        | (l, fs) :: rest when l = line -> (l, s.Layout.field :: fs) :: rest
        | _ -> (line, [ s.Layout.field ]) :: acc)
      [] layout.Layout.slots
  in
  List.rev_map (fun (_, fs) -> List.rev fs) rev

let score t layout = score_blocks t (line_groups t layout)

let gain_loss t layout =
  List.fold_left
    (fun acc block ->
      fold_pairs
        ~f:(fun (g, l) a b ->
          let w = weight t a b in
          if w >= 0.0 then (g +. w, l) else (g, l -. w))
        acc block)
    (0.0, 0.0) (line_groups t layout)

let active_fields t = Array.to_list (Array.map (Array.get t.nodes) t.active)

let block_fits t = function
  | [] | [ _ ] -> true
  | block -> Layout.packed_size block <= t.line_size

let layout_of_blocks t blocks =
  Layout.of_clusters ~struct_name:t.struct_name ~line_size:t.line_size
    (List.filter (fun b -> b <> []) blocks)
