module Field = Slo_layout.Field
module Layout = Slo_layout.Layout
module Names = Slo_util.Names

type t = {
  struct_name : string;
  fields : Field.t list;
  line_size : int;
  nodes : Field.t array;
  names : Names.t;
  weights : Float.Array.t;
  active : int array;
}

let make ~struct_name ~fields ~weights ~active ~line_size =
  if line_size <= 0 then invalid_arg "Search.Objective.make: line_size <= 0";
  if fields = [] then invalid_arg "Search.Objective.make: no fields";
  let nodes = Array.of_list fields in
  let names =
    match Names.make (Array.map (fun (f : Field.t) -> f.Field.name) nodes) with
    | Ok names -> names
    | Error f ->
      invalid_arg (Printf.sprintf "Search.Objective.make: duplicate field %S" f)
  in
  let n = Array.length nodes in
  if Float.Array.length weights <> n * n then
    invalid_arg "Search.Objective.make: weights are not n x n";
  { struct_name; fields; line_size; nodes; names; weights; active }

(* Fields are scored as node indices, through the scorers every
   substrate shares, so fold order (and hence float results) cannot drift
   between the objective, the engine and the code-layout substrate. *)
let index t (f : Field.t) =
  match Names.find_opt t.names f.Field.name with
  | Some i -> i
  | None ->
    invalid_arg (Printf.sprintf "Search.Objective: unknown field %S" f.Field.name)

let n t = Array.length t.nodes
let block_weight t block = Substrate.pair_sum t.weights (n t) (List.map (index t) block)

let score_blocks t blocks =
  Substrate.score_indices t.weights (n t) (List.map (List.map (index t)) blocks)

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
  let n = n t in
  List.fold_left
    (fun acc block ->
      let rec pairs acc = function
        | [] -> acc
        | x :: rest ->
          pairs
            (List.fold_left
               (fun (g, l) y ->
                 let w = Float.Array.get t.weights ((x * n) + y) in
                 if w >= 0.0 then (g +. w, l) else (g, l -. w))
               acc rest)
            rest
      in
      pairs acc (List.map (index t) block))
    (0.0, 0.0) (line_groups t layout)

let active_fields t = Array.to_list (Array.map (Array.get t.nodes) t.active)

let block_fits t = function
  | [] | [ _ ] -> true
  | block -> Layout.packed_size block <= t.line_size

let layout_of_blocks t blocks =
  Layout.of_clusters ~struct_name:t.struct_name ~line_size:t.line_size
    (List.filter (fun b -> b <> []) blocks)
