module Field = Slo_layout.Field
module Layout = Slo_layout.Layout

(* The field substrate: fields are nodes, the objective's dense matrix is
   the weights, and a block packs with C alignment into one cache line. *)
module Problem = struct
  module Node = struct
    type t = Field.t

    let name (f : Field.t) = f.Field.name
  end

  type t = Objective.t

  let nodes (o : Objective.t) = o.Objective.nodes
  let weights (o : Objective.t) = o.Objective.weights
  let active (o : Objective.t) = o.Objective.active
  let capacity (o : Objective.t) = o.Objective.line_size
  let extend (o : Objective.t) size i = Layout.packed_extend size o.Objective.nodes.(i)
end

module E = Engine.Make (Problem)

type kind = Engine.kind = Greedy | Swap | Anneal

let kind_name = Engine.kind_name

type selector = Engine.selector = One of kind | Portfolio

let selector_names = [ "greedy"; "swap"; "anneal"; "portfolio" ]

let selector_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "greedy" -> One Greedy
  | "swap" | "swap_descent" | "swap-descent" -> One Swap
  | "anneal" | "annealing" -> One Anneal
  | "portfolio" -> Portfolio
  | _ ->
    invalid_arg
      (Printf.sprintf
         "Search.Optimizer.selector_of_string: unknown optimizer %S (valid: %s)"
         s
         (String.concat "|" selector_names))

let selector_name = Engine.selector_name

type result = {
  kind : kind;
  label : string;
  stream : int;
  score : float;
  blocks : Field.t list list;
  layout : Layout.t;
  moves : int;
}

(* The engine searches partitions; the field substrate's extra deliverable
   is the concrete layout, a pure function of the winning blocks. *)
let of_engine obj (r : E.result) =
  {
    kind = r.E.kind;
    label = r.E.label;
    stream = r.E.stream;
    score = r.E.score;
    blocks = r.E.blocks;
    layout = Objective.layout_of_blocks obj r.E.blocks;
    moves = r.E.moves;
  }

let run ?prng ?steps obj ~init kind =
  of_engine obj (E.run ?prng ?steps obj ~init kind)

type portfolio = { best : result; greedy : result; scoreboard : result list }

let decl_blocks obj =
  let layout =
    Layout.of_fields ~struct_name:obj.Objective.struct_name
      obj.Objective.fields
  in
  let line_size = obj.Objective.line_size in
  List.concat_map
    (fun group ->
      (* a group may violate the block-fit rule when its trailing field
         straddles the line boundary: split it into consecutive runs that
         fit, longest-prefix first *)
      let close cur acc = if cur = [] then acc else List.rev cur :: acc in
      let rec runs cur cur_size acc = function
        | [] -> List.rev (close cur acc)
        | (f : Field.t) :: rest ->
          if cur = [] then runs [ f ] (Layout.packed_size [ f ]) acc rest
          else
            let size = Layout.packed_extend cur_size f in
            if size <= line_size then runs (f :: cur) size acc rest
            else runs [ f ] (Layout.packed_size [ f ]) (close cur acc) rest
      in
      runs [] 0 [] group)
    (Objective.line_groups obj layout)

let run_selector ?pool ?seed ?restarts ?steps obj ~init selector =
  let pf =
    E.run_selector ?pool ?seed ?restarts ?steps ~decl:(decl_blocks obj) obj
      ~init selector
  in
  {
    best = of_engine obj pf.E.best;
    greedy = of_engine obj pf.E.greedy;
    scoreboard = List.map (of_engine obj) pf.E.scoreboard;
  }
