module Cfg = Slo_ir.Cfg
module Counts = Slo_profile.Counts
module Sgraph = Slo_graph.Sgraph
module Engine = Slo_search.Engine
module Substrate = Slo_search.Substrate
module Machine = Slo_sim.Machine

module Block = struct
  type t = { proc : string; id : int; size : int; bname : string }

  let make ~proc ~id ~size =
    if size <= 0 then invalid_arg "Codelayout.Block.make: size <= 0";
    if id < 0 then invalid_arg "Codelayout.Block.make: id < 0";
    { proc; id; size; bname = Printf.sprintf "%s#%d" proc id }

  let name b = b.bname
  let proc b = b.proc
  let id b = b.id
  let size b = b.size
end

type t = {
  cblocks : Block.t list;  (* program order: the declaration baseline *)
  graph : Sgraph.t;  (* affinity over block names *)
  capacity : int;  (* bin capacity = I-cache line size, bytes *)
  nodes : Block.t array;  (* [cblocks]; index = search node *)
  weights : Float.Array.t;  (* [graph] as a dense matrix over [nodes] *)
  active : int array;  (* ascending indices of blocks with an edge *)
}

let default_capacity = 64

let make ~capacity ~blocks ~graph =
  if capacity <= 0 then invalid_arg "Codelayout.make: capacity <= 0";
  let seen = Hashtbl.create 64 in
  List.iter
    (fun b ->
      let n = Block.name b in
      if Hashtbl.mem seen n then
        invalid_arg (Printf.sprintf "Codelayout.make: duplicate block %s" n);
      Hashtbl.replace seen n ())
    blocks;
  List.iter
    (fun (u, v, _) ->
      if not (Hashtbl.mem seen u && Hashtbl.mem seen v) then
        invalid_arg
          (Printf.sprintf "Codelayout.make: graph edge (%s, %s) names no block"
             u v))
    (Sgraph.edges graph);
  let nodes = Array.of_list blocks in
  let names = Array.map Block.name nodes in
  { cblocks = blocks; graph; capacity; nodes;
    weights = Substrate.dense_weights names graph;
    active = Substrate.active names graph }

let capacity t = t.capacity
let blocks t = t.cblocks
let graph t = t.graph

(* The affinity between two basic blocks is how often control passes
   between them — the CFG edge execution counts of the collect phase. Like
   the field graph's reference-count weights, heavier edges mean the pair
   belongs on one I-cache line. *)
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

let of_program ?(capacity = default_capacity) program counts =
  let blocks =
    List.concat_map
      (fun (name, (c : Cfg.t)) ->
        Array.to_list
          (Array.mapi
             (fun id blk ->
               Block.make ~proc:name ~id ~size:(Machine.code_block_size blk))
             c.Cfg.blocks))
      (Cfg.of_program program)
  in
  let known = Hashtbl.create 64 in
  List.iter (fun b -> Hashtbl.replace known (Block.name b) ()) blocks;
  make ~capacity ~blocks ~graph:(graph_of_counts counts ~known)

(* --------------------------------------------------------------------- *)
(* The block substrate. *)

module Problem = struct
  module Node = struct
    type t = Block.t

    let name = Block.name
  end

  type nonrec t = t

  let nodes p = p.nodes
  let weights p = p.weights
  let active p = p.active

  (* A bin packs to the sum of its block sizes. As for fields, a lone
     block larger than a line is legal (it simply spans lines); only
     merged bins must fit. *)
  let capacity p = p.capacity
  let extend p size i = size + Block.size p.nodes.(i)
end

module E = Engine.Make (Problem)
module Pairs = Substrate.Pairs (Problem.Node)

let score p bins = Pairs.blocks_weight_sum ~weight:(Sgraph.weight0 p.graph) bins

(* Declaration-order bins: blocks in program order, packed greedily into
   capacity-bounded runs that never span a procedure boundary — the
   "as compiled" partition, and the search's seed. *)
let decl_bins p =
  let close cur acc = if cur = [] then acc else List.rev cur :: acc in
  let rec go cur cur_size acc = function
    | [] -> List.rev (close cur acc)
    | b :: rest -> (
      match cur with
      | [] -> go [ b ] (Block.size b) acc rest
      | prev :: _ ->
        let size = cur_size + Block.size b in
        if String.equal (Block.proc prev) (Block.proc b) && size <= p.capacity
        then go (b :: cur) size acc rest
        else go [ b ] (Block.size b) (close cur acc) rest)
  in
  go [] 0 [] p.cblocks

let order_of_bins bins =
  List.concat_map (List.map (fun b -> (Block.proc b, Block.id b))) bins

let decl_order p = List.map (fun b -> (Block.proc b, Block.id b)) p.cblocks

type result = {
  kind : Engine.kind;
  label : string;
  stream : int;
  score : float;
  bins : Block.t list list;
  order : (string * int) list;
  moves : int;
}

(* The engine searches partitions; the block substrate's deliverable is
   the flattened block order [set_code_layout] consumes. *)
let of_engine (r : E.result) =
  {
    kind = r.E.kind;
    label = r.E.label;
    stream = r.E.stream;
    score = r.E.score;
    bins = r.E.blocks;
    order = order_of_bins r.E.blocks;
    moves = r.E.moves;
  }

let run ?prng ?steps p kind = of_engine (E.run ?prng ?steps p ~init:(decl_bins p) kind)

type portfolio = { best : result; greedy : result; scoreboard : result list }

let search ?pool ?seed ?restarts ?steps p selector =
  let pf = E.run_selector ?pool ?seed ?restarts ?steps p ~init:(decl_bins p) selector in
  {
    best = of_engine pf.E.best;
    greedy = of_engine pf.E.greedy;
    scoreboard = List.map of_engine pf.E.scoreboard;
  }
