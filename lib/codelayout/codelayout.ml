module Cfg = Slo_ir.Cfg
module Counts = Slo_profile.Counts
module Names = Slo_util.Names
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
  capacity : int;  (* bin capacity = I-cache line size, bytes *)
  nodes : Block.t array;  (* [cblocks]; index = search node *)
  names : Names.t;  (* [nodes]' names *)
  weights : Float.Array.t;  (* dense affinity over [nodes] *)
  active : int array;  (* ascending indices of blocks with an edge *)
  edges : int;
}

let default_capacity = 64

let make ~capacity ~blocks ~weights =
  if capacity <= 0 then invalid_arg "Codelayout.make: capacity <= 0";
  let nodes = Array.of_list blocks in
  let names =
    match Names.make (Array.map Block.name nodes) with
    | Ok names -> names
    | Error b -> invalid_arg (Printf.sprintf "Codelayout.make: duplicate block %s" b)
  in
  let n = Array.length nodes in
  if Float.Array.length weights <> n * n then
    invalid_arg "Codelayout.make: weights are not n x n";
  let degree = Array.make n 0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j && Float.Array.get weights ((i * n) + j) <> 0.0 then
        degree.(i) <- degree.(i) + 1
    done
  done;
  let active = List.filter (fun i -> degree.(i) > 0) (List.init n Fun.id) in
  { cblocks = blocks; capacity; nodes; names; weights;
    active = Array.of_list active;
    edges = Array.fold_left ( + ) 0 degree / 2 }

let capacity t = t.capacity
let blocks t = t.cblocks
let weights t = t.weights
let active t = t.active
let num_edges t = t.edges

(* The affinity between two basic blocks is how often control passes
   between them — the CFG edge execution counts of the collect phase. Like
   the field graph's reference-count weights, heavier edges mean the pair
   belongs on one I-cache line. A procedure's blocks are consecutive
   indices from [first], so a CFG edge is two index reads. *)
let of_program ?(capacity = default_capacity) program counts =
  let cfgs = Cfg.of_program program in
  let first = Hashtbl.create 16 in
  let n =
    List.fold_left
      (fun k (name, (c : Cfg.t)) ->
        Hashtbl.replace first name (k, Array.length c.Cfg.blocks);
        k + Array.length c.Cfg.blocks)
      0 cfgs
  in
  let blocks =
    List.concat_map
      (fun (name, (c : Cfg.t)) ->
        Array.to_list
          (Array.mapi
             (fun id blk ->
               Block.make ~proc:name ~id ~size:(Machine.code_block_size blk))
             c.Cfg.blocks))
      cfgs
  in
  let w = Float.Array.make (n * n) 0.0 in
  Counts.fold_edges counts ~init:() ~f:(fun () ~proc ~src ~dst count ->
      match Hashtbl.find_opt first proc with
      | Some (k, len)
        when count > 0 && src <> dst && 0 <= src && src < len && 0 <= dst
             && dst < len ->
        let i = k + src and j = k + dst in
        let v = Float.Array.get w ((i * n) + j) +. float_of_int count in
        Float.Array.set w ((i * n) + j) v;
        Float.Array.set w ((j * n) + i) v
      | _ -> ());
  make ~capacity ~blocks ~weights:w

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

let score p bins =
  let index b = Option.get (Names.find_opt p.names (Block.name b)) in
  Substrate.score_indices p.weights (Array.length p.nodes)
    (List.map (List.map index) bins)

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
