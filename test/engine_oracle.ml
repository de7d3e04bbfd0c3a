(* The frozen oracle of the search engine: the list-state engine as it
   was before the index-based rewrite, kept verbatim apart from the
   problem signature it is written against (by-name weights, whole-block
   and incremental capacity predicates, node lists). test_engine.ml
   checks the production engine against it move for move: label,
   stream, score bits, move count and blocks. Do not optimize this
   file; it is the reference. *)

module Prng = Slo_util.Prng
module Pool = Slo_exec.Pool
module Obs = Slo_obs.Obs

type kind = Slo_search.Engine.kind = Greedy | Swap | Anneal
type selector = Slo_search.Engine.selector = One of kind | Portfolio

module type PROBLEM = sig
  module Node : Slo_search.Substrate.NODE

  type t

  val nodes : t -> Node.t list
  val weight : t -> string -> string -> float
  val active : t -> Node.t list
  val block_fits : t -> Node.t list -> bool
  val fits : t -> Node.t list -> Node.t -> bool
  val max_abs_weight : t -> float
end

module Make (P : PROBLEM) = struct
  module Pairs = Flg_oracle.Pairs (P.Node)

  let block_weight prob block = Pairs.pair_weight_sum ~weight:(P.weight prob) block

  let score_blocks prob blocks =
    List.fold_left (fun acc b -> acc +. block_weight prob b) 0.0 blocks

  type result = {
    kind : kind;
    label : string;
    stream : int;
    score : float;
    blocks : P.Node.t list list;
    moves : int;
  }

  (* ------------------------------------------------------------------ *)
  (* Mutable search state: a fixed-size array of blocks. Extra empty slots
     (one per active node) let any move open a fresh block, so every
     capacity-respecting partition of the active nodes is reachable.
     Blocks themselves stay immutable lists — snapshotting the state is an
     Array.copy. *)

  type state = {
    prob : P.t;
    blocks : P.Node.t list array;
    pos : (string, int) Hashtbl.t;  (* node name -> block index *)
  }

  let state_of_blocks prob blocks ~spare =
    let n = List.length blocks in
    let arr = Array.make (n + spare) [] in
    List.iteri (fun i b -> arr.(i) <- b) blocks;
    let pos = Hashtbl.create 64 in
    Array.iteri
      (fun i b -> List.iter (fun f -> Hashtbl.replace pos (P.Node.name f) i) b)
      arr;
    { prob; blocks = arr; pos }

  let nonempty_blocks arr = List.filter (fun b -> b <> []) (Array.to_list arr)

  (* w(f, B \ {f}): the attachment of a node to a block it may or may not
     belong to. *)
  let weight_to st fname block =
    List.fold_left
      (fun acc g ->
        if String.equal (P.Node.name g) fname then acc
        else acc +. P.weight st.prob fname (P.Node.name g))
      0.0 block

  (* Can [f] join [block] (which must not contain it)? Singletons always
     fit — an oversized node gets its own block. *)
  let fits st block f =
    match block with [] -> true | _ -> P.fits st.prob block f

  let remove_node fname block =
    List.filter (fun g -> not (String.equal (P.Node.name g) fname)) block

  let move_node st f ~src ~dst =
    let fname = P.Node.name f in
    st.blocks.(src) <- remove_node fname st.blocks.(src);
    st.blocks.(dst) <- st.blocks.(dst) @ [ f ];
    Hashtbl.replace st.pos fname dst

  (* ------------------------------------------------------------------ *)
  (* Steepest-descent pairwise swap / cross-block move (kind Swap). *)

  type move = Move of P.Node.t * int * int | Exchange of P.Node.t * P.Node.t

  let epsilon = 1e-9

  let best_move st active =
    (* Fixed enumeration order + strict improvement keeps the pick
       deterministic: ties go to the first candidate encountered. *)
    let best = ref None in
    let consider delta action =
      match !best with
      | Some (d, _) when d >= delta -> ()
      | _ -> best := Some (delta, action)
    in
    let nblocks = Array.length st.blocks in
    Array.iter
      (fun f ->
        let fname = P.Node.name f in
        let src = Hashtbl.find st.pos fname in
        let detach = weight_to st fname st.blocks.(src) in
        let singleton = match st.blocks.(src) with [ _ ] -> true | _ -> false in
        for dst = 0 to nblocks - 1 do
          if dst <> src then begin
            let b = st.blocks.(dst) in
            (* singleton -> empty block is a no-op; skip it *)
            if not (b = [] && singleton) && fits st b f then
              consider (weight_to st fname b -. detach) (Move (f, src, dst))
          end
        done)
      active;
    let n = Array.length active in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        let f = active.(i) and g = active.(j) in
        let fname = P.Node.name f and gname = P.Node.name g in
        let bi = Hashtbl.find st.pos fname in
        let bj = Hashtbl.find st.pos gname in
        if bi <> bj then begin
          let bi_rest = remove_node fname st.blocks.(bi) in
          let bj_rest = remove_node gname st.blocks.(bj) in
          if fits st bi_rest g && fits st bj_rest f then
            consider
              (weight_to st fname bj_rest
              +. weight_to st gname bi_rest
              -. weight_to st fname bi_rest
              -. weight_to st gname bj_rest)
              (Exchange (f, g))
        end
      done
    done;
    !best

  let apply_move st = function
    | Move (f, src, dst) -> move_node st f ~src ~dst
    | Exchange (f, g) ->
      let bi = Hashtbl.find st.pos (P.Node.name f) in
      let bj = Hashtbl.find st.pos (P.Node.name g) in
      move_node st f ~src:bi ~dst:bj;
      move_node st g ~src:bj ~dst:bi

  let swap_descent st active =
    (* Each applied move improves the objective by > epsilon and the
       partition space is finite, so this terminates; the cap is a pure
       safety net against float pathologies. *)
    let max_moves = 1000 + (32 * Array.length active) in
    let rec descend moves =
      if moves >= max_moves then moves
      else
        match best_move st active with
        | Some (delta, action) when delta > epsilon ->
          apply_move st action;
          descend (moves + 1)
        | _ -> moves
    in
    descend 0

  (* ------------------------------------------------------------------ *)
  (* Simulated annealing (kind Anneal). *)

  let anneal ~prng ~steps st active =
    let n_active = Array.length active in
    let nblocks = Array.length st.blocks in
    let t0 = Float.max 1.0 (P.max_abs_weight st.prob) in
    let cool = 1e-3 ** (1.0 /. float_of_int steps) in
    (* geometric schedule from t0 down to t0/1000 over [steps] proposals *)
    let temp = ref t0 in
    let cur = ref (score_blocks st.prob (nonempty_blocks st.blocks)) in
    let best = ref !cur in
    let best_blocks = ref (Array.copy st.blocks) in
    let accepted = ref 0 in
    let accept delta apply =
      if delta >= 0.0 || Prng.float prng 1.0 < exp (delta /. !temp) then begin
        apply ();
        incr accepted;
        cur := !cur +. delta;
        if !cur > !best then begin
          best := !cur;
          best_blocks := Array.copy st.blocks
        end
      end
    in
    for _ = 1 to steps do
      (if n_active > 0 then
         let f = active.(Prng.int prng n_active) in
         let fname = P.Node.name f in
         let src = Hashtbl.find st.pos fname in
         if n_active < 2 || Prng.int prng 3 < 2 then begin
           (* single-node move to a random (possibly fresh) block *)
           let dst = Prng.int prng nblocks in
           let singleton =
             match st.blocks.(src) with [ _ ] -> true | _ -> false
           in
           if
             dst <> src
             && (not (st.blocks.(dst) = [] && singleton))
             && fits st st.blocks.(dst) f
           then
             let delta =
               weight_to st fname st.blocks.(dst)
               -. weight_to st fname st.blocks.(src)
             in
             accept delta (fun () -> move_node st f ~src ~dst)
         end
         else begin
           (* cross-block pairwise swap *)
           let g = active.(Prng.int prng n_active) in
           let gname = P.Node.name g in
           let dst = Hashtbl.find st.pos gname in
           if dst <> src then begin
             let src_rest = remove_node fname st.blocks.(src) in
             let dst_rest = remove_node gname st.blocks.(dst) in
             if fits st src_rest g && fits st dst_rest f then
               let delta =
                 weight_to st fname dst_rest
                 +. weight_to st gname src_rest
                 -. weight_to st fname src_rest
                 -. weight_to st gname dst_rest
               in
               accept delta (fun () -> apply_move st (Exchange (f, g)))
           end
         end);
      temp := !temp *. cool
    done;
    (!accepted, !best_blocks)

  (* ------------------------------------------------------------------ *)

  let check_init prob init =
    let names blocks =
      List.sort compare
        (List.concat_map (List.map P.Node.name) blocks)
    in
    if names init <> List.sort compare (List.map P.Node.name (P.nodes prob))
    then
      invalid_arg "Search.Optimizer.run: init is not a partition of the fields";
    List.iter
      (fun b ->
        if not (P.block_fits prob b) then
          invalid_arg "Search.Optimizer.run: init block exceeds the cache line")
      init

  let mk_result prob kind ~label ~blocks ~moves =
    let blocks = List.filter (fun b -> b <> []) blocks in
    { kind; label; stream = 0; score = score_blocks prob blocks; blocks; moves }

  let default_steps prob = Int.max 500 (120 * List.length (P.active prob))

  let run ?prng ?steps prob ~init kind =
    check_init prob init;
    (match steps with
    | Some s when s <= 0 -> invalid_arg "Search.Optimizer.run: steps <= 0"
    | _ -> ());
    match kind with
    | Greedy -> mk_result prob Greedy ~label:"greedy" ~blocks:init ~moves:0
    | Swap ->
      let active = Array.of_list (P.active prob) in
      let st = state_of_blocks prob init ~spare:(Array.length active) in
      let moves = swap_descent st active in
      let r =
        mk_result prob Swap ~label:"swap"
          ~blocks:(nonempty_blocks st.blocks)
          ~moves
      in
      (* descent is monotone from init, but keep the guarantee exact under
         float accumulation: never return below the seed *)
      if r.score < score_blocks prob init then
        mk_result prob Swap ~label:"swap" ~blocks:init ~moves
      else r
    | Anneal ->
      let prng = match prng with Some p -> p | None -> Prng.create ~seed:0 in
      let steps = match steps with Some s -> s | None -> default_steps prob in
      let active = Array.of_list (P.active prob) in
      let st = state_of_blocks prob init ~spare:(Array.length active) in
      let moves, best_blocks = anneal ~prng ~steps st active in
      let r =
        mk_result prob Anneal ~label:"anneal"
          ~blocks:(nonempty_blocks best_blocks)
          ~moves
      in
      if r.score < score_blocks prob init then
        mk_result prob Anneal ~label:"anneal" ~blocks:init ~moves
      else r

  (* ------------------------------------------------------------------ *)
  (* Portfolio *)

  type portfolio = { best : result; greedy : result; scoreboard : result list }

  let run_selector ?pool ?(seed = 0) ?(restarts = 4) ?steps ?decl prob ~init
      selector =
    if restarts < 1 then
      invalid_arg "Search.Optimizer.run_selector: restarts < 1";
    Obs.time "search.portfolio_s" @@ fun () ->
    let anneal_tasks =
      List.init restarts (fun i -> (Printf.sprintf "anneal#%d" i, Anneal, init))
    in
    let baseline = ("greedy", Greedy, init) in
    let tasks =
      match selector with
      | One Greedy -> [ baseline ]
      | One Swap -> [ baseline; ("swap", Swap, init) ]
      | One Anneal -> baseline :: anneal_tasks
      | Portfolio ->
        (baseline :: ("swap", Swap, init)
        ::
        (match decl with
        | None -> []
        | Some d -> [ ("swap@decl", Swap, d) ]))
        @ anneal_tasks
    in
    let tasks =
      List.mapi (fun i (label, k, blocks) -> (i, label, k, blocks)) tasks
    in
    let run_task prng (i, label, kind, blocks) =
      let r =
        Obs.time "search.task_s" (fun () ->
            run ~prng ?steps prob ~init:blocks kind)
      in
      Obs.incr "search.tasks";
      if r.moves > 0 then Obs.incr ~by:r.moves "search.moves";
      { r with stream = i; label }
    in
    let results =
      match pool with
      | Some p -> Pool.map_seeded p ~seed run_task tasks
      | None ->
        List.mapi (fun i t -> run_task (Prng.derive ~seed ~stream:i) t) tasks
    in
    let greedy = List.hd results in
    let best =
      List.fold_left
        (fun b r -> if r.score > b.score then r else b)
        greedy (List.tl results)
    in
    let scoreboard =
      List.stable_sort (fun a b -> compare b.score a.score) results
    in
    { best; greedy; scoreboard }
end
