module Prng = Slo_util.Prng
module Pool = Slo_exec.Pool
module Obs = Slo_obs.Obs

type kind = Greedy | Swap | Anneal

let kind_name = function Greedy -> "greedy" | Swap -> "swap" | Anneal -> "anneal"

type selector = One of kind | Portfolio

let selector_name = function One k -> kind_name k | Portfolio -> "portfolio"

module Make (P : Substrate.PROBLEM) = struct
  type result = {
    kind : kind;
    label : string;
    stream : int;
    score : float;
    blocks : P.Node.t list list;
    moves : int;
  }

  (* ------------------------------------------------------------------ *)
  (* Mutable search state: a fixed set of block slots, one per seed block
     plus one spare per active node, so any move can open a fresh block
     and every capacity-respecting partition of the active nodes is
     reachable. Each block is a doubly linked list threaded through
     per-node [next]/[prev] arrays: append at the tail and unlink keep
     member order, and the whole state is O(n + blocks) ints. [size] is
     each block's packed size, the fold of [P.extend] over its members. *)

  let nil = -1

  type state = {
    prob : P.t;
    n : int;
    w : Float.Array.t;
    cap : int;
    pos : int array;  (* node -> block *)
    next : int array;  (* node -> next member of its block, or nil *)
    prev : int array;  (* node -> previous member, or nil *)
    head : int array;  (* block -> first member, or nil *)
    tail : int array;  (* block -> last member, or nil *)
    len : int array;
    size : int array;
  }

  (* Packed size of block [b]'s members in order, [skip] left out. *)
  let packed_without st b skip =
    let s = ref 0 and m = ref st.head.(b) in
    while !m <> nil do
      if !m <> skip then s := P.extend st.prob !s !m;
      m := st.next.(!m)
    done;
    !s

  let append st b f =
    let t = st.tail.(b) in
    st.prev.(f) <- t;
    st.next.(f) <- nil;
    if t = nil then st.head.(b) <- f else st.next.(t) <- f;
    st.tail.(b) <- f;
    st.len.(b) <- st.len.(b) + 1;
    st.size.(b) <- P.extend st.prob st.size.(b) f;
    st.pos.(f) <- b

  let unlink st b f =
    let p = st.prev.(f) and x = st.next.(f) in
    if p = nil then st.head.(b) <- x else st.next.(p) <- x;
    if x = nil then st.tail.(b) <- p else st.prev.(x) <- p;
    st.len.(b) <- st.len.(b) - 1;
    st.size.(b) <- packed_without st b nil

  let move_node st f dst =
    unlink st st.pos.(f) f;
    append st dst f

  (* f and g in different blocks trade places: each goes to the tail of
     the other's block. *)
  let exchange st f g =
    let bi = st.pos.(f) and bj = st.pos.(g) in
    move_node st f bj;
    move_node st g bi

  (* w(f, B \ {f, skip}): the attachment of [f] to block [b], in block
     order. *)
  let[@inline] attach st f b skip =
    let acc = ref 0.0 and m = ref st.head.(b) and row = f * st.n in
    while !m <> nil do
      let g = !m in
      if g <> f && g <> skip then
        acc := !acc +. Float.Array.unsafe_get st.w (row + g);
      m := st.next.(g)
    done;
    !acc

  (* Can [f] join block [b]? An empty block always accepts. *)
  let[@inline] fits st b f =
    st.len.(b) = 0 || P.extend st.prob st.size.(b) f <= st.cap

  (* Can [add] join block [b] once [out] (a member) has left it? *)
  let fits_rest st b ~out ~add =
    st.len.(b) = 1 || P.extend st.prob (packed_without st b out) add <= st.cap

  let state_of_blocks prob blocks ~spare =
    let nodes = P.nodes prob in
    let n = Array.length nodes in
    let nblocks = List.length blocks + spare in
    let st =
      {
        prob;
        n;
        w = P.weights prob;
        cap = P.capacity prob;
        pos = Array.make n nil;
        next = Array.make n nil;
        prev = Array.make n nil;
        head = Array.make nblocks nil;
        tail = Array.make nblocks nil;
        len = Array.make nblocks 0;
        size = Array.make nblocks 0;
      }
    in
    List.iteri (fun b block -> List.iter (append st b) block) blocks;
    st

  (* The non-empty blocks of a (head, next) snapshot, in slot order. *)
  let blocks_of ~head ~next =
    let rec members m = if m = nil then [] else m :: members next.(m) in
    Array.fold_right
      (fun h acc -> if h = nil then acc else members h :: acc)
      head []

  (* ------------------------------------------------------------------ *)
  (* Steepest-descent pairwise swap / cross-block move (kind Swap). *)

  let epsilon = 1e-9

  (* The best move of one scan, by the fixed enumeration order: every
     single-node move (active nodes in order, destination blocks in slot
     order), then every cross-block exchange (i < j in active order).
     Ties go to the first candidate: a later one replaces the best only
     when strictly better. Returns the move's delta (neg_infinity when
     there is no candidate) and encodes the move in [mv]: [mv.(0)] is 0
     for none, 1 for Move (node mv.(1) to block mv.(2)), 2 for Exchange
     (nodes mv.(1), mv.(2)). [detach]/[rest] are per-active-node buffers:
     w(f, own block \ f) and the packed size of own block \ f, which no
     candidate of the scan changes. Allocates nothing. *)
  let best_move st active ~detach ~rest mv =
    let nblocks = Array.length st.head in
    let na = Array.length active in
    for i = 0 to na - 1 do
      let f = active.(i) in
      let src = st.pos.(f) in
      Float.Array.unsafe_set detach i (attach st f src nil);
      rest.(i) <- packed_without st src f
    done;
    mv.(0) <- 0;
    let best = ref neg_infinity in
    for i = 0 to na - 1 do
      let f = active.(i) in
      let src = st.pos.(f) in
      let d = Float.Array.unsafe_get detach i in
      let singleton = st.len.(src) = 1 in
      for dst = 0 to nblocks - 1 do
        if dst <> src then
          (* singleton -> empty block is a no-op; skip it *)
          if (not (st.len.(dst) = 0 && singleton)) && fits st dst f then begin
            let delta = attach st f dst nil -. d in
            if mv.(0) = 0 || not (!best >= delta) then begin
              best := delta;
              mv.(0) <- 1;
              mv.(1) <- f;
              mv.(2) <- dst
            end
          end
      done
    done;
    for i = 0 to na - 1 do
      for j = i + 1 to na - 1 do
        let f = active.(i) and g = active.(j) in
        let bi = st.pos.(f) and bj = st.pos.(g) in
        if bi <> bj then
          if
            (st.len.(bi) = 1 || P.extend st.prob rest.(i) g <= st.cap)
            && (st.len.(bj) = 1 || P.extend st.prob rest.(j) f <= st.cap)
          then begin
            let delta =
              attach st f bj g +. attach st g bi f
              -. Float.Array.unsafe_get detach i
              -. Float.Array.unsafe_get detach j
            in
            if mv.(0) = 0 || not (!best >= delta) then begin
              best := delta;
              mv.(0) <- 2;
              mv.(1) <- f;
              mv.(2) <- g
            end
          end
      done
    done;
    !best

  let swap_descent st active =
    (* Each applied move improves the objective by > epsilon and the
       partition space is finite, so this terminates; the cap is a pure
       safety net against float pathologies. *)
    let na = Array.length active in
    let max_moves = 1000 + (32 * na) in
    let detach = Float.Array.make na 0.0 and rest = Array.make na 0 in
    let mv = Array.make 3 0 in
    let rec descend moves =
      if moves >= max_moves then moves
      else begin
        let delta = best_move st active ~detach ~rest mv in
        if mv.(0) <> 0 && delta > epsilon then begin
          if mv.(0) = 1 then move_node st mv.(1) mv.(2)
          else exchange st mv.(1) mv.(2);
          descend (moves + 1)
        end
        else moves
      end
    in
    descend 0

  (* ------------------------------------------------------------------ *)
  (* Simulated annealing (kind Anneal). *)

  let max_abs_weight w =
    let m = ref 0.0 in
    for k = 0 to Float.Array.length w - 1 do
      m := Float.max !m (Float.abs (Float.Array.unsafe_get w k))
    done;
    !m

  (* One proposal per step: a random active node either moves to a random
     (possibly fresh) block or, with probability 1/3 when at least two
     nodes are active, trades places with another random active node.
     Metropolis acceptance on a geometric schedule from t0 down to t0/1000
     over [steps] proposals. The best-seen state is copied into
     [best_head]/[best_next]; a rejected proposal allocates nothing. *)
  let anneal ~prng ~steps ~score st active =
    let n_active = Array.length active in
    let nblocks = Array.length st.head in
    let t0 = Float.max 1.0 (max_abs_weight st.w) in
    let cool = 1e-3 ** (1.0 /. float_of_int steps) in
    let temp = ref t0 in
    let cur = ref score in
    let best = ref score in
    let best_head = Array.copy st.head and best_next = Array.copy st.next in
    let accepted = ref 0 in
    for _ = 1 to steps do
      if n_active > 0 then begin
        let f = active.(Prng.int prng n_active) in
        let src = st.pos.(f) in
        (* 0: no proposal; 1: move f to block [b]; 2: exchange f with [b] *)
        let proposal = ref 0 and b = ref 0 and delta = ref 0.0 in
        if n_active < 2 || Prng.int prng 3 < 2 then begin
          (* single-node move to a random (possibly fresh) block *)
          let dst = Prng.int prng nblocks in
          if
            dst <> src
            && (not (st.len.(dst) = 0 && st.len.(src) = 1))
            && fits st dst f
          then begin
            proposal := 1;
            b := dst;
            delta := attach st f dst nil -. attach st f src nil
          end
        end
        else begin
          (* cross-block pairwise swap *)
          let g = active.(Prng.int prng n_active) in
          let dst = st.pos.(g) in
          if
            dst <> src
            && fits_rest st src ~out:f ~add:g
            && fits_rest st dst ~out:g ~add:f
          then begin
            proposal := 2;
            b := g;
            delta :=
              attach st f dst g +. attach st g src f -. attach st f src nil
              -. attach st g dst nil
          end
        end;
        if
          !proposal <> 0
          && (!delta >= 0.0 || Prng.float prng 1.0 < exp (!delta /. !temp))
        then begin
          if !proposal = 1 then move_node st f !b else exchange st f !b;
          incr accepted;
          cur := !cur +. !delta;
          if !cur > !best then begin
            best := !cur;
            Array.blit st.head 0 best_head 0 nblocks;
            Array.blit st.next 0 best_next 0 st.n
          end
        end
      end;
      temp := !temp *. cool
    done;
    (!accepted, blocks_of ~head:best_head ~next:best_next)

  (* ------------------------------------------------------------------ *)

  (* Names enter here and only here: the seed partition becomes index
     blocks, validated exactly as before — a partition of the node set
     first, then the capacity rule block by block. *)
  let index_blocks prob init =
    let nodes = P.nodes prob in
    let n = Array.length nodes in
    let index = Hashtbl.create (2 * n) in
    Array.iteri (fun i node -> Hashtbl.replace index (P.Node.name node) i) nodes;
    let seen = Array.make n false and count = ref 0 and ok = ref true in
    let blocks =
      List.map
        (List.map (fun node ->
             match Hashtbl.find_opt index (P.Node.name node) with
             | Some i when not seen.(i) ->
               seen.(i) <- true;
               incr count;
               i
             | _ ->
               ok := false;
               nil))
        init
    in
    if not (!ok && !count = n) then
      invalid_arg "Search.Optimizer.run: init is not a partition of the fields";
    let cap = P.capacity prob in
    List.iter
      (function
        | [] | [ _ ] -> ()
        | block ->
          if List.fold_left (P.extend prob) 0 block > cap then
            invalid_arg "Search.Optimizer.run: init block exceeds the cache line")
      blocks;
    blocks

  let mk_result prob kind ~label ~blocks ~moves =
    let blocks = List.filter (fun b -> b <> []) blocks in
    let nodes = P.nodes prob in
    {
      kind;
      label;
      stream = 0;
      score = Substrate.score_indices (P.weights prob) (Array.length nodes) blocks;
      blocks = List.map (List.map (Array.get nodes)) blocks;
      moves;
    }

  let default_steps prob = Int.max 500 (120 * Array.length (P.active prob))

  let run ?prng ?steps prob ~init kind =
    let init = index_blocks prob init in
    (match steps with
    | Some s when s <= 0 -> invalid_arg "Search.Optimizer.run: steps <= 0"
    | _ -> ());
    let init_score () =
      Substrate.score_indices (P.weights prob) (Array.length (P.nodes prob)) init
    in
    (* descents are monotone from init and annealing keeps the best-seen
       state, but keep the guarantee exact under float accumulation:
       never return below the seed *)
    let at_least_init r =
      if r.score < init_score () then
        mk_result prob r.kind ~label:r.label ~blocks:init ~moves:r.moves
      else r
    in
    match kind with
    | Greedy -> mk_result prob Greedy ~label:"greedy" ~blocks:init ~moves:0
    | Swap ->
      let active = P.active prob in
      let st = state_of_blocks prob init ~spare:(Array.length active) in
      let moves = swap_descent st active in
      at_least_init
        (mk_result prob Swap ~label:"swap"
           ~blocks:(blocks_of ~head:st.head ~next:st.next)
           ~moves)
    | Anneal ->
      let prng = match prng with Some p -> p | None -> Prng.create ~seed:0 in
      let steps = match steps with Some s -> s | None -> default_steps prob in
      let active = P.active prob in
      let st = state_of_blocks prob init ~spare:(Array.length active) in
      let score =
        Substrate.score_indices st.w st.n (List.filter (fun b -> b <> []) init)
      in
      let moves, best_blocks = anneal ~prng ~steps ~score st active in
      at_least_init
        (mk_result prob Anneal ~label:"anneal" ~blocks:best_blocks ~moves)

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
