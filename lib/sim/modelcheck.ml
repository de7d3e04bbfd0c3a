(* Exhaustive small-config model checker for the coherence kernel.

   The oracle is the pure spec (spec.ml). Its directory is derived from
   the cache states instead of stored, so several protocol invariants hold
   there by construction, and a kernel whose directory drifts from its
   caches shows up as an introspection mismatch rather than being silently
   mirrored.

   The explorer is plain breadth-first search over canonical packed spec
   states; each edge replays the (minimal, BFS-tree) witness prefix on the
   kernel from scratch and demands latency, per-CPU statistics, cache
   states, directory view, classifier hints, touched bits and L1/LLC
   residency all agree with the spec. Witness replay per edge is quadratic
   in depth, but the accepted configs are tiny (<= 62 bits of state). *)

module Flat_tab = Slo_util.Flat_tab

type topo_kind = Bus | Superdome

type config = {
  mc_protocol : Coherence.protocol;
  mc_topo : topo_kind;
  mc_cpus : int;
  mc_lines : int;
  mc_capacity : int;
  mc_ways : int;
  mc_offsets : int list;
  mc_line_size : int;
  mc_hierarchy : Coherence.hierarchy option;
}

let config ?(protocol = Coherence.Mesi) ?(topo = Bus) ?(cpus = 2) ?(lines = 2)
    ?(capacity = 2) ?(ways = 2) ?(offsets = [ 0; 8 ]) ?(line_size = 128)
    ?hierarchy () =
  {
    mc_protocol = protocol;
    mc_topo = topo;
    mc_cpus = cpus;
    mc_lines = lines;
    mc_capacity = capacity;
    mc_ways = ways;
    mc_offsets = offsets;
    mc_line_size = line_size;
    mc_hierarchy = hierarchy;
  }

let ways_of lines = Option.value ~default:lines

let config_name c =
  Printf.sprintf "%s/%s/k%d/m%d/c%dw%d%s"
    (match c.mc_protocol with Coherence.Mesi -> "mesi" | Coherence.Moesi -> "moesi")
    (match c.mc_topo with Bus -> "bus" | Superdome -> "sdome")
    c.mc_cpus c.mc_lines c.mc_capacity c.mc_ways
    (match c.mc_hierarchy with
    | None -> ""
    | Some h ->
      Printf.sprintf "/L1c%dw%d/LLCc%dw%d" h.Coherence.h_l1_lines
        (ways_of h.Coherence.h_l1_lines h.Coherence.h_l1_ways)
        h.Coherence.h_llc_lines
        (ways_of h.Coherence.h_llc_lines h.Coherence.h_llc_ways))

type step = { v_cpu : int; v_line : int; v_off : int; v_write : bool }

exception Violation of { vmsg : string; vtrace : step list }

type mutation = Spec.mutation = Read_keeps_modified | Skip_last_invalidation

type report = {
  r_states : int;
  r_transitions : int;
  r_max_depth : int;
  r_max_frontier : int;
  r_oracle_traces : int;
}

(* Every model access is [acc_size] bytes; with offsets 8 bytes apart two
   accesses overlap iff they share an offset, giving a clean true/false
   sharing split. *)
let acc_size = 8

let make_topo cfg =
  match cfg.mc_topo with
  | Bus -> Topology.bus ~cpus:cfg.mc_cpus ()
  | Superdome -> Topology.superdome ~cpus:cfg.mc_cpus ()

let fresh_spec ?mutate cfg topo =
  Spec.create topo ~line_size:cfg.mc_line_size ~cache_capacity:cfg.mc_capacity
    ~ways:cfg.mc_ways ?hierarchy:cfg.mc_hierarchy ~protocol:cfg.mc_protocol
    ?mutate ()

let addr_of cfg s = (s.v_line * cfg.mc_line_size) + s.v_off

let spec_step cfg sp s =
  Spec.access sp ~cpu:s.v_cpu ~addr:(addr_of cfg s) ~size:acc_size
    ~is_write:s.v_write

let state_name = function
  | None -> "I"
  | Some Cache.Modified -> "M"
  | Some Cache.Owned -> "O"
  | Some Cache.Exclusive -> "E"
  | Some Cache.Shared -> "S"

(* Global protocol invariants over a spec state. [last] is the step that
   produced the state, for the write postcondition ("no stale dirty copy
   after an invalidating write"). Returns the first violation. *)
let spec_check cfg sp ~last =
  let result = ref None in
  let fail fmt = Format.kasprintf (fun m -> if !result = None then result := Some m) fmt in
  for line = 0 to cfg.mc_lines - 1 do
    let owners = ref [] and resident = ref 0 in
    for cpu = 0 to cfg.mc_cpus - 1 do
      let c = Spec.cache_state sp ~cpu ~line in
      if c <> None then incr resident;
      (match c with
      | Some (Cache.Modified | Cache.Owned | Cache.Exclusive) ->
        owners := cpu :: !owners
      | Some Cache.Shared | None -> ());
      if c = Some Cache.Owned && cfg.mc_protocol = Coherence.Mesi then
        fail "line %d: cpu %d holds Owned under MESI" line cpu;
      if Spec.l1_resident sp ~cpu ~line && c = None then
        fail "line %d: cpu %d holds it in L1 but not in L2" line cpu
    done;
    (match !owners with
    | [] | [ _ ] -> ()
    | l -> fail "line %d: multiple M/E/O holders (%d)" line (List.length l));
    (match !owners with
    | [ o ] -> (
      match Spec.cache_state sp ~cpu:o ~line with
      | Some (Cache.Modified | Cache.Exclusive) as c when !resident > 1 ->
        fail "line %d: cpu %d holds %s but other copies exist" line o
          (state_name c)
      | _ -> ())
    | _ -> ());
    let live = !resident > 0 in
    for cpu = 0 to cfg.mc_cpus - 1 do
      if Spec.inv_hint sp ~cpu ~line <> None then begin
        if not live then
          fail "line %d: hint for cpu %d outlives the directory entry" line cpu;
        if not (Spec.touched sp ~line) then
          fail "line %d: hint for cpu %d on an untouched line" line cpu
      end
    done;
    if live && not (Spec.touched sp ~line) then
      fail "line %d: cached but untouched" line;
    if live && Spec.llc_cell sp ~line <> None then
      fail "line %d: in a cell LLC while cached" line
  done;
  (match last with
  | Some { v_cpu; v_line; v_write = true; _ } ->
    if Spec.cache_state sp ~cpu:v_cpu ~line:v_line <> Some Cache.Modified then
      fail "after write: cpu %d does not hold line %d in M" v_cpu v_line;
    for cpu = 0 to cfg.mc_cpus - 1 do
      if cpu <> v_cpu && Spec.cache_state sp ~cpu ~line:v_line <> None then
        fail "after write by cpu %d: stale copy of line %d at cpu %d" v_cpu
          v_line cpu
    done
  | _ -> ());
  !result

(* ---------- canonical packing ---------- *)

let off_index cfg off =
  let rec go i = function
    | [] -> invalid_arg "Modelcheck: unknown offset"
    | o :: _ when o = off -> i
    | _ :: tl -> go (i + 1) tl
  in
  go 0 cfg.mc_offsets

let state_code = function
  | None -> 0
  | Some Cache.Modified -> 1
  | Some Cache.Owned -> 2
  | Some Cache.Exclusive -> 3
  | Some Cache.Shared -> 4

(* Bits to encode 0..n. *)
let bits_for n =
  let rec go b = if 1 lsl b > n then b else go (b + 1) in
  go 0

(* Per (cpu, line): 3 bits of state code, 2 of pending-hint code (0 =
   none, 1 + offset index otherwise) and, under the hierarchy, 1 of L1
   residency; per line: 1 touched bit and, under the hierarchy, the LLC
   cell code (0 = none, 1 + cell). LRU recency is not packed: validation
   only admits geometries where it is unobservable. *)
let layout_bits cfg =
  match cfg.mc_hierarchy with
  | None -> (5, 1)
  | Some _ -> (6, 1 + bits_for (Topology.num_cells (make_topo cfg)))

let pack cfg sp =
  let hier = cfg.mc_hierarchy <> None in
  let _, line_bits = layout_bits cfg in
  let acc = ref 0 in
  let push bits v = acc := (!acc lsl bits) lor v in
  for cpu = 0 to cfg.mc_cpus - 1 do
    for line = 0 to cfg.mc_lines - 1 do
      push 3 (state_code (Spec.cache_state sp ~cpu ~line));
      push 2
        (match Spec.inv_hint sp ~cpu ~line with
        | None -> 0
        | Some (off, _) -> 1 + off_index cfg off);
      if hier then push 1 (Bool.to_int (Spec.l1_resident sp ~cpu ~line))
    done
  done;
  for line = 0 to cfg.mc_lines - 1 do
    push 1 (Bool.to_int (Spec.touched sp ~line));
    if hier then
      push (line_bits - 1)
        (match Spec.llc_cell sp ~line with None -> 0 | Some c -> 1 + c)
  done;
  !acc

(* ---------- config validation ---------- *)

(* Whether [lines] model lines fit a level without any eviction: the
   fullest set holds ceil(lines / sets) of them. *)
let evict_free ~capacity ~ways lines =
  let sets = capacity / ways in
  (lines + sets - 1) / sets <= ways

let validate cfg =
  let fail fmt = Format.kasprintf invalid_arg fmt in
  if cfg.mc_cpus < 2 then fail "Modelcheck: need >= 2 CPUs";
  if cfg.mc_lines < 1 then fail "Modelcheck: need >= 1 line";
  if cfg.mc_line_size <= 0 then fail "Modelcheck: line_size <= 0";
  if cfg.mc_capacity < 1 then fail "Modelcheck: capacity < 1";
  if cfg.mc_ways < 1 || cfg.mc_capacity mod cfg.mc_ways <> 0 then
    fail "Modelcheck: ways must divide capacity";
  if cfg.mc_offsets = [] then fail "Modelcheck: no offsets";
  if List.length (List.sort_uniq compare cfg.mc_offsets)
     <> List.length cfg.mc_offsets
  then fail "Modelcheck: duplicate offsets";
  if List.length cfg.mc_offsets > 3 then
    fail "Modelcheck: at most 3 offsets (2-bit hint code)";
  List.iter
    (fun o ->
      if o < 0 || o + acc_size > cfg.mc_line_size then
        fail "Modelcheck: offset %d out of line" o)
    cfg.mc_offsets;
  let deterministic what ~capacity ~ways =
    if ways <> 1 && not (evict_free ~capacity ~ways cfg.mc_lines) then
      fail
        "Modelcheck: %s geometry makes LRU choice observable (need ways = 1 \
         or an eviction-free cache)"
        what
  in
  deterministic "cache" ~capacity:cfg.mc_capacity ~ways:cfg.mc_ways;
  (match cfg.mc_hierarchy with
  | None -> ()
  | Some h ->
    let level what lines ways =
      let ways = ways_of lines ways in
      if lines < 1 || ways < 1 || lines mod ways <> 0 then
        fail "Modelcheck: bad %s geometry" what;
      deterministic what ~capacity:lines ~ways
    in
    level "L1" h.Coherence.h_l1_lines h.Coherence.h_l1_ways;
    level "LLC" h.Coherence.h_llc_lines h.Coherence.h_llc_ways);
  let per_pair, per_line = layout_bits cfg in
  let bits = (cfg.mc_cpus * cfg.mc_lines * per_pair) + (cfg.mc_lines * per_line) in
  if bits > 62 then fail "Modelcheck: %d bits of packed state (max 62)" bits

(* ---------- trace replay (spec only; drives shrinking and tests) ---------- *)

let spec_violation ?mutate cfg trace =
  validate cfg;
  let sp = fresh_spec ?mutate cfg (make_topo cfg) in
  let rec go = function
    | [] -> None
    | s :: tl -> (
      ignore (spec_step cfg sp s);
      match spec_check cfg sp ~last:(Some s) with
      | Some _ as v -> v
      | None -> go tl)
  in
  go trace

(* Greedy 1-minimal shrinking: repeatedly drop any single step whose
   removal preserves the violation, until no single removal does. *)
let shrink ~still_fails trace =
  let rec pass tr =
    let n = List.length tr in
    let rec try_at i =
      if i >= n then tr
      else
        let cand = List.filteri (fun j _ -> j <> i) tr in
        if still_fails cand then pass cand else try_at (i + 1)
    in
    try_at 0
  in
  pass trace

(* ---------- kernel conformance ---------- *)

(* Replay [trace] on a fresh kernel and compare its end state (and the
   last access's latency, unless [expected_lat] is negative) against the
   spec. *)
let conform cfg topo trace sp expected_lat =
  let c =
    Coherence.create topo ~line_size:cfg.mc_line_size
      ~cache_capacity:cfg.mc_capacity ~ways:cfg.mc_ways
      ?hierarchy:cfg.mc_hierarchy ~protocol:cfg.mc_protocol ()
  in
  let last_lat = ref (-1) in
  List.iter
    (fun s ->
      last_lat :=
        Coherence.access c ~cpu:s.v_cpu ~addr:(addr_of cfg s) ~size:acc_size
          ~is_write:s.v_write)
    trace;
  let result = ref None in
  let put fmt =
    Format.kasprintf (fun m -> if !result = None then result := Some m) fmt
  in
  if expected_lat >= 0 && !last_lat <> expected_lat then
    put "kernel latency %d, spec charged %d for this transition" !last_lat
      expected_lat;
  (try Coherence.check_invariants c with Invalid_argument m -> put "%s" m);
  for cpu = 0 to cfg.mc_cpus - 1 do
    if Coherence.stats c ~cpu <> Spec.stats sp ~cpu then
      put "cpu %d stats: kernel %a, spec %a" cpu Sim_stats.pp
        (Coherence.stats c ~cpu) Sim_stats.pp (Spec.stats sp ~cpu);
    for line = 0 to cfg.mc_lines - 1 do
      let got = Coherence.cache_state c ~cpu ~line
      and want = Spec.cache_state sp ~cpu ~line in
      if got <> want then
        put "cpu %d line %d: kernel state %s, spec %s" cpu line
          (state_name got) (state_name want);
      if Coherence.inv_hint c ~cpu ~line <> Spec.inv_hint sp ~cpu ~line then
        put "cpu %d line %d: hint disagrees with spec" cpu line;
      if Coherence.l1_resident c ~cpu ~line <> Spec.l1_resident sp ~cpu ~line
      then put "cpu %d line %d: L1 residency disagrees with spec" cpu line
    done
  done;
  for line = 0 to cfg.mc_lines - 1 do
    if Coherence.owner c ~line <> Spec.owner sp ~line then
      put "line %d: directory owner disagrees with spec" line;
    if Coherence.sharers c ~line <> Spec.sharers sp ~line then
      put "line %d: sharer set disagrees with spec" line;
    if Coherence.holders c ~line <> Spec.holders sp ~line then
      put "line %d: holder set disagrees with spec" line;
    if Coherence.touched c ~line <> Spec.touched sp ~line then
      put "line %d: touched bit disagrees with spec" line;
    if Coherence.llc_cell c ~line <> Spec.llc_cell sp ~line then
      put "line %d: LLC cell disagrees with spec" line
  done;
  !result

(* Replay a whole trace doing spec + conformance checks at every step —
   the predicate the shrinker uses for conformance violations, so the
   minimized witness still demonstrates a real disagreement. *)
let trace_violation cfg topo trace =
  let sp = fresh_spec cfg topo in
  let rec go done_rev = function
    | [] -> None
    | s :: tl -> (
      let lat = spec_step cfg sp s in
      let done_rev = s :: done_rev in
      match spec_check cfg sp ~last:(Some s) with
      | Some _ as v -> v
      | None -> (
        match conform cfg topo (List.rev done_rev) sp lat with
        | Some _ as v -> v
        | None -> go done_rev tl))
  in
  go [] trace

(* ---------- the oracle cross-check ---------- *)

let oracle_agrees cfg trace sp =
  let resolve addr =
    Some
      ( "MC",
        0,
        Printf.sprintf "f%d_%d" (addr / cfg.mc_line_size)
          (addr mod cfg.mc_line_size),
        0 )
  in
  let events =
    List.mapi
      (fun i s ->
        {
          Machine.t_cpu = s.v_cpu;
          t_itc = i;
          t_addr = addr_of cfg s;
          t_size = acc_size;
          t_is_write = s.v_write;
        })
      trace
  in
  let o = Trace_oracle.analyze ~resolve ~line_size:cfg.mc_line_size events in
  let sum f =
    List.fold_left
      (fun acc cpu -> acc + f (Spec.stats sp ~cpu))
      0
      (List.init cfg.mc_cpus Fun.id)
  in
  let want_t = sum (fun s -> s.Sim_stats.true_sharing_misses)
  and want_f = sum (fun s -> s.Sim_stats.false_sharing_misses) in
  let got_t = Trace_oracle.total_true_sharing o
  and got_f = Trace_oracle.total_false_sharing o in
  if got_t <> want_t || got_f <> want_f then
    Some
      (Printf.sprintf
         "trace oracle: true/false sharing %d/%d, coherence classifier %d/%d"
         got_t got_f want_t want_f)
  else None

(* ---------- exploration ---------- *)

type node = { n_parent : int; n_action : int; n_depth : int; n_spec : Spec.t }

let run ?mutate ?(max_states = 200_000) cfg =
  validate cfg;
  let topo = make_topo cfg in
  let noffs = List.length cfg.mc_offsets in
  let offs = Array.of_list cfg.mc_offsets in
  let nact = cfg.mc_cpus * cfg.mc_lines * noffs * 2 in
  let actions =
    Array.init nact (fun i ->
        let w = i land 1 in
        let i = i lsr 1 in
        let oi = i mod noffs in
        let i = i / noffs in
        let line = i mod cfg.mc_lines in
        let cpu = i / cfg.mc_lines in
        { v_cpu = cpu; v_line = line; v_off = offs.(oi); v_write = w = 1 })
  in
  let check_kernel = mutate = None in
  let oracle_on =
    check_kernel
    && evict_free ~capacity:cfg.mc_capacity ~ways:cfg.mc_ways cfg.mc_lines
  in
  let nodes : (int, node) Hashtbl.t = Hashtbl.create 1024 in
  let visited = Flat_tab.create ~capacity:1024 () in
  let queue = Queue.create () in
  let nstates = ref 0 in
  let max_depth = ref 0 in
  let max_frontier = ref 0 in
  let oracle_traces = ref 0 in
  let prefix_of id =
    let rec go id acc =
      if id = 0 then acc
      else
        let n = Hashtbl.find nodes id in
        go n.n_parent (actions.(n.n_action) :: acc)
    in
    go id []
  in
  let violate id action msg =
    let trace = prefix_of id @ match action with None -> [] | Some a -> [ a ] in
    let still_fails tr =
      match mutate with
      | Some _ -> spec_violation ?mutate cfg tr <> None
      | None -> trace_violation cfg topo tr <> None
    in
    let trace = if still_fails trace then shrink ~still_fails trace else trace in
    raise (Violation { vmsg = msg; vtrace = trace })
  in
  let add_state parent action sp =
    let key = pack cfg sp in
    if Flat_tab.find visited key ~default:(-1) < 0 then begin
      let id = !nstates in
      incr nstates;
      if !nstates > max_states then
        invalid_arg "Modelcheck.run: max_states exceeded";
      Flat_tab.set visited key id;
      let depth =
        if id = 0 then 0 else (Hashtbl.find nodes parent).n_depth + 1
      in
      Hashtbl.replace nodes id
        { n_parent = parent; n_action = action; n_depth = depth; n_spec = sp };
      if depth > !max_depth then max_depth := depth;
      Queue.add id queue;
      let q = Queue.length queue in
      if q > !max_frontier then max_frontier := q
    end
  in
  let transitions = ref 0 in
  let initial = fresh_spec ?mutate cfg topo in
  (* The initial state: nothing cached, nothing touched — still worth one
     conformance pass so a kernel with dirty create-time state fails. *)
  (if check_kernel then
     match conform cfg topo [] initial (-1) with
     | Some msg -> violate 0 None msg
     | None -> ());
  add_state (-1) (-1) initial;
  while not (Queue.is_empty queue) do
    let id = Queue.pop queue in
    let n = Hashtbl.find nodes id in
    let prefix = prefix_of id in
    (if oracle_on && id > 0 then begin
       incr oracle_traces;
       match oracle_agrees cfg prefix n.n_spec with
       | Some msg -> violate id None msg
       | None -> ()
     end);
    for a = 0 to nact - 1 do
      incr transitions;
      let sp = Spec.copy n.n_spec in
      let lat = spec_step cfg sp actions.(a) in
      (match spec_check cfg sp ~last:(Some actions.(a)) with
      | Some msg -> violate id (Some actions.(a)) msg
      | None -> ());
      (if check_kernel then
         match conform cfg topo (prefix @ [ actions.(a) ]) sp lat with
         | Some msg -> violate id (Some actions.(a)) msg
         | None -> ());
      add_state id a sp
    done
  done;
  let module Obs = Slo_obs.Obs in
  Obs.incr "sim.mc.runs";
  Obs.incr ~by:!nstates "sim.mc.states";
  Obs.incr ~by:!transitions "sim.mc.transitions";
  Obs.set_gauge "sim.mc.depth" (float_of_int !max_depth);
  Obs.set_gauge "sim.mc.max_frontier" (float_of_int !max_frontier);
  {
    r_states = !nstates;
    r_transitions = !transitions;
    r_max_depth = !max_depth;
    r_max_frontier = !max_frontier;
    r_oracle_traces = !oracle_traces;
  }

(* ---------- the pinned suite ---------- *)

(* Exact reachable-state counts per configuration, measured once and pinned:
   a protocol change that alters the reachable set shows up as a count
   drift here even if it violates no invariant. *)
let standard_suite =
  let direct_mapped_levels =
    {
      Coherence.h_l1_lines = 1;
      h_l1_ways = Some 1;
      h_llc_lines = 1;
      h_llc_ways = Some 1;
    }
  in
  [
    (* eviction-free, fully associative: lines evolve independently (the
       counts are perfect squares of the per-line state count) *)
    (config ~protocol:Coherence.Mesi ~topo:Bus (), 100);
    (config ~protocol:Coherence.Moesi ~topo:Bus (), 144);
    (* same protocol state space, hierarchical latency model *)
    (config ~protocol:Coherence.Mesi ~topo:Superdome ~ways:1 (), 100);
    (config ~protocol:Coherence.Moesi ~topo:Superdome ~ways:1 (), 144);
    (* three-CPU sharer sets on one line *)
    (config ~protocol:Coherence.Mesi ~cpus:3 ~lines:1 ~capacity:1 ~ways:1 (), 41);
    (config ~protocol:Coherence.Moesi ~cpus:3 ~lines:1 ~capacity:1 ~ways:1 (), 56);
    (* capacity 1: every second line fetch evicts — exercises writeback on
       eviction, directory-entry death and hint dropping *)
    (config ~protocol:Coherence.Mesi ~capacity:1 ~ways:1 (), 69);
    (config ~protocol:Coherence.Moesi ~capacity:1 ~ways:1 (), 85);
    (* the multi-level hierarchy, direct-mapped at every level: L1
       filtering and back-invalidation, victim-LLC fill on directory-entry
       death and consumption on refetch *)
    ( config ~protocol:Coherence.Mesi ~lines:3 ~ways:1 ~offsets:[ 0 ]
        ~hierarchy:direct_mapped_levels (),
      988 );
    ( config ~protocol:Coherence.Moesi ~lines:3 ~ways:1 ~offsets:[ 0 ]
        ~hierarchy:direct_mapped_levels (),
      1838 );
  ]
