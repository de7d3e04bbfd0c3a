(* The coherence oracle: a pure, declarative transcription of the protocol
   the flat kernel (coherence.ml) implements, written for reading rather
   than speed.

   Every cache level is a persistent map from resident line to its
   last-use stamp (plus the coherence state, for the coherent L2). True
   LRU is then a definition rather than a data structure: a full set
   evicts its least recently stamped line. The directory is not stored at
   all — the owner is whichever CPU holds the line in M/O/E, the sharers
   are the CPUs holding it in S, and an entry is live exactly while some
   CPU holds the line. Hints, touched bits and residency are keyed by
   plain line numbers, so any non-negative line works (the machine's code
   segment sits at 2^44).

   Copying is O(cpus): the maps are persistent, so only the arrays
   holding them and the statistics are duplicated — the model checker
   copies one spec per explored edge. *)

module IM = Map.Make (Int)
module IS = Set.Make (Int)

type mutation = Read_keeps_modified | Skip_last_invalidation

(* One cache level: every unit (per CPU, or per cell for the LLC) shares
   the geometry; a unit maps each resident line to its payload. *)
type 'a level = { sets : int; ways : int; units : 'a IM.t array }

type hier = { l1 : int level; llc : int level }

type t = {
  topo : Topology.t;
  lsize : int;
  protocol : Coherence.protocol;
  mutate : mutation option;
  l2 : (Cache.state * int) level;  (* line -> state, last use *)
  hier : hier option;
  ic : (int level * int) option;  (* I-cache level and its line size *)
  mutable clock : int;
  mutable hints : (int * int) IM.t IM.t;  (* line -> cpu -> (off, len) *)
  mutable touched : IS.t;
  stats : Sim_stats.t array;
}

let level ~what ~nunits ~lines ~ways =
  let bad fmt = Printf.ksprintf invalid_arg ("Spec.create: " ^^ fmt) in
  if lines <= 0 then bad "%s lines <= 0" what;
  let ways = Option.value ways ~default:lines in
  if ways <= 0 || lines mod ways <> 0 then
    bad "%s ways must divide capacity" what;
  { sets = lines / ways; ways; units = Array.make nunits IM.empty }

let create topo ~line_size ~cache_capacity ?ways ?icache ?hierarchy
    ?(protocol = Coherence.Mesi) ?mutate () =
  if line_size <= 0 then invalid_arg "Spec.create: line_size <= 0";
  let ncpus = Topology.num_cpus topo in
  let hier =
    Option.map
      (fun (h : Coherence.hierarchy) ->
        {
          l1 =
            level ~what:"L1" ~nunits:ncpus ~lines:h.Coherence.h_l1_lines
              ~ways:h.Coherence.h_l1_ways;
          llc =
            level ~what:"LLC" ~nunits:(Topology.num_cells topo)
              ~lines:h.Coherence.h_llc_lines ~ways:h.Coherence.h_llc_ways;
        })
      hierarchy
  in
  let ic =
    Option.map
      (fun (i : Coherence.icache) ->
        if i.Coherence.i_line_size <= 0 then
          invalid_arg "Spec.create: icache line_size <= 0";
        ( level ~what:"icache" ~nunits:ncpus ~lines:i.Coherence.i_lines
            ~ways:i.Coherence.i_ways,
          i.Coherence.i_line_size ))
      icache
  in
  {
    topo;
    lsize = line_size;
    protocol;
    mutate;
    l2 = level ~what:"cache" ~nunits:ncpus ~lines:cache_capacity ~ways;
    hier;
    ic;
    clock = 0;
    hints = IM.empty;
    touched = IS.empty;
    stats = Array.init ncpus (fun _ -> Sim_stats.create ());
  }

let copy t =
  let lv l = { l with units = Array.copy l.units } in
  {
    t with
    l2 = lv t.l2;
    hier = Option.map (fun h -> { l1 = lv h.l1; llc = lv h.llc }) t.hier;
    ic = Option.map (fun (l, size) -> (lv l, size)) t.ic;
    stats = Array.map (fun s -> Sim_stats.sum [ s ]) t.stats;
  }

(* ---------- cache levels ---------- *)

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let resident lv u line = IM.mem line lv.units.(u)
let drop lv u line = lv.units.(u) <- IM.remove line lv.units.(u)

(* The line that must leave to make room for absent [line] in unit [u]:
   the least recently used occupant of its set, when the set is full. *)
let victim lv last_use u line =
  let set = line mod lv.sets in
  let n, v, _ =
    IM.fold
      (fun l x ((n, v, oldest) as acc) ->
        if l mod lv.sets <> set then acc
        else if last_use x < oldest then (n + 1, l, last_use x)
        else (n + 1, v, oldest))
      lv.units.(u) (0, -1, max_int)
  in
  if n >= lv.ways then Some v else None

(* Mark [line] most recently used in a residency-only unit, inserting it
   (and silently evicting the set's LRU line) when absent. *)
let use t lv u line =
  (if not (resident lv u line) then
     match victim lv Fun.id u line with Some v -> drop lv u v | None -> ());
  lv.units.(u) <- IM.add line (tick t) lv.units.(u)

let cpus t = List.init (Array.length t.stats) Fun.id
let cache_state t ~cpu ~line = Option.map fst (IM.find_opt line t.l2.units.(cpu))

(* Setting a state also marks the line most recently used — including the
   owner's downgrade on a remote read. *)
let set_state t cpu line st =
  t.l2.units.(cpu) <- IM.add line (st, tick t) t.l2.units.(cpu)

(* ---------- the derived directory ---------- *)

let holders t ~line = List.filter (fun c -> resident t.l2 c line) (cpus t)

let owner t ~line =
  List.find_opt
    (fun c ->
      match cache_state t ~cpu:c ~line with
      | Some (Cache.Modified | Cache.Owned | Cache.Exclusive) -> true
      | Some Cache.Shared | None -> false)
    (cpus t)

let sharers t ~line =
  List.filter (fun c -> cache_state t ~cpu:c ~line = Some Cache.Shared) (cpus t)

(* ---------- classifier state ---------- *)

let inv_hint t ~cpu ~line = Option.bind (IM.find_opt line t.hints) (IM.find_opt cpu)
let touched t ~line = IS.mem line t.touched

let set_hint t cpu line iv =
  let m = Option.value (IM.find_opt line t.hints) ~default:IM.empty in
  t.hints <- IM.add line (IM.add cpu iv m) t.hints

let clear_hint t cpu line =
  match IM.find_opt line t.hints with
  | None -> ()
  | Some m ->
    let m = IM.remove cpu m in
    t.hints <- (if IM.is_empty m then IM.remove line t.hints else IM.add line m t.hints)

let classify t ~cpu ~line ~off ~size =
  let st = t.stats.(cpu) in
  if not (touched t ~line) then begin
    t.touched <- IS.add line t.touched;
    st.Sim_stats.cold_misses <- st.Sim_stats.cold_misses + 1
  end
  else
    match inv_hint t ~cpu ~line with
    | Some (w_off, w_len) ->
      clear_hint t cpu line;
      if off < w_off + w_len && w_off < off + size then
        st.Sim_stats.true_sharing_misses <- st.Sim_stats.true_sharing_misses + 1
      else
        st.Sim_stats.false_sharing_misses <-
          st.Sim_stats.false_sharing_misses + 1
    | None -> st.Sim_stats.capacity_misses <- st.Sim_stats.capacity_misses + 1

(* ---------- the protocol ---------- *)

let writeback t cpu =
  let st = t.stats.(cpu) in
  st.Sim_stats.writebacks <- st.Sim_stats.writebacks + 1

let l1_resident t ~cpu ~line =
  match t.hier with Some h -> resident h.l1 cpu line | None -> false

let llc_cell t ~line =
  match t.hier with
  | None -> None
  | Some h ->
    List.find_opt
      (fun c -> resident h.llc c line)
      (List.init (Array.length h.llc.units) Fun.id)

(* Remove a line from a CPU's L2, back-invalidating its inclusive L1. *)
let l2_remove t cpu line =
  drop t.l2 cpu line;
  match t.hier with Some h -> drop h.l1 cpu line | None -> ()

(* Place a missing line in the L2 (and the L1 above it). A full set
   evicts its LRU line: dirty victims write back, and a victim whose last
   cached copy just died ends its sharing episode — its hints go, and
   under the hierarchy it drops into the evicting CPU's cell LLC. *)
let insert t cpu line st =
  (match victim t.l2 snd cpu line with
  | None -> ()
  | Some v ->
    (match cache_state t ~cpu ~line:v with
    | Some (Cache.Modified | Cache.Owned) -> writeback t cpu
    | Some (Cache.Exclusive | Cache.Shared) | None -> ());
    l2_remove t cpu v;
    if holders t ~line:v = [] then begin
      t.hints <- IM.remove v t.hints;
      match t.hier with
      | Some h -> use t h.llc (Topology.cell_of t.topo cpu) v
      | None -> ()
    end);
  set_state t cpu line st;
  match t.hier with Some h -> use t h.l1 cpu line | None -> ()

(* Invalidate every copy but the writer's, recording the writer's byte
   interval against each victim. Returns the victims. *)
let invalidate t ~line ~writer iv =
  let victims = List.filter (fun c -> c <> writer) (holders t ~line) in
  let victims =
    match (t.mutate, List.rev victims) with
    | Some Skip_last_invalidation, _ :: rest -> List.rev rest
    | _ -> victims
  in
  List.iter
    (fun v ->
      (match cache_state t ~cpu:v ~line with
      | Some (Cache.Modified | Cache.Owned) -> writeback t v
      | Some (Cache.Exclusive | Cache.Shared) | None -> ());
      l2_remove t v line;
      set_hint t v line iv)
    victims;
  victims

let nearest t cpu srcs =
  List.fold_left
    (fun acc s -> min acc (Topology.transfer_latency t.topo ~src:s ~dst:cpu))
    max_int srcs

(* No L2 holds the line: a cell LLC copy (consumed by the fetch) costs the
   distance to its cell, capped at memory latency; otherwise memory. *)
let memory_fetch t ~cpu ~line =
  let memory = Topology.memory_latency t.topo in
  match (t.hier, llc_cell t ~line) with
  | Some h, Some cell ->
    drop h.llc cell line;
    let st = t.stats.(cpu) in
    if cell = Topology.cell_of t.topo cpu then
      st.Sim_stats.llc_local_hits <- st.Sim_stats.llc_local_hits + 1
    else st.Sim_stats.llc_remote_hits <- st.Sim_stats.llc_remote_hits + 1;
    min (Topology.llc_hit_latency t.topo ~cpu ~cell) memory
  | _ -> memory

(* Data served from the L2 copy (which [set_state] has just marked most
   recently used): l2_hit under the hierarchy, promoting the line into the
   L1; l1_hit on a single-level machine. *)
let l2_hit t cpu line =
  let st = t.stats.(cpu) in
  st.Sim_stats.hits <- st.Sim_stats.hits + 1;
  match t.hier with
  | None -> (Topology.latencies t.topo).Topology.l1_hit
  | Some h ->
    st.Sim_stats.l2_hits <- st.Sim_stats.l2_hits + 1;
    use t h.l1 cpu line;
    Topology.l2_hit_latency t.topo

(* Served by the L1 alone; the L2's recency is left untouched. *)
let l1_hit t cpu line =
  let st = t.stats.(cpu) in
  st.Sim_stats.hits <- st.Sim_stats.hits + 1;
  st.Sim_stats.l1_hits <- st.Sim_stats.l1_hits + 1;
  (match t.hier with Some h -> use t h.l1 cpu line | None -> ());
  (Topology.latencies t.topo).Topology.l1_hit

let read t ~cpu ~line ~off ~size =
  match cache_state t ~cpu ~line with
  | Some _ when l1_resident t ~cpu ~line -> l1_hit t cpu line
  | Some st ->
    set_state t cpu line st;
    l2_hit t cpu line
  | None ->
    classify t ~cpu ~line ~off ~size;
    let latency, st =
      match owner t ~line with
      | Some o ->
        (* The owner supplies the data. MESI: M writes back and drops to
           S; MOESI: M becomes O; E drops to S; O stays O. *)
        (match (cache_state t ~cpu:o ~line, t.protocol) with
        | Some Cache.Modified, _ when t.mutate = Some Read_keeps_modified -> ()
        | Some Cache.Modified, Coherence.Mesi ->
          writeback t o;
          set_state t o line Cache.Shared
        | Some Cache.Modified, Coherence.Moesi -> set_state t o line Cache.Owned
        | Some Cache.Exclusive, _ -> set_state t o line Cache.Shared
        | _ -> ());
        (Topology.transfer_latency t.topo ~src:o ~dst:cpu, Cache.Shared)
      | None -> (
        match sharers t ~line with
        | [] -> (memory_fetch t ~cpu ~line, Cache.Exclusive)
        | shs -> (nearest t cpu shs, Cache.Shared))
    in
    insert t cpu line st;
    latency

let write t ~cpu ~line ~off ~size =
  let inv_latency victims =
    Topology.invalidation_latency t.topo ~writer:cpu ~holders:victims
  in
  let count_invalidations victims =
    let st = t.stats.(cpu) in
    st.Sim_stats.invalidations <- st.Sim_stats.invalidations + List.length victims
  in
  match cache_state t ~cpu ~line with
  | Some Cache.Modified when l1_resident t ~cpu ~line -> l1_hit t cpu line
  | Some (Cache.Modified | Cache.Exclusive) ->
    set_state t cpu line Cache.Modified;
    l2_hit t cpu line
  | Some (Cache.Shared | Cache.Owned) ->
    let st = t.stats.(cpu) in
    st.Sim_stats.upgrades <- st.Sim_stats.upgrades + 1;
    let victims = invalidate t ~line ~writer:cpu (off, size) in
    count_invalidations victims;
    set_state t cpu line Cache.Modified;
    let hit = l2_hit t cpu line in
    max hit (inv_latency victims)
  | None ->
    classify t ~cpu ~line ~off ~size;
    let fetch =
      match (owner t ~line, sharers t ~line) with
      | Some o, _ -> Topology.transfer_latency t.topo ~src:o ~dst:cpu
      | None, [] -> memory_fetch t ~cpu ~line
      | None, shs -> nearest t cpu shs
    in
    let victims = invalidate t ~line ~writer:cpu (off, size) in
    count_invalidations victims;
    insert t cpu line Cache.Modified;
    max fetch (inv_latency victims)

let check_cpu t who cpu =
  if cpu < 0 || cpu >= Array.length t.stats then
    invalid_arg (Printf.sprintf "Spec.%s: cpu %d out of range" who cpu)

let access t ~cpu ~addr ~size ~is_write =
  check_cpu t "access" cpu;
  if size <= 0 then invalid_arg "Spec.access: size <= 0";
  if addr < 0 then invalid_arg "Spec.access: addr < 0";
  let line = addr / t.lsize and off = addr mod t.lsize in
  if off + size > t.lsize then invalid_arg "Spec.access: access straddles a line";
  let st = t.stats.(cpu) in
  if is_write then st.Sim_stats.stores <- st.Sim_stats.stores + 1
  else st.Sim_stats.loads <- st.Sim_stats.loads + 1;
  let latency =
    if is_write then write t ~cpu ~line ~off ~size
    else read t ~cpu ~line ~off ~size
  in
  st.Sim_stats.stall_cycles <- st.Sim_stats.stall_cycles + latency;
  latency

(* Every I-cache line overlapping [addr, addr + size) is fetched: a hit
   costs l1_hit, a miss a memory fetch; victims are dropped (code is
   never dirty, and there is no directory). *)
let ifetch t ~cpu ~addr ~size =
  match t.ic with
  | None -> invalid_arg "Spec.ifetch: no instruction cache configured"
  | Some (lv, isize) ->
    check_cpu t "ifetch" cpu;
    if size <= 0 then invalid_arg "Spec.ifetch: size <= 0";
    if addr < 0 then invalid_arg "Spec.ifetch: addr < 0";
    let st = t.stats.(cpu) in
    let total = ref 0 in
    for line = addr / isize to (addr + size - 1) / isize do
      st.Sim_stats.ifetches <- st.Sim_stats.ifetches + 1;
      if resident lv cpu line then
        total := !total + (Topology.latencies t.topo).Topology.l1_hit
      else begin
        st.Sim_stats.imisses <- st.Sim_stats.imisses + 1;
        total := !total + Topology.memory_latency t.topo
      end;
      use t lv cpu line
    done;
    st.Sim_stats.istall_cycles <- st.Sim_stats.istall_cycles + !total;
    !total

let has_icache t = t.ic <> None

let icache_line_size t =
  match t.ic with
  | Some (_, isize) -> isize
  | None -> invalid_arg "Spec.icache_line_size: no instruction cache"

let icache_resident t ~cpu ~line =
  match t.ic with Some (lv, _) -> resident lv cpu line | None -> false

let has_hierarchy t = t.hier <> None

let num_cells t =
  match t.hier with Some h -> Array.length h.llc.units | None -> 1

let stats t ~cpu = t.stats.(cpu)
