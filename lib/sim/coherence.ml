(* Flat, allocation-free memory-system kernel. Its oracle is the pure
   declarative spec in spec.ml: the differential suites in
   test/test_simkern.ml and the exhaustive model checker (modelcheck.ml)
   hold the two to identical latencies, stats, cache states, directory
   views and L1/LLC residency. A protocol change lands in both. *)

module Flat_tab = Slo_util.Flat_tab

type protocol = Mesi | Moesi

(* Cache-line states, packed into the low 2 bits of a slot word. *)
let st_m = 0 (* Modified *)
let st_o = 1 (* Owned (MOESI only) *)
let st_e = 2 (* Exclusive *)
let st_s = 3 (* Shared *)

let state_of_code c =
  if c = st_m then Cache.Modified
  else if c = st_o then Cache.Owned
  else if c = st_e then Cache.Exclusive
  else Cache.Shared

(* Sharer sets are bitmasks over 62-bit words: OCaml's native int has 63
   usable bits and keeping to 62 leaves every mask word non-negative, so
   machines up to 62 CPUs run on single-word arithmetic and larger ones
   (the Superdome's 128) take the same code over (cpus + 61) / 62 words. *)
let bpw = 62

(* Index of the lowest set bit of a non-zero 32-bit word, by de Bruijn
   multiplication: the isolated bit times the sequence 0x077CB531 puts a
   distinct 5-bit pattern in the top five of the low 32 bits. *)
let debruijn =
  let tbl = Array.make 32 0 in
  for i = 0 to 31 do
    tbl.((((1 lsl i) * 0x077CB531) land 0xFFFFFFFF) lsr 27) <- i
  done;
  tbl

let lowest_bit w = debruijn.((((w land -w) * 0x077CB531) land 0xFFFFFFFF) lsr 27)

(* Index of the lowest set bit of a mask word, 32 bits at a time: a shift
   loop took 18 % of the kernel's time on SDET superdome-64. *)
let bit_index m =
  if m land 0xFFFFFFFF <> 0 then lowest_bit m else 32 + lowest_bit (m lsr 32)

(* Instruction-cache geometry. The I-cache is private per CPU and
   coherence-free (code is read-only), so it is a residency-only level:
   no states, no directory. *)
type icache = { i_lines : int; i_ways : int option; i_line_size : int }

(* Multi-level hierarchy geometry: a private per-CPU L1 residency filter
   in front of the coherent L2 below, plus one shared victim LLC per
   topology cell. Line size is inherited from the L2. *)
type hierarchy = {
  h_l1_lines : int;
  h_l1_ways : int option;
  h_llc_lines : int;
  h_llc_ways : int option;
}

(* Dense line ids: the kernel numbers lines 0, 1, 2, ... in the order it
   first sees them, in one id space for data lines and one for I-cache
   lines, and every per-line table below is an array indexed by id. Real
   line numbers are read only at the API boundary, for set indices and by
   introspection. The capacity of every table is the length of
   [line_of]. *)
type space = {
  ids : Flat_tab.t; (* real line -> id *)
  mutable line_of : int array; (* id -> real line *)
  mutable n : int; (* ids handed out *)
}

(* One set-associative true-LRU cache level serving [nunits] units: per
   CPU for the coherent L2, the L1 filter and the I-cache, per cell for
   the shared victim LLC. Slot index s = ((unit * nsets) + set) * nways +
   way. slots.(s) packs [id lsl 2 lor state]; -1 = empty, and the
   residency-only levels store state 0. nxt/prv link the slots of a set
   into a true-LRU chain (head = MRU, tail = victim); empty slots are
   chained through nxt from free. head/tail/fill/free are indexed by
   sb = unit * nsets + set. where.(id * nunits + unit) is the line's slot
   in that unit, or -1. A line's set is its real line mod nsets, so
   placement and eviction do not depend on the order ids were handed
   out. *)
type level = {
  nunits : int;
  nsets : int;
  nways : int;
  space : space;
  slots : int array;
  nxt : int array;
  prv : int array;
  head : int array;
  tail : int array;
  fill : int array;
  free : int array;
  mutable where : int array;
}

let make_level ~what ~space ~nunits ~lines ~ways =
  let bad fmt = Printf.ksprintf invalid_arg ("Coherence.create: " ^^ fmt) in
  if lines <= 0 then bad "%s lines <= 0" what;
  let nways = match ways with Some w -> w | None -> lines in
  if nways <= 0 then bad "%s ways <= 0" what;
  if lines mod nways <> 0 then bad "%s ways must divide capacity" what;
  let nsets = lines / nways in
  let nslots = nunits * lines in
  let l =
    {
      nunits;
      nsets;
      nways;
      space;
      slots = Array.make nslots (-1);
      nxt = Array.make nslots (-1);
      prv = Array.make nslots (-1);
      head = Array.make (nunits * nsets) (-1);
      tail = Array.make (nunits * nsets) (-1);
      fill = Array.make (nunits * nsets) 0;
      free = Array.make (nunits * nsets) (-1);
      where = [||];
    }
  in
  (* Chain every way of every set onto its free list. *)
  for sb = 0 to (nunits * nsets) - 1 do
    let base = sb * nways in
    for w = 0 to nways - 1 do
      l.nxt.(base + w) <- (if w = nways - 1 then -1 else base + w + 1)
    done;
    l.free.(sb) <- base
  done;
  l

(* ---------- cache-level primitives ---------- *)

(* Fully-associative units (the common L1 shape) have one set, and
   [mod 1] would still cost a hardware divide on the per-access path. *)
let[@inline] set_base l u id =
  if l.nsets = 1 then u else (u * l.nsets) + (l.space.line_of.(id) mod l.nsets)

(* Slot of line [id] in unit [u], or -1. *)
let[@inline] find l u id = l.where.((id * l.nunits) + u)

let unlink l sb s =
  let p = l.prv.(s) and n = l.nxt.(s) in
  if p >= 0 then l.nxt.(p) <- n else l.head.(sb) <- n;
  if n >= 0 then l.prv.(n) <- p else l.tail.(sb) <- p;
  l.prv.(s) <- -1;
  l.nxt.(s) <- -1;
  l.fill.(sb) <- l.fill.(sb) - 1

let push_front l sb s =
  let h = l.head.(sb) in
  l.nxt.(s) <- h;
  l.prv.(s) <- -1;
  if h >= 0 then l.prv.(h) <- s else l.tail.(sb) <- s;
  l.head.(sb) <- s;
  l.fill.(sb) <- l.fill.(sb) + 1

(* Miss path: evict the set's LRU tail if full and reuse its slot, place
   line [id] in [state], mark it MRU. Returns the victim's slot word, or
   -1 if the set had room. *)
let insert l u id state =
  let sb = set_base l u id in
  let s =
    if l.fill.(sb) >= l.nways then begin
      let v = l.tail.(sb) in
      unlink l sb v;
      l.where.(((l.slots.(v) asr 2) * l.nunits) + u) <- -1;
      v
    end
    else begin
      let s = l.free.(sb) in
      l.free.(sb) <- l.nxt.(s);
      s
    end
  in
  let vw = l.slots.(s) in
  l.slots.(s) <- (id lsl 2) lor state;
  push_front l sb s;
  l.where.((id * l.nunits) + u) <- s;
  vw

(* Mark MRU with the slot already in hand. Already-MRU slots stay put:
   moving the head is observationally a no-op, and repeat hits on one
   line are the common case. *)
let touch l u id s =
  let sb = set_base l u id in
  if l.head.(sb) <> s then begin
    unlink l sb s;
    push_front l sb s
  end

(* Drop a line; returns whether it was present. *)
let remove l u id =
  let s = find l u id in
  if s >= 0 then begin
    let sb = set_base l u id in
    unlink l sb s;
    l.slots.(s) <- -1;
    l.nxt.(s) <- l.free.(sb);
    l.free.(sb) <- s;
    l.where.((id * l.nunits) + u) <- -1
  end;
  s >= 0

(* Iterate unit [u]'s resident (id, slot) pairs. *)
let iter_unit l u f =
  let base = u * l.nsets * l.nways in
  for s = base to base + (l.nsets * l.nways) - 1 do
    if l.slots.(s) >= 0 then f (l.slots.(s) asr 2) s
  done

(* Hierarchy state: per-CPU L1 filters, per-cell victim LLCs, and the cell
   holding each LLC-resident line (at most one, by exclusivity). *)
type hier = {
  hl1 : level;
  hllc : level;
  ncells : int;
  cellof : int array; (* cpu -> cell *)
  mutable h_where : int array; (* id -> holding cell, or -1 *)
}

type t = {
  topo : Topology.t;
  lsize : int;
  moesi : bool;
  ncpus : int;
  data : space;
  code : space; (* I-cache line ids *)
  l2 : level; (* the coherent per-CPU caches; states in the slot words *)
  (* Directory, one row per line id: owner.(id) = CPU holding M/E/O, -1
     when none, [no_entry] when the line has no directory entry; sharers
     holds the S-state holders as nwords mask words per id. *)
  nwords : int;
  mutable owner : int array;
  mutable sharers : int array;
  (* Classifier state: hints.(id * ncpus + cpu) = packed interval
     (off * (lsize + 1) + size), or -1; touched.(id) once the line was
     fetched. *)
  mutable hints : int array;
  mutable touched : bool array;
  stats : Sim_stats.t array;
  (* Scratch for invalidate_others: victim count and max invalidation
     latency of the last call (returning a tuple would allocate). *)
  mutable iv_count : int;
  mutable iv_lat : int;
  (* Kernel health, surfaced as sim.kernel.* observability counters. *)
  mutable dir_live : int;
  mutable dir_peak : int;
  mutable hint_drops : int;
  mutable llc_fills : int;
  ic : (level * int) option; (* the I-cache and its line size *)
  hx : hier option;
}

let no_entry = -2

let create topo ~line_size ~cache_capacity ?ways ?icache ?hierarchy
    ?(protocol = Mesi) () =
  if line_size <= 0 then invalid_arg "Coherence.create: line_size <= 0";
  let ncpus = Topology.num_cpus topo in
  let space () = { ids = Flat_tab.create (); line_of = [||]; n = 0 } in
  let data = space () and code = space () in
  let l2 = make_level ~what:"cache" ~space:data ~nunits:ncpus ~lines:cache_capacity ~ways in
  let hx =
    Option.map
      (fun h ->
        let ncells = Topology.num_cells topo in
        {
          hl1 =
            make_level ~what:"L1" ~space:data ~nunits:ncpus ~lines:h.h_l1_lines
              ~ways:h.h_l1_ways;
          hllc =
            make_level ~what:"LLC" ~space:data ~nunits:ncells
              ~lines:h.h_llc_lines ~ways:h.h_llc_ways;
          ncells;
          cellof = Array.init ncpus (Topology.cell_of topo);
          h_where = [||];
        })
      hierarchy
  in
  let ic =
    Option.map
      (fun { i_lines; i_ways; i_line_size } ->
        if i_line_size <= 0 then
          invalid_arg "Coherence.create: icache line_size <= 0";
        ( make_level ~what:"icache" ~space:code ~nunits:ncpus ~lines:i_lines
            ~ways:i_ways,
          i_line_size ))
      icache
  in
  {
    topo;
    lsize = line_size;
    moesi = protocol = Moesi;
    ncpus;
    data;
    code;
    l2;
    nwords = (ncpus + bpw - 1) / bpw;
    owner = [||]; sharers = [||]; hints = [||]; touched = [||]; (* sized by [resize] *)
    stats = Array.init ncpus (fun _ -> Sim_stats.create ());
    iv_count = 0; iv_lat = 0;
    dir_live = 0; dir_peak = 0; hint_drops = 0; llc_fills = 0;
    ic;
    hx;
  }

let line_size t = t.lsize
let topology t = t.topo
let protocol t = if t.moesi then Moesi else Mesi

(* ---------- line ids ---------- *)

(* [a] extended to [len] cells, the new ones [fill]. *)
let extend a len fill =
  let b = Array.make len fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Grow every table indexed by [sp]'s ids to [cap] ids. Tables are
   id-major, so a grown table keeps every row where it was. *)
let resize t sp cap =
  let grow l = l.where <- extend l.where (cap * l.nunits) (-1) in
  sp.line_of <- extend sp.line_of cap (-1);
  if sp == t.code then Option.iter (fun (ic, _) -> grow ic) t.ic
  else begin
    grow t.l2;
    t.owner <- extend t.owner cap no_entry;
    t.sharers <- extend t.sharers (cap * t.nwords) 0;
    t.hints <- extend t.hints (cap * t.ncpus) (-1);
    t.touched <- extend t.touched cap false;
    match t.hx with
    | Some h -> grow h.hl1; grow h.hllc; h.h_where <- extend h.h_where cap (-1)
    | None -> ()
  end

let intern_in t sp line =
  if line < 0 then invalid_arg "Coherence.intern: line < 0";
  let id = Flat_tab.find sp.ids line ~default:(-1) in
  if id >= 0 then id
  else begin
    let id = sp.n in
    if id = Array.length sp.line_of then resize t sp (max 16 (2 * id));
    sp.line_of.(id) <- line;
    sp.n <- id + 1;
    Flat_tab.set sp.ids line id;
    id
  end

let intern t ~line = intern_in t t.data line
let intern_code t ~line = intern_in t t.code line

let reserve t ~lines ~code_lines =
  let size sp n =
    if n > Array.length sp.line_of then resize t sp n;
    Flat_tab.reserve sp.ids n
  in
  size t.data lines;
  size t.code code_lines

(* The id of a line already seen, or -1: introspection never interns. Its
   CPUs come from outside and must be checked: an id-major table would
   answer for a neighbouring line's row. *)
let lookup sp line = Flat_tab.find sp.ids line ~default:(-1)

let lookup_at t sp ~cpu line =
  if cpu < 0 || cpu >= t.ncpus then
    invalid_arg (Printf.sprintf "Coherence: cpu %d out of range" cpu);
  lookup sp line

(* ---------- coherent-cache primitives ---------- *)

let cache_state_code t cpu id =
  let s = find t.l2 cpu id in
  if s < 0 then -1 else t.l2.slots.(s) land 3

(* Update the state bits of a resident line and mark it MRU, in one
   lookup. *)
let cache_set_state t cpu id code =
  let l2 = t.l2 in
  let s = find l2 cpu id in
  l2.slots.(s) <- l2.slots.(s) land lnot 3 lor code;
  touch l2 cpu id s

(* Drop a line (no-op when absent). Removing a line from the
   L2 back-invalidates the CPU's L1 filter: the L1 is strictly inclusive,
   so an L1 copy may never outlive its L2 line. *)
let cache_remove t cpu id =
  if remove t.l2 cpu id then
    match t.hx with Some h -> ignore (remove h.hl1 cpu id : bool) | None -> ()

(* ---------- directory rows ---------- *)

(* Open the line's directory entry if it has none. *)
let open_entry t id =
  if t.owner.(id) = no_entry then begin
    t.owner.(id) <- -1;
    t.dir_live <- t.dir_live + 1;
    if t.dir_live > t.dir_peak then t.dir_peak <- t.dir_live
  end

(* The line's last cached copy is gone: the sharing episode is over, so any
   pending invalidation hints are stale — a later miss on the line is a
   capacity (or cold) miss, not a sharing miss. Dropping them here is the
   fix for the classifier-staleness bug (see the regression test). *)
let remove_entry t id =
  for k = id * t.ncpus to ((id + 1) * t.ncpus) - 1 do
    if t.hints.(k) >= 0 then begin
      t.hints.(k) <- -1;
      t.hint_drops <- t.hint_drops + 1
    end
  done;
  t.owner.(id) <- no_entry;
  t.dir_live <- t.dir_live - 1

let add_sharer t id cpu =
  let i = (id * t.nwords) + (cpu / bpw) in
  t.sharers.(i) <- t.sharers.(i) lor (1 lsl (cpu mod bpw))

let remove_sharer t id cpu =
  let i = (id * t.nwords) + (cpu / bpw) in
  t.sharers.(i) <- t.sharers.(i) land lnot (1 lsl (cpu mod bpw))

let sharer_mem t id cpu =
  t.sharers.((id * t.nwords) + (cpu / bpw)) land (1 lsl (cpu mod bpw)) <> 0

let sharers_empty t id =
  let rec go w =
    w >= t.nwords || (t.sharers.((id * t.nwords) + w) = 0 && go (w + 1))
  in
  go 0

let clear_sharers t id =
  for w = 0 to t.nwords - 1 do
    t.sharers.((id * t.nwords) + w) <- 0
  done

(* ---------- classifier state ---------- *)

let set_hint t id cpu off size =
  t.hints.((id * t.ncpus) + cpu) <- (off * (t.lsize + 1)) + size

let count_writeback t cpu =
  t.stats.(cpu).Sim_stats.writebacks <- t.stats.(cpu).Sim_stats.writebacks + 1

(* ---------- victim LLC (exclusive of the L2 layer) ----------

   A line enters a cell's LLC only at the moment its last L2 copy dies
   (the directory entry is removed), and is consumed again by the next L2
   fill. So an LLC-resident line has, by construction, no cached copy and
   no directory entry anywhere: it can never be stale and never needs
   invalidation traffic. Exclusivity also means at most one cell holds a
   line, which is what lets [h_where] be a single id -> cell index. *)

let llc_fill t h ~cell ~id =
  let v = insert h.hllc cell id 0 in
  if v >= 0 then h.h_where.(v asr 2) <- -1;
  h.h_where.(id) <- cell;
  t.llc_fills <- t.llc_fills + 1

let llc_consume h ~cell ~id =
  ignore (remove h.hllc cell id : bool);
  h.h_where.(id) <- -1

(* Reconcile an evicted victim with the directory: dirty victims write
   back, and the entry dies with the line's last cached copy. *)
let note_eviction t cpu vid vst =
  open_entry t vid;
  (if vst = st_m || vst = st_o then begin
     count_writeback t cpu;
     if t.owner.(vid) = cpu then t.owner.(vid) <- -1
   end
   else if vst = st_e then begin
     if t.owner.(vid) = cpu then t.owner.(vid) <- -1
   end
   else remove_sharer t vid cpu);
  if t.owner.(vid) = -1 && sharers_empty t vid then remove_entry t vid

(* Evict the set's LRU tail if full, place the new line, then
   reconcile the victim with the directory. Under the multi-level
   hierarchy the victim also leaves this CPU's L1 (inclusion), drops into
   the evicting CPU's cell LLC if its last cached copy just died, and the
   new line is promoted into the L1 filter. *)
let insert_line t cpu id code =
  let w = insert t.l2 cpu id code in
  (if w >= 0 then begin
     let vid = w asr 2 in
     note_eviction t cpu vid (w land 3);
     match t.hx with
     | Some h ->
       ignore (remove h.hl1 cpu vid : bool);
       if t.owner.(vid) = no_entry then llc_fill t h ~cell:h.cellof.(cpu) ~id:vid
     | None -> ()
   end);
  (* The new line was just absent from the L2, so by inclusion it cannot
     be L1-resident: promote is a plain insert, no lookup needed. *)
  match t.hx with
  | Some h -> ignore (insert h.hl1 cpu id 0 : int)
  | None -> ()

(* Walk one sharer-mask word invalidating everyone but the writer,
   accumulating victim count and worst invalidation latency into the
   scratch fields (Topology.invalidation_latency, without building the
   holder list). *)
let rec invalidate_word t id writer off size w m =
  if m <> 0 then begin
    let s = (w * bpw) + bit_index (m land -m) in
    if s <> writer then begin
      cache_remove t s id;
      set_hint t id s off size;
      t.iv_count <- t.iv_count + 1;
      t.iv_lat <- max t.iv_lat (Topology.transfer_latency t.topo ~src:writer ~dst:s)
    end;
    invalidate_word t id writer off size w (m land (m - 1))
  end

(* Invalidate every copy but the writer's, recording the writer's byte
   interval as each victim's hint; results land in iv_count / iv_lat. *)
let invalidate_others t ~id ~writer ~off ~size =
  open_entry t id;
  t.iv_count <- 0;
  t.iv_lat <- 0;
  let o = t.owner.(id) in
  if o >= 0 && o <> writer then begin
    let c = cache_state_code t o id in
    if c = st_m || c = st_o then count_writeback t o;
    cache_remove t o id;
    set_hint t id o off size;
    t.iv_count <- t.iv_count + 1;
    t.iv_lat <- max t.iv_lat (Topology.transfer_latency t.topo ~src:writer ~dst:o);
    t.owner.(id) <- -1
  end;
  for w = 0 to t.nwords - 1 do
    invalidate_word t id writer off size w t.sharers.((id * t.nwords) + w)
  done;
  (* e.sharers <- List.filter (fun s -> s = writer) e.sharers *)
  let ww = writer / bpw in
  for w = 0 to t.nwords - 1 do
    let idx = (id * t.nwords) + w in
    t.sharers.(idx) <-
      t.sharers.(idx) land (if w = ww then 1 lsl (writer mod bpw) else 0)
  done

(* Classify a miss as cold, capacity, or true/false sharing by the pending
   hint, which the miss consumes. *)
let classify_miss t ~cpu ~id ~off ~size =
  let st = t.stats.(cpu) in
  (* [touched] only advances here: a hit means the line is cached, and a
     line only enters a cache through a miss that already ran this
     classifier — so the per-access set in [access] would be redundant. *)
  if not t.touched.(id) then begin
    t.touched.(id) <- true;
    st.Sim_stats.cold_misses <- st.Sim_stats.cold_misses + 1
  end
  else begin
    let key = (id * t.ncpus) + cpu in
    let h = t.hints.(key) in
    if h >= 0 then begin
      t.hints.(key) <- -1;
      let w_off = h / (t.lsize + 1) and w_len = h mod (t.lsize + 1) in
      let overlap = off < w_off + w_len && w_off < off + size in
      if overlap then
        st.Sim_stats.true_sharing_misses <- st.Sim_stats.true_sharing_misses + 1
      else
        st.Sim_stats.false_sharing_misses <- st.Sim_stats.false_sharing_misses + 1
    end
    else st.Sim_stats.capacity_misses <- st.Sim_stats.capacity_misses + 1
  end

(* Nearest sharer: min transfer latency from any sharer to [cpu]. *)
let rec nearest_word t cpu best w m =
  if m = 0 then best
  else
    let s = (w * bpw) + bit_index (m land -m) in
    let d = Topology.transfer_latency t.topo ~src:s ~dst:cpu in
    nearest_word t cpu (min best d) w (m land (m - 1))

let nearest_sharer t id cpu =
  let rec go w best =
    if w >= t.nwords then best
    else go (w + 1) (nearest_word t cpu best w t.sharers.((id * t.nwords) + w))
  in
  go 0 max_int

let lat t = Topology.latencies t.topo

(* Memory-arm fetch: no L2 anywhere holds the line, so probe the victim
   LLCs before going to memory. An LLC hit consumes the copy (the line
   re-enters an L2, so the exclusive LLC must give it up) and costs the
   topological distance to the holding cell, capped at the memory latency
   — memory can always serve in parallel with a farther remote cell. *)
let memory_fetch t ~cpu ~id =
  match t.hx with
  | None -> Topology.memory_latency t.topo
  | Some h ->
    let cell = h.h_where.(id) in
    if cell < 0 then Topology.memory_latency t.topo
    else begin
      llc_consume h ~cell ~id;
      let st = t.stats.(cpu) in
      (if cell = h.cellof.(cpu) then
         st.Sim_stats.llc_local_hits <- st.Sim_stats.llc_local_hits + 1
       else st.Sim_stats.llc_remote_hits <- st.Sim_stats.llc_remote_hits + 1);
      min
        (Topology.llc_hit_latency t.topo ~cpu ~cell)
        (Topology.memory_latency t.topo)
    end

(* Cost of an access served by the private L2: l2_hit under the hierarchy
   (the L1 was missed), the flat l1_hit cost otherwise. Also promotes the
   line into the L1 filter so the next access hits there. [l1s] is the
   line's L1 slot if the caller already looked it up (-1 when absent or
   no hierarchy), so the promote never re-probes. *)
let l2_hit_cost t cpu id ~l1s =
  match t.hx with
  | Some h ->
    let st = t.stats.(cpu) in
    st.Sim_stats.l2_hits <- st.Sim_stats.l2_hits + 1;
    if l1s >= 0 then touch h.hl1 cpu id l1s
    else ignore (insert h.hl1 cpu id 0 : int);
    Topology.l2_hit_latency t.topo
  | None -> (lat t).Topology.l1_hit

(* ---------- protocol ---------- *)

let read t ~cpu ~id ~off ~size =
  let st = t.stats.(cpu) in
  let l1s = match t.hx with Some h -> find h.hl1 cpu id | None -> -1 in
  if l1s >= 0 then begin
    (* L1 filter hit: inclusion guarantees an L2 copy in some readable
       state, so the access completes entirely in the private L1. The L2
       LRU is deliberately not touched — a real L1 shields it. *)
    (match t.hx with Some h -> touch h.hl1 cpu id l1s | None -> assert false);
    st.Sim_stats.hits <- st.Sim_stats.hits + 1;
    st.Sim_stats.l1_hits <- st.Sim_stats.l1_hits + 1;
    (lat t).Topology.l1_hit
  end
  else begin
    let s = find t.l2 cpu id in
    if s >= 0 then begin
      touch t.l2 cpu id s;
      st.Sim_stats.hits <- st.Sim_stats.hits + 1;
      l2_hit_cost t cpu id ~l1s
    end
    else begin
      classify_miss t ~cpu ~id ~off ~size;
      open_entry t id;
      let latency =
        let o = t.owner.(id) in
        if o >= 0 then begin
          (* Owner supplies the data cache-to-cache. MESI: M downgrades to S
             with a writeback; MOESI: M downgrades to O, deferring the
             writeback; E downgrades to S (clean); O stays O. *)
          let c = cache_state_code t o id in
          if c = st_m then
            if not t.moesi then begin
              count_writeback t o;
              cache_set_state t o id st_s;
              t.owner.(id) <- -1;
              add_sharer t id o
            end
            else cache_set_state t o id st_o
          else if c = st_e then begin
            cache_set_state t o id st_s;
            t.owner.(id) <- -1;
            add_sharer t id o
          end
          else if c = st_o then ()
          else
            (* Directory said owner but cache disagrees: repair. *)
            t.owner.(id) <- -1;
          add_sharer t id cpu;
          Topology.transfer_latency t.topo ~src:o ~dst:cpu
        end
        else if not (sharers_empty t id) then begin
          let nearest = nearest_sharer t id cpu in
          add_sharer t id cpu;
          nearest
        end
        else begin
          (* No cached copy anywhere: LLC probe or memory fetch, Exclusive. *)
          t.owner.(id) <- cpu;
          memory_fetch t ~cpu ~id
        end
      in
      let code = if t.owner.(id) = cpu then st_e else st_s in
      insert_line t cpu id code;
      latency
    end
  end

let write t ~cpu ~id ~off ~size =
  let st = t.stats.(cpu) in
  let l1s = match t.hx with Some h -> find h.hl1 cpu id | None -> -1 in
  let l2 = t.l2 in
  let s = find l2 cpu id in
  if l1s >= 0 && s >= 0 && l2.slots.(s) land 3 = st_m then begin
    (* The only write the L1 filter can absorb alone: the line is already
       Modified, so no directory action or state change is needed. Every
       other L1-resident write (E silent upgrade, S/O upgrade) must reach
       the L2, where the coherence state lives. *)
    (match t.hx with Some h -> touch h.hl1 cpu id l1s | None -> assert false);
    st.Sim_stats.hits <- st.Sim_stats.hits + 1;
    st.Sim_stats.l1_hits <- st.Sim_stats.l1_hits + 1;
    (lat t).Topology.l1_hit
  end
  else begin
    if s >= 0 then begin
      let c = l2.slots.(s) land 3 in
      if c = st_m then begin
        touch l2 cpu id s;
        st.Sim_stats.hits <- st.Sim_stats.hits + 1;
        l2_hit_cost t cpu id ~l1s
      end
      else if c = st_e then begin
        (* Silent E->M upgrade. *)
        l2.slots.(s) <- l2.slots.(s) land lnot 3 lor st_m;
        touch l2 cpu id s;
        open_entry t id;
        t.owner.(id) <- cpu;
        st.Sim_stats.hits <- st.Sim_stats.hits + 1;
        l2_hit_cost t cpu id ~l1s
      end
      else begin
        (* S or O. Upgrade: invalidate every other copy; we have the data. *)
        st.Sim_stats.hits <- st.Sim_stats.hits + 1;
        st.Sim_stats.upgrades <- st.Sim_stats.upgrades + 1;
        invalidate_others t ~id ~writer:cpu ~off ~size;
        st.Sim_stats.invalidations <- st.Sim_stats.invalidations + t.iv_count;
        t.owner.(id) <- cpu;
        clear_sharers t id;
        (* invalidate_others can't evict this CPU's copy, so slot s stands. *)
        l2.slots.(s) <- l2.slots.(s) land lnot 3 lor st_m;
        touch l2 cpu id s;
        max (l2_hit_cost t cpu id ~l1s) t.iv_lat
      end
    end
    else begin
      classify_miss t ~cpu ~id ~off ~size;
      open_entry t id;
      let fetch_latency =
        let o = t.owner.(id) in
        if o >= 0 then Topology.transfer_latency t.topo ~src:o ~dst:cpu
        else if not (sharers_empty t id) then
          (* Data can come from a sharer; invalidations proceed in parallel;
             pay the farther of the two below. *)
          nearest_sharer t id cpu
        else memory_fetch t ~cpu ~id
      in
      invalidate_others t ~id ~writer:cpu ~off ~size;
      st.Sim_stats.invalidations <- st.Sim_stats.invalidations + t.iv_count;
      let inv_lat = t.iv_lat in
      t.owner.(id) <- cpu;
      clear_sharers t id;
      insert_line t cpu id st_m;
      max fetch_latency inv_lat
    end
  end

let access_id t ~cpu ~id ~off ~size ~is_write =
  if id < 0 || id >= t.data.n then
    invalid_arg (Printf.sprintf "Coherence.access_id: unknown id %d" id);
  if off + size > t.lsize then
    invalid_arg
      (Printf.sprintf
         "Coherence.access: access at %d size %d straddles a %d-byte line"
         ((t.data.line_of.(id) * t.lsize) + off)
         size t.lsize);
  let st = t.stats.(cpu) in
  if is_write then st.Sim_stats.stores <- st.Sim_stats.stores + 1
  else st.Sim_stats.loads <- st.Sim_stats.loads + 1;
  let latency =
    if is_write then write t ~cpu ~id ~off ~size else read t ~cpu ~id ~off ~size
  in
  st.Sim_stats.stall_cycles <- st.Sim_stats.stall_cycles + latency;
  latency

let access t ~cpu ~addr ~size ~is_write =
  if cpu < 0 || cpu >= t.ncpus then
    invalid_arg (Printf.sprintf "Coherence.access: cpu %d out of range" cpu);
  if size <= 0 then invalid_arg "Coherence.access: size <= 0";
  if addr < 0 then invalid_arg "Coherence.access: addr < 0";
  access_id t ~cpu ~id:(intern t ~line:(addr / t.lsize)) ~off:(addr mod t.lsize)
    ~size ~is_write

(* ---------- instruction fetch ---------- *)

let has_icache t = t.ic <> None

let icache_line_size t =
  match t.ic with
  | None -> invalid_arg "Coherence.icache_line_size: no instruction cache"
  | Some (_, isize) -> isize

(* Fetch I-cache lines [first..last] by id. Hits cost l1_hit, misses a
   memory fetch; there is no cache-to-cache path (code is read-only and
   clean everywhere, so memory is always as close as any peer). *)
let ifetch_ids t ~cpu ~first ~last =
  match t.ic with
  | None -> invalid_arg "Coherence.ifetch_ids: no instruction cache configured"
  | Some (ic, _) ->
    if first < 0 || last >= t.code.n then
      invalid_arg (Printf.sprintf "Coherence.ifetch_ids: unknown ids %d..%d" first last);
    let st = t.stats.(cpu) in
    let total = ref 0 in
    for id = first to last do
      st.Sim_stats.ifetches <- st.Sim_stats.ifetches + 1;
      let s = find ic cpu id in
      if s >= 0 then begin
        touch ic cpu id s;
        total := !total + (lat t).Topology.l1_hit
      end
      else begin
        st.Sim_stats.imisses <- st.Sim_stats.imisses + 1;
        ignore (insert ic cpu id 0 : int);
        total := !total + Topology.memory_latency t.topo
      end
    done;
    st.Sim_stats.istall_cycles <- st.Sim_stats.istall_cycles + !total;
    !total

(* Fetch the instruction bytes [addr, addr + size): every I-cache line the
   range overlaps is fetched, line by line. *)
let ifetch t ~cpu ~addr ~size =
  let isize =
    match t.ic with
    | Some (_, isize) -> isize
    | None -> invalid_arg "Coherence.ifetch: no instruction cache configured"
  in
  if cpu < 0 || cpu >= t.ncpus then
    invalid_arg (Printf.sprintf "Coherence.ifetch: cpu %d out of range" cpu);
  if size <= 0 then invalid_arg "Coherence.ifetch: size <= 0";
  if addr < 0 then invalid_arg "Coherence.ifetch: addr < 0";
  let total = ref 0 in
  for line = addr / isize to (addr + size - 1) / isize do
    let id = intern_code t ~line in
    total := !total + ifetch_ids t ~cpu ~first:id ~last:id
  done;
  !total

let icache_resident t ~cpu ~line =
  match t.ic with
  | None -> false
  | Some (ic, _) ->
    let id = lookup_at t t.code ~cpu line in
    id >= 0 && find ic cpu id >= 0

let stats t ~cpu = t.stats.(cpu)
let total_stats t = Sim_stats.sum (Array.to_list t.stats)

(* ---------- introspection (cold paths; allocation is fine here) ---------- *)

let owner t ~line =
  let id = lookup t.data line in
  if id < 0 || t.owner.(id) < 0 then None else Some t.owner.(id)

let fold_mask_cpus t base f init =
  (* fold over the set bits of the nwords-word mask starting at [base] *)
  let acc = ref init in
  for w = 0 to t.nwords - 1 do
    let m = ref t.sharers.(base + w) in
    while !m <> 0 do
      acc := f !acc ((w * bpw) + bit_index (!m land - !m));
      m := !m land (!m - 1)
    done
  done;
  !acc

(* A line without an entry has an empty mask and no owner, so these need
   no entry test. *)
let sharers t ~line =
  let id = lookup t.data line in
  if id < 0 then []
  else List.rev (fold_mask_cpus t (id * t.nwords) (fun acc c -> c :: acc) [])

let holders t ~line =
  let base = sharers t ~line in
  let all = match owner t ~line with Some o -> o :: base | None -> base in
  List.sort_uniq compare all

let cache_state t ~cpu ~line =
  let id = lookup_at t t.data ~cpu line in
  let c = if id < 0 then -1 else cache_state_code t cpu id in
  if c < 0 then None else Some (state_of_code c)

let inv_hint t ~cpu ~line =
  let id = lookup_at t t.data ~cpu line in
  let h = if id < 0 then -1 else t.hints.((id * t.ncpus) + cpu) in
  if h < 0 then None else Some (h / (t.lsize + 1), h mod (t.lsize + 1))

let touched t ~line =
  let id = lookup t.data line in
  id >= 0 && t.touched.(id)

let has_hierarchy t = t.hx <> None

let l1_resident t ~cpu ~line =
  let id = lookup_at t t.data ~cpu line in
  match t.hx with None -> false | Some h -> id >= 0 && find h.hl1 cpu id >= 0

let llc_cell t ~line =
  let id = lookup t.data line in
  match t.hx with
  | Some h when id >= 0 && h.h_where.(id) >= 0 -> Some h.h_where.(id)
  | Some _ | None -> None

let num_cells t = match t.hx with None -> 1 | Some h -> h.ncells

type kstats = {
  k_dir_live : int;
  k_dir_peak : int;
  k_hint_drops : int;
  k_probe_steps : int;
  k_llc_fills : int;
}

let kstats t =
  {
    k_dir_live = t.dir_live;
    k_dir_peak = t.dir_peak;
    k_hint_drops = t.hint_drops;
    k_probe_steps =
      Flat_tab.probe_steps t.data.ids + Flat_tab.probe_steps t.code.ids;
    k_llc_fills = t.llc_fills;
  }

(* ---------- invariants ---------- *)

let check_invariants t =
  let fail fmt = Format.kasprintf invalid_arg fmt in
  let state_name c =
    if c < 0 then "nothing"
    else
      match state_of_code c with
      | Cache.Modified -> "M"
      | Cache.Owned -> "O"
      | Cache.Exclusive -> "E"
      | Cache.Shared -> "S"
  in
  (* Id spaces: ids are dense, and id -> line -> id round-trips. *)
  List.iter
    (fun sp ->
      if Flat_tab.length sp.ids <> sp.n then fail "Coherence invariant: ids are not dense";
      for id = 0 to sp.n - 1 do
        if lookup sp sp.line_of.(id) <> id then fail "Coherence invariant: id %d is lost" id
      done)
    [ t.data; t.code ];
  let line id = t.data.line_of.(id) in
  for id = 0 to t.data.n - 1 do
    let o = t.owner.(id) in
    (* Directory -> caches *)
    (if o >= 0 then begin
       (match cache_state_code t o id with
       | c when c = st_m || c = st_e ->
         if not (sharers_empty t id) then
           fail "Coherence invariant: line %d has M/E owner %d and sharers"
             (line id) o
       | c when c = st_o ->
         if not t.moesi then
           fail "Coherence invariant: Owned state under MESI (line %d)" (line id)
       | c ->
         fail "Coherence invariant: owner %d of line %d holds %s" o (line id)
           (state_name c));
       if sharer_mem t id o then
         fail "Coherence invariant: owner %d of line %d is in the sharer mask" o
           (line id)
     end);
    ignore
      (fold_mask_cpus t (id * t.nwords)
         (fun () s ->
           if cache_state_code t s id <> st_s then
             fail "Coherence invariant: sharer %d of line %d holds %s" s
               (line id)
               (state_name (cache_state_code t s id)))
         ());
    (* Every pending hint belongs to a live entry (the staleness fix
       keeps this exact), and a line without an entry has no sharers. *)
    if o = no_entry then begin
      for cpu = 0 to t.ncpus - 1 do
        if t.hints.((id * t.ncpus) + cpu) >= 0 then
          fail "Coherence invariant: hint for cpu %d on dead line %d" cpu
            (line id)
      done;
      if not (sharers_empty t id) then
        fail "Coherence invariant: line %d has sharers but no entry" (line id)
    end
  done;
  (* Level representation (L2, I-cache, L1 filter, victim LLC): the slot
     lookup and the slot words agree and sit in their unit and set,
     residency-only levels hold state 0, LRU chains and fill counts
     agree, chained slots are found by lookup, live + free slots account
     for every way of every set. *)
  let check_level ?(states = false) what l =
    let sp = l.space in
    for u = 0 to l.nunits - 1 do
      for id = 0 to sp.n - 1 do
        let s = find l u id in
        let w = if s >= 0 then l.slots.(s) else 0 in
        if
          s >= 0
          && (w < 0 || w asr 2 <> id || ((not states) && w land 3 <> 0)
             || s / (l.nsets * l.nways) <> u
             || s / l.nways mod l.nsets <> sp.line_of.(id) mod l.nsets)
        then
          fail "Coherence invariant: %s line %d of unit %d misplaced in slot %d"
            what sp.line_of.(id) u s
      done;
      for set = 0 to l.nsets - 1 do
        let sb = (u * l.nsets) + set in
        let n = ref 0 in
        let s = ref l.head.(sb) in
        let prev = ref (-1) in
        while !s >= 0 do
          incr n;
          if !n > l.nways then
            fail "Coherence invariant: %s LRU chain longer than ways" what;
          if l.prv.(!s) <> !prev then
            fail "Coherence invariant: %s LRU back-link broken at slot %d" what
              !s;
          let id = l.slots.(!s) asr 2 in
          if id < 0 || id >= sp.n || find l u id <> !s then
            fail "Coherence invariant: chained %s slot %d not found" what !s;
          prev := !s;
          s := l.nxt.(!s)
        done;
        if l.tail.(sb) <> !prev then
          fail "Coherence invariant: %s LRU tail mismatch (unit %d set %d)" what
            u set;
        if !n <> l.fill.(sb) then
          fail "Coherence invariant: %s fill %d but %d chained (unit %d)" what
            l.fill.(sb) !n u;
        let fr = ref 0 in
        let s = ref l.free.(sb) in
        while !s >= 0 do
          incr fr;
          if !fr > l.nways then
            fail "Coherence invariant: %s free chain cycle" what;
          if l.slots.(!s) <> -1 then
            fail "Coherence invariant: free %s slot %d holds a line" what !s;
          s := l.nxt.(!s)
        done;
        if !n + !fr <> l.nways then
          fail "Coherence invariant: %d live + %d free %s slots != %d ways" !n
            !fr what l.nways
      done
    done
  in
  check_level ~states:true "cache" t.l2;
  (* Caches -> directory: every cached line is tracked, M/E/O holders own
     it, S holders are in the sharer mask. *)
  for cpu = 0 to t.ncpus - 1 do
    iter_unit t.l2 cpu (fun id s ->
        if t.owner.(id) = no_entry then
          fail "Coherence invariant: line %d cached but not in directory"
            (line id);
        let c = t.l2.slots.(s) land 3 in
        if c = st_m || c = st_e || c = st_o then begin
          if t.owner.(id) <> cpu then
            fail "Coherence invariant: cpu %d holds line %d in %s but is not owner"
              cpu (line id) (state_name c)
        end
        else if not (sharer_mem t id cpu) then
          fail "Coherence invariant: cpu %d holds line %d in S but is not a sharer"
            cpu (line id))
  done;
  (match t.ic with None -> () | Some (ic, _) -> check_level "icache" ic);
  match t.hx with
  | None -> ()
  | Some h ->
    check_level "L1" h.hl1;
    check_level "LLC" h.hllc;
    (* L1 inclusion: every L1-resident line has a live L2 copy. *)
    for cpu = 0 to t.ncpus - 1 do
      iter_unit h.hl1 cpu (fun id _ ->
          if find t.l2 cpu id < 0 then
            fail "Coherence invariant: L1 line %d of cpu %d not in L2" (line id)
              cpu)
    done;
    (* LLC exclusivity: a resident line has no directory entry (so it can
       never be stale), and the id -> cell index matches residency
       exactly in both directions. *)
    for id = 0 to t.data.n - 1 do
      let held = h.h_where.(id) in
      for cell = 0 to h.ncells - 1 do
        if (find h.hllc cell id >= 0) <> (held = cell) then
          fail "Coherence invariant: LLC index and residency disagree on line %d" (line id)
      done;
      if held >= h.ncells || (held >= 0 && t.owner.(id) <> no_entry) then
        fail "Coherence invariant: LLC line %d in cell %d has a directory entry or no cell"
          (line id) held
    done
