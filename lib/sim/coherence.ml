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

(* Index of the (single) set bit of [b]. Sharer masks are sparse and only
   walked on misses, so a plain shift loop beats a de Bruijn table here. *)
let bit_index b =
  let rec go i p = if p = b then i else go (i + 1) (p lsl 1) in
  go 0 1

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

(* One set-associative true-LRU cache level serving [nunits] units: per
   CPU for the coherent L2, the L1 filter and the I-cache, per cell for
   the shared victim LLC. Slot index s = ((unit * nsets) + set) * nways +
   way. slots.(s) packs [line lsl 2 lor state]; -1 = empty, and the
   residency-only levels store state 0. nxt/prv link the slots of a set
   into a true-LRU chain (head = MRU, tail = victim); empty slots are
   chained through nxt from free. head/tail/fill/free are indexed by
   sb = unit * nsets + set. *)
type level = {
  nsets : int;
  nways : int;
  scan : bool; (* narrow sets: look lines up by walking the set's chain *)
  slots : int array;
  nxt : int array;
  prv : int array;
  head : int array;
  tail : int array;
  fill : int array;
  free : int array;
  where : Flat_tab.t array; (* per unit: line -> slot index; hashed mode *)
}

(* Sets of at most this many ways are probed by walking their slot words
   directly instead of through the per-unit hash table: a handful of int
   compares beats a multiply + probe chain, and eviction churn stops
   paying the table's backward-shift deletes. The tiny L1 filters (and
   direct-mapped I-caches) live on the access fast path, so this is where
   the multi-level throughput gate is won. *)
let scan_ways_max = 16

let make_level ~what ~nunits ~lines ~ways =
  let bad fmt = Printf.ksprintf invalid_arg ("Coherence.create: " ^^ fmt) in
  if lines <= 0 then bad "%s lines <= 0" what;
  let nways = match ways with Some w -> w | None -> lines in
  if nways <= 0 then bad "%s ways <= 0" what;
  if lines mod nways <> 0 then bad "%s ways must divide capacity" what;
  let nsets = lines / nways in
  let nslots = nunits * lines in
  let scan = nways <= scan_ways_max in
  let l =
    {
      nsets;
      nways;
      scan;
      slots = Array.make nslots (-1);
      nxt = Array.make nslots (-1);
      prv = Array.make nslots (-1);
      head = Array.make (nunits * nsets) (-1);
      tail = Array.make (nunits * nsets) (-1);
      fill = Array.make (nunits * nsets) 0;
      free = Array.make (nunits * nsets) (-1);
      where =
        (if scan then [||]
         else
           Array.init nunits (fun _ ->
               Flat_tab.create ~capacity:(min (2 * lines) 8192) ()));
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
let[@inline] set_base l u line =
  if l.nsets = 1 then u else (u * l.nsets) + (line mod l.nsets)

(* Scan mode walks the set's LRU chain MRU-first: hits are temporally
   clustered at the front (the head alone absorbs most of them), and a
   miss only traverses the live fill, never the free slots. Kept out of
   [find] so that [find] inlines into every caller: the hashed branch
   stays one table probe, with no call in front of it. *)
let scan_find l u line =
  let s = ref l.head.(set_base l u line) in
  while !s >= 0 && l.slots.(!s) asr 2 <> line do
    s := l.nxt.(!s)
  done;
  !s

(* Slot of [line] in unit [u], or -1. *)
let[@inline] find l u line =
  if l.scan then scan_find l u line
  else Flat_tab.find l.where.(u) line ~default:(-1)

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
   [line] in [state], mark it MRU. Returns the victim's slot word, or -1
   if the set had room. *)
let insert l u line state =
  let sb = set_base l u line in
  let w = (line lsl 2) lor state in
  if l.fill.(sb) >= l.nways then begin
    let v = l.tail.(sb) in
    let vw = l.slots.(v) in
    unlink l sb v;
    l.slots.(v) <- w;
    push_front l sb v;
    if not l.scan then begin
      Flat_tab.remove l.where.(u) (vw asr 2);
      Flat_tab.set l.where.(u) line v
    end;
    vw
  end
  else begin
    let s = l.free.(sb) in
    l.free.(sb) <- l.nxt.(s);
    l.slots.(s) <- w;
    push_front l sb s;
    if not l.scan then Flat_tab.set l.where.(u) line s;
    -1
  end

(* Mark MRU with the slot already in hand. Already-MRU slots stay put:
   moving the head is observationally a no-op, and repeat hits on one
   line are the common case. *)
let touch l u line s =
  let sb = set_base l u line in
  if l.head.(sb) <> s then begin
    unlink l sb s;
    push_front l sb s
  end

(* Drop a line; returns whether it was present. *)
let remove l u line =
  let s = find l u line in
  if s >= 0 then begin
    let sb = set_base l u line in
    unlink l sb s;
    l.slots.(s) <- -1;
    l.nxt.(s) <- l.free.(sb);
    l.free.(sb) <- s;
    if not l.scan then Flat_tab.remove l.where.(u) line
  end;
  s >= 0

(* Iterate unit [u]'s resident (line, slot) pairs in either mode. *)
let iter_unit l u f =
  if l.scan then begin
    let base = u * l.nsets * l.nways in
    for s = base to base + (l.nsets * l.nways) - 1 do
      if l.slots.(s) >= 0 then f (l.slots.(s) asr 2) s
    done
  end
  else Flat_tab.iter l.where.(u) f

(* Hierarchy state: the L1 filter is unit-per-CPU, the victim LLC is
   unit-per-cell, and [h_where] indexes the (at most one, by exclusivity)
   cell holding each LLC-resident line so the memory path probes in O(1). *)
type hier = {
  hl1 : level;
  hllc : level;
  ncells : int;
  cellof : int array; (* cpu -> cell *)
  h_where : Flat_tab.t; (* line -> holding cell *)
}

type t = {
  topo : Topology.t;
  lsize : int;
  moesi : bool;
  ncpus : int;
  l2 : level; (* the coherent per-CPU caches; states in the slot words *)
  (* Directory: line -> pool entry index; entries are rows of the parallel
     growable arrays below. owner.(e) = CPU holding M/E/O, or -1. sharers
     and hintm hold nwords mask words per entry: the S-state holders and
     the CPUs with a pending invalidation hint on the line. *)
  dir : Flat_tab.t;
  nwords : int;
  mutable owner : int array;
  mutable sharers : int array;
  mutable hintm : int array;
  mutable nentries : int;
  mutable freelist : int array;
  mutable nfree : int;
  (* Classifier state: hints is (line * ncpus + cpu) -> packed interval
     (off * (lsize + 1) + size); touched is line -> 1. *)
  hints : Flat_tab.t;
  touched : Flat_tab.t;
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

let create topo ~line_size ~cache_capacity ?ways ?icache ?hierarchy
    ?(protocol = Mesi) () =
  if line_size <= 0 then invalid_arg "Coherence.create: line_size <= 0";
  let ncpus = Topology.num_cpus topo in
  let l2 = make_level ~what:"cache" ~nunits:ncpus ~lines:cache_capacity ~ways in
  let hx =
    Option.map
      (fun h ->
        let ncells = Topology.num_cells topo in
        {
          hl1 =
            make_level ~what:"L1" ~nunits:ncpus ~lines:h.h_l1_lines
              ~ways:h.h_l1_ways;
          hllc =
            make_level ~what:"LLC" ~nunits:ncells ~lines:h.h_llc_lines
              ~ways:h.h_llc_ways;
          ncells;
          cellof = Array.init ncpus (Topology.cell_of topo);
          h_where = Flat_tab.create ~capacity:4096 ();
        })
      hierarchy
  in
  let ic =
    Option.map
      (fun { i_lines; i_ways; i_line_size } ->
        if i_line_size <= 0 then
          invalid_arg "Coherence.create: icache line_size <= 0";
        ( make_level ~what:"icache" ~nunits:ncpus ~lines:i_lines ~ways:i_ways,
          i_line_size ))
      icache
  in
  let nwords = (ncpus + bpw - 1) / bpw in
  {
    topo;
    lsize = line_size;
    moesi = protocol = Moesi;
    ncpus;
    l2;
    dir = Flat_tab.create ~capacity:4096 ();
    nwords;
    owner = Array.make 64 (-1);
    sharers = Array.make (64 * nwords) 0;
    hintm = Array.make (64 * nwords) 0;
    nentries = 0;
    freelist = Array.make 64 0;
    nfree = 0;
    hints = Flat_tab.create ~capacity:1024 ();
    touched = Flat_tab.create ~capacity:4096 ();
    stats = Array.init ncpus (fun _ -> Sim_stats.create ());
    iv_count = 0;
    iv_lat = 0;
    dir_live = 0;
    dir_peak = 0;
    hint_drops = 0;
    llc_fills = 0;
    ic;
    hx;
  }

let line_size t = t.lsize
let topology t = t.topo
let protocol t = if t.moesi then Moesi else Mesi

(* ---------- coherent-cache primitives ---------- *)

let cache_state_code t cpu line =
  let s = find t.l2 cpu line in
  if s < 0 then -1 else t.l2.slots.(s) land 3

(* Update the state bits and mark MRU, in one lookup. *)
let cache_set_state t cpu line code =
  let l2 = t.l2 in
  let s = find l2 cpu line in
  if s < 0 then
    invalid_arg (Printf.sprintf "Coherence.set_state: line %d absent" line);
  l2.slots.(s) <- l2.slots.(s) land lnot 3 lor code;
  touch l2 cpu line s

(* Drop a line (no-op when absent). Removing a line from the
   L2 back-invalidates the CPU's L1 filter: the L1 is strictly inclusive,
   so an L1 copy may never outlive its L2 line. *)
let cache_remove t cpu line =
  if remove t.l2 cpu line then
    match t.hx with Some h -> ignore (remove h.hl1 cpu line : bool) | None -> ()

(* ---------- directory entry pool ---------- *)

let dir_find t line = Flat_tab.find t.dir line ~default:(-1)

let alloc_entry t =
  let e =
    if t.nfree > 0 then begin
      t.nfree <- t.nfree - 1;
      t.freelist.(t.nfree)
    end
    else begin
      (if t.nentries >= Array.length t.owner then begin
         let cap = 2 * Array.length t.owner in
         let ow = Array.make cap (-1) in
         Array.blit t.owner 0 ow 0 t.nentries;
         t.owner <- ow;
         let sh = Array.make (cap * t.nwords) 0 in
         Array.blit t.sharers 0 sh 0 (t.nentries * t.nwords);
         t.sharers <- sh;
         let hm = Array.make (cap * t.nwords) 0 in
         Array.blit t.hintm 0 hm 0 (t.nentries * t.nwords);
         t.hintm <- hm
       end);
      let e = t.nentries in
      t.nentries <- t.nentries + 1;
      e
    end
  in
  t.owner.(e) <- -1;
  for w = 0 to t.nwords - 1 do
    t.sharers.((e * t.nwords) + w) <- 0;
    t.hintm.((e * t.nwords) + w) <- 0
  done;
  t.dir_live <- t.dir_live + 1;
  if t.dir_live > t.dir_peak then t.dir_peak <- t.dir_live;
  e

(* Find or create. *)
let dir_entry t line =
  let e = dir_find t line in
  if e >= 0 then e
  else begin
    let e = alloc_entry t in
    Flat_tab.set t.dir line e;
    e
  end

let rec drop_hints_word t line w m =
  if m <> 0 then begin
    let b = m land -m in
    let cpu = (w * bpw) + bit_index b in
    Flat_tab.remove t.hints ((line * t.ncpus) + cpu);
    t.hint_drops <- t.hint_drops + 1;
    drop_hints_word t line w (m land (m - 1))
  end

(* The line's last cached copy is gone: the sharing episode is over, so any
   pending invalidation hints are stale — a later miss on the line is a
   capacity (or cold) miss, not a sharing miss. Dropping them here is the
   fix for the classifier-staleness bug (see the regression test). *)
let remove_entry t line e =
  for w = 0 to t.nwords - 1 do
    let idx = (e * t.nwords) + w in
    drop_hints_word t line w t.hintm.(idx);
    t.hintm.(idx) <- 0;
    t.sharers.(idx) <- 0
  done;
  t.owner.(e) <- -1;
  (if t.nfree >= Array.length t.freelist then begin
     let fl = Array.make (2 * Array.length t.freelist) 0 in
     Array.blit t.freelist 0 fl 0 t.nfree;
     t.freelist <- fl
   end);
  t.freelist.(t.nfree) <- e;
  t.nfree <- t.nfree + 1;
  Flat_tab.remove t.dir line;
  t.dir_live <- t.dir_live - 1

let add_sharer t e cpu =
  let i = (e * t.nwords) + (cpu / bpw) in
  t.sharers.(i) <- t.sharers.(i) lor (1 lsl (cpu mod bpw))

let remove_sharer t e cpu =
  let i = (e * t.nwords) + (cpu / bpw) in
  t.sharers.(i) <- t.sharers.(i) land lnot (1 lsl (cpu mod bpw))

let sharer_mem t e cpu =
  t.sharers.((e * t.nwords) + (cpu / bpw)) land (1 lsl (cpu mod bpw)) <> 0

let sharers_empty t e =
  let rec go w = w >= t.nwords || (t.sharers.((e * t.nwords) + w) = 0 && go (w + 1)) in
  go 0

let clear_sharers t e =
  for w = 0 to t.nwords - 1 do
    t.sharers.((e * t.nwords) + w) <- 0
  done

(* ---------- classifier state ---------- *)

let set_hint t e line cpu off size =
  Flat_tab.set t.hints ((line * t.ncpus) + cpu) ((off * (t.lsize + 1)) + size);
  let i = (e * t.nwords) + (cpu / bpw) in
  t.hintm.(i) <- t.hintm.(i) lor (1 lsl (cpu mod bpw))

let count_writeback t cpu =
  t.stats.(cpu).Sim_stats.writebacks <- t.stats.(cpu).Sim_stats.writebacks + 1

(* ---------- victim LLC (exclusive of the L2 layer) ----------

   A line enters a cell's LLC only at the moment its last L2 copy dies
   (the directory entry is removed), and is consumed again by the next L2
   fill. So an LLC-resident line has, by construction, no cached copy and
   no directory entry anywhere: it can never be stale and never needs
   invalidation traffic. Exclusivity also means at most one cell holds a
   line, which is what lets [h_where] be a single line -> cell index. *)

let llc_fill t h ~cell ~line =
  let v = insert h.hllc cell line 0 in
  if v >= 0 then Flat_tab.remove h.h_where (v asr 2);
  Flat_tab.set h.h_where line cell;
  t.llc_fills <- t.llc_fills + 1

let llc_consume h ~cell ~line =
  ignore (remove h.hllc cell line : bool);
  Flat_tab.remove h.h_where line

(* Reconcile an evicted victim with the directory: dirty victims write
   back, and the entry dies with the line's last cached copy. *)
let note_eviction t cpu vline vst =
  let e = dir_entry t vline in
  (if vst = st_m || vst = st_o then begin
     count_writeback t cpu;
     if t.owner.(e) = cpu then t.owner.(e) <- -1
   end
   else if vst = st_e then begin
     if t.owner.(e) = cpu then t.owner.(e) <- -1
   end
   else remove_sharer t e cpu);
  if t.owner.(e) = -1 && sharers_empty t e then remove_entry t vline e

(* Evict the set's LRU tail if full, place the new line, then
   reconcile the victim with the directory. Under the multi-level
   hierarchy the victim also leaves this CPU's L1 (inclusion), drops into
   the evicting CPU's cell LLC if its last cached copy just died, and the
   new line is promoted into the L1 filter. *)
let insert_line t cpu line code =
  let w = insert t.l2 cpu line code in
  (if w >= 0 then begin
     let vline = w asr 2 in
     note_eviction t cpu vline (w land 3);
     match t.hx with
     | Some h ->
       ignore (remove h.hl1 cpu vline : bool);
       if dir_find t vline < 0 then llc_fill t h ~cell:h.cellof.(cpu) ~line:vline
     | None -> ()
   end);
  (* The new line was just absent from the L2, so by inclusion it cannot
     be L1-resident: promote is a plain insert, no lookup needed. *)
  match t.hx with
  | Some h -> ignore (insert h.hl1 cpu line 0 : int)
  | None -> ()

(* Walk one sharer-mask word invalidating everyone but the writer,
   accumulating victim count and worst invalidation latency into the
   scratch fields (Topology.invalidation_latency, without building the
   holder list). *)
let rec invalidate_word t e line writer off size w m =
  if m <> 0 then begin
    let s = (w * bpw) + bit_index (m land -m) in
    if s <> writer then begin
      cache_remove t s line;
      set_hint t e line s off size;
      t.iv_count <- t.iv_count + 1;
      t.iv_lat <- max t.iv_lat (Topology.transfer_latency t.topo ~src:writer ~dst:s)
    end;
    invalidate_word t e line writer off size w (m land (m - 1))
  end

(* Invalidate every copy but the writer's, recording the writer's byte
   interval as each victim's hint; results land in iv_count / iv_lat. *)
let invalidate_others t ~line ~writer ~off ~size =
  let e = dir_entry t line in
  t.iv_count <- 0;
  t.iv_lat <- 0;
  let o = t.owner.(e) in
  if o >= 0 && o <> writer then begin
    let c = cache_state_code t o line in
    if c = st_m || c = st_o then count_writeback t o;
    cache_remove t o line;
    set_hint t e line o off size;
    t.iv_count <- t.iv_count + 1;
    t.iv_lat <- max t.iv_lat (Topology.transfer_latency t.topo ~src:writer ~dst:o);
    t.owner.(e) <- -1
  end;
  for w = 0 to t.nwords - 1 do
    invalidate_word t e line writer off size w t.sharers.((e * t.nwords) + w)
  done;
  (* e.sharers <- List.filter (fun s -> s = writer) e.sharers *)
  let ww = writer / bpw in
  for w = 0 to t.nwords - 1 do
    let idx = (e * t.nwords) + w in
    t.sharers.(idx) <-
      t.sharers.(idx) land (if w = ww then 1 lsl (writer mod bpw) else 0)
  done

(* Classify a miss as cold, capacity, or true/false sharing by the pending
   hint, clearing the entry's hint bit when the hint is consumed so the
   hint mask stays exact. *)
let classify_miss t ~cpu ~line ~off ~size =
  let st = t.stats.(cpu) in
  (* [touched] only advances here: a hit means the line is cached, and a
     line only enters a cache through a miss that already ran this
     classifier — so the per-access set in [access] would be redundant. *)
  if Flat_tab.find t.touched line ~default:0 = 0 then begin
    Flat_tab.set t.touched line 1;
    st.Sim_stats.cold_misses <- st.Sim_stats.cold_misses + 1
  end
  else begin
    let key = (line * t.ncpus) + cpu in
    let h = Flat_tab.find t.hints key ~default:(-1) in
    if h >= 0 then begin
      Flat_tab.remove t.hints key;
      let e = dir_find t line in
      if e >= 0 then begin
        let i = (e * t.nwords) + (cpu / bpw) in
        t.hintm.(i) <- t.hintm.(i) land lnot (1 lsl (cpu mod bpw))
      end;
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

let nearest_sharer t e cpu =
  let rec go w best =
    if w >= t.nwords then best
    else go (w + 1) (nearest_word t cpu best w t.sharers.((e * t.nwords) + w))
  in
  go 0 max_int

let lat t = Topology.latencies t.topo

(* Memory-arm fetch: no L2 anywhere holds the line, so probe the victim
   LLCs before going to memory. An LLC hit consumes the copy (the line
   re-enters an L2, so the exclusive LLC must give it up) and costs the
   topological distance to the holding cell, capped at the memory latency
   — memory can always serve in parallel with a farther remote cell. *)
let memory_fetch t ~cpu ~line =
  match t.hx with
  | None -> Topology.memory_latency t.topo
  | Some h ->
    let cell = Flat_tab.find h.h_where line ~default:(-1) in
    if cell < 0 then Topology.memory_latency t.topo
    else begin
      llc_consume h ~cell ~line;
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
let l2_hit_cost t cpu line ~l1s =
  match t.hx with
  | Some h ->
    let st = t.stats.(cpu) in
    st.Sim_stats.l2_hits <- st.Sim_stats.l2_hits + 1;
    if l1s >= 0 then touch h.hl1 cpu line l1s
    else ignore (insert h.hl1 cpu line 0 : int);
    Topology.l2_hit_latency t.topo
  | None -> (lat t).Topology.l1_hit

(* ---------- protocol ---------- *)

let read t ~cpu ~line ~off ~size =
  let st = t.stats.(cpu) in
  let l1s = match t.hx with Some h -> find h.hl1 cpu line | None -> -1 in
  if l1s >= 0 then begin
    (* L1 filter hit: inclusion guarantees an L2 copy in some readable
       state, so the access completes entirely in the private L1. The L2
       LRU is deliberately not touched — a real L1 shields it. *)
    (match t.hx with
    | Some h -> touch h.hl1 cpu line l1s
    | None -> assert false);
    st.Sim_stats.hits <- st.Sim_stats.hits + 1;
    st.Sim_stats.l1_hits <- st.Sim_stats.l1_hits + 1;
    (lat t).Topology.l1_hit
  end
  else begin
    let s = find t.l2 cpu line in
    if s >= 0 then begin
      touch t.l2 cpu line s;
      st.Sim_stats.hits <- st.Sim_stats.hits + 1;
      l2_hit_cost t cpu line ~l1s
    end
    else begin
      classify_miss t ~cpu ~line ~off ~size;
      let e = dir_entry t line in
      let latency =
        let o = t.owner.(e) in
        if o >= 0 then begin
          (* Owner supplies the data cache-to-cache. MESI: M downgrades to S
             with a writeback; MOESI: M downgrades to O, deferring the
             writeback; E downgrades to S (clean); O stays O. *)
          let c = cache_state_code t o line in
          if c = st_m then
            if not t.moesi then begin
              count_writeback t o;
              cache_set_state t o line st_s;
              t.owner.(e) <- -1;
              add_sharer t e o
            end
            else cache_set_state t o line st_o
          else if c = st_e then begin
            cache_set_state t o line st_s;
            t.owner.(e) <- -1;
            add_sharer t e o
          end
          else if c = st_o then ()
          else
            (* Directory said owner but cache disagrees: repair. *)
            t.owner.(e) <- -1;
          add_sharer t e cpu;
          Topology.transfer_latency t.topo ~src:o ~dst:cpu
        end
        else if not (sharers_empty t e) then begin
          let nearest = nearest_sharer t e cpu in
          add_sharer t e cpu;
          nearest
        end
        else begin
          (* No cached copy anywhere: LLC probe or memory fetch, Exclusive. *)
          t.owner.(e) <- cpu;
          memory_fetch t ~cpu ~line
        end
      in
      let code = if t.owner.(e) = cpu then st_e else st_s in
      insert_line t cpu line code;
      latency
    end
  end

let write t ~cpu ~line ~off ~size =
  let st = t.stats.(cpu) in
  let l1s = match t.hx with Some h -> find h.hl1 cpu line | None -> -1 in
  let l2 = t.l2 in
  let s = find l2 cpu line in
  if l1s >= 0 && s >= 0 && l2.slots.(s) land 3 = st_m then begin
    (* The only write the L1 filter can absorb alone: the line is already
       Modified, so no directory action or state change is needed. Every
       other L1-resident write (E silent upgrade, S/O upgrade) must reach
       the L2, where the coherence state lives. *)
    (match t.hx with
    | Some h -> touch h.hl1 cpu line l1s
    | None -> assert false);
    st.Sim_stats.hits <- st.Sim_stats.hits + 1;
    st.Sim_stats.l1_hits <- st.Sim_stats.l1_hits + 1;
    (lat t).Topology.l1_hit
  end
  else begin
    if s >= 0 then begin
      let c = l2.slots.(s) land 3 in
      if c = st_m then begin
        touch l2 cpu line s;
        st.Sim_stats.hits <- st.Sim_stats.hits + 1;
        l2_hit_cost t cpu line ~l1s
      end
      else if c = st_e then begin
        (* Silent E->M upgrade. *)
        l2.slots.(s) <- l2.slots.(s) land lnot 3 lor st_m;
        touch l2 cpu line s;
        let e = dir_entry t line in
        t.owner.(e) <- cpu;
        st.Sim_stats.hits <- st.Sim_stats.hits + 1;
        l2_hit_cost t cpu line ~l1s
      end
      else begin
        (* S or O. Upgrade: invalidate every other copy; we have the data. *)
        st.Sim_stats.hits <- st.Sim_stats.hits + 1;
        st.Sim_stats.upgrades <- st.Sim_stats.upgrades + 1;
        invalidate_others t ~line ~writer:cpu ~off ~size;
        st.Sim_stats.invalidations <- st.Sim_stats.invalidations + t.iv_count;
        let e = dir_entry t line in
        t.owner.(e) <- cpu;
        clear_sharers t e;
        (* invalidate_others can't evict this CPU's copy, so slot s stands. *)
        l2.slots.(s) <- l2.slots.(s) land lnot 3 lor st_m;
        touch l2 cpu line s;
        max (l2_hit_cost t cpu line ~l1s) t.iv_lat
      end
    end
    else begin
      classify_miss t ~cpu ~line ~off ~size;
      let e = dir_entry t line in
      let fetch_latency =
        let o = t.owner.(e) in
        if o >= 0 then Topology.transfer_latency t.topo ~src:o ~dst:cpu
        else if not (sharers_empty t e) then
          (* Data can come from a sharer; invalidations proceed in parallel;
             pay the farther of the two below. *)
          nearest_sharer t e cpu
        else memory_fetch t ~cpu ~line
      in
      invalidate_others t ~line ~writer:cpu ~off ~size;
      st.Sim_stats.invalidations <- st.Sim_stats.invalidations + t.iv_count;
      let inv_lat = t.iv_lat in
      let e = dir_entry t line in
      t.owner.(e) <- cpu;
      clear_sharers t e;
      insert_line t cpu line st_m;
      max fetch_latency inv_lat
    end
  end

let access t ~cpu ~addr ~size ~is_write =
  if cpu < 0 || cpu >= t.ncpus then
    invalid_arg (Printf.sprintf "Coherence.access: cpu %d out of range" cpu);
  if size <= 0 then invalid_arg "Coherence.access: size <= 0";
  if addr < 0 then invalid_arg "Coherence.access: addr < 0";
  let line = addr / t.lsize in
  let off = addr mod t.lsize in
  if off + size > t.lsize then
    invalid_arg
      (Printf.sprintf
         "Coherence.access: access at %d size %d straddles a %d-byte line" addr
         size t.lsize);
  let st = t.stats.(cpu) in
  if is_write then st.Sim_stats.stores <- st.Sim_stats.stores + 1
  else st.Sim_stats.loads <- st.Sim_stats.loads + 1;
  let latency =
    if is_write then write t ~cpu ~line ~off ~size
    else read t ~cpu ~line ~off ~size
  in
  st.Sim_stats.stall_cycles <- st.Sim_stats.stall_cycles + latency;
  latency

(* ---------- instruction fetch ---------- *)

let has_icache t = t.ic <> None

let icache_line_size t =
  match t.ic with
  | None -> invalid_arg "Coherence.icache_line_size: no instruction cache"
  | Some (_, isize) -> isize

(* Fetch the instruction bytes [addr, addr + size): every I-cache line the
   range overlaps is fetched, line by line. Hits cost l1_hit, misses a
   memory fetch; there is no cache-to-cache path (code is read-only and
   clean everywhere, so memory is always as close as any peer). *)
let ifetch t ~cpu ~addr ~size =
  match t.ic with
  | None -> invalid_arg "Coherence.ifetch: no instruction cache configured"
  | Some (ic, isize) ->
    if cpu < 0 || cpu >= t.ncpus then
      invalid_arg (Printf.sprintf "Coherence.ifetch: cpu %d out of range" cpu);
    if size <= 0 then invalid_arg "Coherence.ifetch: size <= 0";
    if addr < 0 then invalid_arg "Coherence.ifetch: addr < 0";
    let st = t.stats.(cpu) in
    let first = addr / isize and last = (addr + size - 1) / isize in
    let total = ref 0 in
    for line = first to last do
      st.Sim_stats.ifetches <- st.Sim_stats.ifetches + 1;
      let s = find ic cpu line in
      if s >= 0 then begin
        touch ic cpu line s;
        total := !total + (lat t).Topology.l1_hit
      end
      else begin
        st.Sim_stats.imisses <- st.Sim_stats.imisses + 1;
        ignore (insert ic cpu line 0 : int);
        total := !total + Topology.memory_latency t.topo
      end
    done;
    st.Sim_stats.istall_cycles <- st.Sim_stats.istall_cycles + !total;
    !total

let icache_resident t ~cpu ~line =
  match t.ic with
  | None -> false
  | Some (ic, _) -> find ic cpu line >= 0

let stats t ~cpu = t.stats.(cpu)
let total_stats t = Sim_stats.sum (Array.to_list t.stats)

(* ---------- introspection (cold paths; allocation is fine here) ---------- *)

let owner t ~line =
  let e = dir_find t line in
  if e < 0 then None
  else
    let o = t.owner.(e) in
    if o < 0 then None else Some o

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

let sharers t ~line =
  let e = dir_find t line in
  if e < 0 then []
  else List.rev (fold_mask_cpus t (e * t.nwords) (fun acc c -> c :: acc) [])

let holders t ~line =
  let e = dir_find t line in
  if e < 0 then []
  else
    let base = sharers t ~line in
    let all = match owner t ~line with Some o -> o :: base | None -> base in
    List.sort_uniq compare all

let cache_state t ~cpu ~line =
  let c = cache_state_code t cpu line in
  if c < 0 then None else Some (state_of_code c)

let inv_hint t ~cpu ~line =
  let h = Flat_tab.find t.hints ((line * t.ncpus) + cpu) ~default:(-1) in
  if h < 0 then None else Some (h / (t.lsize + 1), h mod (t.lsize + 1))

let touched t ~line = Flat_tab.find t.touched line ~default:0 <> 0

let has_hierarchy t = t.hx <> None

let l1_resident t ~cpu ~line =
  match t.hx with None -> false | Some h -> find h.hl1 cpu line >= 0

let llc_cell t ~line =
  match t.hx with
  | None -> None
  | Some h ->
    let c = Flat_tab.find h.h_where line ~default:(-1) in
    if c < 0 then None else Some c

let num_cells t = match t.hx with None -> 1 | Some h -> h.ncells

type kstats = {
  k_dir_live : int;
  k_dir_peak : int;
  k_hint_drops : int;
  k_probe_steps : int;
  k_llc_fills : int;
}

let kstats t =
  let level_probes l =
    Array.fold_left (fun acc w -> acc + Flat_tab.probe_steps w) 0 l.where
  in
  let probes =
    level_probes t.l2
    + Flat_tab.probe_steps t.dir
    + Flat_tab.probe_steps t.hints
    + Flat_tab.probe_steps t.touched
    + (match t.hx with
      | None -> 0
      | Some h ->
        level_probes h.hl1 + level_probes h.hllc
        + Flat_tab.probe_steps h.h_where)
  in
  {
    k_dir_live = t.dir_live;
    k_dir_peak = t.dir_peak;
    k_hint_drops = t.hint_drops;
    k_probe_steps = probes;
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
  (* Directory -> caches *)
  Flat_tab.iter t.dir (fun line e ->
      let o = t.owner.(e) in
      (if o >= 0 then begin
         (match cache_state_code t o line with
         | c when c = st_m || c = st_e ->
           if not (sharers_empty t e) then
             fail "Coherence invariant: line %d has M/E owner %d and sharers"
               line o
         | c when c = st_o ->
           if not t.moesi then
             fail "Coherence invariant: Owned state under MESI (line %d)" line
         | c ->
           fail "Coherence invariant: owner %d of line %d holds %s" o line
             (state_name c));
         if sharer_mem t e o then
           fail "Coherence invariant: owner %d of line %d is in the sharer mask"
             o line
       end);
      ignore
        (fold_mask_cpus t (e * t.nwords)
           (fun () s ->
             if cache_state_code t s line <> st_s then
               fail "Coherence invariant: sharer %d of line %d holds %s" s line
                 (state_name (cache_state_code t s line)))
           ());
      (* hint mask bits <-> hint table entries *)
      for w = 0 to t.nwords - 1 do
        let m = ref t.hintm.((e * t.nwords) + w) in
        while !m <> 0 do
          let cpu = (w * bpw) + bit_index (!m land - !m) in
          if not (Flat_tab.mem t.hints ((line * t.ncpus) + cpu)) then
            fail "Coherence invariant: hint bit for cpu %d line %d has no hint"
              cpu line;
          m := !m land (!m - 1)
        done
      done);
  (* Hint table -> directory: every pending hint belongs to a live entry
     with the matching mask bit (the staleness fix keeps this exact). *)
  Flat_tab.iter t.hints (fun key _ ->
      let line = key / t.ncpus and cpu = key mod t.ncpus in
      let e = dir_find t line in
      if e < 0 then
        fail "Coherence invariant: hint for cpu %d on dead line %d" cpu line;
      if t.hintm.((e * t.nwords) + (cpu / bpw)) land (1 lsl (cpu mod bpw)) = 0
      then fail "Coherence invariant: hint for cpu %d line %d not in hint mask"
          cpu line);
  (* Level representation (L2, I-cache, L1 filter, victim LLC): slot words
     agree with the lookup and sit in their unit and set, residency-only
     levels hold state 0, LRU chains and fill counts agree, chained slots
     are found by lookup, live + free slots account for every way of every
     set. *)
  let check_level ?(states = false) what l nunits =
    for u = 0 to nunits - 1 do
      iter_unit l u (fun line s ->
          let w = l.slots.(s) in
          if w < 0 || w asr 2 <> line || ((not states) && w land 3 <> 0) then
            fail "Coherence invariant: %s slot %d disagrees with line %d" what s
              line;
          if s / (l.nsets * l.nways) <> u then
            fail "Coherence invariant: %s line %d of unit %d in foreign slot"
              what line u;
          if s / l.nways mod l.nsets <> line mod l.nsets then
            fail "Coherence invariant: %s line %d of unit %d in wrong set" what
              line u);
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
          if find l u (l.slots.(!s) asr 2) <> !s then
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
  check_level ~states:true "cache" t.l2 t.ncpus;
  (* Caches -> directory: every cached line is tracked, M/E/O holders own
     it, S holders are in the sharer mask. *)
  for cpu = 0 to t.ncpus - 1 do
    iter_unit t.l2 cpu (fun line s ->
        let e = dir_find t line in
        if e < 0 then
          fail "Coherence invariant: line %d cached but not in directory" line;
        let c = t.l2.slots.(s) land 3 in
        if c = st_m || c = st_e || c = st_o then begin
          if t.owner.(e) <> cpu then
            fail "Coherence invariant: cpu %d holds line %d in %s but is not owner"
              cpu line (state_name c)
        end
        else if not (sharer_mem t e cpu) then
          fail "Coherence invariant: cpu %d holds line %d in S but is not a sharer"
            cpu line)
  done;
  (match t.ic with None -> () | Some (ic, _) -> check_level "icache" ic t.ncpus);
  match t.hx with
  | None -> ()
  | Some h ->
    check_level "L1" h.hl1 t.ncpus;
    check_level "LLC" h.hllc h.ncells;
    (* L1 inclusion: every L1-resident line has a live L2 copy. *)
    for cpu = 0 to t.ncpus - 1 do
      iter_unit h.hl1 cpu (fun line _ ->
          if find t.l2 cpu line < 0 then
            fail "Coherence invariant: L1 line %d of cpu %d not in L2" line cpu)
    done;
    (* LLC exclusivity: a resident line has no directory entry (so it can
       never be stale), and the line -> cell index matches residency
       exactly in both directions. *)
    for cell = 0 to h.ncells - 1 do
      iter_unit h.hllc cell (fun line _ ->
          if dir_find t line >= 0 then
            fail
              "Coherence invariant: LLC line %d coexists with a directory entry"
              line;
          if Flat_tab.find h.h_where line ~default:(-1) <> cell then
            fail "Coherence invariant: LLC line %d not indexed to cell %d" line
              cell)
    done;
    Flat_tab.iter h.h_where (fun line cell ->
        if cell < 0 || cell >= h.ncells then
          fail "Coherence invariant: llc index cell %d out of range" cell;
        if find h.hllc cell line < 0 then
          fail "Coherence invariant: llc index points at absent line %d" line)
