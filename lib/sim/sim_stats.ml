type t = {
  mutable loads : int;
  mutable stores : int;
  mutable hits : int;
  mutable cold_misses : int;
  mutable capacity_misses : int;
  mutable true_sharing_misses : int;
  mutable false_sharing_misses : int;
  mutable upgrades : int;
  mutable invalidations : int;
  mutable writebacks : int;
  mutable stall_cycles : int;
  mutable ifetches : int;
  mutable imisses : int;
  mutable istall_cycles : int;
  mutable l1_hits : int;
  mutable l2_hits : int;
  mutable llc_local_hits : int;
  mutable llc_remote_hits : int;
}

let create () =
  {
    loads = 0;
    stores = 0;
    hits = 0;
    cold_misses = 0;
    capacity_misses = 0;
    true_sharing_misses = 0;
    false_sharing_misses = 0;
    upgrades = 0;
    invalidations = 0;
    writebacks = 0;
    stall_cycles = 0;
    ifetches = 0;
    imisses = 0;
    istall_cycles = 0;
    l1_hits = 0;
    l2_hits = 0;
    llc_local_hits = 0;
    llc_remote_hits = 0;
  }

let accesses t = t.loads + t.stores
let coherence_misses t = t.true_sharing_misses + t.false_sharing_misses
let misses t = t.cold_misses + t.capacity_misses + coherence_misses t

let imiss_rate t =
  if t.ifetches = 0 then 0.0
  else float_of_int t.imisses /. float_of_int t.ifetches

let add_into acc x =
  acc.loads <- acc.loads + x.loads;
  acc.stores <- acc.stores + x.stores;
  acc.hits <- acc.hits + x.hits;
  acc.cold_misses <- acc.cold_misses + x.cold_misses;
  acc.capacity_misses <- acc.capacity_misses + x.capacity_misses;
  acc.true_sharing_misses <- acc.true_sharing_misses + x.true_sharing_misses;
  acc.false_sharing_misses <- acc.false_sharing_misses + x.false_sharing_misses;
  acc.upgrades <- acc.upgrades + x.upgrades;
  acc.invalidations <- acc.invalidations + x.invalidations;
  acc.writebacks <- acc.writebacks + x.writebacks;
  acc.stall_cycles <- acc.stall_cycles + x.stall_cycles;
  acc.ifetches <- acc.ifetches + x.ifetches;
  acc.imisses <- acc.imisses + x.imisses;
  acc.istall_cycles <- acc.istall_cycles + x.istall_cycles;
  acc.l1_hits <- acc.l1_hits + x.l1_hits;
  acc.l2_hits <- acc.l2_hits + x.l2_hits;
  acc.llc_local_hits <- acc.llc_local_hits + x.llc_local_hits;
  acc.llc_remote_hits <- acc.llc_remote_hits + x.llc_remote_hits

let sum xs =
  let acc = create () in
  List.iter (add_into acc) xs;
  acc

let pp ppf t =
  Format.fprintf ppf
    "@[<v>accesses: %d (loads %d, stores %d)@,hits: %d (%.1f%%)@,\
     misses: cold %d, capacity %d, true-sharing %d, false-sharing %d@,\
     upgrades: %d, invalidations: %d, writebacks: %d@,stall cycles: %d@]"
    (accesses t) t.loads t.stores t.hits
    (if accesses t = 0 then 0.0
     else 100.0 *. float_of_int t.hits /. float_of_int (accesses t))
    t.cold_misses t.capacity_misses t.true_sharing_misses
    t.false_sharing_misses t.upgrades t.invalidations t.writebacks
    t.stall_cycles;
  (* The ifetch side only prints when an I-cache was simulated, so output
     for data-only runs stays byte-identical to the pre-I-cache format. *)
  if t.ifetches > 0 then
    Format.fprintf ppf
      "@,@[ifetches: %d, imisses: %d (%.1f%%), istall cycles: %d@]" t.ifetches
      t.imisses
      (100.0 *. imiss_rate t)
      t.istall_cycles;
  (* Likewise, the per-level breakdown only prints when a multi-level
     hierarchy was simulated: single-level runs never touch these counters,
     so their output stays byte-identical to the pre-hierarchy format. *)
  if t.l1_hits + t.l2_hits + t.llc_local_hits + t.llc_remote_hits > 0 then
    Format.fprintf ppf
      "@,@[levels: L1 hits %d, L2 hits %d, LLC local %d, LLC remote %d@]"
      t.l1_hits t.l2_hits t.llc_local_hits t.llc_remote_hits
