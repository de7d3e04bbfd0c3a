(* Tests for the flat memory-system kernel: Flat_tab model checking, the
   kernel-vs-spec differential oracle, coherence-invariant properties over
   the introspection API, hand-written scenarios (hint staleness, LRU
   recency rules, I-cache, hierarchy) run on both the kernel and the spec,
   and machine-level trace replays through the spec. *)

module Topology = Slo_sim.Topology
module Cache = Slo_sim.Cache
module Coherence = Slo_sim.Coherence
module Spec = Slo_sim.Spec
module Flat_tab = Slo_util.Flat_tab
module Sim_stats = Slo_sim.Sim_stats
module Machine = Slo_sim.Machine
module Parser = Slo_ir.Parser
module Typecheck = Slo_ir.Typecheck

let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Flat_tab: model-checked against Hashtbl *)

type tab_op = Set of int * int | Remove of int | Clear

let tab_op_gen =
  QCheck2.Gen.(
    let* tag = int_range 0 9 in
    let* k = int_range 0 30 in
    let* v = int_range (-1000) 1000 in
    return (if tag < 6 then Set (k, v) else if tag < 9 then Remove k else Clear))

let prop_flat_tab_matches_hashtbl =
  QCheck2.Test.make ~name:"Flat_tab behaves like Hashtbl under random ops"
    ~count:300
    QCheck2.Gen.(list_size (int_range 0 200) tab_op_gen)
    (fun ops ->
      let t = Flat_tab.create ~capacity:4 () in
      let h = Hashtbl.create 16 in
      List.iter
        (function
          | Set (k, v) -> Flat_tab.set t k v; Hashtbl.replace h k v
          | Remove k -> Flat_tab.remove t k; Hashtbl.remove h k
          | Clear -> Flat_tab.clear t; Hashtbl.reset h)
        ops;
      Flat_tab.length t = Hashtbl.length h
      && List.for_all
           (fun k ->
             Flat_tab.mem t k = Hashtbl.mem h k
             && Flat_tab.find t k ~default:min_int
                = Option.value (Hashtbl.find_opt h k) ~default:min_int)
           (List.init 32 Fun.id)
      && Flat_tab.fold t ~init:0 ~f:(fun acc _ v -> acc + v)
         = Hashtbl.fold (fun _ v acc -> acc + v) h 0)

let test_flat_tab_grow_and_shift () =
  let t = Flat_tab.create ~capacity:4 () in
  for k = 0 to 199 do
    Flat_tab.set t k (k * 3)
  done;
  check_int "grown to 200 live" 200 (Flat_tab.length t);
  (* Deleting every other key must leave the survivors findable: the
     backward-shift delete has to repair every displaced probe chain. *)
  for k = 0 to 199 do
    if k mod 2 = 0 then Flat_tab.remove t k
  done;
  check_int "half removed" 100 (Flat_tab.length t);
  for k = 0 to 199 do
    check_int
      (Printf.sprintf "key %d" k)
      (if k mod 2 = 0 then -7 else k * 3)
      (Flat_tab.find t k ~default:(-7))
  done;
  match Flat_tab.set t (-1) 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted negative key"

(* ------------------------------------------------------------------ *)
(* Differential oracle: the flat kernel must be indistinguishable from
   the pure spec — per-access latencies, per-CPU statistics, directory
   contents, cache states — across protocols, topologies and
   associativities. *)

let topologies =
  [
    ("superdome8", Topology.superdome ~cpus:8 ());
    (* > 62 CPUs exercises the multi-word sharer bitmasks *)
    ("superdome128", Topology.superdome ~cpus:128 ());
    ("bus4", Topology.bus ~cpus:4 ());
    (* two CPUs see enough accesses each to overflow the 20-line "wide" L2 *)
    ("bus2", Topology.bus ~cpus:2 ());
  ]

let lines_in_play = 12

(* (capacity, ways, distinct lines in play). "wide" is a 20-line fully
   associative L2 that plays more lines than it holds, so it evicts and
   re-fetches through a long LRU chain; the set-associative variants place
   lines by real line number whatever order the kernel numbered them in. *)
let assoc_variants =
  [
    ("direct", (8, Some 1, lines_in_play));
    ("2way", (8, Some 2, lines_in_play));
    ("full", (8, None, lines_in_play));
    ("wide", (20, None, 4 * lines_in_play));
  ]

let trace_gen_of lines =
  QCheck2.Gen.(
    list_size (int_range 1 150)
      (let* cpu = int_range 0 1000 in
       let* line = int_range 0 (lines - 1) in
       let* off = int_range 0 15 in
       let* w = bool in
       return (cpu, line, off, w)))

let trace_gen = trace_gen_of lines_in_play

(* The differential properties draw from the widest variant's lines; each
   run folds them onto its own (a multiple of 12, so the fold stays
   uniform). *)
let wide_trace_gen = trace_gen_of (4 * lines_in_play)

(* Replay [trace] through a fresh kernel and a fresh spec of the same
   geometry, demanding identical latencies on every access, then compare
   the end states: per-CPU stats, the directory view and cache states,
   and (under the hierarchy) L1 residency and LLC placement. *)
let run_both ?hierarchy ~topology ~protocol (capacity, ways, lines) trace =
  let k =
    Coherence.create topology ~line_size:128 ~cache_capacity:capacity ?ways
      ?hierarchy ~protocol ()
  and s =
    Spec.create topology ~line_size:128 ~cache_capacity:capacity ?ways
      ?hierarchy ~protocol ()
  in
  let cpus = Topology.num_cpus topology in
  List.iter
    (fun (cpu, line, off, w) ->
      let cpu = cpu mod cpus and line = line mod lines in
      let addr = (line * 128) + (off * 8) in
      let a = Coherence.access k ~cpu ~addr ~size:8 ~is_write:w in
      let b = Spec.access s ~cpu ~addr ~size:8 ~is_write:w in
      if a <> b then
        Alcotest.failf "latency diverged (cpu %d line %d w %b): kernel %d vs spec %d"
          cpu line w a b)
    trace;
  Coherence.check_invariants k;
  for cpu = 0 to cpus - 1 do
    (* Sim_stats equality covers the per-level counters too: l1/l2 hits
       and local/remote LLC hits diverge structurally, not just in sums. *)
    if Coherence.stats k ~cpu <> Spec.stats s ~cpu then
      Alcotest.failf "per-cpu stats diverged on cpu %d" cpu
  done;
  for line = 0 to lines - 1 do
    if Coherence.holders k ~line <> Spec.holders s ~line then
      Alcotest.failf "holders diverged on line %d" line;
    if Coherence.owner k ~line <> Spec.owner s ~line then
      Alcotest.failf "owner diverged on line %d" line;
    if Coherence.sharers k ~line <> Spec.sharers s ~line then
      Alcotest.failf "sharers diverged on line %d" line;
    if Coherence.llc_cell k ~line <> Spec.llc_cell s ~line then
      Alcotest.failf "LLC placement diverged on line %d" line;
    for cpu = 0 to cpus - 1 do
      if Coherence.cache_state k ~cpu ~line <> Spec.cache_state s ~cpu ~line
      then Alcotest.failf "cache state diverged: cpu %d line %d" cpu line;
      if Coherence.inv_hint k ~cpu ~line <> Spec.inv_hint s ~cpu ~line then
        Alcotest.failf "hint diverged: cpu %d line %d" cpu line;
      if Coherence.l1_resident k ~cpu ~line <> Spec.l1_resident s ~cpu ~line
      then Alcotest.failf "L1 residency diverged: cpu %d line %d" cpu line
    done
  done

let prop_differential =
  QCheck2.Test.make
    ~name:
      "flat kernel == spec (latencies, stats, directory) across protocols x \
       topologies x associativities" ~count:25 wide_trace_gen
    (fun trace ->
      List.iter
        (fun (_, topology) ->
          List.iter
            (fun protocol ->
              List.iter
                (fun (_, geometry) -> run_both ~topology ~protocol geometry trace)
                assoc_variants)
            [ Coherence.Mesi; Coherence.Moesi ])
        topologies;
      true)

(* ------------------------------------------------------------------ *)
(* Coherence invariants via the introspection API *)

let prop_directory_invariants =
  QCheck2.Test.make
    ~name:
      "owner holds M/E/O, owner not in sharers, sharers hold S, MESI never \
       Owned" ~count:60 trace_gen
    (fun trace ->
      List.iter
        (fun protocol ->
          let topology = Topology.superdome ~cpus:8 () in
          let c =
            Coherence.create topology ~line_size:128 ~cache_capacity:8
              ~protocol ()
          in
          List.iter
            (fun (cpu, line, off, w) ->
              ignore
                (Coherence.access c ~cpu:(cpu mod 8)
                   ~addr:((line * 128) + (off * 8))
                   ~size:8 ~is_write:w))
            trace;
          for line = 0 to lines_in_play - 1 do
            let sharers = Coherence.sharers c ~line in
            (match Coherence.owner c ~line with
            | Some o ->
                (match Coherence.cache_state c ~cpu:o ~line with
                | Some (Cache.Modified | Cache.Exclusive | Cache.Owned) -> ()
                | st ->
                    Alcotest.failf "owner of line %d holds %s" line
                      (match st with
                      | None -> "nothing"
                      | Some Cache.Shared -> "S"
                      | _ -> "?"));
                if List.mem o sharers then
                  Alcotest.failf "owner %d in sharer set of line %d" o line
            | None -> ());
            List.iter
              (fun s ->
                if Coherence.cache_state c ~cpu:s ~line <> Some Cache.Shared
                then Alcotest.failf "sharer %d of line %d not in S" s line)
              sharers;
            if protocol = Coherence.Mesi then
              for cpu = 0 to 7 do
                if Coherence.cache_state c ~cpu ~line = Some Cache.Owned then
                  Alcotest.failf "MESI produced Owned (cpu %d line %d)" cpu
                    line
              done
          done)
        [ Coherence.Mesi; Coherence.Moesi ];
      true)

(* ------------------------------------------------------------------ *)
(* Hand-written scenarios run on both implementations: the kernel and the
   spec expose the same creation and observation API. *)

module type IMPL = sig
  type t

  val create :
    Topology.t ->
    line_size:int ->
    cache_capacity:int ->
    ?ways:int ->
    ?icache:Coherence.icache ->
    ?hierarchy:Coherence.hierarchy ->
    ?protocol:Coherence.protocol ->
    unit ->
    t

  val access : t -> cpu:int -> addr:int -> size:int -> is_write:bool -> int
  val ifetch : t -> cpu:int -> addr:int -> size:int -> int
  val stats : t -> cpu:int -> Sim_stats.t
  val holders : t -> line:int -> int list
  val has_icache : t -> bool
  val icache_line_size : t -> int
  val icache_resident : t -> cpu:int -> line:int -> bool
  val has_hierarchy : t -> bool
  val num_cells : t -> int
  val l1_resident : t -> cpu:int -> line:int -> bool
  val llc_cell : t -> line:int -> int option
  val check_invariants : t -> unit
end

module Kernel : IMPL = Coherence

module Oracle : IMPL = struct
  include Spec

  let create topo ~line_size ~cache_capacity ?ways ?icache ?hierarchy
      ?protocol () =
    Spec.create topo ~line_size ~cache_capacity ?ways ?icache ?hierarchy
      ?protocol ()

  (* The spec stores no directory to drift from its caches; its protocol
     invariants are checked exhaustively by the model checker. *)
  let check_invariants _ = ()
end

(* ------------------------------------------------------------------ *)
(* Hint staleness regression.

   Before the fix, an invalidation hint recorded against a CPU survived
   the end of the sharing episode: once every cached copy of the line was
   evicted (directory entry gone), the CPU's much-later re-fetch still
   consulted the stale hint and was misclassified as a sharing miss. The
   fix drops a line's hints when its directory entry is removed, so the
   re-fetch counts as a capacity miss. This scenario fails on the pre-fix
   code (it reported false_sharing = 1, capacity = 0). *)

let test_hint_staleness (module M : IMPL) () =
  let c =
    M.create (Topology.bus ~cpus:2 ()) ~line_size:128 ~cache_capacity:2 ()
  in
  let access cpu addr w = ignore (M.access c ~cpu ~addr ~size:8 ~is_write:w) in
  access 0 0 false;
  (* cpu1 writes bytes 8..15 of line 0: cpu0 invalidated, hint recorded *)
  access 1 8 true;
  (* cpu1's 2-line cache evicts line 0 (the LRU) on the second fill; the
     last cached copy is gone, so the sharing episode is over *)
  access 1 128 false;
  access 1 256 false;
  Alcotest.(check (list int)) "no copies left" [] (M.holders c ~line:0);
  (* cpu0 re-reads bytes 0..7 — disjoint from the hint interval, so the
     stale hint would classify this as a false-sharing miss *)
  access 0 0 false;
  let st = M.stats c ~cpu:0 in
  check_int "capacity miss" 1 st.Sim_stats.capacity_misses;
  check_int "no false sharing" 0 st.Sim_stats.false_sharing_misses;
  check_int "no true sharing" 0 st.Sim_stats.true_sharing_misses;
  M.check_invariants c

let test_hint_live_episode (module M : IMPL) () =
  (* Sanity check that the fix did not over-drop: while the episode is
     live the hint still classifies the next miss. *)
  let c =
    M.create (Topology.bus ~cpus:2 ()) ~line_size:128 ~cache_capacity:4 ()
  in
  let access cpu addr w = ignore (M.access c ~cpu ~addr ~size:8 ~is_write:w) in
  access 0 0 false;
  access 1 8 true;
  access 0 0 false;
  check_int "false sharing" 1 (M.stats c ~cpu:0).Sim_stats.false_sharing_misses;
  access 1 0 true;
  access 0 0 false;
  check_int "true sharing" 1 (M.stats c ~cpu:0).Sim_stats.true_sharing_misses

(* Hint keys at the top of the address space. Hints used to be keyed by
   [line * ncpus + cpu], which wraps once ncpus exceeds the line size at a
   large legal address: on a 128-CPU machine with 16-byte lines the write
   below raised [Invalid_argument] after the store was counted. Keyed by
   line id, the episode must classify exactly as it does at address 256:
   the write leaves cpu 0 a hint, and cpu 0's re-read is a true-sharing
   miss. *)
let test_hint_key_overflow () =
  let episode addr =
    let topo = Topology.superdome ~cpus:128 () in
    let k = Coherence.create topo ~line_size:16 ~cache_capacity:8 ()
    and s = Spec.create topo ~line_size:16 ~cache_capacity:8 () in
    let step cpu w =
      let lat = Coherence.access k ~cpu ~addr ~size:8 ~is_write:w in
      check_int
        (Printf.sprintf "latency at %d (cpu %d, write %b)" addr cpu w)
        (Spec.access s ~cpu ~addr ~size:8 ~is_write:w)
        lat;
      lat
    in
    let read = step 0 false in
    let write = step 1 true in
    let line = addr / 16 in
    let hint = Coherence.inv_hint k ~cpu:0 ~line in
    Alcotest.(check (option (pair int int))) "hint after the write" (Some (0, 8)) hint;
    Alcotest.(check bool) "spec hint" true (Spec.inv_hint s ~cpu:0 ~line = hint);
    let reread = step 0 false in
    for cpu = 0 to 127 do
      if Coherence.stats k ~cpu <> Spec.stats s ~cpu then
        Alcotest.failf "stats diverged on cpu %d at %d" cpu addr
    done;
    Coherence.check_invariants k;
    ([ read; write; reread ], Coherence.stats k ~cpu:0)
  in
  let lats, st = episode (((max_int / 16) * 16) - 16) in
  let lats256, st256 = episode 256 in
  check_int "true-sharing re-read" 1 st.Sim_stats.true_sharing_misses;
  Alcotest.(check (list int)) "latencies as at 256" lats256 lats;
  Alcotest.(check bool) "cpu 0 stats as at 256" true (st = st256)

(* The kernel's tables are id-major, so an out-of-range CPU would read a
   neighbouring line's row: introspection rejects it instead. *)
let test_introspection_cpu_range () =
  let c =
    Coherence.create (Topology.bus ~cpus:2 ()) ~line_size:128 ~cache_capacity:4
      ~icache:{ Coherence.i_lines = 4; i_ways = None; i_line_size = 64 }
      ~hierarchy:
        { Coherence.h_l1_lines = 2; h_l1_ways = None; h_llc_lines = 4; h_llc_ways = None }
      ()
  in
  List.iter
    (fun addr -> ignore (Coherence.access c ~cpu:0 ~addr ~size:8 ~is_write:true))
    [ 0; 128 ];
  ignore (Coherence.ifetch c ~cpu:0 ~addr:0 ~size:128);
  List.iter
    (fun (what, f) ->
      match f () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "%s accepted cpu 2 of 2" what)
    [
      ("cache_state", fun () -> ignore (Coherence.cache_state c ~cpu:2 ~line:0));
      ("inv_hint", fun () -> ignore (Coherence.inv_hint c ~cpu:2 ~line:0));
      ("l1_resident", fun () -> ignore (Coherence.l1_resident c ~cpu:2 ~line:0));
      ("icache_resident", fun () -> ignore (Coherence.icache_resident c ~cpu:2 ~line:0));
    ]

(* ------------------------------------------------------------------ *)
(* Machine-level: replaying a run's recorded data and fetch traces through
   the spec must reproduce the machine's per-CPU statistics exactly. The
   data side and the I-cache never interact, so the two traces replay one
   after the other. [src] has no globals, so the data trace holds every
   access the machine made. *)

let src =
  {|
struct S { long a; long b; long arr[4]; };
void writer(struct S *s, int n) {
  for (i = 0; i < n; i++) {
    s->a = s->a + 1;
    s->arr[i % 4] = i;
  }
}
void reader(struct S *s, int n) {
  for (i = 0; i < n; i++) {
    x = s->b + s->arr[i % 4];
  }
}
|}

let check_spec_replay label (cfg : Machine.config) (r : Machine.result) =
  let s =
    Spec.create cfg.Machine.topology ~line_size:cfg.Machine.line_size
      ~cache_capacity:cfg.Machine.cache_lines ?ways:cfg.Machine.cache_ways
      ?icache:cfg.Machine.icache ?hierarchy:cfg.Machine.hierarchy
      ~protocol:cfg.Machine.protocol ()
  in
  List.iter
    (fun (ev : Machine.trace_event) ->
      ignore
        (Spec.access s ~cpu:ev.Machine.t_cpu ~addr:ev.Machine.t_addr
           ~size:ev.Machine.t_size ~is_write:ev.Machine.t_is_write))
    r.Machine.trace;
  List.iter
    (fun (ev : Machine.trace_event) ->
      ignore
        (Spec.ifetch s ~cpu:ev.Machine.t_cpu ~addr:ev.Machine.t_addr
           ~size:ev.Machine.t_size))
    r.Machine.fetch_trace;
  Array.iteri
    (fun cpu st ->
      if st <> Spec.stats s ~cpu then
        Alcotest.failf "%s: spec replay diverges from the machine on cpu %d" label
          cpu)
    r.Machine.per_cpu_stats

let run_src_machine ?code_layout ?icache ?sample_period () =
  let program = Typecheck.check (Parser.parse_program ~file:"t.mc" src) in
  let cfg =
    {
      (Machine.default_config (Topology.superdome ~cpus:4 ())) with
      Machine.cache_lines = 16;
      icache;
      sample_period;
      trace = true;
      seed = 11;
    }
  in
  let m = Machine.create cfg program in
  (match code_layout with
  | Some order -> Machine.set_code_layout m order
  | None -> ());
  let s = Machine.alloc m ~struct_name:"S" in
  for cpu = 0 to 3 do
    Machine.add_thread m ~cpu
      ~work:
        [
          ( (if cpu mod 2 = 0 then "writer" else "reader"),
            [ Machine.Ainst s; Machine.Aint 40 ] );
        ]
  done;
  (cfg, Machine.run m)

let test_machine_spec_replay () =
  let cfg, r = run_src_machine ~sample_period:50 () in
  Alcotest.(check bool) "trace non-empty" true (r.Machine.trace <> []);
  check_spec_replay "data-only run" cfg r

(* ------------------------------------------------------------------ *)
(* LRU recency rules the spec states and the kernel must share. *)

(* A remote read downgrading the owner's copy refreshes its recency. *)
let test_downgrade_refreshes_lru (module M : IMPL) () =
  let c = M.create (Topology.bus ~cpus:2 ()) ~line_size:128 ~cache_capacity:2 () in
  let read cpu line = ignore (M.access c ~cpu ~addr:(line * 128) ~size:8 ~is_write:false) in
  read 0 1;
  read 0 2;
  (* cpu 0's E copy of line 1 drops to S and becomes most recently used *)
  read 1 1;
  read 0 3;
  Alcotest.(check (list int)) "line 1 kept" [ 0; 1 ] (M.holders c ~line:1);
  Alcotest.(check (list int)) "line 2 was the LRU victim" [] (M.holders c ~line:2)

(* An Owned copy supplying a remote read is not touched. *)
let test_owned_supplier_keeps_lru (module M : IMPL) () =
  let c =
    M.create (Topology.bus ~cpus:3 ()) ~line_size:128 ~cache_capacity:2
      ~protocol:Coherence.Moesi ()
  in
  let acc cpu line w = ignore (M.access c ~cpu ~addr:(line * 128) ~size:8 ~is_write:w) in
  acc 0 0 true;
  acc 0 1 false;
  (* M -> O on the first remote read (a state change: touched) *)
  acc 1 0 false;
  acc 0 1 false;
  (* O stays O on the second: not touched, so line 0 stays the LRU *)
  acc 2 0 false;
  acc 0 2 false;
  Alcotest.(check (list int)) "line 0 evicted from cpu 0" [ 1; 2 ]
    (M.holders c ~line:0);
  Alcotest.(check (list int)) "line 1 kept" [ 0 ] (M.holders c ~line:1)

(* An L1 hit is absorbed by the L1: the L2's recency order is unchanged. *)
let test_l1_hit_leaves_l2_lru (module M : IMPL) () =
  let c =
    M.create (Topology.bus ~cpus:2 ()) ~line_size:128 ~cache_capacity:3
      ~hierarchy:
        { Coherence.h_l1_lines = 2; h_l1_ways = None; h_llc_lines = 1; h_llc_ways = None }
      ()
  in
  let read line = ignore (M.access c ~cpu:0 ~addr:(line * 128) ~size:8 ~is_write:false) in
  List.iter read [ 0; 1; 2 ];
  (* L1 hit on line 1; then an L2 hit on line 0 (evicted from the L1) *)
  read 1;
  Alcotest.(check int) "L1 hit counted" 1 (M.stats c ~cpu:0).Sim_stats.l1_hits;
  read 0;
  (* the L2 order is 0, 2, 1: line 1 is its victim, not line 2 *)
  read 3;
  Alcotest.(check (list int)) "line 1 evicted" [] (M.holders c ~line:1);
  Alcotest.(check (list int)) "line 2 kept" [ 0 ] (M.holders c ~line:2);
  Alcotest.(check (option int)) "dead victim parked in the LLC" (Some 0)
    (M.llc_cell c ~line:1)

(* Backward-shift deletion across the wrap-around boundary. With the
   minimum capacity (8 slots) the home slot is the top 3 bits of the
   Fibonacci product: keys 10, 17, 24 all home at slot 7 and key 0 homes
   at slot 0, so inserting [10; 17; 24; 0] builds one probe cluster
   spanning slots 7, 0, 1, 2 — across the wrap. Deleting the cluster head
   forces algorithm R to slide entries backwards over the boundary
   (slot 0 -> 7) while leaving the chain findable. *)
let test_flat_tab_wraparound_delete () =
  let t = Flat_tab.create ~capacity:8 () in
  let home k = (k * 0x2545F4914F6CDD1D) lsr 60 in
  check_int "10 homes at the last slot" 7 (home 10);
  check_int "17 homes at the last slot" 7 (home 17);
  check_int "24 homes at the last slot" 7 (home 24);
  check_int "0 homes at the first slot" 0 (home 0);
  check_int "absent probe key 34 homes at the last slot" 7 (home 34);
  List.iter (fun k -> Flat_tab.set t k (k * 10)) [ 10; 17; 24; 0 ];
  (* Delete the head at slot 7: 17 must wrap back 0 -> 7, then 24 and 0
     each slide one slot back on the other side of the boundary. *)
  Flat_tab.remove t 10;
  check_int "three survivors" 3 (Flat_tab.length t);
  List.iter
    (fun k -> check_int (Printf.sprintf "key %d findable after wrap" k)
        (k * 10) (Flat_tab.find t k ~default:(-1)))
    [ 17; 24; 0 ];
  Alcotest.(check bool) "deleted key gone" false (Flat_tab.mem t 10);
  (* A missing key homing inside the cluster probes through the wrap and
     still terminates at an empty slot. *)
  check_int "absent key probes through the boundary" (-1)
    (Flat_tab.find t 34 ~default:(-1));
  (* Delete the entry now sitting at slot 0: its successor (home 0) must
     move back into the exact gap, not to its own home's copy. *)
  Flat_tab.remove t 24;
  check_int "key 0 still findable" 0 (Flat_tab.find t 0 ~default:(-1));
  check_int "key 17 still findable" 170 (Flat_tab.find t 17 ~default:(-1));
  check_int "two survivors" 2 (Flat_tab.length t)

(* Keys packed as (hi lsl 31) lor lo that share [lo] agree in their low
   bits, so a home slot taken from the low bits of the Fibonacci product
   would put them all in one cluster: the sample binner's (cpu, line)
   keys and the CC map's (line, line) keys below would probe 47 and 29
   steps per operation. [probe_steps] is deterministic for a fixed
   operation history, so the bound is exact, not a timing. *)
let test_flat_tab_packed_keys_probe () =
  let run what keys =
    let t = Flat_tab.create () in
    List.iter (fun k -> ignore (Flat_tab.add t k 1)) keys;
    List.iter
      (fun k -> check_int (what ^ ": count") 1 (Flat_tab.find t k ~default:0))
      keys;
    let ops = 2 * List.length keys in
    if Flat_tab.probe_steps t > ops then
      Alcotest.failf "%s: %d probe steps over %d operations (bound: 1 each)"
        what (Flat_tab.probe_steps t) ops
  in
  let ids = List.init 64 Fun.id in
  run "64 cpus x 64 lines, (cpu lsl 31) lor line"
    (List.concat_map (fun cpu -> List.map (fun line -> (cpu lsl 31) lor line) ids)
       ids);
  run "line pairs l1 <= l2 < 64, (l1 lsl 31) lor l2"
    (List.concat_map
       (fun l1 ->
         List.filter_map
           (fun l2 -> if l1 <= l2 then Some ((l1 lsl 31) lor l2) else None)
           ids)
       ids)

let both_step k s ~cpu ~addr ~is_write =
  let a = Coherence.access k ~cpu ~addr ~size:8 ~is_write in
  let b = Spec.access s ~cpu ~addr ~size:8 ~is_write in
  check_int (Printf.sprintf "latency identical (cpu %d addr %d)" cpu addr) a b

(* The spec's directory view of [line] must match the kernel's. *)
let views_agree k s ~line =
  Alcotest.(check (list int)) "spec sharers" (Coherence.sharers k ~line)
    (Spec.sharers s ~line);
  Alcotest.(check (option int)) "spec owner" (Coherence.owner k ~line)
    (Spec.owner s ~line)

(* Sharer masks wider than one 62-bit word: CPUs 60 and 61 sit in bits
   60/61 of word 0 (the word boundary), 62 and 63 in bits 0/1 of word 1.
   The 128-CPU Superdome forces the multi-word mask path in the flat
   kernel; the spec is the oracle throughout. *)
let test_multiword_sharer_mask () =
  let topo = Topology.superdome () in
  let k = Coherence.create topo ~line_size:128 ~cache_capacity:4 ()
  and s = Spec.create topo ~line_size:128 ~cache_capacity:4 () in
  List.iter
    (fun cpu -> both_step k s ~cpu ~addr:0 ~is_write:false)
    [ 61; 60; 62; 63 ];
  Alcotest.(check (list int))
    "sharer set spans the word boundary" [ 60; 61; 62; 63 ]
    (Coherence.sharers k ~line:0);
  Alcotest.(check (option int)) "no owner" None (Coherence.owner k ~line:0);
  views_agree k s ~line:0;
  (* A write from word 0 must invalidate holders in both words at once. *)
  both_step k s ~cpu:0 ~addr:8 ~is_write:true;
  Alcotest.(check (list int)) "writer is the sole holder" [ 0 ]
    (Coherence.holders k ~line:0);
  check_int "all four copies invalidated" 4
    (Coherence.stats k ~cpu:0).Sim_stats.invalidations;
  Alcotest.(check (option (pair int int)))
    "hint recorded across the word boundary" (Some (8, 8))
    (Coherence.inv_hint k ~cpu:63 ~line:0);
  views_agree k s ~line:0;
  Alcotest.(check (option (pair int int)))
    "spec hint" (Coherence.inv_hint k ~cpu:63 ~line:0)
    (Spec.inv_hint s ~cpu:63 ~line:0);
  (* The invalidated high-word CPU classifies its next miss off the hint:
     disjoint byte intervals = false sharing. *)
  both_step k s ~cpu:63 ~addr:0 ~is_write:false;
  check_int "false-sharing miss classified in word 1" 1
    (Coherence.stats k ~cpu:63).Sim_stats.false_sharing_misses;
  Alcotest.(check bool) "spec stats agree" true
    (Coherence.stats k ~cpu:63 = Spec.stats s ~cpu:63)

(* Evicting the last sharer (a word-1 CPU) must kill the directory entry:
   holders goes empty, and a later re-fetch is a capacity miss, not a
   stale sharing miss. *)
let test_clear_last_sharer_kills_entry () =
  let topo = Topology.superdome () in
  let k = Coherence.create topo ~line_size:128 ~cache_capacity:2 ~ways:1 ()
  and s = Spec.create topo ~line_size:128 ~cache_capacity:2 ~ways:1 () in
  both_step k s ~cpu:62 ~addr:0 ~is_write:false;
  both_step k s ~cpu:63 ~addr:0 ~is_write:false;
  (* Line 2 maps to the same set as line 0 (2 sets, 1 way): each fetch
     evicts the CPU's copy of line 0, clearing its word-1 sharer bit. *)
  both_step k s ~cpu:62 ~addr:256 ~is_write:false;
  Alcotest.(check (list int)) "one sharer left" [ 63 ]
    (Coherence.holders k ~line:0);
  views_agree k s ~line:0;
  both_step k s ~cpu:63 ~addr:256 ~is_write:false;
  Alcotest.(check (list int)) "entry dead: no holders" []
    (Coherence.holders k ~line:0);
  Alcotest.(check (option int)) "entry dead: no owner" None
    (Coherence.owner k ~line:0);
  views_agree k s ~line:0;
  both_step k s ~cpu:63 ~addr:0 ~is_write:false;
  (* Every miss by CPU 63 on an already-touched line is a capacity miss
     (its line-0 join, the line-2 fetch, and this re-fetch); the point is
     that none became a stale sharing miss. *)
  let st = Coherence.stats k ~cpu:63 in
  check_int "re-fetch is a capacity miss" 3 st.Sim_stats.capacity_misses;
  check_int "no stale sharing classification" 0
    (st.Sim_stats.true_sharing_misses + st.Sim_stats.false_sharing_misses);
  Alcotest.(check bool) "spec stats agree" true (st = Spec.stats s ~cpu:63)

(* ------------------------------------------------------------------ *)
(* Instruction-fetch side. The I-cache is private and coherence-free, but
   the flat kernel and the spec must still agree to the bit — on per-line
   fetch latencies, the ifetch counters, and residency — with data traffic
   interleaved so neither side can bleed into the other. *)

let icfg = { Coherence.i_lines = 4; i_ways = None; i_line_size = 64 }

let test_ifetch_unconfigured (module M : IMPL) () =
  let c =
    M.create (Topology.bus ~cpus:2 ()) ~line_size:128 ~cache_capacity:4 ()
  in
  Alcotest.(check bool) "no icache" false (M.has_icache c);
  match M.ifetch c ~cpu:0 ~addr:0 ~size:4 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "ifetch accepted without an icache"

let test_ifetch_line_walk (module M : IMPL) () =
  let c =
    M.create (Topology.bus ~cpus:2 ()) ~line_size:128 ~cache_capacity:4
      ~icache:icfg ()
  in
  Alcotest.(check bool) "icache on" true (M.has_icache c);
  check_int "line size" 64 (M.icache_line_size c);
  (* 8 bytes at offset 60 span I-lines 0 and 1: two fetches, two misses *)
  let cold = M.ifetch c ~cpu:0 ~addr:60 ~size:8 in
  let st () = M.stats c ~cpu:0 in
  check_int "two line fetches" 2 (st ()).Sim_stats.ifetches;
  check_int "two cold misses" 2 (st ()).Sim_stats.imisses;
  check_int "stall cycles accumulate" cold (st ()).Sim_stats.istall_cycles;
  Alcotest.(check bool) "line 0 resident" true (M.icache_resident c ~cpu:0 ~line:0);
  Alcotest.(check bool) "line 1 resident" true (M.icache_resident c ~cpu:0 ~line:1);
  Alcotest.(check bool) "private: not on the other cpu" false
    (M.icache_resident c ~cpu:1 ~line:0);
  let warm = M.ifetch c ~cpu:0 ~addr:60 ~size:8 in
  Alcotest.(check bool) "warm refetch is cheaper" true (warm < cold);
  check_int "no new misses" 2 (st ()).Sim_stats.imisses;
  check_int "data side untouched" 0 ((st ()).Sim_stats.loads + (st ()).Sim_stats.stores)

let test_icache_lru (module M : IMPL) () =
  let c =
    M.create (Topology.bus ~cpus:2 ()) ~line_size:128 ~cache_capacity:4
      ~icache:icfg ()
  in
  let fetch l = ignore (M.ifetch c ~cpu:0 ~addr:(l * 64) ~size:4) in
  List.iter fetch [ 0; 1; 2; 3 ];
  (* touch 0: line 1 becomes the LRU victim of the capacity-busting fetch *)
  fetch 0;
  fetch 4;
  let res l = M.icache_resident c ~cpu:0 ~line:l in
  Alcotest.(check bool) "LRU line 1 evicted" false (res 1);
  List.iter
    (fun l ->
      Alcotest.(check bool) (Printf.sprintf "line %d resident" l) true (res l))
    [ 0; 2; 3; 4 ]

type mop = Data of int * int * int * bool | Fetch of int * int * int

let mixed_gen =
  QCheck2.Gen.(
    list_size (int_range 1 150)
      (let* tag = bool in
       let* cpu = int_range 0 1000 in
       if tag then
         let* line = int_range 0 (lines_in_play - 1) in
         let* off = int_range 0 15 in
         let* w = bool in
         return (Data (cpu, line, off, w))
       else
         let* addr = int_range 0 1023 in
         let* size = int_range 1 130 in
         return (Fetch (cpu, addr, size))))

let prop_icache_differential =
  QCheck2.Test.make
    ~name:
      "ifetch: flat == spec (latencies, stats, residency) with interleaved \
       data traffic across protocols x topologies" ~count:25
    mixed_gen
    (fun ops ->
      List.iter
        (fun (_, topology) ->
          List.iter
            (fun protocol ->
              let k =
                Coherence.create topology ~line_size:128 ~cache_capacity:8
                  ~icache:icfg ~protocol ()
              and s =
                Spec.create topology ~line_size:128 ~cache_capacity:8
                  ~icache:icfg ~protocol ()
              in
              let cpus = Topology.num_cpus topology in
              List.iter
                (function
                  | Data (cpu, line, off, w) ->
                    let cpu = cpu mod cpus
                    and addr = (line * 128) + (off * 8) in
                    let a = Coherence.access k ~cpu ~addr ~size:8 ~is_write:w in
                    let b = Spec.access s ~cpu ~addr ~size:8 ~is_write:w in
                    if a <> b then
                      Alcotest.failf "data latency diverged: kernel %d vs spec %d"
                        a b
                  | Fetch (cpu, addr, size) ->
                    let cpu = cpu mod cpus in
                    let a = Coherence.ifetch k ~cpu ~addr ~size in
                    let b = Spec.ifetch s ~cpu ~addr ~size in
                    if a <> b then
                      Alcotest.failf
                        "fetch latency diverged (cpu %d addr %d size %d): \
                         kernel %d vs spec %d"
                        cpu addr size a b)
                ops;
              Coherence.check_invariants k;
              for cpu = 0 to cpus - 1 do
                if Coherence.stats k ~cpu <> Spec.stats s ~cpu then
                  Alcotest.failf "per-cpu stats diverged on cpu %d" cpu;
                for line = 0 to 18 do
                  if
                    Coherence.icache_resident k ~cpu ~line
                    <> Spec.icache_resident s ~cpu ~line
                  then
                    Alcotest.failf "icache residency diverged: cpu %d line %d"
                      cpu line
                done
              done)
            [ Coherence.Mesi; Coherence.Moesi ])
        topologies;
      true)

(* Machine-level with the instruction side on: the spec replay of the
   data and fetch traces reproduces the machine's per-CPU statistics,
   under the declaration-order code layout and a permuted one. *)
let machine_icache =
  { Coherence.i_lines = 4; i_ways = Some 2; i_line_size = 32 }

let test_machine_fetch_replay () =
  let cfg, r = run_src_machine ~icache:machine_icache () in
  Alcotest.(check bool) "fetch trace non-empty" true
    (r.Machine.fetch_trace <> []);
  Alcotest.(check bool) "fetches counted" true
    (r.Machine.stats.Sim_stats.ifetches > 0);
  Alcotest.(check bool) "misses counted" true
    (r.Machine.stats.Sim_stats.imisses > 0);
  check_spec_replay "declaration layout" cfg r;
  let program = Typecheck.check (Parser.parse_program ~file:"t.mc" src) in
  let order =
    List.rev_map
      (fun (proc, b, _, _) -> (proc, b))
      (Machine.code_blocks
         (Machine.create
            (Machine.default_config (Topology.bus ~cpus:2 ()))
            program))
  in
  let cfg, p = run_src_machine ~icache:machine_icache ~code_layout:order () in
  Alcotest.(check bool) "permutation moved the fetches" true
    (p.Machine.fetch_trace <> r.Machine.fetch_trace);
  check_spec_replay "permuted layout" cfg p

let test_set_code_layout_validation () =
  let program = Typecheck.check (Parser.parse_program ~file:"t.mc" src) in
  let mk () =
    Machine.create
      (Machine.default_config (Topology.bus ~cpus:2 ()))
      program
  in
  let all =
    List.map (fun (proc, b, _, _) -> (proc, b)) (Machine.code_blocks (mk ()))
  in
  let expect_invalid label f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted" label
  in
  (* a full permutation is accepted and actually moves the code *)
  let m = mk () in
  let before = Machine.code_blocks m in
  Machine.set_code_layout m (List.rev all);
  Alcotest.(check bool) "layout moved the blocks" true
    (Machine.code_blocks m <> before);
  expect_invalid "unknown procedure" (fun () ->
      Machine.set_code_layout (mk ()) [ ("nope", 0) ]);
  expect_invalid "unknown block" (fun () ->
      Machine.set_code_layout (mk ()) (("writer", 999) :: List.tl all));
  expect_invalid "duplicate block" (fun () ->
      Machine.set_code_layout (mk ()) (List.hd all :: all));
  expect_invalid "incomplete cover" (fun () ->
      Machine.set_code_layout (mk ()) (List.tl all));
  let m = mk () in
  ignore (Machine.run m);
  expect_invalid "relayout after run" (fun () ->
      Machine.set_code_layout m all)

(* [Coherence.reserve] sizes the two interners along with the id tables,
   so interning exactly the reserved lines grows no interner array and
   allocates nothing; ids still follow first sight. ([Machine.run]
   reserves its arena, its globals and its code segment this way.) *)
let test_reserve_sizes_interners () =
  let icache = { Coherence.i_lines = 8; i_ways = None; i_line_size = 64 } in
  let k =
    Coherence.create (Topology.bus ~cpus:2 ()) ~line_size:128 ~cache_capacity:4
      ~icache ()
  in
  let lines = 518 and code_lines = 300 in
  Coherence.reserve k ~lines ~code_lines;
  let data_ids = Array.make lines (-1) and code_ids = Array.make code_lines (-1) in
  let minor0, promoted0, major0 = Gc.counters () in
  for l = 0 to lines - 1 do
    data_ids.(l) <- Coherence.intern k ~line:(3 * l)
  done;
  for l = 0 to code_lines - 1 do
    code_ids.(l) <- Coherence.intern_code k ~line:(7 * l)
  done;
  let minor1, promoted1, major1 = Gc.counters () in
  let words = minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0) in
  (* The first [Gc.counters] result is the only allocation left. *)
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words allocated while interning" words)
    true (words < 64.0);
  Alcotest.(check bool) "data ids in first-seen order" true
    (Array.for_all2 ( = ) data_ids (Array.init lines Fun.id));
  Alcotest.(check bool) "code ids in first-seen order" true
    (Array.for_all2 ( = ) code_ids (Array.init code_lines Fun.id))

let test_kstats_exposure () =
  let c =
    Coherence.create (Topology.bus ~cpus:2 ()) ~line_size:128 ~cache_capacity:4 ()
  in
  ignore (Coherence.access c ~cpu:0 ~addr:0 ~size:8 ~is_write:true);
  let k = Coherence.kstats c in
  Alcotest.(check bool) "dir_live tracked" true (k.Coherence.k_dir_live >= 1);
  Alcotest.(check bool) "peak >= live" true
    (k.Coherence.k_dir_peak >= k.Coherence.k_dir_live)

(* ------------------------------------------------------------------ *)
(* Multi-level hierarchy. The L1 filter, the coherent L2 and the per-cell
   victim LLCs must behave identically in the flat kernel and the spec —
   per-access latencies, the per-level hit counters, L1 residency and LLC
   placement — across protocols, topologies, and associativities at every
   level. Exhaustive interleavings of a direct-mapped multi-level config
   are pinned in Modelcheck.standard_suite. *)

let hier_variants =
  [
    ( "tiny",
      { Coherence.h_l1_lines = 1; h_l1_ways = Some 1; h_llc_lines = 2; h_llc_ways = Some 1 } );
    ( "small",
      { Coherence.h_l1_lines = 2; h_l1_ways = None; h_llc_lines = 4; h_llc_ways = Some 2 } );
    ( "roomy",
      { Coherence.h_l1_lines = 4; h_l1_ways = None; h_llc_lines = 8; h_llc_ways = None } );
    (* long LRU chains at both levels *)
    ( "wide",
      { Coherence.h_l1_lines = 18; h_l1_ways = None; h_llc_lines = 20; h_llc_ways = None } );
  ]

let prop_hier_differential =
  QCheck2.Test.make
    ~name:
      "hierarchy: flat == spec (per-level latencies, counters, L1/LLC \
       residency) across protocols x topologies x associativities" ~count:25
    wide_trace_gen
    (fun trace ->
      List.iter
        (fun (_, topology) ->
          List.iter
            (fun protocol ->
              List.iter
                (fun (_, geometry) ->
                  List.iter
                    (fun (_, hierarchy) ->
                      run_both ~hierarchy ~topology ~protocol geometry trace)
                    hier_variants)
                assoc_variants)
            [ Coherence.Mesi; Coherence.Moesi ])
        topologies;
      true)

(* Pinned per-level semantics on a two-cell machine (superdome16: cells
   {0..7} and {8..15}). Walks one access sequence through L1 hit, L2 hit,
   victim-LLC fill, local and remote LLC hits, and the L1 write fast
   path, asserting the exact latency and counter at every step. *)
let test_hier_level_walk (module M : IMPL) () =
  let topo = Topology.superdome ~cpus:16 () in
  let c =
    M.create topo ~line_size:128 ~cache_capacity:2 ~ways:1
      ~hierarchy:
        { Coherence.h_l1_lines = 1; h_l1_ways = Some 1; h_llc_lines = 4; h_llc_ways = None }
      ()
  in
  Alcotest.(check bool) "hierarchy on" true (M.has_hierarchy c);
  check_int "two cells" 2 (M.num_cells c);
  let access cpu line w = M.access c ~cpu ~addr:(line * 128) ~size:8 ~is_write:w in
  let st cpu = M.stats c ~cpu in
  (* cold miss straight to memory *)
  check_int "cold miss costs memory" 300 (access 0 0 false);
  (* L1 hit: the line was promoted on the fill *)
  check_int "L1 hit costs 1" 1 (access 0 0 false);
  check_int "l1_hits counted" 1 (st 0).Sim_stats.l1_hits;
  Alcotest.(check bool) "L1 resident" true (M.l1_resident c ~cpu:0 ~line:0);
  (* a second line displaces the 1-line L1 but not the L2 *)
  check_int "second cold miss" 300 (access 0 1 false);
  Alcotest.(check bool) "L1 displaced" false (M.l1_resident c ~cpu:0 ~line:0);
  check_int "L1-miss L2-hit costs l2_hit" 10 (access 0 0 false);
  check_int "l2_hits counted" 1 (st 0).Sim_stats.l2_hits;
  (* line 2 conflicts with line 0 (2 sets, 1 way): the dead victim drops
     into cell 0's LLC *)
  check_int "conflict miss" 300 (access 0 2 false);
  Alcotest.(check (option int)) "victim parked in cell 0" (Some 0)
    (M.llc_cell c ~line:0);
  (* a CPU in the other cell re-fetches it: remote LLC hit, capped at
     memory latency (the crossbar is farther than local memory) *)
  check_int "remote LLC hit capped at memory" 300 (access 8 0 false);
  check_int "remote LLC hit counted" 1 (st 8).Sim_stats.llc_remote_hits;
  Alcotest.(check (option int)) "LLC copy consumed" None (M.llc_cell c ~line:0);
  (* park a line in cell 1's LLC and take the local hit: an intra-cell
     transfer (200) beats memory (300). Lines 5 and 7 are untouched, so
     both fills go to memory and the victim's directory entry is dead. *)
  check_int "cold miss in cell 1" 300 (access 8 5 false);
  check_int "conflict evicts line 5 to cell 1's LLC" 300 (access 8 7 false);
  Alcotest.(check (option int)) "victim parked in cell 1" (Some 1)
    (M.llc_cell c ~line:5);
  check_int "local LLC hit costs same_cell" 200 (access 8 5 false);
  check_int "local LLC hit counted" 1 (st 8).Sim_stats.llc_local_hits;
  (* E -> M silent upgrade is an L2 hit (it must reach the directory),
     then the M + L1-resident write takes the fast path *)
  check_int "silent upgrade costs l2_hit" 10 (access 8 0 true);
  check_int "upgrade counted as L2 hit" 1 (st 8).Sim_stats.l2_hits;
  check_int "M write through L1 costs 1" 1 (access 8 0 true);
  check_int "fast path counted as L1 hit" 1 (st 8).Sim_stats.l1_hits;
  M.check_invariants c

let test_hier_validation (module M : IMPL) () =
  let mk hierarchy =
    M.create (Topology.bus ~cpus:2 ()) ~line_size:128 ~cache_capacity:4
      ~hierarchy ()
  in
  let expect_invalid label h =
    match mk h with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted" label
  in
  expect_invalid "zero L1 lines"
    { Coherence.h_l1_lines = 0; h_l1_ways = None; h_llc_lines = 4; h_llc_ways = None };
  expect_invalid "zero LLC lines"
    { Coherence.h_l1_lines = 2; h_l1_ways = None; h_llc_lines = 0; h_llc_ways = None };
  expect_invalid "bad L1 associativity"
    { Coherence.h_l1_lines = 2; h_l1_ways = Some 3; h_llc_lines = 4; h_llc_ways = None };
  let c =
    mk { Coherence.h_l1_lines = 2; h_l1_ways = None; h_llc_lines = 4; h_llc_ways = None }
  in
  Alcotest.(check bool) "valid geometry accepted" true (M.has_hierarchy c)

(* Each hand-written scenario, once per implementation. *)
let on_both name f =
  [
    Alcotest.test_case (name ^ " (flat)") `Quick (f (module Kernel : IMPL));
    Alcotest.test_case (name ^ " (spec)") `Quick (f (module Oracle : IMPL));
  ]

let suites =
  [
    ( "sim.kernel.flat_tab",
      [
        QCheck_alcotest.to_alcotest prop_flat_tab_matches_hashtbl;
        Alcotest.test_case "grow and backward-shift delete" `Quick
          test_flat_tab_grow_and_shift;
        Alcotest.test_case "backward-shift delete across the wrap boundary"
          `Quick test_flat_tab_wraparound_delete;
        Alcotest.test_case "packed keys probe at most once per operation"
          `Quick test_flat_tab_packed_keys_probe;
      ] );
    ( "sim.kernel.masks",
      [
        Alcotest.test_case "sharer mask across the 62-bit word boundary"
          `Quick test_multiword_sharer_mask;
        Alcotest.test_case "clearing the last sharer kills the entry" `Quick
          test_clear_last_sharer_kills_entry;
      ] );
    ("sim.kernel.differential", [ QCheck_alcotest.to_alcotest prop_differential ]);
    ( "sim.kernel.invariants",
      [ QCheck_alcotest.to_alcotest prop_directory_invariants ] );
    ( "sim.kernel.hints",
      on_both "stale hint dropped with episode" test_hint_staleness
      @ on_both "live hint still classifies" test_hint_live_episode
      @ [
          Alcotest.test_case "hint keys near max_int on 128 CPUs" `Quick
            test_hint_key_overflow;
        ] );
    ( "sim.kernel.cache",
      on_both "remote-read downgrade refreshes LRU" test_downgrade_refreshes_lru
      @ on_both "Owned supplier keeps its LRU position"
          test_owned_supplier_keeps_lru
      @ on_both "L1 hit leaves the L2 LRU alone" test_l1_hit_leaves_l2_lru );
    ( "sim.kernel.machine",
      [
        Alcotest.test_case "machine trace replays exactly through the spec"
          `Quick test_machine_spec_replay;
        Alcotest.test_case "kstats exposure" `Quick test_kstats_exposure;
        Alcotest.test_case "reserve sizes the interners" `Quick
          test_reserve_sizes_interners;
        Alcotest.test_case "introspection rejects an out-of-range cpu" `Quick
          test_introspection_cpu_range;
      ] );
    ( "sim.kernel.icache",
      on_both "ifetch without an icache is rejected" test_ifetch_unconfigured
      @ on_both "line walk, counters, privacy" test_ifetch_line_walk
      @ on_both "true-LRU replacement" test_icache_lru
      @ [
          QCheck_alcotest.to_alcotest prop_icache_differential;
          Alcotest.test_case "machine fetch trace replays exactly through the spec"
            `Quick test_machine_fetch_replay;
          Alcotest.test_case "set_code_layout validation" `Quick
            test_set_code_layout_validation;
        ] );
    ( "sim.kernel.hierarchy",
      QCheck_alcotest.to_alcotest prop_hier_differential
      :: on_both "per-level latency walk on two cells" test_hier_level_walk
      @ on_both "geometry validation" test_hier_validation );
  ]
