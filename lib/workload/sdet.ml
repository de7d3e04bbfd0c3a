module Topology = Slo_sim.Topology
module Machine = Slo_sim.Machine
module Layout = Slo_layout.Layout
module Stats = Slo_util.Stats

type config = {
  topology : Topology.t;
  overrides : Layout.t list;
  reps : int;
  cache_lines : int;
  protocol : Slo_sim.Coherence.protocol;
  sample_period : int option;
  seed : int;
  trace : bool;
  icache : Slo_sim.Coherence.icache option;
  code_layout : (string * int) list option;
}

let default_config topology =
  {
    topology;
    overrides = [];
    reps = 30;
    cache_lines = 512;
    protocol = Slo_sim.Coherence.Mesi;
    sample_period = None;
    seed = 1;
    trace = false;
    icache = None;
    code_layout = None;
  }

(* Population sizes. A, D and E scale with the machine so that the number
   of threads sharing one instance stays constant (8, 2 and 8); B and C are
   fixed pools that create per-CPU cache pressure. *)
let pop_a cpus = max 1 (cpus / 8)
let pop_b = 16
let pop_c = 96
let pop_d cpus = max 1 (cpus / 2)
let pop_e cpus = max 1 (cpus / 4)

let build cfg =
  let program = Kernel.program () in
  let cpus = Topology.num_cpus cfg.topology in
  let machine =
    Machine.create
      { (Machine.default_config cfg.topology) with
        Machine.line_size = Kernel.line_size;
        cache_lines = cfg.cache_lines;
        protocol = cfg.protocol;
        sample_period = cfg.sample_period;
        seed = cfg.seed;
        trace = cfg.trace;
        icache = cfg.icache }
      program
  in
  (match cfg.code_layout with
  | Some order -> Machine.set_code_layout machine order
  | None -> ());
  List.iter
    (fun name -> Machine.set_layout machine (Kernel.baseline_layout name))
    (Kernel.struct_names @ [ Slo_ir.Ast.globals_struct_name ]);
  List.iter (fun l -> Machine.set_layout machine l) cfg.overrides;
  let alloc_pop name n =
    Array.init n (fun _ -> Machine.alloc machine ~struct_name:name)
  in
  let insts_a = alloc_pop "A" (pop_a cpus) in
  let insts_b = alloc_pop "B" pop_b in
  let insts_c = alloc_pop "C" pop_c in
  let insts_d = alloc_pop "D" (pop_d cpus) in
  let insts_e = alloc_pop "E" (pop_e cpus) in
  for t = 0 to cpus - 1 do
    (* Instance-mates are chosen far apart in the topology (t, t + pop,
       t + 2*pop, ...): kernel data structures are shared across the whole
       machine, which is what makes remote coherence traffic expensive. The
       writer class / lock role alternates with t / pop so that every
       instance sees all classes (A), one writer of each parity (D), and
       both lockers and peekers (E). *)
    let a_inst = insts_a.(t mod Array.length insts_a) in
    (* Writer classes stride across the class space: with fewer sharers
       than classes (small machines) the active classes spread out (e.g.
       {0,2,4,6} for four sharers), like a hash of the CPU id. *)
    let sharers_a = max 1 (cpus / Array.length insts_a) in
    let stride_a =
      max 1 (Kernel.num_classes_a / min sharers_a Kernel.num_classes_a)
    in
    let cls_a = t / Array.length insts_a * stride_a mod Kernel.num_classes_a in
    (* D and E instances are shared by topologically adjacent CPUs (device
       interrupt affinity, local wait channels), so their coherence traffic
       is cheap; A's process table spans the whole machine. *)
    let d_inst = insts_d.(t / 2 mod Array.length insts_d) in
    let cls_d = t in
    let e_inst = insts_e.(t / 4 mod Array.length insts_e) in
    let locker_e = t mod 2 = 0 in
    let work = ref [] in
    for r = cfg.reps - 1 downto 0 do
      let b1 = insts_b.(((t * 7) + (r * 13)) mod pop_b) in
      let cbase = ((t * 31) + (r * 17)) mod pop_c in
      let rep_ops =
        [
          ("a_hot", [ Machine.Ainst a_inst; Machine.Aint cls_a; Machine.Aint 4 ]);
          ("b_lookup", [ Machine.Ainst b1; Machine.Aint 3 ]);
          ("d_op", [ Machine.Ainst d_inst; Machine.Aint cls_d; Machine.Aint 4 ]);
          ( (if locker_e then "e_acquire" else "e_peek"),
            [ Machine.Ainst e_inst; Machine.Aint 4 ] );
          ("sys_tick", [ Machine.Aint (t mod 4); Machine.Aint 2 ]);
          ("b_scan", [ Machine.Ainst b1; Machine.Aint 3 ]);
          ("a_warm", [ Machine.Ainst a_inst; Machine.Aint 3 ]);
        ]
      in
      let c_ops =
        if r mod 2 = 0 then
          [ ("c_read", [ Machine.Ainst insts_c.(cbase mod pop_c); Machine.Aint 4 ]) ]
        else []
      in
      let rare_ops =
        (if r mod 40 = t mod 40 then
           [ ("b_update", [ Machine.Ainst b1; Machine.Aint 1 ]) ]
         else [])
        @ (if r mod 7 = t mod 7 then
             [ ("a_cold", [ Machine.Ainst a_inst; Machine.Aint 2 ]) ]
           else [])
        @ (if r mod 16 = t mod 16 then
             [ ("a_update", [ Machine.Ainst a_inst; Machine.Aint 1 ]) ]
           else [])
        @
        if r mod 6 = t mod 6 then
          [ ("d_cold", [ Machine.Ainst d_inst; Machine.Aint 2 ]) ]
        else []
      in
      work := rep_ops @ c_ops @ rare_ops @ !work
    done;
    Machine.add_thread machine ~cpu:t ~work:!work
  done;
  machine

let run_once cfg = Machine.run (build cfg)

let trace_oracle cfg =
  let machine = build { cfg with trace = true } in
  let result = Machine.run machine in
  Slo_sim.Trace_oracle.analyze
    ~resolve:(Machine.resolve_addr machine)
    ~line_size:Kernel.line_size result.Machine.trace

let throughputs ?pool cfg ~runs =
  (* Each run builds its own machine from an explicit seed, so runs are
     fully independent; the pool fans them out one machine per task. The
     seed list (and hence the result list) is identical to the serial
     List.init path for every pool size. *)
  let seeds = List.init runs (fun i -> cfg.seed + i) in
  let run seed = Machine.throughput (run_once { cfg with seed }) in
  match pool with
  | None -> List.map run seeds
  | Some pool -> Slo_exec.Pool.map pool run seeds

let measure ?pool cfg ~runs = Stats.trimmed_mean (throughputs ?pool cfg ~runs)

let speedup_percent ?pool cfg ~runs ~candidate =
  let baseline = measure ?pool { cfg with overrides = [] } ~runs in
  let measured = measure ?pool { cfg with overrides = [ candidate ] } ~runs in
  Stats.speedup_percent ~baseline ~measured
