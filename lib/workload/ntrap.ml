module Machine = Slo_sim.Machine
module Topology = Slo_sim.Topology
module Coherence = Slo_sim.Coherence
module Fmf = Slo_concurrency.Fmf
module Field = Slo_layout.Field
module Layout = Slo_layout.Layout
module Hier = Slo_search.Hier
module Objective = Slo_search.Objective
module Optimizer = Slo_search.Optimizer

let struct_name = "N"
let line_size = 128
let n_cold = 16 (* n_z0..n_z15: pushes decl order to two lines *)

(* Per-role loop trip counts for the profiling run. Under the declaration
   layout the far pair ping-pongs, so owner and peeker accumulate about
   one transfer's worth of sampled cycles per alternation each and the
   counts come out near-equal. That is exactly the regime the trap needs:
   the flat loss [min(w_hot, a_ro)] is capped by the gain, so the flat
   objective never separates the pair (colocation stays weakly optimal),
   while the Superdome's 10/3 cross-crossbar penalty pushes the same
   edge decisively negative. *)
let own_trips = 400

let peek_trips = 400

let source =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "struct N {\n  long n_hot;\n  long n_ro;\n  long n_loc;\n  long n_lro;\n";
  for i = 0 to n_cold - 1 do
    Buffer.add_string buf (Printf.sprintf "  long n_z%d;\n" i)
  done;
  Buffer.add_string buf "};\n\n";
  let proc name body =
    Buffer.add_string buf
      (Printf.sprintf
         "void %s(struct N *n, int t) {\n\
         \  for (i = 0; i < t; i++) {\n\
         \    %s\n\
         \    pause(2);\n\
          }\n\
          }\n\n"
         name body)
  in
  proc "n_own_far" "n->n_hot = n->n_hot + n->n_ro;";
  proc "n_peek_far" "u = n->n_ro;";
  proc "n_own_near" "n->n_loc = n->n_loc + n->n_lro;";
  proc "n_peek_near" "u = n->n_lro;";
  Buffer.contents buf

let program = Source.memo ~file:"ntrap.mc" source

let fields () =
  match Slo_ir.Ast.find_struct (program ()) struct_name with
  | Some sd -> Field.of_struct sd
  | None -> invalid_arg "Ntrap.fields: struct N missing"

(* Role CPUs (far owner, far peeker, near owner, near peeker). The far
   pair sits at opposite ends of the machine — cross-crossbar on a scaled
   Superdome — while the near pair shares a chip. On four CPUs the chip
   pairing degenerates but every distance is uniform on the bus machines
   we use that size for. *)
let roles topo =
  let cpus = Topology.num_cpus topo in
  if cpus < 4 then invalid_arg "Ntrap.roles: need at least 4 CPUs";
  if cpus >= 8 then (0, cpus / 2, 2, 3) else (0, cpus / 2, 1, 3)

(* The multi-level geometry the demo runs under: a small private L1 in
   front of each coherent cache and a per-cell victim LLC. *)
let hierarchy = { Coherence.h_l1_lines = 8; h_l1_ways = None; h_llc_lines = 64; h_llc_ways = None }

let sample_period = 16

(* One profiling run: each role CPU loops on its own field pair of a
   single shared instance while the PMU sampler attributes cycles to
   source lines; {!Hier.profile} turns those samples into per-CPU
   per-field counts. *)
let samples topo =
  let cfg =
    { (Machine.default_config topo) with
      Machine.sample_period = Some sample_period;
      seed = 11;
      hierarchy = Some hierarchy }
  in
  let m = Machine.create cfg (program ()) in
  let inst = Machine.alloc m ~struct_name in
  let a, b, c, d = roles topo in
  let add cpu proc trips =
    Machine.add_thread m ~cpu ~work:[ (proc, [ Machine.Ainst inst; Machine.Aint trips ]) ]
  in
  add a "n_own_far" own_trips;
  add b "n_peek_far" peek_trips;
  add c "n_own_near" own_trips;
  add d "n_peek_near" peek_trips;
  (Machine.run m).Machine.samples

let profile topo =
  Hier.profile
    ~fmf:(Fmf.of_program (program ()))
    ~struct_name ~fields:(fields ())
    ~ncpus:(Topology.num_cpus topo) (samples topo)

let hier_objective topo =
  Hier.objective ~topo ~struct_name ~line_size (profile topo)

let flat_objective topo =
  Hier.flat_objective ~struct_name ~line_size (profile topo)

let optimize obj =
  (Optimizer.run_selector obj ~init:(Optimizer.decl_blocks obj)
     Optimizer.Portfolio)
    .Optimizer.best.Optimizer.layout

let layout_hier topo = optimize (hier_objective topo)
let layout_flat topo = optimize (flat_objective topo)

(* Replay the same access mix with real work volumes under a candidate
   layout. Each role CPU sweeps a small instance population so the
   far-pair traffic repeats across instances; the near pair behaves
   identically under both candidate layouts (both colocate it), so any
   makespan difference is the far-pair colocation decision. *)
let measure_makespan ~topo layout =
  let cfg =
    { (Machine.default_config topo) with
      Machine.seed = 13;
      hierarchy = Some hierarchy }
  in
  let m = Machine.create cfg (program ()) in
  Machine.set_layout m layout;
  let pop = Array.init 12 (fun _ -> Machine.alloc m ~struct_name) in
  let npop = Array.length pop in
  let a, b, c, d = roles topo in
  let add cpu proc =
    let work = ref [] in
    for sweep = 5 downto 0 do
      for k = npop - 1 downto 0 do
        let idx = (k + (cpu * 5) + (sweep * 3)) mod npop in
        work := (proc, [ Machine.Ainst pop.(idx); Machine.Aint 4 ]) :: !work
      done
    done;
    Machine.add_thread m ~cpu ~work:!work
  in
  add a "n_own_far";
  add b "n_peek_far";
  add c "n_own_near";
  add d "n_peek_near";
  (Machine.run m).Machine.makespan
