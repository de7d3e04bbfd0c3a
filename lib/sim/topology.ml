type latencies = {
  l1_hit : int;
  l2_hit : int;
  same_chip : int;
  same_bus : int;
  same_cell : int;
  same_crossbar : int;
  cross_crossbar : int;
  memory : int;
}

type t = { cpus : int; lat : latencies; hierarchical : bool }

let superdome_latencies =
  {
    l1_hit = 1;
    l2_hit = 10;
    same_chip = 60;
    same_bus = 120;
    same_cell = 200;
    same_crossbar = 450;
    cross_crossbar = 1000;
    memory = 300;
  }

(* "the cost of accessing remote caches is only slightly higher than an L2
   miss" — remote transfer barely above memory. *)
let bus_latencies =
  {
    l1_hit = 1;
    l2_hit = 10;
    same_chip = 110;
    same_bus = 110;
    same_cell = 110;
    same_crossbar = 110;
    cross_crossbar = 110;
    memory = 100;
  }

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let superdome ?(cpus = 128) () =
  if cpus < 2 || cpus > 128 || not (is_power_of_two cpus) then
    invalid_arg "Topology.superdome: cpus must be a power of two in [2,128]";
  { cpus; lat = superdome_latencies; hierarchical = true }

let bus ?(cpus = 4) () =
  if cpus < 2 then invalid_arg "Topology.bus: cpus must be >= 2";
  { cpus; lat = bus_latencies; hierarchical = false }

let num_cpus t = t.cpus
let latencies t = t.lat

let check_cpu t who cpu =
  if cpu < 0 || cpu >= t.cpus then
    invalid_arg (Printf.sprintf "Topology.%s: cpu %d out of range" who cpu)

(* Superdome coordinates: chip = cpu/2, bus = cpu/4, cell = cpu/8,
   crossbar = cpu/32. Scaled-down machines keep the same divisors so that,
   e.g., a 16-way machine is half a crossbar. *)
let transfer_latency t ~src ~dst =
  check_cpu t "transfer_latency" src;
  check_cpu t "transfer_latency" dst;
  if src = dst then invalid_arg "Topology.transfer_latency: src = dst";
  if not t.hierarchical then t.lat.same_bus
  else if src / 2 = dst / 2 then t.lat.same_chip
  else if src / 4 = dst / 4 then t.lat.same_bus
  else if src / 8 = dst / 8 then t.lat.same_cell
  else if src / 32 = dst / 32 then t.lat.same_crossbar
  else t.lat.cross_crossbar

let memory_latency t = t.lat.memory
let l2_hit_latency t = t.lat.l2_hit

(* Cells of 8 CPUs on the hierarchical machine; a bus machine is one cell.
   Machines smaller than a cell (superdome ~cpus:2..4) are also one cell. *)
let cpus_per_cell = 8
let cells_per_crossbar = 4 (* 32 CPUs per crossbar / 8 per cell *)
let num_cells t = if t.hierarchical then max 1 (t.cpus / cpus_per_cell) else 1

let cell_of t cpu =
  check_cpu t "cell_of" cpu;
  if num_cells t = 1 then 0 else cpu / cpus_per_cell

let check_cell t who cell =
  if cell < 0 || cell >= num_cells t then
    invalid_arg (Printf.sprintf "Topology.%s: cell %d out of range" who cell)

(* Latency of an L2 miss served by a cell's shared LLC, as seen from [cpu]:
   a cell-local hit costs an intra-cell transfer; a remote cell costs the
   crossbar distance between the CPU's cell and the holder's cell. The
   memory cap belongs to the caller (a remote LLC can be farther than local
   memory; the coherence kernel pays the cheaper of the two). *)
let llc_hit_latency t ~cpu ~cell =
  check_cpu t "llc_hit_latency" cpu;
  check_cell t "llc_hit_latency" cell;
  if not t.hierarchical || num_cells t = 1 then t.lat.same_cell
  else if cell_of t cpu = cell then t.lat.same_cell
  else if cell_of t cpu / cells_per_crossbar = cell / cells_per_crossbar then
    t.lat.same_crossbar
  else t.lat.cross_crossbar

let invalidation_latency t ~writer ~holders =
  check_cpu t "invalidation_latency" writer;
  List.fold_left
    (fun acc h ->
      if h = writer then acc else max acc (transfer_latency t ~src:writer ~dst:h))
    0 holders

let describe t =
  if t.hierarchical then
    Printf.sprintf
      "%d-CPU hierarchical (chips of 2, buses of 4, cells of 8, crossbars of \
       32; remote transfer up to %d cycles)"
      t.cpus t.lat.cross_crossbar
  else
    Printf.sprintf "%d-CPU bus (remote transfer %d cycles, memory %d cycles)"
      t.cpus t.lat.same_bus t.lat.memory
