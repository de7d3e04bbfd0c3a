(** Execution-driven multiprocessor simulation of minic programs.

    A machine binds together a {!Topology}, a {!Coherence} hierarchy, a
    value store, an arena allocator, and one interpreter thread per CPU.
    Threads execute compiled CFGs instruction by instruction; memory
    accesses execute in (local clock, CPU) order, so accesses from
    different CPUs interleave at cycle granularity and coherence traffic
    (including false sharing) emerges from the actual access streams.

    The per-CPU clock doubles as the Itanium ITC analog: clocks start
    synchronized at 0 and tick with that CPU's own progress, and the
    optional sampler records (cpu, code location, clock) triples every
    [sample_period] cycles — exactly what HP Caliper's whole-system mode
    provides to the CodeConcurrency computation (§4.2).

    Cost model (cycles): non-memory instructions 1; [pause(e)] costs
    [1 + e]; a load costs 2 and a store 8 (port and store-buffer
    occupancy) plus the coherence latency; calls cost 5; terminators cost
    1. A store that costs real time is also what lets the PMU sampler
    observe write-heavy code in proportion to its cost. Structure
    instances are allocated at cache-line boundaries (the paper's
    arena-allocator assumption, §2). *)

type config = {
  topology : Topology.t;
  line_size : int;  (** coherence-block size; 128 on the paper's Itanium *)
  cache_lines : int;  (** per-CPU cache capacity in lines *)
  cache_ways : int option;  (** associativity; [None] = fully associative *)
  protocol : Coherence.protocol;  (** MESI (default) or MOESI *)
  sample_period : int option;  (** PMU sampling period; [None] disables *)
  seed : int;  (** master PRNG seed; threads derive per-thread streams *)
  trace : bool;  (** record the full memory-access trace (expensive) *)
  icache : Coherence.icache option;
      (** simulate the instruction-fetch side: every block entry
          (invocation start, goto, branch, call — not return) fetches the
          block's code-address range through a private per-CPU I-cache and
          pays the fetch latency. [None] (default) leaves the machine
          byte-identical to the fetch-free model. *)
  hierarchy : Coherence.hierarchy option;
      (** simulate the multi-level NUMA memory hierarchy: a private L1
          filter per CPU in front of the coherent cache (now the L2) and a
          shared victim LLC per topology cell, with asymmetric local /
          remote LLC latencies. [None] (default) keeps the single-level
          machine byte-identical to the pre-hierarchy model. *)
}

(** One struct/global memory access, as recorded when [config.trace] is
    set. The trace is the input to the {!Trace_oracle}, which measures the
    {e actual} false sharing the paper's §3 calls impractical to obtain on
    real hardware. *)
type trace_event = {
  t_cpu : int;
  t_itc : int;  (** issuing CPU's clock at the access *)
  t_addr : int;
  t_size : int;
  t_is_write : bool;
}

val default_config : Topology.t -> config
(** line_size 128, 4096 fully-associative lines, MESI, no sampling,
    seed 42, no I-cache, no multi-level hierarchy. *)

type t

type instance
(** A struct instance placed in simulated memory. *)

val instance_struct : instance -> string
val instance_base : instance -> int

type arg = Aint of int | Ainst of instance

(** One recorded PMU sample. *)
type sample = {
  s_cpu : int;
  s_itc : int;  (** the CPU's clock when the sample fired *)
  s_proc : string;
  s_block : Slo_ir.Cfg.block_id;
  s_line : int;  (** source line of the instruction executing *)
}

type result = {
  makespan : int;  (** cycles until the last thread finished *)
  cpu_cycles : int array;
  invocations : int;  (** total top-level work items executed *)
  cpu_invocations : int array;  (** work items per CPU *)
  stats : Sim_stats.t;  (** whole-machine memory statistics *)
  per_cpu_stats : Sim_stats.t array;
  samples : sample list;
      (** in (itc, CPU) order: every CPU ticks at the same clocks, so this
          is each CPU's first sample in CPU order, then each one's second,
          and so on *)
  trace : trace_event list;
      (** in (itc, CPU) order, the order the accesses execute in; empty
          unless [config.trace] *)
  fetch_trace : trace_event list;
      (** instruction-fetch events (one per block entry, [t_is_write]
          false, [t_addr]/[t_size] the block's code range), in (itc, CPU)
          order; empty unless both [config.trace] and [config.icache] are
          set *)
}

val throughput : result -> float
(** Sum over CPUs of (work items / cycles), in items per million cycles —
    the SDET "scripts per hour" analog. Summing per-CPU rates (rather than
    dividing by the makespan) matches how SDET accounts a continuously
    loaded system and is robust to one slow script. *)

val create : config -> Slo_ir.Ast.program -> t
(** The program must be typechecked. Layouts default to declaration order
    ({!Slo_layout.Layout.of_struct}).
    @raise Invalid_argument if [config.sample_period] is [Some p] with
    [p <= 0]. *)

val set_layout : t -> Slo_layout.Layout.t -> unit
(** Override the layout used for a struct (keyed by the layout's
    [struct_name]). Must be called before any [alloc] of that struct and
    before [run]; the layout's field set must match the declaration.
    @raise Invalid_argument otherwise. *)

val code_block_size : Slo_ir.Cfg.block -> int
(** Code bytes of one basic block: [4 * (ninstrs + 1)] — the single source
    of block sizes, shared with the code-layout optimizer. *)

val code_blocks : t -> (string * Slo_ir.Cfg.block_id * int * int) list
(** [(proc, block, address, size)] of every basic block under the current
    code layout, ascending by address. Sizes are [4 * (ninstrs + 1)] bytes
    (one 4-byte slot per instruction plus the terminator); the default
    layout packs procedures in program order, blocks in CFG index order,
    contiguously from the code-segment base. *)

val set_code_layout : t -> (string * Slo_ir.Cfg.block_id) list -> unit
(** Reassign code addresses: blocks are packed contiguously in the given
    order (the code-layout optimizer's output). The order must cover every
    basic block of every procedure exactly once. Only affects runs with an
    I-cache configured. Must be called before {!run}.
    @raise Invalid_argument on an unknown procedure/block, a duplicate, an
    incomplete cover, or after the machine ran. *)

val alloc : t -> struct_name:string -> instance
(** Arena-allocate a zeroed instance at the next line boundary. *)

val add_thread : t -> cpu:int -> work:(string * arg list) list -> unit
(** Pin a thread to [cpu] executing the given invocations in order. At most
    one thread per CPU. @raise Invalid_argument on a duplicate CPU, unknown
    procedure, or argument mismatch. *)

val run : t -> result
(** Execute all threads to completion. A machine can only be run once.
    The {!Calendar} tree picks the thread with the least clock at every
    step, the lowest CPU among equal clocks: the schedule is canonical
    (clock, CPU) order. A picked thread is queued again at its new clock,
    or retired once its work is done.
    On completion the run's aggregates are also bumped into
    {!Slo_obs.Obs.default} as [sim.*] counters (runs, makespan_cycles,
    invocations, steps, pops, loads/stores/hits, the miss breakdown,
    upgrades, invalidations, writebacks, stall_cycles, samples) — one bump
    per run, never on the per-access hot path, and order-independent
    under a pool. [sim.steps] counts the instructions and terminators
    executed; steps that start an invocation or retire a finished thread
    do not count. [sim.pops] counts the calendar's picks.
    A picked thread runs on through the local steps that follow its
    step (every op but a load or a store, and the start of an
    invocation) and is queued again at the clock of its next memory op.
    Local steps touch only their thread's frame and PRNG, their CPU's
    private I-cache and its statistics, so this executes every memory op
    in the same (clock, CPU) order, with the same latencies and values,
    as {!run_stepwise}, and every field of the result is identical.
    @raise Invalid_argument on re-run, or when a thread's clock reaches
    [max_int lsr s], [s] the bits that number the threads (2{^56} - 1
    cycles at 64 CPUs), past which the tree cannot order clocks.
    @raise Slo_profile.Interp.Runtime_error on dynamic errors, located at
    the faulting instruction or terminator. A fault in a step run ahead
    of its turn is raised at that turn, so the error is the one
    {!run_stepwise} raises. *)

val run_stepwise : t -> result
(** {!run} one step per calendar pick: the oracle {!run} is tested
    against, as {!Spec} is for the coherence kernel. Only tests call it.
    Same exceptions and counters as {!run}, except [sim.pops]: one pick
    per step, the starts and retirements included. *)

val coherence : t -> Coherence.t
(** The coherence hierarchy (for invariant checks in tests). {!run}
    numbers its lines first — the arena's in address order, so that an
    arena line's id is its line number — and raises [Invalid_argument] if
    driving the kernel earlier numbered other lines first. *)

val read_field : t -> instance -> field:string -> ?index:int -> unit -> int
(** Read a field's value directly from simulated memory, without going
    through a CPU (for assertions and debugging). Unwritten locations
    read 0. @raise Invalid_argument on unknown fields or bad indices. *)

val resolve_addr : t -> int -> (string * int * string * int) option
(** [(struct_name, instance_id, field, element_index)] owning a byte
    address, if any; globals resolve to
    ({!Slo_ir.Ast.globals_struct_name}, -1, name, 0). *)

val read_global : t -> name:string -> int
(** Read a global variable directly from simulated memory. Global
    variables live in their own line-aligned segment whose layout defaults
    to declaration order and can be overridden with {!set_layout} using a
    layout named {!Slo_ir.Ast.globals_struct_name} (the GVL extension).
    @raise Invalid_argument for unknown globals. *)
