(** The code-layout trap workload: a synthetic CFG program whose
    declaration-order code layout is measurably bad.

    Twelve [stage] procedures each run a hot loop whose body brackets two
    cold paths (12 instructions each) that first fire past trip 42 — never
    within {!run_sim}'s 32 trips, but within {!profile}'s
    longer runs. The CFG lowering places the cold blocks between
    the hot ones, so declaration order spreads each stage's hot path over
    about three 64-byte I-cache lines while its true hot footprint fits
    one. With all stages round-robined through a 16-line I-cache, the hot
    working set is ~36 lines under declaration order (thrash) but ~12
    after affinity search packs each stage's hot blocks together — the
    code-layout analog of {!Trap}'s field-layout counterexample, and the
    end-to-end witness that the searched block order reduces simulated
    fetch misses. *)

val source : string
(** The minic source ([stage0] .. [stage11]). *)

val program : unit -> Slo_ir.Ast.program
(** Parsed and typechecked, memoized. *)

val profile : unit -> Slo_profile.Counts.t
(** Block/edge counts from one interpreter pass over every stage (double
    trip count, same cold period). Deterministic — the input to
    [Codelayout.of_program]. *)

val icache : Slo_sim.Coherence.icache
(** 16 lines x 64 bytes, fully associative — sized between the optimized
    and declaration-order hot footprints. *)

val run_sim :
  ?cpus:int ->
  ?code_layout:(string * int) list ->
  unit ->
  Slo_sim.Machine.result
(** Run the trap mix on the simulator with {!icache} configured,
    optionally under a block-order override; compare
    [stats.Sim_stats.imisses] across layouts. Deterministic for fixed
    arguments. *)
