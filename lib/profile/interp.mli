(** Run-to-completion interpreter for minic, used for the PBO collect phase.

    This interpreter executes a single logical thread and records profile
    counts; it has no notion of caches or time. (Timed, interleaved
    execution is the job of the multiprocessor simulator, which shares this
    module's value semantics.)

    Locals default to 0 on first read; field values live in {!instance}
    stores and persist across calls, so successive runs see each other's
    writes — just like profiling successive operations on live kernel
    data. *)

type instance
(** A struct instance: named field storage (layout-independent). *)

val make_instance : Slo_ir.Ast.program -> struct_name:string -> instance
(** Fresh zero-initialized instance.
    @raise Invalid_argument for unknown structs. *)

val instance_struct : instance -> string

val get_field : instance -> field:string -> ?index:int -> unit -> int
(** @raise Invalid_argument for unknown fields or out-of-range indices. *)

type arg = Aint of int | Ainst of instance

type ctx
(** Prepared program: lowered CFGs for every procedure. *)

val make_ctx : Slo_ir.Ast.program -> ctx
(** The program must already be typechecked ({!Slo_ir.Typecheck.check}). *)

val get_global : ctx -> name:string -> int
(** Current value of a global variable (globals persist across runs on the
    same context). @raise Invalid_argument for unknown names. *)

val set_global : ctx -> name:string -> int -> unit

exception Runtime_error of string * Slo_ir.Loc.t
(** Out-of-range array index, or division by zero. *)

val run :
  ctx ->
  ?counts:Counts.t ->
  prng:Slo_util.Prng.t ->
  proc:string ->
  arg list ->
  unit
(** Execute one invocation. [counts], when given, accumulates block, edge
    and field-reference counts (including callees').
    @raise Invalid_argument on unknown procedure or arity mismatch.
    @raise Runtime_error on dynamic errors. *)
