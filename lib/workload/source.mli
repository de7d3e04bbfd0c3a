(** The built-in workloads' minic sources, parsed once. *)

val memo : file:string -> string -> unit -> Slo_ir.Ast.program
(** [memo ~file source] is a function that parses and typechecks [source]
    ([file] names it in error locations) on its first call and returns
    that same program on every later call. Calls may come from any
    domain. *)
