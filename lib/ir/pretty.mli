(** Pretty-printing of minic programs.

    [program_to_string] produces valid minic source: for any well-formed
    program [p], [Parser.parse_program (program_to_string p)] yields a
    program equal to [p] up to source locations (a property test asserts
    this round trip). *)

val pp_program : Format.formatter -> Ast.program -> unit
val program_to_string : Ast.program -> string
val expr_to_string : Ast.expr -> string
