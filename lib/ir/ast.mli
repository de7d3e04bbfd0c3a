(** Abstract syntax of {b minic}, the small C-like language the layout tool
    analyzes.

    Minic deliberately contains exactly what the paper's analyses consume:
    struct declarations with sized/aligned fields, procedures whose
    parameters are struct pointers or integers, counted [for] loops (the
    affinity granularity), conditionals, and expressions whose only memory
    accesses are struct field reads/writes. Everything else in a real kernel
    (syscalls, locking, I/O) is abstracted by the [pause] statement, which
    burns simulated cycles without touching memory, and by the [rand]
    intrinsic for probabilistic control flow. *)

(** Primitive field/value types with C sizes for LP64. *)
type prim =
  | Char  (** 1 byte *)
  | Short  (** 2 bytes, align 2 *)
  | Int  (** 4 bytes, align 4 *)
  | Long  (** 8 bytes, align 8 *)
  | Double  (** 8 bytes, align 8 *)
  | Ptr  (** 8 bytes, align 8 *)

val prim_size : prim -> int
val prim_align : prim -> int
val prim_to_string : prim -> string

(** A struct field: a primitive or a fixed-size array of primitives. *)
type field_decl = {
  fd_name : string;
  fd_prim : prim;
  fd_count : int;  (** 1 for scalars, [n] for [prim name\[n\]] *)
  fd_loc : Loc.t;
}

val field_size : field_decl -> int
val field_align : field_decl -> int

type struct_decl = {
  sd_name : string;
  sd_fields : field_decl list;
  sd_loc : Loc.t;
}

(** Binary operators. Comparison and logical operators produce 0/1. *)
type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Lt
  | Le
  | Gt
  | Ge
  | Eq
  | Ne
  | And
  | Or

val binop_to_string : binop -> string

type expr =
  | Int_lit of int * Loc.t
  | Var of string * Loc.t  (** local variable or integer parameter *)
  | Field_read of { inst : string; field : string; index : expr option; loc : Loc.t }
      (** [inst->field] or [inst->field\[index\]] where [inst] is a struct
          pointer parameter *)
  | Global_read of string * Loc.t
      (** read of a global variable (resolved from [Var] by the
          typechecker) *)
  | Binop of binop * expr * expr * Loc.t
  | Rand of expr * Loc.t  (** [rand(n)]: uniform in [\[0,n)], per-thread PRNG *)

val expr_loc : expr -> Loc.t

type lvalue =
  | Lvar of string * Loc.t
  | Lglobal of string * Loc.t  (** resolved from [Lvar] by the typechecker *)
  | Lfield of { inst : string; field : string; index : expr option; loc : Loc.t }

type stmt =
  | Assign of lvalue * expr * Loc.t
  | For of { var : string; count : expr; body : block; loc : Loc.t }
      (** [for (v = 0; v < count; v++) body] *)
  | If of { cond : expr; then_ : block; else_ : block option; loc : Loc.t }
  | Pause of expr * Loc.t  (** burn [e] simulated cycles (models non-struct work) *)
  | Call of { proc : string; args : arg list; loc : Loc.t }

and block = stmt list

and arg =
  | Arg_expr of expr  (** integer argument *)
  | Arg_inst of string * Loc.t  (** forward a struct-pointer parameter *)

type param =
  | Pstruct of { struct_name : string; name : string; loc : Loc.t }
  | Pint of { name : string; loc : Loc.t }

val param_name : param -> string

type proc_decl = {
  pd_name : string;
  pd_params : param list;
  pd_body : block;
  pd_loc : Loc.t;
}

type program = {
  structs : struct_decl list;
  globals : field_decl list;
      (** top-level scalar variables; laid out by the GVL extension *)
  procs : proc_decl list;
}

val globals_struct_name : string
(** ["$globals"] — the pseudo-struct under which global variables are
    reported by every analysis (profile counts, FMF, affinity, FLG), so
    global variable layout reuses the whole field-layout pipeline. The
    name cannot clash with user structs ([$] is not lexable). *)

val globals_struct : program -> struct_decl option
(** The synthetic struct holding the globals; [None] if there are none. *)

val find_struct : program -> string -> struct_decl option
(** Also resolves {!globals_struct_name} to the synthetic globals struct. *)

val find_proc : program -> string -> proc_decl option
val find_field : struct_decl -> string -> field_decl option
