type prim = Char | Short | Int | Long | Double | Ptr

let prim_size = function
  | Char -> 1
  | Short -> 2
  | Int -> 4
  | Long | Double | Ptr -> 8

let prim_align = prim_size

let prim_to_string = function
  | Char -> "char"
  | Short -> "short"
  | Int -> "int"
  | Long -> "long"
  | Double -> "double"
  | Ptr -> "ptr"

type field_decl = {
  fd_name : string;
  fd_prim : prim;
  fd_count : int;
  fd_loc : Loc.t;
}

let field_size fd = prim_size fd.fd_prim * fd.fd_count
let field_align fd = prim_align fd.fd_prim

type struct_decl = {
  sd_name : string;
  sd_fields : field_decl list;
  sd_loc : Loc.t;
}

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

let binop_to_string = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "%"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | Eq -> "=="
  | Ne -> "!="
  | And -> "&&"
  | Or -> "||"

type expr =
  | Int_lit of int * Loc.t
  | Var of string * Loc.t
  | Field_read of { inst : string; field : string; index : expr option; loc : Loc.t }
  | Global_read of string * Loc.t
  | Binop of binop * expr * expr * Loc.t
  | Rand of expr * Loc.t

let expr_loc = function
  | Int_lit (_, l) | Var (_, l) | Global_read (_, l) | Binop (_, _, _, l)
  | Rand (_, l) -> l
  | Field_read { loc; _ } -> loc

type lvalue =
  | Lvar of string * Loc.t
  | Lglobal of string * Loc.t
  | Lfield of { inst : string; field : string; index : expr option; loc : Loc.t }

type stmt =
  | Assign of lvalue * expr * Loc.t
  | For of { var : string; count : expr; body : block; loc : Loc.t }
  | If of { cond : expr; then_ : block; else_ : block option; loc : Loc.t }
  | Pause of expr * Loc.t
  | Call of { proc : string; args : arg list; loc : Loc.t }

and block = stmt list

and arg = Arg_expr of expr | Arg_inst of string * Loc.t

type param =
  | Pstruct of { struct_name : string; name : string; loc : Loc.t }
  | Pint of { name : string; loc : Loc.t }

let param_name = function Pstruct { name; _ } | Pint { name; _ } -> name

type proc_decl = {
  pd_name : string;
  pd_params : param list;
  pd_body : block;
  pd_loc : Loc.t;
}

type program = {
  structs : struct_decl list;
  globals : field_decl list;
  procs : proc_decl list;
}

let globals_struct_name = "$globals"

let globals_struct p =
  match p.globals with
  | [] -> None
  | fields ->
    Some { sd_name = globals_struct_name; sd_fields = fields; sd_loc = Loc.dummy }

let find_struct p name =
  if String.equal name globals_struct_name then globals_struct p
  else List.find_opt (fun sd -> String.equal sd.sd_name name) p.structs

let find_proc p name =
  List.find_opt (fun pd -> String.equal pd.pd_name name) p.procs

let find_field sd name =
  List.find_opt (fun fd -> String.equal fd.fd_name name) sd.sd_fields
