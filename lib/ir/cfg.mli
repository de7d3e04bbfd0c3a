(** Control-flow graphs for minic procedures.

    Lowering flattens expressions so that {e every} struct-field access is a
    distinct [Iload]/[Istore] instruction carrying its own source location —
    the analyses need per-access granularity (read/write kind, enclosing
    block, enclosing loop). Pure expressions ([pexpr]) contain no memory
    accesses.

    Loops are structural (minic only has counted [for]), so loop nesting is
    recorded exactly at lowering time rather than recovered by dominator
    analysis: each block knows its innermost loop, and the loop table gives
    depth and parentage. This matches the paper's affinity granularity
    ("at the loop level, or in straight line code", §4.1).

    Evaluation-order note: [&&]/[||] do not short-circuit; both operands are
    always evaluated. Workloads in this repo do not rely on short-circuit. *)

type block_id = int
type loop_id = int

(** Pure expressions: no memory access, no randomness. *)
type pexpr =
  | Pint of int
  | Pvar of string
  | Pbinop of Ast.binop * pexpr * pexpr

type call_arg = Cexpr of pexpr | Cinst of string

type instr =
  | Iload of {
      dst : string;
      inst : string;  (** struct-pointer parameter *)
      struct_name : string;
      field : string;
      index : pexpr option;
      loc : Loc.t;
    }
  | Igload of { dst : string; name : string; loc : Loc.t }
      (** global variable read *)
  | Igstore of { name : string; src : pexpr; loc : Loc.t }
      (** global variable write *)
  | Istore of {
      inst : string;
      struct_name : string;
      field : string;
      index : pexpr option;
      src : pexpr;
      loc : Loc.t;
    }
  | Iassign of { dst : string; value : pexpr; loc : Loc.t }
  | Irand of { dst : string; bound : pexpr; loc : Loc.t }
  | Ipause of { cycles : pexpr; loc : Loc.t }
  | Icall of { proc : string; args : call_arg list; loc : Loc.t }

val instr_loc : instr -> Loc.t

type terminator =
  | Tgoto of block_id
  | Tbranch of { cond : pexpr; if_true : block_id; if_false : block_id; loc : Loc.t }
  | Treturn

type block = {
  b_id : block_id;
  b_instrs : instr array;
  b_term : terminator;
  b_loop : loop_id option;  (** innermost enclosing loop *)
}

type loop_info = {
  l_id : loop_id;
  l_header : block_id;
  l_depth : int;  (** 1 for outermost loops *)
  l_parent : loop_id option;
  l_loc : Loc.t;
}

type t = {
  proc_name : string;
  params : Ast.param list;
  struct_of_param : (string * string) list;  (** param name, struct name *)
  entry : block_id;
  blocks : block array;  (** indexed by [block_id] *)
  loops : loop_info array;  (** indexed by [loop_id] *)
}

val of_program : Ast.program -> (string * t) list
(** Lower every procedure of a typechecked program, in declaration order. *)

val block : t -> block_id -> block
val num_blocks : t -> int
val successors : block -> block_id list
val loop_depth : t -> block_id -> int
(** 0 for blocks outside any loop. *)

(** A struct-field access site within a block. *)
type access = {
  a_block : block_id;
  a_inst : string;
  a_struct : string;
  a_field : string;
  a_is_write : bool;
  a_loc : Loc.t;
}

val accesses : t -> access list
(** Every field access site of the procedure, in block/instruction order.
    Global variable accesses are reported with
    [a_struct = Ast.globals_struct_name] and [a_inst = "$globals"]. *)

val pp : Format.formatter -> t -> unit
(** Human-readable CFG dump (for the tool's diagnostics). *)
