(** The Field Mapping File (§4.3): which struct fields are accessed, and
    how, by the code on each source line.

    Built directly from the lowered CFGs: every load/store instruction
    carries its source location, so the map from line to
    (struct, field, read/write) is exact — the compiler-emitted FMF of the
    paper without the lossy IP-to-source round trip. *)

type access = { f_struct : string; f_field : string; f_is_write : bool }

type t

val of_program : Slo_ir.Ast.program -> t
(** The program must be typechecked. *)

val of_cfgs : Slo_ir.Cfg.t list -> t

val accesses_at : t -> line:int -> access list
(** Accesses on a line (deduplicated; a field appears at most twice — once
    as read, once as write). Empty for lines without field accesses. *)

val fields_at : t -> line:int -> struct_name:string -> (string * bool) list
(** (field, is_write) pairs for one struct on one line. *)

(** {2 Resolved table}

    {!fields_at} finds a line, reverses its list and filters it by name:
    fine once, too slow in a loop over every sample or every line pair.
    A {!Table.t} resolves one struct's accesses once. Each source line
    maps to the struct's field accesses as (field index, is-write), in
    {!fields_at} order; the field index space is the names of the
    struct's fields that the mapping mentions, sorted by
    [String.compare]. A line is one array read, and reading a line's
    entries allocates nothing. [Hier.profile] (one read per sample) and
    {!Cycle_loss.compute} (two per line pair, adding into a field ×
    field matrix) read it. *)

module Table : sig
  type t

  type entries
  (** One line's accesses of the struct. *)

  val fields : t -> string array
  (** Field index -> name, ascending by name. *)

  val at : t -> line:int -> entries
  (** The accesses on [line]; none for a negative line or one past the
      last line of the mapping. *)

  val length : entries -> int
  val field : entries -> int -> int
  (** [field e k] is the field index of entry [k] of [e]. *)

  val is_write : entries -> int -> bool
end

val table : t -> struct_name:string -> Table.t
(** [table t ~struct_name] answers for every line what {!fields_at}
    answers, with field names replaced by their index. Source lines are
    non-negative; linear in the size of the mapping. *)

val lines_accessing : t -> struct_name:string -> int list
(** Lines touching any field of the struct, sorted. *)

val writes_field_at : t -> line:int -> struct_name:string -> field:string -> bool

val pp : Format.formatter -> t -> unit
