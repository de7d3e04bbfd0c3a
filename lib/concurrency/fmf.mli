(** The Field Mapping File (§4.3): which struct fields are accessed, and
    how, by the code on each source line.

    Built directly from the lowered CFGs: every load/store instruction
    carries its source location, so the map from line to
    (struct, field, read/write) is exact — the compiler-emitted FMF of the
    paper without the lossy IP-to-source round trip. *)

type t

val of_program : Slo_ir.Ast.program -> t
(** The program must be typechecked. *)

val fields_at : t -> line:int -> struct_name:string -> (string * bool) list
(** (field, is_write) pairs for one struct on one line, deduplicated (a
    field appears at most twice — once as read, once as write). Empty for
    lines without an access of the struct. *)

(** {2 Resolved table}

    {!fields_at} finds a line, reverses its list and filters it by name:
    fine once, too slow in a loop over every sample or every line pair.
    A {!Table.t} resolves one struct's accesses once, over a field index
    space the caller gives: a {!Slo_util.Names.t}, in practice the
    struct's declared fields in declaration order, which the affinity
    graph and the FLG share. Each source line maps to the struct's field
    accesses as (field index, is-write), in {!fields_at} order, leaving
    out any field the index space does not name. A line is one array
    read, and reading a line's entries allocates nothing. [Hier.profile]
    (one read per sample) and {!Cycle_loss.compute} (two per line pair,
    adding into a field × field matrix) read it. This is the one name →
    index step between the FMF and the search (DESIGN §19). *)

module Table : sig
  type t

  type entries
  (** One line's accesses of the struct. *)

  val at : t -> line:int -> entries
  (** The accesses on [line]; none for a negative line or one past the
      last line of the mapping. *)

  val length : entries -> int
  val field : entries -> int -> int
  (** [field e k] is the field index of entry [k] of [e]. *)

  val is_write : entries -> int -> bool
end

val table : t -> struct_name:string -> fields:Slo_util.Names.t -> Table.t
(** [table t ~struct_name ~fields] answers for every line what
    {!fields_at} answers, with each field replaced by its index in
    [fields] and the fields [fields] does not name left out. Source lines
    are non-negative; linear in the size of the mapping. *)

val pp : Format.formatter -> t -> unit
