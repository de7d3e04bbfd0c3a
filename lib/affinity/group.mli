(** Affinity groups (§3.1, §4.1): fields of a struct referenced at the same
    level of granularity.

    One group per loop (the fields accessed in blocks whose {e innermost}
    loop is that loop) and one straight-line group per procedure (fields
    accessed in blocks outside every loop). Each group records the dynamic
    read/write counts of each field within the group's region — the inputs
    to the Minimum Heuristic. *)

type kind = Loop of Slo_ir.Cfg.loop_id | Straight_line

type t = {
  g_proc : string;
  g_kind : kind;
  g_weight : int;
      (** region execution frequency: the loop body's execution count
          [EC(L)], or the procedure entry count [Freq(P)] *)
  g_fields : (string * Slo_profile.Counts.rw) list;
      (** per field: dynamic reference counts within the region, sorted by
          field name; fields with zero references are omitted *)
}

val refs : Slo_profile.Counts.rw -> int
(** reads + writes. *)

val field_refs : t -> string -> Slo_profile.Counts.rw
(** Zero counts for fields not in the group. *)

val of_program :
  Slo_ir.Ast.program ->
  Slo_profile.Counts.t ->
  struct_name:string ->
  t list
(** Groups across all procedures (lowered on the fly). *)

val pp : Format.formatter -> t -> unit
