(** Concrete structure layouts: an ordered sequence of fields with computed
    byte offsets.

    Offsets follow the C ABI rules the paper's compiler obeys: each field is
    placed at the next offset aligned to its natural alignment, and the
    struct size is rounded up to the maximum field alignment. Structure
    instances are assumed to start at cache-line boundaries (§2: true for
    the HP-UX arena allocator; our simulator's arena enforces it), so a
    field's cache line is [offset / line_size].

    Two constructors matter to the optimizer:
    - {!of_fields}: lay fields out in the given order (what sort-by-hotness
      and the baseline hand layouts use);
    - {!of_clusters}: give each cluster its own cache line(s) (what the FLG
      clustering produces) — every cluster starts at a fresh line boundary. *)

type slot = { field : Field.t; offset : int }

type t = private {
  struct_name : string;
  slots : slot list;  (** in layout order; offsets strictly increasing *)
  size : int;  (** padded to struct alignment *)
  align : int;
}

val of_fields : struct_name:string -> Field.t list -> t
(** Lay out fields in order with C padding rules.
    @raise Invalid_argument on duplicate field names or an empty list. *)

val of_struct : Slo_ir.Ast.struct_decl -> t
(** The declared (baseline) layout of a struct. *)

val of_clusters : struct_name:string -> line_size:int -> Field.t list list -> t
(** [of_clusters ~struct_name ~line_size clusters] lays out each cluster in
    order, padding so that each new cluster begins on a fresh cache line.
    Within a cluster, field order is preserved.
    @raise Invalid_argument if [line_size] is not positive, any cluster is
    empty, or field names repeat across clusters. *)

type segment =
  | Packed of Field.t list
      (** continue at the current offset with normal alignment *)
  | Line_start of Field.t list
      (** advance to the next cache-line boundary first *)

val of_segments : struct_name:string -> line_size:int -> segment list -> t
(** Mixed placement used by incremental (constraint-based) layouts:
    [Line_start] segments begin on a fresh line; [Packed] segments continue
    wherever the previous segment ended. The struct size is padded to whole
    lines. @raise Invalid_argument on empty input, an empty segment, or
    duplicate field names. *)

val reorder : t -> order:string list -> t
(** Re-lay out with the given complete field-name permutation.
    @raise Invalid_argument if [order] is not a permutation of the field
    names. *)

val fields : t -> Field.t list
val field_names : t -> string list

val offset_of : t -> string -> int
(** @raise Not_found for unknown fields. *)

val cache_line_of : t -> line_size:int -> string -> int
(** Line index of the first byte of the field. *)

val lines_used : t -> line_size:int -> int
(** Number of cache lines the struct spans. *)

val fields_on_line : t -> line_size:int -> int -> Field.t list
(** Fields whose first byte lies on the given line. *)

val same_line : t -> line_size:int -> string -> string -> bool
(** Whether two fields' first bytes share a cache line — the colocation
    predicate the FLG weights are defined against. *)

val packed_size : Field.t list -> int
(** Size of the fields laid out consecutively with C padding — used by the
    clustering algorithm to test whether a candidate cluster still fits in a
    cache line. *)

val packed_extend : int -> Field.t -> int
(** [packed_extend (packed_size fs) f = packed_size (fs @ [f])] in O(1):
    align the running size to [f], then add [f]'s size. Lets cluster growth
    carry its packed size incrementally instead of re-walking the member
    list for every candidate. *)

val straddles_line : t -> line_size:int -> string -> bool
(** Whether the field's bytes cross a line boundary. *)

val padding_bytes : t -> int
(** Total padding (bytes not covered by any field) including tail padding. *)

val equal_order : t -> t -> bool
(** Same field order (hence identical offsets for equal field sets). *)

val check_invariants : t -> unit
(** Assert internal invariants: strictly increasing offsets, alignment
    respected, no overlap, size covers all fields.
    @raise Invalid_argument with a description if violated. *)

val pp : Format.formatter -> t -> unit
(** Render as an offset-annotated struct, one field per line. *)

val pp_lines : line_size:int -> Format.formatter -> t -> unit
(** Render grouped by cache line (the tool's layout report format). *)
