(** The synthetic kernel: five structures with the access properties the
    paper reports for its five anonymized HP-UX kernel structs (§5), plus
    the minic operation code that exercises them.

    The real structs are proprietary; what drives the paper's results is
    each struct's {e sharing/locality profile}, which we reproduce:

    - {b struct A} ("process accounting"): >100 fields; 16 hot read-shared
      fields; 8 hot per-class counters written by disjoint thread classes —
      the heavy false-sharing struct. Sort-by-hotness packs all eight
      counters onto one line and collapses under invalidation traffic on a
      big machine; the hand baseline gives each counter its own line padded
      with cold fields. The hand layout has one deliberate blemish: two hot
      read fields ([a_gen], [a_mask]) overflowed onto counter 7's line —
      the kind of flaw the incremental (subgraph) mode finds (§5.2).
    - {b struct B} ("file node"): medium size; two strongly affine read
      pairs that the baseline splits across lines; one mildly contended
      writer field. Locality-dominated with a little false sharing.
    - {b struct C} ("route entry"): hot read-only fields scattered among
      cold ones in the baseline; pure locality win, no writes.
    - {b struct D} ("device state"): hot/cold split plus two counters
      written by the two thread parities.
    - {b struct E} ("wait channel"): a lock word written by every locker
      plus data fields read by lock-free peekers; colocating the lock with
      the data false-shares the peekers.

    All field names are prefixed by the struct letter so that graphs and
    reports are unambiguous. *)

val source : string
(** The minic source of the whole kernel (structs + operations). *)

val program : unit -> Slo_ir.Ast.program
(** Parsed and typechecked, memoized. *)

val struct_names : string list
(** ["A"; "B"; "C"; "D"; "E"]. *)

val num_classes_a : int
(** Number of writer classes (counters) in struct A. *)

val baseline_layout : string -> Slo_layout.Layout.t
(** The hand-tuned layout of a struct (the paper's baseline).
    @raise Invalid_argument for unknown structs. *)

val declared_layout : string -> Slo_layout.Layout.t
(** The declaration-order layout ("original programmer order"). *)

val line_size : int
(** 128 bytes, the Itanium L2 coherence-block size used throughout. *)
