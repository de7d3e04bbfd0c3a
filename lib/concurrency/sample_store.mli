(** Columnar (structure-of-arrays) sample storage.

    A profile of n samples is held as three packed numeric columns —
    [cpu : int32], [itc : int64], [line : int32] — in Bigarrays rather
    than as a list of boxed {!Sample.t} records. This is the same
    SoA-over-AoS discipline the paper argues for applied to the tool's own
    hottest input: 16 bytes per sample, contiguous, no per-record
    allocation, shareable read-only across domains, and mappable straight
    from the binary on-disk format
    ({!Slo_persist.Persist.load_samples_bin}) without a decode pass.

    {b Invariant.} Every element satisfies [0 <= cpu, line <= ]
    {!Sample.max_id} and [itc] fits a 63-bit OCaml int. Constructors
    validate ({!of_columns} scans mapped columns once; {!append} checks
    per call) and raise [Invalid_argument] otherwise.

    This is the one in-memory form {!Code_concurrency.compute} accepts:
    lists arrive through {!of_samples}, text files through
    {!Slo_persist.Persist.store_of_samples_file} (16 bytes per sample, no
    boxed list and no record per sample), binary files through
    {!Slo_persist.Persist.load_samples_bin}. *)

type i32 = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t
type i64 = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t

val length : t -> int

val cpu : t -> int -> int
val itc : t -> int -> int
val line : t -> int -> int
(** Column reads (bounds-checked by the Bigarray layer). *)

val get : t -> int -> Sample.t
(** The i-th sample as a boxed record — convenience for tests and small
    consumers; hot paths read the columns directly. *)

val of_columns : ?validate:bool -> cpu:i32 -> itc:i64 -> line:i32 -> unit -> t
(** Wrap three equal-length columns. With [validate] (the default) every
    element is range-checked once — the path untrusted (mapped) data takes.
    [~validate:false] is for columns already known in-range.
    @raise Invalid_argument on length mismatch or out-of-range data. *)

val columns : t -> i32 * i64 * i32
(** The underlying (cpu, itc, line) columns, e.g. for writing them out. *)

val iter : t -> (Sample.t -> unit) -> unit
val to_samples : t -> Sample.t list
val of_samples : Sample.t list -> t
(** @raise Invalid_argument if a sample is out of range. *)

(** {1 Incremental construction} *)

type builder
(** Amortized-doubling columnar accumulator: how a store is built when the
    sample count is not known up front (text files, sample producers,
    generators). *)

val builder : ?capacity:int -> unit -> builder
val append : builder -> cpu:int -> itc:int -> line:int -> unit
(** @raise Invalid_argument if [cpu] or [line] is outside
    [0 .. Sample.max_id]. *)

val built : builder -> int
(** Samples appended so far. *)

val build : builder -> t
(** The accumulated store. O(1): the store aliases the builder's storage. *)

val of_iter : ((Sample.t -> unit) -> unit) -> t
(** The store a sample producer fills, in production order: a fresh
    {!builder}, [iter] applied to {!append} of each sample's fields, then
    {!build}.
    @raise Invalid_argument if a sample is out of range. *)
