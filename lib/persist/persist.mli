(** Persistence of the collection phase's data products.

    The paper's toolchain is file-based: the compiler writes a feedback
    file (PBO counts) and an affinity report, Caliper writes sample files,
    and "an external script processes Caliper's output files" (§4.3).
    This module provides the same staging for our pipeline: profile counts
    and PMU samples serialize to line-oriented text files, so collection
    and analysis can run as separate processes (see `slayout collect` /
    `slayout suggest --profile --samples`).

    Formats are versioned, whitespace-separated, one record per line:

    {v
    slo-profile 1
    block  <proc> <block> <count>
    edge   <proc> <src> <dst> <count>
    field  <proc> <block> <struct> <field> <reads> <writes>

    slo-samples 1
    <cpu> <itc> <line>
    v}

    Identifiers are percent-encoded (exactly two hex digits per escape) so
    procedure, struct and field names may contain any byte except NUL.
    Counts, reads/writes, cpu and line must be non-negative; the sample
    [itc] is a signed timestamp. Anything else — malformed escapes
    included — raises {!Parse_error} rather than decoding loosely.

    {b Numeric bounds.} Parsing rejects values that would decode fine but
    corrupt state later: counts/reads/writes are capped at {!max_count}
    (2^53 — far beyond any real profile, exactly representable as a
    double, and leaving headroom so accumulating merged profiles cannot
    wrap [max_int]); sample [cpu]/[line] are capped at
    [Slo_concurrency.Sample.max_id] (2^31 − 1, the packed-key and binary
    32-bit column bound). Out-of-range records raise {!Parse_error} with
    the offending 1-based line number.

    For 10⁷–10⁸-sample profiles the text format is the bottleneck, so
    samples also have a compact binary columnar format, [slo-samples-bin
    1]: a 32-byte header (magic, per-column element widths, byte-order
    marker, u64 sample count) followed by the three columns — itc as
    packed int64, cpu and line as packed int32 — each at an offset aligned
    to its element width. {!load_samples_bin} maps the whole file
    ([Unix.map_file]) and wraps the columns as a
    {!Slo_concurrency.Sample_store.t} in O(1) syscalls; one validation
    scan replaces the per-line parse. Malformed binary input (bad magic,
    width/byte-order mismatch, size ≠ 32 + 16n, out-of-range values)
    raises {!Bin_error}. *)

exception Parse_error of string * int
(** message, 1-based line number. *)

exception Bin_error of string
(** The {!Parse_error} analogue for the binary format (no line numbers —
    messages carry the path and byte-level context instead). *)

val max_count : int
(** 2^53, the largest accepted count/reads/writes value. *)

(** {1 Profile counts} *)

val counts_to_string : Slo_profile.Counts.t -> string
val counts_of_string : string -> Slo_profile.Counts.t
(** @raise Parse_error on malformed input. *)

val save_counts : path:string -> Slo_profile.Counts.t -> unit
val load_counts : path:string -> Slo_profile.Counts.t

(** {1 PMU samples} *)

val samples_of_string : string -> Slo_concurrency.Sample.t list
(** Parse a whole [slo-samples 1] text. A byte scanner parses each
    canonical record ([<digits> <-?digits> <digits>], an optional ['\r'],
    fields of at most 18 digits, ids at most
    [Slo_concurrency.Sample.max_id]) in place and hands its cpu, itc and
    line on as ints, so the list allocates only its samples; every other
    line — the header, blank lines, other spacing, signs, underscores,
    hex, longer numbers, errors — goes to the line
    parser ([String.trim], split on spaces, [int_of_string_opt]), so the
    scanner accepts exactly what that parser accepts, with the same
    samples, and fails with the same {!Parse_error}.
    @raise Parse_error on malformed input. *)

val save_samples : path:string -> Slo_concurrency.Sample.t list -> unit
(** Write a sample list in the text format, through {!save_store_text}
    (the format's one writer). *)

val iter_samples_file : path:string -> (Slo_concurrency.Sample.t -> unit) -> unit
(** [iter_samples_file ~path f] applies [f] to every sample of a
    [slo-samples 1] file in record order, reading the file in 64 KiB
    chunks through the byte scanner {!samples_of_string} also uses (a
    line longer than a chunk still parses), and builds the sample record
    [f] takes from each record's fields. {!store_of_samples_file} reads
    through the same scanner without the record.
    @raise Parse_error on malformed input (same errors and line numbers
    as {!samples_of_string}). *)

(** {1 Binary columnar samples — [slo-samples-bin 1]}

    Byte layout (host byte order for the columns, recorded in the header):

    {v
    0..17    magic "slo-samples-bin 1\n"
    18..20   element widths: itc 8, cpu 4, line 4
    21       column byte order: 1 little-endian, 2 big-endian
    22..29   sample count n (u64, little-endian)
    30..31   zero padding
    32..     itc column (8n), then cpu (4n), then line (4n)
    v}

    File size is exactly [32 + 16n]; anything else is rejected. *)

val samples_bin_magic : string
val samples_bin_header_size : int

val save_samples_bin : path:string -> Slo_concurrency.Sample_store.t -> unit
(** Write the store as [slo-samples-bin 1]: one header write, then each
    column blitted through a shared mapping — no per-sample encoding. *)

val load_samples_bin : path:string -> Slo_concurrency.Sample_store.t
(** Map the file and return its columns as a store: O(1) syscalls plus a
    single range-validation scan ({!Slo_concurrency.Sample_store.of_columns}),
    the scan being what keeps the zero-copy path as strict as the text
    parser. @raise Bin_error on any malformation. *)

val store_of_samples_file : path:string -> Slo_concurrency.Sample_store.t
(** Parse a {e text} [slo-samples 1] file straight into a columnar store,
    streaming: the scanner of {!iter_samples_file} appends each record's
    three fields to a {!Slo_concurrency.Sample_store.builder}, so neither
    a sample list nor a record per sample is built (the read buffer and
    the builder's columns are the allocation, whatever the length).
    @raise Parse_error on malformed input. *)

val save_store_text : path:string -> Slo_concurrency.Sample_store.t -> unit
(** Write a store in the text format — the inverse of
    {!store_of_samples_file}. *)

val convert_samples_to_bin : src:string -> dst:string -> int
(** Text file → binary file; returns the sample count.
    @raise Parse_error on malformed text input. *)

val convert_samples_to_text : src:string -> dst:string -> int
(** Binary file → text file; returns the sample count.
    @raise Bin_error on malformed binary input. *)

(** {1 Atomic writes}

    Every save in this module goes through one of these: the contents are
    written to a fresh temp file in the {e same directory} as the
    destination and renamed over it only after the body completed, so the
    destination always holds either the complete old contents or the
    complete new contents — a crash (or any exception raised by the body)
    mid-write leaves the original file untouched and removes the temp
    file. This is the invariant the serve daemon's snapshot/restore loop
    rests on, and it holds for profile counts, text and binary samples,
    and serve snapshots alike. Exposed so tests can inject a failing body
    and so new formats inherit the discipline. *)

val atomic_write : path:string -> (out_channel -> unit) -> unit
(** Run the body against a temp-file channel, then atomically rename onto
    [path]. The channel is closed either way; on exception the temp file
    is removed, [path] is untouched, and the exception is re-raised. *)

val atomic_write_fd : path:string -> (Unix.file_descr -> unit) -> unit
(** {!atomic_write} with a raw descriptor — for bodies that extend the
    file through shared mappings ({!save_samples_bin}, serve
    snapshots). *)

(** {1 Serve snapshots — [slo-serve-snapshot 1]}

    The serve daemon's windowed state: its live intervals' histograms as
    four mmap-aligned columns plus scalar metadata, canonically sorted so
    a save/load/save round trip is byte-identical.

    {v
    0..20    magic "slo-serve-snapshot 1\n"
    21       column byte order: 1 little-endian, 2 big-endian
    22..23   zero padding
    24..31   row count n (u64, little-endian)
    32..39   interval length (i64, >= 1)
    40..47   window length in intervals (i64, >= 1)
    48..55   published layout version (i64, >= 0)
    56..63   newest interval index (i64, signed)
    64..     idx column (8n), count column (8n), cpu (4n), line (4n)
    v}

    Rows are non-zero histogram entries in strictly ascending
    (idx, line, cpu) order; every idx must lie in (newest − window,
    newest], and the counts sum to at most {!max_count}. File size is
    exactly [64 + 24n]. *)

val serve_snapshot_magic : string
val serve_snapshot_header_size : int

type serve_snapshot = {
  snap_interval : int;  (** interval length, >= 1 *)
  snap_window : int;  (** window length in intervals, >= 1 *)
  snap_version : int;  (** last published layout version, >= 0 *)
  snap_newest : int;
      (** newest interval index accepted (meaningful when [snap_tables]
          is non-empty) *)
  snap_tables : (int * Slo_concurrency.Sample.interval_table) list;
      (** the live intervals' tables by interval index, strictly
          ascending, each holding at least one sample
          ({!Slo_serve.Window.tables}) *)
}

val save_serve_snapshot :
  path:string ->
  interval:int ->
  window:int ->
  version:int ->
  newest:int ->
  (int * Slo_concurrency.Sample.interval_table) list ->
  unit
(** Write the windowed state, live tables by interval index, atomically.
    @raise Invalid_argument if [interval <= 0], [window <= 0],
    [version < 0], the indices are not strictly ascending, or a live
    interval lies outside (newest − window, newest] or holds no itc
    ([Sample.floor_div itc interval] never reaches it); @raise Bin_error
    if the counts sum past {!max_count}. All are checked before the file
    is opened. *)

val load_serve_snapshot : path:string -> serve_snapshot
(** Map the file, validate every row (bounds, the running count sum,
    window membership, strict canonical sort, exact size) and rebuild the
    tables via {!Slo_concurrency.Sample.count_n}. @raise Bin_error on any
    malformation. *)

(**/**)

(** Test-only access to the line parser. *)
module For_tests : sig
  val samples_of_string : string -> Slo_concurrency.Sample.t list
  (** The reference parser: the text split on ['\n'] and every line
      through the line parser, with no scanner. {!samples_of_string} and
      {!iter_samples_file} must agree with it on every input, in the
      samples and in the {!Parse_error}. *)
end
