type t = { cpu : int; itc : int; line : int }

module Flat_tab = Slo_util.Flat_tab

(* cpu and line are identifiers, bounded so a (cpu, line) pair packs into
   one non-negative 62-bit int — the frequency-table key — and so both fit
   the 32-bit columns of the binary sample store (Persist's
   "slo-samples-bin 1"). The persist layer enforces the same bound at
   parse time, so anything that loads from disk is in range by
   construction. *)
let max_id = 0x7FFF_FFFF
let id_bits = 31

let check_id what v =
  if v < 0 || v > max_id then
    invalid_arg
      (Printf.sprintf "Sample: %s out of range (0..%d): %d" what max_id v)

let check_ids ~cpu ~line =
  check_id "cpu" cpu;
  check_id "line" line

(* Line-major, so ascending keys are ascending (line, cpu) rows. *)
let pack ~cpu ~line = (line lsl id_bits) lor cpu

type interval_table = {
  (* pack ~cpu ~line -> count. A flat open-addressing table: the hot
     increment in [count] is one probe ([Flat_tab.add]) into two int
     arrays with no per-entry boxes — the `(int, int ref)` Hashtbl this
     replaces allocated a ref per distinct pair and chased buckets, and
     had become the ingestion bottleneck at columnar scale. *)
  freqs : Flat_tab.t;
  mutable total : int;
}

let freq tbl ~cpu ~line =
  if cpu < 0 || cpu > max_id || line < 0 || line > max_id then 0
  else Flat_tab.find tbl.freqs (pack ~cpu ~line) ~default:0

(* One in-place sort of the packed keys with their counts, in the cpu
   column; the keys are then split into their line and cpu. *)
let rows_into tbl ~lines ~cpus ~counts =
  let i = ref 0 in
  Flat_tab.iter tbl.freqs (fun k c ->
      cpus.(!i) <- k;
      counts.(!i) <- c;
      incr i);
  let n = !i in
  Slo_util.Int_sort.sort_by_key cpus counts ~lo:0 ~hi:n;
  for x = 0 to n - 1 do
    let k = cpus.(x) in
    lines.(x) <- k lsr id_bits;
    cpus.(x) <- k land max_id
  done

let entries tbl = Flat_tab.length tbl.freqs

let rows tbl =
  let n = entries tbl in
  let lines = Array.make n 0 and cpus = Array.make n 0
  and counts = Array.make n 0 in
  rows_into tbl ~lines ~cpus ~counts;
  (lines, cpus, counts)

let total_samples tbl = tbl.total

let empty_table () = { freqs = Flat_tab.create ~capacity:16 (); total = 0 }

(* Counts are non-negative, so a sum past [max_int] wraps negative; every
   count and table total stops at [max_int] instead, as the CC kernel
   assumes. An over-full key costs a second probe only on the step that
   saturates it. *)
let sat_add a b =
  let s = a + b in
  if s < 0 then max_int else s

let add_count tbl key count =
  if Flat_tab.add tbl.freqs key count < 0 then
    Flat_tab.set tbl.freqs key max_int;
  tbl.total <- sat_add tbl.total count

let count tbl ~cpu ~line =
  check_ids ~cpu ~line;
  add_count tbl (pack ~cpu ~line) 1

let count_n tbl ~cpu ~line ~count =
  if count < 0 then invalid_arg "Sample.count_n: negative count";
  if count > 0 then begin
    check_ids ~cpu ~line;
    add_count tbl (pack ~cpu ~line) count
  end

(* Floor division via the remainder: OCaml's [/] truncates toward zero,
   which would collapse ITC timestamps in (-interval, 0) into bin 0
   together with the early positive samples, inflating CC across the zero
   boundary. Computed without negating [a] — the previous
   [-(((-a) + b - 1) / b)] overflowed for timestamps within [b] of
   [min_int] ([-a] wraps), silently teleporting them into a huge positive
   bin (see test_concurrency's floor_div regression). This form is exact
   for every [a] and every positive [b]. *)
let floor_div a b =
  let q = a / b and r = a mod b in
  if r < 0 then q - 1 else q

let below_watermark ~newest ~window idx =
  newest >= min_int + window && idx <= newest - window
