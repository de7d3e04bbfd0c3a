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
     increment in [feed_raw] is one probe ([Flat_tab.add]) into two int
     arrays with no per-entry boxes — the `(int, int ref)` Hashtbl this
     replaces allocated a ref per distinct pair and chased buckets, and
     had become the ingestion bottleneck at columnar scale. *)
  freqs : Flat_tab.t;
  mutable total : int;
}

let freq tbl ~cpu ~line =
  if cpu < 0 || cpu > max_id || line < 0 || line > max_id then 0
  else Flat_tab.find tbl.freqs (pack ~cpu ~line) ~default:0

(* One in-place sort of the keys with their counts; the key array then
   becomes the cpu column. *)
let rows tbl =
  let n = Flat_tab.length tbl.freqs in
  let keys = Array.make n 0 and counts = Array.make n 0 and i = ref 0 in
  Flat_tab.iter tbl.freqs (fun k c ->
      keys.(!i) <- k;
      counts.(!i) <- c;
      incr i);
  Slo_util.Int_sort.sort_by_key keys counts ~lo:0 ~hi:n;
  let lines = Array.map (fun k -> k lsr id_bits) keys in
  Array.map_inplace (fun k -> k land max_id) keys;
  (lines, keys, counts)

let entries tbl = Flat_tab.length tbl.freqs
let total_samples tbl = tbl.total

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

type binner = {
  b_interval : int;
  b_tables : (int, interval_table) Hashtbl.t;
  mutable b_fed : int;
  (* Sample streams are roughly time-ordered, so consecutive samples
     almost always land in the same interval; caching the last table turns
     the outer hash lookup into a compare on that path. *)
  mutable b_last_idx : int;
  mutable b_last : interval_table option;
}

let binner ~interval =
  if interval <= 0 then invalid_arg "Sample.binner: interval <= 0";
  { b_interval = interval; b_tables = Hashtbl.create 64; b_fed = 0;
    b_last_idx = 0; b_last = None }

let interval b = b.b_interval

let table_of_idx b idx =
  match b.b_last with
  | Some tbl when b.b_last_idx = idx -> tbl
  | _ ->
    let tbl =
      match Hashtbl.find_opt b.b_tables idx with
      | Some tbl -> tbl
      | None ->
        let tbl = { freqs = Flat_tab.create ~capacity:16 (); total = 0 } in
        Hashtbl.replace b.b_tables idx tbl;
        tbl
    in
    b.b_last_idx <- idx;
    b.b_last <- Some tbl;
    tbl

let feed_raw b ~cpu ~itc ~line =
  check_ids ~cpu ~line;
  let tbl = table_of_idx b (floor_div itc b.b_interval) in
  ignore (Flat_tab.add tbl.freqs (pack ~cpu ~line) 1);
  tbl.total <- tbl.total + 1;
  b.b_fed <- b.b_fed + 1

let feed b s = feed_raw b ~cpu:s.cpu ~itc:s.itc ~line:s.line

let feed_n b ~cpu ~itc ~line ~count =
  if count < 0 then invalid_arg "Sample.feed_n: negative count";
  if count > 0 then begin
    check_ids ~cpu ~line;
    let tbl = table_of_idx b (floor_div itc b.b_interval) in
    ignore (Flat_tab.add tbl.freqs (pack ~cpu ~line) count);
    tbl.total <- tbl.total + count;
    b.b_fed <- b.b_fed + count
  end

let fed b = b.b_fed

let peak_entries b =
  Hashtbl.fold (fun _ tbl acc -> max acc (entries tbl)) b.b_tables 0

let absorb dst src =
  if dst.b_interval <> src.b_interval then
    invalid_arg "Sample.absorb: interval mismatch";
  Hashtbl.iter
    (fun idx (src_tbl : interval_table) ->
      let dst_tbl = table_of_idx dst idx in
      Flat_tab.iter src_tbl.freqs (fun key count ->
          ignore (Flat_tab.add dst_tbl.freqs key count));
      dst_tbl.total <- dst_tbl.total + src_tbl.total)
    src.b_tables;
  dst.b_fed <- dst.b_fed + src.b_fed

(* The last-table cache may alias the dropped table, so it is cleared. *)
let drop_interval b idx =
  match Hashtbl.find_opt b.b_tables idx with
  | None -> ()
  | Some tbl ->
    Hashtbl.remove b.b_tables idx;
    b.b_fed <- b.b_fed - tbl.total;
    b.b_last <- None

let below_watermark ~newest ~window idx =
  newest >= min_int + window && idx <= newest - window

let table_count b = Hashtbl.length b.b_tables

(* No table is empty: tables are created only for a positive count and
   leave [b_tables] whole. *)
let binned_idx b =
  Hashtbl.fold (fun idx tbl acc -> (idx, tbl) :: acc) b.b_tables []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let binned b = List.map snd (binned_idx b)
