module Sample = Slo_concurrency.Sample
module Cc = Slo_concurrency.Code_concurrency
module Flat_tab = Slo_util.Flat_tab

(* Decay weights are fixed-point num/1024 so the weighted window CC is
   exact integer arithmetic: no float summation, hence no dependence on
   the order intervals are merged in. 1024 gives ~3 decimal digits of
   decay resolution, plenty for a drift trigger. *)
let weight_den = 1024

(* One interval's CC, interned: each pair as its window slot, with its
   count. [total] is the interval's sample total when it was computed. *)
type memo = { total : int; slots : int array; counts : int array }

type t = {
  w_interval : int;
  w_window : int;  (* length in intervals *)
  w_decay : float;  (* per-interval-of-age multiplier, in (0, 1] *)
  master : Sample.binner;  (* every live (non-retired) sample *)
  (* idx -> that interval's memo. A batch recomputes only the intervals
     whose totals changed since their memo — the "incremental" in
     incremental re-search: O(changed) interval maps per batch, not
     O(w). *)
  memos : (int, memo) Hashtbl.t;
  (* Every pair of a live memo has a dense slot: [slot_of] maps its code
     to the slot, [codes]/[refs]/[sums] are indexed by slot. A slot whose
     last memo goes is reclaimed, so the slot count tracks the pairs of
     the live window, not uptime. *)
  slot_of : Flat_tab.t;
  mutable codes : int array;
  mutable refs : int array;  (* memos holding the slot; 0 when free *)
  mutable sums : int array;  (* the weighted window, by slot *)
  mutable used : int;  (* slots handed out: [0, used) *)
  mutable free : int list;  (* reclaimed slots below [used] *)
  mutable sums_valid : bool;  (* false once a sample lands *)
  mutable newest : int;  (* max interval idx accepted *)
  mutable started : bool;  (* false until the first sample *)
  mutable retired : int;
  mutable late : int;
}

let make ~interval ~window ~decay ~newest ~started master =
  { w_interval = interval; w_window = window; w_decay = decay; master;
    memos = Hashtbl.create 64; slot_of = Flat_tab.create (); codes = [||];
    refs = [||]; sums = [||]; used = 0; free = []; sums_valid = false;
    newest; started; retired = 0; late = 0 }

let create ?(decay = 1.0) ~interval ~window () =
  if window <= 0 then invalid_arg "Window.create: window <= 0";
  if not (decay > 0.0 && decay <= 1.0) then
    invalid_arg "Window.create: decay outside (0, 1]";
  make ~interval ~window ~decay ~newest:0 ~started:false
    (Sample.binner ~interval)

let interval w = w.w_interval
let window_length w = w.w_window
let decay w = w.w_decay
let newest w = if w.started then Some w.newest else None
let live_samples w = Sample.fed w.master
let live_intervals w = List.length (Sample.binned_idx w.master)
let retired w = w.retired
let late w = w.late
let master w = w.master

let weight w ~age =
  if age < 0 then invalid_arg "Window.weight: age < 0";
  let v =
    Float.round (float_of_int weight_den *. (w.w_decay ** float_of_int age))
  in
  int_of_float v

(* ------------------------------------------------------------------ *)
(* Slots *)

let intern w code =
  match Flat_tab.find w.slot_of code ~default:(-1) with
  | -1 ->
    let slot =
      match w.free with
      | s :: rest ->
        w.free <- rest;
        s
      | [] ->
        if w.used = Array.length w.codes then begin
          let grow a = Array.append a (Array.make (max 64 w.used) 0) in
          w.codes <- grow w.codes;
          w.refs <- grow w.refs;
          w.sums <- grow w.sums
        end;
        w.used <- w.used + 1;
        w.used - 1
    in
    Flat_tab.set w.slot_of code slot;
    w.codes.(slot) <- code;
    w.refs.(slot) <- 1;
    slot
  | slot ->
    w.refs.(slot) <- w.refs.(slot) + 1;
    slot

let release w m =
  Array.iter
    (fun s ->
      w.refs.(s) <- w.refs.(s) - 1;
      if w.refs.(s) = 0 then begin
        Flat_tab.remove w.slot_of w.codes.(s);
        w.free <- s :: w.free
      end)
    m.slots

(* ------------------------------------------------------------------ *)

(* Retiring an interval drops its table from the master
   ([Sample.drop_interval]), which leaves exactly the binner that never
   saw those samples — the bench serve gate checks it against a
   from-scratch re-bin — and releases the interval's memo. *)
let retire_interval w idx =
  Sample.drop_interval w.master idx;
  Option.iter (release w) (Hashtbl.find_opt w.memos idx);
  Hashtbl.remove w.memos idx;
  w.retired <- w.retired + 1

let below_watermark w idx =
  Sample.below_watermark ~newest:w.newest ~window:w.w_window idx

let retire_below_watermark w =
  List.iter
    (fun (idx, _) -> if below_watermark w idx then retire_interval w idx)
    (Sample.binned_idx w.master)

let feed w ~cpu ~itc ~line =
  (* Ids first: an out-of-range sample is rejected, never counted late. *)
  Sample.check_ids ~cpu ~line;
  let idx = Sample.floor_div itc w.w_interval in
  if w.started && below_watermark w idx then begin
    w.late <- w.late + 1;
    false
  end
  else begin
    Sample.feed_raw w.master ~cpu ~itc ~line;
    w.sums_valid <- false;
    if (not w.started) || idx > w.newest then begin
      w.newest <- idx;
      w.started <- true;
      retire_below_watermark w
    end;
    true
  end

(* The memo of a live interval, recomputed when its total moved. The new
   pairs are interned before the old memo lets go of its slots, so pairs
   the two share keep their slot. *)
let interval_memo w idx tbl =
  let total = Sample.total_samples tbl in
  match Hashtbl.find_opt w.memos idx with
  | Some m when m.total = total -> m
  | old ->
    let codes, counts = Cc.to_codes (Cc.of_interval tbl) in
    let m = { total; slots = Array.map (intern w) codes; counts } in
    Option.iter (release w) old;
    Hashtbl.replace w.memos idx m;
    m

(* [sums] := the decay-weighted window, by slot. A slot freed on the way
   (by a memo replaced here) was held by that memo alone, which has not
   been added yet, so it is still 0 when a new pair takes it over. *)
let refresh w =
  if not w.sums_valid then begin
    Array.fill w.sums 0 w.used 0;
    List.iter
      (fun (idx, tbl) ->
        let num = weight w ~age:(w.newest - idx) in
        if num > 0 then begin
          let m = interval_memo w idx tbl in
          Cc.accumulate_scaled w.sums ~slots:m.slots ~counts:m.counts ~num
            ~den:weight_den
        end)
      (Sample.binned_idx w.master);
    w.sums_valid <- true
  end

(* The weighted window's pairs as (codes, values), zero sums left out. *)
let weighted w =
  refresh w;
  let n = ref 0 in
  for s = 0 to w.used - 1 do
    if w.sums.(s) > 0 then incr n
  done;
  let codes = Array.make !n 0 and values = Array.make !n 0 in
  let i = ref 0 in
  for s = 0 to w.used - 1 do
    if w.sums.(s) > 0 then begin
      codes.(!i) <- w.codes.(s);
      values.(!i) <- w.sums.(s);
      incr i
    end
  done;
  (codes, values)

let weighted_cc w =
  let codes, values = weighted w in
  Cc.of_codes codes values

let weighted_view w =
  let codes, values = weighted w in
  Cc.view_of_codes codes values

let slots w = Flat_tab.length w.slot_of

let restore ?(decay = 1.0) ~window ~newest binner =
  if window <= 0 then invalid_arg "Window.restore: window <= 0";
  if not (decay > 0.0 && decay <= 1.0) then
    invalid_arg "Window.restore: decay outside (0, 1]";
  let live = Sample.binned_idx binner in
  List.iter
    (fun (idx, _) ->
      if idx > newest || Sample.below_watermark ~newest ~window idx then
        invalid_arg
          (Printf.sprintf
             "Window.restore: interval %d outside the window of %d \
              intervals ending at %d"
             idx window newest))
    live;
  make ~interval:(Sample.interval binner) ~window ~decay ~newest
    ~started:(live <> []) binner
