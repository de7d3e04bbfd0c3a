module Sample = Slo_concurrency.Sample
module Cc = Slo_concurrency.Code_concurrency

(* Decay weights are fixed-point num/1024 so the weighted window CC is
   exact integer arithmetic: no float summation, hence no dependence on
   the order intervals are merged in. 1024 gives ~3 decimal digits of
   decay resolution, plenty for a drift trigger. *)
let weight_den = 1024

type t = {
  w_interval : int;
  w_window : int;  (* length in intervals *)
  w_decay : float;  (* per-interval-of-age multiplier, in (0, 1] *)
  master : Sample.binner;  (* every live (non-retired) sample *)
  (* idx -> (total samples the memo was computed at, that interval's CC).
     Re-searches touch only intervals whose totals changed since the last
     publication — the "incremental" in incremental re-search: a drift
     check over a w-interval window recomputes O(changed) interval maps,
     not O(w). *)
  cc_memo : (int, int * Cc.t) Hashtbl.t;
  mutable newest : int;  (* max interval idx accepted *)
  mutable started : bool;  (* false until the first sample *)
  mutable retired : int;
  mutable late : int;
}

let create ?(decay = 1.0) ~interval ~window () =
  if window <= 0 then invalid_arg "Window.create: window <= 0";
  if not (decay > 0.0 && decay <= 1.0) then
    invalid_arg "Window.create: decay outside (0, 1]";
  { w_interval = interval; w_window = window; w_decay = decay;
    master = Sample.binner ~interval; cc_memo = Hashtbl.create 64;
    newest = 0; started = false; retired = 0; late = 0 }

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

(* Retiring an interval is eviction-by-subtraction: rebuild that
   interval's contribution as a one-interval binner (feed_n per histogram
   entry — O(entries), not O(samples)) and [Sample.retract] it from the
   master. The retract law guarantees the master is then structurally the
   binner that never saw those samples, which the bench serve gate checks
   against a from-scratch re-bin. *)
let retire_interval w idx tbl =
  let tmp = Sample.binner ~interval:w.w_interval in
  List.iter
    (fun (line, fs) ->
      List.iter
        (fun (cpu, count) ->
          Sample.feed_n tmp ~cpu ~itc:(idx * w.w_interval) ~line ~count)
        fs)
    (Sample.line_freqs tbl);
  Sample.retract w.master tmp;
  Hashtbl.remove w.cc_memo idx;
  w.retired <- w.retired + 1

let retire_below_watermark w =
  let mark = w.newest - w.w_window in
  List.iter
    (fun (idx, tbl) -> if idx <= mark then retire_interval w idx tbl)
    (Sample.binned_idx w.master)

let feed w ~cpu ~itc ~line =
  (* Ids first: an out-of-range sample is rejected, never counted late. *)
  Sample.check_ids ~cpu ~line;
  let idx = Sample.floor_div itc w.w_interval in
  if w.started && idx <= w.newest - w.w_window then begin
    w.late <- w.late + 1;
    false
  end
  else begin
    Sample.feed_raw w.master ~cpu ~itc ~line;
    if (not w.started) || idx > w.newest then begin
      w.newest <- idx;
      w.started <- true;
      retire_below_watermark w
    end;
    true
  end

let interval_cc w idx tbl =
  let total = Sample.total_samples tbl in
  match Hashtbl.find_opt w.cc_memo idx with
  | Some (t, cc) when t = total -> cc
  | _ ->
    let cc = Cc.of_interval tbl in
    Hashtbl.replace w.cc_memo idx (total, cc);
    cc

let weighted_cc w =
  let acc = Cc.create () in
  List.iter
    (fun (idx, tbl) ->
      let num = weight w ~age:(w.newest - idx) in
      if num > 0 then
        Cc.merge_scaled acc (interval_cc w idx tbl) ~num ~den:weight_den)
    (Sample.binned_idx w.master);
  acc

let restore ?(decay = 1.0) ~window ~newest binner =
  if window <= 0 then invalid_arg "Window.restore: window <= 0";
  if not (decay > 0.0 && decay <= 1.0) then
    invalid_arg "Window.restore: decay outside (0, 1]";
  let live = Sample.binned_idx binner in
  List.iter
    (fun (idx, _) ->
      if idx > newest || idx <= newest - window then
        invalid_arg
          (Printf.sprintf
             "Window.restore: interval %d outside the window (%d, %d]" idx
             (newest - window) newest))
    live;
  { w_interval = Sample.interval binner; w_window = window; w_decay = decay;
    master = binner; cc_memo = Hashtbl.create 64; newest;
    started = live <> []; retired = 0; late = 0 }
