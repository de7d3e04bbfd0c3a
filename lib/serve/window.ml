module Sample = Slo_concurrency.Sample
module Cc = Slo_concurrency.Code_concurrency
module Flat_tab = Slo_util.Flat_tab
module Int_sort = Slo_util.Int_sort

(* Decay weights are fixed-point num/1024 so the weighted window CC is
   exact integer arithmetic: no float summation, hence no dependence on
   the order intervals are merged in. 1024 gives ~3 decimal digits of
   decay resolution, plenty for a drift trigger. *)
let weight_den = 1024

(* One interval's CC, interned: each pair as its window slot, with its
   count, in code order. [total] is the interval's sample total when it
   was computed. *)
type memo = { total : int; slots : int array; counts : int array }

(* No interval's memo: no table has a negative total. *)
let no_memo = { total = -1; slots = [||]; counts = [||] }

(* A live interval: its number, its table and its memo. *)
type live = { idx : int; tbl : Sample.interval_table; mutable memo : memo }

(* A growable buffer of (key, value) int pairs: [keys]/[vals] [0, len). *)
type buf = {
  mutable keys : int array;
  mutable vals : int array;
  mutable len : int;
}

let buf () = { keys = [||]; vals = [||]; len = 0 }

let reserve r n =
  if n > Array.length r.keys then begin
    let grow a =
      let b = Array.make (max n (2 * Array.length a)) 0 in
      Array.blit a 0 b 0 r.len;
      b
    in
    r.keys <- grow r.keys;
    r.vals <- grow r.vals
  end

let push r k v =
  reserve r (r.len + 1);
  r.keys.(r.len) <- k;
  r.vals.(r.len) <- v;
  r.len <- r.len + 1

type t = {
  w_interval : int;
  w_window : int;  (* length in intervals *)
  w_decay : float;  (* per-interval-of-age multiplier, in (0, 1] *)
  (* The live intervals in ascending interval order, each with the table
     of its samples: a ring buffer of [nlive] entries from [head], the
     one index of the live window. Intervals almost always open at the
     newest end and retire from the oldest, so each is O(1). A batch
     recomputes only the memos of the intervals whose totals changed —
     the "incremental" in incremental re-search: O(changed) interval maps
     per batch, not O(w). *)
  mutable ring : live option array;  (* power-of-two capacity *)
  mutable head : int;
  mutable nlive : int;
  mutable last : live option;  (* the last accepted sample's interval *)
  weights : int array;  (* [weight] by age, for ages below [max_table] *)
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
  (* The slots in code order, as (code, slot): [order] holds every slot
     live at the last view, [pending] the slots handed out since, and
     [spare] is the merge's output, swapped with [order]. An entry whose
     slot has since been freed or handed to another code is stale. *)
  mutable order : buf;
  mutable spare : buf;
  pending : buf;
  (* The kernel's scratch, and the (code, count) rows of the memo being
     computed: kept for the window's lifetime. *)
  scratch : Cc.scratch;
  rows : buf;
  mutable sums_valid : bool;  (* false once a sample lands *)
  mutable newest : int;  (* max interval idx accepted *)
  mutable started : bool;  (* false until the first sample *)
  mutable retired : int;
  mutable late : int;
}

let weight_of decay age =
  int_of_float (Float.round (float_of_int weight_den *. (decay ** float_of_int age)))

(* The weights of the first ages, computed once; [max_table] bounds the
   table, since a window's length has no upper bound. *)
let max_table = 1024
let weight_table ~decay ~window = Array.init (min window max_table) (weight_of decay)

(* [fn] names the caller in the message. *)
let make fn ~interval ~window ~decay ~newest =
  if interval <= 0 then invalid_arg (fn ^ ": interval <= 0");
  if window <= 0 then invalid_arg (fn ^ ": window <= 0");
  if not (decay > 0.0 && decay <= 1.0) then
    invalid_arg (fn ^ ": decay outside (0, 1]");
  { w_interval = interval; w_window = window; w_decay = decay;
    ring = [||]; head = 0; nlive = 0; last = None;
    weights = weight_table ~decay ~window; slot_of = Flat_tab.create ();
    codes = [||]; refs = [||]; sums = [||]; used = 0; free = []; order = buf ();
    spare = buf (); pending = buf (); scratch = Cc.scratch (); rows = buf ();
    sums_valid = false; newest; started = false; retired = 0; late = 0 }

let create ?(decay = 1.0) ~interval ~window () =
  make "Window.create" ~interval ~window ~decay ~newest:0

let interval w = w.w_interval
let window_length w = w.w_window
let decay w = w.w_decay
let newest w = if w.started then Some w.newest else None
let live_intervals w = w.nlive
let retired w = w.retired
let late w = w.late

let weight w ~age =
  if age < 0 then invalid_arg "Window.weight: age < 0";
  weight_of w.w_decay age

(* ------------------------------------------------------------------ *)
(* The ring of live intervals *)

(* The [k]-th oldest live interval. *)
let nth w k =
  match w.ring.((w.head + k) land (Array.length w.ring - 1)) with
  | Some e -> e
  | None -> assert false

let set_nth w k e = w.ring.((w.head + k) land (Array.length w.ring - 1)) <- e

(* The tables' totals, summed saturating like the totals themselves. *)
let live_samples w =
  let n = ref 0 in
  for k = 0 to w.nlive - 1 do
    let s = !n + Sample.total_samples (nth w k).tbl in
    n := if s < 0 then max_int else s
  done;
  !n

let tables w = List.init w.nlive (fun k -> let e = nth w k in (e.idx, e.tbl))

(* The number of live intervals below [idx]. *)
let rank w idx =
  let lo = ref 0 and hi = ref w.nlive in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if (nth w mid).idx < idx then lo := mid + 1 else hi := mid
  done;
  !lo

(* Open interval [idx] with its table as the [k]-th oldest. *)
let open_interval w k idx tbl =
  if w.nlive = Array.length w.ring then begin
    let ring = Array.make (max 8 (2 * w.nlive)) None in
    for j = 0 to w.nlive - 1 do
      ring.(j) <- Some (nth w j)
    done;
    w.ring <- ring;
    w.head <- 0
  end;
  for j = w.nlive downto k + 1 do
    set_nth w j (Some (nth w (j - 1)))
  done;
  let e = { idx; tbl; memo = no_memo } in
  set_nth w k (Some e);
  w.nlive <- w.nlive + 1;
  e

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
    push w.pending code slot;
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

let below_watermark w idx =
  Sample.below_watermark ~newest:w.newest ~window:w.w_window idx

(* Retiring an interval pops its entry, table and all, and releases its
   memo: the ring is then exactly the tables of the samples that were
   never below the watermark, which the bench serve gate checks against
   a from-scratch re-bin. The intervals below the watermark are the
   ring's oldest. *)
let retire_below_watermark w =
  while w.nlive > 0 && below_watermark w (nth w 0).idx do
    let e = nth w 0 in
    release w e.memo;
    set_nth w 0 None;
    w.head <- (w.head + 1) land (Array.length w.ring - 1);
    w.nlive <- w.nlive - 1;
    w.retired <- w.retired + 1
  done

let feed w ~cpu ~itc ~line =
  (* Ids first: an out-of-range sample is rejected, never counted late. *)
  Sample.check_ids ~cpu ~line;
  let idx = Sample.floor_div itc w.w_interval in
  if w.started && below_watermark w idx then begin
    w.late <- w.late + 1;
    false
  end
  else begin
    w.sums_valid <- false;
    if (not w.started) || idx > w.newest then begin
      w.newest <- idx;
      w.started <- true;
      retire_below_watermark w
    end;
    (* An accepted interval stays live until it falls below the
       watermark, and then no sample of it is accepted again: so when a
       sample of the last accepted interval is accepted, its entry is
       still in the ring. *)
    let e =
      match w.last with
      | Some e when e.idx = idx -> e
      | _ ->
        let k = rank w idx in
        let e =
          if k < w.nlive && (nth w k).idx = idx then nth w k
          else open_interval w k idx (Sample.empty_table ())
        in
        w.last <- Some e;
        e
    in
    Sample.count e.tbl ~cpu ~line;
    true
  end

let append_row rows codes counts n =
  reserve rows (rows.len + n);
  Array.blit codes 0 rows.keys rows.len n;
  Array.blit counts 0 rows.vals rows.len n;
  rows.len <- rows.len + n

(* The memo of a live interval, recomputed when its total moved: the
   kernel's rows, in code order, interned in that order. The new pairs
   are interned before the old memo lets go of its slots, so pairs the
   two share keep their slot. *)
let interval_memo w e =
  let total = Sample.total_samples e.tbl in
  if e.memo.total = total then e.memo
  else begin
    let rows = w.rows in
    rows.len <- 0;
    Cc.interval_rows w.scratch e.tbl (append_row rows);
    let slots = Array.make rows.len 0 in
    for x = 0 to rows.len - 1 do
      slots.(x) <- intern w rows.keys.(x)
    done;
    let m = { total; slots; counts = Array.sub rows.vals 0 rows.len } in
    release w e.memo;
    e.memo <- m;
    m
  end

(* [sums] := the decay-weighted window, by slot. A slot freed on the way
   (by a memo replaced here) was held by that memo alone, which has not
   been added yet, so it is still 0 when a new pair takes it over. *)
let refresh w =
  if not w.sums_valid then begin
    Array.fill w.sums 0 w.used 0;
    for k = 0 to w.nlive - 1 do
      let e = nth w k in
      let age = w.newest - e.idx in
      let num =
        if age < Array.length w.weights then w.weights.(age) else weight_of w.w_decay age
      in
      if num > 0 then begin
        let m = interval_memo w e in
        Cc.accumulate_scaled w.sums ~slots:m.slots ~counts:m.counts ~num
          ~den:weight_den
      end
    done;
    w.sums_valid <- true
  end

(* Merge the pending slots into [order]. Each memo interns in code
   order, so the pending slots are ascending runs; one sort of their
   union, then one pass over both sequences keeps an entry only while its
   slot still holds its code, and each code once: a code can sit in both
   when its slot was freed and handed back to it. Every slot live now was
   live at the last merge or handed out since, so [order] then lists
   exactly the live slots. *)
let merge_pending w =
  let p = w.pending and o = w.order and out = w.spare in
  Int_sort.sort_by_key p.keys p.vals ~lo:0 ~hi:p.len;
  reserve out (o.len + p.len);
  let n = ref 0 in
  let keep code slot =
    if w.refs.(slot) > 0 && w.codes.(slot) = code
       && (!n = 0 || out.keys.(!n - 1) <> code)
    then begin
      out.keys.(!n) <- code;
      out.vals.(!n) <- slot;
      incr n
    end
  in
  let i = ref 0 and j = ref 0 in
  while !i < o.len || !j < p.len do
    if !j >= p.len || (!i < o.len && o.keys.(!i) <= p.keys.(!j)) then begin
      keep o.keys.(!i) o.vals.(!i);
      incr i
    end
    else begin
      keep p.keys.(!j) p.vals.(!j);
      incr j
    end
  done;
  out.len <- !n;
  p.len <- 0;
  w.spare <- o;
  w.order <- out

(* The weighted window's pairs as (codes, values), ascending, zero sums
   left out: one walk over [order]. With nothing pending, a stale entry
   can only be a freed slot, whose sum [refresh] left at 0. *)
let weighted w =
  refresh w;
  if w.pending.len > 0 then merge_pending w;
  let o = w.order and sums = w.sums in
  let n = ref 0 in
  for x = 0 to o.len - 1 do
    if sums.(o.vals.(x)) > 0 then incr n
  done;
  let codes = Array.make !n 0 and values = Array.make !n 0 in
  let i = ref 0 in
  for x = 0 to o.len - 1 do
    let v = sums.(o.vals.(x)) in
    if v > 0 then begin
      codes.(!i) <- o.keys.(x);
      values.(!i) <- v;
      incr i
    end
  done;
  (codes, values)

let weighted_cc w =
  let codes, values = weighted w in
  Cc.of_codes codes values

let weighted_view w =
  let codes, values = weighted w in
  Cc.view_of_ascending codes values

let slots w = Flat_tab.length w.slot_of

let restore ?(decay = 1.0) ~interval ~window ~newest tables =
  let w = make "Window.restore" ~interval ~window ~decay ~newest in
  let rec ascending = function
    | (a, _) :: ((b, _) :: _ as rest) -> a < b && ascending rest
    | _ -> true
  in
  if not (ascending tables) then
    invalid_arg "Window.restore: interval indices not strictly ascending";
  List.iter
    (fun (idx, tbl) ->
      if idx > newest || Sample.below_watermark ~newest ~window idx then
        invalid_arg
          (Printf.sprintf
             "Window.restore: interval %d outside the window of %d \
              intervals ending at %d"
             idx window newest);
      if Sample.total_samples tbl > 0 then
        w.last <- Some (open_interval w w.nlive idx tbl))
    tables;
  w.started <- w.nlive > 0;
  w
