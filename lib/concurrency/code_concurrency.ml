module Obs = Slo_obs.Obs
module Flat_tab = Slo_util.Flat_tab
module Int_sort = Slo_util.Int_sort

(* The map: one flat int -> int table keyed by the packed unordered line
   pair (l1 lsl 31) lor l2, l1 <= l2. Lines are Sample ids in
   [0, Sample.max_id = 2^31 - 1], so every key is a non-negative int and
   ascending keys are ascending (l1, l2) pairs — the order [pairs] and
   [drift] rely on. *)
type t = Flat_tab.t

let line_bits = 31
let key l1 l2 =
  if l1 <= l2 then (l1 lsl line_bits) lor l2 else (l2 lsl line_bits) lor l1
let key_l1 k = k lsr line_bits
let key_l2 k = k land Sample.max_id
let in_range l = l >= 0 && l <= Sample.max_id

let cc t l1 l2 =
  if in_range l1 && in_range l2 then Flat_tab.find t (key l1 l2) ~default:0
  else 0

(* Counts are non-negative throughout, so saturation at [max_int] keeps
   addition associative and commutative: min (a + b) max_int composes the
   same way in any grouping. That is what lets the sharded reduce below
   merge partial maps in any order and still match the serial path, and
   lets the kernel below sum in whatever order its merges visit. *)
let[@inline] sat_add a b =
  let s = a + b in
  if s < 0 then max_int else s

(* Two factors below 2^31 cannot overflow 62 bits: the kernel's products
   (a count times a CPU count) take that branch and skip the division. *)
let[@inline] sat_mul a b =
  if (a lor b) lsr 31 = 0 then a * b
  else if a = 0 || b = 0 then 0
  else
    let p = a * b in
    if p < 0 || p / b <> a then max_int else p

(* [Flat_tab.add] is the one-probe upsert. A stored count and [v] both lie
   in [0, max_int], so their sum wraps negative exactly when it passes
   [max_int] — and never to 0, which would drop the binding. *)
let add_key t k v =
  if v > 0 && Flat_tab.add t k v < 0 then Flat_tab.set t k max_int

let add t l1 l2 v = add_key t (key l1 l2) v

(* One interval in compressed-row (CSR) form: flat int arrays over its
   entries, lines and CPUs, in a scratch reused from interval to interval
   (its arrays grow to the largest interval and are never shrunk).
   - Line i, in ascending line order, is [lines.(i)]. Its entries are
     [first.(i), first.(i + 1)) of [cpu] (the CPU as a dense index into
     the interval's CPUs) and [cnt] (the count), sorted by count once
     loaded. {!compute}'s bucket pass writes these arrays directly; an
     interval table's rows ({!Sample.rows_into}) land first in
     [ent_line], [cpu] and [cnt], one entry per (cpu, line), ascending
     (line, cpu), and are then grouped by line with [cpu] renumbered
     densely in place.
   - Its counts run-length encoded: distinct values [vals.(r)] with
     multiplicities [mult.(r)] for its runs r in [runs.(i), runs.(i + 1)).
     With b = runs.(i) + i, [le.(b + k)] and [le_sum.(b + k)] are the
     number and saturated sum of its entries among its k smallest values,
     for k = 0 .. its run count: a line has one prefix more than runs.
   - The entries transposed by CPU: CPU m's are [cpu_first.(m),
     cpu_first.(m + 1)) of [t_line] (line index, ascending) and [t_cnt].
     [cursor.(m)] is where the next line to be paired sits in them.
   - [same.(j)] accumulates the same-CPU term of the line being paired
     with line j, and is 0 between lines.
   - [row_code]/[row_val] hold the row of positive pairs the kernel hands
     out for the line being paired: at most one per line, so they grow
     with the lines of an interval, not its entries. *)
type scratch = {
  dense : Flat_tab.t;
  mutable cap : int;
  mutable n_lines : int;
  mutable ent_line : int array;
  mutable cpu : int array;
  mutable cnt : int array;
  mutable lines : int array;
  mutable first : int array;
  mutable runs : int array;
  mutable vals : int array;
  mutable mult : int array;
  mutable le : int array;
  mutable le_sum : int array;
  mutable cpu_first : int array;
  mutable cursor : int array;
  mutable t_line : int array;
  mutable t_cnt : int array;
  mutable same : int array;
  mutable row_code : int array;
  mutable row_val : int array;
}

let scratch () =
  { dense = Flat_tab.create (); cap = 0; n_lines = 0; ent_line = [||];
    cpu = [||]; cnt = [||]; lines = [||]; first = [||]; runs = [||]; vals = [||];
    mult = [||]; le = [||]; le_sum = [||]; cpu_first = [||]; cursor = [||];
    t_line = [||]; t_cnt = [||]; same = [||]; row_code = [||]; row_val = [||] }

(* Room for [e] entries: an interval has at most [e] lines, CPUs and runs. *)
let reserve sc e =
  if e > sc.cap then begin
    let cap = max e (2 * sc.cap) in
    let ints n = Array.make n 0 in
    sc.cap <- cap;
    sc.ent_line <- ints cap;
    sc.cpu <- ints cap;
    sc.cnt <- ints cap;
    sc.lines <- ints cap;
    sc.first <- ints (cap + 1);
    sc.runs <- ints (cap + 1);
    sc.vals <- ints cap;
    sc.mult <- ints cap;
    sc.le <- ints (2 * cap);
    sc.le_sum <- ints (2 * cap);
    sc.cpu_first <- ints (cap + 1);
    sc.cursor <- ints cap;
    sc.t_line <- ints cap;
    sc.t_cnt <- ints cap;
    sc.same <- ints cap
  end

(* Renumber [cpus.(0 .. e - 1)] in place to dense indices in order of
   first appearance; returns how many distinct CPUs there were. *)
let densify dense cpus e =
  Flat_tab.clear dense;
  for x = 0 to e - 1 do
    let fresh = Flat_tab.length dense in
    let d = Flat_tab.find dense cpus.(x) ~default:fresh in
    if d = fresh then Flat_tab.set dense cpus.(x) d;
    cpus.(x) <- d
  done;
  Flat_tab.length dense

(* Group the [e] entries in [ent_line], [cpu] and [cnt] (ascending by
   line) into lines: [lines], [first] and [n_lines]. *)
let group sc e =
  let lines = sc.ent_line in
  let n = ref 0 in
  for x = 0 to e - 1 do
    if x = 0 || lines.(x) <> lines.(x - 1) then begin
      sc.lines.(!n) <- lines.(x);
      sc.first.(!n) <- x;
      incr n
    end
  done;
  sc.n_lines <- !n;
  sc.first.(!n) <- e

(* Finish the CSR form of an interval whose lines, [first], [cpu] (dense
   indices below [n_cpus]) and [cnt] are in place: sort each line's
   entries by count, run-length encode them, and transpose them by CPU. *)
let load sc ~n_cpus =
  let cpus = sc.cpu and counts = sc.cnt and n = sc.n_lines in
  let e = sc.first.(n) in
  let r = ref 0 in
  for i = 0 to n - 1 do
    let lo = sc.first.(i) and hi = sc.first.(i + 1) in
    Int_sort.sort_by_key counts cpus ~lo ~hi;
    sc.runs.(i) <- !r;
    sc.le.(!r + i) <- 0;
    sc.le_sum.(!r + i) <- 0;
    let sum = ref 0 in
    for x = lo to hi - 1 do
      let c = counts.(x) in
      if x = lo || c <> counts.(x - 1) then begin
        sc.vals.(!r) <- c;
        sc.mult.(!r) <- 0;
        incr r
      end;
      sc.mult.(!r - 1) <- sc.mult.(!r - 1) + 1;
      sum := sat_add !sum c;
      sc.le.(!r + i) <- x + 1 - lo;
      sc.le_sum.(!r + i) <- !sum
    done
  done;
  sc.runs.(n) <- !r;
  Array.fill sc.cpu_first 0 (n_cpus + 1) 0;
  for x = 0 to e - 1 do
    sc.cpu_first.(cpus.(x) + 1) <- sc.cpu_first.(cpus.(x) + 1) + 1
  done;
  for m = 1 to n_cpus do
    sc.cpu_first.(m) <- sc.cpu_first.(m) + sc.cpu_first.(m - 1)
  done;
  Array.blit sc.cpu_first 0 sc.cursor 0 n_cpus;
  for i = 0 to n - 1 do
    for x = sc.first.(i) to sc.first.(i + 1) - 1 do
      let q = sc.cursor.(cpus.(x)) in
      sc.t_line.(q) <- i;
      sc.t_cnt.(q) <- counts.(x);
      sc.cursor.(cpus.(x)) <- q + 1
    done
  done;
  Array.blit sc.cpu_first 0 sc.cursor 0 n_cpus

(* The CSR form of the [e] entries in [ent_line], [cpu] and [cnt],
   grouped by line, lines ascending, CPUs any identifiers. *)
let load_entries sc e =
  let n_cpus = densify sc.dense sc.cpu e in
  group sc e;
  load sc ~n_cpus

let total sc i = sc.le_sum.(sc.runs.(i + 1) + i)

(* The kernel's two inner loops below are inlined into the pair loop
   with their saturating helpers, and read the scratch unchecked: every
   index they form lies within the arrays [reserve] sized for the
   interval's entries, which [load] fills ([runs] and the prefixes of
   [le] and [le_sum] per line, the transposition by CPU). The accessors
   are typed [int array] so that each is one load or store: the
   polymorphic [Array.unsafe_get] tests for a float array first. *)
let[@inline] get (a : int array) i = Array.unsafe_get a i
let[@inline] set (a : int array) i v = Array.unsafe_set a i v

(* Σ_{m,n} min(a_m, b_n) over all entry pairs of lines a and b (same CPU
   included), by a two-pointer merge of their runs: b's entries at most a
   value x of a contribute themselves, the other ones x each; as x rises
   the split point in b only moves right, so the sum costs
   O(runs a + runs b). Profile-scale frequencies can push the products
   past [max_int]; the kernel saturates instead of wrapping negative. *)
let[@inline] sum_min_all sc a b =
  let runs = sc.runs and vals = sc.vals and le = sc.le
  and le_sum = sc.le_sum and mult = sc.mult in
  let b_end = get runs (b + 1) in
  let nb = get le (b_end + b) in
  (* [k]: b's first run above the current value of a; b's prefix over the
     runs before it sits at [k + b] *)
  let k = ref (get runs b) and acc = ref 0 in
  for r = get runs a to get runs (a + 1) - 1 do
    let x = get vals r in
    while !k < b_end && get vals !k <= x do
      incr k
    done;
    let per_entry =
      sat_add (get le_sum (!k + b)) (sat_mul x (nb - get le (!k + b)))
    in
    acc := sat_add !acc (sat_mul (get mult r) per_entry)
  done;
  !acc

(* Add Σ over CPUs m running both lines of min(a_m, b_m) into [same.(j)]
   for every line j > i: each CPU of line i walks the later lines of its
   transposed range. Pairing every line in turn costs Σ_m k_m² for k_m
   the number of lines CPU m ran. *)
let[@inline] same_row sc i =
  let cursor = sc.cursor and t_line = sc.t_line and t_cnt = sc.t_cnt
  and same = sc.same and cpu = sc.cpu and cnt = sc.cnt
  and cpu_first = sc.cpu_first in
  for x = get sc.first i to get sc.first (i + 1) - 1 do
    let m = get cpu x and a = get cnt x in
    let p = get cursor m in
    set cursor m (p + 1);
    for q = p + 1 to get cpu_first (m + 1) - 1 do
      let j = get t_line q in
      set same j (sat_add (get same j) (Int.min a (get t_cnt q)))
    done
  done

(* Σ over the entry pairs of lines a and b on different CPUs of
   min(a_m, b_n), term by term. Below [max_int] the kernel's two sums are
   exact and their difference is this sum; once the first saturates, the
   difference is not min(CC, [max_int]) (the second may be near it too),
   so the pair is summed directly. Only counts near [max_int] divided by
   the entries get here. *)
let cross_pairs sc a b =
  let acc = ref 0 in
  for x = sc.first.(a) to sc.first.(a + 1) - 1 do
    for y = sc.first.(b) to sc.first.(b + 1) - 1 do
      if sc.cpu.(x) <> sc.cpu.(y) then
        acc := sat_add !acc (Int.min sc.cnt.(x) sc.cnt.(y))
    done
  done;
  !acc

(* The kernel, on the interval loaded in [sc]. Line i is paired with
   itself and then with every later line, so over the interval the codes
   come out strictly ascending. Each line's pairs with a positive CC go
   to [emit] as one row. *)
let pair_lines sc emit =
  let lines = sc.lines and same = sc.same and n = sc.n_lines in
  if n > Array.length sc.row_code then begin
    let len = max n (2 * Array.length sc.row_code) in
    sc.row_code <- Array.make len 0;
    sc.row_val <- Array.make len 0
  end;
  let row_code = sc.row_code and row_val = sc.row_val in
  for i = 0 to n - 1 do
    let l1 = lines.(i) in
    let hi = l1 lsl line_bits in
    (* Diagonal: two different CPUs executing the same line. *)
    let all = sum_min_all sc i i in
    let v = if all = max_int then cross_pairs sc i i else all - total sc i in
    let k = ref 0 in
    if v > 0 then begin
      row_code.(0) <- hi lor l1;
      row_val.(0) <- v;
      k := 1
    end;
    same_row sc i;
    for j = i + 1 to n - 1 do
      let all = sum_min_all sc i j in
      let v = if all = max_int then cross_pairs sc i j else all - same.(j) in
      same.(j) <- 0;
      if v > 0 then begin
        row_code.(!k) <- hi lor lines.(j);
        row_val.(!k) <- v;
        incr k
      end
    done;
    if !k > 0 then emit row_code row_val !k
  done

let interval_rows sc tbl emit =
  let e = Sample.entries tbl in
  reserve sc e;
  Sample.rows_into tbl ~lines:sc.ent_line ~cpus:sc.cpu ~counts:sc.cnt;
  load_entries sc e;
  pair_lines sc emit

(* The [emit] that adds each row into the map [t], in emission order. *)
let add_rows t codes values n =
  for x = 0 to n - 1 do
    add_key t codes.(x) values.(x)
  done

let create () = Flat_tab.create ()

let of_interval tbl =
  let t = create () in
  interval_rows (scratch ()) tbl (add_rows t);
  t

let merge_into dst src = Flat_tab.iter src (fun k v -> add_key dst k v)

(* The store's intervals in ascending order: interval k is the samples at
   positions [bounds.(k), bounds.(k + 1)) of [order], or of the store
   itself when [order] is empty. One pass over the itc column finds the
   boundaries as long as no sample's interval is below its
   predecessor's, the order every collection and file produces; a store
   that steps back has its indices sorted by interval, once. The pass
   divides only where an interval begins: a sample is in the current
   interval while its itc lies in that interval's range [first, last]
   (clamped to the ints, which the first and last intervals may pass). *)
let intervals ~interval store =
  let _, itc_col, _ = Sample_store.columns store in
  let n = Sample_store.length store in
  let itc i = Int64.to_int (Bigarray.Array1.get itc_col i) in
  let bounds = ref (Array.make 64 0) and k = ref 0 in
  let push i =
    if !k = Array.length !bounds then begin
      let b = Array.make (2 * !k) 0 in
      Array.blit !bounds 0 b 0 !k;
      bounds := b
    end;
    !bounds.(!k) <- i;
    incr k
  in
  let first = ref 0 and last = ref 0 in
  let start i =
    push i;
    let t = itc i in
    let r = t mod interval in
    let r = if r < 0 then r + interval else r in
    let room = interval - 1 - r in
    first := if t < min_int + r then min_int else t - r;
    last := if t > max_int - room then max_int else t + room
  in
  let sorted = ref true and i = ref 1 in
  if n > 0 then start 0;
  while !sorted && !i < n do
    let t = itc !i in
    if t > !last then start !i else if t < !first then sorted := false;
    incr i
  done;
  let order =
    if !sorted then [||]
    else begin
      let keys = Array.init n (fun i -> Sample.floor_div (itc i) interval)
      and order = Array.init n Fun.id in
      Int_sort.sort_by_key keys order ~lo:0 ~hi:n;
      k := 0;
      for i = 0 to n - 1 do
        if i = 0 || keys.(i) > keys.(i - 1) then push i
      done;
      order
    end
  in
  push n;
  (order, Array.sub !bounds 0 !k)

(* A store column's distinct ids ranked in ascending order: [ids.(r)] is
   the id of rank r. An id finds its rank through [lookup]: a direct
   table over the column's span [lo, lo + length) holding -1 where no
   sample has the id, or a Flat_tab from id to rank. *)
type lookup = Direct of int * int array | Hashed of Flat_tab.t
type ranks = { ids : int array; lookup : lookup }

let[@inline] rank r id =
  match r.lookup with
  | Direct (lo, tab) -> tab.(id - lo)
  | Hashed t -> Flat_tab.find t id ~default:(-1)

(* A column whose span exceeds the store's length by more than this is
   hashed: a direct table then costs at most one int per sample, plus
   this much for small stores. *)
let direct_slack = 64

let[@inline] id (col : Sample_store.i32) i =
  Int32.to_int (Bigarray.Array1.get col i)

let span col =
  let lo = ref max_int and hi = ref min_int in
  for i = 0 to Bigarray.Array1.dim col - 1 do
    let id = id col i in
    if id < !lo then lo := id;
    if id > !hi then hi := id
  done;
  (!lo, !hi)

let hashed ids =
  let t = Flat_tab.create ~capacity:(2 * Array.length ids) () in
  Array.iteri (fun r id -> Flat_tab.set t id r) ids;
  Hashed t

(* The ranks of a non-empty column spanning [lo, hi]. *)
let ranks col ~lo ~hi =
  let n = Bigarray.Array1.dim col in
  if hi - lo < n + direct_slack then begin
    let tab = Array.make (hi - lo + 1) (-1) in
    for i = 0 to n - 1 do
      tab.(id col i - lo) <- 0
    done;
    let k = ref 0 in
    Array.iteri
      (fun x r ->
        if r = 0 then begin
          tab.(x) <- !k;
          incr k
        end)
      tab;
    let ids = Array.make !k 0 in
    Array.iteri (fun x r -> if r >= 0 then ids.(r) <- lo + x) tab;
    { ids; lookup = Direct (lo, tab) }
  end
  else begin
    let seen = Flat_tab.create () in
    for i = 0 to n - 1 do
      Flat_tab.set seen (id col i) 0
    done;
    let ids = Array.make (Flat_tab.length seen) 0 and k = ref 0 in
    Flat_tab.iter seen (fun id _ ->
        ids.(!k) <- id;
        incr k);
    Array.sort Int.compare ids;
    { ids; lookup = hashed ids }
  end

(* The ranks a task reads on its own domain: [Flat_tab.find] counts its
   probes in the table, so a hashed lookup is rebuilt per task instead of
   shared; a direct table is only read. *)
let own r =
  match r.lookup with
  | Direct _ -> r
  | Hashed _ -> { r with lookup = hashed r.ids }

(* The bucket pass's arrays, for intervals of at most [longest] samples
   over [n_lines] line ranks and [n_cpus] CPU ranks:
   - [line_of] and [cpu_of]: each sample's line and CPU rank;
   - [line_pos]: per line rank its sample count, then where its bucket's
     next sample goes; 0 between intervals;
   - [touched]: the interval's line ranks, sorted ascending, and
     [line_first] the values that ride along in the sort, then each
     touched line's first entry;
   - [by_line]: the CPU ranks scattered into line buckets, then
     compacted in place into the entries' dense CPUs, with their counts
     in [counts];
   - [cpu_count]: per CPU rank its count on the line being counted, 0
     between lines; [dense]: per CPU rank its dense index in the
     interval, -1 between intervals; [cpu_ranks]: the interval's CPU
     ranks by dense index. *)
type bucket = {
  line_of : int array;
  cpu_of : int array;
  line_pos : int array;
  touched : int array;
  line_first : int array;
  by_line : int array;
  counts : int array;
  cpu_count : int array;
  dense : int array;
  cpu_ranks : int array;
}

let bucket ~longest ~n_lines ~n_cpus =
  let ints n = Array.make n 0 in
  let lines = min n_lines longest and cpus = min n_cpus longest in
  { line_of = ints longest; cpu_of = ints longest; line_pos = ints n_lines;
    touched = ints lines; line_first = ints lines; by_line = ints longest;
    counts = ints longest; cpu_count = ints n_cpus;
    dense = Array.make n_cpus (-1); cpu_ranks = ints cpus }

(* Load the samples at positions [lo, hi) of [order] (of the store when
   [order] is empty) into [sc] as one interval, by a counting sort on
   their line ranks, and return its entry count. *)
let fill_interval b sc ~lines ~cpus store order lo hi =
  let cpu_col, _, line_col = Sample_store.columns store in
  let in_order = Array.length order = 0 in
  let m = hi - lo and t = ref 0 in
  for x = 0 to m - 1 do
    let i = if in_order then lo + x else order.(lo + x) in
    let l = rank lines (id line_col i) in
    b.line_of.(x) <- l;
    b.cpu_of.(x) <- rank cpus (id cpu_col i);
    let h = b.line_pos.(l) in
    if h = 0 then begin
      b.touched.(!t) <- l;
      incr t
    end;
    b.line_pos.(l) <- h + 1
  done;
  let t = !t in
  Int_sort.sort_by_key b.touched b.line_first ~lo:0 ~hi:t;
  let next = ref 0 in
  for j = 0 to t - 1 do
    let l = b.touched.(j) in
    let h = b.line_pos.(l) in
    b.line_pos.(l) <- !next;
    next := !next + h
  done;
  for x = 0 to m - 1 do
    let l = b.line_of.(x) in
    let q = b.line_pos.(l) in
    b.by_line.(q) <- b.cpu_of.(x);
    b.line_pos.(l) <- q + 1
  done;
  (* Line j's bucket ends where line j + 1's begins. Counting a bucket's
     CPUs, then emitting each at its first sample, writes entry w at or
     before the sample being read: [by_line] is compacted in place. *)
  let w = ref 0 and from = ref 0 and n_dense = ref 0 in
  for j = 0 to t - 1 do
    let l = b.touched.(j) in
    let stop = b.line_pos.(l) in
    b.line_pos.(l) <- 0;
    b.line_first.(j) <- !w;
    for x = !from to stop - 1 do
      let c = b.by_line.(x) in
      b.cpu_count.(c) <- b.cpu_count.(c) + 1
    done;
    for x = !from to stop - 1 do
      let c = b.by_line.(x) in
      let k = b.cpu_count.(c) in
      if k > 0 then begin
        b.cpu_count.(c) <- 0;
        if b.dense.(c) < 0 then begin
          b.dense.(c) <- !n_dense;
          b.cpu_ranks.(!n_dense) <- c;
          incr n_dense
        end;
        b.by_line.(!w) <- b.dense.(c);
        b.counts.(!w) <- k;
        incr w
      end
    done;
    from := stop
  done;
  for d = 0 to !n_dense - 1 do
    b.dense.(b.cpu_ranks.(d)) <- -1
  done;
  let e = !w in
  reserve sc e;
  Array.blit b.by_line 0 sc.cpu 0 e;
  Array.blit b.counts 0 sc.cnt 0 e;
  for j = 0 to t - 1 do
    sc.lines.(j) <- lines.ids.(b.touched.(j));
    sc.first.(j) <- b.line_first.(j)
  done;
  sc.first.(t) <- e;
  sc.n_lines <- t;
  load sc ~n_cpus:!n_dense;
  e

(* Bin and pair the intervals [lo, hi) one after another through one
   bucket and one scratch, adding the rows into [t]. Returns the largest
   interval's entry count. *)
let bin_range ~lines ~cpus store (order, bounds) t (lo, hi) =
  let longest = ref 0 in
  for k = lo to hi - 1 do
    longest := max !longest (bounds.(k + 1) - bounds.(k))
  done;
  let b =
    bucket ~longest:!longest ~n_lines:(Array.length lines.ids)
      ~n_cpus:(Array.length cpus.ids)
  and sc = scratch ()
  and emit = add_rows t
  and peak = ref 0 in
  for k = lo to hi - 1 do
    let e =
      fill_interval b sc ~lines ~cpus store order bounds.(k) bounds.(k + 1)
    in
    peak := max !peak e;
    pair_lines sc emit
  done;
  !peak

(* The line and the CPU ranks of a non-empty store, after the identifier
   check on each column's least and greatest id. *)
let store_ranks store =
  if Sample_store.length store = 0 then None
  else begin
    let cpu_col, _, line_col = Sample_store.columns store in
    let cpu_lo, cpu_hi = span cpu_col and line_lo, line_hi = span line_col in
    Sample.check_ids ~cpu:cpu_lo ~line:line_lo;
    Sample.check_ids ~cpu:cpu_hi ~line:line_hi;
    Some
      ( ranks line_col ~lo:line_lo ~hi:line_hi,
        ranks cpu_col ~lo:cpu_lo ~hi:cpu_hi )
  end

let compute ?pool ~interval store =
  if interval <= 0 then invalid_arg "Code_concurrency.compute: interval <= 0";
  let ((_, bounds) as ivs), ranked =
    Obs.time "cc.ingest_s" (fun () ->
        (intervals ~interval store, store_ranks store))
  in
  let n = Array.length bounds - 1 in
  Obs.incr ~by:n "cc.intervals";
  Obs.incr ~by:(Sample_store.length store) "cc.samples";
  let acc = create () in
  let peak =
    Obs.time "cc.compute_s" (fun () ->
        match (ranked, pool) with
        | None, _ -> 0
        | Some (lines, cpus), Some pool
          when Slo_exec.Pool.size pool > 1 && n > 1 ->
          (* One contiguous range of intervals per domain, each with its
             own bucket arrays, scratch and partial map, merged in order. *)
          let k = min n (Slo_exec.Pool.size pool) in
          List.init k (fun r -> ((r * n) / k, ((r + 1) * n) / k))
          |> Slo_exec.Pool.map pool (fun range ->
                 let t = create () in
                 let peak =
                   bin_range ~lines:(own lines) ~cpus:(own cpus) store ivs t
                     range
                 in
                 (t, peak))
          |> List.fold_left
               (fun peak (t, p) ->
                 merge_into acc t;
                 max peak p)
               0
        | Some (lines, cpus), _ ->
          (* Serially, and on a pool of one domain (which runs its tasks in
             the caller): one range adding into the result itself. *)
          bin_range ~lines ~cpus store ivs acc (0, n))
  in
  if n > 0 then
    Obs.set_gauge "cc.table.peak_entries" (float_of_int peak);
  acc

let pairs t =
  Flat_tab.fold t ~init:[] ~f:(fun acc k v -> (k, v) :: acc)
  |> List.sort (fun (k1, v1) (k2, v2) ->
         match Int.compare v2 v1 with 0 -> Int.compare k1 k2 | c -> c)
  |> List.map (fun (k, v) -> ((key_l1 k, key_l2 k), v))

let top t ~k =
  if k < 0 then invalid_arg "Code_concurrency.top: k < 0";
  List.filteri (fun i _ -> i < k) (pairs t)

let merge a b =
  let t = create () in
  merge_into t a;
  merge_into t b;
  t

(* Fixed-point decay weighting for the sliding-window service: integer
   num/den avoids float summation, so the weighted sum over a window is
   exactly reproducible whatever order the intervals were merged in. A
   product that saturates stays saturated (max_int, not max_int / den):
   once a count is "infinite" scaling cannot un-saturate it. *)
let[@inline] scale v ~num ~den =
  let p = sat_mul v num in
  if p = max_int then max_int else p / den

let check_scale name ~num ~den =
  if num < 0 then invalid_arg ("Code_concurrency." ^ name ^ ": num < 0");
  if den <= 0 then invalid_arg ("Code_concurrency." ^ name ^ ": den <= 0")

let merge_scaled dst src ~num ~den =
  check_scale "merge_scaled" ~num ~den;
  Flat_tab.iter src (fun k v -> add_key dst k (scale v ~num ~den))

let accumulate_scaled sums ~slots ~counts ~num ~den =
  check_scale "accumulate_scaled" ~num ~den;
  for i = 0 to Array.length slots - 1 do
    let s = slots.(i) in
    sums.(s) <- sat_add sums.(s) (scale counts.(i) ~num ~den)
  done

let to_codes t =
  let n = Flat_tab.length t in
  let codes = Array.make n 0 and values = Array.make n 0 in
  let i = ref 0 in
  Flat_tab.iter t (fun k v ->
      codes.(!i) <- k;
      values.(!i) <- v;
      incr i);
  (codes, values)

let of_codes codes values =
  let t = Flat_tab.create ~capacity:(Array.length codes) () in
  Array.iteri (fun i k -> add_key t k values.(i)) codes;
  t

(* A map's pairs in ascending code order, i.e. ascending (l1, l2), and its
   mass. Float sums depend on their order, so both of [drift]'s sums are
   pinned: a mass is the sum of the values in descending order (the order
   [pairs] yields them; keys never enter it, so ties are irrelevant), and
   the distance runs over the union of codes in ascending order.

   The descending sum need not be formed when the integer total is at
   most 2^53: every value and every partial sum is then an integer of at
   most 2^53, exactly representable, so each float addition is exact and
   the sum is [float_of_int] of the total, bit for bit. Only maps with
   saturated or near-saturated cells take the sorted path. *)
type view = { v_codes : int array; v_values : int array; v_mass : float }

let exact_mass_limit = 1 lsl 53

let mass values =
  let total = Array.fold_left sat_add 0 values in
  if total <= exact_mass_limit then float_of_int total
  else begin
    let vs = Array.copy values in
    Array.stable_sort (fun x y -> Int.compare y x) vs;
    Array.fold_left (fun acc v -> acc +. float_of_int v) 0.0 vs
  end

let view_of_ascending codes values =
  let n = Array.length codes in
  if Array.length values <> n then
    invalid_arg "Code_concurrency.view_of_ascending: length mismatch";
  for i = 1 to n - 1 do
    if codes.(i) <= codes.(i - 1) then
      invalid_arg "Code_concurrency.view_of_ascending: codes not ascending"
  done;
  { v_codes = codes; v_values = values; v_mass = mass values }

let view t =
  let codes, values = to_codes t in
  Int_sort.sort_by_key codes values ~lo:0 ~hi:(Array.length codes);
  view_of_ascending codes values

(* Half the L1 distance of the unit-mass maps: one merge walk over the two
   ascending code sequences, a code missing on one side counting 0 there. *)
let drift_views a b =
  let ta = a.v_mass and tb = b.v_mass in
  if ta <= 0.0 && tb <= 0.0 then 0.0
  else if ta <= 0.0 || tb <= 0.0 then 1.0
  else begin
    let na = Array.length a.v_codes and nb = Array.length b.v_codes in
    let i = ref 0 and j = ref 0 and diff = ref 0.0 in
    while !i < na || !j < nb do
      let take_a = !i < na && (!j >= nb || a.v_codes.(!i) <= b.v_codes.(!j))
      and take_b = !j < nb && (!i >= na || b.v_codes.(!j) <= a.v_codes.(!i)) in
      let x = if take_a then a.v_values.(!i) else 0
      and y = if take_b then b.v_values.(!j) else 0 in
      if take_a then incr i;
      if take_b then incr j;
      diff :=
        !diff +. abs_float ((float_of_int x /. ta) -. (float_of_int y /. tb))
    done;
    !diff /. 2.0
  end

let drift a b = drift_views (view a) (view b)

let pp ppf t =
  Format.fprintf ppf "@[<v>concurrency map (%d pairs):" (Flat_tab.length t);
  List.iter
    (fun ((l1, l2), v) -> Format.fprintf ppf "@,lines %d x %d: %d" l1 l2 v)
    (pairs t);
  Format.fprintf ppf "@]"

module For_tests = struct
  (* [a] as line 0 and [b] as line 1 of one interval. A line without
     entries is absent from an interval's rows, and its sums are 0. *)
  let on_lines f a b =
    if a = [] || b = [] then 0
    else begin
      let sc = scratch () in
      let entries =
        List.map (fun (c, n) -> (0, c, n)) a @ List.map (fun (c, n) -> (1, c, n)) b
      in
      reserve sc (List.length entries);
      List.iteri
        (fun x (l, c, n) ->
          sc.ent_line.(x) <- l;
          sc.cpu.(x) <- c;
          sc.cnt.(x) <- n)
        entries;
      load_entries sc (List.length entries);
      f sc
    end

  let sum_min_all = on_lines (fun sc -> sum_min_all sc 0 1)

  let sum_min_same_cpu =
    on_lines (fun sc ->
        same_row sc 0;
        sc.same.(1))

  let add = add
  let sat_add = sat_add
  let sat_mul = sat_mul
end
