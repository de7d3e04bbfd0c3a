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
let sat_add a b =
  let s = a + b in
  if s < 0 then max_int else s

(* Two factors below 2^31 cannot overflow 62 bits: the kernel's products
   (a count times a CPU count) take that branch and skip the division. *)
let sat_mul a b =
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
   entries, lines and CPUs, in a scratch the intervals of a chunk share
   (its arrays grow to the largest interval and are never shrunk; only
   [cpu] and [cnt] are the interval's own, its rows reordered in place).
   - Line i, in ascending line order, is [lines.(i)]. Its entries are
     [first.(i), first.(i + 1)) of [cpu] (the CPU as a dense index into
     the interval's CPUs) and [cnt] (the count), sorted by count.
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
  { dense = Flat_tab.create (); cap = 0; n_lines = 0; cpu = [||];
    cnt = [||]; lines = [||]; first = [||]; runs = [||]; vals = [||];
    mult = [||]; le = [||]; le_sum = [||]; cpu_first = [||]; cursor = [||];
    t_line = [||]; t_cnt = [||]; same = [||]; row_code = [||]; row_val = [||] }

(* Room for [e] entries: an interval has at most [e] lines, CPUs and runs. *)
let reserve sc e =
  if e > sc.cap then begin
    let cap = max e (2 * sc.cap) in
    let ints n = Array.make n 0 in
    sc.cap <- cap;
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

(* Renumber [cpus] in place to dense indices in order of first
   appearance; returns how many distinct CPUs there were. *)
let densify dense cpus =
  Flat_tab.clear dense;
  for x = 0 to Array.length cpus - 1 do
    let fresh = Flat_tab.length dense in
    let d = Flat_tab.find dense cpus.(x) ~default:fresh in
    if d = fresh then Flat_tab.set dense cpus.(x) d;
    cpus.(x) <- d
  done;
  Flat_tab.length dense

(* Load the rows of one interval (grouped by line, lines ascending) into
   [sc]. The rows' [cpus] and [counts] become its [cpu] and [cnt]. *)
let load sc (lines, cpus, counts) =
  let e = Array.length lines in
  reserve sc e;
  let n_cpus = densify sc.dense cpus in
  sc.cpu <- cpus;
  sc.cnt <- counts;
  let n = ref 0 in
  for x = 0 to e - 1 do
    if x = 0 || lines.(x) <> lines.(x - 1) then begin
      sc.lines.(!n) <- lines.(x);
      sc.first.(!n) <- x;
      incr n
    end
  done;
  let n = !n in
  sc.n_lines <- n;
  sc.first.(n) <- e;
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

let total sc i = sc.le_sum.(sc.runs.(i + 1) + i)

(* Σ_{m,n} min(a_m, b_n) over all entry pairs of lines a and b (same CPU
   included), by a two-pointer merge of their runs: b's entries at most a
   value x of a contribute themselves, the other ones x each; as x rises
   the split point in b only moves right, so the sum costs
   O(runs a + runs b). Profile-scale frequencies can push the products
   past [max_int]; the kernel saturates instead of wrapping negative. *)
let sum_min_all sc a b =
  let runs = sc.runs and vals = sc.vals and le = sc.le in
  let b_end = runs.(b + 1) in
  let nb = le.(b_end + b) in
  (* [k]: b's first run above the current value of a; b's prefix over the
     runs before it sits at [k + b] *)
  let k = ref runs.(b) and acc = ref 0 in
  for r = runs.(a) to runs.(a + 1) - 1 do
    let x = vals.(r) in
    while !k < b_end && vals.(!k) <= x do
      incr k
    done;
    let per_entry =
      sat_add sc.le_sum.(!k + b) (sat_mul x (nb - le.(!k + b)))
    in
    acc := sat_add !acc (sat_mul sc.mult.(r) per_entry)
  done;
  !acc

(* Add Σ over CPUs m running both lines of min(a_m, b_m) into [same.(j)]
   for every line j > i: each CPU of line i walks the later lines of its
   transposed range. Pairing every line in turn costs Σ_m k_m² for k_m
   the number of lines CPU m ran. *)
let same_row sc i =
  let cursor = sc.cursor and t_line = sc.t_line and t_cnt = sc.t_cnt
  and same = sc.same in
  for x = sc.first.(i) to sc.first.(i + 1) - 1 do
    let m = sc.cpu.(x) and a = sc.cnt.(x) in
    let p = cursor.(m) in
    cursor.(m) <- p + 1;
    for q = p + 1 to sc.cpu_first.(m + 1) - 1 do
      let j = t_line.(q) in
      same.(j) <- sat_add same.(j) (Int.min a t_cnt.(q))
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

(* The kernel. Line i is paired with itself and then with every later
   line, so over the interval the codes come out strictly ascending. Each
   line's pairs with a positive CC go to [emit] as one row. *)
let interval_rows sc tbl emit =
  load sc (Sample.rows tbl);
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

(* Deterministic chunking: consecutive runs of [chunk] tables, in order.
   The chunk boundaries depend only on the input list, never on the pool,
   so the partial maps — and, merge being associative and commutative,
   their reduction — are identical for every worker count. *)
let chunk = 32

let chunks xs =
  let rec go acc cur k = function
    | [] -> List.rev (match cur with [] -> acc | _ -> List.rev cur :: acc)
    | x :: rest ->
      if k + 1 = chunk then go (List.rev (x :: cur) :: acc) [] 0 rest
      else go acc (x :: cur) (k + 1) rest
  in
  go [] [] 0 xs

let of_tables ?pool tables =
  Obs.incr ~by:(List.length tables) "cc.intervals";
  Obs.incr
    ~by:(List.fold_left (fun acc tbl -> acc + Sample.total_samples tbl) 0 tables)
    "cc.samples";
  (match tables with
  | [] -> ()
  | _ ->
    let peak =
      List.fold_left (fun m tbl -> max m (Sample.entries tbl)) 0 tables
    in
    Obs.set_gauge "cc.table.peak_entries" (float_of_int peak));
  Obs.time "cc.compute_s" (fun () ->
      let compute_chunk tbls =
        let t = create () and sc = scratch () in
        let emit = add_rows t in
        List.iter (fun tbl -> interval_rows sc tbl emit) tbls;
        t
      in
      let parts =
        match pool with
        | None -> List.map compute_chunk (chunks tables)
        | Some pool -> Slo_exec.Pool.map pool compute_chunk (chunks tables)
      in
      let acc = create () in
      List.iter (merge_into acc) parts;
      acc)

(* Index ranges of [bin_range] consecutive samples: [0,r), [r,2r), ...
   Like [chunks], the boundaries depend only on the store length, never on
   the pool, and absorbing the per-range binners is a pointwise histogram
   sum — commutative — so the binned tables are identical for every pool
   size. *)
let bin_range = 1 lsl 16

let compute ?pool ~interval store =
  if interval <= 0 then invalid_arg "Code_concurrency.compute: interval <= 0";
  let n = Sample_store.length store in
  let tables =
    Obs.time "cc.ingest_s" (fun () ->
        let bin (lo, hi) =
          let b = Sample.binner ~interval in
          for i = lo to hi - 1 do
            Sample.feed_raw b ~cpu:(Sample_store.cpu store i)
              ~itc:(Sample_store.itc store i)
              ~line:(Sample_store.line store i)
          done;
          b
        in
        let rec ranges lo =
          if lo >= n then []
          else (lo, min n (lo + bin_range)) :: ranges (lo + bin_range)
        in
        let parts =
          match pool with
          | None -> List.map bin (ranges 0)
          | Some pool -> Slo_exec.Pool.map pool bin (ranges 0)
        in
        match parts with
        | [] -> []
        | b0 :: rest ->
          List.iter (Sample.absorb b0) rest;
          Sample.binned b0)
  in
  of_tables ?pool tables

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
      load sc
        ( Array.of_list (List.map (fun _ -> 0) a @ List.map (fun _ -> 1) b),
          Array.of_list (List.map fst (a @ b)),
          Array.of_list (List.map snd (a @ b)) );
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
