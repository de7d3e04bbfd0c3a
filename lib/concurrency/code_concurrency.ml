module Obs = Slo_obs.Obs
module Flat_tab = Slo_util.Flat_tab

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

(* One line's frequencies in one interval, in views built once per
   interval:
   - [line]: the line;
   - [cpus]/[counts]: its entries, each CPU as a dense index into the
     interval's CPUs;
   - [row]: its count per dense CPU index, 0 where absent;
   - its counts in ascending order, run-length encoded: distinct values
     [vals] with multiplicities [mult], and for k = 0 .. |vals|, [le.(k)]
     and [le_sum.(k)] the number and saturated sum of the entries among
     the k smallest values. *)
type vec = {
  line : int;
  cpus : int array;
  counts : int array;
  row : int array;
  vals : int array;
  mult : int array;
  le : int array;
  le_sum : int array;
}

let total v = v.le_sum.(Array.length v.vals)

(* Renumber [cpus] in place to dense indices in order of first
   appearance; returns how many distinct CPUs there were. *)
let densify cpus =
  let index = Flat_tab.create () in
  Array.iteri
    (fun i cpu ->
      let fresh = Flat_tab.length index in
      let d = Flat_tab.find index cpu ~default:fresh in
      if d = fresh then Flat_tab.set index cpu d;
      cpus.(i) <- d)
    cpus;
  Flat_tab.length index

(* The vector of rows [lo, hi) of the dense [cpus] and [counts] (distinct
   CPUs). *)
let vec ~ncpus ~line cpus counts lo hi =
  let cpus = Array.sub cpus lo (hi - lo) in
  let counts = Array.sub counts lo (hi - lo) in
  let row = Array.make ncpus 0 in
  Array.iteri (fun i d -> row.(d) <- counts.(i)) cpus;
  let sorted = Array.copy counts in
  Array.sort Int.compare sorted;
  let distinct = ref 0 in
  Array.iteri
    (fun i x -> if i = 0 || x <> sorted.(i - 1) then incr distinct)
    sorted;
  let d = !distinct in
  let vals = Array.make d 0 and mult = Array.make d 0 in
  let le = Array.make (d + 1) 0 and le_sum = Array.make (d + 1) 0 in
  let k = ref (-1) and sum = ref 0 in
  Array.iteri
    (fun i x ->
      if i = 0 || x <> sorted.(i - 1) then begin
        incr k;
        vals.(!k) <- x
      end;
      mult.(!k) <- mult.(!k) + 1;
      sum := sat_add !sum x;
      le.(!k + 1) <- i + 1;
      le_sum.(!k + 1) <- !sum)
    sorted;
  { line; cpus; counts; row; vals; mult; le; le_sum }

(* The vectors of one interval's lines in ascending line order: one per
   run of equal line in the table's rows. The dense CPU indices are
   shared by all of them, so any two rows are comparable. *)
let vecs_of_table tbl =
  let lines, cpus, counts = Sample.rows tbl in
  let ncpus = densify cpus in
  let vecs = ref [] and hi = ref (Array.length lines) in
  for i = Array.length lines - 1 downto 0 do
    if i = 0 || lines.(i) <> lines.(i - 1) then begin
      vecs := vec ~ncpus ~line:lines.(i) cpus counts i !hi :: !vecs;
      hi := i
    end
  done;
  Array.of_list !vecs

(* Σ_{m,n} min(a_m, b_n) over all index pairs (including same-cpu), by a
   two-pointer merge of the ascending views: the entries of b at most a
   value x of a contribute themselves, the other ones x each; as x rises
   the split point in b only moves right, so the sum costs
   O(|vals a| + |vals b|) <= O(|a| + |b|). Profile-scale frequencies can
   push the products past [max_int]; the kernel saturates instead of
   wrapping negative. *)
let sum_min_all a b =
  let vb = b.vals and nb = Array.length b.cpus in
  let db = Array.length vb in
  let k = ref 0 and acc = ref 0 in
  for i = 0 to Array.length a.vals - 1 do
    let x = a.vals.(i) in
    while !k < db && vb.(!k) <= x do
      incr k
    done;
    let per_entry = sat_add b.le_sum.(!k) (sat_mul x (nb - b.le.(!k))) in
    acc := sat_add !acc (sat_mul a.mult.(i) per_entry)
  done;
  !acc

(* Σ over cpus present in both vectors of min(a_cpu, b_cpu): the shorter
   vector's entries, each looked up in the other's row. *)
let sum_min_same_cpu a b =
  let lookup short long =
    let acc = ref 0 in
    for i = 0 to Array.length short.cpus - 1 do
      acc := sat_add !acc (Int.min short.counts.(i) long.row.(short.cpus.(i)))
    done;
    !acc
  in
  if Array.length a.cpus <= Array.length b.cpus then lookup a b else lookup b a

let cc_of_interval t tbl =
  let vecs = vecs_of_table tbl in
  let n = Array.length vecs in
  for i = 0 to n - 1 do
    let v1 = vecs.(i) in
    let hi = v1.line lsl line_bits in
    (* Diagonal: two different CPUs executing the same line. *)
    add_key t (hi lor v1.line) (sum_min_all v1 v1 - total v1);
    for j = i + 1 to n - 1 do
      let v2 = vecs.(j) in
      add_key t (hi lor v2.line) (sum_min_all v1 v2 - sum_min_same_cpu v1 v2)
    done
  done

let create () = Flat_tab.create ()

let of_interval tbl =
  let t = create () in
  cc_of_interval t tbl;
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
        let t = create () in
        List.iter (cc_of_interval t) tbls;
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
let scale v ~num ~den =
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

let view_of_codes codes values =
  let order = Array.init (Array.length codes) Fun.id in
  Array.stable_sort (fun i j -> Int.compare codes.(i) codes.(j)) order;
  { v_codes = Array.map (Array.get codes) order;
    v_values = Array.map (Array.get values) order;
    v_mass = mass values }

let view t =
  let codes, values = to_codes t in
  view_of_codes codes values

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
  let on_vecs f a b =
    let cpus = Array.of_list (List.map fst (a @ b)) in
    let counts = Array.of_list (List.map snd (a @ b)) in
    let ncpus = densify cpus and na = List.length a in
    f
      (vec ~ncpus ~line:0 cpus counts 0 na)
      (vec ~ncpus ~line:1 cpus counts na (Array.length cpus))

  let sum_min_all = on_vecs sum_min_all
  let sum_min_same_cpu = on_vecs sum_min_same_cpu
  let add = add
  let sat_add = sat_add
  let sat_mul = sat_mul
end
