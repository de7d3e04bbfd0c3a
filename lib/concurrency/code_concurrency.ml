module Obs = Slo_obs.Obs

type t = { tbl : ((int * int), int) Hashtbl.t }

let key l1 l2 = if l1 <= l2 then (l1, l2) else (l2, l1)

let cc t l1 l2 = try Hashtbl.find t.tbl (key l1 l2) with Not_found -> 0

(* Counts are non-negative throughout, so saturation at [max_int] keeps
   addition associative and commutative: min (a + b) max_int composes the
   same way in any grouping. That is what lets the sharded reduce below
   merge partial maps in any order and still match the serial path. *)
let sat_add a b =
  let s = a + b in
  if s < 0 then max_int else s

let sat_mul a b =
  if a = 0 || b = 0 then 0
  else
    let p = a * b in
    if p < 0 || p / b <> a then max_int else p

let add t l1 l2 v =
  if v > 0 then begin
    let k = key l1 l2 in
    let cur = try Hashtbl.find t.tbl k with Not_found -> 0 in
    Hashtbl.replace t.tbl k (sat_add cur v)
  end

(* Per-line per-interval frequency vector, sorted ascending, with prefix
   sums: prefix.(i) = sum of the first i entries. *)
type vec = { cpus : int array; counts : int array; prefix : int array; total : int }

let vec_of_freqs freqs =
  let arr = Array.of_list freqs in
  Array.sort (fun (_, a) (_, b) -> compare a b) arr;
  let n = Array.length arr in
  let cpus = Array.map fst arr and counts = Array.map snd arr in
  let prefix = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    prefix.(i + 1) <- sat_add prefix.(i) counts.(i)
  done;
  { cpus; counts; prefix; total = prefix.(n) }

(* Σ_n min(x, b_n) via binary search for the first entry > x. Profile-scale
   frequencies can push [x * (n - lo)] past [max_int]; the kernel saturates
   instead of wrapping negative. *)
let sum_min_against b x =
  let n = Array.length b.counts in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if b.counts.(mid) <= x then lo := mid + 1 else hi := mid
  done;
  sat_add b.prefix.(!lo) (sat_mul x (n - !lo))

(* Σ_{m,n} min(a_m, b_n) over all index pairs (including same-cpu). *)
let sum_min_all a b =
  Array.fold_left (fun acc x -> sat_add acc (sum_min_against b x)) 0 a.counts

(* Σ over cpus present in both vectors of min(a_cpu, b_cpu). *)
let sum_min_same_cpu a b =
  let bmap = Hashtbl.create 16 in
  Array.iteri (fun i cpu -> Hashtbl.replace bmap cpu b.counts.(i)) b.cpus;
  let acc = ref 0 in
  Array.iteri
    (fun i cpu ->
      match Hashtbl.find_opt bmap cpu with
      | Some bc -> acc := sat_add !acc (min a.counts.(i) bc)
      | None -> ())
    a.cpus;
  !acc

let cc_of_interval t tbl =
  let vecs =
    List.map (fun (line, fs) -> (line, vec_of_freqs fs)) (Sample.line_freqs tbl)
  in
  let rec over_pairs = function
    | [] -> ()
    | (l1, v1) :: rest ->
      (* Diagonal: two different CPUs executing the same line. *)
      add t l1 l1 (sum_min_all v1 v1 - v1.total);
      List.iter
        (fun (l2, v2) ->
          let v = sum_min_all v1 v2 - sum_min_same_cpu v1 v2 in
          add t l1 l2 v)
        rest;
      over_pairs rest
  in
  over_pairs vecs

let create () = { tbl = Hashtbl.create 256 }

let of_interval tbl =
  let t = create () in
  cc_of_interval t tbl;
  t

let merge_into dst src = Hashtbl.iter (fun (l1, l2) v -> add dst l1 l2 v) src.tbl

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
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.tbl []
  |> List.sort (fun (k1, v1) (k2, v2) ->
         match compare v2 v1 with 0 -> compare k1 k2 | c -> c)

let top t ~k =
  if k < 0 then invalid_arg "Code_concurrency.top: k < 0";
  List.filteri (fun i _ -> i < k) (pairs t)

let lines t =
  Hashtbl.fold (fun (l1, l2) _ acc -> l1 :: l2 :: acc) t.tbl []
  |> List.sort_uniq compare

let merge a b =
  let t = { tbl = Hashtbl.copy a.tbl } in
  merge_into t b;
  t

(* Fixed-point decay weighting for the sliding-window service: integer
   num/den avoids float summation, so the weighted sum over a window is
   exactly reproducible whatever order the intervals were merged in. A
   product that saturates stays saturated (max_int, not max_int / den):
   once a count is "infinite" scaling cannot un-saturate it. *)
let merge_scaled dst src ~num ~den =
  if num < 0 then invalid_arg "Code_concurrency.merge_scaled: num < 0";
  if den <= 0 then invalid_arg "Code_concurrency.merge_scaled: den <= 0";
  Hashtbl.iter
    (fun (l1, l2) v ->
      let p = sat_mul v num in
      let scaled = if p = max_int then max_int else p / den in
      add dst l1 l2 scaled)
    src.tbl

let pp ppf t =
  Format.fprintf ppf "@[<v>concurrency map (%d pairs):" (Hashtbl.length t.tbl);
  List.iter
    (fun ((l1, l2), v) -> Format.fprintf ppf "@,lines %d x %d: %d" l1 l2 v)
    (pairs t);
  Format.fprintf ppf "@]"

module For_tests = struct
  let sum_min_all a b = sum_min_all (vec_of_freqs a) (vec_of_freqs b)

  let sum_min_against b x =
    let b = vec_of_freqs b in
    sum_min_against b x

  let add = add
  let sat_add = sat_add
  let sat_mul = sat_mul
end
