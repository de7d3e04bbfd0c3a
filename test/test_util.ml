(* Tests for Slo_util: Prng, Stats, Int_sort. *)

module Prng = Slo_util.Prng
module Stats = Slo_util.Stats

let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Prng *)

let test_prng_determinism () =
  let a = Prng.create ~seed:42 and b = Prng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_seeds_differ () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  let distinct = ref false in
  for _ = 1 to 10 do
    if Prng.next_int64 a <> Prng.next_int64 b then distinct := true
  done;
  Alcotest.(check bool) "streams differ" true !distinct

let test_prng_copy () =
  let a = Prng.create ~seed:9 in
  ignore (Prng.next_int64 a);
  let b = Prng.copy a in
  Alcotest.(check int64) "copy continues identically" (Prng.next_int64 a)
    (Prng.next_int64 b)

let test_prng_split () =
  let a = Prng.create ~seed:5 in
  let b = Prng.split a in
  (* The split stream and the parent must not be identical. *)
  let same = ref true in
  for _ = 1 to 8 do
    if Prng.next_int64 a <> Prng.next_int64 b then same := false
  done;
  Alcotest.(check bool) "split independent" false !same

let test_prng_bounds () =
  let t = Prng.create ~seed:3 in
  for _ = 1 to 1000 do
    let v = Prng.int t 7 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 7)
  done;
  Alcotest.check_raises "bound 0" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int t 0))

let test_prng_float () =
  let t = Prng.create ~seed:4 in
  for _ = 1 to 1000 do
    let v = Prng.float t 2.5 in
    Alcotest.(check bool) "in range" true (v >= 0.0 && v < 2.5)
  done

let test_prng_choose_shuffle () =
  let t = Prng.create ~seed:6 in
  let arr = [| 1; 2; 3; 4; 5 |] in
  for _ = 1 to 50 do
    let v = Prng.choose t arr in
    Alcotest.(check bool) "chosen from array" true (Array.exists (( = ) v) arr)
  done;
  let arr2 = Array.init 20 (fun i -> i) in
  Prng.shuffle t arr2;
  let sorted = Array.copy arr2 in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "shuffle is a permutation"
    (Array.init 20 (fun i -> i))
    sorted

let test_prng_geometric () =
  let t = Prng.create ~seed:7 in
  let v = Prng.geometric t ~p:1.0 in
  check_int "p=1 gives 0" 0 v;
  let total = ref 0 in
  for _ = 1 to 1000 do
    total := !total + Prng.geometric t ~p:0.5
  done;
  (* Mean of Geometric(0.5) failures is 1. *)
  Alcotest.(check bool) "mean near 1" true (!total > 700 && !total < 1300)

(* Known answers: the streams are part of every pinned digest, so any
   change of representation must reproduce them bit for bit. *)
let test_prng_known_answers () =
  let i64 = Alcotest.(check int64) in
  let a = Prng.create ~seed:42 in
  List.iter (fun v -> i64 "create 42" v (Prng.next_int64 a))
    [ -4767286540954276203L; 2949826092126892291L; 5139283748462763858L ];
  let parent = Prng.create ~seed:5 in
  let child = Prng.split parent in
  i64 "split: parent" (-4569129087685675272L) (Prng.next_int64 parent);
  List.iter (fun v -> i64 "split: child" v (Prng.next_int64 child))
    [ -371861127037631947L; 1952936728445087881L ];
  let d = Prng.derive ~seed:7 ~stream:3 in
  List.iter (fun v -> i64 "derive 7/3" v (Prng.next_int64 d))
    [ -5852021776408612484L; 4270312243260898756L ];
  let e = Prng.create ~seed:3 in
  Alcotest.(check (list int)) "int 1000"
    [ 763; 890; 432; 411; 341; 833 ]
    (List.init 6 (fun _ -> Prng.int e 1000));
  let f = Prng.create ~seed:4 in
  Alcotest.(check (list string)) "float 1.0"
    [ "0x1.b9cf8dcb88ce2p-2"; "0x1.c8e98cd497316p-1"; "0x1.b7de33f91cf7p-1" ]
    (List.init 3 (fun _ -> Printf.sprintf "%h" (Prng.float f 1.0)));
  let g = Prng.create ~seed:(-1) in
  i64 "create -1" (-1956407806741107680L) (Prng.next_int64 g);
  check_int "int max_int" 4208611764272472242 (Prng.int g max_int)

(* The simulator draws from [Prng.int] on every [rand] step. *)
let test_prng_int_allocates_nothing () =
  let t = Prng.create ~seed:11 in
  ignore (Prng.int t 10);
  let before = Gc.minor_words () in
  let acc = ref 0 in
  for _ = 1 to 1000 do
    acc := !acc + Prng.int t 10
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) (Printf.sprintf "%.0f minor words for 1000 draws" words)
    true (words = 0.0 && !acc >= 0)

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_mean_median () =
  check_float "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  check_float "median odd" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  check_float "median even" 2.5 (Stats.median [ 1.0; 2.0; 3.0; 4.0 ]);
  Alcotest.check_raises "empty mean" (Invalid_argument "Stats.mean: empty list")
    (fun () -> ignore (Stats.mean []))

let test_variance () =
  check_float "variance" 2.0 (Stats.variance [ 1.0; 2.0; 3.0; 4.0; 5.0 ]);
  check_float "stddev" (sqrt 2.0) (Stats.stddev [ 1.0; 2.0; 3.0; 4.0; 5.0 ])

let test_percentile () =
  let xs = [ 10.0; 20.0; 30.0; 40.0 ] in
  check_float "p0" 10.0 (Stats.percentile xs ~p:0.0);
  check_float "p100" 40.0 (Stats.percentile xs ~p:1.0);
  check_float "p50" 25.0 (Stats.percentile xs ~p:0.5);
  check_float "single" 5.0 (Stats.percentile [ 5.0 ] ~p:0.75)

let test_outliers () =
  let xs = [ 10.0; 11.0; 9.0; 10.5; 9.5; 100.0 ] in
  let kept = Stats.remove_outliers xs in
  Alcotest.(check bool) "outlier removed" false (List.mem 100.0 kept);
  check_int "kept the rest" 5 (List.length kept);
  (* trimmed mean is the mean of the kept points *)
  check_float "trimmed mean" (Stats.mean kept) (Stats.trimmed_mean xs);
  (* short lists pass through *)
  Alcotest.(check (list (float 0.0))) "singleton" [ 4.0 ] (Stats.remove_outliers [ 4.0 ])

let test_geometric_mean () =
  check_float "geomean" 4.0 (Stats.geometric_mean [ 2.0; 8.0 ]);
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Stats.geometric_mean: non-positive value") (fun () ->
      ignore (Stats.geometric_mean [ 1.0; 0.0 ]))

let test_spearman () =
  check_float "perfect" 1.0 (Stats.spearman [ 1.0; 2.0; 3.0 ] [ 10.0; 20.0; 30.0 ]);
  check_float "reversed" (-1.0) (Stats.spearman [ 1.0; 2.0; 3.0 ] [ 3.0; 2.0; 1.0 ]);
  (* monotone transformations don't change rank correlation *)
  check_float "monotone invariant" 1.0
    (Stats.spearman [ 1.0; 2.0; 3.0; 4.0 ] [ 1.0; 100.0; 1000.0; 10000.0 ])

let test_speedup () =
  check_float "+10%" 10.0 (Stats.speedup_percent ~baseline:100.0 ~measured:110.0);
  check_float "-50%" (-50.0) (Stats.speedup_percent ~baseline:100.0 ~measured:50.0);
  (* Regression: baseline 0 used to divide through and return inf/nan. *)
  Alcotest.check_raises "zero baseline"
    (Invalid_argument "Stats.speedup_percent: baseline is zero") (fun () ->
      ignore (Stats.speedup_percent ~baseline:0.0 ~measured:1.0))

let test_pearson () =
  check_float "perfect" 1.0 (Stats.pearson [ 1.0; 2.0; 3.0 ] [ 2.0; 4.0; 6.0 ]);
  check_float "anti" (-1.0) (Stats.pearson [ 1.0; 2.0; 3.0 ] [ 3.0; 2.0; 1.0 ]);
  check_float "constant side gives 0" 0.0 (Stats.pearson [ 1.0; 1.0 ] [ 1.0; 2.0 ]);
  (* Regression: a length mismatch used to escape as List.fold_left2's bare
     Invalid_argument; empty inputs divided 0/0. Both are named errors now. *)
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Stats.pearson: length mismatch") (fun () ->
      ignore (Stats.pearson [ 1.0 ] [ 1.0; 2.0 ]));
  Alcotest.check_raises "empty" (Invalid_argument "Stats.pearson: empty list")
    (fun () -> ignore (Stats.pearson [] []))

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_median_bounded =
  QCheck2.Test.make ~name:"median lies within min/max" ~count:200
    QCheck2.Gen.(list_size (int_range 1 30) (float_range (-1000.0) 1000.0))
    (fun xs ->
      let m = Stats.median xs in
      m >= List.fold_left min infinity xs && m <= List.fold_left max neg_infinity xs)

let prop_outliers_subset =
  QCheck2.Test.make ~name:"remove_outliers returns a non-empty subset" ~count:200
    QCheck2.Gen.(list_size (int_range 1 30) (float_range (-1000.0) 1000.0))
    (fun xs ->
      let kept = Stats.remove_outliers xs in
      kept <> [] && List.for_all (fun x -> List.mem x xs) kept)

let prop_spearman_range =
  QCheck2.Test.make ~name:"spearman in [-1, 1]" ~count:200
    QCheck2.Gen.(
      let* n = int_range 2 20 in
      let* xs = list_size (return n) (float_range (-100.0) 100.0) in
      let* ys = list_size (return n) (float_range (-100.0) 100.0) in
      return (xs, ys))
    (fun (xs, ys) ->
      let r = Stats.spearman xs ys in
      r >= -1.0000001 && r <= 1.0000001)

let prop_prng_int_range =
  QCheck2.Test.make ~name:"Prng.int respects bounds" ~count:200
    QCheck2.Gen.(pair (int_range 0 10000) (int_range 1 1000))
    (fun (seed, bound) ->
      let t = Prng.create ~seed in
      let ok = ref true in
      for _ = 1 to 50 do
        let v = Prng.int t bound in
        if v < 0 || v >= bound then ok := false
      done;
      !ok)

(* Int_sort against List.sort on (key, value) pairs: a sorted
   range holds the same pairs with ascending keys, and nothing outside it
   moves. Keys are drawn from a small range too, so equal keys are
   common; short, long, sorted, reversed and constant inputs. *)
let prop_int_sort =
  QCheck2.Test.make ~name:"Int_sort.sort_by_key = sorted pairs" ~count:300
    QCheck2.Gen.(
      let* n = frequency [ (3, int_range 0 40); (1, int_range 41 2000) ] in
      let* keys =
        oneof
          [
            array_size (return n) (int_range 0 5);
            array_size (return n) int;
            return (Array.init n Fun.id);
            return (Array.init n (fun i -> n - i));
            return (Array.init n (fun i -> i mod 7));
          ]
      in
      let* lo = int_range 0 n in
      let* hi = int_range lo n in
      return (keys, lo, hi))
    (fun (keys, lo, hi) ->
      let n = Array.length keys in
      let k = Array.copy keys and v = Array.init n (fun i -> (i * 31) mod 17) in
      let before = Array.map2 (fun a b -> (a, b)) k v in
      Slo_util.Int_sort.sort_by_key k v ~lo ~hi;
      let after = Array.map2 (fun a b -> (a, b)) k v in
      let range a = Array.to_list (Array.sub a lo (hi - lo)) in
      let outside a =
        Array.to_list (Array.sub a 0 lo)
        @ Array.to_list (Array.sub a hi (n - hi))
      in
      outside after = outside before
      && List.sort compare (range after) = List.sort compare (range before)
      && List.map fst (range after)
         = List.sort compare (List.map fst (range before)))

let props = List.map QCheck_alcotest.to_alcotest
  [ prop_median_bounded; prop_outliers_subset; prop_spearman_range;
    prop_prng_int_range; prop_int_sort ]

let suites =
  [
    ( "util.prng",
      [
        Alcotest.test_case "determinism" `Quick test_prng_determinism;
        Alcotest.test_case "seeds differ" `Quick test_prng_seeds_differ;
        Alcotest.test_case "copy" `Quick test_prng_copy;
        Alcotest.test_case "split" `Quick test_prng_split;
        Alcotest.test_case "int bounds" `Quick test_prng_bounds;
        Alcotest.test_case "float bounds" `Quick test_prng_float;
        Alcotest.test_case "choose/shuffle" `Quick test_prng_choose_shuffle;
        Alcotest.test_case "geometric" `Quick test_prng_geometric;
        Alcotest.test_case "known answers" `Quick test_prng_known_answers;
        Alcotest.test_case "int allocates nothing" `Quick
          test_prng_int_allocates_nothing;
      ] );
    ( "util.stats",
      [
        Alcotest.test_case "mean/median" `Quick test_mean_median;
        Alcotest.test_case "variance" `Quick test_variance;
        Alcotest.test_case "percentile" `Quick test_percentile;
        Alcotest.test_case "outliers" `Quick test_outliers;
        Alcotest.test_case "geometric mean" `Quick test_geometric_mean;
        Alcotest.test_case "spearman" `Quick test_spearman;
        Alcotest.test_case "pearson" `Quick test_pearson;
        Alcotest.test_case "speedup" `Quick test_speedup;
      ] );
    ("util.properties", props);
  ]

(* Additional properties *)

let prop_percentile_monotone =
  QCheck2.Test.make ~name:"percentile is monotone in p" ~count:200
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 30) (float_range (-100.0) 100.0))
        (pair (float_range 0.0 1.0) (float_range 0.0 1.0)))
    (fun (xs, (p1, p2)) ->
      let lo = min p1 p2 and hi = max p1 p2 in
      Stats.percentile xs ~p:lo <= Stats.percentile xs ~p:hi +. 1e-9)

let prop_trimmed_mean_bounded =
  QCheck2.Test.make ~name:"trimmed mean lies within data range" ~count:200
    QCheck2.Gen.(list_size (int_range 1 30) (float_range (-100.0) 100.0))
    (fun xs ->
      let m = Stats.trimmed_mean xs in
      m >= List.fold_left min infinity xs -. 1e-9
      && m <= List.fold_left max neg_infinity xs +. 1e-9)

let suites =
  suites
  @ [
      ( "util.more-properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_percentile_monotone; prop_trimmed_mean_bounded ] );
    ]
