(* Tests for the always-on layout service: the sliding-window laws the
   serve daemon rests on (the window's tables against a Hashtbl
   reference, chunking invariance, order-independent decay weighting),
   plus the Serve state machine itself (admission control,
   drift-triggered publication, the daemon domain, and snapshot/restore
   identity). *)

module Sample = Slo_concurrency.Sample
module Cc = Slo_concurrency.Code_concurrency
module Window = Slo_serve.Window
module Serve = Slo_serve.Serve
module Persist = Slo_persist.Persist
module Pipeline = Slo_core.Pipeline
module Optimizer = Slo_search.Optimizer
module Counts = Slo_profile.Counts
module Interp = Slo_profile.Interp
module Parser = Slo_ir.Parser
module Typecheck = Slo_ir.Typecheck

let check_int = Alcotest.(check int)

let s cpu itc line = { Sample.cpu; itc; line }
let to_samples = List.map (fun (c, t, l) -> s c t l)

(* cpu in 0..3, itc spans negatives (floor_div semantics), line 1..6 *)
let gen_stream =
  QCheck2.Gen.(
    list_size (int_bound 80)
      (triple (int_bound 3) (int_range (-300) 300) (int_range 1 6)))

let gen_interval = QCheck2.Gen.int_range 1 30

(* ------------------------------------------------------------------ *)
(* Window laws (QCheck2) *)

(* The reference semantics of the window's tables: the boxed
   (interval, cpu, line) -> int ref Hashtbl feeder the flat
   open-addressing tables replaced. [retire p] drops every count whose
   interval satisfies [p]; [rows ()] lists the counts as sorted
   (idx, cpu, line, count). *)
let hashtbl_reference ~interval =
  let tbl : (int * int * int, int ref) Hashtbl.t = Hashtbl.create 64 in
  let feed ~cpu ~itc ~line =
    let key = (Sample.floor_div itc interval, cpu, line) in
    match Hashtbl.find_opt tbl key with
    | Some r -> incr r
    | None -> Hashtbl.add tbl key (ref 1)
  in
  let retire p =
    Hashtbl.filter_map_inplace
      (fun (i, _, _) r -> if p i then None else Some r)
      tbl
  in
  let rows () =
    Hashtbl.fold (fun (idx, cpu, line) r acc -> (idx, cpu, line, !r) :: acc)
      tbl []
    |> List.sort compare
  in
  (feed, retire, rows)

(* The window's tables in the reference's row form. *)
let window_rows w =
  List.concat_map
    (fun (idx, tbl) ->
      let lines, cpus, counts = Sample.rows tbl in
      List.init (Array.length lines) (fun r ->
          (idx, cpus.(r), lines.(r), counts.(r))))
    (Window.tables w)
  |> List.sort compare

(* A random window over a stream that mostly moves forward (each step
   moves the itc by -100..300), so intervals retire and samples arrive
   late. The reference applies the watermark itself: a sample at or
   below [newest - window] is late and not counted, and one past
   [newest] retires every interval at or below the new watermark. The
   window's tables, sample and interval counts, retirements and late
   samples must all agree with it. *)
let prop_window_matches_hashtbl_reference =
  QCheck2.Test.make
    ~name:"window tables = (int, int ref) Hashtbl reference (feed + retirement)"
    ~count:300
    QCheck2.Gen.(
      triple (int_range 1 50) (int_range 1 8)
        (list_size (int_bound 120)
           (triple (int_bound 7) (int_range (-100) 300) (int_range 1 9))))
    (fun (interval, window, steps) ->
      let ref_feed, ref_retire, ref_rows = hashtbl_reference ~interval in
      let w = Window.create ~interval ~window () in
      let newest = ref None and late = ref 0 and itc = ref 0 in
      let seen = Hashtbl.create 16 in
      let agree =
        List.for_all
          (fun (cpu, step, line) ->
            itc := !itc + step;
            let idx = Sample.floor_div !itc interval in
            let is_late =
              match !newest with
              | Some n -> Sample.below_watermark ~newest:n ~window idx
              | None -> false
            in
            let accepted = Window.feed w ~cpu ~itc:!itc ~line in
            if is_late then incr late
            else begin
              (match !newest with
              | Some n when idx <= n -> ()
              | _ ->
                newest := Some idx;
                ref_retire (Sample.below_watermark ~newest:idx ~window));
              Hashtbl.replace seen idx ();
              ref_feed ~cpu ~itc:!itc ~line
            end;
            accepted = not is_late)
          steps
      in
      let rows = ref_rows () in
      let live =
        List.length (List.sort_uniq compare (List.map (fun (i, _, _, _) -> i) rows))
      in
      agree
      && window_rows w = rows
      && Window.live_samples w
         = List.fold_left (fun acc (_, _, _, n) -> acc + n) 0 rows
      && Window.live_intervals w = live
      && Window.retired w = Hashtbl.length seen - live
      && Window.late w = !late)

(* The same reference at scale: 200 000 time-ordered samples from an LCG
   over 16 cpus x 24 lines, interval 32 768, into a window long enough
   that nothing retires — enough distinct keys per table to grow the
   Flat_tab well past its initial size. *)
let test_window_matches_reference_at_scale () =
  let interval = 32_768 in
  let ref_feed, _, ref_rows = hashtbl_reference ~interval in
  let w = Window.create ~interval ~window:64 () in
  let state = ref 0x243F6A8885A308D3 and itc = ref 0 in
  for _ = 1 to 200_000 do
    state := (!state * 2685821657736338717) + 1442695040888963407;
    let bits = !state lsr 11 in
    itc := !itc + 1 + (bits land 7);
    let cpu = bits mod 16 and line = 100 + ((bits lsr 17) mod 24) in
    if not (Window.feed w ~cpu ~itc:!itc ~line) then
      Alcotest.fail "a time-ordered sample was late";
    ref_feed ~cpu ~itc:!itc ~line
  done;
  let rows = window_rows w in
  check_int "rows" (List.length (ref_rows ())) (List.length rows);
  Alcotest.(check bool) "window rows = Hashtbl reference" true
    (rows = ref_rows ());
  check_int "nothing retired" 0 (Window.retired w);
  check_int "live samples" 200_000 (Window.live_samples w);
  check_int "peak interval-table entries" 384
    (List.fold_left
       (fun acc (_, tbl) -> max acc (Sample.entries tbl))
       0 (Window.tables w))

(* The window's live state after a (time-ordered) stream equals the
   direct binning of just the samples in the final window — however the
   stream was chunked on the way in. *)
let prop_window_eq_direct_binning =
  QCheck2.Test.make
    ~name:"sliding window = direct binning of the window's samples"
    ~count:300
    QCheck2.Gen.(
      quad gen_interval (int_range 1 5) gen_stream
        (list_size (int_bound 12) (int_range 1 7)))
    (fun (interval, window, xs, chunk_sizes) ->
      let samples =
        List.stable_sort
          (fun (a : Sample.t) b -> compare a.Sample.itc b.Sample.itc)
          (to_samples xs)
      in
      (* one-at-a-time window *)
      let w1 = Window.create ~interval ~window () in
      List.iter
        (fun (x : Sample.t) ->
          ignore
            (Window.feed w1 ~cpu:x.Sample.cpu ~itc:x.Sample.itc
               ~line:x.Sample.line))
        samples;
      (* same stream cut into arbitrary chunks *)
      let w2 = Window.create ~interval ~window () in
      let rec chunks rest sizes =
        match rest with
        | [] -> ()
        | _ ->
          let n = match sizes with [] -> 3 | n :: _ -> n in
          let rec take k = function
            | x :: tl when k > 0 ->
              let a, b = take (k - 1) tl in
              (x :: a, b)
            | rest -> ([], rest)
          in
          let batch, rest = take n rest in
          List.iter
            (fun (x : Sample.t) ->
              ignore
                (Window.feed w2 ~cpu:x.Sample.cpu ~itc:x.Sample.itc
                   ~line:x.Sample.line))
            batch;
          chunks rest (match sizes with [] -> [] | _ :: tl -> tl)
      in
      chunks samples chunk_sizes;
      (* direct binning of only the samples in the final window *)
      let direct =
        Tutil.bin_idx ~interval
          (match Window.newest w1 with
          | None -> []
          | Some max_idx ->
            List.filter
              (fun (x : Sample.t) ->
                Sample.floor_div x.Sample.itc interval > max_idx - window)
              samples)
      in
      Tutil.canon (Window.tables w1) = Tutil.canon direct
      && Tutil.canon (Window.tables w2) = Tutil.canon direct
      && Window.retired w1 = Window.retired w2
      && Window.late w1 = 0
      && Window.late w2 = 0)

let cc_canon cc = List.sort compare (Cc.pairs cc)

(* weighted_cc merges intervals in ascending-idx order; folding them in
   descending order must give the same map (exact fixed-point weights). *)
let prop_decay_weights_order_independent =
  QCheck2.Test.make ~name:"decay-weighted CC is merge-order independent"
    ~count:200
    QCheck2.Gen.(
      quad gen_interval (int_range 1 5) (int_range 0 3) gen_stream)
    (fun (interval, window, decay_i, xs) ->
      let decay = List.nth [ 1.0; 0.9; 0.75; 0.5 ] decay_i in
      let w = Window.create ~decay ~interval ~window () in
      List.iter
        (fun (x : Sample.t) ->
          ignore
            (Window.feed w ~cpu:x.Sample.cpu ~itc:x.Sample.itc
               ~line:x.Sample.line))
        (List.stable_sort
           (fun (a : Sample.t) b -> compare a.Sample.itc b.Sample.itc)
           (to_samples xs));
      let newest = match Window.newest w with Some n -> n | None -> 0 in
      let manual = Cc.create () in
      List.iter
        (fun (idx, tbl) ->
          let num = Window.weight w ~age:(newest - idx) in
          if num > 0 then
            Cc.merge_scaled manual (Cc.of_interval tbl) ~num
              ~den:Window.weight_den)
        (List.rev (Window.tables w));
      cc_canon (Window.weighted_cc w) = cc_canon manual)

(* ------------------------------------------------------------------ *)
(* Window unit tests *)

let test_window_retirement () =
  let w = Window.create ~interval:10 ~window:2 () in
  ignore (Window.feed w ~cpu:0 ~itc:5 ~line:1);
  ignore (Window.feed w ~cpu:1 ~itc:15 ~line:2);
  check_int "two live intervals" 2 (Window.live_intervals w);
  ignore (Window.feed w ~cpu:0 ~itc:25 ~line:3);
  (* idx 2 arrived: idx 0 is at the watermark and retires *)
  check_int "idx 0 retired" 1 (Window.retired w);
  check_int "still two live" 2 (Window.live_intervals w);
  check_int "live samples" 2 (Window.live_samples w);
  (* a sample below the watermark is late: dropped, tables untouched *)
  Alcotest.(check bool)
    "late sample rejected" false
    (Window.feed w ~cpu:0 ~itc:3 ~line:1);
  check_int "late counted" 1 (Window.late w);
  check_int "tables unchanged by late" 2 (Window.live_samples w)

let test_window_late_out_of_range () =
  (* Regression: lateness was classified before the id check, so an
     out-of-range sample below the watermark was counted late instead of
     rejected. *)
  let w = Window.create ~interval:10 ~window:2 () in
  List.iter
    (fun itc -> ignore (Window.feed w ~cpu:0 ~itc ~line:1))
    [ 5; 15; 25 ];
  (match Window.feed w ~cpu:(-1) ~itc:3 ~line:1 with
  | _ -> Alcotest.fail "out-of-range late sample accepted"
  | exception Invalid_argument _ -> ());
  (match Window.feed w ~cpu:0 ~itc:3 ~line:(Sample.max_id + 1) with
  | _ -> Alcotest.fail "out-of-range late line accepted"
  | exception Invalid_argument _ -> ());
  check_int "late unchanged" 0 (Window.late w);
  check_int "live unchanged" 2 (Window.live_samples w)

let test_window_near_min_int () =
  (* Regression: the watermark [newest - window] wrapped to a huge
     positive index when newest lay within [window] of min_int, so the
     first sample retired at once and the second counted late. Interval
     indices near min_int must behave like indices near 0. *)
  List.iter
    (fun base ->
      let w = Window.create ~interval:1 ~window:4 () in
      Alcotest.(check bool) "first accepted" true
        (Window.feed w ~cpu:0 ~itc:base ~line:1);
      Alcotest.(check bool) "second accepted" true
        (Window.feed w ~cpu:1 ~itc:(base + 1) ~line:1);
      check_int "both live" 2 (Window.live_samples w);
      check_int "none retired" 0 (Window.retired w);
      check_int "none late" 0 (Window.late w);
      (* restore checks window membership the same way *)
      let w' =
        Window.restore ~interval:1 ~window:4 ~newest:(base + 1)
          (Window.tables w)
      in
      check_int "restored live" 2 (Window.live_intervals w'))
    [ 0; min_int ]

(* One table of [(cpu, count)] rows on line 1. *)
let table_of rows =
  let tbl = Sample.empty_table () in
  List.iter (fun (cpu, count) -> Sample.count_n tbl ~cpu ~line:1 ~count) rows;
  tbl

(* [live_samples] sums the tables' totals and saturates like them: one
   saturated table, or two whose sum passes max_int, read max_int, and
   once the saturated interval retires the survivors' total is exact
   again. *)
let test_window_live_samples_saturate () =
  let w =
    Window.restore ~interval:10 ~window:4 ~newest:2
      [ (0, table_of [ (0, max_int - 1); (1, 5) ]);
        (1, table_of [ (0, max_int - 10) ]);
        (2, table_of [ (0, 4) ]) ]
  in
  check_int "saturated" max_int (Window.live_samples w);
  check_int "three live" 3 (Window.live_intervals w);
  ignore (Window.feed w ~cpu:1 ~itc:40 ~line:2);
  check_int "interval 0 retired" 1 (Window.retired w);
  check_int "survivors' total" (max_int - 5) (Window.live_samples w);
  ignore (Window.feed w ~cpu:1 ~itc:50 ~line:2);
  check_int "interval 1 retired" 2 (Window.retired w);
  check_int "survivors' total again" 6 (Window.live_samples w)

(* [create] and [restore] check their own arguments: a positive interval,
   and for [restore] strictly ascending indices inside the window. A
   table with no sample is left out. *)
let test_window_validation () =
  let raises what msg f =
    Alcotest.check_raises what (Invalid_argument msg) (fun () ->
        ignore (f ()))
  in
  let one () = table_of [ (0, 1) ] in
  List.iter
    (fun interval ->
      raises "create" "Window.create: interval <= 0" (fun () ->
          Window.create ~interval ~window:4 ());
      raises "restore" "Window.restore: interval <= 0" (fun () ->
          Window.restore ~interval ~window:4 ~newest:0 []))
    [ 0; -1; min_int ];
  raises "descending indices"
    "Window.restore: interval indices not strictly ascending" (fun () ->
      Window.restore ~interval:10 ~window:4 ~newest:3
        [ (3, one ()); (2, one ()) ]);
  raises "repeated index"
    "Window.restore: interval indices not strictly ascending" (fun () ->
      Window.restore ~interval:10 ~window:4 ~newest:3
        [ (2, one ()); (2, one ()) ]);
  raises "outside the window"
    "Window.restore: interval 1 outside the window of 2 intervals ending \
     at 3"
    (fun () ->
      Window.restore ~interval:10 ~window:2 ~newest:3
        [ (1, one ()); (3, one ()) ]);
  let w =
    Window.restore ~interval:10 ~window:4 ~newest:3
      [ (1, Sample.empty_table ()); (3, one ()) ]
  in
  Alcotest.(check (list int))
    "the empty table is left out" [ 3 ]
    (List.map fst (Window.tables w));
  check_int "one live sample" 1 (Window.live_samples w)

let test_window_weights () =
  let w = Window.create ~decay:0.5 ~interval:10 ~window:4 () in
  check_int "age 0 is full weight" Window.weight_den (Window.weight w ~age:0);
  check_int "age 1 halves" (Window.weight_den / 2) (Window.weight w ~age:1);
  check_int "age 2 quarters" (Window.weight_den / 4) (Window.weight w ~age:2);
  let flat = Window.create ~interval:10 ~window:4 () in
  check_int "no decay: age 7 still full" Window.weight_den
    (Window.weight flat ~age:7);
  Alcotest.check_raises "negative age" (Invalid_argument "Window.weight: age < 0")
    (fun () -> ignore (Window.weight w ~age:(-1)))

(* The window keeps the weights of its first 1024 ages in a table and
   computes older ones: an interval 1500 intervals old must weigh what
   [weight] says, like one inside the table. *)
let test_window_weights_past_table () =
  let w = Window.create ~decay:0.999 ~interval:1 ~window:2000 () in
  List.iter
    (fun itc ->
      ignore (Window.feed w ~cpu:0 ~itc ~line:1);
      ignore (Window.feed w ~cpu:1 ~itc ~line:2))
    [ 0; 1100; 1500 ];
  let manual = Cc.create () in
  List.iter
    (fun (idx, tbl) ->
      Cc.merge_scaled manual (Cc.of_interval tbl)
        ~num:(Window.weight w ~age:(1500 - idx))
        ~den:Window.weight_den)
    (Window.tables w);
  Alcotest.(check bool) "oldest interval weighted" true
    (Window.weight w ~age:1500 > 0);
  Alcotest.(check bool) "weighted map = direct merge" true
    (cc_canon (Window.weighted_cc w) = cc_canon manual)

(* Reference shape drift in its plain list form: both maps as [Cc.pairs]
   lists, a tuple Hashtbl over their union, tuple keys sorted with
   polymorphic compare. [Cc.drift] must match it to the bit. *)
let list_drift a b =
  let pa = Cc.pairs a and pb = Cc.pairs b in
  let total ps = List.fold_left (fun acc (_, v) -> acc +. float_of_int v) 0.0 ps in
  let ta = total pa and tb = total pb in
  if ta <= 0.0 && tb <= 0.0 then 0.0
  else if ta <= 0.0 || tb <= 0.0 then 1.0
  else begin
    let tbl = Hashtbl.create 256 in
    List.iter (fun (k, v) -> Hashtbl.replace tbl k (v, 0)) pa;
    List.iter
      (fun (k, v) ->
        let x = match Hashtbl.find_opt tbl k with Some (x, _) -> x | None -> 0 in
        Hashtbl.replace tbl k (x, v))
      pb;
    let keys =
      Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort compare
    in
    let diff =
      List.fold_left
        (fun acc k ->
          let x, y = Hashtbl.find tbl k in
          acc
          +. abs_float ((float_of_int x /. ta) -. (float_of_int y /. tb)))
        0.0 keys
    in
    diff /. 2.0
  end

let mk_cc pairs =
  let cc = Cc.create () in
  List.iter (fun ((a, b), v) -> Cc.For_tests.add cc a b v) pairs;
  cc

let test_drift_shape () =
  let close = Alcotest.(check (float 1e-9)) in
  close "both empty" 0.0 (Cc.drift (mk_cc []) (mk_cc []));
  close "one empty" 1.0 (Cc.drift (mk_cc []) (mk_cc [ ((1, 2), 5) ]));
  close "identical" 0.0
    (Cc.drift (mk_cc [ ((1, 2), 5) ]) (mk_cc [ ((1, 2), 5) ]));
  (* scale-invariance: doubled counts, same shape *)
  close "pure growth is not drift" 0.0
    (Cc.drift
       (mk_cc [ ((1, 2), 5); ((3, 4), 7) ])
       (mk_cc [ ((1, 2), 10); ((3, 4), 14) ]));
  close "disjoint" 1.0
    (Cc.drift (mk_cc [ ((1, 2), 5) ]) (mk_cc [ ((3, 4), 5) ]));
  (* the largest line ids still pack into distinct keys; (max_id, max_id)
     is max_int itself *)
  let big = Sample.max_id in
  close "max line ids" 0.5
    (Cc.drift
       (mk_cc [ ((0, big), 1); ((big, big), 1) ])
       (mk_cc [ ((0, big), 1); ((1, 2), 1) ]))

let prop_drift_matches_list_oracle =
  (* Random maps over a few small and a few maximal line ids, with
     counts mostly small but sometimes near max_int (saturating cells),
     and empty maps often. Equality is on the float's bits. *)
  let gen_map =
    QCheck2.Gen.(
      let line =
        oneof [ int_range 0 6; int_range (Sample.max_id - 2) Sample.max_id ]
      in
      let count =
        frequency
          [ (4, int_range 1 1000); (1, int_range (max_int - 8) max_int) ]
      in
      map mk_cc (list_size (int_bound 24) (pair (pair line line) count)))
  in
  QCheck2.Test.make ~name:"Cc.drift = list drift oracle, bit for bit"
    ~count:300 (QCheck2.Gen.pair gen_map gen_map) (fun (a, b) ->
      Int64.equal
        (Int64.bits_of_float (Cc.drift a b))
        (Int64.bits_of_float (list_drift a b)))

(* The window's weighted map and drift view after every batch, against
   a direct merge of the live intervals and the list drift oracle.
   Batches exercise the memo refresh (an interval's memo is recomputed
   when its total moves), slot reuse (retired pairs give their slots to
   new ones) and the accumulator cache (a view and then a map from one
   sum). With no decay every slot's pair is in the weighted map, so the
   slot count is exactly its size. *)
let prop_window_batches_match_direct =
  QCheck2.Test.make
    ~name:"per batch: weighted map = direct merge, drift = list drift"
    ~count:200
    QCheck2.Gen.(
      quad
        (pair gen_interval (int_range 1 4))
        (int_range 0 3) gen_stream
        (list_size (int_bound 12) (int_range 1 9)))
    (fun ((interval, window), decay_i, xs, sizes) ->
      let decay = List.nth [ 1.0; 0.9; 0.75; 0.5 ] decay_i in
      let w = Window.create ~decay ~interval ~window () in
      let direct () =
        let newest = match Window.newest w with Some n -> n | None -> 0 in
        let m = Cc.create () in
        List.iter
          (fun (idx, tbl) ->
            let num = Window.weight w ~age:(newest - idx) in
            if num > 0 then
              Cc.merge_scaled m (Cc.of_interval tbl) ~num ~den:Window.weight_den)
          (Window.tables w);
        m
      in
      let rec go prev samples sizes =
        let n = match sizes with [] -> 5 | n :: _ -> n in
        let batch = List.filteri (fun i _ -> i < n) samples in
        let rest = List.filteri (fun i _ -> i >= n) samples in
        List.iter
          (fun (x : Sample.t) ->
            ignore
              (Window.feed w ~cpu:x.Sample.cpu ~itc:x.Sample.itc
                 ~line:x.Sample.line))
          batch;
        let expect = direct () in
        let drift = Cc.drift_views (Cc.view prev) (Window.weighted_view w) in
        let got = Window.weighted_cc w in
        let ok =
          cc_canon got = cc_canon expect
          && Int64.equal (Int64.bits_of_float drift)
               (Int64.bits_of_float (list_drift prev expect))
          && (decay < 1.0 || Window.slots w = List.length (Cc.pairs got))
        in
        ok
        && (rest = []
           || go expect rest (match sizes with [] -> [] | _ :: tl -> tl))
      in
      go (Cc.create ())
        (List.stable_sort
           (fun (a : Sample.t) b -> compare a.Sample.itc b.Sample.itc)
           (to_samples xs))
        sizes)

(* The window under slot churn, over feeds longer than the per-batch law
   above. Each phase covers at least a window of intervals, so a phase's
   intervals retire during the next one; its hot lines are a slice of a
   ring of 20-200 lines, moved by a third of the ring every phase. Pairs
   die and their slots go to other pairs, and three phases later the same
   pairs come back to whatever slot is free by then. After every batch,
   the drift against the previous direct merge must equal the list
   oracle to the bit, and the weighted map must equal the direct merge. *)
let prop_window_slot_churn =
  QCheck2.Test.make
    ~name:"slot churn: weighted map = direct merge, drift = list drift"
    ~count:200
    QCheck2.Gen.(
      let* window = int_range 2 12 and* n_lines = int_range 20 200 in
      let* decay_i = int_bound 2 and* phases = int_range 3 7 in
      let* seed = int_bound 1_000_000 in
      return (window, n_lines, decay_i, phases, seed))
    (fun (window, n_lines, decay_i, phases, seed) ->
      let decay = List.nth [ 1.0; 0.9; 0.5 ] decay_i in
      let interval = 10 in
      let rng = Random.State.make [| seed |] in
      let span = window + Random.State.int rng 4 in
      let samples =
        List.concat_map
          (fun phase ->
            let rot = phase mod 3 * (n_lines / 3) in
            let hot = 1 + Random.State.int rng (n_lines / 4) in
            List.concat_map
              (fun i ->
                List.init
                  (4 + Random.State.int rng 12)
                  (fun _ ->
                    s (Random.State.int rng 4)
                      ((((phase * span) + i) * interval)
                      + Random.State.int rng interval)
                      ((rot + Random.State.int rng hot) mod n_lines)))
              (List.init span Fun.id))
          (List.init phases Fun.id)
        |> List.stable_sort (fun (a : Sample.t) b -> compare a.Sample.itc b.Sample.itc)
      in
      let w = Window.create ~decay ~interval ~window () in
      let direct () =
        let newest = match Window.newest w with Some n -> n | None -> 0 in
        let m = Cc.create () in
        List.iter
          (fun (idx, tbl) ->
            let num = Window.weight w ~age:(newest - idx) in
            if num > 0 then
              Cc.merge_scaled m (Cc.of_interval tbl) ~num ~den:Window.weight_den)
          (Window.tables w);
        m
      in
      let rec go prev = function
        | [] -> true
        | samples ->
          let n = 1 + Random.State.int rng 40 in
          let batch = List.filteri (fun i _ -> i < n) samples in
          List.iter
            (fun (x : Sample.t) ->
              ignore
                (Window.feed w ~cpu:x.Sample.cpu ~itc:x.Sample.itc
                   ~line:x.Sample.line))
            batch;
          let expect = direct () in
          let drift = Cc.drift_views (Cc.view prev) (Window.weighted_view w) in
          let got = Window.weighted_cc w in
          cc_canon got = cc_canon expect
          && Int64.equal (Int64.bits_of_float drift)
               (Int64.bits_of_float (list_drift prev expect))
          && (decay < 1.0 || Window.slots w = List.length (Cc.pairs got))
          && go expect (List.filteri (fun i _ -> i >= n) samples)
      in
      go (Cc.create ()) samples)

(* Slots are reclaimed: a long feed whose lines move on every phase keeps
   only the live window's pairs. Each interval touches 10 lines, hence
   at most 55 pairs, and two intervals are live. *)
let test_window_slots_bounded () =
  let w = Window.create ~interval:10 ~window:2 () in
  let peak = ref 0 in
  for phase = 0 to 199 do
    for k = 0 to 29 do
      ignore
        (Window.feed w ~cpu:(k mod 4) ~itc:((phase * 10) + (k / 3))
           ~line:((phase * 10) + (k mod 10)))
    done;
    ignore (Window.weighted_cc w);
    peak := max !peak (Window.slots w)
  done;
  check_int "retired" 198 (Window.retired w);
  Alcotest.(check bool)
    (Printf.sprintf "peak slots %d <= 110 after 200 phases" !peak)
    true (!peak <= 110);
  check_int "slots = live pairs" (List.length (Cc.pairs (Window.weighted_cc w)))
    (Window.slots w)

(* An allocation budget on the window's per-batch path: a deterministic
   word count, not a timing. The stream is the end-to-end benchmark's
   serve-feed at seed 1: an SDET collection on superdome-16 (reps 60)
   sorted by ITC, replayed in 4 phases each shifted by one span, lines
   rotated by half from the third phase on, in batches of 256, into a
   window of two spans with decay 0.9. Each batch is fed and then viewed
   once, as a batch that only checks drift is. Words are counted minor +
   major - promoted, so arrays allocated straight into the major heap
   count too. The view is one walk over the slots in code order into two
   exact-size arrays, and a changed interval's memo is its kernel rows
   copied out of buffers the window keeps: about 9 000 words a batch. A
   sort of the pairs per view, or a hash map and fresh kernel scratch
   per memo, comes to about 33 000. *)
let test_window_alloc_budget () =
  let module Collect = Slo_workload.Collect in
  let module Sdet = Slo_workload.Sdet in
  let module Feed = Slo_workload.Feed in
  let interval = Collect.calibrated_params.Pipeline.cc_interval in
  let base =
    Array.of_list
      (Collect.samples
         ~config:
           { (Sdet.default_config (Slo_sim.Topology.superdome ~cpus:16 ())) with
             Sdet.reps = 60; seed = 1 }
         ())
  in
  Array.stable_sort
    (fun (a : Sample.t) (b : Sample.t) -> compare a.Sample.itc b.Sample.itc)
    base;
  let n = Array.length base in
  let phases = 4 and batch = 256 in
  let feed = Feed.create ~interval ~phases base in
  let w = Window.create ~decay:0.9 ~interval ~window:(Feed.window feed) () in
  let words () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let per_batch = ref [] in
  for phase = 0 to phases - 1 do
    let xs = Feed.phase feed ~phase ~offset:0 in
    for b = 0 to ((n + batch - 1) / batch) - 1 do
      let before = words () in
      for i = b * batch to min n ((b + 1) * batch) - 1 do
        let x = xs.(i) in
        ignore (Window.feed w ~cpu:x.Sample.cpu ~itc:x.Sample.itc ~line:x.Sample.line)
      done;
      ignore (Window.weighted_view w);
      per_batch := (words () -. before) :: !per_batch
    done
  done;
  check_int "batches" 160 (List.length !per_batch);
  check_int "no late samples" 0 (Window.late w);
  let sorted = List.sort compare !per_batch in
  let median = List.nth sorted (List.length sorted / 2) in
  if median > 15_000.0 then
    Alcotest.failf "median %.0f words per fed and viewed batch (budget 15 000)"
      median

(* ------------------------------------------------------------------ *)
(* Serve: admission, drift trigger, daemon, snapshot/restore *)

(* The same inline mini-C fixture test_core uses: enough program to give
   the pipeline real affinity counts to search over. *)
let fixture =
  lazy
    (let src =
       {|
struct S { long a; long b; long c; long d; };
void f(struct S *s, int n) {
  for (i = 0; i < n; i++) {
    x = s->a + s->c;
    pause(5);
  }
}
|}
     in
     let p = Typecheck.check (Parser.parse_program ~file:"serve-test" src) in
     let counts = Counts.create () in
     let ctx = Interp.make_ctx p in
     let prng = Slo_util.Prng.create ~seed:1 in
     let inst = Interp.make_instance p ~struct_name:"S" in
     Interp.run ctx ~counts ~prng ~proc:"f"
       [ Interp.Ainst inst; Interp.Aint 10 ];
     (p, counts))

let mk_cfg ?(window = 4) ?(min_samples = 1) ?(queue_capacity = 4)
    ?(drift_threshold = 0.05) () =
  let program, counts = Lazy.force fixture in
  {
    Serve.interval = 10;
    window;
    decay = 1.0;
    drift_threshold;
    min_samples;
    queue_capacity;
    params = Pipeline.default_params;
    program;
    counts;
    struct_name = "S";
    selector = Optimizer.Portfolio;
    seed = 7;
    restarts = 2;
  }

(* cross-CPU samples over two lines in one interval: nonzero CC *)
let batch ~idx ~lines =
  let l1, l2 = lines in
  Array.of_list
    [
      s 0 (idx * 10) l1; s 1 (idx * 10 + 1) l2; s 0 ((idx * 10) + 2) l1;
      s 1 ((idx * 10) + 3) l2; s 2 ((idx * 10) + 4) l1;
    ]

let test_admission_control () =
  let t = Serve.create (mk_cfg ~queue_capacity:1 ~min_samples:1_000_000 ()) in
  Alcotest.(check bool)
    "first accepted" true
    (Serve.submit t (batch ~idx:0 ~lines:(1, 2)) = `Accepted);
  Alcotest.(check bool)
    "queue full drops" true
    (Serve.submit t (batch ~idx:1 ~lines:(1, 2)) = `Dropped);
  check_int "one dropped" 1 (Serve.dropped_batches t);
  check_int "depth one" 1 (Serve.queue_depth t);
  Serve.drain t;
  check_int "drained" 0 (Serve.queue_depth t);
  Alcotest.(check bool)
    "space again" true
    (Serve.submit t (batch ~idx:1 ~lines:(1, 2)) = `Accepted);
  Serve.drain t;
  check_int "both batches fed" 10
    (Window.live_samples (Serve.window t));
  Alcotest.(check (option int))
    "no publication below min_samples" None
    (Option.map (fun (p : Serve.publication) -> p.Serve.version)
       (Serve.current t))

let test_drift_trigger () =
  let t = Serve.create (mk_cfg ~window:8 ()) in
  ignore (Serve.submit t (batch ~idx:0 ~lines:(1, 2)));
  Serve.drain t;
  check_int "first publication" 1 (Serve.version t);
  (* same sharing shape one interval later: growth, not drift *)
  ignore (Serve.submit t (batch ~idx:1 ~lines:(1, 2)));
  Serve.drain t;
  check_int "same shape does not republish" 1 (Serve.version t);
  (* a different pair of lines moves the CC mass: drift fires *)
  ignore (Serve.submit t (batch ~idx:2 ~lines:(3, 4)));
  Serve.drain t;
  check_int "drift republishes" 2 (Serve.version t);
  let pubs = Serve.publications t in
  check_int "two publications, oldest first" 2 (List.length pubs);
  let p1 = List.hd pubs in
  Alcotest.(check (float 1e-9))
    "first publication sees full drift" 1.0 p1.Serve.pub_drift;
  Alcotest.(check bool)
    "drift of second exceeds threshold" true
    ((List.nth pubs 1).Serve.pub_drift > 0.05)

let test_daemon_run_stop () =
  let t = Serve.create (mk_cfg ~min_samples:1_000_000 ~queue_capacity:2 ()) in
  Serve.run t;
  for i = 0 to 9 do
    Alcotest.(check bool)
      "submit_wait accepted" true
      (Serve.submit_wait t (batch ~idx:i ~lines:(1, 2)))
  done;
  Serve.stop t;
  (* stop drains the queue before joining: everything was processed *)
  check_int "all batches processed" 0 (Serve.queue_depth t);
  check_int "window holds the tail" (4 * 5)
    (Window.live_samples (Serve.window t));
  check_int "older intervals retired" 6 (Window.retired (Serve.window t));
  Alcotest.(check bool)
    "submissions after stop drop" true
    (Serve.submit t (batch ~idx:10 ~lines:(1, 2)) = `Dropped);
  Alcotest.(check bool)
    "submit_wait after stop refuses" false
    (Serve.submit_wait t (batch ~idx:10 ~lines:(1, 2)))

(* A batch whose second sample carries an out-of-range line id, and the
   error that names that index and field. *)
let bad_batch ~idx =
  [| s 0 (idx * 10) 1; s 1 ((idx * 10) + 1) (Sample.max_id + 1) |]

let expect_rejected what f =
  Alcotest.check_raises what
    (Invalid_argument
       (Printf.sprintf
          "Serve.submit: batch.(1): Sample: line out of range (0..%d): %d"
          Sample.max_id (Sample.max_id + 1)))
    (fun () -> ignore (f ()))

let test_submit_rejects_bad_batch () =
  (* Regression: an out-of-range id was enqueued and raised inside the
     processor partway through the batch. Validation now happens on the
     caller's side: nothing is enqueued, dropped or published. *)
  let t = Serve.create (mk_cfg ~queue_capacity:2 ()) in
  expect_rejected "submit" (fun () -> Serve.submit t (bad_batch ~idx:0));
  expect_rejected "submit_wait" (fun () ->
      Serve.submit_wait t (bad_batch ~idx:0));
  check_int "nothing queued" 0 (Serve.queue_depth t);
  check_int "nothing dropped" 0 (Serve.dropped_batches t);
  check_int "nothing published" 0 (Serve.version t);
  check_int "window untouched" 0 (Window.live_samples (Serve.window t));
  (* the next good batch drains and publishes as usual *)
  Alcotest.(check bool)
    "good batch accepted" true
    (Serve.submit t (batch ~idx:0 ~lines:(1, 2)) = `Accepted);
  Serve.drain t;
  check_int "good batch fed" 5 (Window.live_samples (Serve.window t));
  check_int "good batch published" 1 (Serve.version t)

let test_daemon_survives_bad_submit () =
  (* Regression: the bad batch reached the daemon, whose exception ended
     daemon_loop and was re-raised by stop. *)
  let t = Serve.create (mk_cfg ~min_samples:1_000_000 ()) in
  Serve.run t;
  ignore (Serve.submit_wait t (batch ~idx:0 ~lines:(1, 2)));
  expect_rejected "submit under run" (fun () ->
      Serve.submit t (bad_batch ~idx:1));
  ignore (Serve.submit_wait t (batch ~idx:2 ~lines:(1, 2)));
  Serve.stop t;
  check_int "both good batches processed" 10
    (Window.live_samples (Serve.window t))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let with_tmp f =
  let path = Filename.temp_file "slo-serve-test" ".snap" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let test_snapshot_restore_identity () =
  let cfg = mk_cfg ~window:8 () in
  let t = Serve.create cfg in
  ignore (Serve.submit t (batch ~idx:0 ~lines:(1, 2)));
  ignore (Serve.submit t (batch ~idx:1 ~lines:(3, 4)));
  Serve.drain t;
  with_tmp (fun p1 ->
      with_tmp (fun p2 ->
          Serve.snapshot t ~path:p1;
          let t' = Serve.restore cfg ~path:p1 in
          check_int "version survives" (Serve.version t) (Serve.version t');
          Alcotest.(check bool)
            "history restarts empty" true
            (Serve.publications t' = []);
          check_int "live samples equal"
            (Window.live_samples (Serve.window t))
            (Window.live_samples (Serve.window t'));
          (* byte-identity: snapshotting the restored server reproduces
             the file exactly (canonical row order) *)
          Serve.snapshot t' ~path:p2;
          Alcotest.(check bool)
            "snapshot round trip is byte-identical" true
            (read_file p1 = read_file p2);
          (* and a forced re-search on both yields the same suggestion *)
          let a = Serve.research t and b = Serve.research t' in
          Alcotest.(check bool)
            "same weighted CC" true
            (a.Serve.cc_pairs = b.Serve.cc_pairs);
          Alcotest.(check (float 1e-12))
            "same score" a.Serve.best.Optimizer.score
            b.Serve.best.Optimizer.score;
          Alcotest.(check bool)
            "same blocks" true
            (a.Serve.best.Optimizer.blocks = b.Serve.best.Optimizer.blocks)))

(* Out-of-range fields are rejected when the server is made. A NaN
   threshold fails the check too: every [drift > nan] is false, so it
   would publish once and never re-search. *)
let test_config_checks () =
  let rejects what cfg =
    match Serve.create cfg with
    | _ -> Alcotest.failf "accepted %s" what
    | exception Invalid_argument _ -> ()
  in
  rejects "a NaN drift threshold" (mk_cfg ~drift_threshold:Float.nan ());
  rejects "a negative drift threshold" (mk_cfg ~drift_threshold:(-0.1) ());
  rejects "a NaN decay" { (mk_cfg ()) with Serve.decay = Float.nan };
  rejects "min_samples 0" (mk_cfg ~min_samples:0 ());
  ignore (Serve.create (mk_cfg ~drift_threshold:Float.infinity ()))

let test_restore_rejects_mismatch () =
  let cfg = mk_cfg ~window:8 () in
  let t = Serve.create cfg in
  ignore (Serve.submit t (batch ~idx:0 ~lines:(1, 2)));
  Serve.drain t;
  with_tmp (fun p ->
      Serve.snapshot t ~path:p;
      (match Serve.restore (mk_cfg ~window:3 ()) ~path:p with
      | _ -> Alcotest.fail "window mismatch should raise"
      | exception Invalid_argument _ -> ());
      match Serve.restore { cfg with Serve.interval = 20 } ~path:p with
      | _ -> Alcotest.fail "interval mismatch should raise"
      | exception Invalid_argument _ -> ())

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_window_matches_hashtbl_reference;
      prop_window_eq_direct_binning;
      prop_decay_weights_order_independent;
      prop_window_batches_match_direct;
    ]
  @ [
      QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 25 |])
        prop_window_slot_churn;
    ]

let suites =
  [
    ( "serve.window",
      Alcotest.test_case "retirement and lateness" `Quick
        test_window_retirement
      :: Alcotest.test_case "out-of-range late sample rejected" `Quick
           test_window_late_out_of_range
      :: Alcotest.test_case "watermark near min_int" `Quick
           test_window_near_min_int
      :: Alcotest.test_case "live samples saturate" `Quick
           test_window_live_samples_saturate
      :: Alcotest.test_case "create and restore validate" `Quick
           test_window_validation
      :: Alcotest.test_case "window tables = Hashtbl reference at scale"
           `Quick test_window_matches_reference_at_scale
      :: Alcotest.test_case "fixed-point weights" `Quick test_window_weights
      :: Alcotest.test_case "weights past the table" `Quick
           test_window_weights_past_table
      :: Alcotest.test_case "shape drift" `Quick test_drift_shape
      :: Alcotest.test_case "slots reclaimed over a long feed" `Quick
           test_window_slots_bounded
      :: Alcotest.test_case "allocation per fed and viewed batch" `Quick
           test_window_alloc_budget
      :: QCheck_alcotest.to_alcotest prop_drift_matches_list_oracle
      :: props );
    ( "serve.server",
      [
        Alcotest.test_case "config checks" `Quick test_config_checks;
        Alcotest.test_case "admission control" `Quick test_admission_control;
        Alcotest.test_case "drift-triggered publication" `Quick
          test_drift_trigger;
        Alcotest.test_case "daemon run/stop" `Quick test_daemon_run_stop;
        Alcotest.test_case "bad batch rejected before enqueue" `Quick
          test_submit_rejects_bad_batch;
        Alcotest.test_case "daemon survives a bad submit" `Quick
          test_daemon_survives_bad_submit;
        Alcotest.test_case "snapshot/restore identity" `Quick
          test_snapshot_restore_identity;
        Alcotest.test_case "restore rejects mismatched config" `Quick
          test_restore_rejects_mismatch;
      ] );
  ]
