(* Tests for Slo_concurrency: sample binning, CodeConcurrency, FMF and
   CycleLoss. *)

module Sample = Slo_concurrency.Sample
module CC = Slo_concurrency.Code_concurrency
module Fmf = Slo_concurrency.Fmf
module Cycle_loss = Slo_concurrency.Cycle_loss
module Store = Slo_concurrency.Sample_store
module Parser = Slo_ir.Parser
module Typecheck = Slo_ir.Typecheck

let check_int = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-6))

let s cpu itc line = { Sample.cpu; itc; line }

(* The interval tables of one binner fed [samples] in order. *)
let bin ~interval samples =
  let b = Sample.binner ~interval in
  List.iter (Sample.feed b) samples;
  Sample.binned b

(* CC through the one entry point: list -> columnar store -> compute. *)
let compute ?pool ~interval samples =
  CC.compute ?pool ~interval (Store.of_samples samples)

(* Definitional brute-force CodeConcurrency, straight from the formula in
   code_concurrency.mli: count F_I(P, L) in a plain Hashtbl keyed by
   (interval, cpu, line), then sum min(F_I(Pm,Li), F_I(Pn,Lj)) over every
   ordered pair of entries of the same interval with Pm <> Pn, keyed on
   the unordered line pair (Li <= Lj; the diagonal Li = Lj included). No
   sorting or prefix sums: the reference the production kernel is checked
   against. Each sample comes with a count of copies ([oracle] counts
   each once); sums stop at [max_int], the saturation the mli specifies
   (min of the true value and [max_int]), reached only by counts near
   it. Returns [CC.pairs]-shaped output. *)
let oracle_counts ~interval counted =
  let plus a b = if a > max_int - b then max_int else a + b in
  let f = Hashtbl.create 64 in
  List.iter
    (fun ({ Sample.cpu; itc; line }, n) ->
      let k = (Sample.floor_div itc interval, cpu, line) in
      Hashtbl.replace f k
        (plus n (Option.value ~default:0 (Hashtbl.find_opt f k))))
    counted;
  let entries = Hashtbl.fold (fun k n acc -> (k, n) :: acc) f [] in
  let cc = Hashtbl.create 64 in
  List.iter
    (fun ((im, pm, li), a) ->
      List.iter
        (fun ((i_n, pn, lj), b) ->
          if im = i_n && pm <> pn && li <= lj then
            Hashtbl.replace cc (li, lj)
              (plus (min a b)
                 (Option.value ~default:0 (Hashtbl.find_opt cc (li, lj)))))
        entries)
    entries;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) cc []
  |> List.sort (fun (k1, v1) (k2, v2) ->
         match compare v2 v1 with 0 -> compare k1 k2 | c -> c)

let oracle ~interval samples =
  oracle_counts ~interval (List.map (fun x -> (x, 1)) samples)

(* ------------------------------------------------------------------ *)
(* Sample binning *)

let test_bin_basic () =
  let samples = [ s 0 10 1; s 0 20 1; s 1 30 2; s 0 150 1 ] in
  let tables = bin ~interval:100 samples in
  check_int "two intervals" 2 (List.length tables);
  let t0 = List.hd tables in
  check_int "F(0, line1) in I0" 2 (Sample.freq t0 ~cpu:0 ~line:1);
  check_int "F(1, line2) in I0" 1 (Sample.freq t0 ~cpu:1 ~line:2);
  check_int "F absent" 0 (Sample.freq t0 ~cpu:1 ~line:1);
  Alcotest.(check (triple (array int) (array int) (array int)))
    "rows of I0"
    ([| 1; 2 |], [| 0; 1 |], [| 2; 1 |])
    (Sample.rows t0);
  check_int "total" 3 (Sample.total_samples t0)

let test_bin_validation () =
  match Sample.binner ~interval:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted interval 0"

let test_bin_negative_itc () =
  (* Regression: [itc / interval] truncates toward zero, so itc -1 and +1
     both landed in bin 0 and their samples looked concurrent. Floor
     division sends them to bins -1 and 0. *)
  let tables = bin ~interval:100 [ s 0 (-1) 1; s 1 1 2 ] in
  check_int "two intervals" 2 (List.length tables);
  let neg = List.hd tables in
  check_int "negative bin holds its sample" 1 (Sample.freq neg ~cpu:0 ~line:1);
  check_int "positive sample stays out" 0 (Sample.freq neg ~cpu:1 ~line:2)

let prop_bin_shift_invariant =
  (* Binning must commute with shifting every timestamp by one interval —
     truncating division broke this for signed ITC ranges around zero. *)
  QCheck2.Test.make ~name:"bin: shift by one interval relabels, not regroups"
    ~count:100
    QCheck2.Gen.(
      pair (int_range 1 50)
        (list_size (int_bound 60)
           (triple (int_bound 3) (int_range (-500) 500) (int_range 1 5))))
    (fun (interval, triples) ->
      let samples = List.map (fun (c, t, l) -> s c t l) triples in
      let shifted =
        List.map
          (fun smp -> { smp with Sample.itc = smp.Sample.itc + interval })
          samples
      in
      List.map Sample.rows (bin ~interval samples)
      = List.map Sample.rows (bin ~interval shifted))

(* ------------------------------------------------------------------ *)
(* CodeConcurrency *)

let test_cc_hand_computed () =
  (* Interval 0: cpu0 runs line 1 twice, cpu1 runs line 2 three times.
     CC(1,2) = min(F(P0,1),F(P1,2)) + min(F(P1,1),F(P0,2)) = min(2,3) + 0 = 2. *)
  let samples = [ s 0 10 1; s 0 20 1; s 1 5 2; s 1 6 2; s 1 7 2 ] in
  let cm = compute ~interval:100 samples in
  check_int "CC(1,2)" 2 (CC.cc cm 1 2);
  check_int "symmetric" 2 (CC.cc cm 2 1)

let test_cc_same_cpu_excluded () =
  (* Only one CPU active: no concurrency at all. *)
  let samples = [ s 0 10 1; s 0 20 2; s 0 30 1; s 0 40 2 ] in
  let cm = compute ~interval:100 samples in
  check_int "no cross-cpu pairs" 0 (CC.cc cm 1 2)

let test_cc_diagonal () =
  (* Two cpus on the same line concurrently: diagonal CC. *)
  let samples = [ s 0 10 7; s 1 20 7 ] in
  let cm = compute ~interval:100 samples in
  (* ordered cpu pairs (0,1) and (1,0): min(1,1) each = 2 *)
  check_int "CC(7,7)" 2 (CC.cc cm 7 7)

let test_cc_intervals_isolate () =
  (* Same lines in different intervals never pair up. *)
  let samples = [ s 0 10 1; s 1 150 2 ] in
  let cm = compute ~interval:100 samples in
  check_int "disjoint intervals" 0 (CC.cc cm 1 2)

let test_cc_accumulates_over_intervals () =
  let samples =
    [ s 0 10 1; s 1 20 2 (* I0: 2 *); s 0 110 1; s 1 120 2 (* I1: 2 *) ]
  in
  let cm = compute ~interval:100 samples in
  check_int "sum over intervals" 2 (CC.cc cm 1 2)

let test_cc_three_cpus () =
  (* cpu0 and cpu2 run line 1; cpu1 runs line 2.
     CC(1,2) = Σ_{m≠n} min(F(Pm,1),F(Pn,2))
             = min(F0(1),F1(2)) + min(F2(1),F1(2)) = 1 + 1 = 2. *)
  let samples = [ s 0 10 1; s 2 15 1; s 1 20 2 ] in
  let cm = compute ~interval:100 samples in
  check_int "CC over cpu pairs" 2 (CC.cc cm 1 2)

let test_cc_top_and_merge () =
  let samples = [ s 0 10 1; s 1 11 2; s 0 20 1; s 1 21 2; s 0 30 3; s 1 31 4 ] in
  let cm = compute ~interval:100 samples in
  (match CC.top cm ~k:1 with
  | [ ((1, 2), v) ] -> check_int "hottest pair value" (CC.cc cm 1 2) v
  | _ -> Alcotest.fail "unexpected top pair");
  let doubled = CC.merge cm cm in
  check_int "merge doubles" (2 * CC.cc cm 1 2) (CC.cc doubled 1 2)

let prop_cc_symmetric_nonneg =
  QCheck2.Test.make ~name:"CC is symmetric and non-negative" ~count:100
    QCheck2.Gen.(
      list_size (int_range 0 120)
        (let* cpu = int_range 0 3 in
         let* itc = int_range 0 2000 in
         let* line = int_range 1 6 in
         return (cpu, itc, line)))
    (fun triples ->
      let samples = List.map (fun (c, t, l) -> s c t l) triples in
      let cm = compute ~interval:250 samples in
      let lines = [ 1; 2; 3; 4; 5; 6 ] in
      CC.pairs cm = oracle ~interval:250 samples
      && List.for_all
        (fun a ->
          List.for_all
            (fun b -> CC.cc cm a b >= 0 && CC.cc cm a b = CC.cc cm b a)
            lines)
        lines)

(* The kernel's emission contract, on single-interval tables with
   identifiers at both ends of their range, tables on one line or one
   CPU (every pair 0), and counts near [max_int]: the rows, concatenated,
   are strictly ascending codes with positive values, and they are the
   oracle's pairs of that interval. One scratch serves every case, as one
   serves a chunk's intervals or the serve window's memos. *)
let prop_interval_rows_contract =
  let sc = CC.scratch () in
  let id small =
    QCheck2.Gen.(
      oneof [ int_range 0 small; int_range (Sample.max_id - 2) Sample.max_id ])
  in
  let count =
    QCheck2.Gen.(
      frequency
        [ (4, int_range 1 1000); (1, int_range (max_int / 2) max_int);
          (1, int_range (max_int - 4) max_int) ])
  in
  QCheck2.Test.make
    ~name:"interval rows: ascending codes, positive values, = oracle"
    ~count:300
    ~print:(fun es ->
      String.concat "; "
        (List.map
           (fun ((c, l), n) -> Printf.sprintf "cpu %d line %d x%d" c l n)
           es))
    QCheck2.Gen.(
      let* shape = int_bound 2 and* one_line = id 5 and* one_cpu = id 3 in
      let entry =
        let* cpu = if shape = 2 then return one_cpu else id 3 in
        let* line = if shape = 1 then return one_line else id 5 in
        let+ n = count in
        ((cpu, line), n)
      in
      (* one count per (cpu, line): the binner adds repeated keys without
         saturating *)
      let+ es = list_size (int_range 1 14) entry in
      List.sort_uniq (fun (a, _) (b, _) -> compare a b) es)
    (fun es ->
      let b = Sample.binner ~interval:1 in
      List.iter
        (fun ((cpu, line), count) -> Sample.feed_n b ~cpu ~itc:0 ~line ~count)
        es;
      let codes = ref [] and values = ref [] in
      CC.interval_rows sc (List.hd (Sample.binned b)) (fun c v n ->
          for x = 0 to n - 1 do
            codes := c.(x) :: !codes;
            values := v.(x) :: !values
          done);
      let codes = List.rev !codes and values = List.rev !values in
      let rec ascending = function
        | a :: (b :: _ as rest) -> a < b && ascending rest
        | _ -> true
      in
      ascending codes
      && List.for_all (fun v -> v > 0) values
      && CC.pairs (CC.of_codes (Array.of_list codes) (Array.of_list values))
         = oracle_counts ~interval:1
             (List.map (fun ((cpu, line), n) -> (s cpu 0 line, n)) es))

let prop_cc_monotone =
  QCheck2.Test.make ~name:"adding samples never decreases CC" ~count:60
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 60)
           (triple (int_range 0 3) (int_range 0 1000) (int_range 1 4)))
        (list_size (int_range 0 60)
           (triple (int_range 0 3) (int_range 0 1000) (int_range 1 4))))
    (fun (base, extra) ->
      let mk l = List.map (fun (c, t, ln) -> s c t ln) l in
      let cm1 = compute ~interval:250 (mk base) in
      let cm2 = compute ~interval:250 (mk (base @ extra)) in
      let lines = [ 1; 2; 3; 4 ] in
      CC.pairs cm1 = oracle ~interval:250 (mk base)
      && CC.pairs cm2 = oracle ~interval:250 (mk (base @ extra))
      && List.for_all
        (fun a -> List.for_all (fun b -> CC.cc cm2 a b >= CC.cc cm1 a b) lines)
        lines)

(* ------------------------------------------------------------------ *)
(* FMF *)

let fmf_src =
  {|
struct S { long a; long b; long c; };
void f(struct S *s, int n) {
  s->a = s->b + 1;
  x = s->c;
}
|}

let test_fmf () =
  let p = Typecheck.check (Parser.parse_program ~file:"t.mc" fmf_src) in
  let fmf = Fmf.of_program p in
  (* line 4: write a, read b; line 5: read c *)
  let at4 = Fmf.fields_at fmf ~line:4 ~struct_name:"S" in
  Alcotest.(check (list (pair string bool)))
    "line 4" [ ("a", true); ("b", false) ]
    (List.sort compare at4);
  let at5 = Fmf.fields_at fmf ~line:5 ~struct_name:"S" in
  Alcotest.(check (list (pair string bool))) "line 5" [ ("c", false) ] at5;
  Alcotest.(check (list int)) "lines accessing S" [ 4; 5 ]
    (Fmf.lines_accessing fmf ~struct_name:"S");
  Alcotest.(check bool) "writes a at 4" true
    (Fmf.writes_field_at fmf ~line:4 ~struct_name:"S" ~field:"a");
  Alcotest.(check bool) "no write at 5" false
    (Fmf.writes_field_at fmf ~line:5 ~struct_name:"S" ~field:"c")

(* ------------------------------------------------------------------ *)
(* CycleLoss *)

let test_cycle_loss_requires_write () =
  let p = Typecheck.check (Parser.parse_program ~file:"t.mc" fmf_src) in
  let fmf = Fmf.of_program p in
  (* Concurrency between line 4 (writes a, reads b) and line 5 (reads c):
     loss(a,c) > 0 (write on one side); loss(b,c) = 0 (both reads). *)
  let samples = [ s 0 10 4; s 1 12 5; s 0 110 4; s 1 113 5 ] in
  let cm = compute ~interval:100 samples in
  let loss = Cycle_loss.compute ~cm ~fmf ~struct_name:"S" in
  Alcotest.(check bool) "a-c positive" true (Cycle_loss.loss loss "a" "c" > 0.0);
  checkf "b-c zero (read-read)" 0.0 (Cycle_loss.loss loss "b" "c");
  checkf "diagonal zero" 0.0 (Cycle_loss.loss loss "a" "a");
  checkf "symmetric" (Cycle_loss.loss loss "a" "c") (Cycle_loss.loss loss "c" "a")

let test_cycle_loss_same_line_fields () =
  (* a and b are accessed on the same source line with a write: concurrent
     execution of that line on two cpus creates loss(a,b). *)
  let p = Typecheck.check (Parser.parse_program ~file:"t.mc" fmf_src) in
  let fmf = Fmf.of_program p in
  let samples = [ s 0 10 4; s 1 12 4 ] in
  let cm = compute ~interval:100 samples in
  let loss = Cycle_loss.compute ~cm ~fmf ~struct_name:"S" in
  Alcotest.(check bool) "a-b loss from diagonal" true
    (Cycle_loss.loss loss "a" "b" > 0.0)

let test_cycle_loss_uniform_scale () =
  (* Pins the uniform conflict-event scale (see Cycle_loss.compute): one
     unit of loss per ordered (CPU pair, field orientation) conflict
     event. One coincident sample pair, same line 4 ({a,b}, a written):
     CC(4,4) = 2 ordered CPU pairs, one diagonal contribute walks both
     field orientations -> loss(a,b) = 4, matching its 4 ordered conflict
     events (both CPUs touch both fields). The same coincident pair split
     across lines 4 (a write) and 5 (c read): CC(4,5) = 1 with 2 ordered
     conflict events -> loss(a,c) = 2. Removing the second [contribute]
     orientation call in Cycle_loss.compute drops the cross figure to 1.0
     and fails this test. *)
  let p = Typecheck.check (Parser.parse_program ~file:"t.mc" fmf_src) in
  let fmf = Fmf.of_program p in
  let loss_of samples =
    let cm = compute ~interval:100 samples in
    Cycle_loss.compute ~cm ~fmf ~struct_name:"S"
  in
  let same = loss_of [ s 0 10 4; s 1 12 4 ] in
  checkf "same-line {a,b}: 4 ordered conflict events" 4.0
    (Cycle_loss.loss same "a" "b");
  let cross = loss_of [ s 0 10 4; s 1 12 5 ] in
  checkf "cross-line {a,c}: 2 ordered conflict events" 2.0
    (Cycle_loss.loss cross "a" "c");
  checkf "read-read pair stays zero" 0.0 (Cycle_loss.loss cross "b" "c")

(* Cycle_loss against the frozen by-name oracle (fmf_oracle.ml), bit for
   bit, on random concurrency maps over the lines of random programs and
   of the SDET kernel. Some cells hold [max_int], so a field pair's float
   sum passes 2^53 and its rounding depends on the order of the
   additions: only the same additions in the same order agree. *)
let kernel_program = lazy (Slo_workload.Kernel.program ())

let gen_loss_case =
  let open QCheck2.Gen in
  let* src =
    frequency
      [ (4, map Option.some (Gen.minic_program ())); (1, return None) ]
  in
  let program, source =
    match src with
    | Some src -> (lazy (Typecheck.check (Parser.parse_program ~file:"gen.mc" src)), src)
    | None -> (kernel_program, Slo_workload.Kernel.source)
  in
  let bound = List.length (String.split_on_char '\n' source) + 1 in
  let* struct_name =
    match src with
    | Some _ -> oneofl [ "G"; Slo_ir.Ast.globals_struct_name ]
    | None -> oneofl Slo_workload.Kernel.struct_names
  in
  let cell =
    let* l1 = int_bound bound in
    let* l2 = int_bound bound in
    let* v = frequency [ (1, return max_int); (4, int_range 1 5000) ] in
    return (l1, l2, v)
  in
  let* cells = list_size (int_bound 120) cell in
  return (src, program, struct_name, cells)

let prop_cycle_loss_eq_oracle =
  QCheck2.Test.make ~name:"Cycle_loss.pairs = by-name oracle, to the bit" ~count:300
    ~print:(fun (src, _, struct_name, cells) ->
      Printf.sprintf "%s, %d cells\n%s" struct_name (List.length cells)
        (Option.value src ~default:"<kernel>"))
    gen_loss_case
    (fun (_, program, struct_name, cells) ->
      let fmf = Fmf.of_program (Lazy.force program) in
      let cm = CC.create () in
      List.iter (fun (l1, l2, v) -> CC.For_tests.add cm l1 l2 v) cells;
      let bits = List.map (fun (k, v) -> (k, Int64.bits_of_float v)) in
      bits (Cycle_loss.pairs (Cycle_loss.compute ~cm ~fmf ~struct_name))
      = bits (Fmf_oracle.Cycle_loss.pairs (Fmf_oracle.Cycle_loss.compute ~cm ~fmf ~struct_name)))

(* ------------------------------------------------------------------ *)
(* Binner counters and the row view *)

let gen_triples =
  QCheck2.Gen.(
    list_size (int_bound 80)
      (triple (int_bound 3) (int_range (-500) 500) (int_range 1 5)))

let test_rows () =
  (* Rows come out in (line, cpu) order whatever the feed order, with
     identifiers at both ends of their range, and see later feeds. *)
  let b = Sample.binner ~interval:100 in
  List.iter (Sample.feed b)
    [ s 3 10 Sample.max_id; s Sample.max_id 11 0; s 0 12 Sample.max_id;
      s 3 13 7; s 0 14 7; s 3 15 Sample.max_id ];
  let t = List.hd (Sample.binned b) in
  Alcotest.(check (triple (array int) (array int) (array int)))
    "rows in (line, cpu) order"
    ( [| 0; 7; 7; Sample.max_id; Sample.max_id |],
      [| Sample.max_id; 0; 3; 0; 3 |],
      [| 1; 1; 1; 1; 2 |] )
    (Sample.rows t);
  Sample.feed b (s 1 16 7);
  Alcotest.(check (triple (array int) (array int) (array int)))
    "a later feed shows"
    ( [| 0; 7; 7; 7; Sample.max_id; Sample.max_id |],
      [| Sample.max_id; 0; 1; 3; 0; 3 |],
      [| 1; 1; 1; 1; 1; 2 |] )
    (Sample.rows t)

let test_binner_counters () =
  let b = Sample.binner ~interval:100 in
  check_int "fed starts at 0" 0 (Sample.fed b);
  check_int "peak starts at 0" 0 (Sample.peak_entries b);
  List.iter (Sample.feed b) [ s 0 10 1; s 1 20 2; s 0 15 1; s 0 150 1 ];
  check_int "fed counts samples" 4 (Sample.fed b);
  (* interval 0 holds entries (0,1) and (1,2); interval 1 holds one *)
  check_int "peak interval-table entries" 2 (Sample.peak_entries b);
  check_int "two tables" 2 (List.length (Sample.binned b))

(* ------------------------------------------------------------------ *)
(* Saturating arithmetic in the CC kernel *)

let naive_sat_sum_min a b =
  List.fold_left
    (fun acc (_, ca) ->
      List.fold_left
        (fun acc (_, cb) -> CC.For_tests.sat_add acc (min ca cb))
        acc b)
    0 a

let gen_count =
  (* Mostly small counts, with a fat tail near max_int to force overflow
     in both the prefix sums and the m*n accumulation. *)
  QCheck2.Gen.(
    frequency
      [
        (3, int_range 0 1000);
        (1, int_range (max_int / 2) max_int);
        (1, int_range (max_int - 4) max_int);
      ])

let prop_sum_min_saturates =
  QCheck2.Test.make
    ~name:"sum_min_all saturates exactly like the naive double loop"
    ~count:200
    QCheck2.Gen.(
      pair (list_size (int_bound 6) gen_count) (list_size (int_bound 6) gen_count))
    (fun (ca, cb) ->
      let a = List.mapi (fun i c -> (i, c)) ca in
      let b = List.mapi (fun i c -> (100 + i, c)) cb in
      CC.For_tests.sum_min_all a b = naive_sat_sum_min a b)

let naive_sat_same_cpu a b =
  List.fold_left
    (fun acc (pa, ca) ->
      List.fold_left
        (fun acc (pb, cb) ->
          if pa = pb then CC.For_tests.sat_add acc (min ca cb) else acc)
        acc b)
    0 a

let prop_sum_min_same_cpu =
  (* Two vectors over CPU sets that are disjoint (a on evens, b on odds),
     interleaved (multiples of 3 and of 2) or identical, counts near
     max_int included: the same-CPU sum must equal the naive saturating
     double loop, and so must the all-pairs merge. *)
  QCheck2.Test.make
    ~name:"sum_min_same_cpu saturates exactly like the naive double loop"
    ~count:300
    QCheck2.Gen.(
      triple (int_bound 2)
        (list_size (int_bound 8) gen_count)
        (list_size (int_bound 8) gen_count))
    (fun (shape, ca, cb) ->
      let cpus_a, cpus_b =
        match shape with
        | 0 -> ((fun i -> 2 * i), fun i -> (2 * i) + 1)
        | 1 -> ((fun i -> 3 * i), fun i -> 2 * i)
        | _ -> (Fun.id, Fun.id)
      in
      let a = List.mapi (fun i c -> (cpus_a i, c)) ca in
      let b = List.mapi (fun i c -> (cpus_b i, c)) cb in
      CC.For_tests.sum_min_same_cpu a b = naive_sat_same_cpu a b
      && CC.For_tests.sum_min_all a b = naive_sat_sum_min a b)

let test_saturation_units () =
  let module F = CC.For_tests in
  check_int "sat_add caps" max_int (F.sat_add max_int 1);
  check_int "sat_add caps (sym)" max_int (F.sat_add 1 max_int);
  check_int "sat_add normal" 7 (F.sat_add 3 4);
  check_int "sat_mul caps" max_int (F.sat_mul (max_int / 2) 3);
  check_int "sat_mul normal" 12 (F.sat_mul 3 4);
  check_int "sat_mul zero" 0 (F.sat_mul 0 max_int);
  (* Σ_n min(max_int, b_n) over two max_int entries: the merge's
     prefix-plus-product step saturates instead of wrapping *)
  check_int "sum_min_all saturates" max_int
    (F.sum_min_all [ (2, max_int) ] [ (0, max_int); (1, max_int) ]);
  (* the stored cell saturates instead of wrapping negative *)
  let cm = CC.create () in
  F.add cm 1 2 (max_int - 1);
  F.add cm 1 2 5;
  check_int "accumulated cc saturates" max_int (CC.cc cm 1 2)

let test_top_validation () =
  let cm = compute ~interval:100 [ s 0 1 1; s 1 2 2 ] in
  (match CC.top cm ~k:(-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "top accepted k = -1");
  Alcotest.(check (list (pair (pair int int) int))) "k = 0 is empty" []
    (CC.top cm ~k:0)

(* ------------------------------------------------------------------ *)
(* Sharded compute: merge laws and boundary invariance. These are the
   invariants the parallel reduce in Code_concurrency.compute rests on;
   the suite also runs under @runtest-par. *)

let mk_samples triples = List.map (fun (c, t, l) -> s c t l) triples

let prop_interval_shard_invariant =
  (* Split the samples at any interval boundary, compute each side
     independently, merge: must equal the unsharded map. (Raw samples of
     ONE interval cannot be sharded — min is not additive — which is why
     compute bins first and shards the interval tables.) *)
  QCheck2.Test.make ~name:"shard boundary invariance (intervals + merge)"
    ~count:80
    QCheck2.Gen.(triple (int_range 1 300) (int_range (-3) 3) gen_triples)
    (fun (interval, cut, triples) ->
      let samples = mk_samples triples in
      let left, right =
        List.partition
          (fun smp -> Sample.floor_div smp.Sample.itc interval < cut)
          samples
      in
      let merged =
        CC.merge (compute ~interval left) (compute ~interval right)
      in
      CC.pairs merged = oracle ~interval samples)

let gen_cm =
  (* A concurrency map from random samples, optionally carrying one cell
     near max_int so the laws are exercised at the saturation boundary. *)
  QCheck2.Gen.(
    let* triples = gen_triples in
    let* big = opt (pair (int_range 1 5) (int_range 1 5)) in
    return
      (let cm = CC.create () in
       List.iter
         (fun ((l1, l2), v) -> CC.For_tests.add cm l1 l2 v)
         (oracle ~interval:250 (mk_samples triples));
       (match big with
       | Some (l1, l2) -> CC.For_tests.add cm l1 l2 (max_int - 3)
       | None -> ());
       cm))

let prop_merge_commutative =
  QCheck2.Test.make ~name:"merge is commutative (up to pairs)" ~count:80
    QCheck2.Gen.(pair gen_cm gen_cm)
    (fun (a, b) -> CC.pairs (CC.merge a b) = CC.pairs (CC.merge b a))

let prop_merge_associative =
  QCheck2.Test.make ~name:"merge is associative (up to pairs)" ~count:80
    QCheck2.Gen.(triple gen_cm gen_cm gen_cm)
    (fun (a, b, c) ->
      CC.pairs (CC.merge (CC.merge a b) c)
      = CC.pairs (CC.merge a (CC.merge b c)))

let test_pool_shard_identical () =
  (* The full parallel path over a real domain pool (about 100 intervals,
     so several chunks) must be byte-identical to the serial compute and
     to the oracle. *)
  let samples =
    List.concat_map
      (fun i -> [ s (i mod 4) (i * 37) (1 + (i mod 5)); s ((i + 1) mod 4) (i * 53) (1 + (i * 3 mod 5)) ])
      (List.init 200 Fun.id)
  in
  let serial = compute ~interval:100 samples in
  Alcotest.(check bool) "serial = oracle" true
    (CC.pairs serial = oracle ~interval:100 samples);
  Slo_exec.Pool.with_pool ~domains:2 (fun pool ->
      let par = compute ~pool ~interval:100 samples in
      Alcotest.(check bool) "pool = serial" true
        (CC.pairs par = CC.pairs serial))

(* ------------------------------------------------------------------ *)
(* Columnar sample store and the columnar CC path *)

let test_bin_min_int () =
  (* Regression: floor_div negated its argument before dividing, so a
     timestamp within one interval of [min_int] overflowed on the
     negation and teleported into a huge positive bin at the far end of
     the binned order. The remainder form is exact at the boundary. *)
  let tables = bin ~interval:4 [ s 0 min_int 7; s 0 (min_int + 1) 7; s 1 3 9 ] in
  check_int "two intervals" 2 (List.length tables);
  let first = List.hd tables in
  check_int "min_int samples share the first bin" 2
    (Sample.freq first ~cpu:0 ~line:7);
  check_int "positive sample stays out of it" 0
    (Sample.freq first ~cpu:1 ~line:9);
  check_int "min_int bin total" 2 (Sample.total_samples first)

let test_store_roundtrip () =
  let samples = [ s 0 (-100) 1; s 3 0 2; s 1 250 7 ] in
  let st = Store.of_samples samples in
  check_int "length" 3 (Store.length st);
  check_int "cpu" 3 (Store.cpu st 1);
  check_int "itc" (-100) (Store.itc st 0);
  check_int "line" 7 (Store.line st 2);
  Alcotest.(check bool) "to_samples round trip" true
    (Store.to_samples st = samples);
  let got = ref [] in
  Store.iter st (fun smp -> got := smp :: !got);
  Alcotest.(check bool) "iter visits in order" true (List.rev !got = samples)

let test_store_builder () =
  (* Growth across several doublings, then the id bounds. *)
  let b = Store.builder ~capacity:2 () in
  for i = 0 to 99 do
    Store.append b ~cpu:(i mod 8) ~itc:((i * 3) - 50) ~line:i
  done;
  check_int "built" 100 (Store.built b);
  let st = Store.build b in
  check_int "length" 100 (Store.length st);
  check_int "last line survives growth" 99 (Store.line st 99);
  check_int "first itc survives growth" (-50) (Store.itc st 0);
  (match Store.append b ~cpu:(-1) ~itc:0 ~line:0 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "accepted negative cpu");
  match Store.append b ~cpu:0 ~itc:0 ~line:(Sample.max_id + 1) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "accepted line > max_id"

let test_store_of_columns_validation () =
  let open Bigarray in
  let mk32 n = Array1.create int32 c_layout n
  and mk64 n = Array1.create int64 c_layout n in
  (match
     Store.of_columns ~cpu:(mk32 2) ~itc:(mk64 2) ~line:(mk32 1) ()
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted mismatched column lengths");
  let cpu = mk32 2 and itc = mk64 2 and line = mk32 2 in
  Array1.fill cpu 0l;
  Array1.fill itc 0L;
  Array1.fill line 0l;
  Array1.set cpu 1 (-3l);
  (match Store.of_columns ~cpu ~itc ~line () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted negative cpu column");
  Array1.set cpu 1 0l;
  Array1.set itc 1 Int64.max_int;
  match Store.of_columns ~cpu ~itc ~line () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted itc that does not fit 63 bits"

let prop_store_samples_roundtrip =
  QCheck2.Test.make ~name:"of_samples / to_samples round trip" ~count:100
    QCheck2.Gen.(
      list_size (int_bound 60)
        (triple (int_bound 127) (int_range (-100_000) 100_000) (int_bound 9999)))
    (fun triples ->
      let samples = mk_samples triples in
      Store.to_samples (Store.of_samples samples) = samples)

let prop_store_cc_matches_oracle =
  (* The columnar CC must equal the definitional brute force. *)
  QCheck2.Test.make ~name:"compute = definitional oracle" ~count:100
    QCheck2.Gen.(pair (int_range 1 300) gen_triples)
    (fun (interval, triples) ->
      let samples = mk_samples triples in
      CC.pairs (compute ~interval samples) = oracle ~interval samples)

let test_store_pool_identical () =
  (* Sharded columnar ingestion over a real domain pool = the oracle. *)
  let samples =
    List.init 400 (fun i -> s (i mod 4) ((i * 37) - 7000) (1 + (i mod 5)))
  in
  Slo_exec.Pool.with_pool ~domains:2 (fun pool ->
      Alcotest.(check bool) "pool = oracle" true
        (CC.pairs (compute ~pool ~interval:100 samples)
        = oracle ~interval:100 samples))

let test_store_multi_range () =
  (* Big enough to cross the fixed boundaries the parallel path cuts on:
     150 000 samples are three binning ranges of 65 536, and their 150
     intervals are five chunks of 32. The pooled and serial compute must
     both equal the serial of_interval fold over one binner. *)
  let n = 150_000 and interval = 1_000 in
  let b = Store.builder ~capacity:n () in
  for i = 0 to n - 1 do
    Store.append b ~cpu:(i * 7 mod 16) ~itc:i ~line:(1 + (i * 13 mod 24))
  done;
  let st = Store.build b in
  let binner = Sample.binner ~interval in
  for i = 0 to n - 1 do
    Sample.feed_raw binner ~cpu:(Store.cpu st i) ~itc:(Store.itc st i)
      ~line:(Store.line st i)
  done;
  check_int "intervals" 150 (List.length (Sample.binned binner));
  let folded =
    List.fold_left
      (fun acc tbl -> CC.merge acc (CC.of_interval tbl))
      (CC.create ()) (Sample.binned binner)
    |> CC.pairs
  in
  Alcotest.(check bool) "serial = of_interval fold" true
    (CC.pairs (CC.compute ~interval st) = folded);
  Slo_exec.Pool.with_pool ~domains:2 (fun pool ->
      Alcotest.(check bool) "pool = of_interval fold" true
        (CC.pairs (CC.compute ~pool ~interval st) = folded))

let test_compute_alloc_per_pair () =
  (* Allocation guard on the pair kernel: a deterministic count, not a
     timing. 200 000 samples from a fixed LCG (glibc constants, two draws
     per sample: cpu = draw mod 64, line = draw mod 80), itc = 4 i,
     interval 4000. The draws alternate the state's low bit, so each
     interval holds 40 of the 80 lines and about 160 distinct (cpu, line)
     entries: 200 intervals x 820 line pairs (diagonal included) = 164 000
     pairs through the kernel, which dominate. A per-pair Hashtbl or a
     boxed tuple key costs about 70 words per pair here. The kernel
     allocates nothing per pair, and per interval only the table's rows:
     its CSR arrays are scratch reused across a chunk's intervals. Words
     are counted minor + major - promoted, so scratch allocated straight
     into the major heap counts too. Fresh per-line vectors for every
     interval (8 arrays a line) come to about 12 words per pair, so the
     bound of 6 requires the reused scratch. *)
  let n = 200_000 and interval = 4_000 in
  let b = Store.builder ~capacity:n () in
  let x = ref 42 in
  let draw () =
    x := ((!x * 1103515245) + 12345) land 0x7FFF_FFFF;
    !x
  in
  for i = 0 to n - 1 do
    let cpu = draw () mod 64 in
    let line = draw () mod 80 in
    Store.append b ~cpu ~itc:(4 * i) ~line
  done;
  let st = Store.build b in
  let binner = Sample.binner ~interval in
  for i = 0 to n - 1 do
    Sample.feed_raw binner ~cpu:(Store.cpu st i) ~itc:(Store.itc st i)
      ~line:(Store.line st i)
  done;
  let tables = Sample.binned binner in
  check_int "intervals" 200 (List.length tables);
  let pairs =
    List.fold_left
      (fun acc tbl ->
        let lines, _, _ = Sample.rows tbl in
        let l =
          List.length (List.sort_uniq Int.compare (Array.to_list lines))
        in
        acc + (l * (l + 1) / 2))
      0 tables
  in
  check_int "line pairs through the kernel" 164_000 pairs;
  let words () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let before = words () in
  let cm = CC.compute ~interval st in
  let words = words () -. before in
  check_int "distinct pairs in the map" 820 (List.length (CC.pairs cm));
  let per_pair = words /. float_of_int pairs in
  if per_pair > 6.0 then
    Alcotest.failf
      "Code_concurrency.compute allocated %.1f words per line pair (bound 6)"
      per_pair

(* Validating mapped columns reads them through the typed, unboxed
   Bigarray accessors: no word per sample. Through the generic path each
   read boxes (9 words per sample). *)
let test_validate_alloc () =
  let n = 200_000 in
  let open Bigarray in
  let cpu = Array1.create int32 c_layout n
  and itc = Array1.create int64 c_layout n
  and line = Array1.create int32 c_layout n in
  for i = 0 to n - 1 do
    cpu.{i} <- Int32.of_int (i mod 64);
    itc.{i} <- Int64.of_int (4 * i);
    line.{i} <- Int32.of_int (i mod 80)
  done;
  let before = Gc.minor_words () in
  let st = Store.of_columns ~validate:true ~cpu ~itc ~line () in
  let per_sample = (Gc.minor_words () -. before) /. float_of_int n in
  check_int "length" n (Store.length st);
  if per_sample >= 0.01 then
    Alcotest.failf
      "Sample_store.of_columns ~validate:true allocated %.2f words per \
       sample (bound 0.01)"
      per_sample

let store_suite =
  [
    Alcotest.test_case "min_int timestamps bin exactly" `Quick
      test_bin_min_int;
    Alcotest.test_case "store round trip" `Quick test_store_roundtrip;
    Alcotest.test_case "builder growth + bounds" `Quick test_store_builder;
    Alcotest.test_case "of_columns validation" `Quick
      test_store_of_columns_validation;
    Alcotest.test_case "pool columnar = oracle" `Quick
      test_store_pool_identical;
    Alcotest.test_case "multi-range, multi-chunk = of_interval fold" `Quick
      test_store_multi_range;
    Alcotest.test_case "compute allocates <= 6 words per line pair" `Quick
      test_compute_alloc_per_pair;
    Alcotest.test_case "validating columns allocates nothing per sample"
      `Quick test_validate_alloc;
    QCheck_alcotest.to_alcotest prop_store_samples_roundtrip;
    QCheck_alcotest.to_alcotest prop_store_cc_matches_oracle;
  ]

(* The reference semantics of the binner: the boxed (interval, cpu, line)
   -> int ref Hashtbl feeder the flat open-addressing path replaced,
   including dropping an interval. [rows ()] lists the counts as sorted
   (idx, cpu, line, count). *)
let hashtbl_reference ~interval =
  let tbl : (int * int * int, int ref) Hashtbl.t = Hashtbl.create 64 in
  let feed ~cpu ~itc ~line =
    let key = (Sample.floor_div itc interval, cpu, line) in
    match Hashtbl.find_opt tbl key with
    | Some r -> incr r
    | None -> Hashtbl.add tbl key (ref 1)
  in
  let drop idx =
    Hashtbl.filter_map_inplace
      (fun (i, _, _) r -> if i = idx then None else Some r)
      tbl
  in
  let rows () =
    Hashtbl.fold (fun (idx, cpu, line) r acc -> (idx, cpu, line, !r) :: acc)
      tbl []
    |> List.sort compare
  in
  (feed, drop, rows)

(* A binner's histograms in the reference's row form. *)
let binner_rows b =
  List.concat_map
    (fun (idx, tbl) ->
      let lines, cpus, counts = Sample.rows tbl in
      List.init (Array.length lines) (fun r ->
          (idx, cpus.(r), lines.(r), counts.(r))))
    (Sample.binned_idx b)
  |> List.sort compare

let prop_binner_matches_hashtbl_reference =
  QCheck2.Test.make
    ~name:"flat binner = (int, int ref) Hashtbl reference (feed + drop)"
    ~count:300
    QCheck2.Gen.(
      quad (int_range 1 50)
        (list_size (int_bound 80)
           (triple (int_bound 7) (int_range (-500) 500) (int_range 1 9)))
        (list_size (int_bound 4) (int_bound 100))
        (list_size (int_bound 40)
           (triple (int_bound 7) (int_range (-500) 500) (int_range 1 9))))
    (fun (interval, xs, picks, ys) ->
      (* xs is fed to both, then the intervals of the picked xs samples
         are dropped from both, then ys is fed to both *)
      let ref_feed, ref_drop, ref_rows = hashtbl_reference ~interval in
      let b = Sample.binner ~interval in
      let feed_both =
        List.iter (fun (cpu, itc, line) ->
            Sample.feed b (s cpu itc line);
            ref_feed ~cpu ~itc ~line)
      in
      feed_both xs;
      if xs <> [] then
        List.iter
          (fun pick ->
            let _, itc, _ = List.nth xs (pick mod List.length xs) in
            let idx = Sample.floor_div itc interval in
            Sample.drop_interval b idx;
            ref_drop idx)
          picks;
      feed_both ys;
      let rows = ref_rows () in
      binner_rows b = rows
      && Sample.fed b = List.fold_left (fun acc (_, _, _, n) -> acc + n) 0 rows)

(* The same reference at scale: 200 000 time-ordered samples from an LCG
   over 16 cpus x 24 lines, interval 32 768 — enough distinct keys per
   interval table to grow the Flat_tab well past its initial size. *)
let test_binner_matches_reference_at_scale () =
  let interval = 32_768 in
  let ref_feed, _, ref_rows = hashtbl_reference ~interval in
  let b = Sample.binner ~interval in
  let state = ref 0x243F6A8885A308D3 and itc = ref 0 in
  for _ = 1 to 200_000 do
    state := (!state * 2685821657736338717) + 1442695040888963407;
    let bits = !state lsr 11 in
    itc := !itc + 1 + (bits land 7);
    let cpu = bits mod 16 and line = 100 + ((bits lsr 17) mod 24) in
    Sample.feed_raw b ~cpu ~itc:!itc ~line;
    ref_feed ~cpu ~itc:!itc ~line
  done;
  let rows = binner_rows b in
  check_int "rows" (List.length (ref_rows ())) (List.length rows);
  Alcotest.(check bool) "binner rows = Hashtbl reference" true
    (rows = ref_rows ());
  check_int "peak interval-table entries" 384 (Sample.peak_entries b)

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_cc_symmetric_nonneg; prop_cc_monotone; prop_bin_shift_invariant ]

let shard_props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_interval_shard_invariant;
      prop_merge_commutative;
      prop_merge_associative;
    ]

let suites =
  [
    ( "concurrency.samples",
      [
        Alcotest.test_case "binning" `Quick test_bin_basic;
        Alcotest.test_case "validation" `Quick test_bin_validation;
        Alcotest.test_case "negative itc bins" `Quick test_bin_negative_itc;
        Alcotest.test_case "row view" `Quick test_rows;
        Alcotest.test_case "binner counters" `Quick test_binner_counters;
        QCheck_alcotest.to_alcotest prop_binner_matches_hashtbl_reference;
        Alcotest.test_case "binner = Hashtbl reference at scale" `Quick
          test_binner_matches_reference_at_scale;
      ] );
    ( "concurrency.cc",
      [
        Alcotest.test_case "hand computed" `Quick test_cc_hand_computed;
        Alcotest.test_case "same cpu excluded" `Quick test_cc_same_cpu_excluded;
        Alcotest.test_case "diagonal" `Quick test_cc_diagonal;
        Alcotest.test_case "interval isolation" `Quick test_cc_intervals_isolate;
        Alcotest.test_case "accumulation" `Quick test_cc_accumulates_over_intervals;
        Alcotest.test_case "three cpus" `Quick test_cc_three_cpus;
        Alcotest.test_case "top/merge" `Quick test_cc_top_and_merge;
        QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 25 |])
          prop_interval_rows_contract;
      ] );
    ( "concurrency.fmf",
      [ Alcotest.test_case "field mapping" `Quick test_fmf ] );
    ( "concurrency.cycle_loss",
      [
        Alcotest.test_case "write filter" `Quick test_cycle_loss_requires_write;
        Alcotest.test_case "same-line loss" `Quick test_cycle_loss_same_line_fields;
        Alcotest.test_case "uniform conflict-event scale" `Quick
          test_cycle_loss_uniform_scale;
        QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 24 |])
          prop_cycle_loss_eq_oracle;
      ] );
    ( "concurrency.saturation",
      [
        Alcotest.test_case "saturating kernel units" `Quick
          test_saturation_units;
        Alcotest.test_case "top k validation" `Quick test_top_validation;
        QCheck_alcotest.to_alcotest prop_sum_min_saturates;
        QCheck_alcotest.to_alcotest prop_sum_min_same_cpu;
      ] );
    ( "concurrency.shard",
      Alcotest.test_case "pool shard identical" `Quick
        test_pool_shard_identical
      :: shard_props );
    ("concurrency.store", store_suite);
    ("concurrency.properties", props);
  ]
