(* Benchmark harness: regenerates every figure of the paper's evaluation
   (Figures 8, 9, 10), the §4.3 CC-stability claim and the §5.1 machine
   characterization, plus ablations over the design choices DESIGN.md calls
   out, and the scale and soundness checks of the tool's own subsystems.

   Usage:
     dune exec bench/main.exe              # everything (a few minutes)
     dune exec bench/main.exe -- fig8      # one section
     dune exec bench/main.exe -- --quick   # smaller machines / fewer runs
     dune exec bench/main.exe -- --jobs 4  # parallel simulator runs
     dune exec bench/main.exe -- --json b.json   # JSON artifacts + manifest
     dune exec bench/main.exe -- --help    # sections and options

   --jobs N (or SLO_JOBS=N; default Domain.recommended_domain_count) fans
   independent simulator runs and per-struct analyses across a domain
   pool. Results are byte-identical for every N — the `smoke` section and
   test/test_exec.ml verify exactly that.

   A section is a function from the run's context to a report: its
   results ([data]), its identity checks ([checks]) and the prose that
   says what shape to expect ([note]). Sections neither print nor exit.
   The runner at the bottom of this file prints each report, writes it
   as BENCH_<section>.json under --json, and exits 1 once every requested
   section has run if any check failed.

   Absolute numbers are simulator cycles, not HP hardware; the shapes (who
   wins, by what factor, where effects vanish) are the reproduction target.
   See EXPERIMENTS.md for the paper-vs-measured record. *)

module Exp = Slo_workload.Experiments
module Collect = Slo_workload.Collect
module Kernel = Slo_workload.Kernel
module Sdet = Slo_workload.Sdet
module Topology = Slo_sim.Topology
module Machine = Slo_sim.Machine
module Coherence = Slo_sim.Coherence
module Sim_stats = Slo_sim.Sim_stats
module Layout = Slo_layout.Layout
module Field = Slo_layout.Field
module Cluster = Slo_core.Cluster
module Pipeline = Slo_core.Pipeline
module Optimizer = Slo_search.Optimizer
module Code_concurrency = Slo_concurrency.Code_concurrency
module Sample = Slo_concurrency.Sample
module Sample_store = Slo_concurrency.Sample_store
module Persist = Slo_persist.Persist
module Stats = Slo_util.Stats
module Pool = Slo_exec.Pool
module Obs = Slo_obs.Obs
module Json = Slo_obs.Json

type ctx = {
  quick : bool;
  jobs : int;
  pool : Pool.t option;  (** [None] at one job, so the serial paths run *)
  layouts : Exp.layouts list Lazy.t;  (** every struct's three layouts *)
  fig8 : Exp.measurement list Lazy.t;  (** Figure 8's rows, fig10's input *)
}

type report = {
  data : (string * Json.t) list;  (** the artifact's [data] object *)
  checks : (string * bool) list;  (** identity gates: what, and whether *)
  note : string;  (** the shape to expect, printed after [data] *)
}

let report ?(checks = []) ?(note = "") data = { data; checks; note }
let runs ctx = if ctx.quick then 3 else 10
let big_cpus ctx = if ctx.quick then 32 else 128

let timed f =
  let t0 = Obs.now () in
  let x = f () in
  (x, Obs.now () -. t0)

let per_s n wall = if wall > 0.0 then float_of_int n /. wall else 0.0

(* One scoreboard entry of a search portfolio. *)
let candidate_json label score moves =
  Json.Obj
    [
      ("candidate", Json.Str label);
      ("score", Json.Float score);
      ("moves", Json.Int moves);
    ]

(* ------------------------------------------------------------------ *)
(* The paper's figures and claims *)

(* Figures 8 and 9: throughput speedup (%) of each layout over the
   hand-tuned baseline, trimmed mean of [runs] runs. *)
let measurements ctx ~cpus ~shape rows =
  report
    [
      ("cpus", Json.Int cpus);
      ("runs", Json.Int (runs ctx));
      ("rows", Json.List (List.map Exp.measurement_json rows));
    ]
    ~note:("Paper shape: " ^ shape)

let run_fig8 ctx =
  measurements ctx ~cpus:(big_cpus ctx) (Lazy.force ctx.fig8)
    ~shape:
      "struct A degrades >2X under sort-by-hotness but only a\n\
       few % under the FLG layout; B-E see small effects, with hotness\n\
       marginally ahead on some locality-dominated structs."

let run_fig9 ctx =
  Exp.fig9 ~runs:(runs ctx) ?pool:ctx.pool (Lazy.force ctx.layouts)
  |> measurements ctx ~cpus:4
       ~shape:
         "with cheap remote caches the false-sharing penalty\n\
          vanishes; every effect is within a few percent of baseline."

let run_fig10 ctx =
  let row (r : Exp.fig10_row) =
    Json.Obj
      [
        ("struct", Json.Str r.Exp.b_struct);
        ("best_pct", Json.Float r.Exp.b_best);
        ("which", Json.Str r.Exp.b_which);
      ]
  in
  report
    [ ("rows", Json.List (List.map row (Exp.fig10 (Lazy.force ctx.fig8)))) ]
    ~note:
      "Paper shape: the incremental (important-edge subgraph) mode beats the\n\
       fully automatic layout on the huge false-sharing struct A; automatic\n\
       wins on the locality structs; best gains are a few percent."

let run_gvl ctx =
  let big, bus =
    Exp.gvl ~runs:(runs ctx) ~cpus:(big_cpus ctx) ?pool:ctx.pool ()
  in
  report
    [
      ("cpus", Json.Int (big_cpus ctx));
      ("big_pct", Json.Float big);
      ("bus_pct", Json.Float bus);
    ]
    ~note:
      "(expected: the declaration order interleaves per-quadrant counters\n\
       with read-mostly globals on one line; separating them pays on the\n\
       big machine and is neutral on the bus)"

let run_cc_stability _ctx =
  report
    [ ("spearman_rho", Json.Float (Exp.cc_stability ())) ]
    ~note:
      "Spearman rank correlation of top-40 CC pairs, 4-way vs 16-way.\n\n\
       (paper: \"source line pairs with high concurrency values remain more\n\
       or less the same in both the 4 way and 16 way machines\")"

let run_topology _ctx =
  let topo = Topology.superdome () in
  let transfer (label, src, dst) =
    Json.Obj
      [
        ("hop", Json.Str label);
        ("src", Json.Int src);
        ("dst", Json.Int dst);
        ("cycles", Json.Int (Topology.transfer_latency topo ~src ~dst));
      ]
  in
  let hops =
    [ ("same chip", 0, 1); ("same bus", 0, 2); ("same cell", 0, 4);
      ("same crossbar", 0, 16); ("across crossbars", 0, 64) ]
  in
  report
    [
      ("transfers", Json.List (List.map transfer hops));
      ("memory_cycles", Json.Int (Topology.memory_latency topo));
    ]
    ~note:(Topology.describe topo ^ "\n" ^ Topology.describe (Topology.bus ()))

(* ------------------------------------------------------------------ *)
(* Ablations *)

let ctr_mistakes layout =
  (* Count layout mistakes on struct A: counters sharing a line with each
     other or with hot read fields. *)
  let is_ctr n = String.length n >= 5 && String.sub n 0 5 = "a_ctr" in
  let hot = [ "a_flags"; "a_state"; "a_owner"; "a_rss" ] in
  let pairs = ref 0 and on_hot = ref 0 in
  for line = 0 to Layout.lines_used layout ~line_size:128 - 1 do
    let names =
      List.map
        (fun (f : Field.t) -> f.Field.name)
        (Layout.fields_on_line layout ~line_size:128 line)
    in
    let ctrs = List.length (List.filter is_ctr names) in
    if ctrs > 1 then pairs := !pairs + (ctrs - 1);
    if ctrs > 0 && List.exists (fun h -> List.mem h names) hot then incr on_hot
  done;
  (!pairs, !on_hot)

let mistakes_json layout =
  let pairs, on_hot = ctr_mistakes layout in
  [
    ("ctr_ctr_colocated", Json.Int pairs); ("ctr_on_hot_line", Json.Int on_hot);
  ]

(* Speedup (%) of [layout] over the baseline on [cfg]'s machine. *)
let speedup ctx cfg ~base layout =
  let measured =
    Sdet.measure ?pool:ctx.pool { cfg with Sdet.overrides = [ layout ] }
      ~runs:3
  in
  Json.Float (Stats.speedup_percent ~baseline:base ~measured)

let run_ablation_k2 ctx =
  let counts = Collect.profile () in
  let samples = Collect.samples () in
  let cfg = Sdet.default_config (Topology.superdome ~cpus:(big_cpus ctx) ()) in
  let base = Sdet.measure ?pool:ctx.pool cfg ~runs:3 in
  let row k2 =
    let params = { Collect.calibrated_params with Pipeline.k2 } in
    let flg = Collect.flg ~params ~counts ~samples ~struct_name:"A" () in
    let layout = Pipeline.automatic_layout ~params flg in
    Json.Obj
      ((("k2", Json.Float k2) :: mistakes_json layout)
      @ [ ("speedup_pct", speedup ctx cfg ~base layout) ])
  in
  report
    [ ("rows", Json.List (List.map row [ 0.0; 0.5; 1.0; 2.0; 4.0; 8.0 ])) ]
    ~note:
      (Printf.sprintf
         "Expected: with k2 too small the FLG degenerates to pure locality and\n\
          writers pile onto shared lines (the sort-by-hotness failure); large k2\n\
          separates everything. The default (%.1f) keeps one residual mistake —\n\
          the paper's 'greedy is suboptimal on >100 fields' result."
         Collect.calibrated_params.Pipeline.k2)

let run_ablation_sampling _ctx =
  let counts = Collect.profile () in
  let params = Collect.calibrated_params in
  let row period =
    let samples = Collect.samples ~period () in
    let flg = Collect.flg ~params ~counts ~samples ~struct_name:"A" () in
    Json.Obj
      (("period", Json.Int period)
      :: ("samples", Json.Int (List.length samples))
      :: mistakes_json (Pipeline.automatic_layout ~params flg))
  in
  report
    [ ("rows", Json.List (List.map row [ 200; 400; 800; 1600; 3200 ])) ]
    ~note:
      "Expected: sparser sampling starves CodeConcurrency of coincident\n\
       samples on short code (counter updates), so more counters get\n\
       colocated — the cost of the paper's lightweight sampling approach."

let run_ablation_clustering ctx =
  let counts = Collect.profile () in
  let samples = Collect.samples () in
  let params = Collect.calibrated_params in
  let flg = Collect.flg ~params ~counts ~samples ~struct_name:"A" () in
  let baseline_layout = Kernel.baseline_layout "A" in
  let cfg = Sdet.default_config (Topology.superdome ~cpus:(big_cpus ctx) ()) in
  let base = Sdet.measure ?pool:ctx.pool cfg ~runs:3 in
  let raw_clusters = Cluster.run ~pack_cold:false flg ~line_size:128 in
  let row (policy, layout) =
    Json.Obj
      [
        ("policy", Json.Str policy);
        ("lines", Json.Int (Layout.lines_used layout ~line_size:128));
        ("speedup_pct", speedup ctx cfg ~base layout);
      ]
  in
  let policies =
    [
      ("baseline (hand-tuned)", baseline_layout);
      ("greedy FLG", Pipeline.automatic_layout ~params flg);
      ( "greedy FLG, no cold packing",
        Cluster.layout_of_clusters flg ~line_size:128 raw_clusters );
      ( "subgraph constraints on baseline",
        Pipeline.incremental_layout ~params flg ~baseline:baseline_layout );
      ("sort-by-hotness", Pipeline.hotness_layout flg);
    ]
  in
  report
    [ ("rows", Json.List (List.map row policies)) ]
    ~note:
      "Expected: raw Figure-6 clustering explodes the footprint (every cold\n\
       field gets a line); cold packing fixes that; subgraph constraints\n\
       preserve the hand layout; hotness collapses."

let run_ablation_machines ctx =
  let a =
    List.find (fun l -> l.Exp.struct_name = "A") (Lazy.force ctx.layouts)
  in
  let row cpus =
    let cfg = Sdet.default_config (Topology.superdome ~cpus ()) in
    let base = Sdet.measure ?pool:ctx.pool cfg ~runs:3 in
    let hotness = speedup ctx cfg ~base a.Exp.hotness in
    Json.Obj
      [
        ("cpus", Json.Int cpus);
        ("hotness_pct", hotness);
        ("automatic_pct", speedup ctx cfg ~base a.Exp.automatic);
      ]
  in
  report
    [ ("rows", Json.List (List.map row [ 2; 8; 32; 128 ])) ]
    ~note:
      "Expected: the naive layout's penalty grows with machine size (deeper\n\
       topology, costlier invalidations); the FLG layout stays near baseline."

let run_accumulation ctx =
  let acc =
    Exp.accumulation ~runs:(runs ctx) ~cpus:(big_cpus ctx) ?pool:ctx.pool
      (Lazy.force ctx.layouts)
  in
  report
    [
      ( "individual_pct",
        Json.Obj
          (List.map (fun (n, v) -> (n, Json.Float v)) acc.Exp.acc_individual)
      );
      ("sum_pct", Json.Float acc.Exp.acc_sum);
      ("combined_pct", Json.Float acc.Exp.acc_combined);
    ]
    ~note:
      "(paper: \"Note that these improvements are not accumulative. This can\n\
       be explained by the highly tuned nature of the HP-UX kernel.\")"

let run_userapp ctx =
  let module Userapp = Slo_workload.Userapp in
  let r =
    Userapp.experiment ~runs:(runs ctx) ~cpus:(big_cpus ctx) ?pool:ctx.pool ()
  in
  report
    [
      ( "individual_pct",
        Json.Obj
          (List.map (fun (n, v) -> (n, Json.Float v)) r.Userapp.u_individual)
      );
      ("globals_pct", Json.Float r.Userapp.u_globals);
      ("sum_pct", Json.Float r.Userapp.u_sum);
      ("combined_pct", Json.Float r.Userapp.u_combined);
    ]
    ~note:
      "(paper §5: for programs without years of hand tuning \"the benefit of\n\
       the tool is likely to be pronounced\", and accumulation \"is not\n\
       expected to be a problem\" — gains here should be larger than the\n\
       kernel's and roughly additive)"

let run_oracle _ctx =
  let module Trace_oracle = Slo_sim.Trace_oracle in
  let cfg =
    { (Sdet.default_config (Topology.superdome ~cpus:16 ())) with
      Sdet.reps = 60 }
  in
  let oracle = Sdet.trace_oracle cfg in
  let counts = Collect.profile () in
  let samples = Collect.samples () in
  let params = Collect.calibrated_params in
  let flg = Collect.flg ~params ~counts ~samples ~struct_name:"A" () in
  let module Flg = Slo_core.Flg in
  let loss f1 f2 =
    Float.Array.get flg.Flg.loss ((Flg.index flg f1 * Flg.size flg) + Flg.index flg f2)
  in
  let pair (f1, f2) =
    let o = Trace_oracle.loss oracle ~struct_name:"A" f1 f2 in
    Json.Obj
      [
        ("pair", Json.Str (f1 ^ " / " ^ f2));
        ("oracle_events", Json.Int o.Trace_oracle.ps_false);
        ("cc_estimate", Json.Float (loss f1 f2));
      ]
  in
  let pairs =
    (* pairs the baseline layout colocates: the oracle sees them *)
    [ ("a_gen", "a_ctr7"); ("a_mask", "a_ctr7") ]
    (* pairs the baseline already separates: the oracle is blind, CC is not *)
    @ [ ("a_ctr0", "a_ctr1"); ("a_ctr2", "a_ctr5"); ("a_ctr0", "a_flags") ]
  in
  report
    [
      ("pairs", Json.List (List.map pair pairs));
      ("false_events", Json.Int (Trace_oracle.total_false_sharing oracle));
      ("true_events", Json.Int (Trace_oracle.total_true_sharing oracle));
    ]
    ~note:
      "Expected: the oracle confirms the false sharing the current layout\n\
       exhibits (the baseline's a_gen/a_mask flaw) but reports zero for the\n\
       padded counter pairs — §3's argument for why measuring false sharing\n\
       cannot drive layout, and why CodeConcurrency (which still flags those\n\
       pairs) exists."

let run_ablation_protocol ctx =
  let cfg = Sdet.default_config (Topology.superdome ~cpus:(big_cpus ctx) ()) in
  let row (name, protocol) =
    let r = Sdet.run_once { cfg with Sdet.protocol } in
    Json.Obj
      [
        ("protocol", Json.Str name);
        ("throughput", Json.Float (Machine.throughput r));
        ("writebacks", Json.Int r.Machine.stats.Sim_stats.writebacks);
        ("invalidations", Json.Int r.Machine.stats.Sim_stats.invalidations);
      ]
  in
  let protocols = [ ("MESI", Coherence.Mesi); ("MOESI", Coherence.Moesi) ] in
  report
    [ ("rows", Json.List (List.map row protocols)) ]
    ~note:
      "Expected: identical invalidation behaviour (layout conclusions are\n\
       protocol-independent across the MESI family, as the paper assumes);\n\
       MOESI defers dirty writebacks, cutting memory write-back traffic."

(* ------------------------------------------------------------------ *)
(* Differential smoke check: the parallel pipeline must be byte-identical
   to the serial one. Runs on every `dune runtest` via the runtest-par
   alias. At one job it makes a two-domain pool of its own, so the
   parallel paths always run. *)

let run_smoke ctx =
  let smoke p =
    let domains = Pool.size p in
    let layout_str l = Format.asprintf "%a" Layout.pp l in
    let serial = Exp.analyze_all () in
    let par = Exp.analyze_all ~pool:p () in
    let layouts_ok =
      List.for_all2
        (fun (a : Exp.layouts) (b : Exp.layouts) ->
          a.Exp.struct_name = b.Exp.struct_name
          && layout_str a.Exp.automatic = layout_str b.Exp.automatic
          && layout_str a.Exp.hotness = layout_str b.Exp.hotness
          && layout_str a.Exp.incremental = layout_str b.Exp.incremental)
        serial par
    in
    let cfg =
      { (Sdet.default_config (Topology.superdome ~cpus:8 ())) with
        Sdet.reps = 6 }
    in
    let t_serial = Sdet.throughputs cfg ~runs:4 in
    let t_par = Sdet.throughputs ~pool:p cfg ~runs:4 in
    let reports ?pool () =
      Pipeline.analyze_all ~params:Collect.calibrated_params ?pool
        ~program:(Kernel.program ()) ~counts:(Collect.profile ()) ~samples:[]
        ~struct_names:Kernel.struct_names ()
      |> List.map (fun (_, flg) ->
             Slo_core.Report.render (Pipeline.report flg))
    in
    let reports_serial = reports () in
    report
      [ ("domains", Json.Int domains) ]
      ~checks:
        [
          ( Printf.sprintf "analyze_all layouts (%d domains)" domains,
            layouts_ok );
          ("sdet cycle counts / throughputs", t_serial = t_par);
          ("FLG reports byte-identical", reports_serial = reports ~pool:p ());
        ]
  in
  match ctx.pool with
  | Some p -> smoke p
  | None -> Pool.with_pool ~domains:2 smoke

(* ------------------------------------------------------------------ *)
(* Columnar CC ingestion at scale: generate a store far bigger than any
   collection run, persist it in both formats, and race the two ingestion
   paths file -> in-memory store. The text path byte-scans every record
   into a store builder (store_of_samples_file); the binary path is
   load_samples_bin — mmap plus one unboxed validation scan. Neither
   allocates per sample, so the ratio is the cost of the format itself:
   decoding digits against checking packed columns (everything
   downstream of the store is shared). Both paths must yield
   the same store, and the full Code_concurrency.compute at pool sizes
   1/2/4 must reproduce the serial of_interval fold over the reference
   binning's tables, on the store and on a fixed shuffle of it (the path
   that sorts the sample indices by interval; its wall time is reported,
   not gated), and on a copy whose line ids are spread over
   [0, Sample.max_id] (the path that ranks lines through a hash table;
   checked, not timed). *)

(* The reference binning this section and the serve section check
   against: the samples [iter] yields, each counted with Sample.count
   into its interval's table in a Hashtbl by interval index, listed by
   ascending index. *)
let bin_tables ~interval iter =
  let tables = Hashtbl.create 64 in
  iter (fun (s : Sample.t) ->
      let idx = Sample.floor_div s.Sample.itc interval in
      let tbl =
        match Hashtbl.find_opt tables idx with
        | Some tbl -> tbl
        | None ->
          let tbl = Sample.empty_table () in
          Hashtbl.add tables idx tbl;
          tbl
      in
      Sample.count tbl ~cpu:s.Sample.cpu ~line:s.Sample.line);
  Hashtbl.fold (fun idx tbl acc -> (idx, tbl) :: acc) tables []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let run_cc_scale ctx =
  let n = if ctx.quick then 200_000 else 10_000_000 in
  let cpus = 16 and lines = 24 and interval = 32_768 in
  let builder = Sample_store.builder ~capacity:n () in
  let state = ref 0x243F6A8885A308D3 and itc = ref 0 in
  for _ = 1 to n do
    (* LCG with a monotone itc: deterministic, allocation-free, and
       time-ordered like a real PMU stream. *)
    state := (!state * 2685821657736338717) + 1442695040888963407;
    let bits = !state lsr 11 in
    itc := !itc + 1 + (bits land 7);
    Sample_store.append builder ~cpu:(bits mod cpus) ~itc:!itc
      ~line:(100 + ((bits lsr 17) mod lines))
  done;
  let store = Sample_store.build builder in
  let bin_path = Filename.temp_file "slo_cc_scale" ".samples.bin" in
  let txt_path = Filename.temp_file "slo_cc_scale" ".samples" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ bin_path; txt_path ])
  @@ fun () ->
  Persist.save_samples_bin ~path:bin_path store;
  Persist.save_store_text ~path:txt_path store;
  let file_bytes p =
    Int64.to_int (In_channel.with_open_bin p In_channel.length)
  in
  let bin_bytes = file_bytes bin_path and txt_bytes = file_bytes txt_path in
  let tstore, text_s =
    timed (fun () -> Persist.store_of_samples_file ~path:txt_path)
  in
  let mstore, bin_s =
    timed (fun () -> Persist.load_samples_bin ~path:bin_path)
  in
  (* Bigarray compare is the custom C one, so this is a memcmp-grade
     check, not a boxed walk. *)
  let stores_equal =
    Sample_store.length tstore = Sample_store.length mstore
    && Sample_store.columns tstore = Sample_store.columns mstore
  in
  let fold_pairs tables =
    tables
    |> List.fold_left
         (fun acc (_, tbl) ->
           Code_concurrency.merge acc (Code_concurrency.of_interval tbl))
         (Code_concurrency.create ())
    |> Code_concurrency.pairs
  in
  let ref_tables = bin_tables ~interval (Sample_store.iter mstore) in
  let ref_pairs = fold_pairs ref_tables in
  let rates wall bytes =
    [
      ("wall_s", Json.Float wall);
      ("samples_per_s", Json.Float (per_s n wall));
      ("bytes_per_s", Json.Float (per_s bytes wall));
    ]
  in
  let shuffled =
    let perm = Array.init n Fun.id and prng = Slo_util.Prng.create ~seed:7 in
    for i = n - 1 downto 1 do
      let j = Slo_util.Prng.int prng (i + 1) in
      let x = perm.(i) in
      perm.(i) <- perm.(j);
      perm.(j) <- x
    done;
    let b = Sample_store.builder ~capacity:n () in
    Array.iter
      (fun i ->
        Sample_store.append b ~cpu:(Sample_store.cpu mstore i)
          ~itc:(Sample_store.itc mstore i) ~line:(Sample_store.line mstore i))
      perm;
    Sample_store.build b
  in
  (* Line l becomes (l * 0x9E3779B1) mod 2^31: multiplying by an odd
     constant is a bijection on [0, 2^31), so the copy has the same
     samples per line, with ids far apart over the whole range. *)
  let sparse =
    let b = Sample_store.builder ~capacity:n () in
    for i = 0 to n - 1 do
      Sample_store.append b ~cpu:(Sample_store.cpu mstore i)
        ~itc:(Sample_store.itc mstore i)
        ~line:(Sample_store.line mstore i * 0x9E3779B1 land Sample.max_id)
    done;
    Sample_store.build b
  in
  let sparse_pairs =
    fold_pairs (bin_tables ~interval (Sample_store.iter sparse))
  in
  let pool_row ?(reference = ref_pairs) ~what store jobs =
    let compute pool =
      timed (fun () -> Code_concurrency.compute ?pool ~interval store)
    in
    let cm, wall =
      if jobs <= 1 then compute None
      else Pool.with_pool ~domains:jobs (fun p -> compute (Some p))
    in
    let identical = Code_concurrency.pairs cm = reference in
    ( (Printf.sprintf "%s CC = of_interval fold at pool %d" what jobs,
       identical),
      Json.Obj
        ((("jobs", Json.Int jobs) :: rates wall bin_bytes)
        @ [ ("identical", Json.Bool identical) ]) )
  in
  let pool_checks, rows =
    List.split (List.map (pool_row ~what:"columnar" mstore) [ 1; 2; 4 ])
  in
  let shuffled_checks, shuffled_rows =
    List.split (List.map (pool_row ~what:"shuffled" shuffled) [ 1; 2; 4 ])
  in
  let sparse_checks =
    List.map
      (fun jobs ->
        fst (pool_row ~reference:sparse_pairs ~what:"sparse-id" sparse jobs))
      [ 1; 2; 4 ]
  in
  let binary_vs_text =
    if per_s n text_s > 0.0 then per_s n bin_s /. per_s n text_s else 0.0
  in
  report
    ~checks:
      (("text-parsed store = binary-loaded store", stores_equal)
      :: (pool_checks @ shuffled_checks @ sparse_checks))
    ~note:
      (Printf.sprintf
         "%d generated samples on %d cpus x %d lines. binary_vs_text_x\n\
          is the samples/s of the mapped columns over the byte-scanned\n\
          text: the cost of decoding digits, as neither path allocates\n\
          per sample. Target: at least 3x."
         n cpus lines)
    [
      ( "peak_table_entries",
        Json.Int
          (List.fold_left
             (fun acc (_, tbl) -> max acc (Sample.entries tbl))
             0 ref_tables) );
      ( "columnar",
        Json.Obj
          [
            ("n_samples", Json.Int n);
            ("interval", Json.Int interval);
            ("bin_bytes", Json.Int bin_bytes);
            ("text_bytes", Json.Int txt_bytes);
            ("stores_equal", Json.Bool stores_equal);
            ("text", Json.Obj (rates text_s txt_bytes));
            ("binary", Json.Obj (rates bin_s bin_bytes));
            ("binary_vs_text_x", Json.Float binary_vs_text);
            ("rows", Json.List rows);
            ("shuffled_rows", Json.List shuffled_rows);
          ] );
    ]

(* ------------------------------------------------------------------ *)
(* Metaheuristic layout search (lib/search) over the kernel corpus: run
   the full portfolio per struct, require best >= greedy on the shared
   objective, then validate any strict objective win on the simulator by
   re-running the workload with the two layouts. *)

let run_layout_search ctx =
  let module Trap = Slo_workload.Trap in
  let counts = Collect.profile () in
  let samples = Collect.samples () in
  let params = Collect.calibrated_params in
  let restarts = if ctx.quick then 6 else 12 in
  let seed = 0 in
  let search ?params flg =
    Pipeline.search ?params ?pool:ctx.pool ~seed ~restarts
      ~selector:Optimizer.Portfolio flg
  in
  let kernel_structs =
    List.map
      (fun name ->
        let flg = Collect.flg ~params ~counts ~samples ~struct_name:name () in
        (name, search ~params flg))
      Kernel.struct_names
  in
  (* The greedy-trap workload (Slo_workload.Trap): a struct engineered so
     the Figure-7 clusterer is provably suboptimal on the shared
     objective. Here the search must win STRICTLY, and the win must show
     up as fewer simulated cycles. *)
  let trap = search (Trap.flg ()) in
  let per_struct = kernel_structs @ [ ("trap", trap) ] in
  let greedy (p : Optimizer.portfolio) = p.Optimizer.greedy.Optimizer.score in
  let best (p : Optimizer.portfolio) = p.Optimizer.best.Optimizer.score in
  (* Simulator validation: structs that improved on the objective re-run
     their workload with the greedy layout vs the best-found layout; the
     trap uses its own driver, kernel structs use SDET. *)
  let cfg =
    Sdet.default_config
      (Topology.superdome ~cpus:(if ctx.quick then 16 else 32) ())
  in
  let sdet_cycles layout =
    List.fold_left
      (fun acc seed ->
        let r = Sdet.run_once { cfg with Sdet.overrides = [ layout ]; seed } in
        acc + r.Machine.makespan)
      0 [ 1; 2; 3 ]
  in
  let sim_rows =
    List.filter_map
      (fun ((name, p) : string * Optimizer.portfolio) ->
        if best p > greedy p +. 1e-9 then
          let cycles =
            if name = "trap" then fun l -> Trap.measure_makespan l
            else sdet_cycles
          in
          let cg = cycles p.Optimizer.greedy.Optimizer.layout in
          let cb = cycles p.Optimizer.best.Optimizer.layout in
          Some (name, p.Optimizer.best.Optimizer.label, cg, cb)
        else None)
      per_struct
  in
  let wins = List.filter (fun (_, _, cg, cb) -> cb < cg) sim_rows in
  let confirmed = wins <> [] in
  let result (r : Optimizer.result) =
    candidate_json r.Optimizer.label r.Optimizer.score r.Optimizer.moves
  in
  let struct_row ((name, p) : string * Optimizer.portfolio) =
    Json.Obj
      [
        ("struct", Json.Str name);
        ("greedy_score", Json.Float (greedy p));
        ("best_score", Json.Float (best p));
        ("winner", Json.Str p.Optimizer.best.Optimizer.label);
        ("scoreboard", Json.List (List.map result p.Optimizer.scoreboard));
      ]
  in
  let sim_row (name, label, cg, cb) =
    Json.Obj
      [
        ("struct", Json.Str name);
        ("winner", Json.Str label);
        ("greedy_cycles", Json.Int cg);
        ("best_cycles", Json.Int cb);
        ("improved", Json.Bool (cb < cg));
      ]
  in
  let at_least_greedy (name, p) =
    ( Printf.sprintf "best >= greedy on %s (greedy %g, best %g)" name
        (greedy p) (best p),
      best p >= greedy p )
  in
  report
    ~checks:
      (List.map at_least_greedy kernel_structs
      @ [
          ( Printf.sprintf "best > greedy on trap (greedy %g, best %g)"
              (greedy trap) (best trap),
            best trap > greedy trap );
          ( Printf.sprintf
              "the simulator confirms an objective win (%d of %d)"
              (List.length wins) (List.length sim_rows),
            confirmed );
        ])
    ~note:
      (Printf.sprintf
         "Portfolio: greedy + swap + swap@decl + %d annealing restarts (seed \
          %d).\n\
          sim: greedy vs best layout, simulated cycles summed over seeds 1-3."
         restarts seed)
    [
      ("restarts", Json.Int restarts);
      ("seed", Json.Int seed);
      ("structs", Json.List (List.map struct_row per_struct));
      ("sim", Json.List (List.map sim_row sim_rows));
      ("sim_confirmed", Json.Bool confirmed);
    ]

(* ------------------------------------------------------------------ *)
(* Code-layout subsystem (lib/codelayout): the same search engine over a
   second substrate — basic blocks with CFG-edge affinities, bins are
   I-cache lines. Two gates: (1) the portfolio's best never scores below
   greedy or declaration order on the shared objective, and (2) the
   searched block order STRICTLY reduces simulated I-cache misses on the
   built-in trap workload. *)

let run_code_layout ctx =
  let module Codelayout = Slo_codelayout.Codelayout in
  let module Ctrap = Slo_workload.Ctrap in
  let capacity = Ctrap.icache.Coherence.i_line_size in
  let prob =
    Codelayout.of_program ~capacity (Ctrap.program ()) (Ctrap.profile ())
  in
  let blocks = Codelayout.blocks prob in
  let restarts = if ctx.quick then 4 else 8 in
  let seed = 0 in
  let pf =
    Codelayout.search ?pool:ctx.pool ~seed ~restarts prob
      Slo_search.Engine.Portfolio
  in
  let decl_score = Codelayout.score prob (Codelayout.decl_bins prob) in
  let g = pf.Codelayout.greedy.Codelayout.score in
  let b = pf.Codelayout.best.Codelayout.score in
  (* Simulator confirmation: the flat kernel's fetch path is on the line
     here, not just the objective. *)
  let cpus = 4 in
  let base_flat = Ctrap.run_sim ~cpus () in
  let opt_flat =
    Ctrap.run_sim ~cpus ~code_layout:pf.Codelayout.best.Codelayout.order ()
  in
  let imisses (r : Machine.result) = r.Machine.stats.Sim_stats.imisses in
  let confirmed = imisses opt_flat < imisses base_flat in
  let sim_row (r : Machine.result) =
    Json.Obj
      [
        ("imisses", Json.Int (imisses r));
        ("ifetches", Json.Int r.Machine.stats.Sim_stats.ifetches);
        ("imiss_rate", Json.Float (Sim_stats.imiss_rate r.Machine.stats));
        ("istall_cycles", Json.Int r.Machine.stats.Sim_stats.istall_cycles);
        ("makespan", Json.Int r.Machine.makespan);
      ]
  in
  let result (r : Codelayout.result) =
    candidate_json r.Codelayout.label r.Codelayout.score r.Codelayout.moves
  in
  report
    ~checks:
      [
        ( Printf.sprintf
            "best >= greedy and declaration order (best %g, greedy %g, \
             declaration %g)"
            b g decl_score,
          b >= g && b >= decl_score );
        ( Printf.sprintf
            "searched order has fewer I-cache misses (declaration %d, \
             searched %d)"
            (imisses base_flat) (imisses opt_flat),
          confirmed );
      ]
    ~note:
      (Printf.sprintf
         "Portfolio: greedy + swap + %d annealing restarts (seed %d); the\n\
          simulator's I-cache has %d lines of %dB."
         restarts seed Ctrap.icache.Coherence.i_lines capacity)
    [
      ("capacity", Json.Int capacity);
      ("blocks", Json.Int (List.length blocks));
      ("active", Json.Int (Array.length (Codelayout.active prob)));
      ("edges", Json.Int (Codelayout.num_edges prob));
      ("restarts", Json.Int restarts);
      ("seed", Json.Int seed);
      ("decl_score", Json.Float decl_score);
      ("greedy_score", Json.Float g);
      ("best_score", Json.Float b);
      ("winner", Json.Str pf.Codelayout.best.Codelayout.label);
      ("scoreboard", Json.List (List.map result pf.Codelayout.scoreboard));
      ( "sim",
        Json.Obj
          [
            ("cpus", Json.Int cpus);
            ("declaration", sim_row base_flat);
            ("best", sim_row opt_flat);
          ] );
      ("sim_confirmed", Json.Bool confirmed);
    ]

(* ------------------------------------------------------------------ *)
(* The flat memory-system kernel against its spec, plus its throughput:
   (1) identity — SDET access traces recorded across protocols and
   topologies (including a >62-CPU machine that exercises the multi-word
   sharer masks) replay through the kernel and through the pure spec with
   identical per-access latencies and final per-CPU statistics; (2)
   parallel fan-out over Exec.Pool stays byte-identical for pool sizes
   1/2/4; (3) kernel throughput on the SDET trace (accesses/s, misses/s by
   class), reported but not gated; (4) the same identity and throughput
   under the multi-level hierarchy, and the NUMA-trap demo. *)

let run_sim_scale ctx =
  let module Spec = Slo_sim.Spec in
  let module Ntrap = Slo_workload.Ntrap in
  let base ~cpus = Sdet.default_config (Topology.superdome ~cpus ()) in
  (* Replay a recorded trace through a fresh kernel and a fresh spec side
     by side: identical iff every access costs the same and the final
     per-CPU statistics agree. *)
  let spec_identical ?hierarchy (cfg : Sdet.config) trace =
    let k =
      Coherence.create cfg.Sdet.topology ~line_size:Kernel.line_size
        ~cache_capacity:cfg.Sdet.cache_lines ~protocol:cfg.Sdet.protocol
        ?hierarchy ()
    and s =
      Spec.create cfg.Sdet.topology ~line_size:Kernel.line_size
        ~cache_capacity:cfg.Sdet.cache_lines ~protocol:cfg.Sdet.protocol
        ?hierarchy ()
    in
    Array.for_all
      (fun (ev : Machine.trace_event) ->
        let cpu = ev.Machine.t_cpu and addr = ev.Machine.t_addr in
        let size = ev.Machine.t_size and is_write = ev.Machine.t_is_write in
        Coherence.access k ~cpu ~addr ~size ~is_write
        = Spec.access s ~cpu ~addr ~size ~is_write)
      trace
    && List.for_all
         (fun cpu -> Coherence.stats k ~cpu = Spec.stats s ~cpu)
         (List.init (Topology.num_cpus cfg.Sdet.topology) Fun.id)
  in
  (* 1. Identity across protocols / topologies. Superdome-64 exceeds the
     62-bit mask word, so the kernel's multi-word fallback is on the line
     here, not just in the unit tests. *)
  let identity_cases =
    [
      ( "superdome16 MESI sampled+traced",
        { (base ~cpus:16) with Sdet.reps = 8; sample_period = Some 500 } );
      ( "superdome64 MOESI multi-word masks",
        { (base ~cpus:64) with Sdet.reps = 4; protocol = Coherence.Moesi } );
      ( "bus4 MESI small cache (evictions)",
        { (Sdet.default_config (Topology.bus ~cpus:4 ())) with
          Sdet.reps = 10; cache_lines = 64 } );
    ]
  in
  let identity_case (name, cfg) =
    let r = Sdet.run_once { cfg with Sdet.trace = true } in
    let identical = spec_identical cfg (Array.of_list r.Machine.trace) in
    let st = r.Machine.stats in
    ( ("kernel = spec on " ^ name, identical),
      Json.Obj
        [
          ("case", Json.Str name);
          ("makespan", Json.Int r.Machine.makespan);
          ("accesses", Json.Int (st.Sim_stats.loads + st.Sim_stats.stores));
          ("identical", Json.Bool identical);
        ] )
  in
  let identity_checks, identity_rows =
    List.split (List.map identity_case identity_cases)
  in
  (* 2. Parallel multi-config fan-out over Exec.Pool: byte-identical
     results for pool sizes 1, 2 and 4. *)
  let pool_cfg = { (base ~cpus:8) with Sdet.reps = 6 } in
  let pool_seeds = [ 1; 2; 3; 4; 5; 6 ] in
  let run_seed seed = Sdet.run_once { pool_cfg with Sdet.seed } in
  let serial = List.map run_seed pool_seeds in
  let pool_sizes = [ 1; 2; 4 ] in
  let pool_checks =
    List.map
      (fun n ->
        let rs =
          Pool.with_pool ~domains:n (fun p -> Pool.map p run_seed pool_seeds)
        in
        (Printf.sprintf "pool fan-out = serial runs at %d domains" n,
         rs = serial))
      pool_sizes
  in
  (* 3. Memory-system throughput: record SDET's access trace once, intern
     its lines once, then replay it through the kernel's id entry point —
     the path the machine drives — isolating the memory system from the
     interpreter around it. End-to-end simulation wall time is reported
     alongside as context. Both are information, not gates. *)
  let cpus = if ctx.quick then 16 else 32 in
  let reps = if ctx.quick then 12 else 30 in
  let runs = if ctx.quick then 4 else 8 in
  let replays = if ctx.quick then 10 else 20 in
  let cfg = { (base ~cpus) with Sdet.reps } in
  let trace =
    Array.of_list (Sdet.run_once { cfg with Sdet.trace = true }).Machine.trace
  in
  let replay ?hierarchy () =
    let coh =
      Coherence.create cfg.Sdet.topology ~line_size:Kernel.line_size
        ~cache_capacity:cfg.Sdet.cache_lines ~protocol:cfg.Sdet.protocol
        ?hierarchy ()
    in
    let lsize = Kernel.line_size in
    let ids =
      Array.map
        (fun (ev : Machine.trace_event) ->
          Coherence.intern coh ~line:(ev.Machine.t_addr / lsize))
        trace
    and offs =
      Array.map (fun (ev : Machine.trace_event) -> ev.Machine.t_addr mod lsize) trace
    in
    let (), wall =
      timed (fun () ->
          for _rep = 1 to replays do
            Array.iteri
              (fun i (ev : Machine.trace_event) ->
                ignore
                  (Coherence.access_id coh ~cpu:ev.Machine.t_cpu ~id:ids.(i)
                     ~off:offs.(i) ~size:ev.Machine.t_size
                     ~is_write:ev.Machine.t_is_write))
              trace
          done)
    in
    (Coherence.total_stats coh, wall)
  in
  let identical = spec_identical cfg trace in
  let flat_totals, flat_wall = replay () in
  (* End-to-end simulation wall time (interpreter + memory system), the
     step loop's cost per executed instruction or terminator, and the
     instructions and terminators executed per calendar pop. *)
  let steps_before = Obs.counter "sim.steps" in
  let pops_before = Obs.counter "sim.pops" in
  let (), sim_wall =
    timed (fun () ->
        List.iter
          (fun seed -> ignore (Sdet.run_once { cfg with Sdet.seed }))
          (List.init runs (fun i -> cfg.Sdet.seed + i)))
  in
  let steps = Obs.counter "sim.steps" - steps_before in
  let pops = Obs.counter "sim.pops" - pops_before in
  let ns_per_step =
    if steps > 0 then sim_wall *. 1e9 /. float_of_int steps else 0.0
  in
  let kernel_counted = Obs.counter "sim.kernel.runs" > 0 in
  let accesses st = st.Sim_stats.loads + st.Sim_stats.stores in
  let kernel_json st wall =
    let misses n = Json.Float (per_s n wall) in
    Json.Obj
      [
        ("wall_s", Json.Float wall);
        ("accesses_per_s", Json.Float (per_s (accesses st) wall));
        ( "misses_per_s",
          Json.Obj
            [
              ("cold", misses st.Sim_stats.cold_misses);
              ("capacity", misses st.Sim_stats.capacity_misses);
              ("true_sharing", misses st.Sim_stats.true_sharing_misses);
              ("false_sharing", misses st.Sim_stats.false_sharing_misses);
            ] );
      ]
  in
  (* 4. Multi-level hierarchy: the same trace with private L1s and
     per-cell victim LLCs in front of the coherent caches. Gated on
     kernel = spec identity; the throughput relative to the single-level
     kernel is reported as information. *)
  let hier = Ntrap.hierarchy in
  let hier_identical = spec_identical ~hierarchy:hier cfg trace in
  let hier_totals, hier_wall = replay ~hierarchy:hier () in
  let flat_rate = per_s (accesses flat_totals) flat_wall in
  let single_level_ratio =
    if flat_rate > 0.0 then per_s (accesses hier_totals) hier_wall /. flat_rate
    else 0.0
  in
  (* 5. The NUMA trap demo: the hierarchy-aware objective must strictly
     beat the distance-blind one in simulated cycles on the 128-CPU
     Superdome, and must not lose on the 4-CPU bus (where the two
     objectives pick the same layout and the makespans are a wash). *)
  let demo topo name ~strict =
    let mk_hier = Ntrap.measure_makespan ~topo (Ntrap.layout_hier topo) in
    let mk_flat = Ntrap.measure_makespan ~topo (Ntrap.layout_flat topo) in
    let win_pct =
      if mk_flat > 0 then
        100.0 *. (1.0 -. (float_of_int mk_hier /. float_of_int mk_flat))
      else 0.0
    in
    ( ( Printf.sprintf "hierarchy-aware layout %s flat on %s (%d vs %d cycles)"
          (if strict then "beats" else "does not lose to")
          name mk_hier mk_flat,
        if strict then mk_hier < mk_flat else mk_hier <= mk_flat ),
      ( name,
        Json.Obj
          [
            ("hier_cycles", Json.Int mk_hier);
            ("flat_cycles", Json.Int mk_flat);
            ("win_pct", Json.Float win_pct);
            ("strict_win_required", Json.Bool strict);
          ] ) )
  in
  let sd_check, sd =
    demo (Topology.superdome ~cpus:128 ()) "superdome128" ~strict:true
  in
  let bus_check, bus = demo (Topology.bus ~cpus:4 ()) "bus4" ~strict:false in
  let llc_counted = Obs.counter "sim.llc.runs" > 0 in
  report
    ~checks:
      (identity_checks @ pool_checks
      @ [
          ("kernel = spec on the replayed SDET trace", identical);
          ("sim.kernel.* obs counters moved", kernel_counted);
          ( "multi-level kernel = spec on the replayed SDET trace",
            hier_identical );
          sd_check;
          bus_check;
          ("sim.llc.* obs counters moved", llc_counted);
        ])
    [
      ("cpus", Json.Int cpus);
      ("reps", Json.Int reps);
      ("runs", Json.Int runs);
      ("trace_accesses", Json.Int (Array.length trace));
      ("replays", Json.Int replays);
      ("identity", Json.List identity_rows);
      ("identical", Json.Bool identical);
      ( "pool",
        Json.Obj
          [
            ("sizes", Json.List (List.map (fun n -> Json.Int n) pool_sizes));
            ("identical", Json.Bool (List.for_all snd pool_checks));
          ] );
      ("kernel", kernel_json flat_totals flat_wall);
      ( "sim_end_to_end",
        Json.Obj
          [
            ("kernel_wall_s", Json.Float sim_wall);
            ("steps", Json.Int steps);
            ("ns_per_step", Json.Float ns_per_step);
            ("pops", Json.Int pops);
            ( "steps_per_pop",
              Json.Float
                (if pops > 0 then float_of_int steps /. float_of_int pops
                 else 0.0) );
          ] );
      ("kernel_runs_counter", Json.Int (Obs.counter "sim.kernel.runs"));
      ( "hierarchy",
        Json.Obj
          [
            ("l1_lines", Json.Int hier.Coherence.h_l1_lines);
            ("llc_lines", Json.Int hier.Coherence.h_llc_lines);
            ("identical", Json.Bool hier_identical);
            ( "hits",
              Json.Obj
                [
                  ("l1", Json.Int hier_totals.Sim_stats.l1_hits);
                  ("l2", Json.Int hier_totals.Sim_stats.l2_hits);
                  ("llc_local", Json.Int hier_totals.Sim_stats.llc_local_hits);
                  ( "llc_remote",
                    Json.Int hier_totals.Sim_stats.llc_remote_hits );
                ] );
            ("kernel", kernel_json hier_totals hier_wall);
            ("single_level_ratio", Json.Float single_level_ratio);
            ("demo", Json.Obj [ sd; bus ]);
            ("llc_runs_counter", Json.Int (Obs.counter "sim.llc.runs"));
          ] );
    ]

(* ------------------------------------------------------------------ *)
(* Exhaustive model checking: every pinned small configuration explored
   breadth-first with the kernel checked against the spec and the trace
   oracle on every edge, plus two deliberately broken protocol tables the
   invariant net must catch. *)

let run_model_check _ctx =
  let module Mc = Slo_sim.Modelcheck in
  let config (cfg, pin) =
    let name = Mc.config_name cfg in
    match Mc.run cfg with
    | r ->
      ( ( Printf.sprintf "%s: %d states, pinned %d" name r.Mc.r_states pin,
          r.Mc.r_states = pin ),
        Some
          (Json.Obj
             [
               ("config", Json.Str name);
               ("states", Json.Int r.Mc.r_states);
               ("pinned", Json.Int pin);
               ("transitions", Json.Int r.Mc.r_transitions);
               ("max_depth", Json.Int r.Mc.r_max_depth);
               ("max_frontier", Json.Int r.Mc.r_max_frontier);
               ("oracle_traces", Json.Int r.Mc.r_oracle_traces);
               ("ok", Json.Bool (r.Mc.r_states = pin));
             ]) )
    | exception Mc.Violation { vmsg; vtrace } ->
      ( ( Printf.sprintf "%s: invariant violated: %s (%d-step witness)" name
            vmsg (List.length vtrace),
          false ),
        None )
  in
  let config_checks, rows = List.split (List.map config Mc.standard_suite) in
  let mutation (name, m) =
    match Mc.run ~mutate:m (Mc.config ()) with
    | _ -> (("mutation " ^ name ^ " caught", false), None)
    | exception Mc.Violation { vmsg; vtrace } ->
      let steps = List.length vtrace in
      ( ( Printf.sprintf "mutation %s caught: %s (%d-step witness)" name vmsg
            steps,
          true ),
        Some
          (Json.Obj
             [
               ("mutation", Json.Str name);
               ("caught", Json.Bool true);
               ("witness_steps", Json.Int steps);
               ("message", Json.Str vmsg);
             ]) )
  in
  let mutation_checks, mutation_rows =
    List.split
      (List.map mutation
         [
           ("read_keeps_modified", Mc.Read_keeps_modified);
           ("skip_last_invalidation", Mc.Skip_last_invalidation);
         ])
  in
  report
    ~checks:(config_checks @ mutation_checks)
    [
      ("configs", Json.List (List.filter_map Fun.id rows));
      ("mutations", Json.List (List.filter_map Fun.id mutation_rows));
      ("all_pinned", Json.Bool (List.for_all snd config_checks));
      ("states_counter", Json.Int (Obs.counter "sim.mc.states"));
      ("transitions_counter", Json.Int (Obs.counter "sim.mc.transitions"));
      ("runs_counter", Json.Int (Obs.counter "sim.mc.runs"));
    ]

(* ------------------------------------------------------------------ *)
(* Always-on layout service: drive a running serve daemon with a phased,
   multi-client feed of the kernel corpus's PMU samples, then check the
   identities the service rests on: (1) the sliding window, which retires
   an interval by popping its entry and table from its ring, equals a
   from-scratch re-bin of the final window's samples, (2)
   at least one drift-triggered re-search published a new versioned
   layout, (3) a snapshot/restore round trip is byte-identical and (4) a
   forced re-search on the restored server reproduces the suggestion
   exactly. *)

let run_serve ctx =
  let module Serve = Slo_serve.Serve in
  let module Window = Slo_serve.Window in
  let program = Kernel.program () in
  let counts = Collect.profile () in
  let base = Collect.samples () in
  let params = Collect.calibrated_params in
  let interval = params.Pipeline.cc_interval in
  let itcs = List.map (fun (s : Sample.t) -> s.Sample.itc) base in
  let lo = List.fold_left min max_int itcs in
  let hi = List.fold_left max min_int itcs in
  let span = (((hi - lo) / interval) + 2) * interval in
  (* window = two phases of the feed, like the CLI default: every phase
     slides it, so intervals retire throughout the run *)
  let window = max 1 (2 * span / interval) in
  let clients = 4 and phases = if ctx.quick then 4 else 8 in
  (* above the window's ~11% phase-boundary oscillation, below the ~86%
     workload shift: re-search fires on the shift and only the shift *)
  let drift_threshold = 0.2 in
  let cfg =
    { Serve.interval; window; decay = 0.9; drift_threshold; min_samples = 64;
      queue_capacity = 8; params; program; counts; struct_name = "A";
      selector = Optimizer.Portfolio; seed = 11;
      restarts = (if ctx.quick then 2 else 4) }
  in
  (* Phased feed: each phase shifts the whole base stream forward by a
     whole number of intervals; halfway through, lines rotate to a
     different sharing pattern so the weighted CC drifts. Per-phase batch
     construction fans out over the pool — the "many concurrent clients". *)
  let lines =
    List.sort_uniq compare (List.map (fun (s : Sample.t) -> s.Sample.line) base)
  in
  let line_arr = Array.of_list lines in
  let nl = Array.length line_arr in
  let line_pos = Hashtbl.create nl in
  Array.iteri (fun i l -> Hashtbl.replace line_pos l i) line_arr;
  let base_arr = Array.of_list base in
  let batch_of ~phase client =
    let rot = if 2 * phase >= phases then nl / 2 else 0 in
    Array.map
      (fun (s : Sample.t) ->
        let line =
          if rot = 0 then s.Sample.line
          else line_arr.((Hashtbl.find line_pos s.Sample.line + rot) mod nl)
        in
        { s with Sample.itc = s.Sample.itc + (phase * span) + client; line })
      base_arr
  in
  let client_list = List.init clients Fun.id in
  let t = Serve.create cfg in
  let submitted = ref [] (* every batch, reverse submission order *) in
  Serve.run t;
  let (), ingest_wall =
    timed (fun () ->
        for phase = 0 to phases - 1 do
          let batches =
            match ctx.pool with
            | Some p -> Pool.map p (batch_of ~phase) client_list
            | None -> List.map (batch_of ~phase) client_list
          in
          List.iter
            (fun b ->
              submitted := b :: !submitted;
              ignore (Serve.submit_wait t b))
            batches
        done;
        Serve.stop t)
  in
  let n_batches = phases * clients in
  let n_samples = n_batches * Array.length base_arr in
  let w = Serve.window t in
  let canon =
    List.map (fun (idx, tbl) ->
        (idx, Sample.total_samples tbl, Sample.rows tbl))
  in
  (* 1: the window maintained by retiring intervals = re-binning from
     scratch. A sample survives in the window iff its interval is inside
     the final window, so the direct bin of exactly those samples must
     match. *)
  let newest = match Window.newest w with Some n -> n | None -> 0 in
  let direct =
    bin_tables ~interval (fun f ->
        List.iter
          (Array.iter (fun (s : Sample.t) ->
               let idx = Sample.floor_div s.Sample.itc interval in
               if not (Sample.below_watermark ~newest ~window idx) then f s))
          (List.rev !submitted))
  in
  let rebin_identical = canon (Window.tables w) = canon direct in
  (* 2: the workload shift must have triggered a drift re-search. *)
  let pubs = Serve.publications t in
  let drift_triggered =
    List.exists
      (fun (p : Serve.publication) ->
        p.Serve.version > 1 && p.Serve.pub_drift > drift_threshold)
      pubs
  in
  (* 3 and 4: kill-then-restore. Snapshot, restore into a fresh server,
     snapshot again: bytes must match (canonical row order), and a forced
     re-search on both must produce the same CC and the same layout. *)
  let snap1 = Filename.temp_file "slo_serve" ".snap" in
  let snap2 = Filename.temp_file "slo_serve" ".snap" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ snap1; snap2 ])
  @@ fun () ->
  Serve.snapshot t ~path:snap1;
  let t' = Serve.restore cfg ~path:snap1 in
  Serve.snapshot t' ~path:snap2;
  let read_raw p = In_channel.with_open_bin p In_channel.input_all in
  let snapshot_identical = read_raw snap1 = read_raw snap2 in
  let a = Serve.research t and b = Serve.research t' in
  let research_identical =
    a.Serve.cc_pairs = b.Serve.cc_pairs
    && a.Serve.best.Optimizer.blocks = b.Serve.best.Optimizer.blocks
    && a.Serve.best.Optimizer.score = b.Serve.best.Optimizer.score
  in
  let hist name =
    match Obs.histogram name with
    | Some s -> (s.Obs.count, s.Obs.p50, s.Obs.p99)
    | None -> (0, 0.0, 0.0)
  in
  let _, i_p50, i_p99 = hist "serve.ingest_s" in
  let r_count, _, r_p99 = hist "serve.research_s" in
  report
    ~checks:
      [
        ("retire-by-drop window = re-bin from scratch", rebin_identical);
        ("the workload shift triggered a drift re-search", drift_triggered);
        ("snapshot round trip is byte-identical", snapshot_identical);
        ( Printf.sprintf
            "restored re-search reproduces the suggestion (score %g)"
            b.Serve.best.Optimizer.score,
          research_identical );
      ]
    [
      ("interval", Json.Int interval);
      ("window", Json.Int window);
      ("clients", Json.Int clients);
      ("phases", Json.Int phases);
      ("batches", Json.Int n_batches);
      ("samples", Json.Int n_samples);
      ("samples_per_s", Json.Float (per_s n_samples ingest_wall));
      ("ingest_p50_s", Json.Float i_p50);
      ("ingest_p99_s", Json.Float i_p99);
      ("research_count", Json.Int r_count);
      ("research_p99_s", Json.Float r_p99);
      ("publications", Json.Int (List.length pubs));
      ( "versions",
        Json.List
          (List.map
             (fun (p : Serve.publication) -> Json.Int p.Serve.version)
             pubs) );
      ("live_samples", Json.Int (Window.live_samples w));
      ("live_intervals", Json.Int (Window.live_intervals w));
      ("retired_intervals", Json.Int (Window.retired w));
      ("late_samples", Json.Int (Window.late w));
      ("dropped_batches", Json.Int (Serve.dropped_batches t));
      ("rebin_identical", Json.Bool rebin_identical);
      ("drift_triggered", Json.Bool drift_triggered);
      ("snapshot_identical", Json.Bool snapshot_identical);
      ("research_identical", Json.Bool research_identical);
    ]

(* ------------------------------------------------------------------ *)
(* The runner: the only code that prints, writes artifacts or sets the
   exit status. *)

let sections =
  [
    ("topology", "§5.1: machine characterization", run_topology);
    ("fig8", "Figure 8: automatic layout vs sort-by-hotness", run_fig8);
    ("fig10", "Figure 10: best layout per struct", run_fig10);
    ("fig9", "Figure 9: same layouts on the 4-way bus machine", run_fig9);
    ( "ccstability", "§4.3: CodeConcurrency stability across machine sizes",
      run_cc_stability );
    ("gvl", "Extension: Global Variable Layout (paper §7)", run_gvl);
    ( "accumulation", "§5.2: are the per-struct improvements accumulative?",
      run_accumulation );
    ("oracle", "§3: trace oracle vs CodeConcurrency", run_oracle);
    ("userapp", "Prediction check: an untuned user app", run_userapp);
    ( "ablation-k2", "Ablation 1: k2 (CycleLoss scale) sweep on struct A",
      run_ablation_k2 );
    ( "ablation-sampling", "Ablation 2: PMU sampling period vs layout quality",
      run_ablation_sampling );
    ( "ablation-clustering", "Ablation 3: clustering policies on struct A",
      run_ablation_clustering );
    ( "ablation-machines", "Ablation 4: false-sharing penalty vs machine size",
      run_ablation_machines );
    ( "ablation-protocol", "Ablation 5: MESI vs MOESI on the SDET workload",
      run_ablation_protocol );
    ( "layout_search", "layout_search: metaheuristic portfolio vs greedy",
      run_layout_search );
    ( "code_layout", "code_layout: block-affinity search vs declaration order",
      run_code_layout );
    ("cc_scale", "cc_scale: columnar CC ingestion", run_cc_scale);
    ("sim_scale", "sim_scale: flat memory kernel vs spec", run_sim_scale);
    ( "model_check", "model_check: exhaustive small-config coherence check",
      run_model_check );
    ("serve", "serve: always-on layout service", run_serve);
    ("smoke", "Smoke: parallel pipeline = serial pipeline", run_smoke);
  ]

(* Rendering [data]: a scalar prints as [key value], an object as an
   indented block, a list of objects as a table headed by the first row's
   keys (a list inside a row prints as its length; the artifact has it
   all). *)
let cell = function
  | Json.Str s -> s
  | Json.Int n -> string_of_int n
  | Json.Float f -> Printf.sprintf "%g" f
  | j -> Json.to_string j

let print_table indent rows =
  let keys = match rows with r :: _ -> List.map fst r | [] -> [] in
  let row_cell r k =
    match List.assoc_opt k r with
    | Some (Json.List l) -> Printf.sprintf "[%d]" (List.length l)
    | Some v -> cell v
    | None -> ""
  in
  let lines = keys :: List.map (fun r -> List.map (row_cell r) keys) rows in
  let widths =
    List.fold_left
      (List.map2 (fun w c -> max w (String.length c)))
      (List.map (fun _ -> 0) keys)
      lines
  in
  (* the first column reads as a label, the rest right-align *)
  let pad i w c =
    if i = 0 then Printf.sprintf "%-*s" w c else Printf.sprintf "%*s" w c
  in
  List.iter
    (fun line ->
      Printf.printf "%s%s\n" indent
        (String.concat "  "
           (List.mapi (fun i (w, c) -> pad i w c) (List.combine widths line))))
    lines

let rec print_data indent kvs =
  let width = List.fold_left (fun w (k, _) -> max w (String.length k)) 0 kvs in
  List.iter
    (fun (k, v) ->
      match v with
      | Json.Obj kvs ->
        Printf.printf "%s%s:\n" indent k;
        print_data (indent ^ "  ") kvs
      | Json.List (Json.Obj _ :: _ as rows) ->
        Printf.printf "%s%s:\n" indent k;
        print_table (indent ^ "  ")
          (List.map (function Json.Obj r -> r | _ -> []) rows)
      | v -> Printf.printf "%s%-*s %s\n" indent width k (cell v))
    kvs

(* The commit an artifact describes: SLO_GIT_REV if set, else what
   `git rev-parse` resolves, else "unknown". Never raises, and records
   nothing but a hex id, the override or the sentinel. *)
let git_rev () =
  match Sys.getenv_opt "SLO_GIT_REV" with
  | Some r when r <> "" -> r
  | _ -> (
    let is_hex s =
      s <> "" && String.for_all (String.contains "0123456789abcdef") s
    in
    match
      let ic = Unix.open_process_in "git rev-parse --verify HEAD 2>/dev/null" in
      let line = In_channel.input_line ic in
      (Unix.close_process_in ic, line)
    with
    | Unix.WEXITED 0, Some id when is_hex id -> id
    | _ -> "unknown"
    | exception (Unix.Unix_error _ | Sys_error _) -> "unknown")

let write_json path j =
  Persist.atomic_write ~path (fun oc -> output_string oc (Json.pretty j))

(* Section [name]'s artifact under --json [manifest]: BENCH_<name>.json
   beside it. Each artifact names the manifest it was written with, so a
   run refuses, before any section, to replace one that another --json
   path wrote into the same directory; a re-run with the same PATH
   replaces its own. *)
let artifact_path manifest name =
  Filename.concat (Filename.dirname manifest) ("BENCH_" ^ name ^ ".json")

(* [Some true] if section [name]'s artifact beside [manifest] names it,
   [Some false] if another manifest's, [None] if there is none. *)
let own_artifact manifest name =
  let path = artifact_path manifest name in
  if not (Sys.file_exists path) then None
  else
    match Json.of_string (In_channel.with_open_bin path In_channel.input_all) with
    | Ok j -> Some (Json.member j "manifest" = Some (Json.Str (Filename.basename manifest)))
    | Error _ -> Some false

let artifact ctx ~rev ~manifest ~name ~wall r =
  (* At one job no batch runs in parallel: utilization defaults to 1.0. *)
  let utilization =
    Option.value (Obs.gauge "pool.utilization") ~default:1.0
  in
  Json.Obj
    [
      ("schema", Json.Str "slo-bench/1");
      ("section", Json.Str name);
      ("manifest", Json.Str (Filename.basename manifest));
      ("git_rev", Json.Str rev);
      ("jobs", Json.Int ctx.jobs);
      ("quick", Json.Bool ctx.quick);
      ("wall_s", Json.Float wall);
      ("data", Json.Obj r.data);
      ( "checks",
        Json.List
          (List.map
             (fun (n, ok) ->
               Json.Obj [ ("name", Json.Str n); ("ok", Json.Bool ok) ])
             r.checks) );
      ("metrics", Obs.to_json ());
      ( "pool",
        Json.Obj
          [
            ("jobs", Json.Int ctx.jobs);
            ("tasks", Json.Int (Obs.counter "pool.tasks"));
            ("batches", Json.Int (Obs.counter "pool.batches"));
            ("utilization", Json.Float utilization);
          ] );
    ]

(* Run [chosen] (every section if empty); under --json PATH, each section
   writes BENCH_<section>.json beside PATH, and PATH gets a manifest that
   lists every artifact there that names it: this run's sections and
   those of earlier runs with the same PATH. The exit status is 1 if any
   check failed, and 2, before any section runs, if an artifact another
   --json path wrote is in the way. *)
let main quick jobs json chosen =
  let chosen = if chosen = [] then sections else chosen in
  let in_the_way =
    match json with
    | None -> []
    | Some m ->
      List.filter_map
        (fun (name, _, _) ->
          if own_artifact m name = Some false then Some (artifact_path m name) else None)
        chosen
  in
  if in_the_way <> [] then begin
    List.iter
      (Printf.eprintf
         "bench: %s was written by another --json path; remove it or write \
          into another directory\n")
      in_the_way;
    2
  end
  else
  let jobs = match jobs with Some j -> j | None -> Pool.default_jobs () in
  let with_pool f =
    if jobs <= 1 then f None
    else Pool.with_pool ~domains:jobs (fun p -> f (Some p))
  in
  with_pool @@ fun pool ->
  let layouts = lazy (Exp.analyze_all ?pool ()) in
  let rec ctx = { quick; jobs; pool; layouts; fig8 }
  and fig8 =
    lazy
      (Exp.fig8 ~runs:(runs ctx) ~cpus:(big_cpus ctx) ?pool
         (Lazy.force layouts))
  in
  let rev = lazy (git_rev ()) in
  let rule = String.make 62 '=' in
  Printf.printf
    "Structure Layout Optimization for Multithreaded Programs (CGO 2007)\n";
  Printf.printf "benchmark harness%s, %d job%s\n%!"
    (if quick then " (quick mode)" else "")
    jobs
    (if jobs = 1 then "" else "s");
  let run (name, title, f) =
    Printf.printf "\n%s\n%s\n%s\n%!" rule title rule;
    let r, wall = timed (fun () -> f ctx) in
    print_data "" r.data;
    if r.note <> "" then Printf.printf "\n%s\n" r.note;
    if r.checks <> [] then print_newline ();
    List.iter
      (fun (c, ok) ->
        Printf.printf "%-6s %s\n" (if ok then "ok" else "FAILED") c)
      r.checks;
    flush stdout;
    Option.iter
      (fun manifest ->
        write_json (artifact_path manifest name)
          (artifact ctx ~rev:(Lazy.force rev) ~manifest ~name ~wall r))
      json;
    (name, List.filter (fun (_, ok) -> not ok) r.checks)
  in
  let results = List.map run chosen in
  Option.iter
    (fun manifest ->
      let named =
        List.filter_map
          (fun (name, _, _) ->
            if own_artifact manifest name = Some true then Some name else None)
          sections
      in
      write_json manifest
        (Json.Obj
           [
             ("schema", Json.Str "slo-bench-manifest/1");
             ("git_rev", Json.Str (Lazy.force rev));
             ("jobs", Json.Int jobs);
             ("quick", Json.Bool quick);
             ("sections", Json.List (List.map (fun n -> Json.Str n) named));
             ( "artifacts",
               Json.List
                 (List.map (fun n -> Json.Str (artifact_path manifest n)) named) );
           ]))
    json;
  let failed =
    List.concat_map
      (fun (name, fs) -> List.map (fun (c, _) -> name ^ ": " ^ c) fs)
      results
  in
  List.iter (Printf.eprintf "FAILED %s\n") failed;
  if failed = [] then 0 else 1

(* An unknown section name, a non-positive --jobs and a --json path in a
   missing directory are command-line errors: Cmdliner reports them and
   exits with its cli-error status (124) before any section runs. *)
let () =
  let open Cmdliner in
  let positive =
    let parse s =
      match int_of_string_opt s with
      | Some j when j >= 1 -> Ok j
      | Some _ | None ->
        Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
    in
    Arg.conv ~docv:"N" (parse, Format.pp_print_int)
  in
  let json_path =
    let parse p =
      let dir = Filename.dirname p in
      if Sys.file_exists dir && Sys.is_directory dir then Ok p
      else Error (`Msg (Printf.sprintf "no such directory: %S" dir))
    in
    Arg.conv ~docv:"PATH" (parse, Format.pp_print_string)
  in
  let quick_arg =
    Arg.(
      value & flag
      & info [ "quick" ] ~doc:"smaller machines and fewer runs per section")
  in
  let jobs_arg =
    Arg.(
      value
      & opt (some positive) None
      & info [ "jobs" ] ~docv:"N"
          ~env:(Cmd.Env.info "SLO_JOBS")
          ~doc:
            "worker domains for independent simulator runs and per-struct \
             analyses (default: the recommended domain count). Results are \
             identical for every N.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some json_path) None
      & info [ "json" ] ~docv:"PATH"
          ~doc:
            "write a manifest to $(docv) and one BENCH_<section>.json \
             artifact per section beside it. The manifest lists every \
             artifact there written with $(docv), by this run or an \
             earlier one. An artifact that another $(docv) wrote into the \
             same directory is never replaced: the run exits 2 before any \
             section.")
  in
  let sections_arg =
    Arg.(
      value
      & pos_all (enum (List.map (fun ((n, _, _) as s) -> (n, s)) sections)) []
      & info [] ~docv:"SECTION" ~doc:"sections to run (default: all)")
  in
  let exits =
    [
      Cmd.Exit.info 1 ~doc:"if a section's check failed.";
      Cmd.Exit.info 2
        ~doc:
          "if a BENCH_<section>.json beside the --json path was written with \
           another --json path (no section runs).";
    ]
  in
  exit
    (Cmd.eval'
       (Cmd.v
          (Cmd.info "main" ~exits:(exits @ Cmd.Exit.defaults)
             ~doc:"paper figures, ablations and scale checks")
          Term.(const main $ quick_arg $ jobs_arg $ json_arg $ sections_arg)))
