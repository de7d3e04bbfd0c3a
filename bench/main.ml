(* Benchmark harness: regenerates every figure of the paper's evaluation
   (Figures 8, 9, 10), the §4.3 CC-stability claim and the §5.1 machine
   characterization, plus ablations over the design choices DESIGN.md calls
   out, and Bechamel microbenchmarks of the tool's own kernels.

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

   Absolute numbers are simulator cycles, not HP hardware; the shapes (who
   wins, by what factor, where effects vanish) are the reproduction target.
   See EXPERIMENTS.md for the paper-vs-measured record. *)

module Exp = Slo_workload.Experiments
module Collect = Slo_workload.Collect
module Kernel = Slo_workload.Kernel
module Sdet = Slo_workload.Sdet
module Topology = Slo_sim.Topology
module Layout = Slo_layout.Layout
module Field = Slo_layout.Field
module Cluster = Slo_core.Cluster
module Pipeline = Slo_core.Pipeline
module Code_concurrency = Slo_concurrency.Code_concurrency
module Sample = Slo_concurrency.Sample
module Sample_store = Slo_concurrency.Sample_store
module Parser = Slo_ir.Parser
module Typecheck = Slo_ir.Typecheck
module Stats = Slo_util.Stats
module Pool = Slo_exec.Pool
module Obs = Slo_obs.Obs
module Json = Slo_obs.Json

let quick = ref false
let jobs = ref 0 (* 0 = Domain.recommended_domain_count *)
let json_path = ref None (* --json PATH: manifest path; artifacts go next to it *)

let runs () = if !quick then 3 else 10
let big_cpus () = if !quick then 32 else 128

let effective_jobs () = if !jobs >= 1 then !jobs else Pool.default_jobs ()

(* ------------------------------------------------------------------ *)
(* JSON bench artifacts (--json PATH). Each section writes
   BENCH_<section>.json beside PATH with its data rows plus a metrics
   snapshot; PATH itself gets a manifest listing what was written.
   Artifacts exist to be diffed across commits — see EXPERIMENTS.md. *)

let read_file path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Some (really_input_string ic (in_channel_length ic)))
  with Sys_error _ | End_of_file -> None

(* Resolve HEAD without invoking git, so the bench works where git is
   absent (sandboxed dune actions, stripped containers) and costs no
   subprocess. HEAD may be a detached hex id or a symref; the ref may be
   loose or packed (`git gc`/`git pack-refs`); `.git` itself may be a
   one-line `gitdir:` redirect file (worktrees/submodules), whose refs
   live in the commondir. Anything unresolvable — including HEAD contents
   that are not a hex id — degrades to the documented "unknown" sentinel:
   git_rev never raises and never returns a string the JSON writer can't
   emit verbatim, dirty tree or no tree at all. The schema check pins this
   (git_rev=nonempty-string in bench/dune). SLO_GIT_REV overrides. *)
let is_hex_id s =
  let n = String.length s in
  n >= 4 && n <= 64
  && String.for_all
       (function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false)
       s

let strip_prefix ~prefix s =
  let np = String.length prefix in
  if String.length s >= np && String.sub s 0 np = prefix then
    Some (String.sub s np (String.length s - np))
  else None

let git_dirs () =
  (* The directory holding HEAD, plus the one holding refs/packed-refs
     (different in a linked worktree, where `commondir` points back at the
     main repository's .git). *)
  let gitdir =
    match read_file ".git" with
    | Some s when strip_prefix ~prefix:"gitdir: " (String.trim s) <> None ->
      Option.get (strip_prefix ~prefix:"gitdir: " (String.trim s))
    | Some _ | None -> ".git"
  in
  let common =
    match read_file (Filename.concat gitdir "commondir") with
    | Some s when String.trim s <> "" ->
      let c = String.trim s in
      if Filename.is_relative c then Filename.concat gitdir c else c
    | Some _ | None -> gitdir
  in
  (gitdir, common)

let packed_ref dir ref_name =
  match read_file (Filename.concat dir "packed-refs") with
  | None -> None
  | Some s ->
    List.find_map
      (fun line ->
        let line = String.trim line in
        if line = "" || line.[0] = '#' || line.[0] = '^' then None
        else
          match String.index_opt line ' ' with
          | Some sp
            when String.sub line (sp + 1) (String.length line - sp - 1)
                 = ref_name ->
            let id = String.sub line 0 sp in
            if is_hex_id id then Some id else None
          | Some _ | None -> None)
      (String.split_on_char '\n' s)

let git_rev () =
  match Sys.getenv_opt "SLO_GIT_REV" with
  | Some r when r <> "" -> r
  | _ -> (
    let gitdir, common = git_dirs () in
    let resolved =
      match read_file (Filename.concat gitdir "HEAD") with
      | None -> None
      | Some s -> (
        let s = String.trim s in
        match strip_prefix ~prefix:"ref: " s with
        | None -> if is_hex_id s then Some s else None
        | Some ref_name -> (
          match read_file (Filename.concat common ref_name) with
          | Some c when is_hex_id (String.trim c) -> Some (String.trim c)
          | Some _ | None -> packed_ref common ref_name))
    in
    match resolved with Some id -> id | None -> "unknown")

let artifacts = ref [] (* (section, path), reverse run order *)

let pool_json () =
  (* On a 1-core box (or --jobs 1) no parallel batch runs; the serial
     path is trivially fully busy, so utilization defaults to 1.0. *)
  let utilization =
    match Obs.gauge "pool.utilization" with Some u -> u | None -> 1.0
  in
  Json.Obj
    [
      ("jobs", Json.Int (effective_jobs ()));
      ("tasks", Json.Int (Obs.counter "pool.tasks"));
      ("batches", Json.Int (Obs.counter "pool.batches"));
      ("utilization", Json.Float utilization);
    ]

let write_json path j =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (Json.pretty j))

let write_artifact ~section:name ~wall data =
  match !json_path with
  | None -> ()
  | Some manifest ->
    let path =
      Filename.concat (Filename.dirname manifest) ("BENCH_" ^ name ^ ".json")
    in
    write_json path
      (Json.Obj
         [
           ("schema", Json.Str "slo-bench/1");
           ("section", Json.Str name);
           ("git_rev", Json.Str (git_rev ()));
           ("jobs", Json.Int (effective_jobs ()));
           ("quick", Json.Bool !quick);
           ("wall_s", Json.Float wall);
           ("data", data);
           ("metrics", Obs.to_json ());
           ("pool", pool_json ());
         ]);
    artifacts := (name, path) :: !artifacts

let write_manifest () =
  match !json_path with
  | None -> ()
  | Some manifest ->
    let arts = List.rev !artifacts in
    write_json manifest
      (Json.Obj
         [
           ("schema", Json.Str "slo-bench-manifest/1");
           ("git_rev", Json.Str (git_rev ()));
           ("jobs", Json.Int (effective_jobs ()));
           ("quick", Json.Bool !quick);
           ("sections", Json.List (List.map (fun (n, _) -> Json.Str n) arts));
           ("artifacts", Json.List (List.map (fun (_, p) -> Json.Str p) arts));
         ])

(* One pool for the whole bench run, created on first use; [None] when
   running with a single job so the serial code paths stay exercised. *)
let pool_memo = ref None

let pool () =
  match !pool_memo with
  | Some p -> p
  | None ->
    let n = effective_jobs () in
    let p = if n <= 1 then None else Some (Pool.create ~domains:n) in
    (* join the workers on any exit path, including `exit 1` *)
    (match p with Some p -> at_exit (fun () -> Pool.shutdown p) | None -> ());
    pool_memo := Some p;
    p

let section title =
  Printf.printf "\n==============================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "==============================================================\n%!"

let bar value =
  (* One '#' per 0.5% of speedup, sign-aware, clamped for the A outlier. *)
  let n = int_of_float (Float.abs value /. 0.5) in
  let n = min n 40 in
  (if value < 0.0 then "-" else "+") ^ String.make n '#'

let layouts_memo = ref None

let layouts () =
  match !layouts_memo with
  | Some l -> l
  | None ->
    let l = Exp.analyze_all ?pool:(pool ()) () in
    layouts_memo := Some l;
    l

let print_measurements title rows =
  Printf.printf "%-8s %12s %12s %12s\n" "struct" "automatic" "hotness"
    "incremental";
  List.iter
    (fun (m : Exp.measurement) ->
      Printf.printf "%-8s %+11.2f%% %+11.2f%% %+11.2f%%   auto %s\n"
        m.Exp.m_struct m.Exp.m_automatic m.Exp.m_hotness m.Exp.m_incremental
        (bar m.Exp.m_automatic))
    rows;
  Printf.printf
    "(%s; throughput speedup over hand-tuned baseline, trimmed mean of %d \
     runs)\n%!"
    title (runs ())

let measurements_json ~cpus rows =
  Json.Obj
    [
      ("cpus", Json.Int cpus);
      ("runs", Json.Int (runs ()));
      ( "rows",
        Json.List
          (List.map
             (fun (m : Exp.measurement) ->
               Json.Obj
                 [
                   ("struct", Json.Str m.Exp.m_struct);
                   ("automatic_pct", Json.Float m.Exp.m_automatic);
                   ("hotness_pct", Json.Float m.Exp.m_hotness);
                   ("incremental_pct", Json.Float m.Exp.m_incremental);
                 ])
             rows) );
    ]

let fig8_memo = ref None

let fig8_rows () =
  match !fig8_memo with
  | Some r -> r
  | None ->
    let r = Exp.fig8 ~runs:(runs ()) ~cpus:(big_cpus ()) ?pool:(pool ()) (layouts ()) in
    fig8_memo := Some r;
    r

let run_fig8 () =
  section
    (Printf.sprintf
       "Figure 8: automatic layout vs sort-by-hotness, %d-way Superdome"
       (big_cpus ()));
  print_measurements "hierarchical machine" (fig8_rows ());
  Printf.printf
    "\nPaper shape: struct A degrades >2X under sort-by-hotness but only a\n\
     few %% under the FLG layout; B-E see small effects, with hotness\n\
     marginally ahead on some locality-dominated structs.\n%!";
  measurements_json ~cpus:(big_cpus ()) (fig8_rows ())

let run_fig9 () =
  section "Figure 9: same layouts on the 4-way bus machine";
  let rows = Exp.fig9 ~runs:(runs ()) ?pool:(pool ()) (layouts ()) in
  print_measurements "4-way bus machine" rows;
  Printf.printf
    "\nPaper shape: with cheap remote caches the false-sharing penalty\n\
     vanishes; every effect is within a few percent of baseline.\n%!";
  measurements_json ~cpus:4 rows

let run_fig10 () =
  section "Figure 10: best layout per struct (automatic vs incremental)";
  let rows = Exp.fig10 (fig8_rows ()) in
  List.iter
    (fun (r : Exp.fig10_row) ->
      Printf.printf "%-8s %+8.2f%%  (%-11s)  %s\n" r.Exp.b_struct r.Exp.b_best
        r.Exp.b_which (bar r.Exp.b_best))
    rows;
  Printf.printf
    "\nPaper shape: the incremental (important-edge subgraph) mode beats the\n\
     fully automatic layout on the huge false-sharing struct A; automatic\n\
     wins on the locality structs; best gains are a few percent.\n%!";
  Json.Obj
    [
      ( "rows",
        Json.List
          (List.map
             (fun (r : Exp.fig10_row) ->
               Json.Obj
                 [
                   ("struct", Json.Str r.Exp.b_struct);
                   ("best_pct", Json.Float r.Exp.b_best);
                   ("which", Json.Str r.Exp.b_which);
                 ])
             rows) );
    ]

let run_gvl () =
  section "Extension: Global Variable Layout (paper §7 future work)";
  let big, bus = Exp.gvl ~runs:(runs ()) ~cpus:(big_cpus ()) ?pool:(pool ()) () in
  Printf.printf
    "globals segment: CC-aware layout vs declaration order\n\
     %d-way machine: %+.2f%%\n4-way bus:      %+.2f%%\n" (big_cpus ()) big bus;
  Printf.printf
    "(expected: the declaration order interleaves per-quadrant counters\n\
     with read-mostly globals on one line; separating them pays on the\n\
     big machine and is neutral on the bus)\n%!";
  Json.Obj
    [
      ("cpus", Json.Int (big_cpus ()));
      ("big_pct", Json.Float big);
      ("bus_pct", Json.Float bus);
    ]

let run_cc_stability () =
  section "§4.3: CodeConcurrency stability across machine sizes";
  let rho = Exp.cc_stability () in
  Printf.printf
    "Spearman rank correlation of top-40 CC pairs, 4-way vs 16-way: %.3f\n"
    rho;
  Printf.printf
    "(paper: \"source line pairs with high concurrency values remain more\n\
     or less the same in both the 4 way and 16 way machines\")\n%!";
  Json.Obj [ ("spearman_rho", Json.Float rho) ]

let run_topology () =
  section "§5.1: machine characterization (cache-to-cache transfer cycles)";
  let topo = Topology.superdome () in
  Printf.printf "%s\n" (Topology.describe topo);
  let hops =
    [
      ("same chip", 0, 1);
      ("same bus", 0, 2);
      ("same cell", 0, 4);
      ("same crossbar", 0, 16);
      ("across crossbars", 0, 64);
    ]
  in
  let rows =
    List.map
      (fun (label, src, dst) ->
        let cycles = Topology.transfer_latency topo ~src ~dst in
        Printf.printf "  %-24s cpu%3d -> cpu%3d : %4d cycles\n" label src dst
          cycles;
        Json.Obj
          [
            ("hop", Json.Str label);
            ("src", Json.Int src);
            ("dst", Json.Int dst);
            ("cycles", Json.Int cycles);
          ])
      hops
  in
  Printf.printf "  %-24s %17s : %4d cycles\n" "memory" ""
    (Topology.memory_latency topo);
  let bus = Topology.bus () in
  Printf.printf "%s\n%!" (Topology.describe bus);
  Json.Obj
    [
      ("transfers", Json.List rows);
      ("memory_cycles", Json.Int (Topology.memory_latency topo));
    ]

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

let run_ablation_k2 () =
  section "Ablation 1: k2 (CycleLoss scale) sweep on struct A";
  let counts = Collect.profile () in
  let samples = Collect.samples () in
  let cfg = Sdet.default_config (Topology.superdome ~cpus:(big_cpus ()) ()) in
  let base = Sdet.measure ?pool:(pool ()) cfg ~runs:3 in
  Printf.printf "%-6s %18s %18s %10s\n" "k2" "ctr/ctr colocated"
    "ctr on hot line" "speedup";
  List.iter
    (fun k2 ->
      let params = { Collect.calibrated_params with Pipeline.k2 } in
      let flg = Collect.flg ~params ~counts ~samples ~struct_name:"A" () in
      let layout = Pipeline.automatic_layout ~params flg in
      let pairs, on_hot = ctr_mistakes layout in
      let m = Sdet.measure ?pool:(pool ()) { cfg with overrides = [ layout ] } ~runs:3 in
      Printf.printf "%-6.1f %18d %18d %+9.2f%%\n%!" k2 pairs on_hot
        (Stats.speedup_percent ~baseline:base ~measured:m))
    [ 0.0; 0.5; 1.0; 2.0; 4.0; 8.0 ];
  Printf.printf
    "\nExpected: with k2 too small the FLG degenerates to pure locality and\n\
     writers pile onto shared lines (the sort-by-hotness failure); large k2\n\
     separates everything. The default (%.1f) keeps one residual mistake —\n\
     the paper's 'greedy is suboptimal on >100 fields' result.\n%!"
    Collect.calibrated_params.Pipeline.k2;
  Json.Null

let run_ablation_sampling () =
  section "Ablation 2: PMU sampling period vs layout quality (struct A)";
  let counts = Collect.profile () in
  let params = Collect.calibrated_params in
  Printf.printf "%-10s %10s %18s %18s\n" "period" "samples"
    "ctr/ctr colocated" "ctr on hot line";
  List.iter
    (fun period ->
      let samples = Collect.samples ~period () in
      let flg = Collect.flg ~params ~counts ~samples ~struct_name:"A" () in
      let layout = Pipeline.automatic_layout ~params flg in
      let pairs, on_hot = ctr_mistakes layout in
      Printf.printf "%-10d %10d %18d %18d\n%!" period (List.length samples)
        pairs on_hot)
    [ 200; 400; 800; 1600; 3200 ];
  Printf.printf
    "\nExpected: sparser sampling starves CodeConcurrency of coincident\n\
     samples on short code (counter updates), so more counters get\n\
     colocated — the cost of the paper's lightweight sampling approach.\n%!";
  Json.Null

let run_ablation_clustering () =
  section "Ablation 3: clustering policies on struct A";
  let counts = Collect.profile () in
  let samples = Collect.samples () in
  let params = Collect.calibrated_params in
  let flg = Collect.flg ~params ~counts ~samples ~struct_name:"A" () in
  let baseline_layout = Kernel.baseline_layout "A" in
  let cfg = Sdet.default_config (Topology.superdome ~cpus:(big_cpus ()) ()) in
  let base = Sdet.measure ?pool:(pool ()) cfg ~runs:3 in
  let raw_clusters = Cluster.run ~pack_cold:false flg ~line_size:128 in
  let variants =
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
  Printf.printf "%-34s %8s %10s\n" "policy" "lines" "speedup";
  List.iter
    (fun (name, layout) ->
      let m = Sdet.measure ?pool:(pool ()) { cfg with overrides = [ layout ] } ~runs:3 in
      Printf.printf "%-34s %8d %+9.2f%%\n%!" name
        (Layout.lines_used layout ~line_size:128)
        (Stats.speedup_percent ~baseline:base ~measured:m))
    variants;
  Printf.printf
    "\nExpected: raw Figure-6 clustering explodes the footprint (every cold\n\
     field gets a line); cold packing fixes that; subgraph constraints\n\
     preserve the hand layout; hotness collapses.\n%!";
  Json.Null

let run_ablation_machines () =
  section "Ablation 4: false-sharing penalty vs machine size (struct A)";
  let ls = layouts () in
  let a = List.find (fun l -> l.Exp.struct_name = "A") ls in
  Printf.printf "%-8s %14s %14s\n" "cpus" "hotness" "automatic";
  List.iter
    (fun cpus ->
      let cfg = Sdet.default_config (Topology.superdome ~cpus ()) in
      let base = Sdet.measure ?pool:(pool ()) cfg ~runs:3 in
      let m layout =
        Stats.speedup_percent ~baseline:base
          ~measured:(Sdet.measure ?pool:(pool ()) { cfg with overrides = [ layout ] } ~runs:3)
      in
      Printf.printf "%-8d %+13.2f%% %+13.2f%%\n%!" cpus (m a.Exp.hotness)
        (m a.Exp.automatic))
    [ 2; 8; 32; 128 ];
  Printf.printf
    "\nExpected: the naive layout's penalty grows with machine size (deeper\n\
     topology, costlier invalidations); the FLG layout stays near baseline.\n%!";
  Json.Null

let run_accumulation () =
  section "§5.2: are the per-struct improvements accumulative?";
  let acc = Exp.accumulation ~runs:(runs ()) ~cpus:(big_cpus ()) ?pool:(pool ()) (layouts ()) in
  List.iter
    (fun (name, v) -> Printf.printf "best layout for %-4s alone: %+6.2f%%\n" name v)
    acc.Exp.acc_individual;
  Printf.printf "sum of individual gains:    %+6.2f%%\n" acc.Exp.acc_sum;
  Printf.printf "all best layouts combined:  %+6.2f%%\n" acc.Exp.acc_combined;
  Printf.printf
    "\n(paper: \"Note that these improvements are not accumulative. This can\n\
     be explained by the highly tuned nature of the HP-UX kernel.\")\n%!";
  Json.Obj
    [
      ( "individual_pct",
        Json.Obj
          (List.map (fun (n, v) -> (n, Json.Float v)) acc.Exp.acc_individual)
      );
      ("sum_pct", Json.Float acc.Exp.acc_sum);
      ("combined_pct", Json.Float acc.Exp.acc_combined);
    ]

let run_userapp () =
  section "Prediction check: an untuned user-level application";
  let module Userapp = Slo_workload.Userapp in
  let r = Userapp.experiment ~runs:(runs ()) ~cpus:(big_cpus ()) ?pool:(pool ()) () in
  List.iter
    (fun (name, v) ->
      Printf.printf "tool layout for %-5s alone: %+7.2f%%\n" name v)
    r.Userapp.u_individual;
  Printf.printf "GVL layout for globals:      %+7.2f%%\n" r.Userapp.u_globals;
  Printf.printf "sum of individual gains:     %+7.2f%%\n" r.Userapp.u_sum;
  Printf.printf "all layouts combined:        %+7.2f%%\n" r.Userapp.u_combined;
  Printf.printf
    "\n(paper §5: for programs without years of hand tuning \"the benefit of\n\
     the tool is likely to be pronounced\", and accumulation \"is not\n\
     expected to be a problem\" — gains here should be larger than the\n\
     kernel's and roughly additive)\n%!";
  Json.Obj
    [
      ( "individual_pct",
        Json.Obj
          (List.map (fun (n, v) -> (n, Json.Float v)) r.Userapp.u_individual)
      );
      ("globals_pct", Json.Float r.Userapp.u_globals);
      ("sum_pct", Json.Float r.Userapp.u_sum);
      ("combined_pct", Json.Float r.Userapp.u_combined);
    ]

let run_oracle () =
  section "§3 discussion: trace oracle vs CodeConcurrency on struct A";
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
  Printf.printf "%-22s %16s %18s\n" "field pair" "oracle (events)"
    "CC estimate (k2*CC)";
  let show f1 f2 =
    let o = Trace_oracle.loss oracle ~struct_name:"A" f1 f2 in
    let cc = Slo_graph.Sgraph.weight0 flg.Slo_core.Flg.loss f1 f2 in
    Printf.printf "%-22s %16d %18.0f\n" (f1 ^ " / " ^ f2)
      o.Trace_oracle.ps_false cc
  in
  (* pairs the baseline layout colocates: the oracle sees them *)
  show "a_gen" "a_ctr7";
  show "a_mask" "a_ctr7";
  (* pairs the baseline already separates: the oracle is blind, CC is not *)
  show "a_ctr0" "a_ctr1";
  show "a_ctr2" "a_ctr5";
  show "a_ctr0" "a_flags";
  Printf.printf
    "\ntotal same-instance events in trace: false %d, true %d\n"
    (Trace_oracle.total_false_sharing oracle)
    (Trace_oracle.total_true_sharing oracle);
  Printf.printf
    "\nExpected: the oracle confirms the false sharing the current layout\n\
     exhibits (the baseline's a_gen/a_mask flaw) but reports zero for the\n\
     padded counter pairs — §3's argument for why measuring false sharing\n\
     cannot drive layout, and why CodeConcurrency (which still flags those\n\
     pairs) exists.\n%!";
  Json.Null

let run_ablation_protocol () =
  section "Ablation 5: MESI vs MOESI on the SDET workload";
  let module Coherence = Slo_sim.Coherence in
  let module Machine = Slo_sim.Machine in
  let module Sim_stats = Slo_sim.Sim_stats in
  Printf.printf "%-8s %14s %14s %14s\n" "proto" "throughput" "writebacks"
    "invalidations";
  List.iter
    (fun (name, protocol) ->
      let cfg =
        { (Sdet.default_config (Topology.superdome ~cpus:(big_cpus ()) ())) with
          Sdet.protocol }
      in
      let r = Sdet.run_once cfg in
      Printf.printf "%-8s %14.1f %14d %14d\n%!" name (Machine.throughput r)
        r.Machine.stats.Sim_stats.writebacks
        r.Machine.stats.Sim_stats.invalidations)
    [ ("MESI", Coherence.Mesi); ("MOESI", Coherence.Moesi) ];
  Printf.printf
    "\nExpected: identical invalidation behaviour (layout conclusions are\n\
     protocol-independent across the MESI family, as the paper assumes);\n\
     MOESI defers dirty writebacks, cutting memory write-back traffic.\n%!";
  Json.Null

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks of the tool's own kernels. *)

let run_micro () =
  section "Microbenchmarks (Bechamel): analysis and simulation kernels";
  let open Bechamel in
  let counts = Collect.profile () in
  let samples = Collect.samples () in
  let params = Collect.calibrated_params in
  let flg_a = Collect.flg ~params ~counts ~samples ~struct_name:"A" () in
  let store = Sample_store.of_samples samples in
  let tests =
    [
      Test.make ~name:"parse+typecheck kernel.mc"
        (Staged.stage (fun () ->
             ignore
               (Typecheck.check
                  (Parser.parse_program ~file:"kernel.mc" Kernel.source))));
      Test.make ~name:"profile (PBO interpreter)"
        (Staged.stage (fun () -> ignore (Collect.profile ~iters:8 ())));
      Test.make ~name:"code concurrency (full trace)"
        (Staged.stage (fun () ->
             ignore
               (Code_concurrency.compute ~interval:params.Pipeline.cc_interval
                  store)));
      Test.make ~name:"greedy clustering (struct A)"
        (Staged.stage (fun () -> ignore (Cluster.run flg_a ~line_size:128)));
      Test.make ~name:"FLG build (struct A)"
        (Staged.stage (fun () ->
             ignore (Collect.flg ~params ~counts ~samples ~struct_name:"A" ())));
      Test.make ~name:"sdet run (8-cpu, 6 reps)"
        (Staged.stage (fun () ->
             let cfg =
               {
                 (Sdet.default_config (Topology.superdome ~cpus:8 ())) with
                 Sdet.reps = 6;
               }
             in
             ignore (Sdet.run_once cfg)));
    ]
  in
  let benchmark test =
    let instance = Toolkit.Instance.monotonic_clock in
    let cfg =
      Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
    in
    let raw =
      Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"g" [ test ])
    in
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    let results = Analyze.all ols instance raw in
    Hashtbl.fold
      (fun name ols acc ->
        let est =
          match Analyze.OLS.estimates ols with
          | Some [ est ] ->
            Printf.printf "%-40s %14.0f ns/run\n%!" name est;
            Json.Float est
          | Some _ | None ->
            Printf.printf "%-40s (no estimate)\n%!" name;
            Json.Null
        in
        Json.Obj [ ("name", Json.Str name); ("ns_per_run", est) ] :: acc)
      results []
  in
  Json.Obj [ ("rows", Json.List (List.concat_map benchmark tests)) ]

(* ------------------------------------------------------------------ *)
(* Differential smoke check: the parallel pipeline must be byte-identical
   to the serial one. Runs on every `dune runtest` via the runtest-par
   alias; exits non-zero on any divergence. *)

let run_smoke () =
  section "Smoke: parallel pipeline = serial pipeline (differential)";
  let domains = max 2 (effective_jobs ()) in
  let checks = ref [] in
  let check name ok =
    Printf.printf "  %-44s %s\n%!" name (if ok then "identical" else "MISMATCH");
    checks := (name, ok) :: !checks;
    ok
  in
  let results =
    Pool.with_pool ~domains (fun p ->
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
        let flgs_serial =
          Pipeline.analyze_all ~params:Collect.calibrated_params
            ~program:(Kernel.program ()) ~counts:(Collect.profile ())
            ~samples:[] ~struct_names:Kernel.struct_names ()
        in
        let flgs_par =
          Pipeline.analyze_all ~params:Collect.calibrated_params ~pool:p
            ~program:(Kernel.program ()) ~counts:(Collect.profile ())
            ~samples:[] ~struct_names:Kernel.struct_names ()
        in
        let report_str (_, flg) =
          Slo_core.Report.render (Pipeline.report flg)
        in
        let ok1 =
          check
            (Printf.sprintf "analyze_all layouts (%d domains)" domains)
            layouts_ok
        in
        let ok2 = check "sdet cycle counts / throughputs" (t_serial = t_par) in
        let ok3 =
          check "FLG reports byte-identical"
            (List.map report_str flgs_serial = List.map report_str flgs_par)
        in
        [ ok1; ok2; ok3 ])
  in
  if List.exists not results then begin
    Printf.eprintf "smoke: parallel/serial divergence detected\n";
    exit 1
  end;
  Json.Obj
    [
      ("domains", Json.Int domains);
      ( "checks",
        Json.List
          (List.rev_map
             (fun (n, ok) ->
               Json.Obj [ ("name", Json.Str n); ("ok", Json.Bool ok) ])
             !checks) );
    ]

(* ------------------------------------------------------------------ *)
(* Columnar CC ingestion at scale: generate a store far bigger than any
   collection run, persist it in both formats, and race the two ingestion
   paths file -> in-memory store. The text baseline parses every line
   (store_of_samples_file); the binary path is load_samples_bin — mmap
   plus one validation scan — so the ratio isolates the format itself
   (everything downstream of the store is shared). Then the binner's flat
   histogram races the Hashtbl feeder it replaced, and the full
   Code_concurrency.compute at pool sizes 1/2/4 must reproduce the serial
   of_interval fold over that one binner exactly. Any divergence exits
   non-zero, so the runtest-col wiring doubles as the columnar-determinism
   check. *)

let run_cc_scale () =
  section "cc_scale: columnar CodeConcurrency ingestion";
  let module Persist = Slo_persist.Persist in
  let n_col = if !quick then 200_000 else 10_000_000 in
  let col_cpus = 16 and col_lines = 24 in
  let col_interval = 32_768 in
  let builder = Sample_store.builder ~capacity:n_col () in
  let state = ref 0x243F6A8885A308D3 in
  let next_itc = ref 0 in
  for _ = 1 to n_col do
    (* LCG with a monotone itc: deterministic, allocation-free, and
       time-ordered like a real PMU stream. *)
    state := (!state * 2685821657736338717) + 1442695040888963407;
    let bits = !state lsr 11 in
    next_itc := !next_itc + 1 + (bits land 7);
    Sample_store.append builder ~cpu:(bits mod col_cpus) ~itc:!next_itc
      ~line:(100 + ((bits lsr 17) mod col_lines))
  done;
  let gen_store = Sample_store.build builder in
  let bin_path = Filename.temp_file "slo_cc_scale" ".samples.bin" in
  let txt_path = Filename.temp_file "slo_cc_scale" ".samples" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ bin_path; txt_path ])
  @@ fun () ->
  Persist.save_samples_bin ~path:bin_path gen_store;
  Persist.save_store_text ~path:txt_path gen_store;
  let file_bytes p =
    let ic = open_in_bin p in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
        in_channel_length ic)
  in
  let bin_bytes = file_bytes bin_path and txt_bytes = file_bytes txt_path in
  Printf.printf
    "columnar: %d generated samples, interval %d (%d cpus, %d lines)\n"
    n_col col_interval col_cpus col_lines;
  Printf.printf "  binary store %d bytes, text %d bytes\n%!" bin_bytes
    txt_bytes;
  (* Text ingestion baseline: parse every line into a columnar store. *)
  let t0 = Obs.now () in
  let tstore = Persist.store_of_samples_file ~path:txt_path in
  let text_s = Obs.now () -. t0 in
  (* Binary ingestion: mmap + the single validation scan. *)
  let t0 = Obs.now () in
  let mstore = Persist.load_samples_bin ~path:bin_path in
  let bin_s = Obs.now () -. t0 in
  (* Both paths must yield the same samples (bigarray compare is the
     custom C one, so this is a memcmp-grade check, not a boxed walk). *)
  let stores_equal =
    Sample_store.length tstore = Sample_store.length mstore
    && Sample_store.columns tstore = Sample_store.columns mstore
  in
  if not stores_equal then begin
    Printf.eprintf
      "cc_scale: text-parsed store diverges from binary-loaded store\n";
    exit 1
  end;
  let rate n s = if s > 0.0 then float_of_int n /. s else 0.0 in
  Printf.printf "  %-8s %12s %14s %14s\n" "path" "wall (s)" "samples/s"
    "bytes/s";
  Printf.printf "  %-8s %12.4f %14.0f %14.0f\n" "text" text_s
    (rate n_col text_s) (rate txt_bytes text_s);
  Printf.printf "  %-8s %12.4f %14.0f %14.0f\n%!" "binary" bin_s
    (rate n_col bin_s) (rate bin_bytes bin_s);
  let col_speedup =
    if rate n_col text_s > 0.0 then rate n_col bin_s /. rate n_col text_s
    else 0.0
  in
  Printf.printf "  binary vs text ingestion: %.2fx samples/s%s\n%!"
    col_speedup
    (if col_speedup < 3.0 then "  (below the 3x target)" else "");
  (* --- Binner ingestion hot path: the flat open-addressing histogram
     (Flat_tab) vs the (int, int ref) Hashtbl-per-interval feeder it
     replaced, inlined here as the baseline. Same store, same packed
     keys; the race isolates the table, and the resulting histograms
     must be identical — any divergence exits non-zero. *)
  let module Flat_tab = Slo_util.Flat_tab in
  let t0 = Obs.now () in
  let flat_binner = Sample.binner ~interval:col_interval in
  Sample_store.iter mstore (fun s -> Sample.feed flat_binner s);
  let flat_s = Obs.now () -. t0 in
  let t0 = Obs.now () in
  let boxed : (int, (int, int ref) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 64
  in
  for i = 0 to Sample_store.length mstore - 1 do
    let idx = Sample.floor_div (Sample_store.itc mstore i) col_interval in
    let tbl =
      match Hashtbl.find_opt boxed idx with
      | Some t -> t
      | None ->
        let t = Hashtbl.create 256 in
        Hashtbl.add boxed idx t;
        t
    in
    let key =
      (Sample_store.cpu mstore i lsl 31) lor Sample_store.line mstore i
    in
    match Hashtbl.find_opt tbl key with
    | Some r -> incr r
    | None -> Hashtbl.add tbl key (ref 1)
  done;
  let boxed_s = Obs.now () -. t0 in
  let flat_rows =
    List.concat_map
      (fun (idx, tbl) ->
        List.concat_map
          (fun (line, fs) ->
            List.map (fun (cpu, n) -> (idx, (cpu lsl 31) lor line, n)) fs)
          (Sample.line_freqs tbl))
      (Sample.binned_idx flat_binner)
    |> List.sort compare
  in
  let boxed_rows =
    Hashtbl.fold
      (fun idx tbl acc ->
        Hashtbl.fold (fun key r acc -> (idx, key, !r) :: acc) tbl acc)
      boxed []
    |> List.sort compare
  in
  let binner_identical = flat_rows = boxed_rows in
  let binner_speedup = if flat_s > 0.0 then boxed_s /. flat_s else 0.0 in
  Printf.printf "\nbinner ingestion (store -> interval histograms):\n";
  Printf.printf "  %-8s %12s %14s\n" "table" "wall (s)" "samples/s";
  Printf.printf "  %-8s %12.4f %14.0f\n" "hashtbl" boxed_s
    (rate n_col boxed_s);
  Printf.printf "  %-8s %12.4f %14.0f\n" "flat" flat_s (rate n_col flat_s);
  Printf.printf "  flat vs hashtbl: %.2fx samples/s, histograms %s\n%!"
    binner_speedup
    (if binner_identical then "identical" else "MISMATCH");
  if not binner_identical then begin
    Printf.eprintf
      "cc_scale: flat binner diverges from the Hashtbl reference feeder\n";
    exit 1
  end;
  (* Columnar CC at pool sizes 1/2/4 vs the serial of_interval fold over
     the one binner fed above. *)
  let col_ref_pairs =
    Sample.binned flat_binner
    |> List.fold_left
         (fun acc tbl ->
           Code_concurrency.merge acc (Code_concurrency.of_interval tbl))
         (Code_concurrency.create ())
    |> Code_concurrency.pairs
  in
  let peak = Sample.peak_entries flat_binner in
  Printf.printf
    "\ncolumnar CC (store -> map), peak interval-table entries %d:\n" peak;
  Printf.printf "  %-8s %12s %14s %14s\n" "pool" "wall (s)" "samples/s"
    "bytes/s";
  let col_rows =
    List.map
      (fun jobs ->
        let compute pool =
          let t0 = Obs.now () in
          let cm =
            Code_concurrency.compute ?pool ~interval:col_interval mstore
          in
          (cm, Obs.now () -. t0)
        in
        let cm, wall =
          if jobs <= 1 then compute None
          else Pool.with_pool ~domains:jobs (fun p -> compute (Some p))
        in
        let identical = Code_concurrency.pairs cm = col_ref_pairs in
        Printf.printf "  pool %-3d %12.4f %14.0f %14.0f   %s\n%!" jobs wall
          (rate n_col wall) (rate bin_bytes wall)
          (if identical then "identical" else "MISMATCH");
        if not identical then begin
          Printf.eprintf
            "cc_scale: columnar CC diverges from the of_interval fold at \
             pool=%d\n"
            jobs;
          exit 1
        end;
        Json.Obj
          [
            ("jobs", Json.Int jobs);
            ("wall_s", Json.Float wall);
            ("samples_per_s", Json.Float (rate n_col wall));
            ("bytes_per_s", Json.Float (rate bin_bytes wall));
            ("identical", Json.Bool identical);
          ])
      [ 1; 2; 4 ]
  in
  Json.Obj
    [
      ("peak_table_entries", Json.Int peak);
      ( "binner",
        Json.Obj
          [
            ("n_samples", Json.Int n_col);
            ("hashtbl_samples_per_s", Json.Float (rate n_col boxed_s));
            ("flat_samples_per_s", Json.Float (rate n_col flat_s));
            ("flat_vs_hashtbl_x", Json.Float binner_speedup);
            ("identical", Json.Bool binner_identical);
          ] );
      ( "columnar",
        Json.Obj
          [
            ("n_samples", Json.Int n_col);
            ("interval", Json.Int col_interval);
            ("bin_bytes", Json.Int bin_bytes);
            ("text_bytes", Json.Int txt_bytes);
            ("stores_equal", Json.Bool stores_equal);
            ( "text",
              Json.Obj
                [
                  ("wall_s", Json.Float text_s);
                  ("samples_per_s", Json.Float (rate n_col text_s));
                  ("bytes_per_s", Json.Float (rate txt_bytes text_s));
                ] );
            ( "binary",
              Json.Obj
                [
                  ("wall_s", Json.Float bin_s);
                  ("samples_per_s", Json.Float (rate n_col bin_s));
                  ("bytes_per_s", Json.Float (rate bin_bytes bin_s));
                ] );
            ("binary_vs_text_x", Json.Float col_speedup);
            ("rows", Json.List col_rows);
          ] );
    ]

(* ------------------------------------------------------------------ *)
(* Metaheuristic layout search (lib/search) over the kernel corpus: run
   the full portfolio per struct, require best >= greedy on the shared
   objective (exit non-zero otherwise — the runtest-obs wiring doubles as
   the optimizer-soundness check), then validate any strict objective win
   on the simulator by re-running SDET with the two layouts. *)

let run_layout_search () =
  section "layout_search: metaheuristic portfolio vs greedy clustering";
  let module Optimizer = Slo_search.Optimizer in
  let counts = Collect.profile () in
  let samples = Collect.samples () in
  let params = Collect.calibrated_params in
  let restarts = if !quick then 6 else 12 in
  let seed = 0 in
  Printf.printf
    "portfolio = greedy + swap + swap@decl + %d annealing restarts (seed %d)\n"
    restarts seed;
  Printf.printf "%-8s %12s %12s %10s  %s\n" "struct" "greedy" "best" "delta"
    "winner";
  let per_struct =
    List.map
      (fun name ->
        let flg = Collect.flg ~params ~counts ~samples ~struct_name:name () in
        let p =
          Pipeline.search ~params ?pool:(pool ()) ~seed ~restarts
            ~selector:Optimizer.Portfolio flg
        in
        let g = p.Optimizer.greedy.Optimizer.score in
        let b = p.Optimizer.best.Optimizer.score in
        if b < g then begin
          Printf.eprintf
            "layout_search: best (%g) scores below greedy (%g) on struct %s\n"
            b g name;
          exit 1
        end;
        Printf.printf "%-8s %12.1f %12.1f %10.1f  %s\n%!" name g b (b -. g)
          p.Optimizer.best.Optimizer.label;
        (name, p))
      Kernel.struct_names
  in
  (* The greedy-trap workload (Slo_workload.Trap): a struct engineered so
     the Figure-7 clusterer is provably suboptimal on the shared
     objective. Here the search must win STRICTLY, and the win must show
     up as fewer simulated cycles. *)
  let module Trap = Slo_workload.Trap in
  let trap_flg = Trap.flg () in
  let trap =
    Pipeline.search ?pool:(pool ()) ~seed ~restarts
      ~selector:Optimizer.Portfolio trap_flg
  in
  let tg = trap.Optimizer.greedy.Optimizer.score in
  let tb = trap.Optimizer.best.Optimizer.score in
  Printf.printf "%-8s %12.1f %12.1f %10.1f  %s\n%!" "trap" tg tb (tb -. tg)
    trap.Optimizer.best.Optimizer.label;
  if tb <= tg then begin
    Printf.eprintf
      "layout_search: search failed to strictly beat greedy on the trap \
       workload (greedy %g, best %g)\n"
      tg tb;
    exit 1
  end;
  let per_struct = per_struct @ [ ("trap", trap) ] in
  (* Simulator validation: structs that improved on the objective re-run
     their workload with the greedy layout vs the best-found layout; the
     trap uses its own driver, kernel structs use SDET. *)
  let module Machine = Slo_sim.Machine in
  let improved =
    List.filter
      (fun ((_, p) : string * Optimizer.portfolio) ->
        p.Optimizer.best.Optimizer.score
        > p.Optimizer.greedy.Optimizer.score +. 1e-9)
      per_struct
  in
  let cfg =
    Sdet.default_config
      (Topology.superdome ~cpus:(if !quick then 16 else 32) ())
  in
  let sim_seeds = [ 1; 2; 3 ] in
  let sdet_cycles layout =
    List.fold_left
      (fun acc seed ->
        let r = Sdet.run_once { cfg with Sdet.overrides = [ layout ]; seed } in
        acc + r.Machine.makespan)
      0 sim_seeds
  in
  let sim_rows =
    List.map
      (fun ((name, p) : string * Optimizer.portfolio) ->
        let cycles =
          if name = "trap" then fun l -> Trap.measure_makespan l
          else sdet_cycles
        in
        let cg = cycles p.Optimizer.greedy.Optimizer.layout in
        let cb = cycles p.Optimizer.best.Optimizer.layout in
        Printf.printf
          "sim %-6s greedy %9d cycles | %-10s %9d cycles  -> %s\n%!" name cg
          p.Optimizer.best.Optimizer.label cb
          (if cb < cg then "confirmed (fewer cycles)" else "not confirmed");
        (name, p.Optimizer.best.Optimizer.label, cg, cb))
      improved
  in
  let confirmed = List.exists (fun (_, _, cg, cb) -> cb < cg) sim_rows in
  if not confirmed then begin
    Printf.eprintf
      "layout_search: no objective win was confirmed by the simulator\n";
    exit 1
  end;
  Printf.printf "simulator confirmation: yes\n%!";
  Json.Obj
    [
      ("restarts", Json.Int restarts);
      ("seed", Json.Int seed);
      ( "structs",
        Json.List
          (List.map
             (fun ((name, p) : string * Optimizer.portfolio) ->
               Json.Obj
                 [
                   ("struct", Json.Str name);
                   ( "greedy_score",
                     Json.Float p.Optimizer.greedy.Optimizer.score );
                   ("best_score", Json.Float p.Optimizer.best.Optimizer.score);
                   ("winner", Json.Str p.Optimizer.best.Optimizer.label);
                   ( "scoreboard",
                     Json.List
                       (List.map
                          (fun (r : Optimizer.result) ->
                            Json.Obj
                              [
                                ("candidate", Json.Str r.Optimizer.label);
                                ("score", Json.Float r.Optimizer.score);
                                ("moves", Json.Int r.Optimizer.moves);
                              ])
                          p.Optimizer.scoreboard) );
                 ])
             per_struct) );
      ( "sim",
        Json.List
          (List.map
             (fun (name, label, cg, cb) ->
               Json.Obj
                 [
                   ("struct", Json.Str name);
                   ("winner", Json.Str label);
                   ("greedy_cycles", Json.Int cg);
                   ("best_cycles", Json.Int cb);
                   ("improved", Json.Bool (cb < cg));
                 ])
             sim_rows) );
      ("sim_confirmed", Json.Bool confirmed);
    ]

(* ------------------------------------------------------------------ *)
(* Code-layout subsystem (lib/codelayout): the same search engine over a
   second substrate — basic blocks with CFG-edge affinities, bins are
   I-cache lines. Two gates in one section: (1) the portfolio's best
   never scores below greedy or declaration order on the shared
   objective, and (2) the searched block order STRICTLY reduces simulated
   I-cache misses on the built-in trap workload. Exit non-zero on any
   failure — the runtest-code wiring doubles as the subsystem's soundness
   check. *)

let run_code_layout () =
  section "code_layout: block-affinity search vs declaration order";
  let module Codelayout = Slo_codelayout.Codelayout in
  let module Ctrap = Slo_workload.Ctrap in
  let module Machine = Slo_sim.Machine in
  let module Coherence = Slo_sim.Coherence in
  let module Sim_stats = Slo_sim.Sim_stats in
  let module Sgraph = Slo_graph.Sgraph in
  let capacity = Ctrap.icache.Coherence.i_line_size in
  let prob =
    Codelayout.of_program ~capacity (Ctrap.program ()) (Ctrap.profile ())
  in
  let blocks = Codelayout.blocks prob in
  let graph = Codelayout.graph prob in
  let active =
    List.length
      (List.filter
         (fun b -> Sgraph.degree graph (Codelayout.Block.name b) > 0)
         blocks)
  in
  let restarts = if !quick then 4 else 8 in
  let seed = 0 in
  Printf.printf
    "%d blocks (%d active), %d affinity edges, %dB bins; portfolio = greedy \
     + swap + %d annealing restarts (seed %d)\n"
    (List.length blocks) active (Sgraph.num_edges graph) capacity restarts
    seed;
  let pf =
    Codelayout.search ?pool:(pool ()) ~seed ~restarts prob
      Slo_search.Engine.Portfolio
  in
  Printf.printf "%-12s %12s %8s\n" "candidate" "score" "moves";
  List.iter
    (fun (r : Codelayout.result) ->
      Printf.printf "%-12s %12.2f %8d\n%!" r.Codelayout.label
        r.Codelayout.score r.Codelayout.moves)
    pf.Codelayout.scoreboard;
  let decl_score = Codelayout.score prob (Codelayout.decl_bins prob) in
  let g = pf.Codelayout.greedy.Codelayout.score in
  let b = pf.Codelayout.best.Codelayout.score in
  Printf.printf "best: %s (%.2f vs greedy %.2f, declaration %.2f)\n%!"
    pf.Codelayout.best.Codelayout.label b g decl_score;
  if b < g || b < decl_score then begin
    Printf.eprintf
      "code_layout: best (%g) scores below a baseline (greedy %g, \
       declaration %g)\n"
      b g decl_score;
    exit 1
  end;
  (* Simulator confirmation: the flat kernel's fetch path is on the line
     here, not just the objective. *)
  let cpus = 4 in
  let best_order = pf.Codelayout.best.Codelayout.order in
  let base_flat = Ctrap.run_sim ~cpus () in
  let opt_flat = Ctrap.run_sim ~cpus ~code_layout:best_order () in
  Printf.printf "sim (%d cpus, %d-line x %dB I-cache):\n" cpus
    Ctrap.icache.Coherence.i_lines Ctrap.icache.Coherence.i_line_size;
  let row label (r : Machine.result) =
    Printf.printf
      "  %-12s imisses %8d / %8d fetches (%5.1f%%), istall %9d, makespan %9d\n%!"
      label r.Machine.stats.Sim_stats.imisses
      r.Machine.stats.Sim_stats.ifetches
      (100.0 *. Sim_stats.imiss_rate r.Machine.stats)
      r.Machine.stats.Sim_stats.istall_cycles r.Machine.makespan
  in
  row "declaration" base_flat;
  row pf.Codelayout.best.Codelayout.label opt_flat;
  let confirmed =
    opt_flat.Machine.stats.Sim_stats.imisses
    < base_flat.Machine.stats.Sim_stats.imisses
  in
  if not confirmed then begin
    Printf.eprintf
      "code_layout: searched layout did not strictly reduce simulated \
       I-cache misses (declaration %d, searched %d)\n"
      base_flat.Machine.stats.Sim_stats.imisses
      opt_flat.Machine.stats.Sim_stats.imisses;
    exit 1
  end;
  Printf.printf "simulator confirmation: yes\n%!";
  let sim_row (r : Machine.result) =
    Json.Obj
      [
        ("imisses", Json.Int r.Machine.stats.Sim_stats.imisses);
        ("ifetches", Json.Int r.Machine.stats.Sim_stats.ifetches);
        ("imiss_rate", Json.Float (Sim_stats.imiss_rate r.Machine.stats));
        ("istall_cycles", Json.Int r.Machine.stats.Sim_stats.istall_cycles);
        ("makespan", Json.Int r.Machine.makespan);
      ]
  in
  Json.Obj
    [
      ("capacity", Json.Int capacity);
      ("blocks", Json.Int (List.length blocks));
      ("active", Json.Int active);
      ("edges", Json.Int (Sgraph.num_edges graph));
      ("restarts", Json.Int restarts);
      ("seed", Json.Int seed);
      ("decl_score", Json.Float decl_score);
      ("greedy_score", Json.Float g);
      ("best_score", Json.Float b);
      ("winner", Json.Str pf.Codelayout.best.Codelayout.label);
      ( "scoreboard",
        Json.List
          (List.map
             (fun (r : Codelayout.result) ->
               Json.Obj
                 [
                   ("candidate", Json.Str r.Codelayout.label);
                   ("score", Json.Float r.Codelayout.score);
                   ("moves", Json.Int r.Codelayout.moves);
                 ])
             pf.Codelayout.scoreboard) );
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
(* The flat memory-system kernel against its spec, plus its throughput.
   Checks in one section: (1) identity — SDET access traces recorded
   across protocols and topologies (including a >62-CPU machine that
   exercises the multi-word sharer masks) replay through the kernel and
   through the pure spec with identical per-access latencies and final
   per-CPU statistics; (2) parallel fan-out over Exec.Pool stays
   byte-identical for pool sizes 1/2/4; (3) kernel throughput on the SDET
   trace (accesses/s, misses/s by class), reported but not gated; (4) the
   same identity and throughput under the multi-level hierarchy, and the
   NUMA-trap demo. Exits non-zero on any mismatch, so the runtest-obs
   wiring doubles as a kernel-vs-spec differential check. *)

let run_sim_scale () =
  section "sim_scale: flat memory-system kernel vs its spec";
  let module Machine = Slo_sim.Machine in
  let module Coherence = Slo_sim.Coherence in
  let module Spec = Slo_sim.Spec in
  let module Sim_stats = Slo_sim.Sim_stats in
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
        { (base ~cpus:64) with Sdet.reps = 4;
          protocol = Slo_sim.Coherence.Moesi } );
      ( "bus4 MESI small cache (evictions)",
        { (Sdet.default_config (Topology.bus ~cpus:4 ())) with
          Sdet.reps = 10; cache_lines = 64 } );
    ]
  in
  Printf.printf "%-36s %12s %10s %10s\n" "identity case" "makespan" "accesses"
    "identical";
  let identity_rows =
    List.map
      (fun (name, cfg) ->
        let r = Sdet.run_once { cfg with Sdet.trace = true } in
        let identical = spec_identical cfg (Array.of_list r.Machine.trace) in
        let accesses =
          r.Machine.stats.Sim_stats.loads + r.Machine.stats.Sim_stats.stores
        in
        Printf.printf "%-36s %12d %10d %10s\n%!" name r.Machine.makespan
          accesses
          (if identical then "yes" else "NO");
        if not identical then begin
          Printf.eprintf "sim_scale: kernel diverges from the spec on %s\n" name;
          exit 1
        end;
        Json.Obj
          [
            ("case", Json.Str name);
            ("makespan", Json.Int r.Machine.makespan);
            ("accesses", Json.Int accesses);
            ("identical", Json.Bool identical);
          ])
      identity_cases
  in
  (* 2. Parallel multi-config fan-out over Exec.Pool: byte-identical
     results for pool sizes 1, 2 and 4. *)
  let pool_cfg = { (base ~cpus:8) with Sdet.reps = 6 } in
  let pool_seeds = [ 1; 2; 3; 4; 5; 6 ] in
  let run_seed seed = Sdet.run_once { pool_cfg with Sdet.seed } in
  let serial = List.map run_seed pool_seeds in
  let pool_sizes = [ 1; 2; 4 ] in
  let pool_ok =
    List.for_all
      (fun n ->
        let rs =
          Pool.with_pool ~domains:n (fun p -> Pool.map p run_seed pool_seeds)
        in
        let ok = rs = serial in
        Printf.printf "pool fan-out, %d domain%s: %s\n%!" n
          (if n = 1 then "" else "s")
          (if ok then "identical" else "MISMATCH");
        ok)
      pool_sizes
  in
  if not pool_ok then begin
    Printf.eprintf "sim_scale: pooled runs diverge from serial runs\n";
    exit 1
  end;
  (* 3. Memory-system throughput: record SDET's access trace once, then
     replay it through the kernel directly, isolating the memory system
     from the interpreter around it. End-to-end simulation wall time is
     reported alongside as context. Both are information, not gates. *)
  let cpus = if !quick then 16 else 32 in
  let reps = if !quick then 12 else 30 in
  let runs = if !quick then 4 else 8 in
  let replays = if !quick then 10 else 20 in
  let cfg = { (base ~cpus) with Sdet.reps } in
  let trace =
    Array.of_list
      (Sdet.run_once { cfg with Sdet.trace = true }).Machine.trace
  in
  let n_trace = Array.length trace in
  let replay ?hierarchy () =
    let coh =
      Coherence.create cfg.Sdet.topology ~line_size:Kernel.line_size
        ~cache_capacity:cfg.Sdet.cache_lines ~protocol:cfg.Sdet.protocol
        ?hierarchy ()
    in
    let t0 = Obs.now () in
    for _rep = 1 to replays do
      Array.iter
        (fun (ev : Machine.trace_event) ->
          ignore
            (Coherence.access coh ~cpu:ev.Machine.t_cpu
               ~addr:ev.Machine.t_addr ~size:ev.Machine.t_size
               ~is_write:ev.Machine.t_is_write))
        trace
    done;
    (Coherence.total_stats coh, Obs.now () -. t0)
  in
  let identical = spec_identical cfg trace in
  Printf.printf
    "trace replay: %d SDET accesses x %d replays (%d CPUs, %d reps); kernel = \
     spec: %s\n"
    n_trace replays cpus reps
    (if identical then "yes" else "NO");
  if not identical then begin
    Printf.eprintf "sim_scale: kernel replay diverges from the spec replay\n";
    exit 1
  end;
  let flat_totals, flat_wall = replay () in
  (* End-to-end simulation wall time (interpreter + memory system), and
     the step loop's cost per executed instruction or terminator. *)
  let steps_before = Obs.counter "sim.steps" in
  let sim_wall =
    let t0 = Obs.now () in
    List.iter
      (fun seed -> ignore (Sdet.run_once { cfg with Sdet.seed }))
      (List.init runs (fun i -> cfg.Sdet.seed + i));
    Obs.now () -. t0
  in
  let steps = Obs.counter "sim.steps" - steps_before in
  let ns_per_step =
    if steps > 0 then sim_wall *. 1e9 /. float_of_int steps else 0.0
  in
  let accesses st = st.Sim_stats.loads + st.Sim_stats.stores in
  let per_s wall n = if wall > 0.0 then float_of_int n /. wall else 0.0 in
  let kernel_json st wall =
    Json.Obj
      [
        ("wall_s", Json.Float wall);
        ("accesses_per_s", Json.Float (per_s wall (accesses st)));
        ( "misses_per_s",
          Json.Obj
            [
              ("cold", Json.Float (per_s wall st.Sim_stats.cold_misses));
              ("capacity", Json.Float (per_s wall st.Sim_stats.capacity_misses));
              ( "true_sharing",
                Json.Float (per_s wall st.Sim_stats.true_sharing_misses) );
              ( "false_sharing",
                Json.Float (per_s wall st.Sim_stats.false_sharing_misses) );
            ] );
      ]
  in
  let flat_rate = per_s flat_wall (accesses flat_totals) in
  let print_row name st wall =
    Printf.printf "%-10s %12.4f %14.0f %14.0f\n%!" name wall
      (per_s wall (accesses st))
      (per_s wall (Sim_stats.misses st))
  in
  Printf.printf "%-10s %12s %14s %14s\n" "" "wall (s)" "accesses/s" "misses/s";
  print_row "kernel" flat_totals flat_wall;
  Printf.printf "end-to-end simulation: %.4fs over %d runs, %d steps, %.0f ns/step\n%!"
    sim_wall runs steps ns_per_step;
  if Obs.counter "sim.kernel.runs" = 0 then begin
    Printf.eprintf "sim_scale: sim.kernel.* obs counters never moved\n";
    exit 1
  end;
  (* 4. Multi-level hierarchy: the same trace with private L1s and
     per-cell victim LLCs in front of the coherent caches. Gated on
     kernel = spec identity; the throughput relative to the single-level
     kernel is reported as information. *)
  let module Ntrap = Slo_workload.Ntrap in
  let hier_geometry = Ntrap.hierarchy in
  let hier_identical = spec_identical ~hierarchy:hier_geometry cfg trace in
  if not hier_identical then begin
    Printf.eprintf
      "sim_scale: multi-level kernel replay diverges from the spec replay\n";
    exit 1
  end;
  let hier_flat_totals, hier_flat_wall = replay ~hierarchy:hier_geometry () in
  let hier_flat_rate = per_s hier_flat_wall (accesses hier_flat_totals) in
  let single_level_ratio =
    if flat_rate > 0.0 then hier_flat_rate /. flat_rate else 0.0
  in
  Printf.printf
    "multi-level replay (L1 %d lines, LLC %d lines per cell); kernel = spec: \
     yes\n"
    hier_geometry.Coherence.h_l1_lines hier_geometry.Coherence.h_llc_lines;
  print_row "kernel" hier_flat_totals hier_flat_wall;
  Printf.printf "multi-level throughput: %.2fx of the single-level kernel\n%!"
    single_level_ratio;
  (* 5. The NUMA trap demo: the hierarchy-aware objective must strictly
     beat the distance-blind one in simulated cycles on the 128-CPU
     Superdome, and must not lose on the 4-CPU bus (where the two
     objectives pick the same layout and the makespans are a wash). *)
  let demo topo name require_strict =
    let mk_hier = Ntrap.measure_makespan ~topo (Ntrap.layout_hier topo) in
    let mk_flat = Ntrap.measure_makespan ~topo (Ntrap.layout_flat topo) in
    let win_pct =
      if mk_flat > 0 then
        100.0 *. (1.0 -. (float_of_int mk_hier /. float_of_int mk_flat))
      else 0.0
    in
    Printf.printf
      "ntrap %-14s hier-aware %8d cycles, flat %8d cycles (%+.2f%%)\n%!" name
      mk_hier mk_flat win_pct;
    if require_strict && mk_hier >= mk_flat then begin
      Printf.eprintf
        "sim_scale: hierarchy-aware layout does not strictly beat the flat \
         one on %s (%d vs %d cycles)\n"
        name mk_hier mk_flat;
      exit 1
    end;
    if (not require_strict) && mk_hier > mk_flat then begin
      Printf.eprintf
        "sim_scale: hierarchy-aware layout loses to the flat one on %s \
         (%d vs %d cycles)\n"
        name mk_hier mk_flat;
      exit 1
    end;
    ( name,
      Json.Obj
        [
          ("hier_cycles", Json.Int mk_hier);
          ("flat_cycles", Json.Int mk_flat);
          ("win_pct", Json.Float win_pct);
          ("strict_win_required", Json.Bool require_strict);
        ] )
  in
  let demo_superdome = demo (Topology.superdome ~cpus:128 ()) "superdome128" true in
  let demo_bus = demo (Topology.bus ~cpus:4 ()) "bus4" false in
  if Obs.counter "sim.llc.runs" = 0 then begin
    Printf.eprintf "sim_scale: sim.llc.* obs counters never moved\n";
    exit 1
  end;
  Json.Obj
    [
      ("cpus", Json.Int cpus);
      ("reps", Json.Int reps);
      ("runs", Json.Int runs);
      ("trace_accesses", Json.Int n_trace);
      ("replays", Json.Int replays);
      ("identity", Json.List identity_rows);
      ("identical", Json.Bool identical);
      ( "pool",
        Json.Obj
          [
            ("sizes", Json.List (List.map (fun n -> Json.Int n) pool_sizes));
            ("identical", Json.Bool pool_ok);
          ] );
      ("kernel", kernel_json flat_totals flat_wall);
      ( "sim_end_to_end",
        Json.Obj
          [
            ("kernel_wall_s", Json.Float sim_wall);
            ("steps", Json.Int steps);
            ("ns_per_step", Json.Float ns_per_step);
          ] );
      ("kernel_runs_counter", Json.Int (Obs.counter "sim.kernel.runs"));
      ( "hierarchy",
        Json.Obj
          [
            ("l1_lines", Json.Int hier_geometry.Coherence.h_l1_lines);
            ("llc_lines", Json.Int hier_geometry.Coherence.h_llc_lines);
            ("identical", Json.Bool hier_identical);
            ( "hits",
              Json.Obj
                [
                  ("l1", Json.Int hier_flat_totals.Sim_stats.l1_hits);
                  ("l2", Json.Int hier_flat_totals.Sim_stats.l2_hits);
                  ( "llc_local",
                    Json.Int hier_flat_totals.Sim_stats.llc_local_hits );
                  ( "llc_remote",
                    Json.Int hier_flat_totals.Sim_stats.llc_remote_hits );
                ] );
            ("kernel", kernel_json hier_flat_totals hier_flat_wall);
            ("single_level_ratio", Json.Float single_level_ratio);
            ( "demo",
              Json.Obj [ demo_superdome; demo_bus ] );
            ("llc_runs_counter", Json.Int (Obs.counter "sim.llc.runs"));
          ] );
    ]

let run_model_check () =
  section "model_check: exhaustive small-config coherence verification";
  let module Mc = Slo_sim.Modelcheck in
  Printf.printf
    "breadth-first over every interleaving; kernel = spec + trace oracle \
     checked on every edge\n";
  Printf.printf "%-36s %8s %8s %8s %6s %9s %8s %9s\n" "config" "states" "pinned"
    "edges" "depth" "frontier" "oracle" "wall (s)";
  let drift = ref false in
  let rows =
    List.map
      (fun (cfg, pin) ->
        let t0 = Obs.now () in
        let r =
          try Mc.run cfg
          with Mc.Violation { vmsg; vtrace } ->
            Printf.eprintf
              "model_check: %s violated an invariant: %s (witness: %d steps)\n"
              (Mc.config_name cfg) vmsg (List.length vtrace);
            exit 1
        in
        let wall = Obs.now () -. t0 in
        let ok = r.Mc.r_states = pin in
        if not ok then drift := true;
        Printf.printf "%-36s %8d %8d %8d %6d %9d %8d %9.3f%s\n%!"
          (Mc.config_name cfg) r.Mc.r_states pin r.Mc.r_transitions
          r.Mc.r_max_depth r.Mc.r_max_frontier r.Mc.r_oracle_traces wall
          (if ok then "" else "  DRIFT");
        Json.Obj
          [
            ("config", Json.Str (Mc.config_name cfg));
            ("states", Json.Int r.Mc.r_states);
            ("pinned", Json.Int pin);
            ("transitions", Json.Int r.Mc.r_transitions);
            ("max_depth", Json.Int r.Mc.r_max_depth);
            ("max_frontier", Json.Int r.Mc.r_max_frontier);
            ("oracle_traces", Json.Int r.Mc.r_oracle_traces);
            ("ok", Json.Bool ok);
          ])
      Mc.standard_suite
  in
  if !drift then begin
    Printf.eprintf
      "model_check: reachable-state count drifted from its pin — the \
       protocol semantics changed\n";
    exit 1
  end;
  (* The mutation net must stay live: a deliberately broken protocol table
     has to be caught, with a minimized witness. *)
  let mutations =
    [
      ("read_keeps_modified", Mc.Read_keeps_modified);
      ("skip_last_invalidation", Mc.Skip_last_invalidation);
    ]
  in
  let mutation_rows =
    List.map
      (fun (name, m) ->
        match Mc.run ~mutate:m (Mc.config ()) with
        | _ ->
          Printf.eprintf
            "model_check: mutation %s explored without a violation — the \
             invariant net is dead\n"
            name;
          exit 1
        | exception Mc.Violation { vmsg; vtrace } ->
          Printf.printf "mutation %-24s caught: %s (%d-step witness)\n%!" name
            vmsg (List.length vtrace);
          Json.Obj
            [
              ("mutation", Json.Str name);
              ("caught", Json.Bool true);
              ("witness_steps", Json.Int (List.length vtrace));
              ("message", Json.Str vmsg);
            ])
      mutations
  in
  Printf.printf "totals: %d states, %d transitions across %d configs\n%!"
    (Obs.counter "sim.mc.states")
    (Obs.counter "sim.mc.transitions")
    (List.length Mc.standard_suite);
  Json.Obj
    [
      ("configs", Json.List rows);
      ("mutations", Json.List mutation_rows);
      ("all_pinned", Json.Bool (not !drift));
      ("states_counter", Json.Int (Obs.counter "sim.mc.states"));
      ("transitions_counter", Json.Int (Obs.counter "sim.mc.transitions"));
      ("runs_counter", Json.Int (Obs.counter "sim.mc.runs"));
    ]

(* ------------------------------------------------------------------ *)
(* Always-on layout service: drive a running serve daemon with a phased,
   multi-client feed of the kernel corpus's PMU samples, then gate on the
   three identities the service rests on: (1) the retire-by-subtraction
   sliding window equals a from-scratch re-bin of the final window's
   samples, (2) at least one drift-triggered re-search published a new
   versioned layout, (3) a snapshot/restore round trip is byte-identical
   and a forced re-search on the restored server reproduces the
   suggestion exactly. Any divergence exits non-zero — the runtest-serve
   wiring doubles as the service-soundness check. *)

let run_serve () =
  section "serve: always-on layout service (sliding window + re-search)";
  let module Serve = Slo_serve.Serve in
  let module Window = Slo_serve.Window in
  let module Optimizer = Slo_search.Optimizer in
  let module Persist = Slo_persist.Persist in
  let program = Kernel.program () in
  let counts = Collect.profile () in
  let base = Collect.samples () in
  let params = Collect.calibrated_params in
  let interval = params.Pipeline.cc_interval in
  let lo =
    List.fold_left (fun a (s : Sample.t) -> min a s.Sample.itc) max_int base
  in
  let hi =
    List.fold_left (fun a (s : Sample.t) -> max a s.Sample.itc) min_int base
  in
  let span = (((hi - lo) / interval) + 2) * interval in
  (* window = two phases of the feed, like the CLI default: every phase
     slides it, so intervals retire throughout the run *)
  let window = max 1 (2 * span / interval) in
  let clients = 4 and phases = if !quick then 4 else 8 in
  (* above the window's ~11% phase-boundary oscillation, below the ~86%
     workload shift: re-search fires on the shift and only the shift *)
  let drift_threshold = 0.2 in
  let cfg =
    { Serve.interval; window; decay = 0.9; drift_threshold; min_samples = 64;
      queue_capacity = 8; params; program; counts; struct_name = "A";
      selector = Optimizer.Portfolio; seed = 11;
      restarts = (if !quick then 2 else 4) }
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
  let batch_of ~phase ~client =
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
  let client_list = List.init clients (fun c -> c) in
  Printf.printf
    "%d clients x %d phases, %d samples/batch, interval %d, window %d\n%!"
    clients phases (Array.length base_arr) interval window;
  let t = Serve.create cfg in
  let submitted = ref [] (* every batch, reverse submission order *) in
  Serve.run t;
  let t0 = Obs.now () in
  for phase = 0 to phases - 1 do
    let batches =
      match pool () with
      | Some p -> Pool.map p (fun c -> batch_of ~phase ~client:c) client_list
      | None -> List.map (fun c -> batch_of ~phase ~client:c) client_list
    in
    List.iter
      (fun b ->
        submitted := b :: !submitted;
        ignore (Serve.submit_wait t b))
      batches
  done;
  Serve.stop t;
  let ingest_wall = Obs.now () -. t0 in
  let n_batches = phases * clients in
  let n_samples = n_batches * Array.length base_arr in
  let rate =
    if ingest_wall > 0.0 then float_of_int n_samples /. ingest_wall else 0.0
  in
  let w = Serve.window t in
  Printf.printf
    "ingested %d samples in %.3fs (%.0f samples/s sustained, re-searches \
     included)\n"
    n_samples ingest_wall rate;
  Printf.printf
    "window: %d live samples in %d intervals; %d retired by subtraction, %d \
     late, %d batches dropped\n%!"
    (Window.live_samples w) (Window.live_intervals w) (Window.retired w)
    (Window.late w) (Serve.dropped_batches t);
  let canon b =
    List.map
      (fun (idx, tbl) ->
        (idx, Sample.total_samples tbl, Sample.line_freqs tbl))
      (Sample.binned_idx b)
  in
  (* Gate 1: the subtraction-maintained window = re-binning from scratch.
     A sample survives in the master iff its interval is inside the final
     window, so the direct bin of exactly those samples must match. *)
  let newest = match Window.newest w with Some n -> n | None -> 0 in
  let direct = Sample.binner ~interval in
  List.iter
    (Array.iter (fun (s : Sample.t) ->
         if Sample.floor_div s.Sample.itc interval > newest - window then
           Sample.feed direct s))
    (List.rev !submitted);
  let rebin_identical = canon (Window.master w) = canon direct in
  Printf.printf "retire-by-subtraction vs re-bin from scratch: %s\n%!"
    (if rebin_identical then "identical" else "MISMATCH");
  if not rebin_identical then begin
    Printf.eprintf
      "serve: window after retirement diverges from a from-scratch re-bin\n";
    exit 1
  end;
  (* Gate 2: the workload shift must have triggered a drift re-search. *)
  let pubs = Serve.publications t in
  Printf.printf "\n%-8s %10s %10s %12s %10s\n" "version" "drift" "samples"
    "score" "intervals";
  List.iter
    (fun (p : Serve.publication) ->
      Printf.printf "%-8d %10.4f %10d %12.2f %10d\n" p.Serve.version
        p.Serve.pub_drift p.Serve.window_samples
        p.Serve.best.Optimizer.score p.Serve.window_intervals)
    pubs;
  let drift_triggered =
    List.exists
      (fun (p : Serve.publication) ->
        p.Serve.version > 1 && p.Serve.pub_drift > drift_threshold)
      pubs
  in
  if not drift_triggered then begin
    Printf.eprintf
      "serve: the workload shift never triggered a drift re-search\n";
    exit 1
  end;
  (* Gate 3: kill-then-restore. Snapshot, restore into a fresh server,
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
  let read_raw p =
    let ic = open_in_bin p in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let snapshot_identical = read_raw snap1 = read_raw snap2 in
  let a = Serve.research t and b = Serve.research t' in
  let research_identical =
    a.Serve.cc_pairs = b.Serve.cc_pairs
    && a.Serve.best.Optimizer.blocks = b.Serve.best.Optimizer.blocks
    && a.Serve.best.Optimizer.score = b.Serve.best.Optimizer.score
  in
  Printf.printf
    "\nsnapshot round trip: %s; restored re-search: %s (version %d, score \
     %.2f)\n%!"
    (if snapshot_identical then "byte-identical" else "MISMATCH")
    (if research_identical then "identical suggestion" else "MISMATCH")
    (Serve.version t') b.Serve.best.Optimizer.score;
  if not (snapshot_identical && research_identical) then begin
    Printf.eprintf "serve: snapshot/restore failed to reproduce the state\n";
    exit 1
  end;
  let hist name =
    match Obs.histogram name with
    | Some s -> (s.Obs.count, s.Obs.p50, s.Obs.p99)
    | None -> (0, 0.0, 0.0)
  in
  let i_count, i_p50, i_p99 = hist "serve.ingest_s" in
  let r_count, _, r_p99 = hist "serve.research_s" in
  Printf.printf
    "ingest: %d batches, p50 %.6fs, p99 %.6fs; %d re-searches (p99 %.4fs)\n%!"
    i_count i_p50 i_p99 r_count r_p99;
  Json.Obj
    [
      ("interval", Json.Int interval);
      ("window", Json.Int window);
      ("clients", Json.Int clients);
      ("phases", Json.Int phases);
      ("batches", Json.Int n_batches);
      ("samples", Json.Int n_samples);
      ("samples_per_s", Json.Float rate);
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

let all_sections =
  [
    ("topology", run_topology);
    ("fig8", run_fig8);
    ("fig10", run_fig10);
    ("fig9", run_fig9);
    ("ccstability", run_cc_stability);
    ("gvl", run_gvl);
    ("accumulation", run_accumulation);
    ("oracle", run_oracle);
    ("userapp", run_userapp);
    ("ablation-k2", run_ablation_k2);
    ("ablation-sampling", run_ablation_sampling);
    ("ablation-clustering", run_ablation_clustering);
    ("ablation-machines", run_ablation_machines);
    ("ablation-protocol", run_ablation_protocol);
    ("micro", run_micro);
    ("layout_search", run_layout_search);
    ("code_layout", run_code_layout);
    ("cc_scale", run_cc_scale);
    ("sim_scale", run_sim_scale);
    ("model_check", run_model_check);
    ("serve", run_serve);
    ("smoke", run_smoke);
  ]

let run_section (name, f) =
  let t0 = Obs.now () in
  let data = f () in
  write_artifact ~section:name ~wall:(Obs.now () -. t0) data

let main quick_mode jobs_opt json sections =
  quick := quick_mode;
  Option.iter (fun j -> jobs := j) jobs_opt;
  json_path := json;
  Printf.printf
    "Structure Layout Optimization for Multithreaded Programs (CGO 2007)\n";
  Printf.printf "benchmark harness%s, %d job%s\n%!"
    (if !quick then " (quick mode)" else "")
    (effective_jobs ())
    (if effective_jobs () = 1 then "" else "s");
  List.iter run_section (match sections with [] -> all_sections | l -> l);
  write_manifest ()

(* An unknown section name is a command-line error: Cmdliner lists the
   valid sections and exits with its cli-error status (124), like
   slayout's unknown subcommands. *)
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
      & opt (some string) None
      & info [ "json" ] ~docv:"PATH"
          ~doc:
            "write a manifest to $(docv) and one BENCH_<section>.json \
             artifact per section beside it")
  in
  let sections_arg =
    Arg.(
      value
      & pos_all (enum (List.map (fun ((n, _) as s) -> (n, s)) all_sections)) []
      & info [] ~docv:"SECTION" ~doc:"sections to run (default: all)")
  in
  exit
    (Cmd.eval
       (Cmd.v
          (Cmd.info "main" ~doc:"paper figures, ablations and scale checks")
          Term.(const main $ quick_arg $ jobs_arg $ json_arg $ sections_arg)))
