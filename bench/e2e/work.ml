(* The four end-to-end workloads. Each one is a set-up, which makes the
   workload's fixed inputs from the seed, and an iteration, which runs
   one pass of a user-facing operation through the libraries' public
   functions. Every call into a library layer is wrapped in a span named
   after the [lib/] module that does the work. *)

module Pool = Slo_exec.Pool
module Ast = Slo_ir.Ast
module Parser = Slo_ir.Parser
module Typecheck = Slo_ir.Typecheck
module Interp = Slo_profile.Interp
module Counts = Slo_profile.Counts
module Layout = Slo_layout.Layout
module Field = Slo_layout.Field
module Sample = Slo_concurrency.Sample
module Sample_store = Slo_concurrency.Sample_store
module Cc = Slo_concurrency.Code_concurrency
module Fmf = Slo_concurrency.Fmf
module Machine = Slo_sim.Machine
module Topology = Slo_sim.Topology
module Coherence = Slo_sim.Coherence
module Sim_stats = Slo_sim.Sim_stats
module Optimizer = Slo_search.Optimizer
module Hier = Slo_search.Hier
module Pipeline = Slo_core.Pipeline
module Persist = Slo_persist.Persist
module Serve = Slo_serve.Serve
module Window = Slo_serve.Window
module Kernel = Slo_workload.Kernel
module Collect = Slo_workload.Collect
module Sdet = Slo_workload.Sdet
module Stats = Slo_util.Stats
module Prng = Slo_util.Prng

type ctx = {
  seed : int;
  pool : Pool.t option;
  smoke : bool;  (** tiny sizes for the tier-1 smoke rule *)
  workdir : string;  (** scratch directory for the workload's files *)
}

(** What one iteration hands back to the runner in [e2e.ml]. *)
type out = {
  digest : string;
      (** canonical text of every simulated or searched output; equal
          across iterations, job counts and tracing *)
  checks : (string * bool) list;
  samples : int;  (** PMU samples the iteration ingested *)
  values : (string * float) list;  (** workload-specific per-layer values *)
  ingest_ms : float list;  (** serve: latencies of batches without a re-search *)
  research_ms : float list;  (** serve: latencies of batches that re-searched *)
}

type t = {
  name : string;
  setup : ctx -> unit -> unit -> out;
      (** Make the inputs and return the iteration. The iteration returns
          the step that digests and checks its outputs, which the runner
          calls after the iteration's clock has stopped. *)
}

let span = Span.span

(* ------------------------------------------------------------------ *)
(* Shared pieces *)

let add_result buf (r : Optimizer.result) =
  Printf.bprintf buf "%s %h %d %s\n" r.Optimizer.label r.Optimizer.score
    r.Optimizer.moves
    (String.concat "," (Layout.field_names r.Optimizer.layout))

let add_pairs buf pairs =
  List.iter (fun ((a, b), c) -> Printf.bprintf buf "%d:%d:%d " a b c) pairs;
  Buffer.add_char buf '\n'

let digest_of f =
  let buf = Buffer.create 4096 in
  f buf;
  Buffer.contents buf

let best_ge_greedy label (p : Optimizer.portfolio) =
  ( "best>=greedy:" ^ label,
    p.Optimizer.best.Optimizer.score >= p.Optimizer.greedy.Optimizer.score )

let to_samples (ms : Machine.sample list) =
  List.map
    (fun (s : Machine.sample) ->
      { Sample.cpu = s.Machine.s_cpu; itc = s.Machine.s_itc; line = s.Machine.s_line })
    ms

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc s)

let out ?(ingest_ms = []) ?(research_ms = []) ?(values = []) ~digest ~checks
    ~samples () =
  { digest; checks; samples; values; ingest_ms; research_ms }

(* ------------------------------------------------------------------ *)
(* sdet-loop: the paper's section 5 loop *)

let sdet_loop ctx =
  let pool = ctx.pool and seed = ctx.seed in
  let params = Collect.calibrated_params in
  let collect_cfg =
    { (Sdet.default_config (Topology.superdome ~cpus:16 ())) with
      Sdet.reps = (if ctx.smoke then 30 else 90); seed }
  in
  let confirm_cfg =
    { (Sdet.default_config
         (Topology.superdome ~cpus:(if ctx.smoke then 8 else 64) ()))
      with Sdet.seed }
  in
  let runs = if ctx.smoke then 2 else 4 and restarts = if ctx.smoke then 1 else 4 in
  (* The hand-tuned baseline does not depend on anything the loop
     produces, so its throughput is measured once per set-up. *)
  let baseline = Sdet.measure ?pool confirm_cfg ~runs in
  fun () ->
    let program =
      span "ir.parse" (fun () ->
          Typecheck.check (Parser.parse_program ~file:"kernel.mc" Kernel.source))
    in
    let counts = span "profile.interp" (fun () -> Collect.profile ()) in
    let samples =
      span "sim.collect" (fun () -> Collect.samples ~config:collect_cfg ())
    in
    let cm =
      span "concurrency.cc" (fun () ->
          Pipeline.concurrency_map ?pool ~params (fun f -> List.iter f samples))
    in
    let searched =
      List.map
        (fun struct_name ->
          let flg =
            span "core.flg" (fun () ->
                Pipeline.analyze ~params ~cm ~program ~counts ~samples:[]
                  ~struct_name ())
          in
          ( struct_name,
            span "search.portfolio" (fun () ->
                Pipeline.search ~params ?pool ~seed ~restarts
                  ~selector:Optimizer.Portfolio flg) ))
        Kernel.struct_names
    in
    let overrides =
      List.map (fun (_, p) -> p.Optimizer.best.Optimizer.layout) searched
    in
    let measured =
      span "sim.confirm" (fun () ->
          Sdet.measure ?pool { confirm_cfg with Sdet.overrides } ~runs)
    in
    fun () ->
      let pairs = Cc.pairs cm in
      let covers name (p : Optimizer.portfolio) =
        ( "layout-covers-fields:" ^ name,
          List.sort compare (Layout.field_names p.Optimizer.best.Optimizer.layout)
          = List.sort compare (Layout.field_names (Kernel.baseline_layout name)) )
      in
      out ~samples:(List.length samples)
        ~digest:
          (digest_of (fun buf ->
               add_pairs buf pairs;
               List.iter (fun (_, p) -> add_result buf p.Optimizer.best) searched;
               Printf.bprintf buf "baseline %h searched %h\n" baseline measured))
        ~checks:
          (("samples>0", samples <> [])
          :: ("throughput>0", baseline > 0.0 && measured > 0.0)
          :: List.concat_map (fun (n, p) -> [ covers n p; best_ge_greedy n p ]) searched
          )
        ~values:
          [
            ("layout_gain_pct", Stats.speedup_percent ~baseline ~measured);
            ("concurrency.pairs", float_of_int (List.length pairs));
          ]
        ()

(* ------------------------------------------------------------------ *)
(* suggest-samples: `slayout suggest --samples` / `--samples-bin` *)

let suggest_samples ctx =
  let pool = ctx.pool and seed = ctx.seed in
  let params = Collect.calibrated_params in
  let text = Filename.concat ctx.workdir "sdet.samples"
  and bin = Filename.concat ctx.workdir "sdet.samples.bin"
  and prof = Filename.concat ctx.workdir "sdet.prof" in
  let cfg =
    { (Sdet.default_config
         (Topology.superdome ~cpus:(if ctx.smoke then 16 else 64) ()))
      with Sdet.reps = (if ctx.smoke then 30 else 90); seed }
  in
  let samples = Collect.samples ~config:cfg ~period:100 () in
  let n = List.length samples in
  Persist.save_samples ~path:text samples;
  Persist.save_samples_bin ~path:bin (Sample_store.of_samples samples);
  Persist.save_counts ~path:prof (Collect.profile ());
  let restarts = if ctx.smoke then 2 else 12 in
  fun () ->
    let counts = span "persist.counts_load" (fun () -> Persist.load_counts ~path:prof) in
    let cm_text =
      span "concurrency.cc_text" (fun () ->
          Pipeline.concurrency_map ?pool ~params (fun f ->
              Persist.iter_samples_file ~path:text f))
    in
    let store = span "persist.bin_load" (fun () -> Persist.load_samples_bin ~path:bin) in
    let cm_bin =
      span "concurrency.cc_bin" (fun () ->
          Pipeline.concurrency_map_store ?pool ~params store)
    in
    let searched =
      List.map
        (fun struct_name ->
          let flg =
            span "core.flg" (fun () ->
                Collect.flg ~params ~cm:cm_bin ~counts ~samples:[] ~struct_name ())
          in
          ( struct_name,
            span "search.portfolio" (fun () ->
                Pipeline.search ~params ?pool ~seed ~restarts
                  ~selector:Optimizer.Portfolio flg) ))
        Kernel.struct_names
    in
    fun () ->
      let pairs = Cc.pairs cm_bin in
      out ~samples:(2 * n)
        ~digest:
          (digest_of (fun buf ->
               add_pairs buf pairs;
               List.iter (fun (_, p) -> add_result buf p.Optimizer.best) searched))
        ~checks:
          (("cc-text=cc-bin", Cc.pairs cm_text = pairs)
          :: ("store-length", Sample_store.length store = n)
          :: List.map (fun (n, p) -> best_ge_greedy n p) searched)
        ~values:[ ("concurrency.pairs", float_of_int (List.length pairs)) ]
        ()

(* ------------------------------------------------------------------ *)
(* numa-suggest: `slayout suggest kernel.mc --profile kernel.prof -s A
   --topology superdome --cpus 64 --optimizer portfolio` *)

(* Mirrors slayout's generic interpreter profile: every procedure runs
   [rounds] times, struct parameters bound to scratch instances. *)
let generic_profile program ~int_arg ~rounds =
  let counts = Counts.create () in
  let ictx = Interp.make_ctx program in
  let prng = Prng.create ~seed:11 in
  let scratch = Hashtbl.create 8 in
  let instance_of name =
    match Hashtbl.find_opt scratch name with
    | Some i -> i
    | None ->
      let i = Interp.make_instance program ~struct_name:name in
      Hashtbl.replace scratch name i;
      i
  in
  List.iter
    (fun (pd : Ast.proc_decl) ->
      for round = 0 to rounds - 1 do
        let args =
          List.map
            (function
              | Ast.Pstruct { struct_name; _ } -> Interp.Ainst (instance_of struct_name)
              | Ast.Pint _ -> Interp.Aint (int_arg + round))
            pd.Ast.pd_params
        in
        Interp.run ictx ~counts ~prng ~proc:pd.Ast.pd_name args
      done)
    program.Ast.procs;
  counts

(* Mirrors slayout's generic collection machine: every CPU cycles
   through all procedures against machine-wide shared instances. *)
let generic_machine program ~topology ~hierarchy ~seed ~reps ~int_arg ~period =
  let machine =
    Machine.create
      { (Machine.default_config topology) with
        Machine.sample_period = Some period; seed; hierarchy = Some hierarchy }
      program
  in
  let shared = Hashtbl.create 8 in
  List.iter
    (fun (sd : Ast.struct_decl) ->
      Hashtbl.replace shared sd.Ast.sd_name
        (Machine.alloc machine ~struct_name:sd.Ast.sd_name))
    program.Ast.structs;
  let procs = Array.of_list program.Ast.procs in
  for cpu = 0 to Topology.num_cpus topology - 1 do
    let work = ref [] in
    for r = 0 to reps - 1 do
      let pd = procs.((cpu + r) mod Array.length procs) in
      let args =
        List.map
          (function
            | Ast.Pstruct { struct_name; _ } ->
              Machine.Ainst (Hashtbl.find shared struct_name)
            | Ast.Pint _ -> Machine.Aint (int_arg + (cpu mod 8)))
          pd.Ast.pd_params
      in
      work := (pd.Ast.pd_name, args) :: !work
    done;
    Machine.add_thread machine ~cpu ~work:!work
  done;
  machine

let numa_suggest ctx =
  let pool = ctx.pool and seed = ctx.seed in
  (* Set-up is `slayout collect`'s profile half: the source file and its
     interpreter profile, which suggest then reads with --profile. *)
  let file = Filename.concat ctx.workdir "kernel.mc"
  and prof = Filename.concat ctx.workdir "kernel.prof" in
  write_file file Kernel.source;
  Persist.save_counts ~path:prof
    (generic_profile (Kernel.program ()) ~int_arg:16 ~rounds:8);
  let cpus = if ctx.smoke then 8 else 64 and reps = if ctx.smoke then 16 else 64 in
  let restarts = if ctx.smoke then 1 else 4 in
  let topology = Topology.superdome ~cpus () in
  let hierarchy =
    { Coherence.h_l1_lines = 64; h_l1_ways = Some 8; h_llc_lines = 1024;
      h_llc_ways = None }
  in
  let struct_name = "A" and k1 = 1.0 and k2 = 2.0 and line_size = 128 in
  let params =
    { Pipeline.default_params with Pipeline.k1; k2; cc_interval = 4000; line_size }
  in
  fun () ->
    let program =
      span "ir.parse" (fun () ->
          Typecheck.check (Parser.parse_program ~file (read_file file)))
    in
    let counts = span "persist.counts_load" (fun () -> Persist.load_counts ~path:prof) in
    let machine =
      span "sim.build" (fun () ->
          generic_machine program ~topology ~hierarchy ~seed ~reps ~int_arg:16
            ~period:400)
    in
    let result = span "sim.run" (fun () -> Machine.run machine) in
    let samples = to_samples result.Machine.samples in
    let cm =
      span "concurrency.cc" (fun () ->
          Pipeline.concurrency_map ?pool ~params (fun f -> List.iter f samples))
    in
    let flg =
      span "core.flg" (fun () ->
          Pipeline.analyze ~params ~cm ~program ~counts ~samples:[] ~struct_name ())
    in
    let p =
      span "search.portfolio" (fun () ->
          Pipeline.search ~params ?pool ~seed ~restarts
            ~selector:Optimizer.Portfolio flg)
    in
    let sd = Option.get (Ast.find_struct program struct_name) in
    let prof =
      span "search.hier" (fun () ->
          Hier.profile ~fmf:(Fmf.of_program program) ~struct_name
            ~fields:(Field.of_struct sd) ~ncpus:cpus result.Machine.samples)
    in
    let run obj =
      span "search.hier" (fun () ->
          Optimizer.run_selector ?pool ~seed ~restarts obj
            ~init:(Optimizer.decl_blocks obj) Optimizer.Portfolio)
    in
    let hier = run (Hier.objective ~k1 ~k2 ~topo:topology ~struct_name ~line_size prof) in
    let flat = run (Hier.flat_objective ~k1 ~k2 ~struct_name ~line_size prof) in
    fun () ->
      let pairs = Cc.pairs cm in
      out ~samples:(List.length samples)
        ~digest:
          (digest_of (fun buf ->
               Format.kasprintf (Buffer.add_string buf) "%d %a@."
                 result.Machine.makespan Sim_stats.pp result.Machine.stats;
               add_pairs buf pairs;
               List.iter (fun (q : Optimizer.portfolio) -> add_result buf q.Optimizer.best)
                 [ p; hier; flat ]))
        ~checks:
          [
            ("samples>0", samples <> []);
            ("l1-hits>0", result.Machine.stats.Sim_stats.l1_hits > 0);
            best_ge_greedy "A" p;
            best_ge_greedy "hier" hier;
            best_ge_greedy "flat" flat;
          ]
        ~values:[ ("concurrency.pairs", float_of_int (List.length pairs)) ]
        ()

(* ------------------------------------------------------------------ *)
(* serve-feed: a closed loop of small batches into the layout service *)

let serve_feed ctx =
  let seed = ctx.seed in
  let params = Collect.calibrated_params in
  let interval = params.Pipeline.cc_interval in
  let counts = Collect.profile () in
  let collect_cfg =
    { (Sdet.default_config (Topology.superdome ~cpus:(if ctx.smoke then 8 else 16) ()))
      with Sdet.reps = (if ctx.smoke then 40 else 60); seed }
  in
  let base = Array.of_list (Collect.samples ~config:collect_cfg ()) in
  Array.stable_sort
    (fun (a : Sample.t) (b : Sample.t) -> compare a.Sample.itc b.Sample.itc)
    base;
  let n = Array.length base in
  let span_itc =
    (((base.(n - 1).Sample.itc - base.(0).Sample.itc) / interval) + 2) * interval
  in
  let phases = if ctx.smoke then 2 else 4 and batch = 256 in
  (* Phase p replays the collection shifted by p spans; from the second
     half of the feed on, lines rotate to a different sharing pattern so
     the weighted CC drifts and the service re-searches. *)
  let lines =
    Array.of_list
      (List.sort_uniq compare
         (Array.to_list (Array.map (fun (s : Sample.t) -> s.Sample.line) base)))
  in
  let nl = Array.length lines in
  let pos = Hashtbl.create nl in
  Array.iteri (fun i l -> Hashtbl.replace pos l i) lines;
  let batches =
    List.concat_map
      (fun phase ->
        let rot = if 2 * phase >= phases then nl / 2 else 0 in
        let shifted =
          Array.map
            (fun (s : Sample.t) ->
              { s with
                Sample.itc = s.Sample.itc + (phase * span_itc);
                line = lines.((Hashtbl.find pos s.Sample.line + rot) mod nl) })
            base
        in
        List.init ((n + batch - 1) / batch) (fun b ->
            Array.sub shifted (b * batch) (min batch (n - (b * batch)))))
      (List.init phases Fun.id)
  in
  (* Drift 0.3, not bench serve's 0.2: at 0.2 the number of re-searches
     per feed ranged from 11 to 16 between seeds, each about 4 % of the
     iteration; at 0.3 it is 6 for 11 of 12 seeds. *)
  let cfg =
    { Serve.interval; window = max 1 (2 * span_itc / interval); decay = 0.9;
      drift_threshold = 0.3; min_samples = 64; queue_capacity = 8; params;
      program = Kernel.program (); counts; struct_name = "A";
      selector = Optimizer.Portfolio; seed; restarts = (if ctx.smoke then 1 else 4) }
  in
  fun () ->
    let t = span "serve.create" (fun () -> Serve.create cfg) in
    let ingest = ref [] and research = ref [] and accepted = ref true in
    List.iter
      (fun b ->
        let v0 = Serve.version t in
        let t0 = Slo_obs.Obs.now () in
        if span "serve.submit" (fun () -> Serve.submit t b) = `Dropped then
          accepted := false;
        span "serve.ingest" (fun () -> Serve.drain t);
        let ms = (Slo_obs.Obs.now () -. t0) *. 1000.0 in
        if Serve.version t > v0 then begin
          Span.rename_last "serve.research";
          research := ms :: !research
        end
        else ingest := ms :: !ingest)
      batches;
    fun () ->
      let pubs = Serve.publications t and w = Serve.window t in
      let versions = List.map (fun (p : Serve.publication) -> p.Serve.version) pubs in
      let rec increasing = function
        | a :: (b :: _ as rest) -> a < b && increasing rest
        | _ -> true
      in
      out ~samples:(phases * n)
        ~ingest_ms:(List.rev !ingest) ~research_ms:(List.rev !research)
        ~digest:
          (digest_of (fun buf ->
               List.iter
                 (fun (p : Serve.publication) ->
                   Printf.bprintf buf "v%d %h %d %d " p.Serve.version p.Serve.pub_drift
                     p.Serve.window_samples p.Serve.window_intervals;
                   add_result buf p.Serve.best)
                 pubs;
               Printf.bprintf buf "retired %d late %d live %d\n" (Window.retired w)
                 (Window.late w) (Window.live_samples w)))
        ~checks:
          [
            ("batches-accepted", !accepted);
            ("versions-increasing", increasing versions);
            ("drift-research", List.exists (fun v -> v > 1) versions);
            ("dropped=0", Serve.dropped_batches t = 0);
            ("late=0", Window.late w = 0);
          ]
        ~values:
          [
            ("serve.researches", float_of_int (List.length !research));
            ("serve.publications", float_of_int (List.length pubs));
            ("serve.retired_intervals", float_of_int (Window.retired w));
            ("serve.late_samples", float_of_int (Window.late w));
            ("serve.dropped_batches", float_of_int (Serve.dropped_batches t));
          ]
        ()

(* ------------------------------------------------------------------ *)

(* Why each workload was chosen is recorded in README.md and
   BENCHMARK.json. *)
let all =
  [
    { name = "sdet-loop"; setup = sdet_loop };
    { name = "suggest-samples"; setup = suggest_samples };
    { name = "numa-suggest"; setup = numa_suggest };
    { name = "serve-feed"; setup = serve_feed };
  ]
