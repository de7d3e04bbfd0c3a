(* slayout: the semi-automatic structure layout tool (paper Figure 3).

   Subcommands:
     parse     parse + typecheck a minic file, print the program or CFGs
     affinity  profile a file and print a struct's affinity graph
     fmf       print the field mapping file (line -> fields accessed)
     convert   convert a samples file between the text and binary columnar
               formats (either direction, detected from the magic)
     suggest   full pipeline: profile, simulate, build the FLG, print the
               layout report and the suggested layouts
     dot       emit the FLG in Graphviz format
     sdet      run the built-in SDET-like kernel benchmark

   For arbitrary input files the tool needs a concurrency harness: `suggest`
   runs every procedure on every CPU against shared instances (one per
   struct), which exposes the file's sharing behaviour without needing a
   workload description. Point it at a real workload by writing the driver
   against the library API instead (see examples/). *)

module Ast = Slo_ir.Ast
module Parser = Slo_ir.Parser
module Typecheck = Slo_ir.Typecheck
module Cfg = Slo_ir.Cfg
module Pretty = Slo_ir.Pretty
module Interp = Slo_profile.Interp
module Counts = Slo_profile.Counts
module Machine = Slo_sim.Machine
module Topology = Slo_sim.Topology
module Coherence = Slo_sim.Coherence
module Sample = Slo_concurrency.Sample
module Fmf = Slo_concurrency.Fmf
module Affinity_graph = Slo_affinity.Affinity_graph
module Group = Slo_affinity.Group
module Layout = Slo_layout.Layout
module Pipeline = Slo_core.Pipeline
module Report = Slo_core.Report
module Flg = Slo_core.Flg
module Prng = Slo_util.Prng
module Pool = Slo_exec.Pool
module Optimizer = Slo_search.Optimizer
open Cmdliner

(* ------------------------------------------------------------------ *)
(* Shared plumbing *)

let load_program ?(inline = false) file =
  let ic = open_in_bin file in
  let len = in_channel_length ic in
  let src = really_input_string ic len in
  close_in ic;
  let p = Typecheck.check (Parser.parse_program ~file src) in
  if inline then Slo_ir.Inline.program p else p

let or_die f =
  try f () with
  | Parser.Error (msg, loc) | Interp.Runtime_error (msg, loc) ->
    Printf.eprintf "%s: %s\n" (Slo_ir.Loc.to_string loc) msg;
    exit 1
  | Slo_ir.Lexer.Error (msg, loc) ->
    Printf.eprintf "%s: %s\n" (Slo_ir.Loc.to_string loc) msg;
    exit 1
  | Typecheck.Error e ->
    Format.eprintf "%a@." Typecheck.pp_error e;
    exit 1
  | Slo_persist.Persist.Parse_error (msg, ln) ->
    Printf.eprintf "line %d: %s\n" ln msg;
    exit 1
  | Slo_persist.Persist.Bin_error msg ->
    Printf.eprintf "error: %s\n" msg;
    exit 1
  | Invalid_argument msg | Failure msg ->
    Printf.eprintf "error: %s\n" msg;
    exit 1

(* Run every procedure [rounds] times through the interpreter, binding
   struct-pointer parameters to scratch instances and integer parameters to
   [int_arg]. *)
let generic_profile program ~int_arg ~rounds =
  let counts = Counts.create () in
  let ctx = Interp.make_ctx program in
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
            (fun p ->
              match p with
              | Ast.Pstruct { struct_name; _ } ->
                Interp.Ainst (instance_of struct_name)
              | Ast.Pint _ -> Interp.Aint (int_arg + round))
            pd.Ast.pd_params
        in
        Interp.run ctx ~counts ~prng ~proc:pd.Ast.pd_name args
      done)
    program.Ast.procs;
  counts

(* Generic concurrency harness: every CPU cycles through all procedures
   against machine-wide shared instances, with sampling every [period]
   cycles ([None]: no sampling). [topology] defaults to the scaled
   Superdome; [hierarchy] optionally threads a multi-level cache geometry
   (per-CPU L1 + per-cell LLC) through to the kernel so the per-level
   counters accumulate. [None] when the program has no procedures. *)
let generic_run ?topology ?hierarchy program ~cpus ~period ~reps ~int_arg =
  let topology =
    match topology with Some t -> t | None -> Topology.superdome ~cpus ()
  in
  let machine =
    Machine.create
      { (Machine.default_config topology) with
        Machine.sample_period = period; seed = 3; hierarchy }
      program
  in
  let shared = Hashtbl.create 8 in
  List.iter
    (fun (sd : Ast.struct_decl) ->
      Hashtbl.replace shared sd.Ast.sd_name
        (Machine.alloc machine ~struct_name:sd.Ast.sd_name))
    program.Ast.structs;
  let procs = Array.of_list program.Ast.procs in
  if Array.length procs = 0 then None
  else begin
    for cpu = 0 to cpus - 1 do
      let work = ref [] in
      for r = 0 to reps - 1 do
        let pd = procs.((cpu + r) mod Array.length procs) in
        let args =
          List.map
            (fun p ->
              match p with
              | Ast.Pstruct { struct_name; _ } ->
                Machine.Ainst (Hashtbl.find shared struct_name)
              | Ast.Pint _ -> Machine.Aint (int_arg + (cpu mod 8)))
            pd.Ast.pd_params
        in
        work := (pd.Ast.pd_name, args) :: !work
      done;
      Machine.add_thread machine ~cpu ~work:!work
    done;
    Some (Machine.run machine)
  end

(* The harness's samples in the pipeline's representation; [on_result]
   observes the raw machine result (stats + per-CPU samples) first. *)
let generic_samples ?topology ?hierarchy ?on_result program ~cpus ~period ~reps
    ~int_arg =
  match
    generic_run ?topology ?hierarchy program ~cpus ~period:(Some period) ~reps
      ~int_arg
  with
  | None -> []
  | Some result ->
    Option.iter (fun f -> f result) on_result;
    List.map
      (fun (s : Machine.sample) ->
        { Sample.cpu = s.Machine.s_cpu; itc = s.Machine.s_itc;
          line = s.Machine.s_line })
      result.Machine.samples

(* ------------------------------------------------------------------ *)
(* Arguments *)

let file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"minic source file")

let struct_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "s"; "struct" ] ~docv:"NAME" ~doc:"target struct")

let int_arg_t =
  Arg.(
    value & opt int 16
    & info [ "int-arg" ] ~docv:"N"
        ~doc:"value for integer parameters when driving procedures")

let rounds_arg =
  Arg.(
    value & opt int 8
    & info [ "rounds" ] ~docv:"N" ~doc:"profiling rounds per procedure")

let cpus_collect_arg =
  Arg.(
    value & opt int 16
    & info [ "cpus" ] ~docv:"N" ~doc:"CPUs of the simulated collection machine")

(* An integer option below [min] is a command-line error (124), reported
   before any work. A sampling period that is not positive would never
   advance the sampler, and the run would record samples until memory ran
   out. *)
let int_conv ?(docv = "N") ~min () =
  let parse s =
    match int_of_string_opt s with
    | Some p when p >= min -> Ok p
    | _ -> Error (`Msg (Printf.sprintf "expected an integer >= %d, got %S" min s))
  in
  Arg.conv ~docv (parse, Format.pp_print_int)

let period_conv ~min = int_conv ~docv:"CYCLES" ~min ()

let period_arg =
  Arg.(
    value & opt (period_conv ~min:1) 400
    & info [ "period" ] ~docv:"CYCLES" ~doc:"PMU sampling period")

(* A float option outside the range [ok] accepts is a command-line error
   (124); NaN fails every range below. *)
let float_conv ~expected ok =
  let parse s =
    match float_of_string_opt s with
    | Some x when ok x -> Ok x
    | _ -> Error (`Msg (Printf.sprintf "expected %s, got %S" expected s))
  in
  Arg.conv ~docv:"FLOAT" (parse, Format.pp_print_float)

(* A FLG scale that is NaN or infinite would turn every edge weight and
   every layout score into NaN or infinity, and the search would still
   pick and print a layout. *)
let finite_conv = float_conv ~expected:"a finite number" Float.is_finite

let k1_arg = Arg.(value & opt finite_conv 1.0 & info [ "k1" ] ~doc:"CycleGain scale")
let k2_arg = Arg.(value & opt finite_conv 2.0 & info [ "k2" ] ~doc:"CycleLoss scale")

(* An interval below 1 is rejected like a period below 1: CC bins
   samples by interval, so it would fail only after profiling and
   collection. *)
let interval_arg =
  Arg.(
    value & opt (period_conv ~min:1) 4000
    & info [ "interval" ] ~docv:"CYCLES" ~doc:"CodeConcurrency interval")

let line_size_arg =
  Arg.(
    value & opt int 128
    & info [ "line-size" ] ~docv:"BYTES"
        ~doc:"cache line (coherence block) size")

let inline_arg =
  Arg.(
    value & flag
    & info [ "inline" ]
        ~doc:
          "inline all calls before the analysis (recovers cross-procedure \
           affinity, paper §3.1)")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "worker domains for the parallel stages (default: $(b,SLO_JOBS) \
           if set, else the recommended domain count). Results are \
           identical for every N.")

(* An unknown --optimizer is a command-line error like an unknown
   subcommand: Cmdliner prints the valid choices and exits with its
   cli-error status (124), consistently across commands. *)
let selector_conv =
  let parse s =
    match Optimizer.selector_of_string s with
    | sel -> Ok sel
    | exception Invalid_argument _ ->
      Error
        (`Msg
           (Printf.sprintf "unknown optimizer %S (valid: %s)" s
              (String.concat ", " Optimizer.selector_names)))
  in
  let print ppf sel = Format.pp_print_string ppf (Optimizer.selector_name sel) in
  Arg.conv ~docv:"NAME" (parse, print)

(* An unknown --topology is a command-line error the same way: Cmdliner
   prints the valid machine shapes and exits with its cli-error status
   (124). The conv carries the builder, not the built topology, because
   the machine size comes from a separate --cpus argument. *)
let topology_names = [ "superdome"; "bus" ]

let topology_conv =
  let parse s =
    match s with
    | "superdome" -> Ok (s, fun cpus -> Topology.superdome ~cpus ())
    | "bus" -> Ok (s, fun cpus -> Topology.bus ~cpus ())
    | _ ->
      Error
        (`Msg
           (Printf.sprintf "unknown topology %S (valid: %s)" s
              (String.concat ", " topology_names)))
  in
  let print ppf (name, _) = Format.pp_print_string ppf name in
  Arg.conv ~docv:"NAME" (parse, print)

(* An output file in a missing directory is a command-line error (124),
   reported before the command does any work rather than as an uncaught
   Sys_error once it is done. *)
let output_path_conv =
  let parse p =
    let dir = Filename.dirname p in
    if Sys.file_exists dir && Sys.is_directory dir then Ok p
    else Error (`Msg (Printf.sprintf "no such directory: %S" dir))
  in
  Arg.conv ~docv:"PATH" (parse, Format.pp_print_string)

(* The multi-level geometry the collection machine simulates when a
   --topology is requested: a small private L1 in front of the coherent
   L2 plus a per-cell victim LLC, so the per-level hit counters (and the
   asymmetric local/remote LLC latencies) flow into the samples and the
   printed stats. *)
let collect_hierarchy =
  { Coherence.h_l1_lines = 64; h_l1_ways = Some 8;
    h_llc_lines = 1024; h_llc_ways = None }

(* domains = 1 keeps the serial code path (no pool at all) so the two
   paths stay observably interchangeable from the CLI *)
let with_jobs jobs f =
  let domains =
    match jobs with Some n when n >= 1 -> n | _ -> Pool.default_jobs ()
  in
  if domains <= 1 then f ~domains None
  else Pool.with_pool ~domains (fun p -> f ~domains (Some p))

(* ------------------------------------------------------------------ *)
(* Commands *)

let parse_cmd =
  let run file show_cfg =
    or_die (fun () ->
        let program = load_program file in
        if show_cfg then
          List.iter
            (fun (_, cfg) -> Format.printf "%a@.@." Cfg.pp cfg)
            (Cfg.of_program program)
        else Format.printf "%a@." Pretty.pp_program program)
  in
  let cfg_flag = Arg.(value & flag & info [ "cfg" ] ~doc:"print lowered CFGs") in
  Cmd.v
    (Cmd.info "parse" ~doc:"parse and typecheck a minic file")
    Term.(const run $ file_arg $ cfg_flag)

let affinity_cmd =
  let run file struct_name int_arg rounds inline =
    or_die (fun () ->
        let program = load_program ~inline file in
        let counts = generic_profile program ~int_arg ~rounds in
        let groups = Group.of_program program counts ~struct_name in
        List.iter (fun g -> Format.printf "%a@.@." Group.pp g) groups;
        let ag = Affinity_graph.build program counts ~struct_name in
        Format.printf "%a@." Affinity_graph.pp ag)
  in
  Cmd.v
    (Cmd.info "affinity" ~doc:"print a struct's affinity groups and graph")
    Term.(const run $ file_arg $ struct_arg $ int_arg_t $ rounds_arg $ inline_arg)

let fmf_cmd =
  let run file =
    or_die (fun () ->
        let program = load_program file in
        Format.printf "%a@." Fmf.pp (Fmf.of_program program))
  in
  Cmd.v
    (Cmd.info "fmf" ~doc:"print the field mapping file (line -> fields)")
    Term.(const run $ file_arg)

let analyze ?inline ?profile_file ?samples_file ?samples_bin_file ?pool
    ?topology ?hierarchy ?on_result file struct_name int_arg rounds cpus period
    k1 k2 interval line_size =
  let program = load_program ?inline file in
  let counts =
    match profile_file with
    | Some path -> Slo_persist.Persist.load_counts ~path
    | None -> generic_profile program ~int_arg ~rounds
  in
  let params =
    { Pipeline.default_params with
      Pipeline.k1; k2; cc_interval = interval; line_size }
  in
  (* Stored samples become a columnar store — the binary file maps in
     with O(1) syscalls, the text file parses into 16 B/sample columns —
     and pool workers bin index ranges of the shared columns. *)
  let stored store =
    ([], Some (Pipeline.concurrency_map_store ?pool ~params store))
  in
  let samples, cm =
    match (samples_bin_file, samples_file) with
    | Some path, _ -> stored (Slo_persist.Persist.load_samples_bin ~path)
    | None, Some path ->
      stored (Slo_persist.Persist.store_of_samples_file ~path)
    | None, None ->
      ( generic_samples ?topology ?hierarchy ?on_result program ~cpus ~period
          ~reps:(rounds * 8) ~int_arg,
        None )
  in
  let flg =
    Pipeline.analyze ~params ?cm ~program ~counts ~samples ~struct_name ()
  in
  (program, params, flg)

let profile_file_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "profile" ] ~docv:"FILE" ~doc:"load profile counts from FILE (see $(b,collect))")

let samples_file_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "samples" ] ~docv:"FILE" ~doc:"load PMU samples from FILE (see $(b,collect))")

let samples_bin_file_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "samples-bin" ] ~docv:"FILE"
        ~doc:
          "load PMU samples from a binary columnar $(b,slo-samples-bin 1) \
           file (see $(b,convert)). The file is memory-mapped and binned \
           in parallel; the resulting analysis is identical to \
           $(b,--samples) on the equivalent text file. Takes precedence \
           over $(b,--samples).")

let suggest_cmd =
  let run file struct_name int_arg rounds cpus period k1 k2 interval line_size
      inline profile_file samples_file samples_bin_file jobs optimizer restarts
      seed topology stats =
    or_die (fun () ->
        let selector = optimizer in
        (* With --topology the collection machine switches to the requested
           shape and simulates the multi-level hierarchy, so the samples
           carry the machine's asymmetric miss costs; the raw result is
           kept for the hierarchy-aware search and --stats below. *)
        let topo = Option.map (fun (_, mk) -> mk cpus) topology in
        let hierarchy = Option.map (fun _ -> collect_hierarchy) topology in
        let machine_result = ref None in
        let program, params, flg, portfolio =
          (* the pool only lives inside this closure, so the search stage
             (which fans its candidates across it) runs here too *)
          with_jobs jobs (fun ~domains:_ pool ->
              let program, params, flg =
                analyze ~inline ?profile_file ?samples_file ?samples_bin_file
                  ?pool ?topology:topo ?hierarchy
                  ~on_result:(fun r -> machine_result := Some r)
                  file struct_name int_arg rounds cpus period k1 k2 interval
                  line_size
              in
              let portfolio =
                Option.map
                  (fun selector ->
                    Pipeline.search ~params ?pool ~seed ~restarts ~selector flg)
                  selector
              in
              (program, params, flg, portfolio))
        in
        (match topo with
         | Some t ->
           Printf.printf "collection machine: %s\n\n" (Topology.describe t)
         | None -> ());
        print_endline (Report.render (Pipeline.report ~params flg));
        Format.printf "@.%a@." Slo_core.Advisor.pp (Slo_core.Advisor.analyze flg);
        let declared =
          Layout.of_struct (Option.get (Ast.find_struct program struct_name))
        in
        Format.printf "@.--- declared layout ---@.%a@."
          (Layout.pp_lines ~line_size) declared;
        Format.printf
          "@.--- incremental layout (constraints on declared) ---@.%a@."
          (Layout.pp_lines ~line_size)
          (Pipeline.incremental_layout ~params flg ~baseline:declared);
        (match (selector, portfolio) with
         | Some selector, Some p ->
           Format.printf "@.--- layout search (%s, restarts=%d, seed=%d) ---@."
             (Optimizer.selector_name selector)
             restarts seed;
           Printf.printf "%-12s %12s %8s\n" "candidate" "score" "moves";
           List.iter
             (fun (r : Optimizer.result) ->
               Printf.printf "%-12s %12.2f %8d\n" r.Optimizer.label
                 r.Optimizer.score r.Optimizer.moves)
             p.Optimizer.scoreboard;
           Printf.printf "best: %s (%.2f vs greedy %.2f)\n"
             p.Optimizer.best.Optimizer.label p.Optimizer.best.Optimizer.score
             p.Optimizer.greedy.Optimizer.score;
           Format.printf "@.--- searched layout (%s) ---@.%a@."
             p.Optimizer.best.Optimizer.label
             (Layout.pp_lines ~line_size)
             p.Optimizer.best.Optimizer.layout
         | _ -> ());
        (* Machine-specific layout (paper §5): score cross-CPU conflicts
           by where the conflicting CPUs actually sit on the requested
           topology, and show the distance-blind layout next to it when
           the two disagree. *)
        (match (topo, !machine_result) with
         | Some t, Some r ->
           let module Hier = Slo_search.Hier in
           let module Field = Slo_layout.Field in
           let sd = Option.get (Ast.find_struct program struct_name) in
           let prof =
             Hier.profile ~fmf:(Fmf.of_program program) ~struct_name
               ~fields:(Field.of_struct sd)
               ~ncpus:(Topology.num_cpus t) r.Machine.samples
           in
           let hier_obj =
             Hier.objective ~k1 ~k2 ~topo:t ~struct_name ~line_size prof
           in
           let flat_obj =
             Hier.flat_objective ~k1 ~k2 ~struct_name ~line_size prof
           in
           let best obj =
             (Optimizer.run_selector ~seed ~restarts obj
                ~init:(Optimizer.decl_blocks obj)
                (Option.value selector ~default:Optimizer.Portfolio))
               .Optimizer.best
           in
           let bh = best hier_obj and bf = best flat_obj in
           Format.printf
             "@.--- hierarchy-aware layout (%s, score %.2f) ---@.%a@."
             (Topology.describe t) bh.Optimizer.score
             (Layout.pp_lines ~line_size)
             bh.Optimizer.layout;
           if
             Layout.fields bh.Optimizer.layout
             <> Layout.fields bf.Optimizer.layout
           then
             Format.printf
               "@.--- distance-blind layout (differs; hierarchy score %.2f) \
                ---@.%a@."
               (Slo_search.Objective.score hier_obj bf.Optimizer.layout)
               (Layout.pp_lines ~line_size)
               bf.Optimizer.layout
           else
             Format.printf
               "@.(the distance-blind objective picks the same layout)@."
         | _ -> ());
        if stats then
          match !machine_result with
          | Some r ->
            Format.printf "@.--- collection machine stats ---@.%a@."
              Slo_sim.Sim_stats.pp r.Machine.stats
          | None -> ())
  in
  let optimizer_arg =
    Arg.(
      value
      & opt (some selector_conv) None
      & info [ "optimizer" ] ~docv:"NAME"
          ~doc:
            "run the metaheuristic layout search after the analysis and \
             print its scoreboard plus the best layout found. $(docv) is \
             one of $(b,greedy) (score the clustering as-is), $(b,swap) \
             (steepest-descent pairwise swaps), $(b,anneal) (simulated \
             annealing restarts), or $(b,portfolio) (all of them, fanned \
             across the worker domains). Results are identical for every \
             $(b,--jobs) value.")
  in
  let restarts_arg =
    Arg.(
      value & opt int 4
      & info [ "restarts" ] ~docv:"N"
          ~doc:"annealing restarts for $(b,--optimizer) anneal|portfolio")
  in
  let seed_arg =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"N" ~doc:"master seed of the search PRNG streams")
  in
  let topology_arg =
    Arg.(
      value
      & opt (some topology_conv) None
      & info [ "topology" ] ~docv:"NAME"
          ~doc:
            "ask for a machine-specific layout: simulate the collection \
             machine as $(docv) — $(b,superdome) (cellular NUMA, \
             asymmetric cache-to-cache latencies) or $(b,bus) (flat SMP) — \
             with the multi-level cache hierarchy enabled, then run the \
             hierarchy-aware layout search that weighs each cross-CPU \
             conflict by the conflicting CPUs' transfer latency, printing \
             the distance-blind layout next to it when the two disagree. \
             The machine size still comes from $(b,--cpus).")
  in
  let stats_arg =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "print the collection machine's simulator statistics after the \
             report, including the per-level miss breakdown (L1 / L2 / LLC \
             local / LLC remote hits) when $(b,--topology) enabled the \
             multi-level hierarchy")
  in
  Cmd.v
    (Cmd.info "suggest" ~doc:"run the full pipeline and print the layout report")
    Term.(
      const run $ file_arg $ struct_arg $ int_arg_t $ rounds_arg
      $ cpus_collect_arg $ period_arg $ k1_arg $ k2_arg $ interval_arg
      $ line_size_arg $ inline_arg $ profile_file_arg $ samples_file_arg
      $ samples_bin_file_arg $ jobs_arg $ optimizer_arg $ restarts_arg
      $ seed_arg $ topology_arg $ stats_arg)

let collect_cmd =
  let run file int_arg rounds cpus period out_prefix =
    or_die (fun () ->
        let program = load_program file in
        let counts = generic_profile program ~int_arg ~rounds in
        let samples =
          generic_samples program ~cpus ~period ~reps:(rounds * 8) ~int_arg
        in
        let prof_path = out_prefix ^ ".prof" in
        let samples_path = out_prefix ^ ".samples" in
        Slo_persist.Persist.save_counts ~path:prof_path counts;
        Slo_persist.Persist.save_samples ~path:samples_path samples;
        Printf.printf "wrote %s (%d records' worth of counts)\n" prof_path
          (List.length program.Ast.procs);
        Printf.printf "wrote %s (%d samples)\n" samples_path
          (List.length samples))
  in
  let out_arg =
    Arg.(
      value & opt string "slo-collect"
      & info [ "o"; "output" ] ~docv:"PREFIX"
          ~doc:"output prefix for the .prof and .samples files")
  in
  Cmd.v
    (Cmd.info "collect"
       ~doc:"run the collection phase and persist profile + samples files")
    Term.(
      const run $ file_arg $ int_arg_t $ rounds_arg $ cpus_collect_arg
      $ period_arg $ out_arg)

let convert_cmd =
  let module P = Slo_persist.Persist in
  let run src dst =
    or_die (fun () ->
        (* Sniff the source format off its magic: binary files begin with
           the 18-byte "slo-samples-bin 1\n" header, text files with the
           "slo-samples 1" line. *)
        let is_bin =
          let ic = open_in_bin src in
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () ->
              let want = String.length P.samples_bin_magic in
              in_channel_length ic >= want
              && really_input_string ic want = P.samples_bin_magic)
        in
        if is_bin then begin
          let n = P.convert_samples_to_text ~src ~dst in
          Printf.printf "wrote %s (slo-samples 1 text, %d samples)\n" dst n
        end
        else begin
          let n = P.convert_samples_to_bin ~src ~dst in
          Printf.printf "wrote %s (slo-samples-bin 1, %d samples)\n" dst n
        end)
  in
  let src_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"SRC" ~doc:"source samples file (text or binary)")
  in
  let dst_arg =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"DST" ~doc:"destination path")
  in
  Cmd.v
    (Cmd.info "convert"
       ~doc:"convert a samples file between text and binary columnar formats"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Converts $(b,slo-samples 1) text files to the binary columnar \
              $(b,slo-samples-bin 1) format and back, detecting the source \
              format from its magic. The binary format stores the cpu/itc/line \
              columns as packed 32/64/32-bit arrays behind a 32-byte header, \
              so $(b,suggest --samples-bin) can memory-map it instead of \
              parsing ~10\\u{2078} text lines. The conversion is lossless: \
              text \\u{2192} binary \\u{2192} text reproduces the file byte \
              for byte (modulo comment/blank lines, which the text parser \
              skips).";
         ])
    Term.(const run $ src_arg $ dst_arg)

let dot_cmd =
  let run file struct_name int_arg rounds cpus period k1 k2 interval line_size =
    or_die (fun () ->
        let _, _, flg =
          analyze file struct_name int_arg rounds cpus period k1 k2 interval
            line_size
        in
        print_string (Flg.to_dot flg))
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"emit the FLG as Graphviz")
    Term.(
      const run $ file_arg $ struct_arg $ int_arg_t $ rounds_arg
      $ cpus_collect_arg $ period_arg $ k1_arg $ k2_arg $ interval_arg
      $ line_size_arg)

let simulate_cmd =
  let run file cpus period int_arg rounds =
    or_die (fun () ->
        let program = load_program file in
        let topology = Topology.superdome ~cpus () in
        let r =
          match
            generic_run ~topology program ~cpus
              ~period:(if period = 0 then None else Some period)
              ~reps:(rounds * 8) ~int_arg
          with
          | Some r -> r
          | None -> failwith "no procedures to run"
        in
        Printf.printf "machine: %s\n" (Topology.describe topology);
        Printf.printf "makespan: %d cycles, %d work items, throughput %.1f \
                       items/Mcycle\n\n" r.Machine.makespan r.Machine.invocations
          (Machine.throughput r);
        Format.printf "%a@." Slo_sim.Sim_stats.pp r.Machine.stats;
        if r.Machine.samples <> [] then begin
          (* top sampled source lines: the profile a Caliper user reads *)
          let hist = Hashtbl.create 64 in
          List.iter
            (fun (smp : Machine.sample) ->
              let k = smp.Machine.s_line in
              Hashtbl.replace hist k
                (1 + try Hashtbl.find hist k with Not_found -> 0))
            r.Machine.samples;
          let rows =
            Hashtbl.fold (fun l n acc -> (n, l) :: acc) hist []
            |> List.sort compare |> List.rev
          in
          Printf.printf "\nhottest source lines (%d samples total):\n"
            (List.length r.Machine.samples);
          List.iteri
            (fun i (n, l) ->
              if i < 10 then Printf.printf "  %s:%-5d %6d samples\n" file l n)
            rows
        end)
  in
  let cpus_arg =
    Arg.(value & opt int 8 & info [ "cpus" ] ~docv:"N" ~doc:"machine size")
  in
  let period_arg =
    Arg.(
      value & opt (period_conv ~min:0) 400
      & info [ "period" ] ~docv:"CYCLES" ~doc:"sampling period (0 disables)")
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"run the generic concurrency harness and print machine statistics")
    Term.(const run $ file_arg $ cpus_arg $ period_arg $ int_arg_t $ rounds_arg)

let sdet_cmd =
  let run cpus bus runs jobs stats json_out =
    or_die (fun () ->
        let module Exp = Slo_workload.Experiments in
        let module Obs = Slo_obs.Obs in
        let module Json = Slo_obs.Json in
        let topology =
          if bus then Topology.bus ~cpus () else Topology.superdome ~cpus ()
        in
        with_jobs jobs (fun ~domains pool ->
            Printf.printf "machine: %s (%d job%s)\n%!"
              (Topology.describe topology) domains
              (if domains = 1 then "" else "s");
            let t0 = Obs.now () in
            let layouts = Exp.analyze_all ?pool () in
            let analysis_s = Obs.now () -. t0 in
            let rows = Exp.measure_machine ~runs ?pool topology layouts in
            Printf.printf "%-8s %12s %12s %12s\n" "struct" "automatic" "hotness"
              "incremental";
            List.iter
              (fun (m : Exp.measurement) ->
                Printf.printf "%-8s %+11.2f%% %+11.2f%% %+11.2f%%\n"
                  m.Exp.m_struct m.Exp.m_automatic m.Exp.m_hotness
                  m.Exp.m_incremental)
              rows;
            if stats then begin
              Printf.printf "\n--- stats ---\n";
              Printf.printf "%-28s %12.3f s\n" "analysis wall-clock" analysis_s;
              List.iter
                (fun (name, v) ->
                  if String.length name > 4 && String.sub name 0 4 = "sim." then
                    Printf.printf "%-28s %12d\n" name v)
                (Obs.counters ());
              match Obs.gauge "pool.utilization" with
              | Some u -> Printf.printf "%-28s %12.2f\n" "pool.utilization" u
              | None -> ()
            end;
            match json_out with
            | None -> ()
            | Some path ->
              let j =
                Json.Obj
                  [
                    ("schema", Json.Str "slo-sdet/1");
                    ("cpus", Json.Int cpus);
                    ("bus", Json.Bool bus);
                    ("runs", Json.Int runs);
                    ("jobs", Json.Int domains);
                    ("analysis_s", Json.Float analysis_s);
                    ("rows", Json.List (List.map Exp.measurement_json rows));
                    ("metrics", Obs.to_json ());
                  ]
              in
              Slo_persist.Persist.atomic_write ~path (fun oc ->
                  output_string oc (Json.pretty j));
              Printf.printf "wrote %s\n" path))
  in
  let bus_flag =
    Arg.(value & flag & info [ "bus" ] ~doc:"bus topology instead of Superdome")
  in
  let stats_flag =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "after the table, print the analysis wall-clock and the \
             simulator's cumulative counters (loads, misses, invalidations, \
             ...) from the observability registry")
  in
  let json_arg =
    Arg.(
      value
      & opt (some output_path_conv) None
      & info [ "json" ] ~docv:"PATH"
          ~doc:
            "write the measurement rows plus a full metrics snapshot as \
             pretty-printed JSON to $(docv)")
  in
  let runs_arg =
    Arg.(
      value & opt int 5
      & info [ "runs" ] ~docv:"N" ~doc:"measured runs per configuration")
  in
  let cpus_arg =
    Arg.(value & opt int 32 & info [ "cpus" ] ~docv:"N" ~doc:"machine size")
  in
  let jobs_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "worker domains for parallel simulator runs (default: \
             $(b,SLO_JOBS) if set, else the recommended domain count). \
             Results are identical for every N.")
  in
  Cmd.v
    (Cmd.info "sdet" ~doc:"run the built-in SDET-like kernel benchmark")
    Term.(
      const run $ cpus_arg $ bus_flag $ runs_arg $ jobs_arg $ stats_flag
      $ json_arg)

let codelayout_cmd =
  let module Codelayout = Slo_codelayout.Codelayout in
  let module Ctrap = Slo_workload.Ctrap in
  let run file capacity optimizer restarts seed jobs cpus int_arg rounds =
    or_die (fun () ->
        let program, counts, builtin =
          match file with
          | Some f ->
            let p = load_program f in
            (p, generic_profile p ~int_arg ~rounds, false)
          | None -> (Ctrap.program (), Ctrap.profile (), true)
        in
        let prob = Codelayout.of_program ~capacity program counts in
        let pf =
          with_jobs jobs (fun ~domains:_ pool ->
              Codelayout.search ?pool ~seed ~restarts prob optimizer)
        in
        Printf.printf
          "code layout: %d blocks (%d active), %d affinity edges, %dB bins\n\n"
          (List.length (Codelayout.blocks prob))
          (Array.length (Codelayout.active prob))
          (Codelayout.num_edges prob) capacity;
        Printf.printf "%-12s %12s %8s\n" "candidate" "score" "moves";
        List.iter
          (fun (r : Codelayout.result) ->
            Printf.printf "%-12s %12.2f %8d\n" r.Codelayout.label
              r.Codelayout.score r.Codelayout.moves)
          pf.Codelayout.scoreboard;
        let decl_score = Codelayout.score prob (Codelayout.decl_bins prob) in
        Printf.printf "best: %s (%.2f vs greedy %.2f, declaration %.2f)\n"
          pf.Codelayout.best.Codelayout.label pf.Codelayout.best.Codelayout.score
          pf.Codelayout.greedy.Codelayout.score decl_score;
        if builtin then begin
          (* The built-in trap ships its own simulator driver: confirm the
             objective gap as I-cache misses, decl order vs searched. *)
          let base = Ctrap.run_sim ~cpus () in
          let opt =
            Ctrap.run_sim ~cpus ~code_layout:pf.Codelayout.best.Codelayout.order
              ()
          in
          let module S = Slo_sim.Sim_stats in
          Printf.printf
            "\nsim (%d cpus, %d-line x %dB I-cache):\n" cpus
            Ctrap.icache.Slo_sim.Coherence.i_lines
            Ctrap.icache.Slo_sim.Coherence.i_line_size;
          let row label (r : Machine.result) =
            Printf.printf
              "  %-12s imisses %8d / %8d fetches (%5.1f%%), istall %9d, \
               makespan %9d\n"
              label r.Machine.stats.S.imisses r.Machine.stats.S.ifetches
              (100.0 *. S.imiss_rate r.Machine.stats)
              r.Machine.stats.S.istall_cycles r.Machine.makespan
          in
          row "declaration" base;
          row pf.Codelayout.best.Codelayout.label opt;
          if opt.Machine.stats.S.imisses < base.Machine.stats.S.imisses then
            print_endline "confirmed: searched layout fetches fewer lines"
          else begin
            print_endline "NOT confirmed: searched layout did not reduce misses";
            exit 1
          end
        end)
  in
  let file_opt_arg =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:
            "minic source file to lay out (default: the built-in code-layout \
             trap workload, which also runs a simulator confirmation)")
  in
  let capacity_arg =
    Arg.(
      value & opt int Codelayout.default_capacity
      & info [ "capacity" ] ~docv:"BYTES" ~doc:"I-cache line size (bin capacity)")
  in
  let optimizer_arg =
    Arg.(
      value
      & opt selector_conv Slo_search.Optimizer.Portfolio
      & info [ "optimizer" ] ~docv:"NAME"
          ~doc:
            "search strategy: $(b,greedy), $(b,swap), $(b,anneal) or \
             $(b,portfolio) (default)")
  in
  let restarts_arg =
    Arg.(
      value & opt int 4
      & info [ "restarts" ] ~docv:"N"
          ~doc:"annealing restarts for anneal|portfolio")
  in
  let seed_arg =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"N" ~doc:"master seed of the search PRNG streams")
  in
  let cpus_arg =
    Arg.(
      value & opt int 4
      & info [ "cpus" ] ~docv:"N" ~doc:"machine size of the sim confirmation")
  in
  Cmd.v
    (Cmd.info "codelayout"
       ~doc:"search a basic-block code layout that packs hot paths onto few \
             I-cache lines"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Runs the same metaheuristic portfolio as $(b,suggest) over a \
              second substrate: nodes are the program's basic blocks, \
              affinity is how often control passes between two blocks \
              (profile edge counts), and bins are I-cache lines. The best \
              partition is flattened into a block order for the simulator's \
              instruction-fetch side. Without $(i,FILE) the built-in trap \
              workload is used and the result is confirmed end to end: the \
              searched order must fetch strictly fewer I-cache lines than \
              declaration order, or the command exits non-zero.";
         ])
    Term.(
      const run $ file_opt_arg $ capacity_arg $ optimizer_arg $ restarts_arg
      $ seed_arg $ jobs_arg $ cpus_arg $ int_arg_t $ rounds_arg)

let verify_cmd =
  let module Mc = Slo_sim.Modelcheck in
  let run () =
    Printf.printf
      "exhaustive coherence verification: every interleaving of every \
       pinned small config,\nkernel = spec + trace oracle checked on every \
       transition\n";
    Printf.printf "%-36s %8s %8s %8s %6s %8s\n" "config" "states" "pinned"
      "edges" "depth" "oracle";
    let ok =
      List.fold_left
        (fun ok (cfg, pin) ->
          match Mc.run cfg with
          | r ->
            let pinned = r.Mc.r_states = pin in
            Printf.printf "%-36s %8d %8d %8d %6d %8d%s\n%!"
              (Mc.config_name cfg) r.Mc.r_states pin r.Mc.r_transitions
              r.Mc.r_max_depth r.Mc.r_oracle_traces
              (if pinned then "" else "  DRIFT");
            ok && pinned
          | exception Mc.Violation { vmsg; vtrace } ->
            Printf.printf "%-36s VIOLATION: %s\n" (Mc.config_name cfg) vmsg;
            List.iter
              (fun { Mc.v_cpu; v_line; v_off; v_write } ->
                Printf.printf "  %s cpu %d line %d off %d\n"
                  (if v_write then "write" else "read")
                  v_cpu v_line v_off)
              vtrace;
            false)
        true Mc.standard_suite
    in
    if ok then print_endline "verified: all invariants hold, all state counts pinned"
    else begin
      print_endline "VERIFICATION FAILED";
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "model-check the coherence kernel exhaustively on small \
          configurations")
    Term.(const run $ const ())

let serve_cmd =
  let module Serve = Slo_serve.Serve in
  let module Obs = Slo_obs.Obs in
  let run file struct_name int_arg rounds cpus period k1 k2 interval line_size
      inline jobs window decay drift_threshold min_samples capacity clients
      phases seed restarts snapshot_path restore_path =
    or_die (fun () ->
        let program = load_program ~inline file in
        if Ast.find_struct program struct_name = None then begin
          Printf.eprintf "error: no struct named %s\n" struct_name;
          exit 1
        end;
        let counts = generic_profile program ~int_arg ~rounds in
        let base =
          generic_samples program ~cpus ~period ~reps:(rounds * 8) ~int_arg
        in
        if base = [] then begin
          Printf.eprintf
            "error: the generic harness produced no samples (try a smaller \
             --period)\n";
          exit 1
        end;
        let params =
          { Pipeline.default_params with
            Pipeline.k1; k2; line_size; cc_interval = interval }
        in
        let lo =
          List.fold_left (fun a (s : Sample.t) -> min a s.Sample.itc) max_int
            base
        in
        let hi =
          List.fold_left (fun a (s : Sample.t) -> max a s.Sample.itc) min_int
            base
        in
        let span = (((hi - lo) / interval) + 2) * interval in
        (* Default the window to two phases of the feed, so each phase
           slides it and consecutive clients land inside it; the
           computation is deterministic, so --restore with the same
           arguments reproduces the same window length. *)
        let window =
          match window with Some w -> w | None -> max 1 (2 * span / interval)
        in
        let cfg =
          { Serve.interval; window; decay; drift_threshold; min_samples;
            queue_capacity = capacity; params; program; counts; struct_name;
            selector = Optimizer.Portfolio; seed; restarts }
        in
        let t =
          match restore_path with
          | Some path ->
            let t = Serve.restore cfg ~path in
            Printf.printf "restored from %s: version %d, %d live samples\n"
              path (Serve.version t)
              (Slo_serve.Window.live_samples (Serve.window t));
            t
          | None -> Serve.create cfg
        in
        (* A restored window already has a watermark; shift the whole
           feed past it (by whole spans, keeping phase geometry) so the
           continuation run slides the window instead of feeding samples
           the watermark would drop as late. *)
        let itc_off =
          match Slo_serve.Window.newest (Serve.window t) with
          | Some n ->
            let need = ((n + 1) * interval) - lo in
            if need <= 0 then 0 else ((need + span - 1) / span) * span
          | None -> 0
        in
        (* Each phase shifts the whole base stream forward by a whole
           number of intervals, so the window keeps sliding; halfway
           through, lines are rotated to a different layout-relevant
           pattern, so the weighted CC drifts and a re-search fires. *)
        let lines =
          List.sort_uniq compare
            (List.map (fun (s : Sample.t) -> s.Sample.line) base)
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
                else
                  line_arr.((Hashtbl.find line_pos s.Sample.line + rot) mod nl)
              in
              { s with
                Sample.itc = s.Sample.itc + itc_off + (phase * span) + client;
                line })
            base_arr
        in
        let clients_l = List.init clients (fun c -> c) in
        Printf.printf
          "serve: %d clients x %d phases, %d samples/batch, interval %d, \
           window %d, decay %.3f, drift threshold %.3f\n%!"
          clients phases (Array.length base_arr) interval window decay
          drift_threshold;
        Serve.run t;
        with_jobs jobs (fun ~domains:_ pool ->
            for phase = 0 to phases - 1 do
              let batches =
                match pool with
                | Some p -> Pool.map p (fun c -> batch_of ~phase ~client:c) clients_l
                | None -> List.map (fun c -> batch_of ~phase ~client:c) clients_l
              in
              List.iter (fun b -> ignore (Serve.submit_wait t b)) batches
            done);
        Serve.stop t;
        Printf.printf "\n%-8s %10s %10s %12s %12s %10s\n" "version" "drift"
          "samples" "score" "greedy" "intervals";
        List.iter
          (fun (p : Serve.publication) ->
            Printf.printf "%-8d %10.4f %10d %12.2f %12.2f %10d\n"
              p.Serve.version p.Serve.pub_drift p.Serve.window_samples
              p.Serve.best.Optimizer.score p.Serve.greedy_score
              p.Serve.window_intervals)
          (Serve.publications t);
        let w = Serve.window t in
        Printf.printf
          "\nwindow: %d live samples in %d intervals; %d intervals retired, \
           %d late samples dropped, %d batches dropped\n"
          (Slo_serve.Window.live_samples w)
          (Slo_serve.Window.live_intervals w)
          (Slo_serve.Window.retired w)
          (Slo_serve.Window.late w) (Serve.dropped_batches t);
        (match Obs.histogram "serve.ingest_s" with
        | Some s ->
          Printf.printf
            "ingest: %d batches, p50 %.6fs, p99 %.6fs; researches: %d\n"
            s.Obs.count s.Obs.p50 s.Obs.p99
            (Obs.counter "serve.researches")
        | None -> ());
        match snapshot_path with
        | Some path ->
          Serve.snapshot t ~path;
          Printf.printf "snapshot written to %s (version %d)\n" path
            (Serve.version t)
        | None -> ())
  in
  (* Serve.create checks these too, but only after the profile and the
     collection have run. *)
  let at_least_1 = int_conv ~min:1 () in
  let window_arg =
    Arg.(
      value
      & opt (some at_least_1) None
      & info [ "window" ] ~docv:"N"
          ~doc:
            "sliding-window length in intervals (default: two phases of \
             the simulated feed)")
  in
  let decay_arg =
    Arg.(
      value
      & opt
          (float_conv ~expected:"a number in (0, 1]" (fun x ->
               x > 0.0 && x <= 1.0))
          0.9
      & info [ "decay" ] ~docv:"D"
          ~doc:"per-interval-of-age CC decay, in (0, 1]; 1.0 disables decay")
  in
  let drift_arg =
    Arg.(
      value
      & opt (float_conv ~expected:"a number >= 0" (fun x -> x >= 0.0)) 0.05
      & info [ "drift-threshold" ] ~docv:"D"
          ~doc:
            "re-search when the weighted CC's normalized L1 drift since \
             the last publication exceeds $(docv) (inf: never)")
  in
  let min_samples_arg =
    Arg.(
      value & opt at_least_1 64
      & info [ "min-samples" ] ~docv:"N"
          ~doc:"live samples required before the first publication")
  in
  let capacity_arg =
    Arg.(
      value & opt at_least_1 64
      & info [ "queue-capacity" ] ~docv:"N"
          ~doc:"max queued batches before admission control drops")
  in
  let clients_arg =
    Arg.(
      value & opt int 4
      & info [ "clients" ] ~docv:"N" ~doc:"concurrent simulated sample feeds")
  in
  let phases_arg =
    Arg.(
      value & opt int 6
      & info [ "phases" ] ~docv:"N"
          ~doc:
            "ingest phases; each slides the window forward, and the \
             workload shifts halfway through")
  in
  let seed_arg =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"N" ~doc:"master seed of the search PRNG streams")
  in
  let restarts_arg =
    Arg.(
      value & opt int 4
      & info [ "restarts" ] ~docv:"N" ~doc:"annealing restarts per re-search")
  in
  let snapshot_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "snapshot" ] ~docv:"PATH"
          ~doc:"write the windowed state to $(docv) on exit (atomic)")
  in
  let restore_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "restore" ] ~docv:"PATH"
          ~doc:"start from the slo-serve-snapshot at $(docv)")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "run the always-on layout service against simulated client feeds")
    Term.(
      const run $ file_arg $ struct_arg $ int_arg_t $ rounds_arg
      $ cpus_collect_arg $ period_arg $ k1_arg $ k2_arg $ interval_arg
      $ line_size_arg $ inline_arg $ jobs_arg $ window_arg $ decay_arg
      $ drift_arg $ min_samples_arg $ capacity_arg $ clients_arg $ phases_arg
      $ seed_arg $ restarts_arg $ snapshot_arg $ restore_arg)

let () =
  let doc = "structure layout optimization for multithreaded programs" in
  let info = Cmd.info "slayout" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            parse_cmd; affinity_cmd; fmf_cmd; collect_cmd; convert_cmd;
            suggest_cmd; dot_cmd; simulate_cmd; sdet_cmd; serve_cmd;
            codelayout_cmd; verify_cmd;
          ]))
