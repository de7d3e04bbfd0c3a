(* End-to-end benchmark over the paper's loop, stored-sample ingestion,
   NUMA suggest and the serve feed. See README.md in this directory.

     e2e.exe run --workload W --seed N --seconds S --trace 0|1|PATH
     e2e.exe run --smoke
     e2e.exe compare PARENT_DIR CHANGE_DIR

   One workload runs per process, on a pool of one domain. A run sets up
   three times, runs one discarded warm-up iteration, then times
   iterations until they have used [--seconds] of CPU time (at least
   three). The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}; untraced runs report
   the end-to-end metrics, traced runs the per-layer ones. *)

module Json = Slo_obs.Json
module Obs = Slo_obs.Obs
module Pool = Slo_exec.Pool
module Stats = Slo_util.Stats

(* ------------------------------------------------------------------ *)
(* One measured iteration *)

type iter = {
  cal : float;  (** CPU seconds of the calibration loop run just before *)
  cpu : float;  (** process CPU seconds *)
  wall : float;
  out : Work.out;
  digest : string;
  traced : bool;
  counters : (string * int) list;  (** Obs counter deltas *)
  queue_s : float;  (** pool.task.queue_s added during the iteration *)
  util : float option;  (** mean pool utilization of the iteration's batches *)
  minor : int;
  major : int;
  spans : (Span.t * float * float) list;  (** span, self seconds, self words *)
}

(* The Obs counters that mirror Sim_stats: their per-iteration deltas go
   into the digest, so a speed-only change must leave them identical. *)
let sim_counters =
  [ "sim.runs"; "sim.makespan_cycles"; "sim.invocations"; "sim.loads";
    "sim.stores"; "sim.hits"; "sim.cold_misses"; "sim.capacity_misses";
    "sim.true_sharing_misses"; "sim.false_sharing_misses"; "sim.upgrades";
    "sim.invalidations"; "sim.writebacks"; "sim.stall_cycles"; "sim.samples";
    "sim.llc.l1_hits"; "sim.llc.l2_hits"; "sim.llc.local_hits";
    "sim.llc.remote_hits" ]

let hist name =
  match Obs.histogram name with Some s -> (s.Obs.count, s.Obs.sum) | None -> (0, 0.0)

(* Process CPU seconds, user plus system. Timed runs use one domain, so
   this is the work of the run itself. *)
let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Host calibration. On a shared virtual machine other tenants slow this
   process by up to 2x, in phases of seconds to minutes, and its CPU time
   grows with the slowdown: the time is lost in the core and the caches,
   not to scheduling (steal time stays near zero). A fixed loop of the
   benchmark's own, an integer chain that also allocates short-lived
   cells, slows by a similar factor. It runs just before every timed
   section, after a full major collection so that none of the library's
   garbage is collected on its time, and the section is reported scaled
   by [cal_ref_s /. loop time]: its CPU time on a host where the loop
   takes [cal_ref_s]. README.md has the measurements behind this. *)
let cal_ref_s = 0.014

let calibrate () =
  Gc.full_major ();
  let c = cpu_now () in
  let x = ref 1 in
  for i = 1 to 5_000_000 do
    x := (!x * 1103515245 + i) land 0x3fffffff;
    ignore (Sys.opaque_identity [ !x; i ])
  done;
  ignore (Sys.opaque_identity !x);
  cpu_now () -. c

let scaled ~cpu ~cal = cpu *. cal_ref_s /. cal

let run_iteration ~traced ~index f =
  let cal = calibrate () in
  let c0 = Obs.counters () and q0 = hist "pool.task.queue_s"
  and u0 = hist "pool.batch.utilization_pct" and g0 = Gc.quick_stat () in
  Span.recorded := [];
  Span.iteration := index;
  Span.enabled := traced;
  let c = cpu_now () and t0 = Obs.now () in
  let finish = Span.span "iteration" f in
  let wall = Obs.now () -. t0 and cpu = cpu_now () -. c in
  Span.enabled := false;
  let g1 = Gc.quick_stat () and c1 = Obs.counters () in
  let out = finish () in
  let counters =
    List.map
      (fun (k, v) -> (k, v - Option.value ~default:0 (List.assoc_opt k c0)))
      c1
  in
  let ctr k = Option.value ~default:0 (List.assoc_opt k counters) in
  let digest =
    Digest.to_hex
      (Digest.string
         (out.Work.digest
         ^ String.concat " "
             (List.map (fun k -> Printf.sprintf "%s=%d" k (ctr k)) sim_counters)))
  in
  let uc, us = hist "pool.batch.utilization_pct" in
  {
    cal;
    cpu;
    wall;
    out;
    digest;
    traced;
    counters;
    queue_s = snd (hist "pool.task.queue_s") -. snd q0;
    util =
      (if uc > fst u0 then Some ((us -. snd u0) /. float_of_int (uc - fst u0) /. 100.0)
       else None);
    minor = g1.Gc.minor_collections - g0.Gc.minor_collections;
    major = g1.Gc.major_collections - g0.Gc.major_collections;
    spans = (if traced then Span.self_times !Span.recorded else []);
  }

(* ------------------------------------------------------------------ *)
(* One workload run *)

type measured = {
  workload : Work.t;
  seed : int;
  setups : (float * float) list;
      (** CPU seconds of each set-up, and of the calibration loop before it *)
  warmup : iter option;
  iters : iter list;  (** timed iterations, untraced first *)
}

let with_workdir f =
  let dir = Printf.sprintf ".e2e-work-%d" (Unix.getpid ()) in
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

(* [jobs] is 1 for timed runs and 2 in the smoke check. There is always a
   pool, so the exec layer's task and utilization counters are recorded;
   one domain runs every task serially in the caller. [untraced] and
   [traced] are (CPU seconds, minimum count): a phase repeats iterations
   until both are reached. *)
let measure (w : Work.t) ~seed ~jobs ~smoke ~setups ~warmup ~untraced ~traced =
  with_workdir @@ fun workdir ->
  Pool.with_pool ~domains:jobs @@ fun p ->
  let ctx = { Work.seed; pool = Some p; smoke; workdir } in
  let it = ref (fun () -> assert false) in
  let times =
    List.init setups (fun _ ->
        let cal = calibrate () in
        let c = cpu_now () in
        it := w.Work.setup ctx;
        (cpu_now () -. c, cal))
  in
  let index = ref 0 in
  let step ~traced =
    incr index;
    run_iteration ~traced ~index:!index !it
  in
  let warmup = if warmup then Some (step ~traced:false) else None in
  let loop ~traced (budget, min_n) =
    let rec go acc n spent =
      if n >= min_n && spent >= budget then List.rev acc
      else
        let r = step ~traced in
        go (r :: acc) (n + 1) (spent +. r.cpu)
    in
    go [] 0 0.0
  in
  let plain = loop ~traced:false untraced in
  let iters = plain @ loop ~traced:true traced in
  { workload = w; seed; setups = times; warmup; iters }

(* ------------------------------------------------------------------ *)
(* Checks and metrics *)

let checks m =
  let all = Option.to_list m.warmup @ m.iters in
  let first = (List.hd all).digest in
  List.concat_map
    (fun i ->
      ("digest=first", i.digest = first)
      :: List.map (fun (n, ok) -> (m.workload.Work.name ^ ":" ^ n, ok)) i.out.Work.checks)
    all

let median = function [] -> 0.0 | xs -> Stats.median xs
let pct xs p = match xs with [] -> 0.0 | xs -> Stats.percentile xs ~p

(* VmHWM, the resident-set high-water mark: Sample_store columns live
   outside the OCaml heap, so the heap size would miss them. None when it
   cannot be read, which fails the run. *)
let peak_rss_mb () =
  try
    let ic = open_in "/proc/self/status" in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
    let rec scan () =
      let l = input_line ic in
      if String.starts_with ~prefix:"VmHWM:" l then
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
            Some (float_of_int kb /. 1024.0))
      else scan ()
    in
    scan ()
  with Sys_error _ | End_of_file | Scanf.Scan_failure _ -> None

let walls l = List.map (fun i -> i.wall) l
let cpus l = List.map (fun i -> i.cpu) l
let scaled_cpus l = List.map (fun i -> scaled ~cpu:i.cpu ~cal:i.cal) l

let end_to_end m ~rss_mb =
  let plain = List.filter (fun i -> not i.traced) m.iters in
  [
    ("setup_s", "s", median (List.map (fun (cpu, cal) -> scaled ~cpu ~cal) m.setups));
    ("iter_s", "s", median (scaled_cpus plain));
    ("peak_rss_mb", "MB", rss_mb);
  ]

let self_of pred i =
  List.fold_left
    (fun (t, a) ((s : Span.t), st, sa) -> if pred s.Span.name then (t +. st, a +. sa) else (t, a))
    (0.0, 0.0) i.spans

let by_name n s = s = n
let by_layer l s = Span.layer s = l

let per_layer m ~failed ~attempted =
  let traced = List.filter (fun i -> i.traced) m.iters
  and plain = List.filter (fun i -> not i.traced) m.iters in
  let med f = median (List.map f traced) in
  let self pred = med (fun i -> fst (self_of pred i)) in
  let alloc_mw pred = med (fun i -> snd (self_of pred i) /. 1e6) in
  let ctr k i = float_of_int (Option.value ~default:0 (List.assoc_opt k i.counters)) in
  let value k i = Option.value ~default:0.0 (List.assoc_opt k i.out.Work.values) in
  let rate num pred =
    med (fun i ->
        let t = fst (self_of pred i) in
        if t > 0.0 then num i /. t else 0.0)
  in
  let accesses i = ctr "sim.loads" i +. ctr "sim.stores" i in
  let ingest = List.concat_map (fun i -> i.out.Work.ingest_ms) plain
  and research = List.concat_map (fun i -> i.out.Work.research_ms) plain in
  let scaled_cpu l = median (scaled_cpus l) in
  let hist_values =
    List.fold_left (fun a (_, s) -> a + s.Obs.count) 0 (Obs.histograms ())
  in
  let s = "s" and count = "count" in
  [
    ("iter_cpu_s", s, median (cpus plain));
    ("iter_wall_s", s, median (walls plain));
    ("host.cal_ms", "ms", 1000.0 *. median (List.map (fun i -> i.cal) m.iters));
    ( "samples_per_s", "samples/s",
      median
        (List.map
           (fun i -> float_of_int i.out.Work.samples /. scaled ~cpu:i.cpu ~cal:i.cal)
           plain) );
    ("ir.parse_s", s, self (by_name "ir.parse"));
    ("profile.interp_s", s, self (by_name "profile.interp"));
    ("sim.collect_s", s, self (by_name "sim.collect"));
    ("sim.confirm_s", s, self (by_name "sim.confirm"));
    ("sim.build_s", s, self (by_name "sim.build"));
    ("sim.run_s", s, self (by_name "sim.run"));
    ("sim.accesses", count, med accesses);
    ("sim.accesses_per_s", "1/s", rate accesses (by_layer "sim"));
    ( "sim.l1_hit_frac", "ratio",
      med (fun i -> if accesses i > 0.0 then ctr "sim.llc.l1_hits" i /. accesses i else 0.0) );
    ("sim.alloc_mw", "Mwords", alloc_mw (by_layer "sim"));
    ("concurrency.cc_s", s, self (by_layer "concurrency"));
    ("concurrency.cc_text_s", s, self (by_name "concurrency.cc_text"));
    ("concurrency.cc_bin_s", s, self (by_name "concurrency.cc_bin"));
    ( "concurrency.samples_per_s", "samples/s",
      rate (fun i -> float_of_int i.out.Work.samples) (by_layer "concurrency") );
    ("concurrency.pairs", count, med (value "concurrency.pairs"));
    ("concurrency.alloc_mw", "Mwords", alloc_mw (by_layer "concurrency"));
    ("persist.counts_load_s", s, self (by_name "persist.counts_load"));
    ("persist.bin_load_s", s, self (by_name "persist.bin_load"));
    ("core.flg_s", s, self (by_layer "core"));
    ("search.portfolio_s", s, self (by_name "search.portfolio"));
    ("search.hier_s", s, self (by_name "search.hier"));
    ("search.moves", count, med (ctr "search.moves"));
    ("ingest_p50_ms", "ms", pct ingest 0.5);
    ("research_p50_ms", "ms", pct research 0.5);
    ("serve.ingest_p90_ms", "ms", pct ingest 0.9);
    ("serve.ingest_p99_ms", "ms", pct ingest 0.99);
    ("serve.ingest_batches", count, float_of_int (List.length ingest));
    ("serve.researches", count, med (value "serve.researches"));
    ("serve.publications", count, med (value "serve.publications"));
    ("serve.retired_intervals", count, med (value "serve.retired_intervals"));
    ("serve.late_samples", count, med (value "serve.late_samples"));
    ("serve.dropped_batches", count, med (value "serve.dropped_batches"));
    ("exec.tasks", count, med (ctr "pool.tasks"));
    ("exec.utilization", "ratio", median (List.filter_map (fun i -> i.util) traced));
    ("exec.queue_wait_s", s, med (fun i -> i.queue_s));
    ("obs.hist_values", count, float_of_int hist_values);
    ("gc.minor_collections", count, med (fun i -> float_of_int i.minor));
    ("gc.major_collections", count, med (fun i -> float_of_int i.major));
    ( "trace.overhead_pct", "%",
      if plain = [] || traced = [] then 0.0
      else (scaled_cpu traced -. scaled_cpu plain) /. scaled_cpu plain *. 100.0 );
    ("layout_gain_pct", "%", med (value "layout_gain_pct"));
    ( "fail_frac", "ratio",
      if attempted = 0 then 0.0 else float_of_int failed /. float_of_int attempted );
  ]

(* ------------------------------------------------------------------ *)
(* Output *)

let metrics_json ms =
  Json.Obj
    (List.map
       (fun (n, u, v) -> (n, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str u) ]))
       ms)

let print_layer_table m =
  let traced = List.filter (fun i -> i.traced) m.iters in
  if traced <> [] then begin
    let names =
      List.sort_uniq compare
        (List.concat_map (fun i -> List.map (fun ((s : Span.t), _, _) -> s.Span.name) i.spans) traced)
    in
    let med f = median (List.map f traced) in
    let total = med (fun i -> i.wall) in
    let rows =
      List.map
        (fun n ->
          ( n,
            med (fun i -> fst (self_of (by_name n) i)),
            med (fun i -> snd (self_of (by_name n) i)) /. 1e6 ))
        names
      |> List.sort (fun (_, a, _) (_, b, _) -> compare b a)
    in
    Printf.printf "\nper-layer self time, median of %d traced iterations:\n"
      (List.length traced);
    Printf.printf "  %-22s %10s %7s %12s\n" "span" "self_s" "share" "alloc_Mwords";
    List.iter
      (fun (n, t, a) ->
        Printf.printf "  %-22s %10.4f %6.1f%% %12.2f\n" n t (100.0 *. t /. total) a)
      rows;
    let layers = List.sort_uniq compare (List.map Span.layer names) in
    Printf.printf "  by layer:";
    List.iter
      (fun l ->
        Printf.printf " %s %.1f%%" l
          (100.0 *. med (fun i -> fst (self_of (by_layer l) i)) /. total))
      layers;
    print_newline ()
  end

let report m ~trace_path ~out_dir =
  let rss = peak_rss_mb () in
  let cs = ("VmHWM-readable", rss <> None) :: checks m in
  let failed = List.filter (fun (_, ok) -> not ok) cs in
  let attempted = List.length cs and nfailed = List.length failed in
  let traced = List.exists (fun i -> i.traced) m.iters in
  let e2e = end_to_end m ~rss_mb:(Option.value ~default:0.0 rss)
  and layers = per_layer m ~failed:nfailed ~attempted in
  let digest = (List.hd m.iters).digest in
  Printf.printf "workload %s  seed %d  setups %d  iterations %d (%d traced)\n"
    m.workload.Work.name m.seed (List.length m.setups) (List.length m.iters)
    (List.length (List.filter (fun i -> i.traced) m.iters));
  Printf.printf "digest %s\n" digest;
  List.iter (fun (n, _) -> Printf.printf "FAILED check %s\n" n) failed;
  List.iter (fun (n, u, v) -> Printf.printf "  %-26s %14.6g %s\n" n v u) e2e;
  Option.iter
    (Printf.printf
       "  layout_gain_pct %.4f %% (simulated SDET throughput from an unvalidated \
        model, cold caches, no hardware reference)\n")
    (List.assoc_opt "layout_gain_pct" (List.hd m.iters).out.Work.values);
  print_layer_table m;
  (match trace_path with
   | Some path ->
     let spans = List.concat_map (fun i -> List.map (fun (s, _, _) -> s) i.spans) m.iters in
     Work.write_file path (Json.to_string (Span.chrome_json spans));
     Printf.printf "trace written to %s\n" path
   | None -> ());
  let result =
    [
      ("correct", Json.Bool (nfailed = 0));
      ("attempted", Json.Int attempted);
      ("failed", Json.Int nfailed);
      ("metrics", metrics_json (if traced then layers else e2e));
    ]
  in
  (match out_dir with
   | Some dir ->
     let floats l = Json.List (List.map (fun x -> Json.Float x) l) in
     let file =
       Filename.concat dir
         (Printf.sprintf "%s-s%d-t%d.json" m.workload.Work.name m.seed
            (if traced then 1 else 0))
     in
     Work.write_file file
       (Json.pretty
          (Json.Obj
             ([ ("workload", Json.Str m.workload.Work.name); ("seed", Json.Int m.seed);
                ("trace", Json.Bool traced);
                ("iterations", Json.Int (List.length m.iters)); ("digest", Json.Str digest);
                ("setup_cpu", floats (List.map fst m.setups));
                ("setup_cal", floats (List.map snd m.setups));
                ("iter_cpu", floats (cpus m.iters));
                ("iter_cal", floats (List.map (fun i -> i.cal) m.iters));
                ("iter_wall", floats (walls m.iters)) ]
             @ result)))
   | None -> ());
  print_endline (Json.to_string (Json.Obj result));
  nfailed = 0

(* ------------------------------------------------------------------ *)
(* Smoke: every workload at tiny sizes, serial untraced and on two domains
   traced; all checks must pass and the digests must not depend on the job
   count or on tracing. No timing gates. *)

let smoke ~workloads ~seed ~out_dir ~trace_path =
  let one w ~jobs ~traced =
    measure w ~seed ~jobs ~smoke:true ~setups:1 ~warmup:false
      ~untraced:(0.0, if traced then 0 else 1)
      ~traced:(0.0, if traced then 1 else 0)
  in
  let results =
    List.map
      (fun (w : Work.t) ->
        let a = one w ~jobs:1 ~traced:false and b = one w ~jobs:2 ~traced:true in
        let cs = checks a @ checks b in
        let da = (List.hd a.iters).digest and db = (List.hd b.iters).digest in
        Printf.printf "%-16s jobs1 %s  jobs2+trace %s  %s  checks %d/%d\n%!" w.Work.name da db
          (if da = db then "identical" else "DIFFER")
          (List.length (List.filter snd cs)) (List.length cs);
        List.iter (fun (n, ok) -> if not ok then Printf.printf "  FAILED check %s\n" n) cs;
        (w, a, b, cs, da = db))
      workloads
  in
  let attempted = List.fold_left (fun s (_, _, _, cs, _) -> s + List.length cs) 0 results in
  let failed =
    List.fold_left
      (fun s (_, _, _, cs, same) -> s + List.length (List.filter (fun (_, ok) -> not ok) cs) + if same then 0 else 1)
      0 results
  in
  let spans =
    List.concat_map (fun (_, _, b, _, _) -> List.concat_map (fun i -> List.map (fun (s, _, _) -> s) i.spans) b.iters) results
  in
  Option.iter (fun p -> Work.write_file p (Json.to_string (Span.chrome_json spans))) trace_path;
  let result =
    Json.Obj
      [
        ("correct", Json.Bool (failed = 0));
        ("attempted", Json.Int attempted);
        ("failed", Json.Int failed);
        ("identical", Json.Bool (List.for_all (fun (_, _, _, _, same) -> same) results));
        ( "workloads",
          Json.Obj
            (List.map
               (fun ((w : Work.t), a, b, _, _) ->
                 ( w.Work.name,
                   Json.Obj
                     [
                       ("digest", Json.Str (List.hd a.iters).digest);
                       ("spans", Json.Int (List.length (List.hd b.iters).spans));
                     ] ))
               results) );
      ]
  in
  Option.iter
    (fun d -> Work.write_file (Filename.concat d "smoke.json") (Json.pretty result))
    out_dir;
  print_endline (Json.to_string result);
  failed = 0

(* ------------------------------------------------------------------ *)
(* CLI *)

(* `all` runs each workload in a child process of its own, so peak RSS
   and the Obs registry are per workload. *)
let run_children ws args =
  List.fold_left
    (fun ok (w : Work.t) ->
      let argv = Array.of_list ((Sys.executable_name :: "run" :: "--workload" :: w.Work.name :: args w)) in
      let pid = Unix.create_process Sys.executable_name argv Unix.stdin Unix.stdout Unix.stderr in
      let rec wait () =
        try snd (Unix.waitpid [] pid) with Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
      in
      ok && wait () = Unix.WEXITED 0)
    true ws

let run_cmd workload seed seconds trace smoke_flag out_dir =
  let ws =
    List.filter (fun (w : Work.t) -> workload = "all" || w.Work.name = workload) Work.all
  in
  let trace_path = match trace with "0" | "1" -> None | p -> Some p in
  let traced = trace <> "0" in
  let ok =
    if smoke_flag then smoke ~workloads:ws ~seed ~out_dir ~trace_path
    else
      match ws with
      | [ w ] ->
        let half = float_of_int seconds /. 2.0 in
        let m =
          measure w ~seed ~jobs:1 ~smoke:false ~setups:3 ~warmup:true
            ~untraced:(if traced then (half, 2) else (float_of_int seconds, 3))
            ~traced:(if traced then (half, 3) else (0.0, 0))
        in
        report m ~trace_path ~out_dir
      | ws ->
        let suffix (w : Work.t) p =
          Filename.remove_extension p ^ "-" ^ w.Work.name ^ Filename.extension p
        in
        run_children ws (fun w ->
            [ "--seed"; string_of_int seed; "--seconds"; string_of_int seconds;
              "--trace"; (match trace_path with Some p -> suffix w p | None -> trace) ]
            @ match out_dir with Some d -> [ "--out"; d ] | None -> [])
  in
  if not ok then exit 1

open Cmdliner

let run_term =
  let workload =
    let names = "all" :: List.map (fun (w : Work.t) -> w.Work.name) Work.all in
    Arg.(value & opt (enum (List.map (fun n -> (n, n)) names)) "all"
         & info [ "workload" ] ~docv:"NAME" ~doc:"workload to run, or $(b,all)")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"input seed") in
  let seconds =
    Arg.(value & opt int 12 & info [ "seconds" ] ~docv:"S"
         ~doc:"CPU seconds the timed iterations use (at least three run)")
  in
  let trace =
    Arg.(value & opt string "0" & info [ "trace" ] ~docv:"0|1|PATH"
         ~doc:"$(b,0): untraced, end-to-end metrics. $(b,1): traced run, \
               per-layer metrics. A path: traced, and the spans are written \
               there as Chrome trace-event JSON.")
  in
  let smoke_flag =
    Arg.(value & flag & info [ "smoke" ]
         ~doc:"tiny sizes, one iteration, jobs 1 vs jobs 2 traced; checks only")
  in
  let out_dir =
    Arg.(value & opt (some dir) None & info [ "out" ] ~docv:"DIR"
         ~doc:"also write the full result as DIR/WORKLOAD-sSEED-tTRACE.json \
               (DIR/smoke.json with $(b,--smoke))")
  in
  Term.(const run_cmd $ workload $ seed $ seconds $ trace $ smoke_flag $ out_dir)

let compare_term =
  let dir n doc = Arg.(required & pos n (some dir) None & info [] ~docv:doc) in
  Term.(const Compare.run $ dir 0 "PARENT_DIR" $ dir 1 "CHANGE_DIR")

let () =
  let cmd =
    Cmd.group (Cmd.info "e2e" ~doc:"end-to-end benchmark")
      [
        Cmd.v (Cmd.info "run" ~doc:"run workloads and print metrics") run_term;
        Cmd.v (Cmd.info "compare" ~doc:"compare two sets of result files") compare_term;
      ]
  in
  exit (Cmd.eval cmd)
