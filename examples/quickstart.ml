(* Quickstart: the whole pipeline on a small struct, in ~60 lines.

   We define a minic program, profile it with the interpreter, run it on a
   simulated 16-CPU machine with PMU sampling, build the Field Layout Graph
   and print the tool's suggested layout and report.

   Run with: dune exec examples/quickstart.exe *)

module Parser = Slo_ir.Parser
module Typecheck = Slo_ir.Typecheck
module Interp = Slo_profile.Interp
module Counts = Slo_profile.Counts
module Machine = Slo_sim.Machine
module Topology = Slo_sim.Topology
module Collect = Slo_workload.Collect
module Pipeline = Slo_core.Pipeline
module Report = Slo_core.Report
module Prng = Slo_util.Prng

let source =
  {|
struct job {
  long state;       // read by every worker, hot
  long owner;       // read together with state
  long done_count;  // written by the finishing worker
  long retries;     // written by the retrying worker
  long created;     // cold metadata
  long deadline;    // cold metadata
};

void poll(struct job *j, int n) {
  for (i = 0; i < n; i++) {
    x = j->state + j->owner;
    pause(40 + rand(10));
  }
}

void finish(struct job *j, int n) {
  for (i = 0; i < n; i++) {
    j->done_count = j->done_count + 1;
    pause(60 + rand(10));
  }
}

void retry(struct job *j, int n) {
  for (i = 0; i < n; i++) {
    j->retries = j->retries + 1;
    pause(60 + rand(10));
  }
}
|}

let () =
  (* 1. Parse and typecheck. *)
  let program = Typecheck.check (Parser.parse_program ~file:"job.mc" source) in
  (* 2. Profile: run each operation once through the interpreter. *)
  let counts = Counts.create () in
  let ctx = Interp.make_ctx program in
  let prng = Prng.create ~seed:1 in
  let j = Interp.make_instance program ~struct_name:"job" in
  List.iter
    (fun proc -> Interp.run ctx ~counts ~prng ~proc [ Interp.Ainst j; Interp.Aint 64 ])
    [ "poll"; "finish"; "retry" ];
  (* 3. Collect synchronized PMU samples from a concurrent run: pollers on
     most CPUs, one finisher and one retrier, all on the same instance. *)
  let topology = Topology.superdome ~cpus:16 () in
  let machine =
    Machine.create
      { (Machine.default_config topology) with Machine.sample_period = Some 400 }
      program
  in
  let shared = Machine.alloc machine ~struct_name:"job" in
  for cpu = 0 to 15 do
    let proc = if cpu = 0 then "finish" else if cpu = 1 then "retry" else "poll" in
    Machine.add_thread machine ~cpu
      ~work:(List.init 40 (fun _ -> (proc, [ Machine.Ainst shared; Machine.Aint 8 ])))
  done;
  let result = Machine.run machine in
  let samples = Collect.of_machine result.Machine.samples in
  (* 4. Build the FLG and ask for layouts. *)
  let params = { Pipeline.default_params with Pipeline.k2 = 2.0; cc_interval = 4000 } in
  let flg =
    Pipeline.analyze ~params ~program ~counts ~samples ~struct_name:"job" ()
  in
  print_endline (Report.render (Pipeline.report ~params flg));
  Format.printf "declared layout:@.%a@.@."
    (Slo_layout.Layout.pp_lines ~line_size:128)
    (Slo_layout.Layout.of_struct (Option.get (Slo_ir.Ast.find_struct program "job")));
  Format.printf "suggested layout:@.%a@."
    (Slo_layout.Layout.pp_lines ~line_size:128)
    (Pipeline.automatic_layout ~params flg)
