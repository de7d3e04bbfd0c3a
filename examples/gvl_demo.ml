(* Global Variable Layout (the paper's §7 future work) in action.

   A worker pool bumps per-quadrant statistics counters while every worker
   reads a block of configuration globals. Declared next to each other (as
   application code accretes), they share a cache line; the GVL pipeline
   separates them.

   Run with: dune exec examples/gvl_demo.exe *)

module Parser = Slo_ir.Parser
module Typecheck = Slo_ir.Typecheck
module Ast = Slo_ir.Ast
module Interp = Slo_profile.Interp
module Counts = Slo_profile.Counts
module Machine = Slo_sim.Machine
module Topology = Slo_sim.Topology
module Collect = Slo_workload.Collect
module Layout = Slo_layout.Layout
module Gvl = Slo_core.Gvl
module Pipeline = Slo_core.Pipeline
module Prng = Slo_util.Prng

let source =
  {|
long cfg_max;     // read by every worker
long stat_hits;   // bumped by quadrant 0
long cfg_ttl;     // read by every worker
long stat_miss;   // bumped by quadrant 1

void serve(int q, int n) {
  for (i = 0; i < n; i++) {
    x = cfg_max + cfg_ttl;
    if (q == 0) {
      stat_hits = stat_hits + 1;
    } else {
      stat_miss = stat_miss + 1;
    }
    pause(35 + rand(10));
  }
}
|}

let () =
  let program = Typecheck.check (Parser.parse_program ~file:"gvl.mc" source) in
  (* profile *)
  let counts = Counts.create () in
  let ctx = Interp.make_ctx program in
  let prng = Prng.create ~seed:1 in
  Interp.run ctx ~counts ~prng ~proc:"serve" [ Interp.Aint 0; Interp.Aint 32 ];
  Interp.run ctx ~counts ~prng ~proc:"serve" [ Interp.Aint 1; Interp.Aint 32 ];
  (* concurrent sampling run *)
  let topology = Topology.superdome ~cpus:8 () in
  let run ?layout () =
    let m =
      Machine.create
        { (Machine.default_config topology) with
          Machine.sample_period = Some 200; seed = 5 }
        program
    in
    Option.iter (Machine.set_layout m) layout;
    for cpu = 0 to 7 do
      Machine.add_thread m ~cpu
        ~work:
          (List.init 60 (fun _ -> ("serve", [ Machine.Aint (cpu mod 2); Machine.Aint 8 ])))
    done;
    Machine.run m
  in
  let r = run () in
  let samples = Collect.of_machine r.Machine.samples in
  let params = { Pipeline.default_params with Pipeline.k2 = 2.0; cc_interval = 2000 } in
  let flg = Gvl.analyze ~params ~program ~counts ~samples () in
  let auto = Gvl.automatic_layout ~params flg in
  Format.printf "declared globals segment:@.%a@.@."
    (Layout.pp_lines ~line_size:128)
    (Gvl.declared_layout program);
  Format.printf "GVL layout:@.%a@.@." (Layout.pp_lines ~line_size:128) auto;
  let throughput_of r = Machine.throughput r in
  Printf.printf "throughput declared: %8.1f ops/Mcycle\n" (throughput_of r);
  Printf.printf "throughput GVL:      %8.1f ops/Mcycle\n"
    (throughput_of (run ~layout:auto ()))
