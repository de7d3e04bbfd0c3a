(* False sharing in action: the paper's struct-A story on a small scale.

   Eight threads share one accounting record. Each thread reads the same
   hot fields and increments its own per-thread counter. Three layouts:

   - padded: every counter on its own cache line (the hand-tuned kernel
     idiom) — writes stay local, reads stay Shared;
   - packed sort-by-hotness: all counters together right after the hot
     reads — every increment invalidates every other CPU's line;
   - the tool's FLG layout, computed from profile + samples, which
     separates the counters automatically.

   Run with: dune exec examples/false_sharing.exe *)

module Parser = Slo_ir.Parser
module Typecheck = Slo_ir.Typecheck
module Interp = Slo_profile.Interp
module Counts = Slo_profile.Counts
module Machine = Slo_sim.Machine
module Topology = Slo_sim.Topology
module Sim_stats = Slo_sim.Sim_stats
module Collect = Slo_workload.Collect
module Layout = Slo_layout.Layout
module Field = Slo_layout.Field
module Pipeline = Slo_core.Pipeline
module Prng = Slo_util.Prng

let nthreads = 8

let source =
  let b = Buffer.create 1024 in
  Buffer.add_string b "struct acct {\n  long flags;\n  long state;\n  long quota;\n  long uid;\n";
  for k = 0 to nthreads - 1 do
    Buffer.add_string b (Printf.sprintf "  long ctr%d;\n" k)
  done;
  Buffer.add_string b "};\n\nvoid work(struct acct *a, int cls, int n) {\n";
  Buffer.add_string b "  for (i = 0; i < n; i++) {\n";
  Buffer.add_string b "    x = a->flags + a->state + a->quota + a->uid;\n";
  let rec chain k =
    if k = nthreads - 1 then
      Buffer.add_string b (Printf.sprintf "    a->ctr%d = a->ctr%d + 1;\n" k k)
    else begin
      Buffer.add_string b (Printf.sprintf "    if (cls == %d) {\n" k);
      Buffer.add_string b (Printf.sprintf "    a->ctr%d = a->ctr%d + 1;\n" k k);
      Buffer.add_string b "    } else {\n";
      chain (k + 1);
      Buffer.add_string b "    }\n"
    end
  in
  chain 0;
  Buffer.add_string b "    pause(30 + rand(10));\n  }\n}\n";
  Buffer.contents b

let hot = [ "flags"; "state"; "quota"; "uid" ]
let ctrs = List.init nthreads (fun k -> Printf.sprintf "ctr%d" k)
let field name = Field.make ~name ~prim:Slo_ir.Ast.Long ()

let padded_layout =
  Layout.of_clusters ~struct_name:"acct" ~line_size:128
    (List.map field hot :: List.map (fun c -> [ field c ]) ctrs)

let packed_layout =
  Layout.of_fields ~struct_name:"acct" (List.map field (hot @ ctrs))

let run_with layout =
  let program = Typecheck.check (Parser.parse_program ~file:"acct.mc" source) in
  let topology = Topology.superdome ~cpus:nthreads () in
  let machine =
    Machine.create
      { (Machine.default_config topology) with Machine.seed = 7 }
      program
  in
  Machine.set_layout machine layout;
  let shared = Machine.alloc machine ~struct_name:"acct" in
  for cpu = 0 to nthreads - 1 do
    Machine.add_thread machine ~cpu
      ~work:
        (List.init 50 (fun _ ->
             ("work", [ Machine.Ainst shared; Machine.Aint cpu; Machine.Aint 10 ])))
  done;
  Machine.run machine

let describe name layout =
  let r = run_with layout in
  Printf.printf "%-18s %2d lines  throughput %8.1f ops/Mcycle\n" name
    (Layout.lines_used layout ~line_size:128)
    (Machine.throughput r);
  Printf.printf "  misses: false-sharing %d, true-sharing %d, upgrades %d\n"
    r.Machine.stats.Sim_stats.false_sharing_misses
    r.Machine.stats.Sim_stats.true_sharing_misses
    r.Machine.stats.Sim_stats.upgrades

let () =
  Printf.printf "%d threads incrementing per-thread counters in one record\n\n"
    nthreads;
  describe "padded (hand)" padded_layout;
  describe "packed (hotness)" packed_layout;
  (* Now let the tool figure it out. *)
  let program = Typecheck.check (Parser.parse_program ~file:"acct.mc" source) in
  let counts = Counts.create () in
  let ctx = Interp.make_ctx program in
  let prng = Prng.create ~seed:1 in
  let a = Interp.make_instance program ~struct_name:"acct" in
  for cls = 0 to nthreads - 1 do
    Interp.run ctx ~counts ~prng ~proc:"work"
      [ Interp.Ainst a; Interp.Aint cls; Interp.Aint 32 ]
  done;
  let topology = Topology.superdome ~cpus:nthreads () in
  let machine =
    Machine.create
      { (Machine.default_config topology) with Machine.sample_period = Some 200 }
      program
  in
  let shared = Machine.alloc machine ~struct_name:"acct" in
  for cpu = 0 to nthreads - 1 do
    Machine.add_thread machine ~cpu
      ~work:
        (List.init 120 (fun _ ->
             ("work", [ Machine.Ainst shared; Machine.Aint cpu; Machine.Aint 10 ])))
  done;
  let result = Machine.run machine in
  let samples = Collect.of_machine result.Machine.samples in
  let params = { Pipeline.default_params with Pipeline.k2 = 2.0; cc_interval = 2000 } in
  let flg = Pipeline.analyze ~params ~program ~counts ~samples ~struct_name:"acct" () in
  let auto = Pipeline.automatic_layout ~params flg in
  Printf.printf "\n";
  describe "FLG (tool)" auto;
  Format.printf "@.tool layout:@.%a@." (Layout.pp_lines ~line_size:128) auto
