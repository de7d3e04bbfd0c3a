module Ast = Slo_ir.Ast
module Interp = Slo_profile.Interp
module Counts = Slo_profile.Counts
module Prng = Slo_util.Prng
module Machine = Slo_sim.Machine
module Topology = Slo_sim.Topology
module Sample = Slo_concurrency.Sample
module Pipeline = Slo_core.Pipeline

let profile ?(iters = 32) () =
  let program = Kernel.program () in
  let ctx = Interp.make_ctx program in
  let counts = Counts.create () in
  let prng = Prng.create ~seed:7 in
  let inst name = Interp.make_instance program ~struct_name:name in
  let run proc args = Interp.run ctx ~counts ~prng ~proc args in
  (* One run of a_hot and d_op per writer class, on scratch instances, so
     every counter branch is represented equally in the profile. *)
  let a = inst "A" in
  for cls = 0 to Kernel.num_classes_a - 1 do
    run "a_hot" [ Interp.Ainst a; Interp.Aint cls; Interp.Aint iters ]
  done;
  run "a_update" [ Interp.Ainst a; Interp.Aint (max 1 (iters / 8)) ];
  run "a_warm" [ Interp.Ainst a; Interp.Aint iters ];
  run "a_cold" [ Interp.Ainst a; Interp.Aint (max 1 (iters / 4)) ];
  let b = inst "B" in
  run "b_lookup" [ Interp.Ainst b; Interp.Aint iters ];
  run "b_scan" [ Interp.Ainst b; Interp.Aint iters ];
  run "b_update" [ Interp.Ainst b; Interp.Aint (max 1 (iters / 4)) ];
  let c = inst "C" in
  run "c_read" [ Interp.Ainst c; Interp.Aint iters ];
  let d = inst "D" in
  run "d_op" [ Interp.Ainst d; Interp.Aint 0; Interp.Aint iters ];
  run "d_op" [ Interp.Ainst d; Interp.Aint 1; Interp.Aint iters ];
  run "d_cold" [ Interp.Ainst d; Interp.Aint (max 1 (iters / 4)) ];
  let e = inst "E" in
  run "e_acquire" [ Interp.Ainst e; Interp.Aint iters ];
  run "e_peek" [ Interp.Ainst e; Interp.Aint iters ];
  for q = 0 to 3 do
    run "sys_tick" [ Interp.Aint q; Interp.Aint iters ]
  done;
  counts

(* Collection runs 3x longer than a measurement run: CodeConcurrency is a
   counting statistic, and rarely-executed lines need enough coincident
   samples for their CC to rise above noise. *)
let default_collection_config () =
  { (Sdet.default_config (Topology.superdome ~cpus:16 ())) with Sdet.reps = 90 }

let of_machine samples =
  List.map
    (fun (s : Machine.sample) ->
      { Sample.cpu = s.Machine.s_cpu; itc = s.Machine.s_itc; line = s.Machine.s_line })
    samples

let samples ?config ?(period = 400) () =
  let cfg =
    match config with Some c -> c | None -> default_collection_config ()
  in
  of_machine (Sdet.run_once { cfg with sample_period = Some period }).Machine.samples

(* CycleGain counts are dynamic reference counts from the profile (order of
   iters = 32 per loop); CC counts are sparse sample coincidences. k2
   bridges the two scales. The k2 ablation bench shows the flip points. *)
let calibrated_params =
  { Pipeline.default_params with Pipeline.k2 = 2.6; cc_interval = 4_000 }

let flg ?(params = calibrated_params) ?cm ~counts ~samples ~struct_name () =
  Pipeline.analyze ~params ?cm ~program:(Kernel.program ()) ~counts ~samples
    ~struct_name ()

(* ------------------------------------------------------------------ *)
(* The generic harness *)

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
            (function
              | Ast.Pstruct { struct_name; _ } -> Interp.Ainst (instance_of struct_name)
              | Ast.Pint _ -> Interp.Aint (int_arg + round))
            pd.Ast.pd_params
        in
        Interp.run ctx ~counts ~prng ~proc:pd.Ast.pd_name args
      done)
    program.Ast.procs;
  counts

let generic_machine ?hierarchy ?period program ~topology ~seed ~reps ~int_arg =
  let machine =
    Machine.create
      { (Machine.default_config topology) with
        Machine.sample_period = period; seed; hierarchy }
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
    Some machine
  end

let generic_samples ?hierarchy ?on_result program ~topology ~seed ~period ~reps
    ~int_arg =
  match
    generic_machine ?hierarchy ~period program ~topology ~seed ~reps ~int_arg
  with
  | None -> []
  | Some machine ->
    let result = Machine.run machine in
    Option.iter (fun f -> f result) on_result;
    of_machine result.Machine.samples
