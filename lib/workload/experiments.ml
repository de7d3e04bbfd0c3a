module Layout = Slo_layout.Layout
module Topology = Slo_sim.Topology
module Pipeline = Slo_core.Pipeline
module Code_concurrency = Slo_concurrency.Code_concurrency
module Sample_store = Slo_concurrency.Sample_store
module Stats = Slo_util.Stats

type layouts = {
  struct_name : string;
  baseline : Layout.t;
  automatic : Layout.t;
  hotness : Layout.t;
  incremental : Layout.t;
}

let analyze_all ?params ?pool () =
  let params =
    match params with Some p -> p | None -> Collect.calibrated_params
  in
  let counts = Collect.profile () in
  let samples = Collect.samples () in
  (* One shared concurrency map for the whole struct fan-out (the map does
     not depend on the struct), computed with the sharded per-interval
     reduce — rather than re-binning the sample list once per struct. *)
  let cm =
    Pipeline.concurrency_map_store ?pool ~params
      (Sample_store.of_samples samples)
  in
  let analyze_one struct_name =
    let flg = Collect.flg ~params ~cm ~counts ~samples:[] ~struct_name () in
    let baseline = Kernel.baseline_layout struct_name in
    {
      struct_name;
      baseline;
      automatic = Pipeline.automatic_layout ~params flg;
      hotness = Pipeline.hotness_layout flg;
      incremental = Pipeline.incremental_layout ~params flg ~baseline;
    }
  in
  match pool with
  | None -> List.map analyze_one Kernel.struct_names
  | Some pool -> Slo_exec.Pool.map pool analyze_one Kernel.struct_names

type measurement = {
  m_struct : string;
  m_automatic : float;
  m_hotness : float;
  m_incremental : float;
}

let measurement_json m =
  let module Json = Slo_obs.Json in
  Json.Obj
    [
      ("struct", Json.Str m.m_struct);
      ("automatic_pct", Json.Float m.m_automatic);
      ("hotness_pct", Json.Float m.m_hotness);
      ("incremental_pct", Json.Float m.m_incremental);
    ]

let measure_machine ?(runs = 10) ?pool topology layouts =
  let cfg = Sdet.default_config topology in
  (* The per-layout loop stays serial; each measurement fans its [runs]
     independent simulator runs across the pool (pools are not reentrant,
     so only the inner level parallelizes). *)
  let baseline = Sdet.measure ?pool cfg ~runs in
  let speedup candidate =
    let m = Sdet.measure ?pool { cfg with overrides = [ candidate ] } ~runs in
    Stats.speedup_percent ~baseline ~measured:m
  in
  List.map
    (fun l ->
      {
        m_struct = l.struct_name;
        m_automatic = speedup l.automatic;
        m_hotness = speedup l.hotness;
        m_incremental = speedup l.incremental;
      })
    layouts

let fig8 ?(runs = 10) ?(cpus = 128) ?pool layouts =
  measure_machine ~runs ?pool (Topology.superdome ~cpus ()) layouts

let fig9 ?(runs = 10) ?(cpus = 4) ?pool layouts =
  measure_machine ~runs ?pool (Topology.bus ~cpus ()) layouts

type fig10_row = { b_struct : string; b_best : float; b_which : string }

let fig10 measurements =
  List.map
    (fun m ->
      if m.m_automatic >= m.m_incremental then
        { b_struct = m.m_struct; b_best = m.m_automatic; b_which = "automatic" }
      else
        { b_struct = m.m_struct; b_best = m.m_incremental; b_which = "incremental" })
    measurements

type accumulation = {
  acc_individual : (string * float) list;
  acc_sum : float;
  acc_combined : float;
}

let best_layout (l : layouts) (m : measurement) =
  if m.m_automatic >= m.m_incremental then l.automatic else l.incremental

let accumulation ?(runs = 5) ?(cpus = 128) ?pool layouts =
  let cfg = Sdet.default_config (Topology.superdome ~cpus ()) in
  let baseline = Sdet.measure ?pool cfg ~runs in
  let speedup overrides =
    let m = Sdet.measure ?pool { cfg with overrides } ~runs in
    Stats.speedup_percent ~baseline ~measured:m
  in
  let rows = measure_machine ~runs ?pool (Topology.superdome ~cpus ()) layouts in
  let individual =
    List.map2
      (fun l m -> (l.struct_name, speedup [ best_layout l m ]))
      layouts rows
  in
  let combined =
    speedup (List.map2 best_layout layouts rows)
  in
  {
    acc_individual = individual;
    acc_sum = List.fold_left (fun a (_, v) -> a +. v) 0.0 individual;
    acc_combined = combined;
  }

let gvl ?(runs = 5) ?(cpus = 128) ?pool () =
  let counts = Collect.profile () in
  let samples = Collect.samples () in
  let params = Collect.calibrated_params in
  let program = Kernel.program () in
  let flg = Slo_core.Gvl.analyze ~params ~program ~counts ~samples () in
  let auto = Slo_core.Gvl.automatic_layout ~params flg in
  let declared = Slo_core.Gvl.declared_layout program in
  let hand = Kernel.baseline_layout Slo_ir.Ast.globals_struct_name in
  let measure topology =
    let cfg = Sdet.default_config topology in
    (* the naive declaration-order segment is the reference *)
    let naive = Sdet.measure ?pool { cfg with overrides = [ declared ] } ~runs in
    let speedup layout =
      let m = Sdet.measure ?pool { cfg with overrides = [ layout ] } ~runs in
      Stats.speedup_percent ~baseline:naive ~measured:m
    in
    (speedup auto, speedup hand)
  in
  let big_auto, _big_hand = measure (Topology.superdome ~cpus ()) in
  let bus_auto, _ = measure (Topology.bus ~cpus:4 ()) in
  (big_auto, bus_auto)

let cc_stability ?(period = 400) () =
  let collect cpus =
    let cfg =
      { (Sdet.default_config (Topology.superdome ~cpus ())) with Sdet.reps = 90 }
    in
    let samples = Collect.samples ~config:cfg ~period () in
    Code_concurrency.compute
      ~interval:Collect.calibrated_params.Pipeline.cc_interval
      (Sample_store.of_samples samples)
  in
  let cm4 = collect 4 in
  let cm16 = collect 16 in
  (* Rank the pairs that are hot on the 16-way machine in both maps. *)
  let top16 = Code_concurrency.top cm16 ~k:40 in
  let xs = List.map (fun (_, v) -> float_of_int v) top16 in
  let ys =
    List.map
      (fun ((l1, l2), _) -> float_of_int (Code_concurrency.cc cm4 l1 l2))
      top16
  in
  Stats.spearman xs ys
