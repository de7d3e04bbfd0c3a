module Ast = Slo_ir.Ast
module Field = Slo_layout.Field
module Affinity_graph = Slo_affinity.Affinity_graph
module Code_concurrency = Slo_concurrency.Code_concurrency
module Sample_store = Slo_concurrency.Sample_store
module Fmf = Slo_concurrency.Fmf
module Cycle_loss = Slo_concurrency.Cycle_loss
module Obs = Slo_obs.Obs

type params = {
  k1 : float;
  k2 : float;
  line_size : int;
  cc_interval : int;
  top_positive : int;
}

let default_params =
  { k1 = 1.0; k2 = 1.0; line_size = 128; cc_interval = 20_000; top_positive = 20 }

let analyze ?(params = default_params) ?cm ~program ~counts ~samples
    ~struct_name () =
  let t0 = Obs.now () in
  let fields =
    match Ast.find_struct program struct_name with
    | Some sd -> Field.of_struct sd
    | None ->
      invalid_arg (Printf.sprintf "Pipeline.analyze: unknown struct %S" struct_name)
  in
  let affinity =
    Obs.time "pipeline.affinity_s" (fun () ->
        Affinity_graph.build program counts ~struct_name)
  in
  let cycle_loss =
    match (cm, samples) with
    | None, [] -> None
    | _ ->
      Obs.time "pipeline.concurrency_s" (fun () ->
          let cm =
            match cm with
            | Some cm -> cm
            | None ->
              Code_concurrency.compute ~interval:params.cc_interval
                (Sample_store.of_samples samples)
          in
          let fmf = Fmf.of_program program in
          Some
            (Cycle_loss.compute ~cm ~fmf ~struct_name
               ~fields:affinity.Affinity_graph.fields))
  in
  let flg =
    Obs.time "pipeline.flg_s" (fun () ->
        Flg.build ~k1:params.k1 ~k2:params.k2 ~fields ~affinity ?cycle_loss ())
  in
  let dur = Obs.now () -. t0 in
  Obs.observe "pipeline.analyze_s" dur;
  flg

let concurrency_map_store ?pool ?(params = default_params) store =
  Code_concurrency.compute ?pool ~interval:params.cc_interval store

let concurrency_map ?pool ?params iter =
  concurrency_map_store ?pool ?params (Sample_store.of_iter iter)

let analyze_all ?params ?pool ?cm ~program ~counts ~samples ~struct_names () =
  let run name =
    (name, analyze ?params ?cm ~program ~counts ~samples ~struct_name:name ())
  in
  Obs.set_gauge "pipeline.structs" (float_of_int (List.length struct_names));
  (* One task per struct: FLG construction shares nothing across structs
     (counts and samples are read-only inputs), so the fan-out is safe and
     the per-domain working sets stay independent. *)
  Obs.time "pipeline.analyze_all_s" (fun () ->
      match pool with
      | None -> List.map run struct_names
      | Some pool -> Slo_exec.Pool.map pool run struct_names)

let automatic_layout ?(params = default_params) flg =
  Cluster.automatic_layout flg ~line_size:params.line_size

let search_problem ?(params = default_params) (flg : Flg.t) =
  Slo_search.Objective.make ~struct_name:flg.Flg.struct_name
    ~fields:(Array.to_list flg.Flg.fields) ~weights:flg.Flg.weight
    ~active:(Flg.active flg) ~line_size:params.line_size

let search ?(params = default_params) ?pool ?seed ?restarts ?steps ~selector
    flg =
  Obs.time "pipeline.search_s" (fun () ->
      let obj = search_problem ~params flg in
      let init =
        List.map
          (fun (c : Cluster.cluster) -> c.Cluster.members)
          (Cluster.run flg ~line_size:params.line_size)
      in
      Slo_search.Optimizer.run_selector ?pool ?seed ?restarts ?steps obj ~init
        selector)

let hotness_layout flg = Hotness_heuristic.layout_of_flg flg

let incremental_layout ?(params = default_params) flg ~baseline =
  Subgraph.incremental_layout flg ~baseline ~line_size:params.line_size
    ~top_positive:params.top_positive ()

let report ?(params = default_params) flg =
  Report.make flg ~line_size:params.line_size
