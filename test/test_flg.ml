(* The field-indexed FLG against the frozen by-name path (flg_oracle.ml),
   bit for bit, from analysis to search: on random minic programs whose
   fields are declared out of name order (and the SDET kernel), their profiles, random concurrency maps with
   saturated cells or CC computed from random sample stores, and scales
   k1, k2 that include 0, -0 and negative values.

   Each case builds both chains independently — production affinity,
   Cycle_loss and Flg against the oracle's affinity graph, the by-name
   Cycle_loss of fmf_oracle.ml and the by-name Flg — and requires equal:
   every weight, gain, loss and hotness cell; the edges and the active
   set; the search objective's dense weights; Cluster.run;
   Subgraph.incremental_layout; Report.render; Advisor's output; the
   Graphviz text and the affinity listing; both Hier objectives; and the
   code-layout problem's weights, active set and edge count. *)

module Ast = Slo_ir.Ast
module Parser = Slo_ir.Parser
module Typecheck = Slo_ir.Typecheck
module Field = Slo_layout.Field
module Layout = Slo_layout.Layout
module Counts = Slo_profile.Counts
module Interp = Slo_profile.Interp
module Prng = Slo_util.Prng
module Fmf = Slo_concurrency.Fmf
module CC = Slo_concurrency.Code_concurrency
module Sample = Slo_concurrency.Sample
module Sample_store = Slo_concurrency.Sample_store
module Cycle_loss = Slo_concurrency.Cycle_loss
module Affinity_graph = Slo_affinity.Affinity_graph
module Machine = Slo_sim.Machine
module Topology = Slo_sim.Topology
module Objective = Slo_search.Objective
module Hier = Slo_search.Hier
module Codelayout = Slo_codelayout.Codelayout
module Flg = Slo_core.Flg
module Cluster = Slo_core.Cluster
module Subgraph = Slo_core.Subgraph
module Report = Slo_core.Report
module Advisor = Slo_core.Advisor
module Pipeline = Slo_core.Pipeline
module Kernel = Slo_workload.Kernel
module O = Flg_oracle

type conc =
  | Cells of (int * int * int) list  (* (line, line, CC), some max_int *)
  | Store of (int * int * int) list  (* (cpu, itc, line) samples *)

type case = {
  src : string option;  (* None: the SDET kernel *)
  struct_name : string;
  conc : conc option;  (* None: the single-threaded FLG *)
  k1 : float;
  k2 : float;
  line_size : int;
  top_positive : int;
  ncpus : int;
}

let print_case c =
  Printf.sprintf "%s k1 %h k2 %h line %d top %d ncpus %d %s\n%s" c.struct_name
    c.k1 c.k2 c.line_size c.top_positive c.ncpus
    (match c.conc with
     | None -> "no CC"
     | Some (Cells l) -> Printf.sprintf "%d cells" (List.length l)
     | Some (Store l) -> Printf.sprintf "%d samples" (List.length l))
    (Option.value c.src ~default:"<kernel>")

let kernel = lazy (Kernel.program ())

let program c =
  match c.src with
  | Some src -> Typecheck.check (Parser.parse_program ~file:"gen.mc" src)
  | None -> Lazy.force kernel

(* [src] with the struct's field declarations in a random order, so that
   declaration order is not name order; lines keep their numbers. *)
let shuffle_fields src =
  let open QCheck2.Gen in
  let lines = String.split_on_char '\n' src in
  let is_field l = String.length l > 7 && String.sub l 0 7 = "  long " in
  let* fields = shuffle_l (List.filter is_field lines) in
  let rec merge fields = function
    | [] -> []
    | l :: rest when is_field l -> List.hd fields :: merge (List.tl fields) rest
    | l :: rest -> l :: merge fields rest
  in
  return (String.concat "\n" (merge fields lines))

let gen_case =
  let open QCheck2.Gen in
  let* src =
    frequency
      [
        (6, map Option.some (Gen.minic_program () >>= shuffle_fields));
        (1, return None);
      ]
  in
  let source = match src with Some s -> s | None -> Kernel.source in
  let bound = List.length (String.split_on_char '\n' source) + 1 in
  let* struct_name =
    match src with Some _ -> return "G" | None -> oneofl Kernel.struct_names
  in
  let cell =
    let* l1 = int_bound bound in
    let* l2 = int_bound bound in
    let* v = frequency [ (1, return max_int); (4, int_range 1 5000) ] in
    return (l1, l2, v)
  in
  let sample =
    let* cpu = int_range 0 7 in
    let* itc = int_bound 2000 in
    let* line = int_bound bound in
    return (cpu, itc, line)
  in
  let* conc =
    frequency
      [
        (1, return None);
        (3, map (fun l -> Some (Cells l)) (list_size (int_bound 120) cell));
        (2, map (fun l -> Some (Store l)) (list_size (int_bound 300) sample));
      ]
  in
  (* A pair with an edge keeps it whatever its weight. *)
  let scale =
    frequency [ (3, float_range (-3.0) 3.0); (2, oneofl [ 0.0; -0.0; -2.0; 1.0 ]) ]
  in
  let* k1 = scale in
  let* k2 = scale in
  let* line_size = oneofl [ 16; 32; 64; 128 ] in
  let* top_positive = int_range 0 20 in
  let* ncpus = oneofl [ 2; 4; 8 ] in
  return { src; struct_name; conc; k1; k2; line_size; top_positive; ncpus }

(* Every procedure once, its int parameters at 4 (a seeded profile). *)
let profile program =
  let counts = Counts.create () in
  let ctx = Interp.make_ctx program in
  let prng = Prng.create ~seed:5 in
  let instances = Hashtbl.create 4 in
  let instance name =
    match Hashtbl.find_opt instances name with
    | Some i -> i
    | None ->
      let i = Interp.make_instance program ~struct_name:name in
      Hashtbl.replace instances name i;
      i
  in
  List.iter
    (fun (pd : Ast.proc_decl) ->
      let args =
        List.map
          (function
            | Ast.Pstruct { struct_name; _ } -> Interp.Ainst (instance struct_name)
            | Ast.Pint _ -> Interp.Aint 4)
          pd.Ast.pd_params
      in
      Interp.run ctx ~counts ~prng ~proc:pd.Ast.pd_name args)
    program.Ast.procs;
  counts

let concurrency_map = function
  | Cells cells ->
    let cm = CC.create () in
    List.iter (fun (l1, l2, v) -> CC.For_tests.add cm l1 l2 v) cells;
    cm
  | Store samples ->
    CC.compute ~interval:100
      (Sample_store.of_samples
         (List.map (fun (cpu, itc, line) -> { Sample.cpu; itc; line }) samples))

let bits = Int64.bits_of_float
let same_floats a b = List.map bits a = List.map bits b

let fail fmt = QCheck2.Test.fail_reportf fmt

(* The production FLG cell by cell against the oracle's graphs. *)
let same_flg (flg : Flg.t) (o : O.Flg.t) =
  let n = Flg.size flg in
  let names = Array.map (fun (f : Field.t) -> f.Field.name) flg.Flg.fields in
  let oracle_names = List.map (fun (f : Field.t) -> f.Field.name) o.O.Flg.fields in
  if Array.to_list names <> oracle_names then fail "fields differ";
  for i = 0 to n - 1 do
    if flg.Flg.hotness.(i) <> O.Flg.hotness_of o names.(i) then
      fail "hotness of %s differs" names.(i);
    for j = 0 to n - 1 do
      let cell m = Float.Array.get m ((i * n) + j) in
      let cell0 g = if i = j then 0.0 else Sgraph.weight0 g names.(i) names.(j) in
      if
        bits (cell flg.Flg.weight) <> bits (cell0 o.O.Flg.graph)
        || bits (cell flg.Flg.gain) <> bits (cell0 o.O.Flg.gain)
        || bits (cell flg.Flg.loss) <> bits (cell0 o.O.Flg.loss)
      then fail "cell %s %s differs" names.(i) names.(j);
      if Flg.has_edge flg i j <> (i <> j && Sgraph.weight o.O.Flg.graph names.(i) names.(j) <> None)
      then fail "edge %s %s differs" names.(i) names.(j)
    done
  done;
  if Flg.active flg <> O.active names o.O.Flg.graph then fail "active sets differ";
  true

let same_clusters (a : Cluster.cluster list) (b : Cluster.cluster list) =
  let repr =
    List.map (fun (c : Cluster.cluster) ->
        (c.Cluster.seed, List.map (fun (f : Field.t) -> f.Field.name) c.Cluster.members))
  in
  repr a = repr b

let same_advice (a : Advisor.t) (b : Advisor.t) =
  let floats (t : Advisor.t) =
    t.Advisor.split.Advisor.ref_coverage
    :: List.concat_map (fun (_, n, p) -> [ n; p ]) t.Advisor.contended
  in
  Format.asprintf "%a" Advisor.pp a = Format.asprintf "%a" Advisor.pp b
  && a.Advisor.dead_fields = b.Advisor.dead_fields
  && a.Advisor.split.Advisor.hot_fields = b.Advisor.split.Advisor.hot_fields
  && List.map (fun (f, _, _) -> f) a.Advisor.contended
     = List.map (fun (f, _, _) -> f) b.Advisor.contended
  && same_floats (floats a) (floats b)

let same_objective (o : Objective.t) (weights, active) =
  same_floats (Float.Array.to_list o.Objective.weights) (Float.Array.to_list weights)
  && o.Objective.active = active

let prop_flg_eq_oracle =
  QCheck2.Test.make ~name:"field-indexed FLG = by-name path, to the bit" ~count:150
    ~print:print_case gen_case (fun c ->
      let program = program c in
      let counts = profile program in
      let struct_name = c.struct_name and k1 = c.k1 and k2 = c.k2 in
      let line_size = c.line_size in
      let fields = Field.of_struct (Option.get (Ast.find_struct program struct_name)) in
      let fmf = Fmf.of_program program in
      let cm = Option.map concurrency_map c.conc in
      (* production *)
      let affinity = Affinity_graph.build program counts ~struct_name in
      let cycle_loss =
        Option.map
          (fun cm ->
            Cycle_loss.compute ~cm ~fmf ~struct_name ~fields:affinity.Affinity_graph.fields)
          cm
      in
      let flg = Flg.build ~k1 ~k2 ~fields ~affinity ?cycle_loss () in
      (* oracle *)
      let o_affinity = O.Affinity_graph.build program counts ~struct_name in
      let o_loss =
        Option.map
          (fun cm ->
            let cl = Fmf_oracle.Cycle_loss.compute ~cm ~fmf ~struct_name in
            (struct_name, Fmf_oracle.Cycle_loss.pairs cl))
          cm
      in
      let o_flg = O.Flg.build ~k1 ~k2 ~fields ~affinity:o_affinity ?cycle_loss:o_loss () in
      let names = Array.of_list (List.map (fun (f : Field.t) -> f.Field.name) fields) in
      let params = { Pipeline.default_params with Pipeline.line_size } in
      let baseline = Layout.of_fields ~struct_name fields in
      let top_positive = c.top_positive in
      (* Hier, on the store's samples (none without one) *)
      let samples =
        match c.conc with
        | Some (Store l) ->
          List.map
            (fun (cpu, itc, line) ->
              { Machine.s_cpu = cpu; s_itc = itc; s_proc = "p0"; s_block = 0; s_line = line })
            l
        | _ -> []
      in
      let ncpus = c.ncpus in
      let prof = Hier.profile ~fmf ~struct_name ~fields ~ncpus samples in
      let o_prof = Fmf_oracle.Hier.profile ~fmf ~struct_name ~fields ~ncpus samples in
      let topo = Topology.superdome ~cpus:ncpus () in
      (* code layout *)
      let code = Codelayout.of_program program counts in
      let code_names, code_graph = O.Codelayout.of_program program counts in
      let checks =
        [
          ( "affinity listing",
            Format.asprintf "%a" Affinity_graph.pp affinity
            = Format.asprintf "%a" O.Affinity_graph.pp o_affinity );
          ("FLG cells", same_flg flg o_flg);
          ( "search objective",
            same_objective (Pipeline.search_problem ~params flg)
              (O.dense_weights names o_flg.O.Flg.graph, O.active names o_flg.O.Flg.graph) );
          ( "Cluster.run",
            same_clusters (Cluster.run flg ~line_size) (O.Cluster.run o_flg ~line_size) );
          ( "Cluster.run, cold fields unpacked",
            same_clusters
              (Cluster.run ~pack_cold:false flg ~line_size)
              (O.Cluster.run ~pack_cold:false o_flg ~line_size) );
          ( "Subgraph.incremental_layout",
            Subgraph.incremental_layout flg ~baseline ~line_size ~top_positive ()
            = O.Subgraph.incremental_layout o_flg ~baseline ~line_size ~top_positive () );
          ( "Report.render",
            Report.render (Pipeline.report ~params flg)
            = Report.render (O.Report.make o_flg ~line_size) );
          ("Advisor", same_advice (Advisor.analyze flg) (O.Advisor.analyze o_flg));
          ("dot", Flg.to_dot flg = O.Flg.dot o_flg);
          ( "Hier.objective",
            same_objective
              (Hier.objective ~k1 ~k2 ~topo ~struct_name ~line_size prof)
              (Fmf_oracle.Hier.objective ~k1 ~k2 ~topo o_prof) );
          ( "Hier.flat_objective",
            same_objective
              (Hier.flat_objective ~k1 ~k2 ~struct_name ~line_size prof)
              (Fmf_oracle.Hier.flat_objective ~k1 ~k2 o_prof) );
          ( "Codelayout",
            same_floats
              (Float.Array.to_list (Codelayout.weights code))
              (Float.Array.to_list (O.dense_weights code_names code_graph))
            && Codelayout.active code = O.active code_names code_graph
            && Codelayout.num_edges code = Sgraph.num_edges code_graph );
        ]
      in
      List.for_all (fun (what, ok) -> ok || fail "%s differs" what) checks)

(* The FLG scales each loss cell where it lies, so a loss over any index
   space but the affinity graph's (other names, or the same names in
   another order) is refused. *)
let test_rejects_foreign_loss () =
  let src = {|struct S { long b; long a; long c; };
void f(struct S *s) {
  s->a = s->b + s->c;
}
|} in
  let program = Typecheck.check (Parser.parse_program ~file:"t.mc" src) in
  let struct_name = "S" in
  let fields = Field.of_struct (Option.get (Ast.find_struct program struct_name)) in
  let affinity = Affinity_graph.build program (profile program) ~struct_name in
  let fmf = Fmf.of_program program in
  let cm = CC.create () in
  CC.For_tests.add cm 3 3 10;
  let build names =
    let space = Result.get_ok (Slo_util.Names.make names) in
    let cycle_loss = Cycle_loss.compute ~cm ~fmf ~struct_name ~fields:space in
    Flg.build ~fields ~affinity ~cycle_loss ()
  in
  (* Line 3 writes a beside b: cell (0, 1) is b-a. *)
  Alcotest.(check bool) "declaration order: b-a loss kept" true
    (Float.Array.get (build [| "b"; "a"; "c" |]).Flg.loss 1 > 0.0);
  List.iter
    (fun names ->
      match build names with
      | exception Invalid_argument _ -> ()
      | _ ->
        Alcotest.failf "accepted a loss over [%s]"
          (String.concat " " (Array.to_list names)))
    [ [| "a"; "b"; "c" |]; [| "b"; "a" |]; [| "b"; "a"; "c"; "d" |] ]

let check_law t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 26 |]) t

let suites =
  [
    ( "search.flg",
      [
        check_law prop_flg_eq_oracle;
        Alcotest.test_case "loss over other fields rejected" `Quick
          test_rejects_foreign_loss;
      ] );
  ]
