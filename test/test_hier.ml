(* Tests for the hierarchy-aware objective (Slo_search.Hier) and the
   resolved FMF table it reads: the table over an index space in neither
   name nor declaration order against Fmf.fields_at, and
   Hier.profile and both objectives against the frozen by-name oracle
   (fmf_oracle.ml), bit for bit. *)

module Ast = Slo_ir.Ast
module Parser = Slo_ir.Parser
module Typecheck = Slo_ir.Typecheck
module Field = Slo_layout.Field
module Fmf = Slo_concurrency.Fmf
module Names = Slo_util.Names
module Topology = Slo_sim.Topology
module Machine = Slo_sim.Machine
module Objective = Slo_search.Objective
module Hier = Slo_search.Hier
module Flg = Slo_core.Flg
module Affinity_graph = Slo_affinity.Affinity_graph
module Kernel = Slo_workload.Kernel
module Oracle = Fmf_oracle.Hier

let parse src = Typecheck.check (Parser.parse_program ~file:"gen.mc" src)

(* One past the last source line: every line of the mapping is below it. *)
let line_bound src = List.length (String.split_on_char '\n' src) + 1

(* ------------------------------------------------------------------ *)
(* The resolved table *)

(* Index spaces over [struct_name]'s declared fields, in an order that
   is neither name nor declaration order (where three fields allow it):
   all of them, and all but the first with a name the struct lacks in
   front. *)
let index_spaces program struct_name =
  let declared =
    match Ast.find_struct program struct_name with
    | Some sd ->
      List.map (fun (f : Ast.field_decl) -> f.Ast.fd_name) sd.Ast.sd_fields
    | None -> []
  in
  let by_name = List.sort String.compare declared in
  let scrambled =
    match (List.rev by_name, by_name) with
    | desc, _ when desc <> declared -> desc
    | _, first :: rest -> rest @ [ first ]
    | _, [] -> []
  in
  let partial =
    match declared with
    | [] -> [ "zz" ]
    | first :: _ -> "zz" :: List.filter (( <> ) first) scrambled
  in
  List.map
    (fun names -> Result.get_ok (Names.make (Array.of_list names)))
    [ scrambled; partial ]

(* The table over [fields] read back through [fields]' names, on every
   line from -1 to [bound]: [Fmf.fields_at] less the fields that
   [fields] does not name. *)
let table_agrees fmf ~struct_name ~fields ~bound =
  let t = Fmf.table fmf ~struct_name ~fields in
  let line_ok line =
    let e = Fmf.Table.at t ~line in
    List.init (Fmf.Table.length e) (fun k ->
        (fields.Names.names.(Fmf.Table.field e k), Fmf.Table.is_write e k))
    = List.filter
        (fun (f, _) -> Names.find_opt fields f <> None)
        (Fmf.fields_at fmf ~line ~struct_name)
  in
  List.for_all line_ok (List.init (bound + 3) (fun i -> i - 1))

let tables_agree program fmf ~struct_name ~bound =
  List.for_all
    (fun fields -> table_agrees fmf ~struct_name ~fields ~bound)
    (index_spaces program struct_name)

let struct_names program =
  "Missing" :: Ast.globals_struct_name
  :: List.map (fun (sd : Ast.struct_decl) -> sd.Ast.sd_name) program.Ast.structs

let prop_table_eq_fields_at =
  QCheck2.Test.make ~name:"Fmf.table = Fmf.fields_at on every line" ~count:200
    ~print:Fun.id (Gen.minic_program ())
    (fun src ->
      let program = parse src in
      let fmf = Fmf.of_program program in
      List.for_all
        (fun struct_name -> tables_agree program fmf ~struct_name ~bound:(line_bound src))
        (struct_names program))

let test_table_kernel () =
  let program = Kernel.program () in
  let fmf = Fmf.of_program program in
  List.iter
    (fun struct_name ->
      Alcotest.(check bool)
        (struct_name ^ ": table = fields_at")
        true
        (tables_agree program fmf ~struct_name ~bound:(line_bound Kernel.source)))
    (struct_names program)

(* ------------------------------------------------------------------ *)
(* Hier.profile and the objectives against the oracle *)

type case = {
  src : string;
  ncpus : int;
  bus : bool;
  samples : (int * int) list; (* (cpu, line) *)
  pick : int list; (* struct field positions, in profile order *)
  extra : bool; (* a profiled field the struct does not have *)
  k1 : float;
  k2 : float;
}

let print_case c =
  Printf.sprintf "ncpus %d bus %b k1 %h k2 %h pick [%s] extra %b samples %d\n%s"
    c.ncpus c.bus c.k1 c.k2
    (String.concat ";" (List.map string_of_int c.pick))
    c.extra (List.length c.samples) c.src

(* Lines reach past both ends of the mapping and CPUs past both ends of
   [0, ncpus): the profile must ignore them the same way. *)
let gen_case =
  let open QCheck2.Gen in
  let* src = Gen.minic_program () in
  let* ncpus = oneofl [ 2; 4; 8 ] in
  let* bus = bool in
  let bound = line_bound src in
  let sample =
    let* cpu = int_range (-1) ncpus in
    let* line = int_range (-2) (bound + 1) in
    return (cpu, line)
  in
  let* samples = list_size (int_range 0 400) sample in
  let* order = shuffle_l (List.init 8 Fun.id) in
  let* keep = int_range 1 8 in
  let* extra = bool in
  (* Scales of 0, -0 and below 0 included: a pair with an edge keeps it
     whatever its weight. *)
  let scale lo hi =
    frequency [ (4, float_range lo hi); (1, oneofl [ 0.0; -0.0; -1.5 ]) ]
  in
  let* k1 = scale (-3.0) 3.0 in
  let* k2 = scale 0.0 4.0 in
  return
    { src; ncpus; bus; samples; pick = List.filteri (fun i _ -> i < keep) order;
      extra; k1; k2 }

let fields_of c program =
  let all =
    Array.of_list (Field.of_struct (Option.get (Ast.find_struct program "G")))
  in
  List.filter_map
    (fun i -> if i < Array.length all then Some all.(i) else None)
    c.pick
  @ if c.extra then [ Field.make ~name:"zz" ~prim:Ast.Long () ] else []

let machine_samples c =
  List.map
    (fun (cpu, line) ->
      { Machine.s_cpu = cpu; s_itc = 0; s_proc = "p0"; s_block = 0; s_line = line })
    c.samples

let bits f = Int64.bits_of_float f

(* The production objective against the oracle's dense view of its
   by-name graph: every weight to the bit, and the active set. *)
let same_objective (a : Objective.t) (weights, active) =
  List.map bits (Float.Array.to_list a.Objective.weights)
  = List.map bits (Float.Array.to_list weights)
  && a.Objective.active = active

let prop_hier_eq_oracle =
  QCheck2.Test.make ~name:"Hier.profile and objectives = by-name oracle, to the bit"
    ~count:300 ~print:print_case gen_case
    (fun c ->
      let program = parse c.src in
      let fmf = Fmf.of_program program in
      let fields = fields_of c program in
      if fields = [] then QCheck2.assume_fail ()
      else begin
        let samples = machine_samples c in
        let struct_name = "G" and ncpus = c.ncpus and line_size = 32 in
        let p = Hier.profile ~fmf ~struct_name ~fields ~ncpus samples in
        let o = Oracle.profile ~fmf ~struct_name ~fields ~ncpus samples in
        let names = "zz" :: "nope" :: List.map (fun (f : Field.t) -> f.Field.name) fields in
        let counts_agree =
          List.for_all
            (fun field ->
              List.for_all
                (fun cpu ->
                  Hier.read_count p ~field ~cpu = Oracle.read_count o ~field ~cpu
                  && Hier.write_count p ~field ~cpu = Oracle.write_count o ~field ~cpu)
                (List.init (ncpus + 2) (fun i -> i - 1)))
            names
        in
        let topo =
          if c.bus then Topology.bus ~cpus:ncpus () else Topology.superdome ~cpus:ncpus ()
        in
        let k1 = c.k1 and k2 = c.k2 in
        counts_agree
        && same_objective
             (Hier.objective ~k1 ~k2 ~topo ~struct_name ~line_size p)
             (Oracle.objective ~k1 ~k2 ~topo o)
        && same_objective
             (Hier.flat_objective ~k1 ~k2 ~struct_name ~line_size p)
             (Oracle.flat_objective ~k1 ~k2 o)
        && same_objective
             (Hier.objective ~topo ~struct_name ~line_size p)
             (Oracle.objective ~topo o)
      end)

(* ------------------------------------------------------------------ *)
(* Finite scales *)

let test_finite_scales () =
  let program = parse "struct S { long a; long b; };\nvoid f(struct S *s) {\n  s->a = s->b;\n}\n" in
  let fmf = Fmf.of_program program in
  let fields = Field.of_struct (Option.get (Ast.find_struct program "S")) in
  let sample cpu = { Machine.s_cpu = cpu; s_itc = 0; s_proc = "f"; s_block = 0; s_line = 3 } in
  let p = Hier.profile ~fmf ~struct_name:"S" ~fields ~ncpus:2 [ sample 0; sample 1 ] in
  let topo = Topology.bus ~cpus:2 () in
  let affinity =
    Affinity_graph.of_groups ~struct_name:"S"
      ~all_fields:(List.map (fun (f : Field.t) -> f.Field.name) fields)
      []
  in
  let rejects what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted a non-finite scale" what
  in
  List.iter
    (fun (k1, k2) ->
      rejects "Hier.objective" (fun () ->
          Hier.objective ~k1 ~k2 ~topo ~struct_name:"S" ~line_size:64 p);
      rejects "Hier.flat_objective" (fun () ->
          Hier.flat_objective ~k1 ~k2 ~struct_name:"S" ~line_size:64 p);
      rejects "Flg.build" (fun () -> Flg.build ~k1 ~k2 ~fields ~affinity ()))
    [ (Float.nan, 1.0); (1.0, Float.nan); (Float.infinity, 1.0); (1.0, Float.neg_infinity) ];
  (* Finite scales of any sign are accepted. *)
  ignore (Hier.objective ~k1:(-2.0) ~k2:0.0 ~topo ~struct_name:"S" ~line_size:64 p);
  ignore (Flg.build ~k1:0.0 ~k2:(-1.0) ~fields ~affinity ())

let check_law t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 24 |]) t

let suites =
  [
    ( "search.hier",
      [
        check_law prop_table_eq_fields_at;
        Alcotest.test_case "table on the SDET kernel" `Quick test_table_kernel;
        check_law prop_hier_eq_oracle;
        Alcotest.test_case "non-finite scales rejected" `Quick test_finite_scales;
      ] );
  ]
