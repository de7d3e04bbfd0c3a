module Parser = Slo_ir.Parser
module Typecheck = Slo_ir.Typecheck
module Interp = Slo_profile.Interp
module Counts = Slo_profile.Counts
module Machine = Slo_sim.Machine
module Topology = Slo_sim.Topology
module Prng = Slo_util.Prng

let n_stages = 12
let cold_stmts = 12
(* A [run_sim] work item loops [loop_trips] times. The [k] argument is
   [cold_period]: a cold path fires when [(i + off) % k == 0], first at
   trip [k - off] >= 43. *)
let loop_trips = 32
let cold_period = 64

let stage_names = List.init n_stages (Printf.sprintf "stage%d")

(* Each stage is a hot loop whose body brackets two cold paths that fire
   only late in long runs: [(i + off) % cold_period == 0] with small [off]
   first fires at trip [cold_period - off] >= 43, past {!run_sim}'s 32
   trips but inside {!profile}'s 64. The CFG lowering emits the cold
   blocks between the hot ones, so the declaration-order code layout
   spreads each stage's hot path over ~3 I-cache lines while its actual
   hot footprint fits one — the code-layout trap mirroring the
   field-layout one in {!Trap}. *)
let source =
  let buf = Buffer.create 4096 in
  (* a chain of fresh definitions: each statement defines prefixI from its
     predecessor, so the typechecker's define-before-use rule holds even
     though the path is rarely taken *)
  let cold prefix =
    String.concat ""
      (List.init cold_stmts (fun i ->
           if i = 0 then Printf.sprintf "      %s0 = i + 1;\n" prefix
           else Printf.sprintf "      %s%d = %s%d + %d;\n" prefix i prefix (i - 1) (i + 1)))
  in
  List.iteri
    (fun s name ->
      Buffer.add_string buf
        (Printf.sprintf
           "void %s(int n, int k) {\n\
           \  for (i = 0; i < n; i++) {\n\
           \    u = i + 1;\n\
           \    if ((i + %d) %% k == 0) {\n\
            %s\
           \    }\n\
           \    v = u + i;\n\
           \    if ((i + %d) %% k == 0) {\n\
            %s\
           \    }\n\
           \    w = v + u;\n\
           \  }\n\
            }\n\n"
           name
           (1 + (s mod 4))
           (cold "c")
           (17 + (s mod 4))
           (cold "d")))
    stage_names;
  Buffer.contents buf

let program_memo = ref None

let program () =
  match !program_memo with
  | Some p -> p
  | None ->
    let p = Typecheck.check (Parser.parse_program ~file:"ctrap.mc" source) in
    program_memo := Some p;
    p

let profile () =
  let counts = Counts.create () in
  let ctx = Interp.make_ctx (program ()) in
  let prng = Prng.create ~seed:11 in
  List.iter
    (fun proc ->
      Interp.run ctx ~counts ~prng ~proc
        [ Interp.Aint (2 * loop_trips); Interp.Aint cold_period ])
    stage_names;
  counts

(* 16 lines x 64B: the optimized hot footprint (~one line per stage) fits,
   the declaration-order one (~three lines per stage) does not. *)
let icache =
  { Slo_sim.Coherence.i_lines = 16; i_ways = None; i_line_size = 64 }

let run_sim ?(cpus = 4) ?code_layout () =
  let topology = Topology.bus ~cpus () in
  let base = Machine.default_config topology in
  let cfg = { base with Machine.seed = 13; icache = Some icache } in
  let m = Machine.create cfg (program ()) in
  (match code_layout with
  | Some order -> Machine.set_code_layout m order
  | None -> ());
  for cpu = 0 to cpus - 1 do
    let work = ref [] in
    for rep = 7 downto 0 do
      for s = n_stages - 1 downto 0 do
        (* rotate stage order per cpu and rep so the I-cache never settles *)
        let stage = List.nth stage_names ((s + (cpu * 5) + (rep * 3)) mod n_stages) in
        work :=
          (stage, [ Machine.Aint loop_trips; Machine.Aint cold_period ]) :: !work
      done
    done;
    Machine.add_thread m ~cpu ~work:!work
  done;
  Machine.run m
