module Interp = Slo_profile.Interp
module Counts = Slo_profile.Counts
module Machine = Slo_sim.Machine
module Topology = Slo_sim.Topology
module Pipeline = Slo_core.Pipeline
module Prng = Slo_util.Prng

let struct_name = "T"
let line_size = 128
let n_scan = 15 (* t_c0..t_c14: with t_s, exactly one 128B line of longs *)

(* Per-op loop trip counts. Affinity weight of a pair is the min of its
   reference counts per group (§4.1), so these ARE the edge weights:
     w(x,y) = 40 > w(s,x) = 30 > w(ci,cj) = 4+12 = 16 > w(s,ci) = 4
   and the hotness order puts t_x (30+40) first. Greedy therefore seeds at
   the decoy and drags t_y, t_s and 13 scan fields onto one line,
   stranding two scan fields — the myopia the optimizers repair. *)
let scan_trips = 4

let csweep_trips = 12
let decoy_trips = 30
let pair_trips = 40

let scan_fields = List.init n_scan (Printf.sprintf "t_c%d")

let source =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "struct T {\n  long t_s;\n  long t_x;\n  long t_y;\n";
  List.iter
    (fun f -> Buffer.add_string buf (Printf.sprintf "  long %s;\n" f))
    scan_fields;
  Buffer.add_string buf "};\n\n";
  (* sum a field list in chunks of four per statement, kernel-style *)
  let sum_stmts first rest =
    let buf' = Buffer.create 256 in
    Buffer.add_string buf' (Printf.sprintf "    u = t->%s" first);
    List.iteri
      (fun i f ->
        if i > 0 && i mod 4 = 0 then
          Buffer.add_string buf' (Printf.sprintf ";\n    u = u + t->%s" f)
        else Buffer.add_string buf' (Printf.sprintf " + t->%s" f))
      rest;
    Buffer.add_string buf' ";\n";
    Buffer.contents buf'
  in
  let proc name body =
    Buffer.add_string buf
      (Printf.sprintf
         "void %s(struct T *t, int n) {\n\
         \  for (i = 0; i < n; i++) {\n\
          %s\
         \    pause(10);\n\
         \  }\n\
          }\n\n"
         name body)
  in
  proc "t_scan" (sum_stmts "t_s" scan_fields);
  proc "t_csweep" (sum_stmts (List.hd scan_fields) (List.tl scan_fields));
  proc "t_decoy" (sum_stmts "t_s" [ "t_x" ]);
  proc "t_pair" (sum_stmts "t_x" [ "t_y" ]);
  Buffer.contents buf

let program = Source.memo ~file:"trap.mc" source

let profile () =
  let counts = Counts.create () in
  let ctx = Interp.make_ctx (program ()) in
  let prng = Prng.create ~seed:5 in
  let inst = Interp.make_instance (program ()) ~struct_name in
  let run proc trips =
    Interp.run ctx ~counts ~prng ~proc [ Interp.Ainst inst; Interp.Aint trips ]
  in
  run "t_scan" scan_trips;
  run "t_csweep" csweep_trips;
  run "t_decoy" decoy_trips;
  run "t_pair" pair_trips;
  counts

let flg () =
  Pipeline.analyze ~program:(program ()) ~counts:(profile ()) ~samples:[]
    ~struct_name ()

(* Capacity pressure: 96 instances x 2 lines >> 48 cache lines, so every
   sweep re-misses each instance. Scan threads then pay one miss per line
   the layout spreads {t_s, t_c*} over — the objective gap in cycles. *)
let measure_makespan ?(cpus = 8) layout =
  let program = program () in
  let topology = Topology.superdome ~cpus () in
  let cfg =
    { (Machine.default_config topology) with
      Machine.cache_lines = 48;
      seed = 7 }
  in
  let m = Machine.create cfg program in
  Machine.set_layout m layout;
  let pop = Array.init 96 (fun _ -> Machine.alloc m ~struct_name) in
  let npop = Array.length pop in
  for cpu = 0 to cpus - 1 do
    let proc = if cpu mod 2 = 0 then "t_scan" else "t_pair" in
    let work = ref [] in
    for sweep = 2 downto 0 do
      for k = npop - 1 downto 0 do
        (* stagger sweep starts so threads don't walk in lockstep *)
        let idx = (k + (cpu * 12) + (sweep * 7)) mod npop in
        work := (proc, [ Machine.Ainst pop.(idx); Machine.Aint 2 ]) :: !work
      done
    done;
    Machine.add_thread m ~cpu ~work:!work
  done;
  (Machine.run m).Machine.makespan
