module Ast = Slo_ir.Ast
module Interp = Slo_profile.Interp
module Counts = Slo_profile.Counts
module Machine = Slo_sim.Machine
module Topology = Slo_sim.Topology
module Layout = Slo_layout.Layout
module Pipeline = Slo_core.Pipeline
module Gvl = Slo_core.Gvl
module Stats = Slo_util.Stats
module Prng = Slo_util.Prng

let struct_names = [ "CONN"; "BKT" ]

(* The source is written the way application code accretes: counters next
   to the fields they count, stats next to the config that enables them. *)
let source =
  {|
struct CONN {
  long peer;       // scanned by every worker looking up a connection
  long in_bytes;   // written by the owning worker on every packet
  long state;      // scanned together with peer
  long out_bytes;  // written by the owning worker
  long port;       // scanned
  long pkts;       // written by the owning worker
  long opened;     // cold
  long closed;     // cold
  long last_err;   // cold
  long tags[6];    // cold
};

struct BKT {
  long key0;       // read-hot lookup key
  long version;    // bumped on every update
  long key1;       // read-hot lookup key
  long val;        // read on hit
  long pad0;       // cold
  long pad1;       // cold
  long spill[8];   // cold
};

long u_conf_max;   // read-mostly configuration
long u_req_count;  // bumped by every worker
long u_conf_ttl;   // read-mostly configuration
long u_err_count;  // bumped on errors (rarely)

void scan(struct CONN *c, int n) {
  for (i = 0; i < n; i++) {
    x = c->peer + c->state + c->port;
    pause(45 + rand(15));
  }
}

void account(struct CONN *c, int n) {
  for (i = 0; i < n; i++) {
    c->in_bytes = c->in_bytes + 64;
    c->out_bytes = c->out_bytes + 32;
    c->pkts = c->pkts + 1;
    pause(50 + rand(15));
  }
}

void lookup(struct BKT *b, int n) {
  for (i = 0; i < n; i++) {
    x = b->key0 + b->key1;
    y = b->val;
    pause(40 + rand(15));
  }
}

void update(struct BKT *b, int n) {
  for (i = 0; i < n; i++) {
    b->version = b->version + 1;
    b->val = b->val + 1;
    pause(60 + rand(15));
  }
}

void tick(int n) {
  for (i = 0; i < n; i++) {
    x = u_conf_max + u_conf_ttl;
    u_req_count = u_req_count + 1;
    if (rand(32) == 0) {
      u_err_count = u_err_count + 1;
    }
    pause(40 + rand(10));
  }
}
|}

let program = Source.memo ~file:"userapp.mc" source

(* ------------------------------------------------------------------ *)
(* Driver: [cpus] workers; connections are shared between one scanner and
   one accountant (adjacent CPUs); buckets between one updater and several
   readers spread across the machine. *)

type config = {
  topology : Topology.t;
  overrides : Layout.t list;
  reps : int;
  seed : int;
  sample_period : int option;
}

let run_once cfg =
  let p = program () in
  let cpus = Topology.num_cpus cfg.topology in
  let machine =
    Machine.create
      { (Machine.default_config cfg.topology) with
        Machine.cache_lines = 512; sample_period = cfg.sample_period;
        seed = cfg.seed }
      p
  in
  List.iter (fun l -> Machine.set_layout machine l) cfg.overrides;
  let conns =
    Array.init (max 1 (cpus / 2)) (fun _ -> Machine.alloc machine ~struct_name:"CONN")
  in
  let bkts =
    Array.init (max 1 (cpus / 8)) (fun _ -> Machine.alloc machine ~struct_name:"BKT")
  in
  for t = 0 to cpus - 1 do
    let conn = conns.(t / 2 mod Array.length conns) in
    let bkt = bkts.(t mod Array.length bkts) in
    let updater = t / Array.length bkts mod 4 = 0 in
    let work = ref [] in
    for _ = 1 to cfg.reps do
      work :=
        [
          ((if t mod 2 = 0 then "scan" else "account"),
            [ Machine.Ainst conn; Machine.Aint 4 ]);
          ((if updater then "update" else "lookup"),
            [ Machine.Ainst bkt; Machine.Aint 3 ]);
          ("tick", [ Machine.Aint 3 ]);
        ]
        @ !work
    done;
    Machine.add_thread machine ~cpu:t ~work:!work
  done;
  Machine.run machine

let measure ?pool cfg ~runs =
  let seeds = List.init runs (fun i -> cfg.seed + i) in
  let run seed = Machine.throughput (run_once { cfg with seed }) in
  Stats.trimmed_mean
    (match pool with
    | None -> List.map run seeds
    | Some pool -> Slo_exec.Pool.map pool run seeds)

(* ------------------------------------------------------------------ *)

type result = {
  u_individual : (string * float) list;
  u_globals : float;
  u_sum : float;
  u_combined : float;
}

let collect_data ~cpus:_ () =
  let p = program () in
  let ctx = Interp.make_ctx p in
  let counts = Counts.create () in
  let prng = Prng.create ~seed:7 in
  let conn = Interp.make_instance p ~struct_name:"CONN" in
  let bkt = Interp.make_instance p ~struct_name:"BKT" in
  Interp.run ctx ~counts ~prng ~proc:"scan" [ Interp.Ainst conn; Interp.Aint 32 ];
  Interp.run ctx ~counts ~prng ~proc:"account" [ Interp.Ainst conn; Interp.Aint 32 ];
  Interp.run ctx ~counts ~prng ~proc:"lookup" [ Interp.Ainst bkt; Interp.Aint 32 ];
  Interp.run ctx ~counts ~prng ~proc:"update" [ Interp.Ainst bkt; Interp.Aint 16 ];
  Interp.run ctx ~counts ~prng ~proc:"tick" [ Interp.Aint 32 ];
  let collection =
    {
      topology = Topology.superdome ~cpus:16 ();
      overrides = [];
      reps = 60;
      seed = 3;
      sample_period = Some 400;
    }
  in
  (counts, Collect.of_machine (run_once collection).Machine.samples)

let experiment ?(runs = 5) ?(cpus = 128) ?pool () =
  let p = program () in
  let params = Collect.calibrated_params in
  let counts, samples = collect_data ~cpus () in
  let layout_for struct_name =
    let flg = Pipeline.analyze ~params ~program:p ~counts ~samples ~struct_name () in
    Pipeline.automatic_layout ~params flg
  in
  let gvl_layout =
    Gvl.automatic_layout ~params (Gvl.analyze ~params ~program:p ~counts ~samples ())
  in
  let cfg =
    {
      topology = Topology.superdome ~cpus ();
      overrides = [];
      reps = 25;
      seed = 11;
      sample_period = None;
    }
  in
  let baseline = measure ?pool cfg ~runs in
  let speedup overrides =
    Stats.speedup_percent ~baseline
      ~measured:(measure ?pool { cfg with overrides } ~runs)
  in
  let per_struct =
    List.map (fun name -> (name, layout_for name)) struct_names
  in
  let individual =
    List.map (fun (name, layout) -> (name, speedup [ layout ])) per_struct
  in
  let globals = speedup [ gvl_layout ] in
  let combined = speedup (gvl_layout :: List.map snd per_struct) in
  {
    u_individual = individual;
    u_globals = globals;
    u_sum = globals +. List.fold_left (fun a (_, v) -> a +. v) 0.0 individual;
    u_combined = combined;
  }
