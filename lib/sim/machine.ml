module Ast = Slo_ir.Ast
module Cfg = Slo_ir.Cfg
module Loc = Slo_ir.Loc
module Layout = Slo_layout.Layout
module Field = Slo_layout.Field
module Prng = Slo_util.Prng

exception Runtime_error = Slo_profile.Interp.Runtime_error

(* Raised by [eval_cexpr], which has no location; [run] reports it at the
   executing instruction's. *)
exception Zero_divisor

type config = {
  topology : Topology.t;
  line_size : int;
  cache_lines : int;
  cache_ways : int option;
  protocol : Coherence.protocol;
  sample_period : int option;
  seed : int;
  load_base : int;
  store_base : int;
  trace : bool;
  icache : Coherence.icache option;
  hierarchy : Coherence.hierarchy option;
}

type trace_event = {
  t_cpu : int;
  t_itc : int;
  t_addr : int;
  t_size : int;
  t_is_write : bool;
}

let default_config topology =
  { topology; line_size = 128; cache_lines = 4096; cache_ways = None;
    protocol = Coherence.Mesi; sample_period = None; seed = 42;
    load_base = 2; store_base = 8; trace = false;
    icache = None; hierarchy = None }

let call_overhead = 5

type instance = { i_id : int; i_struct : string; i_base : int }

let instance_struct i = i.i_struct
let instance_base i = i.i_base

type arg = Aint of int | Ainst of instance

type sample = {
  s_cpu : int;
  s_itc : int;
  s_proc : string;
  s_block : Cfg.block_id;
  s_line : int;
}

type result = {
  makespan : int;
  cpu_cycles : int array;
  invocations : int;
  cpu_invocations : int array;
  stats : Sim_stats.t;
  per_cpu_stats : Sim_stats.t array;
  samples : sample list;
  trace : trace_event list;
  fetch_trace : trace_event list;
}

let throughput r =
  let rate = ref 0.0 in
  Array.iteri
    (fun cpu cycles ->
      if cycles > 0 then
        rate :=
          !rate
          +. (float_of_int r.cpu_invocations.(cpu) /. float_of_int cycles))
    r.cpu_cycles;
  !rate *. 1_000_000.0

(* --------------------------------------------------------------------- *)
(* Compiled representation: variable names resolved to integer register
   slots, field names resolved to byte offsets under the machine's layouts.
   Compilation happens lazily, once layouts are frozen. *)

type cexpr =
  | Cint of int
  | Cslot of int
  | Cbin of Ast.binop * cexpr * cexpr

type caccess = {
  c_inst : int;  (* instance-slot index in the frame *)
  c_off : int;  (* field offset within the struct *)
  c_elem : int;  (* element size in bytes *)
  c_count : int;  (* element count (1 for scalars) *)
  c_index : cexpr option;
  c_loc : Loc.t;
}

type cinstr =
  | CLoad of { dst : int; acc : caccess }
  | CStore of { acc : caccess; src : cexpr }
  | CGload of { dst : int; addr : int; size : int }
  | CGstore of { addr : int; size : int; src : cexpr }
  | CAssign of { dst : int; value : cexpr }
  | CRand of { dst : int; bound : cexpr; loc : Loc.t }
  | CPause of { cycles : cexpr; loc : Loc.t }
  | CCall of {
      callee : string;
      int_args : (int * cexpr) list;  (* callee slot, value *)
      inst_args : (int * int) list;  (* callee inst slot, caller inst slot *)
      loc : Loc.t;
    }

type cterm =
  | CGoto of int
  | CBranch of { cond : cexpr; if_true : int; if_false : int; loc : Loc.t }
  | CReturn

type cblock = {
  cb_instrs : cinstr array;
  cb_term : cterm;
  cb_src : Cfg.block_id;
  cb_lines : int array;  (* source line of each instruction, for sampling *)
  cb_term_line : int;
}

type cproc = {
  cp_name : string;
  cp_blocks : cblock array;
  cp_nregs : int;
  cp_ninsts : int;
  cp_params : Ast.param list;
}

(* --------------------------------------------------------------------- *)

type frame = {
  f_proc : cproc;
  f_regs : int array;
  f_insts : instance array;
  f_code : (int * int) array;  (* per-block (address, size) of the proc's code *)
  mutable f_block : int;
  mutable f_ip : int;
}

type thread = {
  t_cpu : int;
  t_total_items : int;
  mutable t_clock : int;
  mutable t_frames : frame list;
  mutable t_work : (string * arg list) list;
  t_prng : Prng.t;
  mutable t_done : bool;
}

type t = {
  cfg_of : (string, Cfg.t) Hashtbl.t;
  program : Ast.program;
  config : config;
  coherence : Coherence.t;
  memory : Flat_tab.t;  (* byte address of a field slot -> value *)
  layouts : (string, Layout.t) Hashtbl.t;
  mutable arena_next : int;
  mutable next_instance : int;
  mutable frozen : bool;  (* layouts frozen once allocation/compilation began *)
  compiled : (string, cproc) Hashtbl.t;
  threads : (int, thread) Hashtbl.t;  (* keyed by cpu *)
  master_prng : Prng.t;
  mutable ran : bool;
  mutable samples_rev : sample list;
  mutable trace_rev : trace_event list;
  mutable fetch_trace_rev : trace_event list;
  mutable all_instances : instance list;
  next_sample : int array;
  code : (string, (int * int) array) Hashtbl.t;
      (* proc -> per-block (address, size) under the current code layout *)
}

(* Global variables live in their own line-aligned segment far above the
   instance arena, laid out by the (overridable) "$globals" layout. *)
let globals_base = 1 lsl 40

(* The code segment sits above even the globals, so instruction addresses
   can never collide with data. Every minic instruction occupies
   [instr_bytes]; a block additionally pays one terminator slot, so block
   sizes are 4*(ninstrs+1) bytes and a block's address range is what one
   [Coherence.ifetch] covers on entry. *)
let code_base = 1 lsl 44
let instr_bytes = 4
let block_size (blk : Cfg.block) = instr_bytes * (Array.length blk.Cfg.b_instrs + 1)
let code_block_size = block_size

let create config program =
  let cfgs = Cfg.of_program program in
  let cfg_of = Hashtbl.create 16 in
  List.iter (fun (n, c) -> Hashtbl.replace cfg_of n c) cfgs;
  (* Default code layout: procedures in program order, blocks in
     declaration (CFG index) order, packed contiguously — the "as compiled"
     baseline the code-layout optimizer reorders. *)
  let code = Hashtbl.create 16 in
  let next_code = ref code_base in
  List.iter
    (fun (name, (c : Cfg.t)) ->
      let arr =
        Array.map
          (fun blk ->
            let size = block_size blk in
            let addr = !next_code in
            next_code := addr + size;
            (addr, size))
          c.Cfg.blocks
      in
      Hashtbl.replace code name arr)
    cfgs;
  let layouts = Hashtbl.create 8 in
  List.iter
    (fun sd -> Hashtbl.replace layouts sd.Ast.sd_name (Layout.of_struct sd))
    program.Ast.structs;
  (match Ast.globals_struct program with
  | Some sd -> Hashtbl.replace layouts sd.Ast.sd_name (Layout.of_struct sd)
  | None -> ());
  let n = Topology.num_cpus config.topology in
  {
    cfg_of;
    program;
    config;
    coherence =
      Coherence.create config.topology ~line_size:config.line_size
        ~cache_capacity:config.cache_lines ?ways:config.cache_ways
        ?icache:config.icache ?hierarchy:config.hierarchy
        ~protocol:config.protocol ();
    memory = Flat_tab.create ~capacity:4096 ();
    layouts;
    arena_next = 0;
    next_instance = 0;
    frozen = false;
    compiled = Hashtbl.create 16;
    threads = Hashtbl.create 16;
    master_prng = Prng.create ~seed:config.seed;
    ran = false;
    samples_rev = [];
    trace_rev = [];
    fetch_trace_rev = [];
    all_instances = [];
    next_sample = Array.make n (match config.sample_period with Some p -> p | None -> max_int);
    code;
  }

let coherence t = t.coherence

let code_blocks t =
  let all =
    Hashtbl.fold
      (fun name arr acc ->
        let rec go i acc =
          if i < 0 then acc
          else
            let addr, size = arr.(i) in
            go (i - 1) ((name, i, addr, size) :: acc)
        in
        go (Array.length arr - 1) acc)
      t.code []
  in
  List.sort (fun (_, _, a1, _) (_, _, a2, _) -> compare a1 a2) all

let set_code_layout t order =
  if t.ran then invalid_arg "Machine.set_code_layout: machine already ran";
  let expected = Hashtbl.fold (fun _ arr acc -> acc + Array.length arr) t.code 0 in
  let fresh = Hashtbl.create 16 in
  let seen = Hashtbl.create 64 in
  let next = ref code_base in
  let placed = ref 0 in
  List.iter
    (fun (proc, b) ->
      let cfg =
        match Hashtbl.find_opt t.cfg_of proc with
        | Some c -> c
        | None ->
          invalid_arg
            (Printf.sprintf "Machine.set_code_layout: unknown procedure %S" proc)
      in
      if b < 0 || b >= Array.length cfg.Cfg.blocks then
        invalid_arg
          (Printf.sprintf "Machine.set_code_layout: %S has no block %d" proc b);
      if Hashtbl.mem seen (proc, b) then
        invalid_arg
          (Printf.sprintf "Machine.set_code_layout: duplicate block %s#%d" proc b);
      Hashtbl.replace seen (proc, b) ();
      let arr =
        match Hashtbl.find_opt fresh proc with
        | Some a -> a
        | None ->
          let a = Array.make (Array.length cfg.Cfg.blocks) (-1, -1) in
          Hashtbl.replace fresh proc a;
          a
      in
      let size = block_size cfg.Cfg.blocks.(b) in
      arr.(b) <- (!next, size);
      next := !next + size;
      incr placed)
    order;
  if !placed <> expected then
    invalid_arg
      (Printf.sprintf
         "Machine.set_code_layout: order covers %d of the program's %d blocks"
         !placed expected);
  Hashtbl.iter (fun name arr -> Hashtbl.replace t.code name arr) fresh

let layout_of t ~struct_name =
  match Hashtbl.find_opt t.layouts struct_name with
  | Some l -> l
  | None -> invalid_arg (Printf.sprintf "Machine.layout_of: unknown struct %S" struct_name)

let set_layout t (layout : Layout.t) =
  let name = layout.Layout.struct_name in
  if t.frozen then
    invalid_arg "Machine.set_layout: layouts are frozen (allocation started)";
  let declared =
    match Ast.find_struct t.program name with
    | Some sd -> sd
    | None -> invalid_arg (Printf.sprintf "Machine.set_layout: unknown struct %S" name)
  in
  let declared_fields =
    List.sort Field.compare (Field.of_struct declared)
  in
  let layout_fields = List.sort Field.compare (Layout.fields layout) in
  if
    List.length declared_fields <> List.length layout_fields
    || not (List.for_all2 Field.equal declared_fields layout_fields)
  then
    invalid_arg
      (Printf.sprintf "Machine.set_layout: field set mismatch for struct %S" name);
  Layout.check_invariants layout;
  Hashtbl.replace t.layouts name layout

let alloc t ~struct_name =
  let layout = layout_of t ~struct_name in
  t.frozen <- true;
  let line = t.config.line_size in
  let base = (t.arena_next + line - 1) / line * line in
  t.arena_next <- base + layout.Layout.size;
  let id = t.next_instance in
  t.next_instance <- id + 1;
  let inst = { i_id = id; i_struct = struct_name; i_base = base } in
  t.all_instances <- inst :: t.all_instances;
  inst

(* --------------------------------------------------------------------- *)
(* Compilation *)

type comp_env = {
  regs : (string, int) Hashtbl.t;
  insts : (string, int) Hashtbl.t;
  mutable nregs : int;
}

let reg_of env name =
  match Hashtbl.find_opt env.regs name with
  | Some r -> r
  | None ->
    let r = env.nregs in
    env.nregs <- r + 1;
    Hashtbl.replace env.regs name r;
    r

let rec compile_expr env (e : Cfg.pexpr) =
  match e with
  | Cfg.Pint n -> Cint n
  | Cfg.Pvar v -> Cslot (reg_of env v)
  | Cfg.Pbinop (op, l, r) -> Cbin (op, compile_expr env l, compile_expr env r)

let compile_access t env ~inst ~struct_name ~field ~index ~loc =
  let layout = layout_of t ~struct_name in
  let off = Layout.offset_of layout field in
  let fdesc =
    match
      List.find_opt
        (fun (f : Field.t) -> String.equal f.Field.name field)
        (Layout.fields layout)
    with
    | Some f -> f
    | None -> invalid_arg (Printf.sprintf "Machine: struct %S lacks field %S" struct_name field)
  in
  let c_inst =
    match Hashtbl.find_opt env.insts inst with
    | Some s -> s
    | None -> invalid_arg (Printf.sprintf "Machine: unknown struct pointer %S" inst)
  in
  {
    c_inst;
    c_off = off;
    c_elem = Ast.prim_size fdesc.Field.prim;
    c_count = fdesc.Field.count;
    c_index = Option.map (compile_expr env) index;
    c_loc = loc;
  }

let compile_proc t (cfg : Cfg.t) : cproc =
  let env = { regs = Hashtbl.create 16; insts = Hashtbl.create 4; nregs = 0 } in
  (* Parameters first so their slots are the leading ones, in order. *)
  let ninsts = ref 0 in
  List.iter
    (fun p ->
      match p with
      | Ast.Pint { name; _ } -> ignore (reg_of env name)
      | Ast.Pstruct { name; _ } ->
        Hashtbl.replace env.insts name !ninsts;
        incr ninsts)
    cfg.Cfg.params;
  let compile_instr (i : Cfg.instr) =
    match i with
    | Cfg.Iload { dst; inst; struct_name; field; index; loc } ->
      let acc = compile_access t env ~inst ~struct_name ~field ~index ~loc in
      CLoad { dst = reg_of env dst; acc }
    | Cfg.Istore { inst; struct_name; field; index; src; loc } ->
      let acc = compile_access t env ~inst ~struct_name ~field ~index ~loc in
      CStore { acc; src = compile_expr env src }
    | Cfg.Igload { dst; name; _ } ->
      let layout = layout_of t ~struct_name:Ast.globals_struct_name in
      let fdesc =
        List.find
          (fun (f : Field.t) -> String.equal f.Field.name name)
          (Layout.fields layout)
      in
      CGload
        {
          dst = reg_of env dst;
          addr = globals_base + Layout.offset_of layout name;
          size = Ast.prim_size fdesc.Field.prim;
        }
    | Cfg.Igstore { name; src; _ } ->
      let layout = layout_of t ~struct_name:Ast.globals_struct_name in
      let fdesc =
        List.find
          (fun (f : Field.t) -> String.equal f.Field.name name)
          (Layout.fields layout)
      in
      CGstore
        {
          addr = globals_base + Layout.offset_of layout name;
          size = Ast.prim_size fdesc.Field.prim;
          src = compile_expr env src;
        }
    | Cfg.Iassign { dst; value; _ } ->
      CAssign { dst = reg_of env dst; value = compile_expr env value }
    | Cfg.Irand { dst; bound; loc } ->
      CRand { dst = reg_of env dst; bound = compile_expr env bound; loc }
    | Cfg.Ipause { cycles; loc } -> CPause { cycles = compile_expr env cycles; loc }
    | Cfg.Icall { proc = callee; args; loc } ->
      let callee_cfg =
        match Hashtbl.find_opt t.cfg_of callee with
        | Some c -> c
        | None -> invalid_arg (Printf.sprintf "Machine: call to unknown procedure %S" callee)
      in
      (* Slot conventions in the callee mirror this function: int params
         take registers 0.. in parameter order; struct params take instance
         slots 0.. in parameter order. *)
      let int_args = ref [] and inst_args = ref [] in
      let next_int = ref 0 and next_inst = ref 0 in
      List.iter2
        (fun param arg ->
          match (param, arg) with
          | Ast.Pint _, Cfg.Cexpr e ->
            int_args := (!next_int, compile_expr env e) :: !int_args;
            incr next_int
          | Ast.Pstruct _, Cfg.Cinst name ->
            let caller_slot =
              match Hashtbl.find_opt env.insts name with
              | Some s -> s
              | None ->
                invalid_arg (Printf.sprintf "Machine: unknown struct pointer %S" name)
            in
            inst_args := (!next_inst, caller_slot) :: !inst_args;
            incr next_inst
          | Ast.Pint _, Cfg.Cinst _ | Ast.Pstruct _, Cfg.Cexpr _ ->
            invalid_arg "Machine: call argument kind mismatch")
        callee_cfg.Cfg.params args;
      CCall
        {
          callee;
          int_args = List.rev !int_args;
          inst_args = List.rev !inst_args;
          loc;
        }
  in
  let compile_term (term : Cfg.terminator) =
    match term with
    | Cfg.Tgoto b -> CGoto b
    | Cfg.Tbranch { cond; if_true; if_false; loc } ->
      CBranch { cond = compile_expr env cond; if_true; if_false; loc }
    | Cfg.Treturn -> CReturn
  in
  let blocks =
    Array.map
      (fun (blk : Cfg.block) ->
        let instrs = Array.map compile_instr blk.Cfg.b_instrs in
        let lines =
          Array.map (fun i -> Loc.line (Cfg.instr_loc i)) blk.Cfg.b_instrs
        in
        let term_line =
          match blk.Cfg.b_term with
          | Cfg.Tbranch { loc; _ } -> Loc.line loc
          | Cfg.Tgoto _ | Cfg.Treturn ->
            if Array.length lines > 0 then lines.(Array.length lines - 1) else 0
        in
        { cb_instrs = instrs; cb_term = compile_term blk.Cfg.b_term;
          cb_src = blk.Cfg.b_id; cb_lines = lines; cb_term_line = term_line })
      cfg.Cfg.blocks
  in
  {
    cp_name = cfg.Cfg.proc_name;
    cp_blocks = blocks;
    cp_nregs = max env.nregs 1;
    cp_ninsts = max !ninsts 1;
    cp_params = cfg.Cfg.params;
  }

let compiled_proc t name =
  match Hashtbl.find_opt t.compiled name with
  | Some cp -> cp
  | None ->
    let cfg =
      match Hashtbl.find_opt t.cfg_of name with
      | Some c -> c
      | None -> invalid_arg (Printf.sprintf "Machine: unknown procedure %S" name)
    in
    t.frozen <- true;
    let cp = compile_proc t cfg in
    Hashtbl.replace t.compiled name cp;
    cp

(* --------------------------------------------------------------------- *)

let add_thread t ~cpu ~work =
  if cpu < 0 || cpu >= Topology.num_cpus t.config.topology then
    invalid_arg (Printf.sprintf "Machine.add_thread: cpu %d out of range" cpu);
  if Hashtbl.mem t.threads cpu then
    invalid_arg (Printf.sprintf "Machine.add_thread: cpu %d already has a thread" cpu);
  (* Validate work items eagerly. *)
  List.iter
    (fun (proc, args) ->
      let cp = compiled_proc t proc in
      if List.length cp.cp_params <> List.length args then
        invalid_arg
          (Printf.sprintf "Machine.add_thread: %S expects %d args, got %d" proc
             (List.length cp.cp_params) (List.length args));
      List.iter2
        (fun param arg ->
          match (param, arg) with
          | Ast.Pint _, Aint _ -> ()
          | Ast.Pstruct { struct_name; _ }, Ainst i
            when String.equal i.i_struct struct_name -> ()
          | _ -> invalid_arg "Machine.add_thread: argument kind mismatch")
        cp.cp_params args)
    work;
  let thread =
    {
      t_cpu = cpu;
      t_total_items = List.length work;
      t_clock = 0;
      t_frames = [];
      t_work = work;
      t_prng = Prng.split t.master_prng;
      t_done = work = [];
    }
  in
  Hashtbl.replace t.threads cpu thread

(* --------------------------------------------------------------------- *)
(* Execution *)

let rec eval_cexpr regs prng (e : cexpr) =
  match e with
  | Cint n -> n
  | Cslot s -> regs.(s)
  | Cbin (op, l, r) ->
    let a = eval_cexpr regs prng l in
    let b = eval_cexpr regs prng r in
    let bool_ c = if c then 1 else 0 in
    (match op with
    | Ast.Add -> a + b
    | Ast.Sub -> a - b
    | Ast.Mul -> a * b
    | Ast.Div -> if b = 0 then raise Zero_divisor else a / b
    | Ast.Mod -> if b = 0 then raise Zero_divisor else a mod b
    | Ast.Lt -> bool_ (a < b)
    | Ast.Le -> bool_ (a <= b)
    | Ast.Gt -> bool_ (a > b)
    | Ast.Ge -> bool_ (a >= b)
    | Ast.Eq -> bool_ (a = b)
    | Ast.Ne -> bool_ (a <> b)
    | Ast.And -> bool_ (a <> 0 && b <> 0)
    | Ast.Or -> bool_ (a <> 0 || b <> 0))

(* The access's byte address; its size is [acc.c_elem]. *)
let address_of frame (acc : caccess) regs prng =
  let idx =
    match acc.c_index with
    | None -> 0
    | Some e -> eval_cexpr regs prng e
  in
  if idx < 0 || idx >= acc.c_count then
    raise
      (Runtime_error
         (Printf.sprintf "index %d out of range (count %d)" idx acc.c_count, acc.c_loc));
  let inst = frame.f_insts.(acc.c_inst) in
  inst.i_base + acc.c_off + (idx * acc.c_elem)

let make_frame t proc =
  let cp = compiled_proc t proc in
  {
    f_proc = cp;
    f_regs = Array.make cp.cp_nregs 0;
    f_insts = Array.make cp.cp_ninsts { i_id = -1; i_struct = ""; i_base = -1 };
    f_code = Hashtbl.find t.code proc;
    f_block = 0;
    f_ip = 0;
  }

(* Fetch the instruction bytes of the frame's current block; free (and
   trace-silent) when no I-cache is configured, so data-only runs are
   byte-identical to the pre-I-cache machine. Called on every block entry:
   invocation start, goto, branch, and call — but not on return, which
   resumes mid-block without refetching (the straight-line bytes after the
   call site were already fetched on block entry). *)
let fetch_cost t thread frame =
  match t.config.icache with
  | None -> 0
  | Some _ ->
    let addr, size = frame.f_code.(frame.f_block) in
    if t.config.trace then
      t.fetch_trace_rev <-
        { t_cpu = thread.t_cpu; t_itc = thread.t_clock; t_addr = addr;
          t_size = size; t_is_write = false }
        :: t.fetch_trace_rev;
    Coherence.ifetch t.coherence ~cpu:thread.t_cpu ~addr ~size

let start_invocation t thread (proc, args) =
  let frame = make_frame t proc in
  let next_int = ref 0 and next_inst = ref 0 in
  List.iter2
    (fun param arg ->
      match (param, arg) with
      | Ast.Pint _, Aint v ->
        frame.f_regs.(!next_int) <- v;
        incr next_int
      | Ast.Pstruct _, Ainst i ->
        frame.f_insts.(!next_inst) <- i;
        incr next_inst
      | _ -> assert false (* validated in add_thread *))
    frame.f_proc.cp_params args;
  thread.t_frames <- [ frame ];
  frame

(* Execute one instruction (or terminator) of [thread]; returns its cost in
   cycles. *)
let step t thread =
  match thread.t_frames with
  | [] -> (
    match thread.t_work with
    | [] ->
      thread.t_done <- true;
      0
    | item :: rest ->
      thread.t_work <- rest;
      let frame = start_invocation t thread item in
      call_overhead + fetch_cost t thread frame)
  | frame :: parents ->
    let blk = frame.f_proc.cp_blocks.(frame.f_block) in
    if frame.f_ip < Array.length blk.cb_instrs then begin
      let instr = blk.cb_instrs.(frame.f_ip) in
      frame.f_ip <- frame.f_ip + 1;
      match instr with
      | CAssign { dst; value } ->
        frame.f_regs.(dst) <- eval_cexpr frame.f_regs thread.t_prng value;
        1
      | CRand { dst; bound; loc } ->
        let b = eval_cexpr frame.f_regs thread.t_prng bound in
        if b <= 0 then raise (Runtime_error ("rand bound must be positive", loc));
        frame.f_regs.(dst) <- Prng.int thread.t_prng b;
        1
      | CPause { cycles; loc } ->
        let c = eval_cexpr frame.f_regs thread.t_prng cycles in
        if c < 0 then raise (Runtime_error ("negative pause", loc));
        1 + c
      | CLoad { dst; acc } ->
        let addr = address_of frame acc frame.f_regs thread.t_prng in
        let size = acc.c_elem in
        if t.config.trace then
          t.trace_rev <-
            { t_cpu = thread.t_cpu; t_itc = thread.t_clock; t_addr = addr;
              t_size = size; t_is_write = false }
            :: t.trace_rev;
        let latency =
          Coherence.access t.coherence ~cpu:thread.t_cpu ~addr ~size ~is_write:false
        in
        frame.f_regs.(dst) <- Flat_tab.find t.memory addr ~default:0;
        t.config.load_base + latency
      | CStore { acc; src } ->
        let addr = address_of frame acc frame.f_regs thread.t_prng in
        let size = acc.c_elem in
        if t.config.trace then
          t.trace_rev <-
            { t_cpu = thread.t_cpu; t_itc = thread.t_clock; t_addr = addr;
              t_size = size; t_is_write = true }
            :: t.trace_rev;
        let v = eval_cexpr frame.f_regs thread.t_prng src in
        let latency =
          Coherence.access t.coherence ~cpu:thread.t_cpu ~addr ~size ~is_write:true
        in
        Flat_tab.set t.memory addr v;
        t.config.store_base + latency
      | CGload { dst; addr; size } ->
        let latency =
          Coherence.access t.coherence ~cpu:thread.t_cpu ~addr ~size ~is_write:false
        in
        frame.f_regs.(dst) <- Flat_tab.find t.memory addr ~default:0;
        t.config.load_base + latency
      | CGstore { addr; size; src } ->
        let v = eval_cexpr frame.f_regs thread.t_prng src in
        let latency =
          Coherence.access t.coherence ~cpu:thread.t_cpu ~addr ~size ~is_write:true
        in
        Flat_tab.set t.memory addr v;
        t.config.store_base + latency
      | CCall { callee; int_args; inst_args; _ } ->
        let child = make_frame t callee in
        List.iter
          (fun (slot, e) -> child.f_regs.(slot) <- eval_cexpr frame.f_regs thread.t_prng e)
          int_args;
        List.iter
          (fun (child_slot, parent_slot) ->
            child.f_insts.(child_slot) <- frame.f_insts.(parent_slot))
          inst_args;
        thread.t_frames <- child :: frame :: parents;
        call_overhead + fetch_cost t thread child
    end
    else begin
      match blk.cb_term with
      | CGoto next ->
        frame.f_block <- next;
        frame.f_ip <- 0;
        1 + fetch_cost t thread frame
      | CBranch { cond; if_true; if_false; _ } ->
        let v = eval_cexpr frame.f_regs thread.t_prng cond in
        frame.f_block <- (if v <> 0 then if_true else if_false);
        frame.f_ip <- 0;
        1 + fetch_cost t thread frame
      | CReturn ->
        thread.t_frames <- parents;
        1
    end

(* Record every sample tick a step crossed, attributed to the location the
   step executed — block [block], instruction [ip] (the terminator when
   past the last) of [frame] — since the PMU interrupts mid-instruction. *)
let record_samples t ~cpu ~period ~until frame ~block ~ip =
  let blk = frame.f_proc.cp_blocks.(block) in
  let line =
    if ip < Array.length blk.cb_lines then blk.cb_lines.(ip) else blk.cb_term_line
  in
  while t.next_sample.(cpu) <= until do
    t.samples_rev <-
      {
        s_cpu = cpu;
        s_itc = t.next_sample.(cpu);
        s_proc = frame.f_proc.cp_name;
        s_block = blk.cb_src;
        s_line = line;
      }
      :: t.samples_rev;
    t.next_sample.(cpu) <- t.next_sample.(cpu) + period
  done

(* Source location of instruction [ip] of [block] (its terminator when past
   the last), for errors raised without one. *)
let source_loc t frame ~block ~ip =
  let blk = (Hashtbl.find t.cfg_of frame.f_proc.cp_name).Cfg.blocks.(block) in
  if ip < Array.length blk.Cfg.b_instrs then Cfg.instr_loc blk.Cfg.b_instrs.(ip)
  else
    match blk.Cfg.b_term with
    | Cfg.Tbranch { loc; _ } -> loc
    | Cfg.Tgoto _ | Cfg.Treturn -> Loc.dummy

let run t =
  if t.ran then invalid_arg "Machine.run: machine already ran";
  t.ran <- true;
  t.frozen <- true;
  let invocations =
    Hashtbl.fold (fun _ th acc -> acc + List.length th.t_work) t.threads 0
  in
  (* Queue ids index [queued], in the table's iteration order: the order
     in which the threads' ties at clock 0 resolve. *)
  let queued = ref [] in
  Hashtbl.iter (fun _ th -> if not th.t_done then queued := th :: !queued) t.threads;
  let queued = Array.of_list (List.rev !queued) in
  let cal = Calendar.create ~ids:(Array.length queued) in
  Array.iteri (fun id _ -> Calendar.push cal id ~clock:0) queued;
  let period = Option.value t.config.sample_period ~default:0 in
  let steps = ref 0 in
  (* Where the current step starts: the location a sample tick crossed by
     the step records, and a division by zero reports. [running] is [[]]
     while a step starts an invocation or finishes a thread. *)
  let running = ref [] and block = ref 0 and ip = ref 0 in
  (try
     let id = ref (Calendar.pop cal) in
     while !id >= 0 do
       let thread = queued.(!id) in
       running := thread.t_frames;
       (match thread.t_frames with
       | frame :: _ ->
         block := frame.f_block;
         ip := frame.f_ip;
         incr steps
       | [] -> ());
       let clock = thread.t_clock + step t thread in
       thread.t_clock <- clock;
       let cpu = thread.t_cpu in
       (if t.next_sample.(cpu) <= clock then
          match !running with
          | frame :: _ ->
            record_samples t ~cpu ~period ~until:clock frame ~block:!block ~ip:!ip
          | [] -> ());
       if not thread.t_done then Calendar.push cal !id ~clock;
       id := Calendar.pop cal
     done
   with Zero_divisor ->
     let loc =
       match !running with
       | frame :: _ -> source_loc t frame ~block:!block ~ip:!ip
       | [] -> Loc.dummy
     in
     raise (Runtime_error ("division by zero", loc)));
  let n = Topology.num_cpus t.config.topology in
  let cpu_cycles = Array.make n 0 in
  let cpu_invocations = Array.make n 0 in
  Hashtbl.iter (fun cpu th -> cpu_cycles.(cpu) <- th.t_clock) t.threads;
  Hashtbl.iter
    (fun cpu th -> cpu_invocations.(cpu) <- th.t_total_items)
    t.threads;
  let makespan = Array.fold_left max 0 cpu_cycles in
  let per_cpu_stats = Array.init n (fun cpu -> Coherence.stats t.coherence ~cpu) in
  let stats = Coherence.total_stats t.coherence in
  (* Aggregate run counters into the process-wide registry. One bump per
     run (not per access): the registry mutex never sits on the simulation
     hot path, and summed counters are scheduling-independent when runs fan
     out across a pool. *)
  let module Obs = Slo_obs.Obs in
  Obs.incr "sim.runs";
  Obs.incr ~by:makespan "sim.makespan_cycles";
  Obs.incr ~by:invocations "sim.invocations";
  Obs.incr ~by:!steps "sim.steps";
  Obs.incr ~by:stats.Sim_stats.loads "sim.loads";
  Obs.incr ~by:stats.Sim_stats.stores "sim.stores";
  Obs.incr ~by:stats.Sim_stats.hits "sim.hits";
  Obs.incr ~by:stats.Sim_stats.cold_misses "sim.cold_misses";
  Obs.incr ~by:stats.Sim_stats.capacity_misses "sim.capacity_misses";
  Obs.incr ~by:stats.Sim_stats.true_sharing_misses "sim.true_sharing_misses";
  Obs.incr ~by:stats.Sim_stats.false_sharing_misses "sim.false_sharing_misses";
  Obs.incr ~by:stats.Sim_stats.upgrades "sim.upgrades";
  Obs.incr ~by:stats.Sim_stats.invalidations "sim.invalidations";
  Obs.incr ~by:stats.Sim_stats.writebacks "sim.writebacks";
  Obs.incr ~by:stats.Sim_stats.stall_cycles "sim.stall_cycles";
  Obs.incr ~by:(List.length t.samples_rev) "sim.samples";
  if t.config.icache <> None then begin
    Obs.incr "sim.icache.runs";
    Obs.incr ~by:stats.Sim_stats.ifetches "sim.icache.fetches";
    Obs.incr ~by:stats.Sim_stats.imisses "sim.icache.misses";
    Obs.incr ~by:stats.Sim_stats.istall_cycles "sim.icache.stall_cycles"
  end;
  if t.config.hierarchy <> None then begin
    Obs.incr "sim.llc.runs";
    Obs.incr ~by:stats.Sim_stats.l1_hits "sim.llc.l1_hits";
    Obs.incr ~by:stats.Sim_stats.l2_hits "sim.llc.l2_hits";
    Obs.incr ~by:stats.Sim_stats.llc_local_hits "sim.llc.local_hits";
    Obs.incr ~by:stats.Sim_stats.llc_remote_hits "sim.llc.remote_hits"
  end;
  let k = Coherence.kstats t.coherence in
  Obs.incr "sim.kernel.runs";
  Obs.incr
    ~by:(stats.Sim_stats.loads + stats.Sim_stats.stores)
    "sim.kernel.accesses";
  Obs.incr ~by:k.Coherence.k_hint_drops "sim.kernel.hint_drops";
  Obs.incr ~by:k.Coherence.k_probe_steps "sim.kernel.probe_steps";
  if t.config.hierarchy <> None then
    Obs.incr ~by:k.Coherence.k_llc_fills "sim.kernel.llc_fills";
  let peak = float_of_int k.Coherence.k_dir_peak in
  let prev =
    match Obs.gauge "sim.kernel.dir_peak_entries" with
    | Some g -> g
    | None -> 0.0
  in
  Obs.set_gauge "sim.kernel.dir_peak_entries" (Float.max prev peak);
  {
    makespan;
    cpu_cycles;
    invocations;
    cpu_invocations;
    stats;
    per_cpu_stats;
    samples = List.rev t.samples_rev;
    trace = List.rev t.trace_rev;
    fetch_trace = List.rev t.fetch_trace_rev;
  }

let read_field t inst ~field ?(index = 0) () =
  let layout = layout_of t ~struct_name:inst.i_struct in
  let off =
    try Layout.offset_of layout field
    with Not_found ->
      invalid_arg
        (Printf.sprintf "Machine.read_field: struct %S has no field %S"
           inst.i_struct field)
  in
  let fdesc =
    List.find
      (fun (f : Field.t) -> String.equal f.Field.name field)
      (Layout.fields layout)
  in
  if index < 0 || index >= fdesc.Field.count then
    invalid_arg
      (Printf.sprintf "Machine.read_field: index %d out of range for %s.%s"
         index inst.i_struct field);
  let addr = inst.i_base + off + (index * Ast.prim_size fdesc.Field.prim) in
  Flat_tab.find t.memory addr ~default:0

let read_global t ~name =
  let layout = layout_of t ~struct_name:Ast.globals_struct_name in
  let off =
    try Layout.offset_of layout name
    with Not_found ->
      invalid_arg (Printf.sprintf "Machine.read_global: unknown global %S" name)
  in
  Flat_tab.find t.memory (globals_base + off) ~default:0

(* Resolve a byte address to (struct, instance id, field, element index);
   global addresses resolve to the globals pseudo-struct with instance -1. *)
let resolve_addr t addr =
  if addr >= globals_base then begin
    let layout = layout_of t ~struct_name:Ast.globals_struct_name in
    let off = addr - globals_base in
    List.find_map
      (fun (slot : Layout.slot) ->
        let fsize = Field.size slot.Layout.field in
        if off >= slot.Layout.offset && off < slot.Layout.offset + fsize then
          Some (Ast.globals_struct_name, -1, slot.Layout.field.Field.name, 0)
        else None)
      layout.Layout.slots
  end
  else
    List.find_map
      (fun inst ->
        let layout = layout_of t ~struct_name:inst.i_struct in
        if addr >= inst.i_base && addr < inst.i_base + layout.Layout.size then
          List.find_map
            (fun (slot : Layout.slot) ->
              let f = slot.Layout.field in
              let elem = Ast.prim_size f.Field.prim in
              let off = addr - inst.i_base - slot.Layout.offset in
              if off >= 0 && off < elem * f.Field.count then
                Some (inst.i_struct, inst.i_id, f.Field.name, off / elem)
              else None)
            layout.Layout.slots
        else None)
      t.all_instances
