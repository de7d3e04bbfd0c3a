module Ast = Slo_ir.Ast
module Cfg = Slo_ir.Cfg
module Loc = Slo_ir.Loc
module Layout = Slo_layout.Layout
module Field = Slo_layout.Field
module Prng = Slo_util.Prng
module Flat_tab = Slo_util.Flat_tab

exception Runtime_error = Slo_profile.Interp.Runtime_error

(* Raised by [eval], which has no location; [run] reports it at the
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
    protocol = Coherence.Mesi; sample_period = None; seed = 42; trace = false;
    icache = None; hierarchy = None }

(* Cycles before the memory latency: a load's, a store's (port and
   store-buffer occupancy), and a call's. *)
let load_base = 2
let store_base = 8
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
(* The flat program. [run] compiles every procedure, once the layouts and
   the code layout are final, into one op array: variable names become
   frame offsets, fields byte offsets under the machine's layouts, and
   blocks and callees op indices. A block's ops are its instructions, then
   its terminator. A frame is the procedure's struct-instance base
   addresses (its struct parameters, in order) followed by its int
   registers (its int parameters first, in order); [Reg] and [inst] are
   offsets from the frame's base. *)

type expr = Int of int | Reg of int | Bin of Ast.binop * expr * expr

type proc = {
  p_name : string;
  p_entry : int;  (* op index of block 0's first op *)
  p_ninsts : int;  (* struct parameters: the frame's leading slots *)
  mutable p_frame : int;  (* frame size, set once the proc is compiled *)
}

(* An unindexed access reads element 0: its [index] is [Int 0]. *)
type op =
  | Load of { dst : int; inst : int; off : int; elem : int; count : int; index : expr; loc : Loc.t }
  | Store of { inst : int; off : int; elem : int; count : int; index : expr; src : expr; loc : Loc.t }
  | Gload of { dst : int; addr : int; size : int; id : int; lo : int }
  | Gstore of { addr : int; size : int; id : int; lo : int; src : expr }
      (* a global's line id and its byte offset within the line *)
  | Assign of { dst : int; value : expr }
  | Rand of { dst : int; bound : expr; loc : Loc.t }
  | Pause of { cycles : expr; loc : Loc.t }
  | Call of { caller : proc; callee : proc; args : expr array; insts : int array }
      (* [args.(k)] is the callee's k-th int parameter, [insts.(k)] the
         caller's frame offset of its k-th struct parameter *)
  | Goto of int
  | Branch of { cond : expr; if_true : int; if_false : int }
  | Return

(* The op array and its parallel per-op tables: the op's procedure (an
   index into [procs]), block, instruction index (the block's instruction
   count for its terminator), source line, its block's code range, and the
   ids of its block's first and last I-cache lines. *)
type prog = {
  ops : op array;
  procs : proc array;
  op_proc : int array;
  op_block : int array;
  op_ip : int array;
  op_line : int array;
  op_addr : int array;
  op_size : int array;
  op_ifirst : int array;
  op_ilast : int array;
  stack_words : int;  (* frames of the deepest call chain *)
  depth : int;  (* procedures on the longest call chain *)
}

(* --------------------------------------------------------------------- *)

(* A thread is a pc, a frame base and one int stack; a call pushes its
   return pc and its caller's frame base. The stacks are sized by [run]. *)
type thread = {
  t_cpu : int;
  t_total_items : int;
  mutable t_clock : int;
  mutable t_pc : int;  (* the next op; -1 between invocations *)
  mutable t_base : int;  (* the running frame's first slot in [t_stack] *)
  mutable t_depth : int;  (* calls awaiting their return *)
  mutable t_stack : int array;
  mutable t_ret_pc : int array;
  mutable t_ret_base : int array;
  mutable t_work : (string * arg list) list;
  t_prng : Prng.t;
  mutable t_done : bool;
}

type t = {
  cfgs : Cfg.t array;  (* program order *)
  index : (string, int) Hashtbl.t;  (* procedure name -> [cfgs] index *)
  program : Ast.program;
  config : config;
  coherence : Coherence.t;
  memory : Flat_tab.t;  (* byte address of a field slot -> value *)
  layouts : (string, Layout.t) Hashtbl.t;
  mutable arena_next : int;
  mutable next_instance : int;
  mutable frozen : bool;  (* layouts frozen once allocation/compilation began *)
  threads : thread option array;  (* indexed by cpu *)
  master_prng : Prng.t;
  mutable ran : bool;
  samples_rev : sample list array;  (* per cpu, latest first *)
  sample_count : int array;  (* per cpu *)
  mutable trace_rev : trace_event list;
  fetch_rev : trace_event list array;  (* per cpu, latest first *)
  mutable all_instances : instance list;
  next_sample : int array;
  code : (string, (int * int) array) Hashtbl.t;
      (* proc -> per-block (address, size) under the current code layout *)
}

let find_cfg t name = Option.map (Array.get t.cfgs) (Hashtbl.find_opt t.index name)

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
  (match config.sample_period with
  | Some p when p <= 0 ->
    invalid_arg (Printf.sprintf "Machine.create: sample period %d is not positive" p)
  | Some _ | None -> ());
  let cfgs = Cfg.of_program program in
  let index = Hashtbl.create 16 in
  List.iteri (fun i (n, _) -> Hashtbl.replace index n i) cfgs;
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
    cfgs = Array.of_list (List.map snd cfgs);
    index;
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
    threads = Array.make n None;
    master_prng = Prng.create ~seed:config.seed;
    ran = false;
    samples_rev = Array.make n [];
    sample_count = Array.make n 0;
    trace_rev = [];
    fetch_rev = Array.make n [];
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
        match find_cfg t proc with
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

let field_slot t ~struct_name name =
  let layout = layout_of t ~struct_name in
  match
    List.find_opt (fun (f : Field.t) -> String.equal f.Field.name name) (Layout.fields layout)
  with
  | Some f -> (Layout.offset_of layout name, Ast.prim_size f.Field.prim, f.Field.count)
  | None -> invalid_arg (Printf.sprintf "Machine: struct %S lacks field %S" struct_name name)

let compile t =
  (* The op index of every block's first op: procedures in program order,
     blocks in index order. *)
  let total = ref 0 in
  let starts =
    Array.map
      (fun (cfg : Cfg.t) ->
        Array.map
          (fun (blk : Cfg.block) ->
            let s = !total in
            total := s + Array.length blk.Cfg.b_instrs + 1;
            s)
          cfg.Cfg.blocks)
      t.cfgs
  in
  let total = !total in
  let procs =
    Array.mapi
      (fun i (cfg : Cfg.t) ->
        { p_name = cfg.Cfg.proc_name; p_entry = starts.(i).(0);
          p_ninsts =
            List.length
              (List.filter (function Ast.Pstruct _ -> true | Ast.Pint _ -> false) cfg.Cfg.params);
          p_frame = 0 })
      t.cfgs
  in
  let table () = Array.make total 0 in
  let ops = Array.make total Return in
  let op_proc = table () and op_block = table () and op_ip = table () in
  let op_line = table () and op_addr = table () and op_size = table () in
  let op_ifirst = table () and op_ilast = table () in
  let iline addr =
    match t.config.icache with
    | Some ic -> Coherence.intern_code t.coherence ~line:(addr / ic.Coherence.i_line_size)
    | None -> 0
  in
  let callees = Array.make (Array.length procs) [] in
  let compile_proc pi (cfg : Cfg.t) =
    let me = procs.(pi) in
    let insts = Hashtbl.create 4 and regs = Hashtbl.create 16 in
    let reg v =
      match Hashtbl.find_opt regs v with
      | Some r -> r
      | None ->
        let r = me.p_ninsts + Hashtbl.length regs in
        Hashtbl.replace regs v r;
        r
    in
    List.iter
      (function
        | Ast.Pint { name; _ } -> ignore (reg name)
        | Ast.Pstruct { name; _ } -> Hashtbl.replace insts name (Hashtbl.length insts))
      cfg.Cfg.params;
    let inst name =
      match Hashtbl.find_opt insts name with
      | Some s -> s
      | None -> invalid_arg (Printf.sprintf "Machine: unknown struct pointer %S" name)
    in
    let rec expr (e : Cfg.pexpr) =
      match e with
      | Cfg.Pint n -> Int n
      | Cfg.Pvar v -> Reg (reg v)
      | Cfg.Pbinop (op, l, r) -> Bin (op, expr l, expr r)
    in
    let index = function None -> Int 0 | Some e -> expr e in
    let global name =
      let off, size, _ = field_slot t ~struct_name:Ast.globals_struct_name name in
      let addr = globals_base + off and lsize = t.config.line_size in
      (addr, size, Coherence.intern t.coherence ~line:(addr / lsize), addr mod lsize)
    in
    let instr (i : Cfg.instr) =
      match i with
      | Cfg.Iload { dst; inst = p; struct_name; field; index = ix; loc } ->
        let off, elem, count = field_slot t ~struct_name field in
        Load { dst = reg dst; inst = inst p; off; elem; count; index = index ix; loc }
      | Cfg.Istore { inst = p; struct_name; field; index = ix; src; loc } ->
        let off, elem, count = field_slot t ~struct_name field in
        Store { inst = inst p; off; elem; count; index = index ix; src = expr src; loc }
      | Cfg.Igload { dst; name; _ } ->
        let addr, size, id, lo = global name in
        Gload { dst = reg dst; addr; size; id; lo }
      | Cfg.Igstore { name; src; _ } ->
        let addr, size, id, lo = global name in
        Gstore { addr; size; id; lo; src = expr src }
      | Cfg.Iassign { dst; value; _ } -> Assign { dst = reg dst; value = expr value }
      | Cfg.Irand { dst; bound; loc } -> Rand { dst = reg dst; bound = expr bound; loc }
      | Cfg.Ipause { cycles; loc } -> Pause { cycles = expr cycles; loc }
      | Cfg.Icall { proc = name; args; _ } ->
        let ci =
          match Hashtbl.find_opt t.index name with
          | Some ci -> ci
          | None -> invalid_arg (Printf.sprintf "Machine: call to unknown procedure %S" name)
        in
        callees.(pi) <- ci :: callees.(pi);
        let ints = ref [] and ptrs = ref [] in
        List.iter2
          (fun param arg ->
            match (param, arg) with
            | Ast.Pint _, Cfg.Cexpr e -> ints := expr e :: !ints
            | Ast.Pstruct _, Cfg.Cinst p -> ptrs := inst p :: !ptrs
            | Ast.Pint _, Cfg.Cinst _ | Ast.Pstruct _, Cfg.Cexpr _ ->
              invalid_arg "Machine: call argument kind mismatch")
          t.cfgs.(ci).Cfg.params args;
        Call
          { caller = me; callee = procs.(ci); args = Array.of_list (List.rev !ints);
            insts = Array.of_list (List.rev !ptrs) }
    in
    let code = Hashtbl.find t.code cfg.Cfg.proc_name in
    Array.iteri
      (fun b (blk : Cfg.block) ->
        let addr, size = code.(b) in
        let ifirst = iline addr and ilast = iline (addr + size - 1) in
        let emit pc op ip line =
          ops.(pc) <- op;
          op_proc.(pc) <- pi;
          op_block.(pc) <- blk.Cfg.b_id;
          op_ip.(pc) <- ip;
          op_line.(pc) <- line;
          op_addr.(pc) <- addr;
          op_size.(pc) <- size;
          op_ifirst.(pc) <- ifirst;
          op_ilast.(pc) <- ilast
        in
        let s = starts.(pi).(b) and n = Array.length blk.Cfg.b_instrs in
        Array.iteri
          (fun ip i -> emit (s + ip) (instr i) ip (Loc.line (Cfg.instr_loc i)))
          blk.Cfg.b_instrs;
        (* A goto or return samples as the block's last instruction. *)
        let last = if n > 0 then op_line.(s + n - 1) else 0 in
        let term, line =
          match blk.Cfg.b_term with
          | Cfg.Tgoto b' -> (Goto starts.(pi).(b'), last)
          | Cfg.Tbranch { cond; if_true; if_false; loc } ->
            ( Branch
                { cond = expr cond; if_true = starts.(pi).(if_true);
                  if_false = starts.(pi).(if_false) },
              Loc.line loc )
          | Cfg.Treturn -> (Return, last)
        in
        emit (s + n) term n line)
      cfg.Cfg.blocks;
    me.p_frame <- me.p_ninsts + Hashtbl.length regs
  in
  Array.iteri compile_proc t.cfgs;
  (* Stack words and depth of the deepest call chain from each procedure.
     The typechecker rejects recursion; an unchecked program with a call
     cycle is rejected here. *)
  let words = Array.make (Array.length procs) (-1) and depth = Array.make (Array.length procs) 0 in
  let rec visit i =
    if words.(i) = -2 then
      invalid_arg (Printf.sprintf "Machine: recursive call through %S" procs.(i).p_name);
    if words.(i) < 0 then begin
      words.(i) <- -2;
      let w, d =
        List.fold_left
          (fun (w, d) j ->
            visit j;
            (max w words.(j), max d depth.(j)))
          (0, 0) callees.(i)
      in
      words.(i) <- procs.(i).p_frame + w;
      depth.(i) <- d + 1
    end
  in
  Array.iteri (fun i _ -> visit i) procs;
  { ops; procs; op_proc; op_block; op_ip; op_line; op_addr; op_size; op_ifirst;
    op_ilast; stack_words = Array.fold_left max 1 words; depth = Array.fold_left max 1 depth }

(* --------------------------------------------------------------------- *)

let add_thread t ~cpu ~work =
  if cpu < 0 || cpu >= Topology.num_cpus t.config.topology then
    invalid_arg (Printf.sprintf "Machine.add_thread: cpu %d out of range" cpu);
  if Option.is_some t.threads.(cpu) then
    invalid_arg (Printf.sprintf "Machine.add_thread: cpu %d already has a thread" cpu);
  (* Validate work items eagerly. *)
  List.iter
    (fun (proc, args) ->
      let params =
        match find_cfg t proc with
        | Some cfg -> cfg.Cfg.params
        | None -> invalid_arg (Printf.sprintf "Machine: unknown procedure %S" proc)
      in
      if List.length params <> List.length args then
        invalid_arg
          (Printf.sprintf "Machine.add_thread: %S expects %d args, got %d" proc
             (List.length params) (List.length args));
      List.iter2
        (fun param arg ->
          match (param, arg) with
          | Ast.Pint _, Aint _ -> ()
          | Ast.Pstruct { struct_name; _ }, Ainst i
            when String.equal i.i_struct struct_name -> ()
          | _ -> invalid_arg "Machine.add_thread: argument kind mismatch")
        params args)
    work;
  (* Work fixes the layouts its procedures will run under. *)
  if work <> [] then t.frozen <- true;
  let thread =
    {
      t_cpu = cpu;
      t_total_items = List.length work;
      t_clock = 0;
      t_pc = -1;
      t_base = 0;
      t_depth = 0;
      t_stack = [||];
      t_ret_pc = [||];
      t_ret_base = [||];
      t_work = work;
      t_prng = Prng.split t.master_prng;
      t_done = work = [];
    }
  in
  t.threads.(cpu) <- Some thread

(* --------------------------------------------------------------------- *)
(* Execution *)

let[@inline] binop (op : Ast.binop) a b =
  match op with
  | Ast.Add -> a + b
  | Ast.Sub -> a - b
  | Ast.Mul -> a * b
  | Ast.Div -> if b = 0 then raise Zero_divisor else a / b
  | Ast.Mod -> if b = 0 then raise Zero_divisor else a mod b
  | Ast.Lt -> Bool.to_int (a < b)
  | Ast.Le -> Bool.to_int (a <= b)
  | Ast.Gt -> Bool.to_int (a > b)
  | Ast.Ge -> Bool.to_int (a >= b)
  | Ast.Eq -> Bool.to_int (a = b)
  | Ast.Ne -> Bool.to_int (a <> b)
  | Ast.And -> Bool.to_int (a <> 0 && b <> 0)
  | Ast.Or -> Bool.to_int (a <> 0 || b <> 0)

(* The value of [e] in the frame at [base]; leaf operands are read in
   place rather than through a recursive call. *)
let rec eval stack base e =
  match e with
  | Int n -> n
  | Reg r -> stack.(base + r)
  | Bin (op, l, r) ->
    let a = match l with Int n -> n | Reg s -> stack.(base + s) | Bin _ -> eval stack base l in
    let b = match r with Int n -> n | Reg s -> stack.(base + s) | Bin _ -> eval stack base r in
    binop op a b

(* The byte address of element [index] of a field of the instance in
   frame slot [inst]. *)
let[@inline] address stack base ~inst ~off ~elem ~count ~index ~loc =
  let idx = eval stack base index in
  if idx < 0 || idx >= count then
    raise
      (Runtime_error (Printf.sprintf "index %d out of range (count %d)" idx count, loc));
  stack.(base + inst) + off + (idx * elem)

(* An arena line's id is its line number: [run] interns the arena's lines
   first, in order. *)
let[@inline] arena_access t thread addr ~size ~is_write =
  let lsize = t.config.line_size in
  let id = addr / lsize in
  Coherence.access_id t.coherence ~cpu:thread.t_cpu ~id ~off:(addr - (id * lsize))
    ~size ~is_write

(* Fetch the code of the block that op [pc] begins; free (and
   trace-silent) when no I-cache is configured, so data-only runs are
   byte-identical to the pre-I-cache machine. Called on every block entry:
   invocation start, goto, branch, and call — but not on return, which
   resumes mid-block without refetching (the straight-line bytes after the
   call site were already fetched on block entry). *)
let fetch t p thread pc =
  match t.config.icache with
  | None -> 0
  | Some _ ->
    let addr = p.op_addr.(pc) and size = p.op_size.(pc) in
    if t.config.trace then begin
      let cpu = thread.t_cpu in
      t.fetch_rev.(cpu) <-
        { t_cpu = cpu; t_itc = thread.t_clock; t_addr = addr; t_size = size;
          t_is_write = false }
        :: t.fetch_rev.(cpu)
    end;
    Coherence.ifetch_ids t.coherence ~cpu:thread.t_cpu ~first:p.op_ifirst.(pc)
      ~last:p.op_ilast.(pc)

let rec set_args stack ~reg ~inst = function
  | [] -> ()
  | Aint v :: rest ->
    stack.(reg) <- v;
    set_args stack ~reg:(reg + 1) ~inst rest
  | Ainst i :: rest ->
    stack.(inst) <- i.i_base;
    set_args stack ~reg ~inst:(inst + 1) rest

(* Start the thread's next work item, or retire the thread; returns the
   step's cost in cycles. *)
let start t p thread =
  match thread.t_work with
  | [] ->
    thread.t_done <- true;
    0
  | (name, args) :: rest ->
    thread.t_work <- rest;
    let proc = p.procs.(Hashtbl.find t.index name) in
    Array.fill thread.t_stack 0 proc.p_frame 0;
    set_args thread.t_stack ~reg:proc.p_ninsts ~inst:0 args;
    thread.t_base <- 0;
    thread.t_pc <- proc.p_entry;
    call_overhead + fetch t p thread proc.p_entry

(* Execute op [pc] of [thread]; returns its cost in cycles. *)
let exec t p thread pc =
  let stack = thread.t_stack and base = thread.t_base in
  thread.t_pc <- pc + 1;
  match p.ops.(pc) with
  | Assign { dst; value } ->
    stack.(base + dst) <- eval stack base value;
    1
  | Rand { dst; bound; loc } ->
    let b = eval stack base bound in
    if b <= 0 then raise (Runtime_error ("rand bound must be positive", loc));
    stack.(base + dst) <- Prng.int thread.t_prng b;
    1
  | Pause { cycles; loc } ->
    let c = eval stack base cycles in
    if c < 0 then raise (Runtime_error ("negative pause", loc));
    1 + c
  | Load { dst; inst; off; elem; count; index; loc } ->
    let addr = address stack base ~inst ~off ~elem ~count ~index ~loc in
    if t.config.trace then
      t.trace_rev <-
        { t_cpu = thread.t_cpu; t_itc = thread.t_clock; t_addr = addr;
          t_size = elem; t_is_write = false }
        :: t.trace_rev;
    let latency = arena_access t thread addr ~size:elem ~is_write:false in
    stack.(base + dst) <- Flat_tab.find t.memory addr ~default:0;
    load_base + latency
  | Store { inst; off; elem; count; index; src; loc } ->
    let addr = address stack base ~inst ~off ~elem ~count ~index ~loc in
    if t.config.trace then
      t.trace_rev <-
        { t_cpu = thread.t_cpu; t_itc = thread.t_clock; t_addr = addr;
          t_size = elem; t_is_write = true }
        :: t.trace_rev;
    let v = eval stack base src in
    let latency = arena_access t thread addr ~size:elem ~is_write:true in
    Flat_tab.set t.memory addr v;
    store_base + latency
  | Gload { dst; addr; size; id; lo } ->
    let latency =
      Coherence.access_id t.coherence ~cpu:thread.t_cpu ~id ~off:lo ~size
        ~is_write:false
    in
    stack.(base + dst) <- Flat_tab.find t.memory addr ~default:0;
    load_base + latency
  | Gstore { addr; size; id; lo; src } ->
    let v = eval stack base src in
    let latency =
      Coherence.access_id t.coherence ~cpu:thread.t_cpu ~id ~off:lo ~size
        ~is_write:true
    in
    Flat_tab.set t.memory addr v;
    store_base + latency
  | Goto target ->
    thread.t_pc <- target;
    1 + fetch t p thread target
  | Branch { cond; if_true; if_false } ->
    let target = if eval stack base cond <> 0 then if_true else if_false in
    thread.t_pc <- target;
    1 + fetch t p thread target
  | Call { caller; callee; args; insts } ->
    let frame = base + caller.p_frame in
    Array.fill stack frame callee.p_frame 0;
    let regs = frame + callee.p_ninsts in
    for k = 0 to Array.length args - 1 do
      stack.(regs + k) <- eval stack base args.(k)
    done;
    for k = 0 to Array.length insts - 1 do
      stack.(frame + k) <- stack.(base + insts.(k))
    done;
    let d = thread.t_depth in
    thread.t_ret_pc.(d) <- pc + 1;
    thread.t_ret_base.(d) <- base;
    thread.t_depth <- d + 1;
    thread.t_base <- frame;
    thread.t_pc <- callee.p_entry;
    call_overhead + fetch t p thread callee.p_entry
  | Return ->
    let d = thread.t_depth - 1 in
    if d < 0 then thread.t_pc <- -1
    else begin
      thread.t_pc <- thread.t_ret_pc.(d);
      thread.t_base <- thread.t_ret_base.(d);
      thread.t_depth <- d
    end;
    1

(* Record every sample tick a step crossed, attributed to the op [pc] the
   step executed, since the PMU interrupts mid-instruction. *)
let record_samples t p ~cpu ~period ~until pc =
  let s_proc = p.procs.(p.op_proc.(pc)).p_name in
  let s_block = p.op_block.(pc) and s_line = p.op_line.(pc) in
  while t.next_sample.(cpu) <= until do
    t.samples_rev.(cpu) <-
      { s_cpu = cpu; s_itc = t.next_sample.(cpu); s_proc; s_block; s_line }
      :: t.samples_rev.(cpu);
    t.sample_count.(cpu) <- t.sample_count.(cpu) + 1;
    t.next_sample.(cpu) <- t.next_sample.(cpu) + period
  done

(* Every CPU's samples in (itc, CPU) order, from its latest-first list,
   which this empties. Every CPU ticks at period, 2 period, ..., so that
   order is each CPU's j-th sample, in CPU order, for j ascending: built
   back to front, one list cell per sample. *)
let merge_samples rev count =
  let acc = ref [] in
  for j = Array.fold_left max 0 count - 1 downto 0 do
    for cpu = Array.length rev - 1 downto 0 do
      if count.(cpu) > j then
        match rev.(cpu) with
        | s :: rest ->
          acc := s :: !acc;
          rev.(cpu) <- rest
        | [] -> assert false
    done
  done;
  !acc

(* Every CPU's events in (itc, CPU) order, from its latest-first list,
   which this empties; a CPU's events have distinct clocks. Built back to
   front, taking the latest head each time. *)
let merge_events (rev : trace_event list array) =
  let rec go acc =
    let best = ref (-1) and latest = ref min_int in
    for cpu = 0 to Array.length rev - 1 do
      match rev.(cpu) with
      | e :: _ when e.t_itc >= !latest ->
        best := cpu;
        latest := e.t_itc
      | _ :: _ | [] -> ()
    done;
    if !best < 0 then acc
    else
      match rev.(!best) with
      | e :: rest ->
        rev.(!best) <- rest;
        go (e :: acc)
      | [] -> assert false
  in
  go []

(* Source location of op [pc], for errors raised without one. *)
let source_loc t p pc =
  let blk = t.cfgs.(p.op_proc.(pc)).Cfg.blocks.(p.op_block.(pc)) and ip = p.op_ip.(pc) in
  if ip < Array.length blk.Cfg.b_instrs then Cfg.instr_loc blk.Cfg.b_instrs.(ip)
  else
    match blk.Cfg.b_term with
    | Cfg.Tbranch { loc; _ } -> loc
    | Cfg.Tgoto _ | Cfg.Treturn -> Loc.dummy

(* Number the kernel's lines once the layouts and the code layout are
   final, its tables reserved at their exact size in one step: the arena's
   lines first, in order, so that an arena line's id is its line number;
   then the globals' lines; then the code segment's I-cache lines, in
   order, so that a block's lines have consecutive ids. *)
let intern_lines t =
  let coh = t.coherence and lsize = t.config.line_size in
  (* The first line and the line count of [size] bytes at [base]. *)
  let span base size unit =
    if size <= 0 then (0, 0) else (base / unit, ((base + size - 1) / unit) - (base / unit) + 1)
  in
  let _, arena = span 0 t.arena_next lsize in
  let gfirst, globals =
    match Hashtbl.find_opt t.layouts Ast.globals_struct_name with
    | Some l -> span globals_base l.Layout.size lsize
    | None -> (0, 0)
  in
  let cfirst, code =
    match t.config.icache with
    | Some ic ->
      let bytes = Hashtbl.fold (fun _ a n -> Array.fold_left (fun n (_, s) -> n + s) n a) t.code 0 in
      span code_base bytes ic.Coherence.i_line_size
    | None -> (0, 0)
  in
  Coherence.reserve coh ~lines:(arena + globals) ~code_lines:code;
  let number intern first count id0 =
    for k = 0 to count - 1 do
      if intern coh ~line:(first + k) <> id0 + k then
        invalid_arg "Machine.run: the coherence kernel was used before the run"
    done
  in
  number Coherence.intern 0 arena 0;
  number Coherence.intern gfirst globals arena;
  number Coherence.intern_code cfirst code 0

(* The step loop's counters, and the op the current step executes: the
   location a sample tick crossed by the step records, and a division by
   zero reports. It is -1 while a step starts an invocation or retires a
   thread. *)
type loop = { mutable steps : int; mutable pops : int; mutable pc : int }

(* Execute the thread's next step: its next op, or at pc -1 the start of
   its next invocation or its retirement. Advance its clock by the step's
   cost and record every sample tick the step crossed. *)
let[@inline] step t p ~period lp thread =
  let pc = thread.t_pc in
  lp.pc <- pc;
  let cost =
    if pc >= 0 then begin
      let c = exec t p thread pc in
      lp.steps <- lp.steps + 1;
      c
    end
    else start t p thread
  in
  let clock = thread.t_clock + cost in
  thread.t_clock <- clock;
  let cpu = thread.t_cpu in
  if pc >= 0 && t.next_sample.(cpu) <= clock then
    record_samples t p ~cpu ~period ~until:clock pc

(* A local step reads and writes only its thread's frame and PRNG, its
   CPU's private I-cache and its CPU's statistics: every op but a load or
   a store, and the start of an invocation. *)
let[@inline] local p pc =
  pc < 0
  ||
  match p.ops.(pc) with
  | Load _ | Store _ | Gload _ | Gstore _ -> false
  | Assign _ | Rand _ | Pause _ | Call _ | Goto _ | Branch _ | Return -> true

let rec ahead t p ~period lp thread =
  if (not thread.t_done) && local p thread.t_pc then begin
    step t p ~period lp thread;
    ahead t p ~period lp thread
  end

(* Run the thread on through its local steps, ahead of their turn: they
   commute with every other thread's steps. A fault there is held back:
   the op stays next, so the thread is queued at its clock and the fault
   is raised at its turn. *)
let run_ahead t p ~period lp thread =
  try ahead t p ~period lp thread
  with Zero_divisor | Runtime_error _ -> thread.t_pc <- lp.pc

let simulate ~stepwise t =
  if t.ran then invalid_arg "Machine.run: machine already ran";
  t.ran <- true;
  t.frozen <- true;
  let threads = List.filter_map Fun.id (Array.to_list t.threads) in
  let invocations =
    List.fold_left (fun acc th -> acc + List.length th.t_work) 0 threads
  in
  intern_lines t;
  let p = compile t in
  List.iter
    (fun th ->
      th.t_stack <- Array.make p.stack_words 0;
      th.t_ret_pc <- Array.make p.depth 0;
      th.t_ret_base <- Array.make p.depth 0)
    threads;
  (* Calendar ids index [queued], in CPU order, so the calendar's
     (clock, id) order is (clock, CPU) order. *)
  let queued = Array.of_list (List.filter (fun th -> not th.t_done) threads) in
  let cal = Calendar.create ~ids:(Array.length queued) in
  let period = Option.value t.config.sample_period ~default:0 in
  let lp = { steps = 0; pops = 0; pc = -1 } in
  (* The picked thread takes its step at its turn, then runs ahead; it is
     queued again at the clock of its next memory op, or retired. *)
  (try
     let id = ref (Calendar.top cal) in
     while !id >= 0 do
       lp.pops <- lp.pops + 1;
       let thread = queued.(!id) in
       step t p ~period lp thread;
       if not stepwise then run_ahead t p ~period lp thread;
       if thread.t_done then Calendar.retire cal
       else Calendar.requeue cal ~clock:thread.t_clock;
       id := Calendar.top cal
     done
   with Zero_divisor -> raise (Runtime_error ("division by zero", source_loc t p lp.pc)));
  let n = Topology.num_cpus t.config.topology in
  let cpu_cycles = Array.make n 0 in
  let cpu_invocations = Array.make n 0 in
  List.iter
    (fun th ->
      cpu_cycles.(th.t_cpu) <- th.t_clock;
      cpu_invocations.(th.t_cpu) <- th.t_total_items)
    threads;
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
  Obs.incr ~by:lp.steps "sim.steps";
  Obs.incr ~by:lp.pops "sim.pops";
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
  Obs.incr ~by:(Array.fold_left ( + ) 0 t.sample_count) "sim.samples";
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
    samples = merge_samples t.samples_rev t.sample_count;
    trace = List.rev t.trace_rev;
    fetch_trace = merge_events t.fetch_rev;
  }

let run t = simulate ~stepwise:false t
let run_stepwise t = simulate ~stepwise:true t

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
