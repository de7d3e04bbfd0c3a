module Ast = Slo_ir.Ast
module Cfg = Slo_ir.Cfg
module Eval = Slo_ir.Eval
module Loc = Slo_ir.Loc
module Prng = Slo_util.Prng

type instance = {
  inst_struct : string;
  values : (string, int array) Hashtbl.t;
}

let make_instance program ~struct_name =
  match Ast.find_struct program struct_name with
  | None -> invalid_arg (Printf.sprintf "Interp.make_instance: unknown struct %S" struct_name)
  | Some sd ->
    let values = Hashtbl.create (List.length sd.Ast.sd_fields) in
    List.iter
      (fun (fd : Ast.field_decl) ->
        Hashtbl.replace values fd.Ast.fd_name (Array.make fd.Ast.fd_count 0))
      sd.Ast.sd_fields;
    { inst_struct = struct_name; values }

let instance_struct i = i.inst_struct

let slot_of i ~field ~index =
  match Hashtbl.find_opt i.values field with
  | None ->
    invalid_arg
      (Printf.sprintf "Interp: struct %S has no field %S" i.inst_struct field)
  | Some arr ->
    if index < 0 || index >= Array.length arr then
      invalid_arg
        (Printf.sprintf "Interp: index %d out of range for %s.%s[%d]" index
           i.inst_struct field (Array.length arr))
    else (arr, index)

let get_field i ~field ?(index = 0) () =
  let arr, idx = slot_of i ~field ~index in
  arr.(idx)

let set_field i ~field ?(index = 0) v =
  let arr, idx = slot_of i ~field ~index in
  arr.(idx) <- v

type arg = Aint of int | Ainst of instance

type ctx = {
  program : Ast.program;
  cfgs : (string, Cfg.t) Hashtbl.t;
  global_values : (string, int) Hashtbl.t;
}

let make_ctx program =
  let cfgs = Hashtbl.create 16 in
  List.iter (fun (name, cfg) -> Hashtbl.replace cfgs name cfg) (Cfg.of_program program);
  let global_values = Hashtbl.create 8 in
  List.iter
    (fun (fd : Ast.field_decl) -> Hashtbl.replace global_values fd.Ast.fd_name 0)
    program.Ast.globals;
  { program; cfgs; global_values }

let get_global ctx ~name =
  match Hashtbl.find_opt ctx.global_values name with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Interp.get_global: unknown global %S" name)

let set_global ctx ~name v =
  if not (Hashtbl.mem ctx.global_values name) then
    invalid_arg (Printf.sprintf "Interp.set_global: unknown global %S" name);
  Hashtbl.replace ctx.global_values name v

let ctx_cfg ctx ~proc =
  match Hashtbl.find_opt ctx.cfgs proc with
  | Some cfg -> cfg
  | None -> invalid_arg (Printf.sprintf "Interp: unknown procedure %S" proc)

exception Runtime_error of string * Loc.t

type frame = {
  vars : (string, int) Hashtbl.t;
  insts : (string, instance) Hashtbl.t;
}

let lookup frame v = try Hashtbl.find frame.vars v with Not_found -> 0

let instance_of frame name loc =
  match Hashtbl.find_opt frame.insts name with
  | Some i -> i
  | None ->
    raise (Runtime_error (Printf.sprintf "unbound struct pointer %S" name, loc))

let eval_index frame ~loc = function
  | None -> 0
  | Some e -> (
    match Eval.pexpr ~lookup:(lookup frame) e with
    | v -> v
    | exception Eval.Division_by_zero_at _ ->
      raise (Runtime_error ("division by zero in index", loc)))

let eval frame ~loc e =
  match Eval.pexpr ~lookup:(lookup frame) e with
  | v -> v
  | exception Eval.Division_by_zero_at _ ->
    raise (Runtime_error ("division by zero", loc))

let rec exec_proc ctx counts prng ~proc (args : arg list) =
  let cfg = ctx_cfg ctx ~proc in
  let params = cfg.Cfg.params in
  if List.length params <> List.length args then
    invalid_arg
      (Printf.sprintf "Interp.run: procedure %S expects %d args, got %d" proc
         (List.length params) (List.length args));
  let frame = { vars = Hashtbl.create 16; insts = Hashtbl.create 4 } in
  List.iter2
    (fun param arg ->
      match (param, arg) with
      | Ast.Pint { name; _ }, Aint v -> Hashtbl.replace frame.vars name v
      | Ast.Pstruct { name; struct_name; loc }, Ainst i ->
        if not (String.equal i.inst_struct struct_name) then
          raise
            (Runtime_error
               ( Printf.sprintf "argument for %S is a %S, expected %S" name
                   i.inst_struct struct_name,
                 loc ));
        Hashtbl.replace frame.insts name i
      | Ast.Pint { name; loc }, Ainst _ ->
        raise (Runtime_error (Printf.sprintf "parameter %S expects an integer" name, loc))
      | Ast.Pstruct { name; loc; _ }, Aint _ ->
        raise
          (Runtime_error (Printf.sprintf "parameter %S expects a struct pointer" name, loc)))
    params args;
  let record_block id =
    match counts with
    | Some c -> Counts.bump_block c ~proc ~block:id
    | None -> ()
  in
  let record_edge src dst =
    match counts with
    | Some c -> Counts.bump_edge c ~proc ~src ~dst
    | None -> ()
  in
  let record_field block struct_name field is_write =
    match counts with
    | Some c -> Counts.bump_field c ~proc ~block ~struct_name ~field ~is_write
    | None -> ()
  in
  let rec run_block id =
    let blk = Cfg.block cfg id in
    record_block id;
    Array.iter
      (fun (instr : Cfg.instr) ->
        match instr with
        | Cfg.Iload { dst; inst; struct_name; field; index; loc } ->
          let i = instance_of frame inst loc in
          let idx = eval_index frame ~loc index in
          let v =
            try get_field i ~field ~index:idx ()
            with Invalid_argument msg -> raise (Runtime_error (msg, loc))
          in
          Hashtbl.replace frame.vars dst v;
          record_field id struct_name field false
        | Cfg.Istore { inst; struct_name; field; index; src; loc } ->
          let i = instance_of frame inst loc in
          let idx = eval_index frame ~loc index in
          let v = eval frame ~loc src in
          (try set_field i ~field ~index:idx v
           with Invalid_argument msg -> raise (Runtime_error (msg, loc)));
          record_field id struct_name field true
        | Cfg.Igload { dst; name; loc } ->
          ignore loc;
          Hashtbl.replace frame.vars dst (get_global ctx ~name);
          record_field id Ast.globals_struct_name name false
        | Cfg.Igstore { name; src; loc } ->
          set_global ctx ~name (eval frame ~loc src);
          record_field id Ast.globals_struct_name name true
        | Cfg.Iassign { dst; value; loc } ->
          Hashtbl.replace frame.vars dst (eval frame ~loc value)
        | Cfg.Irand { dst; bound; loc } ->
          let b = eval frame ~loc bound in
          if b <= 0 then
            raise (Runtime_error ("rand bound must be positive", loc));
          Hashtbl.replace frame.vars dst (Prng.int prng b)
        | Cfg.Ipause _ -> ()
        | Cfg.Icall { proc = callee; args; loc } ->
          let args =
            List.map
              (function
                | Cfg.Cexpr e -> Aint (eval frame ~loc e)
                | Cfg.Cinst name -> Ainst (instance_of frame name loc))
              args
          in
          exec_proc ctx counts prng ~proc:callee args)
      blk.Cfg.b_instrs;
    match blk.Cfg.b_term with
    | Cfg.Treturn -> ()
    | Cfg.Tgoto next ->
      record_edge id next;
      run_block next
    | Cfg.Tbranch { cond; if_true; if_false; loc } ->
      let next = if Eval.truthy (eval frame ~loc cond) then if_true else if_false in
      record_edge id next;
      run_block next
  in
  run_block cfg.Cfg.entry

let run ctx ?counts ~prng ~proc args = exec_proc ctx counts prng ~proc args
