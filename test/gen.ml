(* Shared QCheck generators for property-based tests. *)

module Ast = Slo_ir.Ast
module Field = Slo_layout.Field

let prim : Ast.prim QCheck2.Gen.t =
  QCheck2.Gen.oneofl [ Ast.Char; Ast.Short; Ast.Int; Ast.Long; Ast.Double; Ast.Ptr ]

let field_name i = Printf.sprintf "f%d" i

(* A list of 1..24 distinct fields with random primitive types and
   occasional small arrays. *)
let fields : Field.t list QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* n = int_range 1 24 in
  let* prims = list_size (return n) prim in
  let* counts =
    list_size (return n) (frequency [ (6, return 1); (1, int_range 2 8) ])
  in
  return
    (List.mapi
       (fun i (p, c) -> Field.make ~name:(field_name i) ~prim:p ~count:c ())
       (List.combine prims counts))

(* Random weighted undirected graph over the nodes of a field list. *)
let edges_over names : (string * string * float) list QCheck2.Gen.t =
  let open QCheck2.Gen in
  match names with
  | [] | [ _ ] -> return []
  | _ ->
    let arr = Array.of_list names in
    let edge =
      let* i = int_range 0 (Array.length arr - 1) in
      let* j = int_range 0 (Array.length arr - 1) in
      let* w = float_range (-100.0) 100.0 in
      return (arr.(i), arr.(j), w)
    in
    let* n = int_range 0 (3 * Array.length arr) in
    let* all = list_size (return n) edge in
    return (List.filter (fun (u, v, _) -> u <> v) all)

(* Hotness assignment for a field list. *)
let hotness_for names : (string * int) list QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* hs = list_size (return (List.length names)) (int_range 0 1000) in
  return (List.combine names hs)

(* A random well-formed minic program over one struct: a handful of
   procedures made of loops, conditionals, field reads/writes and pauses.
   Used for parser round-trips and interpreter/profile properties. *)
let minic_program ?(max_fields = 8) ?(max_procs = 3) () : string QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* nfields = int_range 1 max_fields in
  let fields = List.init nfields (fun i -> Printf.sprintf "g%d" i) in
  let field = oneofl fields in
  let rec stmt depth =
    let assign_field =
      let* f = field in
      let* g = field in
      return (Printf.sprintf "s->%s = s->%s + 1;" f g)
    in
    let assign_var =
      let* f = field in
      let* g = field in
      return (Printf.sprintf "x = s->%s + s->%s;" f g)
    in
    let pause =
      let* p = int_range 0 20 in
      return (Printf.sprintf "pause(%d);" p)
    in
    let base = [ (3, assign_field); (3, assign_var); (2, pause) ] in
    if depth = 0 then frequency base
    else
      let loop =
        let* trips = int_range 0 4 in
        let* body = block (depth - 1) in
        return (Printf.sprintf "for (i%d = 0; i%d < %d; i%d++) {\n%s}" depth depth trips depth body)
      in
      let cond =
        let* f = field in
        let* then_ = block (depth - 1) in
        let* else_ = block (depth - 1) in
        return
          (Printf.sprintf "if (s->%s %% 2 == 0) {\n%s} else {\n%s}" f then_ else_)
      in
      frequency ((2, loop) :: (1, cond) :: base)
  and block depth =
    let* n = int_range 1 3 in
    let* stmts = list_size (return n) (stmt depth) in
    return (String.concat "\n" stmts ^ "\n")
  in
  let* nprocs = int_range 1 max_procs in
  let* bodies = list_size (return nprocs) (block 2) in
  let decls =
    String.concat ""
      (List.map (fun f -> Printf.sprintf "  long %s;\n" f) fields)
  in
  let procs =
    List.mapi
      (fun i body -> Printf.sprintf "void p%d(struct G *s, int n) {\n%s}\n" i body)
      bodies
  in
  return (Printf.sprintf "struct G {\n%s};\n%s" decls (String.concat "\n" procs))

(* A random minic program for the simulator's step loop that reaches every
   op kind: [top(s, t, n, m)] loops [n] times over statements that call
   [mid] and [leaf], and [mid] calls [leaf], with int and struct
   arguments; [rand]; [pause] of a register expression; the globals [g0]
   and [g1]; array fields at computed indices; and branches on registers.
   Each procedure first assigns its registers [x], [y] and [z]; loop
   counters are never assigned and calls never recurse, so every run
   ends. About one statement in [fault_odds] may fault, depending on the
   data: a division by zero in an assignment, a branch or a call argument,
   a [rand] bound <= 0, a negative pause, or an index out of range; about
   a quarter of the programs then fault when run. *)
let machine_program : string QCheck2.Gen.t =
  let open QCheck2.Gen in
  let fault_odds = 8 in
  let regs = [ "x"; "y"; "z" ] in
  let rec expr vars depth =
    let atom = oneof [ map string_of_int (int_range 0 9); oneofl vars ] in
    if depth = 0 then atom
    else
      frequency
        [
          (2, atom);
          ( 3,
            let* op = oneofl [ "+"; "-"; "*" ] in
            let* l = expr vars (depth - 1) in
            let* r = expr vars (depth - 1) in
            return (Printf.sprintf "(%s %s %s)" l op r) );
          ( 1,
            let* l = expr vars (depth - 1) in
            let* c = int_range 1 7 in
            return (Printf.sprintf "(%s %% %d)" l c) );
        ]
  in
  (* [n] is the field's element count. *)
  let index vars n = map (fun e -> Printf.sprintf "(%s %% %d + %d) %% %d" e n n n) (expr vars 1) in
  let reg = oneofl regs in
  (* Statements of a procedure whose int variables are [vars], with the
     [T] pointer [t] if it has one and the call statements [calls]. *)
  let rec stmt ~vars ~t ~calls depth =
    let e = expr vars 2 in
    let sp fmt = Printf.sprintf fmt in
    let fault =
      oneof
        ([
           (let* r = reg and* a = e and* b = e in
            return (sp "%s = %s / (%s %% 3);" r a b));
           (let* a = e and* b = e and* body = block ~vars ~t ~calls 0 in
            return (sp "if (%s / (%s %% 2) > 0) {\n%s}" a b body));
           (let* r = reg and* a = e in
            return (sp "%s = rand(%s %% 3);" r a));
           (let* a = e in
            return (sp "pause(%s %% 3 - 1);" a));
           (let* r = reg and* a = e in
            return (sp "%s = s->arr[%s %% 6];" r a));
           (let* a = e and* b = e in
            return (sp "s->arr[%s %% 6] = %s;" a b));
         ]
        @ List.map (fun call -> call ~div:true) calls)
    in
    let base =
      [
        (3, let* r = reg and* a = e in return (sp "%s = %s;" r a));
        ( 1,
          let* r = reg and* a = e in
          return (sp "%s = rand((%s %% 4 + 4) %% 4 + 1);" r a) );
        (1, let* a = e in return (sp "pause((%s %% 5 + 5) %% 5);" a));
        ( 2,
          let* r = reg and* a = e and* i = index vars 4 in
          oneofl [ sp "%s = s->a + %s;" r a; sp "%s = s->arr[%s];" r i ] );
        ( 2,
          let* a = e and* i = index vars 4 in
          oneofl [ sp "s->b = %s;" a; sp "s->arr[%s] = s->arr[%s] + %s;" i i a ] );
        ( 1,
          let* r = reg and* a = e in
          oneofl [ sp "g0 = g0 + %s;" a; sp "%s = g1 + %s;" r a; sp "g1 = %s;" a ] );
      ]
      @ (match t with
        | None -> []
        | Some t ->
          [
            ( 2,
              let* r = reg and* a = e and* i = index vars 3 in
              oneofl
                [ sp "%s = %s->d[%s] + %s->c;" r t i t; sp "%s->c = %s->c + %s;" t t a;
                  sp "%s->d[%s] = %s;" t i a ] );
          ])
      @ List.map (fun call -> (2, call ~div:false)) calls
    in
    let plain =
      if depth = 0 then base
      else
        let j = sp "j%d" depth in
        ( 2,
          let* trips = int_range 1 3 and* body = block ~vars ~t ~calls (depth - 1) in
          return (sp "for (%s = 0; %s < %d; %s++) {\n%s}" j j trips j body) )
        :: ( 2,
             let* a = reg and* b = oneofl vars and* c = int_range 2 3 in
             let* then_ = block ~vars ~t ~calls (depth - 1) in
             let* else_ = block ~vars ~t ~calls (depth - 1) in
             oneofl
               [ sp "if (%s > %s) {\n%s} else {\n%s}" a b then_ else_;
                 sp "if (%s %% %d == 0) {\n%s}" a c then_ ] )
        :: base
    in
    frequency [ (fault_odds - 1, frequency plain); (1, fault) ]
  and block ~vars ~t ~calls depth =
    let* n = int_range 1 3 in
    let* stmts = list_repeat n (stmt ~vars ~t ~calls depth) in
    return (String.concat "\n" stmts ^ "\n")
  in
  (* A call whose int arguments are expressions over [vars]; with [~div]
     the first divides by a value that may be zero. *)
  let call vars fmt ~div =
    let e = expr vars 2 in
    let* a = e and* b = e in
    let a = if div then Printf.sprintf "%s / (%s %% 3)" a b else a in
    return (fmt a b)
  in
  let leaf_vars = regs @ [ "k"; "m" ] and mid_vars = regs @ [ "k" ] in
  let top_vars = regs @ [ "n"; "m"; "i" ] in
  let* leaf = block ~vars:leaf_vars ~t:None ~calls:[] 2 in
  let* mid =
    block ~vars:mid_vars ~t:(Some "t")
      ~calls:[ call mid_vars (Printf.sprintf "leaf(s, %s, %s);") ]
      2
  in
  let* top =
    block ~vars:top_vars ~t:(Some "t")
      ~calls:
        [ call top_vars (fun a _ -> Printf.sprintf "mid(s, t, %s);" a);
          call top_vars (Printf.sprintf "leaf(s, %s, %s);") ]
      1
  in
  return
    (Printf.sprintf
       "struct S { long a; long b; long arr[4]; };\n\
        struct T { long c; long d[3]; };\n\
        long g0;\n\
        long g1;\n\
        void leaf(struct S *s, int k, int m) {\n\
        x = k + 1;\ny = m;\nz = 3;\n%s}\n\
        void mid(struct S *s, struct T *t, int k) {\n\
        x = k;\ny = 2;\nz = 5;\n%s}\n\
        void top(struct S *s, struct T *t, int n, int m) {\n\
        x = m;\ny = n;\nz = 7;\n\
        for (i = 0; i < n; i++) {\n%s}\n}\n"
       leaf mid top)
