(* Tests for Slo_ir: lexer, parser, typechecker, CFG lowering, eval. *)

module Lexer = Slo_ir.Lexer
module Parser = Slo_ir.Parser
module Ast = Slo_ir.Ast
module Typecheck = Slo_ir.Typecheck
module Cfg = Slo_ir.Cfg
module Pretty = Slo_ir.Pretty
module Eval = Slo_ir.Eval
module Loc = Slo_ir.Loc

let check_int = Alcotest.(check int)

let parse src = Parser.parse_program ~file:"t.mc" src
let parse_tc src = Typecheck.check (parse src)

let small_struct = "struct S { long a; long b; int c; char buf[16]; };\n"

(* ------------------------------------------------------------------ *)
(* Lexer *)

let test_lexer_tokens () =
  let toks = Lexer.tokenize ~file:"t" "for (i = 0; i < 10; i++) { }" in
  check_int "token count (incl EOF)" 16 (List.length toks);
  match toks with
  | (Lexer.KW_FOR, loc) :: (Lexer.LPAREN, _) :: (Lexer.IDENT "i", _) :: _ ->
    check_int "line" 1 (Loc.line loc)
  | _ -> Alcotest.fail "unexpected token stream"

let test_lexer_comments () =
  let toks =
    Lexer.tokenize ~file:"t" "// line comment\nx /* block\n comment */ = 1;"
  in
  let kinds = List.map fst toks in
  Alcotest.(check bool) "comments skipped" true
    (kinds = [ Lexer.IDENT "x"; Lexer.ASSIGN; Lexer.INT 1; Lexer.SEMI; Lexer.EOF ])

let test_lexer_line_tracking () =
  let toks = Lexer.tokenize ~file:"t" "a\nb\n  c" in
  let lines = List.map (fun (_, l) -> Loc.line l) toks in
  Alcotest.(check (list int)) "lines" [ 1; 2; 3; 3 ] lines

let test_lexer_two_char_ops () =
  let toks = Lexer.tokenize ~file:"t" "<= >= == != && || ++ -> < >" in
  let kinds = List.map fst toks in
  Alcotest.(check bool) "operators" true
    (kinds
    = [ Lexer.LE; Lexer.GE; Lexer.EQ; Lexer.NE; Lexer.ANDAND; Lexer.OROR;
        Lexer.PLUSPLUS; Lexer.ARROW; Lexer.LT; Lexer.GT; Lexer.EOF ])

let test_lexer_errors () =
  let expect_error src =
    match Lexer.tokenize ~file:"t" src with
    | exception Lexer.Error _ -> ()
    | _ -> Alcotest.fail ("lexed invalid input: " ^ src)
  in
  expect_error "@";
  expect_error "a & b";
  expect_error "/* unterminated"

(* A literal above max_int is a located lexer error, not an escaped
   [Failure "int_of_string"]; max_int itself still lexes. *)
let test_lexer_int_range () =
  let at_literal src = snd (List.nth (Lexer.tokenize ~file:"t" src) 4) in
  (match Lexer.tokenize ~file:"t" "a->x = 99999999999999999999;" with
  | exception Lexer.Error (msg, loc) ->
    Alcotest.(check string) "message" "integer literal out of range" msg;
    Alcotest.(check bool) "at the literal" true (loc = at_literal "a->x = 1;")
  | _ -> Alcotest.fail "out-of-range literal accepted");
  (match
     parse
       "struct S { long x; };\nvoid f(struct S *a) {\n  a->x = 99999999999999999999;\n}\n"
   with
  | exception Lexer.Error (_, loc) -> check_int "line" 3 (Loc.line loc)
  | _ -> Alcotest.fail "parser accepted an out-of-range literal");
  match Lexer.tokenize ~file:"t" (string_of_int max_int) with
  | (Lexer.INT n, _) :: _ -> check_int "max_int" max_int n
  | _ -> Alcotest.fail "max_int did not lex"

(* ------------------------------------------------------------------ *)
(* Parser *)

let test_parse_struct () =
  let p = parse small_struct in
  check_int "one struct" 1 (List.length p.Ast.structs);
  let sd = List.hd p.Ast.structs in
  check_int "four fields" 4 (List.length sd.Ast.sd_fields);
  let buf = Option.get (Ast.find_field sd "buf") in
  check_int "array size" 16 buf.Ast.fd_count;
  check_int "field size" 16 (Ast.field_size buf);
  check_int "char align" 1 (Ast.field_align buf)

let test_parse_precedence () =
  let e = Parser.parse_expr "1 + 2 * 3" in
  Alcotest.(check string) "mul binds tighter" "1 + 2 * 3" (Pretty.expr_to_string e);
  (match e with
  | Ast.Binop (Ast.Add, Ast.Int_lit (1, _), Ast.Binop (Ast.Mul, _, _, _), _) -> ()
  | _ -> Alcotest.fail "wrong tree for 1 + 2 * 3");
  match Parser.parse_expr "(1 + 2) * 3" with
  | Ast.Binop (Ast.Mul, Ast.Binop (Ast.Add, _, _, _), Ast.Int_lit (3, _), _) -> ()
  | _ -> Alcotest.fail "parens ignored"

let test_parse_logic_precedence () =
  match Parser.parse_expr "1 < 2 && 3 < 4 || x == 1" with
  | Ast.Binop (Ast.Or, Ast.Binop (Ast.And, _, _, _), Ast.Binop (Ast.Eq, _, _, _), _)
    -> ()
  | _ -> Alcotest.fail "wrong &&/|| precedence"

let test_parse_for_shape () =
  let src =
    small_struct
    ^ "void f(struct S *s, int n) { for (i = 0; i < n; i++) { s->a = i; } }"
  in
  let p = parse_tc src in
  check_int "one proc" 1 (List.length p.Ast.procs)

let test_parse_for_malformed () =
  let expect_error src =
    match parse (small_struct ^ src) with
    | exception Parser.Error _ -> ()
    | _ -> Alcotest.fail ("parsed invalid: " ^ src)
  in
  expect_error "void f(struct S *s) { for (i = 1; i < 5; i++) { } }";
  expect_error "void f(struct S *s) { for (i = 0; j < 5; i++) { } }";
  expect_error "void f(struct S *s) { for (i = 0; i < 5; j++) { } }"

let test_parse_errors () =
  let expect_error src =
    match parse src with
    | exception Parser.Error _ -> ()
    | _ -> Alcotest.fail ("parsed invalid: " ^ src)
  in
  expect_error "struct S { };";
  expect_error "struct S { long a }";
  expect_error "void f() { x = ; }";
  expect_error "int f() { }";
  expect_error "void f(struct S s) { }"

let test_parse_roundtrip_kernel () =
  (* print (parse kernel) must reparse to an equal program (up to locs). *)
  let p1 = parse_tc Slo_workload.Kernel.source in
  let printed = Pretty.program_to_string p1 in
  let p2 = Typecheck.check (parse printed) in
  Alcotest.(check string) "round trip is a fixpoint" printed
    (Pretty.program_to_string p2)

(* ------------------------------------------------------------------ *)
(* Typechecker *)

let expect_tc_error src =
  match parse_tc src with
  | exception Typecheck.Error _ -> ()
  | _ -> Alcotest.fail ("typechecked invalid program:\n" ^ src)

let test_tc_rejects () =
  expect_tc_error "struct S { long a; } ; struct S { long b; };";
  expect_tc_error "struct S { long a; long a; };";
  expect_tc_error (small_struct ^ "void f(struct T *t) { }");
  expect_tc_error (small_struct ^ "void f(struct S *s) { s->zz = 1; }");
  expect_tc_error (small_struct ^ "void f(struct S *s) { x = y + 1; }");
  expect_tc_error (small_struct ^ "void f(struct S *s) { s->a[0] = 1; }");
  expect_tc_error (small_struct ^ "void f(struct S *s) { s->buf = 1; }");
  expect_tc_error (small_struct ^ "void f(struct S *s) { x = s + 1; }");
  expect_tc_error (small_struct ^ "void f(struct S *s) { g(s); }");
  expect_tc_error
    (small_struct ^ "void f(struct S *s) { g(); } void g() { f(); }");
  expect_tc_error (small_struct ^ "void f(struct S *s) { f(s); }");
  expect_tc_error
    (small_struct ^ "void g(int n) { } void f(struct S *s) { g(s); }")

let test_tc_accepts () =
  let src =
    small_struct
    ^ "void g(struct S *s, int k) { s->a = k; }\n\
       void f(struct S *s, int n) {\n\
      \  for (i = 0; i < n; i++) {\n\
      \    s->buf[i % 16] = i;\n\
      \    g(s, i);\n\
      \  }\n\
       }"
  in
  let p = parse_tc src in
  check_int "two procs" 2 (List.length p.Ast.procs)

let test_tc_int_arg_resolution () =
  (* A bare identifier argument that is an integer must be rewritten from
     Arg_inst to Arg_expr. *)
  let src =
    small_struct
    ^ "void g(int k) { x = k; } void f(struct S *s, int n) { g(n); }"
  in
  let p = parse_tc src in
  let f = Option.get (Ast.find_proc p "f") in
  match f.Ast.pd_body with
  | [ Ast.Call { args = [ Ast.Arg_expr (Ast.Var ("n", _)) ]; _ } ] -> ()
  | _ -> Alcotest.fail "int argument not resolved to Arg_expr"

(* ------------------------------------------------------------------ *)
(* CFG *)

let cfg_of src proc =
  let p = parse_tc src in
  List.assoc proc (Cfg.of_program p)

let test_cfg_straight_line () =
  let cfg = cfg_of (small_struct ^ "void f(struct S *s) { s->a = 1; x = s->b; }") "f" in
  check_int "single block" 1 (Cfg.num_blocks cfg);
  let accs = Cfg.accesses cfg in
  check_int "two accesses" 2 (List.length accs);
  let writes = List.filter (fun a -> a.Cfg.a_is_write) accs in
  check_int "one write" 1 (List.length writes);
  Alcotest.(check string) "write field" "a" (List.hd writes).Cfg.a_field

let test_cfg_if_shape () =
  let cfg =
    cfg_of
      (small_struct
     ^ "void f(struct S *s, int n) { if (n > 0) { s->a = 1; } else { s->b = 2; } x = 3; }")
      "f"
  in
  (* entry, then, else, join *)
  check_int "four blocks" 4 (Cfg.num_blocks cfg);
  let entry = Cfg.block cfg cfg.Cfg.entry in
  match entry.Cfg.b_term with
  | Cfg.Tbranch { if_true; if_false; _ } ->
    Alcotest.(check bool) "distinct targets" true (if_true <> if_false)
  | _ -> Alcotest.fail "entry must branch"

let test_cfg_loop_structure () =
  let cfg =
    cfg_of
      (small_struct
     ^ "void f(struct S *s, int n) { for (i = 0; i < n; i++) { s->a = i; } }")
      "f"
  in
  check_int "one loop" 1 (Array.length cfg.Cfg.loops);
  let loop = cfg.Cfg.loops.(0) in
  check_int "depth 1" 1 loop.Cfg.l_depth;
  Alcotest.(check (option int)) "no parent" None loop.Cfg.l_parent;
  (* the store to a sits in a block whose innermost loop is loop 0 *)
  let acc = List.hd (Cfg.accesses cfg) in
  check_int "access inside loop" 1 (Cfg.loop_depth cfg acc.Cfg.a_block)

let test_cfg_nested_loops () =
  let cfg =
    cfg_of
      (small_struct
     ^ "void f(struct S *s, int n) {\n\
        for (i = 0; i < n; i++) {\n\
        for (j = 0; j < n; j++) {\n\
        s->a = i + j;\n\
        }\n\
        }\n\
        }")
      "f"
  in
  check_int "two loops" 2 (Array.length cfg.Cfg.loops);
  let inner =
    Array.to_list cfg.Cfg.loops |> List.find (fun l -> l.Cfg.l_depth = 2)
  in
  Alcotest.(check (option int)) "inner parent is outer" (Some 0) inner.Cfg.l_parent;
  let acc = List.hd (Cfg.accesses cfg) in
  check_int "access at depth 2" 2 (Cfg.loop_depth cfg acc.Cfg.a_block)

let test_cfg_successors_wellformed () =
  let cfg =
    cfg_of
      (small_struct
     ^ "void f(struct S *s, int n) {\n\
        for (i = 0; i < n; i++) {\n\
        if (i % 2 == 0) { s->a = i; }\n\
        }\n\
        }")
      "f"
  in
  Array.iter
    (fun blk ->
      List.iter
        (fun succ ->
          Alcotest.(check bool) "successor in range" true
            (succ >= 0 && succ < Cfg.num_blocks cfg))
        (Cfg.successors blk))
    cfg.Cfg.blocks

(* ------------------------------------------------------------------ *)
(* Eval *)

let compile_expr src =
  (* Build a pexpr by parsing and lowering a one-statement procedure. *)
  let p =
    parse_tc
      (Printf.sprintf
         "struct S { long a; }; void f(struct S *s, int x, int y) { z = %s; }"
         src)
  in
  let cfg = List.assoc "f" (Cfg.of_program p) in
  let blk = Cfg.block cfg cfg.Cfg.entry in
  match blk.Cfg.b_instrs.(0) with
  | Cfg.Iassign { value; _ } -> value
  | _ -> Alcotest.fail "expected assignment"

let test_eval_ops () =
  let lookup = function "x" -> 10 | "y" -> 3 | _ -> 0 in
  let e s = Eval.pexpr ~lookup (compile_expr s) in
  check_int "add" 13 (e "x + y");
  check_int "div" 3 (e "x / y");
  check_int "mod" 1 (e "x % y");
  check_int "cmp true" 1 (e "x > y");
  check_int "cmp false" 0 (e "x < y");
  check_int "and" 1 (e "x && y");
  check_int "or" 1 (e "0 || y");
  check_int "not-eq" 1 (e "x != y")

let test_eval_div_by_zero () =
  let lookup _ = 0 in
  match Eval.pexpr ~lookup (compile_expr "x / y") with
  | exception Eval.Division_by_zero_at _ -> ()
  | _ -> Alcotest.fail "division by zero not raised"

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_roundtrip =
  QCheck2.Test.make ~name:"print . parse is a fixpoint on random programs"
    ~count:60
    (Gen.minic_program ())
    (fun src ->
      match parse_tc src with
      | exception _ -> QCheck2.assume_fail ()
      | p1 ->
        let printed = Pretty.program_to_string p1 in
        let p2 = Typecheck.check (parse printed) in
        Pretty.program_to_string p2 = printed)

let prop_cfg_blocks_reachable_targets =
  QCheck2.Test.make ~name:"all CFG successor ids are valid" ~count:60
    (Gen.minic_program ())
    (fun src ->
      match parse_tc src with
      | exception _ -> QCheck2.assume_fail ()
      | p ->
        List.for_all
          (fun (_, cfg) ->
            Array.for_all
              (fun blk ->
                List.for_all
                  (fun s -> s >= 0 && s < Cfg.num_blocks cfg)
                  (Cfg.successors blk))
              cfg.Cfg.blocks)
          (Cfg.of_program p))

let prop_accesses_have_declared_fields =
  QCheck2.Test.make ~name:"every access names a declared field" ~count:60
    (Gen.minic_program ())
    (fun src ->
      match parse_tc src with
      | exception _ -> QCheck2.assume_fail ()
      | p ->
        List.for_all
          (fun (_, cfg) ->
            List.for_all
              (fun (a : Cfg.access) ->
                match Ast.find_struct p a.Cfg.a_struct with
                | Some sd -> Ast.find_field sd a.Cfg.a_field <> None
                | None -> false)
              (Cfg.accesses cfg))
          (Cfg.of_program p))

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_roundtrip; prop_cfg_blocks_reachable_targets;
      prop_accesses_have_declared_fields ]

let suites =
  [
    ( "ir.lexer",
      [
        Alcotest.test_case "tokens" `Quick test_lexer_tokens;
        Alcotest.test_case "comments" `Quick test_lexer_comments;
        Alcotest.test_case "line tracking" `Quick test_lexer_line_tracking;
        Alcotest.test_case "two-char ops" `Quick test_lexer_two_char_ops;
        Alcotest.test_case "errors" `Quick test_lexer_errors;
        Alcotest.test_case "integer literal out of range" `Quick
          test_lexer_int_range;
      ] );
    ( "ir.parser",
      [
        Alcotest.test_case "struct decl" `Quick test_parse_struct;
        Alcotest.test_case "precedence" `Quick test_parse_precedence;
        Alcotest.test_case "logic precedence" `Quick test_parse_logic_precedence;
        Alcotest.test_case "for loop" `Quick test_parse_for_shape;
        Alcotest.test_case "malformed for" `Quick test_parse_for_malformed;
        Alcotest.test_case "syntax errors" `Quick test_parse_errors;
        Alcotest.test_case "kernel round trip" `Quick test_parse_roundtrip_kernel;
      ] );
    ( "ir.typecheck",
      [
        Alcotest.test_case "rejects invalid" `Quick test_tc_rejects;
        Alcotest.test_case "accepts valid" `Quick test_tc_accepts;
        Alcotest.test_case "int arg resolution" `Quick test_tc_int_arg_resolution;
      ] );
    ( "ir.cfg",
      [
        Alcotest.test_case "straight line" `Quick test_cfg_straight_line;
        Alcotest.test_case "if shape" `Quick test_cfg_if_shape;
        Alcotest.test_case "loop structure" `Quick test_cfg_loop_structure;
        Alcotest.test_case "nested loops" `Quick test_cfg_nested_loops;
        Alcotest.test_case "successors" `Quick test_cfg_successors_wellformed;
      ] );
    ( "ir.eval",
      [
        Alcotest.test_case "operators" `Quick test_eval_ops;
        Alcotest.test_case "division by zero" `Quick test_eval_div_by_zero;
      ] );
    ("ir.properties", props);
  ]

(* ------------------------------------------------------------------ *)
(* Inlining *)

module Inline = Slo_ir.Inline

let inline_src =
  small_struct
  ^ {|
void helper(struct S *p, int k) {
  p->a = p->a + k;
}
void caller(struct S *s, int n) {
  for (i = 0; i < n; i++) {
    x = s->b;
    helper(s, i);
  }
}
|}

let test_inline_removes_calls () =
  let p = Inline.program (parse_tc inline_src) in
  let rec has_call block =
    List.exists
      (fun stmt ->
        match stmt with
        | Ast.Call _ -> true
        | Ast.For { body; _ } -> has_call body
        | Ast.If { then_; else_; _ } ->
          has_call then_ || (match else_ with Some b -> has_call b | None -> false)
        | Ast.Assign _ | Ast.Pause _ -> false)
      block
  in
  List.iter
    (fun (pd : Ast.proc_decl) ->
      Alcotest.(check bool) (pd.Ast.pd_name ^ " call-free") false
        (has_call pd.Ast.pd_body))
    p.Ast.procs;
  (* still a valid program *)
  ignore (Typecheck.check p)

let test_inline_preserves_semantics () =
  let module Interp = Slo_profile.Interp in
  let run program =
    let ctx = Interp.make_ctx program in
    let prng = Slo_util.Prng.create ~seed:1 in
    let s = Interp.make_instance program ~struct_name:"S" in
    Interp.run ctx ~prng ~proc:"caller" [ Interp.Ainst s; Interp.Aint 10 ];
    Interp.get_field s ~field:"a" ()
  in
  let original = parse_tc inline_src in
  check_int "same result" (run original) (run (Inline.program original))

let test_inline_exposes_cross_proc_affinity () =
  (* Before inlining, helper's access to [a] and caller's access to [b] are
     in different procedures: no affinity. After inlining they share the
     caller's loop group. *)
  let module Interp = Slo_profile.Interp in
  let module Counts = Slo_profile.Counts in
  let module Affinity_graph = Slo_affinity.Affinity_graph in
  let affinity program =
    let ctx = Interp.make_ctx program in
    let counts = Counts.create () in
    let prng = Slo_util.Prng.create ~seed:1 in
    let s = Interp.make_instance program ~struct_name:"S" in
    Interp.run ctx ~counts ~prng ~proc:"caller" [ Interp.Ainst s; Interp.Aint 20 ];
    let ag = Affinity_graph.build program counts ~struct_name:"S" in
    Affinity_graph.affinity ag "a" "b"
  in
  let original = parse_tc inline_src in
  Alcotest.(check (float 1e-6)) "no cross-proc affinity before" 0.0
    (affinity original);
  Alcotest.(check bool) "affinity appears after inlining" true
    (affinity (Inline.program original) > 0.0)

let test_inline_nested_and_capture () =
  (* Nested calls and name clashes: both levels use [i] and [t]. *)
  let src =
    small_struct
    ^ {|
void leaf(struct S *p, int t) {
  for (i = 0; i < t; i++) {
    p->c = p->c + 1;
  }
}
void mid(struct S *p, int t) {
  leaf(p, t + 1);
  for (i = 0; i < t; i++) {
    p->a = p->a + 1;
  }
}
void top(struct S *s, int n) {
  for (i = 0; i < n; i++) {
    mid(s, 2);
  }
}
|}
  in
  let module Interp = Slo_profile.Interp in
  let run program =
    let ctx = Interp.make_ctx program in
    let prng = Slo_util.Prng.create ~seed:1 in
    let s = Interp.make_instance program ~struct_name:"S" in
    Interp.run ctx ~prng ~proc:"top" [ Interp.Ainst s; Interp.Aint 3 ];
    (Interp.get_field s ~field:"a" (), Interp.get_field s ~field:"c" ())
  in
  let original = parse_tc src in
  let a0, c0 = run original in
  let a1, c1 = run (Inline.program original) in
  check_int "a matches" a0 a1;
  check_int "c matches" c0 c1;
  check_int "a value" 6 a0;
  check_int "c value" 9 c0

let prop_inline_semantics =
  QCheck2.Test.make ~name:"inlining preserves interpreter results" ~count:40
    (Gen.minic_program ~max_fields:5 ~max_procs:2 ())
    (fun src ->
      match parse_tc src with
      | exception _ -> QCheck2.assume_fail ()
      | p ->
        if Tutil.contains src "rand(" then QCheck2.assume_fail ()
        else begin
          let module Interp = Slo_profile.Interp in
          let run program =
            let ctx = Interp.make_ctx program in
            let prng = Slo_util.Prng.create ~seed:1 in
            let s = Interp.make_instance program ~struct_name:"G" in
            List.iter
              (fun (pd : Ast.proc_decl) ->
                Interp.run ctx ~prng ~proc:pd.Ast.pd_name
                  [ Interp.Ainst s; Interp.Aint 3 ])
              program.Ast.procs;
            let sd = Option.get (Ast.find_struct program "G") in
            List.map
              (fun (fd : Ast.field_decl) -> Interp.get_field s ~field:fd.Ast.fd_name ())
              sd.Ast.sd_fields
          in
          run p = run (Inline.program p)
        end)

let suites =
  suites
  @ [
      ( "ir.inline",
        [
          Alcotest.test_case "removes calls" `Quick test_inline_removes_calls;
          Alcotest.test_case "preserves semantics" `Quick test_inline_preserves_semantics;
          Alcotest.test_case "cross-proc affinity" `Quick test_inline_exposes_cross_proc_affinity;
          Alcotest.test_case "nested + capture" `Quick test_inline_nested_and_capture;
          QCheck_alcotest.to_alcotest prop_inline_semantics;
        ] );
    ]
