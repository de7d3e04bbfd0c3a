module Ast = Slo_ir.Ast
module Field = Slo_layout.Field
module Layout = Slo_layout.Layout

let line_size = 128
let struct_names = [ "A"; "B"; "C"; "D"; "E" ]
let num_classes_a = 8

(* ----------------------------------------------------------------- *)
(* Field inventories. All scalars are longs (8 bytes) except a block of
   int fields in A's cold section, so the structs have realistic mixed
   alignment groups for the sort-by-hotness heuristic. *)

let a_hot_reads =
  [ "a_flags"; "a_state"; "a_owner"; "a_prio"; "a_limit"; "a_quota";
    "a_nice"; "a_uid"; "a_gid"; "a_pgrp"; "a_sid"; "a_tty"; "a_rdir";
    "a_cmask"; "a_gen"; "a_mask" ]

let a_ctrs = List.init num_classes_a (fun k -> Printf.sprintf "a_ctr%d" k)
let a_update_group = [ "a_rss"; "a_uz0"; "a_uz1" ]
let a_warms = [ "a_wa"; "a_wb"; "a_wc"; "a_wd" ]
let a_cold_longs = List.init 88 (fun i -> Printf.sprintf "a_c%d" i)
let a_cold_ints = List.init 8 (fun i -> Printf.sprintf "a_ci%d" i)

let b_hot = [ "b_key"; "b_hash"; "b_next"; "b_size"; "b_len"; "b_cap" ]
let b_scan_fields = List.init 10 (fun i -> Printf.sprintf "b_m%d" i)
let b_writer = "b_dirty"
let b_cold = List.init 15 (fun i -> Printf.sprintf "b_c%d" i)

let c_hot = [ "c_h0"; "c_h1"; "c_h2"; "c_h3" ]
let c_cold = List.init 28 (fun i -> Printf.sprintf "c_c%d" i)

let d_hot = [ "d_ha"; "d_hb"; "d_hc"; "d_hd" ]
let d_writers = [ "d_wa"; "d_wb" ]
let d_cold = List.init 34 (fun i -> Printf.sprintf "d_c%d" i)

let e_lock = "e_lck"
let e_data = [ "e_da"; "e_db"; "e_dc" ]
let e_cold = List.init 8 (fun i -> Printf.sprintf "e_c%d" i)

(* Global variables (the GVL extension): four read-mostly system globals
   interleaved, in declaration order, with four per-quadrant load counters
   and a freely written tick counter — the naive .data ordering a kernel
   accretes over time. All nine land on one cache line, so every counter
   bump invalidates the read-mostly globals machine-wide. *)
let g_reads = [ "g_ncpu"; "g_hz"; "g_pagesz"; "g_bootms" ]
let g_counters = List.init 4 (fun i -> Printf.sprintf "g_load%d" i)
let globals_decl_order =
  [ "g_ncpu"; "g_load0"; "g_hz"; "g_load1"; "g_pagesz"; "g_load2";
    "g_bootms"; "g_load3"; "g_ticks" ]

(* ----------------------------------------------------------------- *)
(* minic source *)

let decl_struct buf name longs ints =
  Buffer.add_string buf (Printf.sprintf "struct %s {\n" name);
  List.iter (fun f -> Buffer.add_string buf (Printf.sprintf "  long %s;\n" f)) longs;
  List.iter (fun f -> Buffer.add_string buf (Printf.sprintf "  int %s;\n" f)) ints;
  Buffer.add_string buf "};\n\n"

(* The per-class counter update: an if-chain so that every counter write
   sits on its own source line (the concurrency map is line-granular). *)
let ctr_chain () =
  let buf = Buffer.create 256 in
  let rec go k =
    if k = num_classes_a - 1 then
      Buffer.add_string buf
        (Printf.sprintf "    a->a_ctr%d = a->a_ctr%d + 1;\n" k k)
    else begin
      Buffer.add_string buf (Printf.sprintf "    if (cls == %d) {\n" k);
      Buffer.add_string buf
        (Printf.sprintf "    a->a_ctr%d = a->a_ctr%d + 1;\n" k k);
      Buffer.add_string buf "    } else {\n";
      go (k + 1);
      Buffer.add_string buf "    }\n"
    end
  in
  go 0;
  Buffer.contents buf

let source =
  let buf = Buffer.create 8192 in
  decl_struct buf "A"
    (a_hot_reads @ a_update_group @ a_ctrs @ a_warms @ a_cold_longs)
    a_cold_ints;
  decl_struct buf "B" (b_hot @ b_scan_fields @ [ b_writer ] @ b_cold) [];
  decl_struct buf "C" (c_hot @ c_cold) [];
  decl_struct buf "D" (d_hot @ d_writers @ d_cold) [];
  decl_struct buf "E" ((e_lock :: e_data) @ e_cold) [];
  List.iter
    (fun g -> Buffer.add_string buf (Printf.sprintf "long %s;\n" g))
    globals_decl_order;
  Buffer.add_string buf "\n";
  Buffer.add_string buf
    (Printf.sprintf
       "void a_hot(struct A *a, int cls, int n) {\n\
       \  for (i = 0; i < n; i++) {\n\
       \    s = a->a_flags + a->a_state + a->a_owner + a->a_prio;\n\
       \    s = s + a->a_limit + a->a_quota + a->a_nice + a->a_uid;\n\
       \    s = s + a->a_gid + a->a_pgrp + a->a_sid + a->a_tty;\n\
       \    s = s + a->a_rdir + a->a_cmask;\n\
       \    s = s + a->a_rss;\n\
       \    if (rand(64) == 0) {\n\
       \    s = s + a->a_gen + a->a_mask;\n\
       \    }\n\
        %s\
       \    pause(30 + rand(20));\n\
       \  }\n\
        }\n\n"
       (ctr_chain ()));
  Buffer.add_string buf
    "void a_update(struct A *a, int n) {\n\
    \  for (i = 0; i < n; i++) {\n\
    \    a->a_rss = a->a_rss + a->a_uz0 + a->a_uz1;\n\
    \    pause(40 + rand(10));\n\
    \  }\n\
     }\n\n";
  Buffer.add_string buf
    "void a_warm(struct A *a, int n) {\n\
    \  for (i = 0; i < n; i++) {\n\
    \    t = a->a_wa + a->a_wb + a->a_wc + a->a_wd;\n\
    \    pause(50 + rand(20));\n\
    \  }\n\
     }\n\n";
  Buffer.add_string buf
    "void a_cold(struct A *a, int n) {\n\
    \  for (i = 0; i < n; i++) {\n\
    \    a->a_c0 = a->a_c0 + 1;\n\
    \    x = a->a_c1 + a->a_c2 + a->a_c3;\n\
    \    y = a->a_ci0 + a->a_ci1;\n\
    \    pause(35 + rand(10));\n\
    \  }\n\
     }\n\n";
  Buffer.add_string buf
    "void b_lookup(struct B *b, int n) {\n\
    \  for (i = 0; i < n; i++) {\n\
    \    x = b->b_key + b->b_hash;\n\
    \    y = b->b_next + b->b_size;\n\
    \    pause(55 + rand(20));\n\
    \  }\n\
     }\n\n";
  Buffer.add_string buf
    "void b_scan(struct B *b, int n) {\n\
    \  for (i = 0; i < n; i++) {\n\
    \    x = b->b_len + b->b_cap;\n\
    \    x = x + b->b_m0 + b->b_m1 + b->b_m2 + b->b_m3 + b->b_m4;\n\
    \    x = x + b->b_m5 + b->b_m6 + b->b_m7 + b->b_m8 + b->b_m9;\n\
    \    pause(55 + rand(20));\n\
    \  }\n\
     }\n\n";
  Buffer.add_string buf
    "void b_update(struct B *b, int n) {\n\
    \  for (i = 0; i < n; i++) {\n\
    \    b->b_dirty = b->b_dirty + 1;\n\
    \    pause(70 + rand(20));\n\
    \  }\n\
     }\n\n";
  Buffer.add_string buf
    "void c_read(struct C *c, int n) {\n\
    \  for (i = 0; i < n; i++) {\n\
    \    x = c->c_h0 + c->c_h1;\n\
    \    y = c->c_h2 + c->c_h3;\n\
    \    pause(45 + rand(15));\n\
    \  }\n\
     }\n\n";
  Buffer.add_string buf
    "void d_op(struct D *d, int cls, int n) {\n\
    \  for (i = 0; i < n; i++) {\n\
    \    x = d->d_ha + d->d_hb;\n\
    \    y = d->d_hc + d->d_hd;\n\
    \    if (rand(8) == 0) {\n\
    \    if (cls % 2 == 0) {\n\
    \    d->d_wa = d->d_wa + 1;\n\
    \    } else {\n\
    \    d->d_wb = d->d_wb + 1;\n\
    \    }\n\
    \    }\n\
    \    pause(55 + rand(15));\n\
    \  }\n\
     }\n\n";
  Buffer.add_string buf
    "void d_cold(struct D *d, int n) {\n\
    \  for (i = 0; i < n; i++) {\n\
    \    x = d->d_c0 + d->d_c1 + d->d_c2;\n\
    \    pause(30 + rand(10));\n\
    \  }\n\
     }\n\n";
  Buffer.add_string buf
    "void e_acquire(struct E *e, int n) {\n\
    \  for (i = 0; i < n; i++) {\n\
    \    e->e_lck = 1;\n\
    \    x = e->e_da + e->e_db + e->e_dc;\n\
    \    e->e_lck = 0;\n\
    \    pause(50 + rand(15));\n\
    \  }\n\
     }\n\n";
  Buffer.add_string buf
    "void sys_tick(int q, int n) {\n\
    \  for (i = 0; i < n; i++) {\n\
    \    x = g_ncpu + g_hz;\n\
    \    y = g_pagesz + g_bootms;\n\
    \    if (q == 0) {\n\
    \    g_load0 = g_load0 + 1;\n\
    \    } else {\n\
    \    if (q == 1) {\n\
    \    g_load1 = g_load1 + 1;\n\
    \    } else {\n\
    \    if (q == 2) {\n\
    \    g_load2 = g_load2 + 1;\n\
    \    } else {\n\
    \    g_load3 = g_load3 + 1;\n\
    \    }\n\
    \    }\n\
    \    }\n\
    \    if (rand(16) == 0) {\n\
    \    g_ticks = g_ticks + 1;\n\
    \    }\n\
    \    pause(35 + rand(10));\n\
    \  }\n\
     }\n\n";
  Buffer.add_string buf
    "void e_peek(struct E *e, int n) {\n\
    \  for (i = 0; i < n; i++) {\n\
    \    x = e->e_da;\n\
    \    pause(50 + rand(15));\n\
    \  }\n\
     }\n";
  Buffer.contents buf

let program = Source.memo ~file:"kernel.mc" source

(* ----------------------------------------------------------------- *)
(* Layouts *)

(* Field names are prefixed by their struct letter ("a_", "b_", ...);
   globals use "g_" and resolve through the synthetic globals struct. *)
let field name =
  let owner =
    if String.length name >= 2 && String.sub name 0 2 = "g_" then
      Ast.globals_struct_name
    else String.sub name 0 1 |> String.uppercase_ascii
  in
  match Ast.find_struct (program ()) owner with
  | Some sd -> (
    match Ast.find_field sd name with
    | Some fd -> Field.of_decl fd
    | None -> invalid_arg (Printf.sprintf "Kernel.field: unknown field %S" name))
  | None -> invalid_arg (Printf.sprintf "Kernel.field: cannot resolve %S" name)

let fields = List.map field

let take n l = List.filteri (fun i _ -> i < n) l
let drop n l = List.filteri (fun i _ -> i >= n) l

(* Hand-tuned baseline for A (see the .mli): hot reads on line 0 except
   a_gen/a_mask which overflowed onto counter 7's line; each per-class
   counter sits alone on a fully padded line (the classic kernel idiom for
   contended counters); cold fields and the remaining warm fields pack at
   the tail. *)
let baseline_a () =
  let hot14 = take 14 a_hot_reads in
  let overflow = drop 14 a_hot_reads in
  (* 14 hot longs = 112 bytes; a_wa/a_wb complete line 0 at 128. *)
  let line0 = hot14 @ [ "a_wa"; "a_wb" ] in
  let ctr_lines =
    List.mapi
      (fun k ctr -> if k = num_classes_a - 1 then ctr :: overflow else [ ctr ])
      a_ctrs
  in
  (* The a_cold working group (written a_c0 plus the fields read next to
     it) gets its own line at the end: the hand layout knows a_c0 is
     written and keeps it off every read-shared line. *)
  let cold_group = [ "a_c0"; "a_c1"; "a_c2"; "a_c3"; "a_ci0"; "a_ci1" ] in
  (* a_rss is written by the a_update maintenance op, so the hand layout
     keeps it with that op's data, padded by never-referenced cold fields,
     well away from the read-shared lines. *)
  let update_line = a_update_group @ take 10 (drop 4 a_cold_longs) in
  let tail = [ "a_wc"; "a_wd" ] @ drop 14 a_cold_longs @ drop 2 a_cold_ints in
  Layout.of_clusters ~struct_name:"A" ~line_size
    (List.map fields ([ line0 ] @ ctr_lines @ [ tail; cold_group; update_line ]))

(* B baseline: plausible historical layout — both affine lookup pairs
   split across the line boundary, the scan block half on each line, and
   the dirty flag sharing line 1 with hot read fields. *)
let baseline_b () =
  let order =
    [ "b_key"; "b_next"; "b_len"; "b_cap" ] @ take 5 b_scan_fields
    @ take 7 b_cold
    @ [ "b_hash"; "b_size" ] @ drop 5 b_scan_fields @ [ b_writer ]
    @ drop 7 b_cold
  in
  Layout.of_fields ~struct_name:"B" (fields order)

(* C baseline: hot read fields scattered among cold ones — the layout grew
   by accretion; reads span two lines. *)
let baseline_c () =
  let order =
    [ "c_h0" ] @ take 7 c_cold @ [ "c_h1" ] @ (take 15 c_cold |> drop 7)
    @ [ "c_h2" ] @ (take 23 c_cold |> drop 15) @ [ "c_h3" ]
    @ drop 23 c_cold
  in
  Layout.of_fields ~struct_name:"C" (fields order)

(* D baseline: the hand layout already keeps the parity counters off the
   hot read line; the remaining flaw is that both counters share one
   line. *)
let baseline_d () =
  Layout.of_clusters ~struct_name:"D" ~line_size
    [
      fields (d_hot @ take 12 d_cold);
      fields d_writers;
      fields (drop 12 d_cold);
    ]

(* E baseline: the lock is already separated from the peeked data (hand
   tuning got this one right). *)
let baseline_e () =
  Layout.of_clusters ~struct_name:"E" ~line_size
    [ fields (e_lock :: take 4 e_cold); fields (e_data @ drop 4 e_cold) ]

(* Hand-tuned globals segment: read-mostly globals on one line; each
   contended counter (and the tick counter) padded to its own line. *)
let baseline_globals () =
  Layout.of_clusters ~struct_name:Ast.globals_struct_name ~line_size
    ([ fields g_reads ]
    @ List.map (fun c -> [ field c ]) g_counters
    @ [ [ field "g_ticks" ] ])

let baseline_layout name =
  match name with
  | "$globals" -> baseline_globals ()
  | "A" -> baseline_a ()
  | "B" -> baseline_b ()
  | "C" -> baseline_c ()
  | "D" -> baseline_d ()
  | "E" -> baseline_e ()
  | _ -> invalid_arg (Printf.sprintf "Kernel.baseline_layout: unknown struct %S" name)

let declared_layout name =
  match Ast.find_struct (program ()) name with
  | Some sd -> Layout.of_struct sd
  | None -> invalid_arg (Printf.sprintf "Kernel.declared_layout: unknown struct %S" name)
