(* Tests for the persistence layer (profile + samples files). *)

module Persist = Slo_persist.Persist
module Counts = Slo_profile.Counts
module Sample = Slo_concurrency.Sample

let check_int = Alcotest.(check int)

let read_raw path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let mk_counts () =
  let c = Counts.create () in
  Counts.bump_block ~n:7 c ~proc:"f" ~block:0;
  Counts.bump_block ~n:3 c ~proc:"g g" ~block:2;
  Counts.bump_edge ~n:5 c ~proc:"f" ~src:0 ~dst:1;
  Counts.bump_field ~n:4 c ~proc:"f" ~block:0 ~struct_name:"S" ~field:"a%b"
    ~is_write:false;
  Counts.bump_field ~n:2 c ~proc:"f" ~block:0 ~struct_name:"S" ~field:"a%b"
    ~is_write:true;
  c

let test_counts_roundtrip () =
  let c = mk_counts () in
  let c' = Persist.counts_of_string (Persist.counts_to_string c) in
  check_int "block f/0" 7 (Counts.block_count c' ~proc:"f" ~block:0);
  check_int "block with space in name" 3 (Counts.block_count c' ~proc:"g g" ~block:2);
  check_int "edge" 5 (Counts.edge_count c' ~proc:"f" ~src:0 ~dst:1);
  let rw = Counts.field_rw c' ~proc:"f" ~block:0 ~struct_name:"S" ~field:"a%b" in
  check_int "reads (percent in name)" 4 rw.Counts.reads;
  check_int "writes" 2 rw.Counts.writes

let test_counts_file_roundtrip () =
  let path = Filename.temp_file "slo_test" ".prof" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Persist.save_counts ~path (mk_counts ());
      let c' = Persist.load_counts ~path in
      check_int "file round trip" 7 (Counts.block_count c' ~proc:"f" ~block:0))

let test_counts_parse_errors () =
  let expect_error s =
    match Persist.counts_of_string s with
    | exception Persist.Parse_error _ -> ()
    | _ -> Alcotest.fail ("parsed invalid profile: " ^ s)
  in
  expect_error "";
  expect_error "wrong-header\nblock f 0 1";
  expect_error "slo-profile 1\nblock f zero 1";
  expect_error "slo-profile 1\nbogus f 0 1"

let test_malformed_escapes_rejected () =
  (* Regression: decoding with [int_of_string ("0x" ^ sub)] accepted OCaml
     literal quirks — "%5_" and "%_1" parsed as hex 5 and 1 instead of
     failing — so corrupt names loaded silently. Strict two-hex-digit
     escapes reject them. *)
  let expect_error name =
    match
      Persist.counts_of_string ("slo-profile 1\nblock " ^ name ^ " 0 1")
    with
    | exception Persist.Parse_error _ -> ()
    | _ -> Alcotest.fail ("decoded malformed escape: " ^ name)
  in
  expect_error "f%5_";
  expect_error "f%_1";
  expect_error "f%g1";
  expect_error "f%5" (* truncated *);
  expect_error "f%"

let test_negative_counts_rejected () =
  (* Regression: a negative count silently bumped the profile down. *)
  let expect_error body =
    match Persist.counts_of_string ("slo-profile 1\n" ^ body) with
    | exception Persist.Parse_error _ -> ()
    | _ -> Alcotest.fail ("accepted negative count: " ^ body)
  in
  expect_error "block f 1 -5";
  expect_error "edge f 0 1 -2";
  expect_error "field f 0 S a -1 0";
  expect_error "field f 0 S a 0 -1";
  (match Persist.samples_of_string "slo-samples 1\n-1 5 3" with
  | exception Persist.Parse_error _ -> ()
  | _ -> Alcotest.fail "accepted negative cpu");
  (* a signed itc is legal: the binning handles negative timestamps *)
  match Persist.samples_of_string "slo-samples 1\n0 -5 3" with
  | [ { Sample.itc = -5; _ } ] -> ()
  | _ -> Alcotest.fail "rejected signed itc"

(* The text [save_samples] writes for [samples]. *)
let samples_text samples =
  let path = Filename.temp_file "slo_test" ".samples" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Persist.save_samples ~path samples;
      read_raw path)

let test_samples_roundtrip () =
  let samples =
    [ { Sample.cpu = 0; itc = 100; line = 42 };
      { Sample.cpu = 3; itc = 250; line = 7 } ]
  in
  let s' = Persist.samples_of_string (samples_text samples) in
  Alcotest.(check int) "count" 2 (List.length s');
  Alcotest.(check bool) "identical" true (s' = samples)

let test_samples_file_roundtrip () =
  let path = Filename.temp_file "slo_test" ".samples" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let samples = [ { Sample.cpu = 1; itc = 5; line = 9 } ] in
      Persist.save_samples ~path samples;
      Alcotest.(check bool) "file round trip" true
        (Slo_concurrency.Sample_store.to_samples
           (Persist.store_of_samples_file ~path)
        = samples))

let test_real_profile_roundtrip () =
  (* The kernel's whole profile must survive a round trip. *)
  let c = Slo_workload.Collect.profile () in
  let c' = Persist.counts_of_string (Persist.counts_to_string c) in
  List.iter
    (fun struct_name ->
      let a = Counts.field_totals c ~struct_name in
      let b = Counts.field_totals c' ~struct_name in
      Alcotest.(check bool) (struct_name ^ " totals equal") true (a = b))
    Slo_workload.Kernel.struct_names

let prop_samples_roundtrip =
  QCheck2.Test.make ~name:"samples round trip" ~count:100
    QCheck2.Gen.(
      list_size (int_range 0 50)
        (let* cpu = int_range 0 127 in
         let* itc = int_range 0 1_000_000 in
         let* line = int_range 0 10_000 in
         return { Sample.cpu; itc; line }))
    (fun samples ->
      Persist.samples_of_string (samples_text samples) = samples)

let prop_samples_signed_itc_roundtrip =
  QCheck2.Test.make ~name:"samples round trip with signed itc" ~count:100
    QCheck2.Gen.(
      list_size (int_range 0 50)
        (let* cpu = int_range 0 127 in
         let* itc = int_range (-1_000_000) 1_000_000 in
         let* line = int_range 0 10_000 in
         return { Sample.cpu; itc; line }))
    (fun samples ->
      Persist.samples_of_string (samples_text samples) = samples)

let prop_adversarial_names_roundtrip =
  (* Names built from the encoder's own special characters plus hex-ish
     bytes — exactly the alphabet that tripped the permissive decoder. *)
  QCheck2.Test.make
    ~name:"field names over {%, space, tab, newline, hex} round trip"
    ~count:200
    QCheck2.Gen.(
      pair
        (string_size
           ~gen:
             (oneofl [ '%'; ' '; '\t'; '\n'; '_'; '5'; 'a'; 'F'; 'x'; '0' ])
           (int_range 1 10))
        (int_range 1 100))
    (fun (name, n) ->
      let c = Counts.create () in
      Counts.bump_field ~n c ~proc:name ~block:0 ~struct_name:name ~field:name
        ~is_write:false;
      let c' = Persist.counts_of_string (Persist.counts_to_string c) in
      (Counts.field_rw c' ~proc:name ~block:0 ~struct_name:name ~field:name)
        .Counts.reads = n)

let prop_encode_roundtrip =
  QCheck2.Test.make ~name:"counts round trip with arbitrary proc names"
    ~count:100
    QCheck2.Gen.(pair (string_size (int_range 1 12)) (int_range 1 1000))
    (fun (proc, n) ->
      if String.contains proc '\000' then QCheck2.assume_fail ()
      else begin
        let c = Counts.create () in
        Counts.bump_block ~n c ~proc ~block:1;
        let c' = Persist.counts_of_string (Persist.counts_to_string c) in
        Counts.block_count c' ~proc ~block:1 = n
      end)

(* ------------------------------------------------------------------ *)
(* Streaming sample ingestion *)

(* Every sample of a text file, through the streaming reader. *)
let stream_file path =
  let acc = ref [] in
  Persist.iter_samples_file ~path (fun smp -> acc := smp :: !acc);
  List.rev !acc

let test_streaming_reader () =
  let path = Filename.temp_file "slo_test" ".samples" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let samples =
        List.init 100 (fun i ->
            { Sample.cpu = i mod 8; itc = (i * 37) - 500; line = i mod 13 })
      in
      Persist.save_samples ~path samples;
      Alcotest.(check bool) "streamed = original" true
        (stream_file path = samples))

let test_streaming_reader_errors () =
  (* The streaming reader must keep the in-memory parser's Parse_error
     discipline: bad or missing header, malformed rows, negative cpu. *)
  let write s =
    let path = Filename.temp_file "slo_test" ".samples" in
    let oc = open_out_bin path in
    output_string oc s;
    close_out oc;
    path
  in
  let expect s =
    let path = write s in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        match Persist.iter_samples_file ~path (fun _ -> ()) with
        | exception Persist.Parse_error _ -> ()
        | () ->
          Alcotest.fail ("streamed invalid samples file: " ^ String.escaped s))
  in
  expect "";
  expect "wrong-header\n0 1 2";
  expect "slo-samples 1\n0 1" (* missing field *);
  expect "slo-samples 1\n0 one 2";
  expect "slo-samples 1\n-1 5 3" (* negative cpu *)

(* ------------------------------------------------------------------ *)
(* Numeric bounds (near-max_int ingestion regressions) *)

let expect_parse_error ?line what thunk =
  match thunk () with
  | exception Persist.Parse_error (_, ln) -> (
    match line with
    | Some l -> check_int (what ^ ": error line") l ln
    | None -> ())
  | _ -> Alcotest.fail ("accepted " ^ what)

let test_count_bounds () =
  (* Regression: counts near max_int parsed fine, then wrapped the moment
     Counts.bump accumulated a second record on top. Anything above 2^53
     is rejected at parse time, with the offending 1-based line number. *)
  let over = string_of_int (Persist.max_count + 1) in
  expect_parse_error ~line:2 "block count above 2^53" (fun () ->
      Persist.counts_of_string ("slo-profile 1\nblock f 0 " ^ over));
  expect_parse_error ~line:3 "edge count above 2^53" (fun () ->
      Persist.counts_of_string
        ("slo-profile 1\nblock f 0 1\nedge f 0 1 " ^ over));
  expect_parse_error ~line:2 "field count above 2^53" (fun () ->
      Persist.counts_of_string ("slo-profile 1\nfield f 0 S a " ^ over ^ " 0"));
  expect_parse_error ~line:2 "field write count above 2^53" (fun () ->
      Persist.counts_of_string ("slo-profile 1\nfield f 0 S a 0 " ^ over));
  (* the cap itself is legal and exact *)
  let c =
    Persist.counts_of_string
      ("slo-profile 1\nblock f 0 " ^ string_of_int Persist.max_count)
  in
  check_int "count at the cap parses" Persist.max_count
    (Counts.block_count c ~proc:"f" ~block:0)

let test_id_bounds () =
  (* Same sweep for sample identifiers: cpu/line above Sample.max_id
     would truncate silently in the 32-bit columns of the binary store. *)
  let over = string_of_int (Sample.max_id + 1) in
  expect_parse_error ~line:2 "cpu above 2^31-1" (fun () ->
      Persist.samples_of_string ("slo-samples 1\n" ^ over ^ " 5 3"));
  expect_parse_error ~line:3 "line above 2^31-1" (fun () ->
      Persist.samples_of_string ("slo-samples 1\n0 5 3\n0 6 " ^ over));
  let cap = string_of_int Sample.max_id in
  match Persist.samples_of_string ("slo-samples 1\n" ^ cap ^ " -5 " ^ cap) with
  | [ { Sample.cpu; itc = -5; line } ]
    when cpu = Sample.max_id && line = Sample.max_id -> ()
  | _ -> Alcotest.fail "rejected identifiers at the cap"

(* ------------------------------------------------------------------ *)
(* Line-ending differential: the streaming file reader and the in-memory
   string parser must agree byte-for-byte on CRLF input and on files
   missing their final newline. *)

let write_raw path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let test_crlf_and_final_newline () =
  let body = "slo-samples 1\r\n0 10 1\r\n1 -20 2\r\n2 30 3" in
  let path = Filename.temp_file "slo_test" ".samples" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write_raw path body;
      let streamed = stream_file path in
      Alcotest.(check bool) "CRLF + no final newline: file = string" true
        (streamed = Persist.samples_of_string body);
      check_int "all rows parsed" 3 (List.length streamed))

let prop_line_ending_differential =
  QCheck2.Test.make
    ~name:"file parse = string parse over CRLF / final-newline mixes"
    ~count:60
    QCheck2.Gen.(
      triple
        (list_size (int_bound 20)
           (triple (int_bound 9) (int_range (-100) 100) (int_bound 9)))
        bool bool)
    (fun (rows, crlf, final_nl) ->
      let eol = if crlf then "\r\n" else "\n" in
      let body =
        "slo-samples 1" ^ eol
        ^ String.concat eol
            (List.map (fun (c, t, l) -> Printf.sprintf "%d %d %d" c t l) rows)
        ^ (if final_nl then eol else "")
      in
      let path = Filename.temp_file "slo_test" ".samples" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          write_raw path body;
          stream_file path = Persist.samples_of_string body))

let prop_streamed_equals_string_parse =
  QCheck2.Test.make ~name:"streamed file parse = in-memory parse" ~count:50
    QCheck2.Gen.(
      list_size (int_range 0 60)
        (let* cpu = int_range 0 127 in
         let* itc = int_range (-1_000_000) 1_000_000 in
         let* line = int_range 0 10_000 in
         return { Sample.cpu; itc; line }))
    (fun samples ->
      let path = Filename.temp_file "slo_test" ".samples" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Persist.save_samples ~path samples;
          stream_file path = Persist.samples_of_string (read_raw path)))

(* ------------------------------------------------------------------ *)
(* The byte scanner against the line parser it falls back to
   (Persist.For_tests): on every input the same samples or the same
   Parse_error, whether the scanner reads a string or a file. *)

type outcome = Samples of Sample.t list | Rejected of string * int

let outcome read =
  match read () with
  | samples -> Samples samples
  | exception Persist.Parse_error (msg, ln) -> Rejected (msg, ln)

let show = function
  | Samples l -> Printf.sprintf "%d samples" (List.length l)
  | Rejected (msg, ln) ->
    let msg = String.sub msg 0 (min 60 (String.length msg)) in
    Printf.sprintf "Parse_error (%S, %d)" msg ln

(* [body] read as a string and from a file by the scanner, and by the
   reference parser. *)
let read_three body =
  let path = Filename.temp_file "slo_test" ".samples" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write_raw path body;
      ( outcome (fun () -> Persist.samples_of_string body),
        outcome (fun () -> stream_file path),
        outcome (fun () -> Persist.For_tests.samples_of_string body) ))

let check_three what expected body =
  let s, f, r = read_three body in
  List.iter
    (fun (reader, got) ->
      if got <> expected then
        Alcotest.failf "%s: the %s reader gave %s, expected %s" what reader
          (show got) (show expected))
    [ ("string", s); ("file", f); ("reference", r) ]

(* The file reader's chunk. *)
let chunk = 65536

(* Canonical records appended to [buf] until it holds [bytes], the first
   on line [ln]; returns the number of the line after them. *)
let add_records buf ~ln bytes =
  let n = ref ln in
  while Buffer.length buf < bytes do
    Printf.bprintf buf "%d %d %d\n" (!n mod 64) ((!n * 37) - 900) (!n mod 97);
    incr n
  done;
  !n

let test_error_after_chunk_boundary () =
  let buf = Buffer.create (2 * chunk) in
  Buffer.add_string buf "slo-samples 1\n";
  let ln = add_records buf ~ln:2 (chunk + 100) in
  Buffer.add_string buf "7 12x 3\n5 5 5\n";
  check_three "malformed record after 64 KiB"
    (Rejected ("expected integer, found \"12x\"", ln))
    (Buffer.contents buf)

let test_line_longer_than_chunk () =
  let s cpu itc line = { Sample.cpu; itc; line } in
  let wide = "4" ^ String.make ((2 * chunk) + 10) ' ' ^ "-9 2" in
  check_three "record wider than two chunks"
    (Samples [ s 1 2 3; s 4 (-9) 2; s 5 6 7 ])
    ("slo-samples 1\n1 2 3\n" ^ wide ^ "\n5 6 7\n");
  let digits = String.make (chunk + 10) '7' in
  check_three "field wider than a chunk"
    (Rejected (Printf.sprintf "expected integer, found %S" digits, 3))
    ("slo-samples 1\n1 2 3\n1 " ^ digits ^ " 2\n5 6 7\n")

(* Fields and separators the line parser reads its own way: signs,
   underscores, hex, leading zeros, 18 to 20 digits, stray '-', ids past
   2^31 - 1; tabs, '\r' and form feeds inside a line. *)
let odd_field =
  QCheck2.Gen.oneofl
    [ "+5"; "1_000"; "0x10"; "007"; "-0"; "-3"; "--3"; "-"; ""; "x";
      "999999999999999999"; "-999999999999999999"; "1234567890123456789";
      "9999999999999999999"; "99999999999999999999"; "2147483647";
      "2147483648" ]

let gen_sample_line =
  QCheck2.Gen.(
    let field range =
      frequency [ (8, map string_of_int range); (1, odd_field) ]
    and sep =
      frequency
        [ (12, return " "); (1, oneofl [ "  "; "\t"; " \r "; "\012" ]) ]
    and edge =
      frequency [ (10, return ""); (1, oneofl [ " "; "\t"; "\r"; "\012" ]) ]
    in
    frequency
      [
        ( 10,
          let* lead = edge and* c = field (int_range 0 99) and* s1 = sep
          and* t = field (int_range (-999) 999) and* s2 = sep
          and* l = field (int_range 0 999) and* trail = edge in
          return (lead ^ c ^ s1 ^ t ^ s2 ^ l ^ trail) );
        ( 1,
          oneofl
            [ ""; " "; "\t"; "\r"; "\012"; "1 2"; "1 2 3 4"; "slo-samples 1" ]
        );
      ])

(* A body of mutated lines, most behind a canonical run that ends up to
   200 bytes before the first chunk boundary, so the mutated lines
   straddle it. *)
let gen_scanner_body =
  QCheck2.Gen.(
    let* header =
      frequency
        [
          (12, return "slo-samples 1\n");
          ( 1,
            oneofl
              [ " slo-samples 1\t\r\n"; "\n\nslo-samples 1\n";
                "slo-samples 2\n"; "" ] );
        ]
    and* pad =
      frequency [ (3, map Option.some (int_range 0 200)); (1, return None) ]
    and* lines =
      list_size (int_range 0 24)
        (pair gen_sample_line (oneofl [ "\n"; "\n"; "\r\n" ]))
    and* final_eol = bool in
    let buf = Buffer.create (2 * chunk) in
    Buffer.add_string buf header;
    Option.iter
      (fun short -> ignore (add_records buf ~ln:0 (chunk - short)))
      pad;
    List.iteri
      (fun i (line, eol) ->
        Buffer.add_string buf line;
        if final_eol || i < List.length lines - 1 then
          Buffer.add_string buf eol)
      lines;
    return (Buffer.contents buf))

let prop_scanner_equals_line_parser =
  QCheck2.Test.make ~name:"scanner (string and file) = line parser" ~count:150
    ~print:(fun body ->
      (* the tail: the mutated lines *)
      let n = String.length body in
      String.escaped (String.sub body (max 0 (n - 600)) (min n 600)))
    gen_scanner_body
    (fun body ->
      let s, f, r = read_three body in
      (s = r && f = r)
      || QCheck2.Test.fail_reportf "string: %s, file: %s, reference: %s"
           (show s) (show f) (show r))

(* ------------------------------------------------------------------ *)
(* Binary columnar store: "slo-samples-bin 1" *)

module Store = Slo_concurrency.Sample_store
module CC = Slo_concurrency.Code_concurrency

let with_tmp ext f =
  let path = Filename.temp_file "slo_test" ext in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let gen_sample_list =
  QCheck2.Gen.(
    list_size (int_bound 60)
      (let* cpu = int_range 0 127 in
       let* itc = int_range (-1_000_000) 1_000_000 in
       let* line = int_range 0 10_000 in
       return { Sample.cpu; itc; line }))

let test_bin_roundtrip () =
  let samples =
    [ { Sample.cpu = 0; itc = -100; line = 1 };
      { Sample.cpu = 3; itc = 0; line = 2 };
      { Sample.cpu = 1; itc = 250; line = 7 } ]
  in
  with_tmp ".bin" (fun path ->
      Persist.save_samples_bin ~path (Store.of_samples samples);
      Alcotest.(check bool) "round trip" true
        (Store.to_samples (Persist.load_samples_bin ~path) = samples))

let test_bin_empty_roundtrip () =
  with_tmp ".bin" (fun path ->
      Persist.save_samples_bin ~path (Store.of_samples []);
      check_int "empty store" 0 (Store.length (Persist.load_samples_bin ~path)))

let test_store_of_samples_file () =
  with_tmp ".samples" (fun path ->
      let samples =
        List.init 50 (fun i ->
            { Sample.cpu = i mod 8; itc = (i * 37) - 500; line = i mod 13 })
      in
      Persist.save_samples ~path samples;
      Alcotest.(check bool) "store = parsed list" true
        (Store.to_samples (Persist.store_of_samples_file ~path) = samples))

(* Allocation budget on the text store path: the scanner hands each
   record's fields to the store builder as three ints, so 200 000 samples
   cost the read buffer and the builder's column blocks, about 0.05 words
   per sample, counted minor + major - promoted. A sample record per
   line, as the iterating reader hands out, came to 4.0 words per sample
   on this path. *)
let test_store_of_samples_file_alloc () =
  let n = 200_000 in
  let b = Store.builder ~capacity:n () in
  for i = 0 to n - 1 do
    Store.append b ~cpu:(i * 7 mod 64) ~itc:(4 * i) ~line:(i * 13 mod 80)
  done;
  with_tmp ".samples" (fun path ->
      Persist.save_store_text ~path (Store.build b);
      let words () =
        let minor, promoted, major = Gc.counters () in
        minor +. major -. promoted
      in
      Gc.full_major ();
      let before = words () in
      let st = Persist.store_of_samples_file ~path in
      let per_sample = (words () -. before) /. float_of_int n in
      check_int "length" n (Store.length st);
      if per_sample >= 1.0 then
        Alcotest.failf
          "Persist.store_of_samples_file allocated %.2f words per sample \
           (bound 1)"
          per_sample)

let expect_bin_error what bytes =
  with_tmp ".bin" (fun path ->
      write_raw path bytes;
      match Persist.load_samples_bin ~path with
      | exception Persist.Bin_error _ -> ()
      | _ -> Alcotest.fail ("loaded " ^ what))

let test_bin_corruption_rejected () =
  (* Build a valid 2-sample image, then break it one field at a time:
     every fixture must raise Bin_error, never a crash or a silent
     misparse. *)
  let valid =
    with_tmp ".bin" (fun path ->
        Persist.save_samples_bin ~path
          (Store.of_samples
             [ { Sample.cpu = 1; itc = 2; line = 3 };
               { Sample.cpu = 4; itc = 5; line = 6 } ]);
        read_raw path)
  in
  check_int "fixture size" (Persist.samples_bin_header_size + 32)
    (String.length valid);
  let set i c =
    let b = Bytes.of_string valid in
    Bytes.set b i c;
    Bytes.to_string b
  in
  expect_bin_error "empty file" "";
  expect_bin_error "short header" (String.sub valid 0 16);
  expect_bin_error "bad magic" (set 0 'X');
  expect_bin_error "bad itc width" (set 18 '\004');
  expect_bin_error "bad cpu width" (set 19 '\008');
  expect_bin_error "corrupt endian marker" (set 21 '\000');
  expect_bin_error "foreign endianness"
    (set 21 (if Sys.big_endian then '\001' else '\002'));
  expect_bin_error "truncated columns"
    (String.sub valid 0 (String.length valid - 1));
  expect_bin_error "trailing bytes" (valid ^ "x");
  expect_bin_error "count beyond payload" (set 22 '\003')

(* Regression: the size check computed 32 + 16 * count in Int64, which
   wraps past 2^59 samples. A 32-byte file whose header claims 2^60
   samples, and a 48-byte one claiming 2^60 + 1, passed it, and
   [Unix.map_file] then raised [Unix_error], which no caller catches. *)
let test_bin_count_overflow () =
  let image count extra =
    let b = Bytes.make (Persist.samples_bin_header_size + extra) '\000' in
    Bytes.blit_string Persist.samples_bin_magic 0 b 0
      (String.length Persist.samples_bin_magic);
    Bytes.set b 18 '\008';
    Bytes.set b 19 '\004';
    Bytes.set b 20 '\004';
    Bytes.set b 21 (if Sys.big_endian then '\002' else '\001');
    Bytes.set_int64_le b 22 count;
    Bytes.to_string b
  in
  let two_60 = Int64.shift_left 1L 60 in
  expect_bin_error "2^60 samples in 32 bytes" (image two_60 0);
  expect_bin_error "2^60 + 1 samples in 48 bytes"
    (image (Int64.add two_60 1L) 16)

let prop_bin_roundtrip =
  QCheck2.Test.make ~name:"binary save/load round trip" ~count:60
    gen_sample_list (fun samples ->
      with_tmp ".bin" (fun path ->
          Persist.save_samples_bin ~path (Store.of_samples samples);
          Store.to_samples (Persist.load_samples_bin ~path) = samples))

let prop_text_bin_text_identical =
  (* Canonical text -> binary -> text must reproduce the bytes exactly:
     the converters are lossless in both directions. *)
  QCheck2.Test.make ~name:"text -> binary -> text is byte-identical"
    ~count:40 gen_sample_list (fun samples ->
      with_tmp ".samples" (fun t1 ->
          with_tmp ".bin" (fun b ->
              with_tmp ".samples" (fun t2 ->
                  Persist.save_store_text ~path:t1 (Store.of_samples samples);
                  let n1 = Persist.convert_samples_to_bin ~src:t1 ~dst:b in
                  let n2 = Persist.convert_samples_to_text ~src:b ~dst:t2 in
                  n1 = List.length samples && n2 = n1
                  && read_raw t1 = read_raw t2))))

let prop_bin_cc_matches_list =
  (* End-to-end differential: binary file -> mapped store -> CC must
     equal CC over the in-memory store of the same sample list. *)
  QCheck2.Test.make ~name:"binary -> store -> CC = list -> store -> CC"
    ~count:40
    QCheck2.Gen.(pair (int_range 1 300) gen_sample_list)
    (fun (interval, samples) ->
      with_tmp ".bin" (fun path ->
          Persist.save_samples_bin ~path (Store.of_samples samples);
          let st = Persist.load_samples_bin ~path in
          CC.pairs (CC.compute ~interval st)
          = CC.pairs (CC.compute ~interval (Store.of_samples samples))))

(* ------------------------------------------------------------------ *)
(* Crash-safe saves: write-to-tempfile-then-rename *)

(* Persist's temp files are ".<base>.tmp.<pid>.<n>" next to the
   destination: after any save — crashed or clean — none may remain for
   this destination. *)
let no_stray_temps path =
  let marker = "." ^ Filename.basename path ^ ".tmp." in
  let has_prefix f =
    String.length f >= String.length marker
    && String.sub f 0 (String.length marker) = marker
  in
  Array.for_all
    (fun f -> not (has_prefix f))
    (Sys.readdir (Filename.dirname path))

let test_atomic_write_survives_crash () =
  with_tmp ".txt" (fun path ->
      write_raw path "precious";
      (* the body writes some bytes, flushes, then dies mid-save: the
         destination must keep its old contents and the temp file must
         be cleaned up. Pre-fix, save wrote the destination in place and
         this test observed the truncated partial write. *)
      (match
         Persist.atomic_write ~path (fun oc ->
             output_string oc "parti";
             flush oc;
             failwith "power cut")
       with
      | () -> Alcotest.fail "atomic_write should re-raise"
      | exception Failure _ -> ());
      Alcotest.(check string)
        "old contents survive a crashed save" "precious" (read_raw path);
      Alcotest.(check bool)
        "no temp file left behind" true (no_stray_temps path);
      (* a successful save still lands *)
      Persist.atomic_write ~path (fun oc -> output_string oc "fresh");
      Alcotest.(check string) "clean save replaces" "fresh" (read_raw path))

let test_atomic_write_fd_survives_crash () =
  with_tmp ".bin" (fun path ->
      write_raw path "precious";
      (match
         Persist.atomic_write_fd ~path (fun fd ->
             ignore (Unix.write_substring fd "xx" 0 2);
             failwith "power cut")
       with
      | () -> Alcotest.fail "atomic_write_fd should re-raise"
      | exception Failure _ -> ());
      Alcotest.(check string)
        "old contents survive a crashed fd save" "precious" (read_raw path);
      Alcotest.(check bool)
        "no temp file left behind" true (no_stray_temps path))

let test_failed_save_leaves_old_file () =
  (* A real saver through the same guarantee: a serve-snapshot save that
     dies on an over-large count leaves the previous file intact. *)
  with_tmp ".bin" (fun path ->
      let st = Store.of_samples [ { Sample.cpu = 1; itc = 2; line = 3 } ] in
      Persist.save_samples_bin ~path st;
      let before = read_raw path in
      let tbl = Sample.empty_table () in
      Sample.count_n tbl ~cpu:0 ~line:1 ~count:Persist.max_count;
      Sample.count_n tbl ~cpu:0 ~line:1 ~count:1;
      (match
         Persist.save_serve_snapshot ~path ~interval:10 ~window:4 ~version:1
           ~newest:0 [ (0, tbl) ]
       with
      | () -> Alcotest.fail "count over 2^53 must be rejected"
      | exception Persist.Bin_error _ -> ());
      Alcotest.(check string)
        "failed snapshot save leaves the old file" before (read_raw path);
      Alcotest.(check bool)
        "no temp file left behind" true (no_stray_temps path))

(* ------------------------------------------------------------------ *)
(* Serve snapshots: "slo-serve-snapshot 1" *)

let snap_tables () =
  Tutil.bin_idx ~interval:10
    (List.map
       (fun (cpu, itc, line) -> { Sample.cpu; itc; line })
       [ (0, 50, 1); (1, 52, 2); (0, 55, 1); (2, 63, 4); (1, 68, 2) ])

let test_serve_snapshot_roundtrip () =
  with_tmp ".snap" (fun p1 ->
      with_tmp ".snap" (fun p2 ->
          let tables = snap_tables () in
          Persist.save_serve_snapshot ~path:p1 ~interval:10 ~window:4
            ~version:3 ~newest:6 tables;
          let snap = Persist.load_serve_snapshot ~path:p1 in
          check_int "interval" 10 snap.Persist.snap_interval;
          check_int "window" 4 snap.Persist.snap_window;
          check_int "version" 3 snap.Persist.snap_version;
          check_int "newest" 6 snap.Persist.snap_newest;
          Alcotest.(check bool)
            "tables reproduced" true
            (Tutil.canon snap.Persist.snap_tables = Tutil.canon tables);
          (* canonical row order: save(load(x)) is byte-identical *)
          Persist.save_serve_snapshot ~path:p2 ~interval:10 ~window:4
            ~version:3 ~newest:6 snap.Persist.snap_tables;
          Alcotest.(check bool)
            "snapshot bytes reproduced" true (read_raw p1 = read_raw p2)))

let expect_snap_error what bytes =
  with_tmp ".snap" (fun path ->
      write_raw path bytes;
      match Persist.load_serve_snapshot ~path with
      | exception Persist.Bin_error _ -> ()
      | _ -> Alcotest.fail ("loaded " ^ what))

let test_serve_snapshot_corruption_rejected () =
  let valid =
    with_tmp ".snap" (fun path ->
        Persist.save_serve_snapshot ~path ~interval:10 ~window:4 ~version:3
          ~newest:6 (snap_tables ());
        read_raw path)
  in
  (* 5 live (cpu, line) rows across 2 intervals -> 64 + 24 * 4 bytes:
     (0,1) idx 5 count 2; (1,2) idx 5; (2,4) idx 6; (1,2) idx 6 *)
  check_int "fixture size" (Persist.serve_snapshot_header_size + (24 * 4))
    (String.length valid);
  let set i c =
    let b = Bytes.of_string valid in
    Bytes.set b i c;
    Bytes.to_string b
  in
  expect_snap_error "empty file" "";
  expect_snap_error "short header" (String.sub valid 0 32);
  expect_snap_error "bad magic" (set 0 'X');
  expect_snap_error "foreign endianness"
    (set 21 (if Sys.big_endian then '\001' else '\002'));
  expect_snap_error "truncated rows"
    (String.sub valid 0 (String.length valid - 1));
  expect_snap_error "trailing bytes" (valid ^ "x");
  expect_snap_error "row count beyond payload" (set 24 '\255');
  expect_snap_error "zero interval" (set 32 '\000');
  expect_snap_error "zero window" (set 40 '\000');
  (* first row's idx lives at offset 64: push it outside the window *)
  expect_snap_error "row outside the window" (set 64 '\001')

(* The writer's bytes, pinned by digest for tables over 4 intervals,
   5 cpus and 7 lines. The round trip above only holds the writer to
   itself; this holds it to the canonical (idx, line, cpu) row order and
   column layout. Columns are in host byte order, and the digest is of
   the little-endian file. *)
let test_serve_snapshot_golden () =
  if not Sys.big_endian then begin
    let x = ref 7 in
    let tables =
      Tutil.bin_idx ~interval:10
        (List.init 300 (fun _ ->
             x := ((!x * 1103515245) + 12345) land 0x7FFF_FFFF;
             { Sample.cpu = !x mod 5; itc = 20 + ((!x lsr 8) mod 40);
               line = 3 + ((!x lsr 16) mod 7) }))
    in
    with_tmp ".snap" (fun path ->
        Persist.save_serve_snapshot ~path ~interval:10 ~window:4 ~version:2
          ~newest:5 tables;
        check_int "rows" 123
          ((String.length (read_raw path)
           - Persist.serve_snapshot_header_size)
          / 24);
        Alcotest.(check string)
          "snapshot digest" "212ae6126e64713328500bd172046538"
          (Digest.to_hex (Digest.file path)))
  end

(* Regression: each row's count was checked against 2^53 but their sum
   was not, so 512 rows of 2^53 in one interval loaded with a wrapped
   negative sample total and the interval silently vanished. *)
let test_serve_snapshot_count_sum () =
  let n = 512 in
  let size = Persist.serve_snapshot_header_size + (24 * n) in
  let file = Bytes.make size '\000' in
  Bytes.blit_string Persist.serve_snapshot_magic 0 file 0
    (String.length Persist.serve_snapshot_magic);
  Bytes.set file 21 (if Sys.big_endian then '\002' else '\001');
  Bytes.set_int64_le file 24 (Int64.of_int n);
  Bytes.set_int64_le file 32 10L (* interval *);
  Bytes.set_int64_le file 40 4L (* window; version and newest stay 0 *);
  let col k = Persist.serve_snapshot_header_size + (k * n) in
  for i = 0 to n - 1 do
    (* idx 0, line 0, cpu i: strictly ascending rows *)
    Bytes.set_int64_ne file (col 8 + (8 * i)) (Int64.of_int Persist.max_count);
    Bytes.set_int32_ne file (col 16 + (4 * i)) (Int32.of_int i)
  done;
  with_tmp ".snap" (fun path ->
      write_raw path (Bytes.to_string file);
      match Persist.load_serve_snapshot ~path with
      | exception Persist.Bin_error msg ->
        Alcotest.(check bool)
          ("error names row 1: " ^ msg) true
          (Tutil.contains msg "row 1:")
      | snap ->
        Alcotest.failf "loaded a count sum over 2^53 (%d rows)"
          (List.length snap.Persist.snap_tables));
  let tbl = Sample.empty_table () in
  Sample.count_n tbl ~cpu:0 ~line:1 ~count:Persist.max_count;
  Sample.count_n tbl ~cpu:1 ~line:1 ~count:1;
  with_tmp ".snap" (fun path ->
      match
        Persist.save_serve_snapshot ~path ~interval:10 ~window:4 ~version:0
          ~newest:0 [ (0, tbl) ]
      with
      | exception Persist.Bin_error _ -> ()
      | () -> Alcotest.fail "saved a count sum over 2^53")

(* The snapshot loader's size check had the same wrap: 64 + 24 * 2^61
   is 64 in 64 bits, so a bare header claiming 2^61 rows reached
   [Unix.map_file]. *)
let test_serve_snapshot_row_count_overflow () =
  let file = Bytes.make Persist.serve_snapshot_header_size '\000' in
  Bytes.blit_string Persist.serve_snapshot_magic 0 file 0
    (String.length Persist.serve_snapshot_magic);
  Bytes.set file 21 (if Sys.big_endian then '\002' else '\001');
  Bytes.set_int64_le file 24 (Int64.shift_left 1L 61);
  Bytes.set_int64_le file 32 10L (* interval *);
  Bytes.set_int64_le file 40 4L (* window *);
  expect_snap_error "2^61 rows in 64 bytes" (Bytes.to_string file)

(* Window membership near min_int: the save and load checks must not
   compute a wrapped [newest - window]. *)
let test_serve_snapshot_min_int_window () =
  let tables =
    Tutil.bin_idx ~interval:1
      [ { Sample.cpu = 0; itc = min_int; line = 1 };
        { Sample.cpu = 1; itc = min_int + 1; line = 2 } ]
  in
  with_tmp ".snap" (fun path ->
      Persist.save_serve_snapshot ~path ~interval:1 ~window:4 ~version:0
        ~newest:(min_int + 1) tables;
      let snap = Persist.load_serve_snapshot ~path in
      Alcotest.(check bool)
        "tables reproduced" true
        (Tutil.canon snap.Persist.snap_tables = Tutil.canon tables))

(* Regression: the loader refused every interval below [min_int / interval]
   (rounded toward zero), but at an interval length that does not divide
   [min_int] the interval holding [min_int] is one below that, so a
   window fed [min_int] at interval 3 wrote a snapshot it could not
   load. The interval below it holds no itc: the writer refuses it, and
   so does the loader. *)
let test_serve_snapshot_min_int_interval () =
  let interval = 3 in
  let tables =
    Tutil.bin_idx ~interval
      [ { Sample.cpu = 0; itc = min_int; line = 1 };
        { Sample.cpu = 1; itc = min_int + 1; line = 2 } ]
  in
  let first = Sample.floor_div min_int interval in
  Alcotest.(check (list int))
    "two intervals" [ first; first + 1 ] (List.map fst tables);
  with_tmp ".snap" (fun path ->
      Persist.save_serve_snapshot ~path ~interval ~window:4 ~version:0
        ~newest:(first + 1) tables;
      let valid = read_raw path in
      let snap = Persist.load_serve_snapshot ~path in
      Alcotest.(check bool)
        "tables reproduced" true
        (Tutil.canon snap.Persist.snap_tables = Tutil.canon tables);
      let below = [ (first - 1, snd (List.hd tables)) ] in
      (match
         Persist.save_serve_snapshot ~path ~interval ~window:4 ~version:0
           ~newest:(first + 1) below
       with
      | () -> Alcotest.fail "saved an interval that holds no itc"
      | exception Invalid_argument _ -> ());
      (* the first row's idx column cell, moved one interval down *)
      let b = Bytes.of_string valid in
      Bytes.set_int64_ne b Persist.serve_snapshot_header_size
        (Int64.of_int (first - 1));
      expect_snap_error "an interval below min_int's" (Bytes.to_string b))

(* The writer is handed a list, which may be out of order, unlike the
   tables the loader rebuilds; it raises before it opens a file. In a
   directory that does not exist, opening would raise Sys_error or
   Unix_error instead, and an existing file is left as it was. *)
let test_serve_snapshot_unordered_rejected () =
  let one () =
    let tbl = Sample.empty_table () in
    Sample.count tbl ~cpu:0 ~line:1;
    tbl
  in
  let save path tables =
    Persist.save_serve_snapshot ~path ~interval:10 ~window:4 ~version:0
      ~newest:6 tables
  in
  let unordered =
    "Persist.save_serve_snapshot: interval indices not strictly ascending"
  in
  with_tmp ".snap" (fun path ->
      write_raw path "precious";
      let nowhere = Filename.concat (path ^ ".missing") "x.snap" in
      List.iter
        (fun (what, tables) ->
          List.iter
            (fun p ->
              Alcotest.check_raises what (Invalid_argument unordered)
                (fun () -> save p tables))
            [ path; nowhere ];
          Alcotest.(check string)
            (what ^ ": the old file is left") "precious" (read_raw path))
        [ ("descending", [ (6, one ()); (5, one ()) ]);
          ("repeated", [ (5, one ()); (5, one ()) ]);
          ("out of order later", [ (3, one ()); (5, one ()); (4, one ()) ]) ];
      Alcotest.check_raises "interval 0"
        (Invalid_argument "Persist.save_serve_snapshot: interval <= 0")
        (fun () ->
          Persist.save_serve_snapshot ~path:nowhere ~interval:0 ~window:4
            ~version:0 ~newest:6 [ (5, one ()) ]);
      Alcotest.(check bool)
        "no temp file left behind" true (no_stray_temps path))

let suites =
  [
    ( "persist",
      [
        Alcotest.test_case "counts round trip" `Quick test_counts_roundtrip;
        Alcotest.test_case "counts file" `Quick test_counts_file_roundtrip;
        Alcotest.test_case "parse errors" `Quick test_counts_parse_errors;
        Alcotest.test_case "malformed escapes rejected" `Quick
          test_malformed_escapes_rejected;
        Alcotest.test_case "negative counts rejected" `Quick
          test_negative_counts_rejected;
        Alcotest.test_case "kernel profile round trip" `Quick test_real_profile_roundtrip;
        Alcotest.test_case "count bounds (2^53 cap)" `Quick test_count_bounds;
        QCheck_alcotest.to_alcotest prop_adversarial_names_roundtrip;
        QCheck_alcotest.to_alcotest prop_encode_roundtrip;
      ] );
    ( "persist.text",
      [
        Alcotest.test_case "samples round trip" `Quick test_samples_roundtrip;
        Alcotest.test_case "samples file" `Quick test_samples_file_roundtrip;
        Alcotest.test_case "streaming reader" `Quick test_streaming_reader;
        Alcotest.test_case "streaming reader errors" `Quick
          test_streaming_reader_errors;
        Alcotest.test_case "identifier bounds (2^31-1 cap)" `Quick
          test_id_bounds;
        Alcotest.test_case "CRLF + missing final newline" `Quick
          test_crlf_and_final_newline;
        Alcotest.test_case "malformed record after the first chunk" `Quick
          test_error_after_chunk_boundary;
        Alcotest.test_case "lines longer than a chunk" `Quick
          test_line_longer_than_chunk;
        Alcotest.test_case "store_of_samples_file allocates < 1 word per sample"
          `Quick test_store_of_samples_file_alloc;
        QCheck_alcotest.to_alcotest prop_line_ending_differential;
        QCheck_alcotest.to_alcotest prop_streamed_equals_string_parse;
        QCheck_alcotest.to_alcotest prop_samples_roundtrip;
        QCheck_alcotest.to_alcotest prop_samples_signed_itc_roundtrip;
        QCheck_alcotest.to_alcotest prop_scanner_equals_line_parser;
      ] );
    ( "persist.bin",
      [
        Alcotest.test_case "binary round trip" `Quick test_bin_roundtrip;
        Alcotest.test_case "empty binary round trip" `Quick
          test_bin_empty_roundtrip;
        Alcotest.test_case "store_of_samples_file = load" `Quick
          test_store_of_samples_file;
        Alcotest.test_case "corrupted images rejected" `Quick
          test_bin_corruption_rejected;
        Alcotest.test_case "sample count past 2^59 rejected" `Quick
          test_bin_count_overflow;
        QCheck_alcotest.to_alcotest prop_bin_roundtrip;
        QCheck_alcotest.to_alcotest prop_text_bin_text_identical;
        QCheck_alcotest.to_alcotest prop_bin_cc_matches_list;
      ] );
    ( "persist.atomic",
      [
        Alcotest.test_case "crashed text save keeps old file" `Quick
          test_atomic_write_survives_crash;
        Alcotest.test_case "crashed fd save keeps old file" `Quick
          test_atomic_write_fd_survives_crash;
        Alcotest.test_case "failed snapshot save keeps old file" `Quick
          test_failed_save_leaves_old_file;
      ] );
    ( "persist.serve-snapshot",
      [
        Alcotest.test_case "round trip is byte-identical" `Quick
          test_serve_snapshot_roundtrip;
        Alcotest.test_case "corrupted images rejected" `Quick
          test_serve_snapshot_corruption_rejected;
        Alcotest.test_case "golden bytes" `Quick test_serve_snapshot_golden;
        Alcotest.test_case "count sum over 2^53 rejected" `Quick
          test_serve_snapshot_count_sum;
        Alcotest.test_case "row count past 2^58 rejected" `Quick
          test_serve_snapshot_row_count_overflow;
        Alcotest.test_case "window near min_int" `Quick
          test_serve_snapshot_min_int_window;
        Alcotest.test_case "the interval holding min_int at interval 3"
          `Quick test_serve_snapshot_min_int_interval;
        Alcotest.test_case "unordered tables rejected before writing" `Quick
          test_serve_snapshot_unordered_rejected;
      ] );
  ]
