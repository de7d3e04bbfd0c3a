(* Mutation fuzz over every reader: a valid input, a few random edits
   (deleted spans, inserted tokens and bytes, replaced bytes, duplicated
   spans), and the reader must either accept the mutant or reject it
   with its own named error. Any other exception escaping — [Failure],
   [Not_found], [Invalid_argument] — is a defect: the caller gets no
   location and no reason. The seed and counts are fixed, so the suite
   is deterministic. *)

module Lexer = Slo_ir.Lexer
module Parser = Slo_ir.Parser
module Typecheck = Slo_ir.Typecheck
module Persist = Slo_persist.Persist
module Json = Slo_obs.Json
module Sample = Slo_concurrency.Sample
module Store = Slo_concurrency.Sample_store
module Kernel = Slo_workload.Kernel
module Trap = Slo_workload.Trap

let clamp s pos = min pos (String.length s)

let delete s pos len =
  let pos = clamp s pos in
  let len = min len (String.length s - pos) in
  String.sub s 0 pos ^ String.sub s (pos + len) (String.length s - pos - len)

let insert s pos ins =
  let pos = clamp s pos in
  String.sub s 0 pos ^ ins ^ String.sub s pos (String.length s - pos)

let replace s pos c =
  if String.length s = 0 then s
  else
    let pos = min pos (String.length s - 1) in
    String.mapi (fun i x -> if i = pos then c else x) s

let duplicate s pos len =
  let pos = clamp s pos in
  let len = min len (String.length s - pos) in
  insert s pos (String.sub s pos len)

(* One to three edits of [src] at random positions; [palette] holds the
   strings worth inserting for this reader. *)
let mutants ~palette src =
  QCheck2.Gen.(
    let edit =
      let* pos = int_range 0 (String.length src) in
      frequency
        [
          (3, map (fun len s -> delete s pos len) (int_range 1 8));
          (3, map (fun ins s -> insert s pos ins) (oneofl palette));
          (2, map (fun c s -> replace s pos c) char);
          (1, map (fun len s -> duplicate s pos len) (int_range 1 32));
        ]
    in
    let* edits = list_size (int_range 1 3) edit in
    return (List.fold_left (fun s e -> e s) src edits))

(* [read] must return or raise one of the named errors [named] accepts. *)
let survives ~named read input =
  match read input with
  | _ -> true
  | exception e when named e -> true
  | exception e ->
    QCheck2.Test.fail_reportf "%s escaped on a %d-byte input"
      (Printexc.to_string e) (String.length input)

let fuzz ~name ~count ~palette ~named ~read src () =
  QCheck2.Test.check_exn
    ~rand:(Random.State.make [| 42 |])
    (QCheck2.Test.make ~name ~count (mutants ~palette src) (survives ~named read))

(* ------------------------------------------------------------------ *)

let minic_palette =
  [ "99999999999999999999"; "4611686018427387904"; "0"; "("; ")"; "{"; "}";
    ";"; ","; "->"; "*"; "/"; "%"; "["; "]"; "="; "struct "; "int "; "void ";
    "for "; "if "; "/*"; "//"; " "; "\n"; "@"; "a_flags"; "rand(" ]

let read_minic src = Typecheck.check (Parser.parse_program ~file:"fuzz.mc" src)

let minic_error = function
  | Lexer.Error _ | Parser.Error _ | Typecheck.Error _ -> true
  | _ -> false

let text_palette =
  [ "99999999999999999999"; "-1"; "0"; " "; "\t"; "\n"; "\r\n"; "x"; "#";
    ":"; "-"; "+"; "9223372036854775808" ]

let parse_error = function Persist.Parse_error _ -> true | _ -> false
let bin_error = function Persist.Bin_error _ -> true | _ -> false

let samples =
  List.init 40 (fun i ->
      { Sample.cpu = i mod 7; itc = (i * 997) - 5000; line = (i * 31) mod 113 })

let with_tmp f =
  let path = Filename.temp_file "slo-fuzz" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let samples_text () =
  with_tmp (fun path ->
      Persist.save_samples ~path samples;
      read_file path)

let samples_bin () =
  with_tmp (fun path ->
      Persist.save_samples_bin ~path (Store.of_samples samples);
      read_file path)

let write path bytes =
  Out_channel.with_open_bin path (fun oc -> output_string oc bytes)

let load_bin bytes =
  with_tmp (fun path ->
      write path bytes;
      Persist.load_samples_bin ~path)

(* Every mutant is read twice: as a string, and from a file through the
   chunked reader. *)
let read_samples text =
  (try ignore (Persist.samples_of_string text)
   with Persist.Parse_error _ -> ());
  with_tmp (fun path ->
      write path text;
      Persist.iter_samples_file ~path ignore)

let bin_palette =
  [ "\000"; "\001"; "\255"; "\255\255\255\255"; "\000\000\000\000";
    "\127\255\255\255\255\255\255\255"; "\128\000\000\000\000\000\000\000" ]

(* A serve snapshot of the samples folded into intervals 4..6, all inside
   its 4-interval window. *)
let serve_snapshot () =
  let tables =
    Tutil.bin_idx ~interval:10
      (List.map
         (fun s -> { s with Sample.itc = 40 + (abs s.Sample.itc mod 30) })
         samples)
  in
  with_tmp (fun path ->
      Persist.save_serve_snapshot ~path ~interval:10 ~window:4 ~version:3
        ~newest:6 tables;
      read_file path)

let load_snapshot bytes =
  with_tmp (fun path ->
      write path bytes;
      Persist.load_serve_snapshot ~path)

(* Nested objects and lists, every escape kind (a surrogate pair
   included) and integer, fractional and exponent numbers. *)
let json_doc =
  {|{"schema": 1, "name": "caf\u00e9 \"q\" \\ \/ \b\f\n\r\t \ud83d\ude00",
 "data": {"xs": [0, -17, 2.5, -0.125e-3, 6E+2, true, false, null],
          "nested": [{"a": {}}, [], {"b": [1, {"c": "x"}]}]}}|}

let json_palette =
  [ "\\u"; "\\ud800"; "\\udc00"; "\\u00"; "1e999"; "-"; "0"; "."; "e";
    "["; "]"; "{"; "}"; "\""; "\\"; ","; ":"; "null"; " " ]

(* The parser's errors are values: nothing may escape it at all. *)
let no_exception _ = false

let suites =
  [
    ( "robustness.fuzz",
      [
        Alcotest.test_case "minic: Kernel.source mutants raise only named errors"
          `Quick
          (fuzz ~name:"minic mutants" ~count:400 ~palette:minic_palette
             ~named:minic_error ~read:read_minic Kernel.source);
        Alcotest.test_case "counts text mutants raise only Parse_error" `Quick
          (fun () ->
            fuzz ~name:"counts mutants" ~count:300 ~palette:text_palette
              ~named:parse_error ~read:Persist.counts_of_string
              (Persist.counts_to_string (Trap.profile ()))
              ());
        Alcotest.test_case "samples text mutants raise only Parse_error" `Quick
          (fun () ->
            fuzz ~name:"samples mutants" ~count:300 ~palette:text_palette
              ~named:parse_error ~read:read_samples (samples_text ()) ());
        Alcotest.test_case "samples-bin mutants raise only Bin_error" `Quick
          (fun () ->
            fuzz ~name:"samples-bin mutants" ~count:200 ~palette:bin_palette
              ~named:bin_error ~read:load_bin (samples_bin ()) ());
        Alcotest.test_case "serve-snapshot mutants raise only Bin_error" `Quick
          (fun () ->
            fuzz ~name:"serve-snapshot mutants" ~count:300 ~palette:bin_palette
              ~named:bin_error ~read:load_snapshot (serve_snapshot ()) ());
        Alcotest.test_case "JSON mutants return only Ok/Error" `Quick
          (fuzz ~name:"JSON mutants" ~count:1000 ~palette:json_palette
             ~named:no_exception ~read:Json.of_string json_doc);
      ] );
  ]
