(* Tests for the observability subsystem: the JSON writer/parser and the
   metrics registry (counters, gauges, histograms, span timers). *)

module Json = Slo_obs.Json
module Obs = Slo_obs.Obs

let check_str = Alcotest.(check string)
let check_int = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* JSON writer *)

let test_json_escaping () =
  check_str "quote and backslash" "\"a\\\"b\\\\c\""
    (Json.escape_string "a\"b\\c");
  check_str "newline/tab" "\"a\\nb\\tc\"" (Json.escape_string "a\nb\tc");
  check_str "control byte" "\"\\u0001\"" (Json.escape_string "\x01");
  check_str "utf8 passes through" "\"\xc3\xa9\"" (Json.escape_string "\xc3\xa9")

let test_json_render () =
  check_str "nested" "{\"a\":[1,2.5,true,null],\"b\":{\"c\":\"d\"}}"
    (Json.to_string
       (Json.Obj
          [
            ( "a",
              Json.List
                [ Json.Int 1; Json.Float 2.5; Json.Bool true; Json.Null ] );
            ("b", Json.Obj [ ("c", Json.Str "d") ]);
          ]));
  check_str "integral float keeps a dot" "2.0" (Json.to_string (Json.Float 2.0));
  check_str "nan is null" "null" (Json.to_string (Json.Float Float.nan));
  check_str "inf is null" "[null]"
    (Json.to_string (Json.List [ Json.Float infinity ]));
  check_str "empty containers" "[{},[]]"
    (Json.to_string (Json.List [ Json.Obj []; Json.List [] ]))

(* ------------------------------------------------------------------ *)
(* JSON parser *)

let test_json_parse () =
  (match Json.of_string " {\"a\": [1, -2.5e0, \"x\\u0041\"], \"b\": null} " with
  | Error e -> Alcotest.fail e
  | Ok j -> (
    Alcotest.(check bool) "member b" true (Json.member j "b" = Some Json.Null);
    Alcotest.(check bool) "missing member" true (Json.member j "zzz" = None);
    match Json.member j "a" with
    | Some (Json.List [ Json.Int 1; Json.Float f; Json.Str s ]) ->
      checkf "negative float" (-2.5) f;
      check_str "unicode escape" "xA" s
    | _ -> Alcotest.fail "wrong structure under \"a\""));
  (match Json.of_string "\"caf\\u00e9\"" with
  | Ok (Json.Str s) -> check_str "utf8 from \\u" "caf\xc3\xa9" s
  | _ -> Alcotest.fail "unicode string");
  (* an escaped surrogate pair is one astral scalar, U+1F600 *)
  match Json.of_string "\"\\ud83d\\ude00\"" with
  | Ok (Json.Str s) -> check_str "utf8 from a surrogate pair" "\xf0\x9f\x98\x80" s
  | _ -> Alcotest.fail "surrogate pair"

let test_json_parse_errors () =
  let expect_error s =
    match Json.of_string s with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail ("parsed invalid JSON: " ^ s)
  in
  expect_error "";
  expect_error "{";
  expect_error "[1,";
  expect_error "{\"a\"}";
  expect_error "\"unterminated";
  expect_error "\"bad \\u00g1\"";
  expect_error "nul";
  expect_error "{} garbage";
  expect_error "1 2";
  expect_error "\"\\ud800\"";
  expect_error "\"\\udc00\"";
  (* a high surrogate followed by a non-low escape; the error names the
     byte where the pair starts *)
  match Json.of_string "[\"\\ud83d\\u0041\"]" with
  | Error e ->
    check_str "surrogate error offset" "unpaired surrogate in \\u escape at byte 2" e
  | Ok _ -> Alcotest.fail "parsed an unpaired surrogate"

let gen_json : Json.t QCheck2.Gen.t =
  QCheck2.Gen.(
    let key = string_size ~gen:(char_range 'a' 'z') (int_range 1 6) in
    let leaf =
      oneof
        [
          return Json.Null;
          map (fun b -> Json.Bool b) bool;
          map (fun i -> Json.Int i) (int_range (-1_000_000) 1_000_000);
          map (fun f -> Json.Float f) (float_range (-1e6) 1e6);
          map (fun s -> Json.Str s) (string_size ~gen:printable (int_range 0 8));
        ]
    in
    sized_size (int_range 0 3)
    @@ fix (fun self n ->
           if n <= 0 then leaf
           else
             oneof
               [
                 leaf;
                 map
                   (fun l -> Json.List l)
                   (list_size (int_range 0 4) (self (n - 1)));
                 map
                   (fun kvs -> Json.Obj kvs)
                   (list_size (int_range 0 4) (pair key (self (n - 1))));
               ]))

let prop_json_roundtrip =
  QCheck2.Test.make ~name:"of_string (to_string j) = Ok j" ~count:300 gen_json
    (fun j -> Json.of_string (Json.to_string j) = Ok j)

let prop_json_pretty_roundtrip =
  QCheck2.Test.make ~name:"of_string (pretty j) = Ok j" ~count:300 gen_json
    (fun j -> Json.of_string (Json.pretty j) = Ok j)

(* ------------------------------------------------------------------ *)
(* Registry: counters, gauges, histograms *)

let test_counters () =
  let r = Obs.create () in
  Obs.incr ~r "c";
  Obs.incr ~r ~by:4 "c";
  check_int "accumulated" 5 (Obs.counter ~r "c");
  check_int "absent counter is 0" 0 (Obs.counter ~r "nope");
  Alcotest.check_raises "negative increment"
    (Invalid_argument "Obs.incr: negative increment") (fun () ->
      Obs.incr ~r ~by:(-1) "c");
  (* registries are isolated: nothing leaked into a fresh one *)
  check_int "isolation" 0 (Obs.counter ~r:(Obs.create ()) "c")

let test_gauges () =
  let r = Obs.create () in
  Alcotest.(check (option (float 0.0))) "absent" None (Obs.gauge ~r "g");
  Obs.set_gauge ~r "g" 1.5;
  Obs.set_gauge ~r "g" 2.5;
  Alcotest.(check (option (float 1e-9))) "last write wins" (Some 2.5)
    (Obs.gauge ~r "g")

let test_histogram_summary () =
  let r = Obs.create () in
  List.iter (Obs.observe ~r "h") [ 3.0; 1.0; 2.0; 4.0 ];
  match Obs.histogram ~r "h" with
  | None -> Alcotest.fail "histogram missing"
  | Some s ->
    check_int "count" 4 s.Obs.count;
    checkf "sum" 10.0 s.Obs.sum;
    checkf "min" 1.0 s.Obs.min_v;
    checkf "max" 4.0 s.Obs.max_v;
    checkf "mean" 2.5 s.Obs.mean;
    checkf "p50 (nearest rank)" 3.0 s.Obs.p50;
    checkf "p99" 4.0 s.Obs.p99

(* ------------------------------------------------------------------ *)
(* Span timers *)

let test_now_monotone () =
  let prev = ref (Obs.now ()) in
  for _ = 1 to 1000 do
    let t = Obs.now () in
    Alcotest.(check bool) "non-decreasing" true (t >= !prev);
    prev := t
  done

let test_time_records () =
  let r = Obs.create () in
  let v = Obs.time ~r "span" (fun () -> 42) in
  check_int "result passed through" 42 v;
  (match Obs.histogram ~r "span" with
  | Some s ->
    check_int "one sample" 1 s.Obs.count;
    Alcotest.(check bool) "duration non-negative" true (s.Obs.min_v >= 0.0)
  | None -> Alcotest.fail "span not recorded");
  (* the duration is recorded even when the thunk raises *)
  (try Obs.time ~r "span" (fun () -> failwith "boom") with Failure _ -> ());
  match Obs.histogram ~r "span" with
  | Some s -> check_int "recorded on raise" 2 s.Obs.count
  | None -> Alcotest.fail "span lost on raise"

(* ------------------------------------------------------------------ *)
(* Reset, snapshot *)

let test_reset_and_to_json () =
  let r = Obs.create () in
  Obs.incr ~r "c";
  Obs.set_gauge ~r "g" 1.0;
  Obs.observe ~r "h" 2.0;
  let j = Obs.to_json ~r () in
  Alcotest.(check (list string)) "top-level members"
    [ "counters"; "gauges"; "histograms" ]
    (match j with Json.Obj kvs -> List.map fst kvs | _ -> []);
  (* the snapshot is valid JSON that parses back *)
  (match Json.of_string (Json.pretty j) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Obs.reset ~r ();
  check_int "counter reset" 0 (Obs.counter ~r "c");
  Alcotest.(check bool) "gauge reset" true (Obs.gauge ~r "g" = None);
  Alcotest.(check bool) "histogram reset" true (Obs.histogram ~r "h" = None)

(* A fresh registry's snapshot holds the three metric kinds, each empty. *)
let test_empty_to_json () =
  Alcotest.(check bool) "three empty members" true
    (Obs.to_json ~r:(Obs.create ()) ()
    = Json.Obj
        [ ("counters", Json.Obj []); ("gauges", Json.Obj []); ("histograms", Json.Obj []) ])

let prop_counter_sums_order_independent =
  QCheck2.Test.make
    ~name:"counter total = sum of increments in any order" ~count:100
    QCheck2.Gen.(list_size (int_range 0 40) (int_range 0 50))
    (fun bys ->
      let r1 = Obs.create () and r2 = Obs.create () in
      List.iter (fun by -> Obs.incr ~r:r1 ~by "c") bys;
      List.iter (fun by -> Obs.incr ~r:r2 ~by "c") (List.rev bys);
      Obs.counter ~r:r1 "c" = List.fold_left ( + ) 0 bys
      && Obs.counter ~r:r1 "c" = Obs.counter ~r:r2 "c")

(* ------------------------------------------------------------------ *)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_json_roundtrip; prop_json_pretty_roundtrip;
      prop_counter_sums_order_independent;
    ]

let suites =
  [
    ( "obs.json",
      [
        Alcotest.test_case "escaping" `Quick test_json_escaping;
        Alcotest.test_case "rendering" `Quick test_json_render;
        Alcotest.test_case "parsing" `Quick test_json_parse;
        Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
      ] );
    ( "obs.registry",
      [
        Alcotest.test_case "counters" `Quick test_counters;
        Alcotest.test_case "gauges" `Quick test_gauges;
        Alcotest.test_case "histogram summary" `Quick test_histogram_summary;
        Alcotest.test_case "now is monotone" `Quick test_now_monotone;
        Alcotest.test_case "span timer" `Quick test_time_records;
        Alcotest.test_case "reset + to_json" `Quick test_reset_and_to_json;
        Alcotest.test_case "empty to_json" `Quick test_empty_to_json;
      ] );
    ("obs.properties", props);
  ]
