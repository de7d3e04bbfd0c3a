(* Tests for the coherence model checker: pinned reachable-state counts
   over the standard suite (drift detection), the broken-protocol mutation
   net with 1-minimal counterexample shrinking, trace-oracle agreement
   coverage, and config validation. *)

module Mc = Slo_sim.Modelcheck
module Coherence = Slo_sim.Coherence
module Obs = Slo_obs.Obs

let check_int = Alcotest.(check int)

(* Each standard config explored once, shared by the tests below. *)
let standard_reports =
  lazy (List.map (fun (cfg, pin) -> (cfg, pin, Mc.run cfg)) Mc.standard_suite)

(* The tentpole assertion: every standard config explores cleanly with the
   kernel conforming to the spec on every edge, and lands exactly on its
   pinned state count. Any semantic drift in the protocol fails here
   loudly. *)
let test_standard_suite () =
  List.iter
    (fun (cfg, pin, r) ->
      check_int
        (Printf.sprintf "%s: pinned state count" (Mc.config_name cfg))
        pin r.Mc.r_states;
      (* The alphabet is enabled everywhere, so the edge count is exactly
         states x actions — a second, independent drift tripwire. *)
      Alcotest.(check bool)
        (Printf.sprintf "%s: transitions = states x alphabet"
           (Mc.config_name cfg))
        true
        (r.Mc.r_transitions mod r.Mc.r_states = 0);
      Alcotest.(check bool)
        (Printf.sprintf "%s: explored beyond the initial state"
           (Mc.config_name cfg))
        true
        (r.Mc.r_max_depth >= 3 && r.Mc.r_max_frontier > 1))
    (Lazy.force standard_reports)

let test_suite_has_enough_configs () =
  Alcotest.(check bool)
    "at least 6 pinned (protocol x topology x k x m) configs" true
    (List.length Mc.standard_suite >= 6);
  (* Both protocols, both topologies, k = 3, and an evicting geometry are
     all represented. *)
  let has p = List.exists (fun (c, _) -> p c) Mc.standard_suite in
  Alcotest.(check bool) "has MOESI" true
    (has (fun c -> c.Mc.mc_protocol = Coherence.Moesi));
  Alcotest.(check bool) "has Superdome" true
    (has (fun c -> c.Mc.mc_topo = Mc.Superdome));
  Alcotest.(check bool) "has k=3" true (has (fun c -> c.Mc.mc_cpus = 3));
  Alcotest.(check bool) "has evicting config" true
    (has (fun c -> c.Mc.mc_capacity < c.Mc.mc_lines));
  Alcotest.(check bool) "has multi-level hierarchy" true
    (has (fun c -> c.Mc.mc_hierarchy <> None))

(* The oracle cross-check must actually run: on eviction-free configs
   every non-initial state's witness trace is replayed through
   Trace_oracle; on evicting configs the oracle's episode model
   legitimately differs and the cross-check is off. *)
let test_oracle_coverage () =
  List.iter
    (fun (cfg, _, r) ->
      if cfg.Mc.mc_capacity >= cfg.Mc.mc_lines then
        check_int
          (Printf.sprintf "%s: oracle checked every witness"
             (Mc.config_name cfg))
          (r.Mc.r_states - 1) r.Mc.r_oracle_traces
      else
        check_int
          (Printf.sprintf "%s: oracle off under eviction" (Mc.config_name cfg))
          0 r.Mc.r_oracle_traces)
    (Lazy.force standard_reports)

(* The mutation net: a deliberately broken protocol table must be caught,
   and the reported counterexample must be 1-minimal. *)
let test_mutation mutate expected_len () =
  let cfg = Mc.config () in
  match Mc.run ~mutate cfg with
  | _ -> Alcotest.fail "broken protocol explored without a violation"
  | exception Mc.Violation { vmsg; vtrace } ->
    Alcotest.(check bool) "violation message non-empty" true (vmsg <> "");
    check_int "counterexample minimized" expected_len (List.length vtrace);
    (* The shrunk trace still demonstrates the bug... *)
    Alcotest.(check bool) "shrunk trace still violates" true
      (Mc.spec_violation ~mutate cfg vtrace <> None);
    (* ...the unmutated protocol is clean on the same trace... *)
    Alcotest.(check (option string)) "healthy protocol passes the trace" None
      (Mc.spec_violation cfg vtrace);
    (* ...and no single step can be removed (1-minimality). *)
    List.iteri
      (fun i _ ->
        let sub = List.filteri (fun j _ -> j <> i) vtrace in
        Alcotest.(check (option string))
          (Printf.sprintf "dropping step %d no longer violates" i)
          None
          (Mc.spec_violation ~mutate cfg sub))
      vtrace

(* Healthy protocol, same entry point as the mutation tests: the violation
   predicate itself reports nothing on a hand-written sharing trace. *)
let test_healthy_trace_clean () =
  let cfg = Mc.config () in
  let t w cpu line off = { Mc.v_cpu = cpu; v_line = line; v_off = off; v_write = w } in
  let trace =
    [
      t true 0 0 0; t false 1 0 8; t true 1 0 8; t false 0 0 0;
      t true 0 1 0; t false 1 1 0; t true 1 1 8;
    ]
  in
  Alcotest.(check (option string)) "no violation" None (Mc.spec_violation cfg trace)

let test_validation () =
  let raises cfg =
    match Mc.run cfg with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "LRU-observable geometry rejected" true
    (raises (Mc.config ~lines:2 ~capacity:2 ~ways:2 ~cpus:2 ()
             |> fun c -> { c with Mc.mc_lines = 3 }));
  Alcotest.(check bool) "LRU-observable L1 geometry rejected" true
    (raises
       (Mc.config ~lines:3 ~ways:1
          ~hierarchy:
            {
              Coherence.h_l1_lines = 2;
              h_l1_ways = None;
              h_llc_lines = 1;
              h_llc_ways = None;
            }
          ()));
  Alcotest.(check bool) "oversized packed state rejected" true
    (raises (Mc.config ~cpus:8 ~lines:2 ~capacity:2 ~ways:1 ()));
  Alcotest.(check bool) "offset past line end rejected" true
    (raises (Mc.config ~offsets:[ 0; 126 ] ()));
  Alcotest.(check bool) "single CPU rejected" true
    (raises (Mc.config ~cpus:1 ()));
  Alcotest.(check bool) "runaway guard trips" true
    (match Mc.run ~max_states:3 (Mc.config ()) with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_obs_counters () =
  let runs0 = Obs.counter "sim.mc.runs" in
  let states0 = Obs.counter "sim.mc.states" in
  let r = Mc.run (Mc.config ~cpus:3 ~lines:1 ~capacity:1 ~ways:1 ()) in
  check_int "sim.mc.runs bumped" (runs0 + 1) (Obs.counter "sim.mc.runs");
  check_int "sim.mc.states bumped by the run" (states0 + r.Mc.r_states)
    (Obs.counter "sim.mc.states");
  Alcotest.(check bool) "depth gauge set" true
    (Obs.gauge "sim.mc.depth" <> None)

let suites =
  [
    ( "sim.mc.standard",
      [
        Alcotest.test_case "pinned state counts hold" `Quick test_standard_suite;
        Alcotest.test_case "suite shape (>= 6 configs, both protocols)" `Quick
          test_suite_has_enough_configs;
      ] );
    ( "sim.mc.mutation",
      [
        Alcotest.test_case "M survives a remote read: caught, 2-step witness"
          `Quick
          (test_mutation Mc.Read_keeps_modified 2);
        Alcotest.test_case "skipped invalidation: caught, 2-step witness"
          `Quick
          (test_mutation Mc.Skip_last_invalidation 2);
        Alcotest.test_case "healthy trace is clean" `Quick
          test_healthy_trace_clean;
      ] );
    ( "sim.mc.oracle",
      [ Alcotest.test_case "trace-oracle agreement coverage" `Quick test_oracle_coverage ]
    );
    ( "sim.mc.guard",
      [
        Alcotest.test_case "config validation" `Quick test_validation;
        Alcotest.test_case "obs counters" `Quick test_obs_counters;
      ] );
  ]
