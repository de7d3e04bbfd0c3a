module Parser = Slo_ir.Parser
module Typecheck = Slo_ir.Typecheck

(* The memo is read from worker domains (every parallel simulator run and
   FLG build starts from a workload's program), so it must be domain-safe:
   a mutex both avoids duplicate parses and gives the publication ordering
   a plain ref lacks under the OCaml 5 memory model. *)
let memo ~file source =
  let memo = ref None in
  let m = Mutex.create () in
  fun () ->
    Mutex.protect m (fun () ->
        match !memo with
        | Some p -> p
        | None ->
          let p = Typecheck.check (Parser.parse_program ~file source) in
          memo := Some p;
          p)
