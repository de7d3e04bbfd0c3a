(* The by-name field graph the production FLG was built on until it
   became a dense field-indexed matrix: the frozen oracles in
   test/fmf_oracle.ml and test/flg_oracle.ml keep it as their
   representation, and test_graph.ml its laws. Do not optimize. *)

include Wgraph.Make (struct
  type t = string

  let compare = String.compare
  let pp = Format.pp_print_string
end)
