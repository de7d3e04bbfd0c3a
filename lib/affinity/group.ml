module Cfg = Slo_ir.Cfg
module Counts = Slo_profile.Counts

type kind = Loop of Cfg.loop_id | Straight_line

type t = {
  g_proc : string;
  g_kind : kind;
  g_weight : int;
  g_fields : (string * Counts.rw) list;
}

let refs (rw : Counts.rw) = rw.Counts.reads + rw.Counts.writes

let field_refs t name =
  match List.assoc_opt name t.g_fields with
  | Some rw -> rw
  | None -> { Counts.reads = 0; writes = 0 }

(* Blocks belonging to a region: innermost-loop id matches (or None for the
   straight-line region). *)
let blocks_of_region (cfg : Cfg.t) kind =
  let matches (blk : Cfg.block) =
    match (kind, blk.Cfg.b_loop) with
    | Straight_line, None -> true
    | Loop l, Some l' -> l = l'
    | Straight_line, Some _ | Loop _, None -> false
  in
  Array.to_list cfg.Cfg.blocks |> List.filter matches

let region_fields (cfg : Cfg.t) counts ~struct_name kind =
  let blocks = blocks_of_region cfg kind in
  let acc = Hashtbl.create 8 in
  List.iter
    (fun (blk : Cfg.block) ->
      let fields =
        Counts.fields_in_block counts ~proc:cfg.Cfg.proc_name
          ~block:blk.Cfg.b_id ~struct_name
      in
      List.iter
        (fun (f, (rw : Counts.rw)) ->
          let cur =
            try Hashtbl.find acc f
            with Not_found -> { Counts.reads = 0; writes = 0 }
          in
          Hashtbl.replace acc f
            {
              Counts.reads = cur.Counts.reads + rw.Counts.reads;
              writes = cur.Counts.writes + rw.Counts.writes;
            })
        fields)
    blocks;
  Hashtbl.fold (fun f rw l -> (f, rw) :: l) acc []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* EC(L): execution count of the loop body — the count of the header's
   taken-branch target. (The header itself executes EC + entries times, so
   its own count over-approximates EC by the trip-entry count.) *)
let region_weight (cfg : Cfg.t) counts kind =
  let proc = cfg.Cfg.proc_name in
  match kind with
  | Straight_line -> Counts.proc_entry_count counts ~proc
  | Loop l ->
    let header = cfg.Cfg.loops.(l).Cfg.l_header in
    (match (Cfg.block cfg header).Cfg.b_term with
    | Cfg.Tbranch { if_true; _ } ->
      Counts.block_count counts ~proc ~block:if_true
    | Cfg.Tgoto _ | Cfg.Treturn ->
      (* Not reachable for structural loops; fall back to the hottest
         block in the region. *)
      blocks_of_region cfg kind
      |> List.fold_left
           (fun acc (blk : Cfg.block) ->
             max acc (Counts.block_count counts ~proc ~block:blk.Cfg.b_id))
           0)

(* The groups of one procedure restricted to the fields of [struct_name],
   straight-line first, then loops by id; a group with no referenced field
   is dropped. *)
let of_cfg (cfg : Cfg.t) counts ~struct_name =
  let kinds =
    Straight_line
    :: (Array.to_list cfg.Cfg.loops
       |> List.map (fun (l : Cfg.loop_info) -> Loop l.Cfg.l_id))
  in
  List.filter_map
    (fun kind ->
      let g_fields = region_fields cfg counts ~struct_name kind in
      if g_fields = [] then None
      else
        Some
          {
            g_proc = cfg.Cfg.proc_name;
            g_kind = kind;
            g_weight = region_weight cfg counts kind;
            g_fields;
          })
    kinds

let of_program program counts ~struct_name =
  Cfg.of_program program
  |> List.concat_map (fun (_, cfg) -> of_cfg cfg counts ~struct_name)

let pp ppf t =
  let kind =
    match t.g_kind with
    | Straight_line -> "straight-line"
    | Loop l -> Printf.sprintf "loop L%d" l
  in
  Format.fprintf ppf "@[<v 2>group %s/%s (weight %d):" t.g_proc kind t.g_weight;
  List.iter
    (fun (f, (rw : Counts.rw)) ->
      Format.fprintf ppf "@,%s: R=%d W=%d" f rw.Counts.reads rw.Counts.writes)
    t.g_fields;
  Format.fprintf ppf "@]"
