module Field = Slo_layout.Field
module Layout = Slo_layout.Layout

type split = {
  hot_fields : string list;
  cold_fields : string list;
  hot_bytes : int;
  total_bytes : int;
  ref_coverage : float;
}

type t = {
  dead_fields : string list;
  split : split;
  contended : (string * float * float) list;
}

let analyze ?(hot_coverage = 0.9) (flg : Flg.t) =
  if hot_coverage <= 0.0 || hot_coverage > 1.0 then
    invalid_arg "Advisor.analyze: hot_coverage outside (0, 1]";
  let n = Flg.size flg in
  let all = List.init n Fun.id in
  let dead_fields =
    List.filter_map
      (fun i -> if flg.Flg.hotness.(i) = 0 then Some (Flg.name flg i) else None)
      all
  in
  (* Hot/cold split: smallest hotness-ordered prefix covering the target
     fraction of dynamic references. *)
  let total_refs = Array.fold_left ( + ) 0 flg.Flg.hotness in
  let hot, covered, cold =
    let rec take acc covered = function
      | i :: rest
        when not
               (total_refs > 0
               && float_of_int covered >= hot_coverage *. float_of_int total_refs)
        ->
        take (i :: acc) (covered + flg.Flg.hotness.(i)) rest
      | rest -> (List.rev acc, covered, rest)
    in
    take [] 0 (Array.to_list (Flg.hotness_order flg))
  in
  let names = List.map (Flg.name flg) in
  let split =
    {
      hot_fields = names hot;
      cold_fields = names cold;
      hot_bytes = Layout.packed_size (List.map (Array.get flg.Flg.fields) hot);
      total_bytes = Layout.packed_size (Array.to_list flg.Flg.fields);
      ref_coverage =
        (if total_refs = 0 then 1.0
         else float_of_int covered /. float_of_int total_refs);
    }
  in
  (* Contended fields: negative edge mass vs positive edge mass, each
     summed over the field's neighbours in name order. *)
  let contended =
    List.filter_map
      (fun i ->
        let neg, pos =
          Array.fold_left
            (fun (neg, pos) j ->
              if not (Flg.has_edge flg i j) then (neg, pos)
              else
                let w = Float.Array.get flg.Flg.weight ((i * n) + j) in
                if w < 0.0 then (neg -. w, pos) else (neg, pos +. w))
            (0.0, 0.0) flg.Flg.names.Slo_util.Names.by_name
        in
        if neg > pos && neg > 0.0 then Some (Flg.name flg i, neg, pos) else None)
      all
    |> List.sort (fun (_, n1, p1) (_, n2, p2) -> compare (n2 -. p2) (n1 -. p1))
  in
  { dead_fields; split; contended }

let pp ppf t =
  Format.fprintf ppf "@[<v>=== advisories ===";
  if t.dead_fields <> [] then begin
    Format.fprintf ppf "@,dead fields (never referenced):";
    List.iter (fun f -> Format.fprintf ppf " %s" f) t.dead_fields
  end;
  Format.fprintf ppf
    "@,hot/cold split: %d hot field(s), %d bytes of %d, covering %.0f%% of \
     references"
    (List.length t.split.hot_fields)
    t.split.hot_bytes t.split.total_bytes
    (100.0 *. t.split.ref_coverage);
  if t.contended <> [] then begin
    Format.fprintf ppf "@,contended fields (peel/pad candidates):";
    List.iter
      (fun (f, neg, pos) ->
        Format.fprintf ppf "@,  %s: loss mass %.0f vs gain mass %.0f" f neg pos)
      t.contended
  end;
  Format.fprintf ppf "@]"
