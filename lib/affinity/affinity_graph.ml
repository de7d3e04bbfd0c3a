module Counts = Slo_profile.Counts
module Ast = Slo_ir.Ast
module Names = Slo_util.Names

type t = {
  struct_name : string;
  fields : Names.t;
  weight : Float.Array.t;
  hotness : int array;
  rw : Counts.rw array;
}

let of_groups ~struct_name ~all_fields groups =
  let fields =
    match Names.make (Array.of_list all_fields) with
    | Ok names -> names
    | Error f ->
      invalid_arg (Printf.sprintf "Affinity_graph.of_groups: duplicate field %S" f)
  in
  let n = Names.length fields in
  let index f =
    match Names.find_opt fields f with
    | Some i -> i
    | None ->
      invalid_arg (Printf.sprintf "Affinity_graph.of_groups: unknown field %S" f)
  in
  let weight = Float.Array.make (n * n) 0.0 in
  let rw = Array.make n { Counts.reads = 0; writes = 0 } in
  List.iter
    (fun (group : Group.t) ->
      let members =
        List.map (fun (f, (c : Counts.rw)) -> (index f, c)) group.Group.g_fields
      in
      (* All unordered pairs of fields referenced in the group. *)
      let rec pairs = function
        | [] -> ()
        | (i, rw1) :: rest ->
          List.iter
            (fun (j, rw2) ->
              (* Minimum Heuristic: the dynamic weight of the acyclic path
                 containing both fields is upper-bounded by the smaller
                 reference count. *)
              let w = min (Group.refs rw1) (Group.refs rw2) in
              if w > 0 then begin
                let v = Float.Array.get weight ((i * n) + j) +. float_of_int w in
                Float.Array.set weight ((i * n) + j) v;
                Float.Array.set weight ((j * n) + i) v
              end)
            rest;
          pairs rest
      in
      pairs members;
      List.iter
        (fun (i, (c : Counts.rw)) ->
          rw.(i) <-
            { Counts.reads = rw.(i).Counts.reads + c.Counts.reads;
              writes = rw.(i).Counts.writes + c.Counts.writes })
        members)
    groups;
  { struct_name; fields; weight; hotness = Array.map Group.refs rw; rw }

let build program counts ~struct_name =
  let all_fields =
    match Ast.find_struct program struct_name with
    | Some sd -> List.map (fun (fd : Ast.field_decl) -> fd.Ast.fd_name) sd.Ast.sd_fields
    | None ->
      invalid_arg
        (Printf.sprintf "Affinity_graph.build: unknown struct %S" struct_name)
  in
  let groups = Group.of_program program counts ~struct_name in
  of_groups ~struct_name ~all_fields groups

let hotness_of t f =
  match Names.find_opt t.fields f with Some i -> t.hotness.(i) | None -> 0

let affinity t f1 f2 =
  match (Names.find_opt t.fields f1, Names.find_opt t.fields f2) with
  | Some i, Some j -> Float.Array.get t.weight ((i * Names.length t.fields) + j)
  | _ -> 0.0

let pp ppf t =
  let names = t.fields.Names.names and n = Names.length t.fields in
  let edges =
    Names.fold_pairs_by_name t.fields ~init:[] ~f:(fun acc i j ->
        let w = Float.Array.get t.weight ((i * n) + j) in
        if w <> 0.0 then (i, j, w) :: acc else acc)
    |> List.rev
  in
  Format.fprintf ppf "@[<v>affinity graph for struct %s@,graph: %d nodes, %d edges"
    t.struct_name n (List.length edges);
  List.iter
    (fun (i, j, w) -> Format.fprintf ppf "@,  %s -- %s : %.2f" names.(i) names.(j) w)
    edges;
  Format.fprintf ppf "@,hotness:";
  Array.iter
    (fun i ->
      Format.fprintf ppf "@,  %s: h=%d R=%d W=%d" names.(i) t.hotness.(i)
        t.rw.(i).Counts.reads t.rw.(i).Counts.writes)
    t.fields.Names.by_name;
  Format.fprintf ppf "@]"
