module Cfg = Slo_ir.Cfg
module Loc = Slo_ir.Loc
module Names = Slo_util.Names

type access = { f_struct : string; f_field : string; f_is_write : bool }

type t = { lines : (int, access list) Hashtbl.t }

let add t line access =
  let cur = try Hashtbl.find t.lines line with Not_found -> [] in
  if not (List.mem access cur) then Hashtbl.replace t.lines line (access :: cur)

let of_cfgs cfgs =
  let t = { lines = Hashtbl.create 64 } in
  List.iter
    (fun cfg ->
      List.iter
        (fun (a : Cfg.access) ->
          add t (Loc.line a.Cfg.a_loc)
            { f_struct = a.Cfg.a_struct; f_field = a.Cfg.a_field;
              f_is_write = a.Cfg.a_is_write })
        (Cfg.accesses cfg))
    cfgs;
  t

let of_program program = of_cfgs (List.map snd (Cfg.of_program program))

let accesses_at t ~line =
  try List.rev (Hashtbl.find t.lines line) with Not_found -> []

let fields_at t ~line ~struct_name =
  accesses_at t ~line
  |> List.filter_map (fun a ->
         if String.equal a.f_struct struct_name then
           Some (a.f_field, a.f_is_write)
         else None)

(* One struct's accesses resolved to field indices. Entry [k] of a line
   packs [(field lsl 1) lor is_write]; lines without an access of the
   struct share one empty array. *)
module Table = struct
  type entries = int array
  type t = entries array

  let at t ~line = if line >= 0 && line < Array.length t then t.(line) else [||]
  let length = Array.length
  let field (e : entries) k = e.(k) lsr 1
  let is_write (e : entries) k = e.(k) land 1 = 1
end

let table t ~struct_name ~fields =
  let last = Hashtbl.fold (fun line _ last -> max line last) t.lines (-1) in
  let lines = Array.make (last + 1) [||] in
  Hashtbl.iter
    (fun line _ ->
      if line >= 0 then
        lines.(line) <-
          Array.of_list
            (List.filter_map
               (fun (f, w) ->
                 Option.map
                   (fun i -> (i lsl 1) lor Bool.to_int w)
                   (Names.find_opt fields f))
               (fields_at t ~line ~struct_name)))
    t.lines;
  lines

let pp ppf t =
  let lines =
    Hashtbl.fold (fun line _ acc -> line :: acc) t.lines []
    |> List.sort_uniq compare
  in
  Format.fprintf ppf "@[<v>field mapping:";
  List.iter
    (fun line ->
      Format.fprintf ppf "@,line %d:" line;
      List.iter
        (fun a ->
          Format.fprintf ppf " %s.%s[%s]" a.f_struct a.f_field
            (if a.f_is_write then "W" else "R"))
        (accesses_at t ~line))
    lines;
  Format.fprintf ppf "@]"
