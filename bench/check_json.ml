(* Artifact schema check: `check_json FILE KEY[=TYPE]...` parses FILE with
   the in-tree JSON parser and requires every KEY to resolve as an object
   member. A KEY may be a dotted path ("metrics.counters"): each segment
   descends one object level. A KEY may also carry a type constraint:

     git_rev=nonempty-string   member exists, is a string, and is not ""
     wall_s=number             member is an Int or Float
     quick=bool                member is a Bool
     jobs=int                  member is an Int
     rows=list                 member is a List
     sections=strings:a,b      member is the List of strings "a", "b"

   Run by the @runtest-obs / @runtest-col aliases against the bench
   artifacts and the manifest, so `dune runtest` fails if the bench JSON
   output regresses — including fields that exist but degrade to the wrong
   shape (e.g. a git_rev that is empty or not a string). *)

module Json = Slo_obs.Json

let lookup_path j path =
  List.fold_left
    (fun j seg -> match j with None -> None | Some j -> Json.member j seg)
    (Some j)
    (String.split_on_char '.' path)

let strings_prefix = "strings:"

let type_ok ty (j : Json.t) =
  match (ty, j) with
  | _, Json.List l when String.starts_with ~prefix:strings_prefix ty ->
    let n = String.length strings_prefix in
    let want = String.split_on_char ',' (String.sub ty n (String.length ty - n)) in
    l = List.map (fun s -> Json.Str s) want
  | "string", Json.Str _ -> true
  | "nonempty-string", Json.Str s -> s <> ""
  | "number", (Json.Int _ | Json.Float _) -> true
  | "int", Json.Int _ -> true
  | "bool", Json.Bool _ -> true
  | "list", Json.List _ -> true
  | "object", Json.Obj _ -> true
  | _ -> false

let known_type = function
  | "string" | "nonempty-string" | "number" | "int" | "bool" | "list"
  | "object" ->
    true
  | t -> String.starts_with ~prefix:strings_prefix t

let () =
  if Array.length Sys.argv < 2 then begin
    prerr_endline "usage: check_json FILE [KEY[=TYPE] ...]";
    exit 2
  end;
  let path = Sys.argv.(1) in
  let contents =
    try
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with Sys_error msg ->
      Printf.eprintf "check_json: %s\n" msg;
      exit 1
  in
  match Json.of_string contents with
  | Error msg ->
    Printf.eprintf "check_json: %s: invalid JSON: %s\n" path msg;
    exit 1
  | Ok j ->
    let bad = ref [] in
    for i = Array.length Sys.argv - 1 downto 2 do
      let arg = Sys.argv.(i) in
      let key, ty =
        match String.index_opt arg '=' with
        | Some eq ->
          ( String.sub arg 0 eq,
            Some (String.sub arg (eq + 1) (String.length arg - eq - 1)) )
        | None -> (arg, None)
      in
      (match ty with
      | Some t when not (known_type t) ->
        Printf.eprintf "check_json: unknown type constraint %S in %S\n" t arg;
        exit 2
      | _ -> ());
      match (lookup_path j key, ty) with
      | None, _ -> bad := (arg, "missing") :: !bad
      | Some _, None -> ()
      | Some v, Some t ->
        if not (type_ok t v) then bad := (arg, "wrong type/value") :: !bad
    done;
    if !bad <> [] then begin
      Printf.eprintf "check_json: %s: failed keys: %s\n" path
        (String.concat ", "
           (List.map (fun (k, why) -> Printf.sprintf "%s (%s)" k why) !bad));
      exit 1
    end;
    Printf.printf "check_json: %s: ok (%d keys)\n" path
      (Array.length Sys.argv - 2)
