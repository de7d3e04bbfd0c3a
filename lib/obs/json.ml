type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Writer *)

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04X" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

(* JSON has no NaN/Infinity; "%.17g" round-trips every finite double but
   produces noise like 0.10000000000000001, so try the shortest of a few
   precisions that still re-reads exactly. *)
let float_string f =
  if not (Float.is_finite f) then None
  else if Float.is_integer f && Float.abs f < 1e15 then
    Some (Printf.sprintf "%.1f" f)
  else
    let rec try_prec = function
      | [] -> Some (Printf.sprintf "%.17g" f)
      | p :: rest ->
        let s = Printf.sprintf "%.*g" p f in
        if float_of_string s = f then Some s else try_prec rest
    in
    try_prec [ 6; 9; 12; 15 ]

let float_token f =
  match float_string f with Some s -> s | None -> "null"

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_token f)
  | Str s -> Buffer.add_string buf (escape_string s)
  | List xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        write buf x)
      xs;
    Buffer.add_char buf ']'
  | Obj kvs ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf (escape_string k);
        Buffer.add_char buf ':';
        write buf v)
      kvs;
    Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  write buf j;
  Buffer.contents buf

let pretty j =
  let buf = Buffer.create 1024 in
  let pad n = Buffer.add_string buf (String.make (2 * n) ' ') in
  let rec go depth = function
    | (Null | Bool _ | Int _ | Float _ | Str _) as atom ->
      write buf atom
    | List [] -> Buffer.add_string buf "[]"
    | List xs ->
      Buffer.add_string buf "[\n";
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_string buf ",\n";
          pad (depth + 1);
          go (depth + 1) x)
        xs;
      Buffer.add_char buf '\n';
      pad depth;
      Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj kvs ->
      Buffer.add_string buf "{\n";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ",\n";
          pad (depth + 1);
          Buffer.add_string buf (escape_string k);
          Buffer.add_string buf ": ";
          go (depth + 1) v)
        kvs;
      Buffer.add_char buf '\n';
      pad depth;
      Buffer.add_char buf '}'
  in
  go 0 j;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let member j k =
  match j with Obj kvs -> List.assoc_opt k kvs | _ -> None

(* ------------------------------------------------------------------ *)
(* Parser: recursive descent over the raw byte string. *)

exception Parse of string * int

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse (msg, !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    if !pos + String.length word <= n
       && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail ("expected " ^ word)
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = ref 0 in
    for _ = 1 to 4 do
      let d =
        match s.[!pos] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> fail "bad \\u escape"
      in
      v := (!v * 16) + d;
      advance ()
    done;
    !v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (if !pos >= n then fail "unterminated escape";
         match s.[!pos] with
         | '"' -> Buffer.add_char buf '"'; advance ()
         | '\\' -> Buffer.add_char buf '\\'; advance ()
         | '/' -> Buffer.add_char buf '/'; advance ()
         | 'n' -> Buffer.add_char buf '\n'; advance ()
         | 'r' -> Buffer.add_char buf '\r'; advance ()
         | 't' -> Buffer.add_char buf '\t'; advance ()
         | 'b' -> Buffer.add_char buf '\b'; advance ()
         | 'f' -> Buffer.add_char buf '\012'; advance ()
         | 'u' ->
           let esc = !pos - 1 in
           advance ();
           let v = hex4 () in
           (* UTF-16 surrogates (RFC 8259 §7): a high one must be followed
              by an escaped low one, and the pair is one scalar value. *)
           let v =
             if v < 0xD800 || v > 0xDFFF then v
             else begin
               let unpaired () =
                 raise (Parse ("unpaired surrogate in \\u escape", esc))
               in
               if v > 0xDBFF || !pos + 1 >= n || s.[!pos] <> '\\'
                  || s.[!pos + 1] <> 'u'
               then unpaired ();
               pos := !pos + 2;
               let lo = hex4 () in
               if lo < 0xDC00 || lo > 0xDFFF then unpaired ();
               0x10000 + ((v - 0xD800) lsl 10) + (lo - 0xDC00)
             end
           in
           if v < 0x80 then Buffer.add_char buf (Char.chr v)
           else Buffer.add_utf_8_uchar buf (Uchar.of_int v)
         | _ -> fail "unknown escape");
        go ()
      | c ->
        Buffer.add_char buf c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    let digits () =
      let d0 = !pos in
      while !pos < n && match s.[!pos] with '0' .. '9' -> true | _ -> false do
        advance ()
      done;
      if !pos = d0 then fail "expected digit"
    in
    digits ();
    let is_float = ref false in
    if peek () = Some '.' then begin
      is_float := true;
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
      is_float := true;
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      digits ()
    | _ -> ());
    let tok = String.sub s start (!pos - start) in
    if !is_float then Float (float_of_string tok)
    else
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> Float (float_of_string tok)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((k, v) :: acc)
          | Some '}' ->
            advance ();
            List.rev ((k, v) :: acc)
          | _ -> fail "expected ',' or '}'"
        in
        Obj (members [])
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let rec elems acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elems (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> fail "expected ',' or ']'"
        in
        List (elems [])
      end
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character %C" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse (msg, at) ->
    Error (Printf.sprintf "%s at byte %d" msg at)
