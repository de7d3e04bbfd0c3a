type token =
  | IDENT of string
  | INT of int
  | KW_STRUCT
  | KW_VOID
  | KW_FOR
  | KW_IF
  | KW_ELSE
  | KW_PAUSE
  | KW_RAND
  | KW_CHAR
  | KW_SHORT
  | KW_INT
  | KW_LONG
  | KW_DOUBLE
  | KW_PTR
  | LBRACE
  | RBRACE
  | LPAREN
  | RPAREN
  | LBRACKET
  | RBRACKET
  | SEMI
  | COMMA
  | ASSIGN
  | ARROW
  | STAR
  | PLUS
  | MINUS
  | SLASH
  | PERCENT
  | LT
  | LE
  | GT
  | GE
  | EQ
  | NE
  | ANDAND
  | OROR
  | PLUSPLUS
  | EOF

let token_to_string = function
  | IDENT s -> Printf.sprintf "identifier %S" s
  | INT n -> Printf.sprintf "integer %d" n
  | KW_STRUCT -> "'struct'"
  | KW_VOID -> "'void'"
  | KW_FOR -> "'for'"
  | KW_IF -> "'if'"
  | KW_ELSE -> "'else'"
  | KW_PAUSE -> "'pause'"
  | KW_RAND -> "'rand'"
  | KW_CHAR -> "'char'"
  | KW_SHORT -> "'short'"
  | KW_INT -> "'int'"
  | KW_LONG -> "'long'"
  | KW_DOUBLE -> "'double'"
  | KW_PTR -> "'ptr'"
  | LBRACE -> "'{'"
  | RBRACE -> "'}'"
  | LPAREN -> "'('"
  | RPAREN -> "')'"
  | LBRACKET -> "'['"
  | RBRACKET -> "']'"
  | SEMI -> "';'"
  | COMMA -> "','"
  | ASSIGN -> "'='"
  | ARROW -> "'->'"
  | STAR -> "'*'"
  | PLUS -> "'+'"
  | MINUS -> "'-'"
  | SLASH -> "'/'"
  | PERCENT -> "'%'"
  | LT -> "'<'"
  | LE -> "'<='"
  | GT -> "'>'"
  | GE -> "'>='"
  | EQ -> "'=='"
  | NE -> "'!='"
  | ANDAND -> "'&&'"
  | OROR -> "'||'"
  | PLUSPLUS -> "'++'"
  | EOF -> "end of input"

exception Error of string * Loc.t

let keyword_of_string = function
  | "struct" -> Some KW_STRUCT
  | "void" -> Some KW_VOID
  | "for" -> Some KW_FOR
  | "if" -> Some KW_IF
  | "else" -> Some KW_ELSE
  | "pause" -> Some KW_PAUSE
  | "rand" -> Some KW_RAND
  | "char" -> Some KW_CHAR
  | "short" -> Some KW_SHORT
  | "int" -> Some KW_INT
  | "long" -> Some KW_LONG
  | "double" -> Some KW_DOUBLE
  | "ptr" -> Some KW_PTR
  | _ -> None

type state = {
  src : string;
  file : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int;  (* offset of the beginning of the current line *)
}

let loc st = Loc.make ~file:st.file ~line:st.line ~col:(st.pos - st.bol + 1)

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let peek2 st =
  if st.pos + 1 < String.length st.src then Some st.src.[st.pos + 1] else None

let advance st =
  (match peek st with
  | Some '\n' ->
    st.line <- st.line + 1;
    st.bol <- st.pos + 1
  | _ -> ());
  st.pos <- st.pos + 1

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let rec skip_ws_and_comments st =
  match peek st with
  | Some (' ' | '\t' | '\r' | '\n') ->
    advance st;
    skip_ws_and_comments st
  | Some '/' when peek2 st = Some '/' ->
    while peek st <> None && peek st <> Some '\n' do
      advance st
    done;
    skip_ws_and_comments st
  | Some '/' when peek2 st = Some '*' ->
    let start = loc st in
    advance st;
    advance st;
    let rec close () =
      match (peek st, peek2 st) with
      | Some '*', Some '/' ->
        advance st;
        advance st
      | Some _, _ ->
        advance st;
        close ()
      | None, _ -> raise (Error ("unterminated block comment", start))
    in
    close ();
    skip_ws_and_comments st
  | _ -> ()

let lex_ident st =
  let start = st.pos in
  while match peek st with Some c -> is_ident_char c | None -> false do
    advance st
  done;
  String.sub st.src start (st.pos - start)

(* [l] is the literal's location, reported when it does not fit an int. *)
let lex_int st l =
  let start = st.pos in
  while match peek st with Some c -> is_digit c | None -> false do
    advance st
  done;
  match int_of_string_opt (String.sub st.src start (st.pos - start)) with
  | Some n -> n
  | None -> raise (Error ("integer literal out of range", l))

let next_token st =
  skip_ws_and_comments st;
  let l = loc st in
  match peek st with
  | None -> (EOF, l)
  | Some c when is_ident_start c ->
    let name = lex_ident st in
    let tok =
      match keyword_of_string name with Some kw -> kw | None -> IDENT name
    in
    (tok, l)
  | Some c when is_digit c -> (INT (lex_int st l), l)
  | Some c ->
    let two target tok1 tok2 =
      advance st;
      if peek st = Some target then begin
        advance st;
        tok2
      end
      else tok1
    in
    let tok =
      match c with
      | '{' -> advance st; LBRACE
      | '}' -> advance st; RBRACE
      | '(' -> advance st; LPAREN
      | ')' -> advance st; RPAREN
      | '[' -> advance st; LBRACKET
      | ']' -> advance st; RBRACKET
      | ';' -> advance st; SEMI
      | ',' -> advance st; COMMA
      | '*' -> advance st; STAR
      | '/' -> advance st; SLASH
      | '%' -> advance st; PERCENT
      | '=' -> two '=' ASSIGN EQ
      | '<' -> two '=' LT LE
      | '>' -> two '=' GT GE
      | '+' -> two '+' PLUS PLUSPLUS
      | '-' -> two '>' MINUS ARROW
      | '!' ->
        advance st;
        if peek st = Some '=' then begin
          advance st;
          NE
        end
        else raise (Error ("expected '=' after '!'", l))
      | '&' ->
        advance st;
        if peek st = Some '&' then begin
          advance st;
          ANDAND
        end
        else raise (Error ("expected '&' after '&'", l))
      | '|' ->
        advance st;
        if peek st = Some '|' then begin
          advance st;
          OROR
        end
        else raise (Error ("expected '|' after '|'", l))
      | c -> raise (Error (Printf.sprintf "unexpected character %C" c, l))
    in
    (tok, l)

let tokenize ~file src =
  let st = { src; file; pos = 0; line = 1; bol = 0 } in
  let rec loop acc =
    let tok, l = next_token st in
    match tok with
    | EOF -> List.rev ((EOF, l) :: acc)
    | _ -> loop ((tok, l) :: acc)
  in
  loop []
