(** Hand-written lexer for minic.

    Produces a token stream with source locations. Menhir/ocamllex are not
    used: the grammar is tiny and LL(1), and a hand-rolled lexer keeps
    locations (which the concurrency analysis keys on) fully under our
    control. *)

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
  | ASSIGN  (** [=] *)
  | ARROW  (** [->] *)
  | STAR
  | PLUS
  | MINUS
  | SLASH
  | PERCENT
  | LT
  | LE
  | GT
  | GE
  | EQ  (** [==] *)
  | NE
  | ANDAND
  | OROR
  | PLUSPLUS
  | EOF

val token_to_string : token -> string

exception Error of string * Loc.t
(** Raised on malformed input (unknown character, unterminated comment,
    an integer literal larger than [max_int]) at its location. *)

val tokenize : file:string -> string -> (token * Loc.t) list
(** [tokenize ~file source] lexes the whole input. Supports [//] line
    comments and [/* ... */] block comments.
    @raise Error on lexical errors. *)
