(** Token-level lexer for the repository's own OCaml sources.

    The substrate of every static pass in this library: lint rules match
    against token-rendered (string/comment-blanked) lines; the
    inventory, call-graph and racecheck passes walk the token stream
    directly. Not a full OCaml lexer — attributes and exotic literals
    degrade to operator/ident tokens — but strings (including
    [{|...|}]/[{id|...|id}] quoted strings), char literals and nested
    [(* *)] comments are lexed exactly, so downstream analyses never
    match inside text. *)

type kind =
  | Lident of string  (** lowercase identifier or keyword *)
  | Uident of string  (** capitalized identifier (module/constructor) *)
  | Int of string
  | Float of string
  | String of string  (** literal body, escapes not decoded *)
  | Char of string    (** literal body between the quotes *)
  | Op of string      (** operator run or single punctuation char *)

type token = {
  kind : kind;
  line : int;  (** 1-based line of the first char *)
  col : int;   (** 0-based column of the first char *)
  off : int;   (** byte offset in the source *)
  len : int;   (** byte length of the source text *)
}

type t = {
  tokens : token array;
  comments : (int * string) list;
      (** (start line, trimmed body) per comment, in source order *)
}

val is_keyword : string -> bool

val lex : string -> t
(** Tokenize one file's contents. Never raises; unterminated strings
    and comments consume to end of input. *)
