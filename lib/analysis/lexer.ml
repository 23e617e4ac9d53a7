(* Token-level lexer for the repository's own OCaml sources. This is the
   substrate every static pass in this library stands on: the lint rules
   match against token-rendered (string/comment-blanked) lines, and the
   inventory / call-graph / racecheck passes walk the token stream
   directly. It is not a full OCaml lexer — attributes, extension nodes
   and exotic literals degrade to operator/ident tokens — but strings,
   char literals, nested comments and quoted-string literals are lexed
   exactly, which is what keeps the downstream analyses from matching
   inside text. *)

type kind =
  | Lident of string
  | Uident of string
  | Int of string
  | Float of string
  | String of string  (* literal body, escapes NOT decoded *)
  | Char of string
  | Op of string

type token = {
  kind : kind;
  line : int;  (* 1-based line of the first char *)
  col : int;   (* 0-based column of the first char *)
  off : int;   (* byte offset of the first char in the source *)
  len : int;   (* byte length of the token's source text *)
}

type t = {
  tokens : token array;
  comments : (int * string) list;
      (* (start line, trimmed body) per comment, source order *)
}

let keywords =
  [
    "and"; "as"; "assert"; "begin"; "class"; "constraint"; "do"; "done";
    "downto"; "else"; "end"; "exception"; "external"; "false"; "for"; "fun";
    "function"; "functor"; "if"; "in"; "include"; "inherit"; "initializer";
    "lazy"; "let"; "match"; "method"; "module"; "mutable"; "new"; "nonrec";
    "object"; "of"; "open"; "or"; "private"; "rec"; "sig"; "struct"; "then";
    "to"; "true"; "try"; "type"; "val"; "virtual"; "when"; "while"; "with";
  ]

let is_keyword s = List.mem s keywords

let is_lower = function 'a' .. 'z' | '_' -> true | _ -> false
let is_upper = function 'A' .. 'Z' -> true | _ -> false
let is_digit = function '0' .. '9' -> true | _ -> false

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

(* OCaml symbolic-identifier / operator characters. A maximal run of
   these is one [Op] token ([:=], [<-], [->], [||], ...). Brackets,
   braces, commas and semicolons are single-char [Op] tokens. *)
let is_op_char = function
  | '!' | '$' | '%' | '&' | '*' | '+' | '-' | '.' | '/' | ':' | '<' | '='
  | '>' | '?' | '@' | '^' | '|' | '~' ->
      true
  | _ -> false

exception Done

let lex src =
  let n = String.length src in
  let tokens = ref [] in
  let comments = ref [] in
  let line = ref 1 in
  let bol = ref 0 in (* offset of the current line start *)
  let i = ref 0 in
  let newline at = incr line; bol := at + 1 in
  let emit kind ~start ~start_line ~start_col =
    tokens :=
      { kind; line = start_line; col = start_col; off = start;
        len = !i - start }
      :: !tokens
  in
  (* Advance over one char, maintaining the line map. *)
  let step () =
    if src.[!i] = '\n' then newline !i;
    incr i
  in
  (* Skip a string literal body; [!i] is past the opening quote. Stops
     past the closing quote. Escaped chars (incl. escaped quotes and
     backslashes) are skipped as pairs; an unterminated string consumes
     to EOF. *)
  let skip_string () =
    (try
       while !i < n do
         match src.[!i] with
         | '\\' when !i + 1 < n -> step (); step ()
         | '"' -> incr i; raise Done
         | _ -> step ()
       done
     with Done -> ())
  in
  (* Quoted-string literal (brace, optional lowercase id, pipe ... pipe,
     id, brace). [!i] is at the opening brace. When the opener matches,
     consumes through the closing fence and returns [Some delim_len]
     where [delim_len] is the opener's length; else leaves [!i]
     unchanged and returns [None]. N.B. the opener sequence must not be
     written literally even in comments — it nests. *)
  let try_quoted_string () =
    let j = ref (!i + 1) in
    while !j < n && is_lower src.[!j] do incr j done;
    if !j < n && src.[!j] = '|' then begin
      let id = String.sub src (!i + 1) (!j - !i - 1) in
      let closing = "|" ^ id ^ "}" in
      let m = String.length closing in
      i := !j + 1;
      (try
         while !i < n do
           if !i + m <= n && String.sub src !i m = closing then begin
             i := !i + m;
             raise Done
           end
           else step ()
         done
       with Done -> ());
      Some m
    end
    else None
  in
  (* Comment starting at [!i] (at the opening paren). Consumes through
     the matching closer, recording the (possibly nested) body. Strings
     inside comments are lexed as strings (OCaml requires them
     balanced). *)
  let skip_comment () =
    let start_line = !line in
    let body = Buffer.create 32 in
    i := !i + 2;
    let depth = ref 1 in
    while !depth > 0 && !i < n do
      if !i + 1 < n && src.[!i] = '(' && src.[!i + 1] = '*' then begin
        incr depth;
        Buffer.add_string body "(*";
        i := !i + 2
      end
      else if !i + 1 < n && src.[!i] = '*' && src.[!i + 1] = ')' then begin
        decr depth;
        if !depth > 0 then Buffer.add_string body "*)";
        i := !i + 2
      end
      else if src.[!i] = '"' then begin
        (* Strings inside comments must be balanced per the OCaml
           grammar; their text is part of the comment body. *)
        let s = !i in
        incr i;
        skip_string ();
        Buffer.add_string body (String.sub src s (!i - s))
      end
      else begin
        Buffer.add_char body src.[!i];
        step ()
      end
    done;
    comments := (start_line, String.trim (Buffer.contents body)) :: !comments
  in
  (* Is [src.[k]] the start of a char literal (as opposed to a type
     variable or a stray prime)? ['x'], ['\n'], ['\123'], ['\xFF']. *)
  let is_char_literal k =
    k + 1 < n
    &&
    if src.[k + 1] = '\\' then true
    else k + 2 < n && src.[k + 1] <> '\'' && src.[k + 2] = '\''
  in
  while !i < n do
    let c = src.[!i] in
    let start = !i and start_line = !line in
    let start_col = !i - !bol in
    if c = '\n' then begin newline !i; incr i end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '(' && !i + 1 < n && src.[!i + 1] = '*' then skip_comment ()
    else if c = '"' then begin
      incr i;
      let body_start = !i in
      skip_string ();
      let body_len = max 0 (!i - 1 - body_start) in
      emit (String (String.sub src body_start body_len))
        ~start ~start_line ~start_col
    end
    else if c = '{' then begin
      match try_quoted_string () with
      | Some delim_len ->
          (* the scan in [try_quoted_string] maintained the line map;
             the payload is the body between the two delimiter fences *)
          let body_len = max 0 (!i - start - (2 * delim_len)) in
          emit (String (String.sub src (start + delim_len) body_len))
            ~start ~start_line ~start_col
      | None ->
          incr i;
          emit (Op "{") ~start ~start_line ~start_col
    end
    else if c = '\'' && is_char_literal !i then begin
      incr i;
      if !i < n && src.[!i] = '\\' then begin
        incr i;
        (* escape body: one escape char, or digits, or x + hex digits *)
        while !i < n && src.[!i] <> '\'' do incr i done
      end
      else incr i;
      if !i < n && src.[!i] = '\'' then incr i;
      emit (Char (String.sub src (start + 1) (!i - start - 2)))
        ~start ~start_line ~start_col
    end
    else if is_digit c then begin
      if
        c = '0' && !i + 1 < n
        && (let x = src.[!i + 1] in
            x = 'x' || x = 'X' || x = 'o' || x = 'O' || x = 'b' || x = 'B')
      then begin
        i := !i + 2;
        while
          !i < n
          && (is_ident_char src.[!i])
        do incr i done;
        emit (Int (String.sub src start (!i - start)))
          ~start ~start_line ~start_col
      end
      else begin
        while !i < n && (is_digit src.[!i] || src.[!i] = '_') do incr i done;
        let is_float = ref false in
        (* a '.' not followed by a second '.' continues the literal *)
        if !i < n && src.[!i] = '.'
           && not (!i + 1 < n && src.[!i + 1] = '.')
        then begin
          is_float := true;
          incr i;
          while !i < n && (is_digit src.[!i] || src.[!i] = '_') do incr i done
        end;
        if !i < n && (src.[!i] = 'e' || src.[!i] = 'E')
           && (!i + 1 < n
               && (is_digit src.[!i + 1]
                  || ((src.[!i + 1] = '+' || src.[!i + 1] = '-')
                     && !i + 2 < n && is_digit src.[!i + 2])))
        then begin
          is_float := true;
          incr i;
          if src.[!i] = '+' || src.[!i] = '-' then incr i;
          while !i < n && (is_digit src.[!i] || src.[!i] = '_') do incr i done
        end;
        (* int-literal suffixes l, L, n *)
        if (not !is_float) && !i < n
           && (src.[!i] = 'l' || src.[!i] = 'L' || src.[!i] = 'n')
        then incr i;
        let text = String.sub src start (!i - start) in
        emit (if !is_float then Float text else Int text)
          ~start ~start_line ~start_col
      end
    end
    else if is_lower c || is_upper c then begin
      while !i < n && is_ident_char src.[!i] do incr i done;
      let text = String.sub src start (!i - start) in
      emit (if is_upper c then Uident text else Lident text)
        ~start ~start_line ~start_col
    end
    else if is_op_char c then begin
      while !i < n && is_op_char src.[!i] do incr i done;
      emit (Op (String.sub src start (!i - start)))
        ~start ~start_line ~start_col
    end
    else begin
      (* single-char punctuation: ( ) [ ] { } , ; ` and anything else *)
      incr i;
      emit (Op (String.make 1 c)) ~start ~start_line ~start_col
    end
  done;
  {
    tokens = Array.of_list (List.rev !tokens);
    comments = List.rev !comments;
  }
