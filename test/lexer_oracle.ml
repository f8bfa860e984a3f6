(** The POOL lexer as it was before keywords became a string switch and
    two-character operators a character test: the oracle of the lexer
    differential test.  It produces the library's own token type, so
    the two token streams compare directly. *)

open Pool_lang.Lexer

let keywords =
  [
    "select"; "distinct"; "from"; "where"; "order"; "by"; "asc"; "desc"; "and"; "or"; "not";
    "in"; "like"; "between"; "context"; "as"; "true"; "false"; "null"; "mod"; "union"; "inter";
    "except"; "exists";
  ]

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

(** Tokenise [src]; returns tokens with their source positions. *)
let tokenize (src : string) : (token * int) list =
  let n = String.length src in
  let toks = ref [] in
  let push t pos = toks := (t, pos) :: !toks in
  let i = ref 0 in
  while !i < n do
    let c = src.[!i] in
    let pos = !i in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '-' && !i + 1 < n && src.[!i + 1] = '-' then begin
      (* line comment *)
      while !i < n && src.[!i] <> '\n' do
        incr i
      done
    end
    else if is_ident_start c then begin
      let j = ref !i in
      while !j < n && is_ident_char src.[!j] do
        incr j
      done;
      let word = String.sub src !i (!j - !i) in
      let lower = String.lowercase_ascii word in
      (* keywords are matched case-insensitively, but only for words
         written uniformly lower- or uppercase: mixed-case words like
         "In" or "Select" remain identifiers (class names may collide
         with keywords otherwise) *)
      let uniform = word = lower || word = String.uppercase_ascii word in
      if uniform && List.mem lower keywords then push (KW lower) pos else push (IDENT word) pos;
      i := !j
    end
    else if is_digit c then begin
      let j = ref !i in
      while !j < n && is_digit src.[!j] do
        incr j
      done;
      if !j < n && src.[!j] = '.' && !j + 1 < n && is_digit src.[!j + 1] then begin
        incr j;
        while !j < n && is_digit src.[!j] do
          incr j
        done;
        push (FLOAT (float_of_string (String.sub src !i (!j - !i)))) pos
      end
      else push (INT (int_of_string (String.sub src !i (!j - !i)))) pos;
      i := !j
    end
    else if c = '\'' || c = '"' then begin
      let quote = c in
      let buf = Buffer.create 16 in
      incr i;
      let closed = ref false in
      while (not !closed) && !i < n do
        if src.[!i] = quote then
          if !i + 1 < n && src.[!i + 1] = quote then begin
            Buffer.add_char buf quote;
            i := !i + 2
          end
          else begin
            closed := true;
            incr i
          end
        else begin
          Buffer.add_char buf src.[!i];
          incr i
        end
      done;
      if not !closed then fail pos "unterminated string literal";
      push (STRING (Buffer.contents buf)) pos
    end
    else begin
      let two = if !i + 1 < n then String.sub src !i 2 else "" in
      match two with
      | "!=" | "<>" ->
          push NEQ pos;
          i := !i + 2
      | "<=" ->
          push LE pos;
          i := !i + 2
      | ">=" ->
          push GE pos;
          i := !i + 2
      | _ -> (
          incr i;
          match c with
          | '(' -> push LPAREN pos
          | ')' -> push RPAREN pos
          | '[' -> push LBRACKET pos
          | ']' -> push RBRACKET pos
          | ',' -> push COMMA pos
          | '.' -> push DOT pos
          | '*' -> push STAR pos
          | '=' -> push EQ pos
          | '<' -> push LT pos
          | '>' -> push GT pos
          | '+' -> push PLUS pos
          | '-' -> push MINUS pos
          | '/' -> push SLASH pos
          | _ -> fail pos "unexpected character %C" c)
    end
  done;
  push EOF n;
  List.rev !toks
