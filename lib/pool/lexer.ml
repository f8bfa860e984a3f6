(** Hand-rolled lexer for POOL. *)

exception Syntax_error of string * int (* message, position *)

let fail pos fmt = Format.kasprintf (fun s -> raise (Syntax_error (s, pos))) fmt

type token =
  | IDENT of string
  | STRING of string
  | INT of int
  | FLOAT of float
  | KW of string (* normalised lowercase keyword *)
  | LPAREN
  | RPAREN
  | LBRACKET
  | RBRACKET
  | COMMA
  | DOT
  | STAR
  | EQ
  | NEQ
  | LT
  | LE
  | GT
  | GE
  | PLUS
  | MINUS
  | SLASH
  | EOF

let pp_token ppf = function
  | IDENT s -> Format.fprintf ppf "identifier %s" s
  | STRING s -> Format.fprintf ppf "string %S" s
  | INT i -> Format.fprintf ppf "int %d" i
  | FLOAT f -> Format.fprintf ppf "float %g" f
  | KW s -> Format.fprintf ppf "keyword %s" s
  | LPAREN -> Format.pp_print_string ppf "("
  | RPAREN -> Format.pp_print_string ppf ")"
  | LBRACKET -> Format.pp_print_string ppf "["
  | RBRACKET -> Format.pp_print_string ppf "]"
  | COMMA -> Format.pp_print_string ppf ","
  | DOT -> Format.pp_print_string ppf "."
  | STAR -> Format.pp_print_string ppf "*"
  | EQ -> Format.pp_print_string ppf "="
  | NEQ -> Format.pp_print_string ppf "!="
  | LT -> Format.pp_print_string ppf "<"
  | LE -> Format.pp_print_string ppf "<="
  | GT -> Format.pp_print_string ppf ">"
  | GE -> Format.pp_print_string ppf ">="
  | PLUS -> Format.pp_print_string ppf "+"
  | MINUS -> Format.pp_print_string ppf "-"
  | SLASH -> Format.pp_print_string ppf "/"
  | EOF -> Format.pp_print_string ppf "end of input"

(* The keywords, matched on the lowercased word: a [match] on string
   constants compiles to a string switch, so no word is compared with
   the whole list. *)
let keyword (lower : string) =
  match lower with
  | "select" | "distinct" | "from" | "where" | "order" | "by" | "asc" | "desc" | "and" | "or" | "not"
  | "in" | "like" | "between" | "context" | "as" | "true" | "false" | "null" | "mod" | "union"
  | "inter" | "except" | "exists" ->
      true
  | _ -> false

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

(* [s] with each doubled [quote] taken as one *)
let undouble s quote =
  let b = Buffer.create (String.length s) in
  let i = ref 0 in
  while !i < String.length s do
    Buffer.add_char b s.[!i];
    i := !i + if s.[!i] = quote then 2 else 1
  done;
  Buffer.contents b

(** Tokenise [src] into an array of tokens and an array of their
    source positions, filled as the scan goes (doubling when full).
    Both arrays may be longer than the token count: from the final
    [EOF] on, every token is [EOF] at position [String.length src]. *)
let scan (src : string) : token array * int array =
  let n = String.length src in
  let cap = ref ((n / 4) + 8) (* most tokens take more than 4 characters *) in
  let toks = ref (Array.make !cap EOF) and poss = ref (Array.make !cap n) in
  let count = ref 0 in
  let push t pos =
    if !count = !cap then begin
      let grow a fill =
        let a' = Array.make (2 * !cap) fill in
        Array.blit a 0 a' 0 !cap;
        a'
      in
      toks := grow !toks EOF;
      poss := grow !poss n;
      cap := 2 * !cap
    end;
    !toks.(!count) <- t;
    !poss.(!count) <- pos;
    incr count
  in
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
      (* keywords are matched case-insensitively, but only for words
         written uniformly lower- or uppercase: mixed-case words like
         "In" or "Select" remain identifiers (class names may collide
         with keywords otherwise) *)
      let j = ref !i and lower = ref false and upper = ref false in
      while !j < n && is_ident_char src.[!j] do
        (match src.[!j] with 'a' .. 'z' -> lower := true | 'A' .. 'Z' -> upper := true | _ -> ());
        incr j
      done;
      let word = String.sub src !i (!j - !i) in
      if !lower && !upper then push (IDENT word) pos
      else begin
        let low = if !upper then String.lowercase_ascii word else word in
        push (if keyword low then KW low else IDENT word) pos
      end;
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
      (* a doubled quote stands for one quote character *)
      let j = ref (!i + 1) and doubled = ref false and closed = ref false in
      while (not !closed) && !j < n do
        if src.[!j] <> c then incr j
        else if !j + 1 < n && src.[!j + 1] = c then begin
          doubled := true;
          j := !j + 2
        end
        else closed := true
      done;
      if not !closed then fail pos "unterminated string literal";
      let body = String.sub src (!i + 1) (!j - !i - 1) in
      push (STRING (if !doubled then undouble body c else body)) pos;
      i := !j + 1
    end
    else begin
      let next = if !i + 1 < n then src.[!i + 1] else ' ' in
      match (c, next) with
      | ('!', '=') | ('<', '>') ->
          push NEQ pos;
          i := !i + 2
      | '<', '=' ->
          push LE pos;
          i := !i + 2
      | '>', '=' ->
          push GE pos;
          i := !i + 2
      | _ ->
          incr i;
          push
            (match c with
            | '(' -> LPAREN
            | ')' -> RPAREN
            | '[' -> LBRACKET
            | ']' -> RBRACKET
            | ',' -> COMMA
            | '.' -> DOT
            | '*' -> STAR
            | '=' -> EQ
            | '<' -> LT
            | '>' -> GT
            | '+' -> PLUS
            | '-' -> MINUS
            | '/' -> SLASH
            | _ -> fail pos "unexpected character %C" c)
            pos
    end
  done;
  push EOF n;
  (!toks, !poss)

(** Tokenise [src]; returns tokens with their source positions, the
    last one [EOF]. *)
let tokenize (src : string) : (token * int) list =
  let toks, poss = scan src in
  let rec go i = (toks.(i), poss.(i)) :: (match toks.(i) with EOF -> [] | _ -> go (i + 1)) in
  go 0
