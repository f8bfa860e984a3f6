(** Recursive-descent parser for POOL. *)

open Lexer
module Value = Pmodel.Value

(* [toks] and [poss] as {!Lexer.scan} fills them: [EOF] from the end of
   input on *)
type state = { toks : token array; poss : int array; mutable pos : int }

let peek st = st.toks.(st.pos)
let peek2 st = if st.pos + 1 < Array.length st.toks then st.toks.(st.pos + 1) else EOF
let pos st = st.poss.(st.pos)
let advance st = st.pos <- st.pos + 1

(* Token tests are pattern matches or string equality: no polymorphic
   compare on the hot path. *)
let is_kw st k = match peek st with KW s -> String.equal s k | _ -> false
let is_kw2 st k = match peek2 st with KW s -> String.equal s k | _ -> false

let expect_kw st k =
  if is_kw st k then advance st else fail (pos st) "expected %s, found %a" k pp_token (peek st)

(* [close] is [RPAREN] or [RBRACKET] *)
let expect_close st close =
  match (close, peek st) with
  | RPAREN, RPAREN | RBRACKET, RBRACKET -> advance st
  | _, t -> fail (pos st) "expected '%a', found %a" pp_token close pp_token t

let is_comma st = match peek st with COMMA -> true | _ -> false

let expect_ident st what =
  match peek st with
  | IDENT s ->
      advance st;
      s
  | t -> fail (pos st) "expected %s, found %a" what pp_token t

(* precedence climbing:
   or < and < not < comparison (= != < <= > >= in like) <
   union/except < inter < additive < multiplicative < unary < postfix *)

let rec parse_expr st : Ast.expr = parse_or st

and parse_or st =
  let lhs = ref (parse_and st) in
  while is_kw st "or" do
    advance st;
    lhs := Ast.Binop ("or", !lhs, parse_and st)
  done;
  !lhs

and parse_and st =
  let lhs = ref (parse_not st) in
  while is_kw st "and" do
    advance st;
    lhs := Ast.Binop ("and", !lhs, parse_not st)
  done;
  !lhs

and parse_not st =
  if is_kw st "not" then begin
    advance st;
    Ast.Unop ("not", parse_not st)
  end
  else parse_cmp st

and parse_cmp st =
  let lhs = parse_setop st in
  match peek st with
  | EQ ->
      advance st;
      Ast.Binop ("=", lhs, parse_setop st)
  | NEQ ->
      advance st;
      Ast.Binop ("!=", lhs, parse_setop st)
  | LT ->
      advance st;
      Ast.Binop ("<", lhs, parse_setop st)
  | LE ->
      advance st;
      Ast.Binop ("<=", lhs, parse_setop st)
  | GT ->
      advance st;
      Ast.Binop (">", lhs, parse_setop st)
  | GE ->
      advance st;
      Ast.Binop (">=", lhs, parse_setop st)
  | KW "like" ->
      advance st;
      Ast.Binop ("like", lhs, parse_setop st)
  | KW "between" ->
      (* [e between lo and hi] desugars to [e >= lo and e <= hi]; the
         bounds bind tighter than the logical [and] that separates them *)
      advance st;
      let lo = parse_setop st in
      expect_kw st "and";
      let hi = parse_setop st in
      Ast.Binop ("and", Ast.Binop (">=", lhs, lo), Ast.Binop ("<=", lhs, hi))
  | KW "in" when not (is_kw2 st "context") ->
      advance st;
      Ast.Binop ("in", lhs, parse_setop st)
  | KW "not" when is_kw2 st "in" ->
      advance st;
      advance st;
      Ast.Unop ("not", Ast.Binop ("in", lhs, parse_setop st))
  | _ -> lhs

and parse_setop st =
  let lhs = ref (parse_add st) in
  let continue = ref true in
  while !continue do
    match peek st with
    | KW (("union" | "inter" | "except") as op) ->
        advance st;
        lhs := Ast.Binop (op, !lhs, parse_add st)
    | _ -> continue := false
  done;
  !lhs

and parse_add st =
  let lhs = ref (parse_mul st) in
  let continue = ref true in
  while !continue do
    match peek st with
    | PLUS ->
        advance st;
        lhs := Ast.Binop ("+", !lhs, parse_mul st)
    | MINUS ->
        advance st;
        lhs := Ast.Binop ("-", !lhs, parse_mul st)
    | _ -> continue := false
  done;
  !lhs

and parse_mul st =
  let lhs = ref (parse_unary st) in
  let continue = ref true in
  while !continue do
    match peek st with
    | STAR ->
        advance st;
        lhs := Ast.Binop ("*", !lhs, parse_unary st)
    | SLASH ->
        advance st;
        lhs := Ast.Binop ("/", !lhs, parse_unary st)
    | KW "mod" ->
        advance st;
        lhs := Ast.Binop ("mod", !lhs, parse_unary st)
    | _ -> continue := false
  done;
  !lhs

and parse_unary st =
  match peek st with
  | MINUS ->
      advance st;
      Ast.Unop ("-", parse_unary st)
  | _ -> parse_postfix st

and parse_postfix st =
  let e = ref (parse_primary st) in
  let continue = ref true in
  while !continue do
    match peek st with
    | DOT -> (
        advance st;
        (* keywords are fine as attribute names after a dot (e.g.
           r.context) — the position is unambiguous *)
        let name =
          match peek st with
          | KW k ->
              advance st;
              k
          | _ -> expect_ident st "attribute or method name"
        in
        match peek st with
        | LPAREN ->
            (* method-style call: receiver becomes first argument *)
            advance st;
            let args = parse_args st in
            e := Ast.Call (name, !e :: args)
        | _ -> e := Ast.Path (!e, name))
    | _ -> continue := false
  done;
  !e

and parse_args st =
  match peek st with
  | RPAREN ->
      advance st;
      []
  | _ ->
      let rec go acc =
        let a = parse_expr st in
        if is_comma st then begin
          advance st;
          go (a :: acc)
        end
        else begin
          expect_close st RPAREN;
          List.rev (a :: acc)
        end
      in
      go []

and parse_primary st =
  match peek st with
  | INT i ->
      advance st;
      Ast.Lit (Value.VInt i)
  | FLOAT f ->
      advance st;
      Ast.Lit (Value.VFloat f)
  | STRING s ->
      advance st;
      Ast.Lit (Value.VString s)
  | KW "true" ->
      advance st;
      Ast.Lit (Value.VBool true)
  | KW "false" ->
      advance st;
      Ast.Lit (Value.VBool false)
  | KW "null" ->
      advance st;
      Ast.Lit Value.VNull
  | KW "select" -> Ast.Select (parse_select st)
  | KW "exists" -> (
      (* exists(coll) or exists select ... *)
      advance st;
      match peek st with
      | LPAREN ->
          advance st;
          let args = parse_args st in
          Ast.Call ("exists", args)
      | _ -> Ast.Call ("exists", [ parse_expr st ]))
  | LBRACKET -> (
      (* list literal *)
      advance st;
      match peek st with
      | RBRACKET ->
          advance st;
          Ast.Call ("list", [])
      | _ ->
          let rec go acc =
            let a = parse_expr st in
            if is_comma st then begin
              advance st;
              go (a :: acc)
            end
            else begin
              expect_close st RBRACKET;
              List.rev (a :: acc)
            end
          in
          Ast.Call ("list", go []))
  | IDENT name -> (
      advance st;
      match peek st with
      | LPAREN ->
          advance st;
          let args = parse_args st in
          Ast.Call (name, args)
      | _ -> Ast.Var name)
  | LPAREN -> (
      advance st;
      (* Downcast? "(ClassName) expr" — identifier followed by ')' then a
         primary-start token. *)
      match (peek st, peek2 st) with
      | IDENT cls, RPAREN
        when st.pos + 2 < Array.length st.toks
             && (match st.toks.(st.pos + 2) with
                | IDENT _ | LPAREN | KW "select" -> true
                | _ -> false) ->
          advance st;
          advance st;
          Ast.Downcast (cls, parse_unary st)
      | _ ->
          let e = parse_expr st in
          expect_close st RPAREN;
          e)
  | t -> fail (pos st) "unexpected %a" pp_token t

and parse_select st : Ast.select =
  expect_kw st "select";
  let distinct =
    if is_kw st "distinct" then begin
      advance st;
      true
    end
    else false
  in
  let projections =
    match peek st with
    | STAR ->
        advance st;
        None
    | _ ->
        let rec go acc =
          let e = parse_expr st in
          let alias =
            if is_kw st "as" then begin
              advance st;
              Some (expect_ident st "alias")
            end
            else None
          in
          if is_comma st then begin
            advance st;
            go ((e, alias) :: acc)
          end
          else List.rev ((e, alias) :: acc)
        in
        Some (go [])
  in
  expect_kw st "from";
  let rec parse_ranges acc =
    let src = parse_postfix st in
    let v = expect_ident st "range variable" in
    if is_comma st then begin
      advance st;
      parse_ranges ((src, v) :: acc)
    end
    else List.rev ((src, v) :: acc)
  in
  let ranges = parse_ranges [] in
  let where =
    if is_kw st "where" then begin
      advance st;
      Some (parse_expr st)
    end
    else None
  in
  let order_by =
    if is_kw st "order" then begin
      advance st;
      expect_kw st "by";
      let rec go acc =
        let e = parse_expr st in
        let asc =
          match peek st with
          | KW "asc" ->
              advance st;
              true
          | KW "desc" ->
              advance st;
              false
          | _ -> true
        in
        if is_comma st then begin
          advance st;
          go ((e, asc) :: acc)
        end
        else List.rev ((e, asc) :: acc)
      in
      go []
    end
    else []
  in
  let context =
    if is_kw st "in" && is_kw2 st "context" then begin
      advance st;
      advance st;
      Some (parse_expr st)
    end
    else None
  in
  { distinct; projections; ranges; where; order_by; context }

(** Parse a full POOL query (a select statement or a bare expression). *)
let parse (src : string) : Ast.expr =
  let toks, poss = scan src in
  let st = { toks; poss; pos = 0 } in
  let e = if is_kw st "select" then Ast.Select (parse_select st) else parse_expr st in
  (match peek st with EOF -> () | t -> fail (pos st) "trailing input: %a" pp_token t);
  e
