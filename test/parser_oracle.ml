(** The POOL parser as it was before its token tests became pattern
    matches (it compared tokens with polymorphic [=]), reading the
    oracle lexer's tokens: the oracle of the parse-tree identity test. *)

open Pool_lang.Lexer
module Ast = Pool_lang.Ast
module Value = Pmodel.Value

type state = { toks : (token * int) array; mutable pos : int }

let peek st = fst st.toks.(st.pos)
let peek2 st = if st.pos + 1 < Array.length st.toks then fst st.toks.(st.pos + 1) else EOF
let pos st = snd st.toks.(st.pos)
let advance st = st.pos <- st.pos + 1

let expect st tok what =
  if peek st = tok then advance st
  else fail (pos st) "expected %s, found %a" what pp_token (peek st)

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
  while peek st = KW "or" do
    advance st;
    lhs := Ast.Binop ("or", !lhs, parse_and st)
  done;
  !lhs

and parse_and st =
  let lhs = ref (parse_not st) in
  while peek st = KW "and" do
    advance st;
    lhs := Ast.Binop ("and", !lhs, parse_not st)
  done;
  !lhs

and parse_not st =
  if peek st = KW "not" then begin
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
      expect st (KW "and") "and";
      let hi = parse_setop st in
      Ast.Binop ("and", Ast.Binop (">=", lhs, lo), Ast.Binop ("<=", lhs, hi))
  | KW "in" when peek2 st <> KW "context" ->
      advance st;
      Ast.Binop ("in", lhs, parse_setop st)
  | KW "not" when peek2 st = KW "in" ->
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
    if peek st = DOT then begin
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
      if peek st = LPAREN then begin
        (* method-style call: receiver becomes first argument *)
        advance st;
        let args = parse_args st in
        e := Ast.Call (name, !e :: args)
      end
      else e := Ast.Path (!e, name)
    end
    else continue := false
  done;
  !e

and parse_args st =
  if peek st = RPAREN then begin
    advance st;
    []
  end
  else begin
    let rec go acc =
      let a = parse_expr st in
      if peek st = COMMA then begin
        advance st;
        go (a :: acc)
      end
      else begin
        expect st RPAREN "')'";
        List.rev (a :: acc)
      end
    in
    go []
  end

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
  | KW "exists" ->
      (* exists(coll) or exists select ... *)
      advance st;
      if peek st = LPAREN then begin
        advance st;
        let args = parse_args st in
        Ast.Call ("exists", args)
      end
      else Ast.Call ("exists", [ parse_expr st ])
  | LBRACKET ->
      (* list literal *)
      advance st;
      if peek st = RBRACKET then begin
        advance st;
        Ast.Call ("list", [])
      end
      else begin
        let rec go acc =
          let a = parse_expr st in
          if peek st = COMMA then begin
            advance st;
            go (a :: acc)
          end
          else begin
            expect st RBRACKET "']'";
            List.rev (a :: acc)
          end
        in
        Ast.Call ("list", go [])
      end
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
             && (match fst st.toks.(st.pos + 2) with
                | IDENT _ | LPAREN | KW "select" -> true
                | _ -> false) ->
          advance st;
          advance st;
          Ast.Downcast (cls, parse_unary st)
      | _ ->
          let e = parse_expr st in
          expect st RPAREN "')'";
          e)
  | t -> fail (pos st) "unexpected %a" pp_token t

and parse_select st : Ast.select =
  expect st (KW "select") "select";
  let distinct =
    if peek st = KW "distinct" then begin
      advance st;
      true
    end
    else false
  in
  let projections =
    if peek st = STAR then begin
      advance st;
      None
    end
    else begin
      let rec go acc =
        let e = parse_expr st in
        let alias =
          if peek st = KW "as" then begin
            advance st;
            Some (expect_ident st "alias")
          end
          else None
        in
        if peek st = COMMA then begin
          advance st;
          go ((e, alias) :: acc)
        end
        else List.rev ((e, alias) :: acc)
      in
      Some (go [])
    end
  in
  expect st (KW "from") "from";
  let rec parse_ranges acc =
    let src = parse_postfix st in
    let v = expect_ident st "range variable" in
    if peek st = COMMA then begin
      advance st;
      parse_ranges ((src, v) :: acc)
    end
    else List.rev ((src, v) :: acc)
  in
  let ranges = parse_ranges [] in
  let where =
    if peek st = KW "where" then begin
      advance st;
      Some (parse_expr st)
    end
    else None
  in
  let order_by =
    if peek st = KW "order" then begin
      advance st;
      expect st (KW "by") "by";
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
        if peek st = COMMA then begin
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
    if peek st = KW "in" && peek2 st = KW "context" then begin
      advance st;
      advance st;
      Some (parse_expr st)
    end
    else None
  in
  { distinct; projections; ranges; where; order_by; context }

(** Parse a full POOL query (a select statement or a bare expression). *)
let parse (src : string) : Ast.expr =
  let st = { toks = Array.of_list (Lexer_oracle.tokenize src); pos = 0 } in
  let e = if peek st = KW "select" then Ast.Select (parse_select st) else parse_expr st in
  if peek st <> EOF then fail (pos st) "trailing input: %a" pp_token (peek st);
  e
