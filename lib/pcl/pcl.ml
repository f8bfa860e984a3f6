(** PCL — the Prometheus Constraint Language (thesis 5.2.3).

    A small OCL-inspired surface language for declaring constraints,
    translated into Prometheus ECA rules (thesis fig. 25).  Conditions
    are POOL boolean expressions over [self]:

    {v
      context Family inv family_suffix:
        endswith(self.name, 'aceae')

      context PlacedIn linkinv placement_ranks when true:
        self.origin.rank != self.destination.rank
    v}

    Grammar:
    {v
      pcl     := 'context' IDENT kind [ 'warn' ] IDENT [ 'when' expr ] ':' expr
      kind    := 'inv' | 'linkinv' | 'pre' | 'post'
    v}
    - [inv]     — class invariant, checked immediately on create/update;
    - [linkinv] — relationship rule, checked on link/retarget;
    - [pre]     — immediate rule (vetoes the operation via tx abort);
    - [post]    — deferred rule, checked at commit;
    - [warn]    — downgrade violation from abort to warning. *)

open Pool_lang
open Pmodel

exception Pcl_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Pcl_error s)) fmt

type kind = Inv | Linkinv | Pre | Post

type t = {
  pcl_name : string;
  target : string; (* class or relationship class *)
  kind : kind;
  warn : bool;
  applicability : Ast.expr option;
  condition : Ast.expr;
  source : string;
}

(* --- parsing ----------------------------------------------------------- *)

(* The ':' separator is not a POOL token, so split the declaration
   header from the condition textually at the first ':' that is outside
   quotes. *)
let split_on_colon (src : string) : string * string =
  let n = String.length src in
  let rec go i in_quote quote_char =
    if i >= n then fail "PCL: missing ':' separator"
    else
      match src.[i] with
      | ('\'' | '"') as c ->
          if in_quote && c = quote_char then go (i + 1) false ' '
          else if in_quote then go (i + 1) in_quote quote_char
          else go (i + 1) true c
      | ':' when not in_quote -> (String.sub src 0 i, String.sub src (i + 1) (n - i - 1))
      | _ -> go (i + 1) in_quote quote_char
  in
  go 0 false ' '

let parse_rule (src : string) : t =
  let header, body = split_on_colon src in
  let toks, poss = Lexer.scan header in
  let st = { Parser.toks; poss; pos = 0 } in
  let expect_kw kw =
    match Parser.peek st with
    | Lexer.KW k when k = kw -> Parser.advance st
    | t -> fail "PCL: expected '%s', found %a" kw Lexer.pp_token t
  in
  let ident what =
    match Parser.peek st with
    | Lexer.IDENT s ->
        Parser.advance st;
        s
    | t -> fail "PCL: expected %s, found %a" what Lexer.pp_token t
  in
  expect_kw "context";
  let target = ident "class name" in
  let kind =
    match ident "rule kind (inv/linkinv/pre/post)" with
    | "inv" -> Inv
    | "linkinv" -> Linkinv
    | "pre" -> Pre
    | "post" -> Post
    | k -> fail "PCL: unknown rule kind %s" k
  in
  let warn =
    match Parser.peek st with
    | Lexer.IDENT "warn" ->
        Parser.advance st;
        true
    | _ -> false
  in
  let pcl_name = ident "rule name" in
  let applicability =
    match Parser.peek st with
    | Lexer.IDENT "when" ->
        Parser.advance st;
        Some (Parser.parse_expr st)
    | _ -> None
  in
  (match Parser.peek st with
  | Lexer.EOF -> ()
  | t -> fail "PCL: trailing input in header: %a" Lexer.pp_token t);
  let condition = Parser.parse body in
  { pcl_name; target; kind; warn; applicability; condition; source = src }

(* --- translation to Prometheus rules (thesis fig. 25) ------------------ *)

let eval_with_self db expr oid =
  let st = Eval.make_state db in
  match Eval.eval st [ ("self", Value.VRef oid) ] expr with
  | Value.VBool b -> b
  | Value.VNull -> false
  | v -> fail "PCL condition must be boolean, got %a" Value.pp v

let oid_of_event (ev : Pevent.Event.primitive) =
  match ev with
  | Pevent.Event.Obj_created { oid; _ }
  | Pevent.Event.Obj_updated { oid; _ }
  | Pevent.Event.Obj_deleted { oid; _ }
  | Pevent.Event.Rel_created { oid; _ }
  | Pevent.Event.Rel_updated { oid; _ }
  | Pevent.Event.Rel_deleted { oid; _ } ->
      Some oid
  | _ -> None

(** Translate a parsed PCL declaration into a Prometheus rule. *)
let translate (t : t) : Prules.Rule.t =
  let on_violation = if t.warn then Prules.Rule.Warn else Prules.Rule.Abort in
  let applicability =
    Option.map
      (fun expr db ev ->
        match oid_of_event ev with
        | Some oid when Database.get db oid <> None -> eval_with_self db expr oid
        | _ -> false)
      t.applicability
  in
  let cond db (o : Obj.t) = eval_with_self db t.condition o.Obj.oid in
  match t.kind with
  | Inv ->
      let r =
        Prules.Rule.invariant ~on_violation ~message:t.source t.pcl_name ~class_name:t.target cond
      in
      { r with Prules.Rule.applicability }
  | Linkinv ->
      let r =
        Prules.Rule.relationship_rule ~on_violation ~message:t.source t.pcl_name
          ~rel_name:t.target cond
      in
      { r with Prules.Rule.applicability }
  | Pre ->
      let r =
        Prules.Rule.invariant ~timing:Prules.Rule.Immediate ~on_violation ~message:t.source
          t.pcl_name ~class_name:t.target cond
      in
      { r with Prules.Rule.applicability }
  | Post ->
      let r =
        Prules.Rule.invariant ~timing:Prules.Rule.Deferred ~on_violation ~message:t.source
          t.pcl_name ~class_name:t.target cond
      in
      { r with Prules.Rule.applicability }

(** Parse a PCL declaration and install it in a rule engine. *)
let install engine (src : string) : Prules.Rule.t =
  let rule = translate (parse_rule src) in
  Prules.Engine.add_rule engine rule;
  rule
