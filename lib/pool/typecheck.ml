(** Static checking of POOL queries (thesis 5.1.2.4).

    A best-effort pass over the AST run before evaluation: it resolves
    range variables to classes where possible, and reports

    - unknown classes/extents in [from] clauses and downcasts,
    - navigation to attributes that no class in scope declares,
    - unknown builtin functions and wrong arities,
    - unknown relationship class names in string literals passed to
      relationship builtins.

    POOL is dynamically typed at heart (ODMG collections may mix
    subtypes, and role attributes are not statically declared), so the
    checker flags only errors that are certain, and stays silent on
    anything that could legally succeed at runtime — e.g. attributes
    reachable through role acquisition are accepted. *)

open Pmodel

type error = { message : string; expr : string }

let err expr fmt = Format.kasprintf (fun message -> { message; expr = Ast.to_string expr }) fmt

(** Static approximation of an expression's type. *)
type sty =
  | Known_class of string (* an object of this class *)
  | Coll_of of sty
  | Scalar
  | Unknown

(* name, minimum arity, maximum arity (None = unbounded) *)
let builtins =
  [
    ("list", 0, None); ("set", 0, None); ("bag", 0, None); ("elements", 1, Some 1);
    ("unique", 1, Some 1); ("first", 1, Some 1); ("isempty", 1, Some 1); ("exists", 1, Some 1);
    ("isnull", 1, Some 1); ("count", 1, Some 1); ("sum", 1, Some 1); ("avg", 1, Some 1);
    ("min", 1, Some 1); ("max", 1, Some 1); ("oid", 1, Some 1); ("class_of", 1, Some 1);
    ("attr", 2, Some 2); ("has_role", 2, Some 2); ("out", 2, Some 3); ("into", 2, Some 3);
    ("targets", 2, Some 3); ("sources", 2, Some 3); ("origin", 1, Some 1);
    ("destination", 1, Some 1); ("context_of", 1, Some 1); ("traverse", 4, Some 5);
    ("closure", 2, Some 3); ("descendants", 2, Some 3); ("ancestors", 2, Some 3);
    ("reachable", 3, Some 4); ("path", 3, Some 4); ("graph", 2, Some 3); ("nodes", 1, Some 1);
    ("edges", 1, Some 1); ("synonyms", 1, Some 1); ("same_entity", 2, Some 2);
    ("strlen", 1, Some 1); ("lower", 1, Some 1); ("upper", 1, Some 1);
    ("startswith", 2, Some 2); ("endswith", 2, Some 2); ("contains", 2, Some 2);
    ("date", 3, Some 3); ("year", 1, Some 1); ("month", 1, Some 1); ("day", 1, Some 1);
    ("abs", 1, Some 1);
  ]

let rel_name_position = [ ("out", 1); ("into", 1); ("targets", 1); ("sources", 1); ("traverse", 1); ("closure", 1); ("descendants", 1); ("ancestors", 1); ("reachable", 2); ("path", 2); ("graph", 1) ]

let rec check_expr schema (env : (string * sty) list) (e : Ast.expr) (errors : error list ref) :
    sty =
  match e with
  | Ast.Lit (Value.VRef _) -> Unknown
  | Ast.Lit _ -> Scalar
  | Ast.Var x -> (
      match List.assoc_opt x env with
      | Some t -> t
      | None ->
          if Meta.is_class schema x || Meta.is_rel schema x then Coll_of (Known_class x)
          else begin
            errors := err e "unknown variable or class %s" x :: !errors;
            Unknown
          end)
  | Ast.Path (recv, attr) -> (
      let rt = check_expr schema env recv errors in
      let check_class cls =
        (* endpoints of relationship instances are always navigable *)
        if Meta.is_rel schema cls && List.mem attr [ "origin"; "destination"; "context" ] then
          Unknown
        else
          match Meta.find_attr schema cls attr with
          | Some d -> (
              match d.Meta.attr_ty with
              | Value.TRef c -> Known_class c
              | Value.TList t | Value.TSet t | Value.TBag t -> (
                  match t with Value.TRef c -> Coll_of (Known_class c) | _ -> Coll_of Scalar)
              | _ -> Scalar)
          | None ->
              (* could still be a role attribute inherited from an
                 incoming relationship declaring it; only error when no
                 relationship class inherits an attribute of this name *)
              let some_role =
                List.exists (fun (r : Meta.rel_def) -> List.mem attr r.Meta.inherited_attrs)
                  (Meta.rels schema)
              in
              if not some_role then
                errors := err e "class %s has no attribute %s" cls attr :: !errors;
              Unknown
      in
      match rt with
      | Known_class cls -> check_class cls
      | Coll_of (Known_class cls) -> Coll_of (check_class cls)
      | _ -> Unknown)
  | Ast.Unop (_, a) ->
      ignore (check_expr schema env a errors);
      Scalar
  | Ast.Binop (op, a, b) ->
      let _ = check_expr schema env a errors in
      let tb = check_expr schema env b errors in
      if op = "in" then Scalar
      else if List.mem op [ "union"; "inter"; "except" ] then tb
      else Scalar
  | Ast.Downcast (cls, a) ->
      if not (Meta.is_class schema cls || Meta.is_rel schema cls) then
        errors := err e "unknown class %s in downcast" cls :: !errors;
      let ta = check_expr schema env a errors in
      (match ta with Coll_of _ -> Coll_of (Known_class cls) | _ -> Known_class cls)
  | Ast.Call (f, args) -> (
      (match List.assoc_opt f (List.map (fun (n, lo, hi) -> (n, (lo, hi))) builtins) with
      | None -> errors := err e "unknown function %s" f :: !errors
      | Some (lo, hi) ->
          let n = List.length args in
          if n < lo || (match hi with Some h -> n > h | None -> false) then
            errors :=
              err e "%s expects %d%s arguments, got %d" f lo
                (match hi with Some h when h <> lo -> Printf.sprintf "..%d" h | _ -> "")
                n
              :: !errors);
      (* relationship-name literals *)
      (match List.assoc_opt f rel_name_position with
      | Some pos when pos < List.length args -> (
          match List.nth args pos with
          | Ast.Lit (Value.VString rel) when not (Meta.is_rel schema rel) ->
              errors := err e "unknown relationship class %s" rel :: !errors
          | _ -> ())
      | _ -> ());
      List.iter (fun a -> ignore (check_expr schema env a errors)) args;
      match f with
      | "targets" | "sources" | "nodes" | "closure" | "descendants" | "ancestors" | "traverse" ->
          Coll_of Unknown
      | "out" | "into" -> (
          match args with
          | _ :: Ast.Lit (Value.VString rel) :: _ when Meta.is_rel schema rel ->
              Coll_of (Known_class rel)
          | _ -> Coll_of Unknown)
      | _ -> Unknown)
  | Ast.Select s -> check_select schema env s errors
  | Ast.Slot (_, e) -> check_expr schema env e errors
  | Ast.Param _ -> Unknown

and check_select schema env (s : Ast.select) errors : sty =
  (* ranges bind left to right *)
  let env =
    List.fold_left
      (fun env (src, var) ->
        let st = check_expr schema env src errors in
        let bound = match st with Coll_of t -> t | t -> t in
        (var, bound) :: env)
      env s.Ast.ranges
  in
  (match s.Ast.where with Some w -> ignore (check_expr schema env w errors) | None -> ());
  List.iter (fun (e, _) -> ignore (check_expr schema env e errors)) s.Ast.order_by;
  (match s.Ast.context with Some c -> ignore (check_expr schema env c errors) | None -> ());
  match s.Ast.projections with
  | None -> Coll_of Unknown
  | Some [ (e, _) ] -> Coll_of (check_expr schema env e errors)
  | Some ps ->
      List.iter (fun (e, _) -> ignore (check_expr schema env e errors)) ps;
      Coll_of Unknown

(** Check a parsed query against [schema]; [env] lists externally bound
    variables.  Returns the list of static errors (empty = clean). *)
let check ?(env = []) (schema : Meta.t) (e : Ast.expr) : error list =
  let errors = ref [] in
  ignore (check_expr schema (List.map (fun v -> (v, Unknown)) env) e errors);
  List.rev !errors

(** Parse then check a query string. *)
let check_string ?env schema (src : string) : error list =
  check ?env schema (Parser.parse src)
