(** Abstract syntax of POOL, the Prometheus Object-Oriented Language
    (thesis ch. 5.1): an OQL-derived select language extended with
    uniform treatment of relationships and objects, selective
    downcast, graph traversal operators, and classification-context
    scoping. *)

type expr =
  | Lit of Pmodel.Value.t
  | Var of string
  | Path of expr * string (* e.{attr} navigation; auto-dereferences *)
  | Call of string * expr list (* built-in functions, incl. method-style calls *)
  | Unop of string * expr (* "-", "not" *)
  | Binop of string * expr * expr (* = != < <= > >= + - * / mod and or in like union inter except *)
  | Downcast of string * expr (* (Class) e : selective downcast *)
  | Select of select
  | Slot of int * expr
      (* plan-internal, never parsed: a loop-invariant WHERE
         subexpression whose value the evaluator keeps in slot [i] of
         the running select (see {!Plan}) *)
  | Param of int
      (* plan-internal, never parsed: the [i]th literal of a planned
         query, read from the execution's parameter vector (see
         {!Plan.parameterise}) *)

and select = {
  distinct : bool;
  projections : (expr * string option) list option; (* None = project all range variables *)
  ranges : (expr * string) list; (* source, variable; later ranges may depend on earlier *)
  where : expr option;
  order_by : (expr * bool) list; (* expr, ascending? *)
  context : expr option; (* IN CONTEXT e : default classification context *)
}

let rec pp ppf = function
  | Lit v -> Pmodel.Value.pp ppf v
  | Var x -> Format.pp_print_string ppf x
  | Path (e, a) -> Format.fprintf ppf "%a.%s" pp e a
  | Call (f, args) ->
      Format.fprintf ppf "%s(%a)" f
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ") pp)
        args
  | Unop (op, e) -> Format.fprintf ppf "(%s %a)" op pp e
  | Binop (op, a, b) -> Format.fprintf ppf "(%a %s %a)" pp a op pp b
  | Downcast (c, e) -> Format.fprintf ppf "((%s) %a)" c pp e
  | Select s -> pp_select ppf s
  | Slot (_, e) -> pp ppf e
  | Param i -> Format.fprintf ppf "?%d" i

and pp_select ppf s =
  Format.fprintf ppf "(select%s " (if s.distinct then " distinct" else "");
  (match s.projections with
  | None -> Format.pp_print_string ppf "*"
  | Some ps ->
      Format.pp_print_list
        ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
        (fun ppf (e, alias) ->
          pp ppf e;
          match alias with Some a -> Format.fprintf ppf " as %s" a | None -> ())
        ppf ps);
  Format.fprintf ppf " from %a"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       (fun ppf (src, v) -> Format.fprintf ppf "%a %s" pp src v))
    s.ranges;
  (match s.where with Some w -> Format.fprintf ppf " where %a" pp w | None -> ());
  (match s.order_by with
  | [] -> ()
  | obs ->
      Format.fprintf ppf " order by %a"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           (fun ppf (e, asc) -> Format.fprintf ppf "%a %s" pp e (if asc then "asc" else "desc")))
        obs);
  (match s.context with Some c -> Format.fprintf ppf " in context %a" pp c | None -> ());
  Format.pp_print_string ppf ")"

let to_string e = Format.asprintf "%a" pp e
