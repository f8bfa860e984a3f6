(** POOL physical plans (thesis 6.1.5, extended).

    [compile] turns a [select] into a physical plan: one {!binding} per
    range variable, each with an access path and an optional hash-join
    key.  The evaluator executes the plan but always re-evaluates the
    *full* WHERE clause per candidate row (reading loop-invariant
    subexpressions from slots, below), so an access path only needs
    to produce a {e superset} of the qualifying objects — in ascending
    oid order, which is also the order the reference extent scan uses.
    That invariant is what makes optimized results bit-identical to the
    reference interpreter: pushdown can never change which rows survive or
    how they are ordered, only how many candidates are inspected — and,
    by the exactness rule below, never whether the query raises.

    Plans are compiled from a {e parameterised} select
    ({!parameterise}): each literal is a numbered [Ast.Param], and an
    execution reads the values from its parameter vector.  A plan
    therefore serves every query of its shape, whatever its literals;
    only a LIKE pattern, whose prefix picks the access path, stays a
    literal and so part of the shape.

    Access paths recognised from top-level WHERE conjuncts over an
    unshadowed class-extent range [Var cls] (a [lit] is a parameter):

    - [var.attr = lit]              -> {!constructor:Probe} (equality index)
    - [var.attr </<=/>/>= lit]      -> {!constructor:Range} (ordered index walk;
                                       bounds on the same attr combine at
                                       execution, tightest wins)
    - [var.attr like 'abc%...']     -> {!constructor:Prefix} (contiguous string
                                       block of the ordered index)
    - [var.attr between a and b] parses as two range conjuncts
    - [var in e], [e] mentioning neither [var] nor a later range
                                    -> {!constructor:Member}: [e] is evaluated
                                       once per outer row, and its elements
                                       that are refs in [cls]'s deep extent
                                       (a class test, no scan) are the
                                       candidates, ascending and distinct.
                                       An equality probe takes precedence.

    Hash joins: a non-first range whose WHERE has a top-level conjunct
    [var.attr = e], where [e] depends on earlier range variables but
    not on [var] or later ones, is executed by building a hash table
    over the range's candidates keyed on [attr] (once), then probing
    with [e] per outer row — replacing the nested extent rescans.

    Scan filters: the {e leading run} of the WHERE's top-level [and]
    chain is its longest prefix of conjuncts [v.attr OP lit] or
    [lit OP v.attr], OP one of [= != < <= > >=] and [v] an unshadowed,
    extent-backed range variable.  Each conjunct of the run goes to the
    {!field:filter} of [v]'s binding, which the evaluator tests on each
    candidate oid before allocating anything for it; one the binding's
    index access already guarantees (the probed equality, the bounds
    of a range walk) is left out.  Whether a test reads the attribute
    straight from the mirrored object ([Obj.get]) is decided here: it
    does when the range class is an object class and every class of
    its deep extent declares the attribute; role-inherited attributes
    and relationship endpoints go through the evaluator's attribute
    read.

    Exactness: narrowing a range by an access path, a hash join or a
    filter skips rows the interpreter visits, and a skipped row must
    be one the interpreter rejects without raising.  Two rules make it
    so.  First, a range is narrowed only on a conjunct of the leading
    run or on the conjunct that ends it.  A run conjunct never raises
    ([v] is bound to a live object, and
    {!Pmodel.Value.compare_value} is total), so the short-circuit
    [and] reaches that conjunct on every row, and where it is false the
    row is rejected silently.  (A LIKE prefix scan declines unless
    every indexed value is a string, on which [like] cannot raise; a
    hash-join probe key or a [Member] set that raises makes the
    evaluator replay the nested loop over the range's extent, so the
    WHERE raises on exactly the row where the interpreter's does, and
    not at all when no row reaches it, e.g. over an empty extent.)
    Second, a range is narrowed only when no later range
    is a per-row source ({!constructor:Src}): such a source is
    evaluated once per binding of the ranges before it, whatever the
    WHERE answers, and may raise on a row the WHERE would reject
    ([select p from P p, p.age.x q where p.age > 100]).  The one
    exception is the interpreter's own: it probes the first range's
    equality index on any conjunct, so the plan probes that conjunct
    too.

    Loop-invariant subexpressions: each maximal [Call] or [Select]
    subexpression of the WHERE clause that does not depend on the last
    range variable is wrapped in a numbered [Ast.Slot] in the plan's own
    copy of the clause ({!field:hoisted}).  Its {e level} is one plus the
    index of the last range binding one of its free variables (0: none
    does); the evaluator computes a slot the first time the WHERE
    reaches it and keeps the value until a range below that level is
    rebound — once per outer binding instead of once per candidate
    row.  A [Member] set is the hoisted form of its [e], so the access
    path and the WHERE's re-check share one slot; [v in] a slot tests
    a hash set built once per slot value.  When anything is hoisted
    the evaluator runs this copy, not the query's own clause.  The
    copy is made from the parameterised clause, so a plan taken from
    the cache reads the current query's literals, never those of the
    query it was compiled for.

    Plans contain no oids or values read from the data, only schema
    facts (which indexes exist, which names denote class extents, which
    classes declare an attribute), so a cached plan stays valid until
    {!Pmodel.Database.index_epoch} moves
    — bumped by index DDL and by class/relationship definition. *)

open Pmodel
module SSet = Set.Make (String)

type access =
  | Extent of string (* class extent scan, ascending oid *)
  | Probe of { cls : string; attr : string; value : int (* parameter *) }
  | Range of {
      cls : string;
      attr : string;
      lo : (int * bool) list; (* every lower bound on [attr]: parameter, inclusive *)
      hi : (int * bool) list;
    }
  | Prefix of { cls : string; attr : string; prefix : string }
  | Member of { cls : string; set : Ast.expr (* hoisted form: shares the WHERE's slot *) }
  | Src of Ast.expr (* arbitrary source expression, evaluated per outer row *)

type cmp = Equal | Not_equal | Less | Less_eq | Greater | Greater_eq

(** One scan-filter test, [var.attr cmp lit] with the attribute on the
    left and the literal a parameter. *)
type test = {
  attr : string;
  cmp : cmp;
  param : int;
  direct : bool;
      (* every class of the range's deep extent declares [attr]: read
         it with [Obj.get], no role or endpoint lookup *)
}

type binding = {
  var : string;
  access : access;
  hash_key : (string * Ast.expr) option;
      (* (build attr of this range, probe expression over outer bindings) *)
  filter : test list; (* conjunctive, tested before a candidate is kept *)
}

type t = {
  bindings : binding list;
  hoisted : (Ast.expr * int array) option;
      (* the WHERE clause with its loop-invariant subexpressions in
         [Slot]s, and each slot's level; [None] when nothing is hoisted
         and the query's own clause runs (a cached plan then keeps no
         copy of it) *)
}

(* --- free variables (with range-variable shadowing) -------------------- *)

let rec free_vars (e : Ast.expr) : SSet.t =
  match e with
  | Ast.Lit _ -> SSet.empty
  | Ast.Var x -> SSet.singleton x
  | Ast.Path (e, _) | Ast.Unop (_, e) | Ast.Downcast (_, e) -> free_vars e
  | Ast.Binop (_, a, b) -> SSet.union (free_vars a) (free_vars b)
  | Ast.Call (_, args) ->
      List.fold_left (fun acc a -> SSet.union acc (free_vars a)) SSet.empty args
  | Ast.Select s ->
      (* range sources see the outer scope plus earlier range variables;
         every other clause sees all range variables *)
      let free, bound =
        List.fold_left
          (fun (free, bound) (src, v) ->
            (SSet.union free (SSet.diff (free_vars src) bound), SSet.add v bound))
          (SSet.empty, SSet.empty) s.Ast.ranges
      in
      let under e = SSet.diff (free_vars e) bound in
      let opt acc = function Some e -> SSet.union acc (under e) | None -> acc in
      let free = opt (opt free s.Ast.where) s.Ast.context in
      let free =
        match s.Ast.projections with
        | None -> free
        | Some ps -> List.fold_left (fun acc (e, _) -> SSet.union acc (under e)) free ps
      in
      List.fold_left (fun acc (e, _) -> SSet.union acc (under e)) free s.Ast.order_by
  | Ast.Slot (_, e) -> free_vars e
  | Ast.Param _ -> SSet.empty

(* --- parameters ---------------------------------------------------------- *)

(** [parameterise s] is [s] with every literal replaced by
    [Ast.Param i], numbered left to right, and the literals' values in
    that order: the plan-cache key of a query shape, and the parameter
    vector of this query, in one walk.  A LIKE pattern stays a literal,
    since its prefix picks the access path. *)
let parameterise (s : Ast.select) : Ast.select * Value.t array =
  let lits = ref [] and n = ref 0 in
  let rec expr (e : Ast.expr) : Ast.expr =
    match e with
    | Ast.Lit v ->
        lits := v :: !lits;
        incr n;
        Ast.Param (!n - 1)
    | Ast.Var _ | Ast.Param _ | Ast.Slot _ -> e
    | Ast.Path (a, attr) -> Ast.Path (expr a, attr)
    | Ast.Unop (op, a) -> Ast.Unop (op, expr a)
    | Ast.Binop ("like", a, (Ast.Lit _ as pattern)) -> Ast.Binop ("like", expr a, pattern)
    | Ast.Binop (op, a, b) ->
        let a = expr a in
        Ast.Binop (op, a, expr b)
    | Ast.Downcast (cls, a) -> Ast.Downcast (cls, expr a)
    | Ast.Call (f, args) -> Ast.Call (f, List.map expr args)
    | Ast.Select s -> Ast.Select (select s)
  and select (s : Ast.select) : Ast.select =
    let projections = Option.map (List.map (fun (e, a) -> (expr e, a))) s.Ast.projections in
    let ranges = List.map (fun (e, v) -> (expr e, v)) s.Ast.ranges in
    let where = Option.map expr s.Ast.where in
    let order_by = List.map (fun (e, asc) -> (expr e, asc)) s.Ast.order_by in
    let context = Option.map expr s.Ast.context in
    { s with projections; ranges; where; order_by; context }
  in
  let s = select s in
  (s, Array.of_list (List.rev !lits))

(* --- conjunct analysis -------------------------------------------------- *)

let rec conjuncts (e : Ast.expr) : Ast.expr list =
  match e with Ast.Binop ("and", a, b) -> conjuncts a @ conjuncts b | e -> [ e ]

(* literal prefix of a LIKE pattern, up to the first wildcard *)
let like_prefix (pat : string) : string =
  let n = String.length pat in
  let rec go i = if i < n && pat.[i] <> '%' && pat.[i] <> '_' then go (i + 1) else i in
  String.sub pat 0 (go 0)

(* tightest combination of two optional bounds *)
let tighter ~is_lo a b =
  match (a, b) with
  | None, b -> b
  | a, None -> a
  | Some ((va, ia) as ba), Some ((vb, ib) as bb) ->
      let c = Value.compare_value va vb in
      let take_a = if is_lo then c > 0 || (c = 0 && not ia) else c < 0 || (c = 0 && not ia) in
      Some (if take_a then ba else if c = 0 then (va, ia && ib) else bb)

(** The tightest of a {!constructor:Range}'s bounds [bs] under the
    parameter vector [params]; [None] for no bound. *)
let tightest ~is_lo (params : Value.t array) bs =
  List.fold_left (fun acc (p, incl) -> tighter ~is_lo acc (Some (params.(p), incl))) None bs

(** Equality/range/prefix facts about [var.attr] found in one conjunct;
    values are parameters. *)
type fact =
  | Eq of string * int
  | Lo of string * (int * bool)
  | Hi of string * (int * bool)
  | Like of string * string (* attr, literal prefix *)

(** [v.attr OP lit] or [lit OP v.attr] with OP a comparison and [lit] a
    parameter, as [(v, attr, cmp, param)] with the attribute on the
    left.  Swapping the sides mirrors the operator:
    {!Pmodel.Value.compare_value} is antisymmetric. *)
let comparison (c : Ast.expr) : (string * string * cmp * int) option =
  let cmp_of = function
    | "=" -> Some Equal
    | "!=" -> Some Not_equal
    | "<" -> Some Less
    | "<=" -> Some Less_eq
    | ">" -> Some Greater
    | ">=" -> Some Greater_eq
    | _ -> None
  in
  let mirror = function
    | Less -> Greater
    | Less_eq -> Greater_eq
    | Greater -> Less
    | Greater_eq -> Less_eq
    | (Equal | Not_equal) as c -> c
  in
  match c with
  | Ast.Binop (op, Ast.Path (Ast.Var v, attr), Ast.Param p) ->
      Option.map (fun cmp -> (v, attr, cmp, p)) (cmp_of op)
  | Ast.Binop (op, Ast.Param p, Ast.Path (Ast.Var v, attr)) ->
      Option.map (fun cmp -> (v, attr, mirror cmp, p)) (cmp_of op)
  | _ -> None

let fact_of var (c : Ast.expr) : fact option =
  match c with
  (* [like] is not a comparison whose sides can be swapped: [lit like
     var.attr] matches the literal against the *stored pattern*, which
     no prefix scan over stored values can serve *)
  | Ast.Binop ("like", Ast.Path (Ast.Var x, attr), Ast.Lit (Value.VString pat)) when x = var ->
      let p = like_prefix pat in
      if p = "" then None else Some (Like (attr, p))
  | _ -> (
      match comparison c with
      | Some (x, attr, cmp, v) when x = var -> (
          match cmp with
          | Equal -> Some (Eq (attr, v))
          | Less -> Some (Hi (attr, (v, false)))
          | Less_eq -> Some (Hi (attr, (v, true)))
          | Greater -> Some (Lo (attr, (v, false)))
          | Greater_eq -> Some (Lo (attr, (v, true)))
          | Not_equal -> None)
      | _ -> None)

(** Does attribute value [v] pass [t], its literal [lit], as the
    query's own comparison would answer? *)
let holds (t : test) (lit : Value.t) (v : Value.t) : bool =
  let c = Value.compare_value v lit in
  match t.cmp with
  | Equal -> c = 0
  | Not_equal -> c <> 0
  | Less -> c < 0
  | Less_eq -> c <= 0
  | Greater -> c > 0
  | Greater_eq -> c >= 0

(* Is [t] implied by the index access of its binding? *)
let guaranteed (a : access) (t : test) : bool =
  match (a, t.cmp) with
  | Probe { attr; value; _ }, Equal -> attr = t.attr && value = t.param
  | Range { attr; _ }, (Less | Less_eq | Greater | Greater_eq) ->
      (* the walk's bounds are the tightest of every bound on [attr] *)
      attr = t.attr
  | _ -> false

(* --- loop-invariant subexpressions --------------------------------------- *)

module SMap = Map.Make (String)

(** Wrap each maximal [Call] or [Select] subexpression of [w] whose
    level is below the number of [ranges] in a [Slot], numbered left to
    right; return the rewritten clause and the slot levels, or [None]
    when there is nothing to hoist.  A range name bound twice denotes
    its last binding, as in the WHERE clause itself.  A [Select] that
    is not hoisted whole is left alone: its own plan hoists within its
    scope. *)
let hoist (ranges : string list) (w : Ast.expr) : (Ast.expr * int array) option =
  let n = List.length ranges in
  let index = SMap.of_seq (List.to_seq (List.mapi (fun i v -> (v, i)) ranges)) in
  let level e =
    SSet.fold
      (fun x acc -> match SMap.find_opt x index with Some i -> max acc (i + 1) | None -> acc)
      (free_vars e) 0
  in
  let levels = ref [] in
  let rec go (e : Ast.expr) : Ast.expr =
    match e with
    | (Ast.Call _ | Ast.Select _) when level e < n ->
        let slot = List.length !levels in
        levels := level e :: !levels;
        Ast.Slot (slot, e)
    | Ast.Call (f, args) -> Ast.Call (f, List.map go args)
    | Ast.Path (a, attr) -> Ast.Path (go a, attr)
    | Ast.Unop (op, a) -> Ast.Unop (op, go a)
    | Ast.Binop (op, a, b) ->
        let a = go a in
        Ast.Binop (op, a, go b)
    | Ast.Downcast (cls, a) -> Ast.Downcast (cls, go a)
    | Ast.Lit _ | Ast.Var _ | Ast.Select _ | Ast.Slot _ | Ast.Param _ -> e
  in
  let w = go w in
  if !levels = [] then None else Some (w, Array.of_list (List.rev !levels))

(* --- compilation -------------------------------------------------------- *)

(** Pick the access path for range [(cls, var)]: an equality probe
    from the conjuncts [probe_cs], else the membership set [member],
    else a LIKE prefix, else a range from the conjuncts [cs] — index
    paths conditional on an index existing. *)
let access_for db cls var ~probe_cs ~member (cs : Ast.expr list) : access =
  let facts = List.filter_map (fact_of var) cs in
  let indexed attr = Database.has_index db cls attr in
  let probe =
    List.find_map
      (fun c -> match fact_of var c with Some (Eq (a, v)) when indexed a -> Some (a, v) | _ -> None)
      probe_cs
  in
  match (probe, member) with
  | Some (attr, value), _ -> Probe { cls; attr; value }
  | None, Some set -> Member { cls; set }
  | None, None -> (
      let prefix =
        List.find_map (function Like (a, p) when indexed a -> Some (a, p) | _ -> None) facts
      in
      match prefix with
      | Some (attr, prefix) -> Prefix { cls; attr; prefix }
      | None -> (
          (* every range fact on the first indexed attribute that has
             one; the evaluator combines their values *)
          let attrs =
            List.filter_map (function Lo (a, _) | Hi (a, _) -> Some a | _ -> None) facts
          in
          let bounds pick = List.filter_map pick facts in
          match List.find_opt indexed (List.sort_uniq compare attrs) with
          | Some attr ->
              Range
                {
                  cls;
                  attr;
                  lo = bounds (function Lo (a, b) when a = attr -> Some b | _ -> None);
                  hi = bounds (function Hi (a, b) when a = attr -> Some b | _ -> None);
                }
          | None -> Extent cls))

(** A hash-join key for range [var] (not the first range): a top-level
    conjunct [var.attr = e] (either side) where [e] mentions at least
    one earlier range variable and none of [var] or the later range
    variables — so the table over this range's candidates can be built
    once and probed with [e] per outer row. *)
let hash_key_for var ~outer_vars ~later_vars (cs : Ast.expr list) : (string * Ast.expr) option =
  let candidate attr e =
    let fv = free_vars e in
    if
      (not (SSet.mem var fv))
      && (not (SSet.exists (fun v -> SSet.mem v fv) later_vars))
      && SSet.exists (fun v -> SSet.mem v fv) outer_vars
    then Some (attr, e)
    else None
  in
  List.find_map
    (function
      | Ast.Binop ("=", Ast.Path (Ast.Var x, attr), e) when x = var -> candidate attr e
      | Ast.Binop ("=", e, Ast.Path (Ast.Var x, attr)) when x = var -> candidate attr e
      | _ -> None)
    cs

(** Compile the parameterised select [s] against the schema facts of
    [db].  [bound] is the set of variables already bound by the caller
    (query [env] plus outer range variables for correlated
    subselects): a range source [Var x] with [x] bound is a plain
    expression, not an extent. *)
let compile db ~bound (s : Ast.select) : t =
  let schema = Database.schema db in
  let cs = match s.Ast.where with Some w -> conjuncts w | None -> [] in
  let ranges = Array.of_list s.Ast.ranges in
  let n = Array.length ranges in
  let vars = Array.map snd ranges in
  let var i = vars.(i) in
  let exists_in lo hi p =
    let rec go i = i < hi && (p i || go (i + 1)) in
    go lo
  in
  (* the class whose extent range [i] scans, when its source is one *)
  let extent_cls =
    Array.init n (fun i ->
        match fst ranges.(i) with
        | Ast.Var cls
          when (not (exists_in 0 i (fun j -> var j = cls)))
               && (not (List.mem cls bound))
               && (Meta.is_class schema cls || Meta.is_rel schema cls) ->
            Some cls
        | _ -> None)
  in
  (* a later range re-binding the same variable name makes the WHERE
     conjuncts refer to *that* binding — no pushdown into this one *)
  let shadowed i = exists_in (i + 1) n (fun j -> var j = var i) in
  (* range [i]'s candidates may be narrowed when no later range is a
     per-row source (see the header) *)
  let narrowable i = not (exists_in (i + 1) n (fun j -> extent_cls.(j) = None)) in
  let declared cls attr =
    Meta.is_class schema cls
    && List.for_all (fun c -> Meta.has_attr schema c attr) (Meta.subclasses schema cls)
  in
  (* the range a name denotes in the WHERE: its last binding *)
  let rec last v i = if i < 0 then None else if var i = v then Some i else last v (i - 1) in
  (* the leading run, as (range, test) in WHERE order *)
  let rec run = function
    | [] -> []
    | c :: rest -> (
        let test =
          match comparison c with
          | Some (v, attr, cmp, param) ->
              Option.bind (last v (n - 1)) (fun i ->
                  Option.map
                    (fun cls -> (i, { attr; cmp; param; direct = declared cls attr }))
                    extent_cls.(i))
          | None -> None
        in
        match test with Some t -> t :: run rest | None -> [])
  in
  let run = run cs in
  (* the run and the conjunct that ends it: on every row the
     interpreter reaches each of them, and nothing before them raises *)
  let reached = List.filteri (fun k _ -> k <= List.length run) cs in
  let hoisted = Option.bind s.Ast.where (hoist (Array.to_list vars)) in
  (* the reached conjuncts as the running clause has them: hoisting
     rewrites within conjuncts, never the [and] chain *)
  let hoisted_reached =
    match hoisted with
    | Some (w, _) -> List.filteri (fun k _ -> k <= List.length run) (conjuncts w)
    | None -> reached
  in
  (* a reached [var i in e], [e] mentioning neither range [i] nor a
     later one: [e] as the running clause has it *)
  let member i =
    let own_and_later = SSet.of_list (Array.to_list (Array.sub vars i (n - i))) in
    List.find_map
      (function
        | Ast.Binop ("in", Ast.Var x, e), Ast.Binop ("in", _, running)
          when x = var i && SSet.disjoint (free_vars e) own_and_later ->
            Some running
        | _ -> None)
      (List.combine reached hoisted_reached)
  in
  let binding i =
    let var = var i in
    match extent_cls.(i) with
    | None -> { var; access = Src (fst ranges.(i)); hash_key = None; filter = [] }
    | Some cls when shadowed i -> { var; access = Extent cls; hash_key = None; filter = [] }
    | Some cls ->
        let narrowable = narrowable i in
        let exact = if narrowable then reached else [] in
        (* the interpreter itself probes the first range on any equality
           conjunct with an index: the plan probes the same one *)
        let probe_cs = if i = 0 && Meta.is_class schema cls then cs else exact in
        let member = if narrowable then member i else None in
        let access = access_for db cls var ~probe_cs ~member exact in
        let hash_key =
          match access with
          | Member _ -> None
          | _ when i = 0 -> None
          | _ ->
            hash_key_for var
              ~outer_vars:(SSet.of_list (bound @ Array.to_list (Array.sub vars 0 i)))
              ~later_vars:(SSet.of_list (Array.to_list (Array.sub vars (i + 1) (n - i - 1))))
              exact
        in
        let filter =
          if narrowable then
            List.filter_map
              (fun (j, t) -> if j = i && not (guaranteed access t) then Some t else None)
              run
          else []
        in
        { var; access; hash_key; filter }
  in
  { bindings = List.init n binding; hoisted }

(* --- description (EXPLAIN-style, used by tests and the CLI) ------------- *)

let describe_access = function
  | Extent cls -> Printf.sprintf "extent(%s)" cls
  | Probe { cls; attr; _ } -> Printf.sprintf "probe(%s.%s)" cls attr
  | Range { cls; attr; lo; hi } ->
      Printf.sprintf "range(%s.%s%s%s)" cls attr
        (if lo <> [] then " lo" else "")
        (if hi <> [] then " hi" else "")
  | Prefix { cls; attr; prefix } -> Printf.sprintf "prefix(%s.%s,%S)" cls attr prefix
  | Member { cls; _ } -> Printf.sprintf "member(%s)" cls
  | Src _ -> "expr"

(** EXPLAIN text of [t].  [counts], one [(rejected, emitted)] per
    binding, adds what an execution's bindings touched. *)
let describe ?counts (t : t) : string =
  let touched i =
    match counts with
    | Some cs ->
        let rejected, emitted = List.nth cs i in
        Printf.sprintf " {candidates %d, rejected %d, emitted %d}" (rejected + emitted) rejected
          emitted
    | None -> ""
  in
  String.concat "; "
    (List.mapi
       (fun i b ->
         Printf.sprintf "%s<-%s%s%s" b.var (describe_access b.access)
           (match b.hash_key with Some (attr, _) -> Printf.sprintf " hash(%s)" attr | None -> "")
           (touched i))
       t.bindings
    @ (match t.hoisted with
      | Some (_, levels) -> List.map (Printf.sprintf "hoist@%d") (Array.to_list levels)
      | None -> [])
    @ List.concat_map
        (fun b -> List.map (fun t -> Printf.sprintf "filter(%s.%s)" b.var t.attr) b.filter)
        t.bindings)
