(** POOL evaluator.

    A tree-walking evaluator over {!Pmodel.Value.t}.  Queries run
    against the object layer; relationship navigation and graph
    operators delegate to {!Pgraph}.  The [in context] clause scopes
    relationship navigation to one classification (thesis 4.6.2,
    5.1.1.3); an explicit [null] context argument escapes the scope.

    Query optimisation (thesis 6.1.5): under {!default_config} each
    select is compiled to a physical {!Plan.t} — index probes, ordered
    range / LIKE-prefix scans, scan filters, hash joins for multi-range
    queries.  Graph builtins walk the mirror's adjacency under both
    engines.  Access paths and filters only ever narrow the candidate
    set (in the same ascending oid order the extent scan uses), only
    by rows the interpreter rejects without raising, and the full WHERE
    clause is still evaluated per row, so results are bit-identical to
    the reference tree-walking interpreter ({!legacy_config}), which
    the tests use as the planned engine's oracle.  The WHERE's
    loop-invariant subexpressions are computed on first use and
    kept for as long as the ranges they depend on stay bound
    ({!Plan.hoist}); a subexpression that raises is never kept, so
    errors surface on exactly the row where the interpreter raises.
    The planned engine runs the outermost select of a query
    parameterised ({!Plan.parameterise}), so plans are cached per
    query shape; the interpreter, and everything outside selects,
    sees the literals as parsed. *)

open Pmodel
module OidSet = Database.OidSet

exception Eval_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Eval_error s)) fmt

(* The [Value.as_*] coercions raise [Invalid_argument]; in a query a
   value of the wrong type is an evaluation error of the operation
   [what] that needed it. *)
let coerce what conv v = try conv v with Invalid_argument m -> fail "%s: %s" what m

(* Process-wide mirrors of the per-database [totals], for /metrics
   (DESIGN.md "Observability"). *)
let m_index_probes =
  Pobs.Metrics.counter "pdb_query_index_probes_total" ~help:"Index equality probes"

let m_range_scans =
  Pobs.Metrics.counter "pdb_query_range_scans_total" ~help:"Ordered index range/prefix scans"

let m_hash_joins = Pobs.Metrics.counter "pdb_query_hash_joins_total" ~help:"Hash joins built"

let m_extent_scans =
  Pobs.Metrics.counter "pdb_query_extent_scans_total" ~help:"Full extent scans"

let m_cache_hits =
  Pobs.Metrics.counter "pdb_plan_cache_hits_total" ~help:"Compiled-plan cache hits"

let m_cache_misses =
  Pobs.Metrics.counter "pdb_plan_cache_misses_total" ~help:"Compiled-plan cache misses"

let m_invariant_evals =
  Pobs.Metrics.counter "pdb_query_invariant_evals_total"
    ~help:"Loop-invariant WHERE subexpressions computed"

let m_invariant_reuses =
  Pobs.Metrics.counter "pdb_query_invariant_reuses_total"
    ~help:"Loop-invariant WHERE subexpressions answered from their slot"

(** Execution engine.  [Planned] compiles each select to a cached
    physical plan (access paths, scan filters, hash joins, hoisted
    invariants); [Reference] is the tree-walking interpreter: nested
    extent loops, a single first-range equality probe. *)
type config = Planned | Reference

let default_config = Planned

(** The reference interpreter, the oracle for the planned engine. *)
let legacy_config = Reference

(** Cumulative per-database counters, reported by [pdb stats] and the
    server's [/stats]. *)
type totals = {
  t_index_probes : int Atomic.t;
  t_range_scans : int Atomic.t;
  t_hash_joins : int Atomic.t;
  t_extent_scans : int Atomic.t;
  t_cache_hits : int Atomic.t;
  t_cache_misses : int Atomic.t;
  t_invariant_evals : int Atomic.t;
  t_invariant_reuses : int Atomic.t;
}

(* The plan cache's key: a parameterised select (its literals are
   [Ast.Param]s, so one entry serves every query of a shape) and the
   sorted names its caller binds.  Hashed over the whole tree (the
   default hash stops after ten values) and compared structurally, so a
   lookup formats nothing. *)
module Plan_key = struct
  type t = Ast.select * string list

  let equal (a : t) (b : t) = a = b
  let hash (k : t) = Hashtbl.hash_param 256 256 k
end

module Plan_cache = Hashtbl.Make (Plan_key)

(* Plan-cache entries carry the index epoch they were compiled under;
   a moved epoch means an index was created or dropped, or a class or
   relationship was defined, and the plan must be rebuilt (counted as
   a miss). *)
type per_db = {
  totals : totals;
  cache : (int * Plan.t) Plan_cache.t;
  cache_mu : Mutex.t; (* queries may run on any domain over a shared view *)
}

(* Per-database state lives on the database record itself
   (Database.ext), so cumulative statistics and the plan cache share
   the database's lifetime exactly: no registry cap to evict a live
   database's counters, no strong reference keeping a closed database
   alive. *)
type Database.ext += Pool_state of per_db

let ext_key = "pool.eval"

let per_db db : per_db =
  match
    Database.ext_get_or_init db ext_key (fun () ->
        Pool_state
          {
            totals =
              {
                t_index_probes = Atomic.make 0;
                t_range_scans = Atomic.make 0;
                t_hash_joins = Atomic.make 0;
                t_extent_scans = Atomic.make 0;
                t_cache_hits = Atomic.make 0;
                t_cache_misses = Atomic.make 0;
                t_invariant_evals = Atomic.make 0;
                t_invariant_reuses = Atomic.make 0;
              };
            cache = Plan_cache.create 64;
            cache_mu = Mutex.create ();
          })
  with
  | Pool_state p -> p
  | _ -> assert false

type db_stats = {
  index_probes : int;
  range_scans : int;
  hash_joins : int;
  extent_scans : int;
  plan_cache_hits : int;
  plan_cache_misses : int;
  invariant_evals : int; (* hoisted WHERE subexpressions computed *)
  invariant_reuses : int; (* ... and answered from their slot *)
  adjacency_rebuilds : int; (* always 0: traversals walk the mirror's adjacency *)
}

(** Cumulative query-engine statistics for [db]. *)
let db_stats db : db_stats =
  let t = (per_db db).totals in
  {
    index_probes = Atomic.get t.t_index_probes;
    range_scans = Atomic.get t.t_range_scans;
    hash_joins = Atomic.get t.t_hash_joins;
    extent_scans = Atomic.get t.t_extent_scans;
    plan_cache_hits = Atomic.get t.t_cache_hits;
    plan_cache_misses = Atomic.get t.t_cache_misses;
    invariant_evals = Atomic.get t.t_invariant_evals;
    invariant_reuses = Atomic.get t.t_invariant_reuses;
    adjacency_rebuilds = 0;
  }

(* One hoisted WHERE subexpression's value for the current outer
   bindings, and once [in] has tested against it, its elements as a
   hash set ([None]: a value no hash can key, see [hashable]). *)
type cell = Empty | Cached of Value.t | Hashed of Value.t * (Value.t, unit) Hashtbl.t option

(* Slot storage of one select execution: a cell per hoisted WHERE
   subexpression of its plan, plus counts flushed to [totals] when it
   ends.  Local to the execution — plans, shared through the cache,
   stay immutable. *)
type frame = { cells : cell array; mutable evals : int; mutable reuses : int }

let new_frame n = { cells = Array.make n Empty; evals = 0; reuses = 0 }

(** Exact counts of one binding of a select, summed over its outer
    rows: of the values its access path offered (the candidates), how
    many its class test or scan filter dropped, and how many it bound
    to its variable. *)
type counts = { mutable rejected : int; mutable emitted : int }

type state = {
  db : Database.t;
  config : config;
  totals : totals;
  cache : (int * Plan.t) Plan_cache.t;
  cache_mu : Mutex.t;
  mutable plan_memo : (Ast.select * Plan.t) list;
      (* per-query physical-identity memo: a correlated subselect is
         planned once, not once per outer row *)
  mutable ctx : int option; (* current classification context *)
  mutable frame : frame; (* slots of the innermost running select *)
  mutable params : Value.t array; (* literals of the running parameterised select *)
  mutable parameterised : bool; (* a parameterised select is running *)
  mutable counting : bool; (* keep [counted] (EXPLAIN with counts, [Pool.query ?plan]) *)
  mutable counted : (Plan.t * (int * int) list) option;
      (* plan and (rejected, emitted) per binding of the last outermost
         planned select *)
  mutable index_probes : int; (* per-query statistics, for explain/tests *)
  mutable extent_scans : int;
  mutable range_scans : int;
  mutable hash_joins : int;
}

let make_state ?(config = default_config) db =
  let p = per_db db in
  {
    db;
    config;
    totals = p.totals;
    cache = p.cache;
    cache_mu = p.cache_mu;
    plan_memo = [];
    ctx = None;
    frame = new_frame 0;
    params = [||];
    parameterised = false;
    counting = false;
    counted = None;
    index_probes = 0;
    extent_scans = 0;
    range_scans = 0;
    hash_joins = 0;
  }

type env = (string * Value.t) list

(* Per-binding execution mode, prepared once per select execution.
   Access-path candidates are invariant in the outer bindings, so they
   are hoisted; [Expr] sources are evaluated per outer row exactly as
   the reference interpreter does. *)
type exec =
  | Candidates of Value.t list * int
      (* hoisted, ascending oid order; and how many the filter dropped *)
  | Hash_probe of (Value.t, int list ref) Hashtbl.t * Ast.expr * Value.t list
      (* build table, probe-key expression, full candidate list (the
         fallback when the probe key fails to evaluate — the nested
         loop then reproduces reference error behaviour exactly) *)
  | Member of {
      set : Ast.expr;
      classes : string list; (* the range's deep extent, as a class test *)
      tests : Plan.test list;
      extent : (Value.t list * int) Lazy.t;
          (* the filtered extent: the fallback when [set] fails to
             evaluate, as for [Hash_probe] *)
    }
  | Per_row of Ast.expr

(* Hash keys must agree with [Value.equal_value], which equates VInt
   with VFloat, -0. with 0., and any two NaNs.  Normalising to a
   canonical representative makes structural hashing/equality coincide
   with value equality. *)
let rec norm_key (v : Value.t) : Value.t =
  match v with
  | Value.VInt i -> Value.VFloat (float_of_int i)
  | Value.VFloat f ->
      if f <> f then Value.VFloat Float.nan else if f = 0. then Value.VFloat 0. else v
  | Value.VList l -> Value.VList (List.map norm_key l)
  | Value.VSet l -> Value.VSet (List.map norm_key l)
  | Value.VBag l -> Value.VBag (List.map norm_key l)
  | v -> v

(* Can [norm_key v] stand for [v] in a hash table?  Not when [v] holds
   an int beyond 2^53: [VInt] = [VFloat] rounds it, so two distinct ints
   would share a key. *)
let rec hashable (v : Value.t) =
  match v with
  | Value.VInt i -> abs i <= 1 lsl 53
  | Value.VList l | Value.VSet l | Value.VBag l -> List.for_all hashable l
  | _ -> true

(* --- helpers -------------------------------------------------------- *)

let elements = function
  | Value.VList l | Value.VSet l | Value.VBag l -> l
  | Value.VNull -> []
  | v -> [ v ]

let collection_or_singleton = function
  | (Value.VList _ | Value.VSet _ | Value.VBag _ | Value.VNull) as v -> elements v
  | v -> [ v ]

(* A descending fold builds the ascending element list directly — the
   oids are already sorted and unique, so the [VSet] invariant holds
   without the sort/dedup pass (and the intermediate list) of
   [Value.vset (List.map ... (OidSet.elements s))]. *)
let refs_of_oidset s =
  Value.VSet (Seq.fold_left (fun acc o -> Value.VRef o :: acc) [] (OidSet.to_rev_seq s))

(* A class extent as a [VSet], straight from the mirror's ascending
   extent vectors. *)
let refs_of_extent db cls =
  Value.VSet (List.rev (Database.fold_extent db cls (fun acc o -> Value.VRef o :: acc) []))

let refs_of_objs objs =
  Value.VList (List.rev (List.rev_map (fun (o : Obj.t) -> Value.VRef o.Obj.oid) objs))

(* SQL LIKE matching: '%' = any sequence, '_' = any single char. *)
let like_match (s : string) (pat : string) : bool =
  let n = String.length s and m = String.length pat in
  (* dp.(j) = pattern prefix j matches current string prefix *)
  let dp = Array.make (m + 1) false in
  dp.(0) <- true;
  for j = 1 to m do
    dp.(j) <- dp.(j - 1) && pat.[j - 1] = '%'
  done;
  for i = 1 to n do
    let prev_diag = ref dp.(0) in
    dp.(0) <- false;
    for j = 1 to m do
      let cur = dp.(j) in
      (dp.(j) <-
         (match pat.[j - 1] with
         | '%' -> dp.(j - 1) || dp.(j) (* match empty or extend *)
         | '_' -> !prev_diag
         | c -> !prev_diag && c = s.[i - 1]));
      prev_diag := cur
    done
  done;
  dp.(m)

let starts_with ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let ends_with ~suffix s =
  let ls = String.length s and lx = String.length suffix in
  ls >= lx && String.sub s (ls - lx) lx = suffix

(* allocation-free two-index scan (no [String.sub] per position) *)
let contains_sub s sub =
  let ls = String.length s and lx = String.length sub in
  if lx = 0 then true
  else begin
    let found = ref false in
    let i = ref 0 in
    while (not !found) && !i + lx <= ls do
      let j = ref 0 in
      while !j < lx && String.unsafe_get s (!i + !j) = String.unsafe_get sub !j do
        incr j
      done;
      if !j = lx then found := true else incr i
    done;
    !found
  end

(** LIKE with fast paths: patterns whose wildcards sit only at the ends
    ([abc], [abc%], [%abc], [%abc%]) are answered by direct string
    scans; everything else falls back to the {!like_match} DP.  Both
    agree exactly — the property suite checks them against each
    other. *)
let like_eval (s : string) (pat : string) : bool =
  let m = String.length pat in
  let is_wild c = c = '%' || c = '_' in
  let inner_wild =
    let rec go i = i < m && ((i > 0 && i < m - 1 && is_wild pat.[i]) || go (i + 1)) in
    go 0
  in
  if inner_wild || (m > 0 && (pat.[0] = '_' || pat.[m - 1] = '_')) then like_match s pat
  else
    match (m > 0 && pat.[0] = '%', m > 0 && pat.[m - 1] = '%') with
    | false, false -> s = pat
    | false, true -> starts_with ~prefix:(String.sub pat 0 (m - 1)) s
    | true, false -> ends_with ~suffix:(String.sub pat 1 (m - 1)) s
    | true, true ->
        if m = 1 then true else contains_sub s (String.sub pat 1 (m - 2))

(* --- evaluation ------------------------------------------------------ *)

let rec eval (st : state) (env : env) (e : Ast.expr) : Value.t =
  match e with
  | Ast.Lit v -> v
  | Ast.Var x -> (
      match List.assoc_opt x env with
      | Some v -> v
      | None ->
          let schema = Database.schema st.db in
          if Meta.is_class schema x || Meta.is_rel schema x then begin
            st.extent_scans <- st.extent_scans + 1;
            Pobs.Metrics.inc m_extent_scans;
            refs_of_extent st.db x
          end
          else fail "unbound variable or unknown class: %s" x)
  | Ast.Path (e, attr) -> eval_path st (eval st env e) attr
  | Ast.Unop ("not", e) -> Value.VBool (not (coerce "not" Value.as_bool (eval st env e)))
  | Ast.Unop ("-", e) -> (
      match eval st env e with
      | Value.VInt i -> Value.VInt (-i)
      | Value.VFloat f -> Value.VFloat (-.f)
      | v -> fail "cannot negate %a" Value.pp v)
  | Ast.Unop (op, _) -> fail "unknown unary operator %s" op
  | Ast.Binop ("and", a, b) ->
      let cond e = coerce "and" Value.as_bool (eval st env e) in
      Value.VBool (cond a && cond b)
  | Ast.Binop ("or", a, b) ->
      let cond e = coerce "or" Value.as_bool (eval st env e) in
      Value.VBool (cond a || cond b)
  | Ast.Binop ("in", a, Ast.Slot (i, e)) ->
      (* the collection first, as for every operator below *)
      let set = slot_set st env i e in
      let x = eval st env a in
      Value.VBool
        (match set with
        | Hashed (_, Some h) when hashable x -> Hashtbl.mem h (norm_key x)
        | Cached v | Hashed (v, _) -> List.exists (Value.equal_value x) (elements v)
        | Empty -> assert false)
  | Ast.Binop (op, a, b) ->
      let b = eval st env b in
      eval_binop st op (eval st env a) b
  | Ast.Downcast (cls, e) -> eval_downcast st cls (eval st env e)
  | Ast.Call (f, args) -> eval_call st env f args
  | Ast.Select s -> eval_select st env s
  | Ast.Slot (i, e) -> slot st env i e
  | Ast.Param i -> st.params.(i)

and slot st env i e : Value.t =
  let f = st.frame in
  match f.cells.(i) with
  | Cached v | Hashed (v, _) ->
      f.reuses <- f.reuses + 1;
      v
  | Empty ->
      (* kept only once computed: a raise leaves the cell empty *)
      let v = eval st env e in
      f.cells.(i) <- Cached v;
      f.evals <- f.evals + 1;
      v

(* Slot [i]'s cell, with the hash set of its elements built on the
   first [in] test against this value *)
and slot_set st env i e : cell =
  let f = st.frame in
  ignore (slot st env i e);
  match f.cells.(i) with
  | Cached v ->
      let set =
        if hashable v then begin
          let l = elements v in
          let h = Hashtbl.create (List.length l) in
          List.iter (fun x -> Hashtbl.replace h (norm_key x) ()) l;
          Some h
        end
        else None
      in
      let c = Hashed (v, set) in
      f.cells.(i) <- c;
      c
  | c -> c

and eval_path st (recv : Value.t) attr : Value.t =
  match recv with
  | Value.VRef oid -> eval_obj_attr st oid attr
  | Value.VList _ | Value.VSet _ | Value.VBag _ ->
      let results =
        List.concat_map
          (fun v -> collection_or_singleton (eval_path st v attr))
          (elements recv)
      in
      Value.VList results
  | Value.VNull -> Value.VNull
  | v -> fail "cannot navigate .%s on %a" attr Value.pp v

and eval_obj_attr st oid attr : Value.t =
  let o = Database.get_exn st.db oid in
  (* uniform treatment of relationship instances: their endpoints are
     plain navigable attributes *)
  if Database.is_rel_instance st.db o then
    match attr with
    | "origin" -> Value.VRef (Obj.origin o)
    | "destination" -> Value.VRef (Obj.destination o)
    | "context" -> ( match Obj.context o with Some c -> Value.VRef c | None -> Value.VNull)
    | _ -> Database.get_attr st.db oid attr
  else Database.get_attr st.db oid attr

and eval_binop _st op (a : Value.t) (b : Value.t) : Value.t =
  match op with
  | "=" -> Value.VBool (Value.equal_value a b)
  | "!=" -> Value.VBool (not (Value.equal_value a b))
  | "<" -> Value.VBool (Value.compare_value a b < 0)
  | "<=" -> Value.VBool (Value.compare_value a b <= 0)
  | ">" -> Value.VBool (Value.compare_value a b > 0)
  | ">=" -> Value.VBool (Value.compare_value a b >= 0)
  | "in" -> Value.VBool (List.exists (Value.equal_value a) (elements b))
  | "like" ->
      let str = coerce "like" Value.as_string in
      Value.VBool (like_eval (str a) (str b))
  | "union" -> Value.vset (elements a @ elements b)
  | "inter" ->
      let eb = elements b in
      Value.vset (List.filter (fun x -> List.exists (Value.equal_value x) eb) (elements a))
  | "except" ->
      let eb = elements b in
      Value.vset (List.filter (fun x -> not (List.exists (Value.equal_value x) eb)) (elements a))
  | "+" | "-" | "*" | "/" | "mod" -> eval_arith op a b
  | _ -> fail "unknown operator %s" op

and eval_arith op a b =
  match (op, a, b) with
  | "+", Value.VString x, Value.VString y -> Value.VString (x ^ y)
  | _, Value.VInt x, Value.VInt y -> (
      match op with
      | "+" -> Value.VInt (x + y)
      | "-" -> Value.VInt (x - y)
      | "*" -> Value.VInt (x * y)
      | "/" -> if y = 0 then fail "division by zero" else Value.VInt (x / y)
      | "mod" -> if y = 0 then fail "division by zero" else Value.VInt (x mod y)
      | _ -> assert false)
  | _, (Value.VInt _ | Value.VFloat _), (Value.VInt _ | Value.VFloat _) -> (
      let x = Value.as_float a and y = Value.as_float b in
      match op with
      | "+" -> Value.VFloat (x +. y)
      | "-" -> Value.VFloat (x -. y)
      | "*" -> Value.VFloat (x *. y)
      | "/" -> Value.VFloat (x /. y)
      | "mod" -> Value.VFloat (Float.rem x y)
      | _ -> assert false)
  | _ -> fail "cannot apply %s to %a and %a" op Value.pp a Value.pp b

and eval_downcast st cls (v : Value.t) : Value.t =
  let schema = Database.schema st.db in
  if not (Meta.is_class schema cls || Meta.is_rel schema cls) then fail "unknown class %s in downcast" cls;
  let keep = function
    | Value.VRef oid -> (
        match Database.class_of st.db oid with
        | Some c -> Meta.is_subclass schema ~sub:c ~super:cls
        | None -> false)
    | _ -> false
  in
  match v with
  | Value.VRef _ -> if keep v then v else Value.VNull
  | Value.VList l -> Value.VList (List.filter keep l)
  | Value.VSet l -> Value.vset (List.filter keep l)
  | Value.VBag l -> Value.vbag (List.filter keep l)
  | Value.VNull -> Value.VNull
  | v -> fail "cannot downcast %a" Value.pp v

and ctx_arg st (args : Value.t list) (expected_before : int) : int option =
  (* Relationship builtins accept an optional trailing context argument:
     absent -> current query context; VNull -> explicitly unscoped. *)
  if List.length args > expected_before then
    match List.nth args expected_before with
    | Value.VRef c -> Some c
    | Value.VNull -> None
    | v -> fail "context argument must be a context reference, got %a" Value.pp v
  else st.ctx

and eval_call st env f (arg_exprs : Ast.expr list) : Value.t =
  let args = lazy (List.map (eval st env) arg_exprs) in
  let arg n =
    let l = Lazy.force args in
    if n < List.length l then List.nth l n else fail "%s: missing argument %d" f (n + 1)
  in
  let oid_arg n = coerce f Value.as_ref (arg n) in
  let str_arg n = coerce f Value.as_string (arg n) in
  let int_arg n = coerce f Value.as_int (arg n) in
  let nargs () = List.length (Lazy.force args) in
  match f with
  (* collection builders *)
  | "list" -> Value.VList (Lazy.force args)
  | "set" -> Value.vset (Lazy.force args)
  | "bag" -> Value.vbag (Lazy.force args)
  | "elements" -> Value.VList (List.concat_map elements (elements (arg 0)))
  | "unique" -> Value.vset (elements (arg 0))
  | "first" -> ( match elements (arg 0) with [] -> Value.VNull | x :: _ -> x)
  | "isempty" -> Value.VBool (elements (arg 0) = [])
  | "exists" -> Value.VBool (elements (arg 0) <> [])
  | "isnull" -> Value.VBool (Value.is_null (arg 0))
  (* aggregates *)
  | "count" -> Value.VInt (List.length (elements (arg 0)))
  | "sum" ->
      List.fold_left (fun acc v -> eval_arith "+" acc v) (Value.VInt 0) (elements (arg 0))
  | "avg" -> (
      match elements (arg 0) with
      | [] -> Value.VNull
      | l ->
          let s = List.fold_left (fun acc v -> acc +. coerce f Value.as_float v) 0. l in
          Value.VFloat (s /. float_of_int (List.length l)))
  | "min" -> (
      match elements (arg 0) with
      | [] -> Value.VNull
      | x :: rest -> List.fold_left (fun a b -> if Value.compare_value b a < 0 then b else a) x rest)
  | "max" -> (
      match elements (arg 0) with
      | [] -> Value.VNull
      | x :: rest -> List.fold_left (fun a b -> if Value.compare_value b a > 0 then b else a) x rest)
  (* object introspection *)
  | "oid" -> Value.VInt (oid_arg 0)
  | "class_of" -> (
      match Database.class_of st.db (oid_arg 0) with
      | Some c -> Value.VString c
      | None -> Value.VNull)
  | "attr" -> Database.get_attr st.db (oid_arg 0) (str_arg 1)
  | "has_role" -> Value.VBool (Database.has_role st.db (oid_arg 0) ~rel_name:(str_arg 1))
  (* relationship navigation (uniform treatment, thesis 5.1.1.2) *)
  | "out" ->
      refs_of_objs (Database.outgoing st.db ?context:(ctx_arg st (Lazy.force args) 2) ~rel_name:(str_arg 1) (oid_arg 0))
  | "into" ->
      refs_of_objs (Database.incoming st.db ?context:(ctx_arg st (Lazy.force args) 2) ~rel_name:(str_arg 1) (oid_arg 0))
  | "targets" ->
      Value.VList
        (List.map
           (fun o -> Value.VRef o)
           (Database.targets st.db ?context:(ctx_arg st (Lazy.force args) 2) ~rel_name:(str_arg 1) (oid_arg 0)))
  | "sources" ->
      Value.VList
        (List.map
           (fun o -> Value.VRef o)
           (Database.sources st.db ?context:(ctx_arg st (Lazy.force args) 2) ~rel_name:(str_arg 1) (oid_arg 0)))
  | "origin" -> Value.VRef (coerce f Obj.origin (Database.get_exn st.db (oid_arg 0)))
  | "destination" -> Value.VRef (coerce f Obj.destination (Database.get_exn st.db (oid_arg 0)))
  | "context_of" -> (
      match Obj.context (Database.get_exn st.db (oid_arg 0)) with
      | Some c -> Value.VRef c
      | None -> Value.VNull)
  (* graph exploration and extraction (thesis 5.1.1.3) *)
  | "traverse" ->
      let ctx = ctx_arg st (Lazy.force args) 4 in
      let max_depth = match arg 3 with Value.VNull -> None | _ -> Some (int_arg 3) in
      refs_of_oidset
        (Pgraph.Traverse.descendants st.db ?context:ctx ~min_depth:(int_arg 2) ?max_depth
           ~rel:(str_arg 1) (oid_arg 0))
  | "closure" ->
      refs_of_oidset
        (Pgraph.Traverse.closure st.db ?context:(ctx_arg st (Lazy.force args) 2) ~rel:(str_arg 1)
           (oid_arg 0))
  | "descendants" ->
      refs_of_oidset
        (Pgraph.Traverse.descendants st.db ?context:(ctx_arg st (Lazy.force args) 2)
           ~rel:(str_arg 1) (oid_arg 0))
  | "ancestors" ->
      refs_of_oidset
        (Pgraph.Traverse.ancestors st.db ?context:(ctx_arg st (Lazy.force args) 2)
           ~rel:(str_arg 1) (oid_arg 0))
  | "reachable" ->
      Value.VBool
        (Pgraph.Traverse.reachable st.db ?context:(ctx_arg st (Lazy.force args) 3)
           ~rel:(str_arg 2) (oid_arg 0) (oid_arg 1))
  | "path" -> (
      match
        Pgraph.Traverse.shortest_path st.db ?context:(ctx_arg st (Lazy.force args) 3) ~rel:(str_arg 2)
          (oid_arg 0) (oid_arg 1)
      with
      | Some p -> Value.VList (List.map (fun o -> Value.VRef o) p)
      | None -> Value.VNull)
  | "graph" ->
      let g =
        Pgraph.Subgraph.extract st.db ?context:(ctx_arg st (Lazy.force args) 2) ~rel:(str_arg 1)
          (oid_arg 0)
      in
      Value.VList
        [ refs_of_oidset g.Pgraph.Subgraph.nodes;
          Value.vset (List.map (fun o -> Value.VRef o) g.Pgraph.Subgraph.edges) ]
  | "nodes" -> (
      match elements (arg 0) with [ ns; _ ] -> ns | _ -> fail "nodes: expected a graph value")
  | "edges" -> (
      match elements (arg 0) with [ _; es ] -> es | _ -> fail "edges: expected a graph value")
  (* instance synonyms (thesis 4.5) *)
  | "synonyms" -> refs_of_oidset (Database.synonym_set st.db (oid_arg 0))
  | "same_entity" -> Value.VBool (Database.same_entity st.db (oid_arg 0) (oid_arg 1))
  (* strings *)
  | "strlen" -> Value.VInt (String.length (str_arg 0))
  | "lower" -> Value.VString (String.lowercase_ascii (str_arg 0))
  | "upper" -> Value.VString (String.uppercase_ascii (str_arg 0))
  | "startswith" -> Value.VBool (starts_with ~prefix:(str_arg 1) (str_arg 0))
  | "endswith" -> Value.VBool (ends_with ~suffix:(str_arg 1) (str_arg 0))
  | "contains" -> Value.VBool (contains_sub (str_arg 0) (str_arg 1))
  (* dates and numbers *)
  | "date" -> Value.VDate (Value.date ~month:(int_arg 1) ~day:(int_arg 2) (int_arg 0))
  | "year" -> ( match arg 0 with Value.VDate d -> Value.VInt d.Value.year | _ -> Value.VNull)
  | "month" -> ( match arg 0 with Value.VDate d -> Value.VInt d.Value.month | _ -> Value.VNull)
  | "day" -> ( match arg 0 with Value.VDate d -> Value.VInt d.Value.day | _ -> Value.VNull)
  | "abs" -> (
      match arg 0 with
      | Value.VInt i -> Value.VInt (abs i)
      | Value.VFloat f -> Value.VFloat (Float.abs f)
      | v -> fail "abs: not a number: %a" Value.pp v)
  | _ ->
      ignore (nargs ());
      fail "unknown function %s" f

(* --- select ----------------------------------------------------------- *)

(** Try to satisfy the first range via an index probe: look for a
    top-level conjunct [var.attr = constant] in the WHERE clause.  A
    later range that rebinds [var] shadows the first one, so the WHERE
    then constrains that later range and the probe declines. *)
and index_probe st (s : Ast.select) : OidSet.t option =
  match (s.Ast.ranges, s.Ast.where) with
  | (Ast.Var cls, var) :: rest, Some w
    when Meta.is_class (Database.schema st.db) cls
         && not (List.exists (fun (_, v) -> v = var) rest) ->
      let rec conjuncts e =
        match e with Ast.Binop ("and", a, b) -> conjuncts a @ conjuncts b | e -> [ e ]
      in
      let probe_of = function
        | Ast.Binop ("=", Ast.Path (Ast.Var v, attr), Ast.Lit value)
        | Ast.Binop ("=", Ast.Lit value, Ast.Path (Ast.Var v, attr))
          when v = var ->
            Some (attr, value)
        | _ -> None
      in
      List.find_map
        (fun c ->
          match probe_of c with
          | Some (attr, value) -> (
              match Database.index_lookup st.db cls attr value with
              | Some oids ->
                  st.index_probes <- st.index_probes + 1;
                  Pobs.Metrics.inc m_index_probes;
                  Some oids
              | None -> None)
          | None -> None)
        (conjuncts w)
  | _ -> None

(** Resolve a plan and its per-query caches: the per-state
    physical-identity memo avoids re-hashing a correlated subselect per
    outer row; the per-db cache (keyed on the select itself plus the
    names bound by the caller, the context clause being part of the
    select) reuses plans across queries until the index epoch moves. *)
and plan_for st (env : env) (s : Ast.select) : Plan.t =
  match List.find_opt (fun (s', _) -> s' == s) st.plan_memo with
  | Some (_, p) -> p
  | None ->
      let bound = List.sort_uniq compare (List.map fst env) in
      let key = (s, bound) in
      let epoch = Database.index_epoch st.db in
      let cached =
        Mutex.lock st.cache_mu;
        let r =
          match Plan_cache.find st.cache key with
          | e, p when e = epoch -> Some p
          | _ -> None
          | exception Not_found -> None
        in
        Mutex.unlock st.cache_mu;
        r
      in
      let p =
        match cached with
        | Some p ->
            Atomic.incr st.totals.t_cache_hits;
            Pobs.Metrics.inc m_cache_hits;
            p
        | None ->
            Atomic.incr st.totals.t_cache_misses;
            Pobs.Metrics.inc m_cache_misses;
            (* compile outside the lock: concurrent misses duplicate
               work, never block each other on the compiler *)
            let p = Pobs.Trace.with_span "pool.plan" (fun () -> Plan.compile st.db ~bound s) in
            Mutex.lock st.cache_mu;
            if Plan_cache.length st.cache > 512 then Plan_cache.reset st.cache;
            Plan_cache.replace st.cache key (epoch, p);
            Mutex.unlock st.cache_mu;
            p
      in
      st.plan_memo <- (s, p) :: st.plan_memo;
      p

(* Fold [f] over the candidate oids of an access path in ascending
   order, with statistics.  An index that disappeared since planning
   (the epoch check makes this rare, but a drop can still race a cached
   plan) falls back to the extent — a superset, so correctness is
   unaffected. *)
and fold_access st (a : Plan.access) f acc =
  let bump_probe () =
    st.index_probes <- st.index_probes + 1;
    Atomic.incr st.totals.t_index_probes;
    Pobs.Metrics.inc m_index_probes
  and bump_range () =
    st.range_scans <- st.range_scans + 1;
    Atomic.incr st.totals.t_range_scans;
    Pobs.Metrics.inc m_range_scans
  and bump_extent () =
    st.extent_scans <- st.extent_scans + 1;
    Atomic.incr st.totals.t_extent_scans;
    Pobs.Metrics.inc m_extent_scans
  in
  let fallback cls =
    bump_extent ();
    Database.fold_extent st.db cls f acc
  and of_set s = OidSet.fold (fun o acc -> f acc o) s acc in
  match a with
  | Plan.Extent cls -> fallback cls
  | Plan.Probe { cls; attr; value } -> (
      match Database.index_lookup st.db cls attr st.params.(value) with
      | Some s ->
          bump_probe ();
          of_set s
      | None -> fallback cls)
  | Plan.Range { cls; attr; lo; hi } -> (
      let lo = Plan.tightest ~is_lo:true st.params lo
      and hi = Plan.tightest ~is_lo:false st.params hi in
      match Database.index_range st.db cls attr ?lo ?hi () with
      | Some s ->
          bump_range ();
          of_set s
      | None -> fallback cls)
  | Plan.Prefix { cls; attr; prefix } -> (
      match Database.index_string_prefix st.db cls attr prefix with
      | Some s ->
          bump_range ();
          of_set s
      | None -> fallback cls)
  | Plan.Member _ | Plan.Src _ -> assert false (* handled by the caller *)

(* The candidates of an index or extent access path that pass [tests],
   ascending, and how many the tests dropped. *)
and scan st access tests : Value.t list * int =
  let dropped = ref 0 in
  let keep =
    match tests with
    | [] -> fun acc o -> Value.VRef o :: acc
    | tests ->
        fun acc o ->
          if passes st o (Database.get_exn st.db o) tests then Value.VRef o :: acc
          else begin
            incr dropped;
            acc
          end
  in
  let cands = List.rev (fold_access st access keep []) in
  (cands, !dropped)

and prepare st (b : Plan.binding) : string * exec * counts =
  let counts = { rejected = 0; emitted = 0 } in
  match b.Plan.access with
  | Plan.Src e -> (b.Plan.var, Per_row e, counts)
  | Plan.Member { cls; set } ->
      let tests = b.Plan.filter in
      ( b.Plan.var,
        Member
          {
            set;
            classes = Database.extent_classes st.db cls;
            tests;
            extent = lazy (scan st (Plan.Extent cls) tests);
          },
        counts )
  | access -> (
      let cands, dropped = scan st access b.Plan.filter in
      match b.Plan.hash_key with
      | Some (attr, probe_expr) ->
          (* buckets are built in ascending oid order, preserving the
             candidate order of the nested loop they replace *)
          let tbl = Hashtbl.create 256 in
          List.iter
            (fun v ->
              let oid = Value.as_ref v in
              let k = norm_key (eval_obj_attr st oid attr) in
              match Hashtbl.find_opt tbl k with
              | Some r -> r := oid :: !r
              | None -> Hashtbl.add tbl k (ref [ oid ]))
            cands;
          Hashtbl.iter (fun _ r -> r := List.rev !r) tbl;
          st.hash_joins <- st.hash_joins + 1;
          Atomic.incr st.totals.t_hash_joins;
          Pobs.Metrics.inc m_hash_joins;
          (b.Plan.var, Hash_probe (tbl, probe_expr, cands), counts)
      | None -> (b.Plan.var, Candidates (cands, dropped), counts))

(* The elements of a [Member] set that lie in the range's extent and
   pass its tests, ascending and distinct — the order and multiplicity
   of the extent scan they replace — and how many elements were
   dropped. *)
and members st ~classes ~tests (set : Value.t) : Value.t list * int =
  let keep = function
    | Value.VRef o ->
        Database.in_extent st.db classes o
        && (tests = [] || passes st o (Database.get_exn st.db o) tests)
    | _ -> false
  in
  let all = elements set in
  let kept = List.filter keep all in
  (* a set's refs are already ascending oids *)
  let kept = match set with Value.VSet _ -> kept | _ -> List.sort_uniq Value.compare_value kept in
  (kept, List.length all - List.length kept)

(* Does object [o] pass every scan-filter test?  A recursive function
   rather than [List.for_all] over a per-candidate closure, and a direct
   read through [Obj.get], which returns the value unwrapped: a rejected
   oid allocates nothing. *)
and passes st o (obj : Obj.t) = function
  | [] -> true
  | (t : Plan.test) :: rest ->
      Plan.holds t st.params.(t.Plan.param)
        (if t.Plan.direct then Obj.get obj t.Plan.attr else eval_obj_attr st o t.Plan.attr)
      && passes st o obj rest

(* Add a finished select's slot counts to the cumulative totals: once
   per execution, not once per row, so reader domains sharing a
   database do not contend on the counters. *)
and note_invariants st (f : frame) =
  if f.evals > 0 || f.reuses > 0 then begin
    ignore (Atomic.fetch_and_add st.totals.t_invariant_evals f.evals);
    ignore (Atomic.fetch_and_add st.totals.t_invariant_reuses f.reuses);
    Pobs.Metrics.addi m_invariant_evals f.evals;
    Pobs.Metrics.addi m_invariant_reuses f.reuses
  end

and eval_select st (env : env) (s : Ast.select) : Value.t =
  let saved_ctx = st.ctx and saved_frame = st.frame in
  (* the outermost planned select runs parameterised, and so does
     everything nested in it *)
  let outermost = st.config = Planned && not st.parameterised in
  Fun.protect
    ~finally:(fun () ->
      if st.frame != saved_frame then note_invariants st st.frame;
      st.ctx <- saved_ctx;
      st.frame <- saved_frame;
      if outermost then begin
        st.parameterised <- false;
        st.params <- [||]
      end)
    (fun () ->
      let s =
        if outermost then begin
          let s, params = Plan.parameterise s in
          st.params <- params;
          st.parameterised <- true;
          s
        end
        else s
      in
      (match s.Ast.context with
      | Some c -> (
          match eval st env c with
          | Value.VRef ctx -> st.ctx <- Some ctx
          | Value.VNull -> st.ctx <- None
          | v -> fail "in context: expected a context reference, got %a" Value.pp v)
      | None -> ());
      let rows = ref [] in
      let finish where env =
        let keep =
          match where with Some w -> coerce "where" Value.as_bool (eval st env w) | None -> true
        in
        if keep then begin
          let row =
            match s.Ast.projections with
            | None -> (
                match s.Ast.ranges with
                | [ (_, v) ] -> List.assoc v env
                | rs -> Value.VList (List.map (fun (_, v) -> List.assoc v env) rs))
            | Some [ (e, _) ] -> eval st env e
            | Some ps -> Value.VList (List.map (fun (e, _) -> eval st env e) ps)
          in
          let sort_key = List.map (fun (e, asc) -> (eval st env e, asc)) s.Ast.order_by in
          rows := (row, sort_key) :: !rows
        end
      in
      (if st.config = Planned then begin
         let plan = plan_for st env s in
         let where, levels, cells =
           match plan.Plan.hoisted with
           | Some (w, levels) ->
               let f = new_frame (Array.length levels) in
               st.frame <- f;
               (Some w, levels, f.cells)
           | None -> (s.Ast.where, [||], [||])
         in
         let execs = List.map (prepare st) plan.Plan.bindings in
         (* binding range [i] afresh empties the slots that depend on it *)
         let rebind i =
           for j = 0 to Array.length levels - 1 do
             if levels.(j) > i then cells.(j) <- Empty
           done
         in
         let rec bind env i = function
           | [] -> finish where env
           | (var, exec, c) :: rest -> (
               let each v =
                 c.emitted <- c.emitted + 1;
                 rebind i;
                 bind ((var, v) :: env) (i + 1) rest
               in
               match exec with
               | Candidates (vs, dropped) ->
                   c.rejected <- c.rejected + dropped;
                   List.iter each vs
               | Per_row e -> List.iter each (elements (eval st env e))
               | Member { set; classes; tests; extent } ->
                   let vs, dropped =
                     match try Some (eval st env set) with _ -> None with
                     | Some v -> members st ~classes ~tests v
                     | None ->
                         (* the set failed to evaluate, whatever the
                            exception: replay the extent scan, so the
                            WHERE raises (or not) exactly as the
                            interpreter's *)
                         Lazy.force extent
                   in
                   c.rejected <- c.rejected + dropped;
                   List.iter each vs
               | Hash_probe (tbl, probe_expr, cands) ->
                   if cands <> [] then begin
                     match try Some (norm_key (eval st env probe_expr)) with _ -> None with
                     | Some k -> (
                         match Hashtbl.find_opt tbl k with
                         | None -> ()
                         | Some oids -> List.iter (fun o -> each (Value.VRef o)) !oids)
                     | None ->
                         (* probe key failed to evaluate, whatever the
                            exception: replay the nested loop so the
                            WHERE clause raises (or not) exactly as the
                            reference interpreter would *)
                         List.iter each cands
                   end)
         in
         bind env 0 execs;
         if outermost && st.counting then
           st.counted <-
             Some (plan, List.map (fun (_, _, c) -> (c.rejected, c.emitted)) execs)
       end
       else begin
         let probe = index_probe st s in
         let rec bind env ranges =
           match ranges with
           | [] -> finish s.Ast.where env
           | (src, var) :: rest ->
               let candidates =
                 match (probe, ranges == s.Ast.ranges) with
                 | Some oids, true ->
                     (* index probe replaces the first extent scan *)
                     List.map (fun o -> Value.VRef o) (OidSet.elements oids)
                 | _ -> elements (eval st env src)
               in
               List.iter (fun v -> bind ((var, v) :: env) rest) candidates
         in
         bind env s.Ast.ranges
       end);
      let rows = List.rev !rows in
      let rows =
        if s.Ast.order_by = [] then rows
        else
          List.stable_sort
            (fun (_, ka) (_, kb) ->
              let rec cmp a b =
                match (a, b) with
                | [], [] -> 0
                | (va, asc) :: ra, (vb, _) :: rb ->
                    let c = Value.compare_value va vb in
                    if c <> 0 then if asc then c else -c else cmp ra rb
                | _ -> 0
              in
              cmp ka kb)
            rows
      in
      let values = List.map fst rows in
      let values =
        if s.Ast.distinct then
          List.rev
            (List.fold_left
               (fun acc v -> if List.exists (Value.equal_value v) acc then acc else v :: acc)
               [] values)
        else values
      in
      Value.VList values)
