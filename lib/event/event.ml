(** Primitive database events.

    The event layer is the lowest layer of the Prometheus architecture
    (thesis ch. 6.1.1): every state change in the object layer is
    reported as a primitive event, which the rules layer (and the index
    and view layers) observe through the {!Bus}. *)

type primitive =
  | Obj_created of { oid : int; class_name : string }
  | Obj_updated of { oid : int; class_name : string; attr : string }
  | Obj_deleted of { oid : int; class_name : string }
  | Rel_created of { oid : int; rel_name : string; origin : int; destination : int }
  | Rel_updated of { oid : int; rel_name : string; origin : int; destination : int; attr : string }
  | Rel_deleted of { oid : int; rel_name : string; origin : int; destination : int }
  | Tx_begin
  | Tx_commit
  | Tx_abort
  | Custom of { tag : string; payload : (string * string) list }

let pp_primitive ppf = function
  | Obj_created { oid; class_name } -> Format.fprintf ppf "create %s#%d" class_name oid
  | Obj_updated { oid; class_name; attr } -> Format.fprintf ppf "update %s#%d.%s" class_name oid attr
  | Obj_deleted { oid; class_name } -> Format.fprintf ppf "delete %s#%d" class_name oid
  | Rel_created { oid; rel_name; origin; destination } ->
      Format.fprintf ppf "link %s#%d (%d -> %d)" rel_name oid origin destination
  | Rel_updated { oid; rel_name; attr; _ } -> Format.fprintf ppf "relupdate %s#%d.%s" rel_name oid attr
  | Rel_deleted { oid; rel_name; origin; destination } ->
      Format.fprintf ppf "unlink %s#%d (%d -> %d)" rel_name oid origin destination
  | Tx_begin -> Format.fprintf ppf "tx-begin"
  | Tx_commit -> Format.fprintf ppf "tx-commit"
  | Tx_abort -> Format.fprintf ppf "tx-abort"
  | Custom { tag; _ } -> Format.fprintf ppf "custom %s" tag

(** Event specifications: the patterns rules subscribe to.  [None]
    class/attribute selectors act as wildcards.  Class selectors match
    subclasses through the [is_subclass] predicate supplied to the
    matcher (the event layer itself is schema-agnostic).  Composite
    specifications ([Seq], [Both]) accumulate state between events and
    are reset at transaction boundaries. *)
type spec =
  | On_create of string option
  | On_update of string option * string option
  | On_delete of string option
  | On_rel_create of string option
  | On_rel_update of string option * string option
  | On_rel_delete of string option
  | On_commit
  | On_abort
  | On_custom of string
  | Any_of of spec list
  | Seq of spec list (* fires when all sub-specs matched, in order *)
  | Both of spec * spec (* fires when both matched, any order *)

(** The [attr] of the {!Rel_updated} event a retarget emits: the only
    relationship update that moves an edge.  Any other attribute update
    leaves the graph alone (the object layer rejects updates to the
    reserved origin, destination and context attributes). *)
let endpoints_attr = "__endpoints"

type subclass_pred = sub:string -> super:string -> bool

let class_matches (is_subclass : subclass_pred) (sel : string option) (cls : string) =
  match sel with None -> true | Some super -> cls = super || is_subclass ~sub:cls ~super

let attr_matches sel attr = match sel with None -> true | Some a -> a = attr

(** Does primitive event [ev] match *atomic* spec [spec]? (Composite
    specs are handled by {!Tracker}.) *)
let rec matches (is_subclass : subclass_pred) (spec : spec) (ev : primitive) : bool =
  match (spec, ev) with
  | On_create sel, Obj_created { class_name; _ } -> class_matches is_subclass sel class_name
  | On_update (sel, asel), Obj_updated { class_name; attr; _ } ->
      class_matches is_subclass sel class_name && attr_matches asel attr
  | On_delete sel, Obj_deleted { class_name; _ } -> class_matches is_subclass sel class_name
  | On_rel_create sel, Rel_created { rel_name; _ } -> class_matches is_subclass sel rel_name
  | On_rel_update (sel, asel), Rel_updated { rel_name; attr; _ } ->
      class_matches is_subclass sel rel_name && attr_matches asel attr
  | On_rel_delete sel, Rel_deleted { rel_name; _ } -> class_matches is_subclass sel rel_name
  | On_commit, Tx_commit -> true
  | On_abort, Tx_abort -> true
  | On_custom tag, Custom { tag = t; _ } -> tag = t
  | Any_of specs, ev -> List.exists (fun s -> matches is_subclass s ev) specs
  | (Seq _ | Both _), _ -> false (* composite: never matched atomically *)
  | _ -> false

(** Stateful tracker for one (possibly composite) spec. *)
module Tracker = struct
  type state =
    | Atomic of spec
    | In_seq of spec list * spec list (* done, remaining *)
    | In_both of (spec * bool) * (spec * bool)

  type t = { spec : spec; mutable state : state }

  let reset t =
    t.state <-
      (match t.spec with
      | Seq specs -> In_seq ([], specs)
      | Both (a, b) -> In_both ((a, false), (b, false))
      | s -> Atomic s)

  let create spec =
    let t = { spec; state = Atomic spec } in
    reset t;
    t

  (** Feed an event; returns [true] if the (composite) spec fired. *)
  let feed t is_subclass ev : bool =
    match t.state with
    | Atomic s -> matches is_subclass s ev
    | In_seq (done_, remaining) -> (
        match remaining with
        | [] ->
            reset t;
            false
        | next :: rest ->
            if matches is_subclass next ev then
              if rest = [] then begin
                reset t;
                true
              end
              else begin
                t.state <- In_seq (next :: done_, rest);
                false
              end
            else false)
    | In_both ((a, fa), (b, fb)) ->
        let fa = fa || matches is_subclass a ev in
        let fb = fb || matches is_subclass b ev in
        if fa && fb then begin
          reset t;
          true
        end
        else begin
          t.state <- In_both ((a, fa), (b, fb));
          false
        end
end
