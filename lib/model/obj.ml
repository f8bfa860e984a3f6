(** Runtime representation of persistent objects.

    Every persistent entity — plain objects, relationship instances,
    classification contexts — is an [Obj.t]: an oid, a class name and
    an attribute map.  Relationship instances store their endpoints and
    classification context in reserved attributes ({!origin_attr},
    {!destination_attr}, {!context_attr}), which makes relationships
    first-class queryable objects (thesis ch. 4.3) while reusing the
    same storage representation. *)

module SMap = Map.Make (String)
open Pstore

type t = { oid : int; class_name : string; mutable attrs : Value.t SMap.t }

let origin_attr = "__origin"
let destination_attr = "__destination"
let context_attr = "__context"

let is_reserved_attr a = a = origin_attr || a = destination_attr || a = context_attr

let make ~oid ~class_name attrs =
  { oid; class_name; attrs = List.fold_left (fun m (k, v) -> SMap.add k v m) SMap.empty attrs }

(* [SMap.find], not [find_opt]: a read allocates no option *)
let get (t : t) attr = match SMap.find attr t.attrs with v -> v | exception Not_found -> Value.VNull
let set (t : t) attr v = t.attrs <- SMap.add attr v t.attrs

(** [t] with [attr] bound to [v], as a new object: [t] is unchanged, so
    a value shared by several mirrors stays what each of them holds. *)
let with_attr (t : t) attr v = { t with attrs = SMap.add attr v t.attrs }
let fields (t : t) = SMap.bindings t.attrs

let origin t = Value.as_ref (get t origin_attr)
let destination t = Value.as_ref (get t destination_attr)

let context t =
  match get t context_attr with Value.VRef o -> Some o | _ -> None

let pp ppf t =
  Format.fprintf ppf "@[<hv 2>%s#%d{%a}@]" t.class_name t.oid
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
       (fun ppf (k, v) -> Format.fprintf ppf "%s=%a" k Value.pp v))
    (fields t)

(* --- serialisation ------------------------------------------------------ *)

let encode (t : t) : string =
  let e = Codec.Enc.create () in
  Codec.Enc.string e t.class_name;
  Codec.Enc.u16 e (SMap.cardinal t.attrs);
  SMap.iter
    (fun k v ->
      Codec.Enc.string e k;
      Value.encode e v)
    t.attrs;
  Codec.Enc.to_string e

let decode ~oid (s : string) : t =
  let d = Codec.Dec.of_string s in
  let class_name = Codec.Dec.string d in
  let n = Codec.Dec.u16 d in
  let attrs = ref SMap.empty in
  for _ = 1 to n do
    let k = Codec.Dec.string d in
    let v = Value.decode d in
    attrs := SMap.add k v !attrs
  done;
  { oid; class_name; attrs = !attrs }
