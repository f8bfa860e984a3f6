(** CSR adjacency snapshots for graph traversal.

    Every traversal hop of the mirror walk re-queries
    [Database.targets]/[sources]: a hash lookup and a scan of the
    endpoint's whole adjacency, filtering every edge by class and
    context, allocating a fresh [int list] each time.  For the
    recursive exploration at the heart of taxonomic workloads (thesis
    5.1.1.3) that cost adds up.

    This module snapshots the adjacency of one [(relationship class,
    context)] key into compressed-sparse-row form — flat int arrays of
    offsets, neighbour slots and edge oids, both directions.  The
    subclass and context filtering happens once, when an edge enters
    the snapshot; a traversal hop is then an array slice walk with no
    allocation.

    A key's snapshot is built from the object mirror on its first use
    and kept up to date afterwards from the relationship events the
    object layer emits on its bus: a link, unlink or retarget queues a
    [Remove] of the edge on every cached key of a matching
    relationship class, then, if the edge still exists, an [Add] with
    its current endpoints on the keys whose context it falls under.
    The next {!get} applies the queued deltas in one pass over the
    previous snapshot's arrays, never touching the mirror.  Published snapshots are shared
    across domains and never mutated: a patch copies what it changes.
    Each event resynchronises its edge from the mirror rather than
    trusting the event's payload, so deltas are right whatever order
    nested emissions deliver them in.  A key whose queue grows longer
    than its edge count is dropped, and so is a patched snapshot with
    more slots left without edges than edges, so memory stays bounded
    by a small multiple of the key's live edge count; a transaction
    abort, whose mirror rebuild can change the graph in ways no
    per-edge event describes, drops every key.  Either way the next
    {!get} builds afresh.  Snapshots never observe staleness because
    the object layer emits the event in the same call that mutates the
    mirror, before any query can run.

    Traversals use snapshots unless given [~csr:false] (the reference
    interpreter, [Eval.legacy_config], walks the mirror instead). *)

open Pmodel
open Pevent
module OidSet = Database.OidSet

module IntMap = Map.Make (Int)

type snapshot = {
  node_count : int;
  node_of : int array; (* slot -> oid *)
  sorted : int; (* node_of is ascending over the first [sorted] slots, a build's *)
  appended : int IntMap.t; (* oid -> slot of the nodes patches appended *)
  (* outgoing edges, CSR: edges of slot s are indices out_off.(s) ..
     out_off.(s+1) - 1 of out_tgt (destination slot) and out_edge
     (relationship-instance oid) *)
  out_off : int array;
  out_tgt : int array;
  out_edge : int array;
  (* incoming edges, symmetric *)
  in_off : int array;
  in_src : int array;
  in_edge : int array;
}

(* Index of [x] in [a.(lo) .. a.(hi - 1)], ascending, or -1. *)
let rec bsearch (a : int array) x lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) lsr 1 in
    let y = a.(mid) in
    if y = x then mid else if y < x then bsearch a x (mid + 1) hi else bsearch a x lo mid

(** The slot of node [oid] in [s], or -1 if no edge of [s] touches it. *)
let slot (s : snapshot) oid =
  let v = bsearch s.node_of oid 0 s.sorted in
  if v >= 0 then v else match IntMap.find_opt oid s.appended with Some v -> v | None -> -1

(** A change a snapshot has not seen yet. *)
type delta =
  | Add of int * int * int (* origin, destination, edge oid *)
  | Remove of int (* edge oid *)

(* One cached key: the published snapshot and the deltas it lacks. *)
type entry = {
  mutable snap : snapshot;
  mutable pending : delta list; (* newest first *)
  mutable n_pending : int;
}

type t = {
  db : Database.t;
  snaps : (string * int option, entry) Hashtbl.t; (* (rel, context) *)
  mu : Mutex.t; (* guards [snaps], the entries and [events]: traversals may run on any domain *)
  mutable events : int; (* graph events seen, so a build can tell that one raced it *)
  rebuilds : int Atomic.t; (* snapshots built from the mirror (adjacency_rebuilds stat) *)
  patches : int Atomic.t; (* snapshots patched from deltas (adjacency_patches stat) *)
}

(* ---------------------------------------------------------------------- *)
(* Snapshot construction                                                   *)
(* ---------------------------------------------------------------------- *)

let build db ?context ~rel () : snapshot =
  let schema = Database.schema db in
  (* collect the matching edges once; subclass/context checks happen
     here and never again *)
  let edges = ref [] and edge_count = ref 0 in
  Database.iter_objects db (fun o ->
      if
        Database.is_rel_instance db o
        && Meta.is_subclass schema ~sub:o.Obj.class_name ~super:rel
        && (match context with None -> true | Some c -> Obj.context o = Some c)
      then begin
        edges := (Obj.origin o, Obj.destination o, o.Obj.oid) :: !edges;
        incr edge_count
      end);
  let edges = !edges and m = !edge_count in
  let node_set =
    List.fold_left (fun s (a, b, _) -> OidSet.add a (OidSet.add b s)) OidSet.empty edges
  in
  let n = OidSet.cardinal node_set in
  let node_of = Array.make n 0 in
  let i = ref 0 in
  OidSet.iter
    (fun oid ->
      node_of.(!i) <- oid;
      incr i)
    node_set;
  let slot_of oid = bsearch node_of oid 0 n in
  (* counting sort into CSR, both directions *)
  let out_off = Array.make (n + 1) 0 and in_off = Array.make (n + 1) 0 in
  List.iter
    (fun (a, b, _) ->
      let sa = slot_of a and sb = slot_of b in
      out_off.(sa + 1) <- out_off.(sa + 1) + 1;
      in_off.(sb + 1) <- in_off.(sb + 1) + 1)
    edges;
  for s = 1 to n do
    out_off.(s) <- out_off.(s) + out_off.(s - 1);
    in_off.(s) <- in_off.(s) + in_off.(s - 1)
  done;
  let out_cur = Array.sub out_off 0 n and in_cur = Array.sub in_off 0 n in
  let out_tgt = Array.make m 0 and out_edge = Array.make m 0 in
  let in_src = Array.make m 0 and in_edge = Array.make m 0 in
  List.iter
    (fun (a, b, e) ->
      let sa = slot_of a and sb = slot_of b in
      let jo = out_cur.(sa) in
      out_cur.(sa) <- jo + 1;
      out_tgt.(jo) <- sb;
      out_edge.(jo) <- e;
      let ji = in_cur.(sb) in
      in_cur.(sb) <- ji + 1;
      in_src.(ji) <- sa;
      in_edge.(ji) <- e)
    edges;
  {
    node_count = n;
    node_of;
    sorted = n;
    appended = IntMap.empty;
    out_off;
    out_tgt;
    out_edge;
    in_off;
    in_src;
    in_edge;
  }

(* One direction of {!patch}: the CSR [off]/[nbr]/[edge] over [n] slots
   less the entries at positions [drops] (ascending), plus [adds]
   ((slot, neighbour slot, edge), ascending by slot) placed last in
   their slot's range, over [n'] >= [n] slots.  The unchanged runs
   between edits are straight copies. *)
let splice ~n ~n' off nbr edge drops adds =
  let m' = Array.length edge - List.length drops + List.length adds in
  let off' = Array.make (n' + 1) 0 and nbr' = Array.make m' 0 and edge' = Array.make m' 0 in
  (* a slot starts earlier by the drops before it, later by the adds
     to the slots before it; appended slots start past the old edges *)
  let shift = ref 0 and ds = ref drops and later = ref adds in
  for v = 0 to n' do
    let base = off.(if v < n then v else n) in
    while match !ds with j :: _ -> j < base | [] -> false do
      decr shift;
      ds := List.tl !ds
    done;
    while match !later with (u, _, _) :: _ -> u < v | [] -> false do
      incr shift;
      later := List.tl !later
    done;
    off'.(v) <- base + !shift
  done;
  let i = ref 0 and k = ref 0 in
  let copy_to stop =
    let len = stop - !i in
    let i0 = !i and k0 = !k in
    (* a plain loop, not Array.blit: stores into an [int array] need no
       write barrier *)
    for x = 0 to len - 1 do
      nbr'.(k0 + x) <- nbr.(i0 + x);
      edge'.(k0 + x) <- edge.(i0 + x)
    done;
    i := stop;
    k := !k + len
  in
  let ds = ref drops in
  let drop_before stop =
    while match !ds with j :: _ -> j < stop | [] -> false do
      copy_to (List.hd !ds);
      incr i;
      ds := List.tl !ds
    done
  in
  List.iter
    (fun (u, t, e) ->
      let at = off.(if u < n then u + 1 else n) in
      drop_before at;
      copy_to at;
      nbr'.(!k) <- t;
      edge'.(!k) <- e;
      incr k)
    adds;
  let m = Array.length edge in
  drop_before m;
  copy_to m;
  (off', nbr', edge')

(** [s] with [deltas] (oldest first) applied, in one pass over [s]'s
    arrays per direction.  [s] is left untouched: the result shares
    its [node_of] unless the deltas bring new endpoints, which get
    appended slots.  Nodes whose last edge goes away keep their slot,
    with empty edge ranges ({!dead_slots}). *)
let patch (s : snapshot) (deltas : delta list) : snapshot =
  (* net effect: edges to drop from [s]; edges to add, with their
     latest endpoints (a retarget is a Remove then an Add) *)
  let dropped = Hashtbl.create 8 and added = Hashtbl.create 8 in
  List.iter
    (function
      | Add (a, b, e) -> Hashtbl.replace added e (a, b)
      | Remove e ->
          Hashtbl.remove added e;
          Hashtbl.replace dropped e ())
    deltas;
  let dropped = Array.of_seq (Hashtbl.to_seq_keys dropped) in
  Array.sort compare dropped;
  let drops edge =
    let acc = ref [] in
    if Array.length dropped > 0 then
      for j = Array.length edge - 1 downto 0 do
        if bsearch dropped edge.(j) 0 (Array.length dropped) >= 0 then acc := j :: !acc
      done;
    !acc
  in
  let n = s.node_count in
  let appended = ref s.appended and fresh = ref [] and n' = ref n in
  let slot_of oid =
    let v = bsearch s.node_of oid 0 s.sorted in
    if v >= 0 then v
    else
      match IntMap.find_opt oid !appended with
      | Some v -> v
      | None ->
          let v = !n' in
          appended := IntMap.add oid v !appended;
          fresh := oid :: !fresh;
          incr n';
          v
  in
  let adds =
    Hashtbl.fold
      (fun e (a, b) acc ->
        let sa = slot_of a in
        let sb = slot_of b in
        (sa, sb, e) :: acc)
      added []
  in
  let n' = !n' in
  let outs = List.sort compare adds
  and ins = List.sort compare (List.map (fun (a, b, e) -> (b, a, e)) adds) in
  let out_off, out_tgt, out_edge =
    splice ~n ~n' s.out_off s.out_tgt s.out_edge (drops s.out_edge) outs
  in
  let in_off, in_src, in_edge = splice ~n ~n' s.in_off s.in_src s.in_edge (drops s.in_edge) ins in
  {
    node_count = n';
    node_of =
      (if !fresh = [] then s.node_of else Array.append s.node_of (Array.of_list (List.rev !fresh)));
    sorted = s.sorted;
    appended = !appended;
    out_off;
    out_tgt;
    out_edge;
    in_off;
    in_src;
    in_edge;
  }

(** Slots of [s] no edge touches: the nodes patches left behind. *)
let dead_slots (s : snapshot) =
  let d = ref 0 in
  for v = 0 to s.node_count - 1 do
    if s.out_off.(v + 1) = s.out_off.(v) && s.in_off.(v + 1) = s.in_off.(v) then incr d
  done;
  !d

(* ---------------------------------------------------------------------- *)
(* Per-database managers                                                   *)
(* ---------------------------------------------------------------------- *)

(* Queue edge [oid] as the mirror holds it now, whatever the event
   said: a [Remove] on every cached key of a matching relationship
   class, then, if the edge still exists, an [Add] with its current
   endpoints on those keys its context falls under.  Events can reach
   us out of order — a rule reacting to a link may unlink or retarget
   it, and that nested event is delivered before the outer one — but
   the mirror is current whenever we read it, so the last deltas
   queued for an edge are right in any order.  Remove-then-Add also
   keeps an edge a build already saw from being added twice. *)
let resync t ~rel_name oid =
  let schema = Database.schema t.db in
  let now =
    Option.map
      (fun o -> (Add (Obj.origin o, Obj.destination o, oid), Obj.context o))
      (Database.get t.db oid)
  in
  let push e d =
    e.pending <- d :: e.pending;
    e.n_pending <- e.n_pending + 1
  in
  Mutex.protect t.mu (fun () ->
      t.events <- t.events + 1;
      Hashtbl.filter_map_inplace
        (fun (rel, ctx) e ->
          if not (Meta.is_subclass schema ~sub:rel_name ~super:rel) then Some e
          else begin
            push e (Remove oid);
            (match now with
            | Some (d, edge_ctx) when ctx = None || ctx = edge_ctx -> push e d
            | _ -> ());
            if e.n_pending > Array.length e.snap.out_edge then None else Some e
          end)
        t.snaps)

let on_event t (ev : Event.primitive) =
  match ev with
  | Event.Rel_created { oid; rel_name; _ } | Event.Rel_deleted { oid; rel_name; _ } ->
      resync t ~rel_name oid
  | Event.Rel_updated { oid; rel_name; attr; _ } when attr = Event.endpoints_attr ->
      resync t ~rel_name oid
  | Event.Tx_abort ->
      Mutex.protect t.mu (fun () ->
          t.events <- t.events + 1;
          Hashtbl.reset t.snaps)
  | _ -> ()

let create db : t =
  let t =
    {
      db;
      snaps = Hashtbl.create 8;
      mu = Mutex.create ();
      events = 0;
      rebuilds = Atomic.make 0;
      patches = Atomic.make 0;
    }
  in
  let _ : Bus.sub_id =
    Bus.subscribe (Database.bus db) ~name:"csr-maintain"
      (Event.Any_of
         [
           Event.On_rel_create None;
           Event.On_rel_update (None, Some Event.endpoints_attr);
           Event.On_rel_delete None;
           Event.On_abort;
         ])
      (on_event t)
  in
  t

(* The manager lives on the database record itself (Database.ext), so
   it — snapshots, bus subscription and the counters — shares the
   database's lifetime exactly: no registry cap to silently reset a
   live database's statistics, no strong reference keeping a closed
   database (and its store) alive. *)
type Database.ext += Csr_manager of t

let ext_key = "graph.csr"

let handle db : t =
  match Database.ext_get_or_init db ext_key (fun () -> Csr_manager (create db)) with
  | Csr_manager m -> m
  | _ -> assert false

let m_rebuilds =
  Pobs.Metrics.counter "pdb_csr_rebuilds_total"
    ~help:"CSR adjacency snapshots built from the object mirror"

let m_build_ns = Pobs.Metrics.histogram "pdb_csr_build_ns" ~help:"CSR snapshot build time"

let m_patches =
  Pobs.Metrics.counter "pdb_csr_patches_total"
    ~help:"CSR adjacency snapshots patched from relationship events"

let m_patch_ns = Pobs.Metrics.histogram "pdb_csr_patch_ns" ~help:"CSR snapshot patch time"

(** The snapshot for [(rel, context)]: built on first use, patched
    with the deltas queued since.  Builds and patches run outside the
    lock; deltas queued meanwhile stay queued. *)
let get (t : t) ?context ~rel () : snapshot =
  let key = (rel, context) in
  let work, events =
    Mutex.protect t.mu (fun () ->
        ( (match Hashtbl.find_opt t.snaps key with
          | None -> `Build
          | Some e when e.n_pending = 0 -> `Ready e.snap
          | Some e -> `Patch (e, e.snap, e.pending, e.n_pending)),
          t.events ))
  in
  match work with
  | `Ready s -> s
  | `Build ->
      let s = Pobs.Metrics.time m_build_ns (fun () -> build t.db ?context ~rel ()) in
      Atomic.incr t.rebuilds;
      Pobs.Metrics.inc m_rebuilds;
      (* a build that raced an event may or may not hold its change:
         serve it to this caller, but never install it *)
      Mutex.protect t.mu (fun () ->
          if t.events = events then
            Hashtbl.replace t.snaps key { snap = s; pending = []; n_pending = 0 });
      s
  | `Patch (e, base, pending, n) ->
      let s = Pobs.Metrics.time m_patch_ns (fun () -> patch base (List.rev pending)) in
      Atomic.incr t.patches;
      Pobs.Metrics.inc m_patches;
      (* install unless another patch got there first or the key was
         dropped; the newest [n_pending - n] deltas arrived during the
         patch and stay queued on top of [s].  A snapshot with more
         dead slots than edges is dropped instead, so the next build
         reclaims them. *)
      let bloated = dead_slots s > Array.length s.out_edge in
      Mutex.protect t.mu (fun () ->
          let current =
            match Hashtbl.find_opt t.snaps key with Some e' -> e' == e | None -> false
          in
          if current && e.snap == base && bloated then Hashtbl.remove t.snaps key
          else if current && e.snap == base then begin
            let fresh = e.n_pending - n in
            e.snap <- s;
            e.pending <- List.filteri (fun i _ -> i < fresh) e.pending;
            e.n_pending <- fresh
          end);
      s

let count field db : int =
  match Database.ext_find db ext_key with Some (Csr_manager m) -> Atomic.get (field m) | _ -> 0

(** Snapshots built from the object mirror so far for [db] (0 if none
    were ever requested) — the [adjacency_rebuilds] statistic. *)
let rebuild_count = count (fun m -> m.rebuilds)

(** Snapshots patched from relationship events so far for [db] — the
    [adjacency_patches] statistic. *)
let patch_count = count (fun m -> m.patches)

(* ---------------------------------------------------------------------- *)
(* Traversals over a snapshot                                              *)
(* ---------------------------------------------------------------------- *)

(** BFS from [root] along [`Out] (descendants) or [`In] (ancestors)
    edges, collecting nodes at depth within [min_depth, max_depth] —
    the same contract as the mirror walk of {!Traverse.descendants}. *)
let bfs (s : snapshot) ~dir ?(min_depth = 1) ?max_depth root : OidSet.t =
  match slot s root with
  | -1 ->
      (* the root touches no matching edge: it is its own closure *)
      if min_depth = 0 then OidSet.singleton root else OidSet.empty
  | slot0 ->
      let off, nbr =
        match dir with `Out -> (s.out_off, s.out_tgt) | `In -> (s.in_off, s.in_src)
      in
      let visited = Bytes.make s.node_count '\000' in
      let queue = Array.make s.node_count 0 in
      let depth = Array.make s.node_count 0 in
      let head = ref 0 and tail = ref 0 in
      let push slot d =
        Bytes.unsafe_set visited slot '\001';
        queue.(!tail) <- slot;
        depth.(!tail) <- d;
        incr tail
      in
      push slot0 0;
      let acc = ref OidSet.empty in
      while !head < !tail do
        let slot = queue.(!head) in
        let d = depth.(!head) in
        incr head;
        if d >= min_depth then acc := OidSet.add s.node_of.(slot) !acc;
        let descend = match max_depth with None -> true | Some m -> d < m in
        if descend then
          for j = off.(slot) to off.(slot + 1) - 1 do
            let t = nbr.(j) in
            if Bytes.unsafe_get visited t = '\000' then push t (d + 1)
          done
      done;
      if min_depth > 0 then OidSet.remove root !acc else !acc

let descendants s ?min_depth ?max_depth root = bfs s ~dir:`Out ?min_depth ?max_depth root
let ancestors s ?min_depth ?max_depth root = bfs s ~dir:`In ?min_depth ?max_depth root

(** Has [slot]-indexed node [oid] any matching outgoing (resp.
    incoming) edge?  Used by roots/leaves. *)
let has_out (s : snapshot) oid =
  match slot s oid with -1 -> false | v -> s.out_off.(v + 1) > s.out_off.(v)

let has_in (s : snapshot) oid =
  match slot s oid with -1 -> false | v -> s.in_off.(v + 1) > s.in_off.(v)

(** Edge oids of the subgraph reachable from [root]: the closure is
    out-closed, so these are exactly the outgoing edges of its nodes.
    Returned ascending by edge oid. *)
let closure_edges (s : snapshot) (nodes : OidSet.t) : int list =
  let acc = ref [] in
  OidSet.iter
    (fun oid ->
      match slot s oid with
      | -1 -> ()
      | v ->
          for j = s.out_off.(v) to s.out_off.(v + 1) - 1 do
            acc := s.out_edge.(j) :: !acc
          done)
    nodes;
  List.sort_uniq compare !acc
