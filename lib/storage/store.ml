(** The persistent object store: the storage substrate Prometheus sits on.

    In the thesis the prototype was layered on the commercial POET
    OODBMS; this module is our substitute substrate.  It exposes a flat
    transactional map from object identifiers (oids) to byte records:

    - records are stored in a slotted-page {!Heap},
    - an oid -> rid directory is kept in a persistent {!Btree},
    - atomic commit/abort is provided by the {!Pager} undo journal,
    - freed pages are recycled through a free-page list rooted in the
      header page.

    Durability contract (see DESIGN.md "Durability & recovery
    guarantees"): mutations made inside a transaction are atomic and,
    once [commit] returns, durable across crashes; mutations made
    outside any transaction are not crash-safe until the next
    successful commit or close.  The store's own metadata (header,
    including [next_oid]) is only ever written under the pager journal,
    so a power cut can never tear it.

    Header page (page 0) layout:
    {v
      off 0  : 8-byte magic "PROMDB01"
      off 8  : u32 version
      off 12 : i64 next_oid
      off 20 : u32 directory btree root page
      off 24 : u32 free-page list head
    v} *)

exception Store_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Store_error s)) fmt

let magic = "PROMDB01"
let version = 1
let kind_free = 5

type t = {
  pager : Pager.t;
  vfs : Vfs.t;
  mutable heap : Heap.t;
  mutable dir : Btree.t;
  mutable next_oid : int;
  mutable tx_depth : int; (* supports nested begin via counting *)
  mutable group_active : bool; (* a Group writer domain owns the write path *)
  path : string;
}

(* --- header accessors -------------------------------------------------- *)

let hdr_read_next_oid pager = Int64.to_int (Bytes.get_int64_le (Pager.read pager 0) 12)

let hdr_write_next_oid pager v =
  Pager.with_write pager 0 (fun b -> Bytes.set_int64_le b 12 (Int64.of_int v))

let hdr_read_dir_root pager = Int32.to_int (Bytes.get_int32_le (Pager.read pager 0) 20)

let hdr_write_dir_root pager v =
  Pager.with_write pager 0 (fun b -> Bytes.set_int32_le b 20 (Int32.of_int v))

let hdr_read_free_head pager = Int32.to_int (Bytes.get_int32_le (Pager.read pager 0) 24)

let hdr_write_free_head pager v =
  Pager.with_write pager 0 (fun b -> Bytes.set_int32_le b 24 (Int32.of_int v))

(* --- free-page list ----------------------------------------------------- *)

let alloc_page pager () =
  let head = hdr_read_free_head pager in
  if head <> 0 then begin
    let next =
      let b = Pager.read pager head in
      Int32.to_int (Bytes.get_int32_le b 1)
    in
    hdr_write_free_head pager next;
    Pager.with_write pager head (fun b -> Bytes.fill b 0 Pager.page_size '\000');
    head
  end
  else Pager.allocate pager

let free_page pager no =
  let head = hdr_read_free_head pager in
  Pager.with_write pager no (fun b ->
      Bytes.fill b 0 Pager.page_size '\000';
      Bytes.set_uint8 b 0 kind_free;
      Bytes.set_int32_le b 1 (Int32.of_int head));
  hdr_write_free_head pager no

(* --- lifecycle ----------------------------------------------------------- *)

let build_components pager =
  let pa = { Heap.alloc_page = alloc_page pager; free_page = free_page pager } in
  let heap = Heap.create pager pa in
  let dir =
    Btree.create pager ~root:(hdr_read_dir_root pager)
      ~set_root:(fun r -> hdr_write_dir_root pager r)
      ~alloc_page:(alloc_page pager)
  in
  (heap, dir)

let header_all_zero hdr =
  let rec go i = i >= Bytes.length hdr || (Bytes.get hdr i = '\000' && go (i + 1)) in
  go 0

let open_ ?cache_pages ?(vfs = Vfs.unix) ?readonly path =
  let pager = Pager.open_file ?cache_pages ~vfs ?readonly path in
  let hdr = Pager.read pager 0 in
  (* A brand-new store is an empty file, or one whose header page
     recovery rolled back to zeros (a crash during initialisation).  A
     non-empty file with a damaged header is *corruption* and must fail
     loudly, never be silently re-initialised over. *)
  let fresh = Pager.created pager || header_all_zero hdr in
  if fresh && Pager.is_readonly pager then
    fail "%s: readonly open of an uninitialised store" path;
  if fresh then begin
    (* Initialise under the journal so a crash mid-initialisation rolls
       the header back to zeros instead of leaving a torn half-header.
       Component construction must happen inside the same transaction:
       [Btree.create] eagerly allocates its root page and points the
       header at it, and that header write must be journaled — flushed
       unjournaled by a later [begin_tx], a crash between the two
       writes would leave a header referencing a page that never made
       it to disk. *)
    Pager.begin_tx pager;
    Pager.with_write pager 0 (fun b ->
        Bytes.fill b 0 Pager.page_size '\000';
        Bytes.blit_string magic 0 b 0 8;
        Bytes.set_int32_le b 8 (Int32.of_int version);
        Bytes.set_int64_le b 12 1L;
        Bytes.set_int32_le b 20 0l;
        Bytes.set_int32_le b 24 0l);
    ignore (build_components pager);
    Pager.commit pager
  end
  else if Bytes.sub_string hdr 0 8 <> magic then fail "%s: corrupt store header (bad magic)" path
  else if Int32.to_int (Bytes.get_int32_le hdr 8) <> version then
    fail "%s: unsupported store version" path;
  let heap, dir = build_components pager in
  {
    pager;
    vfs;
    heap;
    dir;
    next_oid = hdr_read_next_oid pager;
    tx_depth = 0;
    group_active = false;
    path;
  }

let path t = t.path

(** The underlying pager — the replication layer feeds from and applies
    through it directly. *)
let pager t = t.pager

(** The header LSN of the last page-dirtying commit (see {!Pager.lsn}). *)
let lsn t = Pager.lsn t.pager

let is_readonly t = Pager.is_readonly t.pager

(** Install the pager redo hook: called after every page-dirtying commit
    with the LSN-stamped after-image record (see {!Pager.set_redo_hook}). *)
let set_redo_hook t f = Pager.set_redo_hook t.pager f

let clear_redo_hook t = Pager.clear_redo_hook t.pager

(* --- transactions ---------------------------------------------------------- *)

let m_tx_commits =
  Pobs.Metrics.counter "pdb_store_tx_commits_total" ~help:"Store transactions committed"

let m_tx_aborts =
  Pobs.Metrics.counter "pdb_store_tx_aborts_total" ~help:"Store transactions aborted"

let in_tx t = t.tx_depth > 0

let begin_tx t =
  if t.tx_depth = 0 then begin
    Pager.begin_tx t.pager;
    (* Persist the oid high-water mark under the journal (first touch
       of the header appends its before-image).  [abort] below keeps
       the in-memory mark, so rolled-back transactions still never
       reuse an oid that was handed out. *)
    hdr_write_next_oid t.pager t.next_oid
  end;
  t.tx_depth <- t.tx_depth + 1

let commit t =
  if t.tx_depth <= 0 then fail "commit outside transaction";
  (* Decrement only after the pager commit succeeds: if it raises
     (ENOSPC, failed fsync, ...) the transaction is still open and the
     caller can — must — [abort] it. *)
  if t.tx_depth = 1 then begin
    hdr_write_next_oid t.pager t.next_oid;
    Pager.commit t.pager;
    Pobs.Metrics.inc m_tx_commits
  end;
  t.tx_depth <- t.tx_depth - 1

(* In-memory component state may be stale after a rollback (cached
   btree root, heap free-space map): rebuild it.  Keep the in-memory oid
   high-water mark: rollback restores the header's pre-transaction
   value, but oids handed out since must stay retired. *)
let reload_components t =
  let heap, dir = build_components t.pager in
  t.heap <- heap;
  t.dir <- dir;
  t.next_oid <- max t.next_oid (hdr_read_next_oid t.pager)

(** Roll the transaction back.  [rolled_back] runs on the restored store
    before the commit-boundary lock is released (see {!Pager.abort}): a
    layer stacked on the store resynchronises there, so no
    {!at_commit_boundary} caller sees it half done. *)
let abort ?(rolled_back = ignore) t =
  if t.tx_depth <= 0 then fail "abort outside transaction";
  t.tx_depth <- 0;
  Pager.abort t.pager ~restored:(fun () ->
      Pobs.Metrics.inc m_tx_aborts;
      reload_components t;
      rolled_back ())

(** Run [f] between transactions, waiting for one open on another
    domain (a {!Group} batch included) to end (see
    {!Pager.at_commit_boundary}). *)
let at_commit_boundary t f = Pager.at_commit_boundary t.pager f

let close t =
  if t.tx_depth > 0 then abort t;
  (* Persist the oid high-water mark under the journal: an unjournaled
     header write here could be torn by a crash and take the whole
     store with it. *)
  if (not (Pager.is_readonly t.pager)) && hdr_read_next_oid t.pager <> t.next_oid then begin
    Pager.begin_tx t.pager;
    hdr_write_next_oid t.pager t.next_oid;
    Pager.commit t.pager
  end;
  Pager.close t.pager

let with_tx t f =
  begin_tx t;
  match
    let v = f () in
    (* commit must be inside the handler too: a commit that fails
       (ENOSPC, failed fsync) leaves the transaction open, and it must
       be rolled back before the error escapes. *)
    commit t;
    v
  with
  | v -> v
  | exception e ->
      if t.tx_depth > 0 then abort t;
      raise e

(* --- records ------------------------------------------------------------------ *)

let fresh_oid t =
  let oid = t.next_oid in
  t.next_oid <- t.next_oid + 1;
  oid

let key_of_oid oid = Int64.of_int oid

let put t ~oid (data : string) : unit =
  match Btree.find t.dir (key_of_oid oid) with
  | Some rid ->
      let rid' = Heap.update t.heap rid data in
      if not (Heap.rid_equal rid rid') then Btree.insert t.dir (key_of_oid oid) rid'
  | None ->
      let rid = Heap.insert t.heap data in
      Btree.insert t.dir (key_of_oid oid) rid

let get t ~oid : string option =
  match Btree.find t.dir (key_of_oid oid) with
  | Some rid -> Some (Heap.get t.heap rid)
  | None -> None

let mem t ~oid = Btree.mem t.dir (key_of_oid oid)

let delete t ~oid : bool =
  match Btree.find t.dir (key_of_oid oid) with
  | Some rid ->
      Heap.delete t.heap rid;
      Btree.delete t.dir (key_of_oid oid)
  | None -> false

(** Iterate all records in oid order. *)
let iter t (f : int -> string -> unit) =
  Btree.iter t.dir (fun k rid -> f (Int64.to_int k) (Heap.get t.heap rid))

let count t = Btree.cardinal t.dir

type stats = {
  pages : int;
  objects : int;
  page_reads : int;
  page_writes : int;
  cache_hits : int;
  cache_misses : int;
  evictions : int;
  journal_bytes : int;
}

(* [count_objects:false] skips the B-tree walk behind [objects]
   (reported as 0): counter snapshots are safe to read from any thread,
   but walking the live tree through the page cache is not while a
   {!Group} writer domain owns the write path. *)
let stats ?(count_objects = true) t =
  let s = Pager.stats t.pager in
  {
    pages = s.Pager.s_pages;
    objects = (if count_objects then count t else 0);
    page_reads = s.Pager.s_reads;
    page_writes = s.Pager.s_writes;
    cache_hits = s.Pager.s_hits;
    cache_misses = s.Pager.s_misses;
    evictions = s.Pager.s_evictions;
    journal_bytes = s.Pager.s_journal_bytes;
  }

(** One checksum scrub pass over the underlying file — every page
    verified against its CRC trailer without polluting the page cache
    (see {!Pager.scrub}). *)
let scrub ?batch_pages ?sleep_s t = Pager.scrub ?batch_pages ?sleep_s t.pager

(** Consistency check used by tests and the crash-torture harness:

    - the directory B-tree is structurally valid;
    - every directory entry resolves to a live heap record (blob chains
      are followed and length-checked by [Heap.get]);
    - every heap page holding a referenced record is structurally sound
      ({!Heap.validate_page}: header bounds, slot-array accounting,
      slot extents);
    - the free-page list stays inside the file, is cycle-free, and
      every page on it is marked free.

    Pages reachable from none of these (e.g. pages allocated by an
    uncommitted transaction that crashed) may hold arbitrary bytes;
    that is not corruption, merely leaked space that vacuum reclaims. *)
let check t =
  let n = Btree.check t.dir in
  let heap_pages = Hashtbl.create 64 in
  Btree.iter t.dir (fun _ rid ->
      if not (Hashtbl.mem heap_pages rid.Heap.page) then begin
        Heap.validate_page t.heap rid.Heap.page;
        Hashtbl.replace heap_pages rid.Heap.page ()
      end;
      ignore (Heap.get t.heap rid));
  let seen = Hashtbl.create 64 in
  let rec walk no =
    if no <> 0 then begin
      if no < 0 || no >= Pager.page_count t.pager then
        fail "free list escapes the file (page %d)" no;
      if Hashtbl.mem seen no then fail "free list cycle at page %d" no;
      Hashtbl.replace seen no ();
      let b = Pager.read t.pager no in
      if Bytes.get_uint8 b 0 <> kind_free then
        fail "free list page %d is not marked free (kind %d)" no (Bytes.get_uint8 b 0);
      walk (Int32.to_int (Bytes.get_int32_le b 1))
    end
  in
  walk (hdr_read_free_head t.pager);
  n

(** Vacuum: rewrite the store into a fresh compact file, dropping dead
    pages (fragmentation from deletes, lazily-deleted B-tree space,
    abandoned pages after aborts) and renaming it over the original.
    The store must not be inside a transaction.  Returns the new store
    handle — the old one is consumed.

    Crash-safe: a crash anywhere before the rename leaves the original
    file (and any journal it needs) untouched; the rename itself is
    atomic; and any stale journal for the original path is removed
    {e before} the rename, so a journal that predates the vacuum can
    never be replayed over the freshly written file. *)
let vacuum t : t =
  if in_tx t then fail "vacuum inside a transaction";
  let vfs = t.vfs in
  let tmp = t.path ^ ".vacuum" in
  if vfs.Vfs.exists tmp then vfs.Vfs.remove tmp;
  if vfs.Vfs.exists (tmp ^ ".journal") then vfs.Vfs.remove (tmp ^ ".journal");
  let fresh = open_ ~vfs tmp in
  (* The rebuild runs outside a transaction on purpose: journaling it
     would double the I/O, and a crash mid-rebuild only loses the tmp
     file, which the next vacuum removes. *)
  iter t (fun oid data -> put fresh ~oid data);
  fresh.next_oid <- t.next_oid;
  let path = t.path in
  close t;
  close fresh (* flushes, persists next_oid under the journal, fsyncs *);
  (* Commit point.  First drop any journal left over for [path]: after
     the rename it would hold before-images of the *old* file and
     replaying it over the new one would corrupt it. *)
  if vfs.Vfs.exists (path ^ ".journal") then vfs.Vfs.remove (path ^ ".journal");
  vfs.Vfs.rename tmp path;
  if vfs.Vfs.exists (tmp ^ ".journal") then vfs.Vfs.remove (tmp ^ ".journal");
  open_ ~vfs path

(* --- group commit ------------------------------------------------------- *)

(** Group commit: a dedicated writer domain drains a bounded queue of
    transaction bodies, runs each as a soft transaction (LSN advance,
    no fsync), and retires the whole batch with one
    journal-flush/fsync/truncate cycle.  Every submitter blocks until
    its own commit is durable and is woken with its commit LSN, so the
    per-caller contract is exactly [with_tx] — only the fsyncs are
    amortised K-into-1.

    The store must not be driven through [begin_tx]/[with_tx] by other
    code while a group is running: the group's writer domain owns the
    write path. *)
module Group = struct
  type store = t

  type job = {
    body : store -> unit;
    j_mu : Mutex.t;
    j_cv : Condition.t;
    mutable j_res : (int, exn) result option;
  }

  type g = {
    g_store : store;
    q : job Queue.t;
    q_mu : Mutex.t;
    q_cv : Condition.t;
    q_cap : int;
    max_batch : int;
    on_rollback : (unit -> unit) option;
        (* called in the writer domain after any store rollback (a job
           soft-abort or a failed hard commit), once the store's own
           components are rebuilt — lets layers stacked on the store
           (the Database mirror) resynchronise *)
    mutable g_stopping : bool;
    mutable g_dead : exn option; (* writer died; submissions now fail *)
    mutable g_writer : unit Domain.t option;
    mutable g_batches : int; (* hard-commit (fsync) cycles *)
    mutable g_commits : int; (* soft commits retired *)
    mutable g_aborts : int; (* bodies that raised *)
  }

  exception Stopped

  let finish (j : job) (res : (int, exn) result) =
    Mutex.lock j.j_mu;
    j.j_res <- Some res;
    Condition.broadcast j.j_cv;
    Mutex.unlock j.j_mu

  (* Run one batch of jobs inside a single pager transaction.  Each
     job's soft commit gets its own LSN; one commit_hard makes them all
     durable.  A body that raises is soft-aborted (in-memory page
     restore) and reported to its submitter; the rest of the batch is
     unaffected.  If the hard commit itself fails, every job in the
     batch is reported failed — none of their LSNs became durable. *)
  let run_batch g (jobs : job list) =
    let t = g.g_store in
    begin_tx t;
    match
      List.map
        (fun j ->
          match
            Pager.soft_begin t.pager;
            j.body t;
            hdr_write_next_oid t.pager t.next_oid;
            Pager.commit_soft t.pager
          with
          | lsn ->
              g.g_commits <- g.g_commits + 1;
              (j, Ok lsn)
          | exception e ->
              Pager.soft_abort t.pager;
              reload_components t;
              (match g.on_rollback with Some f -> f () | None -> ());
              g.g_aborts <- g.g_aborts + 1;
              (j, Error e))
        jobs
    with
    | results -> (
        match
          hdr_write_next_oid t.pager t.next_oid;
          Pager.commit_hard t.pager
        with
        | () ->
            t.tx_depth <- 0;
            g.g_batches <- g.g_batches + 1;
            Pobs.Metrics.inc m_tx_commits;
            List.iter (fun (j, r) -> finish j r) results
        | exception e ->
            (* Durability failed: nothing in this batch committed.  The
               layers above resynchronise inside the rollback, before
               the commit-boundary lock is released; should the
               rollback itself fail first, the lock is still held. *)
            t.tx_depth <- 1;
            let rolled_back () =
              match g.on_rollback with Some f -> ( try f () with _ -> ()) | None -> ()
            in
            (try abort ~rolled_back t with _ -> rolled_back ());
            List.iter (fun (j, _) -> finish j (Error e)) results;
            raise e)
    | exception e ->
        (* begin_tx itself failed *)
        List.iter (fun j -> finish j (Error e)) jobs;
        raise e

  let writer_loop g =
    let rec loop () =
      Mutex.lock g.q_mu;
      while Queue.is_empty g.q && not g.g_stopping do
        Condition.wait g.q_cv g.q_mu
      done;
      let jobs = ref [] in
      while (not (Queue.is_empty g.q)) && List.length !jobs < g.max_batch do
        jobs := Queue.pop g.q :: !jobs
      done;
      Condition.broadcast g.q_cv (* wake submitters blocked on a full queue *);
      Mutex.unlock g.q_mu;
      let jobs = List.rev !jobs in
      if jobs = [] then (if not g.g_stopping then loop ())
      else begin
        run_batch g jobs;
        loop ()
      end
    in
    match loop () with
    | () -> ()
    | exception e ->
        (* The writer died (simulated power cut, I/O error).  Fail every
           queued job and every future submission instead of letting
           submitters block forever. *)
        Mutex.lock g.q_mu;
        g.g_dead <- Some e;
        g.g_stopping <- true;
        let orphans = Queue.fold (fun acc j -> j :: acc) [] g.q in
        Queue.clear g.q;
        Condition.broadcast g.q_cv;
        Mutex.unlock g.q_mu;
        List.iter (fun j -> finish j (Error e)) (List.rev orphans)

  let start ?(max_batch = 32) ?(queue_cap = 256) ?on_rollback (t : store) : g =
    if in_tx t then fail "group start inside a transaction";
    if t.group_active then fail "group already running on this store";
    if max_batch < 1 || queue_cap < 1 then fail "group: bad configuration";
    let g =
      {
        g_store = t;
        q = Queue.create ();
        q_mu = Mutex.create ();
        q_cv = Condition.create ();
        q_cap = queue_cap;
        max_batch;
        on_rollback;
        g_stopping = false;
        g_dead = None;
        g_writer = None;
        g_batches = 0;
        g_commits = 0;
        g_aborts = 0;
      }
    in
    t.group_active <- true;
    g.g_writer <- Some (Domain.spawn (fun () -> writer_loop g));
    g

  (** Submit a transaction body and block until it is durable.  Returns
      the commit LSN.  Re-raises the body's exception if it raised (the
      body's effects are rolled back), or the I/O error that killed the
      batch.  Raises {!Stopped} if the group has been stopped. *)
  let submit (g : g) (body : store -> unit) : int =
    let j =
      { body; j_mu = Mutex.create (); j_cv = Condition.create (); j_res = None }
    in
    Mutex.lock g.q_mu;
    while Queue.length g.q >= g.q_cap && not g.g_stopping do
      Condition.wait g.q_cv g.q_mu
    done;
    if g.g_stopping then begin
      let e = match g.g_dead with Some e -> e | None -> Stopped in
      Mutex.unlock g.q_mu;
      raise e
    end;
    Queue.push j g.q;
    Condition.broadcast g.q_cv;
    Mutex.unlock g.q_mu;
    Mutex.lock j.j_mu;
    while j.j_res = None do
      Condition.wait j.j_cv j.j_mu
    done;
    Mutex.unlock j.j_mu;
    match j.j_res with
    | Some (Ok lsn) -> lsn
    | Some (Error e) -> raise e
    | None -> assert false

  (** Drain the queue, retire the writer domain, and surface the error
      that killed it, if any.  Idempotent. *)
  let stop (g : g) : unit =
    Mutex.lock g.q_mu;
    g.g_stopping <- true;
    Condition.broadcast g.q_cv;
    Mutex.unlock g.q_mu;
    (match g.g_writer with
    | Some d ->
        g.g_writer <- None;
        Domain.join d;
        g.g_store.group_active <- false
    | None -> ());
    match g.g_dead with Some Vfs.Crash -> raise Vfs.Crash | _ -> ()

  type gstats = { batches : int; commits : int; aborts : int; queued : int }

  let group_stats (g : g) : gstats =
    Mutex.lock g.q_mu;
    let s =
      {
        batches = g.g_batches;
        commits = g.g_commits;
        aborts = g.g_aborts;
        queued = Queue.length g.q;
      }
    in
    Mutex.unlock g.q_mu;
    s
end
