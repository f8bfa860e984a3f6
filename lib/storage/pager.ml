(** Page cache and transactional page I/O.

    The pager owns the database file and an undo journal.  All access to
    the file goes through fixed-size pages ({!page_size} bytes).  A
    transaction protocol provides atomic multi-page updates:

    - Before a page is modified for the first time inside a transaction,
      its before-image is appended to the journal file.
    - Dirty pages may be written back to the main file at any time
      (steal), but only after the journal containing their before-image
      has been fsynced.
    - [commit] flushes all dirty pages, fsyncs the main file, then
      truncates the journal (the commit point).
    - [abort] (or crash recovery on open) copies the before-images from
      the journal back into the main file.

    Page 0 is reserved for the store header and is managed like any
    other page (so header updates are also journaled and thus atomic).

    Hot paths are tuned (see DESIGN.md "Commit path & page cache"):
    writeback sorts dirty pages and merges contiguous runs into single
    extent writes; before-image frames are encoded in place into a
    reusable group buffer and land with one write + one fsync per sync
    point; eviction takes victims from the head of an intrusive LRU
    list, where a touch relinks one page in O(1) and allocates nothing;
    and a dirty counter lets [begin_tx] skip its checkpoint flush/fsync
    when the cache is already clean (the common case right after a
    commit).

    All file I/O goes through a {!Vfs.t} (defaulting to {!Vfs.unix}),
    so the crash-recovery protocol can be proven correct under the
    fault-injecting VFS ({!Fault}) by sweeping a simulated power cut
    across every syscall of a workload (see [test/test_crash.ml]).

    {1 The commit-boundary lock}

    Every transaction holds one lock from {!begin_tx} to its
    {!commit}, {!commit_hard} or {!abort}.  A layer that must see the
    store only between transactions — the object layer copying its
    mirror into a snapshot view from another domain — runs under the
    same lock through {!at_commit_boundary}; an abort runs its caller's
    resynchronisation before releasing it.

    A group-commit batch (driven by [Store.Group]) runs several
    transactions inside one journal lifetime: {!soft_begin} /
    {!commit_soft} give each its own LSN and rollback scope (an
    in-memory undo set — the shared undo journal still rolls back the
    {e whole} batch on crash, which is exactly the unacknowledged
    suffix), and a single {!commit_hard} pays the flush + fsync cycle
    for all of them. *)

let page_size = 4096

(** Per-page checksum trailer: the last {!trailer_size} bytes of every
    page hold a CRC-32 over the first {!page_capacity} bytes.  The
    trailer is part of every page layout — higher layers (heap, free
    list) never place data there — so a checksum-less file (header flag
    0, see {!checksum_flag_off}) has the same format; only whether the
    trailer is stamped on writeback and verified on read differs. *)
let trailer_size = 4

(** Bytes of a page available to higher layers ([page_size] minus the
    checksum trailer). *)
let page_capacity = page_size - trailer_size

let crc_off = page_capacity

exception Pager_error of string

(** A page read from disk whose content does not hash to its stored
    checksum trailer: media-level corruption (bit rot, torn hardware
    write, misdirected I/O).  [expected] is the stored trailer CRC,
    [got] the CRC computed over the page content as read. *)
exception Page_corrupt of { page : int; expected : int; got : int }

(** Typed I/O failure: an operating-system error surfaced by the
    underlying VFS, annotated with the operation and file it hit.
    Callers never see raw [Unix.Unix_error] from the pager. *)
exception Io_error of { op : string; path : string; error : Unix.error }

let fail fmt = Format.kasprintf (fun s -> raise (Pager_error s)) fmt

(* Run one VFS operation: retry on EINTR, wrap any other OS error into
   {!Io_error}.  A simulated power cut ({!Vfs.Crash}) is deliberately
   not caught anywhere in the pager: the "machine" is gone and the
   torture harness above us owns what happens next. *)
let io ~op ~path f =
  let rec go () =
    match f () with
    | v -> v
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (error, _, _) -> raise (Io_error { op; path; error })
  in
  go ()

(* Process-wide observability handles (DESIGN.md "Observability").
   They mirror the per-pager [stats] fields aggregated across every
   open database; the per-pager fields stay authoritative for
   single-database accounting. *)
let m_pread_ns =
  Pobs.Metrics.histogram "pdb_pager_pread_ns" ~help:"Data/journal file pread latency"

let m_pwrite_ns =
  Pobs.Metrics.histogram "pdb_pager_pwrite_ns" ~help:"Data/journal file pwrite latency"

let m_fsync_ns = Pobs.Metrics.histogram "pdb_pager_fsync_ns" ~help:"fsync latency"

let m_page_reads =
  Pobs.Metrics.counter "pdb_pager_page_reads_total" ~help:"Pages read from disk"

let m_page_writes =
  Pobs.Metrics.counter "pdb_pager_page_writes_total" ~help:"Pages written back to disk"

let m_cache_hits = Pobs.Metrics.counter "pdb_pager_cache_hits_total" ~help:"Page-cache hits"

let m_cache_misses =
  Pobs.Metrics.counter "pdb_pager_cache_misses_total" ~help:"Page-cache misses"

let m_evictions = Pobs.Metrics.counter "pdb_pager_evictions_total" ~help:"Pages evicted"

let m_journal_bytes =
  Pobs.Metrics.counter "pdb_pager_journal_bytes_total" ~help:"Bytes appended to undo journals"

let m_coalesced_runs =
  Pobs.Metrics.counter "pdb_pager_coalesced_runs_total"
    ~help:"Contiguous dirty-page runs written as single extents"

let m_extent_pages =
  Pobs.Metrics.counter "pdb_pager_extent_pages_total"
    ~help:"Pages written through coalesced extent writes"

let m_commits = Pobs.Metrics.counter "pdb_pager_commits_total" ~help:"Pager-level commits"
let m_aborts = Pobs.Metrics.counter "pdb_pager_aborts_total" ~help:"Pager-level aborts"

let m_recoveries =
  Pobs.Metrics.counter "pdb_pager_recoveries_total"
    ~help:"Journal replays performed on open or abort"

let m_page_corrupt =
  Pobs.Metrics.counter "pdb_page_corrupt_total"
    ~help:"Pages whose checksum verification failed"

let m_torn_tail =
  Pobs.Metrics.counter "pdb_recovery_torn_tail_total"
    ~help:"Journal recoveries that discarded a corrupt or torn tail"

let m_scrub_runs = Pobs.Metrics.counter "pdb_scrub_runs_total" ~help:"Scrub passes completed"

let m_scrub_pages =
  Pobs.Metrics.counter "pdb_scrub_pages_total" ~help:"Pages verified by scrub passes"

let m_scrub_corrupt =
  Pobs.Metrics.counter "pdb_scrub_corrupt_total" ~help:"Corrupt pages found by scrub passes"

let m_scrub_run_ns =
  Pobs.Metrics.histogram "pdb_scrub_run_ns" ~help:"Wall-clock duration of scrub passes"

(* ------------------------------------------------------------------ *)
(* Log sequence numbers and redo records                               *)
(* ------------------------------------------------------------------ *)

(** Byte offset of the commit LSN inside the header page (page 0).  The
    store header uses offsets 0..27 (magic, version, next_oid, dir_root,
    free_head); the LSN claims the next 8 bytes.  Pre-PR5 files carry
    zeroes here, which reads back as LSN 0 — "never replicated". *)
let lsn_header_off = 28

(** Byte offset of the checksum flag inside the header page:
    {!checksum_flag_on} when the file's pages carry stamped CRC
    trailers, 0 otherwise.  Written together with the LSN at every
    page-dirtying commit, so the flag is journaled and rolls back with
    the data.  A file whose flag is 0 (written before checksums
    existed) is opened unverified and stays so — its trailers were never
    maintained; vacuum rewrites every page and so upgrades such a file.
    The pager never creates such a file itself.  The "on" value is
    a bit pattern rather than 1 so that any {e single-bit} flip of the
    flag byte itself yields an invalid value — detected as header
    corruption — instead of silently disabling verification. *)
let checksum_flag_off = 36

let checksum_flag_on = 0xA5

(** A committed transaction's after-images: every page dirtied since the
    previous commit, captured at the commit point, stamped with the LSN
    the commit advanced the header to.  This is what physical
    replication ships: the pager journals *before*-images for rollback,
    so the redo stream is the complement — the coalesced writeback set.
    Pages are sorted by page number; images are immutable copies. *)
type redo_record = { lsn : int; pages : (int * string) list }

type page = {
  no : int;
  data : Bytes.t;
  mutable dirty : bool;
  mutable prev : page; (* LRU list neighbours: towards the oldest page *)
  mutable next : page; (* ... and towards the newest; [nil] when unlinked *)
}

(* The "not in the LRU list" marker.  Each pager's list is circular
   through its own sentinel page; a page off the list (page 0, which is
   pinned, or one dropped from the cache) points at [nil] both ways. *)
let rec nil = { no = -1; data = Bytes.empty; dirty = false; prev = nil; next = nil }

let new_page no data = { no; data; dirty = false; prev = nil; next = nil }

(* ------------------------------------------------------------------ *)
(* Page checksum helpers                                               *)
(* ------------------------------------------------------------------ *)

(* CRC of the content region, and the CRC the trailer claims. *)
let image_crc b = Int32.to_int (Codec.Crc32.digest_bytes_sub b 0 page_capacity) land 0xffffffff
let stored_crc b = Int32.to_int (Bytes.get_int32_le b crc_off) land 0xffffffff

(** Stamp the checksum trailer of a full page image in place.  Exposed
    for layers that fabricate page images outside the pager (the
    replication feed's snapshot mirror, tests). *)
let stamp_image (b : Bytes.t) = Codec.Put.u32 b crc_off (image_crc b)

(* A page that is entirely zero is "never written": the file was
   extended past it (sparse tail, crash-torn growth) without its
   content ever landing.  No live page is all-zero — every page kind
   sets byte 0 — so accepting it cannot mask real data corruption,
   while rejecting it would fail states a clean crash can produce. *)
let is_zero_page b =
  let rec go i = i >= page_size || (Bytes.get_int64_le b i = 0L && go (i + 8)) in
  go 0

(** Verify a full page image against its trailer; raises
    {!Page_corrupt} (and counts it) on mismatch. *)
let verify_image ~page (b : Bytes.t) =
  let expected = stored_crc b and got = image_crc b in
  if expected <> got && not (is_zero_page b) then begin
    Pobs.Metrics.inc m_page_corrupt;
    raise (Page_corrupt { page; expected; got })
  end

type t = {
  vfs : Vfs.t;
  fd : Vfs.file;
  path : string;
  journal_path : string;
  created : bool; (* the file was empty when opened (after recovery) *)
  readonly : bool;
  mutable verify : bool;
      (* checksums active for this file: it carries stamped trailers
         (created by us, or header flag set) *)
  quarantined : (int, unit) Hashtbl.t;
      (* known-corrupt pages awaiting repair: reads skip verification
         (so a repair transaction can journal the damaged before-image)
         and scrub skips re-reporting them *)
  mutable page_count : int;
  mutable lsn : int; (* header LSN; advanced by each page-dirtying commit *)
  mutable redo_hook : (redo_record -> unit) option;
  since_commit : (int, unit) Hashtbl.t;
      (* pages dirtied since the last commit — the candidate after-image
         set for the next redo record.  A safe superset: entries from
         aborted transactions or out-of-tx writes stay and ship their
         (reverted or checkpointed) on-disk content harmlessly. *)
  cache : (int, page) Hashtbl.t;
  mutable cache_cap : int;
  lru : page;
      (* sentinel of the LRU list: [lru.next] is the least recently
         touched cached page, [lru.prev] the most recent.  Every cached
         page except pinned page 0 is on it exactly once. *)
  mutable dirty_list : page list;
      (* pages that turned dirty since the last flush; entries whose
         page was cleaned in the meantime (eviction writeback) are
         stale and skipped *)
  mutable dirty_count : int;
  mutable unsynced_writes : bool; (* data-file writes since its last fsync *)
  mutable wbuf : Bytes.t; (* reusable extent-write scratch *)
  (* transaction state *)
  mutable in_tx : bool;
  mutable journaled : (int, unit) Hashtbl.t; (* pages whose before-image is in the journal *)
  mutable jfd : Vfs.file option;
  mutable journal_len : int; (* bytes of valid frames on disk; buffered and
                                retried appends land here, so a torn append
                                (ENOSPC mid-frame) is overwritten on retry *)
  mutable journal_synced : bool;
  mutable jbuf : Bytes.t; (* group-journal frame buffer *)
  mutable jbuf_len : int;
  mutable tx_new_pages : (int, unit) Hashtbl.t; (* pages allocated in this tx *)
  tx_mu : Mutex.t;
      (* Held by the writer for the whole of every transaction
         ([begin_tx] .. [commit] / [commit_hard] / [abort]): whoever
         takes it sees no transaction open (see {!at_commit_boundary}). *)
  tx_domain : int Atomic.t;
      (* the domain holding [tx_mu] for a transaction, or -1; read by
         other domains in {!at_commit_boundary} *)
  (* group-commit batch state (writer-owned) *)
  mutable soft_mode : bool; (* inside a Store.Group batch *)
  tx_touched : (int, unit) Hashtbl.t; (* pages touched by the current soft tx *)
  mutable tx_undo : (int * Bytes.t) list; (* their pre-images, for soft_abort *)
  mutable pending_redo : redo_record list;
      (* soft-committed records, newest first; fired in commit order by
         commit_hard once the batch is durable — replication must never
         see a commit that could still be rolled back *)
  (* statistics *)
  mutable reads : int;
  mutable writes : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable journal_bytes : int;
}

(* Read exactly [len] bytes at [file_off], zero-filling past EOF.
   Short transfers and EINTR are retried. *)
let really_pread ~path (fd : Vfs.file) buf ~off ~len ~file_off =
  let rec go pos remaining =
    if remaining > 0 then begin
      let n =
        io ~op:"pread" ~path (fun () ->
            fd.Vfs.pread ~buf ~off:(off + pos) ~len:remaining ~at:(file_off + pos))
      in
      if n = 0 then Bytes.fill buf (off + pos) remaining '\000'
      else go (pos + n) (remaining - n)
    end
  in
  Pobs.Metrics.time m_pread_ns (fun () -> go 0 len)

(* Write [len] bytes of [buf] from [off] at [file_off], retrying short
   transfers and EINTR. *)
let really_write ~path (fd : Vfs.file) buf ~off ~len ~file_off =
  let rec go pos =
    if pos < len then begin
      let n =
        io ~op:"pwrite" ~path (fun () ->
            fd.Vfs.pwrite ~buf ~off:(off + pos) ~len:(len - pos) ~at:(file_off + pos))
      in
      if n <= 0 then raise (Io_error { op = "pwrite"; path; error = Unix.EIO });
      go (pos + n)
    end
  in
  Pobs.Metrics.time m_pwrite_ns (fun () -> go 0)

(* Same, through the extent entry point (coalesced multi-page runs). *)
let really_write_extent ~path (fd : Vfs.file) buf ~off ~len ~file_off =
  let rec go pos =
    if pos < len then begin
      let n =
        io ~op:"pwrite_extent" ~path (fun () ->
            fd.Vfs.pwrite_extent ~buf ~off:(off + pos) ~len:(len - pos) ~at:(file_off + pos))
      in
      if n <= 0 then raise (Io_error { op = "pwrite_extent"; path; error = Unix.EIO });
      go (pos + n)
    end
  in
  Pobs.Metrics.time m_pwrite_ns (fun () -> go 0)

(* All fsyncs go through here so the latency histogram covers every
   durability point (journal sync, commit flush, recovery). *)
let fsync_file ~path (fd : Vfs.file) =
  Pobs.Metrics.time m_fsync_ns (fun () ->
      io ~op:"fsync" ~path (fun () -> fd.Vfs.fsync ()))

(* ------------------------------------------------------------------ *)
(* Journal                                                             *)
(* ------------------------------------------------------------------ *)

(* Journal frame layout: magic u32 | page_no i64 | crc32 u32 | page bytes *)
let journal_frame_magic = 0x4A524E4C (* "JRNL" *)
let journal_frame_size = 4 + 8 + 4 + page_size

(** Group-journal buffer capacity, in frames.  A transaction touching
    more pages than this flushes the buffer (plain write, no fsync) at
    each boundary, bounding memory at ~128 KiB. *)
let journal_buffer_frames = 32

let journal_open t =
  match t.jfd with
  | Some fd -> fd
  | None ->
      let fd =
        io ~op:"open" ~path:t.journal_path (fun () ->
            t.vfs.Vfs.open_file ~trunc:true t.journal_path)
      in
      t.jfd <- Some fd;
      t.journal_len <- 0;
      fd

(* Write the buffered frames at the journal's valid end.  On failure
   (ENOSPC, ...) nothing is consumed: [journal_len] and the buffer are
   unchanged, so a retry overwrites the torn tail rather than
   appending after it. *)
let journal_flush t =
  if t.jbuf_len > 0 then begin
    let jfd = journal_open t in
    really_write ~path:t.journal_path jfd t.jbuf ~off:0 ~len:t.jbuf_len
      ~file_off:t.journal_len;
    t.journal_len <- t.journal_len + t.jbuf_len;
    t.journal_bytes <- t.journal_bytes + t.jbuf_len;
    Pobs.Metrics.addi m_journal_bytes t.jbuf_len;
    t.jbuf_len <- 0
  end

let journal_append t page_no (data : Bytes.t) =
  ignore (journal_open t);
  let cap = journal_buffer_frames * journal_frame_size in
  if Bytes.length t.jbuf < cap then begin
    let b = Bytes.create cap in
    Bytes.blit t.jbuf 0 b 0 t.jbuf_len;
    t.jbuf <- b
  end;
  if t.jbuf_len + journal_frame_size > cap then journal_flush t;
  (* encode the frame in place: header stores + one page blit, no
     intermediate copies *)
  let off = t.jbuf_len in
  Codec.Put.u32 t.jbuf off journal_frame_magic;
  Codec.Put.i64 t.jbuf (off + 4) (Int64.of_int page_no);
  Codec.Put.u32 t.jbuf (off + 12)
    (Int32.to_int (Codec.Crc32.digest_bytes data) land 0xffffffff);
  Bytes.blit data 0 t.jbuf (off + 16) page_size;
  t.jbuf_len <- off + journal_frame_size;
  t.journal_synced <- false

let journal_truncate t =
  (* Frames still buffered belong to the transaction being finished:
     their pages never reached the data file (the steal barrier syncs
     the whole buffer first), so they are simply dropped. *)
  t.jbuf_len <- 0;
  (match t.jfd with
  | Some fd ->
      (* A journal that is already empty on disk has nothing to cut; a
         commit that journaled nothing then skips both syscalls. *)
      if t.journal_len > 0 then begin
        io ~op:"truncate" ~path:t.journal_path (fun () -> fd.Vfs.truncate 0);
        fsync_file ~path:t.journal_path fd
      end
  | None -> ());
  t.journal_len <- 0;
  Hashtbl.reset t.journaled;
  Hashtbl.reset t.tx_new_pages;
  t.journal_synced <- true

(* Sync point: land the buffered frames with one write, then one fsync. *)
let journal_sync t =
  if not t.journal_synced then begin
    journal_flush t;
    (match t.jfd with
    | Some fd -> fsync_file ~path:t.journal_path fd
    | None -> ());
    t.journal_synced <- true
  end

(* Read all valid frames from the journal file at [path]; returns the
   frames in order.  Stops at the first corrupt/truncated frame: a torn
   tail (magic mismatch, bad CRC, or a short final frame) marks the end
   of the trustworthy prefix. *)
let journal_read_frames ~(vfs : Vfs.t) path =
  if not (vfs.Vfs.exists path) then []
  else begin
    let fd = io ~op:"open" ~path (fun () -> vfs.Vfs.open_file path) in
    let frames = ref [] in
    let torn = ref false in
    (try
       let len = io ~op:"size" ~path (fun () -> fd.Vfs.size ()) in
       let bytes = Bytes.create len in
       really_pread ~path fd bytes ~off:0 ~len ~file_off:0;
       let buf = Bytes.unsafe_to_string bytes in
       let d = Codec.Dec.of_string buf in
       let continue = ref true in
       while !continue && Codec.Dec.remaining d >= journal_frame_size do
         let magic = Codec.Dec.u32 d in
         let page_no = Int64.to_int (Codec.Dec.i64 d) in
         let crc = Codec.Dec.u32 d in
         let start = d.Codec.Dec.pos in
         let data = String.sub buf start page_size in
         d.Codec.Dec.pos <- start + page_size;
         if
           magic = journal_frame_magic
           && page_no >= 0
           && Int32.to_int (Codec.Crc32.digest data) land 0xffffffff = crc
         then frames := (page_no, data) :: !frames
         else continue := false
       done;
       (* Anything left behind the valid prefix — a frame that failed
          its magic/CRC check, or a short final frame — is a torn tail:
          expected after a power cut mid-append, but worth a trace
          rather than a silent discard. *)
       if (not !continue) || Codec.Dec.remaining d > 0 then torn := true
     with Codec.Corrupt _ -> torn := true);
    io ~op:"close" ~path (fun () -> fd.Vfs.close ());
    if !torn then begin
      Pobs.Metrics.inc m_torn_tail;
      Printf.eprintf "pager: journal %s: discarded corrupt/torn tail after %d valid frame(s)\n%!"
        path (List.length !frames)
    end;
    List.rev !frames
  end

(* ------------------------------------------------------------------ *)
(* Cache management                                                    *)
(* ------------------------------------------------------------------ *)

let lru_unlink (p : page) =
  if p.next != nil then begin
    p.prev.next <- p.next;
    p.next.prev <- p.prev;
    p.prev <- nil;
    p.next <- nil
  end

(* Make [p] the most recently used page: O(1), allocation-free. *)
let touch t (p : page) =
  let s = t.lru in
  if p.no <> 0 && s.prev != p then begin
    lru_unlink p;
    p.prev <- s.prev;
    p.next <- s;
    s.prev.next <- p;
    s.prev <- p
  end

let mark_dirty t (p : page) =
  Hashtbl.replace t.since_commit p.no ();
  if not p.dirty then begin
    p.dirty <- true;
    t.dirty_count <- t.dirty_count + 1;
    t.dirty_list <- p :: t.dirty_list
  end

let mark_clean t (p : page) =
  if p.dirty then begin
    p.dirty <- false;
    t.dirty_count <- t.dirty_count - 1
  end

(** Longest run of contiguous page numbers an extent write may merge
    (bounds the scratch buffer at 256 KiB). *)
let max_extent_pages = 64

(** Merge a sorted list of page numbers into [(start, len)] runs of
    contiguous pages, each at most {!max_extent_pages} long.  Exposed
    for unit tests. *)
let coalesce_runs (nos : int list) : (int * int) list =
  let rec go start len rest acc =
    match rest with
    | no :: tl when no = start + len && len < max_extent_pages ->
        go start (len + 1) tl acc
    | no :: tl -> go no 1 tl ((start, len) :: acc)
    | [] -> List.rev ((start, len) :: acc)
  in
  match nos with [] -> [] | no :: tl -> go no 1 tl []

(* Write a batch of dirty pages back to the data file, enforcing the
   steal barrier: if any page in the batch has a journaled
   before-image, the journal is flushed and fsynced before the first
   data write.  The batch is sorted by page number and contiguous runs
   land as single extent writes. *)
let write_batch t (pages : page list) =
  if pages <> [] then begin
    (* Stamp trailers in place (the cached image keeps the stamp, so
       before-images journaled on a later first-touch stay
       self-consistent) before any byte reaches the journal or file. *)
    if t.verify then List.iter (fun p -> stamp_image p.data) pages;
    if t.in_tx && List.exists (fun p -> Hashtbl.mem t.journaled p.no) pages then
      journal_sync t;
    t.unsynced_writes <- true;
    let arr = Array.of_list pages in
    Array.sort (fun a b -> compare a.no b.no) arr;
    let runs = coalesce_runs (Array.to_list (Array.map (fun p -> p.no) arr)) in
    let idx = ref 0 in
    List.iter
      (fun (start, len) ->
        if len = 1 then
          really_write ~path:t.path t.fd arr.(!idx).data ~off:0 ~len:page_size
            ~file_off:(start * page_size)
        else begin
          let bytes = len * page_size in
          if Bytes.length t.wbuf < bytes then t.wbuf <- Bytes.create (max_extent_pages * page_size);
          for k = 0 to len - 1 do
            Bytes.blit arr.(!idx + k).data 0 t.wbuf (k * page_size) page_size
          done;
          really_write_extent ~path:t.path t.fd t.wbuf ~off:0 ~len:bytes
            ~file_off:(start * page_size);
          Pobs.Metrics.inc m_coalesced_runs;
          Pobs.Metrics.addi m_extent_pages len
        end;
        for k = 0 to len - 1 do
          mark_clean t arr.(!idx + k)
        done;
        t.writes <- t.writes + len;
        Pobs.Metrics.addi m_page_writes len;
        idx := !idx + len)
      runs
  end

let evict_if_needed t =
  let n = Hashtbl.length t.cache in
  if n > t.cache_cap then begin
    (* Evict the ~25% least recently used pages (page 0 is pinned). *)
    let n_evict = max 1 (n / 4) in
    (* the oldest pages, from the head of the LRU list *)
    let rec take k (p : page) acc =
      if k = 0 || p == t.lru then acc else take (k - 1) p.next (p :: acc)
    in
    let victims = List.rev (take n_evict t.lru.next []) in
    write_batch t (List.filter (fun p -> p.dirty) victims);
    List.iter
      (fun p ->
        Hashtbl.remove t.cache p.no;
        lru_unlink p;
        t.evictions <- t.evictions + 1;
        Pobs.Metrics.inc m_evictions)
      victims
  end

(* [Hashtbl.find] rather than [find_opt]: a hit, the common case,
   allocates no option. *)
let load_page t no =
  match Hashtbl.find t.cache no with
  | p ->
      touch t p;
      t.hits <- t.hits + 1;
      Pobs.Metrics.inc m_cache_hits;
      p
  | exception Not_found ->
      t.misses <- t.misses + 1;
      Pobs.Metrics.inc m_cache_misses;
      let data = Bytes.create page_size in
      if no < t.page_count then begin
        really_pread ~path:t.path t.fd data ~off:0 ~len:page_size ~file_off:(no * page_size);
        t.reads <- t.reads + 1;
        Pobs.Metrics.inc m_page_reads;
        (* Verify before caching: a corrupt page must never enter the
           cache (each retry re-reads and re-raises).  Quarantined pages
           skip the check so a repair transaction can journal and
           overwrite the damaged image. *)
        if t.verify && not (Hashtbl.mem t.quarantined no) then verify_image ~page:no data
      end
      else Bytes.fill data 0 page_size '\000';
      let p = new_page no data in
      Hashtbl.replace t.cache no p;
      touch t p;
      evict_if_needed t;
      p

(* ------------------------------------------------------------------ *)
(* Public API                                                          *)
(* ------------------------------------------------------------------ *)

(* Undo-journal replay.  The *first* before-image of a page wins: it is
   the page's pre-transaction state, and any later duplicate (which a
   crashed, re-run recovery or a buggy writer could leave behind) must
   not override it.  Recovery is idempotent and re-runnable: the journal
   is only removed after the restored pages are durable, so a crash at
   any point during recovery simply means recovery runs again from the
   same journal on the next open. *)
let recover_from_journal ~(vfs : Vfs.t) path journal_path =
  let frames = journal_read_frames ~vfs journal_path in
  if frames <> [] then begin
    let fd = io ~op:"open" ~path (fun () -> vfs.Vfs.open_file path) in
    let applied = Hashtbl.create 64 in
    List.iter
      (fun (page_no, data) ->
        if not (Hashtbl.mem applied page_no) then begin
          Hashtbl.replace applied page_no ();
          really_write ~path fd (Bytes.of_string data) ~off:0 ~len:page_size
            ~file_off:(page_no * page_size)
        end)
      frames;
    fsync_file ~path fd;
    io ~op:"close" ~path (fun () -> fd.Vfs.close ());
    Pobs.Metrics.inc m_recoveries
  end;
  if vfs.Vfs.exists journal_path then
    io ~op:"remove" ~path:journal_path (fun () -> vfs.Vfs.remove journal_path)

let open_file ?(cache_pages = 2048) ?(vfs = Vfs.unix) ?(readonly = false) path =
  let journal_path = path ^ ".journal" in
  if readonly then begin
    (* A read-only pager must not write — and recovery both writes the
       data file and *removes* the journal, which would pull the rug out
       from under a concurrent writer (e.g. a replica applier holding the
       same path).  A journal with valid frames means the file needs
       recovery; refuse loudly rather than serve a torn image. *)
    if not (vfs.Vfs.exists path) then fail "readonly open: %s does not exist" path;
    if journal_read_frames ~vfs journal_path <> [] then
      fail "readonly open: %s has a journal with pending frames" path
  end
  else if vfs.Vfs.exists path then recover_from_journal ~vfs path journal_path;
  let fd = io ~op:"open" ~path (fun () -> vfs.Vfs.open_file path) in
  let size = io ~op:"size" ~path (fun () -> fd.Vfs.size ()) in
  let page_count = (size + page_size - 1) / page_size in
  let t =
  {
    vfs;
    fd;
    path;
    journal_path;
    created = size = 0;
    readonly;
    verify = size = 0;
    quarantined = Hashtbl.create 4;
    page_count = max page_count 1;
    lsn = 0;
    redo_hook = None;
    since_commit = Hashtbl.create 64;
    cache = Hashtbl.create 1024;
    cache_cap = cache_pages;
    lru = (let rec s = { no = -1; data = Bytes.empty; dirty = false; prev = s; next = s } in s);
    dirty_list = [];
    dirty_count = 0;
    unsynced_writes = false;
    wbuf = Bytes.create 0;
    in_tx = false;
    journaled = Hashtbl.create 64;
    jfd = None;
    journal_len = 0;
    journal_synced = true;
    jbuf = Bytes.create 0;
    jbuf_len = 0;
    tx_new_pages = Hashtbl.create 16;
    tx_mu = Mutex.create ();
    tx_domain = Atomic.make (-1);
    soft_mode = false;
    tx_touched = Hashtbl.create 16;
    tx_undo = [];
    pending_redo = [];
    reads = 0;
    writes = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    journal_bytes = 0;
  }
  in
  if size > 0 then begin
    (* Seed the LSN from the header page; a pre-PR5 file reads 0.
       [t.verify] is still false here, so this load skips verification
       — the checksum flag that decides whether to verify lives on this
       very page. *)
    let hdr = (load_page t 0).data in
    t.lsn <- Int64.to_int (Bytes.get_int64_le hdr lsn_header_off);
    let flag = Bytes.get_uint8 hdr checksum_flag_off in
    (* An invalid flag value is itself header corruption: the flag is
       only ever written as [checksum_flag_on] or 0, so a flipped bit
       in the byte cannot silently disable verification.  An all-zero
       header is a store whose initialisation was rolled back — treat
       it as fresh and start (re)stamping. *)
    if flag <> 0 && flag <> checksum_flag_on then begin
      Pobs.Metrics.inc m_page_corrupt;
      raise (Page_corrupt { page = 0; expected = stored_crc hdr; got = image_crc hdr })
    end;
    t.verify <- flag = checksum_flag_on || is_zero_page hdr;
    if flag = checksum_flag_on then verify_image ~page:0 hdr
  end;
  t

let page_count t = t.page_count

(** The header LSN: the sequence number of the last page-dirtying commit
    applied to this file.  0 on a fresh (or pre-PR5) store. *)
let lsn t = t.lsn

let is_readonly t = t.readonly

(** Install the redo hook.  After every commit that dirtied at least one
    page, the hook receives the {!redo_record} of after-images.  It runs
    *after* the commit point (journal truncated, data durable);
    exceptions it raises are logged and swallowed — a replication
    subscriber must never wedge the committing writer. *)
let set_redo_hook t f = t.redo_hook <- Some f

let clear_redo_hook t = t.redo_hook <- None

(** True if the file was empty when this pager opened it (i.e. the
    store is brand new, not merely missing its header magic). *)
let created t = t.created

let path t = t.path

(** Test hook: is page [no] currently held in the cache? *)
let cached t no = Hashtbl.mem t.cache no

(* ------------------------------------------------------------------ *)
(* Integrity: verification, quarantine, scrub                          *)
(* ------------------------------------------------------------------ *)

(** Whether pages of this file are actively checksummed: false only
    for a checksum-less file (header flag 0) not yet vacuumed. *)
let checksums_enabled t = t.verify

(** Mark page [no] known-corrupt: it is dropped from the cache and
    reads stop verifying it, so a repair transaction can journal the
    damaged before-image and overwrite it.  The journal stays sound —
    its frames checksum the bytes actually appended — and an abort
    merely restores the same damaged image. *)
let quarantine t no =
  (match Hashtbl.find_opt t.cache no with
  | Some p ->
      mark_clean t p;
      Hashtbl.remove t.cache no;
      lru_unlink p
  | None -> ());
  Hashtbl.replace t.quarantined no ()

(** Lift the quarantine of page [no]; subsequent cache-miss reads
    verify it again. *)
let unquarantine t no = Hashtbl.remove t.quarantined no

(** Currently quarantined pages, ascending. *)
let quarantined t =
  Hashtbl.fold (fun no () acc -> no :: acc) t.quarantined [] |> List.sort compare

(** Re-read page [no] from disk (bypassing the cache) and verify its
    trailer; raises {!Page_corrupt} on mismatch.  Used to prove a
    repair actually landed. *)
let verify_page t no =
  if no < 0 || no >= t.page_count then
    fail "verify_page: page %d out of range (count %d)" no t.page_count;
  let b = Bytes.create page_size in
  really_pread ~path:t.path t.fd b ~off:0 ~len:page_size ~file_off:(no * page_size);
  if t.verify then verify_image ~page:no b

(** One scrub pass over the whole file. *)
type scrub_report = {
  scrub_scanned : int;  (** pages whose checksum was verified *)
  scrub_skipped : int;  (** pages skipped: quarantined, or dirty in cache *)
  scrub_corrupt : (int * int * int) list;
      (** corrupt pages as [(page, expected, got)], ascending *)
}

(** Verify every page of the file without polluting the page cache:
    uncached pages are read into a scratch buffer and never inserted;
    cached clean pages are verified from their resident image (their
    disk bytes matched at load/writeback time, and a raw re-read could
    race a concurrent writeback); cached dirty pages and quarantined
    pages are skipped.  Corruption is {e reported}, not raised — the
    caller decides whether to quarantine, repair, or fail.  A pass over
    a file without checksums scans nothing.  [sleep_s] > 0 throttles
    the pass by sleeping between [batch_pages]-page batches. *)
let scrub ?(batch_pages = 256) ?(sleep_s = 0.) t =
  Pobs.Metrics.time m_scrub_run_ns (fun () ->
      Pobs.Metrics.inc m_scrub_runs;
      let size = io ~op:"size" ~path:t.path (fun () -> t.fd.Vfs.size ()) in
      let n = if t.verify then min t.page_count (size / page_size) else 0 in
      let buf = Bytes.create page_size in
      let corrupt = ref [] and scanned = ref 0 and skipped = ref 0 in
      let check no b =
        incr scanned;
        let expected = stored_crc b and got = image_crc b in
        if expected <> got && not (is_zero_page b) then begin
          Pobs.Metrics.inc m_page_corrupt;
          corrupt := (no, expected, got) :: !corrupt
        end
      in
      for no = 0 to n - 1 do
        if sleep_s > 0. && no > 0 && no mod batch_pages = 0 then Unix.sleepf sleep_s;
        if Hashtbl.mem t.quarantined no then incr skipped
        else
          match Hashtbl.find_opt t.cache no with
          | Some p when p.dirty -> incr skipped
          | Some p -> check no p.data
          | None ->
              really_pread ~path:t.path t.fd buf ~off:0 ~len:page_size
                ~file_off:(no * page_size);
              check no buf
      done;
      Pobs.Metrics.addi m_scrub_pages !scanned;
      Pobs.Metrics.addi m_scrub_corrupt (List.length !corrupt);
      {
        scrub_scanned = !scanned;
        scrub_skipped = !skipped;
        scrub_corrupt = List.sort compare !corrupt;
      })

(** Read access to a page.  The returned bytes must not be mutated; use
    {!with_write} for mutation. *)
let read t no : Bytes.t =
  if no < 0 || no >= t.page_count then fail "read: page %d out of range (count %d)" no t.page_count;
  (load_page t no).data

(** Mutate page [no].  Inside a transaction the before-image is
    journaled on first touch. *)
let with_write t no (f : Bytes.t -> 'a) : 'a =
  if t.readonly then fail "write: pager is read-only";
  if no < 0 || no >= t.page_count then fail "write: page %d out of range (count %d)" no t.page_count;
  let p = load_page t no in
  if t.in_tx && (not (Hashtbl.mem t.journaled no)) && not (Hashtbl.mem t.tx_new_pages no)
  then begin
    journal_append t no p.data;
    Hashtbl.replace t.journaled no ()
  end;
  if t.soft_mode && not (Hashtbl.mem t.tx_touched no) then begin
    Hashtbl.replace t.tx_touched no ();
    (* Pages allocated by this soft transaction have nothing to restore;
       pages from earlier in the batch (or before it) keep a private
       pre-image so commit_soft/soft_abort can scope rollback to one
       transaction while the shared undo journal still covers the whole
       batch for crash recovery. *)
    if not (Hashtbl.mem t.tx_new_pages no) then
      t.tx_undo <- (no, Bytes.copy p.data) :: t.tx_undo
  end;
  mark_dirty t p;
  f p.data

(** Allocate a fresh page at the end of the file; returns its number.
    The page is zero-filled. *)
let allocate t : int =
  if t.readonly then fail "allocate: pager is read-only";
  let no = t.page_count in
  t.page_count <- t.page_count + 1;
  let data = Bytes.make page_size '\000' in
  let p = new_page no data in
  Hashtbl.replace t.cache no p;
  touch t p;
  mark_dirty t p;
  if t.in_tx then Hashtbl.replace t.tx_new_pages no ();
  evict_if_needed t;
  no

let flush_all t =
  if t.dirty_count > 0 then begin
    let ds = List.filter (fun p -> p.dirty) t.dirty_list in
    t.dirty_list <- [];
    write_batch t ds
  end
  else t.dirty_list <- [];
  if t.unsynced_writes then begin
    fsync_file ~path:t.path t.fd;
    t.unsynced_writes <- false
  end

let end_tx t =
  Atomic.set t.tx_domain (-1);
  Mutex.unlock t.tx_mu

let begin_tx t =
  if t.readonly then fail "begin_tx: pager is read-only";
  if t.in_tx then fail "nested transactions are not supported at the pager level";
  (* Hold the commit-boundary lock for the whole transaction.
     Uncontended this is a few nanoseconds; a domain copying a snapshot
     view mid-transaction blocks until the commit point. *)
  Mutex.lock t.tx_mu;
  Atomic.set t.tx_domain (Domain.self () :> int);
  (* Checkpoint: pre-transaction state must be durable on disk, because
     abort discards the cache and reconstructs state from the file plus
     the journal's before-images.  A clean, synced cache — the common
     case right after a commit — already satisfies this and skips the
     flush and its fsync entirely.  If the checkpoint fails, no
     transaction has begun: release the lock on the way out. *)
  (try
     if t.dirty_count > 0 || t.unsynced_writes then flush_all t
   with e ->
     end_tx t;
     raise e);
  t.in_tx <- true;
  Hashtbl.reset t.journaled;
  Hashtbl.reset t.tx_new_pages

(* Commit: advance the LSN iff the commit set is non-empty, capture the
   after-images for the redo hook, then make everything durable.

   The LSN lives on page 0 and is written through {!with_write}, so its
   before-image is journaled: a crash before the commit point rolls the
   LSN back together with the data it stamps.  Commits that dirtied
   nothing skip the bump entirely — this preserves the lazy-checkpoint
   fast path where an empty-journal commit costs no syscalls.

   [?lsn] lets a replica applier stamp the *primary's* LSN instead of
   incrementing, keeping both headers (and so both files) byte-identical.

   The hook runs strictly after the commit point with exceptions logged
   and swallowed: the transaction is already durable, and letting a
   subscriber failure escape would leave the store's tx bookkeeping
   wedged over data that in fact committed. *)
(* The logical commit point shared by [commit] and [commit_soft]:
   advance the LSN iff the commit set is non-empty, capture the
   after-images for the redo hook, and reset the commit set. *)
let capture ?lsn t =
  let advanced = Hashtbl.length t.since_commit > 0 in
  if advanced then begin
    let next = match lsn with Some l -> l | None -> t.lsn + 1 in
    with_write t 0 (fun hdr ->
        Bytes.set_int64_le hdr lsn_header_off (Int64.of_int next);
        (* Keep the checksum flag truthful at every commit: set while
           trailers are being maintained, still 0 on a checksum-less
           file that has not been vacuumed. *)
        Bytes.set_uint8 hdr checksum_flag_off (if t.verify then checksum_flag_on else 0));
    t.lsn <- next
  end;
  let record =
    if not (advanced && t.redo_hook <> None) then None
    else begin
      (* Pages allocated by a since-aborted transaction can linger in
         the set above the current page count; they no longer exist.
         The captured images are stamped: writeback has not run yet,
         so cached trailers may be stale, but replicas install these
         bytes verbatim and verify them on read-back. *)
      let pages =
        Hashtbl.fold
          (fun no () acc ->
            if no < t.page_count then begin
              let b = Bytes.copy (read t no) in
              if t.verify then stamp_image b;
              (no, Bytes.unsafe_to_string b) :: acc
            end
            else acc)
          t.since_commit []
        |> List.sort (fun (a, _) (b, _) -> compare a b)
      in
      Some { lsn = t.lsn; pages }
    end
  in
  Hashtbl.reset t.since_commit;
  record

let fire_record t record =
  match (record, t.redo_hook) with
  | Some r, Some hook -> (
      try hook r
      with e ->
        Printf.eprintf "pager: redo hook failed at lsn %d: %s\n%!" r.lsn
          (Printexc.to_string e))
  | _ -> ()

let commit ?lsn t =
  if not t.in_tx then fail "commit outside transaction";
  if t.soft_mode then fail "commit inside a group batch (use commit_soft/commit_hard)";
  let record = capture ?lsn t in
  flush_all t;
  journal_truncate t;
  t.in_tx <- false;
  end_tx t;
  Pobs.Metrics.inc m_commits;
  fire_record t record

(* --- group-commit batch protocol (driven by Store.Group) ------------- *)

(** Open the rollback scope of one transaction inside a batch
    ({!begin_tx} must already hold).  Each soft transaction keeps a
    private in-memory undo set; the shared undo journal keeps covering
    the whole batch, which a crash rolls back in full — exactly the
    unacknowledged suffix, since no caller is woken before
    {!commit_hard}. *)
let soft_begin t =
  if not t.in_tx then fail "soft_begin outside transaction";
  t.soft_mode <- true;
  Hashtbl.reset t.tx_touched;
  (* Reset the fresh-page set per soft transaction: a page allocated by
     an earlier transaction of the batch is real committed state to the
     later ones, so their touches must journal (and undo-capture) it. *)
  Hashtbl.reset t.tx_new_pages;
  t.tx_undo <- []

(** Logically commit the current soft transaction: advance the LSN and
    buffer the redo record.  Nothing is flushed or
    fsynced — durability (and the redo hook) comes with the batch's
    {!commit_hard}.  Returns the LSN the caller owns once the batch is
    durable. *)
let commit_soft ?lsn t =
  if not (t.in_tx && t.soft_mode) then fail "commit_soft outside a group batch";
  let record = capture ?lsn t in
  (match record with Some r -> t.pending_redo <- r :: t.pending_redo | None -> ());
  Hashtbl.reset t.tx_touched;
  t.tx_undo <- [];
  t.lsn

(** Roll back the current soft transaction only: restore its pre-images
    into the cache as dirty pages (they re-land on disk with the batch
    flush, overwriting any stolen writeback).  The journal needs no
    surgery — the restored content is exactly what its frames already
    hold for these pages, and first-image-wins replay keeps any crash
    rollback correct.  Pages the transaction allocated leak until the
    next vacuum, matching {!abort}'s contract. *)
let soft_abort t =
  if not (t.in_tx && t.soft_mode) then fail "soft_abort outside a group batch";
  List.iter
    (fun (no, img) ->
      let p =
        match Hashtbl.find_opt t.cache no with
        | Some p -> p
        | None ->
            let p = new_page no (Bytes.create page_size) in
            Hashtbl.replace t.cache no p;
            touch t p;
            p
      in
      Bytes.blit img 0 p.data 0 page_size;
      mark_dirty t p)
    t.tx_undo;
  Hashtbl.reset t.tx_touched;
  t.tx_undo <- [];
  Pobs.Metrics.inc m_aborts

(** Make every soft-committed transaction of the batch durable with one
    flush + journal-truncate cycle, then fire the buffered redo records
    in commit order.  The caller wakes its waiters after this returns:
    each owns the LSN its {!commit_soft} reported. *)
let commit_hard t =
  if not (t.in_tx && t.soft_mode) then fail "commit_hard outside a group batch";
  flush_all t;
  journal_truncate t;
  t.in_tx <- false;
  t.soft_mode <- false;
  Hashtbl.reset t.tx_touched;
  t.tx_undo <- [];
  let records = List.rev t.pending_redo in
  t.pending_redo <- [];
  end_tx t;
  Pobs.Metrics.inc m_commits;
  List.iter (fun r -> fire_record t (Some r)) records

(** Roll the transaction (or the whole group batch) back.  [restored]
    runs once the file and the cache hold the pre-transaction state,
    before the commit-boundary lock is released, so a caller's
    resynchronisation (the object layer's mirror rebuild) is never seen
    half done from another domain. *)
let abort ?(restored = ignore) t =
  if not t.in_tx then fail "abort outside transaction";
  (* Buffered frames are not needed for the rollback: the steal barrier
     syncs the whole buffer before any journaled page reaches the data
     file, so a page whose before-image never left the buffer still has
     its pre-transaction content on disk. *)
  t.jbuf_len <- 0;
  (* Drop all cached state, then restore before-images from the journal. *)
  (match t.jfd with
  | Some fd ->
      fsync_file ~path:t.journal_path fd;
      io ~op:"close" ~path:t.journal_path (fun () -> fd.Vfs.close ());
      t.jfd <- None
  | None -> ());
  Hashtbl.reset t.cache;
  t.lru.prev <- t.lru;
  t.lru.next <- t.lru;
  t.dirty_list <- [];
  t.dirty_count <- 0;
  recover_from_journal ~vfs:t.vfs t.path t.journal_path;
  Hashtbl.reset t.journaled;
  Hashtbl.reset t.tx_new_pages;
  t.journal_len <- 0;
  t.journal_synced <- true;
  let size = io ~op:"size" ~path:t.path (fun () -> t.fd.Vfs.size ()) in
  t.page_count <- max ((size + page_size - 1) / page_size) 1;
  (* The rollback may have restored a pre-bump header (a commit that
     crashed after stamping the LSN but before its commit point);
     re-read it so the in-memory LSN cannot drift ahead of disk. *)
  if size > 0 then
    t.lsn <- Int64.to_int (Bytes.get_int64_le (load_page t 0).data lsn_header_off);
  t.pending_redo <- [];
  t.soft_mode <- false;
  Hashtbl.reset t.tx_touched;
  t.tx_undo <- [];
  t.in_tx <- false;
  Pobs.Metrics.inc m_aborts;
  Fun.protect ~finally:(fun () -> end_tx t) restored

(** Run [f] between transactions: under the commit-boundary lock, which
    every transaction holds from {!begin_tx} to its end.  A domain
    calling this inside its own transaction would wait for itself, so
    that is rejected. *)
let at_commit_boundary t f =
  if Atomic.get t.tx_domain = (Domain.self () :> int) then
    fail "at a commit boundary inside this domain's transaction";
  Mutex.lock t.tx_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.tx_mu) f

let close t =
  if t.in_tx then abort t;
  if not t.readonly then flush_all t;
  (match t.jfd with
  | Some fd -> io ~op:"close" ~path:t.journal_path (fun () -> fd.Vfs.close ())
  | None -> ());
  t.jfd <- None;
  io ~op:"close" ~path:t.path (fun () -> t.fd.Vfs.close ())

(** Test/bench hook: abandon the pager the way a crashed process would —
    close the underlying files without flushing dirty pages, committing,
    or truncating the journal.  Whatever is on disk stays on disk; a
    subsequent {!open_file} runs crash recovery. *)
let crash t =
  (match t.jfd with Some fd -> (try fd.Vfs.close () with _ -> ()) | None -> ());
  t.jfd <- None;
  (try t.fd.Vfs.close () with _ -> ())

type stats = {
  s_reads : int;
  s_writes : int;
  s_hits : int;
  s_misses : int;
  s_pages : int;
  s_evictions : int;
  s_journal_bytes : int;
}

let stats t =
  {
    s_reads = t.reads;
    s_writes = t.writes;
    s_hits = t.hits;
    s_misses = t.misses;
    s_pages = t.page_count;
    s_evictions = t.evictions;
    s_journal_bytes = t.journal_bytes;
  }
