(* Header page layout: magic "FXPG1\n" + page size as decimal + '\n',
   rest zero. Data pages follow, addressed from 0.

   Concurrency: the pool is striped. A page belongs to stripe
   [page mod n_stripes]; each stripe owns its own mutex, LRU segment,
   statistics counters, and a private file descriptor (a separate
   [Unix.openfile], NOT [Unix.dup] — dup'd descriptors share one file
   offset, which would let two stripes race each other's lseek+read
   pairs). No mutex is ever held across a [Unix] syscall: positioned
   I/O runs under a per-stripe condition-variable turn ([gate.busy]),
   and pages that are mid-I/O are latched in their slot
   ([loading]/[flushing]) so a miss fill or an eviction write-back for
   page A never blocks a pool hit on page B of the same stripe.
   Callers only ever receive fresh [Bytes] copies, never a pool slot;
   [read_with] lends a slot's bytes to a callback inside the stripe's
   critical section only, so no page memory is shared outside one. *)

let header_magic = "FXPG1\n"

(* [physical_reads] counts every page fetched from disk, prefetch
   fills included; [demand_misses] only the fetches a [read]/[write]
   had to wait for — so [logical_reads - demand_misses] is the pool
   hit count and can never go negative, no matter how speculative the
   readahead was. *)
type stats = {
  logical_reads : int;
  physical_reads : int;
  physical_writes : int;
  demand_misses : int;
}

type stripe_stats = {
  stripe_index : int;
  resident_pages : int;
  capacity_pages : int;
  stripe_logical_reads : int;
  stripe_physical_reads : int;
  stripe_physical_writes : int;
  lock_acquisitions : int;
  lock_contended : int;
}

(* [loading]: the slot was claimed on a pool miss and its bytes are
   still being read; everyone else parks on the stripe condition.
   [flushing]: an eviction or flush snapshotted the bytes and is
   writing them back; readers may still hit the slot (the bytes are
   valid), writers wait so the dirty/clean accounting stays exact. *)
type slot = {
  data : Bytes.t;
  mutable dirty : bool;
  mutable loading : bool;
  mutable flushing : bool;
}

(* A mutex/condvar pair with a [busy] turn flag. The mutex protects
   only in-memory state; [busy] serializes the owning resource (a
   stripe's fd, the file-extension path) across the I/O itself, which
   happens with the mutex released. The atomics feed the per-stripe
   contention metrics without needing any lock. *)
type gate = {
  glock : Mutex.t;
  gcond : Condition.t;
  mutable busy : bool;
  acquired : int Atomic.t;
  contended : int Atomic.t;
}

type stripe = {
  index : int;
  fd : Unix.file_descr;
  gate : gate; (* slot table, counters *)
  io : gate; (* busy = this stripe's fd is mid lseek+read/write *)
  pool : (int, slot) Fx_util.Lru.t;
  capacity : int;
  mutable logical_reads : int;
  mutable physical_reads : int;
  mutable physical_writes : int;
  mutable demand_misses : int;
}

type t = {
  main_fd : Unix.file_descr; (* header I/O and fsync only *)
  page_size : int;
  pool_pages : int;
  stripes : stripe array;
  alloc : gate; (* busy = a file extension is in flight *)
  n_pages : int Atomic.t;
  closed : bool Atomic.t;
}

let with_lock (g : gate) f =
  if not (Mutex.try_lock g.glock) then begin
    Atomic.incr g.contended;
    Mutex.lock g.glock
  end;
  Atomic.incr g.acquired;
  Fun.protect ~finally:(fun () -> Mutex.unlock g.glock) f

let make_gate () =
  {
    glock = Mutex.create ();
    gcond = Condition.create ();
    busy = false;
    acquired = Atomic.make 0;
    contended = Atomic.make 0;
  }

let acquire_turn (g : gate) =
  with_lock g (fun () ->
      while g.busy do
        Condition.wait g.gcond g.glock
      done;
      g.busy <- true)

let release_turn (g : gate) =
  with_lock g (fun () ->
      g.busy <- false;
      Condition.broadcast g.gcond)

let with_turn g f =
  acquire_turn g;
  Fun.protect ~finally:(fun () -> release_turn g) f

(* --- positioned I/O ---------------------------------------------------- *)

(* Never called with a mutex held: callers hold the relevant fd's I/O
   turn instead, which makes the lseek + read/write pair atomic with
   respect to the other users of that descriptor. EINTR is retried —
   a signal delivered to a worker domain mid-transfer must not abort
   the request (read/write return the partial count when bytes moved,
   so a retry after EINTR never re-reads or skips data). *)
let rec eintr_read fd buf pos len =
  try Unix.read fd buf pos len
  with Unix.Unix_error (Unix.EINTR, _, _) -> eintr_read fd buf pos len

let rec eintr_write fd buf pos len =
  try Unix.write fd buf pos len
  with Unix.Unix_error (Unix.EINTR, _, _) -> eintr_write fd buf pos len

let rec eintr_fsync fd =
  try Unix.fsync fd
  with Unix.Unix_error (Unix.EINTR, _, _) -> eintr_fsync fd

let really_pread fd buf off =
  let len = Bytes.length buf in
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  let rec go pos =
    if pos < len then begin
      let k = eintr_read fd buf pos (len - pos) in
      if k = 0 then invalid_arg "Pager: short read (truncated file)";
      go (pos + k)
    end
  in
  go 0

let really_pwrite fd buf off =
  let len = Bytes.length buf in
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  let rec go pos =
    if pos < len then begin
      let k = eintr_write fd buf pos (len - pos) in
      if k = 0 then invalid_arg "Pager: short write (device full?)";
      go (pos + k)
    end
  in
  go 0

(* --- stripe machinery -------------------------------------------------- *)

let check_open t = if Atomic.get t.closed then invalid_arg "Pager: already closed"
let file_offset t page = (page + 1) * t.page_size
let stripe_of t page = t.stripes.(page mod Array.length t.stripes)

let write_page t s page bytes =
  with_turn s.io (fun () -> really_pwrite s.fd bytes (file_offset t page))

(* Fill a freshly claimed [loading] slot from disk. Runs without the
   stripe gate; waiters park on the stripe condition until the slot
   goes ready. On failure the claim is withdrawn so a waiter retries
   the load itself. *)
let load_slot t s page slot =
  match with_turn s.io (fun () -> really_pread s.fd slot.data (file_offset t page)) with
  | () ->
      with_lock s.gate (fun () ->
          slot.loading <- false;
          s.physical_reads <- s.physical_reads + 1;
          s.demand_misses <- s.demand_misses + 1;
          Condition.broadcast s.gate.gcond)
  | exception e ->
      with_lock s.gate (fun () ->
          Fx_util.Lru.remove s.pool page;
          slot.loading <- false;
          Condition.broadcast s.gate.gcond);
      raise e

(* Run [f slot] under the stripe gate on the current, fully loaded slot
   for [page], claiming and loading it on a miss. [for_write] also
   waits out an in-flight write-back, so a writer can never mutate
   bytes the write-back already snapshotted and then see its update
   marked clean. Returns [f]'s result plus whether the stripe ended
   over capacity, so the hit path costs exactly one gate acquisition
   and eviction runs only when this access (or a concurrent one) has
   actually pushed the stripe over. *)
let rec with_page t s page ~for_write f =
  let action =
    with_lock s.gate (fun () ->
        match Fx_util.Lru.find s.pool page with
        | Some slot when slot.loading || (for_write && slot.flushing) ->
            Condition.wait s.gate.gcond s.gate.glock;
            `Retry
        | Some slot ->
            s.logical_reads <- s.logical_reads + 1;
            `Done (f slot, Fx_util.Lru.length s.pool > s.capacity)
        | None ->
            let slot =
              { data = Bytes.create t.page_size; dirty = false; loading = true; flushing = false }
            in
            Fx_util.Lru.set s.pool page slot;
            `Load slot)
  in
  match action with
  | `Done v -> v
  | `Retry -> with_page t s page ~for_write f
  | `Load slot ->
      load_slot t s page slot;
      with_page t s page ~for_write f

(* Trim [s] down to capacity. The victim's bytes are snapshotted and
   written back with the gate released; the slot stays resident and
   [flushing] until the write lands, so a concurrent fetch still hits
   it and never reads stale bytes off disk. A failed write-back leaves
   the page dirty and resident (the stripe stays over capacity until
   the next access retries) and raises out of the operation that
   triggered the eviction. A tail that is itself mid-I/O is left alone
   — bounded overshoot, trimmed by whichever operation finishes it. *)
let rec evict_excess t s =
  let action =
    with_lock s.gate (fun () ->
        if Fx_util.Lru.length s.pool <= s.capacity then `Done
        else
          match Fx_util.Lru.peek_lru s.pool with
          | None -> `Done
          | Some (page, slot) ->
              if slot.loading || slot.flushing then `Done
              else if not slot.dirty then begin
                Fx_util.Lru.remove s.pool page;
                `Again
              end
              else begin
                slot.flushing <- true;
                `Write_back (page, slot, Bytes.copy slot.data)
              end)
  in
  match action with
  | `Done -> ()
  | `Again -> evict_excess t s
  | `Write_back (page, slot, snapshot) -> (
      match write_page t s page snapshot with
      | () ->
          with_lock s.gate (fun () ->
              s.physical_writes <- s.physical_writes + 1;
              slot.dirty <- false;
              slot.flushing <- false;
              Fx_util.Lru.remove s.pool page;
              Condition.broadcast s.gate.gcond);
          evict_excess t s
      | exception e ->
          with_lock s.gate (fun () ->
              slot.flushing <- false;
              Condition.broadcast s.gate.gcond);
          raise e)

(* Write one dirty page back for {!flush}, latching it right before
   the write so concurrent writers are held per page, not for the
   whole flush. A slot already mid-I/O is waited out, not skipped:
   flush must not return before every pre-existing dirty page is on
   its way to the fsync. *)
let rec flush_one t s page =
  let action =
    with_lock s.gate (fun () ->
        match Fx_util.Lru.peek s.pool page with
        | Some slot when slot.loading || slot.flushing ->
            Condition.wait s.gate.gcond s.gate.glock;
            `Retry
        | Some slot when slot.dirty ->
            slot.flushing <- true;
            `Write_back (slot, Bytes.copy slot.data)
        | Some _ | None -> `Skip)
  in
  match action with
  | `Skip -> ()
  | `Retry -> flush_one t s page
  | `Write_back (slot, snapshot) -> (
      match write_page t s page snapshot with
      | () ->
          with_lock s.gate (fun () ->
              s.physical_writes <- s.physical_writes + 1;
              slot.dirty <- false;
              slot.flushing <- false;
              Condition.broadcast s.gate.gcond)
      | exception e ->
          with_lock s.gate (fun () ->
              slot.flushing <- false;
              Condition.broadcast s.gate.gcond);
          raise e)

(* Batched write-back: collect the dirty page numbers across all
   stripes, sort, and write in ascending file order — sequential I/O
   instead of the Hashtbl order an Lru.iter walk would produce — then
   one fsync on the main descriptor (fsync flushes the file, not the
   descriptor, so the stripe-fd writes are covered). *)
let flush_pages t =
  let dirty = ref [] in
  Array.iter
    (fun s ->
      with_lock s.gate (fun () ->
          Fx_util.Lru.iter s.pool (fun page slot ->
              if slot.dirty then dirty := page :: !dirty)))
    t.stripes;
  List.iter (fun page -> flush_one t (stripe_of t page) page) (List.sort Int.compare !dirty);
  eintr_fsync t.main_fd

(* --- lifecycle --------------------------------------------------------- *)

let create ?(pool_pages = 256) ?(page_size = 4096) ?(stripes = 8) path =
  if page_size < 64 then invalid_arg "Pager.create: page_size < 64";
  if pool_pages < 1 then invalid_arg "Pager.create: pool_pages < 1";
  if stripes < 1 || stripes > 64 then invalid_arg "Pager.create: stripes out of range";
  let main_fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  let opened = ref [ main_fd ] in
  let ok = ref false in
  (* Every open descriptor dies on any failure below — including the
     fresh-file header write hitting ENOSPC, which used to leak the fd. *)
  Fun.protect
    ~finally:(fun () ->
      if not !ok then
        List.iter
          (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
          !opened)
    (fun () ->
      let file_len = (Unix.fstat main_fd).Unix.st_size in
      let header_written =
        if file_len = 0 then begin
          (* Fresh file: write the header page (a real physical write —
             the store benches must not under-report I/O). *)
          let header = Bytes.make page_size '\000' in
          let tag = Printf.sprintf "%s%d\n" header_magic page_size in
          Bytes.blit_string tag 0 header 0 (String.length tag);
          really_pwrite main_fd header 0;
          true
        end
        else begin
          if file_len < page_size || file_len mod page_size <> 0 then
            invalid_arg "Pager.create: file size is not a multiple of the page size";
          let header = Bytes.create page_size in
          really_pread main_fd header 0;
          let m = String.length header_magic in
          if Bytes.sub_string header 0 m <> header_magic then
            invalid_arg "Pager.create: bad header magic";
          let rest = Bytes.sub_string header m (min 16 (page_size - m)) in
          let recorded =
            match String.index_opt rest '\n' with
            | Some i -> int_of_string_opt (String.sub rest 0 i)
            | None -> None
          in
          (match recorded with
          | Some ps when ps = page_size -> ()
          | Some ps ->
              invalid_arg
                (Printf.sprintf "Pager.create: file has page size %d, expected %d" ps
                   page_size)
          | None -> invalid_arg "Pager.create: corrupt header");
          false
        end
      in
      let capacity = max 1 (pool_pages / stripes) in
      let stripe_arr =
        Array.init stripes (fun i ->
            (* A private descriptor per stripe: separate open file
               descriptions mean independent file offsets, so stripes
               never race each other's lseek+read pairs. *)
            let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
            opened := fd :: !opened;
            {
              index = i;
              fd;
              gate = make_gate ();
              io = make_gate ();
              pool = Fx_util.Lru.create ~capacity ();
              capacity;
              logical_reads = 0;
              physical_reads = 0;
              physical_writes = 0;
              demand_misses = 0;
            })
      in
      if header_written then stripe_arr.(0).physical_writes <- 1;
      ok := true;
      {
        main_fd;
        page_size;
        pool_pages;
        stripes = stripe_arr;
        alloc = make_gate ();
        n_pages = Atomic.make (if file_len = 0 then 0 else (file_len / page_size) - 1);
        closed = Atomic.make false;
      })

(* --- public API -------------------------------------------------------- *)

let page_size t = t.page_size
let pool_pages t = t.pool_pages
let n_pages t = Atomic.get t.n_pages
let n_stripes t = Array.length t.stripes

let check_page t page =
  if page < 0 || page >= Atomic.get t.n_pages then invalid_arg "Pager: page out of range"

let append_page t =
  check_open t;
  (* One extension at a time; the zero write goes through the page's
     stripe descriptor, and [n_pages] is published only after the file
     is extended, so a raise (ENOSPC) leaves the count consistent and a
     concurrent reader can never hit a short read. *)
  with_turn t.alloc (fun () ->
      let page = Atomic.get t.n_pages in
      let s = stripe_of t page in
      let data = Bytes.make t.page_size '\000' in
      write_page t s page data;
      let over =
        with_lock s.gate (fun () ->
            s.physical_writes <- s.physical_writes + 1;
            Fx_util.Lru.set s.pool page { data; dirty = false; loading = false; flushing = false };
            Fx_util.Lru.length s.pool > s.capacity)
      in
      Atomic.incr t.n_pages;
      if over then evict_excess t s;
      page)

let read_with t ~page f =
  check_open t;
  check_page t page;
  let s = stripe_of t page in
  let v, over = with_page t s page ~for_write:false (fun slot -> f slot.data) in
  if over then evict_excess t s;
  v

let read t ~page ~offset ~len =
  check_open t;
  if offset < 0 || len < 0 || offset > t.page_size || len > t.page_size - offset then
    invalid_arg "Pager.read: out of page bounds";
  read_with t ~page (fun data -> Bytes.sub data offset len)

let write t ~page ~offset buf =
  check_open t;
  let len = Bytes.length buf in
  if offset < 0 || offset >= t.page_size || len > t.page_size - offset then
    invalid_arg "Pager.write: out of page bounds";
  check_page t page;
  let s = stripe_of t page in
  let (), over =
    with_page t s page ~for_write:true (fun slot ->
        Bytes.blit buf 0 slot.data offset len;
        slot.dirty <- true)
  in
  if over then evict_excess t s

let prefetch_chunk = 64

let prefetch t ~page ~count =
  check_open t;
  (* Readahead for sequential scans: claim loading slots for the
     not-yet-resident pages of the range — but only into free pool
     room, never evicting pages someone is actually using for the sake
     of speculative ones — then fill each chunk with one large
     contiguous read instead of one lseek+read per page. Advisory:
     the range is clamped and a full pool makes this a no-op. *)
  let n = Atomic.get t.n_pages in
  let lo = max 0 page in
  if count > 0 && lo < n then begin
    let hi = if count >= n - lo then n else lo + count in
    let pos = ref lo in
    while !pos < hi do
      let stop = min hi (!pos + prefetch_chunk) in
      let claimed = ref [] in
      for p = stop - 1 downto !pos do
        let s = stripe_of t p in
        let got =
          with_lock s.gate (fun () ->
              if Fx_util.Lru.length s.pool >= s.capacity || Fx_util.Lru.mem s.pool p then
                None
              else begin
                let slot =
                  { data = Bytes.create t.page_size; dirty = false; loading = true;
                    flushing = false }
                in
                Fx_util.Lru.set s.pool p slot;
                Some slot
              end)
        in
        match got with Some slot -> claimed := (p, slot) :: !claimed | None -> ()
      done;
      (match !claimed with
      | [] -> ()
      | (first, _) :: _ -> (
          let last = List.fold_left (fun _ (p, _) -> p) first !claimed in
          let buf = Bytes.create ((last - first + 1) * t.page_size) in
          let s0 = stripe_of t first in
          match with_turn s0.io (fun () -> really_pread s0.fd buf (file_offset t first)) with
          | () ->
              List.iter
                (fun (p, slot) ->
                  Bytes.blit buf ((p - first) * t.page_size) slot.data 0 t.page_size;
                  let s = stripe_of t p in
                  with_lock s.gate (fun () ->
                      slot.loading <- false;
                      s.physical_reads <- s.physical_reads + 1;
                      Condition.broadcast s.gate.gcond))
                !claimed
          | exception e ->
              List.iter
                (fun (p, slot) ->
                  let s = stripe_of t p in
                  with_lock s.gate (fun () ->
                      Fx_util.Lru.remove s.pool p;
                      slot.loading <- false;
                      Condition.broadcast s.gate.gcond))
                !claimed;
              raise e));
      pos := stop
    done
  end

let flush t =
  check_open t;
  flush_pages t

let close t =
  if not (Atomic.get t.closed) then begin
    (* If the final flush fails the pager stays open (and reportable)
       so the caller can retry once the condition clears. *)
    flush_pages t;
    if Atomic.compare_and_set t.closed false true then begin
      Unix.close t.main_fd;
      Array.iter (fun s -> Unix.close s.fd) t.stripes
    end
  end

let stats t =
  let logical = ref 0 and physical_r = ref 0 and physical_w = ref 0 and misses = ref 0 in
  Array.iter
    (fun s ->
      with_lock s.gate (fun () ->
          logical := !logical + s.logical_reads;
          physical_r := !physical_r + s.physical_reads;
          physical_w := !physical_w + s.physical_writes;
          misses := !misses + s.demand_misses))
    t.stripes;
  {
    logical_reads = !logical;
    physical_reads = !physical_r;
    physical_writes = !physical_w;
    demand_misses = !misses;
  }

let reset_stats t =
  Array.iter
    (fun s ->
      with_lock s.gate (fun () ->
          s.logical_reads <- 0;
          s.physical_reads <- 0;
          s.physical_writes <- 0;
          s.demand_misses <- 0);
      Atomic.set s.gate.acquired 0;
      Atomic.set s.gate.contended 0;
      Atomic.set s.io.acquired 0;
      Atomic.set s.io.contended 0)
    t.stripes

let stripe_stats t =
  Array.to_list
    (Array.map
       (fun s ->
         with_lock s.gate (fun () ->
             {
               stripe_index = s.index;
               resident_pages = Fx_util.Lru.length s.pool;
               capacity_pages = s.capacity;
               stripe_logical_reads = s.logical_reads;
               stripe_physical_reads = s.physical_reads;
               stripe_physical_writes = s.physical_writes;
               lock_acquisitions = Atomic.get s.gate.acquired + Atomic.get s.io.acquired;
               lock_contended = Atomic.get s.gate.contended + Atomic.get s.io.contended;
             }))
       t.stripes)

let drop_pool t =
  check_open t;
  flush_pages t;
  Array.iter (fun s -> with_lock s.gate (fun () -> Fx_util.Lru.clear s.pool)) t.stripes

let unsafe_fd t = t.main_fd
let unsafe_page_fd t ~page = (stripe_of t page).fd
