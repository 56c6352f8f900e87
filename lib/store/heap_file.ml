(* Byte positions address a contiguous record space laid over the data
   pages: position p lives at page (p / page_size), offset (p mod
   page_size). Each record is a 4-byte big-endian length followed by the
   payload. The write cursor persists implicitly: on reopen we scan
   forward from position 0 over valid length prefixes (cheap — it reads
   only the prefix of each record). *)

type t = {
  pager : Pager.t;
  mutable cursor : int;
  mutable payload : int;
  mutable last : int option; (* handle of the most recently written record *)
}

type handle = int

let corrupt msg = raise (Fx_util.Codec.Corrupt msg)

let page_of t pos = pos / Pager.page_size t.pager
let off_of t pos = pos mod Pager.page_size t.pager

let capacity t = Pager.n_pages t.pager * Pager.page_size t.pager

(* Copy the [len] bytes at byte position [pos] into [dst] at [at], one
   pool access per page and no intermediate copy. Callers bound-check
   the span first. *)
let blit_span t pos len dst at =
  let ps = Pager.page_size t.pager in
  let rec go pos at left =
    if left > 0 then begin
      let off = pos mod ps in
      let chunk = min left (ps - off) in
      Pager.read_with t.pager ~page:(pos / ps) (fun data -> Bytes.blit data off dst at chunk);
      go (pos + chunk) (at + chunk) (left - chunk)
    end
  in
  go pos at len

(* Announce a read of pages [first, last] as one sequential block scan:
   pull it in with large reads instead of page-sized misses. *)
let prefetch_span t first last =
  if last > first then Pager.prefetch t.pager ~page:first ~count:(last - first + 1)

(* Read [len] bytes starting at byte position [pos], crossing pages.
   The bound is written as [len > capacity - pos] so a hostile length
   from a mangled prefix cannot overflow [pos + len] to a negative and
   slip past the check. *)
let read_bytes t pos len =
  if len < 0 || pos < 0 || pos > capacity t || len > capacity t - pos then
    corrupt "Heap_file: out of range";
  if len > 0 then prefetch_span t (page_of t pos) (page_of t (pos + len - 1));
  let out = Bytes.create len in
  blit_span t pos len out 0;
  (* [out] is fresh and never written again. *)
  Bytes.unsafe_to_string out

let write_bytes t pos s =
  let len = String.length s in
  (* Grow the file as needed. *)
  while pos + len > capacity t do
    ignore (Pager.append_page t.pager)
  done;
  let rec go pos written =
    if written < len then begin
      let page = page_of t pos and off = off_of t pos in
      let chunk = min (len - written) (Pager.page_size t.pager - off) in
      Pager.write t.pager ~page ~offset:off (Bytes.of_string (String.sub s written chunk));
      go (pos + chunk) (written + chunk)
    end
  in
  go pos 0

let length_prefix n =
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.to_string b

let read_length t pos =
  let s = read_bytes t pos 4 in
  Int32.to_int (String.get_int32_be s 0)

(* Recover the write cursor by walking the record chain; a zero length
   (zeroed fresh pages) terminates. The walk is strictly sequential, so
   a sliding readahead window keeps it from paying one disk seek per
   length prefix on a cold pool. *)
let recover_window = 32

let recover t =
  let cap = capacity t in
  let prefetched = ref 0 in
  let rec go pos payload last =
    if pos + 4 > cap then (pos, payload, last)
    else begin
      let pg = page_of t pos in
      if pg >= !prefetched then begin
        Pager.prefetch t.pager ~page:pg ~count:recover_window;
        prefetched := pg + recover_window
      end;
      let len = read_length t pos in
      if len <= 0 || len > cap - pos - 4 then (pos, payload, last)
      else go (pos + 4 + len) (payload + len) (Some pos)
    end
  in
  let cursor, payload, last = go 0 0 None in
  t.cursor <- cursor;
  t.payload <- payload;
  t.last <- last

let create pager =
  let t = { pager; cursor = 0; payload = 0; last = None } in
  if Pager.n_pages pager > 0 then recover t;
  t

let append t s =
  if s = "" then invalid_arg "Heap_file.append: empty record";
  let handle = t.cursor in
  write_bytes t handle (length_prefix (String.length s));
  write_bytes t (handle + 4) s;
  t.cursor <- handle + 4 + String.length s;
  t.payload <- t.payload + String.length s;
  t.last <- Some handle;
  handle

let prefix_of data off = Int32.to_int (Bytes.get_int32_be data off)

let read t handle =
  if handle < 0 || handle > capacity t - 4 then corrupt "Heap_file.read: bad handle";
  let ps = Pager.page_size t.pager and off = off_of t handle in
  (* A record whose prefix and payload share a page costs one pool
     access; anything else falls back to a span read. *)
  let first =
    if off > ps - 4 then Error (read_length t handle)
    else
      Pager.read_with t.pager ~page:(page_of t handle) (fun data ->
          let len = prefix_of data off in
          if len > 0 && len <= ps - off - 4 then Ok (Bytes.sub_string data (off + 4) len)
          else Error len)
  in
  match first with
  | Ok record -> record
  | Error len ->
      if len <= 0 || len > capacity t - handle - 4 then
        corrupt "Heap_file.read: mangled length prefix";
      read_bytes t (handle + 4) len

(* Pages a scan reads per refill; larger records grow the buffer. *)
let scan_pages = 8

let scan t ~lo ~hi f =
  if lo < 0 || hi < lo || hi > capacity t then corrupt "Heap_file.scan: bad extent";
  let ps = Pager.page_size t.pager in
  (* [!buf] holds the bytes [!base, !base + !fill) of the record space. *)
  let buf = ref (Bytes.create (min (hi - lo) (scan_pages * ps))) in
  let base = ref lo and fill = ref 0 in
  (* Make [pos, pos + need) resident: keep the unconsumed tail
     [pos, base + fill), then top up as far as the buffer and the extent
     allow. Only a record larger than the buffer grows it. *)
  let ensure pos need =
    let have = !base + !fill - pos in
    if need > have then begin
      let dst = if need > Bytes.length !buf then Bytes.create need else !buf in
      Bytes.blit !buf (pos - !base) dst 0 have;
      let want = min (Bytes.length dst) (hi - pos) in
      prefetch_span t (page_of t (pos + have)) (page_of t (pos + want - 1));
      blit_span t (pos + have) (want - have) dst have;
      buf := dst;
      base := pos;
      fill := want
    end
  in
  let rec go pos =
    if pos < hi then begin
      if hi - pos < 4 then corrupt "Heap_file.scan: length prefix overruns the extent";
      ensure pos 4;
      let len = prefix_of !buf (pos - !base) in
      if len <= 0 || len > hi - pos - 4 then corrupt "Heap_file.scan: mangled length prefix";
      ensure pos (4 + len);
      f !buf (pos - !base + 4) len;
      go (pos + 4 + len)
    end
  in
  go lo

let size_bytes t = t.payload
let last_handle t = t.last
