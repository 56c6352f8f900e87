module Pager = Fx_store.Pager
module Heap = Fx_store.Heap_file
module Codec = Fx_util.Codec

(* File layout (records in one heap file):
     [in-runs]                per group, in order: L_in of each of its
                              nodes, in group order (empty labels too)
     [out-runs]               the same for L_out
     [directory record]       n, then per node: in handle, out handle
     [trailer record]         "fxrun" + directory handle
   The trailer is always the last record, so reopen finds the directory
   without any side file. Its magic names the layout: stores written
   before labels were clustered into runs end in an "fxend" trailer
   over node-ordered records, and are refused. *)

type t = {
  pager : Pager.t;
  heap : Heap.t;
  n : int;
  in_handle : int array;
  out_handle : int array;
}

type label = (int * int) array
type run = { lo : int; hi : int }

let label_magic = "fxlab"
let dir_magic = "fxdir"
let trailer_magic = "fxrun"

let encode_label entries =
  let w = Codec.Writer.create ~magic:label_magic in
  Codec.Writer.int w (Array.length entries);
  Array.iter
    (fun (hop, dist) ->
      Codec.Writer.int w hop;
      Codec.Writer.int w dist)
    entries;
  Codec.Writer.contents w

(* A label record's entry count, checked against the bytes left: every
   entry takes at least two. *)
let entry_count r =
  let len = Codec.Reader.int r in
  if len < 0 || len > Codec.Reader.remaining r / 2 then
    raise (Codec.Corrupt "implausible label length");
  len

let decode_label data =
  let r = Codec.Reader.create ~magic:label_magic data in
  let len = entry_count r in
  let entries = Array.init len (fun _ ->
      let hop = Codec.Reader.int r in
      let dist = Codec.Reader.int r in
      (hop, dist))
  in
  Codec.Reader.expect_end r;
  entries

let partition_error () = invalid_arg "Disk_labels.save_runs: groups must partition the nodes"

let save_runs ?page_size ~path ~groups labels =
  let n = Two_hop.n_nodes labels in
  let seen = Array.make n false in
  Array.iter
    (Array.iter (fun v ->
         if v < 0 || v >= n || seen.(v) then partition_error ();
         seen.(v) <- true))
    groups;
  if not (Array.for_all Fun.id seen) then partition_error ();
  if Sys.file_exists path then Sys.remove path;
  let pager = Pager.create ?page_size path in
  let heap = Heap.create pager in
  (* A fresh heap lays records end to end from byte 0. *)
  let cursor = ref 0 in
  let store side =
    let handles = Array.make n (-1) in
    let runs =
      Array.map
        (fun nodes ->
          let lo = !cursor in
          Array.iter
            (fun v ->
              let record = encode_label (side labels v) in
              handles.(v) <- Heap.append heap record;
              cursor := handles.(v) + 4 + String.length record)
            nodes;
          { lo; hi = !cursor })
        groups
    in
    (handles, runs)
  in
  let in_handle, in_runs = store Two_hop.raw_in_label in
  let out_handle, out_runs = store Two_hop.raw_out_label in
  let w = Codec.Writer.create ~magic:dir_magic in
  Codec.Writer.int w n;
  Codec.Writer.int_array w in_handle;
  Codec.Writer.int_array w out_handle;
  let dir = Heap.append heap (Codec.Writer.contents w) in
  let tw = Codec.Writer.create ~magic:trailer_magic in
  Codec.Writer.int tw dir;
  ignore (Heap.append heap (Codec.Writer.contents tw));
  Pager.close pager;
  Array.map2 (fun i o -> (i, o)) in_runs out_runs

let save ?page_size ~path labels =
  let groups = [| Array.init (Two_hop.n_nodes labels) Fun.id |] in
  ignore (save_runs ?page_size ~path ~groups labels)

let layout_error path =
  raise
    (Codec.Corrupt
       (Printf.sprintf
          "Disk_labels: %s is not a label store in the tag-clustered run layout (no %s \
           trailer): mangled, or written in the older node-ordered layout; rebuild it"
          path trailer_magic))

let read_directory heap path =
  match Heap.last_handle heap with
  | None -> raise (Codec.Corrupt "Disk_labels: empty store")
  | Some trailer ->
      let tr =
        match Codec.Reader.create ~magic:trailer_magic (Heap.read heap trailer) with
        | r -> r
        | exception Codec.Corrupt _ -> layout_error path
      in
      let dir_handle = Codec.Reader.int tr in
      Codec.Reader.expect_end tr;
      let dr = Codec.Reader.create ~magic:dir_magic (Heap.read heap dir_handle) in
      let n = Codec.Reader.int dr in
      if n < 0 then raise (Codec.Corrupt "Disk_labels: negative node count");
      let in_handle = Codec.Reader.int_array dr in
      let out_handle = Codec.Reader.int_array dr in
      Codec.Reader.expect_end dr;
      if Array.length in_handle <> n || Array.length out_handle <> n then
        raise (Codec.Corrupt "Disk_labels: directory length mismatch");
      (n, in_handle, out_handle)

let open_ ?pool_pages ?page_size ?stripes path =
  let pager = Pager.create ?pool_pages ?page_size ?stripes path in
  match
    let heap = Heap.create pager in
    (heap, read_directory heap path)
  with
  | heap, (n, in_handle, out_handle) -> { pager; heap; n; in_handle; out_handle }
  | exception e ->
      Pager.close pager;
      raise e

let n_nodes t = t.n

let check_node t v =
  if v < 0 || v >= t.n then invalid_arg "Disk_labels: node out of range"

let fetch t handles v =
  check_node t v;
  decode_label (Heap.read t.heap handles.(v))

let out_label t v = fetch t t.out_handle v
let in_label t v = fetch t t.in_handle v

(* Merge-join on hop ranks, as in the in-memory index. *)
let join ox iy =
  let best = ref max_int in
  let i = ref 0 and j = ref 0 in
  while !i < Array.length ox && !j < Array.length iy do
    let hi, di = ox.(!i) and hj, dj = iy.(!j) in
    if hi = hj then begin
      if di + dj < !best then best := di + dj;
      incr i;
      incr j
    end
    else if hi < hj then incr i
    else incr j
  done;
  if !best = max_int then None else Some !best

let distance t x y =
  check_node t x;
  check_node t y;
  if x = y then Some 0 else join (out_label t x) (in_label t y)

let reachable t x y = distance t x y <> None

(* An in-place view of one label record inside a run scan: the reader
   sits at the next entry, [left] entries remain. *)
type cursor = { r : Codec.Reader.t; mutable left : int }

(* Entries are read hop first, then distance. *)
let hop c =
  c.left <- c.left - 1;
  Codec.Reader.int c.r

let dist c = Codec.Reader.int c.r

let scan t run nodes f =
  let i = ref 0 in
  Heap.scan t.heap ~lo:run.lo ~hi:run.hi (fun buf pos len ->
      if !i >= Array.length nodes then
        raise (Codec.Corrupt "Disk_labels: run longer than its node list");
      let r = Codec.Reader.sub ~magic:label_magic buf ~pos ~len in
      let c = { r; left = entry_count r } in
      f nodes.(!i) c;
      (* Whatever [f] skipped is still decoded and checked. *)
      while c.left > 0 do
        ignore (hop c);
        ignore (dist c)
      done;
      Codec.Reader.expect_end r;
      incr i);
  if !i <> Array.length nodes then
    raise (Codec.Corrupt "Disk_labels: run shorter than its node list")

let join_cursor ox c =
  let best = ref max_int and i = ref 0 in
  let n = Array.length ox in
  (* Past the last hop of [ox] nothing can match; [scan] drains the rest. *)
  while c.left > 0 && !i < n do
    let h = hop c in
    let d = dist c in
    while !i < n && fst ox.(!i) < h do
      incr i
    done;
    if !i < n && fst ox.(!i) = h && snd ox.(!i) + d < !best then best := snd ox.(!i) + d
  done;
  if !best = max_int then None else Some !best

let iter_cursor c f =
  while c.left > 0 do
    let h = hop c in
    f h (dist c)
  done

let stats t = Pager.stats t.pager
let stripe_stats t = Pager.stripe_stats t.pager
let reset_stats t = Pager.reset_stats t.pager
let drop_pool t = Pager.drop_pool t.pager
let close t = Pager.close t.pager
