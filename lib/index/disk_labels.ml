module Pager = Fx_store.Pager
module Heap = Fx_store.Heap_file
module Codec = Fx_util.Codec

(* File layout (records in one heap file):
     [label record]*          one per non-empty L_in / L_out
     [directory record]       n, then per node: in handle, out handle
                              (-1 = empty label)
     [trailer record]         "DIR" + directory handle
   The trailer is always the last record, so reopen finds the directory
   without any side file. *)

type t = {
  pager : Pager.t;
  heap : Heap.t;
  n : int;
  in_handle : int array;  (* -1 = empty label *)
  out_handle : int array;
}

type label = (int * int) array

let label_magic = "fxlab"
let dir_magic = "fxdir"
let trailer_magic = "fxend"

let encode_label entries =
  let w = Codec.Writer.create ~magic:label_magic in
  Codec.Writer.int w (Array.length entries);
  Array.iter
    (fun (hop, dist) ->
      Codec.Writer.int w hop;
      Codec.Writer.int w dist)
    entries;
  Codec.Writer.contents w

let decode_label data =
  let r = Codec.Reader.create ~magic:label_magic data in
  let len = Codec.Reader.int r in
  if len < 0 then raise (Codec.Corrupt "negative label length");
  let entries = Array.init len (fun _ ->
      let hop = Codec.Reader.int r in
      let dist = Codec.Reader.int r in
      (hop, dist))
  in
  Codec.Reader.expect_end r;
  entries

let save ?page_size ~path labels =
  if Sys.file_exists path then Sys.remove path;
  let pager = Pager.create ?page_size path in
  let heap = Heap.create pager in
  let n = Two_hop.n_nodes labels in
  let store side =
    Array.init n (fun v ->
        let entries = side v in
        if Array.length entries = 0 then -1 else Heap.append heap (encode_label entries))
  in
  let in_handle = store (Two_hop.raw_in_label labels) in
  let out_handle = store (Two_hop.raw_out_label labels) in
  let w = Codec.Writer.create ~magic:dir_magic in
  Codec.Writer.int w n;
  Codec.Writer.int_array w in_handle;
  Codec.Writer.int_array w out_handle;
  let dir = Heap.append heap (Codec.Writer.contents w) in
  let tw = Codec.Writer.create ~magic:trailer_magic in
  Codec.Writer.int tw dir;
  ignore (Heap.append heap (Codec.Writer.contents tw));
  Pager.close pager

let open_ ?pool_pages ?page_size ?stripes path =
  let pager = Pager.create ?pool_pages ?page_size ?stripes path in
  let heap = Heap.create pager in
  match Heap.last_handle heap with
  | None -> raise (Codec.Corrupt "Disk_labels: empty store")
  | Some trailer ->
      let tr = Codec.Reader.create ~magic:trailer_magic (Heap.read heap trailer) in
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
      { pager; heap; n; in_handle; out_handle }

let n_nodes t = t.n

let check_node t v =
  if v < 0 || v >= t.n then invalid_arg "Disk_labels: node out of range"

let fetch t handles v =
  check_node t v;
  if handles.(v) = -1 then [||] else decode_label (Heap.read t.heap handles.(v))

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

(* Full-sweep readahead: a caller about to probe every node walks the
   label records in handle order, which is file order — pull the whole
   file through the pool's free room with large sequential reads. *)
let prefetch_all t = Pager.prefetch t.pager ~page:0 ~count:(Pager.n_pages t.pager)

let stats t = Pager.stats t.pager
let stripe_stats t = Pager.stripe_stats t.pager
let reset_stats t = Pager.reset_stats t.pager
let drop_pool t = Pager.drop_pool t.pager
let close t = Pager.close t.pager
