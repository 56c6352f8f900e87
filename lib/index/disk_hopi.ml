module Pager = Fx_store.Pager
module Heap = Fx_store.Heap_file
module Codec = Fx_util.Codec

(* [<path>.labels] holds the label runs ({!Disk_labels.save_runs}, one
   group per tag); [<path>.tags] is a heap file whose last record is the
   tag directory, read once at open:
     "fxtag2", n, n_tags, then per tag: its node count, its nodes as
     gaps (first node, then each next minus previous minus one), its
     in-run extent (lo, hi - lo) and its out-run extent likewise. *)
type t = {
  labels : Disk_labels.t;
  tag_pager : Pager.t;
  nodes : int array array; (* per tag id: its nodes, ascending *)
  in_runs : Disk_labels.run array;
  out_runs : Disk_labels.run array;
  n : int;
}

let dir_magic = "fxtag2"

let labels_path path = path ^ ".labels"
let tags_path path = path ^ ".tags"

let save ?page_size ~path (dg : Path_index.data_graph) hopi =
  let n_tags = Array.fold_left (fun m tag -> max m (tag + 1)) 0 dg.tag in
  let members = Array.make n_tags [] in
  for v = Array.length dg.tag - 1 downto 0 do
    let tag = dg.tag.(v) in
    if tag < 0 then invalid_arg "Disk_hopi.save: negative tag id";
    members.(tag) <- v :: members.(tag)
  done;
  let groups = Array.map Array.of_list members in
  let runs =
    Disk_labels.save_runs ?page_size ~path:(labels_path path) ~groups (Hopi.labels hopi)
  in
  let w = Codec.Writer.create ~magic:dir_magic in
  Codec.Writer.int w (Array.length dg.tag);
  Codec.Writer.int w n_tags;
  Array.iteri
    (fun tag nodes ->
      Codec.Writer.int w (Array.length nodes);
      Array.iteri
        (fun i v -> Codec.Writer.int w (if i = 0 then v else v - nodes.(i - 1) - 1))
        nodes;
      let (i : Disk_labels.run), (o : Disk_labels.run) = runs.(tag) in
      List.iter (Codec.Writer.int w) [ i.lo; i.hi - i.lo; o.lo; o.hi - o.lo ])
    groups;
  let tp = tags_path path in
  if Sys.file_exists tp then Sys.remove tp;
  let pager = Pager.create ?page_size tp in
  ignore (Heap.append (Heap.create pager) (Codec.Writer.contents w));
  Pager.close pager

let corrupt msg = raise (Codec.Corrupt ("Disk_hopi: " ^ msg))

let read_directory pager ~path ~n =
  let heap = Heap.create pager in
  let layout_error () =
    corrupt
      (Printf.sprintf
         "%s is not a tag directory in the tag-clustered run layout (no %s record): \
          mangled, or a B-tree directory of the older node-ordered layout; rebuild the store"
         (tags_path path) dir_magic)
  in
  let r =
    match Heap.last_handle heap with
    | None -> layout_error ()
    | Some h -> (
        match Codec.Reader.create ~magic:dir_magic (Heap.read heap h) with
        | r -> r
        | exception Codec.Corrupt _ -> layout_error ())
  in
  let count what bound =
    let k = Codec.Reader.int r in
    if k < 0 || k > bound then corrupt ("implausible " ^ what);
    k
  in
  if Codec.Reader.int r <> n then corrupt "tag directory and labels disagree on the node count";
  let n_tags = count "tag count" (Codec.Reader.remaining r) in
  let seen = Array.make n false in
  let run () =
    let lo = count "run offset" max_int in
    { Disk_labels.lo; hi = lo + count "run length" (max_int - lo) }
  in
  let in_runs = Array.make n_tags { Disk_labels.lo = 0; hi = 0 } in
  let out_runs = Array.copy in_runs in
  let nodes =
    Array.init n_tags (fun tag ->
        let prev = ref (-1) in
        let nodes =
          Array.init (count "tag size" n) (fun _ ->
              let v = !prev + 1 + count "node gap" n in
              if v >= n || seen.(v) then corrupt "tag directory does not partition the nodes";
              seen.(v) <- true;
              prev := v;
              v)
        in
        in_runs.(tag) <- run ();
        out_runs.(tag) <- run ();
        nodes)
  in
  Codec.Reader.expect_end r;
  if not (Array.for_all Fun.id seen) then corrupt "tag directory misses nodes";
  (nodes, in_runs, out_runs)

let open_ ?pool_pages ?page_size ?stripes ~path () =
  let labels = Disk_labels.open_ ?pool_pages ?page_size ?stripes (labels_path path) in
  let n = Disk_labels.n_nodes labels in
  match Pager.create ?pool_pages ?page_size ?stripes (tags_path path) with
  | exception e ->
      Disk_labels.close labels;
      raise e
  | tag_pager -> (
      match read_directory tag_pager ~path ~n with
      | nodes, in_runs, out_runs ->
          (* Read once: nothing on the tag file is touched again. *)
          Pager.drop_pool tag_pager;
          { labels; tag_pager; nodes; in_runs; out_runs; n }
      | exception e ->
          Disk_labels.close labels;
          Pager.close tag_pager;
          raise e)

let n_nodes t = t.n
let distance t x y = Disk_labels.distance t.labels x y
let reachable t x y = distance t x y <> None

let known_tag t tag = tag >= 0 && tag < Array.length t.nodes
let nodes_by_tag t tag = if known_tag t tag then Array.to_list t.nodes.(tag) else []

exception Cut of (int * int) list
exception Stopped

(* Before every 64th record scored, ask [stop] whether to give up. *)
let poller = function
  | None -> ignore
  | Some stop ->
      let scored = ref 0 in
      fun () ->
        if !scored land 63 = 0 && stop () then raise_notrace Stopped;
        incr scored

(* Run [scan hit] and return what it [hit], distance-sorted; a cut
   raises [Cut] with the hits found so far. *)
let collect scan =
  let acc = ref [] in
  match scan (fun v d -> acc := (v, d) :: !acc) with
  | () -> Path_index.sort_results !acc
  | exception Stopped -> raise (Cut (Path_index.sort_results !acc))

(* Stream the runs of tag [want] (every tag for [None]) from one side,
   polling before each record. *)
let scan_runs ~poll t runs want f =
  let scan tag =
    Disk_labels.scan t.labels runs.(tag) t.nodes.(tag) (fun v c ->
        poll ();
        f v c)
  in
  match want with
  | Some w -> if known_tag t w then scan w
  | None -> Array.iteri (fun tag _ -> scan tag) t.nodes

(* The query node's own label [own x] is fetched once; the opposite
   labels of the candidates are joined in place as their runs stream
   past. *)
let run_join ?stop t x want ~own ~runs =
  let lx = own t.labels x in
  collect (fun hit ->
      scan_runs ~poll:(poller stop) t runs want (fun v c ->
          if v = x then hit v 0
          else match Disk_labels.join_cursor lx c with Some d -> hit v d | None -> ()))

let descendants_by_tag ?stop t x want =
  run_join ?stop t x want ~own:Disk_labels.out_label ~runs:t.in_runs

let ancestors_by_tag ?stop t x want =
  run_join ?stop t x want ~own:Disk_labels.in_label ~runs:t.out_runs

(* A bitset is no tag run: probe each member's label by handle. *)
let restricted t x set ~own ~other =
  let lx = own t.labels x in
  collect (fun hit ->
      Fx_graph.Bitset.iter set (fun v ->
          if v = x then hit v 0
          else match Disk_labels.join lx (other t.labels v) with Some d -> hit v d | None -> ()))

let restricted_descendants t x set =
  restricted t x set ~own:Disk_labels.out_label ~other:Disk_labels.in_label

let restricted_ancestors t x set =
  restricted t x set ~own:Disk_labels.in_label ~other:Disk_labels.out_label

(* Per hub: the shortest distance any start reaches it at, the start
   that does, and the shortest distance from any other start. *)
type hub = { mutable best : int; mutable via : int; mutable other : int }

module Hubs = Hashtbl.Make (Int)

(* Set-at-a-time EVALUATE, HOPI's LIN/LOUT join on the hub column:
   dist(S, v) = min over hubs h of (min over s in S of d_out(s, h))
   + d_in(h, v). Fold every start's L_out into one hub table (it grows
   with the start labels, not the node count), then score each target's
   L_in against it as the target tag's in-run streams past — |S| label
   fetches plus one run scan, instead of 2·|S|·|T| fetches. A
   target [v] that is itself a start must not count its own distance-0
   hub entry, so a hub reached best from [v] scores with [other]. *)
let evaluate ?stop t ~starts ~target =
  let poll = poller stop in
  let hubs = Hubs.create 256 in
  let fold s =
    poll ();
    Array.iter
      (fun (h, d) ->
        match Hubs.find_opt hubs h with
        | None -> Hubs.add hubs h { best = d; via = s; other = max_int }
        | Some e ->
            if d < e.best then begin
              e.other <- e.best;
              e.best <- d;
              e.via <- s
            end
            else if s <> e.via && d < e.other then e.other <- d)
      (Disk_labels.out_label t.labels s)
  in
  (match List.iter fold starts with () -> () | exception Stopped -> raise (Cut []));
  if Hubs.length hubs = 0 then []
  else
    collect (fun hit ->
        scan_runs ~poll t t.in_runs (Some target) (fun v c ->
            let best = ref max_int in
            Disk_labels.iter_cursor c (fun h d ->
                match Hubs.find_opt hubs h with
                | None -> ()
                | Some e ->
                    let from = if e.via = v then e.other else e.best in
                    if from < max_int && from + d < !best then best := from + d);
            if !best < max_int then hit v !best))

(* A disk deployment as a pluggable Path Indexing Strategy: FliX's
   Index Builder can host meta documents whose indexes never load into
   memory, composing them with in-memory ones through the same PEE. *)
let instance ?pool_pages ?page_size ~path dg hopi =
  let (), build_ns = Fx_util.Stopwatch.time_ns (fun () -> save ?page_size ~path dg hopi) in
  let t = open_ ?pool_pages ?page_size ~path () in
  let size_bytes =
    let file p = try (Unix.stat p).Unix.st_size with Unix.Unix_error _ -> 0 in
    file (labels_path path) + file (tags_path path)
  in
  {
    Path_index.name = "HOPI-disk";
    n_nodes = t.n;
    reachable = reachable t;
    distance = distance t;
    descendants_by_tag = descendants_by_tag t;
    ancestors_by_tag = ancestors_by_tag t;
    restricted_descendants = restricted_descendants t;
    restricted_ancestors = restricted_ancestors t;
    stats =
      { strategy = "HOPI-disk"; build_ns; entries = Two_hop.entries (Hopi.labels hopi);
        size_bytes };
  }

let stats t = (Disk_labels.stats t.labels, Pager.stats t.tag_pager)

let stripe_stats t = (Disk_labels.stripe_stats t.labels, Pager.stripe_stats t.tag_pager)

let drop_pools t =
  Disk_labels.drop_pool t.labels;
  Pager.drop_pool t.tag_pager

let close t =
  Disk_labels.close t.labels;
  Pager.close t.tag_pager
