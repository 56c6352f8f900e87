module Pager = Fx_store.Pager
module Btree = Fx_store.Btree

type t = {
  labels : Disk_labels.t;
  tag_pager : Pager.t;
  tags : Btree.t;
  n : int;
}

let shift = 32
let tag_key ~tag ~node = (tag lsl shift) lor node

let labels_path path = path ^ ".labels"
let tags_path path = path ^ ".tags"

let save ?page_size ~path (dg : Path_index.data_graph) hopi =
  Disk_labels.save ?page_size ~path:(labels_path path) (Hopi.labels hopi);
  let tp = tags_path path in
  if Sys.file_exists tp then Sys.remove tp;
  let pager = Pager.create ?page_size tp in
  let tree = Btree.create pager in
  Array.iteri
    (fun node tag -> Btree.insert tree ~key:(tag_key ~tag ~node) ~value:node)
    dg.tag;
  Pager.close pager

let open_ ?pool_pages ?page_size ?stripes ~path () =
  let labels = Disk_labels.open_ ?pool_pages ?page_size ?stripes (labels_path path) in
  let tag_pager = Pager.create ?pool_pages ?page_size ?stripes (tags_path path) in
  let tags = Btree.create tag_pager in
  { labels; tag_pager; tags; n = Disk_labels.n_nodes labels }

let n_nodes t = t.n
let distance t x y = Disk_labels.distance t.labels x y
let reachable t x y = distance t x y <> None

let nodes_by_tag t tag =
  if tag < 0 then []
  else begin
    let acc = ref [] in
    Btree.iter_range t.tags ~lo:(tag_key ~tag ~node:0)
      ~hi:(tag_key ~tag ~node:((1 lsl shift) - 1))
      (fun _ node -> acc := node :: !acc);
    List.rev !acc
  end

exception Cut of (int * int) list
exception Stopped

(* Before every 64th label fetch, ask [stop] whether to give up. *)
let poller = function
  | None -> ignore
  | Some stop ->
      let fetches = ref 0 in
      fun () ->
        if !fetches land 63 = 0 && stop () then raise_notrace Stopped;
        incr fetches

(* Score every candidate [iter] yields with [probe] (None: unreachable),
   distance-sorted; a cut raises [Cut] with the hits found so far. *)
let collect ~poll iter probe =
  let acc = ref [] in
  match
    iter (fun v ->
        poll ();
        match probe v with Some d -> acc := (v, d) :: !acc | None -> ())
  with
  | () -> Path_index.sort_results !acc
  | exception Stopped -> raise (Cut (Path_index.sort_results !acc))

let candidates t want f =
  match want with
  | Some w -> List.iter f (nodes_by_tag t w)
  | None ->
      (* Wildcard sweep: every label record gets touched in handle
         (file) order — announce the scan so the pool fills with large
         sequential reads instead of per-probe misses. *)
      Disk_labels.prefetch_all t.labels;
      for v = 0 to t.n - 1 do
        f v
      done

(* Label-once probing: the query node's own label is fetched a single
   time and joined against each candidate's opposite label. *)
let descendants_within ?stop t x iter =
  let ox = Disk_labels.out_label t.labels x in
  collect ~poll:(poller stop) iter (fun v ->
      if v = x then Some 0 else Disk_labels.join ox (Disk_labels.in_label t.labels v))

let ancestors_within ?stop t x iter =
  let ix = Disk_labels.in_label t.labels x in
  collect ~poll:(poller stop) iter (fun v ->
      if v = x then Some 0 else Disk_labels.join (Disk_labels.out_label t.labels v) ix)

let descendants_by_tag ?stop t x want = descendants_within ?stop t x (candidates t want)
let ancestors_by_tag ?stop t x want = ancestors_within ?stop t x (candidates t want)
let restricted_descendants t x set = descendants_within t x (Fx_graph.Bitset.iter set)
let restricted_ancestors t x set = ancestors_within t x (Fx_graph.Bitset.iter set)

(* Per hub: the shortest distance any start reaches it at, the start
   that does, and the shortest distance from any other start. *)
type hub = { mutable best : int; mutable via : int; mutable other : int }

module Hubs = Hashtbl.Make (Int)

(* Set-at-a-time EVALUATE, HOPI's LIN/LOUT join on the hub column:
   dist(S, v) = min over hubs h of (min over s in S of d_out(s, h))
   + d_in(h, v). Fold every start's L_out into one hub table (it grows
   with the start labels, not the node count), then score each target's
   L_in against it — |S| + |T| label fetches instead of 2·|S|·|T|. A
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
    collect ~poll (candidates t (Some target)) (fun v ->
        let best = ref max_int in
        Array.iter
          (fun (h, d) ->
            match Hubs.find_opt hubs h with
            | None -> ()
            | Some e ->
                let from = if e.via = v then e.other else e.best in
                if from < max_int && from + d < !best then best := from + d)
          (Disk_labels.in_label t.labels v);
        if !best = max_int then None else Some !best)

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
