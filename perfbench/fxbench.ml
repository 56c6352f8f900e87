(* fxbench — the FliX serving benchmark.

     python3 perfbench/run.py --workload mem-rw --seed 1 --seconds 10 --trace 0

   run.py builds this executable and passes its arguments through. One
   run sets a workload's deployment up several times (set-up time is
   their median), keeps the last one serving, drives it closed-loop
   over the wire protocol with one generator thread per connection,
   checks a sample of the answers against BFS over the data graph, and
   prints the end-to-end metrics.

   One connection drives servers of one worker each: on a host of a few
   cores, more connections and worker domains measure how the scheduler
   and the stop-the-world minor collections interleave them, not the
   program, and spread a run's latencies by tens of percent. With two
   connections the coordinator's probe batches can also fill a shard's
   work queue while the other connection's call to the same shard is
   admitted, which answers BUSY (a PARTIAL result); with one, no call
   is refused.

   With --trace 1 it also replays a fixed sample of the requests one at
   a time with spans around direct calls into each layer, writes the
   spans under _perfbench/, and prints the per-layer metrics instead.
   The last line of standard output is the result as one JSON object;
   the exit code is nonzero when the oracle rejects an answer. *)

module C = Fx_xml.Collection
module Server = Fx_server.Server
module Client = Fx_server.Server_client
module Disk_hopi = Fx_index.Disk_hopi
module Pager = Fx_store.Pager
module Coord = Fx_shard.Coordinator

type opts = {
  kind : Deploy.kind;
  seed : int;
  seconds : float;
  trace : bool;
  docs : int option;
  setups : int;
  commit : string;
  corrupt : bool;  (** self-check: corrupt one recorded answer *)
}

let usage () =
  prerr_endline
    "usage: fxbench --workload mem-rw|disk-scan|coord2 --seed N --seconds S --trace 0|1\n\
    \               [--docs N] [--setups N] [--commit SHA] [--corrupt-answer]";
  exit 2

let parse_args () =
  let kind = ref None and seed = ref None and seconds = ref 10.0 and trace = ref false in
  let docs = ref None and setups = ref 11 and commit = ref "unknown" and corrupt = ref false in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        kind := Deploy.kind_of_string v;
        if !kind = None then usage ();
        go rest
    | "--seed" :: v :: rest ->
        seed := Some (int_of_string v);
        go rest
    | "--seconds" :: v :: rest ->
        seconds := float_of_string v;
        go rest
    | "--trace" :: v :: rest ->
        trace := v = "1";
        go rest
    | "--docs" :: v :: rest ->
        docs := Some (int_of_string v);
        go rest
    | "--setups" :: v :: rest ->
        setups := max 1 (int_of_string v);
        go rest
    | "--commit" :: v :: rest ->
        commit := v;
        go rest
    | "--corrupt-answer" :: rest ->
        corrupt := true;
        go rest
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  match (!kind, !seed) with
  | Some kind, Some seed ->
      { kind; seed; seconds = !seconds; trace = !trace; docs = !docs; setups = !setups;
        commit = !commit; corrupt = !corrupt }
  | _ -> usage ()

(* --- statistics ---------------------------------------------------- *)

(* Linear-interpolated percentile; nan when empty. *)
let percentile q values =
  let a = Array.of_list values in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q /. 100.0 *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = percentile 50.0
let ratio a b = if b = 0.0 then 0.0 else a /. b
let mean l = ratio (List.fold_left ( +. ) 0.0 l) (float_of_int (List.length l))

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f kB" (fun kb -> kb /. 1024.0)
        | _ -> go ()
        | exception End_of_file -> nan
      in
      go ())

(* --- counters scraped around the measured window ------------------- *)

(* Sum of every sample of a Prometheus series, whatever its labels. *)
let series lines name =
  let n = String.length name in
  List.fold_left
    (fun acc line ->
      if String.length line > n && String.sub line 0 n = name && (line.[n] = ' ' || line.[n] = '{')
      then
        match String.rindex_opt line ' ' with
        | Some i -> acc +. float_of_string (String.sub line (i + 1) (String.length line - i - 1))
        | None -> acc
      else acc)
    0.0 lines

let scrape server =
  let c = Client.connect ~port:(Server.port server) () in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
      match Client.metrics c with
      | Ok (Client.Value lines) -> lines
      | _ -> failwith "METRICS scrape failed")

type snapshot = {
  front : string list;
  shards : string list array;
  pager : float array;  (** logical, physical, demand misses, lock acquisitions, contended *)
  coord : float array;  (** probe rpcs, subs, closure lookups, fallbacks, shard errors, cache hits, misses *)
}

let snapshot (d : Deploy.t) =
  let pager = Array.make 5 0.0 in
  let add i v = pager.(i) <- pager.(i) +. float_of_int v in
  Array.iter
    (fun disk ->
      let l, t = Disk_hopi.stats disk in
      List.iter
        (fun (s : Pager.stats) ->
          add 0 s.logical_reads;
          add 1 s.physical_reads;
          add 2 s.demand_misses)
        [ l; t ];
      let ls, ts = Disk_hopi.stripe_stats disk in
      List.iter
        (fun (s : Pager.stripe_stats) ->
          add 3 s.lock_acquisitions;
          add 4 s.lock_contended)
        (ls @ ts))
    d.disks;
  let coord =
    match d.coord with
    | None -> Array.make 7 0.0
    | Some c ->
        let hits, misses =
          match Coord.query_cache_stats c with
          | Some s -> (s.Fx_shard.Coord_cache.hits, s.misses)
          | None -> (0, 0)
        in
        Array.map float_of_int
          [| Coord.probe_rpcs_total c; Coord.probe_subs_total c; Coord.closure_lookups_total c;
             Coord.closure_fallbacks_total c; Coord.shard_errors_total c; hits; misses |]
  in
  { front = scrape d.front; shards = Array.map scrape d.shards; pager; coord }

(* --- the metrics ---------------------------------------------------- *)

(* Every per-layer metric the traced run can report: name, unit, layer,
   the base a ratio or mean is taken over, and the end-to-end metric
   and workload it should move. [in_json] marks the ones every workload
   reports in the result line (BENCHMARK.json's per_layer list); the
   rest apply to one workload and appear in the printed table only.
   coord2 is left out of BENCHMARK.json (its coordinator answers some
   ANCESTORS requests with too long distances, which the oracle
   rejects), so the coordinator's metrics print in its table only. *)
type layer_def = {
  name : string;
  unit_ : string;
  layer : string;
  base : string;
  moves : string;
  in_json : bool;
}

let def ?(in_json = true) name unit_ layer base moves = { name; unit_; layer; base; moves; in_json }

let layer_defs =
  let rt = "replayed requests" in
  [
    def "server.self_ms" "ms" "server" "replayed DESCENDANTS/ANCESTORS/CONNECTED"
      "latency_p50_ms, throughput_rps on mem-rw; a small share on disk-scan";
    def "server.in_server_ms" "ms" "server" "window requests (METRICS histogram)"
      "latency_p50_ms on mem-rw";
    def "protocol.parse_us" "us" "server" rt "latency_p50_ms, evaluate_p50_ms on mem-rw";
    def "protocol.render_us" "us" "server" rt "latency_p50_ms, evaluate_p50_ms on mem-rw";
    def "protocol.decode_us" "us" "server" rt "latency_p50_ms, evaluate_p50_ms on mem-rw";
    def "protocol.response_bytes" "bytes" "server" rt "latency_p50_ms, evaluate_p50_ms on mem-rw";
    def "server.busy" "count" "server" "window" "error rate (failed/attempted) on all workloads";
    def "server.timeouts" "count" "server" "window" "error rate on all workloads";
    def "server.errors" "count" "server" "window" "error rate on all workloads";
    def "eval_cache.hit_ratio" "ratio" "admin" "window EVALUATEs reaching the cache"
      "evaluate_p50_ms on mem-rw";
    def "eval_cache.invalidated_per_ingest" "count" "admin" "window INGESTs"
      "evaluate_p50_ms, ingest_p50_ms on mem-rw";
    def "backend.descendants_us" "us" "backend" "replayed DESCENDANTS"
      "descendants_p50_ms on the workload's backend";
    def "backend.ancestors_us" "us" "backend" "replayed ANCESTORS" "ancestors_p50_ms";
    def "backend.evaluate_us" "us" "backend" "replayed EVALUATEs (no cache)" "evaluate_p50_ms";
    def "backend.connected_us" "us" "backend" "replayed CONNECTEDs" "connected_p50_ms";
    def "pee.queue_inserts_per_req" "count" "flix" rt "descendants_p50_ms, evaluate_p50_ms on mem-rw";
    def "pee.entry_drops_per_req" "count" "flix" rt "descendants_p50_ms, evaluate_p50_ms on mem-rw";
    def "flix.minor_words_per_req" "words" "flix" rt "latency_p99_ms on mem-rw";
    def "index_builder.reused_per_ingest" "count" "flix" "run INGESTs"
      "ingest_p50_ms, evict_p50_ms on mem-rw";
    def "index_builder.extended_per_ingest" "count" "flix" "run INGESTs"
      "ingest_p50_ms, evict_p50_ms on mem-rw";
    def "disk_hopi.candidates_per_result" "ratio" "index" "replayed items returned"
      "descendants_p50_ms, evaluate_p50_ms on disk-scan";
    def "disk_hopi.minor_words_per_req" "words" "index" rt "latency_p99_ms on disk-scan";
    def "pager.logical_reads_per_req" "count" "store" "window reads" "throughput_rps on disk-scan";
    def "pager.physical_reads_per_req" "count" "store" "window reads" "throughput_rps on disk-scan";
    def "pager.demand_miss_ratio" "ratio" "store" "window page requests"
      "latency_p50_ms on disk-scan; about 0 on coord2";
    def "pager.lock_acquisitions_per_req" "count" "store" "window reads"
      "throughput_rps on disk-scan and coord2";
    def "pager.lock_contended_ratio" "ratio" "store" "window lock acquisitions"
      "throughput_rps on disk-scan and coord2";
    def ~in_json:false "coordinator.probe_rpcs_per_req" "count" "shard" "window reads"
      "evaluate_p50_ms, descendants_p50_ms on coord2";
    def ~in_json:false "coordinator.probe_subs_per_req" "count" "shard" "window reads"
      "evaluate_p50_ms, descendants_p50_ms on coord2";
    def ~in_json:false "coordinator.closure_lookups_per_req" "count" "shard" "window reads"
      "evaluate_p50_ms, descendants_p50_ms on coord2";
    def ~in_json:false "coord_cache.hit_ratio" "ratio" "shard" "window EVALUATEs reaching the cache"
      "evaluate_p50_ms on coord2";
    def ~in_json:false "coordinator.closure_fallbacks" "count" "shard" "window" "error rate on coord2";
    def ~in_json:false "coordinator.shard_errors" "count" "shard" "window" "error rate on coord2";
    def "setup.generate_s" "s" "setup" "median of the run's set-ups" "setup_s";
    def "setup.index_s" "s" "setup" "median of the run's set-ups (build, closure, save, open)"
      "setup_s";
    def "setup.start_s" "s" "setup" "median of the run's set-ups" "setup_s";
    def "trace.overhead_pct" "%" "trace" "replayed requests, traced vs untraced p50"
      "none: the cost of tracing itself";
    (* One workload only. *)
    def ~in_json:false "flix.descendants_us" "us" "flix" "replayed DESCENDANTS"
      "descendants_p50_ms on mem-rw; no effect on disk-scan or coord2";
    def ~in_json:false "flix.ancestors_us" "us" "flix" "replayed ANCESTORS" "ancestors_p50_ms on mem-rw";
    def ~in_json:false "flix.evaluate_us" "us" "flix" "replayed EVALUATEs" "evaluate_p50_ms on mem-rw";
    def ~in_json:false "flix.connected_us" "us" "flix" "replayed CONNECTEDs" "connected_p50_ms on mem-rw";
    def ~in_json:false "flix.extend_ms" "ms" "flix" "replayed INGEST documents"
      "ingest_p50_ms on mem-rw";
    def ~in_json:false "flix.remove_ms" "ms" "flix" "replayed INGEST documents" "evict_p50_ms on mem-rw";
    def ~in_json:false "xml.parse_ms" "ms" "flix" "replayed INGEST documents" "ingest_p50_ms on mem-rw";
    def ~in_json:false "disk_hopi.descendants_ms" "ms" "index" "Disk_hopi.descendants_by_tag calls"
      "descendants_p50_ms, evaluate_p50_ms on disk-scan";
    def ~in_json:false "disk_hopi.ancestors_ms" "ms" "index" "Disk_hopi.ancestors_by_tag calls"
      "ancestors_p50_ms on disk-scan";
    def ~in_json:false "disk_hopi.distance_us" "us" "index" "Disk_hopi.distance calls"
      "connected_p50_ms on disk-scan";
    def ~in_json:false "disk_hopi.nodes_by_tag_us" "us" "index" "B-tree range scans"
      "evaluate_p50_ms on disk-scan";
    def ~in_json:false "coordinator.eval_ms" "ms" "shard" "replayed requests (custom_eval)"
      "latency_p50_ms on coord2";
    def ~in_json:false "shard.server_ms_per_req" "ms" "shard" "window reads of the front server"
      "latency_p50_ms on coord2";
    def ~in_json:false "shard.busy" "count" "shard" "window" "error rate on coord2";
    def ~in_json:false "shard.errors" "count" "shard" "window" "error rate on coord2";
    def ~in_json:false "shard.timeouts" "count" "shard" "window" "error rate on coord2";
    def ~in_json:false "setup.build_s" "s" "setup" "median of the run's set-ups" "setup_s";
    def ~in_json:false "setup.closure_s" "s" "setup" "median of the run's set-ups" "setup_s on coord2";
    def ~in_json:false "setup.save_open_s" "s" "setup" "median of the run's set-ups"
      "setup_s on disk-scan and coord2";
  ]

let end_to_end =
  [ ("throughput_rps", "1/s"); ("latency_p50_ms", "ms"); ("latency_p99_ms", "ms");
    ("descendants_p50_ms", "ms"); ("ancestors_p50_ms", "ms"); ("evaluate_p50_ms", "ms");
    ("connected_p50_ms", "ms"); ("setup_s", "s"); ("index_bytes_per_input_byte", "ratio");
    ("peak_rss_mb", "MB") ]

(* --- output --------------------------------------------------------- *)

(* JSON has no nan or infinity. A metric without samples prints as 0
   with a warning on stderr; an infinite latency (over 1% of operations
   failed, for the p99) as the largest float. *)
let json_number name v =
  if Float.is_nan v then begin
    Printf.eprintf "fxbench: no samples for %s\n%!" name;
    "0.0"
  end
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" (Float.min v Float.max_float)

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit_, v) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number name v) unit_)
          metrics))

(* --- the measured window ---------------------------------------------- *)

(* The window's operations: latencies (failures are infinite), the
   successful ones by operation, completions by tenth of the window, and
   failures by (operation, kind). *)
type window = {
  wall_s : float;
  all : float list;
  lat : float list array;  (** successful operations, by op *)
  s_ok : int array;  (** successful operations, by slice *)
  slice_s : float;
  failures : (int * Loadgen.failure, int) Hashtbl.t;
}

let n_slices = 10

let summarize (records : Loadgen.record array) wall_s =
  let slice_ms = wall_s *. 1000.0 /. float_of_int n_slices in
  let w =
    {
      wall_s;
      all = [];
      lat = Array.make Loadgen.n_ops [];
      s_ok = Array.make n_slices 0;
      slice_s = slice_ms /. 1000.0;
      failures = Hashtbl.create 8;
    }
  in
  let all = ref [] in
  Array.iter
    (fun (r : Loadgen.record) ->
      for i = 0 to r.len - 1 do
        let ms = r.lat_ms.(i) and op = r.ops.(i) in
        let sl = min (n_slices - 1) (int_of_float (r.end_ms.(i) /. slice_ms)) in
        all := ms :: !all;
        if Float.is_finite ms then begin
          w.s_ok.(sl) <- w.s_ok.(sl) + 1;
          w.lat.(op) <- ms :: w.lat.(op)
        end
      done;
      Hashtbl.iter
        (fun key n ->
          Hashtbl.replace w.failures key (n + Option.value ~default:0 (Hashtbl.find_opt w.failures key)))
        r.failures)
    records;
  { w with all = !all }

let attempted w = List.length w.all
let n_failed w = Hashtbl.fold (fun _ n a -> a + n) w.failures 0
let reads w = float_of_int (List.fold_left (fun a i -> a + List.length w.lat.(i)) 0 [ 0; 1; 2; 3 ])

(* Throughput is the median of the window's slices, so a short burst of
   outside load moves one slice, not the result. *)
let slice_rps w sl = float_of_int w.s_ok.(sl) /. w.slice_s

let e2e_metrics w ~setup_s ~(d : Deploy.t) ~rss =
  [
    ("throughput_rps", median (List.init n_slices (slice_rps w)));
    ("latency_p50_ms", median w.all);
    ("latency_p99_ms", percentile 99.0 w.all);
    ("descendants_p50_ms", median w.lat.(0));
    ("ancestors_p50_ms", median w.lat.(1));
    ("evaluate_p50_ms", median w.lat.(3));
    ("connected_p50_ms", median w.lat.(2));
    ("setup_s", setup_s);
    ("index_bytes_per_input_byte", float_of_int d.index_bytes /. float_of_int d.input_bytes);
    ("peak_rss_mb", rss);
  ]

let print_e2e ~name ~n_docs ~conns ~workers ~errors w e2e =
  Printf.printf "\nend-to-end, %s: %d docs, %d connections closed-loop, %d workers, %.2f s window\n"
    name n_docs conns workers w.wall_s;
  List.iter (fun (n, u) -> Printf.printf "  %-28s %14.4f %s\n" n (List.assoc n e2e) u) end_to_end;
  List.iter
    (fun (n, op) ->
      if w.lat.(op) <> [] then
        Printf.printf "  %-28s %14.4f ms   (%d ops)\n" n (median w.lat.(op)) (List.length w.lat.(op)))
    [ ("ingest_p50_ms", Loadgen.ingest_op); ("evict_p50_ms", Loadgen.evict_op) ];
  Printf.printf "  %-28s %s\n" "throughput by slice (1/s)"
    (String.concat " " (List.init n_slices (fun sl -> Printf.sprintf "%.0f" (slice_rps w sl))));
  Printf.printf "  %-28s %14.6f      (%d failed of %d attempted)\n" "error_rate"
    (ratio (float_of_int errors) (float_of_int (attempted w)))
    errors (attempted w);
  Array.iteri
    (fun op verb ->
      let fails =
        List.filter_map
          (fun (f, fname) ->
            Option.map (fun n -> (fname, n)) (Hashtbl.find_opt w.failures (op, f)))
          Loadgen.failure_names
      in
      let ok = List.length w.lat.(op) in
      let n = ok + List.fold_left (fun a (_, n) -> a + n) 0 fails in
      if n > 0 then
        Printf.printf "    %-12s %7d attempted, %d ok%s\n" verb n ok
          (if fails = [] then ""
           else
             ", failed: "
             ^ String.concat ", " (List.map (fun (f, n) -> Printf.sprintf "%s %d" f n) fails)))
    Loadgen.op_names

(* --- per-layer metrics ------------------------------------------------ *)

(* Counter deltas over the window and the set-up phases. *)
let counter_metrics w ~(d : Deploy.t) ~ingest_stats ~phases ~before ~after =
  let delta f = f after -. f before in
  let front name = delta (fun s -> series s.front name) in
  let shards name = delta (fun s -> Array.fold_left (fun a l -> a +. series l name) 0.0 s.shards) in
  let reads = reads w in
  let pager i = delta (fun s -> s.pager.(i)) in
  let coord i = delta (fun s -> s.coord.(i)) in
  let phase p = median (List.filter_map (List.assoc_opt p) phases) in
  [
    ( "server.in_server_ms",
      ratio (front "flix_request_duration_ms_sum") (front "flix_request_duration_ms_count") );
    ("server.busy", front "flix_rejected_total");
    ("server.timeouts", front "flix_timeouts_total");
    ("server.errors", front "flix_errors_total");
    ( "eval_cache.hit_ratio",
      ratio (front "flix_eval_cache_hits_total")
        (front "flix_eval_cache_hits_total" +. front "flix_eval_cache_misses_total") );
    ( "eval_cache.invalidated_per_ingest",
      ratio (front "flix_eval_cache_invalidated_total")
        (float_of_int (List.length w.lat.(Loadgen.ingest_op))) );
    ("index_builder.reused_per_ingest", mean (List.map (fun (r, _) -> float_of_int r) ingest_stats));
    ("index_builder.extended_per_ingest", mean (List.map (fun (_, e) -> float_of_int e) ingest_stats));
    ("pager.logical_reads_per_req", ratio (pager 0) reads);
    ("pager.physical_reads_per_req", ratio (pager 1) reads);
    ("pager.demand_miss_ratio", ratio (pager 2) (pager 0));
    ("pager.lock_acquisitions_per_req", ratio (pager 3) reads);
    ("pager.lock_contended_ratio", ratio (pager 4) (pager 3));
    ("coordinator.probe_rpcs_per_req", ratio (coord 0) reads);
    ("coordinator.probe_subs_per_req", ratio (coord 1) reads);
    ("coordinator.closure_lookups_per_req", ratio (coord 2) reads);
    ("coordinator.closure_fallbacks", coord 3);
    ("coordinator.shard_errors", coord 4);
    ("coord_cache.hit_ratio", ratio (coord 5) (coord 5 +. coord 6));
    ( "setup.index_s",
      List.fold_left
        (fun a p -> if List.mem_assoc p d.phases then a +. phase p else a)
        0.0
        [ "setup.build_s"; "setup.closure_s"; "setup.save_open_s" ] );
  ]
  @ List.map (fun (p, _) -> (p, phase p)) d.phases
  @
  if d.shards = [||] then []
  else
    [
      ("shard.busy", shards "flix_rejected_total");
      ("shard.errors", shards "flix_errors_total");
      ("shard.timeouts", shards "flix_timeouts_total");
      ("shard.server_ms_per_req", ratio (shards "flix_request_duration_ms_sum") reads);
    ]

(* The traced replay; returns its metrics and the layer the direct calls
   entered. *)
let replay_metrics ~(o : opts) ~(d : Deploy.t) ~gen =
  let port = Server.port d.front in
  let direct =
    match (o.kind, Server.current_backend d.front) with
    | Deploy.Mem_rw, Server.In_memory flix -> Replay.memory flix
    | Deploy.Disk_scan, Server.On_disk { hopi; catalog } -> Replay.disk hopi catalog
    | Deploy.Coord2, _ -> Replay.coordinator (Option.get d.coord)
    | _ -> failwith "unexpected serving backend"
  in
  let stream = Reqgen.stream gen (Fx_util.Rng.create ((o.seed * 104729) + 3)) in
  let reqs = List.init 400 (fun _ -> Reqgen.next stream) in
  let untraced, rows, c = Replay.run ~port ~direct ~cap_s:(Float.min 4.0 o.seconds) reqs in
  let ingest =
    match Server.current_backend d.front with
    | Server.In_memory flix when o.kind = Deploy.Mem_rw ->
        let n = Array.length d.extra in
        Replay.ingest_path ~port flix
          (List.init 3 (fun i ->
               let doc, xml = d.extra.(n - 1 - i) in
               (doc.Fx_xml.Xml_types.name, xml)))
    | _ -> []
  in
  let col f = List.map f rows in
  let backend verb =
    median
      (List.filter_map
         (fun (r : Replay.row) -> if r.verb = verb then Some (r.direct_ms *. 1000.0) else None)
         rows)
  in
  let n_rows = float_of_int (List.length rows) in
  let words = mean (col (fun (r : Replay.row) -> r.words)) in
  let span_median name =
    median
      (List.filter_map
         (fun (s : Span.t) -> if s.name = name then Some (Span.duration s) else None)
         !Span.spans)
  in
  let traced_p50 = median (col (fun (r : Replay.row) -> r.rt_ms)) in
  let metrics =
    [
      ( "server.self_ms",
        median
          (List.filter_map
             (fun (r : Replay.row) ->
               if r.verb = "evaluate" then None else Some (r.rt_ms -. r.direct_ms))
             rows) );
      ("protocol.parse_us", median (col (fun (r : Replay.row) -> r.parse_us)));
      ("protocol.render_us", median (col (fun (r : Replay.row) -> r.render_us)));
      ("protocol.decode_us", median (col (fun (r : Replay.row) -> r.decode_us)));
      ("protocol.response_bytes", median (col (fun (r : Replay.row) -> float_of_int r.bytes)));
      ("backend.descendants_us", backend "descendants");
      ("backend.ancestors_us", backend "ancestors");
      ("backend.evaluate_us", backend "evaluate");
      ("backend.connected_us", backend "connected");
      ("pee.queue_inserts_per_req", ratio (float_of_int c.pee_inserts) n_rows);
      ("pee.entry_drops_per_req", ratio (float_of_int c.pee_drops) n_rows);
      ("flix.minor_words_per_req", if direct.layer = "flix" then words else 0.0);
      ("disk_hopi.minor_words_per_req", if direct.layer = "disk_hopi" then words else 0.0);
      ("disk_hopi.candidates_per_result", ratio (float_of_int c.candidates) (float_of_int c.items));
      ("trace.overhead_pct", 100.0 *. ratio (traced_p50 -. median untraced) (median untraced));
    ]
    @ (match direct.layer with
      | "flix" ->
          [
            ("flix.descendants_us", backend "descendants");
            ("flix.ancestors_us", backend "ancestors");
            ("flix.evaluate_us", backend "evaluate");
            ("flix.connected_us", backend "connected");
          ]
      | "disk_hopi" ->
          [
            ("disk_hopi.descendants_ms", span_median "disk_hopi.descendants" /. 1e6);
            ("disk_hopi.ancestors_ms", span_median "disk_hopi.ancestors" /. 1e6);
            ("disk_hopi.distance_us", span_median "disk_hopi.distance" /. 1e3);
            ("disk_hopi.nodes_by_tag_us", span_median "disk_hopi.nodes_by_tag" /. 1e3);
          ]
      | _ -> [ ("coordinator.eval_ms", median (col (fun (r : Replay.row) -> r.direct_ms))) ])
    @
    if ingest = [] then []
    else
      let m f = median (List.map f ingest) in
      [
        ("xml.parse_ms", m (fun (p, _, _, _, _) -> p));
        ("flix.extend_ms", m (fun (_, e, _, _, _) -> e));
        ("flix.remove_ms", m (fun (_, _, r, _, _) -> r));
      ]
  in
  Printf.printf "\nper-layer: %d requests replayed one at a time (after %d untraced)\n"
    (List.length rows) (List.length untraced);
  (metrics, direct.layer)

let print_layers values ~backend_layer =
  Printf.printf "  %-36s %14s %-6s %-11s %-44s %s\n" "metric" "value" "unit" "layer" "base"
    "should move";
  List.iter
    (fun l ->
      match List.assoc_opt l.name values with
      | Some v ->
          let layer = if l.layer = "backend" then backend_layer else l.layer in
          Printf.printf "  %-36s %14.4f %-6s %-11s %-44s %s\n" l.name v l.unit_ layer l.base l.moves
      | None -> ())
    layer_defs;
  let spans = Span.self_times !Span.spans in
  let names = List.sort_uniq compare (List.map (fun ((s : Span.t), _) -> s.name) spans) in
  Printf.printf "\n  %-28s %8s %14s %14s\n" "span" "count" "p50 total us" "p50 self us";
  List.iter
    (fun n ->
      let mine = List.filter (fun ((s : Span.t), _) -> s.name = n) spans in
      Printf.printf "  %-28s %8d %14.2f %14.2f\n" n (List.length mine)
        (median (List.map (fun (s, _) -> Span.duration s /. 1e3) mine))
        (median (List.map (fun (_, self) -> self /. 1e3) mine)))
    names

let write_trace ~file ~stamp =
  let oc = open_out file in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      Printf.fprintf oc "{\"run\": %s,\n\"spans\": " stamp;
      Span.to_json oc (List.rev !Span.spans);
      output_string oc "}\n");
  Printf.printf "\nspans written to %s\n" file

(* --- the run ---------------------------------------------------------- *)

(* Check the sampled answers; returns the rejected ones. *)
let check_answers ~(o : opts) ~(d : Deploy.t) records =
  let samples =
    List.concat_map (fun (r : Loadgen.record) -> List.rev r.samples) (Array.to_list records)
  in
  let samples = if o.corrupt then Oracle.corrupt samples else samples in
  (* State s of the mem-rw collection: odd states hold one ingested
     document (see Loadgen.admin). *)
  let states s =
    if s mod 2 = 0 then d.base
    else C.build (C.documents d.base @ [ fst d.extra.((s - 1) / 2) ])
  in
  let rejected = Oracle.check ~exact:(o.kind <> Deploy.Mem_rw) ~states samples in
  List.iteri
    (fun i ((s : Oracle.sample), reason) ->
      if i < 5 then
        Printf.printf "oracle rejected: %s -> %s\n" (Fx_server.Protocol.request_line s.req) reason)
    rejected;
  Printf.printf "oracle: %d sampled answers checked, %d rejected\n%!" (List.length samples)
    (List.length rejected);
  rejected

let run (o : opts) ~conns ~workers ~stamp ~phases (d : Deploy.t) =
  let name = Deploy.kind_name o.kind in
  let gen = Reqgen.create o.kind d.base in
  let streams =
    Array.init conns (fun i -> Reqgen.stream gen (Fx_util.Rng.create ((o.seed * 7919) + i)))
  in
  let admin =
    match Server.current_backend d.front with
    | Server.In_memory _ when o.kind = Deploy.Mem_rw ->
        Some
          (Loadgen.new_admin ~admin_every:2000
             ~docs:
               (* The last three are left for the traced run's INGESTs. *)
               (Array.map
                  (fun ((doc : Fx_xml.Xml_types.document), xml) -> (doc.name, xml))
                  (Array.sub d.extra 0 (Array.length d.extra - 3)))
             ~on_ingest:(fun () ->
               match Server.current_backend d.front with
               | Server.In_memory f ->
                   let b = Fx_flix.Flix.built f in
                   (Fx_flix.Index_builder.reused_count b, Fx_flix.Index_builder.extended_count b)
               | _ -> (0, 0)))
    | _ -> None
  in
  let port = Server.port d.front in
  ignore (Loadgen.run ~port ~seconds:(Float.min 2.0 (o.seconds /. 2.0)) ~streams ?admin ());
  let before = snapshot d in
  let records, wall_s = Loadgen.run ~port ~seconds:o.seconds ~streams ?admin () in
  let after = snapshot d in
  let rss = peak_rss_mb () in
  let w = summarize records wall_s in
  let rejected = check_answers ~o ~d records in
  let failed = n_failed w + List.length rejected in
  let setup_s = median (List.map (List.fold_left (fun a (_, s) -> a +. s) 0.0) phases) in
  let e2e = e2e_metrics w ~setup_s ~d ~rss in
  print_e2e ~name ~n_docs:(C.n_docs d.base) ~conns ~workers ~errors:failed w e2e;
  let metrics =
    if not o.trace then List.map (fun (n, u) -> (n, u, List.assoc n e2e)) end_to_end
    else begin
      let ingest_stats = match admin with Some a -> a.ingest_stats | None -> [] in
      let counters = counter_metrics w ~d ~ingest_stats ~phases ~before ~after in
      let replayed, backend_layer = replay_metrics ~o ~d ~gen in
      let values = counters @ replayed in
      print_layers values ~backend_layer;
      write_trace ~file:(Filename.concat "_perfbench" (Printf.sprintf "trace-%s-seed%d.json" name o.seed)) ~stamp;
      List.filter_map
        (fun l ->
          if l.in_json then Some (l.name, l.unit_, Option.value ~default:0.0 (List.assoc_opt l.name values))
          else None)
        layer_defs
    end
  in
  print_endline (result_line ~correct:(rejected = []) ~attempted:(attempted w) ~failed metrics);
  if rejected = [] then 0 else 1

let () =
  let o = parse_args () in
  let nproc = Domain.recommended_domain_count () in
  let conns = 1 and workers = 1 in
  let n_docs = Option.value o.docs ~default:(Deploy.default_docs o.kind) in
  let stamp =
    Printf.sprintf
      "{\"workload\": %S, \"seed\": %d, \"seconds\": %g, \"trace\": %b, \"docs\": %d, \"conns\": \
       %d, \"workers\": %d, \"nproc\": %d, \"ocaml\": %S, \"commit\": %S}"
      (Deploy.kind_name o.kind) o.seed o.seconds o.trace n_docs conns workers nproc
      Sys.ocaml_version o.commit
  in
  Printf.printf "run: %s\n%!" stamp;
  let run_dir =
    Filename.concat "_perfbench" (Printf.sprintf "%s-%d" (Deploy.kind_name o.kind) (Unix.getpid ()))
  in
  (* Set up [setups] times: all but the last in child processes that
     tear their deployment down again, so each set-up starts in a fresh
     process and the peak RSS is that of the one deployment kept. *)
  let dir i = Filename.concat run_dir (string_of_int i) in
  let phases =
    List.init (o.setups - 1) (fun i ->
        Deploy.setup_in_child o.kind ~n_docs ~workers ~dir:(dir i))
  in
  let d = Deploy.setup o.kind ~n_docs ~workers ~dir:(dir o.setups) in
  let phases = phases @ [ d.phases ] in
  Printf.printf "set-up: %s\n%!"
    (String.concat ", "
       (List.map
          (fun ph -> Printf.sprintf "%.3f s" (List.fold_left (fun a (_, s) -> a +. s) 0.0 ph))
          phases));
  let code =
    Fun.protect
      ~finally:(fun () ->
        Deploy.teardown d;
        Deploy.rm_rf run_dir)
      (fun () -> run o ~conns ~workers ~stamp ~phases d)
  in
  exit code
