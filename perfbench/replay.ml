(* The traced run: a fixed sample of the seeded requests replayed one at
   a time. Each request's round trip is timed, then the same request is
   answered by a direct call into the serving layer, and its lines are
   encoded and decoded by Protocol, each inside its own span. *)

module C = Fx_xml.Collection
module P = Fx_server.Protocol
module Client = Fx_server.Server_client
module Flix = Fx_flix.Flix
module Pee = Fx_flix.Pee
module RS = Fx_flix.Result_stream
module Disk_hopi = Fx_index.Disk_hopi
module Catalog = Fx_index.Catalog

(* Opens a child span of the current backend call. *)
type spanner = { sp : 'a. string -> (unit -> 'a) -> 'a }

(* Work counters the direct calls add to. *)
type counters = {
  mutable pee_inserts : int;
  mutable pee_drops : int;
  mutable candidates : int;  (** disk: candidate nodes probed *)
  mutable items : int;  (** items the direct calls returned *)
}

type direct = {
  layer : string;  (** the module a direct call enters *)
  call : spanner -> counters -> P.request -> P.response;
}

let items_of l = P.Items { items = l; timed_out = false; partial = false }
let count_items c = function P.Items { items; _ } -> c.items <- c.items + List.length items | _ -> ()
let take k l = List.filteri (fun i _ -> i < k) l

(* The in-memory backend: a private PEE over the serving index, as each
   server worker has. *)
let memory flix =
  let coll = Flix.collection flix in
  let pee = Pee.create (Flix.built flix) in
  let tag name = Option.value ~default:(-1) (C.tag_id coll name) in
  let out l = items_of (List.map (fun (it : Pee.item) -> { P.node = it.node; dist = it.dist; meta = it.meta }) l) in
  let call _ c (r : P.request) =
    let i0, d0 = Pee.queue_stats pee in
    let resp =
      match r with
      | P.Descendants { doc; anchor; tag = t; k; _ } -> (
          match Flix.node_of flix ~doc ~anchor with
          | None -> P.Err "unknown document"
          | Some start -> out (RS.take k (Pee.descendants ?tag:(Option.map tag t) pee ~start)))
      | P.Ancestors { node; tag = t; k; _ } ->
          out (RS.take k (Pee.ancestors ?tag:(Option.map tag t) ~include_self:true pee ~start:node))
      | P.Connected { a; b; _ } -> P.Dist (Pee.connected pee a b)
      | P.Evaluate { start_tag; target_tag; k; _ } ->
          out
            (RS.take k
               (Pee.descendants_multi ~tag:(tag target_tag) pee
                  ~starts:(C.find_by_tag coll start_tag)))
      | _ -> P.Err "not replayed"
    in
    let i1, d1 = Pee.queue_stats pee in
    c.pee_inserts <- c.pee_inserts + i1 - i0;
    c.pee_drops <- c.pee_drops + d1 - d0;
    count_items c resp;
    resp
  in
  { layer = "flix"; call }

(* The disk backend, with the server's answer semantics: self dropped
   from DESCENDANTS, best distance per node across EVALUATE starts. *)
let disk hopi catalog =
  let n_cands = Hashtbl.create 16 in
  for t = 0 to Catalog.n_tags catalog - 1 do
    Hashtbl.replace n_cands t (List.length (Disk_hopi.nodes_by_tag hopi t))
  done;
  let cands t = Option.value ~default:0 (Hashtbl.find_opt n_cands t) in
  let pairs l = items_of (List.map (fun (node, dist) -> { P.node; dist; meta = 0 }) l) in
  let call s c (r : P.request) =
    let resp =
      match r with
      | P.Descendants { doc; anchor; tag = Some tag; k; _ } -> (
          match (Catalog.node_of catalog ~doc ~anchor, Catalog.tag_id catalog tag) with
          | Some start, Some t ->
              c.candidates <- c.candidates + cands t;
              s.sp "disk_hopi.descendants" (fun () -> Disk_hopi.descendants_by_tag hopi start (Some t))
              |> List.filter (fun (v, d) -> not (v = start && d = 0))
              |> take k |> pairs
          | _ -> pairs [])
      | P.Ancestors { node; tag = Some tag; k; _ } -> (
          match Catalog.tag_id catalog tag with
          | Some t ->
              c.candidates <- c.candidates + cands t;
              s.sp "disk_hopi.ancestors" (fun () -> Disk_hopi.ancestors_by_tag hopi node (Some t))
              |> take k |> pairs
          | None -> pairs [])
      | P.Connected { a; b; _ } -> P.Dist (s.sp "disk_hopi.distance" (fun () -> Disk_hopi.distance hopi a b))
      | P.Evaluate { start_tag; target_tag; k; _ } -> (
          match (Catalog.tag_id catalog start_tag, Catalog.tag_id catalog target_tag) with
          | Some st, Some t ->
              let starts = s.sp "disk_hopi.nodes_by_tag" (fun () -> Disk_hopi.nodes_by_tag hopi st) in
              c.candidates <- c.candidates + (List.length starts * cands t);
              let best = Hashtbl.create 64 in
              List.iter
                (fun start ->
                  List.iter
                    (fun (v, d) ->
                      match Hashtbl.find_opt best v with
                      | Some d' when d' <= d -> ()
                      | _ -> if d > 0 then Hashtbl.replace best v d)
                    (s.sp "disk_hopi.descendants" (fun () ->
                         Disk_hopi.descendants_by_tag hopi start (Some t))))
                starts;
              Hashtbl.fold (fun v d acc -> (v, d) :: acc) best []
              |> List.sort (fun (v1, d1) (v2, d2) ->
                     match Int.compare d1 d2 with 0 -> Int.compare v1 v2 | x -> x)
              |> take k |> pairs
          | _ -> pairs [])
      | _ -> P.Err "not replayed"
    in
    count_items c resp;
    resp
  in
  { layer = "disk_hopi"; call }

(* The coordinator, entered through its Custom-backend hook as the
   front server's workers enter it. *)
let coordinator coord =
  let b = Fx_shard.Coordinator.backend coord in
  let call _ c r =
    let buf = ref [] in
    let deadline_ns = Int64.add (Fx_util.Stopwatch.now_ns ()) 10_000_000_000L in
    let resp =
      match b.Fx_server.Server.custom_eval ~emit:(fun it -> buf := it :: !buf) ~deadline_ns r with
      | P.Items f -> P.Items { f with items = List.rev !buf }
      | other -> other
    in
    count_items c resp;
    resp
  in
  { layer = "coordinator"; call }

type row = {
  verb : string;
  rt_ms : float;  (** client round trip *)
  direct_ms : float;  (** the direct backend call *)
  parse_us : float;
  render_us : float;
  decode_us : float;
  bytes : int;  (** response bytes on the wire *)
  words : float;  (** minor words allocated by the direct call *)
}

let ms ns = ns /. 1e6
let us ns = ns /. 1e3

let verb_name r =
  match Reqgen.verb_of_request r with
  | Some v -> Loadgen.op_names.(Loadgen.op_index v)
  | None -> P.verb r

(* Replay [reqs] over [port]: an untraced warm-up pass of round trips,
   cut after [cap_s] seconds, a second untraced pass and then a traced
   pass over the same requests. Returns
   the untraced round trips (ms), the traced rows and the counters. *)
let run ~port ~direct ~cap_s reqs =
  let client = Client.connect ~port () in
  Fun.protect ~finally:(fun () -> Client.close client) (fun () ->
      let sw = Fx_util.Stopwatch.start () in
      let rec untraced_pass acc = function
        | r :: rest when List.length acc < 8 || Fx_util.Stopwatch.elapsed_ms sw < cap_s *. 1000.0 ->
            let t, ns = Fx_util.Stopwatch.time_ns (fun () -> Client.request client r) in
            (match t with Ok _ -> () | Error e -> failwith ("replay: " ^ e));
            untraced_pass (ms (Int64.to_float ns) :: acc) rest
        | _ -> List.rev acc
      in
      let warm = untraced_pass [] reqs in
      (* The first pass fills the answer and probe caches, so the
         untraced baseline is the second. *)
      let reqs = take (List.length warm) reqs in
      let untraced = List.map (fun r ->
          let t, ns = Fx_util.Stopwatch.time_ns (fun () -> Client.request client r) in
          (match t with Ok _ -> () | Error e -> failwith ("replay: " ^ e));
          ms (Int64.to_float ns)) reqs in
      let c = { pee_inserts = 0; pee_drops = 0; candidates = 0; items = 0 } in
      let rows =
        List.mapi
          (fun req r ->
            fst
              (Span.record ~req "replay" (fun root ->
                   let sp name f = fst (Span.record ~parent:root ~req name (fun _ -> f ())) in
                   let resp, rt =
                     Span.record ~parent:root ~req "client.request" (fun _ -> Client.request client r)
                   in
                   let resp = match resp with Ok x -> x | Error e -> failwith ("replay: " ^ e) in
                   let line = sp "protocol.encode" (fun () -> P.request_line r) in
                   let _, parse = Span.record ~parent:root ~req "protocol.parse" (fun _ -> P.parse_request line) in
                   let lines, render =
                     Span.record ~parent:root ~req "protocol.render" (fun _ -> P.response_lines resp)
                   in
                   let _, decode =
                     Span.record ~parent:root ~req "protocol.decode" (fun _ ->
                         let rest = ref lines in
                         P.read_response (fun () ->
                             match !rest with
                             | [] -> None
                             | l :: tl ->
                                 rest := tl;
                                 Some l))
                   in
                   let w0 = Gc.minor_words () in
                   let _, d =
                     Span.record ~parent:root ~req ("backend." ^ verb_name r) (fun id ->
                         let s = { sp = (fun name f -> fst (Span.record ~parent:id ~req name (fun _ -> f ()))) } in
                         direct.call s c r)
                   in
                   let words = Gc.minor_words () -. w0 in
                   {
                     verb = verb_name r;
                     rt_ms = ms rt;
                     direct_ms = ms d;
                     parse_us = us parse;
                     render_us = us render;
                     decode_us = us decode;
                     bytes = List.fold_left (fun a l -> a + String.length l + 1) 0 lines;
                     words;
                   })))
          reqs
      in
      (untraced, rows, c))

(* The mem-rw write path: for each document, parse its XML, extend the
   serving index with it and remove it again, each call in its own span;
   then INGEST and EVICT it over the wire. Returns per-document
   (parse, extend, remove, ingest, evict) times in ms. *)
let ingest_path ~port flix docs =
  let client = Client.connect ~port () in
  Fun.protect ~finally:(fun () -> Client.close client) (fun () ->
      List.mapi
        (fun i (name, xml) ->
          let req = 1_000_000 + i in
          let time name f = Span.record ~req name (fun _ -> f ()) in
          let doc, parse = time "xml.parse" (fun () -> Fx_xml.Xml_parser.parse ~name xml) in
          let doc = match doc with Ok d -> d | Error _ -> failwith ("replay: cannot parse " ^ name) in
          let bigger, extend = time "flix.extend" (fun () -> Flix.extend flix [ doc ]) in
          let _, remove = time "flix.remove" (fun () -> Flix.remove bigger [ name ]) in
          let ok = function Ok (Client.Value _) -> () | _ -> failwith "replay: admin op failed" in
          let r, ingest = time "client.ingest" (fun () -> Client.ingest client [ (name, xml) ]) in
          ok r;
          let r, evict = time "client.evict" (fun () -> Client.evict client [ name ]) in
          ok r;
          (ms parse, ms extend, ms remove, ms ingest, ms evict))
        docs)
