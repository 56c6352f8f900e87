(* Seeded request streams. Each client connection draws its reads from
   its own generator, seeded from --seed, so a seed fixes every
   connection's sequence. *)

module C = Fx_xml.Collection
module P = Fx_server.Protocol
module Rng = Fx_util.Rng
module Zipf = Fx_workload.Zipf

type verb = Descendants | Ancestors | Connected | Evaluate

let verb_of_request = function
  | P.Descendants _ | P.Node_descendants _ -> Some Descendants
  | P.Ancestors _ -> Some Ancestors
  | P.Connected _ -> Some Connected
  | P.Evaluate _ -> Some Evaluate
  | _ -> None

(* EVALUATE start/target pairs. The memory and coordinator workloads
   draw them Zipf-skewed, so popular pairs repeat and hit the answer
   caches. *)
let eval_pairs =
  let targets =
    [ "author"; "title"; "year"; "pages"; "ee"; "cite"; "url"; "volume"; "number"; "month";
      "booktitle"; "journal"; "i" ]
  in
  Array.of_list
    (List.concat_map (fun s -> List.map (fun t -> (s, t)) targets) [ "article"; "inproceedings" ]
    @ [ ("article", "inproceedings"); ("inproceedings", "article"); ("cite", "author");
        ("cite", "title") ])

(* On disk every EVALUATE probes each target candidate from every start
   node, ~0.25 s for the cheapest pair on one 400-document store, so
   disk-scan sends that pair and coord2 the few of that cost class. *)
let disk_eval_pairs = [| ("article", "journal") |]
let coord_eval_pairs = [| ("article", "journal"); ("article", "i"); ("inproceedings", "journal") |]

let descendant_tags = [| "author"; "title"; "cite"; "article"; "inproceedings"; "year"; "ee" |]
let ancestor_tags = [| "article"; "inproceedings"; "cite" |]

type doc_pick = Zipf_docs of Zipf.t * int array | Uniform_docs

type t = {
  coll : C.t;
  pairs : (int * int) array;  (** CONNECTED pairs *)
  evals : (string * string) array;
  eval_zipf : Zipf.t option;
  docs : doc_pick;
  weights : (verb * int) list;  (** read mix, in percent *)
}

(* The pools requests are drawn from (document popularity, CONNECTED
   pairs) belong to the collection, so they are fixed with it; --seed
   picks the draws. On disk-scan and coord2 the verbs' latencies lie
   far apart, so their mixes put the overall median inside DESCENDANTS'
   range, not on a boundary between two verbs; on coord2 an unreachable
   pair costs more than a reachable one, so a quarter of its pairs are
   connected and the CONNECTED median lies among the unreachable. *)
let create (kind : Deploy.kind) coll =
  let rng = Rng.create (Deploy.collection_seed + 17) in
  let n_docs = C.n_docs coll in
  let pairs connected_fraction =
    Fx_workload.Query_gen.connection_pairs coll ~seed:(Deploy.collection_seed + 29) ~count:256
      ~connected_fraction
    |> List.map (fun (a, b, _) -> (a, b))
    |> Array.of_list
  in
  let popular () =
    let perm = Array.init n_docs Fun.id in
    Rng.shuffle rng perm;
    Zipf_docs (Zipf.create n_docs, perm)
  in
  match kind with
  | Deploy.Mem_rw ->
      {
        coll;
        pairs = pairs 0.5;
        evals = eval_pairs;
        eval_zipf = Some (Zipf.create (Array.length eval_pairs));
        docs = popular ();
        weights = [ (Descendants, 35); (Ancestors, 25); (Connected, 25); (Evaluate, 15) ];
      }
  | Deploy.Disk_scan ->
      {
        coll;
        pairs = pairs 0.5;
        evals = disk_eval_pairs;
        eval_zipf = None;
        docs = Uniform_docs;
        weights = [ (Descendants, 70); (Ancestors, 15); (Connected, 10); (Evaluate, 5) ];
      }
  | Deploy.Coord2 ->
      {
        coll;
        pairs = pairs 0.25;
        evals = coord_eval_pairs;
        eval_zipf = Some (Zipf.create (Array.length coord_eval_pairs));
        docs = Uniform_docs;
        weights = [ (Descendants, 45); (Ancestors, 15); (Connected, 20); (Evaluate, 20) ];
      }

let pick_doc t rng =
  match t.docs with
  | Zipf_docs (z, perm) -> perm.(Zipf.sample z rng)
  | Uniform_docs -> Rng.int rng (C.n_docs t.coll)

let node_in_doc t rng d =
  let lo = C.root_of_doc t.coll d in
  let hi = if d + 1 < C.n_docs t.coll then C.root_of_doc t.coll (d + 1) else C.n_nodes t.coll in
  lo + Rng.int rng (hi - lo)

(* Verbs come in shuffled blocks of 100 that hold each verb exactly as
   often as its weight says, so every stretch of 100 requests has the
   same mix and a run's throughput does not depend on how many
   expensive requests the dice happened to pick. *)
type stream = { gen : t; rng : Rng.t; mutable block : verb array; mutable pos : int }

let stream gen rng = { gen; rng; block = [||]; pos = 0 }

let next_verb s =
  if s.pos >= Array.length s.block then begin
    s.block <- Array.of_list (List.concat_map (fun (v, w) -> List.init w (fun _ -> v)) s.gen.weights);
    Rng.shuffle s.rng s.block;
    s.pos <- 0
  end;
  s.pos <- s.pos + 1;
  s.block.(s.pos - 1)

let next s =
  let t = s.gen and rng = s.rng in
  let k () = 10 + Rng.int rng 91 in
  match next_verb s with
  | Descendants ->
      let d = pick_doc t rng in
      P.Descendants
        {
          doc = C.doc_name t.coll d;
          anchor = None;
          tag = Some (Rng.pick rng descendant_tags);
          k = k ();
          max_dist = None;
        }
  | Ancestors ->
      let node = node_in_doc t rng (pick_doc t rng) in
      P.Ancestors { node; tag = Some (Rng.pick rng ancestor_tags); k = k (); max_dist = None }
  | Connected ->
      let a, b = Rng.pick rng t.pairs in
      P.Connected { a; b; max_dist = None }
  | Evaluate ->
      let start_tag, target_tag =
        match t.eval_zipf with
        | Some z -> t.evals.(Zipf.sample z rng)
        | None -> Rng.pick rng t.evals
      in
      P.Evaluate { start_tag; target_tag; k = 100; max_dist = None }
