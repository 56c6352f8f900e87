(* The answer oracle: recorded answers checked against BFS over the
   data graph (Fx_graph.Traversal).

   Every backend must return reachable nodes of the asked tag, each at
   most once per start, never closer than the true distance, and all
   of them when it returns fewer than k. The disk and coordinator
   backends promise more: exact distances and the k nearest nodes. *)

module C = Fx_xml.Collection
module P = Fx_server.Protocol
module T = Fx_graph.Traversal

type answer = Items of P.item list | Dist of int option

type sample = {
  req : P.request;
  answer : answer;
  lo : int;  (** first collection state that may have served it *)
  hi : int;  (** last one *)
}

(* One collection state: the graph the server held at some epoch. *)
type state = { coll : C.t; g : Fx_graph.Digraph.t; rev : Fx_graph.Digraph.t Lazy.t }

let state_of coll =
  let g = C.graph coll in
  { coll; g; rev = lazy (Fx_graph.Digraph.reverse g) }

(* node -> true distance, for every node the request may return. *)
let truth st (req : P.request) =
  let tbl = Hashtbl.create 64 in
  let tag_id name = C.tag_id st.coll name in
  let add_by_tag g start tag ~drop_start =
    match tag_id tag with
    | None -> ()
    | Some t ->
        List.iter
          (fun (v, d) -> if not (drop_start && v = start) then Hashtbl.replace tbl v d)
          (T.descendants_by_tag g ~tag:(C.tag st.coll) start (Some t))
  in
  (match req with
  | P.Descendants { doc; anchor = None; tag = Some tag; _ } -> (
      match C.doc_of_name st.coll doc with
      | Some d -> add_by_tag st.g (C.root_of_doc st.coll d) tag ~drop_start:true
      | None -> ())
  | P.Ancestors { node; tag = Some tag; _ } ->
      add_by_tag (Lazy.force st.rev) node tag ~drop_start:false
  | P.Evaluate { start_tag; target_tag; _ } -> (
      match tag_id target_tag with
      | None -> ()
      | Some target ->
          let dist = T.bfs_distances_from_set st.g (C.find_by_tag st.coll start_tag) in
          let tags = C.tag st.coll in
          Array.iteri (fun v d -> if d > 0 && tags.(v) = target then Hashtbl.replace tbl v d) dist)
  | _ -> invalid_arg "Oracle.truth: request shape the benchmark never sends");
  tbl

let request_k = function
  | P.Descendants { k; _ } | P.Ancestors { k; _ } | P.Evaluate { k; _ } -> k
  | _ -> max_int

(* [None] when the answer is right for this state, else the reason. *)
let check_state ~exact st s =
  let fail fmt = Printf.ksprintf (fun m -> Some m) fmt in
  match (s.req, s.answer) with
  | P.Connected { a; b; _ }, Dist got -> (
      let want = T.distance st.g a b in
      match (got, want) with
      | None, None -> None
      | Some d, Some t when d = t || ((not exact) && d > t) -> None
      | _ ->
          let show = function None -> "none" | Some d -> string_of_int d in
          fail "CONNECTED %d %d: got %s, true %s" a b (show got) (show want))
  | req, Items items -> (
      let truth = truth st req in
      let k = request_k req in
      (* EVALUATE on the memory engine may report a node once per start
         that reaches it. *)
      let dups_ok =
        (not exact) && match req with P.Evaluate _ -> true | _ -> false
      in
      let seen = Hashtbl.create 64 in
      let bad =
        List.find_map
          (fun (it : P.item) ->
            let dup = Hashtbl.mem seen it.node in
            Hashtbl.replace seen it.node ();
            match Hashtbl.find_opt truth it.node with
            | None -> fail "node %d is not a match" it.node
            | Some _ when dup && not dups_ok -> fail "node %d returned twice" it.node
            | Some t when it.dist < t -> fail "node %d at %d, true distance %d" it.node it.dist t
            | Some t when exact && it.dist <> t ->
                fail "node %d at %d, true distance %d" it.node it.dist t
            | Some _ -> None)
          items
      in
      let n = List.length items in
      let n_truth = Hashtbl.length truth in
      match bad with
      | Some _ -> bad
      | None when n > k -> fail "%d items for k = %d" n k
      | None when n < k && Hashtbl.length seen < n_truth ->
          fail "%d distinct items of %d matches, but k = %d" (Hashtbl.length seen) n_truth k
      | None when exact ->
          (* The k nearest: nothing left out is closer than the
             farthest item returned. *)
          let far = List.fold_left (fun a (it : P.item) -> max a it.dist) 0 items in
          Hashtbl.fold
            (fun v d acc ->
              match acc with
              | Some _ -> acc
              | None when d < far && not (Hashtbl.mem seen v) ->
                  fail "node %d at true distance %d left out, farthest returned %d" v d far
              | None -> None)
            truth None
      | None -> None)
  | _, Dist _ -> fail "distance answer to a stream request"

(* Check every sample; [states s] is the collection served in state s.
   A sample passes when one state of its range accepts it. Returns the
   failures with their reasons. *)
let check ~exact ~states samples =
  let cache = Hashtbl.create 8 in
  let state s =
    match Hashtbl.find_opt cache s with
    | Some st -> st
    | None ->
        let st = state_of (states s) in
        Hashtbl.replace cache s st;
        st
  in
  List.filter_map
    (fun s ->
      let rec go i first =
        if i > s.hi then first
        else
          match check_state ~exact (state i) s with
          | None -> None
          | Some reason -> go (i + 1) (if first = None then Some reason else first)
      in
      Option.map (fun reason -> (s, reason)) (go s.lo None))
    samples

(* A deliberately wrong answer, for the self-check: the first
   DESCENDANTS item moves to distance 0, which only the excluded start
   node can have. *)
let corrupt samples =
  let rec go = function
    | [] -> failwith "no DESCENDANTS answer with items was recorded to corrupt"
    | ({ req = P.Descendants _; answer = Items (it :: rest); _ } as s) :: tl ->
        { s with answer = Items ({ it with dist = 0 } :: rest) } :: tl
    | s :: tl -> s :: go tl
  in
  go samples
