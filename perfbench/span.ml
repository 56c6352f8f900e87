(* Trace spans, kept in memory and written out when the run ends. A span
   covers one call the benchmark makes into a layer; spans of one
   replayed request share its request id. *)

type t = {
  id : int;
  name : string;
  start_ns : int64;
  end_ns : int64;
  parent : int;  (** -1 for a root span *)
  req : int;
}

let spans = ref []
let next_id = ref 0

(* Run [f id] inside a new span; [f] gets the span id so it can open
   children. Returns [f]'s result and the span's duration in ns. *)
let record ?(parent = -1) ~req name f =
  let id = !next_id in
  incr next_id;
  let start_ns = Fx_util.Stopwatch.now_ns () in
  let x = f id in
  let end_ns = Fx_util.Stopwatch.now_ns () in
  spans := { id; name; start_ns; end_ns; parent; req } :: !spans;
  (x, Int64.to_float (Int64.sub end_ns start_ns))

let duration s = Int64.to_float (Int64.sub s.end_ns s.start_ns)

(* Self time: a span's duration minus the part its children cover
   (children of one parent never overlap here: the replay is serial). *)
let self_times all =
  let child_ns = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_ns s.parent
          (duration s +. Option.value ~default:0.0 (Hashtbl.find_opt child_ns s.parent)))
    all;
  List.map (fun s -> (s, duration s -. Option.value ~default:0.0 (Hashtbl.find_opt child_ns s.id))) all

let to_json oc all =
  output_string oc "[";
  List.iteri
    (fun i s ->
      Printf.fprintf oc "%s\n{\"id\":%d,\"name\":%S,\"start_ns\":%Ld,\"end_ns\":%Ld,\"parent\":%d,\"req\":%d}"
        (if i = 0 then "" else ",")
        s.id s.name s.start_ns s.end_ns s.parent s.req)
    all;
  output_string oc "]"
