(* The closed-loop load: one generator thread per connection, each
   sending its next request only after the previous reply arrived. *)

module P = Fx_server.Protocol
module Client = Fx_server.Server_client
module Sw = Fx_util.Stopwatch

(* Operation kinds, the index into per-verb tables. *)
let op_names = [| "descendants"; "ancestors"; "connected"; "evaluate"; "ingest"; "evict" |]
let n_ops = Array.length op_names

let op_index = function
  | Reqgen.Descendants -> 0
  | Reqgen.Ancestors -> 1
  | Reqgen.Connected -> 2
  | Reqgen.Evaluate -> 3

let ingest_op = 4
let evict_op = 5

(* Why an operation failed. *)
type failure = Err | Busy | Timeout | Partial | Transport

let failure_names =
  [ (Err, "err"); (Busy, "busy"); (Timeout, "timeout"); (Partial, "partial"); (Transport, "transport") ]

(* One connection's record of a phase. *)
type record = {
  mutable lat_ms : float array;  (** round trip; infinity for a failure *)
  mutable end_ms : float array;  (** completion, ms after the phase began *)
  mutable ops : int array;
  mutable len : int;
  failures : (int * failure, int) Hashtbl.t;  (** (op, failure) -> count *)
  mutable samples : Oracle.sample list;
}

let new_record () =
  { lat_ms = Array.make 4096 0.0; end_ms = Array.make 4096 0.0; ops = Array.make 4096 0;
    len = 0; failures = Hashtbl.create 8; samples = [] }

(* The phase clock [add] stamps completions with. *)
let phase_start = ref (Sw.start ())

let add r op ms =
  if r.len = Array.length r.lat_ms then begin
    let grow a fill = Array.append a (Array.make (Array.length a) fill) in
    r.lat_ms <- grow r.lat_ms 0.0;
    r.end_ms <- grow r.end_ms 0.0;
    r.ops <- grow r.ops 0
  end;
  r.lat_ms.(r.len) <- ms;
  r.end_ms.(r.len) <- Sw.elapsed_ms !phase_start;
  r.ops.(r.len) <- op;
  r.len <- r.len + 1

let fail r op f =
  add r op infinity;
  let key = (op, f) in
  Hashtbl.replace r.failures key (1 + Option.value ~default:0 (Hashtbl.find_opt r.failures key))

(* The mem-rw write path: every [admin_every] reads across all
   connections, one INGEST of the next fresh document or one EVICT of
   the document ingested last. [started] and [done_] count admin
   operations begun and answered; state s of the collection is the one
   after s answered operations (odd: one extra document live). *)
type admin = {
  docs : (string * string) array;
  admin_every : int;
  reads : int Atomic.t;
  started : int Atomic.t;
  done_ : int Atomic.t;
  lock : Mutex.t;
  mutable ingest_stats : (int * int) list;  (** (reused, extended) per ingest *)
  on_ingest : unit -> int * int;  (** read the index builder's counters *)
}

let new_admin ~docs ~admin_every ~on_ingest =
  { docs; admin_every; reads = Atomic.make 0; started = Atomic.make 0; done_ = Atomic.make 0;
    lock = Mutex.create (); ingest_stats = []; on_ingest }

let run_admin a client r =
  Mutex.lock a.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock a.lock) (fun () ->
      let j = Atomic.get a.done_ in
      if j / 2 < Array.length a.docs then begin
        let name, xml = a.docs.(j / 2) in
        let op = if j mod 2 = 0 then ingest_op else evict_op in
        Atomic.incr a.started;
        let sw = Sw.start () in
        let reply =
          if op = ingest_op then Client.ingest client [ (name, xml) ] else Client.evict client [ name ]
        in
        let ms = Sw.elapsed_ms sw in
        match reply with
        | Ok (Client.Value _) ->
            Atomic.incr a.done_;
            if op = ingest_op then a.ingest_stats <- a.on_ingest () :: a.ingest_stats;
            add r op ms
        | Ok Client.Busy -> fail r op Busy
        | Ok (Client.Server_error _) -> fail r op Err
        | Error _ -> fail r op Transport
      end)

(* Oracle samples: every [sample_every]-th read of a connection, at most
   [max_samples] per connection and phase. *)
let sample_every = 20
let max_samples = 250

let classify (resp : P.response) =
  match resp with
  | P.Busy -> Error Busy
  | P.Err _ -> Error Err
  | P.Items { timed_out = true; _ } -> Error Timeout
  | P.Items { partial = true; _ } -> Error Partial
  | P.Items { items; _ } -> Ok (Oracle.Items items)
  | P.Dist d -> Ok (Oracle.Dist d)
  | P.Pong | P.Ok_done | P.Lines _ | P.Epoch _ -> Error Err

(* Run every connection for [seconds]; returns one record per
   connection and the wall time of the phase. *)
let run ~port ~seconds ~streams ?admin () =
  let conns = Array.length streams in
  let records = Array.init conns (fun _ -> new_record ()) in
  let t0 = Sw.start () in
  phase_start := t0;
  let limit_ms = seconds *. 1000.0 in
  let worker i =
    let r = records.(i) in
    let client = ref (Client.connect ~port ()) in
    let n = ref 0 in
    while Sw.elapsed_ms t0 < limit_ms do
      let req = Reqgen.next streams.(i) in
      let op = match Reqgen.verb_of_request req with Some v -> op_index v | None -> 0 in
      let lo = match admin with Some a -> Atomic.get a.done_ | None -> 0 in
      let sw = Sw.start () in
      let reply = Client.request !client req in
      let ms = Sw.elapsed_ms sw in
      (match reply with
      | Error _ ->
          fail r op Transport;
          Client.close !client;
          client := Client.connect ~port ()
      | Ok resp -> (
          match classify resp with
          | Error f -> fail r op f
          | Ok answer ->
              add r op ms;
              incr n;
              if !n mod sample_every = 0 && List.length r.samples < max_samples then begin
                let hi = match admin with Some a -> Atomic.get a.started | None -> 0 in
                r.samples <- { Oracle.req; answer; lo; hi } :: r.samples
              end));
      match admin with
      | Some a when (Atomic.fetch_and_add a.reads 1 + 1) mod a.admin_every = 0 ->
          run_admin a !client r
      | _ -> ()
    done;
    Client.close !client
  in
  let threads = List.init conns (fun i -> Thread.create worker i) in
  List.iter Thread.join threads;
  (records, Sw.elapsed_ms t0 /. 1000.0)
