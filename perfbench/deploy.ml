(* Deployments under test: each workload's collection, indexes, stores
   and in-process servers, built the way bin/flix_serve builds them.
   [setup] times its phases; they add up to the benchmark's set-up
   time (setup_s). *)

module C = Fx_xml.Collection
module Server = Fx_server.Server
module Pi = Fx_index.Path_index
module Hopi = Fx_index.Hopi
module Disk_hopi = Fx_index.Disk_hopi
module Catalog = Fx_index.Catalog
module SP = Fx_shard.Shard_plan
module PC = Fx_shard.Portal_closure
module Coord = Fx_shard.Coordinator

type kind = Mem_rw | Disk_scan | Coord2

let kind_of_string = function
  | "mem-rw" -> Some Mem_rw
  | "disk-scan" -> Some Disk_scan
  | "coord2" -> Some Coord2
  | _ -> None

let kind_name = function Mem_rw -> "mem-rw" | Disk_scan -> "disk-scan" | Coord2 -> "coord2"

(* Documents the collection is generated with when --docs is not given. *)
let default_docs = function Mem_rw -> 1500 | Disk_scan | Coord2 -> 400

(* mem-rw generates this many documents beyond the served ones; the
   load ingests them one at a time (and evicts each again). *)
let n_extra = 64

type t = {
  base : C.t;  (** the served collection *)
  extra : (Fx_xml.Xml_types.document * string) array;
      (** mem-rw ingest documents with their serialized XML *)
  input_bytes : int;  (** serialized XML of the served documents *)
  index_bytes : int;
  front : Server.t;  (** the server the clients talk to *)
  shards : Server.t array;
  disks : Disk_hopi.t array;  (** every pager-backed store being served *)
  coord : Coord.t option;
  phases : (string * float) list;  (** setup phase -> seconds *)
  dir : string;
}

let timed f =
  let x, ns = Fx_util.Stopwatch.time_ns f in
  (x, Int64.to_float ns /. 1e9)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let file_size path = (Unix.stat path).Unix.st_size
let store_files prefix = [ prefix ^ ".labels"; prefix ^ ".tags"; prefix ^ ".catalog" ]

let server_config workers = { Server.default_config with workers }

(* Save one global HOPI deployment (labels, tag B-tree, catalog) under
   [prefix], as flix_serve --index-dir does. *)
let save_store prefix coll hopi =
  let dg = { Pi.graph = C.graph coll; tag = C.tag coll } in
  Disk_hopi.save ~path:prefix dg hopi;
  Catalog.save ~path:(prefix ^ ".catalog") (Catalog.of_collection coll)

(* The collection is the same for every run, generated with
   bin/flix_serve's default seed; --seed varies the requests. *)
let collection_seed = 7

let generate ~n_docs ~extra =
  let docs =
    Fx_workload.Dblp_gen.generate
      { Fx_workload.Dblp_gen.default with n_docs = n_docs + extra; seed = collection_seed }
  in
  let base = List.filteri (fun i _ -> i < n_docs) docs in
  let tail = List.filteri (fun i _ -> i >= n_docs) docs in
  (C.build base, tail)

let setup kind ~n_docs ~workers ~dir =
  mkdir_p dir;
  let (base, tail), generate_s =
    timed (fun () -> generate ~n_docs ~extra:(if kind = Mem_rw then n_extra else 0))
  in
  let input_bytes =
    List.fold_left
      (fun acc d -> acc + String.length (Fx_xml.Xml_print.to_string d))
      0 (C.documents base)
  in
  let extra = Array.of_list (List.map (fun d -> (d, Fx_xml.Xml_print.to_string d)) tail) in
  let make ?(shards = [||]) ?(disks = [||]) ?coord ~index_bytes front phases =
    {
      base;
      extra;
      input_bytes;
      index_bytes;
      front;
      shards;
      disks;
      coord;
      phases = ("setup.generate_s", generate_s) :: phases;
      dir;
    }
  in
  match kind with
  | Mem_rw ->
      let flix, build_s = timed (fun () -> Fx_flix.Flix.build base) in
      let front, start_s =
        timed (fun () ->
            Server.start_backend ~config:(server_config workers) (Server.In_memory flix))
      in
      make front ~index_bytes:(Fx_flix.Flix.index_size_bytes flix)
        [ ("setup.build_s", build_s); ("setup.start_s", start_s) ]
  | Disk_scan ->
      let hopi, build_s =
        timed (fun () -> Hopi.build { Pi.graph = C.graph base; tag = C.tag base })
      in
      let prefix = Filename.concat dir "index" in
      let (disk, catalog), save_open_s =
        timed (fun () ->
            save_store prefix base hopi;
            (* The pool holds about a quarter of the store: each of the
               two page files gets an eighth of the total pages. *)
            let pages = (file_size (prefix ^ ".labels") + file_size (prefix ^ ".tags")) / 4096 in
            let disk = Disk_hopi.open_ ~pool_pages:(max 16 (pages / 8)) ~path:prefix () in
            (disk, Catalog.load (prefix ^ ".catalog")))
      in
      let front, start_s =
        timed (fun () ->
            Server.start_backend ~config:(server_config workers)
              (Server.On_disk { hopi = disk; catalog }))
      in
      let index_bytes = List.fold_left (fun a p -> a + file_size p) 0 (store_files prefix) in
      make front ~disks:[| disk |] ~index_bytes
        [
          ("setup.build_s", build_s);
          ("setup.save_open_s", save_open_s);
          ("setup.start_s", start_s);
        ]
  | Coord2 ->
      let (plan, subs, hopis), build_s =
        timed (fun () ->
            let plan = SP.plan ~n_shards:2 base in
            let subs = Array.map C.build (SP.shard_documents plan base) in
            let hopis =
              Array.map (fun sub -> Hopi.build { Pi.graph = C.graph sub; tag = C.tag sub }) subs
            in
            (plan, subs, hopis))
      in
      let closure, closure_s =
        timed (fun () ->
            PC.build ~plan ~local_dist:(fun ~shard ~a ~b -> Hopi.distance hopis.(shard) a b))
      in
      let manifest = Filename.concat dir "manifest.shards" in
      let prefixes = Array.mapi (fun i _ -> Filename.concat dir (Printf.sprintf "shard%d" i)) subs in
      let (stores, plan, closure), save_open_s =
        timed (fun () ->
            Array.iteri (fun i sub -> save_store prefixes.(i) sub hopis.(i)) subs;
            PC.save_manifest ~path:manifest ~plan (Some closure);
            let plan, closure = PC.load_manifest manifest in
            (* The shard pools hold their whole stores. *)
            let stores =
              Array.map
                (fun p ->
                  ( Disk_hopi.open_ ~pool_pages:16_384 ~path:p (),
                    Catalog.load (p ^ ".catalog") ))
                prefixes
            in
            (stores, plan, closure))
      in
      let (front, shards, coord), start_s =
        timed (fun () ->
            let shards =
              Array.map
                (fun (hopi, catalog) ->
                  Server.start_backend ~config:(server_config workers)
                    (Server.On_disk { hopi; catalog }))
                stores
            in
            let coord =
              Coord.create ~query_cache:256 ?closure ~plan
                ~shards:
                  (Array.to_list (Array.map (fun s -> ("127.0.0.1", Server.port s)) shards))
                ()
            in
            let front =
              Server.start_backend ~config:(server_config workers)
                (Server.Custom (Coord.backend coord))
            in
            Fx_server.Metrics.register_collector (Server.metrics front)
              (Coord.metric_lines coord);
            (front, shards, coord))
      in
      let index_bytes =
        file_size manifest
        + Array.fold_left
            (fun a p -> List.fold_left (fun a f -> a + file_size f) a (store_files p))
            0 prefixes
      in
      make front ~shards ~disks:(Array.map fst stores) ~coord ~index_bytes
        [
          ("setup.build_s", build_s);
          ("setup.closure_s", closure_s);
          ("setup.save_open_s", save_open_s);
          ("setup.start_s", start_s);
        ]

let teardown t =
  Server.stop t.front;
  Option.iter Coord.close t.coord;
  Array.iter Server.stop t.shards;
  Array.iter Disk_hopi.close t.disks;
  rm_rf t.dir

(* Set up and tear down in a forked child; returns the child's phase
   times. Call it before this process starts any domain or thread. *)
let setup_in_child kind ~n_docs ~workers ~dir =
  flush_all ();
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      let code =
        try
          let t = setup kind ~n_docs ~workers ~dir in
          teardown t;
          let oc = Unix.out_channel_of_descr w in
          Marshal.to_channel oc t.phases [];
          flush oc;
          0
        with e ->
          prerr_endline ("set-up failed: " ^ Printexc.to_string e);
          1
      in
      Unix._exit code
  | pid ->
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let phases = try Some (Marshal.from_channel ic : (string * float) list) with End_of_file -> None in
      close_in ic;
      let _, status = Unix.waitpid [] pid in
      match (phases, status) with
      | Some p, Unix.WEXITED 0 -> p
      | _ -> failwith "set-up in a child process failed"
