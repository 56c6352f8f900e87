(** A complete disk-resident HOPI deployment: the 2-hop labels in a
    {!Disk_labels} heap plus a {!Fx_store.Btree} tag directory keyed by
    [(tag << 32) | node], so a descendants query [a//w] runs entirely
    from disk — one range scan for the candidates of tag [w], then
    [L_out(a)] fetched once and joined against each candidate's
    [L_in] (1 + |w| label fetches) — mirroring the paper's Oracle schema
    (a label table and a composite-key element table). {!evaluate}
    answers a whole start set the same way: |starts| + |targets|
    fetches, each label read once per request.

    [save] writes two files, [<path>.labels] and [<path>.tags]. *)

type t

val save : ?page_size:int -> path:string -> Path_index.data_graph -> Hopi.t -> unit

val open_ : ?pool_pages:int -> ?page_size:int -> ?stripes:int -> path:string -> unit -> t
(** [stripes] splits each file's buffer pool into independent lock
    stripes — see {!Fx_store.Pager.create}.
    @raise Fx_util.Codec.Corrupt on mangled stores. *)

val n_nodes : t -> int
val reachable : t -> int -> int -> bool
val distance : t -> int -> int -> int option

exception Cut of (int * int) list
(** Raised by a scan whose [stop] fired: the distance-sorted hits found
    before the cut — exact, but possibly missing candidates. *)

val descendants_by_tag :
  ?stop:(unit -> bool) -> t -> int -> int option -> (int * int) list
(** Distance-sorted, like the in-memory instance; [None] scans every
    element (the wildcard query). [stop] is polled before every 64th
    label fetch; once it answers [true] the scan raises {!Cut}. *)

val ancestors_by_tag :
  ?stop:(unit -> bool) -> t -> int -> int option -> (int * int) list
(** Like {!descendants_by_tag}, probing [distance node x]. *)

val evaluate :
  ?stop:(unit -> bool) -> t -> starts:int list -> target:int -> (int * int) list
(** [a//b] from a whole start set: every node [v] of tag id [target]
    that some start [s <> v] reaches, at the shortest such distance,
    sorted by (distance, node). A start never reaches itself, even on a
    cycle, so start and target tags may coincide. Each start's [L_out]
    and each target's [L_in] is fetched once. [stop] works as in
    {!descendants_by_tag}, across both passes; a cut before every start
    is folded in raises [Cut []]. *)

val nodes_by_tag : t -> int -> int list
(** Every node with the given tag id, ascending — one tag-directory
    range scan. Empty for an id the deployment does not know (negative
    ids included, so an unresolved tag name never probes the B-tree). *)

val restricted_descendants : t -> int -> Fx_graph.Bitset.t -> (int * int) list
val restricted_ancestors : t -> int -> Fx_graph.Bitset.t -> (int * int) list

val instance :
  ?pool_pages:int ->
  ?page_size:int ->
  path:string ->
  Path_index.data_graph ->
  Hopi.t ->
  Path_index.instance
(** Save the given in-memory index under [path] and expose the disk
    deployment as a Path Indexing Strategy, so the FliX Index Builder
    (via {!Fx_flix.Strategy_selector.Custom}) can keep chosen meta
    documents on disk while others stay in memory. The reported
    [size_bytes] is the on-disk footprint. *)

val stats : t -> Fx_store.Pager.stats * Fx_store.Pager.stats
(** (label file, tag file) buffer-pool statistics. *)

val stripe_stats : t -> Fx_store.Pager.stripe_stats list * Fx_store.Pager.stripe_stats list
(** (label file, tag file) per-stripe occupancy/contention counters. *)

val drop_pools : t -> unit
val close : t -> unit
