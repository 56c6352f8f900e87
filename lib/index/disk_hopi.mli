(** A complete disk-resident HOPI deployment, clustered by tag as the
    element lists of an XML database are: {!Disk_labels} keeps each
    tag's label records together — the [L_in] of its nodes in one
    contiguous in-run, their [L_out] in one out-run — and a small tag
    directory records each tag's nodes and run extents. A descendants
    query [a//w] fetches [L_out(a)] once, then reads tag [w]'s in-run
    sequentially, a few pages at a time, merge-joining each record in
    place; ancestors read the out-run the same way. {!evaluate} folds
    the start set's out-labels into a hub table and scores the target
    tag's in-run in one scan. This mirrors the paper's Oracle schema (a
    label table next to an element table keyed by tag), with the label
    table clustered on tag.

    [save] writes two files: [<path>.labels] (the runs, plus a
    node → record directory for single-label fetches) and [<path>.tags]
    (the tag directory, read once by [open_]). Stores written in the
    older node-ordered layout, with a B-tree tag directory, are refused
    with {!Fx_util.Codec.Corrupt}. *)

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
    tag's run (the wildcard query). [stop] is polled before every 64th
    record scored; once it answers [true] the scan raises {!Cut}. *)

val ancestors_by_tag :
  ?stop:(unit -> bool) -> t -> int -> int option -> (int * int) list
(** Like {!descendants_by_tag}, over out-runs: [distance v node] for
    each [v] of the tag. *)

val evaluate :
  ?stop:(unit -> bool) -> t -> starts:int list -> target:int -> (int * int) list
(** [a//b] from a whole start set: every node [v] of tag id [target]
    that some start [s <> v] reaches, at the shortest such distance,
    sorted by (distance, node). A start never reaches itself, even on a
    cycle, so start and target tags may coincide. Each start's [L_out]
    is fetched once; the targets are scored in one scan of the target
    tag's in-run. [stop] works as in {!descendants_by_tag}, counting
    start fetches and targets scored alike; a cut before every start is
    folded in raises [Cut []]. *)

val nodes_by_tag : t -> int -> int list
(** Every node with the given tag id, ascending — a lookup in the tag
    directory held in memory, no page read. Empty for an id the
    deployment does not know (negative ids included). *)

val restricted_descendants : t -> int -> Fx_graph.Bitset.t -> (int * int) list
val restricted_ancestors : t -> int -> Fx_graph.Bitset.t -> (int * int) list
(** Candidates from a bitset instead of a tag: each member's opposite
    label is fetched by its node's record handle. *)

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
(** (label file, tag file) buffer-pool statistics. The tag file is
    read only by [open_]. *)

val stripe_stats : t -> Fx_store.Pager.stripe_stats list * Fx_store.Pager.stripe_stats list
(** (label file, tag file) per-stripe occupancy/contention counters. *)

val drop_pools : t -> unit
val close : t -> unit
