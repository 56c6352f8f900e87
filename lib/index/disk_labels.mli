(** Disk-resident 2-hop labels — the database-backed deployment of HOPI
    the paper actually benchmarked ("all strategies … store all
    information in database tables and do not explicitly cache
    information in main memory", Section 6).

    {!save} lays a {!Two_hop.t} out in a {!Fx_store.Heap_file}: one
    record per non-empty label, a directory mapping nodes to record
    handles, and a trailer locating the directory. {!open_} maps the
    file back with a bounded buffer pool. Every label fetch ({!out_label},
    {!in_label}) reads one record whose pages hit or miss the pool —
    exactly the regime behind the paper's absolute numbers. A lone
    {!distance} probe costs two fetches; set-at-a-time callers
    ({!Disk_hopi}) fetch each label once and reuse it through {!join}.
    The D1 bench drives this cold and warm. *)

type t

val save : ?page_size:int -> path:string -> Two_hop.t -> unit
(** Write a label store; overwrites an existing file. *)

val open_ : ?pool_pages:int -> ?page_size:int -> ?stripes:int -> string -> t
(** [pool_pages] (default 256) bounds the buffer pool; [stripes]
    (default 8) splits it — see {!Fx_store.Pager.create}.
    @raise Fx_util.Codec.Corrupt on a mangled store. *)

val n_nodes : t -> int
val reachable : t -> int -> int -> bool
val distance : t -> int -> int -> int option

type label = (int * int) array
(** A decoded label: (hop rank, distance) entries ascending by rank,
    as {!Two_hop.raw_out_label} lays them out. *)

val out_label : t -> int -> label
val in_label : t -> int -> label
(** Fetch and decode [L_out(v)] / [L_in(v)]: one record read, or none
    for an empty label. @raise Invalid_argument on an out-of-range node. *)

val join : label -> label -> int option
(** [join (out_label t x) (in_label t y)] is [distance t x y] for
    [x <> y]: the merge join of the two labels on their common hops. *)

val prefetch_all : t -> unit
(** Readahead for a full label sweep: stream the store's pages into
    the buffer pool's free room with large sequential reads. Advisory
    and never evicting — cheap to call before probing every node. *)

val stats : t -> Fx_store.Pager.stats

val stripe_stats : t -> Fx_store.Pager.stripe_stats list
val reset_stats : t -> unit
val drop_pool : t -> unit
(** Cold-cache switch: empty the buffer pool. *)

val close : t -> unit
