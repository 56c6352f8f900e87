(** Disk-resident 2-hop labels — the database-backed deployment of HOPI
    the paper actually benchmarked ("all strategies … store all
    information in database tables and do not explicitly cache
    information in main memory", Section 6).

    {!save_runs} lays a {!Two_hop.t} out in a {!Fx_store.Heap_file}
    clustered by caller-chosen groups ({!Disk_hopi} uses one group per
    tag): a run of [L_in] records per group, then a run of [L_out]
    records per group, a directory mapping each node to its two record
    handles, and a trailer locating the directory and naming the
    layout. {!open_} maps the file back with a bounded buffer pool.

    Two access paths share the records. A single label fetch
    ({!out_label}, {!in_label}) reads one record by handle — one pool
    access when it fits a page — and decodes it; a lone {!distance}
    probe costs two. A run {!scan} streams a whole group sequentially
    and hands each record to the caller in place, through a {!cursor},
    so a set-at-a-time join ({!join_cursor}) decodes nothing into
    arrays and copies no record. The D1 bench drives both, cold and
    warm. *)

type t

val save : ?page_size:int -> path:string -> Two_hop.t -> unit
(** Write a label store with every node in one group, in node order;
    overwrites an existing file. *)

type run = { lo : int; hi : int }
(** The byte extent [\[lo, hi)] of a run: consecutive label records,
    one per node of a group, in the group's order. *)

val save_runs :
  ?page_size:int -> path:string -> groups:int array array -> Two_hop.t -> (run * run) array
(** Write a label store clustered by [groups], which must partition the
    nodes (else [Invalid_argument]): each group's in-run holds the
    [L_in] records of its nodes in the order given, the in-runs follow
    one another in group order, and the out-runs ([L_out]) come after
    them the same way. Returns each group's (in-run, out-run). *)

val open_ : ?pool_pages:int -> ?page_size:int -> ?stripes:int -> string -> t
(** [pool_pages] (default 256) bounds the buffer pool; [stripes]
    (default 8) splits it — see {!Fx_store.Pager.create}.
    @raise Fx_util.Codec.Corrupt on a mangled store, or one written in
    the older node-ordered layout (its message names the layout). *)

val n_nodes : t -> int
val reachable : t -> int -> int -> bool
val distance : t -> int -> int -> int option

type label = (int * int) array
(** A decoded label: (hop rank, distance) entries ascending by rank,
    as {!Two_hop.raw_out_label} lays them out. *)

val out_label : t -> int -> label
val in_label : t -> int -> label
(** Fetch and decode [L_out(v)] / [L_in(v)]: one record read.
    @raise Invalid_argument on an out-of-range node. *)

val join : label -> label -> int option
(** [join (out_label t x) (in_label t y)] is [distance t x y] for
    [x <> y]: the merge join of the two labels on their common hops. *)

type cursor
(** An in-place view of one label record during {!scan}. *)

val scan : t -> run -> int array -> (int -> cursor -> unit) -> unit
(** [scan t run nodes f] streams [run] — written for the group [nodes]
    — through the buffer pool a few pages at a time, calling [f v c]
    for each node [v] in order with a cursor over its label's entries,
    read in place (no per-record copy or decoded array). Entries [f]
    leaves unread are still decoded afterwards, so every record is
    checked whole: magic, entry count, varints, trailing bytes.
    @raise Fx_util.Codec.Corrupt on a mangled record or a run whose
    record count differs from [nodes]. *)

val join_cursor : label -> cursor -> int option
(** [join_cursor l c] is [join l] applied to [c]'s label (the join is
    symmetric): the merge join on common hops, reading [c] only as far
    as [l] can still match. *)

val iter_cursor : cursor -> (int -> int -> unit) -> unit
(** Feed the remaining (hop rank, distance) entries, ascending by rank. *)

val stats : t -> Fx_store.Pager.stats

val stripe_stats : t -> Fx_store.Pager.stripe_stats list
val reset_stats : t -> unit
val drop_pool : t -> unit
(** Cold-cache switch: empty the buffer pool. *)

val close : t -> unit
