(** The portal closure: a precomputed exact distance oracle over the
    {!Portal_graph}, built on the weighted 2-hop labels of
    {!Fx_index.Two_hop.build_weighted} at shard-plan time.

    The coordinator answers any cross-shard portal distance with one
    in-memory label join: a shortest path between portals crosses
    shards only over cross links, so its length is a portal-graph
    distance (see DESIGN.md for the decomposition argument). Document
    roots are in the oracle too (anchors), so root-anchored queries
    skip even the initial exit-probe wave.

    The closure ships inside the manifest under the versioned
    [FXSHARDMAN2] format; the retired plan-only [FXSHARDMAN1] format is
    refused, since a coordinator cannot serve without a closure. The
    [epoch] stamp — {!Shard_plan.digest} of the plan the closure was
    built for — guards against joining a closure to a different plan. *)

type t

val build :
  plan:Shard_plan.t ->
  local_dist:(shard:int -> a:int -> b:int -> int option) ->
  t
(** Build the portal graph with [local_dist] (see {!Portal_graph.build})
    and compress it into 2-hop labels. Cost is one [local_dist] call
    per (source, exit) pair per shard plus the labeling itself. *)

val distance : t -> int -> int -> int option
(** Exact global distance between two oracle nodes (global ids), [None]
    when unreachable or when either id is not in the oracle. *)

val covers : t -> int -> bool
(** Whether a global id is an oracle node (portal or anchor root). *)

val epoch : t -> int
(** The {!Shard_plan.digest} of the plan this closure was built for. *)

val matches : t -> Shard_plan.t -> bool
(** [epoch t = Shard_plan.digest plan] — joining a closure against a
    plan it does not match is never exact, so callers must refuse it. *)

val n_nodes : t -> int
val label_entries : t -> int
val build_seconds : t -> float
(** Build wall time as recorded at build, surviving (de)serialization —
    the [flix_closure_build_seconds] gauge reports it on load. *)

val describe : t -> string

(** {1 The versioned manifest} *)

val save_manifest : path:string -> plan:Shard_plan.t -> t option -> unit
(** Write the [FXSHARDMAN2] manifest: the plan body plus the closure
    section ([None] writes a manifest no coordinator will serve).
    Raises [Sys_error] on I/O failure. *)

val load_manifest : string -> Shard_plan.t * t option
(** Load an [FXSHARDMAN2] manifest: the plan and its closure section.
    @raise Fx_util.Codec.Corrupt on mangled or truncated input
    (including truncation inside the closure section), and on a
    retired [FXSHARDMAN1] file, naming "rebuild with --build-shards".
    @raise Sys_error if the file cannot be read. *)
