(** The scatter-gather coordinator: N shard servers behind one FliX
    line-protocol endpoint.

    The coordinator plugs into {!Fx_server.Server} as a [Custom]
    backend, so admission control, deadlines, metrics, and incremental
    [ITEM] flushing come from the server; this module owns the fan-out
    and the distributed-distance arithmetic.

    {b Query evaluation.} A path between nodes in different shards
    decomposes into within-shard segments joined by cross-shard links
    (weight 1), and the manifest knows every such link. Between its
    first exit from the start's shard and its last entry into the
    target's shard, such a path runs over {e portals} — the cross-link
    endpoints — so its middle is a path in the {!Portal_graph}. The
    {!Portal_closure} (2-hop labels over that graph, built offline with
    the plan and shipped in the manifest) answers every such middle leg
    with one in-memory label join. Only the first and last legs, which
    stay inside one shard, are probed ([CONNECTED], [ANCESTORS],
    [NDESCENDANTS] sub-requests), and each verb sends them as one
    pipelined [BATCH] per shard:

    - [DESCENDANTS]/[NDESCENDANTS]: the start's own stream, then each
      entry portal's distance (a label join from the start when the
      portal graph carries it — a document root or an entry portal —
      else the start's exit probes joined through the closure) and an
      offset [NDESCENDANTS] stream per reachable entry.
    - [ANCESTORS]: the mirror image over exit portals, joined through
      the entry portals of the node's own shard.
    - [EVALUATE]: phase 1 fans the query to every shard in parallel
      (per-shard top-[k] by shard distance covers the global top-[k]);
      phase 2 seeds each link target from a per-link [ANCESTORS] probe
      (nearest start-tag node above the link source), joins the seeds to
      every entry portal through the closure, and streams from there.
    - [CONNECTED]: the direct same-shard probe plus exit legs of [a] and
      entry legs of [b] in one batch, joined through the closure.

    Portal result streams are fetched lazily — nearest first, stopping
    once the remaining streams start past the merge's k-th candidate
    distance, which cannot change the top [k]. There is no wave search:
    the closure already holds every portal-to-portal distance. Label
    joins are counted in [flix_coord_closure_lookups_total]; probe
    round trips and the batch-size distribution are exported as
    [flix_shard_probe_rpcs_total] / [flix_shard_probe_subs_total] /
    [flix_shard_probe_batch_size].

    All result streams are k-way-merged by distance with
    {!Fx_graph.Priority_queue}, deduplicating nodes on first (nearest)
    occurrence, so the merged stream keeps FliX's
    approximately-ascending-distance contract.

    {b Fault handling.} Shard calls carry the remaining deadline and
    ride {!Shard_client}'s retry/backoff/receive-timeout layer. When a
    shard stays down, its contribution is dropped and the response is
    degraded instead of failed: stream verbs answer a [PARTIAL]
    trailer, [RESOLVE] answers [PARTIAL 0], and [CONNECTED] answers a
    possibly-overestimated [DIST] (any path found is a real path) or
    [PARTIAL 0] when no path survives. Per-shard failures are counted
    in [flix_shard_errors_total]; fan-out call latencies land in the
    [flix_shard_fanout_latency_ms] histogram (see {!metric_lines}). *)

type t

val create :
  ?cache_cap:int ->
  ?query_cache:int ->
  ?closure:Portal_closure.t ->
  plan:Shard_plan.t ->
  shards:(string * int) list ->
  unit ->
  t
(** [shards] lists one [host, port] per plan shard, in shard order.
    Raises [Invalid_argument] when the count does not match the plan.
    Probe results ([CONNECTED] distances, nearest-start [ANCESTORS],
    portal streams) are memoized up to [cache_cap] entries per table
    (default 65536); a full table is reset. The memo only spares
    probes: every request reads its answers from its own probe waves,
    so any [cache_cap] gives the same answers.

    [query_cache] enables the coordinator-side {!Coord_cache} over
    merged [EVALUATE] results with the given LRU capacity; [None]
    (the default) disables it. Only clean (non-[TIMEOUT],
    non-[PARTIAL]) merges are cached.

    [closure] is the portal-closure oracle, and it is required: raises
    [Invalid_argument] (naming the fix, "rebuild with --build-shards")
    when it is absent or {!Portal_closure.matches} does not hold for
    [plan], so answers are never joined against the wrong plan. It is
    optional in the signature only so callers can pass a manifest's
    [closure option] straight through. The closure's epoch is folded
    into the [query_cache] key. *)

val closure_lookups_total : t -> int
(** Closure label joins performed — the number behind
    [flix_coord_closure_lookups_total]. *)

val closure_fallbacks_total : t -> int
(** Always 0: the closure is mandatory, so no request falls back to
    probing portal distances. Kept for callers that still report it. *)

val backend : t -> Fx_server.Server.custom
(** Serve with
    [Server.start_backend (Custom (Coordinator.backend t))]. *)

val metric_lines : t -> unit -> string list
(** Prometheus series for the coordinator: register on the serving
    server with {!Fx_server.Metrics.register_collector}. *)

val stats_lines : t -> string list
(** The STATS payload: plan summary, shard addresses, error counters. *)

val shard_errors_total : t -> int
(** Failed shard attempts across all shards (sum of the per-shard
    counters) — the number behind [flix_shard_errors_total]. *)

val probe_rpcs_total : t -> int
(** Wire round trips to shards across all shard clients — the number
    behind [flix_shard_probe_rpcs_total]. *)

val probe_subs_total : t -> int
(** Sub-requests carried by those round trips; the spread between the
    two counters is the batching win ([flix_shard_probe_subs_total]). *)

val query_cache_stats : t -> Coord_cache.stats option
(** Entries/hits/misses/epoch of the [EVALUATE] result cache, or
    [None] when [create] was not given [query_cache]. *)

val reload :
  ?probe_deadline_ms:int ->
  ?reload_deadline_ms:int ->
  ?closure:Portal_closure.t ->
  t ->
  plan:Shard_plan.t ->
  (t, string) result
(** Shard-by-shard hot reload: check the candidate closure against
    [plan], then probe every shard ([EPOCH], bounded by
    [probe_deadline_ms], default 2s), then fan [RELOAD] out to each
    (bounded by [reload_deadline_ms], default 120s), then build a
    replacement coordinator over [plan] (the re-read manifest's plan)
    with fresh connections to the same addresses. Any failure — a dead
    shard found by the probe, a shard lost or refusing mid-reload —
    returns [Error] and leaves [t] untouched, so the caller keeps
    serving the old epoch whole; there is no mixed state. On success
    the caller publishes the returned coordinator (e.g. via the
    server's snapshot swap) and eventually {!close}s the old one.

    [closure] (default: the old coordinator's) is the candidate portal
    closure for the new plan — pass the one from the re-read manifest.
    When it does not match [plan] the reload returns [Error] before any
    shard is probed or reloaded, and the old coordinator keeps serving.
    The merged-answer cache survives only when the plan digest is
    unchanged (node ids and shard contents identical); otherwise it is
    invalidated whole. *)

val close : t -> unit
(** Close pooled shard connections. *)
