(** Shortest-path routing over the physical graph.

    Overlay links are logical: a message sent over the overlay edge
    [u -> v] traverses the latency-shortest physical path from [u] to [v].
    Four constructors build the routers:

    - {!create} — link-state tables over a hierarchy derived from the
      graph itself.  A node is a stub node when it lies on the strictly
      smaller side of some bridge of its connected component; the rest
      is the core.  Every maximal stub region then hangs off the core
      through exactly one bridge, so the {!link_state} decomposition
      applies to any graph: a transit-stub network (its backbone is the
      core), a star (the hub), a tree (its centroid), a disconnected
      graph (one core per component).  Classification costs one
      O(V + E) bridge pass; the tables cost O(Σ sᵢ² + g²) memory for
      stub regions of sᵢ nodes and a core of g, and O(g · E log g) time
      for the core.  A bridgeless graph is all core, g = V: the V
      single-source runs and V² entries of a fully warmed {!dijkstra}
      cache, in three tables to its two.
      Queries are O(1) and allocate nothing beyond [distance]'s float.
    - {!link_state} — the same tables, with the caller naming the
      transit (core) nodes.
    - {!dijkstra} — per-source Dijkstra with an LRU-bounded cache.
      Exact on any graph with no precomputation; kept as the reference
      the table backends are tested against and the baseline the
      hot-path bench measures them against.
    - {!synthetic} — a fake uniform-latency clique for overlay-only
      scalability studies. *)

type t

(** [create graph] derives the core/stub hierarchy from the graph's
    bridges (see above) and precomputes link-state tables over it.
    Exact on any graph: distances agree with {!dijkstra} to float-sum
    tolerance. *)
val create : Graph.t -> t

(** [dijkstra graph] prepares a Dijkstra router; no paths are computed
    yet.  [max_cached_sources] caps how many single-source results stay
    cached (O(1) LRU eviction beyond it); the default is unlimited —
    O(n²) memory once every node has sent.
    @raise Invalid_argument when [max_cached_sources < 1]. *)
val dijkstra : ?max_cached_sources:int -> Graph.t -> t

(** [link_state graph ~is_transit] precomputes hierarchical routing
    tables over a transit-stub graph; [is_transit u] classifies node [u].
    Stub domains are the connected components of the stub-only subgraph;
    each must touch the backbone through at most one stub-to-transit edge
    (its access link) — a domain with none is simply unreachable from the
    outside.  Construction runs all-pairs shortest paths inside every
    domain and over the backbone; queries are table lookups.
    @raise Invalid_argument when some stub domain has several access
    links (the graph is not transit-stub shaped). *)
val link_state : Graph.t -> is_transit:(int -> bool) -> t

(** [synthetic ~nodes ~latency] is a router over [nodes] hosts in which
    every distinct pair is directly connected at a uniform [latency] (ms)
    — one physical hop, no path computation, O(1) memory.  This is the
    underlay for overlay-scalability runs (the million-peer sweep in
    [bench/scale.ml]) where per-source shortest-path state is
    unaffordable and physical path diversity is not under study.
    {!graph} returns an edgeless placeholder of [nodes] nodes.
    @raise Invalid_argument when [nodes < 0] or [latency <= 0]. *)
val synthetic : nodes:int -> latency:float -> t

(** [distance t u v] is the latency of the shortest path.  [infinity] when
    unreachable. *)
val distance : t -> int -> int -> float

(** [path t u v] is the node sequence [u; ...; v] of a shortest path.
    @raise Not_found when unreachable. *)
val path : t -> int -> int -> int list

(** [hop_count t u v] is the number of physical links on a shortest path;
    0 when [u = v].  Never materializes the path: the Dijkstra backend
    walks the predecessor chain, the link-state backend reads hop tables.
    @raise Not_found when unreachable. *)
val hop_count : t -> int -> int -> int

(** [update_link t u v ~latency] changes the weight of the existing edge
    [u -- v] and re-derives only the routing state the change can affect:
    the Dijkstra backend drops its cache; the link-state backend rebuilds
    the one stub domain (intra-domain edge), the backbone tables
    (transit-transit edge), or just the domain's way up to the backbone
    (stub-to-transit edge).  Latencies do not change which edges are
    bridges, so a {!create} router keeps its classification.
    @raise Invalid_argument on a {!synthetic} router; [Not_found] when
    the edge is absent. *)
val update_link : t -> int -> int -> latency:float -> unit

(** [refresh t] recomputes all routing state from the current graph.
    Required after structural changes ([Graph.add_edge]) that
    {!update_link} does not cover; a {!create} router derives its
    core/stub classification again, a {!link_state} router keeps the
    caller's.  No-op for {!synthetic}. *)
val refresh : t -> unit

(** [eccentricity t u] is the maximum finite distance from [u]. *)
val eccentricity : t -> int -> float

(** [graph t] is the underlying graph. *)
val graph : t -> Graph.t
