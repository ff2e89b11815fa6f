(** Message delivery over the physical network.

    Sending an overlay message from peer [src] to peer [dst] schedules its
    delivery after the latency of the shortest physical path between the two
    hosts (plus a fixed per-message processing delay), charges link stress to
    each physical link on the path, and bumps the message counters.  The
    payload is an arbitrary closure, so protocol code reads naturally:

    {[ Underlay.send net ~src ~dst (fun () -> handle_join_request dst msg) ]} *)

type t

(** [create ~engine ~routing ~metrics ?stress ?trace ~processing_delay ()]
    wires an underlay.  [stress] enables per-link stress accounting
    (slightly more work per message as paths must be materialized);
    [trace] (default {!P2p_sim.Trace.disabled}) records every message as a
    ["message"] event; [processing_delay] (ms) models per-hop handling
    cost and is added once per overlay message. *)
val create :
  engine:P2p_sim.Engine.t ->
  routing:P2p_topology.Routing.t ->
  metrics:Metrics.t ->
  ?stress:P2p_topology.Link_stress.t ->
  ?trace:P2p_sim.Trace.t ->
  processing_delay:float ->
  unit ->
  t

(** The trace this underlay records into. *)
val trace : t -> P2p_sim.Trace.t

(** [send t ?op ~src ~dst f] delivers [f] at [now + delay src dst].
    Sending to self delivers after just the processing delay.  [op] stamps
    the traced ["message"] event with the operation id of the insert /
    lookup / join that caused it (see {!P2p_sim.Trace.begin_op}), making
    the operation's hop sequence replayable. *)
val send : t -> ?op:int -> src:int -> dst:int -> (unit -> unit) -> unit

(** [set_transmission_delay t f] installs an additional per-message delay
    [f ~src ~dst] (ms) — used to model heterogeneous access-link
    capacities: a message costs what the slower endpoint's link can
    carry. *)
val set_transmission_delay : t -> (src:int -> dst:int -> float) -> unit

(** [delay t ~src ~dst] is the one-way latency an overlay message
    experiences, including processing delay. *)
val delay : t -> src:int -> dst:int -> float

val engine : t -> P2p_sim.Engine.t
val metrics : t -> Metrics.t
val routing : t -> P2p_topology.Routing.t
