module Engine = P2p_sim.Engine
module Trace = P2p_sim.Trace
module Routing = P2p_topology.Routing
module Link_stress = P2p_topology.Link_stress

type t = {
  engine : Engine.t;
  routing : Routing.t;
  metrics : Metrics.t;
  stress : Link_stress.t option;
  processing_delay : float;
  mutable transmission_delay : (src:int -> dst:int -> float) option;
  trace : Trace.t;
}

let create ~engine ~routing ~metrics ?stress ?(trace = Trace.disabled)
    ~processing_delay () =
  if processing_delay < 0.0 then invalid_arg "Underlay.create: negative processing delay";
  {
    engine;
    routing;
    metrics;
    stress;
    processing_delay;
    transmission_delay = None;
    trace;
  }

let set_transmission_delay t f = t.transmission_delay <- Some f

(* hoisted so the per-message schedule call allocates no [Some] *)
let message_label = Some "message"

let delay t ~src ~dst =
  let transmission =
    match t.transmission_delay with Some f -> f ~src ~dst | None -> 0.0
  in
  if src = dst then t.processing_delay
  else Routing.distance t.routing src dst +. t.processing_delay +. transmission

let send t ?op ~src ~dst f =
  let path_hops =
    if src = dst then 0
    else begin
      (match t.stress with
       | Some stress -> Link_stress.charge_path stress (Routing.path t.routing src dst)
       | None -> ());
      Routing.hop_count t.routing src dst
    end
  in
  Metrics.record_message t.metrics ~physical_hops:path_hops;
  let message_delay = delay t ~src ~dst in
  (* guard: even a disabled trace pays a closure per [record_f] call
     (ikfprintf), and on a sampled trace an unsampled op would still pay
     the format machinery plus the [Some src]/[Some dst] wrappers — so
     decide sampling before building anything *)
  if
    Trace.enabled t.trace
    && (match op with None -> true | Some o -> Trace.sampled t.trace o)
  then
    Trace.record_f t.trace ~time:(Engine.now t.engine) ~tag:"message" ?op ~src
      ~dst "%.2f ms, %d links" message_delay path_hops;
  (* deliveries are never cancelled: the detached path skips the handle *)
  Engine.schedule_detached t.engine ~label:message_label ~delay:message_delay f

let engine t = t.engine
let trace t = t.trace
let metrics t = t.metrics
let routing t = t.routing
