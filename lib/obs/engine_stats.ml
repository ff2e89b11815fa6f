(* Engine occupancy folded into the registry: the whole-engine figures
   under "engine/*", plus the process-wide late-cancel count. *)

module Engine = P2p_sim.Engine

let record reg engine =
  let set sub name v =
    Registry.set (Registry.gauge reg ~subsystem:sub ~name) v
  in
  set "engine" "events_executed"
    (float_of_int (Engine.events_executed engine));
  set "engine" "queue_high_water"
    (float_of_int (Engine.queue_high_water engine));
  (* cancels that arrived after their timer had already fired — a
     process-wide figure shared by the sim timer and the live transport's
     wall-clock wheel *)
  set "timer" "cancel_late" (float_of_int (P2p_sim.Timer.cancel_late ()))
