(** Engine occupancy gauges.

    [record reg engine] snapshots the engine into [reg]:
    ["engine/events_executed"] and ["engine/queue_high_water"], plus
    ["timer/cancel_late"] (process-wide cancels of already-fired
    timers).

    Pull-style like {!Gc_stats}: call it from the {!Sampler}'s
    [on_sample] hook for a timeline, and once before exporting final
    metrics. *)

val record : Registry.t -> P2p_sim.Engine.t -> unit
