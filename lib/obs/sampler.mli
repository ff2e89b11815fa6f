(** Poll-driven time-series sampler: counter/gauge snapshots on a
    simulated-time cadence, exported as timeline JSONL.

    The sampler never schedules engine events (a periodic timer would
    keep the queue non-empty and [Engine.run] would never return);
    instead the run's drain loop calls {!poll} between engine steps and a
    snapshot is taken whenever simulated time has crossed the next due
    point. *)

type t

(** [create ~interval reg] samples [reg] at most once per [interval]
    simulated ms.  [on_sample] (if given) runs immediately before every
    snapshot — the place to refresh pull-style gauges (GC deltas,
    engine occupancy) that nobody updates eagerly.
    @raise Invalid_argument if [interval <= 0]. *)
val create : interval:float -> ?on_sample:(unit -> unit) -> Registry.t -> t

(** [poll t ~now] takes a snapshot if [now] has reached the next due
    point; otherwise does nothing.  The first call always samples. *)
val poll : t -> now:float -> unit

(** Snapshots taken so far. *)
val count : t -> int

(** [(time, line)] pairs, oldest first. *)
val samples : t -> (float * Json.t) list

(** The timeline as JSONL: one
    [{"t":ms,"counters":{...},"gauges":{...}}] object per line. *)
val to_string : t -> string
