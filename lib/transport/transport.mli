(** The transport seam between protocol logic and the outside world.

    The hybrid protocol (t-network ring, s-network trees, data
    operations, replication) needs exactly four capabilities: send a
    message to a peer, dispatch received messages, arm/cancel timers, and
    read a monotonic clock.  {!S} names them; two backends implement
    them:

    - {!Sim_transport} — a thin adapter over the deterministic event
      engine.  Payloads are closures, time is simulated, every existing
      test/bench/scenario runs unchanged (bit-identical traces).
    - {!Live_transport} — non-blocking TCP sockets with a select loop,
      per-connection connect/retry/backoff state machines and a
      wall-clock timer wheel.  Payloads are {!Wire.msg} values.

    The first-class record {!t} is the closure-payload instance the
    in-process protocol core holds (see [World.t]). *)

(** A cancellable timer.  Cancelling after the timer fired is a silent
    no-op counted under the shared [timer/cancel_late] counter
    ({!P2p_sim.Timer.cancel_late}); it never leaves a ghost entry in the
    underlying queue. *)
type timer = {
  cancel : unit -> unit;
  reset : unit -> unit;
  active : unit -> bool;
}

val cancel : timer -> unit
val reset : timer -> unit
val active : timer -> bool

(** The transport signature both backends satisfy. *)
module type S = sig
  type t
  type payload
  type addr

  val now : t -> float

  val send : t -> ?op:int -> src:addr -> dst:addr -> payload -> unit

  val set_handler : t -> (src:addr -> dst:addr -> payload -> unit) -> unit

  val one_shot : t -> ?label:string -> delay:float -> (unit -> unit) -> timer

  val periodic : t -> ?label:string -> period:float -> (unit -> unit) -> timer
end

(** First-class closure-payload transport: what the protocol core stores
    and calls.  [send] delivers the closure to the destination host after
    the backend's propagation delay; [one_shot]/[periodic] arm timers on
    the backend clock. *)
type t = {
  now : unit -> float;
  send : ?op:int -> src:int -> dst:int -> (unit -> unit) -> unit;
  one_shot : ?label:string -> delay:float -> (unit -> unit) -> timer;
  periodic : ?label:string -> period:float -> (unit -> unit) -> timer;
  batch : (unit -> unit) -> unit;
      (** [batch f] runs [f] with the backend's fan-out batching, if any:
          the sim backend defers event-heap restructuring for every send
          inside [f] to one pass ([Engine.schedule_batch]); backends
          without an equivalent just run [f].  Semantics (ordering,
          delivery) are identical with and without. *)
}

val now : t -> float

val send : t -> ?op:int -> src:int -> dst:int -> (unit -> unit) -> unit

(** [batch t f] — see the {!type-t} field. *)
val batch : t -> (unit -> unit) -> unit

val one_shot : t -> ?label:string -> delay:float -> (unit -> unit) -> timer

val periodic : t -> ?label:string -> period:float -> (unit -> unit) -> timer
