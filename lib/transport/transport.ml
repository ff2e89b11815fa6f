(* The transport seam: everything the protocol layers are allowed to ask
   of the outside world — deliver a message to a peer, arm a timer, read
   the clock.  Two families implement it: the deterministic simulation
   backend ([Sim_transport], closures over the event engine) and the live
   Unix backend ([Live_transport], wire-encoded messages over real
   sockets).  Protocol code written against this seam cannot tell which
   one is underneath. *)

type timer = {
  cancel : unit -> unit;
  reset : unit -> unit;
  active : unit -> bool;
}

let cancel t = t.cancel ()
let reset t = t.reset ()
let active t = t.active ()

module type S = sig
  type t

  (** What travels: the sim instantiates this with closures (the message
      IS its own handler), the live backend with {!Wire.msg} values that
      must survive serialization. *)
  type payload

  (** How peers are named: dense host ints in the sim, node indices with
      a socket-address table in the live backend. *)
  type addr

  (** Monotonic transport clock, in milliseconds.  Simulated time or the
      wall clock — protocol code must not care which. *)
  val now : t -> float

  (** [send t ?op ~src ~dst payload] hands [payload] to the transport
      for delivery to [dst].  [op] attributes the message to a traced
      operation. *)
  val send : t -> ?op:int -> src:addr -> dst:addr -> payload -> unit

  (** [set_handler t f] installs the receive dispatch: every delivered
      payload is passed to [f]. *)
  val set_handler : t -> (src:addr -> dst:addr -> payload -> unit) -> unit

  (** [one_shot t ~delay f] arms a timer on the transport clock.
      Cancelling a fired timer is a counted no-op (the [timer/cancel_late]
      counter), never a ghost queue entry. *)
  val one_shot : t -> ?label:string -> delay:float -> (unit -> unit) -> timer

  val periodic : t -> ?label:string -> period:float -> (unit -> unit) -> timer
end

(* First-class instance of the signature, specialised to the closure
   payload the in-process protocol core uses.  The core stores one of
   these in [World.t]; [Sim_transport.create] builds it over the event
   engine.  (A record of functions rather than a functor application so
   the backend can be picked at run time without functorising the whole
   protocol stack.) *)
type t = {
  now : unit -> float;
  send : ?op:int -> src:int -> dst:int -> (unit -> unit) -> unit;
  one_shot : ?label:string -> delay:float -> (unit -> unit) -> timer;
  periodic : ?label:string -> period:float -> (unit -> unit) -> timer;
  batch : (unit -> unit) -> unit;
}

let now t = t.now ()

let send t ?op ~src ~dst f = t.send ?op ~src ~dst f

let batch t f = t.batch f

let one_shot t ?label ~delay f = t.one_shot ?label ~delay f

let periodic t ?label ~period f = t.periodic ?label ~period f
