(** Priority queue of timestamped events.

    A 4-ary min-heap ordered by [(time, sequence)].  The sequence number is
    a monotonically increasing tie-breaker so that two events scheduled for
    the same instant fire in scheduling order — this keeps simulations
    deterministic.  Cancellation is lazy: a cancelled event stays in the heap
    until it reaches the top and is then discarded — but when cancelled
    events outnumber live ones the whole heap is compacted in one pass
    (amortized O(1) per cancellation), so timer-heavy churn cannot leak
    heap slots indefinitely.

    The hot insertion/removal path allocates nothing of its own.  Each
    payload and its handle sit in a stable slot (arrays indexed by slot
    id, with a free-slot stack) from {!add} until the event is popped,
    compacted away or drained, and the slot is then overwritten, so the
    queue keeps no payload alive after its event is gone.  The heap
    itself is three unboxed parallel arrays — times, sequence numbers
    and slot ids — so a sift compares and moves only ints and floats.
    {!add_fast} skips the per-event handle, {!pop_apply} hands the popped
    time over through a flat {!clock} rather than a boxed argument, and
    the [batch_*] operations defer heap sifting so a fan-out of [k]
    inserts costs one restructuring pass instead of [k].

    Determinism under batching: ordering keys [(time, seq)] are stamped at
    call time and are unique, so the pop sequence is a pure function of
    the [add*] call sequence — batched and unbatched insertion replay the
    identical event schedule. *)

type 'a t

(** Handle to a scheduled event, usable for cancellation. *)
type handle

(** [create ()] makes an empty queue. *)
val create : unit -> 'a t

(** [add t ~time v] schedules [v] at [time] and returns its handle. *)
val add : 'a t -> time:float -> 'a -> handle

(** [add_fast t ~time v] schedules [v] at [time] with no way to cancel
    it; the queue's shared never-dead handle is used, so nothing is
    allocated beyond an occasional doubling of the queue's arrays. *)
val add_fast : 'a t -> time:float -> 'a -> unit

(** [batch_add t ~time v] appends [v] without restoring the heap
    property; the event takes part in ordering only after the next
    {!flush_batch} (any reading operation flushes implicitly).  Use for
    fan-outs that insert many events back-to-back. *)
val batch_add : 'a t -> time:float -> 'a -> handle

(** [batch_add_fast t ~time v] is {!batch_add} without a handle, as
    {!add_fast}. *)
val batch_add_fast : 'a t -> time:float -> 'a -> unit

(** [flush_batch t] restores the heap property after a run of
    [batch_add*]: one sift per batched event when the batch is small, a
    single bottom-up heapify when it rivals the heap size.  Idempotent;
    called automatically by every reading operation, so forgetting it
    costs nothing but the deferral. *)
val flush_batch : 'a t -> unit

(** [cancel h] marks the event dead; it will never be returned by
    [pop].  Cancelling twice is harmless. *)
val cancel : handle -> unit

(** [cancelled h] is [true] iff [h] has been cancelled. *)
val cancelled : handle -> bool

(** [pop t] removes and returns the earliest live event as
    [Some (time, v)], or [None] if the queue holds no live event. *)
val pop : 'a t -> (float * 'a) option

(** A flat float cell (an all-float record, so the float is stored
    unboxed): {!pop_apply} writes the popped time into it. *)
type clock = { mutable now : float }

(** [pop_apply t clock f] removes the earliest live event, stores its time
    in [clock.now] and calls [f v] on its payload, returning [true];
    [false] (leaving [clock] alone and without calling [f]) if the queue
    holds no live event.  Equivalent to {!pop} but allocates nothing.
    The event is removed before [f] runs, so [f] may re-add. *)
val pop_apply : 'a t -> clock -> ('a -> unit) -> bool

(** [peek_time t] is the timestamp of the earliest live event, if any.
    Dead events at the front are discarded as a side effect. *)
val peek_time : 'a t -> float option

(** [next_time t] is the timestamp of the earliest live event, or
    [infinity] when none — {!peek_time} without the option allocation.
    Note: an event scheduled *at* time [infinity] is indistinguishable
    from emptiness here; use {!is_empty} to decide emptiness. *)
val next_time : 'a t -> float

(** [is_empty t] is [true] iff no live event remains.  Dead events at the
    front are discarded as a side effect. *)
val is_empty : 'a t -> bool

(** [live_length t] counts live events (O(1): the queue tracks its
    cancelled-but-present population). *)
val live_length : 'a t -> int

(** [length t] is the physical heap size — live plus not-yet-collected
    cancelled events (O(1)).  An upper bound on {!live_length}; as long
    as scheduling continues, insertion-time compaction keeps it within
    ~2× the live population plus a constant.  Cheap enough for per-event
    queue-depth profiling. *)
val length : 'a t -> int
