(** Priority queue of timestamped events.

    A 4-ary min-heap ordered by [(time, sequence)].  The sequence number is
    a monotonically increasing tie-breaker so that two events scheduled for
    the same instant fire in scheduling order — this keeps simulations
    deterministic.  Cancellation is lazy: a cancelled event stays in the heap
    until it reaches the top and is then discarded — but when cancelled
    entries outnumber live ones the whole heap is compacted in one pass
    (amortized O(1) per cancellation), so timer-heavy churn cannot leak
    heap slots indefinitely.

    The hot insertion/removal path is allocation-conscious: event times
    and sequence numbers live in parallel unboxed arrays (a sift compares
    keys without dereferencing an entry, and moves the sifted entry
    through a hole rather than swapping), popped entries are recycled
    through a bounded pool (at most 1024 stale ['a] references are
    retained per queue), {!add_fast} skips the per-event handle, and the
    [batch_*] operations defer heap sifting so a fan-out of [k] inserts
    costs one restructuring pass instead of [k].

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
    it; the queue's shared never-dead handle is used, so nothing beyond
    the (pooled) entry is allocated. *)
val add_fast : 'a t -> time:float -> 'a -> unit

(** [batch_add t ~time v] appends [v] without restoring the heap
    property; the entry participates in ordering only after the next
    {!flush_batch} (any reading operation flushes implicitly).  Use for
    fan-outs that insert many events back-to-back. *)
val batch_add : 'a t -> time:float -> 'a -> handle

(** [batch_add_fast t ~time v] is {!batch_add} without a handle, as
    {!add_fast}. *)
val batch_add_fast : 'a t -> time:float -> 'a -> unit

(** [flush_batch t] restores the heap property after a run of
    [batch_add*]: one sift per batched entry when the batch is small, a
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

(** [pop_apply t f] removes the earliest live event and calls [f time v]
    on it, returning [true]; [false] (without calling [f]) if the queue
    holds no live event.  Equivalent to {!pop} but allocates nothing.
    The event is removed before [f] runs, so [f] may re-add. *)
val pop_apply : 'a t -> (float -> 'a -> unit) -> bool

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
