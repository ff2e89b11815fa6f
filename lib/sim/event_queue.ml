type handle = {
  mutable dead : bool;
  mutable queued : bool;  (* still physically present in some heap slot *)
  dead_count : int ref;  (* shared with the owning queue *)
}

(* Entries are mutable and recycled through a bounded pool.  The
   ordering key lives outside them, in parallel unboxed arrays: [times]
   (a mixed float/pointer record would box the float on every insertion)
   and [seqs], so a sift compares without dereferencing any entry. *)
type 'a entry = {
  mutable value : 'a;
  mutable handle : handle;
}

type 'a t = {
  mutable heap : 'a entry array;
  (* [heap]/[times]/[seqs] slots at index >= size are physical garbage
     kept only to satisfy the array type. *)
  mutable times : float array;
  mutable seqs : int array;
  mutable size : int;
  mutable tick : int;  (* next sequence number *)
  dead_in_heap : int ref;  (* cancelled entries still occupying slots *)
  immortal : handle;  (* shared handle for never-cancelled events *)
  mutable pool : 'a entry array;
  mutable pool_len : int;
  mutable pending : int;  (* appended but not yet sifted (batch mode) *)
}

(* Bounds how many popped entries (and thus stale ['a] references) a
   queue retains for reuse. *)
let pool_cap = 1024

let create () =
  let dead_in_heap = ref 0 in
  {
    heap = [||];
    times = [||];
    seqs = [||];
    size = 0;
    tick = 0;
    dead_in_heap;
    immortal = { dead = false; queued = false; dead_count = dead_in_heap };
    pool = [||];
    pool_len = 0;
    pending = 0;
  }

let grow t entry =
  let cap = Array.length t.heap in
  if t.size = cap then begin
    let new_cap = if cap = 0 then 16 else cap * 2 in
    let heap = Array.make new_cap entry in
    Array.blit t.heap 0 heap 0 t.size;
    t.heap <- heap;
    let times = Array.make new_cap 0.0 in
    Array.blit t.times 0 times 0 t.size;
    t.times <- times;
    let seqs = Array.make new_cap 0 in
    Array.blit t.seqs 0 seqs 0 t.size;
    t.seqs <- seqs
  end

(* A 4-ary heap: the children of slot [i] are [4i+1 .. 4i+4].  It is half
   as deep as a binary heap and the four sibling keys sit side by side in
   [times]/[seqs], so a removal touches fewer cache lines.  Both sifts
   carry the moving entry in a hole and write it once at the end instead
   of swapping at every level. *)

let sift_up t i =
  let heap = t.heap and times = t.times and seqs = t.seqs in
  let e = heap.(i) and time = times.(i) and seq = seqs.(i) in
  let i = ref i and moving = ref true in
  while !moving && !i > 0 do
    let p = (!i - 1) lsr 2 in
    let pt = times.(p) in
    if time < pt || (time = pt && seq < seqs.(p)) then begin
      heap.(!i) <- heap.(p);
      times.(!i) <- pt;
      seqs.(!i) <- seqs.(p);
      i := p
    end
    else moving := false
  done;
  heap.(!i) <- e;
  times.(!i) <- time;
  seqs.(!i) <- seq

let sift_down t i =
  let heap = t.heap and times = t.times and seqs = t.seqs and size = t.size in
  let e = heap.(i) and time = times.(i) and seq = seqs.(i) in
  let i = ref i and moving = ref true in
  while !moving do
    let first = (4 * !i) + 1 in
    if first >= size then moving := false
    else begin
      (* the smallest of the (up to four) children; [Stdlib.min] would
         compare polymorphically, through a C call *)
      let last = if first + 3 < size then first + 3 else size - 1 in
      let m = ref first in
      let mt = ref times.(first) and ms = ref seqs.(first) in
      for c = first + 1 to last do
        let ct = times.(c) in
        if ct < !mt || (ct = !mt && seqs.(c) < !ms) then begin
          m := c;
          mt := ct;
          ms := seqs.(c)
        end
      done;
      if !mt < time || (!mt = time && !ms < seq) then begin
        heap.(!i) <- heap.(!m);
        times.(!i) <- !mt;
        seqs.(!i) <- !ms;
        i := !m
      end
      else moving := false
    end
  done;
  heap.(!i) <- e;
  times.(!i) <- time;
  seqs.(!i) <- seq

(* Bottom-up heapify: sift down every slot that has a child. *)
let heapify t =
  for i = (t.size - 2) asr 2 downto 0 do
    sift_down t i
  done

let recycle t e =
  e.handle <- t.immortal;  (* never retain a cancellable handle *)
  if t.pool_len < pool_cap then begin
    let cap = Array.length t.pool in
    if t.pool_len = cap then begin
      let pool = Array.make (min pool_cap (max 16 (cap * 2))) e in
      Array.blit t.pool 0 pool 0 t.pool_len;
      t.pool <- pool
    end;
    t.pool.(t.pool_len) <- e;
    t.pool_len <- t.pool_len + 1
  end

let take_entry t ~value ~handle =
  if t.pool_len > 0 then begin
    t.pool_len <- t.pool_len - 1;
    let e = t.pool.(t.pool_len) in
    e.value <- value;
    e.handle <- handle;
    e
  end
  else { value; handle }

(* Squeeze every cancelled entry out in one pass and re-heapify.  Lazy
   cancellation only frees dead events when they surface at the root, so
   timer-heavy churn (watchdog resets, anti-entropy rearming) would
   otherwise keep arbitrarily many dead slots alive in the middle of the
   heap.  The full heapify also validates any pending batch suffix. *)
let compact t =
  let live = ref 0 in
  for i = 0 to t.size - 1 do
    let e = t.heap.(i) in
    if e.handle.dead then begin
      e.handle.queued <- false;
      recycle t e
    end
    else begin
      t.heap.(!live) <- e;
      t.times.(!live) <- t.times.(i);
      t.seqs.(!live) <- t.seqs.(i);
      incr live
    end
  done;
  t.size <- !live;
  t.dead_in_heap := 0;
  t.pending <- 0;
  heapify t

let maybe_compact t = if t.size >= 16 && 2 * !(t.dead_in_heap) > t.size then compact t

let flush_batch t =
  let k = t.pending in
  if k > 0 then begin
    t.pending <- 0;
    (* Large batch relative to the heap: one bottom-up heapify is O(size)
       and beats k * O(log size) sifts.  Small batch: sift each appended
       element up in append order, which is exactly the deferred inserts. *)
    if k * 4 >= t.size then heapify t
    else
      for i = t.size - k to t.size - 1 do
        sift_up t i
      done;
    maybe_compact t
  end

(* Every operation that reads the root must see a valid heap. *)
let ensure t = if t.pending > 0 then flush_batch t

(* Stamp [entry] with the next sequence number and append it. *)
let append t ~time entry =
  grow t entry;
  let seq = t.tick in
  t.tick <- seq + 1;
  t.heap.(t.size) <- entry;
  t.times.(t.size) <- time;
  t.seqs.(t.size) <- seq;
  t.size <- t.size + 1

let add t ~time value =
  ensure t;
  let handle = { dead = false; queued = true; dead_count = t.dead_in_heap } in
  let entry = take_entry t ~value ~handle in
  maybe_compact t;
  append t ~time entry;
  sift_up t (t.size - 1);
  handle

let add_fast t ~time value =
  ensure t;
  let entry = take_entry t ~value ~handle:t.immortal in
  maybe_compact t;
  append t ~time entry;
  sift_up t (t.size - 1)

let batch_add t ~time value =
  let handle = { dead = false; queued = true; dead_count = t.dead_in_heap } in
  let entry = take_entry t ~value ~handle in
  append t ~time entry;
  t.pending <- t.pending + 1;
  handle

let batch_add_fast t ~time value =
  let entry = take_entry t ~value ~handle:t.immortal in
  append t ~time entry;
  t.pending <- t.pending + 1

let cancel h =
  if not h.dead then begin
    h.dead <- true;
    if h.queued then incr h.dead_count
  end

let cancelled h = h.dead

let remove_top t =
  let e = t.heap.(0) in
  let h = e.handle in
  h.queued <- false;
  if h.dead then decr t.dead_in_heap;
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then begin
    t.heap.(0) <- t.heap.(last);
    t.times.(0) <- t.times.(last);
    t.seqs.(0) <- t.seqs.(last);
    sift_down t 0
  end;
  recycle t e

(* Discard dead events sitting at the root. *)
let rec drop_dead t =
  if t.size > 0 && t.heap.(0).handle.dead then begin
    remove_top t;
    drop_dead t
  end

let pop t =
  ensure t;
  drop_dead t;
  if t.size = 0 then None
  else begin
    let time = t.times.(0) in
    let value = t.heap.(0).value in
    remove_top t;
    Some (time, value)
  end

let pop_apply t f =
  ensure t;
  drop_dead t;
  if t.size = 0 then false
  else begin
    let time = t.times.(0) in
    let value = t.heap.(0).value in
    remove_top t;
    f time value;
    true
  end

let peek_time t =
  ensure t;
  drop_dead t;
  if t.size = 0 then None else Some t.times.(0)

let next_time t =
  ensure t;
  drop_dead t;
  if t.size = 0 then infinity else t.times.(0)

let is_empty t =
  ensure t;
  drop_dead t;
  t.size = 0

let length t = t.size

let live_length t = t.size - !(t.dead_in_heap)
