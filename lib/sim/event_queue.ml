type handle = {
  mutable dead : bool;
  mutable queued : bool;  (* still physically present in the heap *)
  dead_count : int ref;  (* shared with the owning queue *)
}

type clock = { mutable now : float }

(* Two layers.  Payloads and handles sit in stable slots — [values] and
   [handles], indexed by slot id, with the free ids on a stack — and
   never move while queued.  The heap orders slot ids: [times], [seqs]
   and [slots] are parallel arrays indexed by heap position, so a sift
   moves two ints and a float per level, all unboxed, with no write
   barrier.  A payload is written once when it is added and once when
   its slot is freed. *)
type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable values : 'a array;
  mutable handles : handle array;
  mutable free : int array;  (* free slot ids, a stack of [free_len] *)
  mutable free_len : int;
  mutable size : int;  (* heap positions in use *)
  mutable tick : int;  (* next sequence number *)
  dead_in_heap : int ref;  (* cancelled events still in the heap *)
  immortal : handle;  (* shared handle for never-cancelled events *)
  mutable pending : int;  (* appended but not yet sifted (batch mode) *)
}

(* What a free slot of [values] holds, so the queue keeps no payload
   alive once its event is gone.  It is an immediate, so [Array.make]
   never builds a flat float array from it, and it is never read back as
   an ['a]: a slot is read only between its [add] and its release.  The
   standard library's [Dynarray] fills its free cells the same way. *)
let filler () : 'a = Obj.magic 0

let create () =
  let dead_in_heap = ref 0 in
  {
    times = [||];
    seqs = [||];
    slots = [||];
    values = [||];
    handles = [||];
    free = [||];
    free_len = 0;
    size = 0;
    tick = 0;
    dead_in_heap;
    immortal = { dead = false; queued = false; dead_count = dead_in_heap };
    pending = 0;
  }

(* Double every array; the new slot ids join the free stack. *)
let grow t =
  let cap = Array.length t.times in
  let new_cap = if cap = 0 then 16 else cap * 2 in
  let extend a fill =
    let b = Array.make new_cap fill in
    Array.blit a 0 b 0 cap;
    b
  in
  t.times <- extend t.times 0.0;
  t.seqs <- extend t.seqs 0;
  t.slots <- extend t.slots 0;
  t.values <- extend t.values (filler ());
  t.handles <- extend t.handles t.immortal;
  let free = Array.make new_cap 0 in
  Array.blit t.free 0 free 0 t.free_len;
  for s = new_cap - 1 downto cap do
    free.(t.free_len) <- s;
    t.free_len <- t.free_len + 1
  done;
  t.free <- free

let release t s =
  t.values.(s) <- filler ();
  t.handles.(s) <- t.immortal;
  t.free.(t.free_len) <- s;
  t.free_len <- t.free_len + 1

(* A 4-ary heap: the children of position [i] are [4i+1 .. 4i+4].  It is
   half as deep as a binary heap and the four sibling keys sit side by
   side in [times]/[seqs], so a removal touches fewer cache lines.  Both
   sifts carry the moving key in a hole and write it once at the end
   instead of swapping at every level. *)

let sift_up t i =
  let times = t.times and seqs = t.seqs and slots = t.slots in
  let time = times.(i) and seq = seqs.(i) and slot = slots.(i) in
  let i = ref i and moving = ref true in
  while !moving && !i > 0 do
    let p = (!i - 1) lsr 2 in
    let pt = times.(p) in
    if time < pt || (time = pt && seq < seqs.(p)) then begin
      times.(!i) <- pt;
      seqs.(!i) <- seqs.(p);
      slots.(!i) <- slots.(p);
      i := p
    end
    else moving := false
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  slots.(!i) <- slot

let sift_down t i =
  let times = t.times and seqs = t.seqs and slots = t.slots and size = t.size in
  let time = times.(i) and seq = seqs.(i) and slot = slots.(i) in
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
        times.(!i) <- !mt;
        seqs.(!i) <- !ms;
        slots.(!i) <- slots.(!m);
        i := !m
      end
      else moving := false
    end
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  slots.(!i) <- slot

(* Bottom-up heapify: sift down every position that has a child. *)
let heapify t =
  for i = (t.size - 2) asr 2 downto 0 do
    sift_down t i
  done

(* Squeeze every cancelled event out in one pass and re-heapify.  Lazy
   cancellation only frees dead events when they surface at the root, so
   timer-heavy churn (watchdog resets, anti-entropy rearming) would
   otherwise keep arbitrarily many dead events alive in the middle of the
   heap.  The full heapify also validates any pending batch suffix. *)
let compact t =
  let live = ref 0 in
  for i = 0 to t.size - 1 do
    let s = t.slots.(i) in
    let h = t.handles.(s) in
    if h.dead then begin
      h.queued <- false;
      release t s
    end
    else begin
      t.times.(!live) <- t.times.(i);
      t.seqs.(!live) <- t.seqs.(i);
      t.slots.(!live) <- s;
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

(* Put [value] in a free slot, stamp it with the next sequence number
   and append it to the heap, unsifted. *)
let append t ~time value handle =
  if t.size = Array.length t.times then grow t;
  t.free_len <- t.free_len - 1;
  let s = t.free.(t.free_len) in
  t.values.(s) <- value;
  t.handles.(s) <- handle;
  let i = t.size in
  t.times.(i) <- time;
  t.seqs.(i) <- t.tick;
  t.slots.(i) <- s;
  t.tick <- t.tick + 1;
  t.size <- i + 1

let new_handle t = { dead = false; queued = true; dead_count = t.dead_in_heap }

let add t ~time value =
  ensure t;
  maybe_compact t;
  let handle = new_handle t in
  append t ~time value handle;
  sift_up t (t.size - 1);
  handle

let add_fast t ~time value =
  ensure t;
  maybe_compact t;
  append t ~time value t.immortal;
  sift_up t (t.size - 1)

let batch_add t ~time value =
  let handle = new_handle t in
  append t ~time value handle;
  t.pending <- t.pending + 1;
  handle

let batch_add_fast t ~time value =
  append t ~time value t.immortal;
  t.pending <- t.pending + 1

let cancel h =
  if not h.dead then begin
    h.dead <- true;
    if h.queued then incr h.dead_count
  end

let cancelled h = h.dead

(* Unlink the root from the heap and free its slot; the caller reads
   whatever it needs from the root first. *)
let remove_top t =
  let s = t.slots.(0) in
  let h = t.handles.(s) in
  h.queued <- false;
  if h.dead then decr t.dead_in_heap;
  release t s;
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then begin
    t.times.(0) <- t.times.(last);
    t.seqs.(0) <- t.seqs.(last);
    t.slots.(0) <- t.slots.(last);
    sift_down t 0
  end

(* Discard dead events sitting at the root. *)
let rec drop_dead t =
  if t.size > 0 && t.handles.(t.slots.(0)).dead then begin
    remove_top t;
    drop_dead t
  end

let pop t =
  ensure t;
  drop_dead t;
  if t.size = 0 then None
  else begin
    let time = t.times.(0) in
    let value = t.values.(t.slots.(0)) in
    remove_top t;
    Some (time, value)
  end

let pop_apply t clock f =
  ensure t;
  drop_dead t;
  if t.size = 0 then false
  else begin
    let value = t.values.(t.slots.(0)) in
    clock.now <- t.times.(0);
    remove_top t;
    f value;
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
