type handle = Event_queue.handle

type label_stats = { mutable fires : int; mutable cpu_s : float }

type t = {
  (* the queue stores bare thunks: a label costs nothing per event
     unless profiling wraps the thunk when it is scheduled *)
  queue : (unit -> unit) Event_queue.t;
  (* an all-float record: advancing the clock stores an unboxed float *)
  clock : Event_queue.clock;
  mutable executed : int;
  root_rng : Rng.t;
  mutable queue_hwm : int;
  mutable profiling : bool;
  label_table : (string, label_stats) Hashtbl.t;
  (* the executor closure, built once — [pop_apply] then runs events
     without a fresh closure per pop *)
  exec : (unit -> unit) -> unit;
  (* scoped batch insertion: inside [schedule_batch] every insert defers
     its heap sift until the outermost batch returns *)
  mutable in_batch : bool;
}

let account t label cpu_s =
  let stats =
    match Hashtbl.find_opt t.label_table label with
    | Some s -> s
    | None ->
      let s = { fires = 0; cpu_s = 0.0 } in
      Hashtbl.add t.label_table label s;
      s
  in
  stats.fires <- stats.fires + 1;
  stats.cpu_s <- stats.cpu_s +. cpu_s

let create ~seed () =
  let rec t =
    {
      queue = Event_queue.create ();
      clock = { Event_queue.now = 0.0 };
      executed = 0;
      root_rng = Rng.create seed;
      queue_hwm = 0;
      profiling = false;
      label_table = Hashtbl.create 16;
      exec =
        (fun thunk ->
          t.executed <- t.executed + 1;
          thunk ());
      in_batch = false;
    }
  in
  t

let rng t = t.root_rng

let now t = t.clock.Event_queue.now

let enable_profiling t = t.profiling <- true

let profiling t = t.profiling

(* The heap's physical size right after an insert — live entries plus
   cancelled ones not yet collected — is the queue-depth figure.  An
   insert may compact the heap first, so this is read, never counted. *)
let track_insert t =
  let depth = Event_queue.length t.queue in
  if depth > t.queue_hwm then t.queue_hwm <- depth

(* With profiling on, a labelled event runs inside the label's timing
   wrapper, built when the event is scheduled. *)
let profiled t label f =
  match label with
  | Some label when t.profiling ->
    fun () ->
      let started = Sys.time () in
      f ();
      account t label (Sys.time () -. started)
  | Some _ | None -> f

let add t ~time ~label f =
  let f = profiled t label f in
  let h =
    if t.in_batch then Event_queue.batch_add t.queue ~time f
    else Event_queue.add t.queue ~time f
  in
  track_insert t;
  h

let schedule ?label t ~delay f =
  if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
  add t ~time:(now t +. delay) ~label f

let schedule_at ?label t ~time f =
  if time < now t then invalid_arg "Engine.schedule_at: time in the past";
  add t ~time ~label f

(* The fire-and-forget fast path: no handle, and [label] is a plain
   argument so a call site with a hoisted value allocates nothing beyond
   its own thunk. *)
let schedule_detached t ~label ~delay f =
  if delay < 0.0 then invalid_arg "Engine.schedule_detached: negative delay";
  let time = now t +. delay in
  let f = profiled t label f in
  if t.in_batch then Event_queue.batch_add_fast t.queue ~time f
  else Event_queue.add_fast t.queue ~time f;
  track_insert t

(* hand-rolled instead of [Fun.protect]: this wraps every multi-recipient
   fan-out, and the protect wrapper's closure is measurable there *)
let schedule_batch t f =
  if t.in_batch then f ()
  else begin
    t.in_batch <- true;
    match f () with
    | () ->
      t.in_batch <- false;
      Event_queue.flush_batch t.queue
    | exception e ->
      t.in_batch <- false;
      Event_queue.flush_batch t.queue;
      raise e
  end

let cancel = Event_queue.cancel

let step t = Event_queue.pop_apply t.queue t.clock t.exec

let run t =
  while Event_queue.pop_apply t.queue t.clock t.exec do
    ()
  done

let run_until t ~time =
  while
    Event_queue.next_time t.queue <= time
    && Event_queue.pop_apply t.queue t.clock t.exec
  do
    ()
  done;
  if time > now t then t.clock.Event_queue.now <- time

let events_executed t = t.executed

let pending t = Event_queue.live_length t.queue

let queue_high_water t = t.queue_hwm

let profile t =
  Hashtbl.fold
    (fun label s acc -> (label, s.fires, s.cpu_s) :: acc)
    t.label_table []
  |> List.sort compare
