(* Tests for the discrete-event substrate: Event_queue, Engine, Timer. *)

module Event_queue = P2p_sim.Event_queue
module Engine = P2p_sim.Engine
module Timer = P2p_sim.Timer

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf = Alcotest.check (Alcotest.float 1e-9)

(* --- Event_queue --- *)

let test_queue_order () =
  let q = Event_queue.create () in
  ignore (Event_queue.add q ~time:3.0 'c' : Event_queue.handle);
  ignore (Event_queue.add q ~time:1.0 'a' : Event_queue.handle);
  ignore (Event_queue.add q ~time:2.0 'b' : Event_queue.handle);
  let pop () = Option.get (Event_queue.pop q) in
  Alcotest.check Alcotest.char "first" 'a' (snd (pop ()));
  Alcotest.check Alcotest.char "second" 'b' (snd (pop ()));
  Alcotest.check Alcotest.char "third" 'c' (snd (pop ()));
  checkb "empty" true (Event_queue.pop q = None)

let test_queue_fifo_ties () =
  let q = Event_queue.create () in
  for i = 0 to 9 do
    ignore (Event_queue.add q ~time:5.0 i : Event_queue.handle)
  done;
  for i = 0 to 9 do
    checki "tie broken by insertion order" i (snd (Option.get (Event_queue.pop q)))
  done

let test_queue_cancel () =
  let q = Event_queue.create () in
  let h1 = Event_queue.add q ~time:1.0 "dead" in
  ignore (Event_queue.add q ~time:2.0 "live" : Event_queue.handle);
  Event_queue.cancel h1;
  checkb "cancelled flag" true (Event_queue.cancelled h1);
  Alcotest.check Alcotest.string "cancelled skipped" "live"
    (snd (Option.get (Event_queue.pop q)));
  Event_queue.cancel h1 (* double cancel is harmless *)

let test_queue_cancel_all () =
  let q = Event_queue.create () in
  let handles = List.init 5 (fun i -> Event_queue.add q ~time:(float_of_int i) i) in
  List.iter Event_queue.cancel handles;
  checkb "is_empty" true (Event_queue.is_empty q);
  checkb "pop none" true (Event_queue.pop q = None)

let test_queue_peek () =
  let q = Event_queue.create () in
  checkb "peek empty" true (Event_queue.peek_time q = None);
  let h = Event_queue.add q ~time:4.0 () in
  ignore (Event_queue.add q ~time:7.0 () : Event_queue.handle);
  checkf "peek earliest" 4.0 (Option.get (Event_queue.peek_time q));
  Event_queue.cancel h;
  checkf "peek skips dead" 7.0 (Option.get (Event_queue.peek_time q))

let test_queue_live_length () =
  let q = Event_queue.create () in
  let h = Event_queue.add q ~time:1.0 () in
  ignore (Event_queue.add q ~time:2.0 () : Event_queue.handle);
  checki "two live" 2 (Event_queue.live_length q);
  Event_queue.cancel h;
  checki "one live" 1 (Event_queue.live_length q)

let test_queue_compaction_bounded () =
  (* 10k schedule/cancel pairs (the shape of timer churn: resets cancel
     the old entry and schedule a new one) must not accumulate dead heap
     slots — compaction at insertion keeps the physical size within a
     small constant of the live population. *)
  let q = Event_queue.create () in
  let keep = ref [] in
  for i = 1 to 10_000 do
    let h = Event_queue.add q ~time:(float_of_int i) i in
    if i mod 1000 = 0 then keep := (i, h) :: !keep else Event_queue.cancel h
  done;
  checki "live survivors" 10 (Event_queue.live_length q);
  checkb "physical heap bounded" true (Event_queue.length q <= 64);
  (* survivors still pop, in time order *)
  List.iter
    (fun i -> checki "survivor pops in order" (i * 1000) (snd (Option.get (Event_queue.pop q))))
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ];
  checkb "then empty" true (Event_queue.pop q = None)

let test_queue_interleaved () =
  (* Random adds/pops stay sorted. *)
  let q = Event_queue.create () in
  let rng = P2p_sim.Rng.create 99 in
  let last = ref neg_infinity in
  let pending = ref 0 in
  for _ = 1 to 2000 do
    if !pending = 0 || P2p_sim.Rng.bool rng then begin
      let time = P2p_sim.Rng.float rng 1000.0 in
      (* never schedule in the past relative to what was already popped *)
      let time = Float.max time !last in
      ignore (Event_queue.add q ~time () : Event_queue.handle);
      incr pending
    end
    else begin
      let time, () = Option.get (Event_queue.pop q) in
      checkb "monotone pops" true (time >= !last);
      last := time;
      decr pending
    end
  done

(* --- batched insertion and slot reuse --- *)

let test_queue_batch_determinism () =
  (* the same schedule through [batch_add] + [flush_batch] must pop
     bit-identically to plain [add] — same times, same tie-breaks *)
  let plain = Event_queue.create () in
  let batched = Event_queue.create () in
  let rng = P2p_sim.Rng.create 7 in
  let times = Array.init 500 (fun _ -> float_of_int (P2p_sim.Rng.int rng 50)) in
  Array.iteri
    (fun i time -> ignore (Event_queue.add plain ~time i : Event_queue.handle))
    times;
  Array.iteri
    (fun i time -> ignore (Event_queue.batch_add batched ~time i : Event_queue.handle))
    times;
  Event_queue.flush_batch batched;
  let rec drain () =
    match (Event_queue.pop plain, Event_queue.pop batched) with
    | None, None -> ()
    | Some (t1, v1), Some (t2, v2) ->
      checkf "same time" t1 t2;
      checki "same value" v1 v2;
      drain ()
    | _ -> Alcotest.fail "queues drained unevenly"
  in
  drain ()

let test_queue_batch_autoflush () =
  let q = Event_queue.create () in
  ignore (Event_queue.batch_add q ~time:2.0 'b' : Event_queue.handle);
  Event_queue.batch_add_fast q ~time:1.0 'a';
  (* reading operations flush the pending suffix on their own *)
  checkf "peek flushes" 1.0 (Option.get (Event_queue.peek_time q));
  Alcotest.check Alcotest.char "first" 'a' (snd (Option.get (Event_queue.pop q)));
  Alcotest.check Alcotest.char "second" 'b' (snd (Option.get (Event_queue.pop q)))

let test_queue_batch_cancel () =
  (* cancelling a batched entry before its flush must stick *)
  let q = Event_queue.create () in
  let h = Event_queue.batch_add q ~time:1.0 "dead" in
  ignore (Event_queue.batch_add q ~time:2.0 "live" : Event_queue.handle);
  Event_queue.cancel h;
  Event_queue.flush_batch q;
  Alcotest.check Alcotest.string "cancelled skipped" "live"
    (snd (Option.get (Event_queue.pop q)));
  checkb "then empty" true (Event_queue.pop q = None)

let test_queue_add_fast () =
  let q = Event_queue.create () in
  Event_queue.add_fast q ~time:2.0 'b';
  Event_queue.add_fast q ~time:1.0 'a';
  ignore (Event_queue.add q ~time:3.0 'c' : Event_queue.handle);
  Alcotest.check Alcotest.char "first" 'a' (snd (Option.get (Event_queue.pop q)));
  Alcotest.check Alcotest.char "second" 'b' (snd (Option.get (Event_queue.pop q)));
  Alcotest.check Alcotest.char "third" 'c' (snd (Option.get (Event_queue.pop q)))

let test_queue_pop_apply () =
  let q = Event_queue.create () in
  ignore (Event_queue.add q ~time:1.0 1 : Event_queue.handle);
  let clock = { Event_queue.now = 0.0 } in
  let seen = ref [] in
  let f v =
    let time = clock.now in
    seen := (time, v) :: !seen;
    (* the event is removed before [f] runs, so re-adding is fine *)
    if v < 3 then ignore (Event_queue.add q ~time:(time +. 1.0) (v + 1) : Event_queue.handle)
  in
  while Event_queue.pop_apply q clock f do
    ()
  done;
  Alcotest.check
    (Alcotest.list (Alcotest.pair (Alcotest.float 1e-9) Alcotest.int))
    "chain" [ (1.0, 1); (2.0, 2); (3.0, 3) ] (List.rev !seen);
  checkb "empty returns false" false (Event_queue.pop_apply q clock f);
  checkf "an empty pop leaves the clock" 3.0 clock.now

let test_queue_slot_reuse () =
  (* thousands of add/pop cycles, with cancels, churn through the free
     slots; a reused slot must never hand out a stale value or break
     ordering *)
  let q = Event_queue.create () in
  for round = 0 to 99 do
    let handles =
      List.init 50 (fun i ->
          Event_queue.add q ~time:(float_of_int (i * 13 mod 50)) (round, i))
    in
    List.iteri (fun i h -> if i mod 5 = 0 then Event_queue.cancel h) handles;
    let last = ref neg_infinity in
    for _ = 1 to 40 do
      let time, (r, i) = Option.get (Event_queue.pop q) in
      checkb "time monotone" true (time >= !last);
      last := time;
      checki "value from this round" round r;
      checkb "not a cancelled value" true (i mod 5 <> 0)
    done;
    checkb "drained" true (Event_queue.is_empty q)
  done

(* Payloads are heap blocks watched through a weak array: once the queue
   is done with an event, a major GC must be able to collect its
   payload.  The payloads are built inside [fill] so no frame of the test
   keeps one alive. *)
let test_queue_releases_payloads () =
  let n = 64 in
  let fill q weak ~cancel_from =
    let handles =
      Array.init n (fun i ->
          let payload = Bytes.make 16 (Char.chr (i land 127)) in
          Weak.set weak i (Some payload);
          Event_queue.add q ~time:(float_of_int i) payload)
    in
    Array.iteri (fun i h -> if i >= cancel_from then Event_queue.cancel h) handles
  in
  let collected weak from upto =
    Gc.full_major ();
    let alive = ref 0 in
    for i = from to upto - 1 do
      if Weak.check weak i then incr alive
    done;
    !alive
  in
  (* popped: by [pop], by [pop_apply], and drained to empty *)
  let q = Event_queue.create () in
  let weak = Weak.create n in
  fill q weak ~cancel_from:n;
  ignore (Event_queue.pop q : (float * Bytes.t) option);
  let clock = { Event_queue.now = 0.0 } in
  ignore (Event_queue.pop_apply q clock ignore : bool);
  checki "popped payloads collected" 0 (collected weak 0 2);
  checki "queued payloads kept" (n - 2) (collected weak 2 n);
  while Event_queue.pop_apply q clock ignore do
    ()
  done;
  checki "drained payloads collected" 0 (collected weak 0 n);
  (* cancelled: dropped at the root, or squeezed out by compaction *)
  let q = Event_queue.create () in
  let weak = Weak.create n in
  fill q weak ~cancel_from:8;
  checki "cancelled events stay until the next add" n (Event_queue.length q);
  Event_queue.add_fast q ~time:1000.0 (Bytes.make 16 'z');
  checkb "compacted" true (Event_queue.length q < n);
  checki "compacted payloads collected" 0 (collected weak 8 n);
  checki "live payloads kept" 8 (collected weak 0 8);
  (* ... by a queue still in use *)
  checki "live events" 9 (Event_queue.live_length q);
  let q = Event_queue.create () in
  let weak = Weak.create n in
  fill q weak ~cancel_from:0;
  checkb "all cancelled" true (Event_queue.is_empty q);
  checki "payloads dropped at the root collected" 0 (collected weak 0 n)

(* --- model-based check against a sorted list --- *)

type queue_op =
  | Add of int * bool  (* time, fast (no handle) *)
  | Batch of int * bool
  | Flush
  | Cancel of int  (* index into the handles issued so far *)
  | Cancel_recent of int  (* the n most recent handles: a burst of timer resets *)
  | Pop
  | Peek

let show_queue_op = function
  | Add (t, f) -> Printf.sprintf "add%s %d" (if f then "_fast" else "") t
  | Batch (t, f) -> Printf.sprintf "batch_add%s %d" (if f then "_fast" else "") t
  | Flush -> "flush"
  | Cancel i -> Printf.sprintf "cancel #%d" i
  | Cancel_recent n -> Printf.sprintf "cancel last %d" n
  | Pop -> "pop"
  | Peek -> "peek"

(* Times come from a domain of 8 values, so most pops break a tie. *)
let queue_op_gen =
  let open QCheck.Gen in
  let time = int_bound 7 in
  frequency
    [
      (4, map2 (fun t f -> Add (t, f)) time bool);
      (4, map2 (fun t f -> Batch (t, f)) time bool);
      (1, return Flush);
      (4, map (fun i -> Cancel i) (int_bound 1000));
      (1, map (fun n -> Cancel_recent n) (int_range 1 32));
      (3, return Pop);
      (1, return Peek);
    ]

(* How often a run exercised each restructuring path; checked by
   [test_queue_model_coverage]. *)
let heapify_flushes = ref 0
let sift_up_flushes = ref 0
let compactions = ref 0

(* Replay [ops] on a queue and on a model (entries with their insertion
   index and a dead flag; pops take the least (time, index) live entry),
   and check every pop, peek and length agrees. *)
let run_queue_model ops =
  let q = Event_queue.create () in
  let model = ref [] (* (time, index, dead flag) *) in
  let handles = ref [||] in
  let inserted = ref 0 and pending = ref 0 in
  let clock = { Event_queue.now = -1.0 } in
  let live () = List.filter (fun (_, _, dead) -> not !dead) !model in
  let least () =
    List.fold_left
      (fun acc ((t, i, _) as e) ->
        match acc with
        | Some (bt, bi, _) when (bt, bi) <= (t, i) -> acc
        | _ -> Some e)
      None (live ())
  in
  (* reading operations and plain adds flush a pending batch first *)
  let note_flush () =
    if !pending > 0 then begin
      if !pending * 4 >= Event_queue.length q then incr heapify_flushes
      else incr sift_up_flushes;
      pending := 0
    end
  in
  let insert time add =
    let dead = ref false in
    model := (time, !inserted, dead) :: !model;
    (match add !inserted with
     | Some h -> handles := Array.append !handles [| (h, dead) |]
     | None -> ());
    incr inserted
  in
  let step op =
    let before = Event_queue.length q in
    match op with
    | Add (t, fast) ->
      note_flush ();
      let time = float_of_int t in
      insert t (fun v ->
          if fast then (Event_queue.add_fast q ~time v; None)
          else Some (Event_queue.add q ~time v));
      if Event_queue.length q <= before then incr compactions;
      true
    | Batch (t, fast) ->
      let time = float_of_int t in
      insert t (fun v ->
          if fast then (Event_queue.batch_add_fast q ~time v; None)
          else Some (Event_queue.batch_add q ~time v));
      incr pending;
      true
    | Flush ->
      note_flush ();
      Event_queue.flush_batch q;
      if Event_queue.length q < before then incr compactions;
      true
    | Cancel i ->
      let n = Array.length !handles in
      if n > 0 then begin
        let h, dead = !handles.(i mod n) in
        Event_queue.cancel h;
        dead := true
      end;
      true
    | Cancel_recent k ->
      let n = Array.length !handles in
      for j = max 0 (n - k) to n - 1 do
        let h, dead = !handles.(j) in
        Event_queue.cancel h;
        dead := true
      done;
      true
    | Pop -> (
      note_flush ();
      (* the popped time arrives through the clock cell, unboxed; an
         empty pop must leave the cell alone *)
      let before = clock.now in
      let got = ref None in
      let popped = Event_queue.pop_apply q clock (fun v -> got := Some (clock.now, v)) in
      match (least (), !got) with
      | None, None -> (not popped) && clock.now = before
      | Some (t, i, dead), Some (time, v) ->
        dead := true;
        popped && float_of_int t = time && i = v
      | _ -> false)
    | Peek -> (
      note_flush ();
      match (least (), Event_queue.peek_time q) with
      | None, None -> true
      | Some (t, _, _), Some time -> float_of_int t = time
      | _ -> false)
  in
  List.for_all
    (fun op -> step op && Event_queue.live_length q = List.length (live ()))
    ops
  && begin
    (* drain: what is left pops in model order *)
    let rec drain () =
      let expected = least () in
      let got = Event_queue.pop q in
      match (expected, got) with
      | None, None -> true
      | Some (t, i, dead), Some (time, v) ->
        dead := true;
        float_of_int t = time && i = v && drain ()
      | _ -> false
    in
    drain ()
  end

let queue_ops_arb =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_queue_op ops))
    QCheck.Gen.(list_size (int_range 0 300) queue_op_gen)

let prop_queue_model =
  QCheck.Test.make ~name:"queue: random ops pop in (time, insertion) order" ~count:300
    queue_ops_arb run_queue_model

let test_queue_model_coverage () =
  (* the model run above must reach both [flush_batch] branches and
     compaction; a generator that stopped doing so would test less *)
  heapify_flushes := 0;
  sift_up_flushes := 0;
  compactions := 0;
  let rand = Random.State.make [| 14 |] in
  List.iter
    (fun ops -> checkb "model agrees" true (run_queue_model ops))
    (QCheck.Gen.generate ~rand ~n:100 (QCheck.gen queue_ops_arb));
  checkb (Printf.sprintf "heapify flushes %d" !heapify_flushes) true (!heapify_flushes > 0);
  checkb (Printf.sprintf "sift-up flushes %d" !sift_up_flushes) true (!sift_up_flushes > 0);
  checkb (Printf.sprintf "compactions %d" !compactions) true (!compactions > 0)

(* --- Engine --- *)

let test_engine_clock () =
  let e = Engine.create ~seed:1 () in
  checkf "starts at 0" 0.0 (Engine.now e);
  let fired = ref [] in
  ignore (Engine.schedule e ~delay:5.0 (fun () -> fired := 5 :: !fired) : Engine.handle);
  ignore (Engine.schedule e ~delay:2.0 (fun () -> fired := 2 :: !fired) : Engine.handle);
  Engine.run e;
  checkf "clock advanced" 5.0 (Engine.now e);
  Alcotest.check (Alcotest.list Alcotest.int) "order" [ 5; 2 ] !fired

let test_engine_negative_delay () =
  let e = Engine.create ~seed:1 () in
  Alcotest.check_raises "negative delay" (Invalid_argument "Engine.schedule: negative delay")
    (fun () -> ignore (Engine.schedule e ~delay:(-1.0) (fun () -> ()) : Engine.handle))

let test_engine_schedule_at_past () =
  let e = Engine.create ~seed:1 () in
  ignore (Engine.schedule e ~delay:10.0 (fun () -> ()) : Engine.handle);
  Engine.run e;
  Alcotest.check_raises "past time" (Invalid_argument "Engine.schedule_at: time in the past")
    (fun () -> ignore (Engine.schedule_at e ~time:5.0 (fun () -> ()) : Engine.handle))

let test_engine_cascading () =
  let e = Engine.create ~seed:1 () in
  let count = ref 0 in
  let rec chain n =
    if n > 0 then
      ignore
        (Engine.schedule e ~delay:1.0 (fun () ->
             incr count;
             chain (n - 1))
          : Engine.handle)
  in
  chain 10;
  Engine.run e;
  checki "all fired" 10 !count;
  checkf "clock = 10" 10.0 (Engine.now e);
  checki "events_executed" 10 (Engine.events_executed e)

let test_engine_run_until () =
  let e = Engine.create ~seed:1 () in
  let fired = ref 0 in
  for i = 1 to 10 do
    ignore (Engine.schedule e ~delay:(float_of_int i) (fun () -> incr fired) : Engine.handle)
  done;
  Engine.run_until e ~time:5.5;
  checki "five fired" 5 !fired;
  checkf "clock at 5.5" 5.5 (Engine.now e);
  checki "pending" 5 (Engine.pending e);
  Engine.run e;
  checki "rest fired" 10 !fired

let test_engine_cancel () =
  let e = Engine.create ~seed:1 () in
  let fired = ref false in
  let h = Engine.schedule e ~delay:1.0 (fun () -> fired := true) in
  Engine.cancel h;
  Engine.run e;
  checkb "cancelled never fires" false !fired

let test_engine_same_time_order () =
  let e = Engine.create ~seed:1 () in
  let order = ref [] in
  for i = 1 to 5 do
    ignore (Engine.schedule e ~delay:3.0 (fun () -> order := i :: !order) : Engine.handle)
  done;
  Engine.run e;
  Alcotest.check (Alcotest.list Alcotest.int) "scheduling order preserved" [ 1; 2; 3; 4; 5 ]
    (List.rev !order)

(* --- schedule_batch / schedule_detached --- *)

(* The load-bearing property: wrapping any set of schedule calls in
   [schedule_batch] must replay the unbatched event schedule
   bit-identically — same firing order, same clocks — across same-time
   ties, including fan-outs issued from inside a running event. *)
let test_engine_schedule_batch_determinism () =
  let run ~batch =
    let e = Engine.create ~seed:3 () in
    let log = ref [] in
    let wrap f = if batch then Engine.schedule_batch e f else f () in
    let sched i delay =
      ignore
        (Engine.schedule e ~delay (fun () ->
             log := (i, Engine.now e) :: !log)
          : Engine.handle)
    in
    wrap (fun () ->
        for i = 0 to 19 do
          sched i (float_of_int (i * 7 mod 5))
        done);
    ignore
      (Engine.schedule e ~delay:1.5 (fun () ->
           wrap (fun () ->
               for i = 100 to 109 do
                 sched i 2.0
               done))
        : Engine.handle);
    Engine.run e;
    List.rev !log
  in
  let unbatched = run ~batch:false in
  let batched = run ~batch:true in
  checki "same count" 30 (List.length batched);
  Alcotest.check
    (Alcotest.list (Alcotest.pair Alcotest.int (Alcotest.float 1e-9)))
    "batched insertion replays the unbatched schedule" unbatched batched

let test_engine_batch_cancel () =
  let e = Engine.create ~seed:1 () in
  let fired = ref [] in
  Engine.schedule_batch e (fun () ->
      let h = Engine.schedule e ~delay:1.0 (fun () -> fired := 1 :: !fired) in
      ignore (Engine.schedule e ~delay:2.0 (fun () -> fired := 2 :: !fired) : Engine.handle);
      Engine.cancel h);
  Engine.run e;
  Alcotest.check (Alcotest.list Alcotest.int) "cancelled inside batch never fires"
    [ 2 ] !fired

let test_engine_batch_nested () =
  (* nested batches flatten into the outermost one *)
  let e = Engine.create ~seed:1 () in
  let fired = ref 0 in
  Engine.schedule_batch e (fun () ->
      Engine.schedule_batch e (fun () ->
          ignore (Engine.schedule e ~delay:1.0 (fun () -> incr fired) : Engine.handle));
      ignore (Engine.schedule e ~delay:2.0 (fun () -> incr fired) : Engine.handle));
  Engine.run e;
  checki "both fired" 2 !fired

let test_engine_batch_exception () =
  (* events scheduled before the batch body raised must still land *)
  let e = Engine.create ~seed:1 () in
  let fired = ref false in
  (try
     Engine.schedule_batch e (fun () ->
         ignore (Engine.schedule e ~delay:1.0 (fun () -> fired := true) : Engine.handle);
         failwith "boom")
   with Failure _ -> ());
  Engine.run e;
  checkb "flushed despite exception" true !fired

let test_engine_schedule_detached () =
  let e = Engine.create ~seed:1 () in
  let log = ref [] in
  Engine.schedule_detached e ~label:None ~delay:2.0 (fun () ->
      log := "detached" :: !log);
  ignore (Engine.schedule e ~delay:1.0 (fun () -> log := "first" :: !log) : Engine.handle);
  ignore
    (Engine.schedule e ~delay:2.0 (fun () -> log := "tie-second" :: !log)
      : Engine.handle);
  Engine.run e;
  (* the detached event was scheduled first, so it wins the time-2 tie *)
  Alcotest.check (Alcotest.list Alcotest.string) "ordering with normal schedules"
    [ "first"; "detached"; "tie-second" ] (List.rev !log);
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule_detached: negative delay") (fun () ->
      Engine.schedule_detached e ~label:None ~delay:(-1.0) (fun () -> ()))

(* Profiling wraps a labelled thunk when it is scheduled, so an event
   scheduled before [enable_profiling] runs unprofiled even if it fires
   afterwards. *)
let test_engine_profiling_from_schedule () =
  let e = Engine.create ~seed:1 () in
  let ran = ref 0 in
  let count () = incr ran in
  ignore (Engine.schedule ~label:"before" e ~delay:1.0 count : Engine.handle);
  Engine.schedule_detached e ~label:(Some "before-detached") ~delay:1.0 count;
  Engine.enable_profiling e;
  ignore (Engine.schedule ~label:"after" e ~delay:2.0 count : Engine.handle);
  ignore (Engine.schedule ~label:"after" e ~delay:2.5 count : Engine.handle);
  Engine.schedule_detached e ~label:(Some "after-detached") ~delay:3.0 count;
  ignore (Engine.schedule e ~delay:4.0 count : Engine.handle);
  Engine.run e;
  checki "every event ran" 6 !ran;
  checki "events executed" 6 (Engine.events_executed e);
  Alcotest.check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "rows for events scheduled after enable_profiling only"
    [ ("after", 2); ("after-detached", 1) ]
    (List.map (fun (label, fires, _) -> (label, fires)) (Engine.profile e))

(* The high-water mark is the deepest the heap has physically been.
   Cancelled events discarded at the root leave the heap as surely as
   executed ones, so they must not keep inflating the figure. *)
let test_engine_queue_high_water () =
  let e = Engine.create ~seed:1 () in
  let at delays = List.map (fun delay -> Engine.schedule e ~delay ignore) delays in
  ignore (at [ 10.0; 11.0; 12.0 ] : Engine.handle list);
  List.iter Engine.cancel (at [ 1.0; 2.0 ]);
  checki "five slots" 5 (Engine.queue_high_water e);
  (* the step drops both cancelled events and runs one live one *)
  checkb "stepped" true (Engine.step e);
  checki "two pending" 2 (Engine.pending e);
  ignore (at [ 20.0; 21.0; 22.0 ] : Engine.handle list);
  checki "five pending" 5 (Engine.pending e);
  checki "high water is the real heap depth" 5 (Engine.queue_high_water e)

(* --- Timer --- *)

let test_timer_one_shot () =
  let e = Engine.create ~seed:1 () in
  let fired = ref 0 in
  let t = Timer.one_shot e ~delay:10.0 (fun () -> incr fired) in
  checkb "active" true (Timer.active t);
  Engine.run e;
  checki "fired once" 1 !fired;
  checkb "inactive after fire" false (Timer.active t)

let test_timer_cancel () =
  let e = Engine.create ~seed:1 () in
  let fired = ref 0 in
  let t = Timer.one_shot e ~delay:10.0 (fun () -> incr fired) in
  Timer.cancel t;
  Engine.run e;
  checki "never fired" 0 !fired

let test_timer_reset_postpones () =
  let e = Engine.create ~seed:1 () in
  let fire_time = ref 0.0 in
  let t = Timer.one_shot e ~delay:10.0 (fun () -> fire_time := Engine.now e) in
  Engine.run_until e ~time:6.0;
  Timer.reset t;
  Engine.run e;
  checkf "postponed to 16" 16.0 !fire_time

let test_timer_reset_rearms () =
  let e = Engine.create ~seed:1 () in
  let fired = ref 0 in
  let t = Timer.one_shot e ~delay:5.0 (fun () -> incr fired) in
  Engine.run e;
  checki "first" 1 !fired;
  Timer.reset t;
  Engine.run e;
  checki "rearmed fires again" 2 !fired

let test_timer_periodic () =
  let e = Engine.create ~seed:1 () in
  let fired = ref 0 in
  let t = Timer.periodic e ~period:2.0 (fun () -> incr fired) in
  Engine.run_until e ~time:9.0;
  checki "four ticks in 9ms at period 2" 4 !fired;
  Timer.cancel t;
  Engine.run_until e ~time:20.0;
  checki "no ticks after cancel" 4 !fired

let test_timer_periodic_cancel_in_action () =
  let e = Engine.create ~seed:1 () in
  let fired = ref 0 in
  let cell = ref None in
  let t =
    Timer.periodic e ~period:1.0 (fun () ->
        incr fired;
        if !fired = 3 then Timer.cancel (Option.get !cell))
  in
  cell := Some t;
  Engine.run_until e ~time:10.0;
  checki "self-cancel stops at 3" 3 !fired

let suite =
  [
    Alcotest.test_case "queue: pops in time order" `Quick test_queue_order;
    Alcotest.test_case "queue: FIFO on equal times" `Quick test_queue_fifo_ties;
    Alcotest.test_case "queue: cancellation" `Quick test_queue_cancel;
    Alcotest.test_case "queue: cancel all" `Quick test_queue_cancel_all;
    Alcotest.test_case "queue: peek_time" `Quick test_queue_peek;
    Alcotest.test_case "queue: live_length" `Quick test_queue_live_length;
    Alcotest.test_case "queue: 10k cancels stay compact" `Quick test_queue_compaction_bounded;
    Alcotest.test_case "queue: interleaved ops stay sorted" `Quick test_queue_interleaved;
    Alcotest.test_case "queue: batched insertion is deterministic" `Quick
      test_queue_batch_determinism;
    Alcotest.test_case "queue: reads auto-flush pending batch" `Quick
      test_queue_batch_autoflush;
    Alcotest.test_case "queue: cancel inside batch" `Quick test_queue_batch_cancel;
    Alcotest.test_case "queue: add_fast ordering" `Quick test_queue_add_fast;
    Alcotest.test_case "queue: pop_apply" `Quick test_queue_pop_apply;
    Alcotest.test_case "queue: slot reuse" `Quick test_queue_slot_reuse;
    Alcotest.test_case "queue: finished events release payloads" `Quick
      test_queue_releases_payloads;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20261017 |]) prop_queue_model;
    Alcotest.test_case "queue: model reaches both flushes and compaction" `Quick
      test_queue_model_coverage;
    Alcotest.test_case "engine: clock and ordering" `Quick test_engine_clock;
    Alcotest.test_case "engine: negative delay rejected" `Quick test_engine_negative_delay;
    Alcotest.test_case "engine: schedule_at past rejected" `Quick test_engine_schedule_at_past;
    Alcotest.test_case "engine: cascading events" `Quick test_engine_cascading;
    Alcotest.test_case "engine: run_until" `Quick test_engine_run_until;
    Alcotest.test_case "engine: cancel" `Quick test_engine_cancel;
    Alcotest.test_case "engine: same-time scheduling order" `Quick test_engine_same_time_order;
    Alcotest.test_case "engine: schedule_batch replays unbatched order" `Quick
      test_engine_schedule_batch_determinism;
    Alcotest.test_case "engine: cancel inside schedule_batch" `Quick test_engine_batch_cancel;
    Alcotest.test_case "engine: nested schedule_batch flattens" `Quick test_engine_batch_nested;
    Alcotest.test_case "engine: schedule_batch flushes on exception" `Quick
      test_engine_batch_exception;
    Alcotest.test_case "engine: schedule_detached ordering" `Quick
      test_engine_schedule_detached;
    Alcotest.test_case "engine: queue high water after dead-root drops" `Quick
      test_engine_queue_high_water;
    Alcotest.test_case "engine: profiles events scheduled after enabling" `Quick
      test_engine_profiling_from_schedule;
    Alcotest.test_case "timer: one-shot" `Quick test_timer_one_shot;
    Alcotest.test_case "timer: cancel" `Quick test_timer_cancel;
    Alcotest.test_case "timer: reset postpones" `Quick test_timer_reset_postpones;
    Alcotest.test_case "timer: reset rearms" `Quick test_timer_reset_rearms;
    Alcotest.test_case "timer: periodic" `Quick test_timer_periodic;
    Alcotest.test_case "timer: periodic self-cancel" `Quick test_timer_periodic_cancel_in_action;
  ]
