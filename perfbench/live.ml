(* The live-ring workload: 8 [Live_node]s in this process over loopback
   TCP, stepped round-robin from one thread, with the client on the same
   transport fabric (node index 8).

   Running the ring in one process keeps the measurement on the program:
   8 forked nodes on a 2-core machine would measure the scheduler.  The
   traffic crosses loopback, not a real link.  Nodes sample traces at
   0.01, the rate [p2psim serve] uses (not [Live_node.create]'s 1.0).  The
   client sends through at most nproc (= 2) entry nodes.

   Phases: a closed loop with one request outstanding (inserts, then
   lookups of the inserted keys), then an open loop of lookups offered at
   a fixed rate below the closed-loop knee.  Open-loop latency is timed
   from each request's intended send time, so a stall is charged to every
   request it delays, and the generator's own lateness is reported. *)

module Live_node = P2p_transport.Live_node
module Live_transport = P2p_transport.Live_transport
module Wire = P2p_transport.Wire
module Log_hist = P2p_obs.Log_hist
module Keys = P2p_workload.Keys
module Rng = P2p_sim.Rng

let n = 8
let entries = [| 0; 4 |]
let sample_rate = 0.01
let open_rate = 1000.  (* offered lookups per second *)
let request_timeout = 5.  (* s; an unanswered request then counts as failed *)

type ring = {
  nodes : Live_node.t array;
  client : Live_transport.t;
  replies : (int, Wire.msg * float) Hashtbl.t;  (* req -> reply, arrival *)
  mutable next_req : int;
  mutable steps : int;  (* Live_node.step calls *)
  mutable busy : int;  (* ... that returned true *)
  turn_us : Log_hist.t;
}

let loopback port = Unix.ADDR_INET (Unix.inet_addr_loopback, port)

let stop ring =
  Array.iter Live_node.stop ring.nodes;
  Live_transport.stop ring.client

(* One round-robin turn: every node, then the client, polled without
   blocking.  With a tracer, each busy node step becomes a child span of
   [parent] in request [req], labelled by node. *)
let turn ?tracer ?(parent = 0) ?(req = 0) ring =
  let t0 = Span.now () in
  Array.iteri
    (fun i node ->
      ring.steps <- ring.steps + 1;
      match tracer with
      | None -> if Live_node.step ~timeout:0. node then ring.busy <- ring.busy + 1
      | Some tr ->
        let s0 = Span.now () in
        if Live_node.step ~timeout:0. node then begin
          ring.busy <- ring.busy + 1;
          Span.add tr ~id:(Span.fresh_id tr) ~parent ~req
            (Printf.sprintf "node%d.step" i) s0 (Span.now ())
        end)
    ring.nodes;
  ignore (Live_transport.step ~timeout:0. ring.client : bool);
  Log_hist.observe ring.turn_us ((Span.now () -. t0) *. 1e6)

let pump ring ~seconds pred =
  let deadline = Span.now () +. seconds in
  while (not (pred ())) && Span.now () < deadline do
    turn ring
  done;
  pred ()

let send ring ~entry msg_of_req =
  let req = ring.next_req in
  ring.next_req <- req + 1;
  Live_transport.send ring.client ~src:n ~dst:entry (msg_of_req req);
  req

(* One closed-loop request: send, turn until its reply arrives. *)
let request ?tracer ring ~entry msg_of_req =
  let t0 = Span.now () in
  let req = send ring ~entry msg_of_req in
  let id = match tracer with Some tr -> Span.fresh_id tr | None -> 0 in
  let deadline = t0 +. request_timeout in
  while (not (Hashtbl.mem ring.replies req)) && Span.now () < deadline do
    turn ?tracer ~parent:id ~req ring
  done;
  let reply = Hashtbl.find_opt ring.replies req in
  Hashtbl.remove ring.replies req;
  let t1 = match reply with Some (_, at) -> at | None -> Span.now () in
  (match tracer with
   | Some tr -> Span.add tr ~id ~parent:0 ~req "live.request" t0 t1
   | None -> ());
  (Option.map fst reply, (t1 -. t0) *. 1e3)

let found = function
  | Some (Wire.Client_reply { found; _ }) -> found
  | _ -> false

let hops = function Some (Wire.Client_reply { hops; _ }) -> hops | _ -> 0

(* Ring set-up: every node and the client listening, the tracker's peer
   list delivered, and a few inserts through each entry node so the
   connections a request crosses are open before timing starts. *)
let create_ring ~port_base =
  let created = ref [] in
  let nodes =
    try
      Array.init n (fun node ->
          let nd = Live_node.create ~sample_rate ~node ~n ~port_base () in
          created := nd :: !created;
          nd)
    with e ->
      List.iter Live_node.stop !created;
      raise e
  in
  let client = Live_transport.create ~self:n () in
  for peer = 0 to n - 1 do
    Live_transport.set_peer_addr client peer (loopback (port_base + peer))
  done;
  (try Live_transport.listen client (loopback (port_base + n))
   with e ->
     Array.iter Live_node.stop nodes;
     Live_transport.stop client;
     raise e);
  let replies = Hashtbl.create 1024 in
  Live_transport.set_handler client (fun ~src:_ ~dst:_ msg ->
      match msg with
      | Wire.Client_reply { req; _ } -> Hashtbl.replace replies req (msg, Span.now ())
      | _ -> ());
  let ring =
    { nodes; client; replies; next_req = 1; steps = 0; busy = 0; turn_us = Log_hist.create () }
  in
  let ready = pump ring ~seconds:10. (fun () -> Array.for_all Live_node.ready nodes) in
  let warm =
    ready
    && List.for_all
         (fun i ->
           let entry = entries.(i mod Array.length entries) in
           let key = Printf.sprintf "warm-up-%d" i in
           fst
             (request ring ~entry (fun req ->
                  Wire.Client_insert { req; key; value = key }))
           <> None)
         (List.init 32 Fun.id)
  in
  if not warm then begin
    stop ring;
    failwith "live ring did not form"
  end;
  ring

(* Node ids hash the listening port, so the port base fixes the ring's
   layout, and with it how many hops a lookup takes.  It is the same on
   every run; only when it is taken does the ring move to the next base. *)
let port_base = 27_100

let with_ring f =
  let rec go k =
    let port_base = port_base + (k * 16) in
    match Calib.timed ~loopback:true (fun () -> create_ring ~port_base) with
    | ring, setup_s -> Fun.protect ~finally:(fun () -> stop ring) (fun () -> f ring setup_s)
    | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) when k < 20 -> go (k + 1)
  in
  go 0

let transport_stats ring =
  Live_transport.stats ring.client
  :: Array.to_list (Array.map (fun nd -> Live_transport.stats (Live_node.transport nd)) ring.nodes)

let sum_stats ring f = List.fold_left (fun acc s -> acc + f s) 0 (transport_stats ring)

(* --- out-of-band microtimings ----------------------------------------- *)

(* ns per [Wire.encode] / [Wire.decode] of each message the ring carries. *)
let codec_ns ~key ~value =
  let msgs =
    [
      Wire.Client_insert { req = 7; key; value };
      Wire.Client_lookup { req = 7; key };
      Wire.Insert { op = 7; origin = 3; route_id = 7; key; value; hops = 2 };
      Wire.Insert_ack { op = 7; holder = 5; hops = 2 };
      Wire.Lookup { op = 7; origin = 3; route_id = 7; key; ttl = 16; hops = 2 };
      Wire.Found { op = 7; key; value; holder = 5; hops = 2 };
      Wire.Not_found { op = 7; key; hops = 2 };
      Wire.Client_reply { req = 7; found = true; value; holder = 5; hops = 2 };
    ]
  in
  let iters = 20_000 in
  let time f =
    Result.median
      (List.init 5 (fun _ ->
           let (), s =
             Calib.timed (fun () ->
                 for _ = 1 to iters do
                   ignore (Sys.opaque_identity (f ()))
                 done)
           in
           s *. 1e9 /. float_of_int iters))
  in
  List.map
    (fun msg ->
      let frame = Wire.encode msg in
      ( Wire.tag_name msg,
        time (fun () -> Wire.encode msg),
        time (fun () -> Wire.decode frame) ))
    msgs

(* --- a run ------------------------------------------------------------- *)

type phase = {
  ops : int;
  seconds : float;  (* at reference speed, kernel samples excluded *)
  lat_ms : float list;  (* answered requests *)
  ok : int;  (* inserts acknowledged / lookups found *)
  visited : int;  (* peers the lookups visited (hops + 1) *)
}

(* One request outstanding until [count] requests or [seconds] passed.
   Every 200 requests one sample of each kernel tracks the machine's
   speed, which shifts within a phase; so the requests are timed in
   batches of 1,000, each scaled by its own samples' slowdown. *)
let batch = 1000

let closed_loop ?tracer ?(count = max_int) ring ~seconds ~next =
  let t0 = Span.now () in
  let kernel_s = ref 0. and scaled_s = ref 0. and lat_ms = ref [] in
  let cal = ref (Calib.create ()) and batch_t0 = ref t0 and batch_lat = ref [] in
  let close_batch () =
    let c = !cal in
    let slowdown = Calib.slowdown c in
    let t = Span.now () in
    scaled_s := !scaled_s +. ((t -. !batch_t0 -. c.Calib.total) /. slowdown);
    lat_ms := List.rev_append (List.rev_map (fun ms -> ms /. slowdown) !batch_lat) !lat_ms;
    kernel_s := !kernel_s +. c.Calib.total;
    cal := Calib.create ();
    batch_t0 := t;
    batch_lat := []
  in
  let rec go i acc =
    if i >= count || Span.now () -. t0 -. !kernel_s -. !cal.Calib.total >= seconds then acc
    else begin
      if i > 0 && i mod batch = 0 then close_batch ();
      if i mod 200 = 0 then begin
        Calib.sample !cal;
        Calib.sample_loopback !cal
      end;
      let entry = entries.(i mod Array.length entries) in
      let reply, ms = request ?tracer ring ~entry (next i) in
      if reply <> None then batch_lat := ms :: !batch_lat;
      let acc =
        {
          acc with
          ops = acc.ops + 1;
          ok = (if found reply then acc.ok + 1 else acc.ok);
          visited = acc.visited + hops reply + 1;
        }
      in
      go (i + 1) acc
    end
  in
  let p = go 0 { ops = 0; seconds = 0.; lat_ms = []; ok = 0; visited = 0 } in
  close_batch ();
  { p with seconds = !scaled_s; lat_ms = !lat_ms }

(* Lookups offered at [open_rate] for [seconds], then drained.  Returns
   the phase and the generator's lateness samples (ms). *)
let open_loop ring ~seconds ~key =
  let t0 = Span.now () in
  let outstanding = Hashtbl.create 1024 in
  let late = ref [] and lat = ref [] and ok = ref 0 and i = ref 0 in
  let collect () =
    Hashtbl.filter_map_inplace
      (fun req intended ->
        match Hashtbl.find_opt ring.replies req with
        | Some (reply, at) ->
          Hashtbl.remove ring.replies req;
          lat := (at -. intended) *. 1e3 :: !lat;
          if found (Some reply) then incr ok;
          None
        | None -> Some intended)
      outstanding
  in
  let period = 1. /. open_rate in
  while Span.now () -. t0 < seconds do
    let now = Span.now () in
    while t0 +. (float_of_int !i *. period) <= now do
      let intended = t0 +. (float_of_int !i *. period) in
      let entry = entries.(!i mod Array.length entries) in
      let k = key !i in
      let req = send ring ~entry (fun req -> Wire.Client_lookup { req; key = k }) in
      late := (Span.now () -. intended) *. 1e3 :: !late;
      Hashtbl.replace outstanding req intended;
      incr i
    done;
    turn ring;
    collect ()
  done;
  ignore (pump ring ~seconds:request_timeout (fun () -> collect (); Hashtbl.length outstanding = 0));
  ( { ops = !i; seconds = Span.now () -. t0; lat_ms = !lat; ok = !ok; visited = 0 },
    Array.of_list !late )

(* Median over consecutive batches of 1,000 samples of percentile [p]:
   one scheduler hiccup then moves one batch, not the figure. *)
let batched_percentile samples p =
  let a = Array.of_list (List.rev samples) in
  let batches = max 1 (Array.length a / 1000) in
  let size = Array.length a / batches in
  Result.median
    (List.init batches (fun b -> Result.percentile (Array.sub a (b * size) size) p))

let run ~smoke ~absent ~seed ~seconds ~trace (r : Result.t) =
  let rng = Rng.create (seed * 7919) in
  (* a fixed corpus, so every node's store (which its periodic self-audit
     scans) ends the insert phase at the same size on any machine *)
  let corpus = Keys.generate ~rng ~count:(if smoke then 500 else 30_000) ~categories:8 in
  (* extra set-ups, so setup_s is a median over several *)
  let setups = List.init 48 (fun _ -> with_ring (fun _ s -> s)) in
  (* a traced run keeps part of its time for the traced phase *)
  let share = if trace then 0.6 else 1. in
  with_ring (fun ring setup_s ->
      let steps0 = ring.steps and busy0 = ring.busy in
      let frames0 = sum_stats ring (fun s -> s.msgs_sent) in
      let bytes0 = sum_stats ring (fun s -> s.bytes_sent) in
      let inserts =
        closed_loop ring ~count:(Array.length corpus) ~seconds:infinity ~next:(fun i req ->
            let it = corpus.(i) in
            Wire.Client_insert { req; key = it.Keys.key; value = it.Keys.value })
      in
      (* the first [absent] lookups ask for keys never inserted *)
      let key i =
        if i < absent then Printf.sprintf "never-inserted-%d" i
        else corpus.(Rng.int rng (Array.length corpus)).Keys.key
      in
      let lookup i req = Wire.Client_lookup { req; key = key i } in
      let lookups = closed_loop ring ~seconds:(0.45 *. share *. seconds) ~next:lookup in
      let opened, late = open_loop ring ~seconds:(0.2 *. share *. seconds) ~key in
      let measured_ops = inserts.ops + lookups.ops + opened.ops in
      let frames = sum_stats ring (fun s -> s.msgs_sent) - frames0 in
      let bytes = sum_stats ring (fun s -> s.bytes_sent) - bytes0 in
      let steps = ring.steps - steps0 and busy = ring.busy - busy0 in
      let turn_p50 = Log_hist.percentile ring.turn_us 50.
      and turn_p99 = Log_hist.percentile ring.turn_us 99. in
      let tracer = if trace then Some (Span.create ()) else None in
      let traced =
        Option.map
          (fun tracer ->
            closed_loop ~tracer ring ~seconds:(0.15 *. seconds) ~next:lookup)
          tracer
      in
      let violations =
        Array.fold_left (fun acc nd -> acc + Live_node.violations nd) 0 ring.nodes
      in
      let stat f = float_of_int (sum_stats ring f) in
      let all_lookups = lookups :: opened :: Option.to_list traced in
      let total f = List.fold_left (fun acc p -> acc + f p) 0 in
      let n_lookups = total (fun p -> p.ops) all_lookups in
      let found = total (fun p -> p.ok) all_lookups in
      let answered = total (fun p -> List.length p.lat_ms) (inserts :: all_lookups) in
      let ops = inserts.ops + n_lookups in
      Result.check r "every request gets a reply" (answered = ops);
      Result.check r "every insert is acknowledged" (inserts.ok = inserts.ops);
      Result.check r "every lookup of an inserted key is found" (found = n_lookups);
      Result.check r "no decode errors or drops"
        (stat (fun s -> s.decode_errors) = 0. && stat (fun s -> s.drops) = 0.);
      Result.check r "no node audit violations" (violations = 0);
      r.attempted <- ops;
      r.failed <- ops - inserts.ok - found;
      Result.e2e r "setup_s" "s" (Result.median (setup_s :: setups));
      Result.e2e r "insert_ops_per_s" "1/s" (float_of_int inserts.ops /. inserts.seconds);
      Result.e2e r "lookup_ops_per_s" "1/s" (float_of_int lookups.ops /. lookups.seconds);
      Result.e2e r "lookup_p50_ms" "ms" (batched_percentile lookups.lat_ms 50.);
      Result.e2e r "lookup_p99_ms" "ms" (batched_percentile lookups.lat_ms 99.);
      Result.e2e r "lookup_success_ratio" "ratio" (Result.per found n_lookups);
      Result.e2e r "connum_per_lookup" "peers" (Result.per lookups.visited lookups.ops);
      Result.e2e r "peak_rss_mb" "MiB" (Result.peak_rss_mb ());
      let l = Result.layer r in
      l "live_open_p99_ms" "ms" (batched_percentile opened.lat_ms 99.);
      l "live.open_late_ms" "ms" (Result.percentile late 99.);
      l "live.turn_p50_us" "us" turn_p50;
      l "live.turn_p99_us" "us" turn_p99;
      l "live.step_busy_ratio" "ratio" (Result.per busy steps);
      l "live.steps_per_op" "steps" (Result.per steps measured_ops);
      l "wire.frames_per_op" "frames" (Result.per frames measured_ops);
      l "wire.bytes_per_op" "bytes" (Result.per bytes measured_ops);
      l "transport.drops" "count" (stat (fun s -> s.drops));
      l "transport.window_stalls" "count" (stat (fun s -> s.window_stalls));
      l "transport.retries" "count" (stat (fun s -> s.retries));
      l "transport.decode_errors" "count" (stat (fun s -> s.decode_errors));
      (match traced with
       | Some t ->
         let it = corpus.(0) in
         List.iter
           (fun (tag, enc, dec) ->
             l ("wire.encode_ns." ^ tag) "ns" enc;
             l ("wire.decode_ns." ^ tag) "ns" dec)
           (codec_ns ~key:it.Keys.key ~value:it.Keys.value);
         let rate p = float_of_int p.ops /. p.seconds in
         l "trace.overhead_frac" "ratio" (rate lookups /. rate t -. 1.)
       | None -> ());
      Printf.printf "  closed %d inserts + %d lookups, open %d lookups at %.0f/s\n"
        inserts.ops lookups.ops opened.ops open_rate;
      tracer)
