(* The two simulated workloads, driven through the public facade of the
   hybrid system over the paper's 1,000-host transit-stub topology.

   sim-lookup is the paper's evaluation setup: every host joins (one peer
   each, p_s = 0.7), a corpus is inserted from random peers, then uniform
   lookups are issued in bulk and drained.  Data operations walk the
   t-ring ([use_fingers_for_data = false], pinned here rather than
   inherited from [Config.default], so a change of default cannot change
   the workload), which makes each operation cost ~100 ring hops: the
   engine, routing queries and the allocator do most of the work.  The
   router is built by [Routing.create] exactly as [p2psim run] builds it.

   sim-churn keeps the topology but pins [replication_factor = 2] and
   [use_fingers_for_data = true]: data operations are cheap, so
   membership, repair and the replication fan-out carry the cost.  After
   the corpus is inserted it runs waves of crash -> repair -> rejoin ->
   lookups; every host already carries a peer, so the rejoining peers
   are new peers on the hosts the crashed ones left.  It is the only
   workload that can lose data: an item whose every copy crashed in one
   wave is counted in items_lost, and the wave's lookups target the
   items some live peer still stores, each of which must be Found.

   One pass builds the system from the seed and runs the whole workload;
   a run repeats passes and reports medians of the timings, while the
   simulated quantities must come out identical on every pass. *)

module H = Hybrid_p2p.Hybrid
module Peer = Hybrid_p2p.Peer
module Config = Hybrid_p2p.Config
module Data_ops = Hybrid_p2p.Data_ops
module Data_store = Hybrid_p2p.Data_store
module Engine = P2p_sim.Engine
module Rng = P2p_sim.Rng
module Transit_stub = P2p_topology.Transit_stub
module Routing = P2p_topology.Routing
module Graph = P2p_topology.Graph
module Metrics = P2p_net.Metrics
module Registry = P2p_obs.Registry
module Keys = P2p_workload.Keys
module Churn = P2p_workload.Churn
module Manager = P2p_replication.Manager
module Summary = P2p_stats.Summary

type workload = Lookup | Churn

type size = {
  topology : Transit_stub.params;
  items : int;
  lookups : int;  (* sim-churn splits them evenly over the waves *)
  waves : int;
  crash_share : float;  (* of the live peers, per wave *)
  absent : int;  (* lookups of never-inserted keys; only the tests set it *)
}

(* The paper's scale: 1,000 hosts, 10,000 inserts, 10,000 lookups. *)
let full =
  {
    topology = Transit_stub.default_params;
    items = 10_000;
    lookups = 10_000;
    waves = 4;
    crash_share = 0.05;
    absent = 0;
  }

(* 64 hosts, for the benchmark's own tests. *)
let smoke =
  {
    topology =
      {
        Transit_stub.default_params with
        Transit_stub.transit_domains = 2;
        transit_nodes = 2;
        stub_domains_per_node = 3;
        stub_nodes = 5;
      };
    items = 200;
    lookups = 200;
    waves = 2;
    crash_share = 0.05;
    absent = 0;
  }

let ps = 0.7

(* One fixed network, as in the paper, which evaluates on a single
   1,000-node transit-stub topology: this is the one the figure
   experiments (bench/experiments.ml) build at their default seed.  The
   benchmark seed varies everything else — roles, join order, corpus,
   lookup sources and targets — so simulated latencies stay comparable
   across seeds. *)
let topology_seed = 38

let config = function
  | Lookup -> { Config.default with Config.use_fingers_for_data = false }
  | Churn ->
    {
      Config.default with
      Config.use_fingers_for_data = true;
      replication_factor = 2;
    }

(* Quantities that are exact for a seed: every pass must repeat them. *)
type exact = {
  joins : int;
  join_msgs : int;
  join_hops_mean : float;
  inserts : int;
  inserts_done : int;
  insert_msgs : int;
  copies_written : int;
  lookups : int;
  found : int;
  lookup_msgs : int;
  lookup_hops : int;
  connum : int;
  flood_visits : int;
  lat_p50 : float;
  lat_p99 : float;
  events : int;  (* insert, churn and lookup phases *)
  queue_high_water : int;
  data_msgs : int;
  data_phys_hops : int;
  items_before : int;
  items_after : int;
  stabilizations : int;
  heal_copies : int;
  promotions : int;
}

type pass = {
  x : exact;
  topo_s : float;
  routing_s : float;
  join_s : float;
  setup_s : float;
  insert_s : float;
  lookup_s : float;
  crash_s : float;
  repair_s : float;
  rejoin_s : float;
  data_s : float;  (* every phase after set-up *)
  data_wall_s : float;  (* the same, in wall seconds *)
  slowdown : float;
  minor_words : float;
  promoted_words : float;
  major_collections : int;
  handler_cpu_s : float;
  invariants : (unit, string) result;
}

let counter h subsystem name =
  Registry.counter_value
    (Registry.counter (Metrics.registry (H.metrics h)) ~subsystem ~name)

let handler_cpu h =
  List.fold_left (fun acc (_, _, cpu) -> acc +. cpu) 0. (Engine.profile (H.engine h))

(* Exactly round((1 - p_s) n) t-peers at random hosts; peers join in a
   random order with a t-peer first, so the ring can bootstrap. *)
let join_order ~rng ~n =
  let t_quota = max 1 (int_of_float (Float.round ((1. -. ps) *. float_of_int n))) in
  let hosts = Array.init n Fun.id in
  Rng.shuffle rng hosts;
  let roles = Array.make n Peer.S_peer in
  Array.iteri (fun k host -> if k < t_quota then roles.(host) <- Peer.T_peer) hosts;
  let order = Array.init n Fun.id in
  Rng.shuffle rng order;
  (match Array.find_index (fun host -> roles.(host) = Peer.T_peer) order with
   | Some k ->
     let first = order.(0) in
     order.(0) <- order.(k);
     order.(k) <- first
   | None -> ());
  Array.map (fun host -> (host, roles.(host))) order

type world = {
  h : H.t;
  rng : Rng.t;  (* the workload's own stream *)
  routing : Routing.t;
  w_topo_s : float;
  w_routing_s : float;
  w_join_s : float;
}

(* [cal] is sampled while the workload runs; the times below exclude the
   kernel's, and a pass divides them by its slowdown (see Calib). *)

(* Set-up: topology, router, system, every join drained in turn. *)
let setup ?tracer ?(profile = false) cal ~workload ~size ~seed () =
  Calib.unscaled cal (fun () ->
      Span.span ?tracer "setup" (fun parent ->
          let topo, topo_s =
            Calib.unscaled cal (fun () ->
                Span.span ?tracer ~parent "topology.generate" (fun _ ->
                    Transit_stub.generate ~rng:(Rng.create topology_seed) size.topology))
          in
          let graph = topo.Transit_stub.graph in
          let routing, routing_s =
            Calib.unscaled cal (fun () ->
                Span.span ?tracer ~parent "routing.build" (fun _ -> Routing.create graph))
          in
          let h = H.create ~seed ~routing ~config:(config workload) () in
          if profile then Engine.enable_profiling (H.engine h);
          let rng = Rng.create (seed * 7919) in
          let order = join_order ~rng ~n:(Graph.node_count graph) in
          let (), join_s =
            Calib.unscaled cal (fun () ->
                Span.span ?tracer ~parent "join.all" (fun parent ->
                    Array.iter
                      (fun (host, role) ->
                        Span.span ?tracer ~parent "join" (fun _ ->
                            ignore (H.join h ~host ~role () : Peer.t);
                            H.run h))
                      order))
          in
          if workload = Churn then ignore (Manager.install (H.world h) : Manager.t);
          { h; rng; routing; w_topo_s = topo_s; w_routing_s = routing_s; w_join_s = join_s }))

(* Issue [count] uniform lookups of corpus items from random live peers
   in bulk, then drain.  Every lookup reports exactly once: a timeout is
   a failure and is counted, never dropped. *)
let lookup_batch ?tracer ~parent w ~items ~count ~absent ~latencies ~hops ~found =
  let live = Array.of_list (H.peers w.h) in
  let targets =
    Array.append
      (Array.init absent (fun i ->
           { Keys.key = Printf.sprintf "never-inserted-%d" i; value = ""; category = 0 }))
      (Keys.lookup_sequence ~rng:w.rng ~items ~count)
  in
  Span.span ?tracer ~parent "lookup.issue" (fun _ ->
      Array.iter
        (fun it ->
          H.lookup w.h ~from:(Rng.pick w.rng live) ~key:it.Keys.key
            ~on_result:(function
              | Data_ops.Found { latency; hops = k; _ } ->
                incr found;
                hops := !hops + k;
                latencies := latency :: !latencies
              | Data_ops.Timed_out -> ())
            ())
        targets);
  Span.span ?tracer ~parent "lookup.drain" (fun _ -> H.run w.h)

(* The corpus items some live peer still stores, at quiescence. *)
let surviving h items =
  let stored = Hashtbl.create (Array.length items) in
  List.iter
    (fun p -> List.iter (fun k -> Hashtbl.replace stored k ()) (Data_store.keys p.Peer.store))
    (H.peers h);
  Array.of_list (List.filter (fun it -> Hashtbl.mem stored it.Keys.key) (Array.to_list items))

let run_pass ?tracer ?(profile = false) ~workload ~size ~seed () =
  let cal = Calib.create () in
  Calib.sampling cal @@ fun () ->
  let w, setup_s = setup ?tracer ~profile cal ~workload ~size ~seed () in
  let h = w.h and m = H.metrics w.h in
  let engine = H.engine h in
  let timed name f = Calib.unscaled cal (fun () -> Span.span ?tracer name f) in
  let join_msgs = Metrics.messages m in
  let joins = H.peer_count h in
  let join_hops_mean = Summary.mean (Metrics.join_hops m) in
  let items = Keys.generate ~rng:w.rng ~count:size.items ~categories:8 in
  let gc0 = Gc.quick_stat () in
  let ev0 = Engine.events_executed engine in
  let cpu0 = handler_cpu h in
  let phys0 = Metrics.physical_hops m in
  let copies0 = counter h "replication" "copies_written" in
  let data_t0 = Span.now () in
  let inserts_done = ref 0 in
  let peers = Array.of_list (H.peers h) in
  let (), insert_s =
    timed "insert" (fun parent ->
        Span.span ?tracer ~parent "insert.issue" (fun _ ->
            Array.iter
              (fun it ->
                H.insert h ~from:(Rng.pick w.rng peers) ~key:it.Keys.key
                  ~value:it.Keys.value
                  ~on_done:(fun ~holder:_ ~hops:_ -> incr inserts_done)
                  ())
              items);
        Span.span ?tracer ~parent "insert.drain" (fun _ -> H.run h))
  in
  let insert_msgs = Metrics.messages m - join_msgs in
  let copies_written = counter h "replication" "copies_written" - copies0 in
  let items_before = H.total_items h in
  let latencies = ref [] and hops = ref 0 and found = ref 0 in
  let lookup_msgs = ref 0 and connum = ref 0 and flood_visits = ref 0 in
  let lookup_s = ref 0. and crash_s = ref 0. and repair_s = ref 0. and rejoin_s = ref 0. in
  let add total (r, s) =
    total := !total +. s;
    r
  in
  let lookups ~items ~count ~absent =
    let msgs = Metrics.messages m and c = Metrics.connum m in
    let fv = counter h "s_network" "flood_visits" in
    add lookup_s
      (timed "lookup" (fun parent ->
           lookup_batch ?tracer ~parent w ~items ~count ~absent ~latencies ~hops ~found));
    lookup_msgs := !lookup_msgs + Metrics.messages m - msgs;
    connum := !connum + Metrics.connum m - c;
    flood_visits := !flood_visits + counter h "s_network" "flood_visits" - fv
  in
  let n_lookups =
    match workload with
    | Lookup ->
      lookups ~items ~count:size.lookups ~absent:size.absent;
      size.lookups + size.absent
    | Churn ->
      let per_wave = size.lookups / size.waves in
      for wave = 1 to size.waves do
        let live = Array.of_list (H.peers h) in
        let victims =
          Churn.crash_storm ~rng:w.rng ~population:(Array.length live)
            ~fraction:size.crash_share
        in
        add crash_s
          (timed "failure.crash" (fun _ -> Array.iter (fun i -> H.crash h live.(i)) victims));
        add repair_s
          (timed "failure.repair" (fun _ ->
               H.repair h;
               H.run h));
        add rejoin_s
          (timed "failure.rejoin" (fun parent ->
               Array.iter
                 (fun i ->
                   let role = if Rng.bernoulli w.rng ps then Peer.S_peer else Peer.T_peer in
                   Span.span ?tracer ~parent "join" (fun _ ->
                       ignore (H.join h ~host:live.(i).Peer.host ~role () : Peer.t);
                       H.run h))
                 victims));
        lookups ~items:(surviving h items) ~count:per_wave
          ~absent:(if wave = 1 then size.absent else 0)
      done;
      (per_wave * size.waves) + size.absent
  in
  let data_wall_s = Span.now () -. data_t0 in
  let gc1 = Gc.quick_stat () in
  let lat = Array.of_list !latencies in
  let x =
    {
      joins;
      join_msgs;
      join_hops_mean;
      inserts = size.items;
      inserts_done = !inserts_done;
      insert_msgs;
      copies_written;
      lookups = n_lookups;
      found = !found;
      lookup_msgs = !lookup_msgs;
      lookup_hops = !hops;
      connum = !connum;
      flood_visits = !flood_visits;
      lat_p50 = Result.percentile lat 50.;
      lat_p99 = Result.percentile lat 99.;
      events = Engine.events_executed engine - ev0;
      queue_high_water = Engine.queue_high_water engine;
      data_msgs = Metrics.messages m - join_msgs;
      data_phys_hops = Metrics.physical_hops m - phys0;
      items_before;
      items_after = H.total_items h;
      stabilizations = counter h "t_network" "stabilizations";
      heal_copies = counter h "replication" "re_replicated";
      promotions = counter h "replication" "promoted";
    }
  in
  let slowdown = Calib.slowdown cal in
  let scale t = t /. slowdown in
  ( {
      x;
      topo_s = scale w.w_topo_s;
      routing_s = scale w.w_routing_s;
      join_s = scale w.w_join_s;
      setup_s = scale setup_s;
      insert_s = scale insert_s;
      lookup_s = scale !lookup_s;
      crash_s = scale !crash_s;
      repair_s = scale !repair_s;
      rejoin_s = scale !rejoin_s;
      data_s = scale (insert_s +. !lookup_s +. !crash_s +. !repair_s +. !rejoin_s);
      data_wall_s;
      slowdown;
      minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
      promoted_words = gc1.Gc.promoted_words -. gc0.Gc.promoted_words;
      major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
      handler_cpu_s = handler_cpu h -. cpu0;
      invariants = H.check_invariants h;
    },
    w.routing )

(* --- out-of-band microtimings ----------------------------------------- *)

(* ns per [Routing.distance] over a seeded sample of host pairs: warm on
   the router the workload used, cold on fresh routers over its graph. *)
let distance_ns ~seed routing =
  let graph = Routing.graph routing in
  let rng = Rng.create ((seed * 17) + 3) in
  let n = Graph.node_count graph in
  let pairs = Array.init 2000 (fun _ -> (Rng.int rng n, Rng.int rng n)) in
  let time routing =
    let (), s =
      Calib.timed (fun () ->
          Array.iter
            (fun (u, v) -> ignore (Sys.opaque_identity (Routing.distance routing u v)))
            pairs)
    in
    s *. 1e9 /. float_of_int (Array.length pairs)
  in
  let warm = List.init 5 (fun _ -> time routing) in
  let cold = List.init 3 (fun _ -> time (Routing.create graph)) in
  (Result.median warm, Result.median cold)

(* --- a run ------------------------------------------------------------- *)

let run ~workload ~size ~seed ~seconds ~trace (r : Result.t) =
  let t0 = Span.now () in
  let elapsed () = Span.now () -. t0 in
  (* extra set-ups, so setup_s is a median over several *)
  let setups =
    List.init 6 (fun _ ->
        let cal = Calib.create () in
        let _, s = Calib.sampling cal (fun () -> setup cal ~workload ~size ~seed ()) in
        Gc.compact ();
        s /. Calib.slowdown cal)
  in
  (* passes until the next would overrun; a traced run keeps half its
     time for the traced pass *)
  let budget = if trace then seconds /. 2. else seconds in
  let rec passes acc =
    let p, _ = run_pass ~workload ~size ~seed () in
    Gc.compact ();
    Printf.printf
      "  pass %d: setup %.3f s, insert %.3f s, churn %.3f s, lookup %.3f s \
       (slowdown %.3f)\n%!"
      (List.length acc + 1) p.setup_s p.insert_s
      (p.crash_s +. p.repair_s +. p.rejoin_s) p.lookup_s p.slowdown;
    let acc = p :: acc in
    let mean = elapsed () /. float_of_int (List.length acc) in
    if List.length acc >= (if trace then 1 else 2) && elapsed () +. mean > budget
    then List.rev acc
    else passes acc
  in
  let untraced = passes [] in
  let tracer = if trace then Some (Span.create ()) else None in
  let traced =
    Option.map (fun tracer -> run_pass ~tracer ~profile:true ~workload ~size ~seed ()) tracer
  in
  let all = untraced @ Option.to_list (Option.map fst traced) in
  let p = List.hd untraced in
  let x = p.x in
  let med f = Result.median (List.map f untraced) in
  (* output checks *)
  Result.check r "invariants hold at the end of every pass"
    (List.for_all (fun p -> p.invariants = Ok ()) all);
  Result.check r "exact counters repeat on every pass"
    (List.for_all (fun q -> compare q.x x = 0) all);
  Result.check r "every insert completes" (x.inserts_done = x.inserts);
  Result.check r "every lookup of a stored item is Found" (x.found = x.lookups);
  if workload = Lookup then
    Result.check r "total_items matches the corpus" (x.items_before = x.inserts);
  r.attempted <- (x.inserts + x.lookups) * List.length all;
  r.failed <- (x.inserts - x.inserts_done + x.lookups - x.found) * List.length all;
  (* end to end *)
  let e = Result.e2e r in
  e "setup_s" "s" (Result.median (setups @ List.map (fun p -> p.setup_s) untraced));
  e "insert_ops_per_s" "1/s" (med (fun p -> float_of_int x.inserts /. p.insert_s));
  e "lookup_ops_per_s" "1/s" (med (fun p -> float_of_int x.lookups /. p.lookup_s));
  e "lookup_p50_ms" "ms" x.lat_p50;
  e "lookup_p99_ms" "ms" x.lat_p99;
  e "lookup_success_ratio" "ratio" (Result.per x.found x.lookups);
  e "connum_per_lookup" "peers" (Result.per x.connum x.lookups);
  e "peak_rss_mb" "MiB" (Result.peak_rss_mb ());
  (* per layer *)
  let l = Result.layer r in
  l "topology.generate_s" "s" (med (fun p -> p.topo_s));
  l "routing.build_s" "s" (med (fun p -> p.routing_s));
  (match traced with
   | Some (t, routing) ->
     let warm, cold = distance_ns ~seed routing in
     l "routing.distance_ns" "ns" warm;
     l "routing.distance_cold_ns" "ns" cold;
     l "engine.handler_cpu_frac" "ratio" (Result.ratio t.handler_cpu_s t.data_wall_s);
     l "trace.overhead_frac" "ratio" ((t.data_s /. med (fun p -> p.data_s)) -. 1.)
   | None -> ());
  l "underlay.physical_hops_per_msg" "hops" (Result.per x.data_phys_hops x.data_msgs);
  l "engine.events" "count" (float_of_int x.events);
  l "engine.events_per_s" "1/s" (med (fun p -> float_of_int x.events /. p.data_s));
  l "engine.queue_high_water" "count" (float_of_int x.queue_high_water);
  l "gc.minor_words_per_event" "words" (p.minor_words /. float_of_int x.events);
  l "gc.promoted_words_per_event" "words" (p.promoted_words /. float_of_int x.events);
  l "gc.major_collections" "count" (float_of_int p.major_collections);
  l "join.msgs_per_join" "msgs" (Result.per x.join_msgs x.joins);
  l "join.hops_mean" "hops" x.join_hops_mean;
  l "insert.msgs_per_op" "msgs" (Result.per x.insert_msgs x.inserts);
  l "lookup.msgs_per_op" "msgs" (Result.per x.lookup_msgs x.lookups);
  l "lookup.hops_mean" "hops" (Result.per x.lookup_hops x.found);
  l "lookup.flood_visits_per_op" "peers" (Result.per x.flood_visits x.lookups);
  l "churn_s" "s" (med (fun p -> p.crash_s +. p.repair_s +. p.rejoin_s));
  l "failure.crash_s" "s" (med (fun p -> p.crash_s));
  l "failure.repair_s" "s" (med (fun p -> p.repair_s));
  l "failure.rejoin_s" "s" (med (fun p -> p.rejoin_s));
  l "t_network.stabilizations" "count" (float_of_int x.stabilizations);
  l "replication.copies_per_insert" "copies" (Result.per x.copies_written x.inserts);
  l "replication.heal_copies" "copies" (float_of_int x.heal_copies);
  l "replication.promotions" "count" (float_of_int x.promotions);
  l "items_lost" "items" (float_of_int (x.items_before - x.items_after));
  Printf.printf "  passes %d (+%d traced), %.1f s\n" (List.length untraced)
    (List.length (Option.to_list traced)) (elapsed ());
  tracer
