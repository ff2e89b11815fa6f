(* Hot-path speed proof (SCALING.md, "hot-path speed pass").

   Four configurations of the same 10k-peer workload on the same
   transit-stub underlay, isolating the two PR-9 optimisations:

     dijkstra          on-demand per-source Dijkstra (LRU-capped cache),
                       fan-out batching off — the pre-link-state baseline
                       that forced bench/scale.ml onto a fake Synthetic
                       underlay
     link_state        precomputed link-state tables, batching off
     link_state+batch  link-state tables plus batched fan-out insertion —
                       the shipping configuration
     synthetic+batch   the fake uniform-latency underlay — the routing
                       cost ceiling the real graph is measured against

   Per configuration: events/sec, minor words allocated per event
   (Gc.quick_stat deltas around the workload), lookup p50/p99 from the
   exact op-completion histograms, recall and invariants.

   Output: BENCH_hotpath.json.  Gates (CI runs [--smoke]):
     - recall 1.0 in every configuration
     - batching is pure speed: link_state with and without batching
       execute the identical event schedule (events/stored/found equal)
     - link_state+batch >= 1.5x the dijkstra baseline events/sec
     - link_state+batch allocates fewer minor words/event than the
       baseline, and stays under an absolute ceiling (the
       allocation-regression check: an accidental boxing on the hop path
       shows up here long before it shows up in wall clock)
     - events/sec floor as in the scale bench
     - every --slo spec against the shipping configuration's registry

   The dijkstra baseline runs a reduced operation count (each message
   re-runs an O(E log V) shortest-path computation when the source
   misses the cache, which is the point): events/sec is a rate, so the
   comparison stands. *)

module H = Hybrid_p2p.Hybrid
module Config = Hybrid_p2p.Config
module Data_ops = Hybrid_p2p.Data_ops
module Routing = P2p_topology.Routing
module Transit_stub = P2p_topology.Transit_stub
module Engine = P2p_sim.Engine
module Trace = P2p_sim.Trace
module Rng = P2p_sim.Rng
module Metrics = P2p_net.Metrics
module Registry = P2p_obs.Registry
module Gc_stats = P2p_obs.Gc_stats
module Spans = P2p_obs.Spans
module Log_hist = P2p_obs.Log_hist
module Slo = P2p_obs.Slo
module Json = P2p_obs.Json

let n_peers = 10_000
let telemetry_sample_rate = 0.01
let min_events_per_s = 10_000.0

(* The headline gate: the shipping configuration must beat the Dijkstra
   baseline by at least this factor on the routed graph. *)
let min_speedup = 1.5

(* Allocation-regression ceiling for the shipping configuration, in
   minor words per executed event.  link_state+batch measures ~55
   (release and dev builds, OCaml 5.1, x86-64): the residue is the
   delivery closures, a few boxed floats on the message path and
   sampled-trace spans — the event queue itself allocates nothing per
   event.  The ceiling, ~1.5x that figure, leaves headroom for workload
   drift while still catching a reintroduced per-hop record, closure or
   boxed float (each costs 2-6 words per event); the dijkstra baseline
   sits at ~136,000. *)
let max_minor_words_per_event = 80.0

type result = {
  name : string;
  routing : string;
  batch : bool;
  items : int;
  lookups : int;
  found : int;
  events : int;
  wall_s : float;
  events_per_s : float;
  minor_words_per_event : float;
  p50_ms : float option;
  p99_ms : float option;
  stored_total : int;
  invariant_error : string option;
}

let make_routing ~seed = function
  | `Synthetic -> (Routing.synthetic ~nodes:n_peers ~latency:5.0, "synthetic")
  | `Link_state -> (Scale.link_state_routing ~seed n_peers, "link_state")
  | `Dijkstra ->
    let params = Scale.transit_stub_params n_peers in
    let ts = Transit_stub.generate ~rng:(Rng.create (seed + 3)) params in
    (* uncapped would be O(n^2) memory; the cap makes eviction churn
       part of what is being measured, as it would be in production *)
    ( Routing.dijkstra ~max_cached_sources:512 ts.Transit_stub.graph,
      "dijkstra" )

let measure ~seed ~name ~routing_mode ~batch ~items ~lookups () =
  let routing, routing_label = make_routing ~seed routing_mode in
  let config =
    {
      Config.default with
      Config.use_fingers_for_data = true;
      batch_sends = batch;
    }
  in
  let capacity = max 100_000 (60 * lookups) in
  let trace =
    Trace.create ~capacity ~sample_rate:telemetry_sample_rate
      ~sample_seed:seed ()
  in
  let h = H.create ~seed ~routing ~config ~trace () in
  let rng = Rng.create (seed + 17) in
  let peers, _t_count = Scale.populate h ~rng ~n:n_peers in
  let reg = Metrics.registry (H.metrics h) in
  let gc_gauges = Gc_stats.create reg in
  let key i = Printf.sprintf "item-%06d" i in
  let e = H.engine h in
  let ev0 = Engine.events_executed e in
  let g0 = Gc.quick_stat () in
  let w0 = Sys.time () in
  for i = 0 to items - 1 do
    let from = peers.(Rng.int rng n_peers) in
    H.insert h ~from ~key:(key i) ~value:(Printf.sprintf "v%d" i) ();
    H.run h
  done;
  let found = ref 0 in
  for _ = 1 to lookups do
    let from = peers.(Rng.int rng n_peers) in
    let i = Rng.int rng items in
    H.lookup h ~from ~key:(key i)
      ~on_result:(function
        | Data_ops.Found _ -> incr found
        | Data_ops.Timed_out -> ())
      ();
    H.run h
  done;
  let wall_s = Sys.time () -. w0 in
  let g1 = Gc.quick_stat () in
  let events = Engine.events_executed e - ev0 in
  let minor_words = g1.Gc.minor_words -. g0.Gc.minor_words in
  Gc_stats.update gc_gauges;
  Spans.record reg (H.trace h);
  let hist =
    Registry.log_histogram reg ~subsystem:"latency" ~name:"lookup_total_ms"
  in
  let p50_ms, p99_ms =
    if Log_hist.count hist > 0 then
      ( Some (Log_hist.percentile hist 50.0),
        Some (Log_hist.percentile hist 99.0) )
    else (None, None)
  in
  let r =
    {
      name;
      routing = routing_label;
      batch;
      items;
      lookups;
      found = !found;
      events;
      wall_s;
      events_per_s =
        (if wall_s > 0.0 then float_of_int events /. wall_s else 0.0);
      minor_words_per_event =
        (if events > 0 then minor_words /. float_of_int events else 0.0);
      p50_ms;
      p99_ms;
      stored_total = H.total_items h;
      invariant_error =
        (match H.check_invariants h with Ok () -> None | Error m -> Some m);
    }
  in
  (r, reg)

let print_result r =
  Printf.printf
    "  %-18s [%-10s batch=%-5b]  %8.0f ev/s  %6.1f minor w/ev  found %d/%d  \
     p50 %s p99 %s\n\
     %!"
    r.name r.routing r.batch r.events_per_s r.minor_words_per_event r.found
    r.lookups
    (match r.p50_ms with Some f -> Printf.sprintf "%.1fms" f | None -> "-")
    (match r.p99_ms with Some f -> Printf.sprintf "%.1fms" f | None -> "-")

let opt_float = function Some f -> Json.Float f | None -> Json.Null

let result_json r =
  Json.Obj
    [
      ("name", Json.String r.name);
      ("routing", Json.String r.routing);
      ("batch", Json.Bool r.batch);
      ("peers", Json.Int n_peers);
      ("items", Json.Int r.items);
      ("lookups", Json.Int r.lookups);
      ("found", Json.Int r.found);
      ("stored_total", Json.Int r.stored_total);
      ("events", Json.Int r.events);
      ("workload_cpu_s", Json.Float r.wall_s);
      ("events_per_s", Json.Float r.events_per_s);
      ("minor_words_per_event", Json.Float r.minor_words_per_event);
      ("lookup_p50_ms", opt_float r.p50_ms);
      ("lookup_p99_ms", opt_float r.p99_ms);
      ( "invariants",
        match r.invariant_error with
        | None -> Json.String "ok"
        | Some m -> Json.String m );
    ]

let run ~smoke () =
  let seed = 42 in
  Printf.printf "== hotpath%s ==\n%!" (if smoke then " (smoke)" else "");
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  (* rates stabilise within a few hundred ops; the baseline pays an
     O(E log V) recompute per cache miss, so it gets the small corpus *)
  let base_ops = if smoke then 200 else 400 in
  let items, lookups =
    if smoke then (2_000, 2_000) else Scale.sized n_peers
  in
  let dijkstra, _ =
    measure ~seed ~name:"dijkstra" ~routing_mode:`Dijkstra ~batch:false
      ~items:base_ops ~lookups:base_ops ()
  in
  print_result dijkstra;
  let ls, _ =
    measure ~seed ~name:"link_state" ~routing_mode:`Link_state ~batch:false
      ~items ~lookups ()
  in
  print_result ls;
  let ls_batch, ls_batch_reg =
    measure ~seed ~name:"link_state+batch" ~routing_mode:`Link_state
      ~batch:true ~items ~lookups ()
  in
  print_result ls_batch;
  let syn_batch, _ =
    measure ~seed ~name:"synthetic+batch" ~routing_mode:`Synthetic ~batch:true
      ~items ~lookups ()
  in
  print_result syn_batch;
  let all = [ dijkstra; ls; ls_batch; syn_batch ] in
  (* recall: every configuration must find every looked-up item *)
  List.iter
    (fun r ->
      if r.found <> r.lookups then
        fail "%s: recall %d/%d (expected 1.0)" r.name r.found r.lookups;
      match r.invariant_error with
      | None -> ()
      | Some m -> fail "%s: invariants violated: %s" r.name m)
    all;
  (* batching must be pure mechanics: same routing, same seed, batch
     on/off -> bit-identical schedule *)
  if
    ls.events <> ls_batch.events
    || ls.stored_total <> ls_batch.stored_total
    || ls.found <> ls_batch.found
  then
    fail
      "batching changed the simulation (events %d vs %d, stored %d vs %d, \
       found %d vs %d)"
      ls.events ls_batch.events ls.stored_total ls_batch.stored_total ls.found
      ls_batch.found;
  let speedup =
    if dijkstra.events_per_s > 0.0 then
      ls_batch.events_per_s /. dijkstra.events_per_s
    else infinity
  in
  Printf.printf "  speedup vs dijkstra baseline: %.1fx\n%!" speedup;
  if speedup < min_speedup then
    fail "speedup %.2fx below the %.1fx floor (link_state+batch %.0f ev/s vs \
          dijkstra %.0f ev/s)"
      speedup min_speedup ls_batch.events_per_s dijkstra.events_per_s;
  if ls_batch.minor_words_per_event >= dijkstra.minor_words_per_event then
    fail
      "no allocation drop: link_state+batch %.1f minor words/event vs \
       dijkstra %.1f"
      ls_batch.minor_words_per_event dijkstra.minor_words_per_event;
  if ls_batch.minor_words_per_event > max_minor_words_per_event then
    fail "allocation regression: %.1f minor words/event exceeds ceiling %.1f"
      ls_batch.minor_words_per_event max_minor_words_per_event;
  if ls_batch.events_per_s < min_events_per_s then
    fail "events/sec %.0f below floor %.0f" ls_batch.events_per_s
      min_events_per_s;
  (* latency SLO gates (--slo) against the shipping configuration *)
  (match !Experiments.slo_specs with
  | [] -> ()
  | specs ->
    if
      not
        (Slo.enforce ls_batch_reg ~specs
           ~print:(fun line -> Printf.printf "  [slo] %s\n%!" line))
    then fail "latency SLO violated (see lines above)");
  let doc =
    Json.Obj
      [
        ("bench", Json.String "hotpath");
        ("smoke", Json.Bool smoke);
        ("seed", Json.Int seed);
        ("peers", Json.Int n_peers);
        ("telemetry_sample_rate", Json.Float telemetry_sample_rate);
        ("configs", Json.List (List.map result_json all));
        ("speedup_vs_dijkstra", Json.Float speedup);
        ( "batch_deterministic",
          Json.Bool
            (ls.events = ls_batch.events
            && ls.stored_total = ls_batch.stored_total
            && ls.found = ls_batch.found) );
        ( "gate",
          Json.Obj
            [
              ("min_speedup", Json.Float min_speedup);
              ("max_minor_words_per_event", Json.Float max_minor_words_per_event);
              ("min_events_per_s", Json.Float min_events_per_s);
              ( "failures",
                Json.List (List.rev_map (fun s -> Json.String s) !failures) );
            ] );
      ]
  in
  Scale.write_json ~path:"BENCH_hotpath.json" doc;
  match !failures with
  | [] -> Printf.printf "hotpath gate: PASS\n%!"
  | fs ->
    List.iter (fun f -> Printf.printf "hotpath gate FAIL: %s\n%!" f)
      (List.rev fs);
    exit 1
