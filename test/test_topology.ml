(* Tests for P2p_topology: Graph, Transit_stub, Routing, Link_stress,
   Landmark. *)

module Rng = P2p_sim.Rng
module Graph = P2p_topology.Graph
module Transit_stub = P2p_topology.Transit_stub
module Routing = P2p_topology.Routing
module Link_stress = P2p_topology.Link_stress
module Landmark = P2p_topology.Landmark

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf = Alcotest.check (Alcotest.float 1e-9)

(* --- Graph --- *)

let test_graph_basic () =
  let g = Graph.create 4 in
  checki "nodes" 4 (Graph.node_count g);
  checki "no edges" 0 (Graph.edge_count g);
  Graph.add_edge g 0 1 ~latency:2.0;
  Graph.add_edge g 1 2 ~latency:3.0;
  checki "edges" 2 (Graph.edge_count g);
  checkb "has 0-1" true (Graph.has_edge g 0 1);
  checkb "symmetric" true (Graph.has_edge g 1 0);
  checkb "absent" false (Graph.has_edge g 0 2);
  checkf "latency" 2.0 (Graph.latency g 0 1);
  checkf "latency symmetric" 2.0 (Graph.latency g 1 0);
  checki "degree" 2 (Graph.degree g 1)

let test_graph_rejects () =
  let g = Graph.create 3 in
  Graph.add_edge g 0 1 ~latency:1.0;
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.add_edge: self loop")
    (fun () -> Graph.add_edge g 1 1 ~latency:1.0);
  Alcotest.check_raises "duplicate" (Invalid_argument "Graph.add_edge: duplicate edge")
    (fun () -> Graph.add_edge g 1 0 ~latency:1.0);
  Alcotest.check_raises "bad latency"
    (Invalid_argument "Graph.add_edge: non-positive latency") (fun () ->
      Graph.add_edge g 1 2 ~latency:0.0);
  Alcotest.check_raises "out of range" (Invalid_argument "Graph: node out of range")
    (fun () -> Graph.add_edge g 0 3 ~latency:1.0)

let test_graph_edges_listing () =
  let g = Graph.create 3 in
  Graph.add_edge g 2 0 ~latency:1.5;
  (match Graph.edges g with
   | [ { Graph.u; v; latency } ] ->
     checki "u < v" 0 u;
     checki "v" 2 v;
     checkf "latency" 1.5 latency
   | _ -> Alcotest.fail "expected exactly one edge")

let test_graph_connectivity () =
  let g = Graph.create 4 in
  checkb "disconnected" false (Graph.is_connected g);
  Graph.add_edge g 0 1 ~latency:1.0;
  Graph.add_edge g 1 2 ~latency:1.0;
  checkb "still disconnected" false (Graph.is_connected g);
  Graph.add_edge g 2 3 ~latency:1.0;
  checkb "connected" true (Graph.is_connected g);
  checkb "empty graph connected" true (Graph.is_connected (Graph.create 0))

(* --- Transit_stub --- *)

let small_params =
  {
    Transit_stub.default_params with
    Transit_stub.transit_domains = 2;
    transit_nodes = 3;
    stub_domains_per_node = 2;
    stub_nodes = 4;
  }

let test_ts_node_count () =
  checki "formula" (6 + (6 * 2 * 4)) (Transit_stub.node_count small_params);
  checki "default params give 1000" 1000 (Transit_stub.node_count Transit_stub.default_params)

let test_ts_connected () =
  let rng = Rng.create 1 in
  let t = Transit_stub.generate ~rng small_params in
  checkb "connected" true (Graph.is_connected t.Transit_stub.graph);
  checki "node count" (Transit_stub.node_count small_params)
    (Graph.node_count t.Transit_stub.graph)

let test_ts_classes () =
  let rng = Rng.create 2 in
  let t = Transit_stub.generate ~rng small_params in
  let transit = Transit_stub.transit_nodes t and stub = Transit_stub.stub_nodes t in
  checki "transit count" 6 (List.length transit);
  checki "stub count" 48 (List.length stub);
  (* stub nodes reference a valid transit node *)
  List.iter
    (fun u ->
      match t.Transit_stub.classes.(u) with
      | Transit_stub.Stub owner -> checkb "owner is transit" true (owner >= 0 && owner < 6)
      | Transit_stub.Transit _ -> Alcotest.fail "stub classified as transit")
    stub

let test_ts_deterministic () =
  let t1 = Transit_stub.generate ~rng:(Rng.create 7) small_params in
  let t2 = Transit_stub.generate ~rng:(Rng.create 7) small_params in
  checki "same edge count" (Graph.edge_count t1.Transit_stub.graph)
    (Graph.edge_count t2.Transit_stub.graph);
  let e1 = Graph.edges t1.Transit_stub.graph and e2 = Graph.edges t2.Transit_stub.graph in
  checkb "identical topologies" true
    (List.for_all2 (fun a b -> a.Graph.u = b.Graph.u && a.Graph.v = b.Graph.v) e1 e2)

let test_ts_latency_classes () =
  let rng = Rng.create 3 in
  let t = Transit_stub.generate ~rng Transit_stub.default_params in
  let p = Transit_stub.default_params in
  List.iter
    (fun { Graph.u; v; latency } ->
      let lo, hi =
        match (t.Transit_stub.classes.(u), t.Transit_stub.classes.(v)) with
        | Transit_stub.Transit a, Transit_stub.Transit b when a = b ->
          p.Transit_stub.intra_transit_latency
        | Transit_stub.Transit _, Transit_stub.Transit _ ->
          p.Transit_stub.transit_transit_latency
        | Transit_stub.Stub _, Transit_stub.Stub _ -> p.Transit_stub.intra_stub_latency
        | Transit_stub.Transit _, Transit_stub.Stub _
        | Transit_stub.Stub _, Transit_stub.Transit _ ->
          p.Transit_stub.transit_stub_latency
      in
      checkb "latency in class range" true (latency >= lo && latency <= hi))
    (Graph.edges t.Transit_stub.graph)

let test_ts_rejects () =
  Alcotest.check_raises "bad params"
    (Invalid_argument "Transit_stub.generate: non-positive size parameter") (fun () ->
      ignore
        (Transit_stub.generate ~rng:(Rng.create 1)
           { small_params with Transit_stub.transit_nodes = 0 }
          : Transit_stub.t))

(* --- Routing --- *)

let line_graph n =
  let g = Graph.create n in
  for i = 0 to n - 2 do
    Graph.add_edge g i (i + 1) ~latency:1.0
  done;
  g

let test_routing_line () =
  let r = Routing.create (line_graph 5) in
  checkf "0 to 4" 4.0 (Routing.distance r 0 4);
  checkf "self" 0.0 (Routing.distance r 2 2);
  Alcotest.check (Alcotest.list Alcotest.int) "path" [ 0; 1; 2; 3; 4 ] (Routing.path r 0 4);
  checki "hop count" 4 (Routing.hop_count r 0 4);
  checki "self hops" 0 (Routing.hop_count r 3 3)

let test_routing_shortcut () =
  let g = line_graph 5 in
  Graph.add_edge g 0 4 ~latency:1.5;
  let r = Routing.create g in
  checkf "uses shortcut" 1.5 (Routing.distance r 0 4);
  Alcotest.check (Alcotest.list Alcotest.int) "short path" [ 0; 4 ] (Routing.path r 0 4)

let test_routing_unreachable () =
  let g = Graph.create 3 in
  Graph.add_edge g 0 1 ~latency:1.0;
  let r = Routing.create g in
  checkb "infinite" true (Routing.distance r 0 2 = infinity);
  Alcotest.check_raises "no path" Not_found (fun () ->
      ignore (Routing.path r 0 2 : int list))

let test_routing_symmetric () =
  let rng = Rng.create 4 in
  let t = Transit_stub.generate ~rng small_params in
  let r = Routing.create t.Transit_stub.graph in
  for _ = 1 to 50 do
    let u = Rng.int rng 54 and v = Rng.int rng 54 in
    checkf "d(u,v) = d(v,u)"
      (Routing.distance r u v) (Routing.distance r v u)
  done

let test_routing_triangle_inequality () =
  let rng = Rng.create 5 in
  let t = Transit_stub.generate ~rng small_params in
  let r = Routing.create t.Transit_stub.graph in
  for _ = 1 to 100 do
    let a = Rng.int rng 54 and b = Rng.int rng 54 and c = Rng.int rng 54 in
    checkb "triangle" true
      (Routing.distance r a c <= Routing.distance r a b +. Routing.distance r b c +. 1e-9)
  done

let test_routing_lru_bound () =
  (* A router capped at 2 cached sources must evict (LRU) yet keep
     answering exactly like an unbounded one. *)
  let rng = Rng.create 6 in
  let t = Transit_stub.generate ~rng small_params in
  let unbounded = Routing.dijkstra t.Transit_stub.graph in
  let capped = Routing.dijkstra ~max_cached_sources:2 t.Transit_stub.graph in
  (* cycle through more sources than the cap, twice, so every source is
     computed, evicted and recomputed at least once *)
  for round = 1 to 2 do
    ignore round;
    for u = 0 to 9 do
      for v = 0 to 53 do
        checkf "capped = unbounded"
          (Routing.distance unbounded u v)
          (Routing.distance capped u v)
      done
    done
  done;
  Alcotest.check_raises "cap must be positive"
    (Invalid_argument "Routing.dijkstra: max_cached_sources") (fun () ->
      ignore (Routing.dijkstra ~max_cached_sources:0 t.Transit_stub.graph : Routing.t))

let test_routing_eccentricity () =
  let r = Routing.create (line_graph 5) in
  checkf "end node" 4.0 (Routing.eccentricity r 0);
  checkf "middle node" 2.0 (Routing.eccentricity r 2)

let test_graph_set_latency () =
  let g = Graph.create 3 in
  Graph.add_edge g 0 1 ~latency:1.0;
  Graph.set_latency g 1 0 ~latency:2.5;
  checkf "updated both directions" 2.5 (Graph.latency g 0 1);
  Alcotest.check_raises "absent edge" Not_found (fun () ->
      Graph.set_latency g 0 2 ~latency:1.0);
  Alcotest.check_raises "bad latency"
    (Invalid_argument "Graph.set_latency: non-positive latency") (fun () ->
      Graph.set_latency g 0 1 ~latency:0.0)

(* --- link-state routing --- *)

let is_transit_of t u =
  match t.Transit_stub.classes.(u) with
  | Transit_stub.Transit _ -> true
  | Transit_stub.Stub _ -> false

(* Every pair of [r] against a fresh Dijkstra oracle over the same
   graph: distance to float-sum tolerance (hierarchical composition sums
   in a different order), the same hop count (or both unreachable), and
   a valid path — a walk over real edges from [u] to [v] whose cost is
   the distance and whose length is the hop count.  The graphs carry
   random float latencies, so shortest paths are unique and hop counts
   comparable across backends.  Checked with [failf] rather than
   [Alcotest.check], which logs every assertion: 1000-node graphs have
   10^6 pairs. *)
let check_matches_dijkstra name g r =
  let oracle = Routing.dijkstra g in
  let hops r u v = match Routing.hop_count r u v with h -> h | exception Not_found -> -1 in
  let close a b = a = b || Float.abs (a -. b) <= 1e-6 in
  let n = Graph.node_count g in
  (* edge latencies as an n*n matrix, 0 where there is no edge *)
  let weight = Array.make (n * n) 0.0 in
  List.iter
    (fun e ->
      weight.((e.Graph.u * n) + e.Graph.v) <- e.Graph.latency;
      weight.((e.Graph.v * n) + e.Graph.u) <- e.Graph.latency)
    (Graph.edges g);
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      let want = Routing.distance oracle u v and got = Routing.distance r u v in
      if not (close want got) then
        Alcotest.failf "%s: distance %d->%d: dijkstra %g, router %g" name u v want got;
      let want_hops = hops oracle u v and got_hops = hops r u v in
      if want_hops <> got_hops then
        Alcotest.failf "%s: hop_count %d->%d: dijkstra %d, router %d" name u v want_hops
          got_hops;
      if got < infinity then begin
        let rec walk cost links = function
          | [ last ] -> (last, cost, links)
          | a :: (b :: _ as rest) ->
            let w = weight.((a * n) + b) in
            if w = 0.0 then
              Alcotest.failf "%s: path %d->%d uses missing edge %d-%d" name u v a b;
            walk (cost +. w) (links + 1) rest
          | [] -> Alcotest.failf "%s: empty path %d->%d" name u v
        in
        match Routing.path r u v with
        | first :: _ as p ->
          let last, cost, links = walk 0.0 0 p in
          if first <> u || last <> v || (not (close cost got)) || links <> got_hops then
            Alcotest.failf "%s: path %d->%d is not a shortest path" name u v
        | [] -> Alcotest.failf "%s: empty path %d->%d" name u v
      end
    done
  done

(* Property: over random transit-stub graphs, the precomputed link-state
   tables answer exactly like per-source Dijkstra on every pair, and both
   backends report valid paths (the oracle checked against itself). *)
let test_link_state_matches_dijkstra () =
  List.iter
    (fun seed ->
      let rng = Rng.create seed in
      let t = Transit_stub.generate ~rng small_params in
      let g = t.Transit_stub.graph in
      check_matches_dijkstra "dijkstra" g (Routing.dijkstra g);
      check_matches_dijkstra "link_state" g
        (Routing.link_state g ~is_transit:(is_transit_of t)))
    [ 11; 12; 13 ]

(* Hand-built hierarchy where every figure is known exactly: transit
   backbone 0 -- 1, a 3-node stub domain {2,3,4} on node 0, a 2-node
   stub domain {5,6} on node 1, and node 7 an isolated stub domain with
   no access link. *)
let manual_hierarchy () =
  let g = Graph.create 8 in
  Graph.add_edge g 0 1 ~latency:10.0;
  Graph.add_edge g 2 3 ~latency:1.0;
  Graph.add_edge g 3 4 ~latency:1.0;
  Graph.add_edge g 0 2 ~latency:2.0;
  Graph.add_edge g 5 6 ~latency:1.0;
  Graph.add_edge g 1 5 ~latency:3.0;
  (g, Routing.link_state g ~is_transit:(fun u -> u < 2))

let test_link_state_manual () =
  let _g, r = manual_hierarchy () in
  checkf "intra-domain" 2.0 (Routing.distance r 2 4);
  checkf "stub to transit" 13.0 (Routing.distance r 3 1);
  checkf "transit to stub" 4.0 (Routing.distance r 1 6);
  checkf "cross-domain" 18.0 (Routing.distance r 4 6);
  checki "cross-domain hops" 6 (Routing.hop_count r 4 6);
  Alcotest.check (Alcotest.list Alcotest.int) "cross-domain path"
    [ 4; 3; 2; 0; 1; 5; 6 ] (Routing.path r 4 6);
  checkf "eccentricity" 18.0 (Routing.eccentricity r 4);
  (* the isolated domain: reachable from itself, nothing else *)
  checkf "isolated self" 0.0 (Routing.distance r 7 7);
  checkb "isolated unreachable" true (Routing.distance r 7 4 = infinity);
  checkb "unreachable from transit" true (Routing.distance r 0 7 = infinity);
  Alcotest.check_raises "no path" Not_found (fun () ->
      ignore (Routing.path r 4 7 : int list));
  Alcotest.check_raises "no hop count" Not_found (fun () ->
      ignore (Routing.hop_count r 4 7 : int))

let test_link_state_rejects_multi_access () =
  let g = Graph.create 4 in
  Graph.add_edge g 0 1 ~latency:1.0;
  Graph.add_edge g 2 3 ~latency:1.0;
  Graph.add_edge g 0 2 ~latency:1.0;
  Graph.add_edge g 1 3 ~latency:1.0;
  (* stub domain {2,3} touches the backbone twice: not transit-stub *)
  checkb "rejected" true
    (match Routing.link_state g ~is_transit:(fun u -> u < 2) with
     | exception Invalid_argument _ -> true
     | (_ : Routing.t) -> false)

(* Incremental recomputation: after [update_link] on each link class
   (intra-stub, transit-transit, access) the link-state router must
   answer exactly like a fresh Dijkstra router over the mutated graph. *)
let test_link_state_update_link () =
  let rng = Rng.create 21 in
  let t = Transit_stub.generate ~rng small_params in
  let g = t.Transit_stub.graph in
  let is_t = is_transit_of t in
  let ls = Routing.link_state g ~is_transit:is_t in
  let edges = Graph.edges g in
  let pick pred = List.find pred edges in
  let intra = pick (fun e -> (not (is_t e.Graph.u)) && not (is_t e.Graph.v)) in
  let transit = pick (fun e -> is_t e.Graph.u && is_t e.Graph.v) in
  let access = pick (fun e -> is_t e.Graph.u <> is_t e.Graph.v) in
  let check_against_fresh name =
    let fresh = Routing.dijkstra g in
    let n = Graph.node_count g in
    for u = 0 to n - 1 do
      for v = 0 to n - 1 do
        Alcotest.check (Alcotest.float 1e-6) name
          (Routing.distance fresh u v)
          (Routing.distance ls u v)
      done
    done
  in
  Routing.update_link ls intra.Graph.u intra.Graph.v ~latency:0.25;
  check_against_fresh "after intra-stub update";
  Routing.update_link ls transit.Graph.u transit.Graph.v ~latency:123.0;
  check_against_fresh "after transit update";
  Routing.update_link ls access.Graph.u access.Graph.v ~latency:9.5;
  check_against_fresh "after access-link update"

let test_graph_routed_update_link () =
  let g = line_graph 5 in
  let r = Routing.dijkstra g in
  checkf "before" 4.0 (Routing.distance r 0 4);
  (* the cached source-0 tree must be dropped, not reused *)
  Routing.update_link r 2 3 ~latency:10.0;
  checkf "after" 13.0 (Routing.distance r 0 4);
  checki "hops unchanged" 4 (Routing.hop_count r 0 4);
  Alcotest.check_raises "synthetic rejects"
    (Invalid_argument "Routing.update_link: synthetic router") (fun () ->
      Routing.update_link
        (Routing.synthetic ~nodes:3 ~latency:1.0)
        0 1 ~latency:2.0)

let test_routing_refresh () =
  let g, r = manual_hierarchy () in
  checkf "before" 2.0 (Routing.distance r 2 4);
  (* a structural change (new edge) needs the full refresh *)
  Graph.add_edge g 2 4 ~latency:0.5;
  Routing.refresh r;
  checkf "refreshed intra" 0.5 (Routing.distance r 2 4);
  checkf "refreshed cross" 16.5 (Routing.distance r 4 6);
  (* Dijkstra backend: refresh drops the cache *)
  let g2 = line_graph 3 in
  let r2 = Routing.create g2 in
  checkf "line before" 2.0 (Routing.distance r2 0 2);
  Graph.add_edge g2 0 2 ~latency:0.5;
  Routing.refresh r2;
  checkf "line after" 0.5 (Routing.distance r2 0 2)

let test_routing_lru_cap_one () =
  (* cap 1 thrashes the intrusive LRU list on every alternating source:
     head/tail bookkeeping must survive constant single-entry churn *)
  let rng = Rng.create 8 in
  let t = Transit_stub.generate ~rng small_params in
  let unbounded = Routing.dijkstra t.Transit_stub.graph in
  let capped = Routing.dijkstra ~max_cached_sources:1 t.Transit_stub.graph in
  for v = 0 to 53 do
    checkf "source 0" (Routing.distance unbounded 0 v) (Routing.distance capped 0 v);
    checkf "source 9" (Routing.distance unbounded 9 v) (Routing.distance capped 9 v)
  done

(* --- Routing.create: the hierarchy derived from bridges --- *)

(* [p2psim]'s topology sizing for an [n]-peer run *)
let p2psim_params n =
  let rec fit stub_nodes =
    let p =
      {
        Transit_stub.default_params with
        Transit_stub.transit_domains = 3;
        transit_nodes = 3;
        stub_domains_per_node = 4;
        stub_nodes;
      }
    in
    if Transit_stub.node_count p >= n then p else fit (stub_nodes + 1)
  in
  fit 3

let ts_graph ~seed params =
  (Transit_stub.generate ~rng:(Rng.create seed) params).Transit_stub.graph

let star_graph leaves =
  let g = Graph.create (leaves + 1) in
  for i = 1 to leaves do
    Graph.add_edge g 0 i ~latency:(float_of_int i)
  done;
  g

(* a triangle {0,1,2} with a tail 2-3-4, a separate edge 5-6, and an
   isolated node 7 *)
let disconnected_graph () =
  let g = Graph.create 8 in
  List.iter
    (fun (u, v, latency) -> Graph.add_edge g u v ~latency)
    [ (0, 1, 1.0); (1, 2, 2.0); (0, 2, 2.5); (2, 3, 1.5); (3, 4, 0.5); (5, 6, 3.0) ];
  g

(* Backbone cycle 0-1-2-3; stub domain {4,5} on 0 through 0-4; transit
   node 6 hangs off 2 by the bridge 2-6 and carries the stub domain
   {7,8} through 6-7.  The bridge rule puts 6, 7 and 8 in one stub
   region. *)
let hanging_transit_graph () =
  let g = Graph.create 9 in
  List.iter
    (fun (u, v, latency) -> Graph.add_edge g u v ~latency)
    [
      (0, 1, 20.0); (1, 2, 25.0); (2, 3, 20.0); (3, 0, 30.0);
      (0, 4, 8.0); (4, 5, 1.5);
      (2, 6, 40.0); (6, 7, 9.0); (7, 8, 2.0);
    ];
  g

(* a ring with random chords: every edge lies on a cycle *)
let bridgeless_graph ~seed n =
  let rng = Rng.create seed in
  let g = Graph.create n in
  let latency () = Rng.float_in_range rng ~lo:1.0 ~hi:20.0 in
  for i = 0 to n - 1 do
    Graph.add_edge g i ((i + 1) mod n) ~latency:(latency ())
  done;
  for _ = 1 to n do
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v && not (Graph.has_edge g u v) then Graph.add_edge g u v ~latency:(latency ())
  done;
  g

let test_create_matches_dijkstra () =
  let graphs =
    [
      ("p2psim n=100", ts_graph ~seed:43 (p2psim_params 100));
      ("p2psim n=1000", ts_graph ~seed:43 (p2psim_params 1000));
      ("star", star_graph 12);
      ("line", line_graph 9);
      ("disconnected", disconnected_graph ());
      ("hanging transit node", hanging_transit_graph ());
      ("bridgeless", bridgeless_graph ~seed:3 60);
    ]
    @ List.map
        (fun seed ->
          (Printf.sprintf "default seed %d" seed, ts_graph ~seed Transit_stub.default_params))
        [ 38; 1; 2; 3 ]
  in
  List.iter (fun (name, g) -> check_matches_dijkstra name g (Routing.create g)) graphs

(* The derived core is exactly the expected one.  [create] and
   [link_state] build the same tables from the same classification, so
   with the expected core as [is_transit] the two routers reach the same
   number of heap words; a larger core (or a smaller stub region) shows
   as more. *)
let check_core name g ~core =
  let words r = Obj.reachable_words (Obj.repr (r : Routing.t)) in
  checki (name ^ ": tables of the expected core")
    (words (Routing.link_state g ~is_transit:core))
    (words (Routing.create g))

let test_create_core () =
  (* a tail 0..99 (numbered first, so the bridge pass starts at its far
     end) on a bridgeless ring 100..299: the ring is the core *)
  let g = Graph.create 300 in
  for i = 0 to 98 do
    Graph.add_edge g i (i + 1) ~latency:1.0
  done;
  Graph.add_edge g 99 100 ~latency:1.0;
  for i = 100 to 299 do
    Graph.add_edge g i (if i = 299 then 100 else i + 1) ~latency:2.0
  done;
  check_core "ring with a tail" g ~core:(fun u -> u >= 100);
  (* a star whose hub is the last node *)
  let g = Graph.create 9 in
  for i = 0 to 7 do
    Graph.add_edge g i 8 ~latency:1.0
  done;
  check_core "star" g ~core:(fun u -> u = 8);
  check_core "odd line" (line_graph 5) ~core:(fun u -> u = 2);
  check_core "even line: the bridge splitting it evenly" (line_graph 6) ~core:(fun u ->
      u = 2 || u = 3);
  check_core "hanging transit node" (hanging_transit_graph ()) ~core:(fun u -> u < 4);
  check_core "one core per component" (disconnected_graph ()) ~core:(fun u ->
      u <= 2 || u >= 5)

(* [update_link] on each edge kind of the derived hierarchy: an access
   bridge (core to stub region), an intra-domain edge, a core edge —
   on the hand-built graph, where the kinds are known, and on a
   transit-stub graph. *)
let test_create_update_link () =
  let g = hanging_transit_graph () in
  let r = Routing.create g in
  List.iter
    (fun (name, u, v, latency) ->
      Routing.update_link r u v ~latency;
      check_matches_dijkstra name g r)
    [
      ("access bridge 2-6", 2, 6, 5.0);
      ("access bridge 0-4", 0, 4, 60.0);
      ("intra-domain 6-7", 6, 7, 0.5);
      ("intra-domain 4-5", 4, 5, 7.0);
      ("core 0-3", 0, 3, 1.0);
      ("core 1-2", 1, 2, 90.0);
    ];
  let t = Transit_stub.generate ~rng:(Rng.create 24) small_params in
  let g = t.Transit_stub.graph in
  let r = Routing.create g in
  let is_t = is_transit_of t in
  let edges = Graph.edges g in
  let pick pred = List.find pred edges in
  List.iter
    (fun (name, e, latency) ->
      Routing.update_link r e.Graph.u e.Graph.v ~latency;
      check_matches_dijkstra name g r)
    [
      ("access link", pick (fun e -> is_t e.Graph.u <> is_t e.Graph.v), 0.75);
      ("intra-stub", pick (fun e -> (not (is_t e.Graph.u)) && not (is_t e.Graph.v)), 6.0);
      ("transit-transit", pick (fun e -> is_t e.Graph.u && is_t e.Graph.v), 200.0);
    ]

(* [refresh] after structural changes derives the classification again:
   edges that close cycles move stub regions into the core. *)
let test_create_refresh_reclassifies () =
  let g = star_graph 6 in
  let r = Routing.create g in
  Graph.add_edge g 1 2 ~latency:0.5;
  Routing.refresh r;
  check_matches_dijkstra "star + leaf edge" g r;
  Graph.add_edge g 3 4 ~latency:0.25;
  Graph.add_edge g 4 5 ~latency:0.25;
  Routing.refresh r;
  check_matches_dijkstra "star + leaf chain" g r;
  let g = disconnected_graph () in
  let r = Routing.create g in
  Graph.add_edge g 4 5 ~latency:1.0;
  Graph.add_edge g 6 7 ~latency:1.0;
  Routing.refresh r;
  check_matches_dijkstra "components joined" g r

(* The per-message queries allocate nothing: [hop_count] returns an
   immediate int, and [distance] at most boxes its float result. *)
let test_create_queries_allocation_free () =
  let g = ts_graph ~seed:38 Transit_stub.default_params in
  let r = Routing.create g in
  let n = Graph.node_count g in
  let calls = 10_000 in
  let rng = Rng.create 9 in
  let us = Array.init calls (fun _ -> Rng.int rng n) in
  let vs = Array.init calls (fun _ -> Rng.int rng n) in
  let minor_words f =
    let before = Gc.minor_words () in
    f ();
    let after = Gc.minor_words () in
    (* the two [Gc.minor_words] results are boxed floats themselves *)
    let overhead =
      let a = Gc.minor_words () in
      Gc.minor_words () -. a
    in
    after -. before -. overhead
  in
  let hop_words =
    minor_words (fun () ->
        for i = 0 to calls - 1 do
          ignore (Sys.opaque_identity (Routing.hop_count r us.(i) vs.(i)))
        done)
  in
  Alcotest.check (Alcotest.float 0.0) "hop_count allocates nothing" 0.0 hop_words;
  let distance_words =
    minor_words (fun () ->
        for i = 0 to calls - 1 do
          ignore (Sys.opaque_identity (Routing.distance r us.(i) vs.(i)))
        done)
  in
  (* a boxed float is a header plus one word *)
  checkb
    (Printf.sprintf "distance boxes at most its result (%.0f words)" distance_words)
    true
    (distance_words <= float_of_int (2 * calls))

(* --- Link_stress --- *)

let test_stress_basic () =
  let g = line_graph 4 in
  let s = Link_stress.create g in
  Link_stress.charge_path s [ 0; 1; 2 ];
  Link_stress.charge_path s [ 1; 2; 3 ];
  checki "link 0-1" 1 (Link_stress.stress s 0 1);
  checki "link 1-2 charged twice" 2 (Link_stress.stress s 1 2);
  checki "order irrelevant" 2 (Link_stress.stress s 2 1);
  checki "uncharged" 0 (Link_stress.stress s 2 3 - 1);
  checki "total" 4 (Link_stress.total s);
  checki "max" 2 (Link_stress.max_stress s);
  checkf "mean over used" (4.0 /. 3.0) (Link_stress.mean_over_used_links s)

let test_stress_trivial_paths () =
  let s = Link_stress.create (line_graph 3) in
  Link_stress.charge_path s [];
  Link_stress.charge_path s [ 1 ];
  checki "nothing charged" 0 (Link_stress.total s)

let test_stress_clear () =
  let s = Link_stress.create (line_graph 3) in
  Link_stress.charge_path s [ 0; 1; 2 ];
  Link_stress.clear s;
  checki "cleared" 0 (Link_stress.total s);
  checki "max cleared" 0 (Link_stress.max_stress s)

(* --- Landmark --- *)

let test_landmark_selection () =
  let r = Routing.create (line_graph 10) in
  let rng = Rng.create 6 in
  let marks = Landmark.select_landmarks ~rng r ~count:3 in
  checki "count" 3 (List.length marks);
  checki "distinct" 3 (List.length (List.sort_uniq compare marks));
  Alcotest.check_raises "too many" (Invalid_argument "Landmark.select_landmarks")
    (fun () -> ignore (Landmark.select_landmarks ~rng r ~count:11 : int list))

let test_landmark_farthest_point_spread () =
  (* On a line, 2 landmarks by farthest-point sampling must include both
     extremes or at least be far apart. *)
  let r = Routing.create (line_graph 100) in
  let rng = Rng.create 7 in
  match Landmark.select_landmarks ~rng r ~count:2 with
  | [ a; b ] -> checkb "spread out" true (abs (a - b) > 50)
  | _ -> Alcotest.fail "expected two landmarks"

let test_landmark_clusters () =
  let r = Routing.create (line_graph 10) in
  let t = Landmark.create r ~landmarks:[ 0; 9 ] ~levels:[] in
  (* nodes 0..4 are closer to 0; nodes 5..9 closer to 9 *)
  checkb "same side same cluster" true
    (Landmark.cluster_id t 1 = Landmark.cluster_id t 2);
  checkb "opposite sides differ" true
    (Landmark.cluster_id t 1 <> Landmark.cluster_id t 8);
  checki "two clusters" 2 (Landmark.cluster_count t)

let test_landmark_levels_refine () =
  let r = Routing.create (line_graph 10) in
  let coarse = Landmark.create r ~landmarks:[ 0; 9 ] ~levels:[] in
  let fine = Landmark.create r ~landmarks:[ 0; 9 ] ~levels:[ 2.0; 5.0 ] in
  ignore (Landmark.cluster_id coarse 1 : int);
  ignore (Landmark.cluster_id coarse 4 : int);
  ignore (Landmark.cluster_id fine 1 : int);
  ignore (Landmark.cluster_id fine 4 : int);
  (* with latency levels, node 1 (d=1 to landmark 0) and node 4 (d=4)
     split into different clusters even though the ordering is the same *)
  checkb "levels refine clusters" true
    (Landmark.cluster_id fine 1 <> Landmark.cluster_id fine 4);
  checkb "ordering-only merges them" true
    (Landmark.cluster_id coarse 1 = Landmark.cluster_id coarse 4)

let test_landmark_coordinate_stable () =
  let r = Routing.create (line_graph 6) in
  let t = Landmark.create r ~landmarks:[ 0; 5 ] ~levels:[] in
  Alcotest.check Alcotest.string "memoized" (Landmark.coordinate t 3) (Landmark.coordinate t 3)

let suite =
  [
    Alcotest.test_case "graph: basics" `Quick test_graph_basic;
    Alcotest.test_case "graph: rejects bad edges" `Quick test_graph_rejects;
    Alcotest.test_case "graph: edges listing" `Quick test_graph_edges_listing;
    Alcotest.test_case "graph: connectivity" `Quick test_graph_connectivity;
    Alcotest.test_case "transit-stub: node count" `Quick test_ts_node_count;
    Alcotest.test_case "transit-stub: connected" `Quick test_ts_connected;
    Alcotest.test_case "transit-stub: classes" `Quick test_ts_classes;
    Alcotest.test_case "transit-stub: deterministic" `Quick test_ts_deterministic;
    Alcotest.test_case "transit-stub: latency classes" `Quick test_ts_latency_classes;
    Alcotest.test_case "transit-stub: rejects bad params" `Quick test_ts_rejects;
    Alcotest.test_case "routing: line graph" `Quick test_routing_line;
    Alcotest.test_case "routing: picks shortcut" `Quick test_routing_shortcut;
    Alcotest.test_case "routing: unreachable" `Quick test_routing_unreachable;
    Alcotest.test_case "routing: symmetric" `Quick test_routing_symmetric;
    Alcotest.test_case "routing: triangle inequality" `Quick test_routing_triangle_inequality;
    Alcotest.test_case "routing: eccentricity" `Quick test_routing_eccentricity;
    Alcotest.test_case "routing: LRU-bounded cache" `Quick test_routing_lru_bound;
    Alcotest.test_case "graph: set_latency" `Quick test_graph_set_latency;
    Alcotest.test_case "routing: link-state matches Dijkstra" `Quick
      test_link_state_matches_dijkstra;
    Alcotest.test_case "routing: link-state manual hierarchy" `Quick test_link_state_manual;
    Alcotest.test_case "routing: link-state rejects multi-access domains" `Quick
      test_link_state_rejects_multi_access;
    Alcotest.test_case "routing: link-state incremental update" `Quick
      test_link_state_update_link;
    Alcotest.test_case "routing: Dijkstra update_link drops cache" `Quick
      test_graph_routed_update_link;
    Alcotest.test_case "routing: refresh after structural change" `Quick test_routing_refresh;
    Alcotest.test_case "routing: LRU cap of one" `Quick test_routing_lru_cap_one;
    Alcotest.test_case "routing: create matches Dijkstra" `Quick test_create_matches_dijkstra;
    Alcotest.test_case "routing: create derives the core" `Quick test_create_core;
    Alcotest.test_case "routing: create incremental update" `Quick test_create_update_link;
    Alcotest.test_case "routing: create refresh reclassifies" `Quick
      test_create_refresh_reclassifies;
    Alcotest.test_case "routing: create queries allocation-free" `Quick
      test_create_queries_allocation_free;
    Alcotest.test_case "stress: accounting" `Quick test_stress_basic;
    Alcotest.test_case "stress: trivial paths" `Quick test_stress_trivial_paths;
    Alcotest.test_case "stress: clear" `Quick test_stress_clear;
    Alcotest.test_case "landmark: selection" `Quick test_landmark_selection;
    Alcotest.test_case "landmark: farthest-point spread" `Quick test_landmark_farthest_point_spread;
    Alcotest.test_case "landmark: clustering" `Quick test_landmark_clusters;
    Alcotest.test_case "landmark: latency levels refine" `Quick test_landmark_levels_refine;
    Alcotest.test_case "landmark: coordinate memoized" `Quick test_landmark_coordinate_stable;
  ]
