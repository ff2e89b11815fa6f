(* Benchmark harness entry point.

   Usage:
     dune exec bench/main.exe                     # every table and figure, small scale
     dune exec bench/main.exe -- fig5a            # one experiment
     dune exec bench/main.exe -- all --paper      # full 1000-peer paper scale
     dune exec bench/main.exe -- bechamel         # Bechamel micro-benchmarks
     dune exec bench/main.exe -- fig4 --metrics-dir out/   # dump registries as JSON

   Experiments: fig3a fig3b fig3-sim fig4 fig5a fig5b durability fig6a fig6b
                table2 ablate-delta ablate-fingers ablate-bypass ablate-bt
                ablate-cache stress churn-live lookup-perf *)

open Experiments

let usage () =
  print_endline
    "usage: main.exe [all|fig3a|fig3b|fig3-sim|fig4|fig5a|fig5b|durability|fig6a|\n\
    \                 fig6b|table2|ablate-delta|ablate-fingers|ablate-bypass|\n\
    \                 ablate-bt|ablate-cache|stress|lookup-perf|scale|hotpath|\n\
    \                 bechamel]\n\
    \                [--paper] [--metrics-dir DIR] [--audit] [--smoke]\n\
    \                [--slo 'lookup:p99<=40']..."

(* --- Bechamel micro-benchmarks: one per experiment kernel plus the hot
   core operations. --- *)

let bechamel_tests () =
  let open Bechamel in
  (* prebuilt small systems reused across iterations; lookups and inserts
     mutate only metrics/state that does not change their own cost class *)
  let b_mid = build ~seed:21 ~ps:0.5 ~scale:small_scale () in
  insert_corpus b_mid;
  let live = Array.of_list (H.peers b_mid.h) in
  let counter = ref 0 in
  let lookup_once () =
    incr counter;
    let item = b_mid.items.(!counter mod Array.length b_mid.items) in
    let from = live.(!counter mod Array.length live) in
    H.lookup b_mid.h ~from ~key:item.Keys.key ~on_result:(fun _ -> ()) ();
    H.run b_mid.h
  in
  let insert_once () =
    incr counter;
    let from = live.(!counter mod Array.length live) in
    H.insert b_mid.h ~from ~key:(Printf.sprintf "bench-%d" !counter) ~value:"v" ();
    H.run b_mid.h
  in
  let rng = Rng.create 5 in
  let graph_routing =
    let topo = P2p_topology.Transit_stub.generate ~rng:(Rng.create 9) small_scale.topology in
    topo.P2p_topology.Transit_stub.graph
  in
  let fig3_series () =
    List.iter
      (fun ps ->
        ignore (P2p_analysis.Formulas.join_latency ~ps ~n:1000 ~delta:2 : float);
        ignore (P2p_analysis.Formulas.lookup_latency ~ps ~n:1000 ~delta:2 ~ttl:4 : float))
      ps_sweep
  in
  let event_queue_churn () =
    let q = P2p_sim.Event_queue.create () in
    for i = 1 to 1000 do
      ignore
        (P2p_sim.Event_queue.add q ~time:(float_of_int (i * 7919 mod 1000)) ()
          : P2p_sim.Event_queue.handle)
    done;
    while not (P2p_sim.Event_queue.is_empty q) do
      ignore (P2p_sim.Event_queue.pop q : (float * unit) option)
    done
  in
  (* Steady state at sim-lookup's queue depth (~20k resident): 10k
     in-flight messages a hop apart and 10k lookup timers a minute out.
     Each run pops the earliest event and schedules its successor of the
     same kind, so the depth stays put and the heap does not fit in
     cache, unlike the 1k churn above. *)
  let resident_queue =
    let q = P2p_sim.Event_queue.create () in
    let qrng = Rng.create 11 in
    for i = 0 to 19_999 do
      let timer = i mod 2 = 1 in
      let time = Rng.float qrng 100.0 +. if timer then 60_000.0 else 0.0 in
      P2p_sim.Event_queue.add_fast q ~time timer
    done;
    let clock = { P2p_sim.Event_queue.now = 0.0 } in
    let successor timer =
      let delay = if timer then 60_000.0 else 1.0 +. Rng.float qrng 100.0 in
      P2p_sim.Event_queue.add_fast q ~time:(clock.now +. delay) timer
    in
    fun () -> ignore (P2p_sim.Event_queue.pop_apply q clock successor : bool)
  in
  let dijkstra_sssp () =
    (* fresh router so the cache does not absorb the work *)
    let r = P2p_topology.Routing.dijkstra graph_routing in
    ignore (P2p_topology.Routing.distance r 0 1 : float)
  in
  let routing_create () =
    ignore (P2p_topology.Routing.create graph_routing : P2p_topology.Routing.t)
  in
  [
    Test.make ~name:"fig3-analytic-series" (Staged.stage fig3_series);
    Test.make ~name:"hybrid-lookup (ps=0.5)" (Staged.stage lookup_once);
    Test.make ~name:"hybrid-insert (ps=0.5)" (Staged.stage insert_once);
    Test.make ~name:"event-queue-1k-churn" (Staged.stage event_queue_churn);
    Test.make ~name:"event-queue-20k-resident" (Staged.stage resident_queue);
    Test.make ~name:"dijkstra-sssp-384" (Staged.stage dijkstra_sssp);
    Test.make ~name:"routing-create-384" (Staged.stage routing_create);
    Test.make ~name:"rng-int" (Staged.stage (fun () -> ignore (Rng.int rng 1000 : int)));
    Test.make ~name:"key-hash"
      (Staged.stage (fun () ->
           ignore (P2p_hashspace.Key_hash.of_string "some-file-name.mp3" : int)));
  ]

let run_bechamel () =
  let open Bechamel in
  let open Toolkit in
  header "Bechamel micro-benchmarks";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instance = Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  List.iter
    (fun test ->
      List.iter
        (fun basic ->
          let raw = Benchmark.run cfg [ instance ] basic in
          let result = Analyze.one ols instance raw in
          match Analyze.OLS.estimates result with
          | Some [ estimate ] ->
            row "%-28s %12.1f ns/run\n%!" (Test.Elt.name basic) estimate
          | Some _ | None -> row "%-28s (no estimate)\n%!" (Test.Elt.name basic))
        (Test.elements test))
    (bechamel_tests ())

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let paper = List.mem "--paper" args in
  let smoke = List.mem "--smoke" args in
  let scale = if paper then paper_scale else small_scale in
  audit_enabled := List.mem "--audit" args;
  (* consume "--metrics-dir DIR" and "--slo SPEC" (repeatable) before
     picking the command *)
  let rec extract_options = function
    | "--metrics-dir" :: dir :: rest ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      metrics_dir := Some dir;
      extract_options rest
    | "--slo" :: spec :: rest ->
      slo_specs := !slo_specs @ [ spec ];
      extract_options rest
    | a :: rest -> a :: extract_options rest
    | [] -> []
  in
  let commands =
    extract_options
      (List.filter (fun a -> a <> "--paper" && a <> "--audit" && a <> "--smoke") args)
  in
  let command = match commands with [] -> "all" | c :: _ -> c in
  Printf.printf "scale: %s\n%!" scale.label;
  let all () =
    Fig3.fig3a ();
    Fig3.fig3b ();
    Fig3.fig3_sim ~scale ();
    Fig4.run ~scale ();
    Fig5.fig5a ~scale ();
    Fig5.fig5b ~scale ();
    Fig5.durability ~scale ();
    Fig6.fig6a ~scale ();
    Fig6.fig6b ~scale ();
    Table2.run ~scale ();
    Ablations.ablate_delta ~scale ();
    Ablations.ablate_fingers ~scale ();
    Ablations.ablate_bypass ~scale ();
    Ablations.ablate_bittorrent ~scale ();
    Ablations.ablate_cache ~scale ();
    Ablations.link_stress ~scale ();
    Ablations.churn_live ();
    Lookup_perf.run ~smoke ~scale ();
    run_bechamel ()
  in
  match command with
  | "all" -> all ()
  | "fig3a" -> Fig3.fig3a ()
  | "fig3b" -> Fig3.fig3b ()
  | "fig3-sim" -> Fig3.fig3_sim ~scale ()
  | "fig4" -> Fig4.run ~scale ()
  | "fig5a" -> Fig5.fig5a ~scale ()
  | "fig5b" -> Fig5.fig5b ~scale ()
  | "durability" -> Fig5.durability ~scale ()
  | "fig6a" -> Fig6.fig6a ~scale ()
  | "fig6b" -> Fig6.fig6b ~scale ()
  | "table2" -> Table2.run ~scale ()
  | "ablate-delta" -> Ablations.ablate_delta ~scale ()
  | "ablate-fingers" -> Ablations.ablate_fingers ~scale ()
  | "ablate-bypass" -> Ablations.ablate_bypass ~scale ()
  | "ablate-bt" -> Ablations.ablate_bittorrent ~scale ()
  | "ablate-cache" -> Ablations.ablate_cache ~scale ()
  | "stress" -> Ablations.link_stress ~scale ()
  | "churn-live" -> Ablations.churn_live ()
  | "lookup-perf" | "lookup_perf" -> Lookup_perf.run ~smoke ~scale ()
  | "scale" -> Scale.run ~smoke ()
  | "hotpath" -> Hotpath.run ~smoke ()
  | "bechamel" -> run_bechamel ()
  | "help" | "--help" | "-h" -> usage ()
  | unknown ->
    Printf.printf "unknown command %S\n" unknown;
    usage ();
    exit 1
