(* The repository benchmark: one of three workloads per invocation.

     main.exe --workload sim-lookup|sim-churn|live-ring --seed N
              --seconds S --trace 0|1 [--smoke] [--absent-lookups K]

   Prints every metric the run measured and every output check, then,
   as its last line, one JSON object: the end-to-end metrics with
   [--trace 0], the per-layer metrics with [--trace 1].  A traced run
   also writes its spans to .perfbench/<workload>-<seed>.trace.json.
   Exits 1 when an output check fails.  For the benchmark's own tests,
   [--smoke] shrinks every workload to a small size and
   [--absent-lookups K] adds K lookups of keys that were never inserted,
   which must count as failures. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload sim-lookup|sim-churn|live-ring --seed N \
     --seconds S --trace 0|1 [--smoke] [--absent-lookups K]";
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. in
  let trace = ref (-1) and smoke = ref false and absent = ref 0 in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | "--smoke" :: rest -> smoke := true; parse rest
    | "--absent-lookups" :: v :: rest -> absent := int_of_string v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !seed < 0 || !seconds <= 0. || (!trace <> 0 && !trace <> 1) then usage ();
  let trace = !trace = 1 and seed = !seed and seconds = !seconds in
  let r = Result.create () in
  let sim workload =
    let size = { (if !smoke then Sim.smoke else Sim.full) with Sim.absent = !absent } in
    Sim.run ~workload ~size ~seed ~seconds ~trace r
  in
  let tracer =
    match !workload with
    | "sim-lookup" -> sim Sim.Lookup
    | "sim-churn" -> sim Sim.Churn
    | "live-ring" -> Live.run ~smoke:!smoke ~absent:!absent ~seed ~seconds ~trace r
    | _ -> usage ()
  in
  (match tracer with
   | Some tr ->
     let dir = ".perfbench" in
     (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
     let path = Filename.concat dir (Printf.sprintf "%s-%d.trace.json" !workload seed) in
     Span.write_chrome tr ~path;
     Printf.printf "  trace: %d spans -> %s\n" (Span.count tr) path
   | None -> ());
  Result.print r ~workload:!workload ~tier:(if trace then Result.Layer else Result.E2e);
  if not (Result.correct r) then exit 1
