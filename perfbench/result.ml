(* What one benchmark run reports: named metrics with units, the output
   checks, and the attempted/failed operation counts.

   A metric is tagged end-to-end (what a user of the system sees,
   printed by an untraced run) or per-layer (printed by a traced run).
   Every workload emits every metric of the tag it prints — a layer the
   workload does not exercise reads 0 — so [run.py] can hold the printed
   set to the lists in BENCHMARK.json. *)

type tier = E2e | Layer

type metric = { name : string; unit_ : string; value : float; tier : tier }

type t = {
  mutable metrics : metric list;  (* reverse order of addition *)
  mutable checks : (string * bool) list;
  mutable attempted : int;
  mutable failed : int;
}

let create () = { metrics = []; checks = []; attempted = 0; failed = 0 }

let add r tier name unit_ value =
  r.metrics <- { name; unit_; value; tier } :: r.metrics

let e2e r = add r E2e
let layer r = add r Layer

let check r name ok = r.checks <- (name, ok) :: r.checks

let correct r = List.for_all snd r.checks

(* --- small statistics ------------------------------------------------ *)

(* Nearest-rank percentile of an unsorted sample; [nan] when empty. *)
let percentile samples p =
  let n = Array.length samples in
  if n = 0 then Float.nan
  else begin
    let s = Array.copy samples in
    Array.sort compare s;
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    s.(max 1 (min n rank) - 1)
  end

let median l = percentile (Array.of_list l) 50.

let ratio a b = if b = 0. then 0. else a /. b

let per a b = ratio (float_of_int a) (float_of_int b)

(* Peak resident set of this process (VmHWM), in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> Float.nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* --- output ---------------------------------------------------------- *)

let json_float v = Printf.sprintf "%.17g" v

(* A table of every metric and check for people, then — as the last
   line — the JSON object for the metrics of tier [tier]. *)
let print r ~workload ~tier =
  let metrics = List.rev r.metrics in
  Printf.printf "== %s ==\n" workload;
  List.iter
    (fun m ->
      Printf.printf "  %-34s %16.6g %-6s %s\n" m.name m.value m.unit_
        (match m.tier with E2e -> "" | Layer -> "(layer)"))
    metrics;
  List.iter
    (fun (name, ok) ->
      Printf.printf "  check %-40s %s\n" name (if ok then "ok" else "FAILED"))
    (List.rev r.checks);
  Printf.printf "  attempted %d, failed %d\n" r.attempted r.failed;
  let fields =
    List.filter_map
      (fun m ->
        if m.tier = tier then
          Some
            (Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" m.name
               (json_float m.value) m.unit_)
        else None)
      metrics
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    (correct r) r.attempted r.failed (String.concat "," fields)
