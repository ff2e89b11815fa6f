(* Always-on flight recorder: a bounded ring of recent operation
   completions and audit findings, cheap enough to leave enabled at
   million-peer scale (one array store per op; no strings are built
   until a dump is requested).  When something trips — an SLO gate, an
   audit check, or an explicit dump-on-exit — the ring is written out as
   JSONL next to a chrome trace of whatever spans the trace ring still
   holds, so "what led up to the p99" is answered by reading the dump
   instead of re-running the experiment. *)

module Trace = P2p_sim.Trace

type entry =
  | Op of {
      at : float;
      op : int;
      kind : string;
      total_ms : float;
      op_sampled : bool;
    }
  | Audit of { at : float; check : string; severity : string; detail : string }

type t = {
  capacity : int;
  ring : entry option array;
  mutable next : int;
  mutable retained : int;
  mutable total : int;
}

let create ~capacity () =
  if capacity <= 0 then
    invalid_arg "Flight_recorder.create: capacity must be positive";
  {
    capacity;
    ring = Array.make capacity None;
    next = 0;
    retained = 0;
    total = 0;
  }

let push t entry =
  t.ring.(t.next) <- Some entry;
  t.next <- (t.next + 1) mod t.capacity;
  if t.retained < t.capacity then t.retained <- t.retained + 1;
  t.total <- t.total + 1

let record_op t ~at ~op ~kind ~total_ms ~sampled =
  push t (Op { at; op; kind; total_ms; op_sampled = sampled })

let record_audit t ~at ~check ~severity ~detail =
  push t (Audit { at; check; severity; detail })

let observe t (c : Trace.op_completion) =
  record_op t ~at:c.Trace.comp_stop ~op:c.Trace.comp_op
    ~kind:c.Trace.comp_kind
    ~total_ms:(c.Trace.comp_stop -. c.Trace.comp_start)
    ~sampled:c.Trace.comp_sampled

let length t = t.retained

let total_recorded t = t.total

let entries t =
  let start = (t.next - t.retained + t.capacity) mod t.capacity in
  List.init t.retained (fun i ->
      match t.ring.((start + i) mod t.capacity) with
      | Some e -> e
      | None -> assert false)

let entry_to_json = function
  | Op { at; op; kind; total_ms; op_sampled } ->
    Json.Obj
      [
        ("t", Json.Float at);
        ("type", Json.String "op");
        ("op", Json.Int op);
        ("kind", Json.String kind);
        ("total_ms", Json.Float total_ms);
        ("sampled", Json.Bool op_sampled);
      ]
  | Audit { at; check; severity; detail } ->
    Json.Obj
      [
        ("t", Json.Float at);
        ("type", Json.String "audit");
        ("check", Json.String check);
        ("severity", Json.String severity);
        ("detail", Json.String detail);
      ]

let to_jsonl ?(reason = "manual") t =
  let buf = Buffer.create 4096 in
  let header =
    Json.Obj
      [
        ("type", Json.String "flight-recorder");
        ("reason", Json.String reason);
        ("entries", Json.Int t.retained);
        ("dropped", Json.Int (t.total - t.retained));
      ]
  in
  Buffer.add_string buf (Json.to_string header);
  Buffer.add_char buf '\n';
  List.iter
    (fun e ->
      Buffer.add_string buf (Json.to_string (entry_to_json e));
      Buffer.add_char buf '\n')
    (entries t);
  Buffer.contents buf

let rec ensure_dir d =
  if d = "" || d = "." || d = "/" || Sys.file_exists d then ()
  else begin
    ensure_dir (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ -> ()
  end

let dump t ?trace ?registry ~dir ~reason () =
  ensure_dir dir;
  let path name = Filename.concat dir (Printf.sprintf "flight-%s%s" reason name) in
  let jsonl = path ".jsonl" in
  Export.write_file ~path:jsonl (to_jsonl ~reason t);
  let written = ref [ jsonl ] in
  (match trace with
   | Some tr when Trace.enabled tr ->
     let chrome = path ".chrome.json" in
     Export.write_chrome_trace ~path:chrome tr;
     written := chrome :: !written
   | Some _ | None -> ());
  (match registry with
   | Some reg ->
     let metrics = path ".metrics.json" in
     Export.write_metrics ~path:metrics reg;
     written := metrics :: !written
   | None -> ());
  List.rev !written
