module Trace = P2p_sim.Trace

let opt_int_field name = function
  | Some i -> [ (name, Json.Int i) ]
  | None -> []

let event_to_json (e : Trace.event) =
  Json.Obj
    ([ ("t", Json.Float e.Trace.time); ("tag", Json.String e.Trace.tag) ]
    @ opt_int_field "op" e.Trace.op
    @ opt_int_field "src" e.Trace.src
    @ opt_int_field "dst" e.Trace.dst
    @ [ ("detail", Json.String e.Trace.detail) ])

let event_of_json json =
  let open Json in
  match (Option.bind (member "t" json) to_float, Option.bind (member "tag" json) to_str)
  with
  | Some time, Some tag ->
    let detail =
      Option.value ~default:"" (Option.bind (member "detail" json) to_str)
    in
    let int_field name = Option.bind (member name json) to_int in
    Ok
      {
        Trace.time;
        tag;
        op = int_field "op";
        src = int_field "src";
        dst = int_field "dst";
        detail;
      }
  | _ -> Error "trace event needs numeric \"t\" and string \"tag\" fields"

let trace_to_buffer buf trace =
  List.iter
    (fun e ->
      Buffer.add_string buf (Json.to_string (event_to_json e));
      Buffer.add_char buf '\n')
    (Trace.events trace)

let trace_to_string trace =
  let buf = Buffer.create 4096 in
  trace_to_buffer buf trace;
  Buffer.contents buf

let events_of_jsonl text =
  let lines =
    String.split_on_char '\n' text |> List.filter (fun l -> String.trim l <> "")
  in
  let rec parse_lines acc lineno = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
      match Json.parse line with
      | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg)
      | Ok json -> (
        match event_of_json json with
        | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg)
        | Ok e -> parse_lines (e :: acc) (lineno + 1) rest))
  in
  parse_lines [] 1 lines

let metrics_to_string registry = Json.to_string (Registry.to_json registry)

(* --- Chrome trace-event / Perfetto export ---

   One complete event (ph "X") per finished span: pid is the peer the
   work ran on (the destination host of message-backed spans; pid 0 is
   the synthetic "ops" process holding root spans), tid is the
   operation id, timestamps are simulated ms scaled to the format's
   microseconds.  Open spans are skipped — the trace clamps children
   into their parents, so every emitted event nests properly in
   ui.perfetto.dev.  Process-name metadata (ph "M") labels each peer's
   track. *)

let span_pid (s : Trace.span) =
  match (s.Trace.span_dst, s.Trace.span_src) with
  | Some d, _ -> d
  | None, Some src -> src
  | None, None -> 0

let chrome_events trace =
  let spans = Trace.spans trace in
  let pids = Hashtbl.create 16 in
  let span_event ~pid ~tid (s : Trace.span) stop =
    Json.Obj
      [
        ("name", Json.String s.Trace.phase);
        ("cat", Json.String s.Trace.tier);
        ("ph", Json.String "X");
        ("ts", Json.Float (s.Trace.span_start *. 1000.0));
        ("dur", Json.Float ((stop -. s.Trace.span_start) *. 1000.0));
        ("pid", Json.Int pid);
        ("tid", Json.Int tid);
        ( "args",
          Json.Obj
            [
              ("op", Json.Int s.Trace.span_op);
              ("span", Json.Int s.Trace.span_id);
              ("parent", Json.Int s.Trace.parent);
              ("label", Json.String s.Trace.span_label);
            ] );
      ]
  in
  let events =
    List.filter_map
      (fun (s : Trace.span) ->
        match s.Trace.span_stop with
        | None -> None
        | Some stop ->
          let pid = span_pid s in
          if not (Hashtbl.mem pids pid) then Hashtbl.add pids pid ();
          Some (span_event ~pid ~tid:s.Trace.span_op s stop))
      spans
  in
  let meta ~pid ~tid ~what name =
    Json.Obj
      [
        ("name", Json.String what);
        ("ph", Json.String "M");
        ("pid", Json.Int pid);
        ("tid", Json.Int tid);
        ("args", Json.Obj [ ("name", Json.String name) ]);
      ]
  in
  let metadata =
    Hashtbl.fold (fun pid () acc -> pid :: acc) pids []
    |> List.sort compare
    |> List.map (fun pid ->
           meta ~pid ~tid:0 ~what:"process_name"
             (if pid = 0 then "ops" else Printf.sprintf "peer %d" pid))
  in
  metadata @ events

let trace_to_chrome trace = Json.to_string (Json.List (chrome_events trace))

let write_file ~path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_trace ~path trace = write_file ~path (trace_to_string trace)

let write_chrome_trace ~path trace = write_file ~path (trace_to_chrome trace)

let write_metrics ~path registry = write_file ~path (metrics_to_string registry)

let write_metrics_csv ~path registry = write_file ~path (Registry.to_csv registry)
