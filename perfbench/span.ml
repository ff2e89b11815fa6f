(* In-memory spans for the traced run.

   Spans are taken in the benchmark's own code, around each call into a
   layer of the program; nothing inside the program is instrumented.
   They stay in memory while the run measures and are written once, at
   exit, as a Chrome trace-event file (readable by Perfetto).  Every
   span carries the id of the span that caused it and the request it
   belongs to, so the spans of one request can be grouped. *)

type span = {
  id : int;
  parent : int;  (* 0 = root *)
  req : int;  (* 0 = not part of a request *)
  name : string;
  t0 : float;
  t1 : float;
}

type t = { mutable spans : span list; mutable next_id : int }

let create () = { spans = []; next_id = 1 }

let now = Unix.gettimeofday

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let add t ~id ~parent ~req name t0 t1 =
  t.spans <- { id; parent; req; name; t0; t1 } :: t.spans

(* [span ?tracer ?parent ?req name f] runs [f id] and, when tracing,
   records it as a span; [id] is the span's own id, for children to name
   as their parent (0 when not tracing).  Timing a call for a metric is
   {!Calib}'s job, not this. *)
let span ?tracer ?(parent = 0) ?(req = 0) name f =
  match tracer with
  | None -> f 0
  | Some t ->
    let id = fresh_id t in
    let t0 = now () in
    let r = f id in
    add t ~id ~parent ~req name t0 (now ());
    r

let count t = List.length t.spans

let write_chrome t ~path =
  let oc = open_out path in
  output_string oc "[";
  List.iteri
    (fun i s ->
      if i > 0 then output_string oc ",\n";
      Printf.fprintf oc
        "{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\
         \"args\":{\"id\":%d,\"parent\":%d,\"req\":%d}}"
        s.name (s.t0 *. 1e6) ((s.t1 -. s.t0) *. 1e6) s.id s.parent s.req)
    (List.rev t.spans);
  output_string oc "]\n";
  close_out oc
