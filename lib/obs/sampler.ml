(* Passive time-series sampler over a metrics registry.

   A periodic engine timer would keep the event queue non-empty forever,
   so the sampler is poll-driven instead: the drain loop calls [poll]
   between engine steps and a snapshot of every counter and gauge is
   taken whenever simulated time has crossed the next due point.  Each
   snapshot is one JSONL line, so a timeline file can be tailed,
   diffed, or plotted without a reader for the whole run. *)

type sample = { at : float; line : Json.t }

type t = {
  interval : float;
  reg : Registry.t;
  on_sample : (unit -> unit) option;
  mutable next_due : float;
  mutable samples : sample list; (* newest first *)
}

let create ~interval ?on_sample reg =
  if interval <= 0.0 then invalid_arg "Sampler.create: interval must be positive";
  { interval; reg; on_sample; next_due = 0.0; samples = [] }

let snapshot t ~now =
  let counters, gauges =
    List.fold_left
      (fun (cs, gs) (b : Registry.binding) ->
        let key = b.Registry.subsystem ^ "/" ^ b.Registry.name in
        match b.Registry.metric with
        | Registry.Counter c -> ((key, Json.Int (Registry.counter_value c)) :: cs, gs)
        | Registry.Gauge g -> (cs, (key, Json.Float (Registry.gauge_value g)) :: gs)
        | Registry.Histogram _ | Registry.Log _ -> (cs, gs))
      ([], []) (Registry.bindings t.reg)
  in
  {
    at = now;
    line =
      Json.Obj
        [
          ("t", Json.Float now);
          ("counters", Json.Obj (List.rev counters));
          ("gauges", Json.Obj (List.rev gauges));
        ];
  }

let poll t ~now =
  if now >= t.next_due then begin
    (* refresh pull-style gauges (GC deltas, engine occupancy) right before
       reading the registry, so the timeline sees current values without
       the hot path paying for them on every event *)
    (match t.on_sample with Some f -> f () | None -> ());
    t.samples <- snapshot t ~now :: t.samples;
    (* re-anchor on the sampled instant: a long quiet stretch yields one
       sample when activity resumes, not a burst of catch-up lines *)
    t.next_due <- now +. t.interval
  end

let count t = List.length t.samples

let samples t = List.rev_map (fun s -> (s.at, s.line)) t.samples

let to_string t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (_, line) ->
      Buffer.add_string buf (Json.to_string line);
      Buffer.add_char buf '\n')
    (samples t);
  Buffer.contents buf
