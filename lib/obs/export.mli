(** Serialization of traces and metric registries.

    Traces export as JSONL — one compact JSON object per line, schema
    [{"t": <ms>, "tag": "...", "op"?: <id>, "src"?: <host>,
    "dst"?: <host>, "detail": "..."}] — so any line-oriented tool (jq,
    grep, a spreadsheet import) can slice a run by tag or operation id.
    Registries export as a single JSON object ({!Registry.to_json}
    schema) or CSV. *)

(** [event_to_json e] — the JSONL object for one event.  Optional fields
    ([op], [src], [dst]) are omitted when unset, never [null]. *)
val event_to_json : P2p_sim.Trace.event -> Json.t

(** [event_of_json j] inverts {!event_to_json}.  A missing [detail]
    defaults to [""]; missing [t]/[tag] is an error. *)
val event_of_json : Json.t -> (P2p_sim.Trace.event, string) result

(** [trace_to_string trace] — retained events, oldest first, one JSON
    object per line. *)
val trace_to_string : P2p_sim.Trace.t -> string

(** [events_of_jsonl text] parses a JSONL trace dump back into events
    (blank lines skipped).  The error names the offending line. *)
val events_of_jsonl : string -> (P2p_sim.Trace.event list, string) result

(** [metrics_to_string registry] — the registry snapshot as one JSON
    document. *)
val metrics_to_string : Registry.t -> string

(** [trace_to_chrome trace] — the trace's completed spans in Chrome
    trace-event format (a JSON array of [ph:"X"] complete events plus
    [ph:"M"] process-name metadata), loadable by [ui.perfetto.dev] and
    [chrome://tracing].  One process track per peer ([pid] 0 holds the
    operation root spans), one thread per operation id; simulated ms map
    to the format's microseconds.  Still-open spans are skipped. *)
val trace_to_chrome : P2p_sim.Trace.t -> string

(** The chrome trace-event objects behind {!trace_to_chrome}, as JSON
    values — [ph:"M"] process metadata first, then the [ph:"X"] span
    events.  Lets a cross-process aggregator pool several traces' events
    and emit one merged file ({!P2p_obs.Scrape.merged_chrome}). *)
val chrome_events : P2p_sim.Trace.t -> Json.t list

(** {1 Files} *)

(** [write_file ~path contents] writes (truncating) and closes. *)
val write_file : path:string -> string -> unit

(** [read_file path] reads a whole file.  @raise Sys_error on IO
    failure. *)
val read_file : string -> string

val write_trace : path:string -> P2p_sim.Trace.t -> unit

val write_chrome_trace : path:string -> P2p_sim.Trace.t -> unit
val write_metrics : path:string -> Registry.t -> unit
val write_metrics_csv : path:string -> Registry.t -> unit
