(* Chrome trace_event exporter: turns a Trace ring into the JSON Array
   Format that chrome://tracing and ui.perfetto.dev load directly. One
   thread per NFTask slot (tid = slot + 1; tid 0 is the runtime), complete
   ("X") events for spans with duration, instants ("i") for parse/complete
   markers, and counter ("C") events for the scheduler/MSHR occupancy
   timeline. Timestamps are simulated cycles (the viewer renders them as
   microseconds; only relative placement matters). *)

open Gunfu

let tid_of_task task = task + 1

(* A trace is one simulated process. *)
let pid = ("pid", Json_lite.Num 0.0)

let span_name (sp : Trace.span) =
  match sp.Trace.sp_phase with
  | Trace.Action_body ->
      if sp.Trace.sp_cs = "" then "action" else sp.Trace.sp_cs
  | Trace.State_access | Trace.Mshr_wait -> (
      match sp.Trace.sp_level with
      | Some l -> Printf.sprintf "mem:%s" (Trace.level_name l)
      | None -> "mem")
  | Trace.Complete ->
      if sp.Trace.sp_note = "" then "complete"
      else Printf.sprintf "complete:%s" sp.Trace.sp_note
  | p -> Trace.phase_name p

let span_args (sp : Trace.span) =
  let base =
    [
      ("unit", Json_lite.Num (float_of_int sp.Trace.sp_unit));
      ("flow", Json_lite.Num (float_of_int sp.Trace.sp_flow));
    ]
  in
  let opt name v = match v with "" -> [] | s -> [ (name, Json_lite.Str s) ] in
  base
  @ opt "nf" sp.Trace.sp_nf
  @ opt "cs" sp.Trace.sp_cs
  @ (match sp.Trace.sp_cls with
    | Some c -> [ ("class", Json_lite.Str (Sref.class_name c)) ]
    | None -> [])
  @ (match sp.Trace.sp_level with
    | Some l -> [ ("level", Json_lite.Str (Trace.level_name l)) ]
    | None -> [])
  @ opt "note" sp.Trace.sp_note

let event_of_span (sp : Trace.span) =
  let common =
    [
      ("name", Json_lite.Str (span_name sp));
      ("cat", Json_lite.Str (Trace.phase_name sp.Trace.sp_phase));
      pid;
      ("tid", Json_lite.Num (float_of_int (tid_of_task sp.Trace.sp_task)));
      ("ts", Json_lite.Num (float_of_int sp.Trace.sp_ts));
    ]
  in
  if sp.Trace.sp_dur > 0 then
    Json_lite.Obj
      (common
      @ [
          ("ph", Json_lite.Str "X");
          ("dur", Json_lite.Num (float_of_int sp.Trace.sp_dur));
          ("args", Json_lite.Obj (span_args sp));
        ])
  else
    Json_lite.Obj
      (common
      @ [
          ("ph", Json_lite.Str "i");
          ("s", Json_lite.Str "t");
          ("args", Json_lite.Obj (span_args sp));
        ])

let counter_events (oc : Trace.occupancy) =
  Json_lite.Obj
    [
      ("name", Json_lite.Str "occupancy");
      ("ph", Json_lite.Str "C");
      pid;
      ("ts", Json_lite.Num (float_of_int oc.Trace.oc_ts));
      ( "args",
        Json_lite.Obj
          [
            ("active_tasks", Json_lite.Num (float_of_int oc.Trace.oc_active));
            ("mshr_pending", Json_lite.Num (float_of_int oc.Trace.oc_mshr));
          ] );
    ]

let metadata name tid thread_name =
  Json_lite.Obj
    [
      ("name", Json_lite.Str name);
      ("ph", Json_lite.Str "M");
      pid;
      ("tid", Json_lite.Num (float_of_int tid));
      ("ts", Json_lite.Num 0.0);
      ("args", Json_lite.Obj [ ("name", Json_lite.Str thread_name) ]);
    ]

let ts_of_event ev =
  match Option.bind (Json_lite.member "ts" ev) Json_lite.to_float with
  | Some v -> v
  | None -> 0.0

let dur_of_event ev =
  match Option.bind (Json_lite.member "dur" ev) Json_lite.to_float with
  | Some v -> v
  | None -> 0.0

(* Export as a full trace object. Events are sorted by (ts, -dur): spans
   are recorded at their END (an action's inner memory spans are pushed
   before the action span itself), so sorting restores chronological order
   and puts enclosing spans before their children at equal start times —
   both what the validator checks and what viewers nest correctly. *)
let export (tr : Trace.t) : Json_lite.t =
  let spans = Trace.spans tr in
  let tids = Hashtbl.create 16 in
  Array.iter
    (fun sp -> Hashtbl.replace tids (tid_of_task sp.Trace.sp_task) ())
    spans;
  let threads =
    Hashtbl.fold (fun tid () acc -> tid :: acc) tids []
    |> List.sort compare
    |> List.map (fun tid ->
           let name = if tid = 0 then "runtime" else Printf.sprintf "nftask-%d" (tid - 1) in
           metadata "thread_name" tid name)
  in
  let events =
    Array.to_list (Array.map event_of_span spans)
    @ Array.to_list (Array.map counter_events (Trace.occupancy tr))
  in
  let events =
    List.stable_sort
      (fun a b ->
        match compare (ts_of_event a) (ts_of_event b) with
        | 0 -> compare (dur_of_event b) (dur_of_event a)
        | c -> c)
      events
  in
  Json_lite.Obj
    [
      ("traceEvents", Json_lite.Arr ((metadata "process_name" 0 "gunfu") :: threads @ events));
      ("displayTimeUnit", Json_lite.Str "ns");
      ( "otherData",
        Json_lite.Obj
          [
            ("ts_unit", Json_lite.Str "simulated cycles");
            ("dropped_spans", Json_lite.Num (float_of_int (Trace.dropped tr)));
          ] );
    ]

let export_string tr = Json_lite.to_string ~indent:true (export tr)

(* ----- validation ----- *)

(* Structural check of an exported trace: well-formed JSON, a traceEvents
   array whose entries carry name/ph/ts, non-negative durations, and
   non-decreasing timestamps in array order. Returns the event count. *)
let validate (json : Json_lite.t) : (int, string) result =
  match Option.bind (Json_lite.member "traceEvents" json) Json_lite.to_list with
  | None -> Error "missing traceEvents array"
  | Some events ->
      let rec go i last_ts = function
        | [] -> Ok i
        | ev :: rest -> (
            let str k = Option.bind (Json_lite.member k ev) Json_lite.to_str in
            let num k = Option.bind (Json_lite.member k ev) Json_lite.to_float in
            match (str "name", str "ph", num "ts") with
            | None, _, _ -> Error (Printf.sprintf "event %d: missing name" i)
            | _, None, _ -> Error (Printf.sprintf "event %d: missing ph" i)
            | _, _, None -> Error (Printf.sprintf "event %d: missing ts" i)
            | Some _, Some ph, Some ts ->
                if ts < last_ts then
                  Error
                    (Printf.sprintf "event %d: timestamp %g runs backwards (last %g)" i
                       ts last_ts)
                else if ph = "X" && (match num "dur" with Some d -> d < 0.0 | None -> true)
                then Error (Printf.sprintf "event %d: X event without valid dur" i)
                else go (i + 1) ts rest)
      in
      go 0 neg_infinity events

let validate_string s =
  match Json_lite.of_string s with
  | Error e -> Error (Printf.sprintf "invalid JSON: %s" e)
  | Ok json -> validate json
