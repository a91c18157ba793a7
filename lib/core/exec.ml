(* The executor descriptor, its canonical label and parser, and the one
   dispatch onto the three engines. *)

type il = { policy : Scheduler.policy; n_tasks : int; distance : int }
type flow_free = [ `Rtc | `Batch of int ]
type t = [ flow_free | `Il of il ]

let il n_tasks : t = `Il { policy = Scheduler.Round_robin; n_tasks; distance = 1 }

let label : [< t ] -> string = function
  | `Rtc -> "rtc"
  | `Batch b -> Printf.sprintf "batch-%d" b
  | `Il { policy; n_tasks; distance } ->
      let p = match policy with Scheduler.Round_robin -> "rr" | Scheduler.Ready_first -> "rf" in
      Printf.sprintf "il-%s-%d-d%d" p n_tasks distance

(* A decimal natural: digits only, so "+4", "0x10" and "1_0" are rejected. *)
let nat s =
  if s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s then int_of_string_opt s
  else None

let of_string s : (t, string) result =
  let positive n k = match nat n with Some v when v > 0 -> Ok (k v) | _ -> Error () in
  let parsed =
    match String.split_on_char '-' s with
    | [ "rtc" ] -> Ok `Rtc
    | [ "batch" ] -> Ok (`Batch Batch_rtc.default_batch)
    | [ "batch"; n ] -> positive n (fun b -> `Batch b)
    | [ "il"; p; n; d ] when String.length d > 1 && d.[0] = 'd' -> (
        let policy =
          match p with
          | "rr" -> Some Scheduler.Round_robin
          | "rf" -> Some Scheduler.Ready_first
          | _ -> None
        in
        match (policy, nat (String.sub d 1 (String.length d - 1))) with
        | Some policy, Some distance ->
            positive n (fun n_tasks -> `Il { policy; n_tasks; distance })
        | _ -> Error ())
    | [ w ] when String.length w > 2 && String.sub w 0 2 = "il" ->
        positive (String.sub w 2 (String.length w - 2)) il
    | _ -> Error ()
  in
  Result.map_error
    (fun () ->
      Printf.sprintf
        "unknown executor %S (expected rtc, batch, batch-N, ilN, il-rr-N-dD or \
         il-rf-N-dD, with N > 0)"
        s)
    parsed

(* A session is the engine core with the named executor's loop built over
   it; the engine name and kind give the default label and error prefix. *)
type session = { core : Engine.t; feed : Workload.source -> unit }

let start ?label ?quiesce ?fault ?telemetry ?on_complete (e : [< t ]) worker program =
  let name, kind, loop =
    match e with
    | `Rtc -> ("Rtc", "rtc", Rtc.loop)
    | `Batch batch -> ("Batch_rtc", "batch-rtc", Batch_rtc.loop ~batch)
    | `Il { policy; n_tasks; distance } ->
        ( "Scheduler",
          Printf.sprintf "interleaved-%d" n_tasks,
          Scheduler.loop ~policy ~prefetch_distance:distance ~n_tasks )
  in
  let core =
    Engine.create ~name ~kind ?label ?quiesce ?fault ?telemetry ?on_complete worker program
  in
  { core; feed = loop core }

let feed s source = s.feed source
let close s = Engine.finish s.core

let run ?label ?quiesce ?fault ?telemetry ?on_complete e worker program source =
  let s = start ?label ?quiesce ?fault ?telemetry ?on_complete e worker program in
  feed s source;
  close s

let session ?fault ?on_complete (e : [< flow_free ]) = start ?fault ?on_complete e
