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

let run ?label ?quiesce ?fault ?telemetry ?on_complete (e : [< t ]) worker program
    source =
  match e with
  | `Rtc -> Rtc.run ?label ?quiesce ?fault ?telemetry ?on_complete worker program source
  | `Batch batch ->
      Batch_rtc.run ?label ~batch ?quiesce ?fault ?telemetry ?on_complete worker program
        source
  | `Il { policy; n_tasks; distance } ->
      Scheduler.run ?label ~policy ~prefetch_distance:distance ?quiesce ?fault ?telemetry
        ?on_complete worker program ~n_tasks source

type session = Rtc_session of Rtc.session | Batch_session of Batch_rtc.session

let session ?fault ?on_complete (e : [< flow_free ]) worker program =
  match e with
  | `Rtc -> Rtc_session (Rtc.session ?fault ?on_complete worker program)
  | `Batch batch -> Batch_session (Batch_rtc.session ~batch ?fault ?on_complete worker program)

let feed s source =
  match s with Rtc_session s -> Rtc.feed s source | Batch_session s -> Batch_rtc.feed s source

let close = function Rtc_session s -> Rtc.close s | Batch_session s -> Batch_rtc.close s
