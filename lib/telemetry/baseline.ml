(* Machine-readable bench baselines: a stable JSON schema for the key
   series of every bench figure, so each PR commits a perf trajectory
   (BENCH_<pr>.json) that later PRs can diff against. The schema is
   deliberately flat — figures hold labelled series of (x, metric map)
   points — so new metrics can be added without breaking old readers. *)

open Gunfu

let schema_id = "gunfu-bench-baseline/1"

type point = { x : float; metrics : (string * float) list }
type series = { s_label : string; points : point list }
type figure = { f_name : string; f_title : string; series : series list }
type t = { pr : string; figures : figure list }

(* The standard metric set extracted from a measured run. *)
let metrics_of_run (r : Metrics.run) =
  [
    ("mpps", Metrics.mpps r);
    ("gbps", Metrics.gbps r);
    ("ipc", Metrics.ipc r);
    ("cycles_per_packet", Metrics.cycles_per_packet r);
    ("l1_misses_per_packet", Metrics.l1_misses_per_packet r);
    ("l2_misses_per_packet", Metrics.l2_misses_per_packet r);
    ("llc_misses_per_packet", Metrics.llc_misses_per_packet r);
  ]

(* ----- JSON ----- *)

let json_of_point p =
  Json_lite.Obj
    [
      ("x", Json_lite.Num p.x);
      ("metrics", Json_lite.Obj (List.map (fun (k, v) -> (k, Json_lite.Num v)) p.metrics));
    ]

let json_of_series s =
  Json_lite.Obj
    [
      ("label", Json_lite.Str s.s_label);
      ("points", Json_lite.Arr (List.map json_of_point s.points));
    ]

let json_of_figure f =
  Json_lite.Obj
    [
      ("name", Json_lite.Str f.f_name);
      ("title", Json_lite.Str f.f_title);
      ("series", Json_lite.Arr (List.map json_of_series f.series));
    ]

let to_json t =
  Json_lite.Obj
    [
      ("schema", Json_lite.Str schema_id);
      ("pr", Json_lite.Str t.pr);
      ("figures", Json_lite.Arr (List.map json_of_figure t.figures));
    ]

let to_string t = Json_lite.to_string ~indent:true (to_json t)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let field name conv ctx json =
  match Option.bind (Json_lite.member name json) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "%s: missing or ill-typed %S" ctx name)

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
      let* y = f x in
      let* ys = map_result f rest in
      Ok (y :: ys)

let point_of_json json =
  let* x = field "x" Json_lite.to_float "point" json in
  let* metrics_obj = field "metrics" (fun j -> Some j) "point" json in
  match metrics_obj with
  | Json_lite.Obj fields ->
      let* metrics =
        map_result
          (fun (k, v) ->
            match Json_lite.to_float v with
            | Some f -> Ok (k, f)
            | None -> Error (Printf.sprintf "point: metric %S is not a number" k))
          fields
      in
      Ok { x; metrics }
  | _ -> Error "point: metrics is not an object"

let series_of_json json =
  let* s_label = field "label" Json_lite.to_str "series" json in
  let* points_json = field "points" Json_lite.to_list "series" json in
  let* points = map_result point_of_json points_json in
  Ok { s_label; points }

let figure_of_json json =
  let* f_name = field "name" Json_lite.to_str "figure" json in
  let* f_title = field "title" Json_lite.to_str "figure" json in
  let* series_json = field "series" Json_lite.to_list "figure" json in
  let* series = map_result series_of_json series_json in
  Ok { f_name; f_title; series }

let of_json json =
  let* schema = field "schema" Json_lite.to_str "baseline" json in
  if schema <> schema_id then
    Error (Printf.sprintf "unsupported schema %S (want %S)" schema schema_id)
  else
    let* pr = field "pr" Json_lite.to_str "baseline" json in
    let* figures_json = field "figures" Json_lite.to_list "baseline" json in
    let* figures = map_result figure_of_json figures_json in
    Ok { pr; figures }

let of_string s =
  let* json = Json_lite.of_string s in
  of_json json

let equal (a : t) (b : t) = a = b

(* ----- drift check ----- *)

(* Compare a freshly collected baseline against an expected one, exact by
   default (0.0 tolerance: the series are simulated, so any drift is a
   behaviour change). [tolerance] relaxes the value comparison to a
   relative bound — the CI bench-drift smoke runs at a small non-zero
   tolerance so a slow shared runner never turns timing-adjacent series
   into false alarms. Only the figures that actually ran are compared — a
   partial bench run checks its slice. [skip] names metrics whose *values*
   are host wall-clock measurements (their presence is still required);
   pass [fun _ -> false] to compare everything. Returns human-readable
   drift lines, empty when clean. *)
let diff ?(tolerance = 0.0) ~expected ~actual ~skip () =
  let out = ref [] in
  let drift fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
  let within ev av =
    if tolerance <= 0.0 then ev = av
    else abs_float (ev -. av) <= tolerance *. Float.max (abs_float ev) (abs_float av)
  in
  let check_point ctx (e : point) (a : point) =
    if e.x <> a.x then drift "%s: x %g <> %g" ctx e.x a.x;
    let keys l = List.map fst l in
    if keys e.metrics <> keys a.metrics then
      drift "%s (x=%g): metric keys [%s] <> [%s]" ctx e.x
        (String.concat "," (keys e.metrics))
        (String.concat "," (keys a.metrics))
    else
      List.iter2
        (fun (k, ev) (_, av) ->
          if (not (skip k)) && not (within ev av) then
            drift "%s (x=%g): %s %.17g <> %.17g" ctx e.x k ev av)
        e.metrics a.metrics
  in
  let check_series fig (e : series) (a : series) =
    let ctx = Printf.sprintf "%s/%s" fig e.s_label in
    if List.length e.points <> List.length a.points then
      drift "%s: %d points expected, %d measured" ctx (List.length e.points)
        (List.length a.points)
    else List.iter2 (check_point ctx) e.points a.points
  in
  List.iter
    (fun (a : figure) ->
      match List.find_opt (fun (e : figure) -> e.f_name = a.f_name) expected.figures with
      | None -> drift "%s: not in expected baseline" a.f_name
      | Some e ->
          let labels (f : figure) = List.map (fun s -> s.s_label) f.series in
          if labels e <> labels a then
            drift "%s: series [%s] <> [%s]" a.f_name
              (String.concat "," (labels e))
              (String.concat "," (labels a))
          else List.iter2 (check_series a.f_name) e.series a.series)
    actual.figures;
  List.rev !out

(* ----- collection during a bench run ----- *)

(* Figures register points as they print their tables; the collector keeps
   insertion order for figures and series so the emitted JSON is stable
   across runs. *)
type collector = {
  mutable figs : (string * string * (string * point list ref) list ref) list;
}

let collector () = { figs = [] }

let record c ~fig ~title ~series ~x metrics =
  let serieses =
    match List.find_opt (fun (name, _, _) -> name = fig) c.figs with
    | Some (_, _, s) -> s
    | None ->
        let s = ref [] in
        c.figs <- c.figs @ [ (fig, title, s) ];
        s
  in
  let points =
    match List.assoc_opt series !serieses with
    | Some p -> p
    | None ->
        let p = ref [] in
        serieses := !serieses @ [ (series, p) ];
        p
  in
  points := !points @ [ { x; metrics } ]

let record_run c ~fig ~title ~series ~x r =
  record c ~fig ~title ~series ~x (metrics_of_run r)

let to_baseline c ~pr =
  {
    pr;
    figures =
      List.map
        (fun (f_name, f_title, serieses) ->
          {
            f_name;
            f_title;
            series =
              List.map (fun (s_label, points) -> { s_label; points = !points }) !serieses;
          })
        c.figs;
  }
