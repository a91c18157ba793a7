(* Multi-core platform and the director control plane. *)

open Gunfu

let nat_builder ?(count = 500) ~n_flows () : Director.builder =
 fun _config worker ~core ->
  let layout = Worker.layout worker in
  let gen =
    Traffic.Flowgen.create ~seed:(50 + core) ~n_flows
      ~size_model:(Traffic.Flowgen.Fixed 128) ()
  in
  let pool = Netcore.Packet.Pool.create layout ~count:128 in
  let nat = Nfs.Nat.create layout ~name:"nat" ~n_flows () in
  Nfs.Nat.populate nat (Traffic.Flowgen.flows gen);
  (Nfs.Nat.program nat, Workload.of_flowgen gen ~pool ~count)

let test_platform_llc_partitioning () =
  let p1 = Platform.create ~cores:1 () in
  let p8 = Platform.create ~cores:8 () in
  let llc p =
    (Memsim.Hierarchy.config (Worker.ctx (Platform.worker p 0)).Exec_ctx.mem)
      .Memsim.Hierarchy.llc_size
  in
  Alcotest.(check bool) "8-core slice smaller than single-core" true (llc p8 < llc p1);
  Alcotest.(check bool) "slice at most 1/4 with 8 cores" true (llc p8 <= llc p1 / 4)

let test_platform_invalid_cores () =
  match Platform.create ~cores:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "0 cores must be rejected"

let test_platform_runs_all_cores () =
  let p = Platform.create ~cores:4 () in
  let builder = nat_builder ~count:200 ~n_flows:1024 () in
  let runs =
    Platform.run p ~setup:(fun w core -> builder [] w ~core) ~execute:(Exec.run (Exec.il 8))
  in
  Alcotest.(check int) "one run per core" 4 (List.length runs);
  List.iter
    (fun r -> Alcotest.(check int) "each core did its slice" 200 r.Metrics.packets)
    runs;
  let merged = Metrics.merge_parallel runs in
  Alcotest.(check int) "merged packets" 800 merged.Metrics.packets

let test_platform_scales_throughput () =
  let run cores =
    let p = Platform.create ~cores () in
    let builder = nat_builder ~count:5000 ~n_flows:16384 () in
    let runs =
      Platform.run p ~setup:(fun w core -> builder [] w ~core) ~execute:(Exec.run (Exec.il 16))
    in
    let m = Metrics.merge_parallel runs in
    Metrics.mpps m
  in
  let one = run 1 and four = run 4 in
  Alcotest.(check bool) "near-linear scaling (>3x on 4 cores)" true (four > 3.0 *. one)

(* ----- director ----- *)

let test_director_registry () =
  let d = Director.create () in
  Director.register_module d (Lazy.force Nfs.Classifier.spec);
  Director.register_module d (Lazy.force Nfs.Nat.mapper_spec);
  Alcotest.(check bool) "module registered" true
    (Director.find_module d "flow_classifier" <> None);
  (match Director.register_module d (Lazy.force Nfs.Classifier.spec) with
  | exception Director.Director_error _ -> ()
  | () -> Alcotest.fail "duplicate module registration must fail");
  let nf =
    Spec.nf_spec_of_string
      "nf: nat\nmodules:\n  cls: flow_classifier\n  map: flow_mapper\ntransitions:\n- cls,MATCH_SUCCESS->map\n- map,packet->End\n"
  in
  Director.register_nf d nf;
  Alcotest.(check bool) "nf registered" true (Director.find_nf d "nat" <> None)

let test_director_nf_requires_known_modules () =
  let d = Director.create () in
  let nf =
    Spec.nf_spec_of_string "nf: x\nmodules:\n  a: mystery\ntransitions:\n- a,packet->End\n"
  in
  match Director.register_nf d nf with
  | exception Spec.Spec_error _ -> ()
  | () -> Alcotest.fail "NF with unknown module must be rejected"

let test_director_config_template () =
  let d = Director.create () in
  Director.register_module d (Lazy.force Nfs.Classifier.spec);
  Director.register_module d (Lazy.force Nfs.Nat.mapper_spec);
  let nf =
    Spec.nf_spec_of_string
      "nf: nat\nmodules:\n  cls: flow_classifier\n  map: flow_mapper\ntransitions:\n- cls,MATCH_SUCCESS->map\n- map,packet->End\n"
  in
  Director.register_nf d nf;
  let template = Director.config_template d "nat" in
  let keys = List.map fst template in
  List.iter
    (fun k -> Alcotest.(check bool) (k ^ " in template") true (List.mem k keys))
    [ "capacity"; "header_type"; "ip_pool"; "port_base" ];
  (* Validation: a filled config passes, a partial one fails. *)
  Director.validate_config template (List.map (fun (k, _) -> (k, "x")) template);
  match Director.validate_config template [ ("capacity", "10") ] with
  | exception Director.Director_error _ -> ()
  | () -> Alcotest.fail "partial config must fail validation"

let test_director_deploy_and_run () =
  let d = Director.create () in
  let dep =
    Director.deploy d ~name:"nat-east" ~cores:2 ~config:[]
      ~builder:(nat_builder ~count:300 ~n_flows:2048 ())
      ()
  in
  let rtc = Director.run dep `Rtc in
  let il = Director.run dep (Exec.il 8) in
  Alcotest.(check int) "rtc packets across cores" 600 rtc.Metrics.packets;
  Alcotest.(check int) "interleaved packets across cores" 600 il.Metrics.packets;
  (match Director.deploy d ~name:"nat-east" ~cores:1 ~config:[]
           ~builder:(nat_builder ~count:1 ~n_flows:16 ()) () with
  | exception Director.Director_error _ -> ()
  | _ -> Alcotest.fail "duplicate deployment name must fail")

let suite =
  [
    Alcotest.test_case "llc partitioning" `Quick test_platform_llc_partitioning;
    Alcotest.test_case "invalid cores" `Quick test_platform_invalid_cores;
    Alcotest.test_case "runs all cores" `Quick test_platform_runs_all_cores;
    Alcotest.test_case "throughput scales" `Slow test_platform_scales_throughput;
    Alcotest.test_case "director registry" `Quick test_director_registry;
    Alcotest.test_case "director unknown modules" `Quick test_director_nf_requires_known_modules;
    Alcotest.test_case "director config template" `Quick test_director_config_template;
    Alcotest.test_case "director deploy/run" `Quick test_director_deploy_and_run;
  ]
