(* Traffic generation: Zipf, flow universes, CAIDA-like traces, MGW. *)

open Traffic

(* ----- Zipf ----- *)

let test_zipf_pmf_sums_to_one () =
  let z = Zipf.create ~n:100 ~s:1.1 in
  let total = ref 0.0 in
  for i = 0 to 99 do
    total := !total +. Zipf.pmf z i
  done;
  Alcotest.(check (float 1e-9)) "pmf sums to 1" 1.0 !total

let test_zipf_monotone () =
  let z = Zipf.create ~n:50 ~s:1.2 in
  for i = 1 to 49 do
    Alcotest.(check bool) "pmf decreasing in rank" true (Zipf.pmf z i <= Zipf.pmf z (i - 1))
  done

let test_zipf_s0_uniform () =
  let z = Zipf.create ~n:10 ~s:0.0 in
  for i = 0 to 9 do
    Alcotest.(check (float 1e-9)) "uniform mass" 0.1 (Zipf.pmf z i)
  done

let test_zipf_sample_range () =
  let z = Zipf.create ~n:37 ~s:1.0 in
  let r = Memsim.Rng.create 1 in
  for _ = 1 to 1000 do
    let v = Zipf.sample z r in
    Alcotest.(check bool) "sample in range" true (v >= 0 && v < 37)
  done

let test_zipf_skew () =
  let z = Zipf.create ~n:1000 ~s:1.1 in
  let r = Memsim.Rng.create 2 in
  let hits_rank0 = ref 0 in
  let n = 20000 in
  for _ = 1 to n do
    if Zipf.sample z r = 0 then incr hits_rank0
  done;
  let expected = Zipf.pmf z 0 *. float_of_int n in
  Alcotest.(check bool) "rank 0 frequency matches pmf (within 20%)" true
    (abs_float (float_of_int !hits_rank0 -. expected) < 0.2 *. expected)

let test_zipf_invalid () =
  Alcotest.check_raises "n = 0" (Invalid_argument "Zipf.create: n must be positive")
    (fun () -> ignore (Zipf.create ~n:0 ~s:1.0))

(* ----- Flowgen ----- *)

let test_flowgen_distinct_flows () =
  let g = Flowgen.create ~n_flows:5000 () in
  let keys =
    Array.to_list (Array.map Netcore.Flow.key64 (Flowgen.flows g)) |> List.sort_uniq compare
  in
  Alcotest.(check int) "5-tuples distinct (by key)" 5000 (List.length keys)

let test_flowgen_deterministic () =
  let a = Flowgen.create ~seed:9 ~n_flows:100 () in
  let b = Flowgen.create ~seed:9 ~n_flows:100 () in
  let ia = Flowgen.next_idx a and ib = Flowgen.next_idx b in
  let pa = Option.get (Flowgen.packet a ia) and pb = Option.get (Flowgen.packet b ib) in
  Alcotest.(check int) "same flow index" ia ib;
  Alcotest.(check bool) "same flow" true
    (Netcore.Flow.equal pa.Netcore.Packet.flow pb.Netcore.Packet.flow)

let test_flowgen_packet_matches_universe () =
  let g = Flowgen.create ~n_flows:64 () in
  for _ = 1 to 100 do
    let i = Flowgen.next_idx g in
    let p = Option.get (Flowgen.packet g i) in
    Alcotest.(check bool) "packet flow = flows.(i)" true
      (Netcore.Flow.equal (Flowgen.flow g i) p.Netcore.Packet.flow)
  done

let test_flowgen_imix_mean () =
  (* (7*64 + 4*576 + 1*1500) / 12 *)
  Alcotest.(check (float 0.01)) "imix mean" (4252.0 /. 12.0) (Flowgen.mean_size Flowgen.imix)

let test_flowgen_fixed_size () =
  let g = Flowgen.create ~n_flows:10 ~size_model:(Flowgen.Fixed 512) () in
  for _ = 1 to 20 do
    Alcotest.(check int) "fixed size" 512 (Flowgen.next g).Netcore.Packet.wire_len
  done

let test_flowgen_mix_sizes_present () =
  let g = Flowgen.create ~n_flows:10 ~size_model:Flowgen.imix () in
  let seen = Hashtbl.create 4 in
  for _ = 1 to 2000 do
    Hashtbl.replace seen (Flowgen.next g).Netcore.Packet.wire_len ()
  done;
  List.iter
    (fun s -> Alcotest.(check bool) (Printf.sprintf "size %d sampled" s) true (Hashtbl.mem seen s))
    [ 64; 576; 1500 ]

let test_flowgen_zipf_skews_flows () =
  let g = Flowgen.create ~n_flows:1000 ~popularity:(Flowgen.Zipf 1.2) () in
  let counts = Hashtbl.create 64 in
  for _ = 1 to 10000 do
    let i = Flowgen.next_idx g in
    ignore (Flowgen.packet g i : Netcore.Packet.t option);
    Hashtbl.replace counts i (1 + Option.value ~default:0 (Hashtbl.find_opt counts i))
  done;
  let max_count = Hashtbl.fold (fun _ c acc -> max c acc) counts 0 in
  Alcotest.(check bool) "most popular flow well above uniform share" true (max_count > 100)

let test_flowgen_batch () =
  let g = Flowgen.create ~n_flows:10 () in
  Alcotest.(check int) "batch size" 32 (Array.length (Flowgen.batch g 32))

let test_caida_properties () =
  let g = Caida.create ~n_flows:500 () in
  Alcotest.(check int) "universe size" 500 (Flowgen.n_flows g);
  Alcotest.(check bool) "heavy mean size" true (Caida.mean_wire_bytes > 500.0)

(* ----- MGW ----- *)

let test_pdr_ranges_partition () =
  let n_pdrs = 16 in
  let covered = Array.make 65536 false in
  for pdr = 0 to n_pdrs - 1 do
    let lo, hi = Mgw.pdr_port_range ~n_pdrs ~pdr in
    for p = lo to hi do
      Alcotest.(check bool) "no overlap" false covered.(p);
      covered.(p) <- true
    done
  done;
  (* Full span 1024..1024+49152-1 covered. *)
  let lo0, _ = Mgw.pdr_port_range ~n_pdrs ~pdr:0 in
  let _, hi_last = Mgw.pdr_port_range ~n_pdrs ~pdr:(n_pdrs - 1) in
  Alcotest.(check int) "starts at 1024" 1024 lo0;
  for p = lo0 to hi_last do
    Alcotest.(check bool) "contiguous coverage" true covered.(p)
  done

let test_mgw_downlink_targets_session () =
  let m = Mgw.create ~n_sessions:100 ~n_pdrs:4 () in
  for _ = 1 to 200 do
    let si = Mgw.next_session m in
    let pkt = Option.get (Mgw.downlink m si) in
    let s = Mgw.session m si in
    Alcotest.(check bool) "dst ip is the UE ip" true
      (Int32.equal pkt.Netcore.Packet.flow.Netcore.Flow.dst_ip s.Mgw.ue_ip);
    let sp = pkt.Netcore.Packet.flow.Netcore.Flow.src_port in
    let in_range pdr =
      let lo, hi = Mgw.pdr_port_range ~n_pdrs:4 ~pdr in
      sp >= lo && sp <= hi
    in
    Alcotest.(check bool) "src port inside one PDR's range" true
      (List.exists in_range [ 0; 1; 2; 3 ])
  done

let test_mgw_unique_ue_ips () =
  let m = Mgw.create ~n_sessions:1000 ~n_pdrs:2 () in
  let ips =
    Array.to_list (Array.map (fun s -> s.Mgw.ue_ip) (Mgw.sessions m))
    |> List.sort_uniq compare
  in
  Alcotest.(check int) "UE IPs distinct" 1000 (List.length ips)

let test_amf_sequence_order () =
  let g = Mgw.amf_create ~n_ues:1 () in
  let msgs = List.init 50 (fun _ -> snd (Mgw.amf_next g)) in
  let registration =
    [
      Mgw.Registration_request; Mgw.Authentication_response; Mgw.Security_mode_complete;
      Mgw.Registration_complete; Mgw.Pdu_session_request;
    ]
  in
  (* A fresh UE always walks the full registration sequence first... *)
  Alcotest.(check bool) "registers first" true
    (List.filteri (fun i _ -> i < 5) msgs = registration);
  (* ...and every later message is a valid lifecycle message. *)
  let lifecycle =
    [ Mgw.Pdu_session_request; Mgw.Service_request; Mgw.Periodic_update;
      Mgw.Context_release; Mgw.Deregistration_request; Mgw.Registration_request;
      Mgw.Authentication_response; Mgw.Security_mode_complete; Mgw.Registration_complete ]
  in
  List.iteri
    (fun i m ->
      if i >= 5 then
        Alcotest.(check bool) "valid lifecycle message" true (List.mem m lifecycle))
    msgs

let test_amf_generator_is_protocol_valid () =
  (* The generator's per-UE phase tracking must agree with the AMF's
     lifecycle FSM: feed a long mixed stream into a tiny phase mirror. *)
  let g = Mgw.amf_create ~n_ues:8 () in
  let phase = Array.make 8 0 in
  for _ = 1 to 2000 do
    let ue, msg = Mgw.amf_next g in
    let next =
      match (msg, phase.(ue)) with
      | Mgw.Registration_request, 0 -> 1
      | Mgw.Authentication_response, 1 -> 2
      | Mgw.Security_mode_complete, 2 -> 3
      | Mgw.Registration_complete, 3 -> 4
      | Mgw.Pdu_session_request, 4 -> Mgw.phase_connected
      | Mgw.Pdu_session_request, p when p = Mgw.phase_connected -> p
      | Mgw.Periodic_update, p when p = Mgw.phase_connected -> p
      | Mgw.Context_release, p when p = Mgw.phase_connected -> Mgw.phase_idle
      | Mgw.Service_request, p when p = Mgw.phase_idle -> Mgw.phase_connected
      | Mgw.Deregistration_request, p
        when p = Mgw.phase_connected || p = Mgw.phase_idle ->
          0
      | m, p ->
          Alcotest.failf "invalid %s in phase %d" (Mgw.amf_msg_name m) p
    in
    phase.(ue) <- next
  done

let test_amf_ue_range () =
  let g = Mgw.amf_create ~n_ues:50 () in
  for _ = 1 to 500 do
    let ue, _ = Mgw.amf_next g in
    Alcotest.(check bool) "ue id in range" true (ue >= 0 && ue < 50)
  done

let test_amf_msg_names_distinct () =
  let names = List.map Mgw.amf_msg_name Mgw.all_amf_msgs in
  Alcotest.(check int) "distinct names" (List.length names)
    (List.length (List.sort_uniq compare names))

let qcheck_pdr_range_lookup =
  QCheck.Test.make ~name:"every port in a PDR range maps back to that PDR" ~count:200
    QCheck.(pair (int_range 1 64) (int_range 0 63))
    (fun (n_pdrs, pdr) ->
      QCheck.assume (pdr < n_pdrs);
      let lo, hi = Mgw.pdr_port_range ~n_pdrs ~pdr in
      (* Check that the range edges belong to exactly this PDR. *)
      let owner port =
        let rec go j =
          if j >= n_pdrs then -1
          else
            let l, h = Mgw.pdr_port_range ~n_pdrs ~pdr:j in
            if port >= l && port <= h then j else go (j + 1)
        in
        go 0
      in
      owner lo = pdr && owner hi = pdr)

(* ----- alpha sweep (SCR skew bench wiring) ----- *)

let test_alpha_sweep_shared_universe () =
  let sweep = Traffic.Flowgen.alpha_sweep ~seed:5 ~n_flows:2048 [ 0.0; 0.9; 1.5 ] in
  Alcotest.(check int) "one generator per alpha" 3 (List.length sweep);
  let flows0 = Traffic.Flowgen.flows (snd (List.nth sweep 0)) in
  List.iter
    (fun (_, gen) ->
      Alcotest.(check bool) "all points share ONE flow universe" true
        (Traffic.Flowgen.flows gen == flows0))
    sweep;
  (* Rebuilding the sweep is deterministic. *)
  let again = Traffic.Flowgen.alpha_sweep ~seed:5 ~n_flows:2048 [ 0.0; 0.9; 1.5 ] in
  let pull gen =
    let idx = Traffic.Flowgen.next_idx gen in
    ignore (Traffic.Flowgen.packet gen idx : Netcore.Packet.t option);
    idx
  in
  let draw gen = List.init 64 (fun _ -> pull gen) in
  List.iter2
    (fun (a1, g1) (a2, g2) ->
      Alcotest.(check (float 0.)) "same alpha" a1 a2;
      Alcotest.(check (list int)) "same stream" (draw g1) (draw g2))
    sweep again;
  (* Higher alpha concentrates more of the stream on fewer flows. *)
  let top_share gen =
    let counts = Hashtbl.create 256 in
    for _ = 1 to 4096 do
      let idx = pull gen in
      Hashtbl.replace counts idx (1 + Option.value ~default:0 (Hashtbl.find_opt counts idx))
    done;
    let top = Hashtbl.fold (fun _ c acc -> max c acc) counts 0 in
    float_of_int top /. 4096.
  in
  let fresh alpha = snd (List.nth (Traffic.Flowgen.alpha_sweep ~seed:5 ~n_flows:2048 [ alpha ]) 0) in
  Alcotest.(check bool) "alpha 1.5 concentrates vs uniform" true
    (top_share (fresh 1.5) > 4. *. top_share (fresh 0.0));
  Alcotest.check_raises "negative alpha rejected"
    (Invalid_argument "Flowgen.alpha_sweep: alpha must be non-negative") (fun () ->
      ignore (Traffic.Flowgen.alpha_sweep ~n_flows:16 [ -0.1 ]))


let rejects ~who size_model msg () =
  let make () =
    if who = "create" then ignore (Flowgen.create ~size_model ~n_flows:8 ())
    else ignore (Flowgen.alpha_sweep ~size_model ~n_flows:8 [ 0.0; 1.0 ])
  in
  Alcotest.check_raises msg (Invalid_argument (Printf.sprintf "Flowgen.%s: %s" who msg)) make

let size_model_rejections =
  [
    ("empty Mix rejected", "create", Flowgen.Mix [], "Mix must have at least one size");
    ( "zero weight rejected", "create", Flowgen.Mix [ (64, 7); (576, 0) ],
      "weight 0 of size 576 must be positive" );
    ( "negative weight rejected", "create", Flowgen.Mix [ (64, -1) ],
      "weight -1 of size 64 must be positive" );
    ("zero Fixed size rejected", "create", Flowgen.Fixed 0, "size 0 must be positive");
    ( "negative Mix size rejected", "create", Flowgen.Mix [ (-64, 1) ],
      "size -64 must be positive" );
    ( "sweep: empty Mix rejected", "alpha_sweep", Flowgen.Mix [],
      "Mix must have at least one size" );
    ( "sweep: zero weight rejected", "alpha_sweep", Flowgen.Mix [ (64, 0) ],
      "weight 0 of size 64 must be positive" );
    ( "sweep: negative weight rejected", "alpha_sweep", Flowgen.Mix [ (64, -3) ],
      "weight -3 of size 64 must be positive" );
    ( "sweep: negative Fixed size rejected", "alpha_sweep", Flowgen.Fixed (-1),
      "size -1 must be positive" );
  ]

let suite =
  [
    Alcotest.test_case "zipf pmf sums to 1" `Quick test_zipf_pmf_sums_to_one;
    Alcotest.test_case "zipf monotone" `Quick test_zipf_monotone;
    Alcotest.test_case "zipf s=0 uniform" `Quick test_zipf_s0_uniform;
    Alcotest.test_case "zipf sample range" `Quick test_zipf_sample_range;
    Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
    Alcotest.test_case "zipf invalid" `Quick test_zipf_invalid;
    Alcotest.test_case "flowgen distinct flows" `Quick test_flowgen_distinct_flows;
    Alcotest.test_case "flowgen deterministic" `Quick test_flowgen_deterministic;
    Alcotest.test_case "flowgen packet matches universe" `Quick
      test_flowgen_packet_matches_universe;
    Alcotest.test_case "imix mean size" `Quick test_flowgen_imix_mean;
    Alcotest.test_case "fixed size" `Quick test_flowgen_fixed_size;
    Alcotest.test_case "mix sizes present" `Quick test_flowgen_mix_sizes_present;
    Alcotest.test_case "zipf skews flows" `Quick test_flowgen_zipf_skews_flows;
    Alcotest.test_case "batch" `Quick test_flowgen_batch;
    Alcotest.test_case "caida properties" `Quick test_caida_properties;
    Alcotest.test_case "pdr ranges partition" `Quick test_pdr_ranges_partition;
    Alcotest.test_case "mgw downlink targets session" `Quick test_mgw_downlink_targets_session;
    Alcotest.test_case "mgw unique ue ips" `Quick test_mgw_unique_ue_ips;
    Alcotest.test_case "amf sequence order" `Quick test_amf_sequence_order;
    Alcotest.test_case "amf generator protocol-valid" `Quick test_amf_generator_is_protocol_valid;
    Alcotest.test_case "amf ue range" `Quick test_amf_ue_range;
    Alcotest.test_case "amf msg names distinct" `Quick test_amf_msg_names_distinct;
    Helpers.qcheck qcheck_pdr_range_lookup;
    Alcotest.test_case "alpha sweep shares one universe" `Quick
      test_alpha_sweep_shared_universe;
  ]
  @ List.map
      (fun (name, who, model, msg) -> Alcotest.test_case name `Quick (rejects ~who model msg))
      size_model_rejections
