(* Bechamel micro-benchmarks of the substrate primitives (wall-clock costs
   of the simulator itself, not simulated cycles): cuckoo lookup (in key
   order and uniformly scattered) and populate, MDI tree walk, hierarchy
   read (hit, miss and random-line paths) and prefetch, flow hashing, NF-C
   interpretation, and SCR's per-record pieces (GUPD1 round trip, monitor
   apply), and the per-packet host path every executor shares: header
   encode, arena packet build, PRNG draws and one traffic pull from each
   generator. Useful for keeping the simulator fast enough to drive the
   figure sweeps. *)

open Bechamel
open Toolkit

let cuckoo_test =
  let layout = Memsim.Layout.create () in
  let t = Structures.Cuckoo.create layout ~label:"c" ~capacity:65536 () in
  for i = 0 to 65535 do
    ignore (Structures.Cuckoo.insert t ~key:(Int64.of_int (i * 3)) ~value:i)
  done;
  let i = ref 0 in
  Test.make ~name:"cuckoo.lookup"
    (Staged.stage (fun () ->
         i := (!i + 1) land 0xFFFF;
         ignore (Structures.Cuckoo.lookup t (Int64.of_int (!i * 3)))))

(* Lookups of 131,072 resident keys in a scattered order (an odd-stride
   permutation of splitmix-spread keys), so successive probes land in
   unrelated buckets as flow lookups do. *)
let uniform_keys = 131_072

let spread i =
  let open Int64 in
  let z = mul (of_int (i + 1)) 0x9E3779B97F4A7C15L in
  logxor z (shift_right_logical z 31)

let cuckoo_uniform_test () =
  let layout = Memsim.Layout.create () in
  let t = Structures.Cuckoo.create layout ~label:"c" ~capacity:uniform_keys () in
  for i = 0 to uniform_keys - 1 do
    ignore (Structures.Cuckoo.insert t ~key:(spread i) ~value:i)
  done;
  let keys = Array.init uniform_keys (fun i -> spread ((i * 40_503) land (uniform_keys - 1))) in
  let i = ref 0 in
  Test.make ~name:"cuckoo.lookup.uniform"
    (Staged.stage (fun () ->
         i := (!i + 1) land (uniform_keys - 1);
         ignore (Structures.Cuckoo.lookup t keys.(!i))))

(* One populate: a fresh 131,072-entry table and the same 131,072
   scattered keys, inserted in order (setup cost of every classifier, so
   one op is the whole batch). *)
let cuckoo_insert_test () =
  let keys = Array.init uniform_keys spread in
  Test.make ~name:"cuckoo.insert"
    (Staged.stage (fun () ->
         let layout = Memsim.Layout.create () in
         let t = Structures.Cuckoo.create layout ~label:"c" ~capacity:uniform_keys () in
         Array.iteri (fun i key -> ignore (Structures.Cuckoo.insert t ~key ~value:i)) keys))

(* SCR's per-record pieces on the scr-zipf payload: a monitor over
   131,072 flows and single-flow GNMC1 frames for 1,024 of them. One
   GUPD1 round trip of a record carrying such a frame as the engine ships
   it (encoded into a core's reused frame and checked there against the
   record), and one absolute-totals apply of a frame into the monitor. *)
let monitor_flows = 131_072
let monitor_frames = 1024

let scr_record_tests () =
  let flows = Traffic.Flowgen.flows (Traffic.Flowgen.create ~seed:1 ~n_flows:monitor_flows ()) in
  let nm = Nfs.Monitor.create (Memsim.Layout.create ()) ~name:"nm" ~n_flows:monitor_flows () in
  Nfs.Monitor.populate nm flows;
  let frames =
    Array.init monitor_frames (fun j ->
        Nfs.Migration.export_monitor nm [ flows.((j * 127) land (monitor_flows - 1)) ])
  in
  let record =
    {
      Scaleout.Update_log.u_flow = 4242;
      u_seq = 17;
      u_payload = [ ("nm", frames.(0)) ];
      u_consec = 0;
      u_poisoned = false;
    }
  in
  let log = Scaleout.Update_log.create () in
  let i = ref 0 in
  [
    Test.make ~name:"update_log.roundtrip"
      (Staged.stage (fun () -> Scaleout.Update_log.ship log record));
    Test.make ~name:"migration.apply_monitor"
      (Staged.stage (fun () ->
           i := (!i + 1) land (monitor_frames - 1);
           ignore (Nfs.Migration.apply_monitor nm frames.(!i))));
  ]

let mdi_test =
  let layout = Memsim.Layout.create () in
  let rules =
    List.init 128 (fun j ->
        {
          Structures.Mdi_tree.src_ip = Structures.Mdi_tree.full_range;
          src_port = Structures.Mdi_tree.range ~lo:(j * 100) ~hi:((j * 100) + 99);
          dst_port = Structures.Mdi_tree.full_range;
          proto = Structures.Mdi_tree.full_range;
          value = j;
        })
  in
  let t = Structures.Mdi_tree.create layout ~label:"m" ~rules () in
  let i = ref 0 in
  Test.make ~name:"mdi.lookup"
    (Staged.stage (fun () ->
         i := (!i + 97) mod 12800;
         ignore
           (Structures.Mdi_tree.lookup t
              { Structures.Mdi_tree.k_src_ip = 1; k_src_port = !i; k_dst_port = 1; k_proto = 0 })))

let cache_test =
  let h = Memsim.Hierarchy.create () in
  let i = ref 0 in
  Test.make ~name:"hierarchy.read"
    (Staged.stage (fun () ->
         i := (!i + 4096) land 0xFFFFF;
         ignore (Memsim.Hierarchy.read h ~now:!i ~addr:!i ~bytes:8)))

(* The same read on a miss path: a 97-line stride over 128 MiB, so the
   working set is four times the default 33 MiB LLC and every line is an
   LLC probe plus a DRAM fill with eviction at each level. *)
let miss_stride = 97 * 64
let miss_mask = (128 * 1024 * 1024) - 1

let cache_miss_test =
  let h = Memsim.Hierarchy.create () in
  let i = ref 0 in
  Test.make ~name:"hierarchy.read.miss"
    (Staged.stage (fun () ->
         i := !i + 1;
         ignore
           (Memsim.Hierarchy.read h ~now:(!i * 30)
              ~addr:((!i * miss_stride) land miss_mask) ~bytes:8)))

(* Reads of random lines over 8 MiB, eight times the simulated L2: most
   miss L1 and L2 and hit the LLC, as flow-state reads do. The 65,536
   addresses are drawn once, so the loop times the hierarchy only. *)
let random_lines = 65_536

let cache_random_test () =
  let h = Memsim.Hierarchy.create () in
  let rng = Memsim.Rng.create 5 in
  let addrs = Array.init random_lines (fun _ -> Memsim.Rng.int rng (8 * 1024 * 1024)) in
  let i = ref 0 in
  Test.make ~name:"hierarchy.read.random"
    (Staged.stage (fun () ->
         i := !i + 1;
         ignore
           (Memsim.Hierarchy.read h ~now:(!i * 30)
              ~addr:addrs.(!i land (random_lines - 1)) ~bytes:8)))

(* One-line prefetches over the same stream, [now] advancing 30 cycles per
   call: mostly issued (locate in all three levels, fill at each), with
   drops whenever the ten MSHRs are all in flight. *)
let prefetch_test =
  let h = Memsim.Hierarchy.create () in
  let i = ref 0 in
  Test.make ~name:"hierarchy.prefetch"
    (Staged.stage (fun () ->
         i := !i + 1;
         ignore
           (Memsim.Hierarchy.prefetch h ~now:(!i * 30)
              ~addr:((!i * miss_stride) land miss_mask) ~bytes:64)))

let flow_hash_test =
  let flow =
    Netcore.Flow.make ~src_ip:0x0A000001l ~dst_ip:0x0A000002l ~src_port:1234 ~dst_port:80
      ~proto:6
  in
  Test.make ~name:"flow.key64" (Staged.stage (fun () -> ignore (Netcore.Flow.key64 flow)))

let nfc_test =
  let binding =
    {
      Gunfu.Nfc.read_field = (fun _ _ _ _ -> 7);
      write_field = (fun _ _ _ _ _ -> ());
    }
  in
  let action =
    Gunfu.Nfc.compile ~binding
      "NFAction(x) { Packet.a = PerFlowState.b * 2 + 1; Emit(Event_Packet); }"
  in
  let worker = Gunfu.Worker.create ~id:0 () in
  let task = Gunfu.Nftask.create 0 in
  Gunfu.Nftask.load task ~cs:0 ~packet:None ~aux:0 ~flow_hint:(-1);
  Test.make ~name:"nfc.interpret"
    (Staged.stage (fun () ->
         ignore (Gunfu.Action.execute action (Gunfu.Worker.ctx worker) task)))

(* The per-packet host path: one IPv4 header encode, one arena packet
   build, one bounded PRNG draw, and one pull of each generator the
   perfbench workloads use (131,072 uniform flows at 128 B; a UPF
   downlink over 131,072 sessions x 16 PDRs), built only when [micro]
   runs. *)
let traffic_flows = 131_072

let packet_path_tests () =
  let open Netcore in
  let ip =
    Ipv4.make ~src:0x0A000001l ~dst:0xC0A80001l ~proto:Ipv4.proto_udp ~total_len:114 ()
  in
  let buf = Bytes.make Packet.max_header_bytes '\000' in
  let flow =
    Flow.make ~src_ip:0x0A000001l ~dst_ip:0xC0A80001l ~src_port:1234 ~dst_port:80
      ~proto:Ipv4.proto_udp
  in
  let arena = Packet.Arena.create () in
  let rng = Memsim.Rng.create 1 in
  let gen =
    Traffic.Flowgen.create ~seed:1 ~n_flows:traffic_flows
      ~size_model:(Traffic.Flowgen.Fixed 128) ()
  in
  let gen_arena = Packet.Arena.create () in
  let mgw = Traffic.Mgw.create ~seed:1 ~n_sessions:traffic_flows ~n_pdrs:16 () in
  [
    Test.make ~name:"ipv4.encode" (Staged.stage (fun () -> Ipv4.encode ip buf ~off:14));
    Test.make ~name:"packet.make"
      (Staged.stage (fun () -> ignore (Packet.make ~arena ~flow ~wire_len:128 ())));
    Test.make ~name:"rng.int" (Staged.stage (fun () -> ignore (Memsim.Rng.int rng 1000)));
    Test.make ~name:"flowgen.pull"
      (Staged.stage (fun () ->
           let i = Traffic.Flowgen.next_idx gen in
           ignore (Traffic.Flowgen.packet ~arena:gen_arena gen i)));
    Test.make ~name:"mgw.downlink_pull"
      (Staged.stage (fun () ->
           let si = Traffic.Mgw.next_session mgw in
           ignore (Traffic.Mgw.downlink mgw si)));
  ]

let run () =
  Bench_common.header "Microbenchmarks (bechamel, host wall-clock ns/op)";
  let tests =
    Test.make_grouped ~name:"primitives"
      ([
         cuckoo_test;
         cuckoo_uniform_test ();
         cuckoo_insert_test ();
         mdi_test;
         cache_test;
         cache_miss_test;
         cache_random_test ();
         prefetch_test;
         flow_hash_test;
         nfc_test;
       ]
      @ scr_record_tests ()
      @ packet_path_tests ())
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:false ~kde:None () in
  let raw = Benchmark.all cfg instances tests in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name est acc -> (name, est) :: acc) results [] in
  List.iter
    (fun (name, est) ->
      let ns =
        match Analyze.OLS.estimates est with Some [ v ] -> v | _ -> Float.nan
      in
      Bench_common.row "%-32s %10.1f ns/op" name ns)
    (List.sort compare rows)
