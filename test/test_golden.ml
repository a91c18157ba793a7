(* Golden bytes and stream pins for the host packet path.

   Header codecs, packet construction (fresh and arena-recycled), GTP-U
   encapsulation, the in-place rewrites, the PRNG and the workload
   generators are pinned to values captured before their host-side
   implementation was reworked (word-wide byte access, an unboxed PRNG
   state, shared address boxes). Any change to a packet byte or to a
   generated stream moves one of these. *)

open Netcore

let hex b ~len =
  let s = Buffer.create (2 * len) in
  for i = 0 to len - 1 do
    Buffer.add_string s (Printf.sprintf "%02x" (Bytes.get_uint8 b i))
  done;
  Buffer.contents s

let md5 s = Digest.to_hex (Digest.string s)

let flow_of_proto proto =
  Flow.make
    ~src_ip:(Ipv4.addr_of_string "10.1.2.3")
    ~dst_ip:(Ipv4.addr_of_string "192.168.7.250")
    ~src_port:40000 ~dst_port:443 ~proto

let protos = [ ("udp", Ipv4.proto_udp); ("tcp", Ipv4.proto_tcp); ("icmp", Ipv4.proto_icmp) ]
let wire_lens = [ 40; 64; 128; 1500 ]

(* Geometry and header bytes of a packet; the rest of the buffer must be
   zero for a freshly built one. *)
let describe (p : Packet.t) =
  Printf.sprintf "l3=%d l4=%d hdr=%d wire=%d buf=%d addr=%d %s" p.Packet.l3_off
    p.Packet.l4_off p.Packet.hdr_len p.Packet.wire_len (Bytes.length p.Packet.buf)
    p.Packet.sim_addr
    (hex p.Packet.buf ~len:p.Packet.hdr_len)

let tail_zero (p : Packet.t) =
  let ok = ref true in
  for i = p.Packet.hdr_len to Bytes.length p.Packet.buf - 1 do
    if Bytes.get p.Packet.buf i <> '\000' then ok := false
  done;
  !ok

(* (name, produced value) for every golden case. *)
let packet_cases () =
  List.concat_map
    (fun (pname, proto) ->
      List.map
        (fun wire_len ->
          let p = Packet.make ~flow:(flow_of_proto proto) ~wire_len () in
          (Printf.sprintf "make %s %d" pname wire_len, describe p))
        wire_lens)
    protos

let gtpu_encap () =
  let p = Packet.make ~flow:(flow_of_proto Ipv4.proto_udp) ~wire_len:128 () in
  Packet.encapsulate_gtpu p
    ~outer_src:(Ipv4.addr_of_string "172.16.0.1")
    ~outer_dst:(Ipv4.addr_of_string "203.0.113.9")
    ~teid:0xDEADBEEFl;
  let encap = describe p in
  let teid = Packet.decapsulate_gtpu p in
  let decap = describe p in
  [
    ("encap", encap);
    ("decap teid", Int32.to_string teid);
    ("decap", decap);
    ("decap buf", md5 (Bytes.to_string p.Packet.buf));
  ]

let ip_header ~src ~dst =
  let b = Bytes.make 20 '\000' in
  Ipv4.encode
    (Ipv4.make ~ttl:1 ~ident:0xBEEF ~dscp:46 ~src:(Ipv4.addr_of_string src)
       ~dst:(Ipv4.addr_of_string dst) ~proto:Ipv4.proto_udp ~total_len:1486 ())
    b ~off:0;
  b

let rewrite_cases () =
  let b = ip_header ~src:"10.0.0.1" ~dst:"192.168.255.254" in
  let base = hex b ~len:20 in
  Ipv4.rewrite_src b ~off:0 ~src:(Int32.to_int (Ipv4.addr_of_string "203.0.113.200"));
  let src = hex b ~len:20 in
  Ipv4.rewrite_dst b ~off:0 ~dst:(Ipv4.addr_of_string "255.255.255.255");
  let dst = hex b ~len:20 in
  (* The same rewrite from the address as a non-negative int. *)
  let b_int = ip_header ~src:"10.0.0.1" ~dst:"192.168.255.254" in
  Ipv4.rewrite_src b_int ~off:0 ~src:0xCB0071C8;
  let l4 = Bytes.make 8 '\000' in
  L4.encode_udp { L4.src_port = 1; dst_port = 0x8001; length = 8 } l4 ~off:0;
  L4.rewrite_src_port l4 ~off:0 ~port:0xFFFF;
  let tcp = Bytes.make 20 '\000' in
  L4.encode_tcp
    {
      L4.src_port = 65535;
      dst_port = 0;
      seq = 0x80000001l;
      ack_seq = -1l;
      flags = { L4.syn = true; ack = false; fin = true; rst = true };
      window = 4096;
    }
    tcp ~off:0;
  let g = Bytes.make 8 '\000' in
  Gtpu.encode
    (Gtpu.make ~msg_type:0x01 ~teid:(-2l) ~length:0xABCD ())
    g ~off:0;
  let eth = Bytes.make 14 '\000' in
  Ethernet.encode
    { Ethernet.dst = 0xFFFFFFFFFFFF; src = 0x0123456789AB; ethertype = 0x0806 }
    eth ~off:0;
  [
    ("ipv4", base);
    ("rewrite_src", src);
    ("rewrite_src from an int", hex b_int ~len:20);
    ("rewrite_dst", dst);
    ("udp ports", hex l4 ~len:8);
    ("tcp", hex tcp ~len:20);
    ("gtpu", hex g ~len:8);
    ("ethernet", hex eth ~len:14);
  ]

(* ----- stream pins ----- *)

let rng_seeds = [ 0; 1; 42; -1; max_int; min_int ]

(* 4,096 draws of each public accessor, in a fixed order, per seed. *)
let rng_digest seed =
  let open Memsim in
  let b = Buffer.create (1 lsl 16) in
  let add fmt = Printf.bprintf b fmt in
  let r = Rng.create seed in
  for _ = 1 to 4096 do add "%d," (Rng.bits r) done;
  for i = 1 to 4096 do add "%d," (Rng.int r i) done;
  for _ = 1 to 4096 do add "%h," (Rng.float r 3.5) done;
  for _ = 1 to 4096 do add "%b," (Rng.bool r) done;
  md5 (Buffer.contents b)

let source_digest (src : Gunfu.Workload.source) =
  let b = Buffer.create (1 lsl 20) in
  for _ = 1 to 10_000 do
    match src () with
    | None -> Buffer.add_string b "end;"
    | Some it -> (
        Printf.bprintf b "%d:" it.Gunfu.Workload.flow_hint;
        match it.Gunfu.Workload.packet with
        | None -> Buffer.add_string b "-;"
        | Some p ->
            Printf.bprintf b "%d/%d/%d/%s;" p.Packet.wire_len p.Packet.hdr_len
              p.Packet.sim_addr
              (Bytes.sub_string p.Packet.buf 0 p.Packet.hdr_len))
  done;
  md5 (Buffer.contents b)

let pool () = Packet.Pool.create (Memsim.Layout.create ()) ~count:64

let workload_cases () =
  let flowgen name popularity =
    List.map
      (fun arena ->
        let gen =
          Traffic.Flowgen.create ~seed:5 ~popularity ~size_model:Traffic.Flowgen.imix
            ~n_flows:4096 ()
        in
        let arena = if arena then Some (Packet.Arena.create ~size:8 ()) else None in
        ( Printf.sprintf "flowgen %s%s" name (if arena = None then "" else " arena"),
          source_digest
            (Gunfu.Workload.of_flowgen ?arena gen ~pool:(pool ()) ~count:10_000) ))
      [ false; true ]
  in
  let mgw arena =
    let m = Traffic.Mgw.create ~seed:3 ~n_sessions:2048 ~n_pdrs:16 () in
    let arena = if arena then Some (Packet.Arena.create ~size:8 ()) else None in
    ( Printf.sprintf "mgw downlink%s" (if arena = None then "" else " arena"),
      source_digest (Gunfu.Workload.of_mgw_downlink ?arena m ~pool:(pool ()) ~count:10_000) )
  in
  flowgen "uniform" Traffic.Flowgen.Uniform
  @ flowgen "zipf" (Traffic.Flowgen.Zipf 1.2)
  @ [ mgw false; mgw true ]

let rng_cases () = List.map (fun s -> (Printf.sprintf "rng %d" s, rng_digest s)) rng_seeds

(* Captured from the byte-at-a-time codecs and the boxed PRNG. *)
let pinned =
  [
    ("make udp 40",
     "l3=14 l4=34 hdr=42 wire=42 buf=128 addr=-1 02000000000202000000000108004500001c000040004011662b0a010203c0a807fa9c4001bb00080000");
    ("make udp 64",
     "l3=14 l4=34 hdr=42 wire=64 buf=128 addr=-1 02000000000202000000000108004500003200004000401166150a010203c0a807fa9c4001bb001e0000");
    ("make udp 128",
     "l3=14 l4=34 hdr=42 wire=128 buf=128 addr=-1 02000000000202000000000108004500007200004000401165d50a010203c0a807fa9c4001bb005e0000");
    ("make udp 1500",
     "l3=14 l4=34 hdr=42 wire=1500 buf=128 addr=-1 0200000000020200000000010800450005ce00004000401160790a010203c0a807fa9c4001bb05ba0000");
    ("make tcp 40",
     "l3=14 l4=34 hdr=54 wire=54 buf=128 addr=-1 020000000002020000000001080045000028000040004006662a0a010203c0a807fa9c4001bb00000000000000005010ffff00000000");
    ("make tcp 64",
     "l3=14 l4=34 hdr=54 wire=64 buf=128 addr=-1 02000000000202000000000108004500003200004000400666200a010203c0a807fa9c4001bb00000000000000005010ffff00000000");
    ("make tcp 128",
     "l3=14 l4=34 hdr=54 wire=128 buf=128 addr=-1 02000000000202000000000108004500007200004000400665e00a010203c0a807fa9c4001bb00000000000000005010ffff00000000");
    ("make tcp 1500",
     "l3=14 l4=34 hdr=54 wire=1500 buf=128 addr=-1 0200000000020200000000010800450005ce00004000400660840a010203c0a807fa9c4001bb00000000000000005010ffff00000000");
    ("make icmp 40",
     "l3=14 l4=34 hdr=34 wire=40 buf=128 addr=-1 02000000000202000000000108004500001a000040004001663d0a010203c0a807fa");
    ("make icmp 64",
     "l3=14 l4=34 hdr=34 wire=64 buf=128 addr=-1 02000000000202000000000108004500003200004000400166250a010203c0a807fa");
    ("make icmp 128",
     "l3=14 l4=34 hdr=34 wire=128 buf=128 addr=-1 02000000000202000000000108004500007200004000400165e50a010203c0a807fa");
    ("make icmp 1500",
     "l3=14 l4=34 hdr=34 wire=1500 buf=128 addr=-1 0200000000020200000000010800450005ce00004000400160890a010203c0a807fa");
    ("encap",
     "l3=50 l4=70 hdr=78 wire=164 buf=128 addr=-1 020000000002020000000001080045000096000040004011523cac100001cb007109086808680082000030ff0072deadbeef4500007200004000401165d50a010203c0a807fa9c4001bb005e0000");
    ("decap teid",
     "-559038737");
    ("decap",
     "l3=14 l4=34 hdr=42 wire=128 buf=128 addr=-1 02000000000202000000000108004500007200004000401165d50a010203c0a807fa9c4001bb005e0000");
    ("decap buf",
     "db767eeef9fc77b879ea3390667acda1");
    ("ipv4",
     "45b805cebeef40000111e9cf0a000001c0a8fffe");
    ("rewrite_src",
     "45b805cebeef40000111b707cb0071c8c0a8fffe");
    ("rewrite_src from an int",
     "45b805cebeef40000111b707cb0071c8c0a8fffe");
    ("rewrite_dst",
     "45b805cebeef4000011177afcb0071c8ffffffff");
    ("udp ports",
     "ffff800100080000");
    ("tcp",
     "ffff000080000001ffffffff5007100000000000");
    ("gtpu",
     "3001abcdfffffffe");
    ("ethernet",
     "ffffffffffff0123456789ab0806");
    ("rng 0",
     "cfede32ebc14a4dce9df099048d8617f");
    ("rng 1",
     "84f06b732c6788ae4913fa79ac48f1ed");
    ("rng 42",
     "25050cf9937b3cceaaa92c487ffed2b8");
    ("rng -1",
     "ca05cd00ffdf5e45fa413fe52accfc68");
    ("rng 4611686018427387903",
     "39c0fd87034ded8b6c00b1b6eab2ddaf");
    ("rng -4611686018427387904",
     "58e05802877046c490406ed213007f41");
    ("flowgen uniform",
     "f0f45b577350d7ca66bcd93e1d832f78");
    ("flowgen uniform arena",
     "f0f45b577350d7ca66bcd93e1d832f78");
    ("flowgen zipf",
     "b9026adeeb0b7a9874cc511095f2764a");
    ("flowgen zipf arena",
     "b9026adeeb0b7a9874cc511095f2764a");
    ("mgw downlink",
     "7ec44f97d8839522925baaa46cb58422");
    ("mgw downlink arena",
     "7ec44f97d8839522925baaa46cb58422");
  ]

let check_pinned cases () =
  List.iter
    (fun (name, got) ->
      match List.assoc_opt name pinned with
      | Some want -> Alcotest.(check string) name want got
      | None -> Alcotest.failf "no pinned value for %s" name)
    (cases ())

let test_fresh_tail_zero () =
  List.iter
    (fun (_, proto) ->
      List.iter
        (fun wire_len ->
          let p = Packet.make ~flow:(flow_of_proto proto) ~wire_len () in
          Alcotest.(check bool) "bytes past the headers are zero" true (tail_zero p))
        wire_lens)
    protos

(* A one-slot arena: every [make] recycles the same record. Three
   encapsulations grow its buffer past [max_header_bytes] and it is given a
   pool address; the next [make] must still equal a fresh packet. *)
let test_arena_after_growth () =
  let arena = Packet.Arena.create ~size:1 () in
  let pool = pool () in
  List.iter
    (fun (pname, proto) ->
      List.iter
        (fun wire_len ->
          let old =
            Packet.make ~arena ~flow:(flow_of_proto Ipv4.proto_tcp) ~wire_len:1500 ()
          in
          for _ = 1 to 3 do
            Packet.encapsulate_gtpu old ~outer_src:1l ~outer_dst:(-1l) ~teid:7l
          done;
          Packet.Pool.assign pool old;
          Alcotest.(check bool) "buffer grew" true
            (Bytes.length old.Packet.buf > Packet.max_header_bytes);
          let p = Packet.make ~arena ~flow:(flow_of_proto proto) ~wire_len () in
          Alcotest.(check bool) "same record" true (p == old);
          let name = Printf.sprintf "make %s %d" pname wire_len in
          Alcotest.(check string) name (List.assoc name pinned) (describe p);
          Alcotest.(check bool) "tail zeroed" true (tail_zero p))
        wire_lens)
    protos

let suite =
  [
    Alcotest.test_case "packet make bytes" `Quick (check_pinned packet_cases);
    Alcotest.test_case "fresh packet tail is zero" `Quick test_fresh_tail_zero;
    Alcotest.test_case "arena slot after encap growth" `Quick test_arena_after_growth;
    Alcotest.test_case "gtpu encap/decap bytes" `Quick (check_pinned gtpu_encap);
    Alcotest.test_case "rewrites and codecs bytes" `Quick (check_pinned rewrite_cases);
    Alcotest.test_case "rng stream pins" `Quick (check_pinned rng_cases);
    Alcotest.test_case "workload stream pins" `Quick (check_pinned workload_cases);
  ]
