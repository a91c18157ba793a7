(* Checksums, header codecs, flows, packets. *)

open Netcore

(* ----- checksum ----- *)

let test_checksum_rfc1071 () =
  (* Classic example: 0x0001 0xf203 0xf4f5 0xf6f7 -> checksum 0x220d. *)
  let buf = Bytes.of_string "\x00\x01\xf2\x03\xf4\xf5\xf6\xf7" in
  Alcotest.(check int) "RFC1071 example" 0x220D (Checksum.of_bytes buf ~off:0 ~len:8)

let test_checksum_odd_length () =
  let buf = Bytes.of_string "\x01\x02\x03" in
  (* sum = 0x0102 + 0x0300 = 0x0402 -> cksum = 0xfbfd *)
  Alcotest.(check int) "odd length pads" 0xFBFD (Checksum.of_bytes buf ~off:0 ~len:3)

let test_checksum_valid () =
  let buf = Bytes.make 20 '\000' in
  Bytes.set buf 0 '\x45';
  Bytes.set buf 9 '\x11';
  let c = Checksum.of_bytes buf ~off:0 ~len:20 in
  Bytes.set_uint16_be buf 10 c;
  Alcotest.(check bool) "range incl. checksum validates" true
    (Checksum.valid buf ~off:0 ~len:20)

let qcheck_incremental_update =
  QCheck.Test.make ~name:"incremental checksum == full recompute" ~count:300
    QCheck.(triple (list_of_size (Gen.return 10) (int_bound 0xFFFF)) (int_bound 9) (int_bound 0xFFFF))
    (fun (words, pos, new_field) ->
      let buf = Bytes.make 20 '\000' in
      List.iteri (fun i w -> Bytes.set_uint16_be buf (i * 2) w) words;
      let old_csum = Checksum.of_bytes buf ~off:0 ~len:20 in
      let old_field = Bytes.get_uint16_be buf (pos * 2) in
      Bytes.set_uint16_be buf (pos * 2) new_field;
      let updated = Checksum.update ~old_csum ~old_field ~new_field in
      let recomputed = Checksum.of_bytes buf ~off:0 ~len:20 in
      (* Both are valid ones'-complement checksums of the new data; they may
         differ only in the 0x0000/0xFFFF representation. *)
      updated = recomputed || (updated land 0xFFFF) + (recomputed land 0xFFFF) = 0xFFFF
      || abs (updated - recomputed) = 0xFFFF)

(* Stronger than equality-modulo-representation: after any chain of field
   edits, the incrementally maintained checksum written back into the
   buffer must still validate the whole range. *)
let qcheck_incremental_chain =
  QCheck.Test.make ~name:"chained incremental updates keep the checksum valid"
    ~count:200
    QCheck.(
      pair
        (list_of_size (Gen.return 10) (int_bound 0xFFFF))
        (small_list (pair (int_bound 9) (int_bound 0xFFFF))))
    (fun (words, edits) ->
      (* 10 data words followed by one trailing checksum word. *)
      let buf = Bytes.make 22 '\000' in
      List.iteri (fun i w -> Bytes.set_uint16_be buf (i * 2) w) words;
      let csum = ref (Checksum.of_bytes buf ~off:0 ~len:20) in
      Bytes.set_uint16_be buf 20 !csum;
      List.for_all
        (fun (pos, new_field) ->
          let old_field = Bytes.get_uint16_be buf (pos * 2) in
          Bytes.set_uint16_be buf (pos * 2) new_field;
          csum := Checksum.update ~old_csum:!csum ~old_field ~new_field;
          Bytes.set_uint16_be buf 20 !csum;
          Checksum.valid buf ~off:0 ~len:22)
        edits)

(* ----- ethernet ----- *)

(* Well-formed strings round-trip; every malformed one raises
   [Invalid_argument], never [Failure] or a wrong address. *)
let check_string_codec ~of_string ~to_string ~valid ~malformed =
  List.iter (fun s -> Alcotest.(check string) "roundtrip" s (to_string (of_string s))) valid;
  List.iter
    (fun s ->
      match of_string s with
      | exception Invalid_argument _ -> ()
      | v -> Alcotest.failf "%S accepted as %s" s (to_string v))
    malformed

let test_ethernet_roundtrip () =
  let hdr = Ethernet.{ dst = 0x112233445566; src = 0xAABBCCDDEEFF; ethertype = 0x0800 } in
  let buf = Bytes.make 64 '\000' in
  Ethernet.encode hdr buf ~off:3;
  let d = Ethernet.decode buf ~off:3 in
  Alcotest.(check bool) "roundtrip" true (d = hdr)

(* ----- ipv4 ----- *)

let test_ipv4_addr_string () =
  check_string_codec ~of_string:Ipv4.addr_of_string ~to_string:Ipv4.addr_to_string
    ~valid:[ "192.168.1.200"; "0.0.0.0"; "255.255.255.255" ]
    ~malformed:
      [
        "1.2.3.x"; "1.2.3."; "300.1.1.1"; "1.2.3.256"; "1.2.3.-1"; "0x10.0.0.1"; "1_0.0.0.1";
        "1.2.3"; "1.2.3.4.5"; "";
      ]

let test_ipv4_roundtrip () =
  let hdr =
    Ipv4.make ~ttl:17 ~ident:0x1234 ~src:(Ipv4.addr_of_string "10.0.0.1")
      ~dst:(Ipv4.addr_of_string "10.0.0.2") ~proto:Ipv4.proto_udp ~total_len:1400 ()
  in
  let buf = Bytes.make 64 '\000' in
  Ipv4.encode hdr buf ~off:0;
  let d = Ipv4.decode buf ~off:0 in
  Alcotest.(check bool) "fields roundtrip" true
    (Int32.equal d.Ipv4.src hdr.Ipv4.src
    && Int32.equal d.Ipv4.dst hdr.Ipv4.dst
    && d.Ipv4.proto = hdr.Ipv4.proto && d.Ipv4.ttl = 17 && d.Ipv4.total_len = 1400
    && d.Ipv4.ident = 0x1234)

let test_ipv4_checksum_valid () =
  let hdr =
    Ipv4.make ~src:(Ipv4.addr_of_string "1.2.3.4") ~dst:(Ipv4.addr_of_string "5.6.7.8")
      ~proto:6 ~total_len:40 ()
  in
  let buf = Bytes.make 64 '\000' in
  Ipv4.encode hdr buf ~off:8;
  Alcotest.(check bool) "header checksum valid" true (Ipv4.header_valid buf ~off:8)

let test_ipv4_rewrite_src_checksum () =
  let hdr =
    Ipv4.make ~src:(Ipv4.addr_of_string "10.1.1.1") ~dst:(Ipv4.addr_of_string "10.2.2.2")
      ~proto:17 ~total_len:100 ()
  in
  let buf = Bytes.make 64 '\000' in
  Ipv4.encode hdr buf ~off:0;
  Ipv4.rewrite_src buf ~off:0 ~src:(Int32.to_int (Ipv4.addr_of_string "203.0.113.7"));
  Alcotest.(check string) "src rewritten" "203.0.113.7"
    (Ipv4.addr_to_string (Ipv4.decode buf ~off:0).Ipv4.src);
  Alcotest.(check bool) "checksum still valid" true (Ipv4.header_valid buf ~off:0)

let test_ipv4_rewrite_dst_checksum () =
  let hdr =
    Ipv4.make ~src:(Ipv4.addr_of_string "10.1.1.1") ~dst:(Ipv4.addr_of_string "10.2.2.2")
      ~proto:17 ~total_len:100 ()
  in
  let buf = Bytes.make 64 '\000' in
  Ipv4.encode hdr buf ~off:0;
  Ipv4.rewrite_dst buf ~off:0 ~dst:(Ipv4.addr_of_string "192.168.100.4");
  Alcotest.(check string) "dst rewritten" "192.168.100.4"
    (Ipv4.addr_to_string (Ipv4.decode buf ~off:0).Ipv4.dst);
  Alcotest.(check bool) "checksum still valid" true (Ipv4.header_valid buf ~off:0)

let qcheck_ipv4_roundtrip =
  QCheck.Test.make ~name:"ipv4 encode/decode roundtrip" ~count:300
    QCheck.(quad (int_bound 255) (int_bound 0xFFFF) small_int small_int)
    (fun (ttl, ident, s, d) ->
      let hdr =
        Ipv4.make ~ttl ~ident ~src:(Int32.of_int s) ~dst:(Int32.of_int d) ~proto:6
          ~total_len:60 ()
      in
      let buf = Bytes.make 32 '\000' in
      Ipv4.encode hdr buf ~off:0;
      let x = Ipv4.decode buf ~off:0 in
      x.Ipv4.ttl = ttl && x.Ipv4.ident = ident && Ipv4.header_valid buf ~off:0)

(* ----- L4 / GTP-U ----- *)

let test_udp_roundtrip () =
  let u = { L4.src_port = 5060; dst_port = 2152; length = 120 } in
  let buf = Bytes.make 16 '\000' in
  L4.encode_udp u buf ~off:0;
  let d = L4.decode_udp buf ~off:0 in
  Alcotest.(check bool) "roundtrip" true
    L4.(d.src_port = 5060 && d.dst_port = 2152 && d.length = 120)

let test_tcp_roundtrip () =
  let t =
    {
      L4.src_port = 443;
      dst_port = 51515;
      seq = 0xDEADBEEFl;
      ack_seq = 0x01020304l;
      flags = { L4.syn = true; ack = true; fin = false; rst = false };
      window = 4096;
    }
  in
  let buf = Bytes.make 32 '\000' in
  L4.encode_tcp t buf ~off:0;
  let d = L4.decode_tcp buf ~off:0 in
  Alcotest.(check bool) "roundtrip" true
    (d.L4.src_port = 443 && d.L4.dst_port = 51515
    && Int32.equal d.L4.seq 0xDEADBEEFl
    && d.L4.flags.L4.syn && d.L4.flags.L4.ack && (not d.L4.flags.L4.fin)
    && d.L4.window = 4096)

let test_port_rewrite () =
  let buf = Bytes.make 16 '\000' in
  L4.encode_udp { L4.src_port = 1000; dst_port = 2000; length = 8 } buf ~off:0;
  L4.rewrite_src_port buf ~off:0 ~port:33333;
  Alcotest.(check int) "src port" 33333 (L4.src_port buf ~off:0);
  Alcotest.(check int) "dst port" 2000 (L4.dst_port buf ~off:0)

let test_gtpu_roundtrip () =
  let g = Gtpu.make ~teid:0xCAFE1234l ~length:512 () in
  let buf = Bytes.make 16 '\000' in
  Gtpu.encode g buf ~off:4;
  let d = Gtpu.decode buf ~off:4 in
  Alcotest.(check int32) "teid" 0xCAFE1234l d.Gtpu.teid;
  Alcotest.(check int) "length" 512 d.Gtpu.length;
  Alcotest.(check int) "msg type g-pdu" Gtpu.msg_gpdu d.Gtpu.msg_type

let test_gtpu_bad_version () =
  let buf = Bytes.make 16 '\xff' in
  Alcotest.check_raises "bad version rejected"
    (Invalid_argument "Gtpu.decode: unsupported version") (fun () ->
      ignore (Gtpu.decode buf ~off:0))

(* ----- flow ----- *)

let flow1 =
  Flow.make ~src_ip:(Ipv4.addr_of_string "10.0.0.1") ~dst_ip:(Ipv4.addr_of_string "10.0.0.2")
    ~src_port:1234 ~dst_port:80 ~proto:6

let test_flow_equal_key () =
  let f2 = Flow.make ~src_ip:flow1.Flow.src_ip ~dst_ip:flow1.Flow.dst_ip ~src_port:1234
      ~dst_port:80 ~proto:6 in
  Alcotest.(check bool) "equal flows" true (Flow.equal flow1 f2);
  Alcotest.(check int64) "equal keys" (Flow.key64 flow1) (Flow.key64 f2)

let test_flow_key_sensitivity () =
  let vary f = Alcotest.(check bool) "key differs" false (Int64.equal (Flow.key64 flow1) (Flow.key64 f)) in
  vary { flow1 with Flow.src_port = 1235 };
  vary { flow1 with Flow.dst_port = 81 };
  vary { flow1 with Flow.proto = 17 };
  vary { flow1 with Flow.src_ip = Ipv4.addr_of_string "10.0.0.3" }

(* ----- packet ----- *)

let test_packet_headers_match_flow () =
  let p = Packet.make ~flow:flow1 ~wire_len:128 () in
  Alcotest.(check bool) "headers encode the flow" true (Flow.equal flow1 (Packet.flow_of_headers p));
  Alcotest.(check int) "wire length" 128 p.Packet.wire_len;
  Alcotest.(check bool) "ip checksum valid" true (Ipv4.header_valid p.Packet.buf ~off:p.Packet.l3_off)

let test_packet_udp_flow () =
  let f = { flow1 with Flow.proto = Ipv4.proto_udp } in
  let p = Packet.make ~flow:f ~wire_len:64 () in
  Alcotest.(check bool) "udp headers roundtrip" true (Flow.equal f (Packet.flow_of_headers p))

let test_gtpu_encap_decap () =
  let f = { flow1 with Flow.proto = Ipv4.proto_udp } in
  let p = Packet.make ~flow:f ~wire_len:200 () in
  let before_len = p.Packet.wire_len in
  Packet.encapsulate_gtpu p ~outer_src:(Ipv4.addr_of_string "10.200.0.1")
    ~outer_dst:(Ipv4.addr_of_string "10.200.1.1") ~teid:0x42l;
  Alcotest.(check int) "wire grows by overhead" (before_len + Gtpu.encap_overhead)
    p.Packet.wire_len;
  let outer = Ipv4.decode p.Packet.buf ~off:Ethernet.header_bytes in
  Alcotest.(check int) "outer proto udp" Ipv4.proto_udp outer.Ipv4.proto;
  (* Inner flow is preserved behind the tunnel. *)
  Alcotest.(check bool) "inner flow intact" true (Flow.equal f (Packet.flow_of_headers p));
  let teid = Packet.decapsulate_gtpu p in
  Alcotest.(check int32) "teid recovered" 0x42l teid;
  Alcotest.(check int) "wire restored" before_len p.Packet.wire_len;
  Alcotest.(check bool) "flow restored" true (Flow.equal f (Packet.flow_of_headers p))

let test_pool_recycles () =
  let layout = Memsim.Layout.create () in
  let pool = Packet.Pool.create layout ~count:4 in
  let p = Packet.make ~flow:flow1 ~wire_len:64 () in
  let addrs =
    List.init 8 (fun _ ->
        Packet.Pool.assign pool p;
        p.Packet.sim_addr)
  in
  let distinct = List.sort_uniq compare addrs in
  Alcotest.(check int) "4 distinct buffers" 4 (List.length distinct);
  Alcotest.(check bool) "recycles in ring order" true
    (List.nth addrs 0 = List.nth addrs 4)

(* ----- parser robustness (truncation / garbage fuzz) ----- *)

(* A small valid capture to truncate: headers carry real bytes, so every
   prefix length exercises a different parser bounds check. *)
let valid_capture () =
  let w = Pcap.create_writer () in
  List.iteri
    (fun i f -> Pcap.add_packet w ~ts_us:(i * 10) (Packet.make ~flow:f ~wire_len:96 ()))
    [ flow1; { flow1 with Flow.src_port = 7 }; { flow1 with Flow.proto = Ipv4.proto_udp } ];
  Pcap.contents w

let qcheck_pcap_truncation =
  let cap = valid_capture () in
  QCheck.Test.make ~name:"pcap parse_result total under truncation" ~count:300
    QCheck.(int_bound (String.length cap - 1))
    (fun n ->
      (* Any strict prefix must yield a typed Error or a shorter Ok list —
         never an exception, and never all three records. *)
      match Pcap.parse_result (String.sub cap 0 n) with
      | Error _ -> true
      | Ok records -> List.length records < 3)

let qcheck_pcap_garbage =
  QCheck.Test.make ~name:"pcap parse_result total on garbage" ~count:300
    QCheck.(string_of_size (Gen.int_bound 64))
    (fun s -> match Pcap.parse_result s with Ok _ | Error _ -> true)

let qcheck_header_decoders_total =
  QCheck.Test.make ~name:"header decode_result never raises" ~count:500
    QCheck.(pair (string_of_size (Gen.int_bound 48)) (int_bound 52))
    (fun (s, off) ->
      let buf = Bytes.of_string s in
      (* Offsets past the end are in scope: a truncated capture can leave
         l3/l4 offsets beyond the valid bytes. *)
      (match Ipv4.decode_result buf ~off with Ok _ | Error _ -> ());
      (match L4.decode_udp_result buf ~off with Ok _ | Error _ -> ());
      (match L4.decode_tcp_result buf ~off with Ok _ | Error _ -> ());
      (match Nas.decode_result buf ~off with Ok _ | Error _ -> ());
      true)

let test_corrupted_packet_decoders () =
  (* Faultgen's packet mangler (truncate + scribble) is exactly what the
     executors feed the parsers under Corrupt_packet injection: the typed
     decoders must stay total on its output. *)
  let plan = Check.Faultgen.create ~seed:5 () in
  for index = 0 to 199 do
    let p = Packet.make ~flow:flow1 ~wire_len:128 () in
    Check.Faultgen.corrupt plan ~index p;
    (match Ipv4.decode_result p.Packet.buf ~off:p.Packet.l3_off with
    | Ok _ | Error _ -> ());
    (match L4.decode_udp_result p.Packet.buf ~off:p.Packet.l4_off with
    | Ok _ | Error _ -> ())
  done

let qcheck_packet_flow_roundtrip =
  QCheck.Test.make ~name:"packet headers always encode the flow" ~count:200
    QCheck.(quad small_int small_int (int_bound 65535) (int_bound 65535))
    (fun (s, d, sp, dp) ->
      let f =
        Flow.make ~src_ip:(Int32.of_int s) ~dst_ip:(Int32.of_int d) ~src_port:sp
          ~dst_port:dp ~proto:Ipv4.proto_udp
      in
      let p = Packet.make ~flow:f ~wire_len:128 () in
      Flow.equal f (Packet.flow_of_headers p))

let suite =
  [
    Alcotest.test_case "checksum RFC1071" `Quick test_checksum_rfc1071;
    Alcotest.test_case "checksum odd length" `Quick test_checksum_odd_length;
    Alcotest.test_case "checksum valid()" `Quick test_checksum_valid;
    Helpers.qcheck qcheck_incremental_update;
    Helpers.qcheck qcheck_incremental_chain;
    Alcotest.test_case "ethernet roundtrip" `Quick test_ethernet_roundtrip;
    Alcotest.test_case "ipv4 addr string" `Quick test_ipv4_addr_string;
    Alcotest.test_case "ipv4 roundtrip" `Quick test_ipv4_roundtrip;
    Alcotest.test_case "ipv4 checksum valid" `Quick test_ipv4_checksum_valid;
    Alcotest.test_case "ipv4 rewrite src" `Quick test_ipv4_rewrite_src_checksum;
    Alcotest.test_case "ipv4 rewrite dst" `Quick test_ipv4_rewrite_dst_checksum;
    Helpers.qcheck qcheck_ipv4_roundtrip;
    Alcotest.test_case "udp roundtrip" `Quick test_udp_roundtrip;
    Alcotest.test_case "tcp roundtrip" `Quick test_tcp_roundtrip;
    Alcotest.test_case "port rewrite" `Quick test_port_rewrite;
    Alcotest.test_case "gtpu roundtrip" `Quick test_gtpu_roundtrip;
    Alcotest.test_case "gtpu bad version" `Quick test_gtpu_bad_version;
    Alcotest.test_case "flow equality/key" `Quick test_flow_equal_key;
    Alcotest.test_case "flow key sensitivity" `Quick test_flow_key_sensitivity;
    Alcotest.test_case "packet headers match flow" `Quick test_packet_headers_match_flow;
    Alcotest.test_case "packet udp flow" `Quick test_packet_udp_flow;
    Alcotest.test_case "gtpu encap/decap" `Quick test_gtpu_encap_decap;
    Alcotest.test_case "pool recycles" `Quick test_pool_recycles;
    Helpers.qcheck qcheck_packet_flow_roundtrip;
    Helpers.qcheck qcheck_pcap_truncation;
    Helpers.qcheck qcheck_pcap_garbage;
    Helpers.qcheck qcheck_header_decoders_total;
    Alcotest.test_case "corrupted packets decode totally" `Quick
      test_corrupted_packet_decoders;
  ]
