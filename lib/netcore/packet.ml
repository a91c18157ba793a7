(* Simulated packets.

   A packet couples three things:
   - real header bytes (Ethernet/IPv4/L4[/GTP-U]) that NF actions genuinely
     parse and rewrite,
   - a wire length (payload is virtual — only its size matters to
     throughput),
   - an address in the simulated physical memory (assigned by a {!Pool}),
     so that header accesses are charged to the cache model. *)

type t = {
  mutable id : int;  (* mutable only for arena reuse; fresh per [make] *)
  mutable buf : Bytes.t;
  mutable hdr_len : int;    (* valid bytes at the front of [buf] *)
  mutable l3_off : int;     (* offset of the (innermost) IPv4 header *)
  mutable l4_off : int;
  mutable wire_len : int;   (* bytes on the wire, incl. virtual payload *)
  mutable flow : Flow.t;
  mutable sim_addr : int;   (* simulated buffer address; -1 = unassigned *)
}

let max_header_bytes = 128

let next_id = ref 0

let ack_only = { L4.syn = false; ack = true; fin = false; rst = false }

(* Encode the Eth/IPv4/L4 headers for [p.flow] into [p.buf] (assumed
   zeroed) and set the offsets and lengths they imply. Shared by fresh
   construction and arena reuse so the two produce byte-identical packets;
   allocates nothing. *)
let encode_headers ~wire_len p =
  let buf = p.buf and flow = p.flow in
  Ethernet.encode_fields buf ~off:0 ~dst:0x020000000002 ~src:0x020000000001
    ~ethertype:Ethernet.ethertype_ipv4;
  let l3_off = Ethernet.header_bytes in
  let proto = flow.Flow.proto in
  let l4_len =
    if proto = Ipv4.proto_udp then L4.udp_header_bytes
    else if proto = Ipv4.proto_tcp then L4.tcp_header_bytes
    else 0
  in
  let ip_total = wire_len - Ethernet.header_bytes in
  Ipv4.encode_fields buf ~off:l3_off ~src:flow.Flow.src_ip ~dst:flow.Flow.dst_ip ~proto
    ~ttl:64 ~total_len:(max ip_total (Ipv4.header_bytes + l4_len)) ~ident:0 ~dscp:0;
  let l4_off = l3_off + Ipv4.header_bytes in
  if proto = Ipv4.proto_udp then
    L4.encode_udp_fields buf ~off:l4_off ~src_port:flow.Flow.src_port
      ~dst_port:flow.Flow.dst_port
      ~length:(max (ip_total - Ipv4.header_bytes) L4.udp_header_bytes)
  else if proto = Ipv4.proto_tcp then
    L4.encode_tcp_fields buf ~off:l4_off ~src_port:flow.Flow.src_port
      ~dst_port:flow.Flow.dst_port ~seq:0l ~ack_seq:0l ~flags:ack_only ~window:65535;
  p.l3_off <- l3_off;
  p.l4_off <- l4_off;
  p.hdr_len <- l4_off + l4_len;
  p.wire_len <- max wire_len (l4_off + l4_len)

(* A newly allocated packet record and zeroed buffer for [flow]. *)
let fresh ~flow ~wire_len =
  incr next_id;
  let p =
    { id = !next_id; buf = Bytes.make max_header_bytes '\000'; hdr_len = 0; l3_off = 0;
      l4_off = 0; wire_len; flow; sim_addr = -1 }
  in
  encode_headers ~wire_len p;
  p

(* Zero-alloc packet arena: a ring of packet records recycled in place.
   Reuse resets every field to the exact state a fresh [make] would
   produce — same global id counter, zeroed buffer, unassigned
   [sim_addr] — so an arena-fed run is byte-identical to a fresh-allocation
   run. The caller must size the ring beyond its maximum in-flight packet
   count (executors retire a packet before its slot comes around again at
   the default size). *)
module Arena = struct
  type packet = t
  type t = { slots : packet option array; mutable next : int }

  let default_size = 1024

  let create ?(size = default_size) () =
    if size <= 0 then invalid_arg "Packet.Arena.create: size must be positive";
    { slots = Array.make size None; next = 0 }

  let size a = Array.length a.slots

  (* The slot the next packet will occupy, advancing the ring. *)
  let take a =
    let i = a.next in
    a.next <- (i + 1) mod Array.length a.slots;
    i

  (* Make [dst] a copy of [src] as {!clone} would: every field, id
     included, and a buffer of [src]'s length and bytes. Only a buffer
     whose length moved (GTP-U encapsulation grew it) is reallocated. *)
  let copy_into ~(src : packet) (dst : packet) =
    let n = Bytes.length src.buf in
    if Bytes.length dst.buf <> n then dst.buf <- Bytes.copy src.buf
    else Bytes.blit src.buf 0 dst.buf 0 n;
    dst.id <- src.id;
    dst.hdr_len <- src.hdr_len;
    dst.l3_off <- src.l3_off;
    dst.l4_off <- src.l4_off;
    dst.wire_len <- src.wire_len;
    dst.flow <- src.flow;
    dst.sim_addr <- src.sim_addr

  (* Recycle the ring's next record for [flow] and return that slot's
     stored option, so a pull can hand the packet on without allocating.
     This is the one recycle body: {!make} with an arena unwraps it. *)
  let make a ~flow ~wire_len =
    let slot = take a in
    match a.slots.(slot) with
    | None ->
        let stored = Some (fresh ~flow ~wire_len) in
        a.slots.(slot) <- stored;
        stored
    | Some p as stored ->
        (* GTP-U encapsulation can have grown the buffer; restore the
           canonical geometry before re-encoding. *)
        if Bytes.length p.buf <> max_header_bytes then
          p.buf <- Bytes.make max_header_bytes '\000'
        else Bytes.fill p.buf 0 max_header_bytes '\000';
        incr next_id;
        p.id <- !next_id;
        p.flow <- flow;
        p.sim_addr <- -1;
        encode_headers ~wire_len p;
        stored

  (* Copy [src] into the ring's next record and return that slot's stored
     option, so a caller can hand the packet on without allocating. *)
  let copy a (src : packet) =
    let slot = take a in
    match a.slots.(slot) with
    | Some dst as stored ->
        copy_into ~src dst;
        stored
    | None ->
        let stored = Some { src with buf = Bytes.copy src.buf } in
        a.slots.(slot) <- stored;
        stored
end

(* Build a plain Eth/IPv4/L4 packet for [flow] with the headers actually
   encoded into [buf]. With [arena], recycle the ring's next record in
   place instead of allocating. *)
let make ?arena ~flow ~wire_len () =
  match arena with
  | None -> fresh ~flow ~wire_len
  | Some a -> Option.get (Arena.make a ~flow ~wire_len)

(* [make] as a work item's packet option: with [arena], the slot's stored
   [Some], so the pull allocates neither the record nor the option. *)
let make_some ?arena ~flow ~wire_len () =
  match arena with
  | None -> Some (fresh ~flow ~wire_len)
  | Some a -> Arena.make a ~flow ~wire_len

(* Deep copy sharing nothing mutable with the original, keeping the same
   id: a replay-log entry must later be replayed as "the same packet" (the
   exactly-once dedup and the fault plane both key on id), while the
   original may be rewritten or recycled by the run that pulled it. *)
let clone t = { t with buf = Bytes.copy t.buf }

let ipv4 t = Ipv4.decode t.buf ~off:t.l3_off

(* Re-derive the 5-tuple from the actual header bytes (used by tests to
   check that rewrites really happened on the wire format). *)
let flow_of_headers t =
  let ip = ipv4 t in
  Flow.make ~src_ip:ip.Ipv4.src ~dst_ip:ip.Ipv4.dst
    ~src_port:(L4.src_port t.buf ~off:t.l4_off)
    ~dst_port:(L4.dst_port t.buf ~off:t.l4_off)
    ~proto:ip.Ipv4.proto

(* GTP-U encapsulation: prepend outer IPv4/UDP/GTP-U between the Ethernet
   header and the inner IPv4 packet (the UPF downlink data action). *)
let encapsulate_gtpu t ~outer_src ~outer_dst ~teid =
  let inner_len = t.wire_len - Ethernet.header_bytes in
  let shift = Gtpu.encap_overhead in
  let needed = t.hdr_len + shift in
  if needed > Bytes.length t.buf then begin
    let bigger = Bytes.make (max needed (2 * Bytes.length t.buf)) '\000' in
    Bytes.blit t.buf 0 bigger 0 t.hdr_len;
    t.buf <- bigger
  end;
  (* Move the inner headers out of the way. *)
  Bytes.blit t.buf t.l3_off t.buf (t.l3_off + shift) (t.hdr_len - t.l3_off);
  let outer_ip_off = Ethernet.header_bytes in
  let outer_udp_off = outer_ip_off + Ipv4.header_bytes in
  let gtpu_off = outer_udp_off + L4.udp_header_bytes in
  Ipv4.encode_fields t.buf ~off:outer_ip_off ~src:outer_src ~dst:outer_dst
    ~proto:Ipv4.proto_udp ~ttl:64 ~total_len:(inner_len + shift) ~ident:0 ~dscp:0;
  L4.encode_udp_fields t.buf ~off:outer_udp_off ~src_port:Gtpu.udp_port
    ~dst_port:Gtpu.udp_port ~length:(inner_len + L4.udp_header_bytes + Gtpu.header_bytes);
  Gtpu.encode_fields t.buf ~off:gtpu_off ~msg_type:Gtpu.msg_gpdu ~length:inner_len ~teid;
  t.l3_off <- t.l3_off + shift;
  t.l4_off <- t.l4_off + shift;
  t.hdr_len <- t.hdr_len + shift;
  t.wire_len <- t.wire_len + shift

(* Strip a GTP-U tunnel (uplink direction); returns the TEID. *)
let decapsulate_gtpu t =
  let outer_ip_off = Ethernet.header_bytes in
  let outer = Ipv4.decode t.buf ~off:outer_ip_off in
  if outer.Ipv4.proto <> Ipv4.proto_udp then invalid_arg "decapsulate_gtpu: not UDP";
  let gtpu_off = outer_ip_off + Ipv4.header_bytes + L4.udp_header_bytes in
  let g = Gtpu.decode t.buf ~off:gtpu_off in
  let shift = Gtpu.encap_overhead in
  Bytes.blit t.buf (outer_ip_off + shift) t.buf outer_ip_off (t.hdr_len - outer_ip_off - shift);
  t.l3_off <- t.l3_off - shift;
  t.l4_off <- t.l4_off - shift;
  t.hdr_len <- t.hdr_len - shift;
  t.wire_len <- t.wire_len - shift;
  g.Gtpu.teid

module Pool = struct
  (* A DPDK-mempool-like ring of packet buffers in simulated memory. Buffers
     are recycled round-robin, like an RX descriptor ring: under high
     concurrency a buffer's lines have been evicted long before it comes
     around again, which is exactly the packet-state cache behaviour the
     paper describes. *)
  type pool = {
    base : int;
    stride : int;
    count : int;
    mutable next : int;
  }

  let create layout ~count =
    let stride = 2048 in
    let base =
      Memsim.Layout.alloc_array layout ~align:64 ~label:"packet_pool" ~stride ~count ()
    in
    { base; stride; count; next = 0 }

  let assign pool pkt =
    pkt.sim_addr <- pool.base + (pool.next * pool.stride);
    pool.next <- (pool.next + 1) mod pool.count
end
