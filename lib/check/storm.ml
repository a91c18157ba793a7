(* Churn-storm chaos scenarios: sustained control-plane and capacity
   pressure that the steady-state oracle sweeps never generate.

   Two storms, each a deterministic function of its seed:

   - [pfcp_storm]: a UPF admitted over real encoded PFCP — the SMF drives
     Session Establishment / Deletion exchanges against the UPF's N4 agent
     while the Mgw churn generator tears sessions down and re-sets them up
     mid-traffic. Capacity is undersized on purpose: admissions while full
     must be rejected with [cause_no_resources], deletions of never-
     admitted sessions with [cause_session_not_found], and the data plane
     (run to completion between control ops — a quiescent boundary, like
     the recovery journal's checkpoints) must drop exactly the packets
     racing a teardown.

   - [nat_rebalance_storm]: a dynamic NAT at cuckoo capacity under a flow
     universe several times its table size (the learner's overflow policy
     churns entries), interleaved with Migration-layer rebalancing: all
     installed mappings repeatedly exported, evicted and imported into a
     twin instance, ping-pong. Every hop must preserve the mapping bytes
     (the re-export must equal the snapshot it was restored from) and the
     table must keep learning afterwards.

   A storm never raises: uncontained exceptions are caught and reported
   as failures, which is the point of a chaos scenario. *)

open Gunfu

type report = {
  st_name : string;
  st_seed : int;
  st_metrics : (string * int) list;
  st_failures : string list;
}

let passed r = r.st_failures = []

let pp_report ppf r =
  Format.fprintf ppf "storm %-14s seed %-4d " r.st_name r.st_seed;
  List.iter (fun (k, v) -> Format.fprintf ppf "%s=%d " k v) r.st_metrics;
  if passed r then Format.fprintf ppf "ok"
  else
    List.iter (fun f -> Format.fprintf ppf "@,  FAILURE: %s" f) r.st_failures

(* ----- PFCP session storm ----- *)

let pfcp_storm ?(seed = 1) ?(capacity = 48) ?(universe = 72) ?(packets = 320)
    ?(rate_ppm = 150_000) () =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let metrics = ref [] in
  (try
     let worker = Progen.fresh_worker () in
     let layout = Worker.layout worker in
     let upf = Nfs.Upf.create_empty layout ~name:"upf" ~capacity ~n_pdrs:4 () in
     let program = Nfs.Upf.program upf in
     let smf = Nfs.Smf.create () in
     let mgw = Traffic.Mgw.create ~seed ~n_sessions:universe ~n_pdrs:4 () in
     let churn = Traffic.Mgw.churn ~seed:(seed + 1) ~rate_ppm mgw in
     let ran_ip = upf.Nfs.Upf.ran_addrs.(0) in
     let established : (int, int64) Hashtbl.t = Hashtbl.create capacity in
     let accepted = ref 0
     and rejected_full = ref 0
     and deleted = ref 0
     and not_found = ref 0
     and data_hits = ref 0
     and data_miss = ref 0 in
     let guard_capacity () =
       if upf.Nfs.Upf.n_active > capacity then
         fail "n_active %d exceeds capacity %d" upf.Nfs.Upf.n_active capacity
     in
     let setup i =
       let s = Traffic.Mgw.session mgw i in
       match
         Nfs.Smf.establish smf upf ~ue_ip:s.Traffic.Mgw.ue_ip
           ~teid:s.Traffic.Mgw.teid ~ran_ip
       with
       | Ok up_seid ->
           Hashtbl.replace established i up_seid;
           incr accepted
       | Error c when c = Netcore.Pfcp.cause_no_resources -> incr rejected_full
       | Error c -> fail "session %d: unexpected rejection cause %d" i c
     in
     let teardown i =
       match Hashtbl.find_opt established i with
       | Some up_seid ->
           let c = Nfs.Smf.delete smf upf ~up_seid in
           if c = Netcore.Pfcp.cause_accepted then begin
             Hashtbl.remove established i;
             incr deleted
           end
           else fail "session %d: deletion rejected with cause %d" i c
       | None ->
           (* never admitted (or already gone): a deletion for a made-up
              SEID must come back session-not-found, not crash the agent *)
           let c = Nfs.Smf.delete smf upf ~up_seid:(Int64.of_int (0x5EED0000 + i)) in
           if c = Netcore.Pfcp.cause_session_not_found then incr not_found
           else fail "bogus deletion for %d: cause %d, not session-not-found" i c
     in
     (* admission storm: offer the whole universe to an undersized UPF *)
     for i = 0 to universe - 1 do
       setup i;
       guard_capacity ()
     done;
     (* churn-driven run: control ops execute at pull boundaries *)
     let remaining = ref packets in
     let rec source () =
       if !remaining = 0 then None
       else
         match Traffic.Mgw.churn_next churn with
         | Traffic.Mgw.Churn_teardown i ->
             teardown i;
             guard_capacity ();
             source ()
         | Traffic.Mgw.Churn_setup i ->
             setup i;
             guard_capacity ();
             source ()
         | Traffic.Mgw.Churn_data (si, pkt) ->
             decr remaining;
             if Hashtbl.mem established si then incr data_hits else incr data_miss;
             Some { Workload.packet = Some pkt; aux = 0; flow_hint = si }
     in
     let run = Exec.run ~label:"pfcp-storm" `Rtc worker program source in
     if run.Metrics.packets <> packets then
       fail "run pulled %d packets, offered %d" run.Metrics.packets packets;
     if run.Metrics.drops <> !data_miss then
       fail "drops %d but %d packets raced a teardown" run.Metrics.drops !data_miss;
     if upf.Nfs.Upf.encapsulated <> !data_hits then
       fail "encapsulated %d of %d live-session packets" upf.Nfs.Upf.encapsulated
         !data_hits;
     (* the session arena is a bump allocator: every accepted admission
        consumes a fresh slot and deletion only detaches the classifier
        keys — under churn the arena exhausts even though the live set
        shrinks, which is exactly this storm's capacity squeeze *)
     if upf.Nfs.Upf.n_active <> !accepted then
       fail "bump arena holds %d slots after %d admissions" upf.Nfs.Upf.n_active
         !accepted;
     if Hashtbl.length established <> !accepted - !deleted then
       fail "SMF books %d sessions, expected %d admitted - %d deleted"
         (Hashtbl.length established) !accepted !deleted;
     if !rejected_full = 0 then
       fail "undersized UPF (capacity %d < universe %d) never rejected" capacity
         universe;
     metrics :=
       [
         ("accepted", !accepted);
         ("rejected_full", !rejected_full);
         ("deleted", !deleted);
         ("not_found", !not_found);
         ("data_hits", !data_hits);
         ("data_miss", !data_miss);
         ("churn_events", Traffic.Mgw.churn_events churn);
         ("active", upf.Nfs.Upf.n_active);
       ]
   with e -> fail "uncontained exception: %s" (Printexc.to_string e));
  {
    st_name = "pfcp-session";
    st_seed = seed;
    st_metrics = !metrics;
    st_failures = List.rev !failures;
  }

(* ----- cuckoo-capacity NAT churn with Migration rebalancing ----- *)

let nat_rebalance_storm ?(seed = 1) ?(capacity = 64) ?(universe = 192)
    ?(packets = 480) () =
  let moves = 6 in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let metrics = ref [] in
  (try
     let worker = Progen.fresh_worker () in
     let layout = Worker.layout worker in
     let mk name =
       Nfs.Nat.create layout ~name ~overflow:Structures.Cuckoo.Evict_lru
         ~n_flows:capacity ()
     in
     let nat_a = mk "nat_a" and nat_b = mk "nat_b" in
     let gen = Progen.flowgen_for ~profile:"zipf" ~seed ~n_flows:universe in
     let all_flows = List.init universe (Traffic.Flowgen.flow gen) in
     let pool = Netcore.Packet.Pool.create layout ~count:32 in
     let burst nat ~seed ~packets =
       let run =
         Exec.run ~label:"nat-storm" `Rtc worker
           (Nfs.Nat.dynamic_program nat)
           (Progen.make_source ~profile:"zipf" ~seed ~gen ~pool ~packets)
       in
       (run.Metrics.packets, run.Metrics.drops)
     in
     (* capacity churn: a universe 3x the table size through the learner,
        with idle-timeout sweeps between rounds so entries genuinely cycle
        through the cuckoo table (insert -> expire -> reinstall) *)
     let rounds = 4 in
     let expired = ref 0
     and drops = ref 0 in
     for r = 0 to rounds - 1 do
       let pulled, d = burst nat_a ~seed:(seed + r) ~packets:(packets / rounds) in
       drops := !drops + d;
       if pulled <> packets / rounds then
         fail "round %d pulled %d of %d" r pulled (packets / rounds);
       if r < rounds - 1 then
         expired := !expired + Nfs.Nat.expire nat_a ~now:max_int ~idle_cycles:0
     done;
     if !expired = 0 then fail "idle sweeps expired nothing; no table churn";
     if nat_a.Nfs.Nat.learned <= capacity then
       fail "learner installed only %d mappings; no capacity churn at %d"
         nat_a.Nfs.Nat.learned capacity;
     (* rebalancing ping-pong: every hop must preserve the mapping bytes *)
     let imported = ref 0 in
     let src = ref nat_a and dst = ref nat_b in
     for hop = 1 to moves do
       let blob = Nfs.Migration.(export nat) !src all_flows in
       Nfs.Migration.(evict nat) !src all_flows;
       imported := !imported + Nfs.Migration.(import nat) !dst blob;
       let back = Nfs.Migration.(export nat) !dst all_flows in
       if not (String.equal blob back) then
         fail "hop %d: re-export differs from the snapshot (%d vs %d bytes)" hop
           (String.length blob) (String.length back);
       let tmp = !src in
       src := !dst;
       dst := tmp
     done;
     (* the holder must keep learning after the last hop; an even number
        of hops has brought the mappings back to [nat_a] *)
     let holder = nat_a in
     let before = holder.Nfs.Nat.learned in
     let pulled2, _ = burst holder ~seed:(seed + 7) ~packets:(packets / 4) in
     if pulled2 <> packets / 4 then fail "post-rebalance burst pulled %d" pulled2;
     if holder.Nfs.Nat.learned < before then
       fail "learned count went backwards after rebalancing";
     metrics :=
       [
         ("learned", nat_a.Nfs.Nat.learned + nat_b.Nfs.Nat.learned);
         ("expired", !expired);
         ("imported", !imported);
         ("moves", moves);
         ("drops", !drops);
       ]
   with e -> fail "uncontained exception: %s" (Printexc.to_string e));
  {
    st_name = "nat-rebalance";
    st_seed = seed;
    st_metrics = !metrics;
    st_failures = List.rev !failures;
  }

let all ?(seed = 1) () =
  [ pfcp_storm ~seed (); nat_rebalance_storm ~seed () ]
