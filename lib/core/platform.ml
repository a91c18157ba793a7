(* Multi-core platform (§VII-C): share-nothing per-core runtimes. RSS
   steers each flow to one core, so cores touch disjoint state and scale
   independently; we model this by giving every worker its own simulated
   memory, substrate instances and traffic slice.

   LLC capacity is partitioned across active cores (the paper's testbed
   shares a 33 MiB LLC among cores of one socket). *)

type t = {
  workers : Worker.t array;
  cfg : Worker.cfg;
}

let create ?(cfg = Worker.default_cfg) ~cores () =
  if cores <= 0 then invalid_arg "Platform.create: cores must be positive";
  let mem_cfg = cfg.Worker.mem_cfg in
  let llc_share =
    (* Keep the geometry valid: power-of-two set count per way. *)
    let per_core = mem_cfg.Memsim.Hierarchy.llc_size / cores in
    let line_assoc = mem_cfg.Memsim.Hierarchy.line_bytes * mem_cfg.Memsim.Hierarchy.llc_assoc in
    let sets = max 1 (per_core / line_assoc) in
    let rec pow2_below v acc = if acc * 2 > v then acc else pow2_below v (acc * 2) in
    pow2_below sets 1 * line_assoc
  in
  let cfg =
    { cfg with Worker.mem_cfg = { mem_cfg with Memsim.Hierarchy.llc_size = llc_share } }
  in
  { workers = Array.init cores (fun id -> Worker.create ~cfg ~id ()); cfg }

let cores t = Array.length t.workers
let config t = t.cfg
let worker t i = t.workers.(i)
let workers t = t.workers

(* Run one experiment on every core. [setup] builds the per-core NF and its
   traffic slice (cores are share-nothing, so each gets fresh substrate
   state); returns the per-core runs, mergeable with
   {!Metrics.merge_parallel}. *)
let run t ~setup ~execute =
  Array.to_list
    (Array.map
       (fun w ->
         let program, source = setup w (Worker.id w) in
         execute w program source)
       t.workers)

(* --- crash recovery: epoch checkpoints + bounded replay log ----------- *)

(* Per-core recovery journal. Every [epoch] pulls the core exports its
   per-flow state (the checkpoint — an opaque payload here, produced by the
   Migration layer which lives above lib/core) and trims the replay log;
   between checkpoints every pulled item is appended to the log. After a
   core dies, an adopter restores the last checkpoint and replays the
   logged suffix, which by construction is exactly the work since that
   checkpoint. The journal is pure bookkeeping: recording a clone and
   exporting state never touches the simulated memory hierarchy, so a run
   with journaling enabled is cycle- and byte-identical to one without
   (the inert-plane property, pinned by test_recovery.ml). *)
module Recovery = struct
  type plan = { epoch : int; log_capacity : int }

  (* Epoch small enough that replay is cheap, log deep enough that a whole
     epoch always fits (journal validates epoch <= log_capacity). *)
  let default_plan = { epoch = 32; log_capacity = 256 }

  (* RSS pinning: the core owning a flow hint. Hint-less items (< 0) fall
     to core 0. *)
  let owner ~cores hint =
    if cores <= 0 then invalid_arg "Platform.Recovery.owner: cores must be positive";
    if hint < 0 then 0 else hint mod cores

  (* One pulled item as the log retains it: a clone of the packet (same id
     — replay must look like the same packet to dedup and fault plane),
     the workload hint/aux, and the fault injection that was armed for it,
     if any, so replay re-arms it instead of re-drawing. *)
  type entry = {
    e_pkt : Netcore.Packet.t option;
    e_hint : int;
    e_aux : int;
    e_inj : Fault.injection option;
  }

  type 'a journal = {
    plan : plan;
    mutable ckpt : 'a option;  (* last checkpoint payload *)
    mutable log : entry list;  (* newest first *)
    mutable log_len : int;
    mutable pulls : int;  (* items recorded since creation *)
    mutable trimmed : int;  (* log entries retired by checkpoints *)
    mutable overflowed : int;  (* entries lost to the capacity bound *)
  }

  let journal plan =
    if plan.epoch <= 0 then
      invalid_arg "Platform.Recovery.journal: epoch must be positive";
    if plan.log_capacity < plan.epoch then
      invalid_arg "Platform.Recovery.journal: log_capacity must cover one epoch";
    { plan; ckpt = None; log = []; log_len = 0; pulls = 0; trimmed = 0;
      overflowed = 0 }

  (* A checkpoint is due before pulls #0, #epoch, #2*epoch, ... *)
  let boundary j = j.pulls mod j.plan.epoch = 0

  let checkpoint j state =
    j.ckpt <- Some state;
    j.trimmed <- j.trimmed + j.log_len;
    j.log <- [];
    j.log_len <- 0

  let record j e =
    j.pulls <- j.pulls + 1;
    j.log <- e :: j.log;
    j.log_len <- j.log_len + 1;
    if j.log_len > j.plan.log_capacity then begin
      (* Cannot happen when the owner checkpoints at every boundary
         (epoch <= capacity); bound the log anyway and surface the loss. *)
      (match List.rev j.log with
      | [] -> ()
      | _oldest :: rest -> j.log <- List.rev rest);
      j.log_len <- j.log_len - 1;
      j.overflowed <- j.overflowed + 1
    end

  let last_checkpoint j = j.ckpt
  let suffix j = List.rev j.log
  let recorded j = j.pulls
  let trimmed j = j.trimmed
  let overflowed j = j.overflowed
end
