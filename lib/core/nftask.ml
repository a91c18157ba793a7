(* NFTask (§V, Fig 9a): the lightweight execution environment of one
   function stream — all context needed to process one packet.

   Fields mirror the paper's struct: control state, pending event, the
   packet reference, resolved match/per-flow/sub-flow state references, the
   temporary-variable area the compiler allocates, and the P-state used by
   the cache-management logic to decide whether the next action's NFState
   has been prefetched. *)

type p_state =
  | P_none       (* no prefetch issued for the pending action's state *)
  | P_issued     (* prefetch in flight; re-check readiness before running *)
  | P_ready      (* state observed resident; action may run *)

(* Temporaries persisting between the NFActions of one packet (§IV-A,
   "temporary states"). The compiler of the paper collects these from NF-C
   sources; here they are a fixed record covering the needs of all shipped
   modules plus generic registers for NF-C programs. *)
type temps = {
  key : Bytes.t;
      (* flow key being matched: 8 little-endian bytes, written by the
         key extractor and read in place by the table probes, so the key
         is never boxed *)
  mutable h1 : int;           (* primary cuckoo bucket *)
  mutable h2 : int;           (* alternate cuckoo bucket *)
  mutable cursor : int;       (* MDI tree node index during a walk *)
  mutable regs : int array;   (* NF-C temporaries *)
}

type t = {
  id : int;
  mutable cs : int;                       (* current control-logic state *)
  mutable event : Event.t;                (* event driving the next transition *)
  mutable packet : Netcore.Packet.t option;
  mutable aux : int;                      (* non-packet input, e.g. AMF message code *)
  mutable flow_hint : int;                (* generator's flow index; -1 unknown *)
  mutable matched : int;                  (* per-flow index from matching; -1 none *)
  mutable sub_matched : int;              (* sub-flow index; -1 none *)
  mutable match_addr : int;               (* block the next match action reads; -1 none *)
  mutable match_bytes : int;              (* ... and its size *)
  mutable blocks : int array;
      (* (addr, bytes) pairs at [2i], [2i + 1]: the blocks resolved by the
         last Fetch step, what p_state refers to, then scratch space *)
  mutable n_blocks : int;                 (* pairs of [blocks] the Fetch step resolved *)
  mutable p_state : p_state;
  mutable active : bool;                  (* false = free slot awaiting a packet *)
  mutable start_clock : int;              (* cycle the work item was loaded *)
  temps : temps;
}

let create id =
  {
    id;
    cs = 0;
    event = Event.Packet_arrival;
    packet = None;
    aux = 0;
    flow_hint = -1;
    matched = -1;
    sub_matched = -1;
    match_addr = -1;
    match_bytes = 0;
    blocks = Array.make 16 0;
    n_blocks = 0;
    p_state = P_none;
    active = false;
    start_clock = 0;
    temps =
      { key = Bytes.make 8 '\000'; h1 = -1; h2 = -1; cursor = -1; regs = Array.make 8 0 };
  }

(* Load a new unit of work; performed by the scheduler's initialisation and
   re-initialisation steps (Algorithm 1, lines 4 and 13). Every argument
   is labelled and required, so a load boxes no optional argument. *)
let load t ~cs ~packet ~aux ~flow_hint =
  t.cs <- cs;
  t.event <- Event.Packet_arrival;
  t.packet <- packet;
  t.aux <- aux;
  t.flow_hint <- flow_hint;
  t.matched <- -1;
  t.sub_matched <- -1;
  t.match_addr <- -1;
  t.match_bytes <- 0;
  t.n_blocks <- 0;
  t.p_state <- P_none;
  t.active <- true;
  Bytes.set_int64_le t.temps.key 0 0L;
  t.temps.h1 <- -1;
  t.temps.h2 <- -1;
  t.temps.cursor <- -1;
  Array.fill t.temps.regs 0 (Array.length t.temps.regs) 0

(* Resolve the one block the next match action reads. *)
let set_match t ~addr ~bytes =
  t.match_addr <- addr;
  t.match_bytes <- bytes

(* Write block [i], doubling the array when it is full; a task's array
   reaches the widest state's size during warm-up and stays there. *)
let set_block t i ~addr ~bytes =
  if 2 * i + 1 >= Array.length t.blocks then begin
    let grown = Array.make (max (2 * Array.length t.blocks) (2 * i + 2)) 0 in
    Array.blit t.blocks 0 grown 0 (Array.length t.blocks);
    t.blocks <- grown
  end;
  t.blocks.(2 * i) <- addr;
  t.blocks.(2 * i + 1) <- bytes

let block_addr t i = t.blocks.(2 * i)
let block_bytes t i = t.blocks.(2 * i + 1)

let retire t =
  t.active <- false;
  t.packet <- None

let packet_exn t =
  match t.packet with
  | Some p -> p
  | None -> invalid_arg "Nftask.packet_exn: task has no packet"
