(* The controller's decision table.

   Hysteresis is layered three ways so the controller cannot flap:
   - every rule has a deadband (act above [hi_*], relax only below a
     separate [lo_*] mark — between them nothing matches);
   - a rule must match [confirm] consecutive windows before it fires
     (an oscillating signal resets the streak and never acts);
   - after any move the controller holds for [cooldown] windows, then a
     throughput guard compares the first full post-move window against
     the pre-move window: a regression beyond [regress] reverts the move
     and pins the offending rule for the rest of the run.

   Everything is a pure function of the signal stream, so the same seed
   and workload always produce the identical decision log. *)

open Gunfu

type move =
  | To of Exec.t
  | Tasks_up
  | Tasks_down
  | Distance_up
  | Distance_down
  | Switch_policy of Scheduler.policy
  | Scr_handoff
  | Scr_return
  | Revert

let move_label = function
  | To e -> "to-" ^ Exec.label e
  | Tasks_up -> "tasks-up"
  | Tasks_down -> "tasks-down"
  | Distance_up -> "distance-up"
  | Distance_down -> "distance-down"
  | Switch_policy Scheduler.Round_robin -> "policy-rr"
  | Switch_policy Scheduler.Ready_first -> "policy-rf"
  | Scr_handoff -> "scr-handoff"
  | Scr_return -> "scr-return"
  | Revert -> "revert"

type params = {
  hi_mem : float;
  lo_mem : float;
  hi_switch : float;
  hi_occ : float;
  hi_skew : float;
  lo_skew : float;
  hi_imb : float;
  confirm : int;
  cooldown : int;
  regress : float;
  min_tasks : int;
  max_tasks : int;
  max_distance : int;
  batch : int;
}

let default_params =
  {
    hi_mem = 0.35;
    lo_mem = 0.15;
    hi_switch = 0.08;
    hi_occ = 6.0;
    hi_skew = 0.30;
    lo_skew = 0.10;
    hi_imb = 1.8;
    confirm = 2;
    cooldown = 1;
    regress = 0.08;
    min_tasks = 2;
    max_tasks = 16;
    max_distance = 3;
    batch = 32;
  }

type t = {
  p : params;
  scr : int option;
  mutable cur : Config.t;
  mutable prev : Config.t;  (* config before the last move (revert target) *)
  mutable last_il : Exec.il;  (* re-entry point of the interleaved family *)
  streaks : (string, int) Hashtbl.t;
  mutable cooldown_left : int;
  mutable guard : (float * string) option;  (* (pre-move kpps, rule key) *)
  pinned : (string, unit) Hashtbl.t;
}

let create ?(params = default_params) ?scr ~initial () =
  if params.confirm <= 0 then invalid_arg "Policy.create: confirm must be positive";
  if params.min_tasks <= 0 || params.max_tasks < params.min_tasks then
    invalid_arg "Policy.create: bad task bounds";
  {
    p = params;
    scr;
    cur = initial;
    prev = initial;
    last_il =
      (match initial with
      | `Il il -> il
      | `Rtc | `Batch _ | `Scr _ ->
          { Exec.policy = Scheduler.Round_robin; n_tasks = 8; distance = 1 });
    streaks = Hashtbl.create 8;
    cooldown_left = 0;
    guard = None;
    pinned = Hashtbl.create 4;
  }

let config t = t.cur

let apply t move =
  (match t.cur with `Il il -> t.last_il <- il | `Rtc | `Batch _ | `Scr _ -> ());
  match (move, t.cur) with
  | To e, _ -> (e :> Config.t)
  | Tasks_up, `Il c -> `Il { c with Exec.n_tasks = min t.p.max_tasks (c.Exec.n_tasks * 2) }
  | Tasks_down, `Il c -> `Il { c with Exec.n_tasks = max t.p.min_tasks (c.Exec.n_tasks / 2) }
  | Distance_up, `Il c ->
      `Il { c with Exec.distance = min t.p.max_distance (c.Exec.distance + 1) }
  | Distance_down, `Il c -> `Il { c with Exec.distance = max 1 (c.Exec.distance - 1) }
  | Switch_policy p, `Il c -> `Il { c with Exec.policy = p }
  | Scr_handoff, _ -> `Scr (match t.scr with Some c -> c | None -> 4)
  | (Scr_return | Revert), _ -> t.prev
  | (Tasks_up | Tasks_down | Distance_up | Distance_down | Switch_policy _), c -> c

(* The rule table, in priority order: (key, move) for rules that match
   this window *and* can act on the current config. *)
let matching_rules t (s : Window.signals) =
  let p = t.p in
  let acc = ref [] in
  let add key mv = acc := (key, mv) :: !acc in
  (* MSHR pressure: injected stalls or saturated fill slots starve the
     round-robin scan; ready-first skips blocked tasks for a 1-cycle scan
     charge instead of a full wasted visit. *)
  (match t.cur with
  | `Il { Exec.policy = Scheduler.Round_robin; _ }
    when s.Window.w_stalls > 0 || s.Window.w_mshr_occ >= p.hi_occ ->
      add "stall-rf" (Switch_policy Scheduler.Ready_first)
  | _ -> ());
  (* Skewed traffic collapses an RSS projection onto few cores; SCR's
     sprayed dispatch is the scale-out that stays flat under skew. *)
  (match t.scr with
  | Some _
    when Config.single_core t.cur
         && s.Window.w_skew >= p.hi_skew
         && s.Window.w_imbalance >= p.hi_imb ->
      add "scr-handoff" Scr_handoff
  | _ -> ());
  (match t.cur with
  | `Scr _ when s.Window.w_skew <= p.lo_skew -> add "scr-return" Scr_return
  | _ -> ());
  (* Memory-bound: grow the latency-hiding budget — enter the interleaved
     family, widen it, then raise the prefetch distance. *)
  (if s.Window.w_mem_share >= p.hi_mem then
     match t.cur with
     | `Rtc | `Batch _ ->
         (* Re-enter no narrower than the default width: the widths a
            compute-bound narrowing march walked through are not a
            memory-bound starting point. *)
         let il = t.last_il in
         add "mem-up" (To (`Il { il with Exec.n_tasks = max il.Exec.n_tasks 8 }))
     | `Il { Exec.n_tasks; distance; _ } ->
         if n_tasks < p.max_tasks then add "mem-up" Tasks_up
         else if distance < p.max_distance && s.Window.w_deep_share >= p.hi_mem then
           add "mem-up" Distance_up
     | `Scr _ -> ());
  (* Compute-bound: the switch overhead of a wide interleave buys nothing
     when state is cache-resident — narrow, then collapse to batched
     run-to-completion, which keeps the locality win while amortizing the
     per-pull overhead plain rtc still pays. *)
  (if s.Window.w_mem_share <= p.lo_mem && s.Window.w_switch_share >= p.hi_switch then
     match t.cur with
     | `Il { Exec.n_tasks; _ } ->
         if n_tasks > p.min_tasks then add "mem-down" Tasks_down
         else add "mem-down" (To (`Batch p.batch))
     | `Rtc | `Batch _ | `Scr _ -> ());
  List.rev !acc

let decide t (s : Window.signals) =
  if t.cooldown_left > 0 then begin
    t.cooldown_left <- t.cooldown_left - 1;
    Hashtbl.reset t.streaks;
    if t.cooldown_left = 0 then begin
      (* First full window under the new config: the throughput guard. *)
      match t.guard with
      | Some (pre, key) when s.Window.w_kpps < (1.0 -. t.p.regress) *. pre ->
          t.guard <- None;
          Hashtbl.replace t.pinned key ();
          let from = t.cur in
          t.cur <- t.prev;
          t.prev <- from;
          t.cooldown_left <- t.p.cooldown;
          Some Revert
      | _ ->
          t.guard <- None;
          None
    end
    else None
  end
  else begin
    let matched = matching_rules t s in
    (* Streak bookkeeping: matched rules extend their streak, everything
       else resets — an oscillating signal can never accumulate. *)
    let keys = List.map fst matched in
    Hashtbl.iter
      (fun k _ -> if not (List.mem k keys) then Hashtbl.replace t.streaks k 0)
      (Hashtbl.copy t.streaks);
    List.iter
      (fun k ->
        Hashtbl.replace t.streaks k
          (1 + Option.value ~default:0 (Hashtbl.find_opt t.streaks k)))
      keys;
    let fire =
      List.find_opt
        (fun (key, _) ->
          (not (Hashtbl.mem t.pinned key))
          && Option.value ~default:0 (Hashtbl.find_opt t.streaks key) >= t.p.confirm)
        matched
    in
    match fire with
    | None -> None
    | Some (key, mv) ->
        let next = apply t mv in
        if next = t.cur then begin
          (* Saturated knob: nothing to do, don't burn a cooldown. *)
          Hashtbl.replace t.streaks key 0;
          None
        end
        else begin
          t.prev <- t.cur;
          t.cur <- next;
          t.guard <- Some (s.Window.w_kpps, key);
          t.cooldown_left <- t.p.cooldown;
          Hashtbl.reset t.streaks;
          Some mv
        end
  end
