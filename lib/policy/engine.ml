(* Per-root-type two-arm bandit for traversal offloading: each arm keeps
   an EMA of the measured (simulated) seconds a plan run took that way.
   Everything is deterministic — alternation while under-sampled, then
   exploit-the-min with a fixed-period re-exploration — so simulated
   clusters replay bit-identically. *)
type offload_arm = { mutable o_ema : float; mutable o_samples : int }

type offload_stat = {
  o_local : offload_arm;
  o_remote : offload_arm;
  mutable o_decisions : int;
}

type t = {
  profile : Profile.t;
  controller : Controller.t;
  offloads : (string, offload_stat) Hashtbl.t;
}

let create ?config ?(cost = Srpc_simnet.Cost_model.sparc_10mbps) () =
  let controller = Controller.create ?config ~cost () in
  let max_windows = max 1 (Controller.config controller).Controller.windows in
  {
    profile = Profile.create ~max_windows ();
    controller;
    offloads = Hashtbl.create 8;
  }

let profile t = t.profile
let budget_for t ~ty = Controller.budget_for t.controller ~ty

let session_end ?seconds t =
  Profile.end_window t.profile;
  let windows = (Controller.config t.controller).Controller.windows in
  Controller.step ?seconds t.controller (Profile.summary t.profile ~windows)

let budgets t = Controller.budgets t.controller

(* --- traversal offloading (docs/OFFLOAD.md) --- *)

let offload_min_samples = 2
let offload_explore_period = 16
let offload_alpha = 0.3

let offload_stat t ty =
  match Hashtbl.find_opt t.offloads ty with
  | Some s -> s
  | None ->
    let arm () = { o_ema = 0.0; o_samples = 0 } in
    let s = { o_local = arm (); o_remote = arm (); o_decisions = 0 } in
    Hashtbl.add t.offloads ty s;
    s

let remote_wins s = s.o_remote.o_ema < s.o_local.o_ema

let choose_offload t ~ty =
  let s = offload_stat t ty in
  s.o_decisions <- s.o_decisions + 1;
  if
    s.o_local.o_samples < offload_min_samples
    || s.o_remote.o_samples < offload_min_samples
  then
    (* under-sampled: alternate the arms, local first on ties, so both
       EMAs exist before any exploitation *)
    s.o_local.o_samples > s.o_remote.o_samples
  else if s.o_decisions mod offload_explore_period = 0 then
    (* periodic re-exploration of the losing arm keeps a stale EMA from
       locking the decision in after the workload shifts *)
    not (remote_wins s)
  else remote_wins s

let offload_feedback t ~ty ~offloaded ~seconds =
  let s = offload_stat t ty in
  let arm = if offloaded then s.o_remote else s.o_local in
  arm.o_ema <-
    (if arm.o_samples = 0 then seconds
     else (offload_alpha *. seconds) +. ((1.0 -. offload_alpha) *. arm.o_ema));
  arm.o_samples <- arm.o_samples + 1

let offload_choice t ~ty =
  match Hashtbl.find_opt t.offloads ty with
  | Some s
    when s.o_local.o_samples >= offload_min_samples
         && s.o_remote.o_samples >= offload_min_samples ->
    if remote_wins s then "offload" else "local"
  | Some _ | None -> "unsampled"
