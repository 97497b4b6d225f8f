(* srpc-soak: sustained chaos traffic with liveness detection, session
   recovery and overload protection.

   [Traffic.open_loop] run over a long VIRTUAL-time horizon while a
   deterministic chaos schedule crashes and revives servers and the
   fault plan drops frames. This module arms the engine with three
   robustness layers:

   - a [Health] failure detector probes with heartbeat frames and folds
     the simulator's crash/revive marks in, so suspicion is immediate
     for planned outages and probe-driven for message loss;
   - the [Admission] controller runs with bounded queues, per-session
     retry budgets and the per-peer circuit breaker, so sessions that
     would touch a dead server are shed with a typed [Overloaded]
     instead of timing out one by one;
   - the engine's journal replay recovers each session a crash aborts,
     under a fresh id, until the client-side [give_up] bound.

   With [drop = dup = 0] and [crash_period = 0] no fault plan and no
   detector are installed and the run is byte-identical to a
   health-free cluster ([baseline] — the fault-free yardstick the p99
   gate divides by). *)

open Srpc_core
open Srpc_memory
open Srpc_simnet
open Srpc_check

type config = {
  clients : int;
  servers : int;
  rate : float;  (** session arrivals per virtual second, per client *)
  mix : Script.kind list;
  depth : int;
  seed : int;
  policy : Strategy.admission_policy;
  contention : Traffic.contention;
  horizon : float;  (** virtual seconds of offered arrivals *)
  drop : float;
  dup : float;
  crash_period : float;  (** virtual s between server crashes; 0 = none *)
  outage : float;  (** virtual s a crashed server stays down *)
  queue_cap : int;
  retry_budget : int;
  give_up : int;  (** admission attempts before the client abandons *)
}

let default =
  {
    clients = 6;
    servers = 4;
    rate = 0.5;
    mix = [ Script.KList; Script.KTree ];
    depth = 6;
    seed = 0;
    policy = Strategy.Queue_conflicts;
    contention = Traffic.Disjoint;
    horizon = 320.0;
    drop = 0.01;
    dup = 0.005;
    crash_period = 20.0;
    outage = 0.3;
    queue_cap = 64;
    retry_budget = 32;
    give_up = 40;
  }

type result = {
  s_sessions : int;
  s_committed : int;
  s_failed : int;  (** gave up after [give_up] admission attempts *)
  s_aborts : int;  (** mid-session aborts (crashes, retry exhaustion) *)
  s_recovered : int;  (** sessions committed after at least one abort *)
  s_completion : float;  (** committed / sessions *)
  s_makespan : float;
  s_throughput : float;
  s_p50 : float;
  s_p95 : float;
  s_p99 : float;
  s_crashes : int;  (** chaos crash events applied *)
  s_revives : int;
  s_heartbeats : int;
  s_suspicions : int;
  s_sheds : int;
  s_breaker_trips : int;
  s_recoveries : int;  (** the [Stats] counter; equals [s_recovered] *)
  s_queued : int;
  s_retried : int;
  s_validation_failed : int;
  s_race_errors : int;
  s_proto_errors : int;
}

let chaotic cfg = cfg.drop > 0.0 || cfg.dup > 0.0 || cfg.crash_period > 0.0

(* The deterministic chaos schedule: at every multiple of
   [crash_period] inside the horizon one server (rotating) crashes,
   reviving [outage] later. A sorted flat event list the engine applies
   as client timelines pass each instant. *)
let chaos_schedule cfg =
  if cfg.crash_period <= 0.0 then []
  else begin
    if cfg.outage <= 0.0 || cfg.outage >= cfg.crash_period then
      invalid_arg "Soak: outage must be in (0, crash_period)";
    let rec go k acc =
      let t = cfg.crash_period *. float_of_int (k + 1) in
      if t >= cfg.horizon then List.rev acc
      else
        go (k + 1)
          ((t +. cfg.outage, Traffic.Revive (k mod cfg.servers))
          :: (t, Traffic.Crash (k mod cfg.servers))
          :: acc)
    in
    List.stable_sort (fun (a, _) (b, _) -> compare a b) (go 0 [])
  end

(* The fault plan and the detector, installed only when the config
   asks for chaos. *)
let arm_faults cfg cluster servers =
  if not (chaotic cfg) then None
  else begin
    let fp = Fault_plan.create ~seed:cfg.seed () in
    if cfg.drop > 0.0 || cfg.dup > 0.0 then
      Fault_plan.set_global fp
        (Fault_plan.profile ~drop:cfg.drop ~duplicate:cfg.dup ());
    Cluster.install_faults cluster fp;
    (* the detector probes from its own (unregistered) endpoint: a
       monitor, not a node — Transport.rpc needs no src dispatcher *)
    let h =
      Health.create ~src:"monitor" ~registry:(Cluster.registry cluster)
        ~stats:(Cluster.stats cluster)
        (Cluster.transport cluster)
    in
    List.iter
      (fun s -> Health.watch h (Space_id.to_string (Node.id s)))
      servers;
    Some h
  end

let run cfg =
  let o =
    Traffic.open_loop ~name:"soak" ~horizon:cfg.horizon
      ~arming:
        {
          Traffic.a_faults = arm_faults cfg;
          a_queue_cap = cfg.queue_cap;
          a_retry_budget = cfg.retry_budget;
          a_give_up = Some cfg.give_up;
          a_outages = chaos_schedule cfg;
        }
      {
        Traffic.clients = cfg.clients;
        servers = cfg.servers;
        rate = cfg.rate;
        mix = cfg.mix;
        sessions_per_client = max_int;
        depth = cfg.depth;
        seed = cfg.seed;
        policy = cfg.policy;
        contention = cfg.contention;
      }
  in
  let r = o.Traffic.o_result and st = o.Traffic.o_stats in
  {
    s_sessions = r.Traffic.r_sessions;
    s_committed = r.Traffic.r_committed;
    s_failed = o.Traffic.o_failed;
    s_aborts = o.Traffic.o_aborts;
    s_recovered = o.Traffic.o_recovered;
    s_completion =
      (if r.Traffic.r_sessions > 0 then
         float_of_int r.Traffic.r_committed /. float_of_int r.Traffic.r_sessions
       else 1.0);
    s_makespan = r.Traffic.r_makespan;
    s_throughput = r.Traffic.r_throughput;
    s_p50 = r.Traffic.r_p50;
    s_p95 = r.Traffic.r_p95;
    s_p99 = r.Traffic.r_p99;
    s_crashes = o.Traffic.o_crashes;
    s_revives = o.Traffic.o_revives;
    s_heartbeats = st.Stats.heartbeats_sent;
    s_suspicions = st.Stats.suspicions;
    s_sheds = st.Stats.sheds;
    s_breaker_trips = st.Stats.breaker_trips;
    s_recoveries = st.Stats.recoveries;
    s_queued = r.Traffic.r_queued;
    s_retried = r.Traffic.r_retried;
    s_validation_failed = r.Traffic.r_validation_failed;
    s_race_errors = r.Traffic.r_race_errors;
    s_proto_errors = r.Traffic.r_proto_errors;
  }

(* The fault-free yardstick: the same offered load with no fault plan,
   no chaos schedule and no detector constructed — the wire path is
   byte-identical to a health-free cluster. *)
let baseline cfg = run { cfg with drop = 0.0; dup = 0.0; crash_period = 0.0 }

type comparison = { chaos : result; fault_free : result; p99_ratio : float }

let compare_runs cfg =
  let fault_free = baseline cfg in
  let chaos = run cfg in
  let p99_ratio =
    if fault_free.s_p99 > 0.0 then chaos.s_p99 /. fault_free.s_p99 else 0.0
  in
  { chaos; fault_free; p99_ratio }
