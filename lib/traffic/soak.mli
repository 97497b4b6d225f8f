(** The chaos soak harness: the open-loop traffic generator run over a
    long virtual-time horizon under a seeded fault plan (frame drops and
    duplicates) plus a deterministic crash/revive schedule, with the
    {!Srpc_core.Health} failure detector, the {!Srpc_core.Admission}
    overload protections (bounded queue, retry budgets, per-peer circuit
    breaker) and journal-based session recovery all armed. The bench
    gate demands >= 99% session completion, zero validation-detected
    lost updates and a p99 latency within 5x of the fault-free
    {!baseline}. See docs/ROBUSTNESS.md. *)

open Srpc_core
open Srpc_check

type config = {
  clients : int;  (** client (per-session ground) nodes, >= 1 *)
  servers : int;  (** server (worker) nodes, 2..8 *)
  rate : float;  (** session arrivals per virtual second, per client *)
  mix : Script.kind list;  (** workload kinds cycled across sessions *)
  depth : int;  (** ops per session script *)
  seed : int;
  policy : Strategy.admission_policy;
  contention : Traffic.contention;
  horizon : float;  (** virtual seconds of offered arrivals *)
  drop : float;  (** per-frame drop probability *)
  dup : float;  (** per-frame duplication probability *)
  crash_period : float;
      (** virtual seconds between planned server crashes (rotating
          through the pool); [0.] disables the crash schedule *)
  outage : float;  (** how long each crashed server stays down *)
  queue_cap : int;  (** admission conflict-queue bound *)
  retry_budget : int;  (** admission deferral budget per session id *)
  give_up : int;
      (** client-side bound on admission attempts (across recovery
          cycles) before a session is abandoned as failed *)
}

(** 6 clients x 4 servers, 0.5 arrivals/s/client over a 320 s horizon,
    1% drop, a 20 s crash period with 300 ms outages — the bench gate's
    configuration. *)
val default : config

type result = {
  s_sessions : int;
  s_committed : int;
  s_failed : int;  (** abandoned after [give_up] admission attempts *)
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
  s_heartbeats : int;  (** [Stats.heartbeats_sent] *)
  s_suspicions : int;
  s_sheds : int;
  s_breaker_trips : int;
  s_recoveries : int;  (** the [Stats] counter; equals [s_recovered] *)
  s_queued : int;
  s_retried : int;
  s_validation_failed : int;  (** must be 0: no lost updates *)
  s_race_errors : int;
  s_proto_errors : int;
}

(** [run cfg] executes the soak on {!Traffic.open_loop}. With no drops,
    no duplicates and no crash schedule, no fault plan and no detector
    are constructed, so the wire path is byte-identical to a
    health-free cluster.
    @raise Traffic.Stuck on scheduler deadlock or fuel exhaustion. *)
val run : config -> result

(** [baseline cfg] is [run] with drops, duplicates and the crash
    schedule all zeroed — the fault-free yardstick for the p99 gate. *)
val baseline : config -> result

type comparison = {
  chaos : result;
  fault_free : result;
  p99_ratio : float;  (** chaos p99 / fault-free p99 *)
}

val compare_runs : config -> comparison
