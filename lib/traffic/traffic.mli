(** srpc-traffic: the open-loop concurrent-session traffic generator.

    N client nodes (each the ground of its own sessions) drive a small
    pool of shared server nodes through the concurrent-session
    admission controller. Arrivals are Poisson in {e virtual} time:
    every random choice flows through the seeded [Rng] and time is the
    simulation's cost-model clock, so a (seed, config) pair names one
    exact execution on every machine.

    {b Time model.} The cluster has one virtual clock metering every
    operation (the simulation is single-threaded). The scheduler runs
    one resolved op at a time and charges its clock delta to the
    issuing client's private logical timeline, so concurrent clients
    overlap in logical time exactly as N independent machines would —
    the same op-atomic-interleaving soundness argument as the weave
    checker. {!run_serialized} replays the same sessions on one
    accumulated timeline; the throughput ratio ({!compare_runs})
    approaches the client count for admission-disjoint workloads and
    ~1 under full contention.

    Session bodies come from [Gen.session_script] and execute through
    [Interp.exec_rop] — the model checker's interpreter — so traffic
    can never drift from checked op semantics. [Race_lint] and
    [Proto_lint] run over the full trace as standing oracles. *)

open Srpc_core
open Srpc_check

(** Footprint shape: [Disjoint] gives every client its own datum-root
    universe (sessions admit concurrently); [Hot] points every session
    at one shared root (admission serializes: queueing or
    abort-retry, per policy). *)
type contention = Disjoint | Hot

type config = {
  clients : int;  (** client (per-session ground) nodes, >= 1 *)
  servers : int;  (** server (worker) nodes, 2..8 *)
  rate : float;  (** session arrivals per virtual second, per client *)
  mix : Script.kind list;  (** workload kinds cycled across sessions *)
  sessions_per_client : int;
  depth : int;  (** ops per session script *)
  seed : int;
  policy : Strategy.admission_policy;
  contention : contention;
}

(** 8 clients, 4 servers, 400 arrivals/s, list+tree mix, 4 sessions per
    client, queueing admission, disjoint footprints. *)
val default : config

type result = {
  r_sessions : int;
  r_committed : int;
  r_aborted : int;
  r_makespan : float;  (** virtual seconds, max over client timelines *)
  r_throughput : float;  (** committed sessions per virtual second *)
  r_p50 : float;  (** session latency percentiles, virtual seconds *)
  r_p95 : float;
  r_p99 : float;
  r_admitted : int;  (** admission counters, from {!Srpc_simnet.Stats} *)
  r_queued : int;
  r_denied : int;
  r_retried : int;
  r_validation_failed : int;
  r_race_errors : int;  (** [Race_lint] errors over the full trace *)
  r_proto_errors : int;  (** [Proto_lint] errors over the full trace *)
}

(** [run cfg] drives the full open-loop traffic run and returns its
    aggregate result: {!open_loop} with nothing armed. Deterministic in
    [cfg].
    @raise Stuck if the scheduler stops making progress. *)
val run : config -> result

(** {1 The open-loop engine}

    {!run} and [Soak.run] are two entry points of one engine. They
    differ only in the {!arming}. *)

type outage = Crash of int | Revive of int  (** index into the servers *)

type arming = {
  a_faults : Cluster.t -> Node.t list -> Health.t option;
      (** installs the fault plan once the servers exist, and returns
          the detector the admission controller consults *)
  a_queue_cap : int;  (** admission conflict-queue bound *)
  a_retry_budget : int;  (** admission deferral budget per session id *)
  a_give_up : int option;
      (** admission attempts, across recovery cycles, before a client
          abandons its session; [None] never abandons *)
  a_outages : (float * outage) list;  (** sorted by virtual time *)
}

(** The run's {!result} plus what only an armed run exercises. *)
type outcome = {
  o_result : result;
  o_failed : int;  (** abandoned after [a_give_up] admission attempts *)
  o_aborts : int;  (** mid-session aborts, each replayed from its journal *)
  o_recovered : int;  (** sessions committed after at least one abort *)
  o_crashes : int;  (** crash events applied *)
  o_revives : int;
  o_stats : Srpc_simnet.Stats.snapshot;  (** the cluster's, at the end *)
}

(** [open_loop ?arming ~name ~horizon cfg] offers each client
    [cfg.sessions_per_client] sessions or the arrivals before [horizon],
    whichever is fewer. A session that aborts or fails close-time
    validation is replayed under a fresh id. Without [arming] nothing is
    armed: no faults, no detector, no bounds, no outages. [name] labels
    footprints and error messages.
    @raise Stuck if the scheduler stops making progress. *)
val open_loop :
  ?arming:arming -> name:string -> horizon:float -> config -> outcome

(** [run_serialized cfg] replays the same session population strictly
    one at a time on a single accumulated timeline — the baseline the
    speedup gate divides by. *)
val run_serialized : config -> result

type comparison = {
  concurrent : result;
  serialized : result;
  speedup : float;  (** concurrent throughput / serialized throughput *)
}

val compare_runs : config -> comparison

(** {1 The shared-counter workload}

    The no-lost-update oracle in its purest form: one integer cell
    homed on a server; every client session reads it, bumps it and
    writes it back at close. Correct admission serializes the bumps so
    the final value equals the committed-session count. With
    [chaos:true] ([Node.chaos_admit_conflicting]) the sessions overlap:
    close-time validation must fail every loser (who retries under a
    fresh id) while Race_lint (CC101) and the protocol linter (SP008)
    flag the overlap — and the counter still ends exactly at the
    committed count. *)

type counter_outcome = {
  k_clients : int;
  k_committed : int;
  k_final : int;  (** the counter cell's closing value *)
  k_validation_failures : int;
  k_race_errors : int;
  k_proto_errors : int;
}

val run_counter :
  ?chaos:bool ->
  clients:int ->
  policy:Strategy.admission_policy ->
  unit ->
  counter_outcome

exception Stuck
