(** The two-session weave checker: two generated session scripts run
    concurrently on one cluster — two ground nodes sharing the workers —
    interleaved one resolved op at a time through the
    {!Srpc_core.Admission} controller. Each side must still satisfy the
    single-session sequential oracle, the combined trace must pass
    {!Srpc_analysis.Race_lint} and {!Srpc_analysis.Proto_lint}, and
    conflicting footprints must serialize (queue or abort-retry) with
    no lost update. See docs/TRAFFIC.md. *)

open Srpc_core

(** [Disjoint]: side-prefixed synthetic footprints, both sessions
    admitted immediately and genuinely interleaved. [Conflicting]:
    identical unprefixed roots, so admission must serialize the
    (physically disjoint) sessions — exercising queue/drain/backoff. *)
type variant = Disjoint | Conflicting

val pp_variant : Format.formatter -> variant -> unit

type failure = {
  fseed : int;
  fvariant : variant;
  fpolicy : Strategy.admission_policy;
  fdesc : string;
  fscripts : Script.t * Script.t;  (** shrunk repro pair *)
}

type report = {
  runs : int;
  fault_runs : int;
  serialized_runs : int;
      (** conflicting-variant runs, where admission had to serialize *)
  failures : failure list;
}

(** [run_pair sa sb] weaves the two scripts (which should share their
    cluster shape — use {!Gen.pair}) and returns a failure description,
    or [None] if the run satisfied every oracle. *)
val run_pair :
  ?policy:Strategy.admission_policy ->
  ?variant:variant ->
  Script.t ->
  Script.t ->
  string option

(** The full fate of one weave: the oracle verdict plus each side's
    outcome — under a fault schedule an abort is acceptable, so tests
    that must prove a side *survived* (e.g. a crash/revive cycle
    mid-weave) check [o_committed_*] rather than just [o_failure]. *)
type outcome = {
  o_failure : string option;
  o_committed_a : bool;
  o_committed_b : bool;
  o_aborted_a : string option;
  o_aborted_b : string option;
}

val run_pair_full :
  ?policy:Strategy.admission_policy ->
  ?variant:variant ->
  Script.t ->
  Script.t ->
  outcome

(** Deterministic sweeps: even seeds are disjoint, odd conflicting;
    seeds alternate queue / abort-retry policy in blocks of two. *)
val variant_for : int -> variant

val policy_for : int -> Strategy.admission_policy

(** [check ~seeds ~depth ~faults ()] sweeps seeds 0..[seeds]-1 (odd
    seeds faulted when [faults > 0], as in {!Runner}); failures are
    shrunk by greedy per-side op dropping before being reported. *)
val check :
  ?progress:(int -> unit) ->
  seeds:int ->
  depth:int ->
  faults:float ->
  unit ->
  report

val pp_failure : Format.formatter -> failure -> unit
