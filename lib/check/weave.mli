(** The weave checker: generated session scripts run concurrently on
    one cluster — one ground node per script sharing the workers —
    interleaved one resolved op at a time through the
    {!Srpc_core.Admission} controller, each session on a {!Stepper}.
    Each session must still satisfy the single-session sequential
    oracle, the combined trace must pass {!Srpc_analysis.Race_lint} and
    {!Srpc_analysis.Proto_lint}, and conflicting footprints must
    serialize (queue or abort-retry) with no lost update. See
    docs/TRAFFIC.md. *)

open Srpc_core

(** [Disjoint]: side-prefixed synthetic footprints, every session
    admitted immediately and genuinely interleaved. [Conflicting]:
    identical unprefixed roots, so admission must serialize the
    (physically disjoint) sessions — exercising queue/drain/backoff. *)
type variant = Disjoint | Conflicting

type failure = {
  fseed : int;
  fvariant : variant;
  fpolicy : Strategy.admission_policy;
  fdesc : string;
  fscripts : Script.t list;  (** shrunk repro, one script per side *)
}

type report = {
  runs : int;
  fault_runs : int;
  serialized_runs : int;
      (** conflicting-variant runs, where admission had to serialize *)
  failures : failure list;
}

(** The full fate of one weave: the oracle verdict plus each session's
    outcome, in script order — under a fault schedule an abort is
    acceptable, so tests that must prove a session *survived* (e.g. a
    crash/revive cycle mid-weave) check [o_committed] rather than just
    [o_failure]. *)
type outcome = {
  o_failure : string option;  (** [None] if the run satisfied every oracle *)
  o_committed : bool list;
  o_aborted : string option list;  (** each session's abort reason *)
  o_trace : Srpc_simnet.Trace.t;  (** every session's combined trace *)
}

(** [run scripts] weaves the scripts, which should share their cluster
    shape (workers, architectures and strategy, as {!Gen.pair} draws
    them): script [i]'s ground sits at site [i+1] and the workers
    follow. The first script's shape and fault schedule build the
    cluster. *)
val run :
  ?policy:Strategy.admission_policy ->
  ?variant:variant ->
  Script.t list ->
  outcome

(** [check ~seeds ~depth ~faults ()] sweeps two-session weaves over
    seeds 0..[seeds]-1 (odd seeds faulted when [faults > 0], as in
    {!Runner}); failures are shrunk by greedy per-side op dropping
    before being reported. *)
val check :
  ?progress:(int -> unit) ->
  seeds:int ->
  depth:int ->
  faults:float ->
  unit ->
  report

val pp_failure : Format.formatter -> failure -> unit
