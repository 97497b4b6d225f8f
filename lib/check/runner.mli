(** The check loop: generate → run against both oracles → shrink on
    failure.

    Three oracles judge every run: the happens-before race checker
    ({!Srpc_analysis.Race_lint}) on the recorded trace, the sequential
    model ({!Model}) on observations and final state, and the protocol
    verifier ({!Srpc_analysis.Proto_lint}) on the trace. A fault run may
    also end in a clean [Session_aborted] — but the observations made
    before the abort must still match the model, and both sides must be
    reusable afterwards. *)

type failure =
  | Obs_mismatch of { step : int; expected : int list; got : int list }
  | Obs_missing of { expected : int; got : int }
  | Final_mismatch of {
      phase : string;
      id : int;
      expected : int list;
      got : int list;
    }
  | Unexpected_abort of string
  | Uncaught of string
  | Protocol of string
  | Race of string  (** {!Srpc_analysis.Race_lint} flagged the trace *)
  | Not_reusable

val pp_failure : Format.formatter -> failure -> unit

(** [judge_session ~faulted model ?final_a ~obs ~aborted ~final_b ()]
    judges one session's run against its [model]: the observations
    [obs] must be a prefix of the model's, and all of them unless the
    session aborted; an abort is excused only on a [faulted] run; and
    the final-state reads [final_a] (inside the final session) and
    [final_b] (after a committed close) must match the model's. *)
val judge_session :
  faulted:bool ->
  Model.result ->
  ?final_a:(int * int list) list ->
  obs:int list list ->
  aborted:string option ->
  final_b:(int * int list) list ->
  unit ->
  failure option

(** [run_script s] resolves, models and interprets [s]; [None] means the
    run satisfied every oracle. *)
val run_script : Script.t -> failure option

type stats = {
  runs : int;
  completed : int;
  aborted : int;  (** clean aborts on fault runs (not failures) *)
  fault_runs : int;  (** runs carrying a fault schedule *)
}

type report =
  | Ok of stats
  | Failed of {
      seed : int;
      script : Script.t;
      failure : failure;
      shrunk : Script.t;  (** minimized reproducer *)
      shrunk_failure : failure;
      shrink_evals : int;
    }

(** [check ~seeds ~depth ~faults ()] runs seeds [0 .. seeds-1]; odd
    seeds carry a fault schedule with drop probability [faults] (and
    half that duplication) when [faults > 0]. Stops at the first
    failing seed and shrinks it. [progress] is called after each run
    with the seed just finished. [offload] draws scripts from
    {!Gen.script_offload} instead — the offload-heavy mix over the
    full strategy table. *)
val check :
  ?progress:(int -> unit) ->
  ?offload:bool ->
  seeds:int ->
  depth:int ->
  faults:float ->
  unit ->
  report

(** The script seed [check] would run for this [seed]. *)
val script_for : ?offload:bool -> depth:int -> faults:float -> int -> Script.t

(** The fault spec [check] (and the weave/traffic sweeps) install for
    this [seed]: odd seeds are faulted when [faults > 0]. *)
val fault_for : faults:float -> seed:int -> Script.fault option

(** [replay script] reruns one script and reports the failure, if any. *)
val replay : Script.t -> (unit, string) Stdlib.result
