(** Seeded script generator. Deterministic: the same [seed], [depth] and
    [fault] spec always produce the identical script, on every OCaml
    version (see {!Rng}). *)

(** [script ~seed ~depth ~fault] draws a script of [depth] ops (the
    first is always a build so most runs do real work). When [fault] is
    [Some _] the op mix also includes worker crashes. *)
val script : seed:int -> depth:int -> fault:Script.fault option -> Script.t

(** [script_offload ~seed ~depth ~fault] is {!script} with an
    offload-heavy op mix (about a third of the ops are [Offload] /
    [Offload_update]) and the strategy drawn from the full table
    including the offload modes (indices 10–12). A separate entry point
    with its own RNG stream, so {!script}'s seed → script mapping is
    untouched. *)
val script_offload :
  seed:int -> depth:int -> fault:Script.fault option -> Script.t

(** Strategy-table indices admission accepts: no [Twin_diff] grain, no
    delta coherency (see [Node.reserve_session]). *)
val concurrent_strategies : int array

(** [pair ~seed ~depth ~fault] draws two session scripts that share one
    cluster shape — same worker count, architectures and (restricted)
    strategy — for the two-session weave harness. The op mix excludes
    [New_session], [Crash] and [Callback]: the harness owns session
    boundaries, the admission harnesses run without crash plans, and the
    callback bonus proc is tied to the single-session checker's
    ground. *)
val pair :
  seed:int -> depth:int -> fault:Script.fault option -> Script.t * Script.t

(** [session_script ~seed ~depth ~workers ~kind ~fault] draws one
    session script for the traffic generator: the leading build op is
    forced to [kind] (so the workload mix is controllable), the op mix
    is restricted as in {!pair}, and the worker count is clamped to
    [1..3] as usual. *)
val session_script :
  seed:int ->
  depth:int ->
  workers:int ->
  kind:Script.kind ->
  fault:Script.fault option ->
  Script.t
