(** Deterministic virtual-time failure detector.

    Watched peers are probed with {!Wire.request.Hb} liveness frames
    over the ordinary {!Srpc_simnet.Transport}; consecutive missed
    probes (timeouts or crashed-peer errors) escalate a peer from
    [Alive] to [Suspected] (after [suspect_after] misses) to [Dead]
    (after [confirm_after]), and the first answered probe drops it back
    to [Alive], recording a revival. The admission controller's circuit
    breaker consults {!available} to refuse sessions that would touch a
    suspected- or confirmed-dead peer (see docs/ROBUSTNESS.md).

    All probing runs on the simulated clock against the seeded fault
    plan, so detection is exactly reproducible; with no detector
    constructed, no heartbeat frames exist and wire behavior is
    byte-identical to a health-free cluster. *)

type state = Alive | Suspected | Dead

type t

(** [create ~src ~registry ~stats transport] builds a detector probing
    from endpoint [src]. [suspect_after] (default 2) and
    [confirm_after] (default 4) are the consecutive-miss thresholds for
    suspicion and confirmed death.
    @raise Invalid_argument
      unless [1 <= suspect_after <= confirm_after]. *)
val create :
  ?suspect_after:int ->
  ?confirm_after:int ->
  src:string ->
  registry:Srpc_types.Registry.t ->
  stats:Srpc_simnet.Stats.t ->
  Srpc_simnet.Transport.t ->
  t

(** Add [ep] to the watched set (idempotent; peers are also watched
    implicitly by the first query or probe naming them). *)
val watch : t -> string -> unit

val state : t -> string -> state

(** Times the peer came back from [Suspected]/[Dead] to [Alive]. *)
val revivals : t -> string -> int

(** The circuit-breaker predicate: true iff the peer is [Alive]. *)
val available : t -> string -> bool

(** [probe t ep] sends one heartbeat and returns the peer's new state.
    Counts into [Stats.heartbeats_sent]; a first suspicion counts into
    [Stats.suspicions]. *)
val probe : t -> string -> state

(** [observe t trace ~from] folds the ground-truth
    {!Srpc_simnet.Trace.kind.Crash}/[Revive] marks recorded since event
    index [from] into the detector — planned chaos is reflected without
    waiting out a probe cycle (a revive mark triggers a confirming
    probe). Returns the new cursor. *)
val observe : t -> Srpc_simnet.Trace.t -> from:int -> int
