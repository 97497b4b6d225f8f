(** A simulated distributed system: shared clock, statistics, transport,
    type registry (name server) and session state, plus the nodes. *)

open Srpc_memory
open Srpc_simnet

type t

(** [create ()] builds an empty cluster. [cost] defaults to the paper's
    testbed calibration ({!Cost_model.sparc_10mbps}). Passing [policy]
    shares one adaptive policy engine across every node added later:
    receivers feed it access-pattern observations and senders consult
    its budgets, closing the feedback loop (see {!Srpc_policy.Engine}). *)
val create : ?cost:Cost_model.t -> ?policy:Srpc_policy.Engine.t -> unit -> t

val clock : t -> Clock.t
val stats : t -> Stats.t
val transport : t -> Transport.t
val registry : t -> Srpc_types.Registry.t
val session : t -> Session.t

(** [add_node t ~site ()] creates a node. [proc] defaults to 0, [arch]
    to the paper's SPARC, [strategy] to {!Strategy.smart}. [validate]
    is forwarded to {!Node.create}: when true, the shared registry is
    linted against the node's architecture before the node comes up.
    @raise Invalid_argument if the cluster already has a node at [site]
    and [proc], or if [strategy]'s [delta_coherency] differs from the
    nodes already added: only a delta node keeps the base images that
    a delta write-back patches (docs/DELTA.md). *)
val add_node :
  ?proc:int ->
  ?arch:Arch.t ->
  ?strategy:Strategy.t ->
  ?page_size:int ->
  ?validate:bool ->
  ?retry:Node.retry ->
  ?reply_cache_cap:int ->
  t ->
  site:int ->
  unit ->
  Node.t

(** [validate t] runs the descriptor linter over the shared registry
    against the architectures of every node added so far (defaulting to
    SPARC for an empty cluster), and checks installed closure-shape
    hints against the registry (rule TD007). Call it after registering
    types.
    @raise Srpc_analysis.Desc_lint.Invalid_registry on error findings. *)
val validate : t -> unit

(** [register_type t name desc] publishes a type on the name server. *)
val register_type : t -> string -> Srpc_types.Type_desc.t -> unit

(** Cluster-wide closure-shape hints (paper, section 6: programmer
    suggestions for the closure's shape). *)
val hints : t -> Hints.t

(** [set_closure_hint t ~ty rule] installs a hint for [ty] on every
    node. *)
val set_closure_hint : t -> ty:string -> Hints.rule -> unit

(** Simulated seconds elapsed so far. *)
val now : t -> float

(** [snapshot t] is the current statistics. *)
val snapshot : t -> Stats.snapshot

(** [install_faults t plan] turns fault injection on for the whole
    cluster: every frame's fate is decided by [plan], nodes switch to
    the sequence-numbered retry envelope, and session close becomes the
    all-or-nothing staged write-back (see {!Srpc_simnet.Fault_plan}). *)
val install_faults : t -> Fault_plan.t -> unit

(** [clear_faults t] restores the perfectly reliable transport (and the
    exact pre-fault-layer wire behavior). *)
val clear_faults : t -> unit

val fault_plan : t -> Fault_plan.t option
