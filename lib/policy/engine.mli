(** The adaptive-policy engine: one {!Profile} plus one {!Controller},
    shared by every node of a simulated cluster the way the hint table
    is. The runtime feeds profile events as data moves and faults; the
    ground node calls {!session_end} when a session closes, which rolls
    the profile window and runs one controller step. The closure engine
    consults {!budget_for} instead of the static strategy budget. *)

type t

(** [create ()] builds an engine. [cost] defaults to the paper-testbed
    calibration ({!Srpc_simnet.Cost_model.sparc_10mbps}) and must match
    the cluster's cost model for the waste/stall comparison to be
    meaningful. *)
val create :
  ?config:Controller.config -> ?cost:Srpc_simnet.Cost_model.t -> unit -> t

val profile : t -> Profile.t

(** Current closure budget (bytes) for transfers seeded by a pointer to
    [ty]. *)
val budget_for : t -> ty:string -> int

(** [session_end t] closes the profile window and runs one controller
    step; the caller applies the returned hint rules to its hint table.
    [seconds] — the session's measured (simulated) duration — switches
    the controller to its hill-climbing mode (see {!Controller.step}). *)
val session_end : ?seconds:float -> t -> Controller.decision

(** Per-type budgets currently in force. *)
val budgets : t -> (string * int) list

(** {1 Traversal offloading}

    A deterministic per-root-type two-arm learner for the third transfer
    mode (see docs/OFFLOAD.md): each arm holds an EMA of the measured
    simulated seconds a traversal plan took when run locally vs shipped
    to the root's home. While either arm is under-sampled the decision
    alternates (local first); afterwards the cheaper arm is exploited,
    with a fixed-period re-exploration of the loser. *)

(** [choose_offload t ~ty] — should the next plan rooted at [ty] be
    offloaded? Counts as a decision (advances the exploration
    schedule). *)
val choose_offload : t -> ty:string -> bool

(** [offload_feedback t ~ty ~offloaded ~seconds] reports the measured
    duration of a plan run back to the arm that produced it. *)
val offload_feedback : t -> ty:string -> offloaded:bool -> seconds:float -> unit

(** [offload_choice t ~ty] — the current exploitation verdict:
    ["offload"], ["local"], or ["unsampled"] while either arm lacks
    samples. Read-only (no decision is recorded). *)
val offload_choice : t -> ty:string -> string
