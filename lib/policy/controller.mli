(** Adaptive closure-budget controller.

    Consumes a {!Profile.summary} between sessions and revises the
    transfer policy, replacing the paper's hand-tuned [closure_size]:

    - {b Per-type closure budget, AIMD-style.} For each pointed-to type
      the controller weighs the simulated cost of wasted prefetches
      (bytes shipped and converted for nothing, priced through
      {!Srpc_simnet.Cost_model}) against the measured fetch-stall time.
      When waste dominates it multiplicatively shrinks the budget; when
      stalls dominate it grows it — doubling while prefetching has
      produced no waste at all (slow start), additively afterwards.

    - {b Auto-derived closure-shape hints.} Per (parent type, field)
      edge it computes the touch rate of pointed-to children; fields
      whose children are reliably used become [follow] fields, and when
      every other observed field is reliably cold the rest are pruned —
      the machine-written version of the paper's "suggestions provided
      by the programmer" (section 6). Pruned children that the program
      later demands are observed as [Demanded] edges, so a wrong prune
      heals in the next window rather than locking in. *)

type config = {
  initial_budget : int;  (** starting per-type budget, bytes (paper: 8192) *)
  min_budget : int;
  max_budget : int;
  increase_step : int;  (** additive increase, bytes *)
  decrease_factor : float;  (** multiplicative decrease, in (0, 1) *)
  slow_start : bool;  (** double instead of add while waste is zero *)
  cost_bias : float;
      (** hysteresis: one cost side must exceed the other by this factor
          before the budget moves *)
  follow_threshold : float;  (** touch rate at or above which a field is followed *)
  prune_threshold : float;  (** touch rate at or below which a field may be pruned *)
  min_edge_samples : int;  (** observations before an edge is trusted *)
  windows : int;  (** sliding windows aggregated per decision *)
  tolerance : float;
      (** measured path: a probe window within this fraction of the best
          window seen is accepted *)
  min_step : int;
      (** measured path: bracketing step floor, bytes; a failed probe at
          this step freezes the budget *)
}

val default_config : config

(** A machine-derived closure-shape hint for one type, mirroring
    [Srpc_core.Hints.rule] as plain data so this library stays below the
    runtime in the dependency order. *)
type rule = { rule_ty : string; follow : string list; prune_others : bool }

type decision = {
  budgets : (string * int) list;  (** every tracked type's budget, after the step *)
  rules : rule list;  (** hints to install or replace *)
  cleared : string list;  (** types whose machine hint should be removed *)
}

type t

val create : ?config:config -> cost:Srpc_simnet.Cost_model.t -> unit -> t
val config : t -> config

(** [budget_for t ~ty] is the current budget for closures seeded by a
    pointer to [ty]; an unseen type starts at [initial_budget]. *)
val budget_for : t -> ty:string -> int

(** [step t summary] runs one control decision and updates the internal
    budget state.

    Without [seconds] the budgets move purely on the waste/stall cost
    comparison (AIMD). With [seconds] — the measured simulated duration
    of the window just closed — the comparison only picks the opening
    direction and the controller hill-climbs on the measurement itself:
    probes that keep the window time within [tolerance] of the best seen
    are kept (step doubling until the first miss), losing probes are
    reverted with the direction reversed and the step halved, and a
    second miss at [min_step] freezes the budget at the last winner.
    This finds optima the pure comparison cannot: a budget where some
    waste is irreducible (tree closures always ship a few untouched
    subtrees) but any smaller budget pays more in fetch round-trips than
    it saves in wire bytes. A window costing over twice the best resets
    the climb — the workload has changed. *)
val step : ?seconds:float -> t -> Profile.summary -> decision

(** Per-type budgets currently in force, sorted by type name. *)
val budgets : t -> (string * int) list
