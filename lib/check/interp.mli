(** The real-cluster interpreter: runs a resolved plan on a simulated
    {!Srpc_core.Cluster} — ground at site 1, one to three workers at
    sites 2.. with their scripted architectures and transfer strategy —
    recording every observation vector, the final observable state, and
    the full wire/protocol trace. *)

open Srpc_core
open Srpc_simnet

(** The architecture pool plans index into ([Script.t.arches]). *)
val arch_table : Srpc_memory.Arch.t array

(** The strategy pool plans index into ([Script.t.strategy] mod its
    length). Indices 6 and 9 use [Twin_diff] grain; 8 and 9 enable
    delta coherency — both refused by admission, so the admission
    harnesses exclude them (see [Node.reserve_session]). *)
val strategy_table : Strategy.t array

(** [register_procs ~ground workers] installs the checker's remote
    procedures on [ground] and every worker. The weave and traffic
    harnesses call it once per ground node. *)
val register_procs : ground:Node.t -> Node.t list -> unit

(** [final_read ground kind ptr] reads an object's observable state
    through the access layer (used for phase A/B verification). *)
val final_read : Node.t -> Script.kind -> Access.ptr -> int list

(** The per-op execution environment. The weave and traffic harnesses
    build their own clusters (several grounds, shared workers) and run
    resolved ops through {!exec_rop} — the very same code path as the
    single-session checker — so the harnesses can never diverge from
    the checker on op semantics. *)
type env = {
  e_cluster : Cluster.t;
  e_ground : Node.t;
  e_workers : Node.t list;
  e_objs : (int, Script.kind * Access.ptr ref) Hashtbl.t;
      (** object id -> (kind, live root pointer) *)
  e_crashed : int list ref;  (** worker indices crashed so far *)
}

val make_env : cluster:Cluster.t -> ground:Node.t -> workers:Node.t list -> env

(** [exec_rop env rop] executes one resolved op on [env]'s cluster from
    [env]'s ground and returns its observation vector. Must run inside
    a session on the ground node (except [RSession]/[RCrash], which
    manage sessions themselves). *)
val exec_rop : env -> Script.rop -> int list

type outcome = {
  obs : int list list;
      (** one vector per *completed* resolved op, in program order; a
          strict prefix of the plan when the session aborted mid-run *)
  final_a : (int * int list) list;
      (** phase A: ground-local reads of every [p_verify_all] object
          inside the final session (empty when the run aborted before
          reaching it) *)
  phase_a_done : bool;
  final_b : (int * int list) list;
      (** phase B: reads of the [p_verify_local] objects after the final
          close committed (empty on abort) *)
  aborted : string option;  (** [Session_aborted] reason, if any *)
  reusable : bool;
      (** after recovery (revive + clear faults), a fresh session could
          ping every worker *)
  trace : Trace.t;  (** feed to {!Srpc_analysis.Proto_lint.check} *)
}

(** [run plan] executes the plan. Aborts are absorbed into the outcome;
    any other exception escapes (and is a harness finding). *)
val run : Script.plan -> outcome
