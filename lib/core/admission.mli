(** Concurrent-session admission controller.

    Generalizes the paper's one-session-at-a-time safety argument: two
    sessions may be open simultaneously iff their static footprints
    ({!Srpc_analysis.Footprint}) raise no CC-series error under
    [interferes] — then no datum root is written by one while the other
    reads or writes it, so every per-session coherency step (write-back,
    invalidation) stays correct verbatim. One controller instance guards
    a cluster; the ground harness asks it via [Node.request_admission]
    before each session starts.

    Conflicting candidates follow the {!Strategy.admission_policy}:
    FIFO-queued on the contended datum roots (admitted by {!close}'s
    drain once the holders leave, never barging past an older waiter),
    or denied outright for capped-exponential backoff-retry in virtual
    time.

    {b Optimistic validation at close.} Every committed session bumps a
    per-root version counter for the roots it wrote; every admitted
    session snapshots the counters of all roots it touches. {!validate}
    at close detects a conflicting foreign commit (possible only when
    admission was bypassed, e.g. [Node.chaos_admit_conflicting]): the
    loser must abort and retry instead of committing a lost update.

    {b Overload protection.} The conflict queue is bounded
    ([queue_cap]) and each reserved id gets a deferral budget
    ([retry_budget]); exceeding either sheds the request with a typed
    {!decision.Overloaded} instead of queueing unbounded work. When a
    {!Health} detector is supplied, a per-peer circuit breaker refuses
    sessions whose footprint peers are suspected or confirmed dead
    until health observes revival. See docs/ROBUSTNESS.md.

    All outcomes feed the [Stats] admission counters
    ([sessions_admitted], [sessions_queued], [sessions_aborted],
    [sessions_retried], [validations_failed], [sheds],
    [breaker_trips]). See docs/TRAFFIC.md. *)

open Srpc_analysis

type shed =
  | Queue_full  (** the bounded conflict queue is at capacity *)
  | Retry_budget  (** the session's deferral budget is exhausted *)
  | Dead_peer of string
      (** the circuit breaker holds: this footprint peer is suspected
          or confirmed dead *)

type decision =
  | Admitted  (** footprint disjoint from every open session: go *)
  | Queued  (** FIFO-queued; {!close}'s drain will admit it later *)
  | Denied  (** abort-retry policy: back off and re-request *)
  | Overloaded of shed
      (** typed rejection: shed now, terminal for this attempt (a later
          retry needs a fresh request; rule SP009 checks sheds are never
          silently followed by a session begin) *)

type t

(** [queue_cap] bounds the conflict FIFO (default unbounded);
    [retry_budget] bounds deferrals per reserved session id (default
    unbounded); [health] arms the circuit breaker. *)
val create :
  ?policy:Strategy.admission_policy ->
  ?queue_cap:int ->
  ?retry_budget:int ->
  ?health:Health.t ->
  Srpc_simnet.Stats.t ->
  t

(** [request t ~session fp] decides admission for [session] with
    footprint [fp]. [?force] bypasses the conflict check (the
    [chaos_admit_conflicting] mutation hook) — the session is recorded
    as open so close-time validation still runs. [?peers] names the
    endpoints the session will exchange frames with; with a [health]
    detector installed, any suspected- or confirmed-dead peer trips the
    breaker ([Overloaded (Dead_peer ep)]). *)
val request :
  ?force:bool -> ?peers:string list -> t -> session:int -> Footprint.t ->
  decision

(** [close t ~session] retires a session — [~committed:false] for
    aborts (its writes bump no root versions) and for sessions given up
    before admission — forgets its deferrals, and drains the FIFO:
    returns the waiters admitted now, in queue order, already recorded
    as open. The caller begins them (emitting their admit marks). *)
val close : ?committed:bool -> t -> session:int -> (int * Footprint.t) list

(** [validate t ~session] is false iff some datum root in the session's
    admission-time snapshot was committed by another session since. *)
val validate : t -> session:int -> bool

(** Record a validation failure in [Stats] (the caller then aborts the
    session and retries it under a fresh id). *)
val fail_validation : t -> unit

val open_count : t -> int
val queue_length : t -> int

(** [backoff_delay ~session ~attempt ~base] is the capped exponential
    retry delay (virtual seconds) with deterministic seeded jitter:
    [base * 2^min(attempt, 6) * j] where [j] is in [\[0.5, 1.5)],
    drawn by splitmix64 from [(session, attempt)] — sessions denied at
    the same instant spread out instead of re-colliding in lockstep,
    and every delay is exactly reproducible. *)
val backoff_delay : session:int -> attempt:int -> base:float -> float
