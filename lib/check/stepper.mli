(** One admitted session, stepped by a driver: request admission, park
    or back off, run one op at a time, close with validation, start the
    waiters the close admitted. The weave checker and the traffic
    engine's drivers keep only their schedulers and what a denial costs
    them. Only this module calls [Node]'s admission entry points. *)

open Srpc_core

type state =
  | Backoff  (** not admitted: the driver requests again when it chooses *)
  | Parked  (** queued: a later close's {!drain} starts it *)
  | Running  (** open: {!step} runs its next op or its close *)
  | Finished  (** closed, aborted or abandoned *)

(** A session running ops of type ['op], carrying the driver's ['a]. *)
type ('op, 'a) t

(** Waiters a close admitted, in queue order, not yet started. *)
type waiters = (int * Srpc_analysis.Footprint.t) list

type event =
  | Ran  (** one op ran *)
  | Committed of waiters
  | Invalidated of waiters  (** close-time validation failed *)
  | Aborted of string * waiters
      (** [Session_aborted] in an op or the close; the session is
          retired at the controller *)

(** [create ~ground adm ~footprint ~exec journal data] reserves an id on
    [ground] for a session that runs [journal] through [exec]. It starts
    in [Backoff]: nothing is requested yet. *)
val create :
  ground:Node.t ->
  Admission.t ->
  footprint:Srpc_analysis.Footprint.t ->
  exec:('op -> unit) ->
  'op list ->
  'a ->
  ('op, 'a) t

val state : _ t -> state
val id : _ t -> int

(** Denials and sheds so far, across renewals: the backoff ladder. *)
val attempt : _ t -> int

val data : (_, 'a) t -> 'a

(** [renew t] reserves a fresh id, rewinds the journal and leaves [t] in
    [Backoff], for a retry after an abort or a failed validation. *)
val renew : _ t -> unit

(** [request ?peers t]: [Admitted] begins the session, [Queued] parks
    it, and a denial or shed counts an attempt and leaves it in
    [Backoff]. *)
val request : ?peers:string list -> _ t -> Admission.decision

(** [step t] runs a [Running] session's next op, or closes it with
    validation once the journal is done. A close or an abort finishes
    the session and hands back the waiters it admitted: the driver does
    its own bookkeeping for the close, then starts them with {!drain}. *)
val step : _ t -> event

(** [abandon t] retires a session that is neither open nor queued (its
    client gave up): the controller forgets its id. *)
val abandon : _ t -> unit

(** [drain sessions waiters] starts each waiter, found in [sessions] by
    id, and returns them in queue order.
    @raise Invalid_argument if a waiter is not in [sessions]. *)
val drain : ('op, 'a) t list -> waiters -> ('op, 'a) t list
