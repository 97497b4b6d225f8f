(** RPC session state, shared by every node of a cluster.

    "A ground thread must declare the beginning and the end of an RPC
    session. The concept of an RPC session is needed to determine the
    period for which the runtime system guarantees to respond to remote
    data references and to maintain the coherency of the cached data"
    (paper, section 3.1).

    {b One session model.} Every open session lives in one registry.
    How a session was opened decides whether it may share the cluster
    with others; no option does:
    - {!begin_session} opens an {e unadmitted} session, which runs
      alone — the paper's single-active-thread model. It is refused
      while any session is open, and while it is open nothing else may
      begin.
    - The admission path ({!reserve}, then {!begin_reserved}) opens an
      {e admitted} session. The admission controller guarantees that
      the footprints of admitted sessions open together do not
      conflict, so several may be open at once.

    [current] designates the {e focused} session — the one the node
    runtimes charge work to. The focus is switched with {!focus} by the
    ground harness before each session step and by every node's
    dispatcher on each incoming frame (requests carry their session id
    on the wire). With one session open, it never moves. *)

open Srpc_memory

type info = {
  id : int;
  ground : Space_id.t;
  admitted : bool;
      (** opened by {!begin_reserved}: it may share nodes with other
          admitted sessions. An unadmitted session owns every node it
          reaches (see {!Node}'s admission notes). *)
  mutable participants : Space_id.Set.t;
  mutable cachers : Space_id.Set.t;
      (** spaces that received a data copy (item or delta-patched) this
          session — the union of every sender's shipping provenance,
          standing in for metadata piggybacked on data transfers. The
          ground's targeted session-end invalidation (delta coherency)
          goes to exactly this set; spaces that cached nothing are
          skipped. *)
}

type t

exception No_active_session
exception Session_already_active

(** Raised at the ground thread when a participant became unreachable
    mid-session and the runtime ran the session abort: the modified data
    set was discarded (never written back), every participant's cache was
    invalidated, and the session is closed. Both nodes remain usable —
    the next session on the same cluster works. *)
exception Session_aborted of { session : int; reason : string }

val create : unit -> t

(** [begin_session t ~ground] opens an unadmitted session rooted at
    [ground] and focuses it.
    @raise Session_already_active if any session is open. *)
val begin_session : t -> ground:Space_id.t -> info

(** [close t] marks the focused session ended (the ground node's runtime
    calls this after write-back and invalidation). *)
val close : t -> unit

val current : t -> info option

(** [reserve t] draws the next session id without opening it — the
    admission controller names queued sessions before they begin. *)
val reserve : t -> int

(** [begin_reserved t ~id ~ground] opens a previously {!reserve}d
    session as admitted and focuses it.
    @raise Session_already_active if an unadmitted session is open, or
    if [id] is already open. *)
val begin_reserved : t -> id:int -> ground:Space_id.t -> info

(** [focus t id] makes the open session [id] the current one.
    @raise No_active_session if [id] is not open. *)
val focus : t -> int -> unit

(** [find t id] is the open session [id]. *)
val find : t -> int -> info option

(** [is_open t id] is [find t id <> None], without allocating. *)
val is_open : t -> int -> bool

(** @raise No_active_session when none is focused. *)
val current_exn : t -> info

(** Whether any session is open. *)
val is_active : t -> bool

(** [join t id] records [id] as a participant of the active session. *)
val join : t -> Space_id.t -> unit

(** [record_casher t id] records that [id] received a copy of some datum
    in the active session (see {!info.cachers}). *)
val record_casher : t -> Space_id.t -> unit
