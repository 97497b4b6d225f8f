(** Event counters for a simulated world.

    Counters accumulate across a run; experiment harnesses snapshot and
    subtract to attribute traffic to a measured region. A counter set
    and its snapshots are copies of one record; [snapshot] is private,
    so only this module writes a field or builds a record. *)

type t

type snapshot = private {
  mutable messages : int;  (** transport frames sent (requests and replies) *)
  mutable bytes : int;  (** payload bytes over the wire *)
  mutable faults : int;  (** page faults serviced by the runtime *)
  mutable callbacks : int;  (** fetch round-trips issued by the lazy path *)
  mutable writebacks : int;
      (** dirty data items shipped by the coherency protocol *)
  mutable remote_allocs : int;  (** batched remote allocation requests *)
  mutable remote_frees : int;  (** batched remote release requests *)
  mutable prefetched_bytes : int;
      (** in-memory bytes of data installed speculatively by the closure
          engine (eager items the receiver never asked for) *)
  mutable wasted_prefetch_bytes : int;
      (** the subset of [prefetched_bytes] never touched by the program
          before its cache entry was invalidated *)
  mutable stall_ns : int;
      (** simulated nanoseconds the program spent blocked on lazy fetch
          round trips (fault-time callbacks) *)
  mutable retries : int;
      (** request re-sends by the retry envelope after a timeout *)
  mutable timeouts : int;
      (** frames the fault plan lost (sender waited in vain) *)
  mutable duplicates : int;
      (** duplicate requests suppressed by the receiver's reply cache *)
  mutable writeback_bytes : int;
      (** wire bytes of modified-data-set payload (full items and
          deltas), the delta-coherency win's denominator *)
  mutable delta_bytes_saved : int;
      (** wire bytes the delta encoding avoided versus shipping the
          full item for the same entries *)
  mutable full_fallbacks : int;
      (** delta-eligible entries shipped full anyway: stale or missing
          shadow, or the delta would not have been smaller *)
  mutable invalidations_skipped : int;
      (** session participants spared an invalidation message because
          the copy directory showed they cached nothing *)
  mutable sessions_admitted : int;
      (** sessions the admission controller let begin (immediately or
          after queueing) *)
  mutable sessions_queued : int;
      (** admission requests deferred because their footprint conflicted
          with a session already open *)
  mutable sessions_aborted : int;
      (** admission requests denied outright under the abort-and-retry
          policy (the caller backs off and retries) *)
  mutable sessions_retried : int;
      (** previously deferred sessions that were eventually admitted *)
  mutable validations_failed : int;
      (** sessions whose optimistic validation at close detected a
          conflicting foreign write (the loser retries) *)
  mutable heartbeats_sent : int;
      (** liveness probes the failure detector put on the wire *)
  mutable suspicions : int;
      (** peers the failure detector marked suspected after consecutive
          missed heartbeats *)
  mutable sheds : int;
      (** admission requests shed with a typed [Overloaded] rejection
          (conflict queue full or retry budget exhausted) *)
  mutable breaker_trips : int;
      (** admission requests refused because the session would touch a
          suspected- or confirmed-dead peer *)
  mutable recoveries : int;
      (** crash-aborted sessions transparently replayed to completion
          after the dead peer revived *)
  mutable offload_calls : int;
      (** traversal plans shipped to a datum's home ([Offload_call]
          frames issued) *)
  mutable offload_nodes : int;
      (** nodes visited by home-side plan walks (work that stayed off
          the wire) *)
  mutable offload_wset : int;
      (** home-heap data mutated by offloaded update plans (the write
          sets [Offload_return] reported) *)
}

val create : unit -> t
val incr_messages : t -> unit
val add_bytes : t -> int -> unit
val incr_faults : t -> unit
val incr_callbacks : t -> unit
val add_writebacks : t -> int -> unit
val add_remote_allocs : t -> int -> unit
val add_remote_frees : t -> int -> unit
val add_prefetched_bytes : t -> int -> unit
val add_wasted_prefetch_bytes : t -> int -> unit
val add_stall_ns : t -> int -> unit
val incr_retries : t -> unit
val incr_timeouts : t -> unit
val incr_duplicates : t -> unit
val add_writeback_bytes : t -> int -> unit
val add_delta_bytes_saved : t -> int -> unit
val incr_full_fallbacks : t -> unit
val add_invalidations_skipped : t -> int -> unit
val incr_sessions_admitted : t -> unit
val incr_sessions_queued : t -> unit
val incr_sessions_aborted : t -> unit
val incr_sessions_retried : t -> unit
val incr_validations_failed : t -> unit
val incr_heartbeats_sent : t -> unit
val incr_suspicions : t -> unit
val incr_sheds : t -> unit
val incr_breaker_trips : t -> unit
val incr_recoveries : t -> unit
val incr_offload_calls : t -> unit
val add_offload_nodes : t -> int -> unit
val add_offload_wset : t -> int -> unit
val snapshot : t -> snapshot

(** [diff later earlier] is the per-field difference, for attributing
    counts to a region of a run. *)
val diff : snapshot -> snapshot -> snapshot

val zero : snapshot
val pp_snapshot : Format.formatter -> snapshot -> unit
