(** Session-protocol verifier: replays a {!Srpc_simnet.Trace} against
    the paper's coherency-protocol invariants (sections 3.1 and 3.4).

    - [SP001] exactly one active thread per session: outstanding
      requests must nest like a stack, every request is issued by the
      current holder of the thread of control, and every reply matches
      the innermost outstanding request
    - [SP002] every request is eventually replied (before session end,
      or at the latest by the end of the trace)
    - [SP003] no wire traffic or protocol mark outside an open session,
      no overlapping or mismatched session begin/end marks
    - [SP004] at session close, the ground space's write-back phase
      precedes the invalidation multicast
    - [SP005] an aborted session ends with an invalidation mark and
      carries no write-back mark — nothing of its modified data set was
      committed
    - [SP006] no frame is sent from or to an endpoint between its crash
      mark and its revive mark
    - [SP007] a session's close-time invalidation covers every space
      that received a data copy during the session
    - [SP008] two sessions concurrently open must never both write the
      same datum root — the admission controller must have queued or
      abort-retried one of them ([Session_queued]) until the other
      closed
    - [SP009] a typed shed is terminal until a fresh admission, and an
      admitted session never sends to a peer that was crashed when it
      began and has not revived (the circuit breaker should have held
      it)
    - [SP010] an offload-call targets a space in the session's touched
      footprint, never a peer crashed since before the session began

    Fault-injected traces stay verifiable: [Dropped] request frames are
    thread-neutral, a [Dropped] reply hands the thread of control back
    to the requester (who retries), and [Dup] frames are the duplicate
    copies the receiver's reply cache absorbs.

    One protocol machine checks every trace, keeping its state per open
    session id. A session whose begin follows a
    {!Srpc_simnet.Trace.kind.Session_admit} mark was opened by the
    admission controller and may be open together with other admitted
    sessions; any other session may not begin while one is open
    (SP003). Requests are
    attributed to the unique open session whose thread of control rests
    at the sender. With one session open this is the paper's
    single-session model. *)

open Srpc_simnet

(** [check trace] replays the whole trace and returns the violations,
    sorted errors-first. An empty list means the trace is a valid
    witness of the protocol. *)
val check : Trace.t -> Diagnostic.t list

(** [check_events events] is {!check} on an explicit event list. *)
val check_events : Trace.event list -> Diagnostic.t list
