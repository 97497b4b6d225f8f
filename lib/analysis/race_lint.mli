(** Dynamic happens-before race checker over recorded traces.

    Replays a {!Srpc_simnet.Trace} and checks every datum-granular
    {!Srpc_simnet.Trace.kind.Access} mark against the happens-before
    order induced by delivered frames: each space keeps a vector clock,
    joined on every delivered request and reply (a dropped frame
    induces no edge; a duplicate joins again, harmlessly, because the
    receiver's reply cache absorbs the re-execution).

    Rules (see [docs/RACES.md] for worked examples):

    - [CC101] unordered write-write: two spaces wrote the same datum
      and neither write happens-before the other.
    - [CC102] stale access, two sub-cases: (a) a space touched a cached
      copy installed during an earlier, already-closed session — the
      close-time invalidation never reached it; (b) a session committed
      while a foreign write to some datum was never applied at its home
      (the write-back was lost). A home that crashed during the session
      is exempt from (b): losing its updates is the documented abort
      semantics, not a silent race.
    - [CC103] access to a freed datum's region before any
      reallocation.

    The checker is a pure function of the trace: it never talks to the
    runtime, so committed repro traces can be replayed offline. It
    reads the trace's columns by index, and its spaces are the trace's
    endpoint ordinals. *)

open Srpc_simnet

val check : Trace.t -> Diagnostic.t list

(** [check_events events] is [check (Trace.of_events events)]. *)
val check_events : Trace.event list -> Diagnostic.t list
