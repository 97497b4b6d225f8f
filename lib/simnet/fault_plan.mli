(** Deterministic, seeded fault injection for {!Transport}.

    A fault plan decides the fate of every frame the transport sends:
    delivered, dropped, or delivered twice — plus added latency,
    one-direction partitions, and endpoint crashes. Install one with
    {!Transport.set_fault_plan}; with no plan installed the transport is
    perfectly reliable and behaves exactly as before.

    All randomness comes from one seeded PRNG consumed in frame order,
    so a run with the same seed, workload and plan mutations replays the
    identical fault schedule. *)

type endpoint = string

(** Per-scope fault probabilities and delay. *)
type profile = {
  drop : float;  (** probability a frame is lost, per frame *)
  duplicate : float;  (** probability a delivered frame arrives twice *)
  latency : float;  (** extra seconds added to every frame *)
}

(** [profile ()] is all-zero; override the fields you want. *)
val profile : ?drop:float -> ?duplicate:float -> ?latency:float -> unit -> profile

type t

(** [create ()] builds a plan with no faults configured. [seed] (default
    0) drives the PRNG; [timeout] (default 2 ms simulated) is how long a
    sender waits on a lost frame before {!Transport.rpc} raises
    [Timeout]. *)
val create : ?seed:int -> ?timeout:float -> unit -> t

val timeout : t -> float

(** [set_global t p] applies [p] to every link without its own profile. *)
val set_global : t -> profile -> unit

(** [set_link t ~src ~dst p] overrides the profile for frames from [src]
    to [dst] (one direction only). *)
val set_link : t -> src:endpoint -> dst:endpoint -> profile -> unit

(** One-direction partition: frames from [src] to [dst] are always lost
    until {!heal}. The reverse direction is unaffected. *)
val partition : t -> src:endpoint -> dst:endpoint -> unit

val heal : t -> src:endpoint -> dst:endpoint -> unit
val is_partitioned : t -> src:endpoint -> dst:endpoint -> bool

(** [crash t ep] marks [ep] dead: the transport refuses frames to it
    with [Peer_crashed] until {!revive}. Crashes are permanent unless
    revived. Prefer {!Transport.crash}, which also records the trace
    mark the SP006 verifier keys on. *)
val crash : t -> endpoint -> unit

val revive : t -> endpoint -> unit
val is_crashed : t -> endpoint -> bool

(** [drop_next t n] forces the next [n] frames (any link) to be lost,
    regardless of probabilities — deterministic loss for tests. *)
val drop_next : t -> int -> unit

(** The fate of one frame about to be sent. Consumes PRNG state. *)
type fate = Deliver | Drop | Duplicate

val frame_fate : t -> src:endpoint -> dst:endpoint -> fate

(** Extra latency configured for this direction (does not consume PRNG
    state). *)
val extra_latency : t -> src:endpoint -> dst:endpoint -> float
