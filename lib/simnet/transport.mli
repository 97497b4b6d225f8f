(** Reliable synchronous transport between simulated endpoints.

    RPC sessions have exactly one active thread (paper, section 3.1), so a
    request is delivered by invoking the destination dispatcher
    re-entrantly and handing its reply back; nested RPCs and callbacks are
    nested dispatches. Frames are opaque byte strings: callers encode with
    their own wire format, and the cost model charges for the real encoded
    sizes. *)

type t

(** Endpoints are named by strings (address-space identifiers render
    themselves). *)
type endpoint = string

exception Unknown_endpoint of endpoint

(** A frame (or its reply) was lost by the installed {!Fault_plan} and
    the sender gave up waiting. Only raised when a fault plan is
    installed. *)
exception Timeout of endpoint

(** The named endpoint is crashed in the installed {!Fault_plan}; no
    frame was sent. Only raised when a fault plan is installed. *)
exception Peer_crashed of endpoint

val create : clock:Clock.t -> stats:Stats.t -> cost:Cost_model.t -> t
val clock : t -> Clock.t
val stats : t -> Stats.t
val cost : t -> Cost_model.t

(** [set_link_cost t ~src ~dst cost] overrides the cost model for frames
    from [src] to [dst] (one direction only) — e.g. to put one pair of
    sites behind a WAN link. *)
val set_link_cost : t -> src:endpoint -> dst:endpoint -> Cost_model.t -> unit

val clear_link_cost : t -> src:endpoint -> dst:endpoint -> unit

(** [link_cost t ~src ~dst] is the effective model for that direction. *)
val link_cost : t -> src:endpoint -> dst:endpoint -> Cost_model.t

(** [set_trace t trace] attaches an event recorder; every frame is
    recorded with its simulated send time. [None] detaches. *)
val set_trace : t -> Trace.t option -> unit

(** [traced t] is true when an event recorder is attached — the runtime
    uses it to skip building witness-only marks nobody will read. *)
val traced : t -> bool

(** [set_frame_labeler t (Some f)] installs a frame labeler: when a
    trace is attached, every recorded frame event carries
    [f ~dir frame] as its [label], the frame's opcode. It is called once
    per recorded frame, so it should read the opcode from the frame's
    tag rather than decode the frame (the runtime installs
    [Srpc_core.Wire.frame_label]). Exceptions from [f] degrade to the
    empty label. The labeler is never consulted without a trace. *)
val set_frame_labeler :
  t -> (dir:Trace.direction -> string -> string) option -> unit

(** [set_fault_plan t (Some plan)] turns fault injection on: every
    frame's fate is decided by [plan], and {!rpc} may raise {!Timeout}
    or {!Peer_crashed}. [None] (the default) restores the perfectly
    reliable transport with behavior identical to a build without the
    fault layer. *)
val set_fault_plan : t -> Fault_plan.t option -> unit

val fault_plan : t -> Fault_plan.t option

(** [mark t ~src kind] records a protocol mark (session begin/end,
    write-back or invalidation phase) at the current simulated time, if a
    trace is attached. *)
val mark : t -> src:endpoint -> Trace.kind -> unit

(** [note t ~src ~dst kind] records a zero-byte protocol note naming a
    destination ([Trace.Copy] / [Trace.Inval_sent] provenance for the
    delta-coherency verifier), if a trace is attached. No stats are
    counted and no simulated time passes: notes are witnesses of
    bookkeeping, not traffic. *)
val note : t -> src:endpoint -> dst:endpoint -> Trace.kind -> unit

(** [access t ~src ~session ~home ~addr akind] records the datum-granular
    mark [Trace.Access { session; home; addr; akind }] at the current
    simulated time, if a trace is attached, without building it. *)
val access :
  t ->
  src:endpoint ->
  session:int ->
  home:endpoint ->
  addr:int ->
  Trace.access ->
  unit

(** [crash t ep] marks [ep] dead in the installed fault plan and records
    the [Crash] trace mark (once). Raises [Invalid_argument] when no
    fault plan is installed. *)
val crash : t -> endpoint -> unit

(** [revive t ep] brings a crashed endpoint back and records the
    [Revive] trace mark. Raises [Invalid_argument] when no fault plan is
    installed. *)
val revive : t -> endpoint -> unit

(** [register t ep dispatch] installs [dispatch] as [ep]'s request
    handler. A second registration for the same endpoint replaces the
    first. *)
val register : t -> endpoint -> (endpoint -> string -> string) -> unit

val unregister : t -> endpoint -> unit
val is_registered : t -> endpoint -> bool
val endpoints : t -> endpoint list

(** [rpc t ~src ~dst request] delivers [request] to [dst]'s dispatcher and
    returns its reply, advancing the clock by the frame costs of both
    directions. The dispatcher receives [src] so it can call back.
    @raise Unknown_endpoint if [dst] has no dispatcher.
    @raise Timeout if the installed fault plan lost the request or reply.
    @raise Peer_crashed if the fault plan marks [dst] (or [src]) dead. *)
val rpc : t -> src:endpoint -> dst:endpoint -> string -> string

(** [multicast t ~src ~dsts request] sends [request] to every destination
    in turn, discarding replies (used for the end-of-session invalidation
    multicast). Destinations equal to [src] are skipped. Unreachable
    destinations ([Unknown_endpoint], [Timeout], [Peer_crashed]) do not
    stop the multicast; they are returned with the exception that
    excluded them, in destination order. *)
val multicast :
  t -> src:endpoint -> dsts:endpoint list -> string -> (endpoint * exn) list

(** [charge_fault t] advances the clock by the cost of servicing one page
    fault and counts it. *)
val charge_fault : t -> unit

(** [charge_local_touches t n] advances the clock by the CPU cost of [n]
    in-memory application-level accesses. *)
val charge_local_touches : t -> int -> unit

(** [charge_cpu_bytes t n] advances the clock by the per-byte CPU cost
    for [n] bytes of runtime-side byte crunching that is not wire
    traffic (e.g. twin snapshots and diffs). *)
val charge_cpu_bytes : t -> int -> unit
