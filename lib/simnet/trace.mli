(** Wire- and protocol-event recorder.

    Attach a trace to a {!Transport} to capture every frame with its
    simulated send time — the raw material for debugging protocols,
    asserting message sequences in tests, and rendering timelines.

    Beyond raw frames the runtime also records protocol {e marks} —
    session begin/end, the session-close write-back / invalidation
    phases, and datum-granular {!kind.Access} marks — so a trace is a
    complete witness of the session coherency protocol that
    [Srpc_analysis.Proto_lint] and [Srpc_analysis.Race_lint] can verify
    offline. *)

type direction = Request | Reply

(** What a space did to a datum — the dynamic access alphabet consumed
    by the happens-before checker (rules CC101–CC103). *)
type access =
  | Acc_read  (** a cached (or home) read through an accessor *)
  | Acc_write  (** a cached (or home) write through an accessor *)
  | Acc_serve  (** the home shipped the datum to a peer (fetch/closure) *)
  | Acc_apply  (** the home applied a write-back (full or delta) *)
  | Acc_install  (** a peer installed a shipped copy in its cache *)
  | Acc_free  (** the home released the datum's region *)
  | Acc_alloc  (** the home carved a fresh datum out of its heap *)
  | Acc_drop
      (** the space discarded all session state (cache purge);
          [datum] is ["*"] *)

type kind =
  | Message of direction  (** a wire frame *)
  | Dropped of direction  (** a frame lost by the fault plan *)
  | Dup of direction  (** the duplicate copy of a frame delivered twice *)
  | Session_begin of int  (** a ground thread opened session [id] *)
  | Session_end of int  (** session [id] closed *)
  | Session_admit of int
      (** the admission controller licensed session [id] to open
          concurrently with the sessions already running — emitted just
          before its [Session_begin] when concurrent admission is on
          (rules SP003/SP008) *)
  | Session_queued of int
      (** the admission controller deferred session [id] because its
          footprint conflicted with an open session: FIFO-queued or
          denied for backoff-retry depending on policy (rule SP008) *)
  | Session_shed of int
      (** the admission controller refused session [id] with a typed
          rejection — conflict queue full, retry budget exhausted, or
          the circuit breaker held because a footprint peer is
          suspected dead. Terminal for the attempt: a later
          [Session_begin] for [id] requires a fresh [Session_admit]
          (rule SP009) *)
  | Write_back of int
      (** the ground space started the session-close write-back phase *)
  | Invalidate of int
      (** the ground space started the invalidation multicast *)
  | Session_abort of int
      (** the ground space aborted session [id]: modified data discarded *)
  | Crash of string  (** endpoint [ep] died; no frames from/to it after *)
  | Revive of string  (** endpoint [ep] came back *)
  | Copy of int
      (** provenance note: [src] shipped cached copies of its data to
          [dst] during session [id] — what the close-time invalidation
          must cover (rule SP007) *)
  | Inval_sent of int
      (** provenance note: [src] sent (or attempted) an invalidation to
          [dst] at the close of session [id] *)
  | Access of { session : int; datum : string; akind : access }
      (** [src] performed [akind] on [datum] (rendered ["HOME/ADDR"])
          during session [session] — the race checker's raw material *)

type event = {
  at : float;  (** simulated time, seconds *)
  src : string;
  dst : string;  (** for marks, [dst = src] *)
  kind : kind;
  bytes : int;  (** 0 for marks *)
  label : string;
      (** frame opcode (e.g. ["call-d"], ["wb-delta"]) when the
          transport has a frame labeler installed; [""] otherwise *)
}

type t

val create : unit -> t

(** [record t ~at ~src ~dst ~dir ~bytes] records a wire frame. *)
val record :
  ?label:string ->
  t ->
  at:float ->
  src:string ->
  dst:string ->
  dir:direction ->
  bytes:int ->
  unit

(** [record_kind t ~at ~src ~dst ~kind ~bytes] records an arbitrary
    event — used by the fault layer for dropped and duplicate frames. *)
val record_kind :
  ?label:string ->
  t ->
  at:float ->
  src:string ->
  dst:string ->
  kind:kind ->
  bytes:int ->
  unit

(** [mark t ~at ~src kind] records a zero-byte protocol mark. *)
val mark : t -> at:float -> src:string -> kind -> unit

(** Events in chronological (= recording) order. *)
val events : t -> event list

val length : t -> int

(** [since t n] is the events after the first [n], in chronological
    order: [events t] without its first [n]. It walks only those
    events, so a consumer that keeps a cursor pays for what is new. *)
val since : t -> int -> event list

val clear : t -> unit

(** [between t ~src ~dst] counts request frames from [src] to [dst]. *)
val between : t -> src:string -> dst:string -> int

val access_name : access -> string
val pp_kind : Format.formatter -> kind -> unit
val pp_event : Format.formatter -> event -> unit

(** Render the whole trace, one event per line. *)
val pp : Format.formatter -> t -> unit
