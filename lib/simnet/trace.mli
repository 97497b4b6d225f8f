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
      (** the space discarded a cached copy, or with [addr =]
          {!every_datum} every copy it held (a cache purge) *)

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
  | Access of { session : int; home : string; addr : int; akind : access }
      (** [src] performed [akind] during session [session] on the datum
          at heap address [addr] of the space whose endpoint is [home],
          printed ["HOME/ADDR"] — the race checker's raw material. The
          runtime passes the endpoint string it already holds, so a mark
          formats and copies nothing. A whole-cache [Acc_drop] names no
          datum: its [addr] is {!every_datum}, its [home] is [""], and
          it prints as ["*"]. *)

(** The [addr] of an [Access] mark that covers every datum its space
    holds rather than one. *)
val every_datum : int

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

(** {1 Recording}

    A trace stores each event as one fixed-width row of unboxed fields
    (kind, time, endpoint and label ordinals, bytes, session,
    address), in fixed-size chunks. Each endpoint and label is interned
    once per trace, as it is first recorded, so a row holds no pointer
    and a long trace gives the collector nothing to scan or promote.

    The columns bound what a trace can hold, and recording past a bound
    raises [Invalid_argument] naming the field, before anything is
    recorded:
    - at most 65,536 distinct endpoints (ordinals are 16 bits);
    - at most 256 distinct labels, [""] included (8 bits);
    - [bytes] in [[0, 4_294_967_295]] (32 bits, unsigned);
    - a session id in [[-2_147_483_648, 2_147_483_647]] (32 bits).

    Times and addresses are stored whole. *)

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

(** [record_kind t ~at ~src ~dst ~kind ~label ~bytes] records an
    arbitrary event — used by the transport for frames, dropped and
    duplicate frames, and protocol notes. *)
val record_kind :
  t ->
  at:float ->
  src:string ->
  dst:string ->
  kind:kind ->
  label:string ->
  bytes:int ->
  unit

(** [mark t ~at ~src kind] records a zero-byte protocol mark. *)
val mark : t -> at:float -> src:string -> kind -> unit

(** [access t ~at ~src ~session ~home ~addr akind] records the mark
    [Access { session; home; addr; akind }] from [src] without building
    it. *)
val access :
  t ->
  at:float ->
  src:string ->
  session:int ->
  home:string ->
  addr:int ->
  access ->
  unit

(** [of_events events] is a fresh trace holding [events], in order. *)
val of_events : event list -> t

(** Events in chronological (= recording) order, rebuilt from the
    rows. *)
val events : t -> event list

val length : t -> int

(** [clear t] forgets every event and interned name, and keeps the
    chunks for the events recorded next. *)
val clear : t -> unit

val access_name : access -> string
val pp_event : Format.formatter -> event -> unit

(** Render the whole trace, one event per line. *)
val pp : Format.formatter -> t -> unit

(** {1 Reading by index}

    A consumer that walks a long trace reads each event's fields by its
    index (0-based, in recording order, below {!length}) and rebuilds
    no record. Endpoints and labels read as this trace's ordinals:
    small ints, numbered from 0 in the order they were first recorded,
    equal exactly when the names are. A field the event's kind does not
    carry reads as documented per accessor. An index out of range
    raises [Invalid_argument]. *)

(** An event's {!kind} without its payload. *)
module Tag : sig
  type t =
    | Message of direction
    | Dropped of direction
    | Dup of direction
    | Session_begin
    | Session_end
    | Session_admit
    | Session_queued
    | Session_shed
    | Write_back
    | Invalidate
    | Session_abort
    | Crash
    | Revive
    | Copy
    | Inval_sent
    | Access of access
end

val tag : t -> int -> Tag.t

(** The source's endpoint ordinal. *)
val src : t -> int -> int

(** The destination's endpoint ordinal; a mark's is its source's. *)
val dst : t -> int -> int

(** An [Access] mark's home, or a [Crash] or [Revive] mark's endpoint,
    as an endpoint ordinal; any other event's source. *)
val home : t -> int -> int

(** The label's ordinal; [""] is 0. *)
val label : t -> int -> int

(** The session a session mark, a [Copy] or [Inval_sent] note or an
    [Access] mark names; 0 for any other event. *)
val session : t -> int -> int

(** An [Access] mark's address; 0 for any other event. *)
val addr : t -> int -> int

(** [event t i] rebuilds event [i]'s record. *)
val event : t -> int -> event

(** The number of endpoints interned: ordinals are below it. *)
val endpoint_count : t -> int

val endpoint : t -> int -> string

(** The number of labels interned: ordinals are below it. *)
val label_count : t -> int

val label_name : t -> int -> string

(** [find_label t name] is [name]'s ordinal, or [-1] when no event
    recorded it ([""] is always 0). *)
val find_label : t -> string -> int
