(** The wire protocol's frame table: each frame's tag, trace label,
    reply and session framing, stated once. [Srpc_core.Wire]'s codec and
    labelers, {!Proto_lint}, {!Race_lint} and the opcode tables of
    [docs/PROTOCOL.md] (held to it by a test) read it. *)

(** Where a frame sits in a session, for the protocol linter. *)
type phase =
  | Heartbeat  (** the failure detector's probe or answer: no session's *)
  | Offload_call  (** a traversal plan shipped to a home (SP010) *)
  | Staged  (** phase one of a staged close *)
  | Commit  (** phase two of a staged close *)
  | Inv_delta  (** a delta write-back carrying the close's invalidation *)
  | Plain

type row = {
  tag : int;  (** the frame's first word *)
  label : string;  (** its trace label *)
  reply : string;  (** the label of a request's reply; [""] on a reply *)
  session : bool;  (** a session id follows the tag *)
  phase : phase;
}

(** [rows dir] lists [dir]'s frames in tag order; the requests hold one
    extra row, {!inv_delta}. *)
val rows : Srpc_simnet.Trace.direction -> row list

(** A [Wb_delta] frame with its [invalidate] flag set: it shares the
    plain [Wb_delta] row's tag. *)
val inv_delta : row

(** [by_tag dir tag] is the row of [dir]'s frame tagged [tag], the plain
    row for [Wb_delta]'s. @raise Not_found when no frame carries [tag]. *)
val by_tag : Srpc_simnet.Trace.direction -> int -> row

(** The label of the remote-exception reply, which answers any request. *)
val error : string

(** [find label] is the row labeled [label]; labels are unique across
    both directions. *)
val find : string -> row option

(** [phases trace] is the phase of each label [trace] interned, by
    ordinal: [Plain] for a label no row carries. *)
val phases : Srpc_simnet.Trace.t -> phase array
