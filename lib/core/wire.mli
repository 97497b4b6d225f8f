(** Runtime wire protocol.

    Every frame is XDR-encoded; byte counts the cost model charges come
    from these real encodings. Pointer-valued arguments travel as long
    pointers ({!wvalue}); transferred data travels as {!item}s — a long
    pointer naming the datum plus its canonical (type-directed XDR)
    encoding. *)

type wvalue =
  | WUnit
  | WBool of bool
  | WInt of int64
  | WFloat of float
  | WStr of string
  | WPtr of Long_pointer.t option  (** unswizzled pointer; [None] = null *)
  | WFun of Value.funref  (** named-procedure reference *)

type item = { lp : Long_pointer.t; data : string }

type range = { off : int; bytes : string }
(** one changed byte range of a datum's canonical encoding *)

type delta = { dlp : Long_pointer.t; base_len : int; ranges : range list }
(** delta-coherency write-back: patch [ranges] onto the [base_len]-byte
    image the receiver holds for [dlp]. Decoding validates the ranges —
    ascending, non-empty, non-overlapping, inside [base_len] — and
    raises [Xdr.Decode_error] otherwise, so a corrupt frame can never
    drive an out-of-bounds patch. *)

type request =
  | Call of {
      session : int;
      proc : string;
      args : wvalue list;
      writebacks : item list;  (** the traveling modified data set *)
      eager : item list;  (** bounded closure of the pointer arguments *)
    }
  | Fetch of { session : int; wanted : Long_pointer.t list }
      (** lazy path: first touch of a protected page requests all the
          data allocated to it *)
  | Write_back of { session : int; items : item list }
      (** end-of-session write-back to the origin space *)
  | Alloc_batch of { session : int; reqs : (int * string) list }
      (** batched [extended_malloc]: (provisional id, type name) *)
  | Free_batch of { session : int; lps : Long_pointer.t list }
      (** batched [extended_free] *)
  | Invalidate of { session : int }
      (** end-of-session multicast: drop all cached data *)
  | Abort of { session : int }
      (** crash-recovery: discard everything the session touched; the
          modified data set is never applied *)
  | Wb_stage of { session : int; items : item list }
      (** all-or-nothing close, phase one: buffer these write-back items
          at the origin without applying them *)
  | Wb_commit of { session : int }
      (** all-or-nothing close, phase two: apply everything staged for
          this session *)
  | Wb_delta of {
      session : int;
      full : item list;
      deltas : delta list;
      frees : Long_pointer.t list;
      invalidate : bool;
    }
      (** delta-coherency close frame, batched per destination: full
          write-back items (delta fallback), byte-range deltas, pending
          frees homed at the receiver, and — when [invalidate] — the
          targeted invalidation, all coalesced into one message *)
  | Wb_stage_delta of { session : int; deltas : delta list }
      (** delta twin of [Wb_stage]: buffer deltas at the origin without
          patching them; applied by [Wb_commit] *)
  | Call_d of {
      session : int;
      proc : string;
      args : wvalue list;
      writebacks : item list;
      wb_deltas : delta list;
      eager : item list;
      frees : Long_pointer.t list;
    }
      (** delta twin of [Call]: callee-homed modified data travels as
          byte-range deltas and pending frees homed at the callee ride
          in the same frame. Pending allocations can NOT ride along:
          provisional pointers must never appear on the wire, so the
          [Alloc_batch] round-trip still precedes the call (see
          docs/DELTA.md). *)
  | Hb
      (** liveness probe from the failure detector ({!Health}); answered
          with [Hb_ack]. Carries no session: the protocol linter exempts
          heartbeat frames from session attribution. *)
  | Offload_call of {
      session : int;
      root : Long_pointer.t;
      plan : Offload.plan;
      writebacks : item list;
    }
      (** traversal offloading: instead of faulting the structure over,
          ship a bounded declarative {!Offload.plan} to [root]'s home,
          which walks its own heap and returns only the result. The
          caller's traveling modified data set rides along (as with
          [Call]) so the walk sees the session's latest writes. The plan
          is validated at decode time ({!Offload.validate}); a malformed
          plan is a typed decode error, never a runaway walk. *)

type response =
  | Return of { results : wvalue list; writebacks : item list; eager : item list }
  | Fetched of { items : item list }
  | Allocated of { addrs : (int * int) list }  (** provisional id, real address *)
  | Ack
  | Error of string  (** remote exception, re-raised at the caller *)
  | Return_d of {
      results : wvalue list;
      writebacks : item list;
      wb_deltas : delta list;
      eager : item list;
      frees : Long_pointer.t list;
    }
      (** reply to [Call_d]: the callee's control transfer back, with
          the same delta treatment and coalesced frees *)
  | Hb_ack
      (** reply to {!request.Hb}: distinct from [Ack] so heartbeat
          exchanges are identifiable by frame label alone *)
  | Offload_return of {
      results : int list;
      writebacks : item list;
      wset : Long_pointer.t list;
    }
      (** reply to [Offload_call]: the plan's result vector, the home's
          traveling modified data relevant to the caller, and the write
          set of nodes an update plan mutated (for coherency and
          footprint accounting) *)

val encode_request : reg:Srpc_types.Registry.t -> request -> string
val decode_request : reg:Srpc_types.Registry.t -> string -> request

(** [encode_framed ~reg ~seq r] wraps [r] in the retry envelope: a
    sequence number the receiver uses to suppress duplicate deliveries.
    The encoding is distinguishable from a bare request, so enveloped
    and plain frames can share a dispatcher. *)
val encode_framed : reg:Srpc_types.Registry.t -> seq:int -> request -> string

(** [decode_framed ~reg s] decodes either framing: [(Some seq, r)] for
    an enveloped frame, [(None, r)] for a bare one. *)
val decode_framed :
  reg:Srpc_types.Registry.t -> string -> int option * request

(** The session id a request carries; [-1] for [Hb], which has none. *)
val request_session : request -> int

(** A frame's label in {!Srpc_analysis.Frames}: a [Wb_delta] carrying
    the targeted invalidation is ["wb-delta+inv"]. *)
val request_label : request -> string

val response_label : response -> string

(** [frame_label ~dir frame] is the label of the encoded request (bare
    or enveloped) or response [frame], read from its tag words without
    decoding the body: [request_label] or [response_label] of what it
    decodes to, for any frame the encoders produce.
    @raise Xdr.Decode_error on a tag no frame carries. *)
val frame_label : dir:Srpc_simnet.Trace.direction -> string -> string

val encode_response : reg:Srpc_types.Registry.t -> response -> string
val decode_response : reg:Srpc_types.Registry.t -> string -> response
