open Srpc_simnet

(* The verifier replays a trace against the paper's session model
   (section 3.1): one ground thread opens a session; the single thread
   of control moves with each request and returns with each reply, so
   outstanding requests form a stack; the session close performs the
   ground space's write-back before the invalidation multicast.

   One machine checks every trace, keeping that state per open session.
   A session that begins under a [Session_admit] mark was opened by the
   admission controller and may overlap other admitted sessions; any
   other session may not begin while one is open. Frames do not carry
   session ids in the trace, so a request is attributed to the unique
   open session whose thread of control rests at the sender — sound
   because the simulated interleaving is op-atomic (frames of different
   sessions never interleave inside one nested call chain). With one
   session open this is exactly the single-session model.

   SP008 is the overlap safety rule: two sessions that are open at the
   same time must never both write the same datum root. A correct
   admission controller prevents this by queueing or aborting-for-retry
   the conflicting session ([Session_queued]) until the holder closes,
   so a violation witnesses a mis-admission. *)

type sess = {
  id : int;
  ground : string;
  admitted : bool;  (* began under a Session_admit mark *)
  mutable holder : string;  (* endpoint currently holding the thread *)
  mutable stack : (string * string * string) list;
      (* outstanding (src, dst, request label) *)
  mutable wb_seen : bool;  (* write-back phase started *)
  mutable inv_seen : bool;  (* invalidation multicast started *)
  mutable aborted : bool;  (* the session carries an abort mark *)
  copy_dsts : (string, unit) Hashtbl.t;
      (* endpoints that received a data copy (Copy notes) *)
  inval_dsts : (string, unit) Hashtbl.t;
      (* endpoints the ground sent (or attempted) an invalidation to *)
  writes : (string, unit) Hashtbl.t;  (* datum roots written so far *)
  touched : (string, unit) Hashtbl.t;
      (* spaces whose data the session's footprint covers, harvested
         from the space prefix of its Access datums ("space/addr") —
         the set an offload-call may legitimately target (SP010) *)
  dead_at_begin : (string, unit) Hashtbl.t;
      (* endpoints already past their crash mark when the session
         began *)
}

type state = {
  opened : (int, sess) Hashtbl.t;
  admit_marks : (int, unit) Hashtbl.t;  (* ids carrying a Session_admit mark *)
  shed : (int, unit) Hashtbl.t;
      (* ids whose latest admission outcome was a typed shed: terminal
         until a fresh Session_admit (SP009) *)
  crashed : (string, unit) Hashtbl.t;  (* endpoints past their crash mark *)
  mutable out : Diagnostic.t list;
}

(* The home-space prefix of a datum rendered "space/addr"; wildcard
   footprints ("*") and malformed datums carry no space. *)
let datum_space datum =
  match String.index_opt datum '/' with
  | Some i when i > 0 -> Some (String.sub datum 0 i)
  | _ -> None

let emit ?(space = "") st idx rule_id message =
  st.out <-
    Diagnostic.make ~space ~severity:Error ~rule_id
      ~path:(Printf.sprintf "event[%d]" idx)
      message
    :: st.out

(* The reply opcode each request opcode must be answered with, when
   frame labels are present ("" = an unlabeled trace, checked only for
   the reply's existence). [Error] replies pair with anything. *)
let expected_reply = function
  | "call" -> Some "return"
  | "call-d" -> Some "return-d"
  | "offload-call" -> Some "offload-return"
  | "fetch" -> Some "fetched"
  | "alloc-batch" -> Some "allocated"
  | "write-back" | "free-batch" | "invalidate" | "abort" | "wb-stage"
  | "wb-commit" | "wb-delta" | "wb-delta+inv" | "wb-stage-delta" ->
    Some "ack"
  | _ -> None

let check_pairing st idx ~rq_lbl ~rep_lbl =
  if not (String.equal rep_lbl "error") then
    match expected_reply rq_lbl with
    | Some want
      when not (String.equal rep_lbl "") && not (String.equal rep_lbl want) ->
      emit st idx "SP002"
        (Printf.sprintf "%s request answered by %s, expected %s" rq_lbl rep_lbl
           want)
    | Some _ | None -> ()

(* Frame-level close ordering (the delta-era SP004): a [Wb_delta] frame
   carrying the targeted invalidation belongs to the invalidation phase
   and must not precede the write-back mark; staged frames belong to
   phase one and must precede the commit point; a commit frame must
   follow it. *)
let check_close_order st idx ~space s lbl =
  match lbl with
  | "wb-delta+inv" when not s.wb_seen ->
    emit ~space st idx "SP004"
      "invalidate-carrying delta frame before the write-back phase started"
  | ("wb-stage" | "wb-stage-delta") when s.wb_seen ->
    emit ~space st idx "SP004"
      (lbl ^ " frame after the commit point: staged data can no longer be atomic")
  | "wb-commit" when not s.wb_seen ->
    emit ~space st idx "SP004"
      "commit frame before the commit-point write-back mark"
  | _ -> ()

let pp_ev e = Format.asprintf "%a" Trace.pp_event e

(* Heartbeat exchanges belong to the failure detector, not to any
   session: they are exempt from session attribution, thread-of-control
   and pairing checks. A live trace only ever carries them between live
   endpoints (the transport raises before recording a frame that names a
   crashed peer). *)
let is_hb_label lbl = String.equal lbl "hb" || String.equal lbl "hb-ack"

(* SP006: a crashed endpoint neither sends nor receives — any frame
   naming it between its crash and revive marks is a violation. *)
let check_crashed st idx (e : Trace.event) =
  let bad ep =
    if Hashtbl.mem st.crashed ep then
      emit ~space:ep st idx "SP006"
        (Printf.sprintf "frame involves crashed endpoint %s: %s" ep (pp_ev e))
  in
  bad e.Trace.src;
  if not (String.equal e.Trace.dst e.Trace.src) then bad e.Trace.dst

(* SP003: a frame — delivered, dropped or duplicated — while no session
   is open. *)
let check_some_open st idx (e : Trace.event) =
  if Hashtbl.length st.opened = 0 then
    emit ~space:e.Trace.src st idx "SP003"
      ("traffic outside an open session: " ^ pp_ev e)

(* The open session whose thread of control rests at [ep], if unique. *)
let holder_session st ep =
  Hashtbl.fold
    (fun _ s acc -> if String.equal s.holder ep then s :: acc else acc)
    st.opened []
  |> function
  | [ s ] -> Some s
  | _ -> None

let find_sess st idx id what =
  match Hashtbl.find_opt st.opened id with
  | Some s -> Some s
  | None ->
    emit st idx "SP003"
      (Printf.sprintf "%s names session #%d, which is not open" what id);
    None

let close_sess st idx s =
  List.iter
    (fun (src, dst, _) ->
      emit ~space:src st idx "SP002"
        (Printf.sprintf "request %s -> %s never replied before session end" src
           dst))
    s.stack;
  if s.aborted then begin
    if s.wb_seen then
      emit ~space:s.ground st idx "SP005"
        (Printf.sprintf "aborted session #%d has a write-back mark" s.id);
    if not s.inv_seen then
      emit ~space:s.ground st idx "SP005"
        (Printf.sprintf "aborted session #%d ended without invalidation" s.id)
  end;
  (* SP007 applies only to sessions that recorded copy provenance
     (delta-coherency senders emit Copy notes); an aborted session
     invalidates by other means (the Abort frame) and is exempt. *)
  if (not s.aborted) && Hashtbl.length s.copy_dsts > 0 then begin
    let missed =
      Hashtbl.fold
        (fun dst () acc ->
          if Hashtbl.mem s.inval_dsts dst then acc else dst :: acc)
        s.copy_dsts []
    in
    List.iter
      (fun dst ->
        emit ~space:s.ground st idx "SP007"
          (Printf.sprintf
             "session #%d ends without invalidating %s, which received a data \
              copy"
             s.id dst))
      (List.sort String.compare missed)
  end;
  Hashtbl.remove st.opened s.id

let begin_sess st idx (e : Trace.event) id =
  if Hashtbl.mem st.opened id then
    emit st idx "SP003"
      (Printf.sprintf "session #%d begins but is already open" id)
  else begin
    if Hashtbl.mem st.shed id then
      emit st idx "SP009"
        (Printf.sprintf
           "session #%d begins after being shed: a typed rejection is \
            terminal until a fresh admission"
           id);
    let admitted = Hashtbl.mem st.admit_marks id in
    (if not admitted then
       match Hashtbl.fold (fun k _ _ -> Some k) st.opened None with
       | Some open_id ->
         emit st idx "SP003"
           (Printf.sprintf
              "session #%d begins while #%d is still open (no admission mark)"
              id open_id)
       | None -> ());
    let dead = Hashtbl.create 4 in
    Hashtbl.iter (fun ep () -> Hashtbl.replace dead ep ()) st.crashed;
    let touched = Hashtbl.create 8 in
    (* the ground space's own heap is always in the footprint *)
    Hashtbl.replace touched e.Trace.src ();
    Hashtbl.replace st.opened id
      {
        id;
        ground = e.Trace.src;
        admitted;
        holder = e.Trace.src;
        stack = [];
        wb_seen = false;
        inv_seen = false;
        aborted = false;
        copy_dsts = Hashtbl.create 4;
        inval_dsts = Hashtbl.create 4;
        writes = Hashtbl.create 8;
        touched;
        dead_at_begin = dead;
      }
  end

let request st idx (e : Trace.event) =
  check_crashed st idx e;
  match holder_session st e.Trace.src with
  | None ->
    check_some_open st idx e;
    if Hashtbl.length st.opened > 0 then
      emit ~space:e.Trace.src st idx "SP001"
        (Printf.sprintf
           "request from %s, which holds no open session's thread of control"
           e.Trace.src)
  | Some s ->
    let dead_since_begin =
      Hashtbl.mem s.dead_at_begin e.Trace.dst && Hashtbl.mem st.crashed e.Trace.dst
    in
    (* SP009 (breaker): an admitted session targets a peer that was
       already crashed when it began and has not revived since —
       admission should have refused it. A mid-session crash is SP006's
       territory, not a breaker failure. *)
    if s.admitted && dead_since_begin then
      emit ~space:e.Trace.dst st idx "SP009"
        (Printf.sprintf
           "session #%d targets %s, which was crashed when the session \
            began: the circuit breaker must hold until revival"
           s.id e.Trace.dst);
    (* SP010: a traversal plan may only be shipped to a space whose data
       the session has already touched (the client marks the root datum
       before framing the call), and never to a peer that was dead
       before the session began and has not revived. *)
    if String.equal e.Trace.label "offload-call" then begin
      if dead_since_begin then
        emit ~space:e.Trace.dst st idx "SP010"
          (Printf.sprintf
             "session #%d offload-call targets %s, which was crashed when \
              the session began"
             s.id e.Trace.dst)
      else if
        (not (String.equal e.Trace.dst s.ground))
        && not (Hashtbl.mem s.touched e.Trace.dst)
      then
        emit ~space:e.Trace.dst st idx "SP010"
          (Printf.sprintf
             "session #%d offload-call into %s but the session holds no \
              footprint there (no datum of that space was touched)"
             s.id e.Trace.dst)
    end;
    check_close_order st idx ~space:e.Trace.src s e.Trace.label;
    s.stack <- (e.Trace.src, e.Trace.dst, e.Trace.label) :: s.stack;
    s.holder <- e.Trace.dst

let reply st idx (e : Trace.event) =
  check_crashed st idx e;
  match holder_session st e.Trace.src with
  | None ->
    check_some_open st idx e;
    if Hashtbl.length st.opened > 0 then
      emit ~space:e.Trace.src st idx "SP001"
        ("reply with no outstanding request: " ^ pp_ev e)
  | Some s -> (
    match s.stack with
    | [] ->
      emit ~space:e.Trace.src st idx "SP001"
        ("reply with no outstanding request: " ^ pp_ev e)
    | (rq_src, rq_dst, rq_lbl) :: rest ->
      if String.equal e.Trace.src rq_dst && String.equal e.Trace.dst rq_src
      then begin
        check_pairing st idx ~rq_lbl ~rep_lbl:e.Trace.label;
        s.stack <- rest;
        s.holder <- rq_src
      end
      else
        emit ~space:e.Trace.src st idx "SP001"
          (Printf.sprintf
             "reply %s -> %s does not match the innermost request %s -> %s"
             e.Trace.src e.Trace.dst rq_src rq_dst))

let step st idx (e : Trace.event) =
  match e.Trace.kind with
  | (Trace.Message _ | Trace.Dropped _ | Trace.Dup _)
    when is_hb_label e.Trace.label ->
    ()
  | Trace.Session_admit id ->
    Hashtbl.replace st.admit_marks id ();
    Hashtbl.remove st.shed id
  | Trace.Session_queued _ ->
    (* a deferral: the session is not open, nothing to track — its later
       admission carries its own Session_admit mark *)
    ()
  | Trace.Session_shed id ->
    (* the typed rejection: terminal for this attempt. A shed of an open
       session is nonsense — the controller refused something it had
       already admitted. *)
    if Hashtbl.mem st.opened id then
      emit st idx "SP009" (Printf.sprintf "session #%d shed while it is open" id);
    Hashtbl.replace st.shed id ();
    Hashtbl.remove st.admit_marks id
  | Trace.Session_begin id -> begin_sess st idx e id
  | Trace.Session_end id ->
    Option.iter (close_sess st idx) (find_sess st idx id "session end")
  | Trace.Message Trace.Request -> request st idx e
  | Trace.Message Trace.Reply -> reply st idx e
  | Trace.Write_back id -> (
    match find_sess st idx id "write-back mark" with
    | None -> ()
    | Some s ->
      if s.inv_seen then
        emit ~space:s.ground st idx "SP004"
          "write-back phase after the invalidation multicast already started";
      if s.aborted then
        emit ~space:s.ground st idx "SP005"
          "write-back phase after the session was aborted";
      s.wb_seen <- true)
  | Trace.Invalidate id -> (
    match find_sess st idx id "invalidation mark" with
    | None -> ()
    | Some s ->
      if (not s.wb_seen) && not s.aborted then
        emit ~space:s.ground st idx "SP004"
          "invalidation multicast not preceded by the ground space's write-back";
      s.inv_seen <- true)
  | Trace.Session_abort id -> (
    match find_sess st idx id "abort mark" with
    | None -> ()
    | Some s ->
      if s.wb_seen then
        emit ~space:s.ground st idx "SP005"
          (Printf.sprintf "session #%d aborted after its write-back began" id);
      s.aborted <- true)
  | Trace.Dropped Trace.Request ->
    (* a lost request never moved the thread of control *)
    check_crashed st idx e;
    check_some_open st idx e
  | Trace.Dropped Trace.Reply -> (
    (* the callee finished but the sender never learned: the thread of
       control is back at the requester, who will retry or give up *)
    check_crashed st idx e;
    check_some_open st idx e;
    match holder_session st e.Trace.src with
    | Some ({ stack = (rq_src, rq_dst, _) :: rest; _ } as s)
      when String.equal e.Trace.src rq_dst && String.equal e.Trace.dst rq_src ->
      s.stack <- rest;
      s.holder <- rq_src
    | Some _ | None -> ())
  | Trace.Dup _ ->
    (* the duplicate copy of an already-counted exchange; the receiver's
       reply cache absorbs it *)
    check_crashed st idx e;
    check_some_open st idx e
  | Trace.Copy id -> (
    (* provenance note: [dst] received a copy of some datum. The ground
       endpoint invalidates itself locally at close, so it is never owed
       a message. No crash check: the note witnesses bookkeeping at the
       sender, not a frame on the wire. *)
    match find_sess st idx id "copy note" with
    | None -> ()
    | Some s ->
      if not (String.equal e.Trace.dst s.ground) then
        Hashtbl.replace s.copy_dsts e.Trace.dst ())
  | Trace.Inval_sent id -> (
    (* send-attempt semantics: the ground addressed an invalidation at
       [dst]; under faults the frame itself may still be lost, which is
       the retry envelope's problem, not a directory omission. *)
    match find_sess st idx id "invalidation-sent note" with
    | None -> ()
    | Some s -> Hashtbl.replace s.inval_dsts e.Trace.dst ())
  | Trace.Crash ep ->
    (* crash marks may appear outside sessions (planned chaos) *)
    Hashtbl.replace st.crashed ep ()
  | Trace.Revive ep -> Hashtbl.remove st.crashed ep
  | Trace.Access { session; datum; akind } -> (
    (* datum-granular race analysis belongs to Race_lint; the protocol
       machine harvests the footprint (SP010) and, since a write names
       its session, detects overlapping writes exactly (SP008). Aborted
       sessions discard their writes and are exempt. *)
    match Hashtbl.find_opt st.opened session with
    | None -> ()
    | Some s ->
      (match datum_space datum with
      | Some sp -> Hashtbl.replace s.touched sp ()
      | None -> ());
      match akind with
      | Trace.Acc_write ->
        Hashtbl.replace s.writes datum ();
        if not s.aborted then
          Hashtbl.iter
            (fun other_id other ->
              if
                other_id <> session
                && (not other.aborted)
                && Hashtbl.mem other.writes datum
              then
                emit ~space:e.Trace.src st idx "SP008"
                  (Printf.sprintf
                     "sessions #%d and #%d are concurrently open and both \
                      wrote %s (conflicting admission: no queue/abort \
                      separates them)"
                     other_id session datum))
            st.opened
      | Trace.Acc_read | Trace.Acc_serve | Trace.Acc_apply | Trace.Acc_install
      | Trace.Acc_free | Trace.Acc_alloc | Trace.Acc_drop ->
        ())

let check_events events =
  let st =
    {
      opened = Hashtbl.create 8;
      admit_marks = Hashtbl.create 8;
      shed = Hashtbl.create 8;
      crashed = Hashtbl.create 4;
      out = [];
    }
  in
  List.iteri (fun idx e -> step st idx e) events;
  (* a trace may stop mid-session (e.g. a live inspection), but every
     request must have been replied by the time recording stopped; the
     locus is one past the last event: the violation is the absence of a
     reply, not any recorded frame *)
  let n = List.length events in
  Hashtbl.iter
    (fun _ s ->
      List.iter
        (fun (src, dst, _) ->
          emit ~space:src st n "SP002"
            (Printf.sprintf "request %s -> %s never replied" src dst))
        s.stack)
    st.opened;
  Diagnostic.sort (List.rev st.out)

let check trace = check_events (Trace.events trace)
