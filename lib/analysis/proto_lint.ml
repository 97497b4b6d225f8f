open Srpc_simnet
module Int_table = Srpc_memory.Int_table

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

(* Endpoints and labels are the trace's ordinals; names are looked up
   only for a diagnostic. *)
type sess = {
  id : int;
  ground : int;
  admitted : bool;  (* began under a Session_admit mark *)
  mutable holder : int;  (* endpoint currently holding the thread *)
  mutable stack : (int * int * int) list;
      (* outstanding (src, dst, request label) *)
  mutable wb_seen : bool;  (* write-back phase started *)
  mutable inv_seen : bool;  (* invalidation multicast started *)
  mutable aborted : bool;  (* the session carries an abort mark *)
  copy_dsts : unit Int_table.t;
      (* endpoints that received a data copy (Copy notes) *)
  inval_dsts : unit Int_table.t;
      (* endpoints the ground sent (or attempted) an invalidation to *)
  mutable writes : (int * unit Int_table.t) list;
      (* datums written so far: per home endpoint, their addresses *)
  mutable touched : int list;
      (* spaces whose data the session's footprint covers, harvested
         from the homes of its Access marks — the set an offload-call
         may legitimately target (SP010) *)
  dead_at_begin : unit Int_table.t;
      (* endpoints already past their crash mark when the session
         began *)
}

type state = {
  trace : Trace.t;
  phases : Frames.phase array;  (* by label *)
  reply_to : int array;
      (* by request label, the label its reply must carry: [-1] when the
         trace holds no such label, so any labeled reply mismatches, and
         [any_reply] when any will do *)
  error : int;  (* the error reply's label, [-1] when absent *)
  opened : (int, sess) Hashtbl.t;
  admit_marks : (int, unit) Hashtbl.t;  (* ids carrying a Session_admit mark *)
  shed : (int, unit) Hashtbl.t;
      (* ids whose latest admission outcome was a typed shed: terminal
         until a fresh Session_admit (SP009) *)
  crashed : unit Int_table.t;  (* endpoints past their crash mark *)
  mutable out : Diagnostic.t list;
}

let name st ep = Trace.endpoint st.trace ep
let label_name st l = Trace.label_name st.trace l

(* A session writes under few homes and touches few spaces, so these
   are short lists. *)
let rec addrs_of (home : int) = function
  | [] -> raise Not_found
  | (h, addrs) :: rest -> if h = home then addrs else addrs_of home rest

let wrote s ~home ~addr =
  match addrs_of home s.writes with
  | addrs -> Int_table.mem addrs addr
  | exception Not_found -> false

let note_write s ~home ~addr =
  match addrs_of home s.writes with
  | addrs -> Int_table.replace addrs addr ()
  | exception Not_found ->
    let addrs = Int_table.create 8 in
    Int_table.add addrs addr ();
    s.writes <- (home, addrs) :: s.writes

let rec mem_endpoint (ep : int) = function
  | [] -> false
  | h :: rest -> h = ep || mem_endpoint ep rest

let touched s ep = mem_endpoint ep s.touched

let emit ?(space = "") st idx rule_id message =
  st.out <-
    Diagnostic.make ~space ~severity:Error ~rule_id
      ~path:(Printf.sprintf "event[%d]" idx)
      message
    :: st.out

(* A [reply_to] entry for a request any reply answers: a label no
   request row carries, or the empty label of an unlabeled trace
   (checked only for the reply's existence). [Error] replies pair with
   anything. *)
let any_reply = -2

let check_pairing st idx ~rq_lbl ~rep_lbl =
  let want = st.reply_to.(rq_lbl) in
  if want <> any_reply && rep_lbl <> want && rep_lbl <> 0 && rep_lbl <> st.error
  then
    let rq = label_name st rq_lbl in
    emit st idx "SP002"
      (Printf.sprintf "%s request answered by %s, expected %s" rq
         (label_name st rep_lbl)
         (Option.get (Frames.find rq)).Frames.reply)

(* Frame-level close ordering (the delta-era SP004): a [Wb_delta] frame
   carrying the targeted invalidation belongs to the invalidation phase
   and must not precede the write-back mark; staged frames belong to
   phase one and must precede the commit point; a commit frame must
   follow it. *)
let check_close_order st idx ~space s lbl =
  match st.phases.(lbl) with
  | Frames.Inv_delta when not s.wb_seen ->
    emit ~space st idx "SP004"
      "invalidate-carrying delta frame before the write-back phase started"
  | Frames.Staged when s.wb_seen ->
    emit ~space st idx "SP004"
      (label_name st lbl
      ^ " frame after the commit point: staged data can no longer be atomic")
  | Frames.Commit when not s.wb_seen ->
    emit ~space st idx "SP004"
      "commit frame before the commit-point write-back mark"
  | _ -> ()

let pp_ev st idx = Format.asprintf "%a" Trace.pp_event (Trace.event st.trace idx)

(* Heartbeat exchanges belong to the failure detector, not to any
   session: they are exempt from session attribution, thread-of-control
   and pairing checks. A live trace only ever carries them between live
   endpoints (the transport raises before recording a frame that names a
   crashed peer). *)
let is_hb st lbl = st.phases.(lbl) = Frames.Heartbeat

(* SP006: a crashed endpoint neither sends nor receives — any frame
   naming it between its crash and revive marks is a violation. *)
let check_crashed_ep st idx ep =
  if Int_table.mem st.crashed ep then
    emit ~space:(name st ep) st idx "SP006"
      (Printf.sprintf "frame involves crashed endpoint %s: %s" (name st ep)
         (pp_ev st idx))

let check_crashed st idx ~src ~dst =
  check_crashed_ep st idx src;
  if dst <> src then check_crashed_ep st idx dst

(* SP003: a frame — delivered, dropped or duplicated — while no session
   is open. *)
let check_some_open st idx ~src =
  if Hashtbl.length st.opened = 0 then
    emit ~space:(name st src) st idx "SP003"
      ("traffic outside an open session: " ^ pp_ev st idx)

(* The open session whose thread of control rests at [ep], if unique. *)
let holder_session st ep =
  Hashtbl.fold
    (fun _ s acc -> if s.holder = ep then s :: acc else acc)
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
      emit ~space:(name st src) st idx "SP002"
        (Printf.sprintf "request %s -> %s never replied before session end"
           (name st src) (name st dst)))
    s.stack;
  if s.aborted then begin
    if s.wb_seen then
      emit ~space:(name st s.ground) st idx "SP005"
        (Printf.sprintf "aborted session #%d has a write-back mark" s.id);
    if not s.inv_seen then
      emit ~space:(name st s.ground) st idx "SP005"
        (Printf.sprintf "aborted session #%d ended without invalidation" s.id)
  end;
  (* SP007 applies only to sessions that recorded copy provenance
     (delta-coherency senders emit Copy notes); an aborted session
     invalidates by other means (the Abort frame) and is exempt. *)
  if (not s.aborted) && Int_table.length s.copy_dsts > 0 then begin
    let missed =
      Int_table.fold
        (fun dst () acc ->
          if Int_table.mem s.inval_dsts dst then acc else name st dst :: acc)
        s.copy_dsts []
    in
    List.iter
      (fun dst ->
        emit ~space:(name st s.ground) st idx "SP007"
          (Printf.sprintf
             "session #%d ends without invalidating %s, which received a data \
              copy"
             s.id dst))
      (List.sort String.compare missed)
  end;
  Hashtbl.remove st.opened s.id

let begin_sess st idx ~src id =
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
    let dead = Int_table.create 4 in
    Int_table.iter (fun ep () -> Int_table.replace dead ep ()) st.crashed;
    Hashtbl.replace st.opened id
      {
        id;
        ground = src;
        admitted;
        holder = src;
        stack = [];
        wb_seen = false;
        inv_seen = false;
        aborted = false;
        copy_dsts = Int_table.create 4;
        inval_dsts = Int_table.create 4;
        writes = [];
        (* the ground space's own heap is always in the footprint *)
        touched = [ src ];
        dead_at_begin = dead;
      }
  end

let request st idx =
  let src = Trace.src st.trace idx and dst = Trace.dst st.trace idx in
  check_crashed st idx ~src ~dst;
  match holder_session st src with
  | None ->
    check_some_open st idx ~src;
    if Hashtbl.length st.opened > 0 then
      emit ~space:(name st src) st idx "SP001"
        (Printf.sprintf
           "request from %s, which holds no open session's thread of control"
           (name st src))
  | Some s ->
    let lbl = Trace.label st.trace idx in
    let dead_since_begin =
      Int_table.mem s.dead_at_begin dst && Int_table.mem st.crashed dst
    in
    (* SP009 (breaker): an admitted session targets a peer that was
       already crashed when it began and has not revived since —
       admission should have refused it. A mid-session crash is SP006's
       territory, not a breaker failure. *)
    if s.admitted && dead_since_begin then
      emit ~space:(name st dst) st idx "SP009"
        (Printf.sprintf
           "session #%d targets %s, which was crashed when the session \
            began: the circuit breaker must hold until revival"
           s.id (name st dst));
    (* SP010: a traversal plan may only be shipped to a space whose data
       the session has already touched (the client marks the root datum
       before framing the call), and never to a peer that was dead
       before the session began and has not revived. *)
    (match st.phases.(lbl) with
    | Frames.Offload_call ->
      if dead_since_begin then
        emit ~space:(name st dst) st idx "SP010"
          (Printf.sprintf
             "session #%d offload-call targets %s, which was crashed when \
              the session began"
             s.id (name st dst))
      else if dst <> s.ground && not (touched s dst) then
        emit ~space:(name st dst) st idx "SP010"
          (Printf.sprintf
             "session #%d offload-call into %s but the session holds no \
              footprint there (no datum of that space was touched)"
             s.id (name st dst))
    | _ -> ());
    check_close_order st idx ~space:(name st src) s lbl;
    s.stack <- (src, dst, lbl) :: s.stack;
    s.holder <- dst

let reply st idx =
  let src = Trace.src st.trace idx and dst = Trace.dst st.trace idx in
  check_crashed st idx ~src ~dst;
  match holder_session st src with
  | None ->
    check_some_open st idx ~src;
    if Hashtbl.length st.opened > 0 then
      emit ~space:(name st src) st idx "SP001"
        ("reply with no outstanding request: " ^ pp_ev st idx)
  | Some s -> (
    match s.stack with
    | [] ->
      emit ~space:(name st src) st idx "SP001"
        ("reply with no outstanding request: " ^ pp_ev st idx)
    | (rq_src, rq_dst, rq_lbl) :: rest ->
      if src = rq_dst && dst = rq_src then begin
        check_pairing st idx ~rq_lbl ~rep_lbl:(Trace.label st.trace idx);
        s.stack <- rest;
        s.holder <- rq_src
      end
      else
        emit ~space:(name st src) st idx "SP001"
          (Printf.sprintf
             "reply %s -> %s does not match the innermost request %s -> %s"
             (name st src) (name st dst) (name st rq_src) (name st rq_dst)))

let step st idx =
  let t = st.trace in
  match Trace.tag t idx with
  | (Trace.Tag.Message _ | Trace.Tag.Dropped _ | Trace.Tag.Dup _)
    when is_hb st (Trace.label t idx) ->
    ()
  | Trace.Tag.Session_admit ->
    let id = Trace.session t idx in
    Hashtbl.replace st.admit_marks id ();
    Hashtbl.remove st.shed id
  | Trace.Tag.Session_queued ->
    (* a deferral: the session is not open, nothing to track — its later
       admission carries its own Session_admit mark *)
    ()
  | Trace.Tag.Session_shed ->
    (* the typed rejection: terminal for this attempt. A shed of an open
       session is nonsense — the controller refused something it had
       already admitted. *)
    let id = Trace.session t idx in
    if Hashtbl.mem st.opened id then
      emit st idx "SP009" (Printf.sprintf "session #%d shed while it is open" id);
    Hashtbl.replace st.shed id ();
    Hashtbl.remove st.admit_marks id
  | Trace.Tag.Session_begin ->
    begin_sess st idx ~src:(Trace.src t idx) (Trace.session t idx)
  | Trace.Tag.Session_end ->
    Option.iter (close_sess st idx)
      (find_sess st idx (Trace.session t idx) "session end")
  | Trace.Tag.Message Trace.Request -> request st idx
  | Trace.Tag.Message Trace.Reply -> reply st idx
  | Trace.Tag.Write_back -> (
    match find_sess st idx (Trace.session t idx) "write-back mark" with
    | None -> ()
    | Some s ->
      if s.inv_seen then
        emit ~space:(name st s.ground) st idx "SP004"
          "write-back phase after the invalidation multicast already started";
      if s.aborted then
        emit ~space:(name st s.ground) st idx "SP005"
          "write-back phase after the session was aborted";
      s.wb_seen <- true)
  | Trace.Tag.Invalidate -> (
    match find_sess st idx (Trace.session t idx) "invalidation mark" with
    | None -> ()
    | Some s ->
      if (not s.wb_seen) && not s.aborted then
        emit ~space:(name st s.ground) st idx "SP004"
          "invalidation multicast not preceded by the ground space's write-back";
      s.inv_seen <- true)
  | Trace.Tag.Session_abort -> (
    let id = Trace.session t idx in
    match find_sess st idx id "abort mark" with
    | None -> ()
    | Some s ->
      if s.wb_seen then
        emit ~space:(name st s.ground) st idx "SP005"
          (Printf.sprintf "session #%d aborted after its write-back began" id);
      s.aborted <- true)
  | Trace.Tag.Dropped Trace.Request ->
    (* a lost request never moved the thread of control *)
    let src = Trace.src t idx in
    check_crashed st idx ~src ~dst:(Trace.dst t idx);
    check_some_open st idx ~src
  | Trace.Tag.Dropped Trace.Reply -> (
    (* the callee finished but the sender never learned: the thread of
       control is back at the requester, who will retry or give up *)
    let src = Trace.src t idx and dst = Trace.dst t idx in
    check_crashed st idx ~src ~dst;
    check_some_open st idx ~src;
    match holder_session st src with
    | Some ({ stack = (rq_src, rq_dst, _) :: rest; _ } as s)
      when src = rq_dst && dst = rq_src ->
      s.stack <- rest;
      s.holder <- rq_src
    | Some _ | None -> ())
  | Trace.Tag.Dup _ ->
    (* the duplicate copy of an already-counted exchange; the receiver's
       reply cache absorbs it *)
    let src = Trace.src t idx in
    check_crashed st idx ~src ~dst:(Trace.dst t idx);
    check_some_open st idx ~src
  | Trace.Tag.Copy -> (
    (* provenance note: [dst] received a copy of some datum. The ground
       endpoint invalidates itself locally at close, so it is never owed
       a message. No crash check: the note witnesses bookkeeping at the
       sender, not a frame on the wire. *)
    match find_sess st idx (Trace.session t idx) "copy note" with
    | None -> ()
    | Some s ->
      let dst = Trace.dst t idx in
      if dst <> s.ground then Int_table.replace s.copy_dsts dst ())
  | Trace.Tag.Inval_sent -> (
    (* send-attempt semantics: the ground addressed an invalidation at
       [dst]; under faults the frame itself may still be lost, which is
       the retry envelope's problem, not a directory omission. *)
    match find_sess st idx (Trace.session t idx) "invalidation-sent note" with
    | None -> ()
    | Some s -> Int_table.replace s.inval_dsts (Trace.dst t idx) ())
  | Trace.Tag.Crash ->
    (* crash marks may appear outside sessions (planned chaos) *)
    Int_table.replace st.crashed (Trace.home t idx) ()
  | Trace.Tag.Revive -> Int_table.remove st.crashed (Trace.home t idx)
  | Trace.Tag.Access akind -> (
    (* datum-granular race analysis belongs to Race_lint; the protocol
       machine harvests the footprint (SP010) and, since a write names
       its session, detects overlapping writes exactly (SP008). Aborted
       sessions discard their writes and are exempt. *)
    let session = Trace.session t idx in
    match Hashtbl.find st.opened session with
    | exception Not_found -> ()
    | s -> (
      let home = Trace.home t idx and addr = Trace.addr t idx in
      if addr <> Trace.every_datum && not (touched s home) then
        s.touched <- home :: s.touched;
      match akind with
      | Trace.Acc_write ->
        note_write s ~home ~addr;
        if not s.aborted then
          Hashtbl.iter
            (fun other_id other ->
              if
                other_id <> session
                && (not other.aborted)
                && wrote other ~home ~addr
              then
                emit ~space:(name st (Trace.src t idx)) st idx "SP008"
                  (Printf.sprintf
                     "sessions #%d and #%d are concurrently open and both \
                      wrote %s/%d (conflicting admission: no queue/abort \
                      separates them)"
                     other_id session (name st home) addr))
            st.opened
      | Trace.Acc_read | Trace.Acc_serve | Trace.Acc_apply | Trace.Acc_install
      | Trace.Acc_free | Trace.Acc_alloc | Trace.Acc_drop ->
        ()))

let check trace =
  let st =
    {
      trace;
      phases = Frames.phases trace;
      reply_to =
        Array.init (Trace.label_count trace) (fun l ->
            match Frames.find (Trace.label_name trace l) with
            | Some { Frames.reply; _ } when reply <> "" ->
              Trace.find_label trace reply
            | Some _ | None -> any_reply);
      error = Trace.find_label trace Frames.error;
      opened = Hashtbl.create 8;
      admit_marks = Hashtbl.create 8;
      shed = Hashtbl.create 8;
      crashed = Int_table.create 4;
      out = [];
    }
  in
  let n = Trace.length trace in
  for idx = 0 to n - 1 do
    step st idx
  done;
  (* a trace may stop mid-session (e.g. a live inspection), but every
     request must have been replied by the time recording stopped; the
     locus is one past the last event: the violation is the absence of a
     reply, not any recorded frame *)
  Hashtbl.iter
    (fun _ s ->
      List.iter
        (fun (src, dst, _) ->
          emit ~space:(name st src) st n "SP002"
            (Printf.sprintf "request %s -> %s never replied" (name st src)
               (name st dst)))
        s.stack)
    st.opened;
  Diagnostic.sort (List.rev st.out)

let check_events events = check (Trace.of_events events)
