open Srpc_simnet
module Int_table = Srpc_memory.Int_table

(* Each endpoint the trace names is a [space], indexed by the trace's own
   endpoint ordinal. Its vector clock is an int array indexed by ordinal
   (entries past the end are 0): entry [k] counts the local steps of
   space [k] known to have happened-before this point. The data homed
   in a space hang off it by heap address, so the per-datum state is
   one probe away. *)
type space = {
  name : string;
  ord : int;
  mutable clock : int array;
  data : datum Int_table.t;
  mutable purges : int;
      (* whole-cache drops, crashes and revivals so far: a copy recorded
         before the latest one is gone *)
}

and datum = {
  home : space;
  addr : int;
  (* the last write, for CC101: its writer's ordinal (-1 for none), the
     writer's own clock entry just after it, and its event index *)
  mutable writer : int;
  mutable wtime : int;
  mutable widx : int;
  (* the unapplied foreign write, for CC102(b): writer ordinal (-1 for
     none), session and event index *)
  mutable pw_writer : int;
  mutable pw_session : int;
  mutable pw_idx : int;
  mutable freed : int;
      (* the free's event index, -1 unless freed and not reallocated
         since (CC103) *)
  mutable copies : copy list;  (* cached copies, for CC102(a) *)
  mutable reported : (string * int) list;
      (* (rule, space ordinal) already reported: a stale copy read in a
         loop is one defect, not fifty *)
}

(* [holder]'s copy, installed during session [installed]; it stands
   while [purge] is the holder's [purges] *)
and copy = { holder : int; mutable installed : int; mutable purge : int }

type state = {
  spaces : space array;  (* by the trace's endpoint ordinal *)
  phases : Frames.phase array;  (* by label *)
  pending_in : datum list Int_table.t;
      (* per session, the data a foreign write of it left pending (a
         datum may repeat) *)
  closed : unit Int_table.t;  (* sessions seen closing (end/abort) *)
  mutable aborted : bool;
  mutable session_crashes : int list;
      (* spaces that crashed while the current session was open — their
         lost updates are abort semantics, not races *)
  mutable out : Diagnostic.t list;
}

let datum_of home addr =
  match Int_table.find home.data addr with
  | d -> d
  | exception Not_found ->
    let d =
      { home; addr; writer = -1; wtime = 0; widx = 0; pw_writer = -1;
        pw_session = 0; pw_idx = 0; freed = -1; copies = []; reported = [] }
    in
    Int_table.add home.data addr d;
    d

let name d = Printf.sprintf "%s/%d" d.home.name d.addr

let emit st idx (d : datum) ~(space : space) ~rule message =
  if not (List.mem (rule, space.ord) d.reported) then begin
    d.reported <- (rule, space.ord) :: d.reported;
    st.out <-
      Diagnostic.make ~space:space.name ~severity:Error ~rule_id:rule
        ~path:(Printf.sprintf "event[%d]" idx)
        (message ())
      :: st.out
  end

(* --- vector clocks --- *)

let entry (sp : space) k = if k < Array.length sp.clock then sp.clock.(k) else 0

let reserve (sp : space) n =
  if Array.length sp.clock < n then begin
    let c = Array.make n 0 in
    Array.blit sp.clock 0 c 0 (Array.length sp.clock);
    sp.clock <- c
  end

(* A local step of [sp]. *)
let tick st (sp : space) =
  reserve sp (Array.length st.spaces);
  sp.clock.(sp.ord) <- sp.clock.(sp.ord) + 1

(* [dst] learns everything [src] knew. *)
let join (dst : space) (src : space) =
  reserve dst (Array.length src.clock);
  Array.iteri (fun k v -> if v > dst.clock.(k) then dst.clock.(k) <- v) src.clock

(* --- happens-before edges --- *)

let frame_edge st ~src ~dst =
  (* a delivered frame: the sender's step, then the receiver learns
     everything the sender knew *)
  tick st src;
  join dst src

let drop_edge st ~src =
  (* the send happened; nobody learned about it *)
  tick st src

(* --- the access alphabet --- *)

let is_write = function
  | Trace.Acc_write | Trace.Acc_apply -> true
  | Trace.Acc_read | Trace.Acc_serve | Trace.Acc_install | Trace.Acc_free
  | Trace.Acc_alloc | Trace.Acc_drop ->
    false

let touches_payload = function
  | Trace.Acc_read | Trace.Acc_write | Trace.Acc_serve | Trace.Acc_install ->
    true
  | Trace.Acc_apply | Trace.Acc_free | Trace.Acc_alloc | Trace.Acc_drop ->
    false

let check_freed st idx ~space d akind =
  if d.freed >= 0 && touches_payload akind then
    emit st idx d ~space ~rule:"CC103" (fun () ->
        Printf.sprintf "%s %s %s, freed at event[%d] and never reallocated"
          (Trace.access_name akind) space.name (name d) d.freed)

(* A write is a local step of its own, so a later check can tell "after
   the write" from "after the writer's last frame". Only the writer's
   own clock entry is kept: the write happens-before a point of space
   [s] iff [s]'s entry for the writer has reached it, since a clock
   entry only ever grows by joining clocks that carry all the writer
   knew when its entry had that value. *)
let check_write_order st idx ~(space : space) d =
  (* CC101: the previous write to this datum (from another space) must
     happen-before this one along delivered frames *)
  if d.writer >= 0 && d.writer <> space.ord && entry space d.writer < d.wtime
  then
    emit st idx d ~space ~rule:"CC101" (fun () ->
        Printf.sprintf
          "%s wrote %s concurrently with %s's write at event[%d]: no \
           happens-before path connects them"
          space.name (name d) st.spaces.(d.writer).name d.widx);
  tick st space;
  d.writer <- space.ord;
  d.wtime <- space.clock.(space.ord);
  d.widx <- idx

let no_copy = { holder = -1; installed = 0; purge = -1 }

let rec find_copy holder = function
  | [] -> no_copy
  | c :: rest -> if c.holder = holder then c else find_copy holder rest

let install (space : space) d session =
  let c = find_copy space.ord d.copies in
  if c == no_copy then
    d.copies <- { holder = space.ord; installed = session; purge = space.purges } :: d.copies
  else begin
    c.installed <- session;
    c.purge <- space.purges
  end

let drop_copy (space : space) d =
  let c = find_copy space.ord d.copies in
  if c != no_copy then c.purge <- -1

let check_stale_copy st idx ~space d ~session akind =
  (* CC102(a): the copy being touched was installed during a session
     that already closed — its invalidation never landed here *)
  match akind with
  | Trace.Acc_read | Trace.Acc_write ->
    let c = find_copy space.ord d.copies in
    if
      c.purge = space.purges && c.installed <> session
      && Int_table.mem st.closed c.installed
    then
      emit st idx d ~space ~rule:"CC102" (fun () ->
          Printf.sprintf
            "%s %s a copy of %s installed in closed session #%d during \
             session #%d: the invalidation never reached this space"
            space.name
            (if akind = Trace.Acc_write then "writes" else "reads")
            (name d) c.installed session)
  | _ -> ()

let track_pending st idx ~(space : space) d ~session akind =
  match akind with
  | Trace.Acc_write when d.home != space ->
    if d.pw_writer < 0 || d.pw_session <> session then begin
      let mine = Option.value ~default:[] (Int_table.find_opt st.pending_in session) in
      Int_table.replace st.pending_in session (d :: mine)
    end;
    d.pw_writer <- space.ord;
    d.pw_session <- session;
    d.pw_idx <- idx
  | (Trace.Acc_apply | Trace.Acc_free) when d.home == space -> d.pw_writer <- -1
  | _ -> ()

let access st idx ~src ~session ~home ~addr akind =
  let space = st.spaces.(src) in
  if addr = Trace.every_datum then begin
    (* a cache purge: every copy this space held is gone *)
    match akind with
    | Trace.Acc_drop -> space.purges <- space.purges + 1
    | _ -> ()
  end
  else begin
    let d = datum_of st.spaces.(home) addr in
    check_freed st idx ~space d akind;
    (match akind with
    | Trace.Acc_free -> d.freed <- idx
    | Trace.Acc_alloc ->
      d.freed <- -1;
      d.writer <- -1;
      d.pw_writer <- -1
    | Trace.Acc_install -> install space d session
    | Trace.Acc_drop ->
      (* session-scoped purge (concurrent admission): the invalidation
         names each dropped copy instead of wiping the whole cache *)
      drop_copy space d
    | _ -> ());
    check_stale_copy st idx ~space d ~session akind;
    if is_write akind then check_write_order st idx ~space d;
    track_pending st idx ~space d ~session akind
  end

(* --- session lifecycle --- *)

let session_close st idx id ~committed =
  Int_table.replace st.closed id ();
  (* the session's pendings are settled either way: committed ones are
     judged here, aborted ones are discarded by design *)
  let mine = Option.value ~default:[] (Int_table.find_opt st.pending_in id) in
  Int_table.remove st.pending_in id;
  let settled =
    List.fold_left
      (fun acc d ->
        if d.pw_writer >= 0 && d.pw_session = id then begin
          let lost = (d.pw_idx, d.pw_writer, d) in
          d.pw_writer <- -1;
          lost :: acc
        end
        else acc)
      [] mine
  in
  if committed then
    (* CC102(b): a committed close guarantees the modified data set
       reached every home; any write still pending was silently lost.
       Lost writes are reported in the order they were made. *)
    List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b) settled
    |> List.iter (fun (widx, writer, d) ->
           if not (List.mem d.home.ord st.session_crashes) then
             let writer = st.spaces.(writer) in
             emit st idx d ~space:writer ~rule:"CC102" (fun () ->
                 Printf.sprintf
                   "session #%d committed but %s's write to %s at event[%d] \
                    never reached its home"
                   id writer.name (name d) widx));
  st.aborted <- false

let step st trace idx =
  match Trace.tag trace idx with
  | (Trace.Tag.Message _ | Trace.Tag.Dup _ | Trace.Tag.Dropped _)
    when st.phases.(Trace.label trace idx) = Frames.Heartbeat ->
    (* failure-detector heartbeats synchronize nothing the program can
       observe — giving them happens-before edges could mask a genuine
       race between sessions, so they are invisible here *)
    ()
  | Trace.Tag.Message _ | Trace.Tag.Dup _ ->
    (* a duplicate still carries the sender's knowledge; the receiver's
       reply cache suppresses re-execution but the join is sound *)
    frame_edge st
      ~src:st.spaces.(Trace.src trace idx)
      ~dst:st.spaces.(Trace.dst trace idx)
  | Trace.Tag.Dropped _ -> drop_edge st ~src:st.spaces.(Trace.src trace idx)
  | Trace.Tag.Session_begin ->
    st.aborted <- false;
    st.session_crashes <- []
  | Trace.Tag.Session_abort -> st.aborted <- true
  | Trace.Tag.Session_end ->
    session_close st idx (Trace.session trace idx) ~committed:(not st.aborted)
  | Trace.Tag.Crash ->
    (* the space's memory is gone with it *)
    let sp = st.spaces.(Trace.home trace idx) in
    sp.purges <- sp.purges + 1;
    st.session_crashes <- sp.ord :: st.session_crashes
  | Trace.Tag.Revive ->
    (* it restarts empty-handed *)
    let sp = st.spaces.(Trace.home trace idx) in
    sp.purges <- sp.purges + 1
  | Trace.Tag.Access akind ->
    access st idx ~src:(Trace.src trace idx) ~session:(Trace.session trace idx)
      ~home:(Trace.home trace idx) ~addr:(Trace.addr trace idx) akind
  | Trace.Tag.Write_back | Trace.Tag.Invalidate | Trace.Tag.Copy
  | Trace.Tag.Inval_sent | Trace.Tag.Session_admit | Trace.Tag.Session_queued
  | Trace.Tag.Session_shed ->
    ()

let check trace =
  let st =
    {
      spaces =
        Array.init (Trace.endpoint_count trace) (fun ord ->
            { name = Trace.endpoint trace ord; ord; clock = [||];
              data = Int_table.create 64; purges = 0 });
      phases = Frames.phases trace;
      pending_in = Int_table.create 16;
      closed = Int_table.create 16;
      aborted = false;
      session_crashes = [];
      out = [];
    }
  in
  for idx = 0 to Trace.length trace - 1 do
    step st trace idx
  done;
  Diagnostic.sort (List.rev st.out)

let check_events events = check (Trace.of_events events)
