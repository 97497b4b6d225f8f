(* Deterministic virtual-time failure detector.

   Each watched peer is probed with a [Wire.Hb] liveness frame over the
   ordinary transport; the probe either returns (the peer answered an
   [Hb_ack]) or misses ([Transport.Timeout] when the fault plan ate a
   frame, [Transport.Peer_crashed] when the peer is down). Consecutive
   misses escalate the peer through the classic detector ladder:
   [Alive] -> [Suspected] (after [suspect_after] misses) -> [Dead]
   (after [confirm_after]); the first successful probe resets it to
   [Alive] and records the revival. Everything runs on the simulated
   clock and the seeded fault plan, so detection times are exactly
   reproducible.

   The existing [Trace.Crash]/[Trace.Revive] marks are ground truth the
   simulator already records; [observe] folds them in so planned chaos
   (e.g. a soak harness's crash scheduler) is reflected immediately
   without waiting out a probe cycle — a real deployment would get the
   same signal from its orchestrator. Probe-based suspicion remains the
   only path that costs wire traffic, so with no detector constructed
   the cluster's frames are byte-identical. *)

type state = Alive | Suspected | Dead

type peer = {
  mutable p_state : state;
  mutable p_misses : int;  (* consecutive missed probes *)
  mutable p_revivals : int;
}

type t = {
  transport : Srpc_simnet.Transport.t;
  stats : Srpc_simnet.Stats.t;
  registry : Srpc_types.Registry.t;
  src : string;  (* endpoint the probes originate from *)
  suspect_after : int;
  confirm_after : int;
  peers : (string, peer) Hashtbl.t;
}

let create ?(suspect_after = 2) ?(confirm_after = 4) ~src ~registry ~stats
    transport =
  if suspect_after < 1 || confirm_after < suspect_after then
    invalid_arg "Health.create: need 1 <= suspect_after <= confirm_after";
  {
    transport;
    stats;
    registry;
    src;
    suspect_after;
    confirm_after;
    peers = Hashtbl.create 8;
  }

let watched t ep =
  match Hashtbl.find_opt t.peers ep with
  | Some p -> p
  | None ->
    let p = { p_state = Alive; p_misses = 0; p_revivals = 0 } in
    Hashtbl.replace t.peers ep p;
    p

let watch t ep = ignore (watched t ep)
let state t ep = (watched t ep).p_state
let revivals t ep = (watched t ep).p_revivals

(* The circuit breaker's predicate: don't open sessions against this
   peer until health confirms it answers probes again. *)
let available t ep = (watched t ep).p_state = Alive

let mark_dead t p =
  if p.p_state <> Dead then begin
    if p.p_state = Alive then
      (* jumped straight past suspicion (planned crash observed) *)
      Srpc_simnet.Stats.incr_suspicions t.stats;
    p.p_state <- Dead
  end;
  p.p_misses <- max p.p_misses t.confirm_after

let mark_alive p =
  if p.p_state <> Alive then begin
    p.p_state <- Alive;
    p.p_revivals <- p.p_revivals + 1
  end;
  p.p_misses <- 0

let miss t p =
  p.p_misses <- p.p_misses + 1;
  if p.p_misses = t.suspect_after && p.p_state = Alive then begin
    p.p_state <- Suspected;
    Srpc_simnet.Stats.incr_suspicions t.stats
  end;
  if p.p_misses >= t.confirm_after then p.p_state <- Dead

let probe t ep =
  let p = watched t ep in
  Srpc_simnet.Stats.incr_heartbeats_sent t.stats;
  let frame = Wire.encode_request ~reg:t.registry Wire.Hb in
  (match Srpc_simnet.Transport.rpc t.transport ~src:t.src ~dst:ep frame with
  | reply -> (
    match Wire.decode_response ~reg:t.registry reply with
    | Wire.Hb_ack -> mark_alive p
    | _ -> miss t p
    | exception _ -> miss t p)
  | exception
      ( Srpc_simnet.Transport.Timeout _
      | Srpc_simnet.Transport.Peer_crashed _
      | Srpc_simnet.Transport.Unknown_endpoint _ ) ->
    miss t p);
  p.p_state

let probe_all t =
  Hashtbl.fold (fun ep _ acc -> ep :: acc) t.peers []
  |> List.sort String.compare
  |> List.iter (fun ep -> ignore (probe t ep))

(* Fold the simulator's ground-truth crash/revive marks recorded since
   [from] (an event index; returns the new cursor). Only the events
   after the cursor are read, so an armed soak that observes on every
   admission stays linear in its horizon. The cursor is taken before
   the fold: frames a revival probe records are the next call's. *)
let observe t trace ~from =
  let n = Srpc_simnet.Trace.length trace in
  List.iter
    (fun (e : Srpc_simnet.Trace.event) ->
      match e.Srpc_simnet.Trace.kind with
      | Srpc_simnet.Trace.Crash ep ->
        if Hashtbl.mem t.peers ep then mark_dead t (watched t ep)
      | Srpc_simnet.Trace.Revive ep ->
        (* the orchestrator restarted it; let a probe confirm before
           sessions flow again *)
        if Hashtbl.mem t.peers ep then ignore (probe t ep)
      | _ -> ())
    (Srpc_simnet.Trace.since trace from);
  n
