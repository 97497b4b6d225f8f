open Srpc_core

type state = Backoff | Parked | Running | Finished

type ('op, 'a) t = {
  ground : Node.t;
  adm : Admission.t;
  footprint : Srpc_analysis.Footprint.t;
  exec : 'op -> unit;
  journal : 'op list;
  data : 'a;
  mutable id : int;
  mutable ops : 'op list;  (* what remains of the journal *)
  mutable attempt : int;
  mutable state : state;
}

type waiters = (int * Srpc_analysis.Footprint.t) list

type event =
  | Ran
  | Committed of waiters
  | Invalidated of waiters
  | Aborted of string * waiters

let create ~ground adm ~footprint ~exec journal data =
  {
    ground;
    adm;
    footprint;
    exec;
    journal;
    data;
    id = Node.reserve_session ground;
    ops = journal;
    attempt = 0;
    state = Backoff;
  }

let state t = t.state
let id t = t.id
let attempt t = t.attempt
let data t = t.data

let renew t =
  t.id <- Node.reserve_session t.ground;
  t.ops <- t.journal;
  t.state <- Backoff

let request ?peers t =
  let d =
    Node.request_admission ?peers t.ground t.adm ~id:t.id
      ~footprint:t.footprint
  in
  (match d with
  | Admission.Admitted -> t.state <- Running
  | Admission.Queued -> t.state <- Parked
  | Admission.Denied | Admission.Overloaded _ ->
    t.attempt <- t.attempt + 1;
    t.state <- Backoff);
  d

(* An abort leaves the session open at the controller. *)
let abort t reason =
  t.state <- Finished;
  Aborted (reason, Admission.close ~committed:false t.adm ~session:t.id)

(* The close's waiters go back to the driver unstarted: the traffic
   engine charges the close to the closer's timeline before a waiter's
   clock may jump to it. *)
let step t =
  match t.ops with
  | op :: rest -> (
    t.ops <- rest;
    match t.exec op with
    | () -> Ran
    | exception Session.Session_aborted { reason; _ } -> abort t reason)
  | [] -> (
    match Node.end_session_validated t.ground t.adm with
    | `Committed, waiters ->
      t.state <- Finished;
      Committed waiters
    | `Validation_failed, waiters ->
      t.state <- Finished;
      Invalidated waiters
    | exception Session.Session_aborted { reason; _ } -> abort t reason)

(* Neither open nor queued, the session only leaves its deferrals at the
   controller, and the close admits nothing: no close happened since
   the last drain. *)
let abandon t =
  let waiters = Admission.close ~committed:false t.adm ~session:t.id in
  assert (waiters = []);
  t.state <- Finished

let drain sessions waiters =
  List.map
    (fun (id, _) ->
      match List.find_opt (fun t -> t.id = id) sessions with
      | None -> invalid_arg "Stepper.drain: admitted an unknown session"
      | Some t ->
        Node.start_admitted t.ground ~id;
        t.state <- Running;
        t)
    waiters
