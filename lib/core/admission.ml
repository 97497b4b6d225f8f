(* Concurrent-session admission (paper section 3.1, lifted to many
   sessions).

   The paper's coherency protocol is safe because one thread of control
   is active inside a session; the admission controller generalizes the
   guarantee to the cluster: sessions whose static footprints are
   disjoint (no CC-series error under [Footprint.interferes]) may be
   open simultaneously, because no datum root can be written by one
   while another reads or writes it. Conflicting candidates are either
   FIFO-queued on the contended roots or denied for backoff-retry,
   per [Strategy.admission_policy].

   Optimistic validation at close piggybacks on the same idea as the
   delta layer's shadow versions: every committed session bumps a
   per-root version counter for the roots it wrote, and every admitted
   session snapshots the counters of all roots it will touch. A
   mismatch at close means a conflicting foreign write slipped past
   admission (only possible when the conflict check was bypassed, e.g.
   [Node.chaos_admit_conflicting]); the session must abort and retry
   rather than commit a lost update. *)

open Srpc_analysis

type shed = Queue_full | Retry_budget | Dead_peer of string

type decision = Admitted | Queued | Denied | Overloaded of shed

type waiting = { w_session : int; w_fp : Footprint.t }

type t = {
  policy : Strategy.admission_policy;
  stats : Srpc_simnet.Stats.t;
  queue_cap : int;
  retry_budget : int;
  health : Health.t option;
  open_tbl : (int, Footprint.t) Hashtbl.t;
  mutable queue : waiting list;  (* FIFO; head is the oldest waiter *)
  versions : (string, int) Hashtbl.t;  (* datum root -> committed writes *)
  snaps : (int, (string * int) list) Hashtbl.t;
      (* session -> root versions observed at admission *)
  deferred : (int, unit) Hashtbl.t;
      (* sessions that were queued or denied at least once *)
  attempts : (int, int) Hashtbl.t;
      (* session -> deferrals so far, charged against [retry_budget] *)
}

let create ?(policy = Strategy.Queue_conflicts) ?(queue_cap = max_int)
    ?(retry_budget = max_int) ?health stats =
  if queue_cap < 0 then invalid_arg "Admission.create: negative queue_cap";
  if retry_budget < 1 then invalid_arg "Admission.create: retry_budget < 1";
  {
    policy;
    stats;
    queue_cap;
    retry_budget;
    health;
    open_tbl = Hashtbl.create 16;
    queue = [];
    versions = Hashtbl.create 64;
    snaps = Hashtbl.create 16;
    deferred = Hashtbl.create 16;
    attempts = Hashtbl.create 16;
  }

let open_count t = Hashtbl.length t.open_tbl
let queue_length t = List.length t.queue

let root_version t root =
  Option.value (Hashtbl.find_opt t.versions root) ~default:0

let fp_roots (fp : Footprint.t) =
  List.map (fun (r : Footprint.region) -> r.Footprint.root) fp.Footprint.regions
  |> List.sort_uniq String.compare

let fp_write_roots (fp : Footprint.t) =
  List.filter_map
    (fun (r : Footprint.region) ->
      match r.Footprint.mode with
      | Footprint.Write | Footprint.Free -> Some r.Footprint.root
      | Footprint.Read -> None)
    fp.Footprint.regions
  |> List.sort_uniq String.compare

let pair_conflicts fp fp' =
  List.exists Diagnostic.is_error (Footprint.interferes fp fp')

let conflicts_with_open t fp =
  Hashtbl.fold (fun _ fp' hit -> hit || pair_conflicts fp fp') t.open_tbl false

let conflicts_with_queue t fp =
  List.exists (fun w -> pair_conflicts fp w.w_fp) t.queue

let snapshot t ~session fp =
  Hashtbl.replace t.snaps session
    (List.map (fun root -> (root, root_version t root)) (fp_roots fp))

let admit t ~session fp =
  Hashtbl.replace t.open_tbl session fp;
  snapshot t ~session fp;
  Srpc_simnet.Stats.incr_sessions_admitted t.stats;
  Hashtbl.remove t.attempts session;
  if Hashtbl.mem t.deferred session then begin
    Srpc_simnet.Stats.incr_sessions_retried t.stats;
    Hashtbl.remove t.deferred session
  end

(* A deferral charged against the session's retry budget; the budget
   counts deferrals of the same reserved id, so a session that keeps
   colliding is eventually shed instead of retrying forever. *)
let charge_attempt t ~session =
  let n = 1 + Option.value ~default:0 (Hashtbl.find_opt t.attempts session) in
  Hashtbl.replace t.attempts session n;
  n

let breaker_open t peers =
  match t.health with
  | None -> None
  | Some health ->
    List.find_opt (fun ep -> not (Health.available health ep)) peers

let request ?(force = false) ?(peers = []) t ~session fp =
  if force then begin
    admit t ~session fp;
    Admitted
  end
  else
    match breaker_open t peers with
    | Some ep ->
      (* the session would touch a suspected- or confirmed-dead peer:
         refuse it until health confirms revival. Not charged against
         the retry budget — the session did nothing wrong. *)
      Srpc_simnet.Stats.incr_breaker_trips t.stats;
      Overloaded (Dead_peer ep)
    | None ->
      if
        conflicts_with_open t fp
        || (t.policy = Strategy.Queue_conflicts && conflicts_with_queue t fp)
      then
        if charge_attempt t ~session > t.retry_budget then begin
          (* budget exhausted: typed shed, terminal for this attempt *)
          Hashtbl.remove t.attempts session;
          Hashtbl.remove t.deferred session;
          Srpc_simnet.Stats.incr_sheds t.stats;
          Overloaded Retry_budget
        end
        else begin
          match t.policy with
          | Strategy.Queue_conflicts ->
            if List.length t.queue >= t.queue_cap then begin
              (* bounded queue: shed rather than grow without limit *)
              Hashtbl.remove t.attempts session;
              Hashtbl.remove t.deferred session;
              Srpc_simnet.Stats.incr_sheds t.stats;
              Overloaded Queue_full
            end
            else begin
              Hashtbl.replace t.deferred session ();
              t.queue <- t.queue @ [ { w_session = session; w_fp = fp } ];
              Srpc_simnet.Stats.incr_sessions_queued t.stats;
              Queued
            end
          | Strategy.Abort_retry ->
            Hashtbl.replace t.deferred session ();
            Srpc_simnet.Stats.incr_sessions_aborted t.stats;
            Denied
        end
      else begin
        admit t ~session fp;
        Admitted
      end

let validate t ~session =
  match Hashtbl.find_opt t.snaps session with
  | None -> true
  | Some snap ->
    List.for_all (fun (root, v) -> root_version t root = v) snap

let fail_validation t = Srpc_simnet.Stats.incr_validations_failed t.stats

(* Drain the FIFO after [close]: a waiter is admitted when it conflicts
   with neither the (updated) open set nor any waiter still ahead of it
   — no barging past an older waiter contending the same roots. *)
let drain t =
  let admitted = ref [] in
  let still = ref [] in
  List.iter
    (fun w ->
      if
        conflicts_with_open t w.w_fp
        || List.exists (fun w' -> pair_conflicts w.w_fp w'.w_fp) !still
      then still := w :: !still
      else begin
        admit t ~session:w.w_session w.w_fp;
        admitted := (w.w_session, w.w_fp) :: !admitted
      end)
    t.queue;
  t.queue <- List.rev !still;
  List.rev !admitted

let close ?(committed = true) t ~session =
  (match (committed, Hashtbl.find_opt t.open_tbl session) with
  | true, Some fp ->
    List.iter
      (fun root -> Hashtbl.replace t.versions root (root_version t root + 1))
      (fp_write_roots fp)
  | _ -> ());
  Hashtbl.remove t.open_tbl session;
  Hashtbl.remove t.snaps session;
  (* a session retired before admission (a client gave up) leaves its
     deferrals behind otherwise, one entry per abandoned id *)
  Hashtbl.remove t.deferred session;
  Hashtbl.remove t.attempts session;
  drain t

(* Deterministic jitter: splitmix64 over (session, attempt), mapped to a
   multiplier in [0.5, 1.5). Without it, sessions denied at the same
   instant share the same capped-exponential delay and re-collide
   forever — the retry storm the seeded spread breaks up while staying
   exactly reproducible. *)
let splitmix64 seed =
  let open Int64 in
  let z = add seed 0x9e3779b97f4a7c15L in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

let jitter_factor ~session ~attempt =
  let h =
    splitmix64
      (Int64.logxor
         (Int64.mul (Int64.of_int session) 0x2545f4914f6cdd1dL)
         (Int64.of_int attempt))
  in
  (* top 53 bits -> uniform [0, 1) *)
  let u =
    Int64.to_float (Int64.shift_right_logical h 11) /. 9007199254740992.0
  in
  0.5 +. u

(* A denied session retries under capped exponential backoff with
   deterministic seeded jitter; the delay is virtual time, scheduled by
   the caller's event loop. *)
let backoff_delay ~session ~attempt ~base =
  let capped = min attempt 6 in
  base *. float_of_int (1 lsl capped) *. jitter_factor ~session ~attempt
