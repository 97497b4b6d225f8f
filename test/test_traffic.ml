(* Concurrent-session admission and the srpc-traffic generator.

   Four layers of evidence, from unit to end-to-end:
   - the Admission controller's decision table, FIFO no-barging drain,
     OCC validation and backoff arithmetic, in isolation;
   - the traffic generator itself: deterministic, disjoint clients
     overlap (>= 2x the serialized throughput at 8 clients), contended
     clients queue or abort-retry with live Stats counters;
   - the shared-counter workload: admission serializes conflicting
     bumps with no lost update, and with the conflict check chaosed off
     the close-time validation, Race_lint (CC101) and the protocol
     linter (SP008) all catch the overlap while the counter still ends
     exactly at the committed-bump count;
   - the open-loop engine: whole-result digests of pinned Traffic and
     Soak runs, so a refactor of either entry point moves no field;
   - the pre-PR fingerprint: a single-session (legacy-mode) run's trace
     is byte-identical to the trace the tree produced before concurrent
     admission existed, pinned by digest. *)

open Srpc_memory
open Srpc_core
open Srpc_simnet
open Srpc_analysis
open Srpc_check
open Srpc_traffic

(* {1 Admission unit tests} *)

let fp_of label regions =
  Footprint.session ~label
    (List.map
       (fun (root, mode) -> { Footprint.root; path = "*"; mode })
       regions)

let w root = (root, Footprint.Write)
let r root = (root, Footprint.Read)

let test_admission_disjoint () =
  let adm = Admission.create (Stats.create ()) in
  (match Admission.request adm ~session:1 (fp_of "a" [ w "x" ]) with
  | Admission.Admitted -> ()
  | _ -> Alcotest.fail "first session not admitted");
  (match Admission.request adm ~session:2 (fp_of "b" [ w "y" ]) with
  | Admission.Admitted -> ()
  | _ -> Alcotest.fail "disjoint session not admitted");
  (* two readers of the same (otherwise untouched) root do not conflict *)
  (match Admission.request adm ~session:3 (fp_of "c" [ r "z" ]) with
  | Admission.Admitted -> ()
  | _ -> Alcotest.fail "first reader not admitted");
  (match Admission.request adm ~session:4 (fp_of "d" [ r "z" ]) with
  | Admission.Admitted -> ()
  | _ -> Alcotest.fail "read-read treated as a conflict");
  (* a reader of a root an open session is writing does conflict *)
  (match Admission.request adm ~session:5 (fp_of "e" [ r "x" ]) with
  | Admission.Admitted -> Alcotest.fail "read admitted against an open writer"
  | _ -> ());
  Alcotest.(check int) "open" 4 (Admission.open_count adm)

let test_admission_queue_fifo () =
  let adm = Admission.create ~policy:Strategy.Queue_conflicts (Stats.create ()) in
  ignore (Admission.request adm ~session:1 (fp_of "a" [ w "x" ]));
  (match Admission.request adm ~session:2 (fp_of "b" [ w "x" ]) with
  | Admission.Queued -> ()
  | _ -> Alcotest.fail "conflicting session not queued");
  (* session 3 conflicts with QUEUED session 2 — it must not barge *)
  (match Admission.request adm ~session:3 (fp_of "c" [ w "x" ]) with
  | Admission.Queued -> ()
  | _ -> Alcotest.fail "younger conflicting session barged the queue");
  Alcotest.(check int) "queue" 2 (Admission.queue_length adm);
  let drained = Admission.close adm ~session:1 in
  (* FIFO: only session 2 comes out (3 conflicts with it) *)
  Alcotest.(check (list int)) "drain order" [ 2 ] (List.map fst drained);
  let drained = Admission.close adm ~session:2 in
  Alcotest.(check (list int)) "second drain" [ 3 ] (List.map fst drained)

let test_admission_abort_retry () =
  let stats = Stats.create () in
  let adm = Admission.create ~policy:Strategy.Abort_retry stats in
  ignore (Admission.request adm ~session:1 (fp_of "a" [ w "x" ]));
  (match Admission.request adm ~session:2 (fp_of "b" [ w "x" ]) with
  | Admission.Denied -> ()
  | _ -> Alcotest.fail "conflicting session not denied under abort-retry");
  ignore (Admission.close adm ~session:1);
  (match Admission.request adm ~session:2 (fp_of "b" [ w "x" ]) with
  | Admission.Admitted -> ()
  | _ -> Alcotest.fail "retry after the holder left not admitted");
  let snap = Stats.snapshot stats in
  Alcotest.(check int) "denied counted" 1 snap.Stats.sessions_aborted;
  Alcotest.(check int) "retry counted" 1 snap.Stats.sessions_retried

let test_admission_validation () =
  let adm = Admission.create (Stats.create ()) in
  (* forced concurrent writers to the same root: the later closer must
     fail validation *)
  ignore (Admission.request ~force:true adm ~session:1 (fp_of "a" [ w "x" ]));
  ignore (Admission.request ~force:true adm ~session:2 (fp_of "b" [ w "x" ]));
  ignore (Admission.close adm ~session:1);
  Alcotest.(check bool) "loser fails validation" false
    (Admission.validate adm ~session:2);
  (* an uncontended root is unaffected *)
  ignore (Admission.request adm ~session:3 (fp_of "c" [ w "y" ]));
  Alcotest.(check bool) "disjoint session validates" true
    (Admission.validate adm ~session:3)

let test_backoff () =
  (* jittered capped exponential: delay = base * 2^min(attempt,6) * j
     with j drawn deterministically from (session, attempt) in
     [0.5, 1.5) *)
  let check_range name ~attempt ~expo =
    let d = Admission.backoff_delay ~session:7 ~attempt ~base:1e-3 in
    let lo = 0.5 *. expo *. 1e-3 and hi = 1.5 *. expo *. 1e-3 in
    if d < lo || d >= hi then
      Alcotest.failf "%s: %.6g outside jitter window [%.6g, %.6g)" name d lo hi
  in
  check_range "attempt 0" ~attempt:0 ~expo:1.0;
  check_range "attempt 3" ~attempt:3 ~expo:8.0;
  (* capped at 2^6 *)
  check_range "attempt 40" ~attempt:40 ~expo:64.0;
  (* deterministic: same (session, attempt) -> same delay *)
  Alcotest.(check (float 0.0)) "deterministic"
    (Admission.backoff_delay ~session:3 ~attempt:2 ~base:1e-3)
    (Admission.backoff_delay ~session:3 ~attempt:2 ~base:1e-3);
  (* the point of the jitter: distinct sessions denied at the same
     attempt spread out instead of re-colliding in lockstep *)
  let d1 = Admission.backoff_delay ~session:1 ~attempt:1 ~base:1e-3
  and d2 = Admission.backoff_delay ~session:2 ~attempt:1 ~base:1e-3 in
  if Float.abs (d1 -. d2) < 1e-6 then
    Alcotest.failf "sessions 1 and 2 got identical backoff %.6g" d1

(* {1 Overload protection: bounded queue, retry budget, breaker} *)

let test_admission_queue_cap () =
  let stats = Stats.create () in
  let adm =
    Admission.create ~policy:Strategy.Queue_conflicts ~queue_cap:1 stats
  in
  ignore (Admission.request adm ~session:1 (fp_of "a" [ w "x" ]));
  (match Admission.request adm ~session:2 (fp_of "b" [ w "x" ]) with
  | Admission.Queued -> ()
  | _ -> Alcotest.fail "first conflict not queued");
  (match Admission.request adm ~session:3 (fp_of "c" [ w "x" ]) with
  | Admission.Overloaded Admission.Queue_full -> ()
  | _ -> Alcotest.fail "full queue did not shed");
  Alcotest.(check int) "queue stayed bounded" 1 (Admission.queue_length adm);
  Alcotest.(check int) "shed counted" 1 (Stats.snapshot stats).Stats.sheds;
  (* the shed is terminal but not fatal: once the queue drains, the same
     reserved id is admitted by a fresh request *)
  ignore (Admission.close adm ~session:1);
  ignore (Admission.close adm ~session:2);
  match Admission.request adm ~session:3 (fp_of "c" [ w "x" ]) with
  | Admission.Admitted -> ()
  | _ -> Alcotest.fail "shed session not admitted after the queue drained"

let test_admission_retry_budget () =
  let stats = Stats.create () in
  let adm =
    Admission.create ~policy:Strategy.Abort_retry ~retry_budget:2 stats
  in
  ignore (Admission.request adm ~session:1 (fp_of "a" [ w "x" ]));
  for _ = 1 to 2 do
    match Admission.request adm ~session:2 (fp_of "b" [ w "x" ]) with
    | Admission.Denied -> ()
    | _ -> Alcotest.fail "in-budget conflict not denied"
  done;
  (match Admission.request adm ~session:2 (fp_of "b" [ w "x" ]) with
  | Admission.Overloaded Admission.Retry_budget -> ()
  | _ -> Alcotest.fail "exhausted budget did not shed");
  Alcotest.(check int) "shed counted" 1 (Stats.snapshot stats).Stats.sheds

(* A two-node cluster the detector can actually probe: the node answers
   heartbeats from its transport dispatcher, and the fault plan lets the
   test crash and revive it. *)
let health_fixture () =
  let cluster = Cluster.create () in
  let node = Cluster.add_node cluster ~site:1 () in
  Cluster.install_faults cluster (Fault_plan.create ());
  let h =
    Health.create ~src:"monitor" ~registry:(Cluster.registry cluster)
      ~stats:(Cluster.stats cluster)
      (Cluster.transport cluster)
  in
  (cluster, h, Srpc_memory.Space_id.to_string (Node.id node))

let test_health_ladder () =
  let cluster, h, ep = health_fixture () in
  Health.watch h ep;
  Alcotest.(check bool) "initially available" true (Health.available h ep);
  (match Health.probe h ep with
  | Health.Alive -> ()
  | _ -> Alcotest.fail "answered probe left the peer un-alive");
  Transport.crash (Cluster.transport cluster) ep;
  (* suspect_after = 2 consecutive misses, confirm_after = 4 *)
  ignore (Health.probe h ep);
  (match Health.probe h ep with
  | Health.Suspected -> ()
  | _ -> Alcotest.fail "2 misses did not suspect");
  Alcotest.(check bool) "suspected peer unavailable" false
    (Health.available h ep);
  ignore (Health.probe h ep);
  (match Health.probe h ep with
  | Health.Dead -> ()
  | _ -> Alcotest.fail "4 misses did not confirm death");
  Transport.revive (Cluster.transport cluster) ep;
  (match Health.probe h ep with
  | Health.Alive -> ()
  | _ -> Alcotest.fail "answered probe did not revive the peer");
  Alcotest.(check int) "revival recorded" 1 (Health.revivals h ep);
  let snap = Cluster.snapshot cluster in
  Alcotest.(check int) "every probe counted" 6 snap.Stats.heartbeats_sent;
  Alcotest.(check int) "one suspicion counted" 1 snap.Stats.suspicions

let test_health_observe () =
  (* ground-truth crash/revive marks fold into the detector without
     waiting out a probe cycle *)
  let cluster, h, ep = health_fixture () in
  Health.watch h ep;
  let trace = Trace.create () in
  Transport.set_trace (Cluster.transport cluster) (Some trace);
  Transport.crash (Cluster.transport cluster) ep;
  let cursor = Health.observe h trace ~from:0 in
  (match Health.state h ep with
  | Health.Dead -> ()
  | _ -> Alcotest.fail "crash mark did not mark the peer dead");
  Transport.revive (Cluster.transport cluster) ep;
  ignore (Health.observe h trace ~from:cursor);
  (match Health.state h ep with
  | Health.Alive -> ()
  | _ -> Alcotest.fail "revive mark's confirming probe did not restore");
  Alcotest.(check int) "revival recorded" 1 (Health.revivals h ep)

(* [observe] reads only what follows its cursor: over a 100,000-event
   trace with nothing new it allocates next to nothing (reading the
   whole trace costs about 300,000 minor words), and a crash mark
   recorded after the cursor still marks the watched peer dead. *)
let test_health_observe_reads_only_new () =
  let cluster, h, ep = health_fixture () in
  Health.watch h ep;
  let trace = Trace.create () in
  Transport.set_trace (Cluster.transport cluster) (Some trace);
  for i = 1 to 100_000 do
    Trace.mark trace ~at:(float_of_int i) ~src:"other" (Trace.Session_begin i)
  done;
  let cursor = Health.observe h trace ~from:0 in
  Alcotest.(check int) "cursor at the end" 100_000 cursor;
  let w0 = Gc.minor_words () in
  let again = Health.observe h trace ~from:cursor in
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "nothing new" cursor again;
  if words >= 1000. then
    Alcotest.failf "%.0f minor words to observe nothing new" words;
  Transport.crash (Cluster.transport cluster) ep;
  Alcotest.(check int) "cursor past the crash mark" (cursor + 1)
    (Health.observe h trace ~from:cursor);
  match Health.state h ep with
  | Health.Dead -> ()
  | _ -> Alcotest.fail "crash mark after the cursor did not mark the peer dead"

let test_admission_breaker () =
  let cluster, h, ep = health_fixture () in
  Health.watch h ep;
  let stats = Cluster.stats cluster in
  let adm = Admission.create ~retry_budget:3 ~health:h stats in
  Transport.crash (Cluster.transport cluster) ep;
  ignore (Health.probe h ep);
  ignore (Health.probe h ep);
  (* suspected: the breaker must refuse sessions naming the peer... *)
  (match Admission.request adm ~peers:[ ep ] ~session:1 (fp_of "a" [ w "x" ]) with
  | Admission.Overloaded (Admission.Dead_peer e) ->
    Alcotest.(check string) "names the dead peer" ep e
  | _ -> Alcotest.fail "breaker did not trip on a suspected peer");
  (* ...without charging the session's retry budget *)
  (match Admission.request adm ~peers:[ ep ] ~session:1 (fp_of "a" [ w "x" ]) with
  | Admission.Overloaded (Admission.Dead_peer _) -> ()
  | _ -> Alcotest.fail "second breaker trip expected");
  let snap = Stats.snapshot stats in
  Alcotest.(check int) "trips counted" 2 snap.Stats.breaker_trips;
  Alcotest.(check int) "trips are not sheds" 0 snap.Stats.sheds;
  (* a session not touching the peer is unaffected *)
  (match Admission.request adm ~session:2 (fp_of "b" [ w "y" ]) with
  | Admission.Admitted -> ()
  | _ -> Alcotest.fail "breaker blocked an unrelated session");
  Transport.revive (Cluster.transport cluster) ep;
  ignore (Health.probe h ep);
  match Admission.request adm ~peers:[ ep ] ~session:1 (fp_of "a" [ w "x" ]) with
  | Admission.Admitted -> ()
  | _ -> Alcotest.fail "breaker still open after confirmed revival"

(* {1 Traffic} *)

let small = { Traffic.default with Traffic.sessions_per_client = 3 }

let test_traffic_deterministic () =
  let a = Traffic.run small and b = Traffic.run small in
  if a <> b then Alcotest.fail "same config+seed gave two different results"

let test_traffic_disjoint_speedup () =
  let cmp = Traffic.compare_runs Traffic.default in
  let c = cmp.Traffic.concurrent in
  Alcotest.(check int) "all sessions committed" c.Traffic.r_sessions
    c.Traffic.r_committed;
  Alcotest.(check int) "no races" 0 c.Traffic.r_race_errors;
  Alcotest.(check int) "no protocol violations" 0 c.Traffic.r_proto_errors;
  Alcotest.(check int) "no validation failures" 0
    c.Traffic.r_validation_failed;
  if cmp.Traffic.speedup < 2.0 then
    Alcotest.failf
      "8 disjoint clients only reached %.2fx the serialized throughput"
      cmp.Traffic.speedup

let test_traffic_contended_queue () =
  let cfg =
    { small with Traffic.contention = Traffic.Hot;
      policy = Strategy.Queue_conflicts }
  in
  let res = Traffic.run cfg in
  Alcotest.(check int) "all sessions committed" res.Traffic.r_sessions
    res.Traffic.r_committed;
  if res.Traffic.r_queued = 0 then
    Alcotest.fail "hot contention never queued a session";
  Alcotest.(check int) "no races" 0 res.Traffic.r_race_errors;
  Alcotest.(check int) "no protocol violations" 0 res.Traffic.r_proto_errors

let test_traffic_contended_abort_retry () =
  let cfg =
    { small with Traffic.contention = Traffic.Hot;
      policy = Strategy.Abort_retry }
  in
  let res = Traffic.run cfg in
  Alcotest.(check int) "all sessions committed" res.Traffic.r_sessions
    res.Traffic.r_committed;
  if res.Traffic.r_denied = 0 then
    Alcotest.fail "hot contention never denied a session";
  if res.Traffic.r_retried = 0 then
    Alcotest.fail "denied sessions were never credited as retried";
  Alcotest.(check int) "no races" 0 res.Traffic.r_race_errors;
  Alcotest.(check int) "no protocol violations" 0 res.Traffic.r_proto_errors

(* An admitted session's close records the prefetch outcomes of the
   entries it pinned, as an unadmitted session's close always did:
   [Traffic.default]'s closes drop 632 bytes of prefetch nothing
   touched. *)
let test_admitted_close_records_outcomes () =
  let o = Traffic.open_loop ~name:"outcomes" ~horizon:Float.infinity Traffic.default in
  Alcotest.(check int) "wasted prefetch bytes" 632
    o.Traffic.o_stats.Stats.wasted_prefetch_bytes

(* The reordered-invalidation defect takes effect under admission too:
   invalidated copies survive into later sessions, and the race checker
   sees the stale reads. *)
let test_reorder_invalidate_caught_under_admission () =
  Node.chaos_reorder_invalidate := true;
  let r =
    Fun.protect
      ~finally:(fun () -> Node.chaos_reorder_invalidate := false)
      (fun () -> Traffic.run { Traffic.default with Traffic.seed = 2 })
  in
  if r.Traffic.r_race_errors = 0 then
    Alcotest.fail "Race_lint missed the stale copies the defect left behind"

(* Dropping an admitted session unmaps every cache page it emptied: N
   admitted sessions, each caching the whole tree at the callee, leave
   no cache page mapped there. Each once stayed mapped for the node's
   life. *)
let test_admitted_drops_unmap_pages () =
  let cluster = Cluster.create () in
  let a = Cluster.add_node cluster ~site:1 () in
  let b = Cluster.add_node cluster ~site:2 () in
  Srpc_workloads.Tree.register_types cluster;
  let root = Srpc_workloads.Tree.build a ~depth:4 in
  Node.register b "visit" (fun node args ->
      let visited, _ =
        Srpc_workloads.Tree.visit node (Access.of_value (List.hd args))
          ~limit:max_int
      in
      [ Value.int visited ]);
  let adm = Admission.create (Cluster.stats cluster) in
  let sessions = 64 in
  for _ = 1 to sessions do
    let id = Node.reserve_session a in
    (match Node.request_admission a adm ~id ~footprint:(fp_of "tree" [ w "tree" ]) with
    | Admission.Admitted -> ()
    | _ -> Alcotest.fail "a lone session was not admitted");
    (match Node.call a ~dst:(Node.id b) "visit" [ Access.to_value root ] with
    | [ v ] -> Alcotest.(check int) "visits every node" 15 (Value.to_int v)
    | _ -> Alcotest.fail "visit returned no count");
    match Node.end_session_validated a adm with
    | `Committed, [] -> ()
    | _ -> Alcotest.fail "the close did not commit alone"
  done;
  let space = Node.space b in
  let cache_pages =
    List.filter
      (fun page -> Cache.in_region (Node.cache b) (Address_space.page_base space page))
      (Address_space.mapped_pages space)
  in
  Alcotest.(check int) "cache pages mapped at the callee" 0 (List.length cache_pages)

(* {1 The shared counter: no lost update} *)

let test_counter_serializes () =
  List.iter
    (fun policy ->
      let o = Traffic.run_counter ~clients:6 ~policy () in
      Alcotest.(check int) "every client committed" 6 o.Traffic.k_committed;
      Alcotest.(check int) "final = committed bumps" o.Traffic.k_committed
        o.Traffic.k_final;
      Alcotest.(check int) "no validation failures" 0
        o.Traffic.k_validation_failures;
      Alcotest.(check int) "no races" 0 o.Traffic.k_race_errors;
      Alcotest.(check int) "no protocol violations" 0 o.Traffic.k_proto_errors)
    [ Strategy.Queue_conflicts; Strategy.Abort_retry ]

let test_counter_chaos_detected () =
  (* bypassing admission makes the bump sessions overlap: validation
     must abort every loser (no lost update — the counter still ends at
     the committed count) and both linters must flag the overlap *)
  let o =
    Traffic.run_counter ~chaos:true ~clients:6 ~policy:Strategy.Queue_conflicts
      ()
  in
  Alcotest.(check int) "every client eventually committed" 6
    o.Traffic.k_committed;
  Alcotest.(check int) "final = committed bumps (no lost update)"
    o.Traffic.k_committed o.Traffic.k_final;
  if o.Traffic.k_validation_failures = 0 then
    Alcotest.fail "overlapping bumps never failed validation";
  if o.Traffic.k_race_errors = 0 then
    Alcotest.fail "Race_lint missed the chaos-admitted overlap (CC101)";
  if o.Traffic.k_proto_errors = 0 then
    Alcotest.fail "the protocol linter missed the overlap (SP008)"

(* {1 The chaos soak: recovery and overload protection, end to end} *)

(* A scaled-down chaos config that still exercises the full recovery
   path: two crash/revive cycles inside the horizon, drops on, recovery
   demonstrably fired (pinned by seed 0's schedule). *)
let soak_chaos =
  { Soak.default with Soak.horizon = 80.0; crash_period = 20.0 }

let test_soak_deterministic () =
  let a = Soak.run soak_chaos and b = Soak.run soak_chaos in
  if a <> b then Alcotest.fail "same config gave two different soak results"

let test_soak_recovery () =
  let r = Soak.run soak_chaos in
  Alcotest.(check int) "every session committed" r.Soak.s_sessions
    r.Soak.s_committed;
  Alcotest.(check int) "no lost updates" 0 r.Soak.s_validation_failed;
  Alcotest.(check int) "no races" 0 r.Soak.s_race_errors;
  Alcotest.(check int) "no protocol violations" 0 r.Soak.s_proto_errors;
  if r.Soak.s_crashes = 0 then Alcotest.fail "chaos schedule never ran";
  Alcotest.(check int) "every crash revived" r.Soak.s_crashes
    r.Soak.s_revives;
  if r.Soak.s_heartbeats = 0 then
    Alcotest.fail "the failure detector never probed";
  if r.Soak.s_recovered = 0 then
    Alcotest.fail "no session aborted by a crash was replayed to commit";
  Alcotest.(check int) "Stats.recoveries agrees" r.Soak.s_recovered
    r.Soak.s_recoveries;
  if r.Soak.s_breaker_trips = 0 then
    Alcotest.fail "the circuit breaker never held a session back"

(* Deliberately overloaded: hot contention against a tiny queue and
   budget. *)
let soak_overload =
  {
    Soak.default with
    Soak.contention = Traffic.Hot;
    horizon = 60.0;
    rate = 1.0;
    crash_period = 16.0;
    queue_cap = 2;
    retry_budget = 6;
  }

let test_soak_overload_sheds () =
  (* the controller must shed (typed, counted), never corrupt — and the
     accounting must close: every session either committed or was
     abandoned by its client *)
  List.iter
    (fun policy ->
      let r = Soak.run { soak_overload with Soak.policy } in
      if r.Soak.s_sheds = 0 then
        Alcotest.fail "overload never shed a session";
      Alcotest.(check int) "accounting closes" r.Soak.s_sessions
        (r.Soak.s_committed + r.Soak.s_failed);
      Alcotest.(check int) "no lost updates" 0 r.Soak.s_validation_failed;
      Alcotest.(check int) "no races" 0 r.Soak.s_race_errors;
      Alcotest.(check int) "no protocol violations" 0 r.Soak.s_proto_errors)
    [ Strategy.Queue_conflicts; Strategy.Abort_retry ]

let test_soak_stale_session_purge () =
  (* a server that was down when a session aborted keeps that session's
     pinned cache entries; the replay must not read through them. Once
     raised Not_found in a server procedure. *)
  let r = Soak.run { Soak.default with Soak.seed = 15181601631; horizon = 120.0 } in
  Alcotest.(check int) "every session committed" r.Soak.s_sessions
    r.Soak.s_committed;
  Alcotest.(check int) "no races" 0 r.Soak.s_race_errors;
  Alcotest.(check int) "no protocol violations" 0 r.Soak.s_proto_errors

let test_soak_baseline_fault_free () =
  (* the fault-free baseline installs no fault plan and no detector:
     zero heartbeats, zero suspicions, zero chaos *)
  let b = Soak.baseline soak_chaos in
  Alcotest.(check int) "no crashes" 0 b.Soak.s_crashes;
  Alcotest.(check int) "no heartbeats" 0 b.Soak.s_heartbeats;
  Alcotest.(check int) "no suspicions" 0 b.Soak.s_suspicions;
  Alcotest.(check int) "no aborts" 0 b.Soak.s_aborts;
  Alcotest.(check int) "every session committed" b.Soak.s_sessions
    b.Soak.s_committed

(* {1 The open-loop engine, pinned}

   Each cell digests one whole result, every field printed; floats go
   through [%h] (exact hex), so the digests are the same on every
   compiler. A change to the scheduler, the job generator, the cluster
   setup or the arming that moves any field shows up here. *)

let traffic_line (r : Traffic.result) =
  Printf.sprintf
    "sessions=%d committed=%d aborted=%d makespan=%h throughput=%h p50=%h \
     p95=%h p99=%h admitted=%d queued=%d denied=%d retried=%d \
     validation_failed=%d race=%d proto=%d"
    r.Traffic.r_sessions r.Traffic.r_committed r.Traffic.r_aborted
    r.Traffic.r_makespan r.Traffic.r_throughput r.Traffic.r_p50
    r.Traffic.r_p95 r.Traffic.r_p99 r.Traffic.r_admitted r.Traffic.r_queued
    r.Traffic.r_denied r.Traffic.r_retried r.Traffic.r_validation_failed
    r.Traffic.r_race_errors r.Traffic.r_proto_errors

let soak_line (r : Soak.result) =
  Printf.sprintf
    "sessions=%d committed=%d failed=%d aborts=%d recovered=%d completion=%h \
     makespan=%h throughput=%h p50=%h p95=%h p99=%h crashes=%d revives=%d \
     heartbeats=%d suspicions=%d sheds=%d breaker_trips=%d recoveries=%d \
     queued=%d retried=%d validation_failed=%d race=%d proto=%d"
    r.Soak.s_sessions r.Soak.s_committed r.Soak.s_failed r.Soak.s_aborts
    r.Soak.s_recovered r.Soak.s_completion r.Soak.s_makespan
    r.Soak.s_throughput r.Soak.s_p50 r.Soak.s_p95 r.Soak.s_p99
    r.Soak.s_crashes r.Soak.s_revives r.Soak.s_heartbeats r.Soak.s_suspicions
    r.Soak.s_sheds r.Soak.s_breaker_trips r.Soak.s_recoveries r.Soak.s_queued
    r.Soak.s_retried r.Soak.s_validation_failed r.Soak.s_race_errors
    r.Soak.s_proto_errors

let engine_cells =
  let traffic name cfg digest =
    (name, digest, fun () -> traffic_line (Traffic.run cfg))
  in
  let soak name cfg digest = (name, digest, fun () -> soak_line (Soak.run cfg)) in
  let hot policy = { small with Traffic.contention = Traffic.Hot; policy } in
  [
    traffic "traffic default" Traffic.default
      "21fd47eefe5673945acb166e3e0a0495";
    traffic "traffic hot, queue" (hot Strategy.Queue_conflicts)
      "029e4e28f9c03d5135fa5c3ee7f27c63";
    traffic "traffic hot, abort-retry" (hot Strategy.Abort_retry)
      "fbfe4323c1e6d296b6c828268294127a";
    traffic "traffic-hot at 1/10 size"
      {
        Traffic.default with
        Traffic.contention = Traffic.Hot;
        sessions_per_client = 25;
        rate = 9.0;
      }
      "5d27eb1fa0d2b9547d372d6cdbd4a5ab";
    ( "serialized default", "57df1e3a6c3987b512ac99202f1007d9",
      fun () -> traffic_line (Traffic.run_serialized Traffic.default) );
    soak "soak h80, crash period 20" soak_chaos
      "236ff92fe2393d131801b75a6346794f";
    soak "soak h30, no crashes"
      { Soak.default with Soak.horizon = 30.0; crash_period = 0.0 }
      "b1c0a9039f09115497a93a0202235b15";
    soak "soak overload, queue"
      { soak_overload with Soak.policy = Strategy.Queue_conflicts }
      "dca6dd192b5c7f6d83d9cb159e4ce5bc";
    soak "soak overload, abort-retry"
      { soak_overload with Soak.policy = Strategy.Abort_retry }
      "5ddd0fd07aa03231d7c82ba773d8cbf4";
    ( "soak baseline h80", "f041fc8c96d27a237f1ad50fc2973f1a",
      fun () -> soak_line (Soak.baseline soak_chaos) );
  ]

let engine_tests =
  List.map
    (fun (name, digest, line) ->
      Alcotest.test_case name `Quick (fun () ->
          let l = line () in
          Alcotest.(check string) l digest (Digest.to_hex (Digest.string l))))
    engine_cells

(* {1 Single-session byte identity} *)

(* Digest of the full pp'd traces of five unfaulted checker runs,
   computed on the tree immediately before concurrent admission was
   added. Unadmitted sessions ([Node.begin_session]) must keep producing
   these exact bytes. *)
let pre_pr_fingerprint = "26a0510b3f30e198c808bc999dc63a64"

let test_single_session_fingerprint () =
  let buf = Buffer.create 65536 in
  List.iter
    (fun seed ->
      let script = Gen.script ~seed ~depth:12 ~fault:None in
      let plan = Script.resolve script in
      let out = Interp.run plan in
      Buffer.add_string buf
        (Format.asprintf "%a" Trace.pp out.Interp.trace))
    [ 0; 2; 3; 4; 6 ];
  let got = Digest.to_hex (Digest.string (Buffer.contents buf)) in
  Alcotest.(check string) "single-session traces byte-identical to pre-PR"
    pre_pr_fingerprint got

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "traffic"
    [
      ( "admission",
        [
          tc "disjoint footprints admit" `Quick test_admission_disjoint;
          tc "conflicts queue FIFO, no barging" `Quick
            test_admission_queue_fifo;
          tc "abort-retry denies then admits" `Quick
            test_admission_abort_retry;
          tc "optimistic validation" `Quick test_admission_validation;
          tc "capped exponential backoff" `Quick test_backoff;
        ] );
      ( "overload",
        [
          tc "bounded queue sheds" `Quick test_admission_queue_cap;
          tc "retry budget sheds" `Quick test_admission_retry_budget;
          tc "health probe ladder" `Quick test_health_ladder;
          tc "health folds trace marks" `Quick test_health_observe;
          tc "health observe reads only new events" `Quick
            test_health_observe_reads_only_new;
          tc "circuit breaker holds until revival" `Quick
            test_admission_breaker;
        ] );
      ( "traffic",
        [
          tc "runs are deterministic" `Quick test_traffic_deterministic;
          tc "8 disjoint clients >= 2x serialized" `Quick
            test_traffic_disjoint_speedup;
          tc "hot contention queues" `Quick test_traffic_contended_queue;
          tc "hot contention abort-retries" `Quick
            test_traffic_contended_abort_retry;
          tc "admitted close records prefetch outcomes" `Quick
            test_admitted_close_records_outcomes;
          tc "reordered invalidation caught under admission" `Quick
            test_reorder_invalidate_caught_under_admission;
          tc "admitted drops unmap emptied cache pages" `Quick
            test_admitted_drops_unmap_pages;
        ] );
      ( "counter",
        [
          tc "admission serializes the bumps" `Quick test_counter_serializes;
          tc "chaos overlap caught, no lost update" `Quick
            test_counter_chaos_detected;
        ] );
      ( "soak",
        [
          tc "runs are deterministic" `Quick test_soak_deterministic;
          tc "crash recovery replays to commit" `Quick test_soak_recovery;
          tc "overload sheds, never corrupts" `Quick
            test_soak_overload_sheds;
          tc "fault-free baseline is chaos-free" `Quick
            test_soak_baseline_fault_free;
          tc "missed abort purged on next contact" `Quick
            test_soak_stale_session_purge;
        ] );
      ("engine", engine_tests);
      ( "identity",
        [
          tc "single-session trace fingerprint" `Quick
            test_single_session_fingerprint;
        ] );
    ]
