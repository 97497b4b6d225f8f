(* srpc-traffic: the open-loop concurrent-session traffic generator,
   and the engine the chaos soak runs on. traffic.mli documents the
   time model: one virtual clock meters every operation, the scheduler
   runs one resolved op at a time and charges its clock delta to the
   issuing client's logical timeline, so clients overlap as independent
   machines would while the execution interleaves op-atomically. Every
   random choice flows through the seeded splitmix in [Rng]; session
   bodies come from [Gen.session_script] and run through
   [Interp.exec_rop], the model checker's own interpreter. *)

open Srpc_core
open Srpc_memory
open Srpc_simnet
open Srpc_analysis
open Srpc_check

type contention = Disjoint | Hot

type config = {
  clients : int;  (** client (per-session ground) nodes, >= 1 *)
  servers : int;  (** server (worker) nodes, 2..8 *)
  rate : float;  (** session arrivals per virtual second, per client *)
  mix : Script.kind list;  (** workload kinds cycled across sessions *)
  sessions_per_client : int;
  depth : int;  (** ops per session script *)
  seed : int;
  policy : Strategy.admission_policy;
  contention : contention;
}

let default =
  {
    clients = 8;
    servers = 4;
    rate = 400.0;
    mix = [ Script.KList; Script.KTree ];
    sessions_per_client = 4;
    depth = 6;
    seed = 0;
    policy = Strategy.Queue_conflicts;
    contention = Disjoint;
  }

type result = {
  r_sessions : int;
  r_committed : int;
  r_aborted : int;
  r_makespan : float;  (** virtual seconds, max over client timelines *)
  r_throughput : float;  (** committed sessions per virtual second *)
  r_p50 : float;
  r_p95 : float;
  r_p99 : float;
  r_admitted : int;
  r_queued : int;
  r_denied : int;
  r_retried : int;
  r_validation_failed : int;
  r_race_errors : int;
  r_proto_errors : int;
}

let percentile sorted p =
  match Array.length sorted with
  | 0 -> 0.0
  | n -> sorted.(min (n - 1) (int_of_float (p *. float_of_int (n - 1) +. 0.5)))

(* {1 The open-loop engine}

   [run] arms nothing; [Soak.run] arms a fault plan, a detector,
   overload bounds, a give-up bound and planned outages. *)

(* One pre-generated session: arrival offset on its client's timeline
   plus the resolved plan. *)
type job = { j_arrival : float; j_plan : Script.plan }

(* Poisson arrivals on one client's timeline until [sessions_per_client]
   sessions or the first arrival at or past [horizon]. Open loop: the
   offered load never reacts to the run, so sessions keep arriving
   during outages. *)
let gen_jobs ?(horizon = Float.infinity) cfg ~client =
  let arr_rng = Rng.create (cfg.seed lxor ((client + 1) * 0x9e3779b9)) in
  let mixn = max 1 (List.length cfg.mix) in
  let rec go s t acc =
    if s >= cfg.sessions_per_client then List.rev acc
    else
      let u = min 0.999_999 (Rng.float arr_rng) in
      let t = t +. (-.log (1.0 -. u) /. cfg.rate) in
      if t >= horizon then List.rev acc
      else
        let kind =
          if cfg.mix = [] then Script.KList
          else List.nth cfg.mix ((client + s) mod mixn)
        in
        let script =
          Gen.session_script
            ~seed:((cfg.seed * 7919) + (client * 104729) + s)
            ~depth:cfg.depth
            ~workers:(min 3 cfg.servers)
            ~kind ~fault:None
        in
        go (s + 1) t ({ j_arrival = t; j_plan = Script.resolve script } :: acc)
  in
  go 0 0.0 []

let job_footprint cfg ~name ~client =
  let root =
    match cfg.contention with
    | Disjoint -> Printf.sprintf "client%d" client
    | Hot -> "hot"
  in
  Footprint.session
    ~label:(Printf.sprintf "%s[c%d]" name client)
    [ { Footprint.root; path = "*"; mode = Footprint.Write } ]

type outage = Crash of int | Revive of int

type arming = {
  a_faults : Cluster.t -> Node.t list -> Health.t option;
  a_queue_cap : int;
  a_retry_budget : int;
  a_give_up : int option;
  a_outages : (float * outage) list;
}

let unarmed =
  {
    a_faults = (fun _ _ -> None);
    a_queue_cap = max_int;
    a_retry_budget = max_int;
    a_give_up = None;
    a_outages = [];
  }

(* The simulated installation: one cluster, client grounds at sites
   1..C, servers at sites C+1.., heterogeneous server architectures,
   one concurrent-mode strategy for everyone. The arming's fault plan
   and detector go in once the servers exist, before the admission
   controller that consults the detector. *)
type setup = {
  su_cluster : Cluster.t;
  su_grounds : Node.t array;
  su_servers : Node.t list;
  su_health : Health.t option;
  su_adm : Admission.t;
  su_trace : Trace.t;
}

let build_setup ?(arming = unarmed) ~name cfg =
  let who = String.capitalize_ascii name in
  if cfg.clients < 1 then invalid_arg (who ^ ": clients must be >= 1");
  if cfg.servers < 2 || cfg.servers > 8 then
    invalid_arg (who ^ ": servers must be in 2..8");
  let cluster = Cluster.create () in
  let strats = Gen.concurrent_strategies in
  let strategy =
    Interp.strategy_table.(strats.(abs cfg.seed mod Array.length strats))
  in
  let grounds =
    Array.init cfg.clients (fun c ->
        Cluster.add_node cluster ~site:(c + 1) ~strategy ())
  in
  let servers =
    List.init cfg.servers (fun s ->
        Cluster.add_node cluster
          ~site:(cfg.clients + 1 + s)
          ~arch:Interp.arch_table.(s mod Array.length Interp.arch_table)
          ~strategy ())
  in
  Srpc_workloads.Linked_list.register_types cluster;
  Srpc_workloads.Tree.register_types cluster;
  Srpc_workloads.Graph.register_types cluster;
  Srpc_workloads.Matrix.register_types cluster;
  Array.iter (fun g -> Interp.register_procs ~ground:g servers) grounds;
  let trace = Trace.create () in
  Transport.set_trace (Cluster.transport cluster) (Some trace);
  let health = arming.a_faults cluster servers in
  let adm =
    Admission.create ~policy:cfg.policy ~queue_cap:arming.a_queue_cap
      ~retry_budget:arming.a_retry_budget ?health (Cluster.stats cluster)
  in
  { su_cluster = cluster; su_grounds = grounds; su_servers = servers;
    su_health = health; su_adm = adm; su_trace = trace }

(* Each client sees the server pool rotated by its own index, so load
   spreads without any client-to-server affinity logic. *)
let rotated_servers setup ~client ~count =
  let servers = setup.su_servers in
  let n = List.length servers in
  List.init (min count n) (fun i -> List.nth servers ((i + client) mod n))

let finish_result setup ~sessions ~committed ~makespan ~latencies =
  let snap = Cluster.snapshot setup.su_cluster in
  let lat = Array.of_list latencies in
  Array.sort compare lat;
  let errors ds = List.length (List.filter Diagnostic.is_error ds) in
  {
    r_sessions = sessions;
    r_committed = committed;
    r_aborted = sessions - committed;
    r_makespan = makespan;
    r_throughput =
      (if makespan > 0.0 then float_of_int committed /. makespan else 0.0);
    r_p50 = percentile lat 0.50;
    r_p95 = percentile lat 0.95;
    r_p99 = percentile lat 0.99;
    r_admitted = snap.Stats.sessions_admitted;
    r_queued = snap.Stats.sessions_queued;
    r_denied = snap.Stats.sessions_aborted;
    r_retried = snap.Stats.sessions_retried;
    r_validation_failed = snap.Stats.validations_failed;
    r_race_errors = errors (Race_lint.check setup.su_trace);
    r_proto_errors = errors (Proto_lint.check setup.su_trace);
  }

type outcome = {
  o_result : result;
  o_failed : int;
  o_aborts : int;
  o_recovered : int;
  o_crashes : int;
  o_revives : int;
  o_stats : Stats.snapshot;
}

type cstate = Idle | Wait | Running | Parked | Done

(* The journal is the session's whole resolved op stream; recovery is
   "re-admit under a fresh id, reset the object table, replay from the
   top". [cur_total] spans recovery cycles — the client-side give-up
   bound — while [cur_attempt] drives the backoff ladder. *)
type current = {
  mutable cur_id : int;
  cur_env : Interp.env;
  cur_arrival : float;  (** original arrival: recovery time counts *)
  cur_journal : Script.rop list;
  mutable cur_rops : Script.rop list;
  mutable cur_attempt : int;
  mutable cur_total : int;
  mutable cur_recovering : bool;  (** aborted at least once *)
}

type client = {
  cl_idx : int;
  cl_ground : Node.t;
  cl_fp : Footprint.t;
  mutable cl_peers : string list;  (** this session's server endpoints *)
  mutable cl_time : float;
  mutable cl_state : cstate;
  mutable cl_jobs : job list;
  mutable cl_current : current option;
}

exception Stuck

let open_loop ?(arming = unarmed) ~name ~horizon cfg =
  let setup = build_setup ~arming ~name cfg in
  let cluster = setup.su_cluster in
  let ep node = Space_id.to_string (Node.id node) in
  let health_cursor = ref 0 in
  let observe_health () =
    match setup.su_health with
    | None -> ()
    | Some h ->
      health_cursor := Health.observe h setup.su_trace ~from:!health_cursor
  in
  let committed = ref 0
  and failed = ref 0
  and aborts = ref 0
  and recovered = ref 0
  and crashes = ref 0
  and revives = ref 0
  and latencies = ref [] in
  let clients =
    Array.mapi
      (fun c ground ->
        {
          cl_idx = c;
          cl_ground = ground;
          cl_fp = job_footprint cfg ~name ~client:c;
          cl_peers = [];
          cl_time = 0.0;
          cl_state = Idle;
          cl_jobs = gen_jobs ~horizon cfg ~client:c;
          cl_current = None;
        })
      setup.su_grounds
  in
  let find_by_sid sid =
    let holds cl =
      Option.fold ~none:false ~some:(fun cur -> cur.cur_id = sid) cl.cl_current
    in
    match Array.find_opt holds clients with
    | Some cl -> cl
    | None ->
      invalid_arg
        (String.capitalize_ascii name ^ ": drain admitted an unknown session")
  in
  (* A drained waiter resumes no earlier than the close that unblocked
     it: its logical clock jumps to the closer's. *)
  let start_waiters ~closer waiters =
    List.iter
      (fun (sid, _fp) ->
        let cl = find_by_sid sid in
        Node.start_admitted cl.cl_ground ~id:sid;
        cl.cl_time <- Float.max cl.cl_time closer.cl_time;
        cl.cl_state <- Running)
      waiters
  in
  let finish_session cl =
    cl.cl_current <- None;
    cl.cl_jobs <- List.tl cl.cl_jobs;
    cl.cl_state <- Idle
  in
  (* Re-probe this session's unavailable peers before asking again:
     heartbeats keep flowing while the breaker holds, and the first
     answered probe after the revival releases it. *)
  let probe_dead cl =
    match setup.su_health with
    | None -> ()
    | Some h ->
      List.iter
        (fun e -> if not (Health.available h e) then ignore (Health.probe h e))
        cl.cl_peers
  in
  let request cl cur =
    observe_health ();
    cur.cur_total <- cur.cur_total + 1;
    match arming.a_give_up with
    | Some bound when cur.cur_total > bound ->
      incr failed;
      finish_session cl
    | _ -> (
      probe_dead cl;
      match
        Node.request_admission ~peers:cl.cl_peers cl.cl_ground setup.su_adm
          ~id:cur.cur_id ~footprint:cl.cl_fp
      with
      | Admission.Admitted -> cl.cl_state <- Running
      | Admission.Queued -> cl.cl_state <- Parked
      | (Admission.Denied | Admission.Overloaded _) as d ->
        (* a typed shed is terminal for this request. The retry keeps
           the reserved id (a later success emits its own fresh admit
           mark, per SP009) but backs off harder than a plain denial. *)
        let base = match d with Admission.Denied -> 1e-4 | _ -> 2e-3 in
        cur.cur_attempt <- cur.cur_attempt + 1;
        cl.cl_time <-
          cl.cl_time
          +. Admission.backoff_delay ~session:cur.cur_id
               ~attempt:cur.cur_attempt ~base;
        cl.cl_state <- Wait)
  in
  (* Retry under a fresh id, replaying the journal from its first op: an
     aborted or invalidated attempt committed nothing, so replay-once is
     exactly-once. The burnt id keeps the trace's id space unambiguous. *)
  let replay cl cur =
    cur.cur_id <- Node.reserve_session cl.cl_ground;
    cur.cur_rops <- cur.cur_journal;
    Hashtbl.reset cur.cur_env.Interp.e_objs;
    request cl cur
  in
  (* A mid-session abort (a crash, an exhausted retry) surrenders the
     admission slot before the replay. *)
  let abort_and_recover cl cur =
    incr aborts;
    start_waiters ~closer:cl
      (Admission.close ~committed:false setup.su_adm ~session:cur.cur_id);
    cur.cur_recovering <- true;
    replay cl cur
  in
  let timed cl f =
    let t0 = Cluster.now cluster in
    let r = f () in
    cl.cl_time <- cl.cl_time +. (Cluster.now cluster -. t0);
    r
  in
  let step cl =
    match cl.cl_state with
    | Done | Parked -> ()
    | Idle -> (
      match cl.cl_jobs with
      | [] -> cl.cl_state <- Done
      | job :: _ ->
        cl.cl_time <- Float.max cl.cl_time job.j_arrival;
        let ws =
          rotated_servers setup ~client:cl.cl_idx
            ~count:job.j_plan.Script.p_workers
        in
        cl.cl_peers <- List.map ep ws;
        let cur =
          {
            cur_id = Node.reserve_session cl.cl_ground;
            cur_env = Interp.make_env ~cluster ~ground:cl.cl_ground ~workers:ws;
            cur_arrival = cl.cl_time;
            cur_journal = job.j_plan.Script.p_rops;
            cur_rops = job.j_plan.Script.p_rops;
            cur_attempt = 0;
            cur_total = 0;
            cur_recovering = false;
          }
        in
        cl.cl_current <- Some cur;
        request cl cur)
    | Wait ->
      let cur = Option.get cl.cl_current in
      request cl cur
    | Running -> (
      let cur = Option.get cl.cl_current in
      match cur.cur_rops with
      | rop :: rest -> (
        cur.cur_rops <- rest;
        try timed cl (fun () -> ignore (Interp.exec_rop cur.cur_env rop))
        with Session.Session_aborted _ -> abort_and_recover cl cur)
      | [] -> (
        match
          timed cl (fun () -> Node.end_session_validated cl.cl_ground setup.su_adm)
        with
        | `Committed, waiters ->
          incr committed;
          if cur.cur_recovering then begin
            incr recovered;
            Stats.incr_recoveries (Cluster.stats cluster)
          end;
          latencies := (cl.cl_time -. cur.cur_arrival) :: !latencies;
          start_waiters ~closer:cl waiters;
          finish_session cl
        | `Validation_failed, waiters ->
          start_waiters ~closer:cl waiters;
          replay cl cur
        | exception Session.Session_aborted _ -> abort_and_recover cl cur))
  in
  let outages = ref arming.a_outages in
  let rec apply_outages upto =
    match !outages with
    | (t, ev) :: rest when t <= upto ->
      outages := rest;
      let transport = Cluster.transport cluster in
      (match ev with
      | Crash s ->
        incr crashes;
        Transport.crash transport (ep (List.nth setup.su_servers s))
      | Revive s ->
        incr revives;
        Transport.revive transport (ep (List.nth setup.su_servers s)));
      apply_outages upto
    | _ -> ()
  in
  let total_jobs =
    Array.fold_left (fun acc cl -> acc + List.length cl.cl_jobs) 0 clients
  in
  let attempts = Option.value arming.a_give_up ~default:0 + 8 in
  let fuel = ref ((total_jobs * (cfg.depth + 16) * attempts) + 1024) in
  (* the live client furthest behind in logical time, first on ties *)
  let runnable () =
    Array.fold_left
      (fun best cl ->
        match (cl.cl_state, best) with
        | (Done | Parked), _ -> best
        | _, Some b when b.cl_time <= cl.cl_time -> best
        | _ -> Some cl)
      None clients
  in
  let all_done () = Array.for_all (fun cl -> cl.cl_state = Done) clients in
  while not (all_done ()) do
    decr fuel;
    if !fuel < 0 then raise Stuck;
    match runnable () with
    | Some cl ->
      (* planned outages fire as the earliest live timeline crosses them *)
      apply_outages cl.cl_time;
      step cl
    | None -> raise Stuck (* every live client parked: admission deadlock *)
  done;
  observe_health ();
  let makespan =
    Array.fold_left (fun acc cl -> Float.max acc cl.cl_time) 0.0 clients
  in
  {
    o_result =
      finish_result setup ~sessions:total_jobs ~committed:!committed ~makespan
        ~latencies:!latencies;
    o_failed = !failed;
    o_aborts = !aborts;
    o_recovered = !recovered;
    o_crashes = !crashes;
    o_revives = !revives;
    o_stats = Cluster.snapshot cluster;
  }

(* The open-loop concurrent run: a fixed session count per client,
   nothing armed. *)
let run cfg = (open_loop ~name:"traffic" ~horizon:Float.infinity cfg).o_result

(* The serialized baseline: the same jobs, replayed one session at a
   time on ONE accumulated timeline — what the paper's one-session
   cluster would do with this offered load. *)
let run_serialized cfg =
  let setup = build_setup ~name:"traffic" cfg in
  let cluster = setup.su_cluster in
  let jobs =
    List.concat
      (List.init cfg.clients (fun c ->
           List.map (fun j -> (c, j)) (gen_jobs cfg ~client:c)))
    |> List.stable_sort (fun (_, a) (_, b) ->
           compare a.j_arrival b.j_arrival)
  in
  let tl = ref 0.0 in
  let committed = ref 0 and latencies = ref [] in
  List.iter
    (fun (c, job) ->
      tl := Float.max !tl job.j_arrival;
      let arrival = !tl in
      let ground = setup.su_grounds.(c) in
      let env =
        Interp.make_env ~cluster ~ground
          ~workers:
            (rotated_servers setup ~client:c
               ~count:job.j_plan.Script.p_workers)
      in
      let id = Node.reserve_session ground in
      match
        Node.request_admission ground setup.su_adm ~id
          ~footprint:(job_footprint cfg ~name:"traffic" ~client:c)
      with
      | Admission.Queued | Admission.Denied | Admission.Overloaded _ ->
        (* nothing else is open on the serial timeline *)
        assert false
      | Admission.Admitted -> (
        let t0 = Cluster.now cluster in
        match
          List.iter (fun rop -> ignore (Interp.exec_rop env rop))
            job.j_plan.Script.p_rops;
          Node.end_session_validated ground setup.su_adm
        with
        | `Committed, _ ->
          tl := !tl +. (Cluster.now cluster -. t0);
          incr committed;
          latencies := (!tl -. arrival) :: !latencies
        | `Validation_failed, _ -> ()
        | exception Session.Session_aborted _ ->
          tl := !tl +. (Cluster.now cluster -. t0);
          ignore
            (Admission.close ~committed:false setup.su_adm ~session:id)))
    jobs;
  finish_result setup
    ~sessions:(cfg.clients * cfg.sessions_per_client)
    ~committed:!committed ~makespan:!tl ~latencies:!latencies

type comparison = {
  concurrent : result;
  serialized : result;
  speedup : float;
}

let compare_runs cfg =
  let concurrent = run cfg in
  let serialized = run_serialized cfg in
  let speedup =
    if serialized.r_throughput > 0.0 then
      concurrent.r_throughput /. serialized.r_throughput
    else 0.0
  in
  { concurrent; serialized; speedup }

(* {1 The shared-counter workload}

   The no-lost-update oracle in its purest form: one integer cell homed
   on a server, every client session reads it, bumps it and writes it
   back at close. Correct admission serializes the sessions, so the
   final value equals the committed-session count; with
   [Node.chaos_admit_conflicting] the sessions overlap and the close
   validation must fail every loser (who retries under a fresh id)
   while Race_lint (CC101) and the protocol linter (SP008) flag the
   overlap. *)

type counter_outcome = {
  k_clients : int;
  k_committed : int;
  k_final : int;
  k_validation_failures : int;
  k_race_errors : int;
  k_proto_errors : int;
}

let run_counter ?(chaos = false) ~clients ~policy () =
  if clients < 1 then invalid_arg "Traffic.run_counter: clients >= 1";
  let cluster = Cluster.create () in
  let strategy = Interp.strategy_table.(0) in
  let grounds =
    Array.init clients (fun c ->
        Cluster.add_node cluster ~site:(c + 1) ~strategy ())
  in
  let server = Cluster.add_node cluster ~site:(clients + 1) ~strategy () in
  Srpc_workloads.Linked_list.register_types cluster;
  let head = Srpc_workloads.Linked_list.build server [ 0 ] in
  Node.register server "tf_head" (fun _node _args ->
      [ Access.to_value head ]);
  let trace = Trace.create () in
  Transport.set_trace (Cluster.transport cluster) (Some trace);
  let adm = Admission.create ~policy (Cluster.stats cluster) in
  let fp c =
    Footprint.session
      ~label:(Printf.sprintf "counter[c%d]" c)
      [ { Footprint.root = "ctr"; path = "*"; mode = Footprint.Write } ]
  in
  let committed = ref 0 in
  let saved_chaos = !Node.chaos_admit_conflicting in
  Node.chaos_admit_conflicting := chaos;
  Fun.protect
    ~finally:(fun () -> Node.chaos_admit_conflicting := saved_chaos)
    (fun () ->
      (* per-client state machine: Request -> Fetch -> Bump -> Close *)
      let stage = Array.make clients `Request in
      let sid = Array.make clients (-1) in
      let ptr = Array.make clients None in
      let start c id =
        sid.(c) <- id;
        stage.(c) <- `Fetch
      in
      let drain waiters =
        List.iter
          (fun (id, _) ->
            let c =
              match
                Array.to_list (Array.mapi (fun i s -> (i, s)) sid)
                |> List.find_opt (fun (_, s) -> s = id)
              with
              | Some (i, _) -> i
              | None -> invalid_arg "counter: unknown drained session"
            in
            Node.start_admitted grounds.(c) ~id;
            start c id)
          waiters
      in
      let step c =
        let g = grounds.(c) in
        match stage.(c) with
        | `Done -> ()
        | `Request -> (
          let id = Node.reserve_session g in
          sid.(c) <- id;
          match Node.request_admission g adm ~id ~footprint:(fp c) with
          | Admission.Admitted -> start c id
          | Admission.Queued -> stage.(c) <- `Parked
          | Admission.Denied | Admission.Overloaded _ ->
            stage.(c) <- `Rerequest)
        | `Rerequest -> (
          (* denied-policy retries keep their reserved id, so the
             controller's deferred table credits sessions_retried *)
          match
            Node.request_admission g adm ~id:sid.(c) ~footprint:(fp c)
          with
          | Admission.Admitted -> start c sid.(c)
          | Admission.Queued -> stage.(c) <- `Parked
          | Admission.Denied | Admission.Overloaded _ ->
            stage.(c) <- `Rerequest)
        | `Parked -> ()
        | `Fetch ->
          let v = Node.call g ~dst:(Node.id server) "tf_head" [] in
          ptr.(c) <- Some (Access.of_value (List.hd v));
          stage.(c) <- `Bump
        | `Bump ->
          let p = Option.get ptr.(c) in
          let cell = Srpc_workloads.Linked_list.nth g p 0 in
          let v = Access.get_int g cell ~field:"value" in
          Access.set_int g cell ~field:"value" (v + 1);
          stage.(c) <- `Close
        | `Close -> (
          match Node.end_session_validated g adm with
          | `Committed, waiters ->
            incr committed;
            stage.(c) <- `Done;
            drain waiters
          | `Validation_failed, waiters ->
            drain waiters;
            stage.(c) <- `Request (* retry under a fresh id *))
      in
      let fuel = ref ((clients * clients * 8) + 64) in
      let all_done () = Array.for_all (fun s -> s = `Done) stage in
      while not (all_done ()) do
        decr fuel;
        if !fuel < 0 then raise Stuck;
        for c = 0 to clients - 1 do
          step c
        done
      done);
  let cell = Srpc_workloads.Linked_list.nth server head 0 in
  let final = Access.get_int server cell ~field:"value" in
  let snap = Cluster.snapshot cluster in
  let errors ds = List.length (List.filter Diagnostic.is_error ds) in
  {
    k_clients = clients;
    k_committed = !committed;
    k_final = final;
    k_validation_failures = snap.Stats.validations_failed;
    k_race_errors = errors (Race_lint.check trace);
    k_proto_errors = errors (Proto_lint.check trace);
  }
