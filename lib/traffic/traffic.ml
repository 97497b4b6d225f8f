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
  let strats = Gen.concurrent_strategies in
  let cluster, grounds, servers, trace =
    Interp.cluster ~grounds:cfg.clients
      ~arches:
        (List.init cfg.servers (fun s -> s mod Array.length Interp.arch_table))
      ~strategy:
        Interp.strategy_table.(strats.(abs cfg.seed mod Array.length strats))
      ()
  in
  let health = arming.a_faults cluster servers in
  let adm =
    Admission.create ~policy:cfg.policy ~queue_cap:arming.a_queue_cap
      ~retry_budget:arming.a_retry_budget ?health (Cluster.stats cluster)
  in
  { su_cluster = cluster; su_grounds = Array.of_list grounds;
    su_servers = servers; su_health = health; su_adm = adm; su_trace = trace }

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

(* One session on its client. The stepper's journal is the session's
   whole resolved op stream; recovery is "renew under a fresh id, reset
   the object table, replay from the top". [total] counts admission
   requests across recovery cycles — the client-side give-up bound —
   while the stepper's attempt count drives the backoff ladder. *)
type session = {
  client : client;
  env : Interp.env;
  arrival : float;  (** original arrival: recovery time counts *)
  mutable total : int;
  mutable recovering : bool;  (** aborted at least once *)
}

and client = {
  cl_idx : int;
  cl_ground : Node.t;
  cl_fp : Footprint.t;
  mutable cl_peers : string list;  (** this session's server endpoints *)
  mutable cl_time : float;
  mutable cl_jobs : job list;
  mutable cl_current : (Script.rop, session) Stepper.t option;
  mutable cl_done : bool;  (** stepped with no job left *)
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
          cl_jobs = gen_jobs ~horizon cfg ~client:c;
          cl_current = None;
          cl_done = false;
        })
      setup.su_grounds
  in
  (* A drained waiter resumes no earlier than the close that unblocked
     it: its logical clock jumps to the closer's, once the closer has
     been charged for the close. *)
  let start_waiters ~closer waiters =
    let live =
      List.filter_map (fun cl -> cl.cl_current) (Array.to_list clients)
    in
    List.iter
      (fun st ->
        let cl = (Stepper.data st).client in
        cl.cl_time <- Float.max cl.cl_time closer.cl_time)
      (Stepper.drain live waiters)
  in
  let finish_session cl =
    cl.cl_current <- None;
    cl.cl_jobs <- List.tl cl.cl_jobs
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
  let request cl st =
    observe_health ();
    let s = Stepper.data st in
    s.total <- s.total + 1;
    match arming.a_give_up with
    | Some bound when s.total > bound ->
      incr failed;
      Stepper.abandon st;
      finish_session cl
    | _ -> (
      probe_dead cl;
      match Stepper.request ~peers:cl.cl_peers st with
      | Admission.Admitted | Admission.Queued -> ()
      | (Admission.Denied | Admission.Overloaded _) as d ->
        (* a typed shed is terminal for this request. The retry keeps
           the reserved id (a later success emits its own fresh admit
           mark, per SP009) but backs off harder than a plain denial. *)
        let base = match d with Admission.Denied -> 1e-4 | _ -> 2e-3 in
        cl.cl_time <-
          cl.cl_time
          +. Admission.backoff_delay ~session:(Stepper.id st)
               ~attempt:(Stepper.attempt st) ~base)
  in
  (* Retry under a fresh id, replaying the journal from its first op: an
     aborted or invalidated attempt committed nothing, so replay-once is
     exactly-once. The burnt id keeps the trace's id space unambiguous. *)
  let replay cl st =
    Stepper.renew st;
    Hashtbl.reset (Stepper.data st).env.Interp.e_objs;
    request cl st
  in
  let start cl job =
    cl.cl_time <- Float.max cl.cl_time job.j_arrival;
    let ws =
      rotated_servers setup ~client:cl.cl_idx ~count:job.j_plan.Script.p_workers
    in
    cl.cl_peers <- List.map ep ws;
    let env = Interp.make_env ~cluster ~ground:cl.cl_ground ~workers:ws in
    let st =
      Stepper.create ~ground:cl.cl_ground setup.su_adm ~footprint:cl.cl_fp
        ~exec:(fun rop -> ignore (Interp.exec_rop env rop))
        job.j_plan.Script.p_rops
        { client = cl; env; arrival = cl.cl_time; total = 0;
          recovering = false }
    in
    cl.cl_current <- Some st;
    request cl st
  in
  (* An op's or a close's clock delta is charged to the client only when
     it returns: a mid-session abort (a crash, an exhausted retry)
     charges nothing and surrenders the admission slot before the
     replay. *)
  let run_step cl st =
    let s = Stepper.data st in
    let t0 = Cluster.now cluster in
    let charge () = cl.cl_time <- cl.cl_time +. (Cluster.now cluster -. t0) in
    match Stepper.step st with
    | Stepper.Ran -> charge ()
    | Stepper.Committed waiters ->
      charge ();
      incr committed;
      if s.recovering then begin
        incr recovered;
        Stats.incr_recoveries (Cluster.stats cluster)
      end;
      latencies := (cl.cl_time -. s.arrival) :: !latencies;
      start_waiters ~closer:cl waiters;
      finish_session cl
    | Stepper.Invalidated waiters ->
      charge ();
      start_waiters ~closer:cl waiters;
      replay cl st
    | Stepper.Aborted (_, waiters) ->
      incr aborts;
      start_waiters ~closer:cl waiters;
      s.recovering <- true;
      replay cl st
  in
  let step cl =
    match cl.cl_current with
    | None -> (
      match cl.cl_jobs with
      | [] -> cl.cl_done <- true
      | job :: _ -> start cl job)
    | Some st -> (
      match Stepper.state st with
      | Stepper.Parked | Stepper.Finished -> ()
      | Stepper.Backoff -> request cl st
      | Stepper.Running -> run_step cl st)
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
        match (cl.cl_current, best) with
        | _ when cl.cl_done -> best
        | Some st, _ when Stepper.state st = Stepper.Parked -> best
        | _, Some b when b.cl_time <= cl.cl_time -> best
        | _ -> Some cl)
      None clients
  in
  let all_done () = Array.for_all (fun cl -> cl.cl_done) clients in
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
      let st =
        Stepper.create ~ground setup.su_adm
          ~footprint:(job_footprint cfg ~name:"traffic" ~client:c)
          ~exec:(fun rop -> ignore (Interp.exec_rop env rop))
          job.j_plan.Script.p_rops ()
      in
      (* nothing else is open on the serial timeline *)
      if Stepper.request st <> Admission.Admitted then assert false;
      let t0 = Cluster.now cluster in
      let rec run () =
        match Stepper.step st with
        | Stepper.Ran -> run ()
        | Stepper.Committed _ ->
          tl := !tl +. (Cluster.now cluster -. t0);
          incr committed;
          latencies := (!tl -. arrival) :: !latencies
        | Stepper.Invalidated _ -> ()
        | Stepper.Aborted _ -> tl := !tl +. (Cluster.now cluster -. t0)
      in
      run ())
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
  k_race : Diagnostic.t list;
  k_proto : Diagnostic.t list;
}

let run_counter ?(chaos = false) ~clients ~policy () =
  if clients < 1 then invalid_arg "Traffic.run_counter: clients >= 1";
  let cluster, grounds, servers, trace =
    Interp.cluster ~grounds:clients ~arches:[ 0 ]
      ~strategy:Interp.strategy_table.(0) ()
  in
  let server = List.hd servers in
  let head = Srpc_workloads.Linked_list.build server [ 0 ] in
  Node.register server "tf_head" (fun _node _args ->
      [ Access.to_value head ]);
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
      (* each client's session: fetch the cell's list, bump the cell,
         close; a failed validation retries under a fresh id *)
      let sessions =
        List.mapi
          (fun c g ->
            let ptr = ref None in
            let exec = function
              | `Fetch ->
                let v = Node.call g ~dst:(Node.id server) "tf_head" [] in
                ptr := Some (Access.of_value (List.hd v))
              | `Bump ->
                let cell =
                  Srpc_workloads.Linked_list.nth g (Option.get !ptr) 0
                in
                let v = Access.get_int g cell ~field:"value" in
                Access.set_int g cell ~field:"value" (v + 1)
            in
            Stepper.create ~ground:g adm ~footprint:(fp c) ~exec
              [ `Fetch; `Bump ] ())
          grounds
      in
      let step st =
        match Stepper.state st with
        | Stepper.Finished | Stepper.Parked -> ()
        | Stepper.Backoff -> ignore (Stepper.request st)
        | Stepper.Running -> (
          match Stepper.step st with
          | Stepper.Ran -> ()
          | Stepper.Committed waiters ->
            incr committed;
            ignore (Stepper.drain sessions waiters)
          | Stepper.Invalidated waiters | Stepper.Aborted (_, waiters) ->
            Stepper.renew st;
            ignore (Stepper.drain sessions waiters))
      in
      let fuel = ref ((clients * clients * 8) + 64) in
      let all_done () =
        List.for_all (fun st -> Stepper.state st = Stepper.Finished) sessions
      in
      while not (all_done ()) do
        decr fuel;
        if !fuel < 0 then raise Stuck;
        List.iter step sessions
      done);
  let cell = Srpc_workloads.Linked_list.nth server head 0 in
  let final = Access.get_int server cell ~field:"value" in
  let snap = Cluster.snapshot cluster in
  {
    k_clients = clients;
    k_committed = !committed;
    k_final = final;
    k_validation_failures = snap.Stats.validations_failed;
    k_race = Race_lint.check trace;
    k_proto = Proto_lint.check trace;
  }
