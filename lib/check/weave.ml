(* The two-session weave checker: two independently generated session
   scripts run concurrently on ONE cluster — two ground nodes (sites 1
   and 2) sharing the workers (sites 3..) — interleaved one resolved op
   at a time through the admission controller. Each side must still
   satisfy the single-session sequential oracle (Model.run): admission
   only ever admits disjoint footprints, so weaving cannot change what
   either session observes. The combined trace additionally passes
   Race_lint and the protocol linter.

   Two footprint variants are swept. [Disjoint] gives each side
   synthetic side-prefixed datum roots, so both sessions are admitted
   immediately and genuinely interleave. [Conflicting] gives both sides
   the same unprefixed roots: admission must serialize them (FIFO queue
   or abort-retry backoff, per policy) even though the sessions are
   physically disjoint — exercising the queue/drain/backoff machinery
   while the oracle stays valid. *)

open Srpc_core
open Srpc_simnet
open Srpc_analysis

type variant = Disjoint | Conflicting

let pp_variant ppf = function
  | Disjoint -> Format.pp_print_string ppf "disjoint"
  | Conflicting -> Format.pp_print_string ppf "conflicting"

type failure = {
  fseed : int;
  fvariant : variant;
  fpolicy : Strategy.admission_policy;
  fdesc : string;
  fscripts : Script.t * Script.t;  (** shrunk repro pair *)
}

type report = {
  runs : int;
  fault_runs : int;
  serialized_runs : int;  (** conflicting-variant runs (admission serialized) *)
  failures : failure list;
}

(* Static footprint of one side: every object the plan ever builds,
   conservatively mode-Write over the whole subgraph. Object ids are
   per-plan (both sides number from 0), so unprefixed roots collide
   between the sides — exactly what the conflicting variant wants —
   while the side prefix makes them provably disjoint. *)
let side_footprint ~variant ~side (plan : Script.plan) =
  let prefix =
    match (variant, side) with
    | Conflicting, _ -> ""
    | Disjoint, `A -> "a:"
    | Disjoint, `B -> "b:"
  in
  let ids =
    List.sort_uniq compare (List.map fst plan.Script.p_kinds)
  in
  let regions =
    List.map
      (fun id ->
        {
          Footprint.root = Printf.sprintf "%sobj#%d" prefix id;
          path = "*";
          mode = Footprint.Write;
        })
      ids
  in
  let tag = match side with `A -> "a" | `B -> "b" in
  Footprint.session ~label:(Printf.sprintf "weave[%s]" tag) regions

type state = Running | Parked | Backoff | Finished

type side = {
  s_tag : [ `A | `B ];
  s_ground : Node.t;
  s_env : Interp.env;
  s_plan : Script.plan;
  s_model : Model.result;
  s_fp : Footprint.t;
  s_id : int;
  mutable s_state : state;
  mutable s_obs : int list list;  (* reversed *)
  mutable s_remaining : Script.rop list;
  mutable s_aborted : string option;
  mutable s_committed : bool;
  mutable s_attempt : int;
}

type outcome = {
  o_failure : string option;
  o_committed_a : bool;
  o_committed_b : bool;
  o_aborted_a : string option;
  o_aborted_b : string option;
}

(* One weave execution. Returns the failure description, if any, plus
   each side's fate (the crash/revive tests need to tell "rode out the
   outage and committed" apart from "aborted acceptably"). *)
let run_pair_full ?(policy = Strategy.Queue_conflicts) ?(variant = Disjoint)
    (sa : Script.t) (sb : Script.t) =
  let pa = Script.resolve sa and pb = Script.resolve sb in
  let cluster = Cluster.create ~cost:Cost_model.zero () in
  let strategy = Interp.strategy_table.(pa.Script.p_strategy) in
  let ga = Cluster.add_node cluster ~site:1 ~strategy () in
  let gb = Cluster.add_node cluster ~site:2 ~strategy () in
  let workers =
    List.mapi
      (fun i a ->
        Cluster.add_node cluster ~site:(i + 3)
          ~arch:Interp.arch_table.(a) ~strategy ())
      pa.Script.p_arches
  in
  Srpc_workloads.Linked_list.register_types cluster;
  Srpc_workloads.Tree.register_types cluster;
  Srpc_workloads.Graph.register_types cluster;
  Srpc_workloads.Matrix.register_types cluster;
  (* Both grounds need the worker procs; the callback bonus procs the
     second call re-captures are unreachable here (restricted op mix). *)
  Interp.register_procs ~ground:ga workers;
  Interp.register_procs ~ground:gb workers;
  let trace = Trace.create () in
  Transport.set_trace (Cluster.transport cluster) (Some trace);
  (match sa.Script.fault with
  | None -> ()
  | Some f ->
    let fp = Fault_plan.create ~seed:f.Script.fseed () in
    Fault_plan.set_global fp
      (Fault_plan.profile ~drop:f.Script.drop ~duplicate:f.Script.dup ());
    Cluster.install_faults cluster fp);
  let adm = Admission.create ~policy (Cluster.stats cluster) in
  let mk_side tag ground plan =
    {
      s_tag = tag;
      s_ground = ground;
      s_env = Interp.make_env ~cluster ~ground ~workers;
      s_plan = plan;
      s_model = Model.run plan;
      s_fp = side_footprint ~variant ~side:tag plan;
      s_id = Node.reserve_session ground;
      s_state = Parked;
      s_obs = [];
      s_remaining = plan.Script.p_rops;
      s_aborted = None;
      s_committed = false;
      s_attempt = 0;
    }
  in
  let side_a = mk_side `A ga pa in
  let side_b = mk_side `B gb pb in
  let by_id sid =
    if side_a.s_id = sid then side_a
    else if side_b.s_id = sid then side_b
    else invalid_arg "Weave: drain admitted an unknown session"
  in
  let start_waiters waiters =
    List.iter
      (fun (sid, _fp) ->
        let s = by_id sid in
        Node.start_admitted s.s_ground ~id:sid;
        s.s_state <- Running)
      waiters
  in
  let request s =
    match
      Node.request_admission s.s_ground adm ~id:s.s_id ~footprint:s.s_fp
    with
    | Admission.Admitted -> s.s_state <- Running
    | Admission.Queued -> s.s_state <- Parked
    | Admission.Denied ->
      s.s_attempt <- s.s_attempt + 1;
      s.s_state <- Backoff
    | Admission.Overloaded _ ->
      (* unreachable here: the weave controller has no queue cap, retry
         budget or health detector installed *)
      invalid_arg "Weave: unexpected admission shed"
  in
  let abort_side s reason =
    s.s_aborted <- Some reason;
    s.s_state <- Finished;
    start_waiters (Admission.close ~committed:false adm ~session:s.s_id)
  in
  let close_side s =
    match Node.end_session_validated s.s_ground adm with
    | `Committed, waiters ->
      s.s_committed <- true;
      s.s_state <- Finished;
      start_waiters waiters
    | `Validation_failed, waiters ->
      s.s_aborted <- Some "admission validation failed";
      s.s_state <- Finished;
      start_waiters waiters
  in
  let step s =
    match s.s_state with
    | Finished | Parked -> ()
    | Backoff ->
      Clock.advance (Cluster.clock cluster)
        (Admission.backoff_delay ~session:s.s_id ~attempt:s.s_attempt
           ~base:1e-3);
      request s
    | Running -> (
      match s.s_remaining with
      | [] -> (
        try close_side s
        with Session.Session_aborted { reason; _ } -> abort_side s reason)
      | rop :: rest -> (
        s.s_remaining <- rest;
        try s.s_obs <- Interp.exec_rop s.s_env rop :: s.s_obs
        with Session.Session_aborted { reason; _ } -> abort_side s reason))
  in
  request side_a;
  request side_b;
  let fuel =
    ref
      (4 * (List.length pa.Script.p_rops + List.length pb.Script.p_rops + 32))
  in
  let stuck = ref false in
  while
    (side_a.s_state <> Finished || side_b.s_state <> Finished)
    && not !stuck
  do
    decr fuel;
    if !fuel < 0 then stuck := true
    else begin
      step side_a;
      step side_b
    end
  done;
  if Cluster.fault_plan cluster <> None then Cluster.clear_faults cluster;
  (* Phase B: after a side committed, its ground-pure objects must read
     back exactly the model's final state. *)
  let final_b s =
    if not s.s_committed then []
    else
      List.map
        (fun id ->
          let kind, p = Hashtbl.find s.s_env.Interp.e_objs id in
          (id, Interp.final_read s.s_ground kind !p))
        s.s_plan.Script.p_verify_local
  in
  let fb_a = final_b side_a and fb_b = final_b side_b in
  let faulted = sa.Script.fault <> None in
  let errors ds = List.filter Diagnostic.is_error ds in
  let pp_diags ds =
    String.concat "; "
      (List.map (fun d -> Format.asprintf "%a" Diagnostic.pp d) ds)
  in
  let judge_side s fb =
    let tag = match s.s_tag with `A -> "A" | `B -> "B" in
    let obs = List.rev s.s_obs in
    let rec prefix i = function
      | [], _ -> None
      | got :: _, [] ->
        Some
          (Printf.sprintf "side %s: op %d observed %s beyond the model" tag i
             (String.concat "," (List.map string_of_int got)))
      | got :: gr, want :: wr ->
        if got <> want then
          Some
            (Printf.sprintf "side %s: op %d observed [%s], model says [%s]"
               tag i
               (String.concat "," (List.map string_of_int got))
               (String.concat "," (List.map string_of_int want)))
        else prefix (i + 1) (gr, wr)
    in
    match prefix 0 (obs, s.s_model.Model.m_obs) with
    | Some e -> Some e
    | None ->
      (* Unexpected aborts are failures; under [chaos_admit_conflicting]
         the "admission validation failed" abort IS the detection the
         mutation test is looking for, so it is reported the same way. *)
      if s.s_aborted <> None && not faulted then
        Some
          (Printf.sprintf "side %s: unexpected abort (%s) with no faults" tag
             (Option.value s.s_aborted ~default:"?"))
      else if s.s_committed then
        if List.length obs <> List.length s.s_model.Model.m_obs then
          Some
            (Printf.sprintf "side %s: committed after %d of %d ops" tag
               (List.length obs)
               (List.length s.s_model.Model.m_obs))
        else
          List.fold_left
            (fun acc (id, got) ->
              match acc with
              | Some _ -> acc
              | None -> (
                match List.assoc_opt id s.s_model.Model.m_final with
                | Some want when want <> got ->
                  Some
                    (Printf.sprintf
                       "side %s: obj %d final [%s], model says [%s] (lost \
                        update)"
                       tag id
                       (String.concat "," (List.map string_of_int got))
                       (String.concat "," (List.map string_of_int want)))
                | _ -> None))
            None fb
      else None
  in
  let failure =
    if !stuck then Some "interleave driver stuck (admission never converged)"
    else
      match errors (Race_lint.check trace) with
      | _ :: _ as ds -> Some ("race: " ^ pp_diags ds)
      | [] -> (
        match judge_side side_a fb_a with
        | Some e -> Some e
        | None -> (
          match judge_side side_b fb_b with
          | Some e -> Some e
          | None -> (
            match errors (Proto_lint.check trace) with
            | _ :: _ as ds -> Some ("protocol: " ^ pp_diags ds)
            | [] -> None)))
  in
  {
    o_failure = failure;
    o_committed_a = side_a.s_committed;
    o_committed_b = side_b.s_committed;
    o_aborted_a = side_a.s_aborted;
    o_aborted_b = side_b.s_aborted;
  }

let run_pair ?policy ?variant sa sb =
  (run_pair_full ?policy ?variant sa sb).o_failure

let variant_for seed = if seed mod 2 = 0 then Disjoint else Conflicting

let policy_for seed =
  if seed / 2 mod 2 = 0 then Strategy.Queue_conflicts else Strategy.Abort_retry

(* Greedy pair shrinker: repeatedly drop single ops (never the leading
   build) from either side while the failure persists. *)
let shrink ~fails (sa, sb) =
  let drop_at ops i = List.filteri (fun j _ -> j <> i) ops in
  let rec pass (sa, sb) =
    let try_side which (sa, sb) =
      let s = match which with `A -> sa | `B -> sb in
      let n = List.length s.Script.ops in
      let rec go i acc =
        if i >= List.length (match which with `A -> fst acc | `B -> snd acc).Script.ops
        then (acc, i > n)  (* n changed along the way; flag any progress *)
        else
          let sa', sb' = acc in
          let s' = match which with `A -> sa' | `B -> sb' in
          if i = 0 then go 1 acc  (* keep the leading build *)
          else
            let cand = { s' with Script.ops = drop_at s'.Script.ops i } in
            let pair' =
              match which with `A -> (cand, sb') | `B -> (sa', cand)
            in
            if fails pair' then go i pair' else go (i + 1) acc
      in
      fst (go 0 (sa, sb))
    in
    let next = try_side `B (try_side `A (sa, sb)) in
    if
      List.length (fst next).Script.ops < List.length sa.Script.ops
      || List.length (snd next).Script.ops < List.length sb.Script.ops
    then pass next
    else next
  in
  pass (sa, sb)

let check ?(progress = fun _ -> ()) ~seeds ~depth ~faults () =
  let failures = ref [] in
  let fault_runs = ref 0 in
  let serialized = ref 0 in
  for seed = 0 to seeds - 1 do
    progress seed;
    let fault = Runner.fault_for ~faults ~seed in
    let variant = variant_for seed in
    let policy = policy_for seed in
    if fault <> None then incr fault_runs;
    if variant = Conflicting then incr serialized;
    let sa, sb = Gen.pair ~seed ~depth ~fault in
    match run_pair ~policy ~variant sa sb with
    | None -> ()
    | Some desc ->
      let fails (sa, sb) = run_pair ~policy ~variant sa sb <> None in
      let sa', sb' = shrink ~fails (sa, sb) in
      let fdesc =
        Option.value (run_pair ~policy ~variant sa' sb') ~default:desc
      in
      failures :=
        { fseed = seed; fvariant = variant; fpolicy = policy; fdesc;
          fscripts = (sa', sb') }
        :: !failures
  done;
  {
    runs = seeds;
    fault_runs = !fault_runs;
    serialized_runs = !serialized;
    failures = List.rev !failures;
  }

let pp_policy ppf = function
  | Strategy.Queue_conflicts -> Format.pp_print_string ppf "queue"
  | Strategy.Abort_retry -> Format.pp_print_string ppf "abort-retry"

let pp_failure ppf f =
  Format.fprintf ppf
    "@[<v>seed %d (%a, %a): %s@,--- side A ---@,%a@,--- side B ---@,%a@]"
    f.fseed pp_variant f.fvariant pp_policy f.fpolicy f.fdesc Script.pp
    (fst f.fscripts) Script.pp (snd f.fscripts)
