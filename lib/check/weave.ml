(* The weave checker: independently generated session scripts run
   concurrently on ONE cluster — one ground node per script (sites
   1..N) sharing the workers (sites N+1..) — interleaved one resolved op
   at a time through the admission controller, each session on a
   [Stepper]. Every session must still satisfy the single-session
   sequential oracle (Model.run): admission only ever admits disjoint
   footprints, so weaving cannot change what any session observes. The
   combined trace additionally passes Race_lint and the protocol linter.

   Two footprint variants are swept. [Disjoint] gives each session
   synthetic session-prefixed datum roots, so every session is admitted
   immediately and they genuinely interleave. [Conflicting] gives every
   session the same unprefixed roots: admission must serialize them
   (FIFO queue or abort-retry backoff, per policy) even though the
   sessions are physically disjoint — exercising the queue/drain/backoff
   machinery while the oracle stays valid. *)

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
  fscripts : Script.t list;  (** shrunk repro *)
}

type report = {
  runs : int;
  fault_runs : int;
  serialized_runs : int;  (** conflicting-variant runs (admission serialized) *)
  failures : failure list;
}

(* Session [i] is side a, b, c... in footprints and side A, B, C... in
   failure reports. *)
let side i = Char.chr (Char.code 'a' + i)

(* Static footprint of session [i]: every object the plan ever builds,
   conservatively mode-Write over the whole subgraph. Object ids are
   per-plan (every session numbers from 0), so unprefixed roots collide
   between sessions — exactly what the conflicting variant wants — while
   the side prefix makes them provably disjoint. *)
let footprint ~variant i (plan : Script.plan) =
  let prefix =
    match variant with
    | Conflicting -> ""
    | Disjoint -> Printf.sprintf "%c:" (side i)
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
  Footprint.session ~label:(Printf.sprintf "weave[%c]" (side i)) regions

(* What the weave keeps of one session beside its stepper. *)
type session = {
  env : Interp.env;
  plan : Script.plan;
  mutable obs : int list list;  (* reversed *)
  mutable committed : bool;
  mutable aborted : string option;
}

type outcome = {
  o_failure : string option;
  o_committed : bool list;
  o_aborted : string option list;
  o_trace : Trace.t;
}

(* One weave execution: the failure description, if any, plus each
   session's fate (the crash/revive tests need to tell "rode out the
   outage and committed" apart from "aborted acceptably"). *)
let run ?(policy = Strategy.Queue_conflicts) ?(variant = Disjoint) scripts =
  let plans = List.map Script.resolve scripts in
  let first = List.hd plans and fault = (List.hd scripts).Script.fault in
  let cluster, grounds, workers, trace =
    Interp.cluster ~cost:Cost_model.zero ?fault
      ~grounds:(List.length plans) ~arches:first.Script.p_arches
      ~strategy:Interp.strategy_table.(first.Script.p_strategy) ()
  in
  let adm = Admission.create ~policy (Cluster.stats cluster) in
  let sessions =
    List.mapi
      (fun i (ground, plan) ->
        let s =
          {
            env = Interp.make_env ~cluster ~ground ~workers;
            plan;
            obs = [];
            committed = false;
            aborted = None;
          }
        in
        Stepper.create ~ground adm ~footprint:(footprint ~variant i plan)
          ~exec:(fun rop -> s.obs <- Interp.exec_rop s.env rop :: s.obs)
          plan.Script.p_rops s)
      (List.combine grounds plans)
  in
  (* the weave's controller has no queue cap, retry budget or health
     detector, so it never sheds: a request admits, queues or denies *)
  let request st = ignore (Stepper.request st) in
  let step st =
    let s = Stepper.data st in
    match Stepper.state st with
    | Stepper.Finished | Stepper.Parked -> ()
    | Stepper.Backoff ->
      Clock.advance (Cluster.clock cluster)
        (Admission.backoff_delay ~session:(Stepper.id st)
           ~attempt:(Stepper.attempt st) ~base:1e-3);
      request st
    | Stepper.Running ->
      let waiters =
        match Stepper.step st with
        | Stepper.Ran -> []
        | Stepper.Committed ws ->
          s.committed <- true;
          ws
        | Stepper.Invalidated ws ->
          s.aborted <- Some "admission validation failed";
          ws
        | Stepper.Aborted (reason, ws) ->
          s.aborted <- Some reason;
          ws
      in
      ignore (Stepper.drain sessions waiters)
  in
  List.iter request sessions;
  (* round-robin until every session finished, or the fuel ran out *)
  let rec stuck fuel =
    if List.for_all (fun st -> Stepper.state st = Stepper.Finished) sessions
    then false
    else if fuel = 0 then true
    else (
      List.iter step sessions;
      stuck (fuel - 1))
  in
  let ops = List.fold_left (fun n p -> n + List.length p.Script.p_rops) 0 plans in
  let stuck = stuck (4 * (ops + 32)) in
  if Cluster.fault_plan cluster <> None then Cluster.clear_faults cluster;
  let faulted = fault <> None in
  (* Each session against its own model. After a commit, its ground-pure
     objects must read back exactly the model's final state (phase B). *)
  let judge i st =
    let s = Stepper.data st in
    let fb =
      if not s.committed then []
      else
        List.map
          (fun id ->
            let kind, p = Hashtbl.find s.env.Interp.e_objs id in
            (id, Interp.final_read s.env.Interp.e_ground kind !p))
          s.plan.Script.p_verify_local
    in
    Runner.judge_session ~faulted (Model.run s.plan) ~obs:(List.rev s.obs)
      ~aborted:s.aborted ~final_b:fb ()
    |> Option.map (fun f ->
           Format.asprintf "side %c: %a" (Char.uppercase_ascii (side i))
             Runner.pp_failure f)
  in
  let verdicts = List.mapi judge sessions in
  let errors ds = List.filter Diagnostic.is_error ds in
  let pp_diags ds =
    String.concat "; "
      (List.map (fun d -> Format.asprintf "%a" Diagnostic.pp d) ds)
  in
  let failure =
    if stuck then Some "interleave driver stuck (admission never converged)"
    else
      match errors (Race_lint.check trace) with
      | _ :: _ as ds -> Some ("race: " ^ pp_diags ds)
      | [] -> (
        match List.find_map Fun.id verdicts with
        | Some e -> Some e
        | None -> (
          match errors (Proto_lint.check trace) with
          | _ :: _ as ds -> Some ("protocol: " ^ pp_diags ds)
          | [] -> None))
  in
  {
    o_failure = failure;
    o_committed = List.map (fun st -> (Stepper.data st).committed) sessions;
    o_aborted = List.map (fun st -> (Stepper.data st).aborted) sessions;
    o_trace = trace;
  }

let variant_for seed = if seed mod 2 = 0 then Disjoint else Conflicting

let policy_for seed =
  if seed / 2 mod 2 = 0 then Strategy.Queue_conflicts else Strategy.Abort_retry

(* Greedy shrinker: repeatedly drop single ops (never the leading build)
   from any session while the failure persists. *)
let shrink ~fails scripts =
  let total ss = List.fold_left (fun n s -> n + List.length s.Script.ops) 0 ss in
  let drop k i ss =
    List.mapi
      (fun j s ->
        if j <> k then s
        else { s with Script.ops = List.filteri (fun m _ -> m <> i) s.Script.ops })
      ss
  in
  let rec shrink_session k i ss =
    if i >= List.length (List.nth ss k).Script.ops then ss
    else
      let cand = drop k i ss in
      if fails cand then shrink_session k i cand else shrink_session k (i + 1) ss
  in
  let rec pass ss =
    let next =
      List.fold_left
        (fun ss k -> shrink_session k 1 ss)
        ss
        (List.init (List.length ss) Fun.id)
    in
    if total next < total ss then pass next else next
  in
  pass scripts

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
    let verdict scripts = (run ~policy ~variant scripts).o_failure in
    match verdict [ sa; sb ] with
    | None -> ()
    | Some desc ->
      let shrunk = shrink ~fails:(fun ss -> verdict ss <> None) [ sa; sb ] in
      let fdesc = Option.value (verdict shrunk) ~default:desc in
      failures :=
        { fseed = seed; fvariant = variant; fpolicy = policy; fdesc;
          fscripts = shrunk }
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
  Format.fprintf ppf "@[<v>seed %d (%a, %a): %s" f.fseed pp_variant f.fvariant
    pp_policy f.fpolicy f.fdesc;
  List.iteri
    (fun i s ->
      Format.fprintf ppf "@,--- side %c ---@,%a"
        (Char.uppercase_ascii (side i)) Script.pp s)
    f.fscripts;
  Format.fprintf ppf "@]"
