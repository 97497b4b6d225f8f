open Srpc_analysis

type failure =
  | Obs_mismatch of { step : int; expected : int list; got : int list }
  | Obs_missing of { expected : int; got : int }
  | Final_mismatch of {
      phase : string;
      id : int;
      expected : int list;
      got : int list;
    }
  | Unexpected_abort of string
  | Uncaught of string
  | Protocol of string
  | Race of string
  | Not_reusable

let pp_ints ppf vs =
  Format.fprintf ppf "[%a]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
       Format.pp_print_int)
    vs

let pp_failure ppf = function
  | Obs_mismatch { step; expected; got } ->
    Format.fprintf ppf "op %d observed %a, model says %a" step pp_ints got
      pp_ints expected
  | Obs_missing { expected; got } ->
    Format.fprintf ppf
      "run completed but executed %d of %d resolved ops" got expected
  | Final_mismatch { phase; id; expected; got } ->
    Format.fprintf ppf "final state (phase %s) of object %d is %a, model says %a"
      phase id pp_ints got pp_ints expected
  | Unexpected_abort reason ->
    Format.fprintf ppf "session aborted on a fault-free run: %s" reason
  | Uncaught msg -> Format.fprintf ppf "uncaught exception: %s" msg
  | Protocol msg -> Format.fprintf ppf "protocol trace violation:@,%s" msg
  | Race msg -> Format.fprintf ppf "happens-before race:@,%s" msg
  | Not_reusable ->
    Format.fprintf ppf "nodes were not reusable after the run"

let first_failure checks =
  List.fold_left
    (fun acc check -> match acc with Some _ -> acc | None -> check ())
    None checks

let compare_final phase expected got =
  List.fold_left
    (fun acc (id, got_vs) ->
      match acc with
      | Some _ -> acc
      | None -> (
        match List.assoc_opt id expected with
        | Some exp_vs when exp_vs <> got_vs ->
          Some (Final_mismatch { phase; id; expected = exp_vs; got = got_vs })
        | _ -> None))
    None got

(* Completion must match the model everywhere; an abort is acceptable
   only under a fault schedule, and then every observation made before
   the abort must still match (a wrong answer is never excused by a
   later abort). *)
let judge_session ~faulted (model : Model.result) ?final_a ~obs ~aborted
    ~final_b () =
  let missing () =
    Some
      (Obs_missing
         { expected = List.length model.m_obs; got = List.length obs })
  in
  let rec obs_prefix i expected got =
    match (expected, got) with
    | _, [] -> None
    | e :: es, g :: gs ->
      if e <> g then Some (Obs_mismatch { step = i; expected = e; got = g })
      else obs_prefix (i + 1) es gs
    | [], _ :: _ -> missing ()
  in
  first_failure
    [
      (fun () -> obs_prefix 0 model.m_obs obs);
      (fun () -> Option.bind final_a (compare_final "A" model.m_final));
      (fun () ->
        match aborted with
        | Some reason when not faulted -> Some (Unexpected_abort reason)
        | _ -> None);
      (fun () ->
        if aborted = None && List.length obs <> List.length model.m_obs then
          missing ()
        else None);
      (fun () ->
        if aborted = None then compare_final "B" model.m_final final_b
        else None);
    ]

(* Compare one interpreter outcome against the oracle. *)
let judge plan model (out : Interp.outcome) =
  first_failure
    [
      (* the race checker judges first: a coherency defect usually also
         desynchronizes the model, and "stale read" names the disease
         where "observed 3, model says 4" only names a symptom *)
      (fun () ->
        match Race_lint.check out.trace with
        | [] -> None
        | ds -> Some (Race (Format.asprintf "%a" Diagnostic.pp_list ds)));
      (fun () ->
        judge_session ~faulted:(plan.Script.p_fault <> None) model
          ?final_a:(if out.phase_a_done then Some out.final_a else None)
          ~obs:out.obs ~aborted:out.aborted ~final_b:out.final_b ());
      (fun () -> if out.reusable then None else Some Not_reusable);
      (fun () ->
        match Proto_lint.check out.trace with
        | [] -> None
        | ds ->
          Some (Protocol (Format.asprintf "%a" Diagnostic.pp_list ds)));
    ]

let run_script script =
  let plan = Script.resolve script in
  let model = Model.run plan in
  match Interp.run plan with
  | out -> judge plan model out
  | exception e -> Some (Uncaught (Printexc.to_string e))

let fails script = run_script script <> None

type stats = {
  runs : int;
  completed : int;
  aborted : int;
  fault_runs : int;
}

type report =
  | Ok of stats
  | Failed of {
      seed : int;
      script : Script.t;
      failure : failure;
      shrunk : Script.t;
      shrunk_failure : failure;
      shrink_evals : int;
    }

(* Outcome bookkeeping without re-judging: rerun the interp only for
   counting is wasteful, so run_one returns both. *)
let run_one script =
  let plan = Script.resolve script in
  let model = Model.run plan in
  match Interp.run plan with
  | out -> (judge plan model out, out.Interp.aborted <> None)
  | exception e -> (Some (Uncaught (Printexc.to_string e)), false)

let fault_for ~faults ~seed =
  if faults > 0.0 && seed mod 2 = 1 then
    Some { Script.fseed = seed; drop = faults; dup = faults /. 2.0 }
  else None

let script_for ?(offload = false) ~depth ~faults seed =
  let gen = if offload then Gen.script_offload else Gen.script in
  gen ~seed ~depth ~fault:(fault_for ~faults ~seed)

let check ?(progress = fun _ -> ()) ?(offload = false) ~seeds ~depth ~faults () =
  let stats = ref { runs = 0; completed = 0; aborted = 0; fault_runs = 0 } in
  let rec loop seed =
    if seed >= seeds then Ok !stats
    else begin
      let script = script_for ~offload ~depth ~faults seed in
      let failure, was_aborted = run_one script in
      stats :=
        {
          runs = !stats.runs + 1;
          completed = (!stats.completed + if was_aborted then 0 else 1);
          aborted = (!stats.aborted + if was_aborted then 1 else 0);
          fault_runs =
            (!stats.fault_runs + if script.Script.fault <> None then 1 else 0);
        };
      progress seed;
      match failure with
      | None -> loop (seed + 1)
      | Some failure ->
        let shrunk, shrink_evals = Shrink.minimize ~still_fails:fails script in
        let shrunk_failure =
          match run_script shrunk with Some f -> f | None -> failure
        in
        Failed { seed; script; failure; shrunk; shrunk_failure; shrink_evals }
    end
  in
  loop 0

let replay script =
  match run_script script with
  | None -> Stdlib.Ok ()
  | Some f -> Stdlib.Error (Format.asprintf "%a" pp_failure f)
