open Srpc_simnet

type config = {
  initial_budget : int;
  min_budget : int;
  max_budget : int;
  increase_step : int;
  decrease_factor : float;
  slow_start : bool;
  cost_bias : float;
  follow_threshold : float;
  prune_threshold : float;
  min_edge_samples : int;
  windows : int;
  tolerance : float;
  min_step : int;
}

let default_config =
  {
    initial_budget = 8192;
    min_budget = 512;
    max_budget = 4 * 1024 * 1024;
    increase_step = 4096;
    decrease_factor = 0.5;
    slow_start = true;
    cost_bias = 1.5;
    follow_threshold = 0.5;
    prune_threshold = 0.2;
    min_edge_samples = 8;
    windows = 3;
    tolerance = 0.02;
    min_step = 512;
  }

type rule = { rule_ty : string; follow : string list; prune_others : bool }

type decision = {
  budgets : (string * int) list;
  rules : rule list;
  cleared : string list;
}

(* Hill-climb state for one type's budget (used only on the measured
   path, see [step]). [reversed] separates the opening slow-start (step
   doubles while every probe keeps paying off) from the bracketing phase
   (step only shrinks, on reversals). *)
type climb = {
  mutable dir : int;  (* +1 grow, -1 shrink, 0 undecided *)
  mutable step : int;  (* bytes moved per window *)
  mutable reversed : bool;
  mutable frozen : bool;  (* bracketing finished: hold here *)
}

type t = {
  config : config;
  cost : Cost_model.t;
  budgets : (string, int) Hashtbl.t;
  ruled : (string, rule) Hashtbl.t;  (** hints we currently have installed *)
  climbs : (string, climb) Hashtbl.t;
  mutable best_seconds : float;  (** best accepted measured window *)
  mutable prev_budgets : (string * int) list;  (** vector before the last move *)
  mutable moved : bool;  (** did the last window change any budget *)
}

let create ?(config = default_config) ~cost () =
  if config.min_budget < 0 || config.max_budget < config.min_budget then
    invalid_arg "Controller.create: bad budget bounds";
  if not (config.decrease_factor > 0.0 && config.decrease_factor < 1.0) then
    invalid_arg "Controller.create: decrease_factor must be in (0, 1)";
  {
    config;
    cost;
    budgets = Hashtbl.create 8;
    ruled = Hashtbl.create 8;
    climbs = Hashtbl.create 8;
    best_seconds = infinity;
    prev_budgets = [];
    moved = false;
  }

let config t = t.config

let budget_for t ~ty =
  match Hashtbl.find_opt t.budgets ty with
  | Some b -> b
  | None ->
    Hashtbl.add t.budgets ty t.config.initial_budget;
    t.config.initial_budget

(* Simulated seconds it cost to ship and convert [bytes] that were never
   used: wire time plus the XDR CPU on both ends. *)
let byte_cost t bytes =
  float_of_int bytes
  *. ((1.0 /. t.cost.Cost_model.bandwidth) +. (2.0 *. t.cost.Cost_model.per_byte_cpu))

(* --- budget step: AIMD weighed by the cost model --- *)

let is_idle (ts : Profile.type_summary) =
  ts.Profile.ts_prefetched_bytes = 0
  && ts.Profile.ts_demand_count = 0
  && ts.Profile.ts_stall_seconds = 0.0

(* Which way the waste/stall comparison points: -1 shrink, +1 grow,
   0 balanced. *)
let prior_dir t (ts : Profile.type_summary) =
  let c = t.config in
  let waste_cost = byte_cost t ts.Profile.ts_wasted_bytes in
  let stall_cost = ts.Profile.ts_stall_seconds in
  if waste_cost > c.cost_bias *. stall_cost && ts.Profile.ts_wasted_bytes > 0 then
    -1
  else if stall_cost > c.cost_bias *. waste_cost && ts.Profile.ts_demand_count > 0
  then 1
  else 0

let step_budget t ty (ts : Profile.type_summary) =
  let c = t.config in
  let b = budget_for t ~ty in
  let b' =
    if is_idle ts then b
    else
      match prior_dir t ts with
      | -1 -> max c.min_budget (int_of_float (float_of_int b *. c.decrease_factor))
      | 1 ->
        let grown =
          if c.slow_start && ts.Profile.ts_wasted_bytes = 0 then b * 2
          else b + c.increase_step
        in
        min c.max_budget grown
      | _ -> b
  in
  Hashtbl.replace t.budgets ty b';
  b'

(* --- hint derivation from edge touch rates --- *)

let edge_rate (es : Profile.edge_summary) =
  let samples =
    es.Profile.es_prefetched + es.Profile.es_demanded + es.Profile.es_avoided
  in
  if samples = 0 then None
  else
    Some
      ( samples,
        float_of_int (es.Profile.es_touched + es.Profile.es_demanded)
        /. float_of_int samples )

let step_rules t (edges : ((string * string) * Profile.edge_summary) list) =
  let c = t.config in
  (* group observed edges by parent type *)
  let by_ty : (string, (string * int * float) list ref) Hashtbl.t =
    Hashtbl.create 8
  in
  List.iter
    (fun ((ty, field), es) ->
      match edge_rate es with
      | None -> ()
      | Some (samples, rate) -> (
        let cell = (field, samples, rate) in
        match Hashtbl.find_opt by_ty ty with
        | Some r -> r := cell :: !r
        | None -> Hashtbl.add by_ty ty (ref [ cell ])))
    edges;
  let rules = ref [] and cleared = ref [] in
  Hashtbl.iter
    (fun ty fields ->
      let eligible =
        List.filter (fun (_, samples, _) -> samples >= c.min_edge_samples) !fields
      in
      let follow =
        eligible
        |> List.filter (fun (_, _, rate) -> rate >= c.follow_threshold)
        |> List.sort (fun (_, _, a) (_, _, b) -> compare b a)
        |> List.map (fun (field, _, _) -> field)
      in
      if follow = [] then begin
        (* not enough confidence: withdraw any hint we installed before *)
        if Hashtbl.mem t.ruled ty then begin
          Hashtbl.remove t.ruled ty;
          cleared := ty :: !cleared
        end
      end
      else begin
        let rest =
          List.filter (fun (field, _, _) -> not (List.mem field follow)) !fields
        in
        let prune_others =
          rest <> []
          && List.for_all
               (fun (_, samples, rate) ->
                 samples >= c.min_edge_samples && rate <= c.prune_threshold)
               rest
        in
        let rule = { rule_ty = ty; follow; prune_others } in
        (match Hashtbl.find_opt t.ruled ty with
        | Some existing when existing = rule -> () (* unchanged: no churn *)
        | Some _ | None ->
          Hashtbl.replace t.ruled ty rule;
          rules := rule :: !rules)
      end)
    by_ty;
  (List.rev !rules, List.rev !cleared)

let budgets t =
  Hashtbl.fold (fun ty b acc -> (ty, b) :: acc) t.budgets []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* --- measured path: hill-climb on the observed session time ---

   The waste-vs-stall comparison alone cannot settle at an optimum that
   carries irreducible waste (any tree closure ships some untouched
   subtrees), so when the caller supplies the measured window time we use
   the comparison only to pick the opening direction and then bracket the
   optimum: a probe that keeps the time within [tolerance] of the best
   window seen is accepted and the walk continues (step doubling while no
   probe has failed yet — the slow-start phase); a probe that loses
   reverts the whole budget vector, reverses direction and halves the
   step; a second failure at [min_step] freezes the type where it last
   won. A later window costing over twice the recorded best means the
   workload changed: all climb state resets and bracketing starts over
   from the current budgets. *)

let climb_for t ty =
  match Hashtbl.find_opt t.climbs ty with
  | Some c -> c
  | None ->
    let c = { dir = 0; step = 0; reversed = false; frozen = false } in
    Hashtbl.add t.climbs ty c;
    c

let step_measured t (summary : Profile.summary) seconds =
  let c = t.config in
  let active =
    List.filter (fun (_, ts) -> not (is_idle ts)) summary.Profile.types
  in
  if seconds > 2.0 *. t.best_seconds then begin
    Hashtbl.reset t.climbs;
    t.best_seconds <- seconds;
    t.prev_budgets <- [];
    t.moved <- false
  end;
  let acceptable =
    seconds <= (t.best_seconds *. (1.0 +. c.tolerance)) +. 1e-12
  in
  if t.moved && not acceptable then begin
    (* the last move lost ground: undo it and tighten the bracket *)
    List.iter (fun (ty, b) -> Hashtbl.replace t.budgets ty b) t.prev_budgets;
    List.iter
      (fun (ty, _) ->
        let cl = climb_for t ty in
        if cl.dir <> 0 then
          if cl.reversed && cl.step <= c.min_step then cl.frozen <- true
          else begin
            cl.reversed <- true;
            cl.dir <- -cl.dir;
            cl.step <- max c.min_step (cl.step / 2)
          end)
      active
  end
  else t.best_seconds <- min t.best_seconds seconds;
  t.prev_budgets <- budgets t;
  let moved = ref false in
  List.iter
    (fun (ty, ts) ->
      let cl = climb_for t ty in
      if not cl.frozen then begin
        if cl.dir = 0 then cl.dir <- prior_dir t ts;
        if cl.dir <> 0 then begin
          let b = budget_for t ~ty in
          if cl.step = 0 then cl.step <- max c.min_step (b / 2)
          else if not cl.reversed then cl.step <- min c.max_budget (cl.step * 2);
          let b' = min c.max_budget (max c.min_budget (b + (cl.dir * cl.step))) in
          if b' <> b then begin
            Hashtbl.replace t.budgets ty b';
            moved := true
          end
          else cl.frozen <- true (* pinned against a clamp: done *)
        end
      end)
    active;
  t.moved <- !moved

let step ?seconds t (summary : Profile.summary) =
  (match seconds with
  | None ->
    List.iter (fun (ty, ts) -> ignore (step_budget t ty ts)) summary.Profile.types
  | Some s -> step_measured t summary s);
  let rules, cleared = step_rules t summary.Profile.edges in
  { budgets = budgets t; rules; cleared }
