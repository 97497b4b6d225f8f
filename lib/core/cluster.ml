open Srpc_memory
open Srpc_simnet

type t = {
  clock : Clock.t;
  stats : Stats.t;
  transport : Transport.t;
  registry : Srpc_types.Registry.t;
  session : Session.t;
  hints : Hints.t;
  policy : Srpc_policy.Engine.t option;
  mutable nodes : Node.t list;
}

let create ?(cost = Cost_model.sparc_10mbps) ?policy () =
  let clock = Clock.create () in
  let stats = Stats.create () in
  {
    clock;
    stats;
    transport = Transport.create ~clock ~stats ~cost;
    registry = Srpc_types.Registry.create ();
    session = Session.create ();
    hints = Hints.create ();
    policy;
    nodes = [];
  }

let clock t = t.clock
let stats t = t.stats
let transport t = t.transport
let registry t = t.registry
let session t = t.session

let add_node ?(proc = 0) ?(arch = Arch.sparc32) ?(strategy = Strategy.smart ())
    ?page_size ?validate ?retry ?reply_cache_cap t ~site () =
  let id = Space_id.make ~site ~proc in
  if List.exists (fun n -> Space_id.equal (Node.id n) id) t.nodes then
    invalid_arg (Printf.sprintf "Cluster.add_node: %s exists" (Space_id.to_string id));
  (* only a delta node keeps the base images a delta write-back patches *)
  (match t.nodes with
  | n :: _
    when (Node.strategy n).Strategy.delta_coherency
         <> strategy.Strategy.delta_coherency ->
    invalid_arg "Cluster.add_node: a cluster is all-delta or all-plain"
  | _ -> ());
  let node =
    Node.create ?page_size ?validate ?retry ?reply_cache_cap ?policy:t.policy
      ~hints:t.hints ~id ~arch ~registry:t.registry ~transport:t.transport
      ~session:t.session ~strategy ()
  in
  t.nodes <- node :: t.nodes;
  node

let validate t =
  let arches =
    match List.sort_uniq compare (List.map Node.arch t.nodes) with
    | [] -> [ Arch.sparc32 ]
    | arches -> arches
  in
  let hints =
    Hints.to_list t.hints
    |> List.map (fun (ty, (r : Hints.rule)) -> (ty, r.Hints.follow))
  in
  Srpc_analysis.Desc_lint.validate ~arches ~hints t.registry

let register_type t name desc = Srpc_types.Registry.register t.registry name desc
let hints t = t.hints
let set_closure_hint t ~ty rule = Hints.set t.hints ~ty rule
let now t = Clock.now t.clock
let snapshot t = Stats.snapshot t.stats
let install_faults t plan = Transport.set_fault_plan t.transport (Some plan)
let clear_faults t = Transport.set_fault_plan t.transport None
let fault_plan t = Transport.fault_plan t.transport
