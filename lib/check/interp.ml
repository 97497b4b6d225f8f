(* Runs a resolved plan on a real simulated cluster: ground node at site
   1, workers at sites 2.., heterogeneous architectures, a transfer
   strategy drawn from the same table the property tests sweep, and an
   optional fault plan. Every remote procedure returns the observation
   vector the model computes for the same resolved op. *)

open Srpc_core
open Srpc_memory
open Srpc_simnet
open Srpc_workloads
open Script

let arch_table = [| Arch.sparc32; Arch.ilp32_le; Arch.lp64_le; Arch.lp64_be |]

let strategy_table =
  [|
    Strategy.smart ();
    Strategy.fully_eager;
    Strategy.fully_lazy;
    Strategy.smart ~closure_size:64 ();
    Strategy.smart ~closure_size:1024 ();
    { (Strategy.smart ()) with Strategy.order = Strategy.Depth_first };
    { (Strategy.smart ()) with Strategy.grain = Strategy.Twin_diff };
    { (Strategy.smart ()) with Strategy.grouping = Strategy.By_type };
    Strategy.smart ~delta:true ();
    { (Strategy.smart ~delta:true ()) with Strategy.grain = Strategy.Twin_diff };
    (* 10-12: traversal offloading — plans run at the datum's home *)
    { (Strategy.smart ()) with Strategy.offload = Strategy.Offload_always };
    { Strategy.fully_lazy with Strategy.offload = Strategy.Offload_always };
    { (Strategy.smart ()) with Strategy.offload = Strategy.Offload_auto };
  |]

type outcome = {
  obs : int list list;  (* one vector per completed resolved op *)
  final_a : (int * int list) list;  (* ground reads inside final session *)
  phase_a_done : bool;
  final_b : (int * int list) list;  (* ground reads after the close *)
  aborted : string option;
  reusable : bool;
  trace : Trace.t;
}

let ints vs = List.map Value.int vs
let outs vs = List.map Value.to_int vs

let register_procs ~ground workers =
  let ground_id = Node.id ground in
  let on_worker name body = List.iter (fun w -> Node.register w name body) workers in
  on_worker "ck_list_sum" (fun node args ->
      [ Value.int (Linked_list.sum node (Access.of_value (List.hd args))) ]);
  on_worker "ck_tree_visit" (fun node args ->
      match args with
      | [ p; lim ] ->
        let v, s =
          Tree.visit node (Access.of_value p) ~limit:(Value.to_int lim)
        in
        ints [ v; s ]
      | _ -> assert false);
  on_worker "ck_graph_sum" (fun node args ->
      let n, s = Graph.reachable_sum node (Access.of_value (List.hd args)) in
      ints [ n; s ]);
  on_worker "ck_list_update" (fun node args ->
      match args with
      | [ p; i; d ] ->
        let cell = Linked_list.nth node (Access.of_value p) (Value.to_int i) in
        let v = Access.get_int node cell ~field:"value" + Value.to_int d in
        Access.set_int node cell ~field:"value" v;
        [ Value.int v ]
      | _ -> assert false);
  on_worker "ck_tree_update" (fun node args ->
      match args with
      | [ p; i; d ] ->
        let cell = Tree.nth_preorder node (Access.of_value p) (Value.to_int i) in
        let v = Access.get_int node cell ~field:"data" + Value.to_int d in
        Access.set_int node cell ~field:"data" v;
        [ Value.int v ]
      | _ -> assert false);
  on_worker "ck_list_map" (fun node args ->
      match args with
      | [ p; m; a ] ->
        let mul = Value.to_int m and add = Value.to_int a in
        let head = Access.of_value p in
        Linked_list.map_in_place node head (fun x -> (mul * x) + add);
        [ Value.int (Linked_list.sum node head) ]
      | _ -> assert false);
  on_worker "ck_tree_mapu" (fun node args ->
      match args with
      | [ p; lim ] ->
        let v, s =
          Tree.visit_update node (Access.of_value p) ~limit:(Value.to_int lim)
        in
        ints [ v; s ]
      | _ -> assert false);
  (* the callback family: traverse, then call back into the ground space
     mid-procedure — the paper's nested-call shape in reverse *)
  on_worker "ck_list_bonus" (fun node args ->
      let s = Linked_list.sum node (Access.of_value (List.hd args)) in
      let bonus =
        match Node.call node ~dst:ground_id "ck_bonus" [] with
        | [ v ] -> Value.to_int v
        | _ -> assert false
      in
      [ Value.int (s + bonus) ]);
  on_worker "ck_tree_bonus" (fun node args ->
      let _, s = Tree.visit node (Access.of_value (List.hd args)) ~limit:max_int in
      let bonus =
        match Node.call node ~dst:ground_id "ck_bonus" [] with
        | [ v ] -> Value.to_int v
        | _ -> assert false
      in
      [ Value.int (s + bonus) ]);
  on_worker "ck_graph_bonus" (fun node args ->
      let _, s = Graph.reachable_sum node (Access.of_value (List.hd args)) in
      let bonus =
        match Node.call node ~dst:ground_id "ck_bonus" [] with
        | [ v ] -> Value.to_int v
        | _ -> assert false
      in
      [ Value.int (s + bonus) ]);
  (* relay: re-issue the named traversal against another worker *)
  on_worker "ck_relay" (fun node args ->
      match args with
      | Value.Str proc :: site :: rest ->
        Node.call node
          ~dst:(Space_id.make ~site:(Value.to_int site) ~proc:0)
          proc rest
      | _ -> assert false);
  Node.register ground "ck_bonus" (fun _ _ -> [ Value.int 7 ]);
  on_worker "ck_ping" (fun _ _ -> [ Value.int 1 ]);
  (* the wide-struct family: elements are integers stored in doubles, so
     every observation converts back exactly *)
  on_worker "ck_mat_poke" (fun node args ->
      match args with
      | [ p; r; c; d ] ->
        let ptr = Access.of_value p in
        let row = Value.to_int r and col = Value.to_int c in
        let v =
          int_of_float (Matrix.get node ptr ~row ~col) + Value.to_int d
        in
        Matrix.set node ptr ~row ~col (float_of_int v);
        [ Value.int v ]
      | _ -> assert false);
  on_worker "ck_mat_frob" (fun node args ->
      [ Value.int (int_of_float (Matrix.frobenius node (Access.of_value (List.hd args)))) ]);
  on_worker "ck_mat_row" (fun node args ->
      match args with
      | [ p; r ] ->
        let row = Value.to_int r in
        [ Value.int (int_of_float (Matrix.row_sum node (Access.of_value p) ~row)) ]
      | _ -> assert false);
  (* the offload family: the worker submits a traversal plan instead of
     walking the structure through its cache; under [Offload_never] the
     very same plan replays client-side, so both paths hit one oracle *)
  let offload node pv plan =
    ints (Node.offload node ~root:(Access.of_value pv).Access.addr plan)
  in
  on_worker "ck_off_list" (fun node args ->
      match args with
      | [ p; lim ] ->
        offload node p
          (Linked_list.plan ~op:Srpc_core.Offload.Op_sum
             ~hop_bound:(Value.to_int lim) ())
      | _ -> assert false);
  on_worker "ck_off_tree" (fun node args ->
      match args with
      | [ p; lim ] -> offload node p (Tree.plan ~hop_bound:(Value.to_int lim) ())
      | _ -> assert false);
  on_worker "ck_off_graph" (fun node args ->
      match args with
      | [ p; lim ] -> offload node p (Graph.plan ~hop_bound:(Value.to_int lim) ())
      | _ -> assert false);
  on_worker "ck_off_wide" (fun node args ->
      match args with
      | [ p; lim ] ->
        offload node p (Matrix.plan ~hop_bound:(Value.to_int lim) ())
      | _ -> assert false);
  on_worker "ck_off_list_update" (fun node args ->
      match args with
      | [ p; i; d ] ->
        let idx = Value.to_int i in
        offload node p
          (Linked_list.plan
             ~op:(Srpc_core.Offload.Op_update { idx; delta = Value.to_int d })
             ~hop_bound:(idx + 1) ())
      | _ -> assert false);
  on_worker "ck_off_tree_update" (fun node args ->
      match args with
      | [ p; i; d ] ->
        let idx = Value.to_int i in
        offload node p
          (Tree.plan
             ~op:(Srpc_core.Offload.Op_update { idx; delta = Value.to_int d })
             ~hop_bound:(idx + 1) ())
      | _ -> assert false)

let final_read ground kind ptr =
  match kind with
  | KList -> Linked_list.to_list ground ptr
  | KTree -> Tree.data_list ground ptr
  | KGraph ->
    let n, s = Graph.reachable_sum ground ptr in
    [ n; s ]
  | KWide ->
    let e = Script.wide_edge in
    List.init (e * e) (fun i ->
        int_of_float (Matrix.get ground ptr ~row:(i / e) ~col:(i mod e)))

(* The per-op execution environment: the weave and traffic harnesses
   run several grounds on one [cluster], sharing its workers, and run
   resolved ops through the very same code path as the single-session
   checker, so the two can never diverge on op semantics. *)
type env = {
  e_cluster : Cluster.t;
  e_ground : Node.t;
  e_workers : Node.t list;
  e_objs : (int, kind * Access.ptr ref) Hashtbl.t;
  e_crashed : int list ref;
}

let make_env ~cluster ~ground ~workers =
  {
    e_cluster = cluster;
    e_ground = ground;
    e_workers = workers;
    e_objs = Hashtbl.create 16;
    e_crashed = ref [];
  }

let exec_rop env rop =
  let cluster = env.e_cluster in
  let ground = env.e_ground in
  let workers = env.e_workers in
  let objs = env.e_objs in
  let crashed = env.e_crashed in
  let worker_at i = List.nth workers i in
  let wid i = Node.id (worker_at i) in
  let wsite i = (wid i).Space_id.site in
  let get id = Hashtbl.find objs id in
  let call w proc args = outs (Node.call ground ~dst:(wid w) proc args) in
  match rop with
  | RBuild { id; shape } -> (
    match shape with
    | SList vs ->
      let h = Linked_list.build ground vs in
      Hashtbl.replace objs id (KList, ref h);
      [ Linked_list.length ground h ]
    | STree d ->
      let r = Tree.build ground ~depth:d in
      Hashtbl.replace objs id (KTree, ref r);
      [ Tree.count ground r ]
    | SGraph { nodes; gseed } ->
      let r = Graph.build ground ~nodes ~seed:gseed in
      Hashtbl.replace objs id (KGraph, ref r);
      let n, s = Graph.reachable_sum ground r in
      [ n; s ]
    | SWide ->
      let r = Matrix.create ground ~tile_rows:1 ~tile_cols:1 in
      Hashtbl.replace objs id (KWide, ref r);
      let rows, cols = Matrix.dims ground r in
      [ rows; cols ])
  | RSum { worker; id } -> (
    let kind, p = get id in
    let pv = Access.to_value !p in
    match kind with
    | KList -> call worker "ck_list_sum" [ pv ]
    | KTree -> call worker "ck_tree_visit" [ pv; Value.int max_int ]
    | KGraph -> call worker "ck_graph_sum" [ pv ]
    | KWide -> call worker "ck_mat_frob" [ pv ])
  | RVisit { worker; id; limit } ->
    let _, p = get id in
    call worker "ck_tree_visit" [ Access.to_value !p; Value.int limit ]
  | RUpdate { worker; id; idx; delta } -> (
    let kind, p = get id in
    let args = [ Access.to_value !p; Value.int idx; Value.int delta ] in
    match kind with
    | KList -> call worker "ck_list_update" args
    | KTree -> call worker "ck_tree_update" args
    | KGraph | KWide -> assert false)
  | RPoke { worker; id; idx; delta } ->
    let _, p = get id in
    let e = Script.wide_edge in
    call worker "ck_mat_poke"
      [
        Access.to_value !p; Value.int (idx / e); Value.int (idx mod e);
        Value.int delta;
      ]
  | RWideRow { worker; id; row } ->
    let _, p = get id in
    call worker "ck_mat_row" [ Access.to_value !p; Value.int row ]
  | RMapList { worker; id; mul; add } ->
    let _, p = get id in
    call worker "ck_list_map"
      [ Access.to_value !p; Value.int mul; Value.int add ]
  | RMapTree { worker; id; limit } ->
    let _, p = get id in
    call worker "ck_tree_mapu" [ Access.to_value !p; Value.int limit ]
  | RNested { w1; w2; id } -> (
    let kind, p = get id in
    let pv = Access.to_value !p in
    let relay proc args =
      call w1 "ck_relay" (Value.str proc :: Value.int (wsite w2) :: args)
    in
    match kind with
    | KList -> relay "ck_list_sum" [ pv ]
    | KTree -> relay "ck_tree_visit" [ pv; Value.int max_int ]
    | KGraph -> relay "ck_graph_sum" [ pv ]
    | KWide -> relay "ck_mat_frob" [ pv ])
  | RCallback { worker; id } -> (
    let kind, p = get id in
    let pv = Access.to_value !p in
    match kind with
    | KList -> call worker "ck_list_bonus" [ pv ]
    | KTree -> call worker "ck_tree_bonus" [ pv ]
    | KGraph -> call worker "ck_graph_bonus" [ pv ]
    | KWide -> assert false)
  | ROffSum { worker; id; limit } -> (
    let kind, p = get id in
    let args = [ Access.to_value !p; Value.int limit ] in
    match kind with
    | KList -> call worker "ck_off_list" args
    | KGraph -> call worker "ck_off_graph" args
    | KTree | KWide -> assert false)
  | ROffVisit { worker; id; limit } -> (
    let kind, p = get id in
    let args = [ Access.to_value !p; Value.int limit ] in
    match kind with
    | KTree -> call worker "ck_off_tree" args
    | KWide -> call worker "ck_off_wide" args
    | KList | KGraph -> assert false)
  | ROffUpdate { worker; id; idx; delta } -> (
    let kind, p = get id in
    let args = [ Access.to_value !p; Value.int idx; Value.int delta ] in
    match kind with
    | KList -> call worker "ck_off_list_update" args
    | KTree -> call worker "ck_off_tree_update" args
    | KGraph | KWide -> assert false)
  | RLocalUpdate { id; idx; delta } -> (
    let kind, p = get id in
    match kind with
    | KList ->
      let cell = Linked_list.nth ground !p idx in
      let v = Access.get_int ground cell ~field:"value" + delta in
      Access.set_int ground cell ~field:"value" v;
      [ v ]
    | KTree ->
      let cell = Tree.nth_preorder ground !p idx in
      let v = Access.get_int ground cell ~field:"data" + delta in
      Access.set_int ground cell ~field:"data" v;
      [ v ]
    | KWide ->
      let e = Script.wide_edge in
      let row = idx / e and col = idx mod e in
      let v = int_of_float (Matrix.get ground !p ~row ~col) + delta in
      Matrix.set ground !p ~row ~col (float_of_int v);
      [ v ]
    | KGraph -> assert false)
  | RAppend { id; home; values } ->
    let _, p = get id in
    let home_id = if home = 0 then Node.id ground else wid (home - 1) in
    p := Linked_list.append ground !p ~home:home_id values;
    [ Linked_list.length ground !p ]
  | RFree { id } -> (
    let kind, p = get id in
    Hashtbl.remove objs id;
    match kind with
    | KList ->
      Linked_list.free ground !p;
      []
    | KTree ->
      Tree.free ground !p;
      []
    | KGraph | KWide -> assert false)
  | RSession ->
    Node.end_session ground;
    Node.begin_session ground;
    []
  | RCrash { worker } ->
    if not (List.mem worker !crashed) then begin
      Transport.crash (Cluster.transport cluster)
        (Space_id.to_string (wid worker));
      crashed := worker :: !crashed
    end;
    []
  | RRevive { worker } ->
    if List.mem worker !crashed then begin
      Transport.revive (Cluster.transport cluster)
        (Space_id.to_string (wid worker));
      crashed := List.filter (fun w -> w <> worker) !crashed
    end;
    []

let cluster ?cost ?fault ~grounds ~arches ~strategy () =
  let cluster = Cluster.create ?cost () in
  let add ?arch site = Cluster.add_node cluster ~site ?arch ~strategy () in
  let grounds = List.init grounds (fun i -> add (i + 1)) in
  let first = List.length grounds + 1 in
  let workers =
    List.mapi (fun i a -> add ~arch:arch_table.(a) (first + i)) arches
  in
  Linked_list.register_types cluster;
  Tree.register_types cluster;
  Graph.register_types cluster;
  Matrix.register_types cluster;
  List.iter (fun ground -> register_procs ~ground workers) grounds;
  let trace = Trace.create () in
  Transport.set_trace (Cluster.transport cluster) (Some trace);
  (match fault with
  | None -> ()
  | Some f ->
    let fp = Fault_plan.create ~seed:f.fseed () in
    Fault_plan.set_global fp
      (Fault_plan.profile ~drop:f.drop ~duplicate:f.dup ());
    Cluster.install_faults cluster fp);
  (cluster, grounds, workers, trace)

let run plan =
  let cluster, grounds, workers, trace =
    cluster ~cost:Cost_model.zero ?fault:plan.p_fault ~grounds:1
      ~arches:plan.p_arches ~strategy:strategy_table.(plan.p_strategy) ()
  in
  let ground = List.hd grounds in
  let env = make_env ~cluster ~ground ~workers in
  let wid i = Node.id (List.nth workers i) in
  let get id = Hashtbl.find env.e_objs id in
  let obs_acc = ref [] in
  let kind_of id = List.assoc id plan.p_kinds in
  let step rop = obs_acc := exec_rop env rop :: !obs_acc in
  (* Recovery shared by the completion and abort paths: bring crashed
     endpoints back while the plan is still installed, then restore the
     reliable transport and probe that both sides answer a fresh
     session — the "both nodes reusable" acceptance check. *)
  let recover_and_probe () =
    List.iter
      (fun w ->
        Transport.revive (Cluster.transport cluster) (Space_id.to_string (wid w)))
      !(env.e_crashed);
    if plan.p_fault <> None then Cluster.clear_faults cluster;
    match
      Node.with_session ground (fun () ->
          List.iter
            (fun w -> ignore (Node.call ground ~dst:(Node.id w) "ck_ping" []))
            workers)
    with
    | () -> true
    | exception _ -> false
  in
  let finish ~final_a ~phase_a_done ~final_b ~aborted ~reusable =
    {
      obs = List.rev !obs_acc;
      final_a;
      phase_a_done;
      final_b;
      aborted;
      reusable;
      trace;
    }
  in
  Node.begin_session ground;
  match
    List.iter step plan.p_rops;
    (* phase A: all-local ground reads inside the final session — mixed
       objects are still readable here, their cache slots are live *)
    List.map
      (fun id ->
        let _, p = get id in
        (id, final_read ground (kind_of id) !p))
      plan.p_verify_all
  with
  | exception Session.Session_aborted { reason; _ } ->
    let reusable = recover_and_probe () in
    finish ~final_a:[] ~phase_a_done:false ~final_b:[] ~aborted:(Some reason)
      ~reusable
  | final_a -> (
    match Node.end_session ground with
    | exception Session.Session_aborted { reason; _ } ->
      let reusable = recover_and_probe () in
      finish ~final_a ~phase_a_done:true ~final_b:[] ~aborted:(Some reason)
        ~reusable
    | () ->
      let reusable = recover_and_probe () in
      (* phase B: after the close the caches are invalidated; every
         ground-pure object must still read back the committed state *)
      let final_b =
        List.map
          (fun id ->
            let _, p = get id in
            (id, final_read ground (kind_of id) !p))
          plan.p_verify_local
      in
      finish ~final_a ~phase_a_done:true ~final_b ~aborted:None ~reusable)
