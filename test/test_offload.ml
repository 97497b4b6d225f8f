(* Traversal offloading (docs/OFFLOAD.md): property tests.

   The contract under test is transparency — where a plan runs (client
   walk over the cache, or the datum's home walking its own heap) must
   never change what it computes. Each test pits the offloaded arm
   against the client-side arm and a pure expectation, across every
   workload shape, every strategy-table entry, and a lossy link with
   the at-most-once retry envelope underneath. *)

open Srpc_core
open Srpc_simnet
open Srpc_workloads
module Offload = Srpc_core.Offload
module Check = Srpc_check

let give_root = "give_root"

(* A two-site cluster: the structure lives at [home] (site 2), the
   client walks or offloads from site 1. *)
let mk_cluster ?(strategy = Strategy.smart ()) ?fault () =
  let cluster = Cluster.create ~cost:Cost_model.zero () in
  let client = Cluster.add_node cluster ~site:1 ~strategy () in
  let home = Cluster.add_node cluster ~site:2 ~strategy () in
  Linked_list.register_types cluster;
  Tree.register_types cluster;
  Graph.register_types cluster;
  Matrix.register_types cluster;
  (match fault with
  | None -> ()
  | Some (seed, drop, dup) ->
    let fp = Fault_plan.create ~seed () in
    Fault_plan.set_global fp (Fault_plan.profile ~drop ~duplicate:dup ());
    Cluster.install_faults cluster fp);
  (cluster, client, home)

let fetch_root client home =
  match Node.call client ~dst:(Node.id home) give_root [] with
  | [ v ] -> Access.of_value v
  | _ -> failwith (give_root ^ ": bad arity")

(* One offloaded run: build [kind] at home, run [plan] [calls] times
   from the client inside one session, return the last result. *)
let run_plan ~strategy ~build ~plan () =
  let _cluster, client, home = mk_cluster ~strategy () in
  let root = build home in
  Node.register home give_root (fun _ _ -> [ Access.to_value root ]);
  Node.with_session client (fun () ->
      let rootp = fetch_root client home in
      Node.offload client ~root:rootp.Access.addr plan)

(* Every workload shape, as (label, build, plan, pure expectation). *)
let shapes =
  let list_vals = [ 3; 1; 4; 1; 5; 9; 2; 6 ] in
  let tree_depth = 4 in
  let tn = Tree.nodes_of_depth tree_depth in
  let graph_nodes = 10 and graph_seed = 7 in
  let graph_expect =
    (* the walker's DFS (ascending out-slots, seen-set) reaches the same
       vertex set as [Graph.reachable_sum]; payloads are the vertex ids *)
    let adj = Graph.edges ~nodes:graph_nodes ~seed:graph_seed in
    let seen = Array.make graph_nodes false in
    let rec go i =
      if not seen.(i) then begin
        seen.(i) <- true;
        List.iter (fun (_, j) -> go j) adj.(i)
      end
    in
    go 0;
    let s = ref 0 in
    Array.iteri (fun i v -> if v then s := !s + i) seen;
    !s
  in
  [
    ( "list sum",
      (fun home -> Linked_list.build home list_vals),
      Linked_list.plan ~hop_bound:64 (),
      [ List.fold_left ( + ) 0 list_vals ] );
    ( "list visit prefix",
      (fun home -> Linked_list.build home list_vals),
      Linked_list.plan ~op:Offload.Op_visit ~hop_bound:3 (),
      [ 3; 3 + 1 + 4 ] );
    ( "tree visit",
      (fun home -> Tree.build home ~depth:tree_depth),
      Tree.plan ~hop_bound:tn (),
      [ tn; tn * (tn - 1) / 2 ] );
    ( "tree visit bounded",
      (fun home -> Tree.build home ~depth:tree_depth),
      Tree.plan ~hop_bound:6 (),
      [ 6; 15 ] );
    ( "tree find",
      (fun home -> Tree.build home ~depth:tree_depth),
      Tree.plan ~op:(Offload.Op_find 9) ~hop_bound:tn (),
      [ 9 ] );
    ( "graph sum",
      (fun home -> Graph.build home ~nodes:graph_nodes ~seed:graph_seed),
      Graph.plan ~hop_bound:64 (),
      [ graph_expect ] );
    ( "wide visit",
      (fun home ->
        let grid = Matrix.create home ~tile_rows:1 ~tile_cols:1 in
        Matrix.set home grid ~row:0 ~col:0 2.0;
        Matrix.set home grid ~row:3 ~col:5 40.0;
        grid),
      Matrix.plan ~hop_bound:8 (),
      [ 2; 42 ] );
  ]

(* The tentpole property: every workload x every strategy-table entry
   computes the same results, whether the strategy walks client-side
   ([Offload_never]), ships the plan home ([Offload_always]) or lets
   the per-type learner decide ([Offload_auto]). *)
let test_every_workload_every_strategy () =
  Array.iteri
    (fun si strategy ->
      List.iter
        (fun (label, build, plan, expected) ->
          let got = run_plan ~strategy ~build ~plan () in
          Alcotest.(check (list int))
            (Printf.sprintf "%s under strategy %d" label si)
            expected got)
        shapes)
    Check.Interp.strategy_table

(* Offloaded updates: effects land at the home and survive the close. *)
let test_update_lands_at_home () =
  let always =
    { Strategy.fully_lazy with Strategy.offload = Strategy.Offload_always }
  in
  List.iter
    (fun strategy ->
      let _cluster, client, home = mk_cluster ~strategy () in
      let root = Linked_list.build home [ 10; 20; 30 ] in
      Node.register home give_root (fun _ _ -> [ Access.to_value root ]);
      Node.with_session client (fun () ->
          let rootp = fetch_root client home in
          let upd idx delta =
            Linked_list.plan
              ~op:(Offload.Op_update { idx; delta })
              ~hop_bound:(idx + 1) ()
          in
          Alcotest.(check (list int))
            "update slot 1" [ 25 ]
            (Node.offload client ~root:rootp.Access.addr (upd 1 5));
          (* the refreshed copy is visible to an immediate client walk *)
          Alcotest.(check (list int))
            "client rereads the update" [ 10 + 25 + 30 ]
            (Node.offload client ~root:rootp.Access.addr
               (Linked_list.plan ~hop_bound:8 ())));
      (* after the close the home's heap is the only copy left *)
      Alcotest.(check (list int))
        "home state after close" [ 10; 25; 30 ]
        (Linked_list.to_list home root))
    [ Strategy.smart (); always ]

(* Exactly-once update effects under a lossy link: dropped frames are
   retried under the at-most-once envelope, duplicated frames replay the
   cached reply — so N offloaded increments must raise the value by
   exactly N, never more, never less. The returned values pin it: call
   i must observe exactly i increments. *)
let test_exactly_once_updates_under_drop () =
  let always =
    { Strategy.fully_lazy with Strategy.offload = Strategy.Offload_always }
  in
  let completed = ref 0 in
  for seed = 0 to 9 do
    let _cluster, client, home =
      mk_cluster ~strategy:always ~fault:(seed, 0.01, 0.005) ()
    in
    let root = Linked_list.build home [ 100 ] in
    Node.register home give_root (fun _ _ -> [ Access.to_value root ]);
    let plan =
      Linked_list.plan
        ~op:(Offload.Op_update { idx = 0; delta = 1 })
        ~hop_bound:1 ()
    in
    match
      Node.with_session client (fun () ->
          let rootp = fetch_root client home in
          for i = 1 to 40 do
            Alcotest.(check (list int))
              (Printf.sprintf "seed %d: increment %d applied once" seed i)
              [ 100 + i ]
              (Node.offload client ~root:rootp.Access.addr plan)
          done)
    with
    | () ->
      incr completed;
      Alcotest.(check (list int))
        (Printf.sprintf "seed %d: home value after close" seed)
        [ 140 ]
        (Linked_list.to_list home root)
    | exception Session.Session_aborted _ -> ()
  done;
  if !completed = 0 then
    Alcotest.fail "every seed aborted under a 1%% drop rate"

(* Client-side validation mirrors the decoder: a malformed plan is
   rejected with the same typed error before anything is touched. *)
let test_local_validation_parity () =
  let _cluster, client, home = mk_cluster () in
  let root = Linked_list.build home [ 1 ] in
  Node.register home give_root (fun _ _ -> [ Access.to_value root ]);
  Node.with_session client (fun () ->
      let rootp = fetch_root client home in
      List.iter
        (fun (label, plan) ->
          match Node.offload client ~root:rootp.Access.addr plan with
          | _ -> Alcotest.failf "%s: accepted" label
          | exception Srpc_xdr.Xdr.Decode_error _ -> ())
        [
          ("zero hop bound", Linked_list.plan ~hop_bound:0 ());
          ( "unknown value field",
            { (Linked_list.plan ~hop_bound:4 ()) with
              Offload.value_field = "nope" } );
          ( "cyclic hops",
            { (Linked_list.plan ~hop_bound:4 ()) with
              Offload.hops = [ "next"; "next" ] } );
        ])

(* The adaptive acceptance gate: on the long-haul link the learner must
   offload one-shot traversals and keep high-reuse sessions local, with
   identical results — no manual hints, just per-session feedback. *)
let test_adaptive_flip () =
  let lo = Experiments.offload_adaptive ~depth:8 ~sessions:24 ~repeats:1 () in
  let hi = Experiments.offload_adaptive ~depth:8 ~sessions:24 ~repeats:32 () in
  Alcotest.(check string)
    "low locality offloads" "offload" lo.Experiments.oa_choice;
  Alcotest.(check string) "high locality stays local" "local"
    hi.Experiments.oa_choice;
  Alcotest.(check int) "identical results"
    lo.Experiments.oa_run.Experiments.of_result
    hi.Experiments.oa_run.Experiments.of_result

(* The wire acceptance gate, at test scale: a one-shot offloaded
   traversal moves an order of magnitude fewer bytes than the eager
   closure, for the same answer. *)
let test_wire_reduction () =
  match Experiments.offload_sweep ~depth:8 ~repeat_points:[ 1 ] () with
  | [ row ] ->
    let e = row.Experiments.of_eager and o = row.Experiments.of_always in
    Alcotest.(check int) "same answer" e.Experiments.of_result
      o.Experiments.of_result;
    Alcotest.(check bool)
      (Printf.sprintf "10x fewer bytes (eager %d, offload %d)"
         e.Experiments.of_bytes o.Experiments.of_bytes)
      true
      (o.Experiments.of_bytes * 10 <= e.Experiments.of_bytes)
  | rows -> Alcotest.failf "expected one row, got %d" (List.length rows)

(* The adaptive table's header names the sessions each repeat point
   ran, not the number of repeat points. *)
let test_adaptive_label () =
  let points = Experiments.offload_adaptive_sweep ~depth:5 ~sessions:3 () in
  let text = Format.asprintf "%a" Experiments.pp_offload ([], points) in
  let want = "3 sessions each" in
  let n = String.length want in
  let rec found i =
    i + n <= String.length text && (String.sub text i n = want || found (i + 1))
  in
  Alcotest.(check bool) (Printf.sprintf "%S in %S" want text) true (found 0)

(* The check harness's offload mix at test scale: generated scripts
   over the full strategy table, judged by all three oracles. *)
let test_offload_check_loop () =
  List.iter
    (fun faults ->
      match Check.Runner.check ~offload:true ~seeds:60 ~depth:12 ~faults () with
      | Check.Runner.Ok st ->
        Alcotest.(check int) "all seeds ran" 60 st.Check.Runner.runs
      | Check.Runner.Failed { seed; failure; _ } ->
        Alcotest.failf "faults %.2f seed %d: %a" faults seed
          Check.Runner.pp_failure failure)
    [ 0.0; 0.02 ]

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "offload"
    [
      ( "transparency",
        [
          tc "every workload x every strategy" `Quick
            test_every_workload_every_strategy;
          tc "updates land at the home" `Quick test_update_lands_at_home;
          tc "exactly-once updates under drop" `Quick
            test_exactly_once_updates_under_drop;
          tc "local validation parity" `Quick test_local_validation_parity;
        ] );
      ( "adaptive",
        [
          tc "learner flips with the reuse count" `Quick test_adaptive_flip;
          tc "one-shot wire reduction" `Quick test_wire_reduction;
          tc "table names the sessions per point" `Quick test_adaptive_label;
        ] );
      ( "harness", [ tc "offload check loop" `Quick test_offload_check_loop ] );
    ]
