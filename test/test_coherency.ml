(* The session-close coherency protocol, pinned cell by cell.

   One scenario runs in every combination of the three facts that pick
   a close: delta coherency off or on, a fault plan (every probability
   zero) installed or not, and page-grain or twin-diff dirtiness. The scenario reaches every
   branch of the modified-data-set pipeline:
   - the ground changes one element of an 8 KiB matrix tile homed at
     each worker, so the close ships a byte-range delta to both;
   - the ground updates a one-cell list homed at a worker, whose full
     item is smaller than any delta (full-item fallback);
   - the ground frees a worker-homed list before a call (the frees
     ride [Call_d] with delta on) and another right before the close
     (they ride [Wb_delta], or flush before staging under a plan);
   - a worker frees a ground-homed list passed to it (the frees ride
     [Return_d]);
   - a worker writes a ground-homed tile that a second worker holds, so
     the ground's traveling refresh reaches the second worker as a
     delta;
   - the ground updates a cell homed at the second worker before
     calling the first, so the cell snowballs through a third space and
     its home-agreed base goes stale (full-item fallback on the way
     home).

   Each cell checks every home's final values and pins a digest of the
   full trace: frame order, sizes, labels, marks and simulated
   timestamps (default cost model). *)

open Srpc_memory
open Srpc_core
open Srpc_simnet
open Srpc_workloads

type outcome = {
  trace : string;
  lint_errors : int;  (** protocol and race linter errors on the trace *)
  close : Stats.snapshot;  (** statistics of [end_session] alone *)
  peeks : float list;  (** what the second worker read, per peek *)
  labels : string list;  (** request labels, in send order *)
}

let ptr_arg = Access.to_value
let ptr_of v = Access.of_value v

let run_scenario ~delta ~faulty ~grain =
  let strategy = { (Strategy.smart ~delta ()) with Strategy.grain } in
  let cluster = Cluster.create () in
  let trace = Trace.create () in
  Transport.set_trace (Cluster.transport cluster) (Some trace);
  let g = Cluster.add_node cluster ~site:1 ~strategy () in
  let w1 = Cluster.add_node cluster ~site:2 ~strategy () in
  let w2 = Cluster.add_node cluster ~site:3 ~strategy () in
  Matrix.register_types cluster;
  Linked_list.register_types cluster;
  if faulty then Cluster.install_faults cluster (Fault_plan.create ());
  let grid1 = Matrix.create w1 ~tile_rows:1 ~tile_cols:1 in
  let l1 = Linked_list.build w1 [ 1; 2; 3 ] in
  let c1 = Linked_list.build w1 [ 10 ] in
  let grid2 = Matrix.create w2 ~tile_rows:1 ~tile_cols:1 in
  let l2 = Linked_list.build w2 [ 4; 5 ] in
  let c2 = Linked_list.build w2 [ 20 ] in
  let lg = Linked_list.build g [ 7; 8; 9 ] in
  let gridg = Matrix.create g ~tile_rows:1 ~tile_cols:1 in
  Node.register w1 "roots" (fun _ _ -> List.map ptr_arg [ grid1; l1; c1 ]);
  Node.register w2 "roots" (fun _ _ -> List.map ptr_arg [ grid2; l2; c2 ]);
  Node.register w1 "work" (fun node -> function
    | [ lv; gv ] ->
      Linked_list.free node (ptr_of lv);
      Matrix.set node (ptr_of gv) ~row:2 ~col:3 5.5;
      []
    | _ -> invalid_arg "work: expected (list, grid)");
  Node.register w2 "peek" (fun node -> function
    | [ gv ] -> [ Value.float (Matrix.get node (ptr_of gv) ~row:2 ~col:3) ]
    | _ -> invalid_arg "peek: expected (grid)");
  let call dst proc args = Node.call g ~dst:(Node.id dst) proc args in
  let peek () =
    match call w2 "peek" [ ptr_arg gridg ] with
    | [ v ] -> Value.to_float v
    | _ -> failwith "peek: bad arity"
  in
  Node.begin_session g;
  let rgrid1, rl1, rc1 =
    match call w1 "roots" [] with
    | [ a; b; c ] -> (ptr_of a, ptr_of b, ptr_of c)
    | _ -> failwith "roots: bad arity"
  in
  let rgrid2, rl2, rc2 =
    match call w2 "roots" [] with
    | [ a; b; c ] -> (ptr_of a, ptr_of b, ptr_of c)
    | _ -> failwith "roots: bad arity"
  in
  let peek1 = peek () in
  Linked_list.map_in_place g rc2 (fun v -> v + 1);
  Linked_list.free g rl1;
  ignore (call w1 "work" [ ptr_arg lg; ptr_arg gridg ]);
  let peek2 = peek () in
  Matrix.set g rgrid1 ~row:3 ~col:5 42.0;
  Matrix.set g rgrid2 ~row:7 ~col:1 17.0;
  Linked_list.map_in_place g rc1 (fun v -> v + 100);
  Linked_list.free g rl2;
  let s1 = Cluster.snapshot cluster in
  Node.end_session g;
  let s2 = Cluster.snapshot cluster in
  (* every home holds the session's last write *)
  let check what expected got =
    Alcotest.(check (float 0.0)) what expected got
  in
  check "tile at w1" 42.0 (Matrix.get w1 grid1 ~row:3 ~col:5);
  check "tile at w2" 17.0 (Matrix.get w2 grid2 ~row:7 ~col:1);
  check "tile at ground" 5.5 (Matrix.get g gridg ~row:2 ~col:3);
  Alcotest.(check (list int)) "cell at w1" [ 110 ] (Linked_list.to_list w1 c1);
  Alcotest.(check (list int)) "cell at w2" [ 21 ] (Linked_list.to_list w2 c2);
  let freed node (p : Access.ptr) =
    not (Allocator.is_allocated (Node.heap node) p.Access.addr)
  in
  Alcotest.(check bool) "w1 list freed" true (freed w1 l1);
  Alcotest.(check bool) "w2 list freed" true (freed w2 l2);
  Alcotest.(check bool) "ground list freed" true (freed g lg);
  let labels =
    List.filter_map
      (fun (e : Trace.event) ->
        match e.Trace.kind with
        | Trace.Message Trace.Request -> Some e.Trace.label
        | _ -> None)
      (Trace.events trace)
  in
  {
    trace = Format.asprintf "%a" Trace.pp trace;
    lint_errors =
      Srpc_analysis.(
        Diagnostic.count_errors (Proto_lint.check trace)
        + Diagnostic.count_errors (Race_lint.check trace));
    close = Stats.diff s2 s1;
    peeks = [ peek1; peek2 ];
    labels;
  }

let grain_name = function
  | Strategy.Page_grain -> "page"
  | Strategy.Twin_diff -> "twin"

(* Digests of [Trace.pp] per cell. They fix every frame, mark and
   timestamp of the scenario; a change to the coherency pipeline that
   moves any of them is a wire change, not a refactor. *)
let pinned =
  [
    ((false, false, Strategy.Page_grain), "512625dafd268c6023272582d0bd32e4");
    ((false, false, Strategy.Twin_diff), "5648fc7605d4796c2e35923d659051e8");
    ((false, true, Strategy.Page_grain), "ea6b7fcd815c809e380c7d34b2329a06");
    ((false, true, Strategy.Twin_diff), "a03779a2a5233570ef6644ca92626a37");
    ((true, false, Strategy.Page_grain), "67369b2c65b505dfe042feb732f4e4a9");
    ((true, false, Strategy.Twin_diff), "c23be25db8b72d167463c5e87cb21d13");
    ((true, true, Strategy.Page_grain), "ef15f3c2ea2d570b6550e4357626036e");
    ((true, true, Strategy.Twin_diff), "c9afc72b63b26c29980916695a406184");
  ]

let cell_name (delta, faulty, grain) =
  Printf.sprintf "delta %s, %s, %s grain"
    (if delta then "on" else "off")
    (if faulty then "fault plan" else "no plan")
    (grain_name grain)

let test_cell ((delta, faulty, grain) as cell) digest () =
  let o = run_scenario ~delta ~faulty ~grain in
  Alcotest.(check (list (float 0.0))) "second worker's reads" [ 0.0; 5.5 ]
    o.peeks;
  Alcotest.(check int) "protocol and race linters clean" 0 o.lint_errors;
  let has l = List.mem l o.labels in
  if delta then begin
    Alcotest.(check bool) "a delta beat its full item" true
      (o.close.Stats.delta_bytes_saved > 0);
    Alcotest.(check bool) "the small cell fell back to a full item" true
      (o.close.Stats.full_fallbacks > 0);
    if faulty then
      Alcotest.(check (list bool)) "staged items, staged deltas, commit"
        [ true; true; true ]
        [ has "wb-stage"; has "wb-stage-delta"; has "wb-commit" ]
    else
      Alcotest.(check (list bool)) "combined close frames, no free batch"
        [ true; false ]
        [ has "wb-delta+inv"; has "free-batch" ]
  end;
  Alcotest.(check string) (cell_name cell ^ " trace digest") digest
    (Digest.to_hex (Digest.string o.trace))

(* The close ships the foreign dirty entries only. Our own data modified
   elsewhere came home with the callee's reply and is already applied to
   the originals, so a close whose modified data set is only the
   ground's own tree nodes encodes, counts and sends nothing. *)
let test_close_ships_no_own_data ~faulty () =
  let cluster = Cluster.create () in
  let g = Cluster.add_node cluster ~site:1 () in
  let w = Cluster.add_node cluster ~site:2 () in
  Tree.register_types cluster;
  if faulty then Cluster.install_faults cluster (Fault_plan.create ());
  let root = Tree.build g ~depth:4 in
  let before = Tree.data_list g root in
  Node.register w "update" (fun node -> function
    | [ r ] ->
      let visited, _ = Tree.visit_update node (ptr_of r) ~limit:1000 in
      [ Value.int visited ]
    | _ -> invalid_arg "update: expected (root)");
  Node.begin_session g;
  ignore (Node.call g ~dst:(Node.id w) "update" [ ptr_arg root ]);
  let s0 = Cluster.snapshot cluster in
  Node.end_session g;
  let d = Stats.diff (Cluster.snapshot cluster) s0 in
  Alcotest.(check (list int)) "every node updated at home"
    (List.map succ before) (Tree.data_list g root);
  Alcotest.(check (pair int int)) "close write-backs (items, bytes)" (0, 0)
    (d.Stats.writebacks, d.Stats.writeback_bytes)

(* The end of a session drops every piece of its state at every
   participant, batched operations included. A callee that allocates at
   the ground and then raises leaves its [Alloc_batch] unflushed; the
   session's invalidation must discard it, or the next session would
   allocate a block nothing references and rebind a dropped cache
   entry. *)
let test_invalidation_drops_batched_ops () =
  let cluster = Cluster.create () in
  let g = Cluster.add_node cluster ~site:1 () in
  let w = Cluster.add_node cluster ~site:2 () in
  Linked_list.register_types cluster;
  Node.register w "alloc_then_fail" (fun node _ ->
      ignore
        (Node.extended_malloc node ~home:(Node.id g) ~ty:Linked_list.type_name);
      failwith "boom");
  Node.register w "noop" (fun _ _ -> []);
  let live () = Allocator.live_blocks (Node.heap g) in
  let before = live () in
  (match
     Node.with_session g (fun () ->
         Node.call g ~dst:(Node.id w) "alloc_then_fail" [])
   with
  | _ -> Alcotest.fail "the procedure raised"
  | exception Node.Remote_error _ -> ());
  Node.with_session g (fun () -> ignore (Node.call g ~dst:(Node.id w) "noop" []));
  Alcotest.(check int) "no block allocated for the failed call" before (live ());
  Alcotest.(check (result unit string)) "callee cache consistent" (Ok ())
    (Cache.check_invariants (Node.cache w))

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "coherency"
    [
      ( "close cells",
        List.map
          (fun (cell, digest) -> tc (cell_name cell) `Quick (test_cell cell digest))
          pinned );
      ( "close write-back",
        [
          tc "no own data, no plan" `Quick
            (test_close_ships_no_own_data ~faulty:false);
          tc "no own data, fault plan" `Quick
            (test_close_ships_no_own_data ~faulty:true);
        ] );
      ( "session end",
        [
          tc "invalidation drops batched operations" `Quick
            test_invalidation_drops_batched_ops;
        ] );
    ]
