(* Integration tests: whole-system RPC scenarios over a simulated
   cluster — scalar calls, transparent remote pointers on the lazy and
   eager paths, nested RPCs and callbacks, the coherency protocol,
   remote allocation/release, session teardown, heterogeneity, and
   error propagation. *)

open Srpc_memory
open Srpc_types
open Srpc_core
open Srpc_simnet

let node_ty = "node"

let register_node_type cluster =
  Cluster.register_type cluster node_ty
    (Type_desc.Struct
       [
         ("left", Type_desc.ptr node_ty);
         ("right", Type_desc.ptr node_ty);
         ("data", Type_desc.i64);
       ])

(* Two-site cluster with zero costs (counts still recorded). *)
let mk2 ?(strategy = Strategy.smart ()) ?(arch_a = Arch.sparc32)
    ?(arch_b = Arch.sparc32) () =
  let cluster = Cluster.create ~cost:Cost_model.zero () in
  let a = Cluster.add_node cluster ~site:1 ~arch:arch_a ~strategy () in
  let b = Cluster.add_node cluster ~site:2 ~arch:arch_b ~strategy () in
  register_node_type cluster;
  (cluster, a, b)

let mk_node node ~left ~right ~data =
  let p = Access.ptr ~ty:node_ty (Node.malloc node ~ty:node_ty) in
  Access.set_ptr node p ~field:"left" left;
  Access.set_ptr node p ~field:"right" right;
  Access.set_i64 node p ~field:"data" (Int64.of_int data);
  p

let leaf node data =
  mk_node node ~left:(Access.null ~ty:node_ty) ~right:(Access.null ~ty:node_ty)
    ~data

(* --- scalar calls --- *)

let test_scalar_call () =
  let _, a, b = mk2 () in
  Node.register b "add" (fun _ args ->
      match args with
      | [ x; y ] -> [ Value.int (Value.to_int x + Value.to_int y) ]
      | _ -> assert false);
  Node.with_session a (fun () ->
      match Node.call a ~dst:(Node.id b) "add" [ Value.int 2; Value.int 40 ] with
      | [ v ] -> Alcotest.(check int) "sum" 42 (Value.to_int v)
      | _ -> Alcotest.fail "arity")

let test_all_scalar_kinds_cross_wire () =
  let _, a, b = mk2 () in
  Node.register b "echo" (fun _ args -> args);
  Node.with_session a (fun () ->
      let sent =
        [ Value.unit; Value.bool false; Value.int (-7); Value.float 2.5;
          Value.str "hello" ]
      in
      let got = Node.call a ~dst:(Node.id b) "echo" sent in
      Alcotest.(check bool) "echoed" true (List.for_all2 Value.equal sent got))

let test_unknown_procedure_propagates () =
  let _, a, b = mk2 () in
  Node.with_session a (fun () ->
      Alcotest.(check bool) "remote error" true
        (match Node.call a ~dst:(Node.id b) "missing" [] with
        | _ -> false
        | exception Node.Remote_error _ -> true))

let test_callee_exception_propagates () =
  let _, a, b = mk2 () in
  Node.register b "boom" (fun _ _ -> failwith "kaboom");
  Node.with_session a (fun () ->
      match Node.call a ~dst:(Node.id b) "boom" [] with
      | _ -> Alcotest.fail "expected error"
      | exception Node.Remote_error msg ->
        Alcotest.(check bool) "message" true
          (String.length msg > 0
          && String.exists (fun _ -> true) msg))

let test_call_requires_session () =
  let _, a, b = mk2 () in
  Node.register b "nop" (fun _ _ -> []);
  Alcotest.check_raises "no session" Session.No_active_session (fun () ->
      ignore (Node.call a ~dst:(Node.id b) "nop" []))

let test_call_self_rejected () =
  let _, a, _ = mk2 () in
  Node.register a "nop" (fun _ _ -> []);
  Node.with_session a (fun () ->
      Alcotest.(check bool) "self call" true
        (match Node.call a ~dst:(Node.id a) "nop" [] with
        | _ -> false
        | exception Invalid_argument _ -> true))

(* --- remote pointers, lazy path --- *)

let test_remote_pointer_lazy_fetch () =
  let cluster, a, b = mk2 () in
  let p = leaf a 123 in
  Node.register b "read_data" (fun node args ->
      let q = Access.of_value (List.hd args) in
      [ Value.int (Access.get_int node q ~field:"data") ]);
  Node.with_session a (fun () ->
      let s0 = Cluster.snapshot cluster in
      (match Node.call a ~dst:(Node.id b) "read_data" [ Access.to_value p ] with
      | [ v ] -> Alcotest.(check int) "data through the wire" 123 (Value.to_int v)
      | _ -> Alcotest.fail "arity");
      let d = Stats.diff (Cluster.snapshot cluster) s0 in
      Alcotest.(check int) "one fetch callback" 1 d.Stats.callbacks;
      Alcotest.(check int) "one fault" 1 d.Stats.faults)

let test_second_access_hits_cache () =
  let cluster, a, b = mk2 () in
  let p = leaf a 5 in
  Node.register b "read_twice" (fun node args ->
      let q = Access.of_value (List.hd args) in
      let x = Access.get_int node q ~field:"data" in
      let y = Access.get_int node q ~field:"data" in
      [ Value.int (x + y) ]);
  Node.with_session a (fun () ->
      let s0 = Cluster.snapshot cluster in
      ignore (Node.call a ~dst:(Node.id b) "read_twice" [ Access.to_value p ]);
      let d = Stats.diff (Cluster.snapshot cluster) s0 in
      Alcotest.(check int) "single fetch for two reads" 1 d.Stats.callbacks)

let test_null_pointer_argument () =
  let _, a, b = mk2 () in
  Node.register b "is_null" (fun _ args ->
      [ Value.bool (Value.to_addr (List.hd args) = 0) ]);
  Node.with_session a (fun () ->
      match Node.call a ~dst:(Node.id b) "is_null" [ Value.null ~ty:node_ty ] with
      | [ v ] -> Alcotest.(check bool) "null survives" true (Value.to_bool v)
      | _ -> Alcotest.fail "arity")

let test_pointer_chain_follows_origin () =
  (* b receives parent, dereferences child pointer: two lazy steps *)
  let _, a, b = mk2 ~strategy:Strategy.fully_lazy () in
  let child = leaf a 7 in
  let parent =
    mk_node a ~left:child ~right:(Access.null ~ty:node_ty) ~data:1
  in
  Node.register b "left_data" (fun node args ->
      let p = Access.of_value (List.hd args) in
      let l = Access.get_ptr node p ~field:"left" in
      [ Value.int (Access.get_int node l ~field:"data") ]);
  Node.with_session a (fun () ->
      match Node.call a ~dst:(Node.id b) "left_data" [ Access.to_value parent ] with
      | [ v ] -> Alcotest.(check int) "grandchild data" 7 (Value.to_int v)
      | _ -> Alcotest.fail "arity")

let test_returned_pointer_usable_by_caller () =
  (* callee returns a pointer into ITS heap; caller dereferences it *)
  let _, a, b = mk2 () in
  Node.register b "make_node" (fun node _ -> [ Access.to_value (leaf node 99) ]);
  Node.with_session a (fun () ->
      match Node.call a ~dst:(Node.id b) "make_node" [] with
      | [ v ] ->
        let p = Access.of_value v in
        Alcotest.(check int) "read remote result" 99
          (Access.get_int a p ~field:"data")
      | _ -> Alcotest.fail "arity")

(* --- eager path --- *)

let test_fully_eager_no_faults () =
  let cluster, a, b = mk2 ~strategy:Strategy.fully_eager () in
  let t = mk_node a ~left:(leaf a 2) ~right:(leaf a 3) ~data:1 in
  Node.register b "sum3" (fun node args ->
      let p = Access.of_value (List.hd args) in
      let l = Access.get_ptr node p ~field:"left" in
      let r = Access.get_ptr node p ~field:"right" in
      [
        Value.int
          (Access.get_int node p ~field:"data"
          + Access.get_int node l ~field:"data"
          + Access.get_int node r ~field:"data");
      ]);
  Node.with_session a (fun () ->
      let s0 = Cluster.snapshot cluster in
      (match Node.call a ~dst:(Node.id b) "sum3" [ Access.to_value t ] with
      | [ v ] -> Alcotest.(check int) "sum" 6 (Value.to_int v)
      | _ -> Alcotest.fail "arity");
      let d = Stats.diff (Cluster.snapshot cluster) s0 in
      Alcotest.(check int) "no faults" 0 d.Stats.faults;
      Alcotest.(check int) "no callbacks" 0 d.Stats.callbacks)

let test_closure_budget_limits_prefetch () =
  (* chain of 10 cells, budget of 3 nodes' worth: the first fetch cannot
     bring the whole chain *)
  let cluster, a, b = mk2 ~strategy:(Strategy.smart ~closure_size:48 ()) () in
  let rec chain node k =
    if k = 0 then Access.null ~ty:node_ty
    else mk_node node ~left:(chain node (k - 1)) ~right:(Access.null ~ty:node_ty)
        ~data:k
  in
  let head = chain a 10 in
  Node.register b "walk" (fun node args ->
      let rec go p acc =
        if Access.is_null p then acc
        else
          go (Access.get_ptr node p ~field:"left")
            (acc + Access.get_int node p ~field:"data")
      in
      [ Value.int (go (Access.of_value (List.hd args)) 0) ]);
  Node.with_session a (fun () ->
      let s0 = Cluster.snapshot cluster in
      (match Node.call a ~dst:(Node.id b) "walk" [ Access.to_value head ] with
      | [ v ] -> Alcotest.(check int) "sum 1..10" 55 (Value.to_int v)
      | _ -> Alcotest.fail "arity");
      let d = Stats.diff (Cluster.snapshot cluster) s0 in
      Alcotest.(check bool) "more than one fetch" true (d.Stats.callbacks > 1);
      Alcotest.(check bool) "fewer than ten" true (d.Stats.callbacks < 10))

(* --- nested RPCs and callbacks --- *)

let test_nested_rpc_three_sites () =
  let cluster = Cluster.create ~cost:Cost_model.zero () in
  let a = Cluster.add_node cluster ~site:1 () in
  let b = Cluster.add_node cluster ~site:2 () in
  let c = Cluster.add_node cluster ~site:3 () in
  register_node_type cluster;
  let p = leaf a 11 in
  (* A -> B -> C; C dereferences A's pointer (fetch crosses to A) *)
  Node.register b "relay" (fun node args ->
      Node.call node ~dst:(Node.id c) "read" args);
  Node.register c "read" (fun node args ->
      let q = Access.of_value (List.hd args) in
      [ Value.int (Access.get_int node q ~field:"data") ]);
  Node.with_session a (fun () ->
      match Node.call a ~dst:(Node.id b) "relay" [ Access.to_value p ] with
      | [ v ] -> Alcotest.(check int) "through two hops" 11 (Value.to_int v)
      | _ -> Alcotest.fail "arity")

let test_callback_to_caller () =
  let _, a, b = mk2 () in
  Node.register a "helper" (fun _ args ->
      [ Value.int (Value.to_int (List.hd args) * 10) ]);
  Node.register b "uses_callback" (fun node args ->
      Node.call node ~dst:(Node.id a) "helper" args);
  Node.with_session a (fun () ->
      match Node.call a ~dst:(Node.id b) "uses_callback" [ Value.int 4 ] with
      | [ v ] -> Alcotest.(check int) "callback result" 40 (Value.to_int v)
      | _ -> Alcotest.fail "arity")

let test_funref_explicit_callback () =
  let _, a, b = mk2 () in
  Node.register a "double" (fun _ args ->
      [ Value.int (2 * Value.to_int (List.hd args)) ]);
  Node.register b "apply" (fun node args ->
      match args with
      | [ f; x ] ->
        let fref = Funref.of_string (Value.to_str f) in
        Funref.invoke node fref [ x ]
      | _ -> assert false);
  Node.with_session a (fun () ->
      let fref = Funref.make ~home:(Node.id a) ~name:"double" in
      match
        Node.call a ~dst:(Node.id b) "apply"
          [ Value.str (Funref.to_string fref); Value.int 21 ]
      with
      | [ v ] -> Alcotest.(check int) "applied remotely" 42 (Value.to_int v)
      | _ -> Alcotest.fail "arity")

(* --- coherency --- *)

let test_callee_update_written_back_at_session_end () =
  let _, a, b = mk2 () in
  let p = leaf a 1 in
  Node.register b "bump" (fun node args ->
      let q = Access.of_value (List.hd args) in
      Access.set_int node q ~field:"data" (Access.get_int node q ~field:"data" + 1);
      []);
  Node.begin_session a;
  ignore (Node.call a ~dst:(Node.id b) "bump" [ Access.to_value p ]);
  Node.end_session a;
  Alcotest.(check int) "update reached the original" 2
    (Access.get_int a p ~field:"data")

let test_dirty_data_travels_with_return () =
  (* after B modifies A's datum and returns, A sees the new value when
     reading its own original (the modified set traveled with return) *)
  let _, a, b = mk2 () in
  let p = leaf a 10 in
  Node.register b "bump" (fun node args ->
      let q = Access.of_value (List.hd args) in
      Access.set_int node q ~field:"data" (Access.get_int node q ~field:"data" + 5);
      []);
  Node.with_session a (fun () ->
      ignore (Node.call a ~dst:(Node.id b) "bump" [ Access.to_value p ]);
      Alcotest.(check int) "visible inside session" 15
        (Access.get_int a p ~field:"data"))

let test_modified_set_travels_three_sites () =
  (* Paper's Fig. 1 coherency scenario: B modifies A's datum, then the
     session (via A) calls C, which must observe B's modification. *)
  let cluster = Cluster.create ~cost:Cost_model.zero () in
  let a = Cluster.add_node cluster ~site:1 () in
  let b = Cluster.add_node cluster ~site:2 () in
  let c = Cluster.add_node cluster ~site:3 () in
  register_node_type cluster;
  let p = leaf a 100 in
  Node.register b "bump" (fun node args ->
      let q = Access.of_value (List.hd args) in
      Access.set_int node q ~field:"data" (Access.get_int node q ~field:"data" + 1);
      []);
  Node.register c "read" (fun node args ->
      [ Value.int (Access.get_int node (Access.of_value (List.hd args)) ~field:"data") ]);
  Node.with_session a (fun () ->
      ignore (Node.call a ~dst:(Node.id b) "bump" [ Access.to_value p ]);
      match Node.call a ~dst:(Node.id c) "read" [ Access.to_value p ] with
      | [ v ] -> Alcotest.(check int) "C sees B's write" 101 (Value.to_int v)
      | _ -> Alcotest.fail "arity")

let test_nested_modification_b_to_c () =
  (* B passes A's pointer to C; C modifies; the dirty datum travels back
     through B to A *)
  let cluster = Cluster.create ~cost:Cost_model.zero () in
  let a = Cluster.add_node cluster ~site:1 () in
  let b = Cluster.add_node cluster ~site:2 () in
  let c = Cluster.add_node cluster ~site:3 () in
  register_node_type cluster;
  let p = leaf a 1 in
  Node.register b "relay_bump" (fun node args ->
      Node.call node ~dst:(Node.id c) "bump" args);
  Node.register c "bump" (fun node args ->
      let q = Access.of_value (List.hd args) in
      Access.set_int node q ~field:"data" (Access.get_int node q ~field:"data" * 7);
      []);
  Node.with_session a (fun () ->
      ignore (Node.call a ~dst:(Node.id b) "relay_bump" [ Access.to_value p ]);
      Alcotest.(check int) "write visible at origin" 7
        (Access.get_int a p ~field:"data"))

let test_pointer_update_written_back () =
  (* the callee rewires a pointer field to another of the caller's nodes;
     after write-back the caller's original must point at it *)
  let _, a, b = mk2 () in
  let target = leaf a 55 in
  let parent = leaf a 0 in
  Node.register b "link" (fun node args ->
      match args with
      | [ pv; tv ] ->
        Access.set_ptr node (Access.of_value pv) ~field:"left" (Access.of_value tv);
        []
      | _ -> assert false);
  Node.begin_session a;
  ignore
    (Node.call a ~dst:(Node.id b) "link"
       [ Access.to_value parent; Access.to_value target ]);
  Node.end_session a;
  let l = Access.get_ptr a parent ~field:"left" in
  Alcotest.(check int) "unswizzled back to the original" target.Access.addr
    l.Access.addr;
  Alcotest.(check int) "follows to data" 55 (Access.get_int a l ~field:"data")

let test_session_end_invalidates_callee_cache () =
  let _, a, b = mk2 () in
  let p = leaf a 9 in
  Node.register b "read" (fun node args ->
      [ Value.int (Access.get_int node (Access.of_value (List.hd args)) ~field:"data") ]);
  Node.begin_session a;
  ignore (Node.call a ~dst:(Node.id b) "read" [ Access.to_value p ]);
  Alcotest.(check bool) "cached during session" true (Node.cached_entries b > 0);
  Node.end_session a;
  Alcotest.(check int) "cache dropped" 0 (Node.cached_entries b);
  Alcotest.(check int) "caller cache dropped too" 0 (Node.cached_entries a)

let test_two_sequential_sessions () =
  let _, a, b = mk2 () in
  let p = leaf a 1 in
  Node.register b "bump" (fun node args ->
      let q = Access.of_value (List.hd args) in
      Access.set_int node q ~field:"data" (Access.get_int node q ~field:"data" + 1);
      []);
  Node.with_session a (fun () ->
      ignore (Node.call a ~dst:(Node.id b) "bump" [ Access.to_value p ]));
  Node.with_session a (fun () ->
      ignore (Node.call a ~dst:(Node.id b) "bump" [ Access.to_value p ]));
  Alcotest.(check int) "both sessions applied" 3 (Access.get_int a p ~field:"data")

(* --- remote allocation / release --- *)

let test_extended_malloc_remote_home () =
  let cluster, a, b = mk2 () in
  Node.register b "build_remote" (fun node _ ->
      (* allocate in A's space from B *)
      let home = Space_id.make ~site:1 ~proc:0 in
      let addr = Node.extended_malloc node ~home ~ty:node_ty in
      let p = Access.ptr ~ty:node_ty addr in
      Access.set_i64 node p ~field:"data" 777L;
      [ Access.to_value p ]);
  ignore cluster;
  Node.begin_session a;
  let res = Node.call a ~dst:(Node.id b) "build_remote" [] in
  let p = Access.of_value (List.hd res) in
  (* After return the datum lives in A's own heap. *)
  Alcotest.(check bool) "address in A's heap" true
    (p.Access.addr >= Srpc_memory.Allocator.base (Node.heap a)
    && p.Access.addr < Srpc_memory.Allocator.limit (Node.heap a));
  Alcotest.(check bool) "block is live at home" true
    (Srpc_memory.Allocator.is_allocated (Node.heap a) p.Access.addr);
  Node.end_session a;
  Alcotest.(check int) "content written home" 777 (Access.get_int a p ~field:"data")

let test_extended_malloc_batched_single_message () =
  let cluster, a, b = mk2 () in
  let n_allocs = 20 in
  Node.register b "burst" (fun node _ ->
      let home = Space_id.make ~site:1 ~proc:0 in
      for _ = 1 to n_allocs do
        ignore (Node.extended_malloc node ~home ~ty:node_ty)
      done;
      []);
  Node.with_session a (fun () ->
      let s0 = Cluster.snapshot cluster in
      ignore (Node.call a ~dst:(Node.id b) "burst" []);
      let d = Stats.diff (Cluster.snapshot cluster) s0 in
      (* call + return + one alloc batch + writebacks... the point is the
         allocations collapse to ONE batch message pair *)
      Alcotest.(check int) "allocs recorded" n_allocs d.Stats.remote_allocs;
      Alcotest.(check bool) "few messages" true (d.Stats.messages <= 8));
  Alcotest.(check int) "all live at home" n_allocs
    (Srpc_memory.Allocator.live_blocks (Node.heap a))

let test_extended_free_of_remote_datum () =
  let _, a, b = mk2 () in
  let p = leaf a 3 in
  Node.register b "free_it" (fun node args ->
      Node.extended_free node (Value.to_addr (List.hd args));
      []);
  Alcotest.(check bool) "live before" true
    (Srpc_memory.Allocator.is_allocated (Node.heap a) p.Access.addr);
  Node.with_session a (fun () ->
      ignore (Node.call a ~dst:(Node.id b) "free_it" [ Access.to_value p ]));
  Alcotest.(check bool) "released at origin" false
    (Srpc_memory.Allocator.is_allocated (Node.heap a) p.Access.addr)

let test_extended_free_cancels_pending_alloc () =
  let cluster, a, b = mk2 () in
  Node.register b "alloc_free" (fun node _ ->
      let home = Space_id.make ~site:1 ~proc:0 in
      let addr = Node.extended_malloc node ~home ~ty:node_ty in
      Node.extended_free node addr;
      []);
  Node.with_session a (fun () ->
      ignore (Node.call a ~dst:(Node.id b) "alloc_free" []));
  ignore cluster;
  Alcotest.(check int) "nothing allocated at home" 0
    (Srpc_memory.Allocator.live_blocks (Node.heap a))

let test_extended_malloc_local_home_is_malloc () =
  let _, a, _ = mk2 () in
  let addr = Node.extended_malloc a ~home:(Node.id a) ~ty:node_ty in
  Alcotest.(check bool) "in own heap" true
    (Srpc_memory.Allocator.is_allocated (Node.heap a) addr)

let test_extended_free_invalid_pointer () =
  let _, a, _ = mk2 () in
  Alcotest.(check bool) "garbage addr" true
    (match Node.extended_free a 0xdeadbeef0 with
    | () -> false
    | exception Node.Invalid_pointer _ -> true);
  (* freeing null is a no-op, like free(NULL) *)
  Node.extended_free a 0

(* --- heterogeneity --- *)

let hetero_pairs =
  [
    (Arch.sparc32, Arch.lp64_le);
    (Arch.lp64_le, Arch.sparc32);
    (Arch.ilp32_le, Arch.lp64_be);
    (Arch.lp64_be, Arch.ilp32_le);
  ]

let test_heterogeneous_tree_walk () =
  List.iter
    (fun (arch_a, arch_b) ->
      let _, a, b = mk2 ~arch_a ~arch_b () in
      let t = mk_node a ~left:(leaf a 20) ~right:(leaf a 30) ~data:10 in
      Node.register b "sum" (fun node args ->
          let rec go p =
            if Access.is_null p then 0
            else
              Access.get_int node p ~field:"data"
              + go (Access.get_ptr node p ~field:"left")
              + go (Access.get_ptr node p ~field:"right")
          in
          [ Value.int (go (Access.of_value (List.hd args))) ]);
      Node.with_session a (fun () ->
          match Node.call a ~dst:(Node.id b) "sum" [ Access.to_value t ] with
          | [ v ] ->
            Alcotest.(check int)
              (Printf.sprintf "%s->%s" arch_a.Arch.name arch_b.Arch.name)
              60 (Value.to_int v)
          | _ -> Alcotest.fail "arity"))
    hetero_pairs

let test_heterogeneous_update_roundtrip () =
  List.iter
    (fun (arch_a, arch_b) ->
      let _, a, b = mk2 ~arch_a ~arch_b () in
      let p = leaf a 1000 in
      Node.register b "negate" (fun node args ->
          let q = Access.of_value (List.hd args) in
          Access.set_int node q ~field:"data"
            (-Access.get_int node q ~field:"data");
          []);
      Node.with_session a (fun () ->
          ignore (Node.call a ~dst:(Node.id b) "negate" [ Access.to_value p ]));
      Alcotest.(check int)
        (Printf.sprintf "%s->%s" arch_a.Arch.name arch_b.Arch.name)
        (-1000)
        (Access.get_int a p ~field:"data"))
    hetero_pairs

(* --- closure hints (paper section 6) --- *)

let test_hint_prunes_payloads () =
  let cluster = Cluster.create ~cost:Cost_model.zero () in
  let strategy =
    { (Strategy.smart ~closure_size:4096 ()) with Strategy.grouping = Strategy.By_type }
  in
  let a = Cluster.add_node cluster ~site:1 ~strategy () in
  let b = Cluster.add_node cluster ~site:2 ~strategy () in
  Cluster.register_type cluster "payload"
    (Type_desc.Struct [ ("blob", Type_desc.Array (Type_desc.i64, 32)) ]);
  Cluster.register_type cluster "cell"
    (Type_desc.Struct
       [ ("next", Type_desc.ptr "cell"); ("p", Type_desc.ptr "payload");
         ("v", Type_desc.i64) ]);
  Cluster.set_closure_hint cluster ~ty:"cell"
    { Hints.follow = [ "next" ]; prune_others = true };
  (* 30-cell chain with payloads *)
  let head = ref (Access.null ~ty:"cell") in
  for i = 29 downto 0 do
    let c = Access.ptr ~ty:"cell" (Node.malloc a ~ty:"cell") in
    let p = Access.ptr ~ty:"payload" (Node.malloc a ~ty:"payload") in
    Access.set_ptr a c ~field:"next" !head;
    Access.set_ptr a c ~field:"p" p;
    Access.set_int a c ~field:"v" i;
    head := c
  done;
  Node.register b "sum_v" (fun node args ->
      let rec go p acc =
        if Access.is_null p then acc
        else go (Access.get_ptr node p ~field:"next")
               (acc + Access.get_int node p ~field:"v")
      in
      [ Value.int (go (Access.of_value (List.hd args)) 0) ]);
  Node.with_session a (fun () ->
      let s0 = Cluster.snapshot cluster in
      (match Node.call a ~dst:(Node.id b) "sum_v" [ Access.to_value !head ] with
      | [ v ] -> Alcotest.(check int) "sum" 435 (Value.to_int v)
      | _ -> Alcotest.fail "arity");
      let d = Stats.diff (Cluster.snapshot cluster) s0 in
      (* 30 cells are ~1.3 KB wire; the 30 payloads would be ~8 KB more *)
      Alcotest.(check bool) "payloads pruned from prefetch" true
        (d.Stats.bytes < 4000))

let test_hint_pruned_data_still_reachable () =
  (* pruning affects prefetch only: touching a pruned payload must still
     fetch it on demand *)
  let cluster = Cluster.create ~cost:Cost_model.zero () in
  let a = Cluster.add_node cluster ~site:1 () in
  let b = Cluster.add_node cluster ~site:2 () in
  Cluster.register_type cluster "payload2"
    (Type_desc.Struct [ ("x", Type_desc.i64) ]);
  Cluster.register_type cluster "cell2"
    (Type_desc.Struct
       [ ("next", Type_desc.ptr "cell2"); ("p", Type_desc.ptr "payload2") ]);
  Cluster.set_closure_hint cluster ~ty:"cell2"
    { Hints.follow = [ "next" ]; prune_others = true };
  let c = Access.ptr ~ty:"cell2" (Node.malloc a ~ty:"cell2") in
  let p = Access.ptr ~ty:"payload2" (Node.malloc a ~ty:"payload2") in
  Access.set_ptr a c ~field:"p" p;
  Access.set_i64 a p ~field:"x" 4242L;
  Node.register b "read_payload" (fun node args ->
      let c = Access.of_value (List.hd args) in
      let p = Access.get_ptr node c ~field:"p" in
      [ Value.int (Access.get_int node p ~field:"x") ]);
  Node.with_session a (fun () ->
      match Node.call a ~dst:(Node.id b) "read_payload" [ Access.to_value c ] with
      | [ v ] -> Alcotest.(check int) "on-demand fetch" 4242 (Value.to_int v)
      | _ -> Alcotest.fail "arity")

(* --- first-class function references --- *)

let test_funref_as_value () =
  let _, a, b = mk2 () in
  Node.register a "inc" (fun _ args -> [ Value.int (Value.to_int (List.hd args) + 1) ]);
  Node.register b "apply_twice" (fun node args ->
      match args with
      | [ f; x ] ->
        let fref = Funref.of_value f in
        let once = Funref.invoke node fref [ x ] in
        Funref.invoke node fref once
      | _ -> assert false);
  Node.with_session a (fun () ->
      let f = Funref.to_value (Funref.make ~home:(Node.id a) ~name:"inc") in
      match Node.call a ~dst:(Node.id b) "apply_twice" [ f; Value.int 40 ] with
      | [ v ] -> Alcotest.(check int) "f (f 40)" 42 (Value.to_int v)
      | _ -> Alcotest.fail "arity")

let test_funref_returned_and_chained () =
  (* b returns a funref pointing at one of ITS procedures; a invokes it *)
  let _, a, b = mk2 () in
  Node.register b "mult" (fun _ args ->
      match args with
      | [ x; y ] -> [ Value.int (Value.to_int x * Value.to_int y) ]
      | _ -> assert false);
  Node.register b "give_mult" (fun node _ ->
      [ Funref.to_value (Funref.make ~home:(Node.id node) ~name:"mult") ]);
  Node.with_session a (fun () ->
      match Node.call a ~dst:(Node.id b) "give_mult" [] with
      | [ f ] -> (
        match Funref.invoke a (Funref.of_value f) [ Value.int 6; Value.int 7 ] with
        | [ v ] -> Alcotest.(check int) "6*7" 42 (Value.to_int v)
        | _ -> Alcotest.fail "arity")
      | _ -> Alcotest.fail "arity")

(* --- multi-origin structures: pointers crossing spaces freely --- *)

(* A chain whose cells alternate between owner A and owner B: traversal
   at a third site must fetch from both origins, and links from A-cells
   to B-cells mean each space's encoder unswizzles pointers to data it
   does not own. *)
let build_alternating_chain cluster a b n =
  ignore cluster;
  (* Build back to front. Each cell is created on its owner; linking a
     cell to the previously-built head requires the owner to hold a
     swizzled pointer to the other space's cell, so we do the linking
     inside RPCs from the ground thread a. *)
  Node.register a "make_cell" (fun node args ->
      match args with
      | [ nextv; datav ] ->
        let p = mk_node node ~left:(Access.of_value nextv)
                  ~right:(Access.null ~ty:node_ty)
                  ~data:(Value.to_int datav) in
        [ Access.to_value p ]
      | _ -> assert false);
  Node.register b "make_cell" (fun node args ->
      match args with
      | [ nextv; datav ] ->
        let p = mk_node node ~left:(Access.of_value nextv)
                  ~right:(Access.null ~ty:node_ty)
                  ~data:(Value.to_int datav) in
        [ Access.to_value p ]
      | _ -> assert false);
  let head = ref (Value.null ~ty:node_ty) in
  for i = n downto 1 do
    let owner = if i mod 2 = 0 then a else b in
    if Space_id.equal (Node.id owner) (Node.id a) then begin
      (* run locally on the ground node *)
      match Node.run_local a "make_cell" [ !head; Value.int i ] with
      | [ v ] -> head := v
      | _ -> assert false
    end
    else begin
      match Node.call a ~dst:(Node.id b) "make_cell" [ !head; Value.int i ] with
      | [ v ] -> head := v
      | _ -> assert false
    end
  done;
  !head

let test_multi_origin_chain_walk () =
  let cluster = Cluster.create ~cost:Cost_model.zero () in
  let a = Cluster.add_node cluster ~site:1 () in
  let b = Cluster.add_node cluster ~site:2 () in
  let c = Cluster.add_node cluster ~site:3 () in
  register_node_type cluster;
  Node.register c "sum_chain" (fun node args ->
      let rec go p acc =
        if Access.is_null p then acc
        else
          go (Access.get_ptr node p ~field:"left")
            (acc + Access.get_int node p ~field:"data")
      in
      [ Value.int (go (Access.of_value (List.hd args)) 0) ]);
  Node.with_session a (fun () ->
      let head = build_alternating_chain cluster a b 20 in
      let s0 = Cluster.snapshot cluster in
      (match Node.call a ~dst:(Node.id c) "sum_chain" [ head ] with
      | [ v ] -> Alcotest.(check int) "sum 1..20" 210 (Value.to_int v)
      | _ -> Alcotest.fail "arity");
      let d = Stats.diff (Cluster.snapshot cluster) s0 in
      (* C must talk to both origins *)
      Alcotest.(check bool) "fetched from both" true (d.Stats.callbacks >= 2))

let test_multi_origin_chain_update_writes_back_everywhere () =
  let cluster = Cluster.create ~cost:Cost_model.zero () in
  let a = Cluster.add_node cluster ~site:1 () in
  let b = Cluster.add_node cluster ~site:2 () in
  let c = Cluster.add_node cluster ~site:3 () in
  register_node_type cluster;
  Node.register c "negate_chain" (fun node args ->
      let rec go p =
        if not (Access.is_null p) then begin
          Access.set_int node p ~field:"data"
            (-Access.get_int node p ~field:"data");
          go (Access.get_ptr node p ~field:"left")
        end
      in
      go (Access.of_value (List.hd args));
      []);
  Node.with_session a (fun () ->
      let head = build_alternating_chain cluster a b 10 in
      ignore (Node.call a ~dst:(Node.id c) "negate_chain" [ head ]);
      (* still in the session: a cross-space pointer chain is only
         meaningful within its session (paper, section 3.1). The ground
         thread walks it and must see every cell negated - B-owned cells
         through the traveling modified set, A-owned ones in place. *)
      let rec go p acc =
        if Access.is_null p then acc
        else
          go (Access.get_ptr a p ~field:"left")
            (acc + Access.get_int a p ~field:"data")
      in
      Alcotest.(check int) "all negated" (-55) (go (Access.of_value head) 0))

let test_deep_nesting_with_cycle_back () =
  (* A -> B -> C -> B' (second proc on B) -> callback to A, five frames
     deep, with a pointer mutated at the deepest level *)
  let cluster = Cluster.create ~cost:Cost_model.zero () in
  let a = Cluster.add_node cluster ~site:1 () in
  let b = Cluster.add_node cluster ~site:2 () in
  let c = Cluster.add_node cluster ~site:3 () in
  register_node_type cluster;
  let p = leaf a 0 in
  Node.register a "base" (fun _ _ -> [ Value.int 1000 ]);
  Node.register b "hop1" (fun node args -> Node.call node ~dst:(Node.id c) "hop2" args);
  Node.register c "hop2" (fun node args -> Node.call node ~dst:(Node.id b) "hop3" args);
  Node.register b "hop3" (fun node args ->
      let base =
        match Node.call node ~dst:(Node.id a) "base" [] with
        | [ v ] -> Value.to_int v
        | _ -> assert false
      in
      let q = Access.of_value (List.hd args) in
      Access.set_int node q ~field:"data" (base + 234);
      []);
  Node.with_session a (fun () ->
      ignore (Node.call a ~dst:(Node.id b) "hop1" [ Access.to_value p ]);
      Alcotest.(check int) "deep write visible at origin" 1234
        (Access.get_int a p ~field:"data"))

(* --- typed stubs (IDL) --- *)

let test_idl_scalar_signature () =
  let _, a, b = mk2 () in
  let add3 = Idl.(declare "add3" (int @-> int @-> int @-> returning int)) in
  Idl.export b add3 (fun _node x y z -> x + y + z);
  Node.with_session a (fun () ->
      Alcotest.(check int) "typed call" 60
        (Idl.stub a ~dst:(Node.id b) add3 10 20 30))

let test_idl_pointer_signature () =
  let _, a, b = mk2 () in
  let read_data = Idl.(declare "read_data" (ptr node_ty @-> returning int)) in
  Idl.export b read_data (fun node p -> Access.get_int node p ~field:"data");
  let p = leaf a 123 in
  Node.with_session a (fun () ->
      Alcotest.(check int) "pointer stub" 123 (Idl.stub a ~dst:(Node.id b) read_data p))

let test_idl_mixed_kinds () =
  let _, a, b = mk2 () in
  let fmt =
    Idl.(
      declare "fmt"
        (string @-> float @-> bool @-> int64 @-> returning string))
  in
  Idl.export b fmt (fun _ s f flag n ->
      Printf.sprintf "%s|%.1f|%b|%Ld" s f flag n);
  Node.with_session a (fun () ->
      Alcotest.(check string) "mixed" "x|1.5|true|9"
        (Idl.stub a ~dst:(Node.id b) fmt "x" 1.5 true 9L))

let test_idl_unit_result () =
  let _, a, b = mk2 () in
  let hit = ref 0 in
  let poke = Idl.(declare "poke" (int @-> returning unit)) in
  Idl.export b poke (fun _ n -> hit := n);
  Node.with_session a (fun () -> Idl.stub a ~dst:(Node.id b) poke 5);
  Alcotest.(check int) "side effect" 5 !hit

let test_idl_funref_signature () =
  let _, a, b = mk2 () in
  let double = Idl.(declare "double" (int @-> returning int)) in
  Idl.export a double (fun _ n -> 2 * n);
  let hof = Idl.(declare "hof" (funref @-> int @-> returning int)) in
  Idl.export b hof (fun node f x ->
      match Funref.invoke node f [ Value.int x ] with
      | [ v ] -> Value.to_int v
      | _ -> assert false);
  Node.with_session a (fun () ->
      Alcotest.(check int) "higher order" 14
        (Idl.stub a ~dst:(Node.id b) hof
           (Funref.make ~home:(Node.id a) ~name:"double")
           7))

let test_idl_arity_mismatch_detected () =
  let _, a, b = mk2 () in
  (* server exports a 1-arg procedure; client declares 2 args *)
  let srv = Idl.(declare "mismatch" (int @-> returning int)) in
  Idl.export b srv (fun _ n -> n);
  let cli = Idl.(declare "mismatch" (int @-> int @-> returning int)) in
  Node.with_session a (fun () ->
      Alcotest.(check bool) "surplus detected remotely" true
        (match Idl.stub a ~dst:(Node.id b) cli 1 2 with
        | _ -> false
        | exception Node.Remote_error _ -> true))

let test_idl_kind_mismatch_detected () =
  let _, a, b = mk2 () in
  let srv = Idl.(declare "kind" (string @-> returning int)) in
  Idl.export b srv (fun _ s -> String.length s);
  let cli = Idl.(declare "kind" (int @-> returning int)) in
  Node.with_session a (fun () ->
      Alcotest.(check bool) "kind mismatch" true
        (match Idl.stub a ~dst:(Node.id b) cli 3 with
        | _ -> false
        | exception Node.Remote_error _ -> true))

let test_idl_pointer_type_mismatch () =
  let _, a, _b = mk2 () in
  let f = Idl.(declare "ptr_kind" (ptr "other_ty" @-> returning unit)) in
  let p = leaf a 1 (* a node_ty pointer *) in
  Node.with_session a (fun () ->
      Alcotest.(check bool) "pointee mismatch at client" true
        (match Idl.stub a ~dst:(Space_id.make ~site:2 ~proc:0) f p with
        | _ -> false
        | exception Idl.Signature_error _ -> true))

let test_idl_tuple_results () =
  let _, a, b = mk2 () in
  let divmod = Idl.(declare "divmod" (int @-> int @-> returning2 int int)) in
  Idl.export b divmod (fun _ x y -> (x / y, x mod y));
  let stats3 = Idl.(declare "stats3" (int @-> int @-> int @-> returning3 int float bool)) in
  Idl.export b stats3 (fun _ x y z ->
      let sum = x + y + z in
      (sum, float_of_int sum /. 3.0, sum mod 2 = 0));
  Node.with_session a (fun () ->
      let q, r = Idl.stub a ~dst:(Node.id b) divmod 17 5 in
      Alcotest.(check (pair int int)) "divmod" (3, 2) (q, r);
      let sum, avg, even = Idl.stub a ~dst:(Node.id b) stats3 1 2 3 in
      Alcotest.(check int) "sum" 6 sum;
      Alcotest.(check (float 1e-9)) "avg" 2.0 avg;
      Alcotest.(check bool) "even" true even)

let test_idl_local_application () =
  let _, a, _ = mk2 () in
  let sq = Idl.(declare "sq" (int @-> returning int)) in
  Idl.export a sq (fun _ n -> n * n);
  Alcotest.(check int) "local typed call" 49 (Idl.local a sq 7)

(* --- name service --- *)

let test_name_service_sync_and_lookup () =
  let cluster = Cluster.create ~cost:Cost_model.zero () in
  register_node_type cluster;
  let master = Cluster.registry cluster in
  let ns = Name_service.serve (Cluster.transport cluster) master in
  (* a joining site pulls the schema over the wire *)
  let local = Registry.create () in
  Name_service.sync (Cluster.transport cluster) ~client:"9.0" local;
  Alcotest.(check bool) "synced descriptor" true
    (Type_desc.equal (Registry.find local node_ty) (Registry.find master node_ty));
  Alcotest.(check int) "same id" (Registry.id_of_name master node_ty)
    (Registry.id_of_name local node_ty);
  (* single lookups *)
  let d = Name_service.lookup (Cluster.transport cluster) ~client:"9.0" node_ty in
  Alcotest.(check bool) "lookup" true (Type_desc.equal d (Registry.find master node_ty));
  Alcotest.check_raises "unknown" (Registry.Unknown_type "ghost") (fun () ->
      ignore (Name_service.lookup (Cluster.transport cluster) ~client:"9.0" "ghost"));
  Alcotest.(check int) "queries counted" 3 (Name_service.queries ns)

let test_name_service_traffic_is_accounted () =
  let cluster = Cluster.create ~cost:Cost_model.zero () in
  register_node_type cluster;
  ignore (Name_service.serve (Cluster.transport cluster) (Cluster.registry cluster));
  let s0 = Cluster.snapshot cluster in
  let local = Registry.create () in
  Name_service.sync (Cluster.transport cluster) ~client:"9.0" local;
  let d = Stats.diff (Cluster.snapshot cluster) s0 in
  Alcotest.(check int) "one round trip" 2 d.Stats.messages;
  Alcotest.(check bool) "schema bytes" true (d.Stats.bytes > 40)

(* --- access layer details --- *)

let test_access_elem_and_scalar_pointees () =
  let cluster = Cluster.create ~cost:Cost_model.zero () in
  let a = Cluster.add_node cluster ~site:1 () in
  Cluster.register_type cluster "i64cell" (Type_desc.Prim Type_desc.I64);
  (* an array of 8 i64 cells, addressed with Access.elem *)
  let base = Node.malloc_n a ~ty:"i64cell" 8 in
  let p0 = Access.ptr ~ty:"i64cell" base in
  for i = 0 to 7 do
    Access.store_int a (Access.elem a p0 i) (100 + i)
  done;
  Alcotest.(check int) "first" 100 (Access.load_int a p0);
  Alcotest.(check int) "fifth" 104 (Access.load_int a (Access.elem a p0 4));
  Alcotest.(check int) "stride is 8" (base + 32) (Access.elem a p0 4).Access.addr

let test_access_remote_scalar_array () =
  (* data is object-grained by declared type: to pass an array, the
     pointer must carry the ARRAY type, not the element type, or only
     the first element's extent travels *)
  let cluster = Cluster.create ~cost:Cost_model.zero () in
  let a = Cluster.add_node cluster ~site:1 () in
  let b = Cluster.add_node cluster ~site:2 () in
  Cluster.register_type cluster "slot" (Type_desc.Prim Type_desc.I64);
  Cluster.register_type cluster "slot4"
    (Type_desc.Array (Type_desc.Named "slot", 4));
  let base = Node.malloc a ~ty:"slot4" in
  for i = 0 to 3 do
    Access.store_int a (Access.elem a (Access.ptr ~ty:"slot" (base + (8 * i))) 0)
      (i * i)
  done;
  Node.register b "sum4" (fun node args ->
      let p = Access.of_value (List.hd args) in
      let s = ref 0 in
      for i = 0 to 3 do
        s := !s + Access.load_int node (Access.ptr ~ty:"slot" (p.Access.addr + (8 * i)))
      done;
      [ Value.int !s ]);
  Node.with_session a (fun () ->
      match
        Node.call a ~dst:(Node.id b) "sum4" [ Value.ptr ~ty:"slot4" base ]
      with
      | [ v ] -> Alcotest.(check int) "0+1+4+9" 14 (Value.to_int v)
      | _ -> Alcotest.fail "arity")

let test_access_float_fields () =
  let cluster = Cluster.create ~cost:Cost_model.zero () in
  let a = Cluster.add_node cluster ~site:1 () in
  Cluster.register_type cluster "fpair"
    (Type_desc.Struct [ ("x", Type_desc.f64); ("y", Type_desc.f32) ]);
  let p = Access.ptr ~ty:"fpair" (Node.malloc a ~ty:"fpair") in
  Access.set_f64 a p ~field:"x" 2.75;
  Access.set_f64 a p ~field:"y" 1.5 (* f32 field via the f64 accessor *);
  Alcotest.(check (float 0.0)) "x" 2.75 (Access.get_f64 a p ~field:"x");
  Alcotest.(check (float 1e-6)) "y" 1.5 (Access.get_f64 a p ~field:"y");
  Alcotest.(check bool) "int accessor on float field rejected" true
    (match Access.get_int a p ~field:"x" with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_access_null_deref_rejected () =
  let cluster = Cluster.create ~cost:Cost_model.zero () in
  let a = Cluster.add_node cluster ~site:1 () in
  register_node_type cluster;
  Alcotest.(check bool) "null deref" true
    (match Access.get_int a (Access.null ~ty:node_ty) ~field:"data" with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* Field offsets belong to the registry that laid the type out: another
   cluster may bind the same name to a different struct. *)
let test_access_field_offsets_per_registry () =
  let cell_in fields =
    let cluster = Cluster.create ~cost:Cost_model.zero () in
    let a = Cluster.add_node cluster ~site:1 () in
    Cluster.register_type cluster "cell" (Type_desc.Struct fields);
    (a, Access.ptr ~ty:"cell" (Node.malloc a ~ty:"cell"))
  in
  let a1, p1 = cell_in [ ("a", Type_desc.i32); ("b", Type_desc.i32) ] in
  Access.set_int a1 p1 ~field:"b" 5;
  let a2, p2 = cell_in [ ("pad", Type_desc.i64); ("b", Type_desc.i32) ] in
  Access.set_int a2 p2 ~field:"b" 7;
  Alcotest.(check int64) "pad untouched" 0L (Access.get_i64 a2 p2 ~field:"pad");
  Alcotest.(check int) "b" 7 (Access.get_int a2 p2 ~field:"b");
  Alcotest.(check int) "first cluster's b" 5 (Access.get_int a1 p1 ~field:"b")

(* --- host cost of the untraced path --- *)

(* Sessions over a depth-8 tree (255 nodes) in which the callee reads
   every node: fully eager, the call ships the whole tree; fully lazy,
   each node is one fault and one fetch. *)
let tree_sessions strategy =
  let cluster = Cluster.create () in
  let a = Cluster.add_node cluster ~site:1 ~strategy () in
  let b = Cluster.add_node cluster ~site:2 ~strategy () in
  Srpc_workloads.Tree.register_types cluster;
  let root = Srpc_workloads.Tree.build a ~depth:8 in
  Node.register b "visit" (fun node args ->
      let visited, _ =
        Srpc_workloads.Tree.visit node (Access.of_value (List.hd args)) ~limit:max_int
      in
      [ Value.int visited ]);
  let session () =
    Node.with_session a (fun () ->
        match Node.call a ~dst:(Node.id b) "visit" [ Access.to_value root ] with
        | [ v ] -> Value.to_int v = 255
        | _ -> false)
  in
  (cluster, session)

(* Minor words of one untraced session, with a 25% margin over what the
   runtime allocated when this guard was set (OCaml 5.1, no flambda).
   Formatting race-witness names and re-deriving layouts per datum once
   cost over six times this; a buffer and closures per scalar access,
   boxed XDR integers and tuple-keyed lookups cost 139,036. *)
let untraced_minor_words_bound = 71_610. *. 1.25

(* The same for a fully lazy session: 255 faults, each one fetch. Before
   the fault path stopped rebuilding codec contexts, frame buffers and
   one-datum tables per fetch, it allocated 182,999. *)
let untraced_lazy_minor_words_bound = 124_574. *. 1.25

let check_untraced_allocation strategy ~bound =
  let _, session = tree_sessions strategy in
  Alcotest.(check bool) "warm-up visits every node" true (session ());
  let sessions = 4 in
  let ok = ref true in
  let w0 = Gc.minor_words () in
  for _ = 1 to sessions do
    ok := session () && !ok
  done;
  let per_session = (Gc.minor_words () -. w0) /. float_of_int sessions in
  Alcotest.(check bool) "every session visits every node" true !ok;
  if per_session > bound then
    Alcotest.failf "%.0f minor words per untraced session, bound %.0f" per_session
      bound

let test_untraced_allocation () =
  check_untraced_allocation Strategy.fully_eager ~bound:untraced_minor_words_bound

let test_untraced_lazy_allocation () =
  check_untraced_allocation Strategy.fully_lazy ~bound:untraced_lazy_minor_words_bound

(* Tracing still witnesses every access: the race checker is fed as many
   [Trace.Access] marks for these sessions as before the untraced path
   stopped naming data. *)
let test_traced_access_marks () =
  let cluster, session = tree_sessions Strategy.fully_eager in
  let trace = Trace.create () in
  Transport.set_trace (Cluster.transport cluster) (Some trace);
  for _ = 1 to 5 do
    Alcotest.(check bool) "visits every node" true (session ())
  done;
  let marks =
    List.length
      (List.filter
         (fun e -> match e.Trace.kind with Trace.Access _ -> true | _ -> false)
         (Trace.events trace))
  in
  Alcotest.(check int) "access marks" 6385 marks

(* --- misc --- *)

let test_alloc_table_rendering_after_swizzle () =
  let _, a, b = mk2 () in
  let p = leaf a 1 in
  let q = leaf a 2 in
  Node.register b "two" (fun _ _ -> []);
  Node.with_session a (fun () ->
      ignore
        (Node.call a ~dst:(Node.id b) "two" [ Access.to_value p; Access.to_value q ]);
      let table = Format.asprintf "%a" Node.pp_alloc_table b in
      (* two rows, same page, like the paper's Table 1 *)
      let rows = List.tl (String.split_on_char '\n' (String.trim table)) in
      Alcotest.(check int) "two entries" 2 (List.length rows))

let test_stats_writebacks_counted () =
  let cluster, a, b = mk2 () in
  let p = leaf a 1 in
  Node.register b "bump" (fun node args ->
      let q = Access.of_value (List.hd args) in
      Access.set_int node q ~field:"data" 2;
      []);
  Node.with_session a (fun () ->
      let s0 = Cluster.snapshot cluster in
      ignore (Node.call a ~dst:(Node.id b) "bump" [ Access.to_value p ]);
      let d = Stats.diff (Cluster.snapshot cluster) s0 in
      Alcotest.(check bool) "writebacks on return" true (d.Stats.writebacks >= 1))

let test_simulated_time_advances () =
  let cluster = Cluster.create () (* real cost model *) in
  let a = Cluster.add_node cluster ~site:1 () in
  let b = Cluster.add_node cluster ~site:2 () in
  register_node_type cluster;
  Node.register b "nop" (fun _ _ -> []);
  Node.with_session a (fun () ->
      let t0 = Cluster.now cluster in
      ignore (Node.call a ~dst:(Node.id b) "nop" []);
      Alcotest.(check bool) "clock moved" true (Cluster.now cluster > t0))

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "integration"
    [
      ( "scalar-rpc",
        [
          tc "scalar call" `Quick test_scalar_call;
          tc "all scalar kinds cross the wire" `Quick test_all_scalar_kinds_cross_wire;
          tc "unknown procedure propagates" `Quick test_unknown_procedure_propagates;
          tc "callee exception propagates" `Quick test_callee_exception_propagates;
          tc "call requires a session" `Quick test_call_requires_session;
          tc "self call rejected" `Quick test_call_self_rejected;
        ] );
      ( "remote-pointers",
        [
          tc "lazy fetch on first touch" `Quick test_remote_pointer_lazy_fetch;
          tc "second access hits the cache" `Quick test_second_access_hits_cache;
          tc "null pointer argument" `Quick test_null_pointer_argument;
          tc "pointer chain follows to origin" `Quick test_pointer_chain_follows_origin;
          tc "returned pointer usable by caller" `Quick
            test_returned_pointer_usable_by_caller;
        ] );
      ( "eagerness",
        [
          tc "fully eager: no faults at all" `Quick test_fully_eager_no_faults;
          tc "closure budget limits prefetch" `Quick test_closure_budget_limits_prefetch;
        ] );
      ( "nesting",
        [
          tc "nested RPC across three sites" `Quick test_nested_rpc_three_sites;
          tc "callback to caller" `Quick test_callback_to_caller;
          tc "funref explicit callback" `Quick test_funref_explicit_callback;
        ] );
      ( "coherency",
        [
          tc "update written back at session end" `Quick
            test_callee_update_written_back_at_session_end;
          tc "dirty data travels with return" `Quick test_dirty_data_travels_with_return;
          tc "modified set travels A-B-C (Fig 1)" `Quick
            test_modified_set_travels_three_sites;
          tc "nested modification B->C" `Quick test_nested_modification_b_to_c;
          tc "pointer field update written back" `Quick test_pointer_update_written_back;
          tc "session end invalidates caches" `Quick
            test_session_end_invalidates_callee_cache;
          tc "two sequential sessions" `Quick test_two_sequential_sessions;
        ] );
      ( "remote-heap",
        [
          tc "extended_malloc with remote home" `Quick test_extended_malloc_remote_home;
          tc "allocations batch to one message" `Quick
            test_extended_malloc_batched_single_message;
          tc "extended_free of remote datum" `Quick test_extended_free_of_remote_datum;
          tc "free cancels pending alloc" `Quick test_extended_free_cancels_pending_alloc;
          tc "local home degenerates to malloc" `Quick
            test_extended_malloc_local_home_is_malloc;
          tc "invalid pointer rejected, free(0) ok" `Quick
            test_extended_free_invalid_pointer;
        ] );
      ( "heterogeneity",
        [
          tc "tree walk across word sizes and endians" `Quick
            test_heterogeneous_tree_walk;
          tc "update roundtrip across arches" `Quick test_heterogeneous_update_roundtrip;
        ] );
      ( "hints",
        [
          tc "hint prunes payload prefetch" `Quick test_hint_prunes_payloads;
          tc "pruned data still reachable on demand" `Quick
            test_hint_pruned_data_still_reachable;
        ] );
      ( "funref",
        [
          tc "funref as first-class value" `Quick test_funref_as_value;
          tc "returned funref invocable" `Quick test_funref_returned_and_chained;
        ] );
      ( "multi-origin",
        [
          tc "alternating-owner chain walk" `Quick test_multi_origin_chain_walk;
          tc "alternating-owner chain update" `Quick
            test_multi_origin_chain_update_writes_back_everywhere;
          tc "five-frame nesting with callback" `Quick test_deep_nesting_with_cycle_back;
        ] );
      ( "idl",
        [
          tc "scalar signature" `Quick test_idl_scalar_signature;
          tc "pointer signature" `Quick test_idl_pointer_signature;
          tc "mixed kinds" `Quick test_idl_mixed_kinds;
          tc "unit result" `Quick test_idl_unit_result;
          tc "funref signature (higher order)" `Quick test_idl_funref_signature;
          tc "arity mismatch detected" `Quick test_idl_arity_mismatch_detected;
          tc "kind mismatch detected" `Quick test_idl_kind_mismatch_detected;
          tc "pointer type mismatch at client" `Quick test_idl_pointer_type_mismatch;
          tc "tuple results" `Quick test_idl_tuple_results;
          tc "local typed application" `Quick test_idl_local_application;
        ] );
      ( "name-service",
        [
          tc "sync and lookup" `Quick test_name_service_sync_and_lookup;
          tc "traffic accounted" `Quick test_name_service_traffic_is_accounted;
        ] );
      ( "access",
        [
          tc "elem and scalar pointees" `Quick test_access_elem_and_scalar_pointees;
          tc "remote scalar array" `Quick test_access_remote_scalar_array;
          tc "float fields" `Quick test_access_float_fields;
          tc "null dereference rejected" `Quick test_access_null_deref_rejected;
          tc "field offsets are per registry" `Quick
            test_access_field_offsets_per_registry;
        ] );
      ( "host-cost",
        [
          tc "untraced sessions stay within their allocation" `Quick
            test_untraced_allocation;
          tc "untraced lazy sessions stay within their allocation" `Quick
            test_untraced_lazy_allocation;
          tc "traced sessions witness every access" `Quick test_traced_access_marks;
        ] );
      ( "misc",
        [
          tc "alloc table rendering (Table 1)" `Quick
            test_alloc_table_rendering_after_swizzle;
          tc "writeback stats counted" `Quick test_stats_writebacks_counted;
          tc "simulated time advances" `Quick test_simulated_time_advances;
        ] );
    ]
