open Srpc_core
open Srpc_memory
open Srpc_simnet

type run = {
  seconds : float;
  callbacks : int;
  messages : int;
  bytes : int;
  faults : int;
  visited : int;
  cache_pages : int;
}

type method_kind = Fully_eager | Fully_lazy | Proposed of int

let method_name = function
  | Fully_eager -> "fully-eager"
  | Fully_lazy -> "fully-lazy"
  | Proposed c -> Printf.sprintf "proposed(%dB)" c

let strategy_of_method = function
  | Fully_eager -> Strategy.fully_eager
  | Fully_lazy -> Strategy.fully_lazy
  | Proposed closure_size -> Strategy.smart ~closure_size ()

let search_proc = "search_tree"

(* The paper's tree search as a callee procedure: visit (or visit and
   update) up to [limit] nodes in preorder, returning the count. *)
let register_search callee =
  Node.register callee search_proc (fun node args ->
      match args with
      | [ rootv; limitv; updatev ] ->
        let root = Access.of_value rootv in
        let limit = Value.to_int limitv in
        let upd = Value.to_bool updatev in
        let visit = if upd then Tree.visit_update else Tree.visit in
        let visited, _sum = visit node root ~limit in
        [ Value.int visited ]
      | _ -> invalid_arg (search_proc ^ ": expected (root, limit, update)"))

let search_limit ~depth ~ratio =
  int_of_float (Float.round (ratio *. float_of_int (Tree.nodes_of_depth depth)))

let call_search caller ~callee ~root ~limit ~update =
  match
    Node.call caller ~dst:(Node.id callee) search_proc
      [ Access.to_value root; Value.int limit; Value.bool update ]
  with
  | [ v ] -> Value.to_int v
  | _ -> failwith (search_proc ^ ": bad result arity")

(* Measure [f] inside an open session: the simulated time and the
   [Stats] deltas between two snapshots around it, then [callee]'s
   cache pages. [f] returns the run's visited count. *)
let measure cluster ~callee f =
  let s0 = Cluster.snapshot cluster in
  let t0 = Cluster.now cluster in
  let visited = f () in
  let t1 = Cluster.now cluster in
  let d = Stats.diff (Cluster.snapshot cluster) s0 in
  {
    seconds = t1 -. t0;
    callbacks = d.Stats.callbacks;
    messages = d.Stats.messages;
    bytes = d.Stats.bytes;
    faults = d.Stats.faults;
    visited;
    cache_pages = Cache.used_pages (Node.cache callee);
  }

(* [measure] inside one session that [ground] opens and closes; the
   close falls outside the timed region. *)
let measure_session cluster ~ground ~callee f =
  Node.begin_session ground;
  let r = measure cluster ~callee f in
  Node.end_session ground;
  r

(* Build the paper's two-site setup and run [repeats] RPC invocations of
   a tree search inside one session, measuring the calls only. *)
let run_tree_search ?(update = false) ?(repeats = 1)
    ?(arches = (Arch.sparc32, Arch.sparc32)) ?link_cost ?page_size ?fault_plan
    ~strategy ~depth ~ratio () =
  let cluster = Cluster.create () in
  (match fault_plan with
  | None -> ()
  | Some plan -> Cluster.install_faults cluster plan);
  let caller_arch, callee_arch = arches in
  let caller =
    Cluster.add_node cluster ~site:1 ~arch:caller_arch ~strategy ?page_size ()
  in
  let callee =
    Cluster.add_node cluster ~site:2 ~arch:callee_arch ~strategy ?page_size ()
  in
  (match link_cost with
  | None -> ()
  | Some cost ->
    let tr = Cluster.transport cluster in
    let a = Space_id.to_string (Node.id caller) in
    let b = Space_id.to_string (Node.id callee) in
    Transport.set_link_cost tr ~src:a ~dst:b cost;
    Transport.set_link_cost tr ~src:b ~dst:a cost);
  Tree.register_types cluster;
  let root = Tree.build caller ~depth in
  register_search callee;
  let limit = search_limit ~depth ~ratio in
  let r =
    measure_session cluster ~ground:caller ~callee (fun () ->
        let visited = ref 0 in
        for _ = 1 to repeats do
          visited := call_search caller ~callee ~root ~limit ~update
        done;
        !visited)
  in
  { r with seconds = r.seconds /. float_of_int repeats }

(* --- Fig. 4 / Fig. 5 --- *)

type fig4_row = { ratio : float; eager : run; lazy_ : run; proposed : run }

let default_ratios = List.init 11 (fun i -> float_of_int i /. 10.0)

let fig4 ?(depth = 15) ?(ratios = default_ratios) ?(closure = 8192) () =
  let point ratio =
    let go m = run_tree_search ~strategy:(strategy_of_method m) ~depth ~ratio () in
    {
      ratio;
      eager = go Fully_eager;
      lazy_ = go Fully_lazy;
      proposed = go (Proposed closure);
    }
  in
  List.map point ratios

(* --- Fig. 6 --- *)

type fig6_row = { closure_bytes : int; by_depth : (int * run) list }

let default_closures = [ 512; 1024; 2048; 4096; 8192; 16384; 32768; 65536 ]

let fig6 ?(depths = [ 14; 15; 16 ]) ?(closures = default_closures)
    ?(repeats = 10) () =
  let row closure_bytes =
    let per_depth depth =
      ( depth,
        run_tree_search
          ~strategy:(strategy_of_method (Proposed closure_bytes))
          ~repeats ~depth ~ratio:1.0 () )
    in
    { closure_bytes; by_depth = List.map per_depth depths }
  in
  List.map row closures

(* Fig. 6, descent reading: 10 pseudo-random root-to-leaf paths per
   call. *)
let descend_proc = "descend_paths"

let run_tree_descents ~strategy ~depth ~paths =
  let cluster = Cluster.create () in
  let caller = Cluster.add_node cluster ~site:1 ~strategy () in
  let callee = Cluster.add_node cluster ~site:2 ~strategy () in
  Tree.register_types cluster;
  let root = Tree.build caller ~depth in
  Node.register callee descend_proc (fun node args ->
      match args with
      | [ rootv; nv ] ->
        let root = Access.of_value rootv in
        let n = Value.to_int nv in
        let seen = ref 0 in
        for k = 1 to n do
          (* deterministic scrambled paths *)
          let path = k * 2654435761 in
          let count, _ = Tree.descend node root ~path in
          seen := !seen + count
        done;
        [ Value.int !seen ]
      | _ -> invalid_arg (descend_proc ^ ": expected (root, paths)"));
  measure_session cluster ~ground:caller ~callee (fun () ->
      match
        Node.call caller ~dst:(Node.id callee) descend_proc
          [ Access.to_value root; Value.int paths ]
      with
      | [ v ] -> Value.to_int v
      | _ -> failwith (descend_proc ^ ": bad arity"))

let fig6_descents ?(depths = [ 14; 15; 16 ]) ?(closures = default_closures)
    ?(paths = 10) () =
  let row closure_bytes =
    let per_depth depth =
      ( depth,
        run_tree_descents
          ~strategy:(strategy_of_method (Proposed closure_bytes))
          ~depth ~paths )
    in
    { closure_bytes; by_depth = List.map per_depth depths }
  in
  List.map row closures

(* --- Fig. 7 --- *)

type fig7_row = { ratio7 : float; updated : run; not_updated : run }

let fig7 ?(depth = 15) ?(ratios = default_ratios) ?(closure = 8192) () =
  let strategy = strategy_of_method (Proposed closure) in
  let point ratio7 =
    {
      ratio7;
      updated = run_tree_search ~update:true ~strategy ~depth ~ratio:ratio7 ();
      not_updated = run_tree_search ~update:false ~strategy ~depth ~ratio:ratio7 ();
    }
  in
  List.map point ratios

(* --- A1: allocation strategy under a two-origin interleaved walk --- *)

type alloc_row = { grouping : Strategy.alloc_grouping; merge : run }

let merge_proc = "merge_walk"

(* Partial lockstep walk over two trees owned by different spaces, with a
   small closure: placement policy then decides whether a faulting page
   holds one origin's data (one fetch) or a mixture (a fetch per origin),
   and how many pages the working set occupies. *)
let run_merge_walk ~grouping ~depth =
  let strategy =
    { (Strategy.smart ~closure_size:1024 ()) with Strategy.grouping }
  in
  let cluster = Cluster.create () in
  let owner_a = Cluster.add_node cluster ~site:1 ~strategy () in
  let owner_b = Cluster.add_node cluster ~site:2 ~strategy () in
  let walker = Cluster.add_node cluster ~site:3 ~strategy () in
  Tree.register_types cluster;
  let root_a = Tree.build owner_a ~depth in
  let root_b = Tree.build owner_b ~depth in
  Node.register walker merge_proc (fun node args ->
      match args with
      | [ a; b; limitv ] ->
        (* Lockstep DFS over both trees: the access stream interleaves
           the two origins, which is what distinguishes the placement
           heuristics. The limit keeps the access partial so placement
           waste is visible. *)
        let pa = Access.of_value a and pb = Access.of_value b in
        let limit = Value.to_int limitv in
        let sum = ref 0 in
        let steps = ref 0 in
        let rec go p q =
          let live r = not (Access.is_null r) in
          if !steps < limit && (live p || live q) then begin
            incr steps;
            if live p then sum := !sum + Access.get_int node p ~field:"data";
            if live q then sum := !sum + Access.get_int node q ~field:"data";
            let child r f =
              if live r then Access.get_ptr node r ~field:f
              else Access.null ~ty:Tree.type_name
            in
            go (child p "left") (child q "left");
            go (child p "right") (child q "right")
          end
        in
        go pa pb;
        [ Value.int !sum ]
      | _ -> invalid_arg (merge_proc ^ ": expected two roots"));
  (* Ground thread is owner A (it also owns data), calling the walker. *)
  Node.begin_session owner_a;
  (* Hand B's root to A first so it can pass both pointers on. *)
  Node.register owner_b "give_root" (fun _node _args -> [ Access.to_value root_b ]);
  let root_b_at_a =
    match Node.call owner_a ~dst:(Node.id owner_b) "give_root" [] with
    | [ v ] -> v
    | _ -> failwith "give_root: bad arity"
  in
  let r =
    measure cluster ~callee:walker (fun () ->
        match
          Node.call owner_a ~dst:(Node.id walker) merge_proc
            [
              Access.to_value root_a;
              root_b_at_a;
              Value.int (Tree.nodes_of_depth depth * 2 / 5);
            ]
        with
        | [ v ] -> Value.to_int v
        | _ -> failwith (merge_proc ^ ": bad arity"))
  in
  Node.end_session owner_a;
  r

let ablation_alloc_strategy ?(depth = 11) () =
  List.map
    (fun grouping -> { grouping; merge = run_merge_walk ~grouping ~depth })
    [ Strategy.By_origin; Strategy.Sequential; Strategy.By_type ]

(* --- A2: closure traversal order under a partial DFS consumer --- *)

type shape_row = { order : Strategy.closure_order; partial : run }

let ablation_closure_shape ?(depth = 13) ?(ratio = 0.3) ?(closure = 2048) () =
  (* Entry-per-page placement isolates the closure traversal order from
     page-grain fetch amplification: each fault requests exactly one
     datum plus a closure in the configured order, so a depth-first
     closure tracks the depth-first consumer and a breadth-first one
     wastes breadth on unvisited subtrees. *)
  let go order =
    let strategy =
      {
        (Strategy.smart ~closure_size:closure ()) with
        Strategy.order;
        grouping = Strategy.Entry_per_page;
      }
    in
    { order; partial = run_tree_search ~strategy ~depth ~ratio () }
  in
  [ go Strategy.Breadth_first; go Strategy.Depth_first ]

(* --- A3: remote allocation batching --- *)

type batching_row = { batched : bool; alloc_run : run }

let grow_proc = "grow_list"

let run_remote_growth ~batched ~cells =
  let strategy = { (Strategy.smart ()) with Strategy.batch_remote_ops = batched } in
  let cluster = Cluster.create () in
  let owner = Cluster.add_node cluster ~site:1 ~strategy () in
  let worker = Cluster.add_node cluster ~site:2 ~strategy () in
  Linked_list.register_types cluster;
  Node.register worker grow_proc (fun node args ->
      match args with
      | [ n ] ->
        (* Allocate a list whose home is the caller's space, then release
           every other cell: exercises both batched primitives. *)
        let n = Value.to_int n in
        let home = Space_id.make ~site:1 ~proc:0 in
        let head =
          Linked_list.append node (Access.null ~ty:Linked_list.type_name) ~home
            (List.init n (fun i -> i))
        in
        let rec thin i p =
          if not (Access.is_null p) then begin
            let next = Access.get_ptr node p ~field:"next" in
            if i mod 2 = 1 then begin
              let after =
                if Access.is_null next then next
                else Access.get_ptr node next ~field:"next"
              in
              Access.set_ptr node p ~field:"next" after;
              if not (Access.is_null next) then
                Node.extended_free node next.Access.addr;
              thin (i + 2) after
            end
            else thin (i + 1) next
          end
        in
        thin 1 head;
        [ Access.to_value head ]
      | _ -> invalid_arg (grow_proc ^ ": expected cell count"));
  let head = ref Value.Unit in
  let r =
    measure_session cluster ~ground:owner ~callee:worker (fun () ->
        match Node.call owner ~dst:(Node.id worker) grow_proc [ Value.int cells ] with
        | [ v ] ->
          head := v;
          0
        | _ -> failwith (grow_proc ^ ": bad arity"))
  in
  (* the survivors are counted outside the timed region *)
  { r with visited = Linked_list.length owner (Access.of_value !head) }

let ablation_alloc_batching ?(cells = 400) () =
  List.map
    (fun batched -> { batched; alloc_run = run_remote_growth ~batched ~cells })
    [ true; false ]

(* --- A4: write-back granularity under sparse updates --- *)

type grain_row = { grain : Strategy.writeback_grain; sparse_update : run }

let sparse_proc = "sparse_update"

let run_sparse_update ~grain ~depth ~stride =
  let strategy = { (Strategy.smart ()) with Strategy.grain } in
  let cluster = Cluster.create () in
  let owner = Cluster.add_node cluster ~site:1 ~strategy () in
  let worker = Cluster.add_node cluster ~site:2 ~strategy () in
  Tree.register_types cluster;
  let root = Tree.build owner ~depth in
  Node.register worker sparse_proc (fun node args ->
      match args with
      | [ rootv; stridev ] ->
        let stride = Value.to_int stridev in
        let count = ref 0 in
        let touched = ref 0 in
        let rec go p =
          if not (Access.is_null p) then begin
            let d = Access.get_int node p ~field:"data" in
            if !count mod stride = 0 then begin
              Access.set_int node p ~field:"data" (d + 1000);
              incr touched
            end;
            incr count;
            go (Access.get_ptr node p ~field:"left");
            go (Access.get_ptr node p ~field:"right")
          end
        in
        go (Access.of_value rootv);
        [ Value.int !touched ]
      | _ -> invalid_arg (sparse_proc ^ ": expected (root, stride)"));
  measure_session cluster ~ground:owner ~callee:worker (fun () ->
      match
        Node.call owner ~dst:(Node.id worker) sparse_proc
          [ Access.to_value root; Value.int stride ]
      with
      | [ v ] -> Value.to_int v
      | _ -> failwith (sparse_proc ^ ": bad arity"))

let ablation_writeback_grain ?(depth = 12) ?(stride = 16) () =
  List.map
    (fun grain -> { grain; sparse_update = run_sparse_update ~grain ~depth ~stride })
    [ Strategy.Page_grain; Strategy.Twin_diff ]

(* --- A5: programmer closure hints (paper section 6) --- *)

type hint_row = { hinted : bool; chain_walk : run }

let rcell_ty = "rcell"
let blob_ty = "blob"
let chain_proc = "walk_chain"

(* A [cells]-long chain of [rcell]s homed at [owner], each pointing at
   a 512-byte [blob], and [walker]'s procedure summing the chain's tags.
   Returns the chain's head. *)
let chain_fixture cluster ~owner ~walker ~cells =
  Cluster.register_type cluster blob_ty
    (Srpc_types.Type_desc.Struct
       [ ("payload", Srpc_types.Type_desc.Array (Srpc_types.Type_desc.f64, 64)) ]);
  Cluster.register_type cluster rcell_ty
    (Srpc_types.Type_desc.Struct
       [
         ("next", Srpc_types.Type_desc.ptr rcell_ty);
         ("blob", Srpc_types.Type_desc.ptr blob_ty);
         ("tag", Srpc_types.Type_desc.i64);
       ]);
  let head = ref (Access.null ~ty:rcell_ty) in
  for i = cells - 1 downto 0 do
    let cell = Access.ptr ~ty:rcell_ty (Node.malloc owner ~ty:rcell_ty) in
    let blob = Access.ptr ~ty:blob_ty (Node.malloc owner ~ty:blob_ty) in
    Access.set_ptr owner cell ~field:"next" !head;
    Access.set_ptr owner cell ~field:"blob" blob;
    Access.set_int owner cell ~field:"tag" i;
    head := cell
  done;
  Node.register walker chain_proc (fun node args ->
      let rec go p acc =
        if Access.is_null p then acc
        else
          go (Access.get_ptr node p ~field:"next")
            (acc + Access.get_int node p ~field:"tag")
      in
      [ Value.int (go (Access.of_value (List.hd args)) 0) ]);
  !head

(* One walk of the chain, checked; the cells walked. *)
let walk_chain ~owner ~walker ~cells head =
  match Node.call owner ~dst:(Node.id walker) chain_proc [ Access.to_value head ] with
  | [ v ] ->
    assert (Value.to_int v = cells * (cells - 1) / 2);
    cells
  | _ -> failwith (chain_proc ^ ": bad arity")

let run_chain_walk ~hinted ~cells ~closure =
  (* By-type placement keeps payload blobs on their own cache pages;
     otherwise page-grain fetching would drag them over regardless of
     what the closure engine skips. *)
  let strategy =
    { (Strategy.smart ~closure_size:closure ()) with Strategy.grouping = Strategy.By_type }
  in
  let cluster = Cluster.create () in
  let owner = Cluster.add_node cluster ~site:1 ~strategy () in
  let walker = Cluster.add_node cluster ~site:2 ~strategy () in
  let head = chain_fixture cluster ~owner ~walker ~cells in
  if hinted then
    Cluster.set_closure_hint cluster ~ty:rcell_ty
      { Hints.follow = [ "next" ]; prune_others = true };
  measure_session cluster ~ground:owner ~callee:walker (fun () ->
      walk_chain ~owner ~walker ~cells head)

let ablation_closure_hints ?(cells = 400) ?(closure = 4096) () =
  List.map
    (fun hinted -> { hinted; chain_walk = run_chain_walk ~hinted ~cells ~closure })
    [ false; true ]

(* --- derived: Fig. 4 behind a WAN link --- *)

let fig4_wan ?(depth = 15) ?(ratios = default_ratios) ?(closure = 8192)
    ?(latency_factor = 50.0) () =
  let lan = Cost_model.sparc_10mbps in
  let wan =
    { lan with Cost_model.message_latency = lan.Cost_model.message_latency *. latency_factor }
  in
  let point ratio =
    let go m =
      run_tree_search ~link_cost:wan
        ~strategy:(strategy_of_method m)
        ~depth ~ratio ()
    in
    {
      ratio;
      eager = go Fully_eager;
      lazy_ = go Fully_lazy;
      proposed = go (Proposed closure);
    }
  in
  List.map point ratios

(* --- rendering --- *)

let pp_fig4 ppf rows =
  Format.fprintf ppf "@[<v>Fig. 4 — processing time (s) vs access ratio@,";
  Format.fprintf ppf "%8s %12s %12s %12s@," "ratio" "fully-eager" "fully-lazy"
    "proposed";
  List.iter
    (fun r ->
      Format.fprintf ppf "%8.2f %12.3f %12.3f %12.3f@," r.ratio r.eager.seconds
        r.lazy_.seconds r.proposed.seconds)
    rows;
  Format.fprintf ppf "@]"

let pp_fig5 ppf rows =
  Format.fprintf ppf "@[<v>Fig. 5 — callbacks vs access ratio@,";
  Format.fprintf ppf "%8s %12s %12s@," "ratio" "fully-lazy" "proposed";
  List.iter
    (fun r ->
      Format.fprintf ppf "%8.2f %12d %12d@," r.ratio r.lazy_.callbacks
        r.proposed.callbacks)
    rows;
  Format.fprintf ppf "@]"

let pp_fig6 ppf rows =
  Format.fprintf ppf
    "@[<v>Fig. 6 — processing time (s) vs closure size (10 repeated searches)@,";
  let header () =
    match rows with
    | [] -> ()
    | r :: _ ->
      Format.fprintf ppf "%12s" "closure";
      List.iter
        (fun (d, _) -> Format.fprintf ppf " %11d" (Tree.nodes_of_depth d))
        r.by_depth;
      Format.fprintf ppf "@,"
  in
  header ();
  List.iter
    (fun r ->
      Format.fprintf ppf "%11dB" r.closure_bytes;
      List.iter (fun (_, run) -> Format.fprintf ppf " %11.3f" run.seconds) r.by_depth;
      Format.fprintf ppf "@,")
    rows;
  (* the working-set side of the same sweep (paper section 6 discusses
     the allocation/working-set trade-off) *)
  Format.fprintf ppf "@,callee cache working set (pages):@,";
  header ();
  List.iter
    (fun r ->
      Format.fprintf ppf "%11dB" r.closure_bytes;
      List.iter
        (fun (_, run) -> Format.fprintf ppf " %11d" run.cache_pages)
        r.by_depth;
      Format.fprintf ppf "@,")
    rows;
  Format.fprintf ppf "@]"

let pp_fig7 ppf rows =
  Format.fprintf ppf "@[<v>Fig. 7 — update performance (s) vs update ratio@,";
  Format.fprintf ppf "%8s %12s %12s@," "ratio" "updated" "not-updated";
  List.iter
    (fun r ->
      Format.fprintf ppf "%8.2f %12.3f %12.3f@," r.ratio7 r.updated.seconds
        r.not_updated.seconds)
    rows;
  Format.fprintf ppf "@]"

let grouping_name = function
  | Strategy.By_origin -> "by-origin"
  | Strategy.Sequential -> "sequential"
  | Strategy.By_type -> "by-type"
  | Strategy.Entry_per_page -> "entry-per-page"

let pp_ablations ppf (a1, a2, a3, a4) =
  Format.fprintf ppf "@[<v>A1 — cache allocation strategy (two-origin walk)@,";
  Format.fprintf ppf "%16s %10s %10s %10s %12s@," "grouping" "time(s)" "msgs"
    "callbacks" "cache-pages";
  List.iter
    (fun { grouping; merge = r } ->
      Format.fprintf ppf "%16s %10.3f %10d %10d %12d@," (grouping_name grouping)
        r.seconds r.messages r.callbacks r.cache_pages)
    a1;
  Format.fprintf ppf "@,A2 — closure shape (DFS consumer, 30%% of the tree)@,";
  Format.fprintf ppf "%16s %10s %12s %10s@," "order" "time(s)" "bytes" "callbacks";
  List.iter
    (fun { order; partial = r } ->
      let name =
        match order with
        | Strategy.Breadth_first -> "breadth-first"
        | Strategy.Depth_first -> "depth-first"
      in
      Format.fprintf ppf "%16s %10.3f %12d %10d@," name r.seconds r.bytes
        r.callbacks)
    a2;
  Format.fprintf ppf "@,A3 — remote allocation batching (section 3.5)@,";
  Format.fprintf ppf "%16s %10s %10s %12s@," "mode" "time(s)" "msgs" "bytes";
  List.iter
    (fun { batched; alloc_run = r } ->
      Format.fprintf ppf "%16s %10.3f %10d %12d@,"
        (if batched then "batched" else "immediate")
        r.seconds r.messages r.bytes)
    a3;
  Format.fprintf ppf "@,A4 — write-back granularity (sparse updates)@,";
  Format.fprintf ppf "%16s %10s %12s %12s@," "grain" "time(s)" "bytes" "writebacks";
  List.iter
    (fun { grain; sparse_update = r } ->
      let name =
        match grain with
        | Strategy.Page_grain -> "page-grain"
        | Strategy.Twin_diff -> "twin-diff"
      in
      Format.fprintf ppf "%16s %10.3f %12d %12d@," name r.seconds r.bytes
        r.messages)
    a4;
  Format.fprintf ppf "@]"

(* --- derived: B-tree key-value store --- *)

type kv_row = { kv_method : method_kind; point : run; range : run; scan : run }

let kv_run ~strategy ~keys ~points ~phase =
  let cluster = Cluster.create () in
  let owner = Cluster.add_node cluster ~site:1 ~strategy () in
  let client = Cluster.add_node cluster ~site:2 ~strategy () in
  Btree.register_types cluster;
  let t = Btree.create owner in
  for k = 0 to keys - 1 do
    Btree.insert owner t ~key:k ~value:(k * 3)
  done;
  Node.register client "points" (fun node args ->
      match args with
      | [ tv; nv ] ->
        let t = Access.of_value tv in
        let n = Value.to_int nv in
        let hits = ref 0 in
        for i = 1 to n do
          (* spread deterministic probes across the key space *)
          let k = i * 7919 mod keys in
          if Btree.search node t ~key:k = Some (k * 3) then incr hits
        done;
        [ Value.int !hits ]
      | _ -> assert false);
  Node.register client "range" (fun node args ->
      match args with
      | [ tv; lov; hiv ] ->
        [
          Value.int
            (Btree.range_count node (Access.of_value tv) ~lo:(Value.to_int lov)
               ~hi:(Value.to_int hiv));
        ]
      | _ -> assert false);
  Node.register client "scan" (fun node args ->
      [ Value.int (Btree.cardinal node (Access.of_value (List.hd args))) ]);
  measure_session cluster ~ground:owner ~callee:client (fun () ->
      match phase with
      | `Point -> (
        match
          Node.call owner ~dst:(Node.id client) "points"
            [ Access.to_value t; Value.int points ]
        with
        | [ v ] ->
          let hits = Value.to_int v in
          assert (hits = points);
          hits
        | _ -> failwith "points: bad arity")
      | `Range -> (
        let lo = keys / 4 and hi = keys / 2 in
        match
          Node.call owner ~dst:(Node.id client) "range"
            [ Access.to_value t; Value.int lo; Value.int hi ]
        with
        | [ v ] -> Value.to_int v
        | _ -> failwith "range: bad arity")
      | `Scan -> (
        match Node.call owner ~dst:(Node.id client) "scan" [ Access.to_value t ] with
        | [ v ] -> Value.to_int v
        | _ -> failwith "scan: bad arity"))

let kv_store ?(keys = 4000) ?(points = 20) ?(closure = 1024) () =
  let row m =
    let strategy = strategy_of_method m in
    {
      kv_method = m;
      point = kv_run ~strategy ~keys ~points ~phase:`Point;
      range = kv_run ~strategy ~keys ~points ~phase:`Range;
      scan = kv_run ~strategy ~keys ~points ~phase:`Scan;
    }
  in
  List.map row [ Fully_eager; Fully_lazy; Proposed closure ]

let pp_kv ppf rows =
  Format.fprintf ppf
    "@[<v>KV — remote B-tree store: 20 point lookups / range count / full scan@,";
  Format.fprintf ppf "%16s %12s %12s %12s@," "method" "points(s)" "range(s)"
    "scan(s)";
  List.iter
    (fun { kv_method; point; range; scan } ->
      Format.fprintf ppf "%16s %12.4f %12.4f %12.4f@," (method_name kv_method)
        point.seconds range.seconds scan.seconds)
    rows;
  Format.fprintf ppf "@]"

(* --- derived: session width scaling --- *)

type scale_row = { sites : int; relay : run }

let scaling_run ~depth ~sites =
  let strategy = Strategy.smart () in
  let cluster = Cluster.create () in
  let nodes =
    List.init sites (fun i -> Cluster.add_node cluster ~site:(i + 1) ~strategy ())
  in
  Tree.register_types cluster;
  let ground = List.hd nodes in
  let root = Tree.build ground ~depth in
  let total = Tree.nodes_of_depth depth in
  (* every intermediate site relays to the next; the last site does the
     work: visit 30%, update the first 10% *)
  let rec wire = function
    | [] | [ _ ] -> ()
    | this :: (next :: _ as rest) ->
      Node.register this "relay" (fun node args ->
          Node.call node ~dst:(Node.id next) "relay" args);
      wire rest
  in
  wire (List.tl nodes @ [ List.hd (List.rev nodes) ]);
  let last = List.hd (List.rev nodes) in
  Node.register last "relay" (fun node args ->
      let root = Access.of_value (List.hd args) in
      let _, _ = Tree.visit_update node root ~limit:(total / 10) in
      let visited, _ = Tree.visit node root ~limit:(3 * total / 10) in
      [ Value.int visited ]);
  measure_session cluster ~ground ~callee:last (fun () ->
      if sites = 1 then 0
      else
        match
          Node.call ground ~dst:(Node.id (List.nth nodes 1)) "relay"
            [ Access.to_value root ]
        with
        | [ v ] -> Value.to_int v
        | _ -> failwith "relay: bad arity")

let scaling ?(depth = 12) ?(max_sites = 8) () =
  List.init (max_sites - 1) (fun i ->
      let sites = i + 2 in
      { sites; relay = scaling_run ~depth ~sites })

let pp_scaling ppf rows =
  Format.fprintf ppf
    "@[<v>SCALE — nested relay chain, work at the far end (30%% read, 10%%      update)@,";
  Format.fprintf ppf "%8s %10s %10s %12s %10s@," "sites" "time(s)" "msgs" "bytes"
    "callbacks";
  List.iter
    (fun { sites; relay = r } ->
      Format.fprintf ppf "%8d %10.3f %10d %12d %10d@," sites r.seconds r.messages
        r.bytes r.callbacks)
    rows;
  Format.fprintf ppf "@]"

(* --- A6: page size = transfer granularity --- *)

type page_row = { page_bytes : int; partial_search : run }

let ablation_page_size ?(depth = 14) ?(ratio = 0.3) ?(closure = 2048)
    ?(page_sizes = [ 512; 1024; 2048; 4096; 8192; 16384 ]) () =
  List.map
    (fun page_bytes ->
      {
        page_bytes;
        partial_search =
          run_tree_search ~page_size:page_bytes
            ~strategy:(strategy_of_method (Proposed closure))
            ~depth ~ratio ();
      })
    page_sizes

let pp_page_rows ppf rows =
  Format.fprintf ppf
    "@[<v>A6 — page size as transfer granularity (30%% DFS, closure 2 KB)@,";
  Format.fprintf ppf "%10s %10s %12s %10s %12s@," "page" "time(s)" "bytes"
    "callbacks" "cache-pages";
  List.iter
    (fun { page_bytes; partial_search = r } ->
      Format.fprintf ppf "%9dB %10.3f %12d %10d %12d@," page_bytes r.seconds
        r.bytes r.callbacks r.cache_pages)
    rows;
  Format.fprintf ppf "@]"

(* --- derived: hand-written protocols vs transparent pointers --- *)

type manual_row = {
  m_ratio : float;
  smart_rpc : run;
  manual_naive : run;
  manual_subtree : run;
}

(* The manual protocols pass raw addresses as plain integers and encode
   node contents as scalar results — no pointer machinery at all, which
   is exactly what a conventional RPC system forces on the programmer. *)
let run_manual ~variant ~depth ~ratio ~batch =
  let strategy = Strategy.smart () (* irrelevant: no pointers cross *) in
  let cluster = Cluster.create () in
  let caller = Cluster.add_node cluster ~site:1 ~strategy () in
  let callee = Cluster.add_node cluster ~site:2 ~strategy () in
  Tree.register_types cluster;
  let root = Tree.build caller ~depth in
  let limit = search_limit ~depth ~ratio in
  (* caller-side accessors working on its own raw memory *)
  let read_node node addr =
    let p = Access.ptr ~ty:Tree.type_name addr in
    ( Access.get_int node p ~field:"data",
      (Access.get_ptr node p ~field:"left").Access.addr,
      (Access.get_ptr node p ~field:"right").Access.addr )
  in
  Node.register caller "get_node" (fun node args ->
      let d, l, r = read_node node (Value.to_int (List.hd args)) in
      [ Value.int d; Value.int l; Value.int r ]);
  Node.register caller "get_subtree" (fun node args ->
      match args with
      | [ addrv; maxv ] ->
        (* preorder batch of up to max nodes: 4 ints per node *)
        let out = ref [] in
        let count = ref 0 in
        let max_nodes = Value.to_int maxv in
        let rec go addr =
          if addr <> 0 && !count < max_nodes then begin
            incr count;
            let d, l, r = read_node node addr in
            out := Value.int r :: Value.int l :: Value.int d :: Value.int addr :: !out;
            go l;
            go r
          end
        in
        go (Value.to_int addrv);
        List.rev !out
      | _ -> assert false);
  (* callee-side searches *)
  Node.register callee "search_naive" (fun node args ->
      match args with
      | [ rootv; limitv ] ->
        let limit = Value.to_int limitv in
        let visited = ref 0 in
        let rec go addr =
          if addr <> 0 && !visited < limit then begin
            incr visited;
            match Node.call node ~dst:(Node.id caller) "get_node" [ Value.int addr ]
            with
            | [ _d; l; r ] ->
              go (Value.to_int l);
              go (Value.to_int r)
            | _ -> assert false
          end
        in
        go (Value.to_int rootv);
        [ Value.int !visited ]
      | _ -> assert false);
  Node.register callee "search_subtree" (fun node args ->
      match args with
      | [ rootv; limitv; batchv ] ->
        let limit = Value.to_int limitv in
        let batch = Value.to_int batchv in
        (* local cache of fetched nodes, hand-rolled *)
        let known : (int, int * int * int) Hashtbl.t = Hashtbl.create 256 in
        let fetch addr =
          match
            Node.call node ~dst:(Node.id caller) "get_subtree"
              [ Value.int addr; Value.int batch ]
          with
          | vs ->
            let rec install = function
              | a :: d :: l :: r :: rest ->
                Hashtbl.replace known (Value.to_int a)
                  (Value.to_int d, Value.to_int l, Value.to_int r);
                install rest
              | [] -> ()
              | _ -> assert false
            in
            install vs
        in
        let visited = ref 0 in
        let rec go addr =
          if addr <> 0 && !visited < limit then begin
            if not (Hashtbl.mem known addr) then fetch addr;
            incr visited;
            Node.charge_touch node;
            let _, l, r = Hashtbl.find known addr in
            go l;
            go r
          end
        in
        go (Value.to_int rootv);
        [ Value.int !visited ]
      | _ -> assert false);
  let proc, args =
    match variant with
    | `Naive -> ("search_naive", [ Value.int root.Access.addr; Value.int limit ])
    | `Subtree ->
      ( "search_subtree",
        [ Value.int root.Access.addr; Value.int limit; Value.int batch ] )
  in
  let r =
    measure_session cluster ~ground:caller ~callee (fun () ->
        match Node.call caller ~dst:(Node.id callee) proc args with
        | [ v ] -> Value.to_int v
        | _ -> failwith "manual search: bad arity")
  in
  (* the hand-written protocols bypass the cache: report none *)
  { r with cache_pages = 0 }

let manual_comparison ?(depth = 15) ?(ratios = [ 0.1; 0.3; 0.6; 1.0 ])
    ?(closure = 8192) () =
  let batch = closure / 16 (* same data budget per round trip *) in
  List.map
    (fun m_ratio ->
      {
        m_ratio;
        smart_rpc =
          run_tree_search
            ~strategy:(strategy_of_method (Proposed closure))
            ~depth ~ratio:m_ratio ();
        manual_naive = run_manual ~variant:`Naive ~depth ~ratio:m_ratio ~batch;
        manual_subtree = run_manual ~variant:`Subtree ~depth ~ratio:m_ratio ~batch;
      })
    ratios

let pp_manual ppf rows =
  Format.fprintf ppf
    "@[<v>MANUAL — transparent pointers vs hand-written protocols (section 2)@,";
  Format.fprintf ppf "%8s %14s %14s %16s@," "ratio" "smart RPC" "manual-naive"
    "manual-subtree";
  List.iter
    (fun { m_ratio; smart_rpc; manual_naive; manual_subtree } ->
      Format.fprintf ppf "%8.2f %13.3fs %13.3fs %15.3fs@," m_ratio
        smart_rpc.seconds manual_naive.seconds manual_subtree.seconds)
    rows;
  Format.fprintf ppf "@]"

let pp_hint_rows ppf rows =
  Format.fprintf ppf
    "@[<v>A5 — closure hints (chain walk past bulky payloads, section 6)@,";
  Format.fprintf ppf "%16s %10s %12s %10s %12s@," "hints" "time(s)" "bytes"
    "callbacks" "cache-pages";
  List.iter
    (fun { hinted; chain_walk = r } ->
      Format.fprintf ppf "%16s %10.3f %12d %10d %12d@,"
        (if hinted then "follow-next" else "none")
        r.seconds r.bytes r.callbacks r.cache_pages)
    rows;
  Format.fprintf ppf "@]"

(* --- Table 1 --- *)

let table1 ppf () =
  let cluster = Cluster.create () in
  let caller = Cluster.add_node cluster ~site:1 () in
  let callee = Cluster.add_node cluster ~site:2 () in
  Linked_list.register_types cluster;
  let a = Linked_list.build caller [ 1; 2; 3 ] in
  let b = Linked_list.build caller [ 10; 20 ] in
  Node.register callee "take_two" (fun _node args ->
      match args with
      | [ _; _ ] -> [ Value.unit ]
      | _ -> invalid_arg "take_two");
  Node.with_session caller (fun () ->
      ignore
        (Node.call caller ~dst:(Node.id callee) "take_two"
           [ Access.to_value a; Access.to_value b ]);
      Format.fprintf ppf
        "@[<v>Table 1 — callee data allocation table after swizzling two \
         pointers A and B@,%a@]"
        Node.pp_alloc_table callee)

(* --- srpc-faults: the protocol under injected faults --- *)

type faults_overhead = {
  fo_plain : run;  (** no fault plan: today's exact wire behavior *)
  fo_envelope : run;  (** zero-fault plan: retry envelope active, no faults *)
  fo_ratio : float;  (** envelope seconds / plain seconds *)
}

(* Retry-envelope overhead at zero fault rate: the same Fig. 4 point with
   and without a (fault-free) plan installed. The only difference is the
   sequence-number framing and the staged close, so the ratio is the
   price of crash safety on the fault-free path. *)
let measure_faults_overhead ?(depth = 13) ?(ratio = 0.5) ?(closure = 8192) () =
  let strategy = strategy_of_method (Proposed closure) in
  let fo_plain = run_tree_search ~strategy ~depth ~ratio () in
  let plan = Fault_plan.create ~seed:1 () in
  let fo_envelope = run_tree_search ~fault_plan:plan ~strategy ~depth ~ratio () in
  {
    fo_plain;
    fo_envelope;
    fo_ratio =
      (if fo_plain.seconds > 0.0 then fo_envelope.seconds /. fo_plain.seconds
       else 1.0);
  }

type faults_summary = {
  f_drop : float;
  f_strategy : string;
  f_sessions : int;
  f_completed : int;
  f_aborted : int;
  f_wrong : int;  (** completed sessions whose result differed *)
  f_retries : int;
  f_timeouts : int;
  f_duplicates : int;
  f_seconds : float;  (** mean simulated seconds per completed session *)
}

(* Seeded chaos sweep: one cluster per (drop, strategy) cell, [sessions]
   tree searches under the injected drop rate. Every session must either
   complete with the fault-free result or abort cleanly with the nodes
   still usable — a wrong result or a stuck cluster is the bug this
   harness exists to catch. *)
let faults_cell ?(depth = 9) ?(ratio = 0.6) ?(sessions = 6) ~seed ~drop
    ~strategy ~strategy_name () =
  let cluster = Cluster.create () in
  let caller = Cluster.add_node cluster ~site:1 ~strategy () in
  let callee = Cluster.add_node cluster ~site:2 ~strategy () in
  Tree.register_types cluster;
  let root = Tree.build caller ~depth in
  register_search callee;
  let limit = search_limit ~depth ~ratio in
  let run_one () =
    let t0 = Cluster.now cluster in
    match
      Node.with_session caller (fun () ->
          call_search caller ~callee ~root ~limit ~update:false)
    with
    | r -> `Done (r, Cluster.now cluster -. t0)
    | exception Session.Session_aborted _ -> `Aborted
  in
  (* the fault-free reference result, before any plan is installed *)
  let expected =
    match run_one () with
    | `Done (r, _) -> r
    | `Aborted -> assert false
  in
  let plan = Fault_plan.create ~seed () in
  Fault_plan.set_global plan (Fault_plan.profile ~drop ~duplicate:(drop /. 2.0) ());
  Cluster.install_faults cluster plan;
  let completed = ref 0 and aborted = ref 0 and wrong = ref 0 in
  let secs = ref 0.0 in
  let s0 = Cluster.snapshot cluster in
  for _ = 1 to sessions do
    match run_one () with
    | `Done (r, dt) ->
      incr completed;
      secs := !secs +. dt;
      if r <> expected then incr wrong
    | `Aborted -> incr aborted
  done;
  let d = Stats.diff (Cluster.snapshot cluster) s0 in
  {
    f_drop = drop;
    f_strategy = strategy_name;
    f_sessions = sessions;
    f_completed = !completed;
    f_aborted = !aborted;
    f_wrong = !wrong;
    f_retries = d.Stats.retries;
    f_timeouts = d.Stats.timeouts;
    f_duplicates = d.Stats.duplicates;
    f_seconds =
      (if !completed > 0 then !secs /. float_of_int !completed else 0.0);
  }

let default_fault_drops = [ 0.0; 0.01; 0.1 ]

let faults_sweep ?depth ?ratio ?sessions ?(seed = 42)
    ?(drops = default_fault_drops) () =
  let strategies =
    [
      ("smart", strategy_of_method (Proposed 8192));
      ("lazy", strategy_of_method Fully_lazy);
      ("eager", strategy_of_method Fully_eager);
    ]
  in
  List.concat_map
    (fun drop ->
      List.map
        (fun (strategy_name, strategy) ->
          faults_cell ?depth ?ratio ?sessions ~seed ~drop ~strategy
            ~strategy_name ())
        strategies)
    drops

let pp_faults ppf (overhead, rows) =
  Format.fprintf ppf
    "@[<v>FAULTS — retry envelope and chaos sweep (tree workload)@,";
  Format.fprintf ppf
    "envelope overhead at zero faults: plain %.4fs, enveloped %.4fs (x%.3f)@,@,"
    overhead.fo_plain.seconds overhead.fo_envelope.seconds overhead.fo_ratio;
  Format.fprintf ppf "%8s %8s %10s %8s %8s %8s %8s %8s@," "drop" "strategy"
    "sessions" "done" "aborted" "wrong" "retries" "dups";
  List.iter
    (fun f ->
      Format.fprintf ppf "%8.2f %8s %10d %8d %8d %8d %8d %8d@," f.f_drop
        f.f_strategy f.f_sessions f.f_completed f.f_aborted f.f_wrong
        f.f_retries f.f_duplicates)
    rows;
  Format.fprintf ppf "@]"

(* --- srpc-adapt: the adaptive policy, run session after session ---

   Same two-site setups as Fig. 4 and ablation A5, but the cluster keeps
   one {!Srpc_policy.Engine} across repeated sessions: each session the
   receiver's access pattern is profiled, and between sessions the
   controller revises the per-type closure budgets and machine-derived
   hints. The per-session run list is the convergence curve. *)

type adaptive_curve = {
  a_ratio : float;
  a_sessions : run list;  (** one entry per session, in order *)
  a_budgets : (string * int) list;  (** per-type budgets after the last session *)
}

let run_adaptive_tree_search ?(depth = 15) ?(sessions = 12) ?config ~ratio () =
  let policy = Srpc_policy.Engine.create ?config () in
  let cluster = Cluster.create ~policy () in
  let strategy = Strategy.smart () in
  let caller = Cluster.add_node cluster ~site:1 ~strategy () in
  let callee = Cluster.add_node cluster ~site:2 ~strategy () in
  Tree.register_types cluster;
  let root = Tree.build caller ~depth in
  register_search callee;
  let limit = search_limit ~depth ~ratio in
  let one () =
    measure_session cluster ~ground:caller ~callee (fun () ->
        call_search caller ~callee ~root ~limit ~update:false)
  in
  let runs = List.init sessions (fun _ -> one ()) in
  { a_ratio = ratio; a_sessions = runs; a_budgets = Srpc_policy.Engine.budgets policy }

type adaptive_fig4_row = {
  af_ratio : float;
  af_eager : run;
  af_lazy : run;
  af_smart : run;
  af_adaptive : adaptive_curve;
}

let adaptive_fig4 ?(depth = 15) ?(ratios = default_ratios) ?(closure = 8192)
    ?(sessions = 12) () =
  let point ratio =
    let go m = run_tree_search ~strategy:(strategy_of_method m) ~depth ~ratio () in
    {
      af_ratio = ratio;
      af_eager = go Fully_eager;
      af_lazy = go Fully_lazy;
      af_smart = go (Proposed closure);
      af_adaptive = run_adaptive_tree_search ~depth ~sessions ~ratio ();
    }
  in
  List.map point ratios

type adaptive_chain = {
  ac_sessions : run list;
  ac_hint : Hints.rule option;
  ac_budgets : (string * int) list;
}

let run_adaptive_chain_walk ?(cells = 400) ?(sessions = 10) ?config () =
  let policy = Srpc_policy.Engine.create ?config () in
  let strategy =
    { (Strategy.smart ()) with Strategy.grouping = Strategy.By_type }
  in
  let cluster = Cluster.create ~policy () in
  let owner = Cluster.add_node cluster ~site:1 ~strategy () in
  let walker = Cluster.add_node cluster ~site:2 ~strategy () in
  let head = chain_fixture cluster ~owner ~walker ~cells in
  let one () =
    measure_session cluster ~ground:owner ~callee:walker (fun () ->
        walk_chain ~owner ~walker ~cells head)
  in
  let runs = List.init sessions (fun _ -> one ()) in
  {
    ac_sessions = runs;
    ac_hint = Hints.find (Cluster.hints cluster) ~ty:rcell_ty;
    ac_budgets = Srpc_policy.Engine.budgets policy;
  }

let pp_adaptive_fig4 ppf rows =
  Format.fprintf ppf
    "@[<v>Adaptive vs Fig. 4 statics (final session; simulated seconds)@,\
     %6s %12s %12s %12s %12s %10s@," "ratio" "eager" "lazy" "smart" "adaptive"
    "ad/best";
  List.iter
    (fun { af_ratio; af_eager; af_lazy; af_smart; af_adaptive } ->
      let final = List.nth af_adaptive.a_sessions
          (List.length af_adaptive.a_sessions - 1) in
      let best =
        List.fold_left min af_eager.seconds [ af_lazy.seconds; af_smart.seconds ]
      in
      Format.fprintf ppf "%6.2f %12.4f %12.4f %12.4f %12.4f %10.3f@," af_ratio
        af_eager.seconds af_lazy.seconds af_smart.seconds final.seconds
        (final.seconds /. best))
    rows;
  Format.fprintf ppf "@]"

(* --- delta coherency: dirty-range write-backs vs full items --- *)

type delta_run = {
  dl_run : run;
  dl_wb_bytes : int;
  dl_saved : int;
  dl_fallbacks : int;
  dl_copies : int;
  dl_cachers : int;
  dl_inval_sent : int;
  dl_inval_skipped : int;
  dl_check : bool;
}

let poke_proc = "poke_field"

(* Update-heavy single-field workload: the ground owns one large flat
   struct (a 32x32 matrix tile, 8 KiB); a worker overwrites one element
   per call, so each reply's modified data set is the whole tile when
   shipped full versus a few dozen bytes as a dirty-range delta. Two
   further spaces join the session without ever caching ground data,
   separating the close's invalidation multicast (every participant)
   from the targeted unicast (the one caching space). *)
let run_field_update ?(delta = false) ?(pokes = 24) ?(idle_peers = 2) () =
  let strategy = Strategy.smart ~closure_size:16384 ~delta () in
  let cluster = Cluster.create () in
  let trace = Trace.create () in
  Transport.set_trace (Cluster.transport cluster) (Some trace);
  let ground = Cluster.add_node cluster ~site:1 ~strategy () in
  let worker = Cluster.add_node cluster ~site:2 ~strategy () in
  let idlers =
    List.init idle_peers (fun i ->
        Cluster.add_node cluster ~site:(3 + i) ~strategy ())
  in
  Matrix.register_types cluster;
  Node.register worker poke_proc (fun node args ->
      match args with
      | [ gridv; rowv; colv; v ] ->
        Matrix.set node (Access.of_value gridv) ~row:(Value.to_int rowv)
          ~col:(Value.to_int colv) (Value.to_float v);
        []
      | _ -> invalid_arg (poke_proc ^ ": expected (grid, row, col, v)"));
  List.iter (fun n -> Node.register n "ping" (fun _ _ -> [])) idlers;
  let grid = Matrix.create ground ~tile_rows:1 ~tile_cols:1 in
  let edge = Matrix.tile_edge in
  let cell i = (i mod edge, i * 7 mod edge) in
  Node.begin_session ground;
  let s0 = Cluster.snapshot cluster in
  let t0 = Cluster.now cluster in
  List.iter
    (fun n -> ignore (Node.call ground ~dst:(Node.id n) "ping" []))
    idlers;
  for i = 1 to pokes do
    let row, col = cell i in
    ignore
      (Node.call ground ~dst:(Node.id worker) poke_proc
         [
           Access.to_value grid; Value.int row; Value.int col;
           Value.float (float_of_int i);
         ])
  done;
  let cache_pages = Cache.used_pages (Node.cache worker) in
  Node.end_session ground;
  (* snapshot after the close so the write-back and invalidation phase
     is attributed to the run *)
  let t1 = Cluster.now cluster in
  let s1 = Cluster.snapshot cluster in
  let d = Stats.diff s1 s0 in
  (* the home must observe exactly the last poke landing on each cell *)
  let expected = Hashtbl.create 64 in
  for i = 1 to pokes do
    Hashtbl.replace expected (cell i) (float_of_int i)
  done;
  let check =
    Hashtbl.fold
      (fun (row, col) v ok -> ok && Matrix.get ground grid ~row ~col = v)
      expected true
  in
  let home = Space_id.to_string (Node.id ground) in
  let copy_dsts = Hashtbl.create 4 in
  let copies = ref 0 and inval_sent = ref 0 in
  List.iter
    (fun (e : Trace.event) ->
      match e.Trace.kind with
      | Trace.Copy _ ->
        incr copies;
        if e.Trace.dst <> home then Hashtbl.replace copy_dsts e.Trace.dst ()
      | Trace.Inval_sent _ -> incr inval_sent
      | _ -> ())
    (Trace.events trace);
  {
    dl_run =
      {
        seconds = t1 -. t0;
        callbacks = d.Stats.callbacks;
        messages = d.Stats.messages;
        bytes = d.Stats.bytes;
        faults = d.Stats.faults;
        visited = pokes;
        cache_pages;
      };
    dl_wb_bytes = d.Stats.writeback_bytes;
    dl_saved = d.Stats.delta_bytes_saved;
    dl_fallbacks = d.Stats.full_fallbacks;
    dl_copies = !copies;
    dl_cachers = Hashtbl.length copy_dsts;
    dl_inval_sent = !inval_sent;
    dl_inval_skipped = d.Stats.invalidations_skipped;
    dl_check = check;
  }

(* --- delta on/off across the Fig. 4 strategies --- *)

type delta_cell = {
  dc_run : run;
  dc_wb_bytes : int;
  dc_saved : int;
  dc_fallbacks : int;
}

type delta_fig4_row = {
  dm_method : method_kind;
  dm_off : delta_cell;
  dm_on : delta_cell;
}

(* The Fig. 4 tree search in its updating variant (every visited node's
   data field is overwritten), measured through the session close so the
   coherency traffic counts. Tree nodes are small, so this bounds the
   delta win from below; [run_field_update] bounds it from above. *)
let run_update_search ~strategy ~depth ~ratio =
  let cluster = Cluster.create () in
  let caller = Cluster.add_node cluster ~site:1 ~strategy () in
  let callee = Cluster.add_node cluster ~site:2 ~strategy () in
  Tree.register_types cluster;
  let root = Tree.build caller ~depth in
  Node.register callee search_proc (fun node args ->
      match args with
      | [ rootv; limitv ] ->
        let visited, _ =
          Tree.visit_update node (Access.of_value rootv)
            ~limit:(Value.to_int limitv)
        in
        [ Value.int visited ]
      | _ -> invalid_arg (search_proc ^ ": expected (root, limit)"));
  let total = Tree.nodes_of_depth depth in
  let limit = int_of_float (Float.round (ratio *. float_of_int total)) in
  Node.begin_session caller;
  let s0 = Cluster.snapshot cluster in
  let t0 = Cluster.now cluster in
  let visited =
    match
      Node.call caller ~dst:(Node.id callee) search_proc
        [ Access.to_value root; Value.int limit ]
    with
    | [ v ] -> Value.to_int v
    | _ -> failwith (search_proc ^ ": bad arity")
  in
  let cache_pages = Cache.used_pages (Node.cache callee) in
  Node.end_session caller;
  let t1 = Cluster.now cluster in
  let s1 = Cluster.snapshot cluster in
  let d = Stats.diff s1 s0 in
  {
    dc_run =
      {
        seconds = t1 -. t0;
        callbacks = d.Stats.callbacks;
        messages = d.Stats.messages;
        bytes = d.Stats.bytes;
        faults = d.Stats.faults;
        visited;
        cache_pages;
      };
    dc_wb_bytes = d.Stats.writeback_bytes;
    dc_saved = d.Stats.delta_bytes_saved;
    dc_fallbacks = d.Stats.full_fallbacks;
  }

let delta_fig4 ?(depth = 12) ?(ratio = 0.5) ?(closure = 8192) () =
  List.map
    (fun m ->
      let base = strategy_of_method m in
      {
        dm_method = m;
        dm_off = run_update_search ~strategy:base ~depth ~ratio;
        dm_on =
          run_update_search
            ~strategy:{ base with Strategy.delta_coherency = true }
            ~depth ~ratio;
      })
    [ Fully_eager; Fully_lazy; Proposed closure ]

let pp_delta ppf (field : delta_run list) (rows : delta_fig4_row list) =
  Format.fprintf ppf
    "@[<v>DELTA — single-field updates on an 8 KiB struct (24 pokes)@,";
  Format.fprintf ppf "%8s %12s %10s %10s %8s %8s %8s %8s@," "mode" "wb-bytes"
    "saved" "fallback" "copies" "inval" "spared" "check";
  List.iteri
    (fun i r ->
      Format.fprintf ppf "%8s %12d %10d %10d %8d %8d %8d %8s@,"
        (if i = 0 then "off" else "on")
        r.dl_wb_bytes r.dl_saved r.dl_fallbacks r.dl_copies r.dl_inval_sent
        r.dl_inval_skipped
        (if r.dl_check then "ok" else "FAIL"))
    field;
  Format.fprintf ppf
    "@,Fig. 4 strategies, updating search, delta off/on (write-back wire \
     bytes)@,";
  Format.fprintf ppf "%16s %12s %12s %10s %10s@," "method" "off-bytes"
    "on-bytes" "saved" "fallback";
  List.iter
    (fun { dm_method; dm_off; dm_on } ->
      Format.fprintf ppf "%16s %12d %12d %10d %10d@," (method_name dm_method)
        dm_off.dc_wb_bytes dm_on.dc_wb_bytes dm_on.dc_saved dm_on.dc_fallbacks)
    rows;
  Format.fprintf ppf "@]"

(* --- traversal offloading (srpc-offload, docs/OFFLOAD.md) ---

   The dual of closure shipping: instead of moving the tree to the
   computation, ship the traversal plan to the tree's home. The reuse
   count is the axis that separates the transfer modes — a one-shot
   traversal pays a whole closure (or a fault storm) for data it reads
   once, while a session that walks the same structure K times amortizes
   the one-time fetch and should keep the data local. *)

type offload_run = {
  of_seconds : float;
  of_messages : int;
  of_bytes : int;
  of_offload_calls : int;
  of_result : int;  (** the traversal's sum — must agree across modes *)
}

type offload_row = {
  of_repeats : int;
  of_eager : offload_run;  (** eager closure ships the tree, walks local *)
  of_lazy : offload_run;  (** lazy faulting, walks local *)
  of_always : offload_run;  (** every traversal shipped to the home *)
}

let give_root_proc = "give_root"

let run_offload_point ~strategy ~depth ~repeats () =
  let cluster = Cluster.create () in
  let client = Cluster.add_node cluster ~site:1 ~strategy () in
  let home = Cluster.add_node cluster ~site:2 ~strategy () in
  Tree.register_types cluster;
  let root = Tree.build home ~depth in
  Node.register home give_root_proc (fun _node _args -> [ Access.to_value root ]);
  let plan =
    Tree.plan ~op:Srpc_core.Offload.Op_sum
      ~hop_bound:(Tree.nodes_of_depth depth) ()
  in
  Node.begin_session client;
  let s0 = Cluster.snapshot cluster in
  let t0 = Cluster.now cluster in
  let rootp =
    match Node.call client ~dst:(Node.id home) give_root_proc [] with
    | [ v ] -> Access.of_value v
    | _ -> failwith (give_root_proc ^ ": bad arity")
  in
  let result = ref 0 in
  for _ = 1 to repeats do
    match Node.offload client ~root:rootp.Access.addr plan with
    | [ s ] -> result := s
    | _ -> failwith "offload point: bad result arity"
  done;
  let t1 = Cluster.now cluster in
  let s1 = Cluster.snapshot cluster in
  Node.end_session client;
  let d = Stats.diff s1 s0 in
  {
    of_seconds = t1 -. t0;
    of_messages = d.Stats.messages;
    of_bytes = d.Stats.bytes;
    of_offload_calls = d.Stats.offload_calls;
    of_result = !result;
  }

let default_offload_repeats = [ 1; 2; 4; 8; 16; 32 ]

let offload_sweep ?(depth = 10) ?(repeat_points = default_offload_repeats) () =
  let always =
    { Strategy.fully_lazy with Strategy.offload = Strategy.Offload_always }
  in
  List.map
    (fun repeats ->
      {
        of_repeats = repeats;
        of_eager =
          run_offload_point ~strategy:Strategy.fully_eager ~depth ~repeats ();
        of_lazy =
          run_offload_point ~strategy:Strategy.fully_lazy ~depth ~repeats ();
        of_always = run_offload_point ~strategy:always ~depth ~repeats ();
      })
    repeat_points

type offload_adaptive_point = {
  oa_repeats : int;
  oa_sessions : int;  (** sessions the learner observed *)
  oa_run : offload_run;  (** whole sweep: all sessions, learner in charge *)
  oa_choice : string;  (** {!Srpc_policy.Engine.offload_choice} at the end *)
}

(* Long-haul link for the adaptive sweep: real per-frame latency, and a
   pipe where shipping the whole closure costs a handful of round trips.
   On the paper's thin 10 Mbps LAN the per-byte cost dominates so
   completely that offloading wins at every reuse count; on this link
   the reuse count K genuinely decides — a one-shot traversal should
   offload (one round trip beats shipping the tree), while a session
   that walks the same tree many times amortizes the one-time closure
   and should keep the walk local. *)
let offload_link =
  {
    Cost_model.message_latency = 1.0e-3;
    bandwidth = 6.0e6;
    per_byte_cpu = 1.0e-8;
    fault_overhead = 3.0e-5;
    local_touch = 1.0e-6;
  }

(* Session-granular learning: the two-arm learner picks the transfer
   mode for each session up front (the session is the natural decision
   grain — a local fetch only amortizes across the traversals of the
   session that paid for it, because the close's invalidation empties
   the client's cache). Per-traversal seconds feed the chosen arm. *)
let offload_adaptive ?(depth = 10) ?(sessions = 24) ?(link_cost = offload_link)
    ~repeats () =
  let policy = Srpc_policy.Engine.create () in
  let local = Strategy.fully_eager in
  let remote =
    { Strategy.fully_lazy with Strategy.offload = Strategy.Offload_always }
  in
  let cluster = Cluster.create () in
  let walker_local = Cluster.add_node cluster ~site:1 ~strategy:local () in
  let home = Cluster.add_node cluster ~site:2 () in
  let walker_remote = Cluster.add_node cluster ~site:3 ~strategy:remote () in
  let tr = Cluster.transport cluster in
  let h = Space_id.to_string (Node.id home) in
  List.iter
    (fun w ->
      let w = Space_id.to_string (Node.id w) in
      Transport.set_link_cost tr ~src:w ~dst:h link_cost;
      Transport.set_link_cost tr ~src:h ~dst:w link_cost)
    [ walker_local; walker_remote ];
  Tree.register_types cluster;
  let root = Tree.build home ~depth in
  Node.register home give_root_proc (fun _node _args -> [ Access.to_value root ]);
  let plan =
    Tree.plan ~op:Srpc_core.Offload.Op_sum
      ~hop_bound:(Tree.nodes_of_depth depth) ()
  in
  let result = ref 0 in
  let s0 = Cluster.snapshot cluster in
  let t0 = Cluster.now cluster in
  for _ = 1 to sessions do
    let offloaded =
      Srpc_policy.Engine.choose_offload policy ~ty:Tree.type_name
    in
    let client = if offloaded then walker_remote else walker_local in
    let st0 = Cluster.now cluster in
    Node.begin_session client;
    let rootp =
      match Node.call client ~dst:(Node.id home) give_root_proc [] with
      | [ v ] -> Access.of_value v
      | _ -> failwith (give_root_proc ^ ": bad arity")
    in
    for _ = 1 to repeats do
      match Node.offload client ~root:rootp.Access.addr plan with
      | [ s ] -> result := s
      | _ -> failwith "offload adaptive: bad result arity"
    done;
    Node.end_session client;
    Srpc_policy.Engine.offload_feedback policy ~ty:Tree.type_name ~offloaded
      ~seconds:((Cluster.now cluster -. st0) /. float_of_int repeats)
  done;
  let t1 = Cluster.now cluster in
  let d = Stats.diff (Cluster.snapshot cluster) s0 in
  {
    oa_repeats = repeats;
    oa_sessions = sessions;
    oa_run =
      {
        of_seconds = t1 -. t0;
        of_messages = d.Stats.messages;
        of_bytes = d.Stats.bytes;
        of_offload_calls = d.Stats.offload_calls;
        of_result = !result;
      };
    oa_choice = Srpc_policy.Engine.offload_choice policy ~ty:Tree.type_name;
  }

let offload_adaptive_sweep ?(depth = 10) ?(sessions = 24)
    ?(repeat_points = [ 1; 32 ]) () =
  List.map
    (fun repeats -> offload_adaptive ~depth ~sessions ~repeats ())
    repeat_points

let pp_offload ppf (rows, adaptive) =
  Format.fprintf ppf
    "@[<v>OFFLOAD — traversal plans shipped to the data's home (tree sum, \
     one session, K repeats)@,";
  Format.fprintf ppf "%8s %12s %12s %12s %10s %10s@," "repeats" "eager-bytes"
    "lazy-bytes" "off-bytes" "off-calls" "off-time";
  List.iter
    (fun r ->
      Format.fprintf ppf "%8d %12d %12d %12d %10d %9.4fs@," r.of_repeats
        r.of_eager.of_bytes r.of_lazy.of_bytes r.of_always.of_bytes
        r.of_always.of_offload_calls r.of_always.of_seconds)
    rows;
  Format.fprintf ppf
    "@,adaptive (session-granular two-arm learner, %d sessions each):@,"
    (match adaptive with [] -> 0 | p :: _ -> p.oa_sessions);
  Format.fprintf ppf "%8s %12s %10s %12s@," "repeats" "bytes" "off-calls"
    "choice";
  List.iter
    (fun p ->
      Format.fprintf ppf "%8d %12d %10d %12s@," p.oa_repeats p.oa_run.of_bytes
        p.oa_run.of_offload_calls p.oa_choice)
    adaptive;
  Format.fprintf ppf "@]"
