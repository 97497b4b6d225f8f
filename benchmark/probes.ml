(* Per-layer host probes: Bechamel OLS on the monotonic clock and on
   minor allocation, one probe per hot path a session goes through.
   Each reports [<probe>.ns_per_op] and [<probe>.words_per_op]. *)

open Bechamel
open Srpc_core
open Srpc_workloads
module Trace = Srpc_simnet.Trace
module Xdr = Srpc_xdr.Xdr

(* (name, operations per call, the call) *)
type probe = string * float * (unit -> unit)

(* Two sites, a depth-8 tree on [a], a session open with [b]'s cache
   warmed by one visit, as the session fast paths see it. *)
let node_probes () : probe list =
  let cluster = Cluster.create () in
  let a = Cluster.add_node cluster ~site:1 () in
  let b = Cluster.add_node cluster ~site:2 () in
  Tree.register_types cluster;
  let root = Tree.build a ~depth:8 in
  Node.register b "visit" (fun node args ->
      match args with
      | [ rootv ] ->
        let visited, _ = Tree.visit node (Access.of_value rootv) ~limit:max_int in
        [ Value.int visited ]
      | _ -> invalid_arg "visit");
  Node.begin_session a;
  ignore (Node.call a ~dst:(Node.id b) "visit" [ Access.to_value root ]);
  let reg = Cluster.registry cluster in
  let lp = Long_pointer.make ~origin:(Node.id a) ~addr:root.Access.addr ~ty:Tree.type_name in
  let fetch = Wire.encode_request ~reg (Wire.Fetch { session = 1; wanted = [ lp ] }) in
  let enc_ctx =
    {
      Object_codec.enc_reg = reg;
      enc_arch = Node.arch a;
      unswizzle = (fun ~ty w -> Node.unswizzle a ~ty w);
    }
  in
  let dec_ctx =
    { Object_codec.dec_reg = reg; dec_arch = Node.arch b; swizzle = Node.swizzle b }
  in
  let raw =
    Srpc_memory.Address_space.read_unchecked (Node.space a) ~addr:root.Access.addr
      ~len:(Srpc_types.Layout.sizeof_name reg (Node.arch a) Tree.type_name)
  in
  let canon = Object_codec.encode enc_ctx ~ty:Tree.type_name raw in
  let cached = Node.swizzle b (Some lp) in
  let p = Access.ptr ~ty:Tree.type_name cached in
  let ty = Tree.type_name in
  [
    ("object_codec.encode_tnode", 1.0, fun () -> ignore (Object_codec.encode enc_ctx ~ty raw));
    ("object_codec.decode_tnode", 1.0, fun () -> ignore (Object_codec.decode dec_ctx ~ty canon));
    ( "wire.encode_fetch",
      1.0,
      fun () -> ignore (Wire.encode_request ~reg (Wire.Fetch { session = 1; wanted = [ lp ] })) );
    ("wire.decode_fetch", 1.0, fun () -> ignore (Wire.decode_request ~reg fetch));
    ("node.swizzle_hit", 1.0, fun () -> ignore (Node.swizzle b (Some lp)));
    ("node.unswizzle", 1.0, fun () -> ignore (Node.unswizzle a ~ty root.Access.addr));
    ("cache.find_by_addr", 1.0, fun () -> ignore (Cache.find_by_addr (Node.cache b) cached));
    ("access.cached_write", 1.0, fun () -> Access.set_int b p ~field:"data" 42);
  ]

(* A procedure call with no arguments, results or cached data. *)
let call_probe () : probe =
  let cluster = Cluster.create () in
  let a = Cluster.add_node cluster ~site:1 () in
  let b = Cluster.add_node cluster ~site:2 () in
  Node.register b "noop" (fun _ _ -> []);
  Node.begin_session a;
  ("node.call_noop", 1.0, fun () -> ignore (Node.call a ~dst:(Node.id b) "noop" []))

(* A traversal plan summing a depth-8 tree, shipped to its home. *)
let offload_probe () : probe =
  let strategy = { Strategy.fully_lazy with Strategy.offload = Strategy.Offload_always } in
  let cluster = Cluster.create () in
  let client = Cluster.add_node cluster ~site:1 ~strategy () in
  let home = Cluster.add_node cluster ~site:2 ~strategy () in
  Tree.register_types cluster;
  let root = Tree.build home ~depth:8 in
  Node.register home "root" (fun _ _ -> [ Access.to_value root ]);
  Node.begin_session client;
  let rootp =
    match Node.call client ~dst:(Node.id home) "root" [] with
    | [ v ] -> Access.of_value v
    | _ -> invalid_arg "root"
  in
  let plan = Tree.plan ~op:Offload.Op_sum ~hop_bound:(Tree.nodes_of_depth 8) () in
  ("node.offload_sum_d8", 1.0, fun () -> ignore (Node.offload client ~root:rootp.Access.addr plan))

let codec_probes () : probe list =
  let ints = Array.init 1000 (fun i -> (i * 7919) - 500_000) in
  let base = String.make 8192 'a' in
  let now = Bytes.of_string base in
  List.iter (fun off -> Bytes.blit_string "zzzz" 0 now off 4) [ 100; 4000; 8000 ];
  let now = Bytes.to_string now in
  [
    ( "xdr.enc_dec_1k_ints",
      1.0,
      fun () ->
        let e = Xdr.Enc.create ~initial:4096 () in
        Array.iter (Xdr.Enc.int e) ints;
        let d = Xdr.Dec.of_string (Xdr.Enc.to_string e) in
        for _ = 1 to 1000 do
          ignore (Xdr.Dec.int d)
        done );
    ("cache.diff_ranges_8k", 1.0, fun () -> ignore (Cache.diff_ranges ~base ~now));
  ]

(* [Health.observe] with [events] events in the trace and none new
   since the cursor: all of its cost is the scan of old events. *)
let health_probe ~name ~events : probe =
  let module Simnet = Srpc_simnet in
  let transport =
    Simnet.Transport.create ~clock:(Simnet.Clock.create ()) ~stats:(Simnet.Stats.create ())
      ~cost:Simnet.Cost_model.sparc_10mbps
  in
  let stats = Simnet.Transport.stats transport in
  let h = Health.create ~src:"monitor" ~registry:(Srpc_types.Registry.create ()) ~stats transport in
  Health.watch h "peer";
  let trace = Trace.create () in
  for i = 1 to events do
    Trace.record trace ~at:(float_of_int i) ~src:"client" ~dst:"peer" ~dir:Trace.Request ~bytes:64
  done;
  let cursor = Trace.length trace in
  (name, 1.0, fun () -> ignore (Health.observe h trace ~from:cursor))

(* The offline linters over a recorded update-smart trace, per event. *)
let lint_probes () : probe list =
  let spec = List.find (fun s -> s.Closed_loop.update) Closed_loop.specs in
  let events = Closed_loop.record_trace spec ~sessions:4 ~ratio:0.25 in
  let n = float_of_int (List.length events) in
  [
    ("race_lint.per_event", n, fun () -> ignore (Srpc_analysis.Race_lint.check_events events));
    ("proto_lint.per_event", n, fun () -> ignore (Srpc_analysis.Proto_lint.check_events events));
  ]

let all () =
  codec_probes () @ node_probes ()
  @ [
      call_probe ();
      offload_probe ();
      health_probe ~name:"health.observe_10k" ~events:10_000;
      health_probe ~name:"health.observe_100k" ~events:100_000;
    ]
  @ lint_probes ()

(* Run every probe for [quota] seconds and return its metrics. *)
let run ~quota =
  let clock = Toolkit.Instance.monotonic_clock and alloc = Toolkit.Instance.minor_allocated in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~stabilize:false () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  List.concat_map
    (fun (name, per, f) ->
      let raw = Benchmark.all cfg [ clock; alloc ] (Test.make ~name (Staged.stage f)) in
      let est instance =
        let tbl = Analyze.all ols instance raw in
        match Hashtbl.find_opt tbl name with
        | Some r -> (
          match Analyze.OLS.estimates r with Some [ e ] -> e /. per | _ -> Float.nan)
        | None -> Float.nan
      in
      [
        Metric.v (name ^ ".ns_per_op") (est clock);
        Metric.v (name ^ ".words_per_op") (est alloc);
      ])
    (all ())
