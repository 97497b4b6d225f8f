(* The three closed-loop workloads: the paper's two-site tree fixture
   (depth 11, 2,047 nodes homed on the caller), one client issuing one
   session after another. A session is [begin_session]; one RPC whose
   callee visits the first [limit] nodes in preorder; [end_session].
   Every result is checked against a model of the tree. *)

open Srpc_core
open Srpc_workloads
module Stats = Srpc_simnet.Stats
module Cost_model = Srpc_simnet.Cost_model
module Trace = Srpc_simnet.Trace
module Transport = Srpc_simnet.Transport
module Rng = Srpc_check.Rng

type spec = {
  name : string;
  strategy : Strategy.t;
  lo : float;  (** the visited fraction r is drawn from [lo, hi] *)
  hi : float;
  update : bool;  (** the callee increments each visited datum *)
  sessions : int;  (** per round, at full size *)
}

let depth = 11
let nodes = Tree.nodes_of_depth depth
let warmup = 20
let proc = "srpcbench_visit"

type fixture = {
  spec : spec;
  cluster : Cluster.t;
  caller : Node.t;
  callee : Node.t;
  root : Access.ptr;
  model : int array;  (** expected data field of each node, in preorder *)
  mutable body : int * int;  (** host ns span of the last callee body *)
}

let make spec =
  let cluster = Cluster.create () in
  let caller = Cluster.add_node cluster ~site:1 ~strategy:spec.strategy () in
  let callee = Cluster.add_node cluster ~site:2 ~strategy:spec.strategy () in
  Tree.register_types cluster;
  let root = Tree.build caller ~depth in
  let fx =
    { spec; cluster; caller; callee; root; model = Array.init nodes Fun.id; body = (0, 0) }
  in
  let visit = if spec.update then Tree.visit_update else Tree.visit in
  Node.register callee proc (fun node args ->
      match args with
      | [ rootv; limitv ] ->
        let b0 = Metric.now_ns () in
        let visited, sum = visit node (Access.of_value rootv) ~limit:(Value.to_int limitv) in
        fx.body <- (b0, Metric.now_ns ());
        [ Value.int visited; Value.int sum; Value.int (Cache.used_pages (Node.cache node)) ]
      | _ -> invalid_arg (proc ^ ": expected (root, limit)"));
  fx

(* Stratified draws: the n sessions of a round take one r from each of
   n equal strata of [lo, hi], jittered and shuffled by the seed. The
   seed changes every input, yet the latency quantiles move by at most
   one stratum between seeds. *)
let limits spec ~seed ~n =
  let rng = Rng.create seed in
  let stratum = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let x = stratum.(i) in
    stratum.(i) <- stratum.(j);
    stratum.(j) <- x
  done;
  Array.map
    (fun k ->
      let u = (float_of_int k +. Rng.float rng) /. float_of_int n in
      let r = spec.lo +. ((spec.hi -. spec.lo) *. u) in
      max 1 (int_of_float (Float.round (r *. float_of_int nodes))))
    stratum

(* The model's answer for a visit of [limit] nodes; applies the visit's
   increments when the workload updates. *)
let expect fx ~limit =
  let visited = min limit nodes in
  let sum = ref 0 in
  for k = 0 to visited - 1 do
    sum := !sum + fx.model.(k);
    if fx.spec.update then fx.model.(k) <- fx.model.(k) + 1
  done;
  (visited, !sum)

type session = {
  sim_s : float;
  d : Stats.snapshot;
  pages : int;  (** callee cache pages in use when the body returned *)
  ok : bool;
  t : int array;  (** host ns: session start, call start, call end, close end *)
  body : int * int;
}

let session fx ~limit =
  let s0 = Cluster.snapshot fx.cluster and c0 = Cluster.now fx.cluster in
  let t0 = Metric.now_ns () in
  Node.begin_session fx.caller;
  let t1 = Metric.now_ns () in
  let res =
    Node.call fx.caller ~dst:(Node.id fx.callee) proc
      [ Access.to_value fx.root; Value.int limit ]
  in
  let t2 = Metric.now_ns () in
  Node.end_session fx.caller;
  let t3 = Metric.now_ns () in
  let sim_s = Cluster.now fx.cluster -. c0 in
  let d = Stats.diff (Cluster.snapshot fx.cluster) s0 in
  let ok, pages =
    match res with
    | [ v; s; p ] -> (expect fx ~limit = (Value.to_int v, Value.to_int s), Value.to_int p)
    | _ -> (false, 0)
  in
  { sim_s; d; pages; ok; t = [| t0; t1; t2; t3 |]; body = fx.body }

let host_ms s = Metric.ms_of_ns (s.t.(3) - s.t.(0))

(* The [Srpc_simnet] layers of one session, from its [Stats] diff and
   the cost model: every frame pays latency, bandwidth and XDR CPU, every
   fault its trap. The residual is local touches, runtime byte crunching
   and backoff, which no counter records; it is the remainder, so the
   layers sum to the session total by construction. *)
let layers (cost : Cost_model.t) s =
  let frames = float_of_int s.d.Stats.messages and bytes = float_of_int s.d.Stats.bytes in
  let latency = frames *. cost.Cost_model.message_latency
  and bandwidth = bytes /. cost.Cost_model.bandwidth
  and xdr = bytes *. cost.Cost_model.per_byte_cpu
  and trap = float_of_int s.d.Stats.faults *. cost.Cost_model.fault_overhead in
  [| latency; bandwidth; xdr; trap; s.sim_s -. latency -. bandwidth -. xdr -. trap |]

(* The counted layers never charge more than the session took. *)
let residual_ok cost s = (layers cost s).(4) >= -1e-9 *. s.sim_s

let same_sim a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y ->
         Float.abs (x.sim_s -. y.sim_s) <= 1e-9 *. x.sim_s
         && x.d.Stats.messages = y.d.Stats.messages
         && x.d.Stats.bytes = y.d.Stats.bytes)
       a b

(* --- traced round --- *)

let label_of e =
  if List.mem e.Trace.label Catalog.wire_labels then e.Trace.label else "other"

(* One round with a [Trace] on the transport and spans around each
   session's calls. The trace is tallied by frame label and cleared
   after every session, so its size stays bounded. *)
let traced_round fx limits =
  let tr = Cluster.transport fx.cluster in
  let trace = Trace.create () in
  let spans = Spans.create () in
  let tally = Hashtbl.create 16 in
  let trace_agrees = ref true in
  Transport.set_trace tr (Some trace);
  let sessions =
    Array.mapi
      (fun i limit ->
        let s = session fx ~limit in
        let frames = ref 0 and bytes = ref 0 in
        List.iter
          (fun e ->
            match e.Trace.kind with
            | Trace.Message _ | Trace.Dropped _ | Trace.Dup _ ->
              incr frames;
              bytes := !bytes + e.Trace.bytes;
              let l = label_of e in
              let f, b = Option.value ~default:(0, 0) (Hashtbl.find_opt tally l) in
              Hashtbl.replace tally l (f + 1, b + e.Trace.bytes)
            | _ -> ())
          (Trace.events trace);
        Trace.clear trace;
        if !frames <> s.d.Stats.messages || !bytes <> s.d.Stats.bytes then trace_agrees := false;
        let sid =
          Spans.add spans ~name:"session" ~session:i ~start_ns:s.t.(0) ~end_ns:s.t.(3) ()
        in
        let cid =
          Spans.add spans ~name:"node.call" ~parent:sid ~session:i ~start_ns:s.t.(1)
            ~end_ns:s.t.(2) ()
        in
        ignore
          (Spans.add spans ~name:"callee.body" ~parent:cid ~session:i ~start_ns:(fst s.body)
             ~end_ns:(snd s.body) ());
        ignore
          (Spans.add spans ~name:"node.end_session" ~parent:sid ~session:i ~start_ns:s.t.(2)
             ~end_ns:s.t.(3) ());
        s)
      limits
  in
  Transport.set_trace tr None;
  (sessions, spans, tally, !trace_agrees)

(* --- the run --- *)

let run spec ~seed (mode : Harness.mode) =
  let n = max 2 (spec.sessions / mode.Harness.scale) in
  let measured = limits spec ~seed ~n in
  let (fx, warm_ok), setup =
    Harness.set_up (fun () ->
        let fx = make spec in
        let warm = limits spec ~seed:1 ~n:warmup in
        (fx, Array.for_all (fun limit -> (session fx ~limit).ok) warm))
  in
  let run_round () = Array.map (fun limit -> session fx ~limit) measured in
  let rounds = Harness.rounds ~budget:mode.Harness.budget ~setup [ run_round ] in
  let sessions r = Array.concat r.Harness.result in
  let first = sessions (List.hd rounds) in
  let cost = Transport.cost (Cluster.transport fx.cluster) in
  let traced = if mode.Harness.traced then Some (traced_round fx measured) else None in
  let all =
    List.concat_map (fun r -> Array.to_list (sessions r)) rounds
    @ match traced with Some (s, _, _, _) -> Array.to_list s | None -> []
  in
  let final_ok = Tree.data_list fx.caller fx.root = Array.to_list fx.model in
  let lat = Metric.sorted_of_list (Array.to_list (Array.map (fun s -> s.sim_s) first)) in
  let host_p50 r = Metric.median (Array.to_list (Array.map host_ms r)) in
  let untraced_p50 = Harness.least (fun r -> host_p50 (sessions r)) rounds in
  let sum f = Array.fold_left (fun acc s -> acc +. f s) 0.0 first in
  let mean f = sum f /. float_of_int n in
  let layer k = mean (fun s -> (layers cost s).(k)) in
  let prefetched = sum (fun s -> float_of_int s.d.Stats.prefetched_bytes) in
  let wasted = sum (fun s -> float_of_int s.d.Stats.wasted_prefetch_bytes) in
  let checks =
    [
      ("every visit matches the tree model", warm_ok && List.for_all (fun s -> s.ok) all);
      ("final tree data equals the model", final_ok);
      ( "every round repeats round 1's simulated seconds, frames and bytes",
        List.for_all (fun r -> same_sim first (sessions r)) rounds );
      ( "counted simnet layers stay within each session's total (residual >= 0)",
        Array.for_all (residual_ok cost) first );
    ]
    @
    match traced with
    | None -> []
    | Some (s, _, _, agrees) ->
      [
        ("traced round repeats the untraced simulated seconds, frames and bytes", same_sim first s);
        ("trace frames and bytes equal the Stats counters", agrees);
      ]
  in
  let end_to_end =
    [
      Metric.v "sim_p50_s" (Metric.median (Array.to_list lat));
      Metric.v "sim_sessions_per_s" (float_of_int n /. sum (fun s -> s.sim_s));
      Metric.v "setup_s" (Harness.setup_s setup);
    ]
  in
  let traced_layers =
    match traced with
    | None -> []
    | Some (s, spans, tally, _) ->
      List.concat_map
        (fun l ->
          let f, b = Option.value ~default:(0, 0) (Hashtbl.find_opt tally l) in
          [
            Metric.v ("wire." ^ l ^ ".frames") (float_of_int f /. float_of_int n);
            Metric.v ("wire." ^ l ^ ".bytes") (float_of_int b /. float_of_int n);
          ])
        (Catalog.wire_labels @ [ "other" ])
      @ [
          Metric.v "host.call_self_ms" (Spans.mean_self_ms spans "node.call");
          Metric.v "host.callee_body_ms" (Spans.mean_self_ms spans "callee.body");
          Metric.v "host.close_ms" (Spans.mean_self_ms spans "node.end_session");
          Metric.v "host.trace_overhead_ratio" (host_p50 s /. untraced_p50);
        ]
  in
  let per_layer =
    [
      Metric.v "host_sessions_per_cpu_s"
        (float_of_int n /. Harness.least (fun r -> r.Harness.cpu_s) rounds);
      Metric.v "host_heap_mb" (List.hd rounds).Harness.heap_mb;
      Metric.v "host_p50_ms" untraced_p50;
      Metric.v "sim_p99_s" (Metric.percentile lat 0.99);
      Metric.v "wire_bytes_per_session" (mean (fun s -> float_of_int s.d.Stats.bytes));
      Metric.v "transport.frames" (mean (fun s -> float_of_int s.d.Stats.messages));
      Metric.v "transport.latency_s" (layer 0);
      Metric.v "transport.bandwidth_s" (layer 1);
      Metric.v "xdr.sim_cpu_s" (layer 2);
      Metric.v "mmu.faults" (mean (fun s -> float_of_int s.d.Stats.faults));
      Metric.v "mmu.fault_trap_s" (layer 3);
      Metric.v "sim.residual_s" (layer 4);
      Metric.v "node.callbacks" (mean (fun s -> float_of_int s.d.Stats.callbacks));
      Metric.v "node.stall_s" (mean (fun s -> float_of_int s.d.Stats.stall_ns /. 1e9));
      Metric.v "node.prefetched_bytes" (prefetched /. float_of_int n);
      Metric.v "node.prefetch_useful_ratio"
        (if prefetched > 0.0 then (prefetched -. wasted) /. prefetched else 0.0);
      Metric.v "node.writebacks" (mean (fun s -> float_of_int s.d.Stats.writebacks));
      Metric.v "node.writeback_bytes" (mean (fun s -> float_of_int s.d.Stats.writeback_bytes));
      Metric.v "cache.pages" (mean (fun s -> float_of_int s.pages));
    ]
    @ Harness.gc_metrics ~sessions:n rounds
    @ traced_layers
  in
  let failed = List.length (List.filter (fun s -> not s.ok) all) in
  {
    Harness.round_times =
      List.map (fun r -> (r.Harness.cpu_s, r.Harness.wall_s)) rounds;
    attempted = List.length all;
    failed;
    checks;
    end_to_end;
    per_layer;
    spans = Option.map (fun (_, sp, _, _) -> sp) traced;
  }

(* A short traced run of [spec], for the linter probes. *)
let record_trace spec ~sessions ~ratio =
  let fx = make spec in
  let trace = Trace.create () in
  Transport.set_trace (Cluster.transport fx.cluster) (Some trace);
  for _ = 1 to sessions do
    ignore (session fx ~limit:(int_of_float (ratio *. float_of_int nodes)))
  done;
  Trace.events trace

let specs =
  [
    {
      name = "chase-lazy";
      strategy = Strategy.fully_lazy;
      lo = 0.05;
      hi = 0.5;
      update = false;
      sessions = 300;
    };
    {
      name = "bulk-eager";
      strategy = Strategy.fully_eager;
      lo = 0.25;
      hi = 1.0;
      update = false;
      sessions = 150;
    };
    {
      name = "update-smart";
      strategy = Strategy.smart ();
      lo = 0.1;
      hi = 1.0;
      update = true;
      sessions = 60;
    };
  ]
