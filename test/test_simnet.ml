(* Unit tests for the simulated-network substrate: clock, statistics,
   cost model and synchronous transport. *)

open Srpc_simnet

let feq = Alcotest.float 1e-9

(* --- Clock --- *)

let test_clock_starts_at_zero () =
  Alcotest.check feq "zero" 0.0 (Clock.now (Clock.create ()))

let test_clock_advance () =
  let c = Clock.create () in
  Clock.advance c 1.5;
  Clock.advance c 0.25;
  Alcotest.check feq "sum" 1.75 (Clock.now c)

let test_clock_reset () =
  let c = Clock.create () in
  Clock.advance c 3.0;
  Clock.reset c;
  Alcotest.check feq "reset" 0.0 (Clock.now c)

let test_clock_measure () =
  let c = Clock.create () in
  Clock.advance c 1.0;
  let v, dt =
    Clock.measure c (fun () ->
        Clock.advance c 2.5;
        42)
  in
  Alcotest.(check int) "result" 42 v;
  Alcotest.check feq "elapsed" 2.5 dt;
  Alcotest.check feq "absolute" 3.5 (Clock.now c)

(* --- Stats --- *)

let test_stats_counts () =
  let s = Stats.create () in
  Stats.incr_messages s;
  Stats.incr_messages s;
  Stats.add_bytes s 100;
  Stats.incr_faults s;
  Stats.incr_callbacks s;
  Stats.add_writebacks s 3;
  Stats.add_remote_allocs s 2;
  Stats.add_remote_frees s 1;
  let snap = Stats.snapshot s in
  Alcotest.(check int) "messages" 2 snap.Stats.messages;
  Alcotest.(check int) "bytes" 100 snap.Stats.bytes;
  Alcotest.(check int) "faults" 1 snap.Stats.faults;
  Alcotest.(check int) "callbacks" 1 snap.Stats.callbacks;
  Alcotest.(check int) "writebacks" 3 snap.Stats.writebacks;
  Alcotest.(check int) "allocs" 2 snap.Stats.remote_allocs;
  Alcotest.(check int) "frees" 1 snap.Stats.remote_frees

let test_stats_diff () =
  let s = Stats.create () in
  Stats.incr_messages s;
  let a = Stats.snapshot s in
  Stats.incr_messages s;
  Stats.add_bytes s 10;
  let b = Stats.snapshot s in
  let d = Stats.diff b a in
  Alcotest.(check int) "messages" 1 d.Stats.messages;
  Alcotest.(check int) "bytes" 10 d.Stats.bytes

let test_stats_prefetch_counters () =
  let s = Stats.create () in
  Stats.add_prefetched_bytes s 4096;
  Stats.add_wasted_prefetch_bytes s 1024;
  Stats.add_stall_ns s 500;
  Stats.add_stall_ns s 250;
  let a = Stats.snapshot s in
  Alcotest.(check int) "prefetched" 4096 a.Stats.prefetched_bytes;
  Alcotest.(check int) "wasted" 1024 a.Stats.wasted_prefetch_bytes;
  Alcotest.(check int) "stall" 750 a.Stats.stall_ns;
  Stats.add_wasted_prefetch_bytes s 512;
  let d = Stats.diff (Stats.snapshot s) a in
  Alcotest.(check int) "diffed wasted" 512 d.Stats.wasted_prefetch_bytes;
  Alcotest.(check int) "diffed stall" 0 d.Stats.stall_ns;
  (* the new counters render in the snapshot printer *)
  let rendered = Format.asprintf "%a" Stats.pp_snapshot a in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "pp mentions waste" true (contains rendered "wasted")

let test_stats_zero () =
  Alcotest.(check int) "zero" 0 Stats.zero.Stats.messages

(* Counter sets, [zero] and snapshots are copies of one record: moving
   one counter set must move none of the others. *)
let test_stats_copies () =
  let a = Stats.create () and b = Stats.create () in
  Stats.incr_messages a;
  Stats.add_bytes a 7;
  Alcotest.(check (pair int int)) "second set untouched" (0, 0)
    (let s = Stats.snapshot b in
     (s.Stats.messages, s.Stats.bytes));
  let before = Stats.snapshot a in
  Stats.incr_messages a;
  Stats.add_bytes a 5;
  Stats.incr_messages b;
  Alcotest.(check (pair int int)) "zero still reads 0" (0, 0)
    (Stats.zero.Stats.messages, Stats.zero.Stats.bytes);
  Alcotest.(check (pair int int)) "snapshot keeps its values" (1, 7)
    (before.Stats.messages, before.Stats.bytes)

(* --- Cost model --- *)

let test_frame_cost_zero_model () =
  Alcotest.check feq "free" 0.0 (Cost_model.frame_cost Cost_model.zero ~bytes:1000)

let test_frame_cost_components () =
  let m =
    {
      Cost_model.message_latency = 0.5;
      bandwidth = 100.0;
      per_byte_cpu = 0.01;
      fault_overhead = 0.0;
      local_touch = 0.0;
    }
  in
  (* 0.5 latency + 200/100 wire + 200*0.01 cpu *)
  Alcotest.check feq "cost" 4.5 (Cost_model.frame_cost m ~bytes:200)

let test_frame_cost_monotone_in_bytes () =
  let m = Cost_model.sparc_10mbps in
  let c1 = Cost_model.frame_cost m ~bytes:10 in
  let c2 = Cost_model.frame_cost m ~bytes:10000 in
  Alcotest.(check bool) "monotone" true (c2 > c1)

(* --- Transport --- *)

let mk_transport ?(cost = Cost_model.zero) () =
  let clock = Clock.create () in
  let stats = Stats.create () in
  (Transport.create ~clock ~stats ~cost, clock, stats)

let test_transport_echo () =
  let t, _, _ = mk_transport () in
  Transport.register t "b" (fun src req -> src ^ ":" ^ req);
  let reply = Transport.rpc t ~src:"a" ~dst:"b" "hello" in
  Alcotest.(check string) "echo" "a:hello" reply

let test_transport_unknown_endpoint () =
  let t, _, _ = mk_transport () in
  Alcotest.check_raises "unknown" (Transport.Unknown_endpoint "nope") (fun () ->
      ignore (Transport.rpc t ~src:"a" ~dst:"nope" "x"))

let test_transport_counts_messages_and_bytes () =
  let t, _, stats = mk_transport () in
  Transport.register t "b" (fun _ _ -> "pong!");
  ignore (Transport.rpc t ~src:"a" ~dst:"b" "ping");
  let s = Stats.snapshot stats in
  Alcotest.(check int) "two frames" 2 s.Stats.messages;
  Alcotest.(check int) "bytes both ways" 9 s.Stats.bytes

let test_transport_advances_clock () =
  let cost =
    {
      Cost_model.message_latency = 1.0;
      bandwidth = infinity;
      per_byte_cpu = 0.0;
      fault_overhead = 0.0;
      local_touch = 0.0;
    }
  in
  let t, clock, _ = mk_transport ~cost () in
  Transport.register t "b" (fun _ _ -> "");
  ignore (Transport.rpc t ~src:"a" ~dst:"b" "x");
  Alcotest.check feq "two latencies" 2.0 (Clock.now clock)

let test_transport_nested_dispatch () =
  (* b's handler calls back into a: the synchronous single-thread model *)
  let t, _, stats = mk_transport () in
  Transport.register t "a" (fun _ req -> "a-saw-" ^ req);
  Transport.register t "b" (fun src req ->
      let nested = Transport.rpc t ~src:"b" ~dst:src req in
      "b:" ^ nested);
  let reply = Transport.rpc t ~src:"a" ~dst:"b" "cb" in
  Alcotest.(check string) "callback" "b:a-saw-cb" reply;
  Alcotest.(check int) "four frames" 4 (Stats.snapshot stats).Stats.messages

let test_transport_reregister_replaces () =
  let t, _, _ = mk_transport () in
  Transport.register t "b" (fun _ _ -> "old");
  Transport.register t "b" (fun _ _ -> "new");
  Alcotest.(check string) "replaced" "new" (Transport.rpc t ~src:"a" ~dst:"b" "")

let test_transport_unregister () =
  let t, _, _ = mk_transport () in
  Transport.register t "b" (fun _ _ -> "x");
  Alcotest.(check bool) "registered" true (Transport.is_registered t "b");
  Transport.unregister t "b";
  Alcotest.(check bool) "gone" false (Transport.is_registered t "b")

let test_transport_multicast_skips_src () =
  let t, _, _ = mk_transport () in
  let hits = ref [] in
  let handler name _ req =
    hits := name :: !hits;
    req
  in
  Transport.register t "a" (handler "a");
  Transport.register t "b" (handler "b");
  Transport.register t "c" (handler "c");
  let failed = Transport.multicast t ~src:"a" ~dsts:[ "a"; "b"; "c" ] "inv" in
  Alcotest.(check int) "no failures" 0 (List.length failed);
  Alcotest.(check (list string)) "b and c only" [ "b"; "c" ] (List.sort compare !hits)

let test_transport_charge_fault () =
  let cost = { Cost_model.zero with Cost_model.fault_overhead = 0.125 } in
  let t, clock, stats = mk_transport ~cost () in
  Transport.charge_fault t;
  Transport.charge_fault t;
  Alcotest.check feq "time" 0.25 (Clock.now clock);
  Alcotest.(check int) "count" 2 (Stats.snapshot stats).Stats.faults

let test_transport_charge_touches () =
  let cost = { Cost_model.zero with Cost_model.local_touch = 0.5 } in
  let t, clock, _ = mk_transport ~cost () in
  Transport.charge_local_touches t 4;
  Alcotest.check feq "time" 2.0 (Clock.now clock)

let test_transport_charge_cpu_bytes () =
  let cost = { Cost_model.zero with Cost_model.per_byte_cpu = 0.001 } in
  let t, clock, _ = mk_transport ~cost () in
  Transport.charge_cpu_bytes t 500;
  Alcotest.check feq "time" 0.5 (Clock.now clock)

let test_link_cost_override () =
  let cost =
    {
      Cost_model.message_latency = 1.0;
      bandwidth = infinity;
      per_byte_cpu = 0.0;
      fault_overhead = 0.0;
      local_touch = 0.0;
    }
  in
  let t, clock, _ = mk_transport ~cost () in
  Transport.register t "b" (fun _ _ -> "");
  (* make only the a->b direction 10x slower *)
  Transport.set_link_cost t ~src:"a" ~dst:"b"
    { cost with Cost_model.message_latency = 10.0 };
  ignore (Transport.rpc t ~src:"a" ~dst:"b" "x");
  (* request 10.0 + reply 1.0 *)
  Alcotest.check feq "asymmetric" 11.0 (Clock.now clock);
  Transport.clear_link_cost t ~src:"a" ~dst:"b";
  Clock.reset clock;
  ignore (Transport.rpc t ~src:"a" ~dst:"b" "x");
  Alcotest.check feq "cleared" 2.0 (Clock.now clock)

let test_trace_records_frames () =
  let t, _, _ = mk_transport () in
  let trace = Trace.create () in
  Transport.set_trace t (Some trace);
  Transport.register t "b" (fun _ _ -> "reply!");
  Transport.register t "c" (fun _ _ -> "");
  ignore (Transport.rpc t ~src:"a" ~dst:"b" "req");
  ignore (Transport.rpc t ~src:"a" ~dst:"c" "req2");
  Alcotest.(check int) "four frames" 4 (Trace.length trace);
  let requests ~src ~dst =
    List.length
      (List.filter
         (fun e ->
           e.Trace.kind = Trace.Message Trace.Request
           && String.equal e.Trace.src src && String.equal e.Trace.dst dst)
         (Trace.events trace))
  in
  Alcotest.(check int) "a->b requests" 1 (requests ~src:"a" ~dst:"b");
  Alcotest.(check int) "b->a replies are not requests" 0
    (requests ~src:"b" ~dst:"a");
  (match Trace.events trace with
  | { Trace.src = "a"; dst = "b"; kind = Trace.Message Trace.Request; bytes = 3; _ }
    :: { Trace.src = "b"; dst = "a"; kind = Trace.Message Trace.Reply; bytes = 6; _ }
    :: _ ->
    ()
  | _ -> Alcotest.fail "unexpected event sequence");
  Transport.set_trace t None;
  ignore (Transport.rpc t ~src:"a" ~dst:"b" "req");
  Alcotest.(check int) "detached" 4 (Trace.length trace);
  Trace.clear trace;
  Alcotest.(check int) "cleared" 0 (Trace.length trace)

let test_trace_pp () =
  let trace = Trace.create () in
  Trace.record trace ~at:0.5 ~src:"a" ~dst:"b" ~dir:Trace.Request ~bytes:10;
  let s = Format.asprintf "%a" Trace.pp trace in
  Alcotest.(check bool) "rendered" true (String.length s > 10)

(* One event of every kind, each field distinct from its neighbours'. *)
let every_kind =
  let ev ?(dst = "b") ?(bytes = 0) ?(label = "") i kind =
    { Trace.at = 0.125 *. float_of_int i; src = "a"; dst; kind; bytes; label }
  in
  let frames =
    List.concat_map
      (fun dir ->
        [ Trace.Message dir; Trace.Dropped dir; Trace.Dup dir ])
      [ Trace.Request; Trace.Reply ]
    |> List.mapi (fun i kind -> ev ~bytes:(100 + i) ~label:"call" i kind)
  in
  let marks =
    [
      Trace.Session_begin 7; Trace.Session_end 7; Trace.Session_admit 8;
      Trace.Session_queued 9; Trace.Session_shed 10; Trace.Write_back 11;
      Trace.Invalidate 12; Trace.Session_abort 13; Trace.Crash "c";
      Trace.Revive "c";
    ]
    |> List.mapi (fun i kind -> ev ~dst:"a" (10 + i) kind)
  in
  let notes =
    [ ev 20 (Trace.Copy 14); ev ~dst:"c" 21 (Trace.Inval_sent 15) ]
  in
  let accesses =
    [
      Trace.Acc_read; Trace.Acc_write; Trace.Acc_serve; Trace.Acc_apply;
      Trace.Acc_install; Trace.Acc_free; Trace.Acc_alloc; Trace.Acc_drop;
    ]
    |> List.mapi (fun i akind ->
           ev ~dst:"a" (30 + i)
             (Trace.Access
                { session = 16 + i; home = "b"; addr = 4096 * (i + 1); akind }))
  in
  let purge =
    ev ~dst:"a" 40
      (Trace.Access
         { session = 24; home = ""; addr = Trace.every_datum; akind = Trace.Acc_drop })
  in
  frames @ marks @ notes @ accesses @ [ purge ]

let test_trace_rows_round_trip () =
  let trace = Trace.of_events every_kind in
  Alcotest.(check int) "length" (List.length every_kind) (Trace.length trace);
  Alcotest.(check bool) "events rebuilt" true (Trace.events trace = every_kind);
  List.iteri
    (fun i (e : Trace.event) ->
      Alcotest.(check string) "src" e.Trace.src
        (Trace.endpoint trace (Trace.src trace i));
      Alcotest.(check string) "dst" e.Trace.dst
        (Trace.endpoint trace (Trace.dst trace i));
      Alcotest.(check string) "label" e.Trace.label
        (Trace.label_name trace (Trace.label trace i));
      match (e.Trace.kind, Trace.tag trace i) with
      | Trace.Access { session; home; addr; akind }, Trace.Tag.Access a ->
        Alcotest.(check bool) "access kind" true (a = akind);
        Alcotest.(check int) "session" session (Trace.session trace i);
        Alcotest.(check string) "home" home
          (Trace.endpoint trace (Trace.home trace i));
        Alcotest.(check int) "addr" addr (Trace.addr trace i)
      | (Trace.Crash ep | Trace.Revive ep), (Trace.Tag.Crash | Trace.Tag.Revive)
        ->
        Alcotest.(check string) "endpoint" ep
          (Trace.endpoint trace (Trace.home trace i))
      | _ -> ())
    every_kind;
  Alcotest.(check int) "\"\" is label 0" 0 (Trace.find_label trace "");
  Alcotest.(check int) "an absent label" (-1) (Trace.find_label trace "fetch")

(* Each column's bound holds exactly: a value at it records and reads
   back, one past it raises naming the field and records nothing. *)
let test_trace_column_bounds () =
  let past what f =
    let trace = Trace.create () in
    Alcotest.check_raises what (Invalid_argument what) (fun () -> f trace);
    trace
  in
  let frame ?(src = "a") ?(dst = "b") ?(label = "") ?(bytes = 0) trace =
    Trace.record ~label trace ~at:0.0 ~src ~dst ~dir:Trace.Request ~bytes
  in
  let begin_ trace id = Trace.mark trace ~at:0.0 ~src:"a" (Trace.Session_begin id) in
  (* bytes: 32 bits, unsigned *)
  let trace = Trace.create () in
  frame trace ~bytes:0xFFFF_FFFF;
  Alcotest.(check int) "bytes at the bound" 0xFFFF_FFFF
    (List.hd (Trace.events trace)).Trace.bytes;
  let trace =
    past "Trace: bytes 4294967296 outside [0, 4294967295]" (frame ~bytes:0x1_0000_0000)
  in
  Alcotest.(check int) "nothing recorded" 0 (Trace.length trace);
  ignore (past "Trace: bytes -1 outside [0, 4294967295]" (frame ~bytes:(-1)));
  (* sessions: 32 bits, signed *)
  let trace = Trace.create () in
  begin_ trace 0x7FFF_FFFF;
  begin_ trace (-0x8000_0000);
  Alcotest.(check (list int)) "sessions at the bounds" [ 0x7FFF_FFFF; -0x8000_0000 ]
    [ Trace.session trace 0; Trace.session trace 1 ];
  ignore
    (past "Trace: session 2147483648 outside [-2147483648, 2147483647]"
       (fun t -> begin_ t 0x8000_0000));
  ignore
    (past "Trace: session -2147483649 outside [-2147483648, 2147483647]"
       (fun t -> begin_ t (-0x8000_0001)));
  (* labels: 8 bits, "" included *)
  let trace = Trace.create () in
  for i = 1 to 255 do
    frame trace ~label:(string_of_int i)
  done;
  Alcotest.(check int) "256 labels" 256 (Trace.label_count trace);
  Alcotest.check_raises "label 257" (Invalid_argument "Trace: more than 256 labels")
    (fun () -> frame trace ~label:"256");
  Alcotest.(check int) "label 257 recorded nothing" 255 (Trace.length trace);
  frame trace ~label:"255";
  (* endpoints: 16 bits *)
  let trace = Trace.create () in
  for i = 0 to 0xFFFF do
    Trace.mark trace ~at:0.0 ~src:(string_of_int i) (Trace.Session_end 1)
  done;
  Alcotest.(check int) "65536 endpoints" 0x1_0000 (Trace.endpoint_count trace);
  Alcotest.(check string) "the last ordinal names its endpoint" "65535"
    (Trace.endpoint trace (Trace.src trace 0xFFFF));
  Alcotest.check_raises "endpoint 65537"
    (Invalid_argument "Trace: more than 65536 endpoints")
    (fun () -> frame trace ~src:"0" ~dst:"65536");
  Alcotest.(check int) "endpoint 65537 recorded nothing" 0x1_0000
    (Trace.length trace)

(* Recording through the transport allocates nothing per event but the
   time stamp [Clock.now] boxes (2 words) and a share of the chunk
   array's growth; the chunks themselves are allocated outside the minor
   heap. A list of records cost 14 words per frame and 17 per access
   mark. *)
let test_trace_recording_allocation () =
  let run traced =
    let t, clock, _ = mk_transport ~cost:Cost_model.sparc_10mbps () in
    Transport.register t "b" (fun _ _ -> "reply");
    if traced then Transport.set_trace t (Some (Trace.create ()));
    Transport.access t ~src:"a" ~session:1 ~home:"b" ~addr:64 Trace.Acc_read;
    let before = Gc.minor_words () in
    for i = 1 to 2_500 do
      Transport.access t ~src:"a" ~session:1 ~home:"b" ~addr:(64 * i) Trace.Acc_read;
      Transport.access t ~src:"b" ~session:1 ~home:"b" ~addr:(64 * i) Trace.Acc_write;
      ignore (Transport.rpc t ~src:"a" ~dst:"b" "request")
    done;
    let words = Gc.minor_words () -. before in
    ignore (Sys.opaque_identity clock);
    words
  in
  let per_event = (run true -. run false) /. 10_000.0 in
  if per_event > 2.1 then
    Alcotest.failf "recording allocates %.2f words per event" per_event

(* A cleared trace keeps its chunks but forgets its names: what is
   recorded next prints, reads and lints as in a fresh trace. *)
let test_trace_clear_reuses_chunks () =
  let batch ~sites n =
    List.init n (fun i ->
        let src = Printf.sprintf "s%d" (i mod sites) in
        if i mod 3 = 0 then
          { Trace.at = float_of_int i; src; dst = "hub"; kind = Trace.Message Trace.Request;
            bytes = i; label = (if i mod 2 = 0 then "call" else "") }
        else
          { Trace.at = float_of_int i; src; dst = src;
            kind =
              Trace.Access
                { session = i; home = "hub"; addr = 8 * i;
                  akind = (if i mod 2 = 0 then Trace.Acc_read else Trace.Acc_write) };
            bytes = 0; label = "" })
  in
  let first = batch ~sites:7 3_000 and second = batch ~sites:3 2_500 in
  let reused = Trace.of_events first in
  Trace.clear reused;
  Alcotest.(check int) "cleared" 0 (Trace.length reused);
  List.iter
    (fun e ->
      Trace.record_kind reused ~at:e.Trace.at ~src:e.Trace.src ~dst:e.Trace.dst
        ~kind:e.Trace.kind ~label:e.Trace.label ~bytes:e.Trace.bytes)
    second;
  let fresh = Trace.of_events second in
  let print t = Format.asprintf "%a" Trace.pp t in
  Alcotest.(check string) "printed alike" (print fresh) (print reused);
  Alcotest.(check int) "endpoints of the second batch only" 4
    (Trace.endpoint_count reused);
  Alcotest.(check bool) "events alike" true (Trace.events reused = second)

let test_transport_endpoints_list () =
  let t, _, _ = mk_transport () in
  Transport.register t "x" (fun _ r -> r);
  Transport.register t "y" (fun _ r -> r);
  Alcotest.(check (list string))
    "endpoints" [ "x"; "y" ]
    (List.sort compare (Transport.endpoints t))

(* --- Fault plan + faulty transport --- *)

let mk_faulty ?seed ?timeout () =
  let t, clock, stats = mk_transport () in
  let plan = Fault_plan.create ?seed ?timeout () in
  Transport.set_fault_plan t (Some plan);
  (t, plan, clock, stats)

let test_fault_plan_deterministic () =
  let fates plan =
    List.init 64 (fun _ -> Fault_plan.frame_fate plan ~src:"a" ~dst:"b")
  in
  let mk () =
    let p = Fault_plan.create ~seed:7 () in
    Fault_plan.set_global p (Fault_plan.profile ~drop:0.3 ~duplicate:0.3 ());
    p
  in
  Alcotest.(check bool) "same seed, same schedule" true (fates (mk ()) = fates (mk ()));
  let other = Fault_plan.create ~seed:8 () in
  Fault_plan.set_global other (Fault_plan.profile ~drop:0.3 ~duplicate:0.3 ());
  Alcotest.(check bool) "different seed, different schedule" false
    (fates (mk ()) = fates other)

let test_fault_plan_validates () =
  Alcotest.check_raises "drop > 1" (Invalid_argument "Fault_plan.profile: probabilities must be in [0, 1]")
    (fun () -> ignore (Fault_plan.profile ~drop:1.5 ()))

let test_fault_drop_raises_timeout () =
  let t, plan, clock, stats = mk_faulty ~timeout:0.5 () in
  let trace = Trace.create () in
  Transport.set_trace t (Some trace);
  Transport.register t "b" (fun _ _ -> "ok");
  Fault_plan.drop_next plan 1;
  (match Transport.rpc t ~src:"a" ~dst:"b" "req" with
  | _ -> Alcotest.fail "expected Timeout"
  | exception Transport.Timeout ep ->
    Alcotest.(check string) "timed-out peer" "b" ep);
  Alcotest.(check int) "timeouts counted" 1 (Stats.snapshot stats).Stats.timeouts;
  Alcotest.check feq "sender waited out the timeout" 0.5 (Clock.now clock);
  (match Trace.events trace with
  | [ { Trace.kind = Trace.Dropped Trace.Request; src = "a"; dst = "b"; _ } ] -> ()
  | _ -> Alcotest.fail "expected a single dropped-request event");
  (* the next frame is delivered: the forced drop was consumed *)
  Alcotest.(check string) "recovers" "ok" (Transport.rpc t ~src:"a" ~dst:"b" "req")

let test_fault_duplicate_dispatches_twice () =
  let t, plan, _, stats = mk_faulty () in
  let trace = Trace.create () in
  Transport.set_trace t (Some trace);
  Fault_plan.set_global plan (Fault_plan.profile ~duplicate:1.0 ());
  let hits = ref 0 in
  Transport.register t "b" (fun _ _ -> incr hits; "ok");
  Alcotest.(check string) "first copy's reply wins" "ok"
    (Transport.rpc t ~src:"a" ~dst:"b" "req");
  Alcotest.(check int) "handler ran twice" 2 !hits;
  let dups =
    List.length
      (List.filter
         (fun e -> match e.Trace.kind with Trace.Dup _ -> true | _ -> false)
         (Trace.events trace))
  in
  Alcotest.(check bool) "duplicate frames traced" true (dups >= 1);
  ignore stats

let test_fault_partition_is_directional () =
  let t, plan, _, _ = mk_faulty ~timeout:0.1 () in
  let a_hits = ref 0 in
  Transport.register t "a" (fun _ _ -> incr a_hits; "from-a");
  Transport.register t "b" (fun _ _ -> "from-b");
  Fault_plan.partition plan ~src:"a" ~dst:"b";
  Alcotest.(check bool) "partitioned" true
    (Fault_plan.is_partitioned plan ~src:"a" ~dst:"b");
  Alcotest.(check bool) "reverse direction open" false
    (Fault_plan.is_partitioned plan ~src:"b" ~dst:"a");
  (match Transport.rpc t ~src:"a" ~dst:"b" "x" with
  | _ -> Alcotest.fail "expected Timeout through the partition"
  | exception Transport.Timeout _ -> ());
  (* the reverse RPC delivers its request (b->a is open) but loses the
     reply frame, which must cross the partitioned a->b direction *)
  (match Transport.rpc t ~src:"b" ~dst:"a" "x" with
  | _ -> Alcotest.fail "expected the reply to be lost"
  | exception Transport.Timeout _ -> ());
  Alcotest.(check int) "request got through one-way" 1 !a_hits;
  Fault_plan.heal plan ~src:"a" ~dst:"b";
  Alcotest.(check string) "healed" "from-b" (Transport.rpc t ~src:"a" ~dst:"b" "x")

let test_fault_crash_and_revive () =
  let t, _, _, _ = mk_faulty () in
  let trace = Trace.create () in
  Transport.set_trace t (Some trace);
  let hits = ref 0 in
  Transport.register t "b" (fun _ _ -> incr hits; "ok");
  Transport.crash t "b";
  (match Transport.rpc t ~src:"a" ~dst:"b" "req" with
  | _ -> Alcotest.fail "expected Peer_crashed"
  | exception Transport.Peer_crashed ep ->
    Alcotest.(check string) "crashed peer" "b" ep);
  Alcotest.(check int) "handler never ran" 0 !hits;
  (* no frame may be recorded to a crashed endpoint (SP006) *)
  let frames =
    List.filter
      (fun e ->
        match e.Trace.kind with
        | Trace.Message _ | Trace.Dropped _ | Trace.Dup _ -> true
        | _ -> false)
      (Trace.events trace)
  in
  Alcotest.(check int) "no frames while crashed" 0 (List.length frames);
  (match Trace.events trace with
  | { Trace.kind = Trace.Crash "b"; _ } :: _ -> ()
  | _ -> Alcotest.fail "expected a crash mark first");
  Transport.revive t "b";
  Alcotest.(check string) "revived" "ok" (Transport.rpc t ~src:"a" ~dst:"b" "req");
  let has_revive =
    List.exists
      (fun e -> e.Trace.kind = Trace.Revive "b")
      (Trace.events trace)
  in
  Alcotest.(check bool) "revive mark traced" true has_revive

let test_fault_latency_adds_up () =
  let t, plan, clock, _ = mk_faulty () in
  Transport.register t "b" (fun _ _ -> "ok");
  Fault_plan.set_link plan ~src:"a" ~dst:"b" (Fault_plan.profile ~latency:2.0 ());
  ignore (Transport.rpc t ~src:"a" ~dst:"b" "req");
  (* only the request direction carries the extra latency *)
  Alcotest.check feq "added latency" 2.0 (Clock.now clock)

let test_fault_multicast_reports_failures () =
  let t, _, _, _ = mk_faulty () in
  Transport.register t "b" (fun _ _ -> "ok");
  Transport.register t "c" (fun _ _ -> "ok");
  Transport.crash t "c";
  let failed = Transport.multicast t ~src:"a" ~dsts:[ "b"; "c"; "nowhere" ] "inv" in
  let eps = List.map fst failed in
  Alcotest.(check (list string)) "dead and unknown reported" [ "c"; "nowhere" ]
    (List.sort compare eps);
  Alcotest.(check bool) "live peer not reported" true
    (not (List.mem "b" eps))

let test_fault_no_plan_is_invalid_crash () =
  let t, _, _ = mk_transport () in
  Transport.register t "b" (fun _ _ -> "ok");
  (match Transport.crash t "b" with
  | () -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ())

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "simnet"
    [
      ( "clock",
        [
          tc "starts at zero" `Quick test_clock_starts_at_zero;
          tc "advance accumulates" `Quick test_clock_advance;
          tc "reset" `Quick test_clock_reset;
          tc "measure" `Quick test_clock_measure;
        ] );
      ( "stats",
        [
          tc "counters" `Quick test_stats_counts;
          tc "diff" `Quick test_stats_diff;
          tc "prefetch counters" `Quick test_stats_prefetch_counters;
          tc "zero" `Quick test_stats_zero;
          tc "copies are independent" `Quick test_stats_copies;
        ] );
      ( "cost-model",
        [
          tc "zero model is free" `Quick test_frame_cost_zero_model;
          tc "components add up" `Quick test_frame_cost_components;
          tc "monotone in bytes" `Quick test_frame_cost_monotone_in_bytes;
        ] );
      ( "transport",
        [
          tc "echo" `Quick test_transport_echo;
          tc "unknown endpoint" `Quick test_transport_unknown_endpoint;
          tc "counts messages and bytes" `Quick test_transport_counts_messages_and_bytes;
          tc "advances clock" `Quick test_transport_advances_clock;
          tc "nested dispatch (callback)" `Quick test_transport_nested_dispatch;
          tc "re-register replaces" `Quick test_transport_reregister_replaces;
          tc "unregister" `Quick test_transport_unregister;
          tc "multicast skips source" `Quick test_transport_multicast_skips_src;
          tc "fault plan: deterministic" `Quick test_fault_plan_deterministic;
          tc "fault plan: validates probabilities" `Quick test_fault_plan_validates;
          tc "fault: drop raises Timeout" `Quick test_fault_drop_raises_timeout;
          tc "fault: duplicate dispatches twice" `Quick test_fault_duplicate_dispatches_twice;
          tc "fault: partition is directional" `Quick test_fault_partition_is_directional;
          tc "fault: crash and revive" `Quick test_fault_crash_and_revive;
          tc "fault: added latency" `Quick test_fault_latency_adds_up;
          tc "fault: multicast reports failures" `Quick test_fault_multicast_reports_failures;
          tc "fault: crash without plan rejected" `Quick test_fault_no_plan_is_invalid_crash;
          tc "charge fault" `Quick test_transport_charge_fault;
          tc "charge touches" `Quick test_transport_charge_touches;
          tc "charge cpu bytes" `Quick test_transport_charge_cpu_bytes;
          tc "endpoints" `Quick test_transport_endpoints_list;
          tc "per-link cost override" `Quick test_link_cost_override;
        ] );
      ( "trace",
        [
          tc "records frames" `Quick test_trace_records_frames;
          tc "pretty printing" `Quick test_trace_pp;
          tc "rows round-trip every kind" `Quick test_trace_rows_round_trip;
          tc "column bounds" `Quick test_trace_column_bounds;
          tc "recording allocates only the time stamp" `Quick
            test_trace_recording_allocation;
          tc "clear keeps chunks, forgets names" `Quick test_trace_clear_reuses_chunks;
        ] );
    ]
