(* Unit tests for the offline analysis layer: one seeded-defect fixture
   per descriptor-lint rule, one per protocol invariant, plus clean
   negative cases for both engines and the startup-validation hook. *)

open Srpc_memory
open Srpc_types
open Srpc_analysis
open Type_desc

let rule_ids diags = List.map (fun d -> d.Diagnostic.rule_id) diags
let errors_of diags = List.filter Diagnostic.is_error diags

let has_rule id diags = List.mem id (rule_ids diags)

let check_has ?arches reg id =
  Alcotest.(check bool)
    (id ^ " reported") true
    (has_rule id (Desc_lint.check ?arches reg))

(* --- descriptor linter: seeded defects --- *)

let test_dangling_named () =
  let reg = Registry.create () in
  Registry.register reg "a" (Struct [ ("x", Named "missing") ]);
  check_has reg "TD001";
  Alcotest.(check int) "one error" 1
    (Diagnostic.count_errors (Desc_lint.check reg))

let test_by_value_cycle () =
  let reg = Registry.create () in
  Registry.register reg "c1" (Struct [ ("next", Named "c2") ]);
  Registry.register reg "c2" (Struct [ ("prev", Named "c1") ]);
  check_has reg "TD002";
  (* the cycle is one defect, reported once, not once per member *)
  Alcotest.(check int) "cycle reported once" 1
    (List.length
       (List.filter (fun d -> d.Diagnostic.rule_id = "TD002") (Desc_lint.check reg)))

let test_self_cycle () =
  let reg = Registry.create () in
  Registry.register reg "selfish" (Struct [ ("me", Named "selfish") ]);
  check_has reg "TD002"

let test_array_lengths () =
  let reg = Registry.create () in
  Registry.register reg "neg" (Struct [ ("xs", Array (i64, -1)) ]);
  Registry.register reg "zero" (Struct [ ("xs", Array (i64, 0)) ]);
  let diags = Desc_lint.check reg in
  let td3 = List.filter (fun d -> d.Diagnostic.rule_id = "TD003") diags in
  Alcotest.(check int) "both lengths flagged" 2 (List.length td3);
  Alcotest.(check int) "negative is the only error" 1
    (List.length (errors_of td3));
  let err = List.hd (errors_of td3) in
  Alcotest.(check string) "error path" "neg.xs" err.Diagnostic.path

let test_duplicate_fields () =
  let reg = Registry.create () in
  Registry.register reg "dup" (Struct [ ("x", i64); ("x", f64) ]);
  check_has reg "TD004"

let test_layout_divergence () =
  let reg = Registry.create () in
  Registry.register reg "cell"
    (Struct [ ("next", ptr "cell"); ("prev", ptr "cell"); ("v", i64) ]);
  (* pointer width differs between the 32- and 64-bit architectures *)
  check_has ~arches:[ Arch.sparc32; Arch.lp64_le ] reg "TD005";
  let diags = Desc_lint.check ~arches:[ Arch.sparc32; Arch.lp64_le ] reg in
  Alcotest.(check bool) "divergence is a warning, not an error" true
    (errors_of diags = []);
  (* under a single architecture there is nothing to disagree with *)
  Alcotest.(check bool) "single arch clean" false
    (has_rule "TD005" (Desc_lint.check ~arches:[ Arch.sparc32 ] reg));
  (* same word size everywhere: no divergence either *)
  Alcotest.(check bool) "same word size clean" false
    (has_rule "TD005" (Desc_lint.check ~arches:[ Arch.lp64_le; Arch.lp64_be ] reg))

let test_unregistered_pointee () =
  let reg = Registry.create () in
  Registry.register reg "holder" (Struct [ ("p", ptr "ghost") ]);
  check_has reg "TD006"

let test_hint_lint () =
  let reg = Registry.create () in
  Registry.register reg "cell" (Struct [ ("next", ptr "cell"); ("v", i64) ]);
  (* a hint naming an absent field would raise mid-session: error *)
  let diags = Desc_lint.check ~hints:[ ("cell", [ "nxet" ]) ] reg in
  Alcotest.(check bool) "TD007 reported" true (has_rule "TD007" diags);
  Alcotest.(check int) "absent field is an error" 1 (Diagnostic.count_errors diags);
  (* following a pointer-free field prefetches nothing: warning only *)
  let diags = Desc_lint.check ~hints:[ ("cell", [ "v" ]) ] reg in
  Alcotest.(check bool) "TD007 warns" true (has_rule "TD007" diags);
  Alcotest.(check int) "pointer-free field is not an error" 0
    (Diagnostic.count_errors diags);
  (* hint for a type the registry has never seen: error *)
  let diags = Desc_lint.check ~hints:[ ("ghost", [ "next" ]) ] reg in
  Alcotest.(check int) "unknown hinted type is an error" 1
    (Diagnostic.count_errors diags);
  (* a correct hint is clean *)
  Alcotest.(check (list string)) "clean hint" []
    (rule_ids (Desc_lint.check ~hints:[ ("cell", [ "next" ]) ] reg))

let test_cluster_hint_validation () =
  let open Srpc_core in
  let cluster = Cluster.create () in
  Cluster.register_type cluster "cell" (Struct [ ("next", ptr "cell"); ("v", i64) ]);
  Cluster.set_closure_hint cluster ~ty:"cell"
    { Hints.follow = [ "nxet" ]; prune_others = false };
  (match Cluster.validate cluster with
  | () -> Alcotest.fail "misspelled hint field not caught"
  | exception Desc_lint.Invalid_registry ds ->
    Alcotest.(check bool) "TD007 in findings" true (has_rule "TD007" ds));
  (* the runtime raises descriptively too, instead of a bare Not_found *)
  let node = Cluster.add_node cluster ~site:1 () in
  match
    Hints.pointer_fields (Cluster.hints cluster) (Cluster.registry cluster)
      (Node.arch node) ~ty:"cell"
  with
  | _ -> Alcotest.fail "expected Unknown_field"
  | exception Hints.Unknown_field { ty; field } ->
    Alcotest.(check string) "offending type" "cell" ty;
    Alcotest.(check string) "offending field" "nxet" field

let test_clean_registry () =
  let reg = Registry.create () in
  Registry.register reg "tnode"
    (Struct [ ("left", ptr "tnode"); ("right", ptr "tnode"); ("data", i64) ]);
  Registry.register reg "flat"
    (Struct [ ("tag", i8); ("xs", Array (f64, 16)) ]);
  Alcotest.(check (list string)) "no findings" [] (rule_ids (Desc_lint.check reg));
  (* a pointer-free type agrees even across every architecture *)
  let reg2 = Registry.create () in
  Registry.register reg2 "flat"
    (Struct [ ("tag", i8); ("xs", Array (f64, 16)) ]);
  Alcotest.(check (list string)) "arch-stable" []
    (rule_ids (Desc_lint.check ~arches:Desc_lint.all_arches reg2))

let test_validate_raises () =
  let reg = Registry.create () in
  Registry.register reg "bad" (Struct [ ("p", ptr "ghost") ]);
  Alcotest.check_raises "validate raises"
    (Desc_lint.Invalid_registry
       [
         Diagnostic.make ~severity:Error ~rule_id:"TD006" ~path:"bad.p"
           "pointee type \"ghost\" is never registered";
       ])
    (fun () -> Desc_lint.validate reg)

let test_node_startup_validation () =
  let open Srpc_core in
  let cluster = Cluster.create () in
  Cluster.register_type cluster "bad" (Struct [ ("p", ptr "ghost") ]);
  (match Cluster.add_node cluster ~site:1 ~validate:true () with
  | _ -> Alcotest.fail "bad registry accepted at startup"
  | exception Desc_lint.Invalid_registry _ -> ());
  (* the same cluster comes up fine once the pointee exists *)
  Cluster.register_type cluster "ghost" (Struct [ ("v", i64) ]);
  ignore (Cluster.add_node cluster ~site:2 ~validate:true ())

(* --- protocol verifier: synthetic traces --- *)

open Srpc_simnet

let ev ?(at = 0.0) ?(bytes = 0) ?(label = "") src dst kind =
  { Trace.at; src; dst; kind; bytes; label }
let req src dst = ev ~bytes:4 src dst (Trace.Message Trace.Request)
let rep src dst = ev ~bytes:4 src dst (Trace.Message Trace.Reply)
let mark src kind = ev src src kind

(* Every synthetic trace the linter tests check, newest first: the
   pinned-report test replays the tests to collect them. *)
let linted = ref []

let proto_ids events =
  linted := events :: !linted;
  rule_ids (Proto_lint.check_events events)

let close_phase ground peer id =
  (* a well-formed session close: write-back, then invalidation *)
  [
    mark ground (Trace.Write_back id);
    req ground peer; rep peer ground;
    mark ground (Trace.Invalidate id);
    req ground peer; rep peer ground;
    mark ground (Trace.Session_end id);
  ]

let test_clean_trace () =
  let events =
    [ mark "a" (Trace.Session_begin 1); req "a" "b"; rep "b" "a" ]
    @ close_phase "a" "b" 1
  in
  Alcotest.(check (list string)) "no findings" [] (proto_ids events)

let test_nested_calls_ok () =
  (* a -> b -> c -> a (callback), replies unwinding in LIFO order *)
  let events =
    [
      mark "a" (Trace.Session_begin 1);
      req "a" "b"; req "b" "c"; req "c" "a";
      rep "a" "c"; rep "c" "b"; rep "b" "a";
    ]
    @ close_phase "a" "b" 1
  in
  Alcotest.(check (list string)) "nesting is legal" [] (proto_ids events)

let test_overlapping_requests () =
  (* a issues a second request while its first is outstanding: two
     active threads in one session *)
  let events =
    [ mark "a" (Trace.Session_begin 1); req "a" "b"; req "a" "c" ]
  in
  Alcotest.(check bool) "SP001" true (List.mem "SP001" (proto_ids events))

let test_mismatched_reply () =
  let events =
    [ mark "a" (Trace.Session_begin 1); req "a" "b"; rep "c" "a" ]
  in
  Alcotest.(check bool) "SP001" true (List.mem "SP001" (proto_ids events))

let test_unreplied_request () =
  let at_end = [ mark "a" (Trace.Session_begin 1); req "a" "b" ] in
  Alcotest.(check bool) "SP002 at end of trace" true
    (List.mem "SP002" (proto_ids at_end));
  let at_close =
    [
      mark "a" (Trace.Session_begin 1); req "a" "b";
      mark "a" (Trace.Session_end 1);
    ]
  in
  Alcotest.(check bool) "SP002 at session end" true
    (List.mem "SP002" (proto_ids at_close))

let test_traffic_outside_session () =
  Alcotest.(check bool) "SP003 before any session" true
    (List.mem "SP003" (proto_ids [ req "a" "b"; rep "b" "a" ]));
  let after_close =
    [ mark "a" (Trace.Session_begin 1) ]
    @ close_phase "a" "b" 1
    @ [ req "a" "b" ]
  in
  Alcotest.(check bool) "SP003 after close" true
    (List.mem "SP003" (proto_ids after_close));
  (* a lost or duplicated frame after an admitted session's close is
     traffic outside a session too *)
  let after_admitted stray =
    [ mark "a" (Trace.Session_admit 1); mark "a" (Trace.Session_begin 1) ]
    @ close_phase "a" "b" 1
    @ [ ev ~bytes:4 "a" "b" stray ]
  in
  Alcotest.(check bool) "SP003 dropped after admitted close" true
    (List.mem "SP003" (proto_ids (after_admitted (Trace.Dropped Trace.Request))));
  Alcotest.(check bool) "SP003 duplicated after admitted close" true
    (List.mem "SP003" (proto_ids (after_admitted (Trace.Dup Trace.Request))))

let test_invalidate_before_writeback () =
  let events =
    [
      mark "a" (Trace.Session_begin 1);
      req "a" "b"; rep "b" "a";
      mark "a" (Trace.Invalidate 1);
      req "a" "b"; rep "b" "a";
      mark "a" (Trace.Write_back 1);
      mark "a" (Trace.Session_end 1);
    ]
  in
  Alcotest.(check bool) "SP004" true (List.mem "SP004" (proto_ids events))

let abort_phase ground peer id =
  (* a well-formed session abort: invalidation, no write-back *)
  [
    mark ground (Trace.Session_abort id);
    mark ground (Trace.Invalidate id);
    req ground peer; rep peer ground;
    mark ground (Trace.Session_end id);
  ]

let test_clean_abort_trace () =
  let events =
    [ mark "a" (Trace.Session_begin 1); req "a" "b"; rep "b" "a" ]
    @ abort_phase "a" "b" 1
  in
  Alcotest.(check (list string)) "abort verifies" [] (proto_ids events)

let test_abort_with_writeback () =
  (* a write-back before the abort mark: the modified set escaped *)
  let events =
    [
      mark "a" (Trace.Session_begin 1);
      req "a" "b"; rep "b" "a";
      mark "a" (Trace.Write_back 1);
    ]
    @ abort_phase "a" "b" 1
  in
  Alcotest.(check bool) "SP005" true (List.mem "SP005" (proto_ids events))

let test_abort_without_invalidation () =
  let events =
    [
      mark "a" (Trace.Session_begin 1);
      req "a" "b"; rep "b" "a";
      mark "a" (Trace.Session_abort 1);
      mark "a" (Trace.Session_end 1);
    ]
  in
  Alcotest.(check bool) "SP005" true (List.mem "SP005" (proto_ids events))

let test_frame_after_crash () =
  let events =
    [
      mark "a" (Trace.Session_begin 1);
      mark "b" (Trace.Crash "b");
      req "a" "b"; rep "b" "a";
    ]
    @ close_phase "a" "c" 1
  in
  Alcotest.(check bool) "SP006" true (List.mem "SP006" (proto_ids events))

let test_crash_revive_clean () =
  let events =
    [
      mark "a" (Trace.Session_begin 1);
      mark "b" (Trace.Crash "b");
      req "a" "c"; rep "c" "a";
      mark "b" (Trace.Revive "b");
      req "a" "b"; rep "b" "a";
    ]
    @ close_phase "a" "b" 1
  in
  Alcotest.(check (list string)) "revived traffic legal" [] (proto_ids events)

(* --- SP009: typed shedding and the circuit breaker --- *)

let test_shed_while_open () =
  (* the controller refused a session it had already admitted *)
  let events =
    [
      mark "a" (Trace.Session_admit 1);
      mark "a" (Trace.Session_begin 1);
      req "a" "b"; rep "b" "a";
      mark "a" (Trace.Session_shed 1);
    ]
    @ close_phase "a" "b" 1
  in
  Alcotest.(check bool) "SP009" true (List.mem "SP009" (proto_ids events))

let test_begin_after_shed () =
  (* a typed shed is terminal for the attempt: beginning anyway without
     a fresh admission is a violation... *)
  let shed_then_begin =
    [
      mark "a" (Trace.Session_shed 1);
      mark "a" (Trace.Session_begin 1);
      req "a" "b"; rep "b" "a";
    ]
    @ close_phase "a" "b" 1
  in
  Alcotest.(check bool) "SP009" true
    (List.mem "SP009" (proto_ids shed_then_begin));
  (* ...but a fresh Session_admit clears the shed for the same id *)
  let readmitted =
    [
      mark "a" (Trace.Session_shed 1);
      mark "a" (Trace.Session_admit 1);
      mark "a" (Trace.Session_begin 1);
      req "a" "b"; rep "b" "a";
    ]
    @ close_phase "a" "b" 1
  in
  Alcotest.(check (list string)) "fresh admission clears the shed" []
    (proto_ids readmitted)

let test_breaker_bypassed () =
  (* the session begins while b is crashed and then sends it a frame:
     the circuit breaker should have held the session until revival *)
  let events =
    [
      mark "b" (Trace.Crash "b");
      mark "a" (Trace.Session_admit 1);
      mark "a" (Trace.Session_begin 1);
      req "a" "b"; rep "b" "a";
    ]
    @ close_phase "a" "c" 1
  in
  Alcotest.(check bool) "SP009" true (List.mem "SP009" (proto_ids events));
  (* revived before the frame: no breaker violation (and a crash that
     happens mid-session is SP006's territory, not SP009's) *)
  let revived =
    [
      mark "b" (Trace.Crash "b");
      mark "a" (Trace.Session_admit 1);
      mark "a" (Trace.Session_begin 1);
      mark "b" (Trace.Revive "b");
      req "a" "b"; rep "b" "a";
    ]
    @ close_phase "a" "b" 1
  in
  Alcotest.(check bool) "no SP009 after revival" false
    (List.mem "SP009" (proto_ids revived));
  (* the breaker is admission's: an unadmitted session sending to the
     dead peer is only the crashed-endpoint violation *)
  let unadmitted =
    [
      mark "b" (Trace.Crash "b");
      mark "a" (Trace.Session_begin 1);
      req "a" "b"; rep "b" "a";
    ]
    @ close_phase "a" "c" 1
  in
  Alcotest.(check bool) "unadmitted: SP006" true
    (List.mem "SP006" (proto_ids unadmitted));
  Alcotest.(check bool) "unadmitted: no SP009" false
    (List.mem "SP009" (proto_ids unadmitted))

let test_dropped_and_dup_frames_tolerated () =
  (* a dropped request is thread-neutral; a dropped reply hands the
     thread back to the requester, who retries; duplicates are noise *)
  let dropped_req = ev ~bytes:4 "a" "b" (Trace.Dropped Trace.Request) in
  let dropped_rep = ev ~bytes:4 "b" "a" (Trace.Dropped Trace.Reply) in
  let dup_req = ev ~bytes:4 "a" "b" (Trace.Dup Trace.Request) in
  let dup_rep = ev ~bytes:4 "b" "a" (Trace.Dup Trace.Reply) in
  let events =
    [
      mark "a" (Trace.Session_begin 1);
      dropped_req;                          (* lost: retried below *)
      req "a" "b"; dup_req; dup_rep; rep "b" "a";
      req "a" "b"; dropped_rep;             (* reply lost: retried *)
      req "a" "b"; rep "b" "a";
    ]
    @ close_phase "a" "b" 1
  in
  Alcotest.(check (list string)) "faulty trace verifies" [] (proto_ids events)

(* --- SP010: offload-calls stay inside the session footprint --- *)

let off_req src dst =
  ev ~bytes:4 ~label:"offload-call" src dst (Trace.Message Trace.Request)

let off_rep src dst =
  ev ~bytes:4 ~label:"offload-return" src dst (Trace.Message Trace.Reply)

let touch ?(session = 1) ground (home, addr) =
  ev ground ground (Trace.Access { session; home; addr; akind = Trace.Acc_read })

let test_offload_without_footprint () =
  (* a plan ships to b before the session touched any datum of b: the
     client is required to mark the root datum before framing the call *)
  let events =
    [ mark "a" (Trace.Session_begin 1); off_req "a" "b"; off_rep "b" "a" ]
    @ close_phase "a" "b" 1
  in
  Alcotest.(check bool) "SP010" true (List.mem "SP010" (proto_ids events));
  (* the same call with the root datum marked first is clean *)
  let marked =
    [
      mark "a" (Trace.Session_begin 1);
      touch "a" ("b", 4096);
      off_req "a" "b"; off_rep "b" "a";
    ]
    @ close_phase "a" "b" 1
  in
  Alcotest.(check (list string)) "footprint legitimises the call" []
    (proto_ids marked)

let test_offload_into_ground () =
  (* the ground's own heap is always in the footprint: a callee may
     ship a plan back to the ground without any Access mark *)
  let events =
    [
      mark "a" (Trace.Session_begin 1);
      req "a" "b";
      off_req "b" "a"; off_rep "a" "b";
      rep "b" "a";
    ]
    @ close_phase "a" "b" 1
  in
  Alcotest.(check (list string)) "ground is always reachable" []
    (proto_ids events)

let test_offload_to_dead_peer () =
  (* b was crashed before the session began and never revived: even a
     marked footprint cannot legitimise shipping a plan there *)
  let events =
    [
      mark "b" (Trace.Crash "b");
      mark "a" (Trace.Session_begin 1);
      touch "a" ("b", 4096);
      off_req "a" "b"; off_rep "b" "a";
    ]
    @ close_phase "a" "c" 1
  in
  Alcotest.(check bool) "SP010" true (List.mem "SP010" (proto_ids events));
  (* revived before the call: liveness is restored, the footprint rules *)
  let revived =
    [
      mark "b" (Trace.Crash "b");
      mark "a" (Trace.Session_begin 1);
      mark "b" (Trace.Revive "b");
      touch "a" ("b", 4096);
      off_req "a" "b"; off_rep "b" "a";
    ]
    @ close_phase "a" "b" 1
  in
  Alcotest.(check bool) "no SP010 after revival" false
    (List.mem "SP010" (proto_ids revived))

let test_offload_footprint_multi () =
  (* the multiplexed machine tracks a footprint per session: another
     session's Access marks do not legitimise this one's offload-call *)
  let mclose ground id =
    [ mark ground (Trace.Write_back id); mark ground (Trace.Invalidate id);
      mark ground (Trace.Session_end id) ]
  in
  let events footprint =
    [
      mark "a" (Trace.Session_admit 1);
      mark "a" (Trace.Session_begin 1);
      mark "c" (Trace.Session_admit 2);
      mark "c" (Trace.Session_begin 2);
      (* session 2 (grounded at c) touches b; session 1 does not *)
      touch ~session:2 "c" ("b", 64);
    ]
    @ (if footprint then [ touch ~session:1 "a" ("b", 4096) ] else [])
    @ [ off_req "a" "b"; off_rep "b" "a" ]
    @ mclose "a" 1 @ mclose "c" 2
  in
  Alcotest.(check bool) "SP010 against session 1's footprint" true
    (List.mem "SP010" (proto_ids (events false)));
  Alcotest.(check bool) "session 1's own mark clears it" false
    (List.mem "SP010" (proto_ids (events true)))

let test_runtime_trace_verifies () =
  let open Srpc_core in
  let cluster = Cluster.create () in
  let a = Cluster.add_node cluster ~site:1 () in
  let b = Cluster.add_node cluster ~site:2 () in
  let c = Cluster.add_node cluster ~site:3 () in
  Srpc_workloads.Linked_list.register_types cluster;
  let trace = Trace.create () in
  Transport.set_trace (Cluster.transport cluster) (Some trace);
  Node.register a "bonus" (fun _ _ -> [ Value.int 5 ]);
  Node.register c "bump" (fun node args ->
      let p = Access.of_value (List.hd args) in
      let bonus =
        match Node.call node ~dst:(Node.id a) "bonus" [] with
        | [ v ] -> Value.to_int v
        | _ -> 0
      in
      let v = Access.get_int node p ~field:"value" in
      Access.set_int node p ~field:"value" (v + bonus);
      [ Value.unit ]);
  Node.register b "relay" (fun node args ->
      Node.call node ~dst:(Node.id c) "bump" args);
  let head = Srpc_workloads.Linked_list.build a [ 1; 2; 3 ] in
  Node.with_session a (fun () ->
      ignore (Node.call a ~dst:(Node.id b) "relay" [ Access.to_value head ]));
  (* the runtime recorded all four mark kinds... *)
  let kinds = List.map (fun e -> e.Trace.kind) (Trace.events trace) in
  let has p = List.exists p kinds in
  Alcotest.(check bool) "session begin mark" true
    (has (function Trace.Session_begin _ -> true | _ -> false));
  Alcotest.(check bool) "write-back mark" true
    (has (function Trace.Write_back _ -> true | _ -> false));
  Alcotest.(check bool) "invalidate mark" true
    (has (function Trace.Invalidate _ -> true | _ -> false));
  Alcotest.(check bool) "session end mark" true
    (has (function Trace.Session_end _ -> true | _ -> false));
  (* ...and the whole trace satisfies every invariant, including the
     happens-before race rules *)
  Alcotest.(check (list string)) "runtime trace clean" []
    (rule_ids (Proto_lint.check trace));
  Alcotest.(check (list string)) "runtime trace race-free" []
    (rule_ids (Race_lint.check trace));
  (* the callback value really arrived (the scenario is not vacuous) *)
  Alcotest.(check int) "callback applied" 6
    (Access.get_int a head ~field:"value")

(* SP007: every space that received a data copy (Copy note) must be
   named by an invalidation (Inval_sent note) before the session ends. *)
let note src dst kind = ev src dst kind

let test_targeted_invalidation_misses_casher () =
  (* b and c both cached data; only b is invalidated — the seeded defect *)
  let events =
    [
      mark "a" (Trace.Session_begin 1);
      req "a" "b"; note "a" "b" (Trace.Copy 1); rep "b" "a";
      req "a" "c"; note "a" "c" (Trace.Copy 1); rep "c" "a";
      mark "a" (Trace.Write_back 1);
      mark "a" (Trace.Invalidate 1);
      note "a" "b" (Trace.Inval_sent 1);
      req "a" "b"; rep "b" "a";
      mark "a" (Trace.Session_end 1);
    ]
  in
  Alcotest.(check bool) "SP007" true (List.mem "SP007" (proto_ids events))

let test_targeted_invalidation_clean () =
  (* every casher invalidated: clean; the ground itself never needs a
     message; and a session with no Copy notes is exempt entirely *)
  let covered =
    [
      mark "a" (Trace.Session_begin 1);
      req "a" "b"; note "a" "b" (Trace.Copy 1); rep "b" "a";
      note "b" "a" (Trace.Copy 1);  (* a copy landing at ground: exempt *)
      mark "a" (Trace.Write_back 1);
      mark "a" (Trace.Invalidate 1);
      note "a" "b" (Trace.Inval_sent 1);
      req "a" "b"; rep "b" "a";
      mark "a" (Trace.Session_end 1);
    ]
  in
  Alcotest.(check (list string)) "covered set is clean" []
    (proto_ids covered);
  let no_copies =
    [ mark "a" (Trace.Session_begin 1); req "a" "b"; rep "b" "a" ]
    @ close_phase "a" "b" 1
  in
  Alcotest.(check (list string)) "no Copy notes: rule does not apply" []
    (proto_ids no_copies)

let test_targeted_invalidation_abort_exempt () =
  (* an aborted session invalidates through the Abort frame; missing
     Inval_sent notes must not produce SP007 on top of the abort *)
  let events =
    [
      mark "a" (Trace.Session_begin 1);
      req "a" "b"; note "a" "b" (Trace.Copy 1); rep "b" "a";
      mark "a" (Trace.Session_abort 1);
      mark "a" (Trace.Invalidate 1);
      req "a" "b"; rep "b" "a";
      mark "a" (Trace.Session_end 1);
    ]
  in
  Alcotest.(check bool) "no SP007 on abort" false
    (List.mem "SP007" (proto_ids events))

let test_copy_state_resets_between_sessions () =
  (* a casher from session 1 (fully invalidated) owes nothing in
     session 2 *)
  let events =
    [ mark "a" (Trace.Session_begin 1);
      req "a" "b"; note "a" "b" (Trace.Copy 1); rep "b" "a" ]
    @ [
        mark "a" (Trace.Write_back 1);
        mark "a" (Trace.Invalidate 1);
        note "a" "b" (Trace.Inval_sent 1);
        req "a" "b"; rep "b" "a";
        mark "a" (Trace.Session_end 1);
      ]
    @ [ mark "a" (Trace.Session_begin 2); req "a" "c";
        note "a" "c" (Trace.Copy 2); rep "c" "a" ]
    @ [
        mark "a" (Trace.Write_back 2);
        mark "a" (Trace.Invalidate 2);
        note "a" "c" (Trace.Inval_sent 2);
        req "a" "c"; rep "c" "a";
        mark "a" (Trace.Session_end 2);
      ]
  in
  Alcotest.(check (list string)) "per-session state resets" []
    (proto_ids events)

(* --- protocol verifier: delta-era labeled frames --- *)

let lreq label src dst = ev ~bytes:4 ~label src dst (Trace.Message Trace.Request)
let lrep label src dst = ev ~bytes:4 ~label src dst (Trace.Message Trace.Reply)

let test_delta_call_mispaired () =
  (* a delta-carrying call answered by a plain return: the piggybacked
     refresh never arrived — the seeded SP002 pairing defect *)
  let events =
    [
      mark "a" (Trace.Session_begin 1);
      lreq "call-d" "a" "b";
      lrep "return" "b" "a";
    ]
  in
  Alcotest.(check bool) "SP002" true (List.mem "SP002" (proto_ids events));
  let clean =
    [
      mark "a" (Trace.Session_begin 1);
      lreq "call-d" "a" "b";
      lrep "return-d" "b" "a";
    ]
    @ close_phase "a" "b" 1
  in
  Alcotest.(check (list string)) "call-d/return-d pairs" []
    (proto_ids clean)

let test_delta_inv_frame_before_writeback () =
  (* an invalidate-carrying delta frame belongs to the invalidation
     phase; sending one before the write-back mark breaks close
     ordering *)
  let events =
    [
      mark "a" (Trace.Session_begin 1);
      lreq "wb-delta+inv" "a" "b";
      lrep "ack" "b" "a";
    ]
  in
  Alcotest.(check bool) "SP004" true (List.mem "SP004" (proto_ids events))

let test_staged_delta_after_commit () =
  (* staged frames must precede the commit point; one after it can no
     longer be made atomic *)
  let events =
    [
      mark "a" (Trace.Session_begin 1);
      mark "a" (Trace.Write_back 1);
      lreq "wb-stage-delta" "a" "b";
      lrep "ack" "b" "a";
    ]
  in
  Alcotest.(check bool) "SP004" true (List.mem "SP004" (proto_ids events));
  (* the well-ordered staged close is clean *)
  let clean =
    [
      mark "a" (Trace.Session_begin 1);
      lreq "wb-stage" "a" "b";
      lrep "ack" "b" "a";
      lreq "wb-stage-delta" "a" "b";
      lrep "ack" "b" "a";
      mark "a" (Trace.Write_back 1);
      lreq "wb-commit" "a" "b";
      lrep "ack" "b" "a";
      mark "a" (Trace.Invalidate 1);
      lreq "invalidate" "a" "b";
      lrep "ack" "b" "a";
      mark "a" (Trace.Session_end 1);
    ]
  in
  Alcotest.(check (list string)) "staged close verifies" [] (proto_ids clean)

(* --- happens-before race checker: synthetic traces --- *)

let acc ?(session = 1) src (home, addr) akind =
  mark src (Trace.Access { session; home; addr; akind })

let race_ids events =
  linted := events :: !linted;
  rule_ids (Race_lint.check_events events)

let test_cc101_unordered_writes () =
  (* two spaces write the same datum with no frame between them *)
  let events =
    [
      mark "a" (Trace.Session_begin 1);
      acc "b" ("a", 64) Trace.Acc_write;
      acc "c" ("a", 64) Trace.Acc_write;
    ]
  in
  Alcotest.(check bool) "CC101" true (List.mem "CC101" (race_ids events));
  (* the same two writes ordered by delivered frames, write-back
     travelling home before the apply: clean *)
  let ordered =
    [
      mark "a" (Trace.Session_begin 1);
      acc "b" ("a", 64) Trace.Acc_write;
      req "b" "c";
      acc "c" ("a", 64) Trace.Acc_write;
      req "c" "a";
      acc "a" ("a", 64) Trace.Acc_apply;
      mark "a" (Trace.Session_end 1);
    ]
  in
  Alcotest.(check (list string)) "frame-ordered writes clean" []
    (race_ids ordered);
  (* a dropped frame creates no order: the race is back *)
  let dropped =
    [
      mark "a" (Trace.Session_begin 1);
      acc "b" ("a", 64) Trace.Acc_write;
      ev ~bytes:4 "b" "c" (Trace.Dropped Trace.Request);
      acc "c" ("a", 64) Trace.Acc_write;
    ]
  in
  Alcotest.(check bool) "CC101 through a dropped frame" true
    (List.mem "CC101" (race_ids dropped))

let test_cc102_stale_copy () =
  (* a copy installed in session 1 survives the close (its invalidation
     never landed) and is read again in session 2 *)
  let stale =
    [
      mark "a" (Trace.Session_begin 1);
      acc "b" ("a", 64) Trace.Acc_install;
      acc "b" ("a", 64) Trace.Acc_read;
      mark "a" (Trace.Session_end 1);
      mark "a" (Trace.Session_begin 2);
      acc ~session:2 "b" ("a", 64) Trace.Acc_read;
      acc ~session:2 "b" ("a", 64) Trace.Acc_read;
    ]
  in
  let cc102 = List.filter (String.equal "CC102") (race_ids stale) in
  Alcotest.(check int) "one CC102 (deduplicated per datum)" 1
    (List.length cc102);
  (* the purge mark at close clears the copy: clean *)
  let purged =
    [
      mark "a" (Trace.Session_begin 1);
      acc "b" ("a", 64) Trace.Acc_install;
      acc "b" ("a", 64) Trace.Acc_read;
      acc "b" ("", Trace.every_datum) Trace.Acc_drop;
      mark "a" (Trace.Session_end 1);
      mark "a" (Trace.Session_begin 2);
      acc ~session:2 "b" ("a", 64) Trace.Acc_install;
      acc ~session:2 "b" ("a", 64) Trace.Acc_read;
    ]
  in
  Alcotest.(check (list string)) "purged copy clean" [] (race_ids purged)

let test_cc102_lost_writeback () =
  (* a foreign write never applied at its home before the committed
     close: the update was silently lost *)
  let lost =
    [
      mark "a" (Trace.Session_begin 1);
      acc "b" ("a", 64) Trace.Acc_write;
      mark "a" (Trace.Session_end 1);
    ]
  in
  Alcotest.(check bool) "CC102" true (List.mem "CC102" (race_ids lost));
  (* an aborted session discards modified data by design *)
  let aborted =
    [
      mark "a" (Trace.Session_begin 1);
      acc "b" ("a", 64) Trace.Acc_write;
      mark "a" (Trace.Session_abort 1);
      mark "a" (Trace.Session_end 1);
    ]
  in
  Alcotest.(check (list string)) "aborted session exempt" []
    (race_ids aborted);
  (* the home crashing mid-session is abort semantics, not a race *)
  let crashed =
    [
      mark "a" (Trace.Session_begin 1);
      acc "b" ("a", 64) Trace.Acc_write;
      mark "a" (Trace.Crash "a");
      mark "a" (Trace.Session_end 1);
    ]
  in
  Alcotest.(check (list string)) "crashed home exempt" []
    (race_ids crashed)

let test_cc102_lost_writes_in_write_order () =
  (* every write a close lost is reported at the close's event, so the
     reports come in the order the writes were made *)
  let lost =
    [
      mark "a" (Trace.Session_begin 1);
      acc "b" ("a", 128) Trace.Acc_write;
      acc "b" ("a", 64) Trace.Acc_write;
      acc "b" ("a", 96) Trace.Acc_write;
      mark "a" (Trace.Session_end 1);
    ]
  in
  Alcotest.(check (list string)) "lost writes, in write order"
    [ "session #1 committed but b's write to a/128 at event[1] never reached its home";
      "session #1 committed but b's write to a/64 at event[2] never reached its home";
      "session #1 committed but b's write to a/96 at event[3] never reached its home" ]
    (List.map (fun d -> d.Diagnostic.message) (Race_lint.check_events lost))

let test_cc103_use_after_free () =
  let events =
    [
      mark "a" (Trace.Session_begin 1);
      acc "a" ("a", 64) Trace.Acc_free;
      acc "b" ("a", 64) Trace.Acc_read;
    ]
  in
  Alcotest.(check bool) "CC103" true (List.mem "CC103" (race_ids events));
  (* reallocation recycles the region legitimately *)
  let recycled =
    [
      mark "a" (Trace.Session_begin 1);
      acc "a" ("a", 64) Trace.Acc_free;
      acc "a" ("a", 64) Trace.Acc_alloc;
      acc "b" ("a", 64) Trace.Acc_read;
    ]
  in
  Alcotest.(check (list string)) "realloc clean" [] (race_ids recycled)

(* --- static footprints --- *)

let fp_paths fp =
  List.map (fun r -> r.Footprint.path) fp.Footprint.regions

let test_footprint_recursive_widens () =
  let reg = Registry.create () in
  Registry.register reg "cell" (Struct [ ("next", ptr "cell"); ("v", i64) ]);
  let fp = Footprint.of_type reg ~ty:"cell" ~mode:Footprint.Read () in
  Alcotest.(check (list string)) "root + widened tail" [ ""; "next.*" ]
    (fp_paths fp);
  Alcotest.(check bool) "CC003 recorded" true
    (has_rule "CC003" fp.Footprint.diags);
  Alcotest.(check int) "widening is a warning, not an error" 0
    (Diagnostic.count_errors fp.Footprint.diags)

let test_footprint_finite_graph () =
  let reg = Registry.create () in
  Registry.register reg "leaf" (Struct [ ("v", i64) ]);
  Registry.register reg "pair"
    (Struct [ ("a", ptr "leaf"); ("b", ptr "leaf") ]);
  let fp = Footprint.of_type reg ~ty:"pair" ~mode:Footprint.Write () in
  Alcotest.(check (list string)) "finite regions, no widening"
    [ ""; "a"; "b" ] (fp_paths fp);
  Alcotest.(check (list string)) "no diagnostics" []
    (rule_ids fp.Footprint.diags)

let test_footprint_hint_bounds () =
  let reg = Registry.create () in
  Registry.register reg "blob" (Struct [ ("payload", Array (f64, 8)) ]);
  Registry.register reg "rcell"
    (Struct
       [ ("next", ptr "rcell"); ("blob", ptr "blob"); ("tag", i64) ]);
  let unhinted = Footprint.of_type reg ~ty:"rcell" ~mode:Footprint.Read () in
  Alcotest.(check (list string)) "unhinted follows every pointer"
    [ ""; "blob"; "next.*" ] (fp_paths unhinted);
  let hinted =
    Footprint.of_type reg
      ~hints:[ ("rcell", [ "next" ]) ]
      ~ty:"rcell" ~mode:Footprint.Read ()
  in
  Alcotest.(check (list string)) "hint prunes the blob edge"
    [ ""; "next.*" ] (fp_paths hinted)

let test_regions_overlap () =
  let r ?(root = "obj#0") ?(mode = Footprint.Read) path =
    { Footprint.root; path; mode }
  in
  let check_o name expect a b =
    Alcotest.(check bool) name expect (Footprint.regions_overlap a b);
    Alcotest.(check bool) (name ^ " (sym)") expect
      (Footprint.regions_overlap b a)
  in
  check_o "wildcard covers a field" true (r "*") (r "next");
  check_o "different roots never overlap" false (r "*")
    (r ~root:"obj#1" "*");
  check_o "subtree covers descendants" true (r "a.*") (r "a.b");
  check_o "subtree vs sibling prefix" false (r "a.*") (r "ab");
  check_o "distinct fields are disjoint" false (r "a") (r "b");
  check_o "equal paths overlap" true (r "a.b") (r "a.b")

let test_footprint_interference () =
  let open Footprint in
  let s ?escapes label regions = session ~label ?escapes regions in
  let region root path mode = { root; path; mode } in
  let w1 = s "w1" [ region "obj#0" "*" Write ] in
  let w2 = s "w2" [ region "obj#0" "next" Write ] in
  let rd = s "rd" [ region "obj#0" "next" Read ] in
  let other = s "other" [ region "obj#1" "*" Write ] in
  let fr = s "fr" [ region "obj#0" "*" Free ] in
  let esc = s ~escapes:true "esc" [] in
  Alcotest.(check bool) "CC001 write-write" true
    (has_rule "CC001" (interferes w1 w2));
  Alcotest.(check bool) "CC002 write-read" true
    (has_rule "CC002" (interferes w1 rd));
  Alcotest.(check (list string)) "disjoint roots are clean" []
    (rule_ids (interferes w1 other));
  Alcotest.(check bool) "CC005 free inside a footprint" true
    (has_rule "CC005" (interferes fr rd));
  let cc4 = interferes esc other in
  Alcotest.(check bool) "CC004 escape" true (has_rule "CC004" cc4);
  Alcotest.(check int) "escape is a warning, not an error" 0
    (Diagnostic.count_errors cc4);
  (* reads never conflict with reads *)
  Alcotest.(check (list string)) "read-read clean" []
    (rule_ids (interferes rd rd))

(* --- catalogue hygiene --- *)

let test_catalogue_covers_emitted_rules () =
  List.iter
    (fun id ->
      Alcotest.(check bool) (id ^ " in catalogue") true
        (Diagnostic.find_rule id <> None))
    [ "TD001"; "TD002"; "TD003"; "TD004"; "TD005"; "TD006"; "TD007";
      "SP001"; "SP002"; "SP003"; "SP004"; "SP005"; "SP006"; "SP007"; "SP010";
      "CC001"; "CC002"; "CC003"; "CC004"; "CC005";
      "CC101"; "CC102"; "CC103" ]

let proto_lint_tests =
  [
    ("clean trace", test_clean_trace);
    ("nested calls ok", test_nested_calls_ok);
    ("overlapping requests", test_overlapping_requests);
    ("mismatched reply", test_mismatched_reply);
    ("unreplied request", test_unreplied_request);
    ("traffic outside session", test_traffic_outside_session);
    ("invalidate before write-back", test_invalidate_before_writeback);
    ("clean abort trace", test_clean_abort_trace);
    ("abort with write-back", test_abort_with_writeback);
    ("abort without invalidation", test_abort_without_invalidation);
    ("frame after crash", test_frame_after_crash);
    ("crash and revive clean", test_crash_revive_clean);
    ("SP009 shed while open", test_shed_while_open);
    ("SP009 begin after shed", test_begin_after_shed);
    ("SP009 breaker bypassed", test_breaker_bypassed);
    ("dropped and dup frames tolerated", test_dropped_and_dup_frames_tolerated);
    ("runtime trace verifies", test_runtime_trace_verifies);
    ("targeted invalidation misses a casher", test_targeted_invalidation_misses_casher);
    ("targeted invalidation clean", test_targeted_invalidation_clean);
    ("abort exempts SP007", test_targeted_invalidation_abort_exempt);
    ("copy state resets between sessions", test_copy_state_resets_between_sessions);
    ("delta call mispaired", test_delta_call_mispaired);
    ("delta invalidation frame before write-back", test_delta_inv_frame_before_writeback);
    ("staged delta after commit point", test_staged_delta_after_commit);
    ("SP010 offload without footprint", test_offload_without_footprint);
    ("SP010 offload into ground", test_offload_into_ground);
    ("SP010 offload to dead peer", test_offload_to_dead_peer);
    ("SP010 per-session footprint", test_offload_footprint_multi);
  ]

let race_lint_tests =
  [
    ("CC101 unordered writes", test_cc101_unordered_writes);
    ("CC102 stale copy", test_cc102_stale_copy);
    ("CC102 lost write-back", test_cc102_lost_writeback);
    ("CC102 lost writes in write order", test_cc102_lost_writes_in_write_order);
    ("CC103 use after free", test_cc103_use_after_free);
  ]

(* Both linters' whole reports (rule, space, locus and message) over
   every synthetic trace the tests above check, pinned by digest: those
   tests compare rule ids only. Each report's lines are sorted first,
   since [Diagnostic.sort] leaves the order of diagnostics that tie on
   space, rule and locus unspecified. *)
let test_synthetic_reports_pinned () =
  linted := [];
  List.iter (fun (_, f) -> f ()) (proto_lint_tests @ race_lint_tests);
  let reports =
    List.rev_map
      (fun events ->
        Race_lint.check_events events @ Proto_lint.check_events events
        |> List.map (Format.asprintf "%a" Diagnostic.pp)
        |> List.sort String.compare)
      !linted
  in
  Alcotest.(check (pair int int)) "traces, diagnostics" (51, 44)
    (List.length reports, List.length (List.concat reports));
  Alcotest.(check string) "reports" "5f2e010559d23c1fdd396d02c31364e2"
    (Digest.to_hex
       (Digest.string
          (String.concat "\n--\n" (List.map (String.concat "\n") reports))))

let tc = Alcotest.test_case

let () =
  Alcotest.run "analysis"
    [
      ( "desc-lint",
        [
          tc "dangling named target" `Quick test_dangling_named;
          tc "by-value cycle" `Quick test_by_value_cycle;
          tc "self cycle" `Quick test_self_cycle;
          tc "array lengths" `Quick test_array_lengths;
          tc "duplicate fields" `Quick test_duplicate_fields;
          tc "layout divergence" `Quick test_layout_divergence;
          tc "unregistered pointee" `Quick test_unregistered_pointee;
          tc "hint lint" `Quick test_hint_lint;
          tc "cluster hint validation" `Quick test_cluster_hint_validation;
          tc "clean registry" `Quick test_clean_registry;
          tc "validate raises" `Quick test_validate_raises;
          tc "node startup validation" `Quick test_node_startup_validation;
        ] );
      ("proto-lint", List.map (fun (n, f) -> tc n `Quick f) proto_lint_tests);
      ("race-lint", List.map (fun (n, f) -> tc n `Quick f) race_lint_tests);
      ( "pinned",
        [ tc "synthetic trace reports" `Quick test_synthetic_reports_pinned ] );
      ( "footprint",
        [
          tc "recursive type widens" `Quick test_footprint_recursive_widens;
          tc "finite graph stays finite" `Quick test_footprint_finite_graph;
          tc "hints bound the walk" `Quick test_footprint_hint_bounds;
          tc "region overlap" `Quick test_regions_overlap;
          tc "interference rules" `Quick test_footprint_interference;
        ] );
      ( "catalogue",
        [ tc "ids are stable" `Quick test_catalogue_covers_emitted_rules ] );
    ]
