(* The weave checker, exercised for real.

   The acceptance bar for concurrent admission: 500 seeded two-session
   weaves — half disjoint (genuinely interleaved), half conflicting
   (admission must serialize), sweeping both admission policies, with
   message faults on the odd seeds — and every run must satisfy the
   per-side sequential oracle, Race_lint, the multiplexed protocol
   linter, and commit with no lost update. A hand-written three-session
   weave checks the FIFO drain with two waiters. The
   deterministic-generation and mutation tests pin the harness itself. *)

open Srpc_core
open Srpc_check

let test_pair_deterministic () =
  for seed = 0 to 19 do
    let a = Gen.pair ~seed ~depth:8 ~fault:None in
    let b = Gen.pair ~seed ~depth:8 ~fault:None in
    if a <> b then Alcotest.failf "seed %d: pair generation not deterministic" seed
  done

let test_pair_shares_shape () =
  for seed = 0 to 49 do
    let sa, sb = Gen.pair ~seed ~depth:8 ~fault:None in
    if
      sa.Script.workers <> sb.Script.workers
      || sa.Script.arches <> sb.Script.arches
      || sa.Script.strategy <> sb.Script.strategy
    then Alcotest.failf "seed %d: pair does not share its cluster shape" seed;
    if not (Array.mem sa.Script.strategy Gen.concurrent_strategies) then
      Alcotest.failf "seed %d: strategy %d illegal in concurrent mode" seed
        sa.Script.strategy
  done

let test_restricted_ops () =
  (* the concurrent-mode mix must never emit session, crash or callback
     ops — the harness owns session boundaries *)
  for seed = 0 to 49 do
    let sa, sb = Gen.pair ~seed ~depth:12 ~fault:None in
    List.iter
      (fun (op : Script.op) ->
        match op with
        | Script.New_session | Script.Crash _ | Script.Callback _ ->
          Alcotest.failf "seed %d: restricted mix emitted %a" seed Script.pp_op
            op
        | _ -> ())
      (sa.Script.ops @ sb.Script.ops)
  done

let test_weave_sweep () =
  (* the 500-seed acceptance sweep: faults on odd seeds, disjoint and
     conflicting variants, both policies *)
  let report = Weave.check ~seeds:500 ~depth:8 ~faults:0.02 () in
  if report.Weave.failures <> [] then
    Alcotest.failf "weave sweep failed:@.%a"
      (Format.pp_print_list Weave.pp_failure)
      report.Weave.failures;
  if report.Weave.fault_runs = 0 then
    Alcotest.fail "sweep never installed a fault plan";
  if report.Weave.serialized_runs = 0 then
    Alcotest.fail "sweep never exercised a conflicting pair"

(* Digest of the per-seed [Trace.pp] digests of seeds 0-199 at depth 8,
   each seed run with the fault, variant and policy [Weave.check] gives
   it. The sweep above only asks that the oracles pass; this fixes every
   frame, mark and timestamp of both interleaved sessions, so a change
   that moves the weave's schedule is caught here. *)
let pinned_weave_traces = "4a1fe1cb731b3b14df76168cbb97d922"

(* The variant and admission policy [Weave.check] gives [seed]. *)
let sweep_config seed =
  ( (if seed mod 2 = 0 then Weave.Disjoint else Weave.Conflicting),
    if seed / 2 mod 2 = 0 then Strategy.Queue_conflicts
    else Strategy.Abort_retry )

let test_weave_traces_pinned () =
  let buf = Buffer.create 8192 in
  for seed = 0 to 199 do
    let fault = Runner.fault_for ~faults:0.02 ~seed in
    let variant, policy = sweep_config seed in
    let sa, sb = Gen.pair ~seed ~depth:8 ~fault in
    let o = Weave.run ~policy ~variant [ sa; sb ] in
    Buffer.add_string buf
      (Digest.to_hex
         (Digest.string
            (Format.asprintf "%a" Srpc_simnet.Trace.pp o.Weave.o_trace)));
    Buffer.add_char buf '\n'
  done;
  Alcotest.(check string) "weave traces of seeds 0-199" pinned_weave_traces
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* [Gen.pair] emits no [Crash], so the sweep never aborts a session.
   Here each of seeds 0-199 gets a fault plan, without which
   [Script.resolve] drops a crash, and side B a crash of worker [seed]
   before its op [1 + seed mod (n-1)]: after its build, before its last
   op. Every run must pass every oracle, and some sessions must abort. *)
let test_generated_aborts () =
  let aborted = ref 0 in
  for seed = 0 to 199 do
    let fault = Some { Script.fseed = seed; drop = 0.02; dup = 0.01 } in
    let variant, policy = sweep_config seed in
    let sa, sb = Gen.pair ~seed ~depth:8 ~fault in
    let at = 1 + (seed mod (List.length sb.Script.ops - 1)) in
    let ops =
      List.concat
        (List.mapi
           (fun i op ->
             if i = at then [ Script.Crash { worker = seed }; op ] else [ op ])
           sb.Script.ops)
    in
    let o = Weave.run ~policy ~variant [ sa; { sb with Script.ops } ] in
    (match o.Weave.o_failure with
    | Some d -> Alcotest.failf "seed %d: weave with a crash failed: %s" seed d
    | None -> ());
    aborted :=
      !aborted + List.length (List.filter Option.is_some o.Weave.o_aborted)
  done;
  if !aborted = 0 then Alcotest.fail "no generated weave aborted a session"

let test_conflicting_serializes () =
  (* a conflicting pair under the queue policy really goes through the
     queue: the stats counters prove a session waited *)
  let sa, sb = Gen.pair ~seed:7 ~depth:6 ~fault:None in
  (match
     (Weave.run ~policy:Strategy.Queue_conflicts ~variant:Weave.Conflicting
        [ sa; sb ])
       .Weave.o_failure
   with
  | Some d -> Alcotest.failf "conflicting queue weave failed: %s" d
  | None -> ());
  match
    (Weave.run ~policy:Strategy.Abort_retry ~variant:Weave.Conflicting
       [ sa; sb ])
      .Weave.o_failure
  with
  | Some d -> Alcotest.failf "conflicting abort-retry weave failed: %s" d
  | None -> ()

let test_crash_mid_weave () =
  (* the shared worker crashes in the middle of side B's session and is
     revived before B's next call to it. B must ride out the outage and
     commit (not merely abort acceptably); A stays ground-local and
     commits untouched; the combined trace still passes both linters
     with no lost update. The contrast run drops the revive: B's next
     call then hits the dead worker and B aborts — but A still commits
     and the abort is clean. *)
  let fault = Some { Script.fseed = 11; drop = 0.0; dup = 0.0 } in
  let mk ops =
    { Script.workers = 1; arches = [ 0 ]; strategy = 0; fault; ops }
  in
  let sa =
    mk
      [
        Script.Build_list [ 10; 20; 30 ];
        Script.Local_update { obj = 0; idx = 0; delta = 1 };
        Script.Local_update { obj = 0; idx = 2; delta = -4 };
      ]
  in
  let sb_ops ~revived =
    [
      Script.Build_list [ 1; 2; 3 ];
      Script.Sum { worker = 0; obj = 0 };
      Script.Crash { worker = 0 };
    ]
    @ (if revived then [ Script.Revive { worker = 0 } ] else [])
    @ [
        Script.Update { worker = 0; obj = 0; idx = 1; delta = 7 };
        Script.Sum { worker = 0; obj = 0 };
      ]
  in
  let run sb =
    Weave.run ~policy:Strategy.Queue_conflicts ~variant:Weave.Disjoint
      [ sa; sb ]
  in
  let o = run (mk (sb_ops ~revived:true)) in
  (match o.Weave.o_failure with
  | Some d -> Alcotest.failf "crash/revive weave failed: %s" d
  | None -> ());
  Alcotest.(check bool) "revived side committed" true
    (List.nth o.Weave.o_committed 1);
  Alcotest.(check bool) "local side committed" true
    (List.hd o.Weave.o_committed);
  let o = run (mk (sb_ops ~revived:false)) in
  (match o.Weave.o_failure with
  | Some d -> Alcotest.failf "crash-without-revive weave failed: %s" d
  | None -> ());
  Alcotest.(check bool) "unrevived side aborted" true
    (List.nth o.Weave.o_aborted 1 <> None);
  Alcotest.(check bool) "local side still committed" true
    (List.hd o.Weave.o_committed)

let test_three_sessions () =
  (* three sessions on one worker, each building a list, summing it,
     updating it and summing it again, under colliding footprints:
     admission must serialize all three. Under the queue policy the
     first close drains one waiter (the second still conflicts with it)
     and the second close drains the last, in FIFO order. *)
  let mk values =
    {
      Script.workers = 1;
      arches = [ 0 ];
      strategy = 0;
      fault = None;
      ops =
        [
          Script.Build_list values;
          Script.Sum { worker = 0; obj = 0 };
          Script.Update { worker = 0; obj = 0; idx = 1; delta = 5 };
          Script.Sum { worker = 0; obj = 0 };
        ];
    }
  in
  let scripts = [ mk [ 1; 2; 3 ]; mk [ 10; 20 ]; mk [ 4; 5; 6; 7 ] ] in
  let marks o =
    let open Srpc_simnet.Trace in
    List.filter_map
      (fun e ->
        match e.kind with
        | Session_admit id -> Some (Printf.sprintf "admit#%d" id)
        | Session_queued id -> Some (Printf.sprintf "queued#%d" id)
        | Session_end id -> Some (Printf.sprintf "end#%d" id)
        | _ -> None)
      (events o.Weave.o_trace)
  in
  List.iter
    (fun policy ->
      let o = Weave.run ~policy ~variant:Weave.Conflicting scripts in
      (match o.Weave.o_failure with
      | Some d -> Alcotest.failf "three-session weave failed: %s" d
      | None -> ());
      Alcotest.(check (list bool)) "all three committed" [ true; true; true ]
        o.Weave.o_committed;
      if policy = Strategy.Queue_conflicts then
        Alcotest.(check string) "FIFO drain, one waiter per close"
          "admit#1 queued#2 queued#3 end#1 admit#2 end#2 admit#3 end#3"
          (String.concat " " (marks o)))
    [ Strategy.Queue_conflicts; Strategy.Abort_retry ]

let test_mutation_chaos_admission () =
  (* bypassing admission on a conflicting pair must be caught: the runs
     are physically disjoint, so the oracle stays quiet — but the
     side-prefix-free footprints collide, and with [chaos_admit_conflicting]
     both sessions open at once. Admission validation at close must then
     fail the loser (the footprints declare writes to the same roots). *)
  let found = ref false in
  Node.chaos_admit_conflicting := true;
  Fun.protect
    ~finally:(fun () -> Node.chaos_admit_conflicting := false)
    (fun () ->
      for seed = 0 to 19 do
        let sa, sb = Gen.pair ~seed ~depth:6 ~fault:None in
        match
          (Weave.run ~policy:Strategy.Queue_conflicts
             ~variant:Weave.Conflicting [ sa; sb ])
            .Weave.o_failure
        with
        | Some _ -> found := true
        | None -> ()
      done);
  if not !found then
    Alcotest.fail
      "chaos-admitted conflicting weaves were never caught by validation"

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "weave"
    [
      ( "generator",
        [
          tc "pair generation is deterministic" `Quick test_pair_deterministic;
          tc "pair shares cluster shape" `Quick test_pair_shares_shape;
          tc "restricted op mix" `Quick test_restricted_ops;
        ] );
      ( "weave",
        [
          tc "500-seed sweep is clean" `Slow test_weave_sweep;
          tc "traces of 200 seeds pinned" `Quick test_weave_traces_pinned;
          tc "conflicting pairs serialize" `Quick test_conflicting_serializes;
          tc "crash/revive mid-weave" `Quick test_crash_mid_weave;
          tc "generated weaves with a crash abort cleanly" `Quick
            test_generated_aborts;
          tc "three sessions serialize through the queue" `Quick
            test_three_sessions;
        ] );
      ( "mutation",
        [
          tc "bypassed admission is caught" `Quick test_mutation_chaos_admission;
        ] );
    ]
