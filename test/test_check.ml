(* The model-checking harness, checked.

   srpc-check is itself trusted infrastructure: a non-deterministic
   generator or a flaky runner would turn every red run into an
   argument. These tests pin the properties the harness's conclusions
   rest on — generation and execution are deterministic, repro files
   roundtrip, a bounded run over the real runtime is clean — and then
   plant a real coherency defect behind [Node.chaos_lose_first_writeback]
   to prove the harness detects it and shrinks it to a small script. *)

open Srpc_core
open Srpc_check

let fault_for seed =
  if seed mod 2 = 1 then
    Some { Script.fseed = seed; drop = 0.01; dup = 0.005 }
  else None

let gen_for seed =
  Gen.script ~seed ~depth:12 ~fault:(fault_for seed)

let test_generator_deterministic () =
  for seed = 0 to 19 do
    let a = gen_for seed and b = gen_for seed in
    if a <> b then
      Alcotest.failf "seed %d generated two different scripts" seed
  done

let test_sexp_roundtrip () =
  for seed = 0 to 19 do
    let s = gen_for seed in
    let text = Sexp.to_string (Script.to_sexp ~seed s) in
    let seed', s' = Script.of_sexp (Sexp.of_string text) in
    if seed' <> seed || s <> s' then
      Alcotest.failf "seed %d did not roundtrip through the repro format:@.%s"
        seed text
  done

let test_sexp_comments_and_errors () =
  (* the replay parser accepts commented files and rejects garbage with
     a typed error, not an exception from the depths *)
  let t = Sexp.of_string "; a comment\n(a (b 1) ; mid\n c)" in
  Alcotest.(check string) "comments stripped" "(a (b 1) c)" (Sexp.to_string t);
  List.iter
    (fun bad ->
      match Sexp.of_string bad with
      | _ -> Alcotest.failf "parsed garbage: %S" bad
      | exception Sexp.Parse_error _ -> ())
    [ ""; "("; ")"; "(a"; "(a))"; "a b" ]

let test_run_deterministic () =
  (* the same script, run twice against a fresh cluster each time, gives
     the same verdict — the bedrock of replayable repros *)
  List.iter
    (fun seed ->
      let s = gen_for seed in
      let a = Runner.run_script s and b = Runner.run_script s in
      if a <> b then Alcotest.failf "seed %d: two runs disagreed" seed)
    [ 0; 1; 2; 3; 4; 5 ]

let test_bounded_check_clean () =
  match Runner.check ~seeds:12 ~depth:10 ~faults:0.02 () with
  | Runner.Ok stats ->
      Alcotest.(check int) "all seeds ran" 12 stats.Runner.runs
  | Runner.Failed { seed; failure; _ } ->
      Alcotest.failf "seed %d: %a" seed Runner.pp_failure failure

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* Plant a coherency defect behind [flag], prove the harness detects it,
   that the race oracle (not just a divergent observation) names it as a
   CC102 coherency race, and that it shrinks to a small script which
   passes again once the defect is disabled. *)
let run_mutation ~name flag =
  let report =
    Fun.protect
      ~finally:(fun () -> flag := false)
      (fun () ->
        flag := true;
        Runner.check ~seeds:60 ~depth:12 ~faults:0.0 ())
  in
  match report with
  | Runner.Ok _ -> Alcotest.failf "seeded %s defect went undetected" name
  | Runner.Failed { shrunk; shrunk_failure; _ } ->
      Alcotest.(check bool)
        (Format.asprintf "shrunk repro has %d ops (<= 10)"
           (List.length shrunk.Script.ops))
        true
        (List.length shrunk.Script.ops <= 10);
      (match shrunk_failure with
      | Runner.Race msg when contains msg "CC102" -> ()
      | f ->
          Alcotest.failf "%s: expected a CC102 race verdict, got: %a" name
            Runner.pp_failure f);
      (* with the defect disabled the minimized script passes again,
         pinning the failure on the mutation rather than the harness *)
      (match Runner.run_script shrunk with
      | None -> ()
      | Some f ->
          Alcotest.failf "shrunk script still fails without the defect: %a"
            Runner.pp_failure f)

(* --- static footprints of script plans --- *)

let test_plan_footprints () =
  let open Srpc_analysis in
  let script =
    {
      Script.workers = 1;
      arches = [ 0 ];
      strategy = 0;
      fault = None;
      ops =
        [
          Script.Build_list [ 1; 2; 3 ];
          Script.Update { worker = 0; obj = 0; idx = 0; delta = 1 };
          Script.New_session;
          Script.Sum { worker = 0; obj = 0 };
          Script.Callback { worker = 0; obj = 0 };
        ];
    }
  in
  let fps = Plan_footprint.sessions (Script.resolve script) in
  Alcotest.(check int) "two sessions" 2 (List.length fps);
  let s0 = List.nth fps 0 and s1 = List.nth fps 1 in
  let has_mode fp m =
    List.exists (fun r -> r.Footprint.mode = m) fp.Footprint.regions
  in
  Alcotest.(check bool) "session 0 may write" true
    (has_mode s0 Footprint.Write);
  Alcotest.(check bool) "session 1 is read-only" false
    (has_mode s1 Footprint.Write);
  Alcotest.(check bool) "callback marks the escape" true
    s1.Footprint.escapes;
  let ids =
    List.map (fun d -> d.Diagnostic.rule_id) (Footprint.interferes s0 s1)
  in
  Alcotest.(check bool) "writer x reader: CC002" true (List.mem "CC002" ids);
  Alcotest.(check bool) "escape: CC004" true (List.mem "CC004" ids);
  Alcotest.(check bool) "no write-write conflict" false (List.mem "CC001" ids)

let test_plan_footprint_homes () =
  let script =
    {
      Script.workers = 2;
      arches = [ 0; 1 ];
      strategy = 0;
      fault = None;
      ops =
        [
          Script.Build_list [ 1; 2 ];
          Script.Append { obj = 0; home = 2; values = [ 5 ] };
        ];
    }
  in
  match Plan_footprint.sessions (Script.resolve script) with
  | [ fp ] ->
      Alcotest.(check (list string))
        "ground plus the appending worker's home" [ "1.0"; "3.0" ]
        fp.Srpc_analysis.Footprint.homes
  | fps -> Alcotest.failf "expected one session, got %d" (List.length fps)

(* The subset property tying the static engine to the dynamic one: on
   every seed, each session's *dynamic* behavior must stay inside its
   *static* may-footprint — a session the analysis calls read-only
   never writes, one without frees never frees, and every datum it
   touches lives at a home the analysis predicted. Sessions whose
   footprint escapes through a callback are exempt (that is what CC004
   means), as is the trailing recovery session (it touches no data). *)
let test_footprint_subset_property () =
  let open Srpc_analysis in
  for seed = 0 to 199 do
    let plan = Script.resolve (gen_for seed) in
    let fps = Array.of_list (Plan_footprint.sessions plan) in
    let out = Interp.run plan in
    let events = Srpc_simnet.Trace.events out.Interp.trace in
    let order = Hashtbl.create 8 in
    List.iter
      (fun e ->
        match e.Srpc_simnet.Trace.kind with
        | Srpc_simnet.Trace.Session_begin id ->
            if not (Hashtbl.mem order id) then
              Hashtbl.add order id (Hashtbl.length order)
        | _ -> ())
      events;
    let may k m =
      List.exists (fun r -> r.Footprint.mode = m) fps.(k).Footprint.regions
    in
    List.iteri
      (fun idx e ->
        match e.Srpc_simnet.Trace.kind with
        | Srpc_simnet.Trace.Access { session; home; addr; akind }
          when addr <> Srpc_simnet.Trace.every_datum -> (
            match Hashtbl.find_opt order session with
            | Some k when k < Array.length fps && not fps.(k).Footprint.escapes
              ->
                (match akind with
                | Srpc_simnet.Trace.Acc_write | Srpc_simnet.Trace.Acc_apply ->
                    if not (may k Footprint.Write) then
                      Alcotest.failf
                        "seed %d event[%d]: %s writes %s/%d in session %d, \
                         which the static footprint calls read-only"
                        seed idx e.Srpc_simnet.Trace.src home addr k
                | Srpc_simnet.Trace.Acc_free ->
                    if not (may k Footprint.Free) then
                      Alcotest.failf
                        "seed %d event[%d]: free of %s/%d in session %d \
                         absent from the static footprint"
                        seed idx home addr k
                | _ -> ());
                let homes = fps.(k).Footprint.homes in
                if homes <> [] && not (List.mem home homes)
                then
                  Alcotest.failf
                    "seed %d event[%d]: datum %s/%d homed outside the static \
                     prediction %s of session %d"
                    seed idx home addr (String.concat "," homes) k
            | _ -> ())
        | _ -> ())
      events
  done

let test_mutation_detected_and_shrunk () =
  (* the first write-back item of every collection is silently dropped —
     a classic lost-update coherency bug, caught as CC102(b) *)
  run_mutation ~name:"write-back" Node.chaos_lose_first_writeback

let test_reorder_mutation_detected () =
  (* invalidations are acknowledged without purging, and the session
     bookkeeping advances so the self-healing purge is disarmed — stale
     copies survive into the next session, caught as CC102(a) *)
  run_mutation ~name:"invalidate-reorder" Node.chaos_reorder_invalidate

(* The linters' whole reports (rule, space, locus and message) over the
   traces of a check run with the write-back defect planted, pinned by
   digest: the mutation tests above look for a rule id only. Lines are
   sorted first, since [Diagnostic.sort] leaves the order of
   diagnostics that tie on space, rule and locus unspecified. *)
let test_lost_writeback_reports_pinned () =
  let lines = ref [] and failing = ref 0 in
  Fun.protect
    ~finally:(fun () -> Node.chaos_lose_first_writeback := false)
    (fun () ->
      Node.chaos_lose_first_writeback := true;
      for seed = 0 to 59 do
        let plan = Script.resolve (Gen.script ~seed ~depth:12 ~fault:None) in
        let trace = (Interp.run plan).Interp.trace in
        let ds =
          Srpc_analysis.(Race_lint.check trace @ Proto_lint.check trace)
        in
        if ds <> [] then incr failing;
        List.iter
          (fun d ->
            lines :=
              Format.asprintf "seed %d %a" seed Srpc_analysis.Diagnostic.pp d
              :: !lines)
          ds
      done);
  Alcotest.(check (pair int int)) "failing seeds, diagnostics" (16, 23)
    (!failing, List.length !lines);
  Alcotest.(check string) "reports" "e05b43d876c791396f9bd71eef5c073f"
    (Digest.to_hex
       (Digest.string (String.concat "\n" (List.sort String.compare !lines))))

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "check"
    [
      ( "harness",
        [
          tc "generator is deterministic" `Quick test_generator_deterministic;
          tc "repro files roundtrip" `Quick test_sexp_roundtrip;
          tc "repro parser: comments and errors" `Quick
            test_sexp_comments_and_errors;
          tc "runs are deterministic" `Quick test_run_deterministic;
          tc "bounded check run is clean" `Quick test_bounded_check_clean;
        ] );
      ( "footprint",
        [
          tc "plan sessions and interference" `Quick test_plan_footprints;
          tc "append tracks worker homes" `Quick test_plan_footprint_homes;
          tc "dynamic behavior stays inside the static footprint" `Quick
            test_footprint_subset_property;
        ] );
      ( "mutation",
        [
          tc "write-back defect detected and shrunk" `Quick
            test_mutation_detected_and_shrunk;
          tc "invalidate-reorder defect detected and shrunk" `Quick
            test_reorder_mutation_detected;
          tc "write-back defect reports pinned" `Quick
            test_lost_writeback_reports_pinned;
        ] );
    ]
