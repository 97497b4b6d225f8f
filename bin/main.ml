(* srpc — command-line driver for the Smart-RPC reproduction.

   One subcommand per experiment: `table1`, `fig4`, `fig6` and `fig7`
   regenerate the paper's evaluation (section 4); `ablations`, `hints`,
   `wan`, `kv`, `scale` and `manual` the ablations and derived
   experiments; `adaptive`, `faults`, `delta`, `traffic`, `soak` and
   `offload` the gated experiments, which write BENCH_<name>.json and
   exit 1 when a gate fails. `smoke` runs the gated experiments scaled
   down and `all` runs every experiment with its defaults. `run`,
   `inspect`, `lint` and `check` drive the runtime and its analyses
   directly. *)

open Cmdliner
open Srpc_workloads
open Srpc_memory
module T = Srpc_traffic.Traffic
module S = Srpc_traffic.Soak

(* --verbose turns on the runtime's debug logging (swizzles, faults,
   fetches, frames) on stderr. *)
let setup_logs verbose =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (if verbose then Some Logs.Debug else Some Logs.Warning)

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log runtime events.")

let arch_conv =
  Arg.enum
    (List.map
       (fun a -> (a.Arch.name, a))
       [ Arch.sparc32; Arch.ilp32_le; Arch.lp64_le; Arch.lp64_be ])

let method_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ "eager" ] -> Ok Experiments.Fully_eager
    | [ "lazy" ] -> Ok Experiments.Fully_lazy
    | [ "proposed" ] -> Ok (Experiments.Proposed 8192)
    | [ "proposed"; n ] -> (
      match int_of_string_opt n with
      | Some n -> Ok (Experiments.Proposed n)
      | None -> Error (`Msg "proposed:<bytes>"))
    | _ -> Error (`Msg "expected eager | lazy | proposed[:<closure bytes>]")
  in
  Arg.conv (parse, fun ppf m -> Format.pp_print_string ppf (Experiments.method_name m))

let depth_arg =
  Arg.(value & opt int 15 & info [ "depth" ] ~docv:"D" ~doc:"Tree depth (2^D-1 nodes).")

let closure_arg =
  Arg.(value & opt int 8192 & info [ "closure" ] ~docv:"BYTES" ~doc:"Closure size.")

let ratios_arg default =
  Arg.(
    value
    & opt (list float) default
    & info [ "ratios" ] ~docv:"R,R,..." ~doc:"Access ratios to sweep.")

(* [n + 1] evenly spaced ratios: 0, 1/n, ..., 1. *)
let steps n = List.init (n + 1) (fun i -> float_of_int i /. float_of_int n)

let pp_run tag (r : Experiments.run) =
  Printf.printf
    "%-20s %10.4f s | visited %7d | callbacks %6d | msgs %6d | bytes %9d | \
     faults %6d | cache pages %5d\n"
    tag r.Experiments.seconds r.visited r.callbacks r.messages r.bytes r.faults
    r.cache_pages

(* A subcommand's term evaluates to its exit code; one without a gate
   exits 0 unless it calls [exit] itself. *)
let ungated name ~doc term =
  Cmd.v (Cmd.info name ~doc) Term.(const (fun () -> 0) $ term)

(* Draws one curve per (label, y) over the rows' [x] values. *)
let plot ~x_label ~y_label x rows curves =
  print_string
    (Ascii_plot.render ~x_label ~y_label
       (List.map
          (fun (label, y) ->
            { Ascii_plot.label; points = List.map (fun r -> (x r, y r)) rows })
          curves))

let table1_cmd =
  let run verbose =
    setup_logs verbose;
    Experiments.table1 Format.std_formatter ();
    Format.print_newline ()
  in
  ungated "table1" ~doc:"Render the paper's Table 1 example."
    Term.(const run $ verbose_arg)

let fig4_cmd =
  let run depth ratios closure =
    let rows = Experiments.fig4 ~depth ~ratios ~closure () in
    let ratio (r : Experiments.fig4_row) = r.ratio in
    Format.printf "%a@." Experiments.pp_fig4 rows;
    print_newline ();
    plot ~x_label:"access ratio" ~y_label:"processing time (s)" ratio rows
      [
        ("fully eager", fun r -> r.eager.seconds);
        ("fully lazy", fun r -> r.lazy_.seconds);
        ("proposed", fun r -> r.proposed.seconds);
      ];
    print_newline ();
    Format.printf "%a@." Experiments.pp_fig5 rows;
    print_newline ();
    plot ~x_label:"access ratio" ~y_label:"callbacks" ratio rows
      [
        ("fully lazy", fun r -> float_of_int r.lazy_.callbacks);
        ("proposed", fun r -> float_of_int r.proposed.callbacks);
      ]
  in
  ungated "fig4" ~doc:"Fig. 4/5: three methods vs access ratio."
    Term.(const run $ depth_arg $ ratios_arg (steps 10) $ closure_arg)

let fig6_cmd =
  let depths =
    Arg.(
      value
      & opt (list int) [ 14; 15; 16 ]
      & info [ "depths" ] ~docv:"D,D,..." ~doc:"Tree depths.")
  in
  let closures =
    Arg.(
      value
      & opt (list int) [ 512; 1024; 2048; 4096; 8192; 16384; 32768; 65536 ]
      & info [ "closures" ] ~docv:"B,B,..." ~doc:"Closure sizes (bytes).")
  in
  let repeats =
    Arg.(value & opt int 10 & info [ "repeats" ] ~docv:"N" ~doc:"Searches per call.")
  in
  let descents =
    Arg.(value & flag & info [ "descents" ]
           ~doc:"Use the path-descent reading of the workload.")
  in
  let run depths closures repeats descents =
    if descents then begin
      Format.printf
        "Fig. 6 under the descent reading (%d root-to-leaf paths per call):@."
        repeats;
      Format.printf "%a@." Experiments.pp_fig6
        (Experiments.fig6_descents ~depths ~closures ~paths:repeats ())
    end
    else begin
      let rows = Experiments.fig6 ~depths ~closures ~repeats () in
      Format.printf "%a@." Experiments.pp_fig6 rows;
      print_newline ();
      plot ~x_label:"closure size (KB)" ~y_label:"processing time (s)"
        (fun (r : Experiments.fig6_row) ->
          float_of_int r.closure_bytes /. 1024.0)
        rows
        (List.map
           (fun d ->
             ( Printf.sprintf "%d nodes" (Tree.nodes_of_depth d),
               fun (r : Experiments.fig6_row) ->
                 (List.assoc d r.by_depth).seconds ))
           depths)
    end
  in
  ungated "fig6" ~doc:"Fig. 6: closure-size sweep with repeated searches."
    Term.(const run $ depths $ closures $ repeats $ descents)

let fig7_cmd =
  let run depth ratios closure =
    let rows = Experiments.fig7 ~depth ~ratios ~closure () in
    Format.printf "%a@." Experiments.pp_fig7 rows;
    print_newline ();
    plot ~x_label:"update ratio" ~y_label:"processing time (s)"
      (fun (r : Experiments.fig7_row) -> r.ratio7)
      rows
      [
        ("updated", fun r -> r.updated.seconds);
        ("not updated", fun r -> r.not_updated.seconds);
      ]
  in
  ungated "fig7" ~doc:"Fig. 7: update performance vs update ratio."
    Term.(const run $ depth_arg $ ratios_arg (steps 10) $ closure_arg)

let kv_cmd =
  let keys = Arg.(value & opt int 4000 & info [ "keys" ] ~docv:"N") in
  let run keys =
    Experiments.pp_kv Format.std_formatter (Experiments.kv_store ~keys ());
    Format.print_newline ()
  in
  ungated "kv" ~doc:"Remote B-tree key-value store under the three methods."
    Term.(const run $ keys)

let wan_cmd =
  let factor =
    Arg.(value & opt float 50.0 & info [ "latency-factor" ] ~docv:"F")
  in
  let run depth ratios closure factor =
    Format.printf "Fig. 4 with the caller-callee link behind a %gx-latency WAN:@."
      factor;
    Format.printf "%a@." Experiments.pp_fig4
      (Experiments.fig4_wan ~depth ~ratios ~closure ~latency_factor:factor ())
  in
  ungated "wan" ~doc:"Fig. 4 with the caller-callee link behind a WAN."
    Term.(const run $ depth_arg $ ratios_arg (steps 5) $ closure_arg $ factor)

let hints_cmd =
  let cells = Arg.(value & opt int 400 & info [ "cells" ] ~docv:"N") in
  let run cells closure =
    Experiments.pp_hint_rows Format.std_formatter
      (Experiments.ablation_closure_hints ~cells ~closure ());
    Format.print_newline ()
  in
  ungated "hints" ~doc:"Closure-hint ablation (paper section 6)."
    Term.(const run $ cells $ closure_arg)

let ablations_cmd =
  let run () =
    let a1 = Experiments.ablation_alloc_strategy () in
    let a2 = Experiments.ablation_closure_shape () in
    let a3 = Experiments.ablation_alloc_batching () in
    let a4 = Experiments.ablation_writeback_grain () in
    Format.printf "%a@." Experiments.pp_ablations (a1, a2, a3, a4);
    Format.print_newline ();
    Format.printf "%a@." Experiments.pp_hint_rows
      (Experiments.ablation_closure_hints ());
    Format.print_newline ();
    Format.printf "%a@." Experiments.pp_page_rows
      (Experiments.ablation_page_size ())
  in
  ungated "ablations" ~doc:"Run the design-choice ablations A1-A6."
    Term.(const run $ const ())

let scale_cmd =
  let run () =
    Format.printf "%a@." Experiments.pp_scaling (Experiments.scaling ())
  in
  ungated "scale" ~doc:"Session width scaling over a nested relay chain."
    Term.(const run $ const ())

let manual_cmd =
  let run () =
    Format.printf "%a@." Experiments.pp_manual
      (Experiments.manual_comparison ())
  in
  ungated "manual" ~doc:"Hand-written protocols vs transparent pointers."
    Term.(const run $ const ())

let run_cmd =
  let method_arg =
    Arg.(
      value
      & opt method_conv (Experiments.Proposed 8192)
      & info [ "method" ] ~docv:"M" ~doc:"eager | lazy | proposed[:bytes].")
  in
  let ratio_arg =
    Arg.(value & opt float 1.0 & info [ "ratio" ] ~docv:"R" ~doc:"Access ratio.")
  in
  let update_arg =
    Arg.(value & flag & info [ "update" ] ~doc:"Update every visited node.")
  in
  let repeats_arg =
    Arg.(value & opt int 1 & info [ "repeats" ] ~docv:"N" ~doc:"Calls per session.")
  in
  let caller_arch =
    Arg.(value & opt arch_conv Arch.sparc32 & info [ "caller-arch" ] ~docv:"A")
  in
  let callee_arch =
    Arg.(value & opt arch_conv Arch.sparc32 & info [ "callee-arch" ] ~docv:"A")
  in
  let run verbose m depth ratio update repeats caller callee =
    setup_logs verbose;
    let r =
      Experiments.run_tree_search ~update ~repeats ~arches:(caller, callee)
        ~strategy:(Experiments.strategy_of_method m) ~depth ~ratio ()
    in
    pp_run (Experiments.method_name m) r
  in
  ungated "run" ~doc:"Run one tree-search experiment with explicit knobs."
    Term.(
      const run $ verbose_arg $ method_arg $ depth_arg $ ratio_arg $ update_arg
      $ repeats_arg $ caller_arch $ callee_arch)

let inspect_cmd =
  (* run a small traced scenario and dump the runtime's internal state:
     wire trace, callee introspection (data allocation table), final
     statistics *)
  let run verbose depth =
    setup_logs verbose;
    let cluster = Experiments.strategy_of_method (Experiments.Proposed 1024) |> fun strategy ->
      let cluster = Srpc_core.Cluster.create () in
      let a = Srpc_core.Cluster.add_node cluster ~site:1 ~strategy () in
      let b = Srpc_core.Cluster.add_node cluster ~site:2 ~strategy () in
      Srpc_workloads.Tree.register_types cluster;
      let root = Srpc_workloads.Tree.build a ~depth in
      Srpc_core.Node.register b "visit" (fun node args ->
          let open Srpc_core in
          let visited, _ =
            Srpc_workloads.Tree.visit node (Access.of_value (List.hd args))
              ~limit:max_int
          in
          [ Value.int visited ]);
      let trace = Srpc_simnet.Trace.create () in
      Srpc_simnet.Transport.set_trace (Srpc_core.Cluster.transport cluster) (Some trace);
      Srpc_core.Node.begin_session a;
      ignore
        (Srpc_core.Node.call a ~dst:(Srpc_core.Node.id b) "visit"
           [ Srpc_core.Access.to_value root ]);
      Format.printf "wire trace:@.%a@.@." Srpc_simnet.Trace.pp trace;
      Format.printf "callee state before teardown:@.%a@." Srpc_core.Introspect.pp b;
      Srpc_core.Node.end_session a;
      cluster
    in
    Format.printf "@.final statistics: %a@.simulated time: %.6f s@."
      Srpc_simnet.Stats.pp_snapshot
      (Srpc_core.Cluster.snapshot cluster)
      (Srpc_core.Cluster.now cluster)
  in
  let depth = Arg.(value & opt int 5 & info [ "depth" ] ~docv:"D") in
  ungated "inspect" ~doc:"Trace a small RPC and dump the runtime's state."
    Term.(const run $ verbose_arg $ depth)

(* --- lint: static descriptor analysis + session-protocol verification --- *)

(* Every type the shipped examples and workloads register, combined in
   one registry: the linter's "shipped surface". Keep in sync with
   examples/ and lib/workloads (the example-local descriptors are
   repeated here verbatim). *)
let example_registry () =
  let module T = Srpc_types.Type_desc in
  let cluster = Srpc_core.Cluster.create () in
  Tree.register_types cluster;
  Linked_list.register_types cluster;
  Btree.register_types cluster;
  Graph.register_types cluster;
  Hash_table.register_types cluster;
  Matrix.register_types cluster;
  (* examples/nested_session.ml *)
  Srpc_core.Cluster.register_type cluster "counter"
    (T.Struct [ ("value", T.i64) ]);
  (* lib/workloads/experiments.ml, closure-hint ablation *)
  Srpc_core.Cluster.register_type cluster "blob"
    (T.Struct [ ("payload", T.Array (T.f64, 64)) ]);
  Srpc_core.Cluster.register_type cluster "rcell"
    (T.Struct
       [ ("next", T.ptr "rcell"); ("blob", T.ptr "blob"); ("tag", T.i64) ]);
  Srpc_core.Cluster.registry cluster

(* A scripted session that exercises the whole protocol — nested calls,
   a callback into the ground space, dirty data, the session-close
   write-back and invalidation — recorded as a trace for the verifier. *)
let traced_session () =
  let open Srpc_core in
  let cluster = Cluster.create () in
  let a = Cluster.add_node cluster ~site:1 () in
  let b = Cluster.add_node cluster ~site:2 () in
  let c = Cluster.add_node cluster ~site:3 () in
  Linked_list.register_types cluster;
  let trace = Srpc_simnet.Trace.create () in
  Srpc_simnet.Transport.set_trace (Cluster.transport cluster) (Some trace);
  Node.register a "bonus" (fun _ _ -> [ Value.int 1 ]);
  Node.register c "sum" (fun node args ->
      let p = Access.of_value (List.hd args) in
      let bonus =
        match Node.call node ~dst:(Node.id a) "bonus" [] with
        | [ v ] -> Value.to_int v
        | _ -> 0
      in
      (* dirty one cell so the session close has data to write back *)
      let v = Access.get_int node p ~field:"value" in
      Access.set_int node p ~field:"value" (v + bonus);
      [ Value.int (Linked_list.sum node p) ]);
  Node.register b "relay" (fun node args ->
      Node.call node ~dst:(Node.id c) "sum" args);
  let head = Linked_list.build a [ 1; 2; 3; 4 ] in
  Node.with_session a (fun () ->
      ignore (Node.call a ~dst:(Node.id b) "relay" [ Access.to_value head ]));
  trace

let report_diags header diags =
  let module D = Srpc_analysis.Diagnostic in
  if diags = [] then Format.printf "%s: ok, 0 findings@." header
  else
    Format.printf "%s: %d finding(s), %d error(s)@.%a@." header
      (List.length diags) (D.count_errors diags) D.pp_list diags;
  D.count_errors diags

let lint_cmd =
  let types_flag =
    Arg.(value & flag & info [ "types" ]
           ~doc:"Lint the type descriptors registered by the shipped \
                 examples and workloads.")
  in
  let trace_flag =
    Arg.(value & flag & info [ "trace" ]
           ~doc:"Record a representative session and verify the trace \
                 against the protocol invariants.")
  in
  let races_flag =
    Arg.(value & flag & info [ "races" ]
           ~doc:"Replay the representative session through the \
                 happens-before race checker.")
  in
  let footprints_flag =
    Arg.(value & flag & info [ "footprints" ]
           ~doc:"Compute per-session static footprints for a sample \
                 generated check script and report which session pairs \
                 could safely overlap.")
  in
  let all_flag = Arg.(value & flag & info [ "all" ] ~doc:"Run every engine.") in
  let rules_flag =
    Arg.(value & flag & info [ "rules" ] ~doc:"Print the rule catalogue and exit.")
  in
  let markdown_flag =
    Arg.(value & flag & info [ "markdown" ]
           ~doc:"With --rules, render the catalogue as the markdown table \
                 embedded in docs/RULES.md.")
  in
  let arches_arg =
    Arg.(
      value
      & opt (list arch_conv) [ Arch.sparc32 ]
      & info [ "arch" ] ~docv:"A,A,..."
          ~doc:"Architectures the registry must agree on (the TD005 \
                divergence rule needs at least two).")
  in
  let run verbose types trace races footprints all rules markdown arches =
    setup_logs verbose;
    if rules then
      (if markdown then Srpc_analysis.Diagnostic.pp_rules_markdown
       else Srpc_analysis.Diagnostic.pp_rules)
        Format.std_formatter ()
    else begin
      let types = types || all in
      let trace = trace || all in
      let races = races || all in
      let footprints = footprints || all in
      if not (types || trace || races || footprints) then begin
        prerr_endline
          "lint: nothing to do (pass --types, --trace, --races, --footprints \
           or --all)";
        exit 2
      end;
      let errors = ref 0 in
      if types then
        errors :=
          !errors
          + report_diags "descriptor lint"
              (Srpc_analysis.Desc_lint.check ~arches (example_registry ()));
      if trace then
        errors :=
          !errors
          + report_diags "protocol trace"
              (Srpc_analysis.Proto_lint.check (traced_session ()));
      if races then
        errors :=
          !errors
          + report_diags "race check (representative session)"
              (Srpc_analysis.Race_lint.check (traced_session ()));
      if footprints then begin
        (* serial sessions of one script interfering is expected — the
           report says which pairs PR 7's admission could overlap, so
           it never contributes to the error exit *)
        let module C = Srpc_check in
        let module F = Srpc_analysis.Footprint in
        let plan = C.Script.resolve (C.Runner.script_for ~depth:12 ~faults:0.0 0) in
        let fps = C.Plan_footprint.sessions plan in
        Format.printf "session footprints (generated check script, seed 0):@.";
        List.iter (fun fp -> Format.printf "%a@." F.pp fp) fps;
        Format.printf "pairwise interference:@.";
        List.iteri
          (fun i a ->
            List.iteri
              (fun j b ->
                if j > i then
                  match F.interferes a b with
                  | [] ->
                      Format.printf "  %s x %s: disjoint — could overlap@."
                        a.F.label b.F.label
                  | ds ->
                      Format.printf "  %s x %s: must stay serial (%s)@."
                        a.F.label b.F.label
                        (String.concat ", "
                           (List.sort_uniq String.compare
                              (List.map
                                 (fun d ->
                                   d.Srpc_analysis.Diagnostic.rule_id)
                                 ds))))
              fps)
          fps
      end;
      if !errors > 0 then exit 1
    end
  in
  ungated "lint"
    ~doc:"Static analysis (type descriptors, session footprints) and \
          trace verification (protocol invariants, happens-before \
          races); non-zero exit on error findings."
    Term.(
      const run $ verbose_arg $ types_flag $ trace_flag $ races_flag
      $ footprints_flag $ all_flag $ rules_flag $ markdown_flag $ arches_arg)

let check_cmd =
  let seeds_arg =
    Arg.(value & opt int 100 & info [ "seeds" ] ~docv:"N"
           ~doc:"Number of generation seeds to run (0 .. N-1).")
  in
  let depth_arg =
    Arg.(value & opt int 25 & info [ "depth" ] ~docv:"D"
           ~doc:"Operations per generated script.")
  in
  let faults_arg =
    Arg.(value & opt float 0.0 & info [ "faults" ] ~docv:"P"
           ~doc:"Frame-drop probability for the fault schedule; when \
                 positive, every odd seed runs with faults injected \
                 (drop P, duplicate P/2).")
  in
  let replay_arg =
    Arg.(value & opt (some file) None & info [ "replay" ] ~docv:"FILE"
           ~doc:"Rerun one committed repro file byte-for-byte instead of \
                 generating scripts.")
  in
  let out_arg =
    Arg.(value & opt string "srpc-check-repro.sexp"
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Where to write the shrunk reproducer on failure.")
  in
  let dump_arg =
    Arg.(value & opt (some int) None & info [ "dump" ] ~docv:"SEED"
           ~doc:"Write the script generated for $(docv) (honouring --depth \
                 and --faults) to --out and exit, without running it.")
  in
  let module C = Srpc_check in
  let show_script ppf s = C.Script.pp ppf s in
  let run verbose seeds depth faults replay dump out =
    setup_logs verbose;
    match (replay, dump) with
    | _, Some seed ->
      let script = C.Runner.script_for ~depth ~faults seed in
      let oc = open_out out in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
          output_string oc (C.Sexp.to_string (C.Script.to_sexp ~seed script));
          output_char oc '\n');
      Format.printf "check: script for seed %d written to %s@." seed out
    | Some file, None ->
      let contents =
        let ic = open_in_bin file in
        Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
            really_input_string ic (in_channel_length ic))
      in
      let gen_seed, script =
        try C.Script.of_sexp (C.Sexp.of_string contents)
        with C.Sexp.Parse_error msg ->
          Format.eprintf "check: cannot parse %s: %s@." file msg;
          exit 2
      in
      (match C.Runner.replay script with
      | Ok () ->
        Format.printf "check: repro %s (seed %d) passes — all oracles agree@."
          file gen_seed
      | Error msg ->
        Format.printf "check: repro %s (seed %d) still fails:@,  %s@." file
          gen_seed msg;
        exit 1)
    | None, None -> (
      if seeds <= 0 then begin
        prerr_endline "check: --seeds must be positive";
        exit 2
      end;
      match C.Runner.check ~seeds ~depth ~faults () with
      | C.Runner.Ok stats ->
        Format.printf
          "check: %d runs ok (%d completed, %d clean aborts, %d with faults) — \
           zero oracle or protocol violations@."
          stats.C.Runner.runs stats.C.Runner.completed stats.C.Runner.aborted
          stats.C.Runner.fault_runs
      | C.Runner.Failed { seed; failure; shrunk; shrunk_failure; shrink_evals; _ }
        ->
        Format.printf "check: seed %d FAILED: %a@." seed C.Runner.pp_failure
          failure;
        Format.printf
          "check: shrunk to %d op(s) in %d evaluations, still failing: %a@."
          (List.length shrunk.C.Script.ops)
          shrink_evals C.Runner.pp_failure shrunk_failure;
        Format.printf "@[<v>%a@]@." show_script shrunk;
        let oc = open_out out in
        Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
            output_string oc (C.Sexp.to_string (C.Script.to_sexp ~seed shrunk));
            output_char oc '\n');
        Format.printf "check: reproducer written to %s (rerun with `srpc \
                       check --replay %s`)@."
          out out;
        exit 1)
  in
  ungated "check"
    ~doc:"Deterministic model checking: run generated scripts against \
          the sequential oracle and the protocol verifier, shrinking \
          any failure to a minimal reproducer."
    Term.(
      const run $ verbose_arg $ seeds_arg $ depth_arg $ faults_arg $ replay_arg
      $ dump_arg $ out_arg)

(* --- gated experiments ---

   Each gated experiment is three functions over one measured value:
   [<name>_measure], whose arguments are the preset; [<name>_gate],
   which prints the verdict lines and returns the checks; and
   [<name>_json]. Each gate threshold is one named value that the check
   and the JSON share. The subcommand measures the full preset and
   [smoke] the scaled-down one; both hand the result to [report]. *)

(* One gate check: whether it holds, and what to report when it does
   not. *)
let check ok fmt = Printf.ksprintf (fun msg -> (ok, msg)) fmt

let bench_file name = "BENCH_" ^ name ^ ".json"

(* Prints the table, writes the JSON to [out] (default BENCH_<name>.json)
   and the gate's verdicts; returns how many checks failed. *)
let report ?out ~name ~pp ~gate ~json m =
  let out = Option.value out ~default:(bench_file name) in
  pp m;
  Json.to_file out (json m);
  Printf.printf "wrote %s\n" out;
  let failed = List.filter (fun (ok, _) -> not ok) (gate m) in
  List.iter (fun (_, msg) -> Printf.printf "FAIL %s %s\n" name msg) failed;
  List.length failed

let exit_code failures = if failures > 0 then 1 else 0

let gated name ~doc term =
  Cmd.v (Cmd.info name ~doc) Term.(const exit_code $ term)

let policy_name = function
  | Srpc_core.Strategy.Queue_conflicts -> "queue"
  | Srpc_core.Strategy.Abort_retry -> "abort-retry"

let contention_name = function T.Disjoint -> "disjoint" | T.Hot -> "hot"

(* --- adaptive policy --- *)

(* The adaptive controller's final session must come within this factor
   of the best static method (fully eager, fully lazy, smart-8192) at
   every access ratio. *)
let adaptive_factor = 1.15

(* The final session's seconds and bytes, the best static competitor's
   seconds, and whether the final session is within [adaptive_factor]
   of it. *)
let adaptive_verdict (r : Experiments.adaptive_fig4_row) =
  let final_s, final_bytes =
    match List.rev r.af_adaptive.a_sessions with
    | last :: _ -> (last.seconds, last.bytes)
    | [] -> (infinity, 0)
  in
  let best = min r.af_eager.seconds (min r.af_lazy.seconds r.af_smart.seconds) in
  (final_s, final_bytes, best, final_s <= (adaptive_factor *. best) +. 1e-9)

let adaptive_measure ~depth ?ratios ~sessions ~closure () =
  ((depth, sessions, closure), Experiments.adaptive_fig4 ~depth ?ratios ~sessions ~closure ())

let adaptive_gate (_, rows) =
  List.map
    (fun (r : Experiments.adaptive_fig4_row) ->
      let final_s, _, best, pass = adaptive_verdict r in
      Printf.printf "ratio %.2f  adaptive %.6fs  best static %.6fs  x%.3f  %s\n"
        r.af_ratio final_s best (final_s /. best)
        (if pass then "ok" else "FAIL");
      check pass "ratio %.2f: final session x%.3f the best static, above x%.2f"
        r.af_ratio (final_s /. best) adaptive_factor)
    rows

let adaptive_json ((depth, sessions, closure), rows) =
  let row (r : Experiments.adaptive_fig4_row) =
    let final_s, final_bytes, best, pass = adaptive_verdict r in
    let curve = List.map (fun (s : Experiments.run) -> Json.Num s.seconds) r.af_adaptive.a_sessions in
    Json.(
      Obj
        [
          ("ratio", Num r.af_ratio); ("eager_s", Num r.af_eager.seconds);
          ("lazy_s", Num r.af_lazy.seconds); ("smart_s", Num r.af_smart.seconds);
          ("eager_bytes", Int r.af_eager.bytes); ("lazy_bytes", Int r.af_lazy.bytes);
          ("smart_bytes", Int r.af_smart.bytes); ("adaptive_final_bytes", Int final_bytes);
          ("adaptive_final_s", Num final_s); ("best_static_s", Num best);
          ("adaptive_over_best", Num (final_s /. best)); ("pass", Bool pass);
          ("adaptive_sessions_s", Arr curve);
          ("budgets", Obj (List.map (fun (ty, b) -> (ty, Int b)) r.af_adaptive.a_budgets));
        ])
  in
  Json.(
    Obj
      [
        ("experiment", Str "adaptive_fig4"); ("depth", Int depth);
        ("sessions", Int sessions); ("closure_bytes", Int closure);
        ("acceptance_factor", Num adaptive_factor); ("rows", Arr (List.map row rows));
      ])

let adaptive m =
  report ~name:"adaptive" m ~gate:adaptive_gate ~json:adaptive_json
    ~pp:(fun (_, rows) -> Format.printf "%a@." Experiments.pp_adaptive_fig4 rows)

(* --- faults --- *)

(* The retry envelope may cost at most [faults_overhead_bound] at zero
   fault rate; at drop rates up to [faults_low_drop], at least
   [faults_min_completion] of a cell's sessions must complete. *)
let faults_overhead_bound = 1.05
let faults_low_drop = 0.01
let faults_min_completion = 0.8

(* [depth] and [ratio] place the envelope-overhead point, which is what
   the JSON records; the chaos sweep runs [sessions] per cell at
   [sweep_depth]. *)
let faults_measure ~depth ~ratio ~sweep_depth ~sessions () =
  ( (depth, ratio, sessions),
    Experiments.measure_faults_overhead ~depth ~ratio (),
    Experiments.faults_sweep ~depth:sweep_depth ~sessions () )

(* Beyond the thresholds: no completed session may return a wrong
   result, and every session must be accounted for. *)
let faults_gate (_, (ov : Experiments.faults_overhead), cells) =
  check
    (ov.fo_ratio <= faults_overhead_bound +. 1e-9)
    "envelope overhead x%.4f exceeds %.2f" ov.fo_ratio faults_overhead_bound
  :: List.concat_map
       (fun (f : Experiments.faults_summary) ->
         let cell = Printf.sprintf "drop %.2f %s" f.f_drop f.f_strategy in
         [
           check (f.f_wrong = 0) "%s: %d wrong result(s)" cell f.f_wrong;
           check
             (f.f_completed + f.f_aborted = f.f_sessions)
             "%s: %d session(s) unaccounted for" cell
             (f.f_sessions - f.f_completed - f.f_aborted);
           check
             (f.f_drop > faults_low_drop +. 1e-9
             || float_of_int f.f_completed
                >= faults_min_completion *. float_of_int f.f_sessions)
             "%s: only %d/%d sessions completed" cell f.f_completed f.f_sessions;
         ])
       cells

let faults_json ((depth, ratio, sessions), (ov : Experiments.faults_overhead), cells) =
  let cell (f : Experiments.faults_summary) =
    Json.(
      Obj
        [
          ("drop", Num f.f_drop); ("strategy", Str f.f_strategy);
          ("sessions", Int f.f_sessions); ("completed", Int f.f_completed);
          ("aborted", Int f.f_aborted); ("wrong", Int f.f_wrong);
          ("retries", Int f.f_retries); ("timeouts", Int f.f_timeouts);
          ("duplicates", Int f.f_duplicates); ("mean_completed_s", Num f.f_seconds);
        ])
  in
  Json.(
    Obj
      [
        ("experiment", Str "faults"); ("depth", Int depth); ("ratio", Num ratio);
        ("sessions_per_cell", Int sessions);
        ( "overhead",
          Obj
            [
              ("plain_s", Num ov.fo_plain.seconds); ("envelope_s", Num ov.fo_envelope.seconds);
              ("ratio", Num ov.fo_ratio); ("bound", Num faults_overhead_bound);
            ] );
        ("cells", Arr (List.map cell cells));
      ])

let faults m =
  report ~name:"faults" m ~gate:faults_gate ~json:faults_json
    ~pp:(fun (_, ov, cells) -> Format.printf "%a@." Experiments.pp_faults (ov, cells))

(* --- delta coherency --- *)

(* On the single-field update the delta run may ship at most this share
   of the full run's write-back bytes (it ships about 0.5%). *)
let delta_wb_bound = 0.5

(* Two flag-off runs, so the gate can check they are identical. *)
let delta_measure ~depth () =
  let off = Experiments.run_field_update ~delta:false () in
  let off2 = Experiments.run_field_update ~delta:false () in
  let on = Experiments.run_field_update ~delta:true () in
  (off, off2, on, Experiments.delta_fig4 ~depth ())

(* Beyond the write-back bound: invalidation must reach exactly the
   caching spaces, and with the flag off the wire must look exactly
   like the pre-delta protocol, with no delta counters and the same
   traffic on every run. (Copy and Inval_sent provenance notes are
   zero-byte witnesses recorded in every mode for the offline linters,
   so they are not a fingerprint.) *)
let delta_gate
    ( (off : Experiments.delta_run),
      (off2 : Experiments.delta_run),
      (on : Experiments.delta_run),
      rows ) =
  [
    check off.dl_check "flag-off home missed a poked value";
    check on.dl_check "flag-on home missed a poked value";
    check
      (float_of_int on.dl_wb_bytes <= delta_wb_bound *. float_of_int off.dl_wb_bytes)
      "delta write-back bytes %d exceed %.2f of full %d" on.dl_wb_bytes
      delta_wb_bound off.dl_wb_bytes;
    check
      (on.dl_inval_sent = on.dl_cachers)
      "%d invalidation(s) for %d caching space(s)" on.dl_inval_sent on.dl_cachers;
    check
      (on.dl_cachers = 1 && on.dl_inval_skipped = 2)
      "expected 1 cacher and 2 spared idlers, got %d and %d" on.dl_cachers
      on.dl_inval_skipped;
    check
      (off.dl_saved = 0 && off.dl_fallbacks = 0 && off.dl_inval_skipped = 0)
      "flag off left delta fingerprints (counters)";
    check
      (off.dl_run.messages = off2.dl_run.messages
      && off.dl_run.bytes = off2.dl_run.bytes
      && off.dl_wb_bytes = off2.dl_wb_bytes)
      "flag-off runs are not byte-identical";
  ]
  @ List.map
      (fun (r : Experiments.delta_fig4_row) ->
        check
          (r.dm_on.dc_wb_bytes <= r.dm_off.dc_wb_bytes)
          "%s: delta on ships more write-back bytes (%d > %d)"
          (Experiments.method_name r.dm_method)
          r.dm_on.dc_wb_bytes r.dm_off.dc_wb_bytes)
      rows

let delta_json ((off : Experiments.delta_run), _, (on : Experiments.delta_run), rows) =
  let field delta (r : Experiments.delta_run) =
    Json.(
      Obj
        [
          ("delta", Bool delta); ("wb_bytes", Int r.dl_wb_bytes); ("saved", Int r.dl_saved);
          ("fallbacks", Int r.dl_fallbacks); ("copies", Int r.dl_copies);
          ("cachers", Int r.dl_cachers); ("inval_sent", Int r.dl_inval_sent);
          ("inval_skipped", Int r.dl_inval_skipped); ("messages", Int r.dl_run.messages);
          ("bytes", Int r.dl_run.bytes); ("check", Bool r.dl_check);
        ])
  in
  let fig4 (r : Experiments.delta_fig4_row) =
    Json.(
      Obj
        [
          ("method", Str (Experiments.method_name r.dm_method));
          ("off_wb_bytes", Int r.dm_off.dc_wb_bytes); ("on_wb_bytes", Int r.dm_on.dc_wb_bytes);
          ("saved", Int r.dm_on.dc_saved); ("fallbacks", Int r.dm_on.dc_fallbacks);
        ])
  in
  Json.(
    Obj
      [
        ("experiment", Str "delta_coherency"); ("wb_bytes_bound", Num delta_wb_bound);
        ("field_update", Arr [ field false off; field true on ]);
        ("fig4_update", Arr (List.map fig4 rows));
      ])

let delta m =
  report ~name:"delta" m ~gate:delta_gate ~json:delta_json
    ~pp:(fun (off, _, on, rows) ->
      Format.printf "%a@." (fun ppf () -> Experiments.pp_delta ppf [ off; on ] rows) ())

(* --- traffic --- *)

(* Admission-disjoint clients must beat the serialized replay of the
   same session population by this factor on committed-session
   throughput. Contended rows gate only on linter cleanliness and full
   commitment. *)
let traffic_speedup_gate = 2.0

let traffic_measure cfgs = List.map (fun cfg -> (cfg, T.compare_runs cfg)) cfgs

let traffic_pp rows =
  List.iter
    (fun ((cfg : T.config), (cmp : T.comparison)) ->
      let c = cmp.concurrent in
      Format.printf
        "seed %d: %d/%d committed  tput %.1f/s (serialized %.1f/s, \
         x%.2f)  p50 %.4fs p95 %.4fs p99 %.4fs@."
        cfg.seed c.r_committed c.r_sessions c.r_throughput
        cmp.serialized.r_throughput cmp.speedup c.r_p50 c.r_p95 c.r_p99;
      Format.printf
        "        admitted %d queued %d denied %d retried %d \
         validation-failed %d races %d proto %d@."
        c.r_admitted c.r_queued c.r_denied c.r_retried c.r_validation_failed
        c.r_race_errors c.r_proto_errors)
    rows

let traffic_gate rows =
  List.concat_map
    (fun ((cfg : T.config), (cmp : T.comparison)) ->
      let c = cmp.concurrent in
      let label =
        match cfg.contention with
        | T.Disjoint -> Printf.sprintf "disjoint seed %d" cfg.seed
        | T.Hot -> "hot/" ^ policy_name cfg.policy
      in
      Printf.printf
        "traffic %-16s %2d/%2d committed  x%.2f serialized  races %d  proto %d\n"
        label c.r_committed c.r_sessions cmp.speedup c.r_race_errors
        c.r_proto_errors;
      [
        check (c.r_committed = c.r_sessions) "%s: %d/%d sessions committed" label
          c.r_committed c.r_sessions;
        check (c.r_race_errors = 0) "%s: %d Race_lint error(s)" label c.r_race_errors;
        check (c.r_proto_errors = 0) "%s: %d Proto_lint error(s)" label c.r_proto_errors;
        check
          (cfg.contention = T.Hot || cmp.speedup >= traffic_speedup_gate)
          "%s: speedup x%.2f below the x%.1f gate" label cmp.speedup
          traffic_speedup_gate;
      ])
    rows

(* Each row carries its own configuration: rows may differ in any of it. *)
let traffic_json rows =
  let row ((cfg : T.config), (cmp : T.comparison)) =
    let c = cmp.concurrent in
    Json.(
      Obj
        [
          ("seed", Int cfg.seed); ("contention", Str (contention_name cfg.contention));
          ("policy", Str (policy_name cfg.policy)); ("clients", Int cfg.clients);
          ("servers", Int cfg.servers); ("rate_per_client_per_s", Num cfg.rate);
          ("sessions_per_client", Int cfg.sessions_per_client);
          ("sessions", Int c.r_sessions); ("committed", Int c.r_committed);
          ("aborted", Int c.r_aborted); ("makespan_s", Num c.r_makespan);
          ("throughput_per_s", Num c.r_throughput);
          ("serialized_throughput_per_s", Num cmp.serialized.r_throughput);
          ("speedup", Num cmp.speedup); ("latency_p50_s", Num c.r_p50);
          ("latency_p95_s", Num c.r_p95); ("latency_p99_s", Num c.r_p99);
          ("admitted", Int c.r_admitted); ("queued", Int c.r_queued);
          ("denied", Int c.r_denied); ("retried", Int c.r_retried);
          ("validation_failed", Int c.r_validation_failed);
          ("race_errors", Int c.r_race_errors); ("proto_errors", Int c.r_proto_errors);
        ])
  in
  Json.(
    Obj
      [
        ("experiment", Str "traffic"); ("speedup_gate", Num traffic_speedup_gate);
        ("rows", Arr (List.map row rows));
      ])

let traffic ?out m =
  report ?out ~name:"traffic" m ~pp:traffic_pp ~gate:traffic_gate ~json:traffic_json

(* --- soak --- *)

(* On disjoint rows, session completion must reach [soak_completion_gate]
   and the p99 latency stay within [soak_p99_ratio_gate] times the
   fault-free baseline's. *)
let soak_completion_gate = 0.99
let soak_p99_ratio_gate = 5.0

let soak_measure rows =
  List.map (fun (label, cfg) -> (label, cfg, S.compare_runs cfg)) rows

let soak_pp rows =
  List.iter
    (fun (label, _, (cmp : S.comparison)) ->
      let c = cmp.chaos in
      Format.printf
        "%s: %d/%d committed (%.2f%%), %d failed, %d aborted, %d \
         recovered  p50 %.4fs p99 %.4fs (fault-free p99 %.4fs, x%.2f)@."
        label c.s_committed c.s_sessions (100.0 *. c.s_completion) c.s_failed
        c.s_aborts c.s_recovered c.s_p50 c.s_p99 cmp.fault_free.s_p99
        cmp.p99_ratio;
      Format.printf
        "        crashes %d revives %d heartbeats %d suspicions %d sheds \
         %d breaker-trips %d recoveries %d validation-failed %d races %d \
         proto %d@."
        c.s_crashes c.s_revives c.s_heartbeats c.s_suspicions c.s_sheds
        c.s_breaker_trips c.s_recoveries c.s_validation_failed c.s_race_errors
        c.s_proto_errors)
    rows

(* Every row: no validation-detected lost update, no linter error, every
   session accounted for. Disjoint rows: the completion and p99 gates,
   and with a crash schedule the recovery machinery must fire (crashes
   revived, the detector probing, a session recovered). Hot rows run
   overloaded and must shed, not corrupt. *)
let soak_gate rows =
  List.concat_map
    (fun (label, (cfg : S.config), (cmp : S.comparison)) ->
      let c = cmp.chaos in
      Printf.printf
        "soak %-16s %3d/%3d committed (%.1f%%)  p99 x%.2f  aborts %d \
         recovered %d sheds %d trips %d hb %d  races %d proto %d\n"
        label c.s_committed c.s_sessions (100.0 *. c.s_completion)
        cmp.p99_ratio c.s_aborts c.s_recovered c.s_sheds c.s_breaker_trips
        c.s_heartbeats c.s_race_errors c.s_proto_errors;
      let disjoint = cfg.contention = T.Disjoint in
      let crashes = disjoint && cfg.crash_period > 0.0 in
      List.map
        (fun (ok, msg) -> (ok, label ^ ": " ^ msg))
        [
          check (c.s_validation_failed = 0) "%d validation-detected lost update(s)"
            c.s_validation_failed;
          check (c.s_race_errors = 0) "%d Race_lint error(s)" c.s_race_errors;
          check (c.s_proto_errors = 0) "%d Proto_lint error(s)" c.s_proto_errors;
          check
            (c.s_committed + c.s_failed = c.s_sessions)
            "%d committed + %d failed != %d sessions" c.s_committed c.s_failed
            c.s_sessions;
          check
            ((not disjoint) || c.s_completion >= soak_completion_gate)
            "completion %.4f below the %.2f gate" c.s_completion soak_completion_gate;
          check
            ((not disjoint) || cmp.p99_ratio <= soak_p99_ratio_gate)
            "p99 x%.2f the fault-free baseline (gate x%.1f)" cmp.p99_ratio
            soak_p99_ratio_gate;
          check
            ((not disjoint) || c.s_recoveries = c.s_recovered)
            "Stats.recoveries %d != recovered sessions %d" c.s_recoveries
            c.s_recovered;
          check
            ((not crashes) || (c.s_crashes > 0 && c.s_revives = c.s_crashes))
            "crash/revive schedule did not run (%d/%d)" c.s_crashes c.s_revives;
          check ((not crashes) || c.s_heartbeats > 0) "the failure detector never probed";
          check ((not crashes) || c.s_recovered > 0) "no session exercised crash recovery";
          check (disjoint || c.s_sheds > 0) "overload never shed (queue_cap %d, budget %d)"
            cfg.queue_cap cfg.retry_budget;
        ])
    rows

let soak_json rows =
  let row (label, (cfg : S.config), (cmp : S.comparison)) =
    let c = cmp.chaos in
    Json.(
      Obj
        [
          ("label", Str label); ("seed", Int cfg.seed);
          ("contention", Str (contention_name cfg.contention));
          ("policy", Str (policy_name cfg.policy)); ("horizon_s", Num cfg.horizon);
          ("drop", Num cfg.drop); ("dup", Num cfg.dup);
          ("crash_period_s", Num cfg.crash_period); ("outage_s", Num cfg.outage);
          ("sessions", Int c.s_sessions); ("committed", Int c.s_committed);
          ("failed", Int c.s_failed); ("aborts", Int c.s_aborts);
          ("recovered", Int c.s_recovered); ("completion", Num c.s_completion);
          ("makespan_s", Num c.s_makespan); ("throughput_per_s", Num c.s_throughput);
          ("latency_p50_s", Num c.s_p50); ("latency_p95_s", Num c.s_p95);
          ("latency_p99_s", Num c.s_p99); ("baseline_p99_s", Num cmp.fault_free.s_p99);
          ("p99_ratio", Num cmp.p99_ratio); ("crashes", Int c.s_crashes);
          ("revives", Int c.s_revives); ("heartbeats", Int c.s_heartbeats);
          ("suspicions", Int c.s_suspicions); ("sheds", Int c.s_sheds);
          ("breaker_trips", Int c.s_breaker_trips); ("recoveries", Int c.s_recoveries);
          ("queued", Int c.s_queued); ("retried", Int c.s_retried);
          ("validation_failed", Int c.s_validation_failed);
          ("race_errors", Int c.s_race_errors); ("proto_errors", Int c.s_proto_errors);
        ])
  in
  Json.(
    Obj
      [
        ("experiment", Str "soak"); ("completion_gate", Num soak_completion_gate);
        ("p99_ratio_gate", Num soak_p99_ratio_gate); ("rows", Arr (List.map row rows));
      ])

let soak ?out m = report ?out ~name:"soak" m ~pp:soak_pp ~gate:soak_gate ~json:soak_json

(* SRPC_SEED, when it holds an integer, replaces the soak's seeds. *)
let seed_override () =
  Option.bind (Sys.getenv_opt "SRPC_SEED") (fun s -> int_of_string_opt (String.trim s))

(* --- offload --- *)

(* At K = 1 the offloaded traversal must move [offload_wire_gate] times
   fewer bytes than the eager closure, for the same answer. The
   adaptive learner, fed only per-traversal seconds, must offload at
   the lowest repeat point and keep the walk local at the highest, with
   no hints. *)
let offload_wire_gate = 10

let offload_measure ~depth ~repeats ~sessions () =
  ( depth,
    Experiments.offload_sweep ~depth ~repeat_points:repeats (),
    Experiments.offload_adaptive_sweep ~depth ~sessions () )

let offload_gate (_, rows, points) =
  let wire =
    match List.find_opt (fun (r : Experiments.offload_row) -> r.of_repeats = 1) rows with
    | None -> []
    | Some r ->
      let e = r.of_eager.of_bytes and o = r.of_always.of_bytes in
      Printf.printf "offload K=1  eager %d B  offloaded %d B  x%.1f\n" e o
        (float_of_int e /. float_of_int (max 1 o));
      [
        check (o * offload_wire_gate <= e)
          "K=1 moved %d B, above the eager/%d gate (%d B)" o offload_wire_gate e;
      ]
  in
  let agree =
    List.map
      (fun (r : Experiments.offload_row) ->
        let want = r.of_eager.of_result in
        check
          (r.of_lazy.of_result = want && r.of_always.of_result = want)
          "K=%d arms disagree on the traversal result" r.of_repeats)
      rows
  in
  let adaptive =
    match points with
    | [ (lo : Experiments.offload_adaptive_point); hi ] ->
      Printf.printf "offload adaptive  K=%d -> %s  K=%d -> %s\n" lo.oa_repeats
        lo.oa_choice hi.oa_repeats hi.oa_choice;
      let picks (p : Experiments.offload_adaptive_point) want =
        check (String.equal p.oa_choice want) "learner picked %S at K=%d, expected %S"
          p.oa_choice p.oa_repeats want
      in
      [
        picks lo "offload";
        picks hi "local";
        check (lo.oa_run.of_result = hi.oa_run.of_result)
          "adaptive endpoints disagree on the result";
      ]
    | points -> [ check false "expected two adaptive points, got %d" (List.length points) ]
  in
  wire @ agree @ adaptive

let offload_json (depth, rows, points) =
  let run (r : Experiments.offload_run) =
    Json.(
      Obj
        [
          ("seconds", Num r.of_seconds); ("messages", Int r.of_messages);
          ("bytes", Int r.of_bytes); ("offload_calls", Int r.of_offload_calls);
          ("result", Int r.of_result);
        ])
  in
  let row (r : Experiments.offload_row) =
    Json.(
      Obj
        [
          ("repeats", Int r.of_repeats); ("eager", run r.of_eager);
          ("lazy", run r.of_lazy); ("offload", run r.of_always);
        ])
  in
  let point (p : Experiments.offload_adaptive_point) =
    Json.(Obj [ ("repeats", Int p.oa_repeats); ("choice", Str p.oa_choice); ("run", run p.oa_run) ])
  in
  Json.(
    Obj
      [
        ("experiment", Str "offload"); ("depth", Int depth);
        ("wire_gate", Int offload_wire_gate); ("rows", Arr (List.map row rows));
        ("adaptive", Arr (List.map point points));
      ])

let offload ?out m =
  report ?out ~name:"offload" m ~gate:offload_gate ~json:offload_json
    ~pp:(fun (_, rows, points) -> Format.printf "%a@." Experiments.pp_offload (rows, points))

let adaptive_cmd =
  gated "adaptive" ~doc:"The adaptive closure-budget policy against the Fig. 4 statics."
    Term.(
      const (fun () -> adaptive (adaptive_measure ~depth:15 ~sessions:12 ~closure:8192 ()))
      $ const ())

let faults_cmd =
  gated "faults" ~doc:"Retry-envelope overhead and the seeded chaos sweep."
    Term.(
      const (fun () ->
          faults (faults_measure ~depth:11 ~ratio:0.6 ~sweep_depth:9 ~sessions:8 ()))
      $ const ())

let delta_cmd =
  gated "delta" ~doc:"Delta coherency: dirty-range write-backs against full ones."
    Term.(const (fun () -> delta (delta_measure ~depth:12 ())) $ const ())

(* Flags the traffic, soak and offload subcommands share; each passes
   its own default. *)
let clients_arg default =
  Arg.(value & opt int default & info [ "clients" ] ~docv:"N"
         ~doc:"Concurrent client (session ground) nodes.")

let servers_arg default =
  Arg.(value & opt int default & info [ "servers" ] ~docv:"N"
         ~doc:"Shared server nodes (2-8).")

let rate_arg default =
  Arg.(value & opt float default & info [ "rate" ] ~docv:"R"
         ~doc:"Poisson session arrivals per virtual second, per client.")

let seeds_arg doc =
  Arg.(value & opt (list int) [ 0 ] & info [ "seeds" ] ~docv:"S,S,..." ~doc)

let out_arg name =
  Arg.(value & opt string (bench_file name)
       & info [ "out" ] ~docv:"FILE" ~doc:"Where to write the JSON report.")

(* --hot and --abort-retry, as the contention and admission policy they
   select. *)
let admission_args =
  let hot =
    Arg.(value & flag & info [ "hot" ]
           ~doc:"Point every session at one shared datum root (full \
                 contention) instead of per-client disjoint roots.")
  in
  let abort_retry =
    Arg.(value & flag & info [ "abort-retry" ]
           ~doc:"Resolve admission conflicts by abort + backoff retry \
                 instead of FIFO queueing.")
  in
  let select hot abort_retry =
    ( (if hot then T.Hot else T.Disjoint),
      if abort_retry then Srpc_core.Strategy.Abort_retry
      else Srpc_core.Strategy.Queue_conflicts )
  in
  Term.(const select $ hot $ abort_retry)

let traffic_cmd =
  let mix_arg =
    let kind =
      Arg.enum
        Srpc_check.Script.
          [ ("list", KList); ("tree", KTree); ("graph", KGraph); ("wide", KWide) ]
    in
    Arg.(value & opt (list kind) T.default.T.mix
         & info [ "mix" ] ~docv:"KINDS"
             ~doc:"Comma-separated workload kinds cycled across sessions \
                   (list, tree, graph, wide).")
  in
  let sessions_arg =
    Arg.(value & opt int T.default.T.sessions_per_client
         & info [ "sessions" ] ~docv:"N" ~doc:"Sessions per client.")
  in
  let run verbose clients servers rate mix sessions seeds (contention, policy) out =
    setup_logs verbose;
    let cfg seed =
      { T.default with
        T.clients; servers; rate; mix; sessions_per_client = sessions; seed;
        policy; contention }
    in
    traffic ~out (traffic_measure (List.map cfg seeds))
  in
  gated "traffic"
    ~doc:"Open-loop concurrent-session traffic: Poisson arrivals over N \
          clients vs the serialized baseline, with admission counters \
          and latency percentiles written as JSON."
    Term.(
      const run $ verbose_arg $ clients_arg T.default.T.clients
      $ servers_arg T.default.T.servers $ rate_arg T.default.T.rate $ mix_arg
      $ sessions_arg $ seeds_arg "Seeds to run; one result row per seed."
      $ admission_args $ out_arg "traffic")

let soak_cmd =
  let horizon_arg =
    Arg.(value & opt float S.default.S.horizon & info [ "horizon" ] ~docv:"S"
           ~doc:"Virtual seconds of offered arrivals.")
  in
  let drop_arg =
    Arg.(value & opt float S.default.S.drop & info [ "drop" ] ~docv:"P"
           ~doc:"Per-frame drop probability.")
  in
  let crash_period_arg =
    Arg.(value & opt float S.default.S.crash_period
         & info [ "crash-period" ] ~docv:"S"
             ~doc:"Virtual seconds between planned server crashes (0 \
                   disables the crash schedule).")
  in
  let outage_arg =
    Arg.(value & opt float S.default.S.outage & info [ "outage" ] ~docv:"S"
           ~doc:"How long each crashed server stays down.")
  in
  let queue_cap_arg =
    Arg.(value & opt int S.default.S.queue_cap
         & info [ "queue-cap" ] ~docv:"N"
             ~doc:"Admission conflict-queue bound.")
  in
  let retry_budget_arg =
    Arg.(value & opt int S.default.S.retry_budget
         & info [ "retry-budget" ] ~docv:"N"
             ~doc:"Admission deferral budget per session id.")
  in
  let run verbose clients servers rate horizon drop crash_period outage
      queue_cap retry_budget seeds (contention, policy) out =
    setup_logs verbose;
    let seeds = match seed_override () with Some n -> [ n ] | None -> seeds in
    let row seed =
      ( Printf.sprintf "seed%d" seed,
        { S.default with
          S.clients; servers; rate; horizon; drop; crash_period; outage;
          queue_cap; retry_budget; seed; policy; contention } )
    in
    soak ~out (soak_measure (List.map row seeds))
  in
  gated "soak"
    ~doc:"Chaos soak: open-loop traffic over a long virtual-time horizon \
          under frame drops and periodic server crash/revive cycles, \
          with liveness detection, session recovery and overload \
          protection armed; writes completion, latency and robustness \
          counters as JSON."
    Term.(
      const run $ verbose_arg $ clients_arg S.default.S.clients
      $ servers_arg S.default.S.servers $ rate_arg S.default.S.rate
      $ horizon_arg $ drop_arg $ crash_period_arg $ outage_arg
      $ queue_cap_arg $ retry_budget_arg
      $ seeds_arg
          "Seeds to run; one result row per seed (overridden by the \
           SRPC_SEED environment variable)."
      $ admission_args $ out_arg "soak")

let offload_cmd =
  let depth_arg =
    Arg.(value & opt int 10 & info [ "depth" ] ~docv:"D"
           ~doc:"Tree depth of the traversed structure.")
  in
  let repeats_arg =
    Arg.(value & opt (list int) Experiments.default_offload_repeats
         & info [ "repeats" ] ~docv:"K,K,..."
             ~doc:"Reuse counts swept: traversals per session.")
  in
  let sessions_arg =
    Arg.(value & opt int 24 & info [ "sessions" ] ~docv:"N"
           ~doc:"Sessions the adaptive learner observes per repeat point.")
  in
  let run verbose depth repeats sessions out =
    setup_logs verbose;
    offload ~out (offload_measure ~depth ~repeats ~sessions ())
  in
  gated "offload"
    ~doc:"Traversal offloading: wire bytes per transfer mode and the \
          adaptive learner's choice as the reuse count K sweeps, written \
          as JSON."
    Term.(
      const run $ verbose_arg $ depth_arg $ repeats_arg $ sessions_arg
      $ out_arg "offload")

(* The gated experiments at their scaled-down presets: the
   `@bench-smoke` gate inside `dune runtest`. *)
let smoke_cmd =
  let run () =
    let policies = Srpc_core.Strategy.[ Queue_conflicts; Abort_retry ] in
    let hot_traffic policy =
      { T.default with T.contention = T.Hot; policy; sessions_per_client = 3 }
    in
    let seed = Option.value (seed_override ()) ~default:0 in
    let hot_soak policy =
      ( "hot/" ^ policy_name policy,
        { S.default with
          S.seed; policy; contention = T.Hot; horizon = 60.0; rate = 1.0;
          crash_period = 16.0; queue_cap = 2; retry_budget = 6 } )
    in
    let failed =
      List.filter_map
        (fun (name, run) -> match run () with 0 -> None | n -> Some (name, n))
        [
          ( "adaptive",
            fun () ->
              adaptive
                (adaptive_measure ~depth:10 ~ratios:(steps 4) ~sessions:12
                   ~closure:8192 ()) );
          ( "faults",
            fun () ->
              faults (faults_measure ~depth:10 ~ratio:0.5 ~sweep_depth:7 ~sessions:4 ()) );
          ("delta", fun () -> delta (delta_measure ~depth:9 ()));
          ( "traffic",
            fun () ->
              traffic
                (traffic_measure
                   ({ T.default with T.seed = 0 } :: { T.default with T.seed = 1 }
                   :: List.map hot_traffic policies)) );
          ( "soak",
            fun () ->
              soak
                (soak_measure
                   (("chaos-gate", { S.default with S.seed })
                   :: List.map hot_soak policies)) );
          ( "offload",
            fun () -> offload (offload_measure ~depth:8 ~repeats:[ 1; 8; 32 ] ~sessions:24 ()) );
        ]
    in
    List.iter (fun (name, n) -> Printf.eprintf "smoke: %d %s check(s) failed\n" n name) failed;
    exit_code (List.length failed)
  in
  Cmd.v
    (Cmd.info "smoke"
       ~doc:"Every gated experiment scaled down; exit 1 when any gate fails.")
    Term.(const run $ const ())

(* The experiments `all` runs, in the order EXPERIMENTS.md reads them. *)
let experiment_cmds =
  [
    table1_cmd; fig4_cmd; fig6_cmd; fig7_cmd; ablations_cmd; adaptive_cmd;
    faults_cmd; delta_cmd; traffic_cmd; soak_cmd; offload_cmd; wan_cmd;
    kv_cmd; scale_cmd; manual_cmd;
  ]

(* Every experiment at its defaults, each under a banner; Fig. 6 runs
   under both readings. *)
let all_cmd =
  let run () =
    let group = Cmd.group (Cmd.info "srpc") experiment_cmds in
    let rule = String.make 78 '-' in
    List.fold_left
      (fun code args ->
        Printf.printf "%s\nsrpc %s\n%s\n%!" rule (String.concat " " args) rule;
        let c = Cmd.eval' ~argv:(Array.of_list ("srpc" :: args)) group in
        print_newline ();
        max code c)
      0
      (List.concat_map
         (fun cmd ->
           match Cmd.name cmd with
           | "fig6" -> [ [ "fig6" ]; [ "fig6"; "--descents" ] ]
           | name -> [ [ name ] ])
         experiment_cmds)
  in
  Cmd.v
    (Cmd.info "all" ~doc:"Run every experiment with its defaults.")
    Term.(const run $ const ())

let () =
  let doc = "Smart Remote Procedure Calls (ICDCS 1994) reproduction driver" in
  let info = Cmd.info "srpc" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          (experiment_cmds
          @ [ hints_cmd; smoke_cmd; all_cmd; run_cmd; inspect_cmd; lint_cmd; check_cmd ])))
