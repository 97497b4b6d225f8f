(* srpcbench: the repository's benchmark. Five workloads, each loading
   a different layer of the runtime most, measured end to end with
   tracing off and layer by layer in a separate traced run.

     dune exec benchmark/srpcbench.exe -- --workload NAME --seed N
         [--seconds S] [--trace 0|1] [--out DIR]
     dune exec benchmark/srpcbench.exe -- --workload all --seed N
     dune exec benchmark/srpcbench.exe -- --smoke

   Every metric is printed as [name value unit]; the last line of
   standard output is one JSON object with the correctness verdict,
   the session counts and the metrics of the mode (end-to-end ones
   untraced, per-layer ones traced); the same data, with every metric
   and check, is written to [DIR/<workload>-seed<N>[-traced].json] and
   a traced run's spans to [DIR/<workload>-spans.json]. The exit code
   is 1 when any correctness check fails. See benchmark/README.md. *)

let workloads =
  List.map (fun s -> (s.Closed_loop.name, Closed_loop.run s)) Closed_loop.specs
  @ List.map (fun s -> (s.Black_box.name, Black_box.run s)) Black_box.specs

(* The metrics of [catalog], in its order, each taken from [ms] or 0 (a
   metric the workload cannot observe). A measured metric of the other
   mode is a benchmark bug. *)
let complete catalog ms =
  List.iter
    (fun m ->
      if not (List.mem_assoc m.Metric.name catalog) then
        failwith ("metric reported in the wrong mode: " ^ m.Metric.name))
    ms;
  List.map
    (fun (name, _) ->
      match List.find_opt (fun m -> m.Metric.name = name) ms with
      | Some m -> m
      | None -> Metric.v name 0.0)
    catalog

(* Share of [--seconds] given to untraced rounds in a traced run; the
   rest goes to the traced round and the probes. *)
let traced_budget_share = 0.4

(* [probes] runs after the workload, so that the probes' garbage does not
   show in the workload's heap and collector numbers. *)
let run_workload ~name ~seed ~seconds ~traced ~scale ~probes =
  let budget = if traced then seconds *. traced_budget_share else seconds in
  let o = (List.assoc name workloads) ~seed { Harness.budget; traced; scale } in
  let probes = probes () in
  {
    o with
    Harness.end_to_end = complete Catalog.end_to_end o.Harness.end_to_end;
    per_layer = complete Catalog.per_layer (o.Harness.per_layer @ probes);
  }

let correct o = List.for_all snd o.Harness.checks

let report_json ~name ~seed ~traced o =
  let open Metric in
  Obj
    [
      ("workload", Str name);
      ("seed", Int seed);
      ("traced", Bool traced);
      ("correct", Bool (correct o));
      ("attempted", Int o.Harness.attempted);
      ("failed", Int o.Harness.failed);
      ("checks", Obj (List.map (fun (c, ok) -> (c, Bool ok)) o.Harness.checks));
      ( "rounds",
        Arr
          (List.map
             (fun (cpu, wall) -> Obj [ ("cpu_s", Num cpu); ("wall_s", Num wall) ])
             o.Harness.round_times) );
      ("end_to_end", metrics_json o.Harness.end_to_end);
      ("per_layer", metrics_json o.Harness.per_layer);
    ]

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let write_file path s =
  mkdir_p (Filename.dirname path);
  let oc = open_out path in
  output_string oc s;
  output_char oc '\n';
  close_out oc

let print_metric m = Printf.printf "%s %.9g %s\n" m.Metric.name m.Metric.value m.Metric.unit

let one ~name ~seed ~seconds ~traced ~out =
  let probes () = if traced then Probes.run ~quota:0.15 else [] in
  let o = run_workload ~name ~seed ~seconds ~traced ~scale:1 ~probes in
  Printf.printf "workload %s seed %d%s\n" name seed (if traced then " traced" else "");
  List.iter
    (fun (c, ok) -> Printf.printf "check %s: %s\n" (if ok then "ok" else "FAIL") c)
    o.Harness.checks;
  List.iter print_metric o.Harness.end_to_end;
  Printf.printf "failed_ratio %.9g ratio\n"
    (float_of_int o.Harness.failed /. float_of_int (max 1 o.Harness.attempted));
  if traced then List.iter print_metric o.Harness.per_layer;
  let file = Printf.sprintf "%s-seed%d%s.json" name seed (if traced then "-traced" else "") in
  write_file (Filename.concat out file) (Metric.to_string (report_json ~name ~seed ~traced o));
  (match o.Harness.spans with
  | Some sp ->
    write_file
      (Filename.concat out (name ^ "-spans.json"))
      (Metric.to_string
         (Metric.Obj
            [ ("workload", Metric.Str name); ("seed", Metric.Int seed); ("spans", Spans.to_json sp) ]))
  | None -> ());
  print_endline
    (Metric.to_string
       (Metric.Obj
          [
            ("correct", Metric.Bool (correct o));
            ("attempted", Metric.Int o.Harness.attempted);
            ("failed", Metric.Int o.Harness.failed);
            ( "metrics",
              Metric.metrics_json (if traced then o.Harness.per_layer else o.Harness.end_to_end) );
          ]));
  if correct o then 0 else 1

(* Each workload in a fresh child process, one at a time. *)
let all ~seed ~seconds ~traced ~out =
  List.fold_left
    (fun code (name, _) ->
      let args =
        [| Sys.executable_name; "--workload"; name; "--seed"; string_of_int seed;
           "--seconds"; Printf.sprintf "%g" seconds; "--trace"; (if traced then "1" else "0");
           "--out"; out |]
      in
      let pid = Unix.create_process Sys.executable_name args Unix.stdin Unix.stdout Unix.stderr in
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> code
      | _ -> 1)
    0 workloads

(* Every workload at 1/50 size plus the probes at a tiny quota, checks
   only: the [@benchmark-smoke] alias. *)
let smoke () =
  let probes = Probes.run ~quota:0.01 in
  let probes_ok =
    List.length probes = 2 * List.length Catalog.probes
    && List.for_all (fun m -> Float.is_finite m.Metric.value && m.Metric.value >= 0.0) probes
  in
  Printf.printf "smoke probes: %s\n" (if probes_ok then "ok" else "FAIL");
  List.fold_left
    (fun code (name, _) ->
      let o =
        run_workload ~name ~seed:0 ~seconds:0.0 ~traced:true ~scale:50 ~probes:(fun () -> probes)
      in
      let failed = List.filter (fun (_, ok) -> not ok) o.Harness.checks in
      List.iter (fun (c, _) -> Printf.printf "smoke %s: FAIL %s\n" name c) failed;
      if failed = [] then Printf.printf "smoke %s: ok (%d sessions)\n" name o.Harness.attempted;
      if failed = [] then code else 1)
    (if probes_ok then 0 else 1)
    workloads

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 15.0 and traced = ref false in
  let out = ref (Filename.concat "benchmark" "out") and smoke_only = ref false in
  let names = String.concat "|" (List.map fst workloads) in
  let spec =
    [
      ("--workload", Arg.Set_string workload, names ^ "|all");
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--seconds", Arg.Set_float seconds, "S  seconds of measurement (default 15)");
      ( "--trace",
        Arg.Int
          (function
          | 0 -> traced := false
          | 1 -> traced := true
          | _ -> raise (Arg.Bad "--trace takes 0 or 1")),
        "0|1  per-layer (traced) run" );
      ("--out", Arg.Set_string out, "DIR  where JSON results go (default benchmark/out)");
      ("--smoke", Arg.Set smoke_only, " every workload at 1/50 size, checks only");
    ]
  in
  let usage = "srpcbench --workload NAME --seed N [--seconds S] [--trace 0|1]" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let code =
    if !smoke_only then smoke ()
    else if !workload = "all" then all ~seed:!seed ~seconds:!seconds ~traced:!traced ~out:!out
    else if List.mem_assoc !workload workloads then
      one ~name:!workload ~seed:!seed ~seconds:!seconds ~traced:!traced ~out:!out
    else begin
      prerr_endline ("srpcbench: --workload must be one of " ^ names ^ "|all");
      2
    end
  in
  exit code
