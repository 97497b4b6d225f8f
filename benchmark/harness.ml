(* What one workload run reports, and the set-up and round loops every
   workload shares. *)

type outcome = {
  round_times : (float * float) list;  (** each untraced round's CPU and wall seconds *)
  attempted : int;  (** sessions run, warm-up excluded *)
  failed : int;  (** sessions that failed, aborted unrecovered or returned a wrong result *)
  checks : (string * bool) list;  (** correctness gates; any [false] fails the run *)
  end_to_end : Metric.t list;
  per_layer : Metric.t list;
  spans : Spans.t option;  (** traced runs only *)
}

type mode = {
  budget : float;  (** seconds of untraced rounds to measure *)
  traced : bool;
  scale : int;  (** size divisor: 1 for a measured run, 50 for the smoke check *)
}

(* Process CPU seconds of [f ()], run from a fully collected heap so
   that earlier garbage does not show in it. CPU time leaves out time
   spent descheduled. *)
let cpu_time f =
  Gc.full_major ();
  let t0 = Metric.cpu_s () in
  let x = f () in
  (x, Metric.cpu_s () -. t0)

(* The smallest [cost x] over [xs]. Other tenants of a shared machine
   only ever slow a piece of work down, so the least-disturbed run of it
   is the steadiest estimate of the code's own cost. *)
let least cost xs = List.fold_left (fun acc x -> Float.min acc (cost x)) infinity xs

(* A fixed piece of allocation-heavy OCaml that uses none of the runtime
   under test: a hash table of 80,000 small strings and eight trees of
   65,535 nodes. Its time says how fast the machine runs at the moment. *)
type tree = Leaf | Node of tree * int * tree

let rec build d = if d = 0 then Leaf else Node (build (d - 1), d, build (d - 1))
let rec sum = function Leaf -> 0 | Node (l, x, r) -> sum l + x + sum r

let calibration () =
  let h = Hashtbl.create 16 in
  for i = 1 to 80_000 do
    Hashtbl.replace h i (Bytes.make 16 'x')
  done;
  let s = ref 0 in
  for _ = 1 to 8 do
    s := !s + sum (build 16)
  done;
  ignore (Sys.opaque_identity (!s, h))

(* The calibration's fastest time on the machine the committed baseline
   was taken on: [setup_s] is in seconds of that machine. *)
let calibration_ref_s = 0.025

(* A workload's set-up, and the CPU seconds of each time it ran and of
   the calibration run just before it. *)
type 'a setup = {
  make : unit -> 'a;
  mutable times : float list;
  mutable calibrations : float list;
}

let time_set_up s =
  let (), c = cpu_time calibration in
  let x, t = cpu_time s.make in
  s.times <- t :: s.times;
  s.calibrations <- c :: s.calibrations;
  x

let setup_repeats = 3

(* Set up [setup_repeats] times, dropping each fixture before the next,
   and keep the last. [rounds] times one more set-up after every step. *)
let set_up make =
  let s = { make; times = []; calibrations = [] } in
  let last = ref None in
  for _ = 1 to setup_repeats do
    last := None;
    last := Some (time_set_up s)
  done;
  (Option.get !last, s)

(* The [setup_s] metric: the fastest set-up, scaled by how much slower
   than on the reference machine the fastest calibration ran. Other
   tenants of a shared machine only ever slow a set-up down: in periods
   of a second or less, which the fastest of set-ups spread over the
   whole run leaves out, and in periods of minutes, which slow the
   calibration as well and which the scaling takes out. *)
let setup_s s = least Fun.id s.times *. calibration_ref_s /. least Fun.id s.calibrations

type 'a round = {
  result : 'a list;  (** one per step *)
  cpu_s : float;
  wall_s : float;
  heap_mb : float;
      (** median major-heap size at the end of the round's major cycles *)
  minor_words : float;
  majors : int;  (** major collections the round's steps triggered *)
}

(* Run the [steps] of a round once, then again while one more round as
   long as the last still ends within [budget] seconds of the first
   start. Each step starts from a fully collected heap: the major
   collector's pacing depends on the heap it inherits, and without this
   the same round's cost varied by half from one round to the next.
   After each step, [setup] is timed once more; the round's costs count
   its steps only. *)
let rounds ~budget ~setup steps =
  let t0 = Metric.now_ns () in
  let rec go acc =
    let start = Metric.now_ns () in
    let heaps = ref [] and recording = ref false and last_heap = ref 0.0 in
    let alarm =
      Gc.create_alarm (fun () -> if !recording then heaps := Metric.heap_mb () :: !heaps)
    in
    let cpu_s = ref 0.0 and wall_ns = ref 0 and minor_words = ref 0.0 and majors = ref 0 in
    let step f =
      Gc.full_major ();
      recording := true;
      let g0 = Gc.quick_stat () and c0 = Metric.cpu_s () and w0 = Metric.now_ns () in
      let x = f () in
      let c1 = Metric.cpu_s () and w1 = Metric.now_ns () in
      let g1 = Gc.quick_stat () in
      recording := false;
      last_heap := Metric.heap_mb ();
      cpu_s := !cpu_s +. (c1 -. c0);
      wall_ns := !wall_ns + (w1 - w0);
      minor_words := !minor_words +. (g1.Gc.minor_words -. g0.Gc.minor_words);
      majors := !majors + (g1.Gc.major_collections - g0.Gc.major_collections);
      ignore (time_set_up setup);
      x
    in
    let result = List.map step steps in
    Gc.delete_alarm alarm;
    let r =
      {
        result;
        cpu_s = !cpu_s;
        wall_s = Metric.s_of_ns !wall_ns;
        heap_mb = (if !heaps = [] then !last_heap else Metric.median !heaps);
        minor_words = !minor_words;
        majors = !majors;
      }
    in
    let now = Metric.now_ns () in
    if Metric.s_of_ns ((now - t0) + (now - start)) <= budget then go (r :: acc)
    else List.rev (r :: acc)
  in
  go []

(* Allocation per session and major collections per 1,000 sessions,
   over rounds of [sessions] sessions each. *)
let gc_metrics ~sessions rounds =
  let n = float_of_int (max 1 (sessions * List.length rounds)) in
  let minor = List.fold_left (fun acc r -> acc +. r.minor_words) 0.0 rounds in
  let majors = List.fold_left (fun acc r -> acc + r.majors) 0 rounds in
  [
    Metric.v "gc.minor_words" (minor /. n);
    Metric.v "gc.major_collections" (1000.0 *. float_of_int majors /. n);
  ]
