(* Seeded script generation. All randomness flows through the
   version-stable splitmix64 in Rng, so one seed means one script on
   every OCaml release the CI matrix builds. *)

let gen_values rng ~max_len =
  List.init (Rng.int rng (max_len + 1)) (fun _ -> Rng.range rng (-100) 100)

let gen_op rng ~fault =
  let open Script in
  let weighted =
    [
      (2, `Build); (3, `Sum); (2, `Visit); (3, `Update); (2, `Map); (2, `Nested);
      (1, `Callback); (2, `Local_update); (2, `Append); (1, `Free);
      (2, `New_session); (2, `Poke);
    ]
    @ (if fault then [ (1, `Crash); (1, `Revive) ] else [])
  in
  let total = List.fold_left (fun a (w, _) -> a + w) 0 weighted in
  let roll = Rng.int rng total in
  let rec choose acc = function
    | (w, tag) :: rest -> if roll < acc + w then tag else choose (acc + w) rest
    | [] -> assert false
  in
  let idx () = Rng.int rng 64 in
  match choose 0 weighted with
  | `Build -> (
    match Rng.int rng 4 with
    | 0 -> Build_list (gen_values rng ~max_len:12)
    | 1 -> Build_tree (Rng.range rng 1 5)
    | 2 -> Build_graph { nodes = Rng.range rng 1 16; gseed = Rng.int rng 1000 }
    | _ -> Build_wide)
  | `Sum -> Sum { worker = idx (); obj = idx () }
  | `Visit -> Visit { worker = idx (); obj = idx (); limit = Rng.int rng 40 }
  | `Update ->
    Update
      { worker = idx (); obj = idx (); idx = idx (); delta = Rng.range rng (-9) 9 }
  | `Map ->
    Map
      {
        worker = idx ();
        obj = idx ();
        mul = Rng.range rng (-3) 3;
        add = Rng.range rng (-9) 9;
      }
  | `Nested -> Nested { w1 = idx (); w2 = idx (); obj = idx () }
  | `Callback -> Callback { worker = idx (); obj = idx () }
  | `Local_update ->
    Local_update { obj = idx (); idx = idx (); delta = Rng.range rng (-9) 9 }
  | `Append ->
    Append { obj = idx (); home = Rng.int rng 4; values = gen_values rng ~max_len:6 }
  | `Free -> Free { obj = idx () }
  | `New_session -> New_session
  | `Poke ->
    (* the delta write-back probe: one small field of a large struct *)
    Poke
      { worker = idx (); obj = idx (); idx = Rng.int rng 1024;
        delta = Rng.range rng (-9) 9 }
  | `Crash -> Crash { worker = idx () }
  | `Revive -> Revive { worker = idx () }

let gen_build rng =
  let open Script in
  match Rng.int rng 4 with
  | 0 -> Build_list (gen_values rng ~max_len:12)
  | 1 -> Build_tree (Rng.range rng 1 5)
  | 2 -> Build_graph { nodes = Rng.range rng 1 16; gseed = Rng.int rng 1000 }
  | _ -> Build_wide

(* Op mix for the concurrent-mode harnesses (weave, traffic). Excludes
   [New_session] (the harness owns session boundaries), [Crash] (the
   concurrent harnesses run without crash plans — message drop/dup
   faults only) and [Callback] (ck_bonus is registered on the checker's
   hardcoded ground; the harnesses run several grounds). *)
let gen_op_restricted rng =
  let open Script in
  let weighted =
    [
      (2, `Build); (3, `Sum); (2, `Visit); (3, `Update); (2, `Map); (2, `Nested);
      (2, `Local_update); (2, `Append); (1, `Free); (2, `Poke);
    ]
  in
  let total = List.fold_left (fun a (w, _) -> a + w) 0 weighted in
  let roll = Rng.int rng total in
  let rec choose acc = function
    | (w, tag) :: rest -> if roll < acc + w then tag else choose (acc + w) rest
    | [] -> assert false
  in
  let idx () = Rng.int rng 64 in
  match choose 0 weighted with
  | `Build -> (
    match Rng.int rng 4 with
    | 0 -> Build_list (gen_values rng ~max_len:12)
    | 1 -> Build_tree (Rng.range rng 1 5)
    | 2 -> Build_graph { nodes = Rng.range rng 1 16; gseed = Rng.int rng 1000 }
    | _ -> Build_wide)
  | `Sum -> Sum { worker = idx (); obj = idx () }
  | `Visit -> Visit { worker = idx (); obj = idx (); limit = Rng.int rng 40 }
  | `Update ->
    Update
      { worker = idx (); obj = idx (); idx = idx (); delta = Rng.range rng (-9) 9 }
  | `Map ->
    Map
      {
        worker = idx ();
        obj = idx ();
        mul = Rng.range rng (-3) 3;
        add = Rng.range rng (-9) 9;
      }
  | `Nested -> Nested { w1 = idx (); w2 = idx (); obj = idx () }
  | `Local_update ->
    Local_update { obj = idx (); idx = idx (); delta = Rng.range rng (-9) 9 }
  | `Append ->
    Append { obj = idx (); home = Rng.int rng 4; values = gen_values rng ~max_len:6 }
  | `Free -> Free { obj = idx () }
  | `Poke ->
    Poke
      { worker = idx (); obj = idx (); idx = Rng.int rng 1024;
        delta = Rng.range rng (-9) 9 }

(* Strategies admission accepts: no Twin_diff grain (indices 6 and 9
   of [Interp.strategy_table]), no delta coherency (8 and 9). *)
let concurrent_strategies = [| 0; 1; 2; 3; 4; 5; 7 |]

let pair ~seed ~depth ~fault =
  let rng = Rng.create seed in
  let workers = Rng.range rng 1 3 in
  let arches = List.init workers (fun _ -> Rng.int rng 4) in
  let strategy =
    concurrent_strategies.(Rng.int rng (Array.length concurrent_strategies))
  in
  let n = max 1 depth in
  let side () =
    gen_build rng :: List.init (n - 1) (fun _ -> gen_op_restricted rng)
  in
  let ops_a = side () in
  let ops_b = side () in
  ( { Script.workers; arches; strategy; fault; ops = ops_a },
    { Script.workers; arches; strategy; fault; ops = ops_b } )

let forced_build rng (kind : Script.kind) =
  let open Script in
  match kind with
  | KList -> Build_list (gen_values rng ~max_len:12)
  | KTree -> Build_tree (Rng.range rng 1 5)
  | KGraph -> Build_graph { nodes = Rng.range rng 1 16; gseed = Rng.int rng 1000 }
  | KWide -> Build_wide

let session_script ~seed ~depth ~workers ~kind ~fault =
  let rng = Rng.create seed in
  let workers = max 1 (min 3 workers) in
  let arches = List.init workers (fun _ -> Rng.int rng 4) in
  let strategy =
    concurrent_strategies.(Rng.int rng (Array.length concurrent_strategies))
  in
  let n = max 1 depth in
  let ops =
    forced_build rng kind
    :: List.init (n - 1) (fun _ -> gen_op_restricted rng)
  in
  { Script.workers; arches; strategy; fault; ops }

let script ~seed ~depth ~fault =
  let rng = Rng.create seed in
  let workers = Rng.range rng 1 3 in
  let arches = List.init workers (fun _ -> Rng.int rng 4) in
  let strategy = Rng.int rng 10 in
  let has_fault = fault <> None in
  let n = max 1 depth in
  let ops =
    gen_build rng
    :: List.init (n - 1) (fun _ -> gen_op rng ~fault:has_fault)
  in
  { Script.workers; arches; strategy; fault; ops }

(* Offload-heavy mix: roughly a third of the ops submit traversal plans
   to the object's home, the rest come from the ordinary mix. A separate
   entry point (own RNG stream) so [script]'s seeds stay stable. *)
let gen_op_offload rng ~fault =
  let open Script in
  let idx () = Rng.int rng 64 in
  match Rng.int rng 10 with
  | 0 | 1 | 2 ->
    Offload { worker = idx (); obj = idx (); limit = Rng.range rng 1 64 }
  | 3 | 4 ->
    Offload_update
      { worker = idx (); obj = idx (); idx = idx (); delta = Rng.range rng (-9) 9 }
  | _ -> gen_op rng ~fault

let script_offload ~seed ~depth ~fault =
  let rng = Rng.create seed in
  let workers = Rng.range rng 1 3 in
  let arches = List.init workers (fun _ -> Rng.int rng 4) in
  (* full table, including the offload strategies 10-12: scripts under
     Offload_never walk client-side, so one sweep checks offloaded and
     cached traversals against the same model *)
  let strategy = Rng.int rng 13 in
  let has_fault = fault <> None in
  let n = max 1 depth in
  let ops =
    gen_build rng
    :: List.init (n - 1) (fun _ -> gen_op_offload rng ~fault:has_fault)
  in
  { Script.workers; arches; strategy; fault; ops }
