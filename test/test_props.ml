(* Property-based tests (QCheck, registered as alcotest cases).

   Invariants covered:
   - XDR: every scalar and composite roundtrips; frame length is always
     4-byte aligned.
   - Allocator: any alloc/free trace preserves the free-list invariants,
     accounting, and block disjointness.
   - Layout: sizes are positive multiples of alignment; leaf offsets fit
     inside the type on every architecture.
   - Object codec: encode/decode across random architecture pairs is
     lossless on scalar leaves and maps pointers through
     unswizzle/swizzle.
   - End to end: remote list/tree traversal equals local reference
     computation for every method; remote in-place update equals the
     local reference after write-back. *)

open Srpc_memory
open Srpc_types
open Srpc_core
open Srpc_simnet
open Srpc_workloads
module Q = QCheck

(* Pinned PRNG so tier-1 is reproducible run-to-run; export SRPC_SEED=N
   to explore another schedule. The effective value is printed when a
   property fails. *)
let seed =
  match Sys.getenv_opt "SRPC_SEED" with
  | Some s -> int_of_string s
  | None -> 0xC0FFEE

let to_alcotest t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) t

(* --- XDR --- *)

let xdr_int_roundtrip =
  Q.Test.make ~name:"xdr int32 roundtrip" ~count:500
    (Q.int_range (-0x40000000) 0x3fffffff) (fun v ->
      Srpc_xdr.Xdr.(roundturn Enc.int Dec.int v) = v)

let xdr_hyper_roundtrip =
  Q.Test.make ~name:"xdr hyper roundtrip" ~count:500 Q.int (fun v ->
      Srpc_xdr.Xdr.(roundturn Enc.hyper Dec.hyper v) = v)

let xdr_float_roundtrip =
  Q.Test.make ~name:"xdr float64 roundtrip" ~count:500 Q.float (fun v ->
      let v' = Srpc_xdr.Xdr.(roundturn Enc.float64 Dec.float64 v) in
      (Float.is_nan v && Float.is_nan v') || v = v')

let xdr_string_roundtrip =
  Q.Test.make ~name:"xdr string roundtrip" ~count:500 Q.string (fun s ->
      Srpc_xdr.Xdr.(roundturn Enc.string Dec.string s) = s)

let xdr_string_alignment =
  Q.Test.make ~name:"xdr frames are 4-aligned" ~count:500 Q.string (fun s ->
      let e = Srpc_xdr.Xdr.Enc.create () in
      Srpc_xdr.Xdr.Enc.string e s;
      Srpc_xdr.Xdr.Enc.length e mod 4 = 0)

let xdr_int_list_roundtrip =
  Q.Test.make ~name:"xdr list roundtrip" ~count:200 Q.(list int) (fun xs ->
      Srpc_xdr.Xdr.(
        roundturn (fun e -> Enc.list e Enc.hyper) (fun d -> Dec.list d Dec.hyper) xs)
      = xs)

(* --- Allocator --- *)

type heap_op = Alloc of int | Free of int

let heap_op_gen =
  Q.Gen.(
    frequency
      [ (3, map (fun n -> Alloc (n mod 200)) nat); (2, map (fun i -> Free i) nat) ])

let heap_ops_arb =
  Q.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function Alloc n -> Printf.sprintf "A%d" n | Free i -> Printf.sprintf "F%d" i)
           ops))
    Q.Gen.(list_size (int_range 1 120) heap_op_gen)

let allocator_invariants =
  Q.Test.make ~name:"allocator invariants under random traces" ~count:200
    heap_ops_arb (fun ops ->
      let space =
        Address_space.create ~page_size:256
          ~id:(Space_id.make ~site:1 ~proc:0)
          ~arch:Arch.sparc32 ()
      in
      let heap = Allocator.create ~space ~base:1024 ~limit:32768 in
      let live = ref [] in
      List.iter
        (fun op ->
          match op with
          | Alloc n -> (
            match Allocator.alloc heap ~size:n with
            | addr -> live := addr :: !live
            | exception Allocator.Out_of_region _ -> ())
          | Free i ->
            if !live <> [] then begin
              let k = i mod List.length !live in
              let addr = List.nth !live k in
              Allocator.free heap addr;
              live := List.filteri (fun j _ -> j <> k) !live
            end)
        ops;
      (match Allocator.check_invariants heap with
      | Ok () -> true
      | Error msg -> Q.Test.fail_report msg)
      && List.length !live = Allocator.live_blocks heap)

let allocator_blocks_disjoint =
  Q.Test.make ~name:"live blocks are pairwise disjoint" ~count:100 heap_ops_arb
    (fun ops ->
      let space =
        Address_space.create ~page_size:256
          ~id:(Space_id.make ~site:1 ~proc:0)
          ~arch:Arch.sparc32 ()
      in
      let heap = Allocator.create ~space ~base:1024 ~limit:32768 in
      List.iter
        (function
          | Alloc n -> (
            try ignore (Allocator.alloc heap ~size:n)
            with Allocator.Out_of_region _ -> ())
          | Free _ -> ())
        ops;
      let blocks = ref [] in
      Allocator.iter_live heap (fun addr size -> blocks := (addr, size) :: !blocks);
      let sorted = List.sort compare !blocks in
      let rec disjoint = function
        | (a, s) :: ((a', _) :: _ as rest) -> a + s <= a' && disjoint rest
        | _ -> true
      in
      disjoint sorted)

(* --- Layout --- *)

let arch_gen = Q.Gen.oneofl [ Arch.sparc32; Arch.ilp32_le; Arch.lp64_le; Arch.lp64_be ]

let prim_gen =
  Q.Gen.oneofl
    [ Type_desc.I8; Type_desc.I16; Type_desc.I32; Type_desc.I64; Type_desc.F32;
      Type_desc.F64 ]

(* random struct of scalars and (possibly null-typed) pointers *)
let struct_gen =
  Q.Gen.(
    let field i =
      map
        (fun k ->
          ( Printf.sprintf "f%d" i,
            match k with
            | `P -> Type_desc.ptr "tnode"
            | `S p -> Type_desc.Prim p ))
        (oneof [ return `P; map (fun p -> `S p) prim_gen ])
    in
    int_range 1 8 >>= fun n ->
    flatten_l (List.init n field) >|= fun fs -> Type_desc.Struct fs)

let layout_arb =
  Q.make
    ~print:(fun (arch, d) -> Format.asprintf "%s / %a" arch.Arch.name Type_desc.pp d)
    Q.Gen.(pair arch_gen struct_gen)

let mk_reg_with ty =
  let reg = Registry.create () in
  Registry.register reg "tnode"
    (Type_desc.Struct [ ("next", Type_desc.ptr "tnode"); ("v", Type_desc.i64) ]);
  Registry.register reg "t" ty;
  reg

let layout_size_positive_aligned =
  Q.Test.make ~name:"layout size positive and aligned" ~count:300 layout_arb
    (fun (arch, ty) ->
      let reg = mk_reg_with ty in
      let l = Layout.of_type reg arch (Type_desc.Named "t") in
      l.Layout.size > 0 && l.Layout.align > 0 && l.Layout.size mod l.Layout.align = 0)

let layout_leaves_in_bounds =
  Q.Test.make ~name:"leaf offsets fit inside the type" ~count:300 layout_arb
    (fun (arch, ty) ->
      let reg = mk_reg_with ty in
      let size = Layout.sizeof reg arch (Type_desc.Named "t") in
      List.for_all
        (fun { Layout.leaf_offset = off; kind } ->
          let leaf_size =
            match kind with
            | Layout.Scalar p -> Type_desc.prim_size p
            | Layout.Ptr _ -> arch.Arch.word_size
          in
          off >= 0 && off + leaf_size <= size)
        (Layout.leaves reg arch (Type_desc.Named "t")))

let layout_leaves_no_overlap =
  Q.Test.make ~name:"leaves do not overlap" ~count:300 layout_arb (fun (arch, ty) ->
      let reg = mk_reg_with ty in
      let spans =
        List.map
          (fun { Layout.leaf_offset = off; kind } ->
            let n =
              match kind with
              | Layout.Scalar p -> Type_desc.prim_size p
              | Layout.Ptr _ -> arch.Arch.word_size
            in
            (off, off + n))
          (Layout.leaves reg arch (Type_desc.Named "t"))
      in
      let sorted = List.sort compare spans in
      let rec ok = function
        | (_, e) :: ((s, _) :: _ as rest) -> e <= s && ok rest
        | _ -> true
      in
      ok sorted)

(* --- Object codec across random architecture pairs --- *)

let codec_roundtrip_cross_arch =
  Q.Test.make ~name:"object codec scalars survive arch translation" ~count:200
    (Q.make
       Q.Gen.(
         triple arch_gen arch_gen (pair struct_gen (list_size (int_range 0 12) int))))
    (fun (arch_a, arch_b, (ty, ints)) ->
      let reg = mk_reg_with ty in
      let size_a = Layout.sizeof reg arch_a (Type_desc.Named "t") in
      let raw = Bytes.make size_a '\000' in
      (* fill scalar leaves with deterministic data derived from ints *)
      let pool = Array.of_list (0x11 :: List.map abs ints) in
      let pick i = pool.(i mod Array.length pool) in
      List.iteri
        (fun i { Layout.leaf_offset = off; kind } ->
          match kind with
          | Layout.Scalar p -> (
            let v = pick i in
            match p with
            | Type_desc.I8 -> Mem.Codec.set_i8 raw off (v land 0xff)
            | I16 -> Mem.Codec.set_i16 arch_a.Arch.endian raw off (v land 0xffff)
            | I32 -> Mem.Codec.set_i32 arch_a.Arch.endian raw off (Int32.of_int v)
            | I64 -> Mem.Codec.set_i64 arch_a.Arch.endian raw off (Int64.of_int v)
            | F32 ->
              Mem.Codec.set_f32 arch_a.Arch.endian raw off (float_of_int (v land 0xffff))
            | F64 -> Mem.Codec.set_f64 arch_a.Arch.endian raw off (float_of_int v))
          | Layout.Ptr _ ->
            (* pointer value = leaf index + 1, unswizzled below *)
            Mem.Codec.set_word arch_a raw off (i + 1))
        (Layout.leaves reg arch_a (Type_desc.Named "t"));
      let origin = Space_id.make ~site:1 ~proc:0 in
      let enc_ctx =
        {
          Object_codec.enc_reg = reg;
          enc_arch = arch_a;
          unswizzle =
            (fun ~ty w -> Some (Long_pointer.make ~origin ~addr:(w * 100) ~ty));
        }
      in
      let dec_ctx =
        {
          Object_codec.dec_reg = reg;
          dec_arch = arch_b;
          swizzle =
            (function Some lp -> lp.Long_pointer.addr / 100 | None -> 0);
        }
      in
      let out =
        Object_codec.decode dec_ctx ~ty:"t" (Object_codec.encode enc_ctx ~ty:"t" raw)
      in
      (* compare leaf by leaf *)
      List.for_all2
        (fun la lb ->
          match (la.Layout.kind, lb.Layout.kind) with
          | Layout.Scalar pa, Layout.Scalar _ -> (
            let oa = la.Layout.leaf_offset and ob = lb.Layout.leaf_offset in
            match pa with
            | Type_desc.I8 -> Mem.Codec.get_i8 raw oa = Mem.Codec.get_i8 out ob
            | I16 ->
              Mem.Codec.get_i16 arch_a.Arch.endian raw oa
              = Mem.Codec.get_i16 arch_b.Arch.endian out ob
            | I32 ->
              Mem.Codec.get_i32 arch_a.Arch.endian raw oa
              = Mem.Codec.get_i32 arch_b.Arch.endian out ob
            | I64 ->
              Mem.Codec.get_i64 arch_a.Arch.endian raw oa
              = Mem.Codec.get_i64 arch_b.Arch.endian out ob
            | F32 ->
              Mem.Codec.get_f32 arch_a.Arch.endian raw oa
              = Mem.Codec.get_f32 arch_b.Arch.endian out ob
            | F64 ->
              Mem.Codec.get_f64 arch_a.Arch.endian raw oa
              = Mem.Codec.get_f64 arch_b.Arch.endian out ob)
          | Layout.Ptr _, Layout.Ptr _ ->
            Mem.Codec.get_word arch_a raw la.Layout.leaf_offset
            = Mem.Codec.get_word arch_b out lb.Layout.leaf_offset
          | _ -> false)
        (Layout.leaves reg arch_a (Type_desc.Named "t"))
        (Layout.leaves reg arch_b (Type_desc.Named "t")))

(* --- end-to-end equivalences --- *)

let strategy_gen =
  Q.Gen.oneofl
    [
      Strategy.fully_eager;
      Strategy.fully_lazy;
      Strategy.smart ~closure_size:64 ();
      Strategy.smart ~closure_size:1024 ();
      { (Strategy.smart ()) with Strategy.order = Strategy.Depth_first };
      { (Strategy.smart ()) with Strategy.grain = Strategy.Twin_diff };
      { (Strategy.smart ()) with Strategy.grouping = Strategy.By_type };
    ]

let strategy_arb =
  Q.make ~print:(Format.asprintf "%a" Strategy.pp) strategy_gen

let remote_list_sum_equals_local =
  Q.Test.make ~name:"remote list sum = local sum (all strategies)" ~count:60
    Q.(pair strategy_arb (list_of_size Q.Gen.(int_range 0 40) (int_range (-1000) 1000)))
    (fun (strategy, xs) ->
      let cluster = Cluster.create ~cost:Cost_model.zero () in
      let a = Cluster.add_node cluster ~site:1 ~strategy () in
      let b = Cluster.add_node cluster ~site:2 ~strategy () in
      Linked_list.register_types cluster;
      let head = Linked_list.build a xs in
      Node.register b "sum" (fun node args ->
          [ Value.int (Linked_list.sum node (Access.of_value (List.hd args))) ]);
      Node.with_session a (fun () ->
          match Node.call a ~dst:(Node.id b) "sum" [ Access.to_value head ] with
          | [ v ] -> Value.to_int v = List.fold_left ( + ) 0 xs
          | _ -> false))

let remote_update_equals_local =
  Q.Test.make ~name:"remote in-place map = local map after write-back" ~count:60
    Q.(pair strategy_arb (list_of_size Q.Gen.(int_range 1 30) (int_range (-500) 500)))
    (fun (strategy, xs) ->
      let cluster = Cluster.create ~cost:Cost_model.zero () in
      let a = Cluster.add_node cluster ~site:1 ~strategy () in
      let b = Cluster.add_node cluster ~site:2 ~strategy () in
      Linked_list.register_types cluster;
      let head = Linked_list.build a xs in
      Node.register b "triple" (fun node args ->
          Linked_list.map_in_place node (Access.of_value (List.hd args))
            (fun x -> (3 * x) + 1);
          []);
      Node.with_session a (fun () ->
          ignore (Node.call a ~dst:(Node.id b) "triple" [ Access.to_value head ]));
      Linked_list.to_list a head = List.map (fun x -> (3 * x) + 1) xs)

let remote_graph_walk_equals_local =
  Q.Test.make ~name:"remote cyclic graph walk = local walk" ~count:30
    Q.(pair strategy_arb (pair (Q.int_range 1 60) (Q.int_range 0 1000)))
    (fun (strategy, (nodes, seed)) ->
      let cluster = Cluster.create ~cost:Cost_model.zero () in
      let a = Cluster.add_node cluster ~site:1 ~strategy () in
      let b = Cluster.add_node cluster ~site:2 ~strategy () in
      Graph.register_types cluster;
      let root = Graph.build a ~nodes ~seed in
      let expect = Graph.reachable_sum a root in
      Node.register b "walk" (fun node args ->
          let n, s = Graph.reachable_sum node (Access.of_value (List.hd args)) in
          [ Value.int n; Value.int s ]);
      Node.with_session a (fun () ->
          match Node.call a ~dst:(Node.id b) "walk" [ Access.to_value root ] with
          | [ n; s ] -> (Value.to_int n, Value.to_int s) = expect
          | _ -> false))

let tree_search_all_strategies_agree =
  Q.Test.make ~name:"tree search result is strategy-independent" ~count:25
    Q.(pair (Q.int_range 1 8) (Q.int_range 0 100))
    (fun (depth, pct) ->
      let ratio = float_of_int pct /. 100.0 in
      let run strategy =
        let r = Experiments.run_tree_search ~strategy ~depth ~ratio () in
        r.Experiments.visited
      in
      let a = run Strategy.fully_eager in
      let b = run Strategy.fully_lazy in
      let c = run (Strategy.smart ~closure_size:256 ()) in
      a = b && b = c)

let hash_table_model_check =
  (* random insert/remove trace checked against a Hashtbl model *)
  Q.Test.make ~name:"hash table matches model" ~count:60
    Q.(list_of_size Q.Gen.(int_range 1 80) (pair (Q.int_range (-20) 20) Q.bool))
    (fun ops ->
      let cluster = Cluster.create ~cost:Cost_model.zero () in
      let a = Cluster.add_node cluster ~site:1 () in
      Hash_table.register_types cluster;
      let t = Hash_table.create a in
      let model : (int, int list) Hashtbl.t = Hashtbl.create 16 in
      let model_find k = match Hashtbl.find_opt model k with Some (v :: _) -> Some v | _ -> None in
      List.iteri
        (fun i (k, insert) ->
          if insert then begin
            Hash_table.insert a t ~key:k ~value:i;
            Hashtbl.replace model k (i :: Option.value ~default:[] (Hashtbl.find_opt model k))
          end
          else begin
            let removed = Hash_table.remove a t ~key:k in
            let model_removed =
              match Hashtbl.find_opt model k with
              | Some (_ :: rest) ->
                Hashtbl.replace model k rest;
                true
              | _ -> false
            in
            if removed <> model_removed then raise Exit
          end)
        ops;
      Hashtbl.fold (fun k _ acc -> acc && model_find k = Hash_table.lookup a t ~key:k)
        model true)

(* --- random multi-site mutation scripts vs a pure model --- *)

(* A shared array of counters lives on site 1 as a complete tree; a
   random script of (executor, index, delta) operations runs over RPC
   from sites 2 and 3 (nested through each other at random); the final
   tree at the origin must equal a pure-OCaml model. This exercises the
   coherency protocol (travel of the modified set, write-back,
   invalidation) under arbitrary interleavings. *)
let coherency_random_ops =
  let op_gen =
    Q.Gen.(triple (int_range 0 1) (int_range 0 30) (int_range (-9) 9))
  in
  Q.Test.make ~name:"random mutation scripts match a pure model" ~count:40
    Q.(
      pair strategy_arb
        (make
           ~print:(fun ops ->
             String.concat ";"
               (List.map
                  (fun (w, i, d) -> Printf.sprintf "%d:%d%+d" w i d)
                  ops))
           Q.Gen.(list_size (int_range 1 25) op_gen)))
    (fun (strategy, ops) ->
      let depth = 5 in
      let n = Tree.nodes_of_depth depth in
      let cluster = Cluster.create ~cost:Cost_model.zero () in
      let origin = Cluster.add_node cluster ~site:1 ~strategy () in
      let w1 = Cluster.add_node cluster ~site:2 ~strategy () in
      let w2 = Cluster.add_node cluster ~site:3 ~strategy () in
      Tree.register_types cluster;
      let root = Tree.build origin ~depth in
      (* preorder index -> pointer, resolved on whatever node executes *)
      let nth_preorder node root k =
        let count = ref (-1) in
        let found = ref None in
        let rec go p =
          if (not (Access.is_null p)) && !found = None then begin
            incr count;
            if !count = k then found := Some p
            else begin
              go (Access.get_ptr node p ~field:"left");
              go (Access.get_ptr node p ~field:"right")
            end
          end
        in
        go root;
        Option.get !found
      in
      let add_proc node args =
        match args with
        | [ rootv; iv; dv ] ->
          let p = nth_preorder node (Access.of_value rootv) (Value.to_int iv) in
          Access.set_int node p ~field:"data"
            (Access.get_int node p ~field:"data" + Value.to_int dv);
          []
        | _ -> assert false
      in
      Node.register w1 "add" add_proc;
      Node.register w2 "add" add_proc;
      (* relay: w1 forwards to w2 (nested RPC path) *)
      Node.register w1 "relay_add" (fun node args ->
          Node.call node ~dst:(Node.id w2) "add" args);
      (* pure model: preorder index = data value ordering from Tree.build *)
      let model = Array.init n (fun i -> i) in
      Node.with_session origin (fun () ->
          List.iter
            (fun (which, idx, delta) ->
              let idx = idx mod n in
              model.(idx) <- model.(idx) + delta;
              let args =
                [ Access.to_value root; Value.int idx; Value.int delta ]
              in
              match which with
              | 0 -> ignore (Node.call origin ~dst:(Node.id w1) "add" args)
              | _ -> ignore (Node.call origin ~dst:(Node.id w1) "relay_add" args))
            ops);
      (* after the session everything is written back to the origin *)
      let vals = ref [] in
      let rec collect p =
        if not (Access.is_null p) then begin
          vals := Access.get_int origin p ~field:"data" :: !vals;
          collect (Access.get_ptr origin p ~field:"left");
          collect (Access.get_ptr origin p ~field:"right")
        end
      in
      collect root;
      List.rev !vals = Array.to_list model)

(* --- B-tree vs Map model --- *)

let btree_model_check =
  Q.Test.make ~name:"b-tree matches a Map model (with invariants)" ~count:60
    Q.(list_of_size Q.Gen.(int_range 0 120) (pair (Q.int_range (-50) 50) Q.small_nat))
    (fun ops ->
      let cluster = Cluster.create ~cost:Cost_model.zero () in
      let a = Cluster.add_node cluster ~site:1 () in
      Btree.register_types cluster;
      let t = Btree.create a in
      let model = Hashtbl.create 32 in
      List.iter
        (fun (k, v) ->
          Btree.insert a t ~key:k ~value:v;
          Hashtbl.replace model k v)
        ops;
      (match Btree.check_invariants a t with
      | Ok () -> ()
      | Error msg -> Q.Test.fail_report msg);
      Hashtbl.fold
        (fun k v acc -> acc && Btree.search a t ~key:k = Some v)
        model true
      && Btree.cardinal a t = Hashtbl.length model
      && List.map fst (Btree.to_list a t)
         = List.sort compare
             (Hashtbl.fold (fun k _ acc -> k :: acc) model []))

let btree_remote_equals_local =
  Q.Test.make ~name:"remote b-tree growth = local growth" ~count:25
    Q.(
      pair strategy_arb
        (list_of_size Q.Gen.(int_range 1 60) (pair (Q.int_range 0 99) Q.small_nat)))
    (fun (strategy, ops) ->
      let cluster = Cluster.create ~cost:Cost_model.zero () in
      let a = Cluster.add_node cluster ~site:1 ~strategy () in
      let b = Cluster.add_node cluster ~site:2 ~strategy () in
      Btree.register_types cluster;
      let t = Btree.create a in
      Node.register b "ins" (fun node args ->
          match args with
          | [ tv; kv; vv ] ->
            Btree.insert node (Access.of_value tv) ~key:(Value.to_int kv)
              ~value:(Value.to_int vv);
            []
          | _ -> assert false);
      Node.with_session a (fun () ->
          List.iter
            (fun (k, v) ->
              ignore
                (Node.call a ~dst:(Node.id b) "ins"
                   [ Access.to_value t; Value.int k; Value.int v ]))
            ops);
      let model = Hashtbl.create 16 in
      List.iter (fun (k, v) -> Hashtbl.replace model k v) ops;
      Btree.check_invariants a t = Ok ()
      && Hashtbl.fold (fun k v acc -> acc && Btree.search a t ~key:k = Some v) model true)

(* --- wire fuzzing: random bytes must fail cleanly --- *)

let wire_fuzz_decode_request =
  Q.Test.make ~name:"random bytes never crash the request decoder" ~count:300
    Q.string (fun s ->
      let reg = mk_reg_with (Type_desc.Struct [ ("x", Type_desc.i64) ]) in
      match Srpc_core.Wire.decode_request ~reg s with
      | _ -> true (* an accidental parse is fine *)
      | exception Srpc_xdr.Xdr.Decode_error _ -> true
      | exception Registry.Unknown_type _ -> true
      | exception _ -> false)

let wire_fuzz_decode_response =
  Q.Test.make ~name:"random bytes never crash the response decoder" ~count:300
    Q.string (fun s ->
      let reg = mk_reg_with (Type_desc.Struct [ ("x", Type_desc.i64) ]) in
      match Srpc_core.Wire.decode_response ~reg s with
      | _ -> true
      | exception Srpc_xdr.Xdr.Decode_error _ -> true
      | exception Registry.Unknown_type _ -> true
      | exception _ -> false)

(* --- cache invariants under random operation traces --- *)

type cache_op = CAlloc of int | CPresent of int | CDirty of int | CRemove of int

let cache_ops_arb =
  let gen =
    Q.Gen.(
      frequency
        [
          (4, map (fun n -> CAlloc ((n mod 120) + 1)) nat);
          (3, map (fun i -> CPresent i) nat);
          (2, map (fun i -> CDirty i) nat);
          (2, map (fun i -> CRemove i) nat);
        ])
  in
  Q.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | CAlloc n -> Printf.sprintf "A%d" n
             | CPresent i -> Printf.sprintf "P%d" i
             | CDirty i -> Printf.sprintf "D%d" i
             | CRemove i -> Printf.sprintf "R%d" i)
           ops))
    Q.Gen.(list_size (int_range 1 80) gen)

let cache_invariants_random =
  Q.Test.make ~name:"cache invariants under random traces" ~count:150
    Q.(pair (oneofl [ Srpc_core.Strategy.By_origin; Srpc_core.Strategy.Sequential;
                      Srpc_core.Strategy.By_type; Srpc_core.Strategy.Entry_per_page ])
         cache_ops_arb)
    (fun (grouping, ops) ->
      let open Srpc_core in
      let space =
        Address_space.create ~page_size:256
          ~id:(Space_id.make ~site:2 ~proc:0)
          ~arch:Arch.sparc32 ()
      in
      let cache =
        Cache.create ~space ~base:4096 ~limit:(4096 * 64) ~grouping
          ~grain:Strategy.Page_grain
      in
      let live = ref [] in
      let counter = ref 0 in
      List.iter
        (fun op ->
          match op with
          | CAlloc size ->
            incr counter;
            let lp =
              Long_pointer.make
                ~origin:(Space_id.make ~site:1 ~proc:0)
                ~addr:(!counter * 0x100) ~ty:"t"
            in
            (match Cache.allocate cache lp ~size with
            | e -> live := e :: !live
            | exception Cache.Region_full -> ())
          | CPresent i ->
            if !live <> [] then
              Cache.mark_present cache (List.nth !live (i mod List.length !live))
          | CDirty i ->
            if !live <> [] then begin
              let e = List.nth !live (i mod List.length !live) in
              (* dirtying requires presence, like a real write fault *)
              if e.Cache.present then
                Cache.mark_page_dirty cache
                  ~page:(Address_space.page_of_addr space e.Cache.local_addr)
            end
          | CRemove i ->
            if !live <> [] then begin
              let k = i mod List.length !live in
              Cache.remove cache (List.nth !live k);
              live := List.filteri (fun j _ -> j <> k) !live
            end)
        ops;
      match Cache.check_invariants cache with
      | Ok () -> true
      | Error msg -> Q.Test.fail_report msg)

(* --- IDL server skeletons never crash on malformed argument lists --- *)

let idl_server_fuzz =
  let value_gen =
    Q.Gen.(
      oneof
        [
          return Srpc_core.Value.Unit;
          map Srpc_core.Value.bool bool;
          map Srpc_core.Value.int small_int;
          map Srpc_core.Value.float float;
          map Srpc_core.Value.str string;
          map (fun a -> Srpc_core.Value.ptr ~ty:"t" (abs a)) small_int;
        ])
  in
  Q.Test.make ~name:"idl skeleton: apply cleanly or Signature_error" ~count:300
    (Q.make Q.Gen.(list_size (int_range 0 6) value_gen))
    (fun args ->
      let open Srpc_core in
      let sg = Idl.(int @-> string @-> returning2 int bool) in
      let t = Idl.declare "p" sg in
      (* reach the server path through a local node *)
      let cluster = Cluster.create ~cost:Cost_model.zero () in
      let n = Cluster.add_node cluster ~site:1 () in
      Idl.export n t (fun _ x s -> (x + String.length s, x > 0));
      match Node.run_local n "p" args with
      | results -> List.length results = 2
      | exception Idl.Signature_error _ -> true
      | exception _ -> false)

(* --- hints change traffic, never results --- *)

let hints_preserve_semantics =
  let rule_gen =
    Q.Gen.(
      map2
        (fun follow_left prune ->
          {
            Srpc_core.Hints.follow = (if follow_left then [ "left" ] else [ "right" ]);
            prune_others = prune;
          })
        bool bool)
  in
  Q.Test.make ~name:"closure hints never change results" ~count:40
    (Q.make Q.Gen.(pair rule_gen (int_range 3 8)))
    (fun (rule, depth) ->
      let cluster = Cluster.create ~cost:Cost_model.zero () in
      let a = Cluster.add_node cluster ~site:1 () in
      let b = Cluster.add_node cluster ~site:2 () in
      Tree.register_types cluster;
      Cluster.set_closure_hint cluster ~ty:Tree.type_name rule;
      let root = Tree.build a ~depth in
      let expect = Tree.nodes_of_depth depth * (Tree.nodes_of_depth depth - 1) / 2 in
      Node.register b "sum" (fun node args ->
          let _, s = Tree.visit node (Access.of_value (List.hd args)) ~limit:max_int in
          [ Value.int s ]);
      Node.with_session a (fun () ->
          match Node.call a ~dst:(Node.id b) "sum" [ Access.to_value root ] with
          | [ v ] -> Value.to_int v = expect
          | _ -> false))

let () =
  try
    Alcotest.run ~and_exit:false "properties"
      [
      ( "xdr",
        List.map to_alcotest
          [
            xdr_int_roundtrip;
            xdr_hyper_roundtrip;
            xdr_float_roundtrip;
            xdr_string_roundtrip;
            xdr_string_alignment;
            xdr_int_list_roundtrip;
          ] );
      ( "allocator",
        List.map to_alcotest [ allocator_invariants; allocator_blocks_disjoint ] );
      ("cache", List.map to_alcotest [ cache_invariants_random ]);
      ( "layout",
        List.map to_alcotest
          [
            layout_size_positive_aligned;
            layout_leaves_in_bounds;
            layout_leaves_no_overlap;
          ] );
      ("codec", List.map to_alcotest [ codec_roundtrip_cross_arch ]);
      ( "end-to-end",
        List.map to_alcotest
          [
            remote_list_sum_equals_local;
            remote_update_equals_local;
            remote_graph_walk_equals_local;
            tree_search_all_strategies_agree;
            hash_table_model_check;
            coherency_random_ops;
            btree_model_check;
            btree_remote_equals_local;
          ] );
      ( "fuzz",
        List.map to_alcotest
          [ wire_fuzz_decode_request; wire_fuzz_decode_response; idl_server_fuzz ] );
      ("hints", List.map to_alcotest [ hints_preserve_semantics ]);
      ]
  with Alcotest.Test_error ->
    Printf.eprintf "properties: effective QCheck seed was SRPC_SEED=%d\n%!" seed;
    exit 1
