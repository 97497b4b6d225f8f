(* Unit tests for the type system: descriptors, the registry (name
   server), per-architecture layout and leaf enumeration. *)

open Srpc_memory
open Srpc_types
open Type_desc

let mk_reg () =
  let reg = Registry.create () in
  Registry.register reg "node"
    (Struct [ ("left", ptr "node"); ("right", ptr "node"); ("data", i64) ]);
  Registry.register reg "pair" (Struct [ ("a", i32); ("b", i32) ]);
  Registry.register reg "mixed"
    (Struct [ ("tag", i8); ("value", i64); ("weight", f32) ]);
  reg

(* --- descriptors --- *)

let test_prim_sizes () =
  List.iter
    (fun (p, n) -> Alcotest.(check int) "size" n (prim_size p))
    [ (I8, 1); (I16, 2); (I32, 4); (I64, 8); (F32, 4); (F64, 8) ]

let test_desc_equal () =
  Alcotest.(check bool) "equal" true
    (equal (Struct [ ("x", i32) ]) (Struct [ ("x", i32) ]));
  Alcotest.(check bool) "field name" false
    (equal (Struct [ ("x", i32) ]) (Struct [ ("y", i32) ]));
  Alcotest.(check bool) "arity" false
    (equal (Struct [ ("x", i32) ]) (Struct [ ("x", i32); ("y", i32) ]));
  Alcotest.(check bool) "array len" false (equal (Array (i8, 3)) (Array (i8, 4)));
  Alcotest.(check bool) "pointer target" false (equal (ptr "a") (ptr "b"))

let test_desc_pp () =
  Alcotest.(check string) "pointer" "node*" (Format.asprintf "%a" pp (ptr "node"));
  Alcotest.(check string) "array" "i32[4]" (Format.asprintf "%a" pp (Array (i32, 4)))

(* --- registry --- *)

let test_registry_find () =
  let reg = mk_reg () in
  Alcotest.(check bool) "mem" true (Registry.mem reg "node");
  Alcotest.(check bool) "not mem" false (Registry.mem reg "zilch");
  Alcotest.check_raises "unknown" (Registry.Unknown_type "zilch") (fun () ->
      ignore (Registry.find reg "zilch"))

let test_registry_idempotent_register () =
  let reg = mk_reg () in
  Registry.register reg "pair" (Struct [ ("a", i32); ("b", i32) ]);
  Alcotest.check_raises "conflict" (Registry.Duplicate_type "pair") (fun () ->
      Registry.register reg "pair" (Struct [ ("a", i64); ("b", i64) ]))

let test_registry_ids_roundtrip () =
  let reg = mk_reg () in
  List.iter
    (fun name ->
      let id = Registry.id_of_name reg name in
      Alcotest.(check string) name name (Registry.name_of_id reg id))
    (Registry.names reg);
  Alcotest.check_raises "unknown id" (Registry.Unknown_type "#999") (fun () ->
      ignore (Registry.name_of_id reg 999))

(* Ids index a dense array: outside the assigned range is unknown, on
   either side, including past the array's first growth. *)
let test_registry_name_of_id_bounds () =
  let reg = mk_reg () in
  let assigned = List.length (Registry.names reg) in
  Alcotest.check_raises "negative id" (Registry.Unknown_type "#-1") (fun () ->
      ignore (Registry.name_of_id reg (-1)));
  Alcotest.check_raises "first unassigned id"
    (Registry.Unknown_type (Printf.sprintf "#%d" assigned))
    (fun () -> ignore (Registry.name_of_id reg assigned));
  for i = 1 to 100 do
    Registry.register reg (Printf.sprintf "extra%d" i) (Prim I32)
  done;
  Alcotest.(check string) "last id" "extra100"
    (Registry.name_of_id reg (assigned + 99));
  Alcotest.check_raises "first unassigned id after growth"
    (Registry.Unknown_type (Printf.sprintf "#%d" (assigned + 100)))
    (fun () -> ignore (Registry.name_of_id reg (assigned + 100)))

let test_registry_ids_distinct () =
  let reg = mk_reg () in
  let ids = List.map (Registry.id_of_name reg) (Registry.names reg) in
  Alcotest.(check int) "distinct" (List.length ids)
    (List.length (List.sort_uniq compare ids))

let test_registry_resolve_alias () =
  let reg = mk_reg () in
  Registry.register reg "alias" (Named "pair");
  Registry.register reg "alias2" (Named "alias");
  match Registry.resolve reg (Named "alias2") with
  | Struct [ ("a", _); ("b", _) ] -> ()
  | d -> Alcotest.failf "resolved to %a" pp d

let test_registry_cyclic_alias_detected () =
  let reg = Registry.create () in
  Registry.register reg "x" (Named "y");
  Registry.register reg "y" (Named "x");
  Alcotest.(check bool) "cycle" true
    (match Registry.resolve reg (Named "x") with
    | _ -> false
    | exception Registry.Unknown_type _ -> true)

(* --- layout --- *)

let test_layout_tree_node_by_arch () =
  let reg = mk_reg () in
  (* The paper's node: 16 bytes on a 32-bit machine... *)
  Alcotest.(check int) "sparc32" 16 (Layout.sizeof_name reg Arch.sparc32 "node");
  (* ...and 24 on a 64-bit machine. *)
  Alcotest.(check int) "lp64" 24 (Layout.sizeof_name reg Arch.lp64_le "node")

let test_layout_field_offsets () =
  let reg = mk_reg () in
  let off arch f = Layout.field_offset reg arch ~ty:(Named "node") ~field:f in
  Alcotest.(check int) "left@32" 0 (off Arch.sparc32 "left");
  Alcotest.(check int) "right@32" 4 (off Arch.sparc32 "right");
  Alcotest.(check int) "data@32" 8 (off Arch.sparc32 "data");
  Alcotest.(check int) "right@64" 8 (off Arch.lp64_le "right");
  Alcotest.(check int) "data@64" 16 (off Arch.lp64_le "data")

let test_layout_alignment_padding () =
  let reg = mk_reg () in
  (* i8 tag, padded to 8 for the i64, f32 then struct padding to 8 *)
  let l = Layout.of_type reg Arch.sparc32 (Named "mixed") in
  Alcotest.(check int) "size" 24 l.Layout.size;
  Alcotest.(check int) "align" 8 l.Layout.align;
  Alcotest.(check int) "value offset" 8
    (Layout.field_offset reg Arch.sparc32 ~ty:(Named "mixed") ~field:"value")

let test_layout_array_stride () =
  let reg = mk_reg () in
  Alcotest.(check int) "i32[5]" 20 (Layout.sizeof reg Arch.sparc32 (Array (i32, 5)));
  Alcotest.(check int) "ptr[3]@64" 24
    (Layout.sizeof reg Arch.lp64_le (Array (ptr "node", 3)));
  Alcotest.(check int) "empty" 0 (Layout.sizeof reg Arch.sparc32 (Array (i64, 0)))

let test_layout_nested_struct () =
  let reg = mk_reg () in
  Registry.register reg "outer"
    (Struct [ ("hdr", i16); ("inner", Named "pair"); ("tail", i8) ]);
  let l = Layout.of_type reg Arch.sparc32 (Named "outer") in
  (* hdr 0..2, pad to 4, inner 4..12, tail 12, pad to 16 *)
  Alcotest.(check int) "size" 16 l.Layout.size;
  Alcotest.(check int) "inner offset" 4
    (Layout.field_offset reg Arch.sparc32 ~ty:(Named "outer") ~field:"inner")

let test_layout_field_type () =
  let reg = mk_reg () in
  Alcotest.(check bool) "left is ptr" true
    (equal (Layout.field_type reg ~ty:(Named "node") ~field:"left") (ptr "node"));
  Alcotest.check_raises "missing field" Not_found (fun () ->
      ignore (Layout.field_type reg ~ty:(Named "node") ~field:"nope"))

let test_layout_recursive_by_value_rejected () =
  let reg = Registry.create () in
  Registry.register reg "selfish" (Struct [ ("me", Named "selfish") ]);
  Alcotest.(check bool) "recursive" true
    (match Layout.sizeof_name reg Arch.sparc32 "selfish" with
    | _ -> false
    | exception Layout.Recursive_type _ -> true)

let test_layout_recursive_behind_pointer_ok () =
  let reg = mk_reg () in
  (* "node" contains node* — must not be flagged *)
  Alcotest.(check int) "fine" 16 (Layout.sizeof_name reg Arch.sparc32 "node")

(* Two registries may bind one name to different types, and each
   answers from its own binding even when the name is the very same
   string value and the two are asked in turn at one word size. *)
let test_layout_one_name_two_registries () =
  let cell = "cell" in
  let a = Registry.create () and b = Registry.create () in
  Registry.register a cell (Struct [ ("v", i32) ]);
  Registry.register b "pair" (Struct [ ("a", i32); ("b", i32) ]);
  Registry.register b cell (Struct [ ("next", ptr cell); ("v", i64) ]);
  for round = 1 to 3 do
    let what fmt = Printf.sprintf fmt round in
    Alcotest.(check int) (what "size in a, round %d") 4
      (Layout.sizeof_name a Arch.sparc32 cell);
    Alcotest.(check int) (what "id in a, round %d") 0 (Registry.id_of_name a cell);
    Alcotest.(check int) (what "size in b, round %d") 16
      (Layout.sizeof_name b Arch.sparc32 cell);
    Alcotest.(check int) (what "id in b, round %d") 1 (Registry.id_of_name b cell)
  done;
  Alcotest.(check int) "size in a after b" 4 (Layout.sizeof_name a Arch.sparc32 cell);
  Alcotest.(check int) "id in b after a" 1 (Registry.id_of_name b cell);
  Alcotest.(check int) "id in a after b" 0 (Registry.id_of_name a cell);
  Alcotest.(check int) "size in b after a" 16 (Layout.sizeof_name b Arch.sparc32 cell)

(* --- wire codec --- *)

let roundtrip_desc d =
  let e = Srpc_xdr.Xdr.Enc.create () in
  Type_codec.encode_desc e d;
  let dec = Srpc_xdr.Xdr.Dec.of_string (Srpc_xdr.Xdr.Enc.to_string e) in
  let d' = Type_codec.decode_desc dec in
  Srpc_xdr.Xdr.Dec.check_end dec;
  d'

let test_codec_desc_roundtrips () =
  List.iter
    (fun d -> Alcotest.(check bool) (Format.asprintf "%a" pp d) true (equal d (roundtrip_desc d)))
    [
      i8; i64; f32;
      ptr "node";
      Array (i32, 7);
      Named "pair";
      Struct [ ("a", ptr "node"); ("b", Array (Named "pair", 2)); ("c", f64) ];
      Struct [];
    ]

let test_codec_snapshot_load_preserves_ids () =
  let reg = mk_reg () in
  Registry.register reg "late" (Struct [ ("z", i8) ]);
  let copy = Registry.create () in
  Type_codec.load (Type_codec.snapshot reg) copy;
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " desc") true
        (equal (Registry.find reg name) (Registry.find copy name));
      Alcotest.(check int) (name ^ " id") (Registry.id_of_name reg name)
        (Registry.id_of_name copy name))
    (Registry.names reg)

let test_codec_load_conflict_detected () =
  let reg = mk_reg () in
  let other = Registry.create () in
  Registry.register other "node" (Struct [ ("different", i8) ]);
  Alcotest.check_raises "conflict" (Registry.Duplicate_type "node") (fun () ->
      Type_codec.load (Type_codec.snapshot reg) other)

(* --- leaves --- *)

let test_leaves_order_and_kinds () =
  let reg = mk_reg () in
  let ls = Layout.leaves reg Arch.sparc32 (Named "node") in
  match ls with
  | [ l1; l2; l3 ] ->
    Alcotest.(check int) "left off" 0 l1.Layout.leaf_offset;
    Alcotest.(check bool) "left is ptr" true (l1.Layout.kind = Layout.Ptr "node");
    Alcotest.(check int) "right off" 4 l2.Layout.leaf_offset;
    Alcotest.(check bool) "data is i64" true (l3.Layout.kind = Layout.Scalar I64);
    Alcotest.(check int) "data off" 8 l3.Layout.leaf_offset
  | _ -> Alcotest.failf "expected 3 leaves, got %d" (List.length ls)

let test_leaves_flatten_arrays_and_structs () =
  let reg = mk_reg () in
  Registry.register reg "deep"
    (Struct [ ("ps", Array (ptr "node", 2)); ("pairs", Array (Named "pair", 2)) ]);
  let ls = Layout.leaves reg Arch.sparc32 (Named "deep") in
  Alcotest.(check int) "2 ptrs + 4 ints" 6 (List.length ls);
  let kinds =
    List.map
      (fun l -> match l.Layout.kind with Layout.Ptr _ -> "p" | Layout.Scalar _ -> "s")
      ls
  in
  Alcotest.(check (list string)) "order" [ "p"; "p"; "s"; "s"; "s"; "s" ] kinds

let test_leaves_same_shape_across_arches () =
  let reg = mk_reg () in
  let kinds arch =
    List.map (fun l -> l.Layout.kind) (Layout.leaves reg arch (Named "node"))
  in
  Alcotest.(check bool) "kind sequence arch-independent" true
    (kinds Arch.sparc32 = kinds Arch.lp64_le)

let test_pointer_leaves () =
  let reg = mk_reg () in
  Alcotest.(check (list (pair int string)))
    "node ptr fields"
    [ (0, "node"); (4, "node") ]
    (Layout.pointer_leaves reg Arch.sparc32 (Named "node"));
  Alcotest.(check (list (pair int string)))
    "64-bit offsets"
    [ (0, "node"); (8, "node") ]
    (Layout.pointer_leaves reg Arch.lp64_be (Named "node"))

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "types"
    [
      ( "descriptors",
        [
          tc "prim sizes" `Quick test_prim_sizes;
          tc "equality" `Quick test_desc_equal;
          tc "printing" `Quick test_desc_pp;
        ] );
      ( "registry",
        [
          tc "find" `Quick test_registry_find;
          tc "idempotent register" `Quick test_registry_idempotent_register;
          tc "numeric ids roundtrip" `Quick test_registry_ids_roundtrip;
          tc "unassigned ids are unknown" `Quick test_registry_name_of_id_bounds;
          tc "numeric ids distinct" `Quick test_registry_ids_distinct;
          tc "resolve aliases" `Quick test_registry_resolve_alias;
          tc "cyclic alias detected" `Quick test_registry_cyclic_alias_detected;
        ] );
      ( "layout",
        [
          tc "tree node size per arch (paper heterogeneity)" `Quick
            test_layout_tree_node_by_arch;
          tc "field offsets" `Quick test_layout_field_offsets;
          tc "alignment padding" `Quick test_layout_alignment_padding;
          tc "array stride" `Quick test_layout_array_stride;
          tc "nested struct" `Quick test_layout_nested_struct;
          tc "field type lookup" `Quick test_layout_field_type;
          tc "recursive by value rejected" `Quick
            test_layout_recursive_by_value_rejected;
          tc "recursive behind pointer ok" `Quick
            test_layout_recursive_behind_pointer_ok;
          tc "one name, two registries" `Quick test_layout_one_name_two_registries;
        ] );
      ( "wire-codec",
        [
          tc "descriptor roundtrips" `Quick test_codec_desc_roundtrips;
          tc "snapshot/load preserves ids" `Quick test_codec_snapshot_load_preserves_ids;
          tc "load conflict detected" `Quick test_codec_load_conflict_detected;
        ] );
      ( "leaves",
        [
          tc "order and kinds" `Quick test_leaves_order_and_kinds;
          tc "flatten arrays and structs" `Quick test_leaves_flatten_arrays_and_structs;
          tc "shape is arch-independent" `Quick test_leaves_same_shape_across_arches;
          tc "pointer leaves" `Quick test_pointer_leaves;
        ] );
    ]
