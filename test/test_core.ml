(* Unit tests for the core runtime's data structures: values, long
   pointers, strategies, the wire protocol, the cache / data allocation
   table, and the type-directed object codec. *)

open Srpc_memory
open Srpc_types
open Srpc_core

let sid1 = Space_id.make ~site:1 ~proc:0
let sid2 = Space_id.make ~site:2 ~proc:0

let mk_reg () =
  let reg = Registry.create () in
  Registry.register reg "node"
    (Type_desc.Struct
       [
         ("left", Type_desc.ptr "node");
         ("right", Type_desc.ptr "node");
         ("data", Type_desc.i64);
       ]);
  Registry.register reg "cell"
    (Type_desc.Struct [ ("next", Type_desc.ptr "cell"); ("v", Type_desc.i32) ]);
  reg

(* --- Value --- *)

let test_value_projections () =
  Alcotest.(check bool) "bool" true (Value.to_bool (Value.bool true));
  Alcotest.(check int) "int" 42 (Value.to_int (Value.int 42));
  Alcotest.(check int64) "int64" 7L (Value.to_int64 (Value.int64 7L));
  Alcotest.(check (float 0.0)) "float" 1.5 (Value.to_float (Value.float 1.5));
  Alcotest.(check string) "str" "s" (Value.to_str (Value.str "s"));
  Alcotest.(check int) "addr" 0x100 (Value.to_addr (Value.ptr ~ty:"node" 0x100));
  Alcotest.(check string) "ty" "node" (Value.ptr_ty (Value.ptr ~ty:"node" 0x100));
  Alcotest.(check int) "null" 0 (Value.to_addr (Value.null ~ty:"node"))

let test_value_type_errors () =
  Alcotest.(check bool) "int of str" true
    (match Value.to_int (Value.str "x") with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "addr of int" true
    (match Value.to_addr (Value.int 3) with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_value_equal () =
  Alcotest.(check bool) "ptr eq" true
    (Value.equal (Value.ptr ~ty:"a" 1) (Value.ptr ~ty:"a" 1));
  Alcotest.(check bool) "ptr ty neq" false
    (Value.equal (Value.ptr ~ty:"a" 1) (Value.ptr ~ty:"b" 1));
  Alcotest.(check bool) "cross neq" false (Value.equal Value.unit (Value.int 0))

(* --- Long_pointer --- *)

let test_lp_equal_hash () =
  let a = Long_pointer.make ~origin:sid1 ~addr:0x10 ~ty:"node" in
  let b = Long_pointer.make ~origin:sid1 ~addr:0x10 ~ty:"node" in
  let c = Long_pointer.make ~origin:sid2 ~addr:0x10 ~ty:"node" in
  Alcotest.(check bool) "equal" true (Long_pointer.equal a b);
  Alcotest.(check bool) "origin matters" false (Long_pointer.equal a c);
  Alcotest.(check bool) "hash consistent" true
    (Long_pointer.hash a = Long_pointer.hash b)

let test_lp_provisional () =
  let p = Long_pointer.make ~origin:sid1 ~addr:(-3) ~ty:"node" in
  Alcotest.(check bool) "provisional" true (Long_pointer.is_provisional p);
  Alcotest.(check bool) "regular" false
    (Long_pointer.is_provisional (Long_pointer.make ~origin:sid1 ~addr:3 ~ty:"node"))

let test_lp_wire_roundtrip () =
  let reg = mk_reg () in
  let roundtrip lp =
    let e = Srpc_xdr.Xdr.Enc.create () in
    Long_pointer.encode ~reg e lp;
    let d = Srpc_xdr.Xdr.Dec.of_string (Srpc_xdr.Xdr.Enc.to_string e) in
    let lp' = Long_pointer.decode ~reg d in
    Srpc_xdr.Xdr.Dec.check_end d;
    lp'
  in
  let lp = Long_pointer.make ~origin:sid2 ~addr:0xbeef ~ty:"cell" in
  (match roundtrip (Some lp) with
  | Some lp' -> Alcotest.(check bool) "roundtrip" true (Long_pointer.equal lp lp')
  | None -> Alcotest.fail "lost pointer");
  Alcotest.(check bool) "null" true (roundtrip None = None)

let test_lp_wire_size () =
  let reg = mk_reg () in
  let e = Srpc_xdr.Xdr.Enc.create () in
  Long_pointer.encode ~reg e
    (Some (Long_pointer.make ~origin:sid1 ~addr:0x1000 ~ty:"node"));
  Alcotest.(check int) "20 bytes" 20 (Srpc_xdr.Xdr.Enc.length e);
  let e2 = Srpc_xdr.Xdr.Enc.create () in
  Long_pointer.encode ~reg e2 None;
  Alcotest.(check int) "null 4 bytes" 4 (Srpc_xdr.Xdr.Enc.length e2)

(* --- Strategy --- *)

let test_strategy_presets () =
  Alcotest.(check bool) "eager unbounded" true
    (Strategy.fully_eager.Strategy.budget = Strategy.Unbounded);
  Alcotest.(check bool) "lazy zero" true
    (Strategy.fully_lazy.Strategy.budget = Strategy.Bytes 0);
  Alcotest.(check bool) "lazy entry-per-page" true
    (Strategy.fully_lazy.Strategy.grouping = Strategy.Entry_per_page);
  Alcotest.(check bool) "smart default 8192" true
    ((Strategy.smart ()).Strategy.budget = Strategy.Bytes 8192)

let test_strategy_budget_allows () =
  let s = Strategy.smart ~closure_size:100 () in
  Alcotest.(check bool) "fits" true (Strategy.budget_allows s ~total:50 ~extra:50);
  Alcotest.(check bool) "overflows" false
    (Strategy.budget_allows s ~total:50 ~extra:51);
  Alcotest.(check bool) "unbounded" true
    (Strategy.budget_allows Strategy.fully_eager ~total:max_int ~extra:0)

(* --- Wire --- *)

let test_wire_request_roundtrips () =
  let reg = mk_reg () in
  let lp = Long_pointer.make ~origin:sid1 ~addr:0x40 ~ty:"node" in
  let item = { Wire.lp; data = "payload" } in
  let reqs =
    [
      Wire.Call
        {
          session = 3;
          proc = "search";
          args =
            [
              Wire.WUnit;
              Wire.WBool true;
              Wire.WInt 9L;
              Wire.WFloat 0.5;
              Wire.WStr "s";
              Wire.WPtr (Some lp);
              Wire.WPtr None;
            ];
          writebacks = [ item ];
          eager = [ item; item ];
        };
      Wire.Fetch { session = 1; wanted = [ lp ] };
      Wire.Write_back { session = 2; items = [ item ] };
      Wire.Alloc_batch { session = 4; reqs = [ (-1, "node"); (-2, "cell") ] };
      Wire.Free_batch { session = 5; lps = [ lp ] };
      Wire.Invalidate { session = 6 };
    ]
  in
  List.iter
    (fun req ->
      let req' = Wire.decode_request ~reg (Wire.encode_request ~reg req) in
      Alcotest.(check string)
        "request roundtrip"
        (Format.asprintf "%a" Wire.pp_request req)
        (Format.asprintf "%a" Wire.pp_request req');
      (* structural check for the Call payload *)
      match (req, req') with
      | Wire.Call a, Wire.Call b ->
        Alcotest.(check bool) "args equal" true (a.args = b.args);
        Alcotest.(check int) "wb" 1 (List.length b.writebacks)
      | _ -> ())
    reqs

let test_wire_response_roundtrips () =
  let reg = mk_reg () in
  let lp = Long_pointer.make ~origin:sid2 ~addr:0x99 ~ty:"cell" in
  let item = { Wire.lp; data = String.make 9 'z' } in
  let resps =
    [
      Wire.Return
        { results = [ Wire.WInt 1L ]; writebacks = [ item ]; eager = [] };
      Wire.Fetched { items = [ item; item ] };
      Wire.Allocated { addrs = [ (-1, 0x2000); (-2, 0x3000) ] };
      Wire.Ack;
      Wire.Error "boom";
    ]
  in
  List.iter
    (fun resp ->
      let resp' = Wire.decode_response ~reg (Wire.encode_response ~reg resp) in
      Alcotest.(check string)
        "response roundtrip"
        (Format.asprintf "%a" Wire.pp_response resp)
        (Format.asprintf "%a" Wire.pp_response resp'))
    resps

let test_wire_garbage_rejected () =
  let reg = mk_reg () in
  Alcotest.(check bool) "bad tag" true
    (match Wire.decode_request ~reg "\xff\xff\xff\xff" with
    | _ -> false
    | exception Srpc_xdr.Xdr.Decode_error _ -> true)

(* --- Cache / data allocation table --- *)

let mk_cache ?(grouping = Strategy.By_origin) ?(grain = Strategy.Page_grain) () =
  let space = Address_space.create ~page_size:256 ~id:sid2 ~arch:Arch.sparc32 () in
  (space, Cache.create ~space ~base:4096 ~limit:65536 ~grouping ~grain)

let lp_at ?(origin = sid1) ?(ty = "node") addr = Long_pointer.make ~origin ~addr ~ty

let test_cache_allocate_maps_protected () =
  let space, cache = mk_cache () in
  let e = Cache.allocate cache (lp_at 0x100) ~size:16 in
  Alcotest.(check bool) "in region" true (Cache.in_region cache e.Cache.local_addr);
  Alcotest.(check bool) "absent" false e.Cache.present;
  List.iter
    (fun page ->
      Alcotest.(check (option bool))
        "no access" (Some false)
        (Option.map Prot.allows_read (Address_space.protection space ~page)))
    e.Cache.pages

let test_cache_same_origin_shares_page () =
  let _, cache = mk_cache () in
  let a = Cache.allocate cache (lp_at 0x100) ~size:16 in
  let b = Cache.allocate cache (lp_at 0x200) ~size:16 in
  Alcotest.(check (list int)) "same page" a.Cache.pages b.Cache.pages;
  Alcotest.(check int) "packed" 16 (b.Cache.local_addr - a.Cache.local_addr)

let test_cache_by_origin_separates_origins () =
  let _, cache = mk_cache () in
  let a = Cache.allocate cache (lp_at ~origin:sid1 0x100) ~size:16 in
  let b =
    Cache.allocate cache (lp_at ~origin:(Space_id.make ~site:9 ~proc:0) 0x100)
      ~size:16
  in
  Alcotest.(check bool) "different pages" true (a.Cache.pages <> b.Cache.pages)

let test_cache_sequential_mixes_origins () =
  let _, cache = mk_cache ~grouping:Strategy.Sequential () in
  let a = Cache.allocate cache (lp_at ~origin:sid1 0x100) ~size:16 in
  let b =
    Cache.allocate cache (lp_at ~origin:(Space_id.make ~site:9 ~proc:0) 0x100)
      ~size:16
  in
  Alcotest.(check (list int)) "same page" a.Cache.pages b.Cache.pages

let test_cache_entry_per_page () =
  let _, cache = mk_cache ~grouping:Strategy.Entry_per_page () in
  let a = Cache.allocate cache (lp_at 0x100) ~size:16 in
  let b = Cache.allocate cache (lp_at 0x200) ~size:16 in
  Alcotest.(check bool) "separate pages" true (a.Cache.pages <> b.Cache.pages)

let test_cache_large_entry_spans_pages () =
  let _, cache = mk_cache () in
  let e = Cache.allocate cache (lp_at 0x100 ~ty:"big") ~size:600 in
  Alcotest.(check int) "three 256-byte pages" 3 (List.length e.Cache.pages)

let test_cache_duplicate_lp_rejected () =
  let _, cache = mk_cache () in
  ignore (Cache.allocate cache (lp_at 0x100) ~size:16);
  Alcotest.(check bool) "dup" true
    (match Cache.allocate cache (lp_at 0x100) ~size:16 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_cache_lookups () =
  let _, cache = mk_cache () in
  let e = Cache.allocate cache (lp_at 0x100) ~size:16 in
  Alcotest.(check bool) "by lp" true
    (match Cache.find_by_lp cache (lp_at 0x100) with
    | Some e' -> e'.Cache.local_addr = e.Cache.local_addr
    | None -> false);
  Alcotest.(check bool) "by addr" true
    (Cache.find_by_addr cache e.Cache.local_addr <> None);
  Alcotest.(check bool) "interior addr misses" true
    (Cache.find_by_addr cache (e.Cache.local_addr + 4) = None);
  Alcotest.(check int) "count" 1 (Cache.entry_count cache)

let test_cache_mark_present_unprotects () =
  let space, cache = mk_cache () in
  let e = Cache.allocate cache (lp_at 0x100) ~size:16 in
  Cache.mark_present cache e;
  List.iter
    (fun page ->
      Alcotest.(check (option string))
        "read-only" (Some "r--")
        (Option.map Prot.to_string (Address_space.protection space ~page)))
    e.Cache.pages

let test_cache_partial_presence_stays_protected () =
  let space, cache = mk_cache () in
  let a = Cache.allocate cache (lp_at 0x100) ~size:16 in
  let _b = Cache.allocate cache (lp_at 0x200) ~size:16 in
  Cache.mark_present cache a;
  (* page shared with absent b: must stay inaccessible *)
  List.iter
    (fun page ->
      Alcotest.(check (option string))
        "no access" (Some "---")
        (Option.map Prot.to_string (Address_space.protection space ~page)))
    a.Cache.pages

let test_cache_dirty_cycle () =
  let space, cache = mk_cache () in
  let e = Cache.allocate cache (lp_at 0x100) ~size:16 in
  Cache.mark_present cache e;
  let page = List.hd e.Cache.pages in
  Cache.mark_page_dirty cache ~page;
  Alcotest.(check (option string))
    "read-write" (Some "rw-")
    (Option.map Prot.to_string (Address_space.protection space ~page));
  let dirty = Cache.dirty_entries cache in
  Alcotest.(check int) "one dirty" 1 (List.length dirty);
  Cache.clean_after_flush cache;
  Alcotest.(check (list int)) "no dirty pages" [] (Cache.dirty_pages cache);
  Alcotest.(check int) "clean" 0 (List.length (Cache.dirty_entries cache));
  Alcotest.(check (option string))
    "read-only again" (Some "r--")
    (Option.map Prot.to_string (Address_space.protection space ~page))

let test_cache_page_grain_ships_neighbours () =
  let _, cache = mk_cache () in
  let a = Cache.allocate cache (lp_at 0x100) ~size:16 in
  let b = Cache.allocate cache (lp_at 0x200) ~size:16 in
  Cache.mark_present cache a;
  Cache.mark_present cache b;
  Cache.mark_page_dirty cache ~page:(List.hd a.Cache.pages);
  (* page-grain: both entries of the dirty page ship *)
  Alcotest.(check int) "both ship" 2 (List.length (Cache.dirty_entries cache))

let test_cache_twin_diff_ships_changed_only () =
  let space, cache = mk_cache ~grain:Strategy.Twin_diff () in
  let a = Cache.allocate cache (lp_at 0x100) ~size:16 in
  let b = Cache.allocate cache (lp_at 0x200) ~size:16 in
  Cache.mark_present cache a;
  Cache.mark_present cache b;
  Cache.mark_page_dirty cache ~page:(List.hd a.Cache.pages);
  (* modify only b *)
  Address_space.write_unchecked space ~addr:b.Cache.local_addr
    (Bytes.of_string "modified");
  let dirty = Cache.dirty_entries cache in
  Alcotest.(check int) "only b" 1 (List.length dirty);
  Alcotest.(check int) "it is b" b.Cache.local_addr
    (List.hd dirty).Cache.local_addr

let test_cache_explicit_dirty_flag_ships () =
  let _, cache = mk_cache () in
  let e = Cache.allocate cache (lp_at 0x100) ~size:16 in
  Cache.mark_present cache e;
  (* dirtied without a page fault (e.g. installed writeback) *)
  e.Cache.dirty <- true;
  Alcotest.(check int) "ships" 1 (List.length (Cache.dirty_entries cache))

let test_cache_rebind () =
  let _, cache = mk_cache () in
  let prov = lp_at (-1) in
  let e = Cache.allocate cache prov ~size:16 in
  let real = lp_at 0x2000 in
  Cache.rebind cache e real;
  Alcotest.(check bool) "old gone" true (Cache.find_by_lp cache prov = None);
  Alcotest.(check bool) "new found" true (Cache.find_by_lp cache real <> None);
  Alcotest.(check bool) "lp updated" true (Long_pointer.equal e.Cache.lp real)

let test_cache_remove () =
  let _, cache = mk_cache () in
  let e = Cache.allocate cache (lp_at 0x100) ~size:16 in
  Cache.remove cache e;
  Alcotest.(check bool) "by lp gone" true (Cache.find_by_lp cache (lp_at 0x100) = None);
  Alcotest.(check bool) "by addr gone" true
    (Cache.find_by_addr cache e.Cache.local_addr = None);
  Alcotest.(check int) "no entries" 0 (Cache.entry_count cache)

let test_cache_slot_reuse () =
  let _, cache = mk_cache () in
  let e = Cache.allocate cache (lp_at 0x100) ~size:16 in
  let addr = e.Cache.local_addr in
  Cache.remove cache e;
  let e2 = Cache.allocate cache (lp_at 0x200) ~size:16 in
  Alcotest.(check int) "slot reused" addr e2.Cache.local_addr;
  (* a different size class does not reuse it *)
  Cache.remove cache e2;
  let e3 = Cache.allocate cache (lp_at 0x300) ~size:48 in
  Alcotest.(check bool) "size class respected" true (e3.Cache.local_addr <> addr)

let test_cache_invalidate () =
  let space, cache = mk_cache () in
  let e = Cache.allocate cache (lp_at 0x100) ~size:16 in
  Cache.mark_present cache e;
  Cache.invalidate cache;
  Alcotest.(check int) "empty" 0 (Cache.entry_count cache);
  Alcotest.(check int) "bytes" 0 (Cache.allocated_bytes cache);
  List.iter
    (fun page ->
      Alcotest.(check bool) "unmapped" false (Address_space.is_mapped space ~page))
    e.Cache.pages;
  (* region is reusable afterwards *)
  ignore (Cache.allocate cache (lp_at 0x100) ~size:16)

let test_cache_accounting () =
  let _, cache = mk_cache () in
  ignore (Cache.allocate cache (lp_at 0x100) ~size:10);
  ignore (Cache.allocate cache (lp_at 0x200) ~size:16);
  Alcotest.(check int) "rounded sum" 32 (Cache.allocated_bytes cache);
  Alcotest.(check int) "one page" 1 (Cache.used_pages cache)

let test_cache_table_rendering () =
  let _, cache = mk_cache () in
  ignore (Cache.allocate cache (lp_at 0x100) ~size:16);
  ignore (Cache.allocate cache (lp_at 0x200) ~size:16);
  let s = Format.asprintf "%a" Cache.pp_table cache in
  Alcotest.(check bool) "header" true
    (String.length s > 0
    && String.sub s 0 6 = "page #");
  (* two entry rows after the header *)
  let lines = String.split_on_char '\n' s in
  Alcotest.(check bool) "rows" true (List.length lines >= 3)

(* --- Object codec --- *)

let codec_ctxs reg ~enc_arch ~dec_arch ~unswizzle ~swizzle =
  ( { Object_codec.enc_reg = reg; enc_arch; unswizzle },
    { Object_codec.dec_reg = reg; dec_arch; swizzle } )

let test_codec_scalar_roundtrip_same_arch () =
  let reg = mk_reg () in
  let enc_ctx, dec_ctx =
    codec_ctxs reg ~enc_arch:Arch.sparc32 ~dec_arch:Arch.sparc32
      ~unswizzle:(fun ~ty:_ _ -> None)
      ~swizzle:(fun _ -> 0)
  in
  let raw = Bytes.make 16 '\000' in
  Mem.Codec.set_i64 Arch.Big raw 8 0x0123456789abcdefL;
  let decoded = Object_codec.decode dec_ctx ~ty:"node"
      (Object_codec.encode enc_ctx ~ty:"node" raw) in
  Alcotest.(check bytes) "identical" raw decoded

let test_codec_cross_arch_translation () =
  (* 16-byte big-endian 32-bit image -> 24-byte little-endian 64-bit image *)
  let reg = mk_reg () in
  let enc_ctx, dec_ctx =
    codec_ctxs reg ~enc_arch:Arch.sparc32 ~dec_arch:Arch.lp64_le
      ~unswizzle:(fun ~ty:_ w ->
        Some (Long_pointer.make ~origin:sid1 ~addr:w ~ty:"node"))
      ~swizzle:(function Some lp -> lp.Long_pointer.addr * 2 | None -> 0)
  in
  let raw = Bytes.make 16 '\000' in
  Mem.Codec.set_word Arch.sparc32 raw 0 0x111;
  (* left *)
  Mem.Codec.set_word Arch.sparc32 raw 4 0;
  (* right = null *)
  Mem.Codec.set_i64 Arch.Big raw 8 77L;
  let out = Object_codec.decode dec_ctx ~ty:"node"
      (Object_codec.encode enc_ctx ~ty:"node" raw) in
  Alcotest.(check int) "64-bit image" 24 (Bytes.length out);
  Alcotest.(check int) "left swizzled" 0x222 (Mem.Codec.get_word Arch.lp64_le out 0);
  Alcotest.(check int) "null stays null" 0 (Mem.Codec.get_word Arch.lp64_le out 8);
  Alcotest.(check int64) "data" 77L (Mem.Codec.get_i64 Arch.Little out 16)

let test_codec_wrong_size_rejected () =
  let reg = mk_reg () in
  let enc_ctx, _ =
    codec_ctxs reg ~enc_arch:Arch.sparc32 ~dec_arch:Arch.sparc32
      ~unswizzle:(fun ~ty:_ _ -> None)
      ~swizzle:(fun _ -> 0)
  in
  Alcotest.(check bool) "size check" true
    (match Object_codec.encode enc_ctx ~ty:"node" (Bytes.make 5 ' ') with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_codec_scalar_leaf_count () =
  let reg = mk_reg () in
  Alcotest.(check int) "node" 1 (Object_codec.scalar_leaf_count reg ~ty:"node");
  Alcotest.(check int) "cell" 1 (Object_codec.scalar_leaf_count reg ~ty:"cell")

(* --- Hints --- *)

let hints_reg () =
  let reg = mk_reg () in
  Registry.register reg "rich"
    (Type_desc.Struct
       [
         ("a", Type_desc.ptr "node");
         ("b", Type_desc.ptr "cell");
         ("x", Type_desc.i64);
         ("c", Type_desc.ptr "node");
       ]);
  reg

let test_hints_default_is_all_pointers () =
  let reg = hints_reg () in
  let h = Hints.create () in
  Alcotest.(check int) "three pointer leaves" 3
    (List.length (Hints.pointer_fields h reg Arch.sparc32 ~ty:"rich"))

let test_hints_follow_order () =
  let reg = hints_reg () in
  let h = Hints.create () in
  Hints.set h ~ty:"rich" { Hints.follow = [ "c"; "a" ]; prune_others = false };
  let fields = Hints.pointer_fields h reg Arch.sparc32 ~ty:"rich" in
  (* c (offset 16), a (offset 0), then the unlisted b (offset 4) *)
  Alcotest.(check (list (pair int string)))
    "priority order"
    [ (16, "node"); (0, "node"); (4, "cell") ]
    fields

let test_hints_prune_others () =
  let reg = hints_reg () in
  let h = Hints.create () in
  Hints.set h ~ty:"rich" { Hints.follow = [ "a" ]; prune_others = true };
  Alcotest.(check (list (pair int string)))
    "only a" [ (0, "node") ]
    (Hints.pointer_fields h reg Arch.sparc32 ~ty:"rich")

let test_hints_clear () =
  let reg = hints_reg () in
  let h = Hints.create () in
  Hints.set h ~ty:"rich" { Hints.follow = []; prune_others = true };
  Alcotest.(check int) "pruned all" 0
    (List.length (Hints.pointer_fields h reg Arch.sparc32 ~ty:"rich"));
  Hints.clear h ~ty:"rich";
  Alcotest.(check int) "restored" 3
    (List.length (Hints.pointer_fields h reg Arch.sparc32 ~ty:"rich"))

let test_hints_unknown_field () =
  let reg = hints_reg () in
  let h = Hints.create () in
  Hints.set h ~ty:"rich" { Hints.follow = [ "nope" ]; prune_others = true };
  Alcotest.check_raises "unknown field"
    (Hints.Unknown_field { ty = "rich"; field = "nope" })
    (fun () -> ignore (Hints.pointer_fields h reg Arch.sparc32 ~ty:"rich"))

(* --- funref values --- *)

let test_value_funref () =
  let f = Value.fn ~home:sid1 ~name:"proc" in
  Alcotest.(check string) "name" "proc" (Value.to_funref f).Value.name;
  Alcotest.(check bool) "equal" true (Value.equal f (Value.fn ~home:sid1 ~name:"proc"));
  Alcotest.(check bool) "home differs" false
    (Value.equal f (Value.fn ~home:sid2 ~name:"proc"));
  Alcotest.(check bool) "not a funref" true
    (match Value.to_funref (Value.int 1) with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_wire_funref_roundtrip () =
  let reg = mk_reg () in
  let req =
    Wire.Call
      {
        session = 1;
        proc = "apply";
        args = [ Wire.WFun { Value.home = sid2; name = "callback_42" } ];
        writebacks = [];
        eager = [];
      }
  in
  match Wire.decode_request ~reg (Wire.encode_request ~reg req) with
  | Wire.Call { args = [ Wire.WFun f ]; _ } ->
    Alcotest.(check bool) "home" true (Space_id.equal f.Value.home sid2);
    Alcotest.(check string) "name" "callback_42" f.Value.name
  | _ -> Alcotest.fail "lost funref"

(* --- Session --- *)

let test_session_lifecycle () =
  let s = Session.create () in
  Alcotest.(check bool) "inactive" false (Session.is_active s);
  let info = Session.begin_session s ~ground:sid1 in
  Alcotest.(check int) "first id" 1 info.Session.id;
  Alcotest.check_raises "double begin" Session.Session_already_active (fun () ->
      ignore (Session.begin_session s ~ground:sid1));
  Session.join s sid2;
  Alcotest.(check int) "participants" 2
    (Space_id.Set.cardinal (Session.current_exn s).Session.participants);
  Session.close s;
  Alcotest.(check bool) "closed" false (Session.is_active s);
  Alcotest.check_raises "no session" Session.No_active_session (fun () ->
      ignore (Session.current_exn s));
  let info2 = Session.begin_session s ~ground:sid2 in
  Alcotest.(check int) "ids increase" 2 info2.Session.id

(* One registry holds every open session, however it was opened. *)
let test_session_find_unadmitted () =
  let s = Session.create () in
  let info = Session.begin_session s ~ground:sid1 in
  (match Session.find s info.Session.id with
  | Some found ->
    Alcotest.(check int) "same session" info.Session.id found.Session.id;
    Alcotest.(check bool) "unadmitted" false found.Session.admitted
  | None -> Alcotest.fail "begin_session's session is not in the registry");
  Session.close s;
  Alcotest.(check bool) "gone after close" true
    (Option.is_none (Session.find s info.Session.id))

(* An unadmitted session runs alone: it cannot begin while an admitted
   one is open... *)
let test_session_begin_refused_while_admitted () =
  let s = Session.create () in
  let id = Session.reserve s in
  let info = Session.begin_reserved s ~id ~ground:sid1 in
  Alcotest.(check bool) "admitted" true info.Session.admitted;
  Alcotest.check_raises "begin while admitted is open"
    Session.Session_already_active (fun () ->
      ignore (Session.begin_session s ~ground:sid2));
  (* admitted sessions may overlap one another *)
  let other = Session.begin_reserved s ~id:(Session.reserve s) ~ground:sid2 in
  Alcotest.(check bool) "both open" true
    (Session.is_open s id && Session.is_open s other.Session.id)

(* ...and no admitted session begins while it is open. *)
let test_session_reserved_refused_while_unadmitted () =
  let s = Session.create () in
  let _ = Session.begin_session s ~ground:sid1 in
  let id = Session.reserve s in
  Alcotest.check_raises "begin_reserved while unadmitted is open"
    Session.Session_already_active (fun () ->
      ignore (Session.begin_reserved s ~id ~ground:sid2));
  Session.close s;
  let info = Session.begin_reserved s ~id ~ground:sid2 in
  Alcotest.(check int) "opens once it closed" id info.Session.id

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "core"
    [
      ( "value",
        [
          tc "projections" `Quick test_value_projections;
          tc "type errors" `Quick test_value_type_errors;
          tc "equality" `Quick test_value_equal;
        ] );
      ( "long-pointer",
        [
          tc "equal/hash" `Quick test_lp_equal_hash;
          tc "provisional" `Quick test_lp_provisional;
          tc "wire roundtrip" `Quick test_lp_wire_roundtrip;
          tc "wire size" `Quick test_lp_wire_size;
        ] );
      ( "strategy",
        [
          tc "presets" `Quick test_strategy_presets;
          tc "budget" `Quick test_strategy_budget_allows;
        ] );
      ( "wire",
        [
          tc "request roundtrips" `Quick test_wire_request_roundtrips;
          tc "response roundtrips" `Quick test_wire_response_roundtrips;
          tc "garbage rejected" `Quick test_wire_garbage_rejected;
        ] );
      ( "cache",
        [
          tc "allocate maps protected pages" `Quick test_cache_allocate_maps_protected;
          tc "same origin shares page" `Quick test_cache_same_origin_shares_page;
          tc "by-origin separates origins" `Quick test_cache_by_origin_separates_origins;
          tc "sequential mixes origins" `Quick test_cache_sequential_mixes_origins;
          tc "entry per page" `Quick test_cache_entry_per_page;
          tc "large entry spans pages" `Quick test_cache_large_entry_spans_pages;
          tc "duplicate lp rejected" `Quick test_cache_duplicate_lp_rejected;
          tc "lookups" `Quick test_cache_lookups;
          tc "mark present unprotects" `Quick test_cache_mark_present_unprotects;
          tc "partial presence stays protected" `Quick
            test_cache_partial_presence_stays_protected;
          tc "dirty cycle" `Quick test_cache_dirty_cycle;
          tc "page grain ships neighbours" `Quick test_cache_page_grain_ships_neighbours;
          tc "twin diff ships changed only" `Quick test_cache_twin_diff_ships_changed_only;
          tc "explicit dirty flag ships" `Quick test_cache_explicit_dirty_flag_ships;
          tc "rebind" `Quick test_cache_rebind;
          tc "remove" `Quick test_cache_remove;
          tc "slot reuse after remove" `Quick test_cache_slot_reuse;
          tc "invalidate" `Quick test_cache_invalidate;
          tc "accounting" `Quick test_cache_accounting;
          tc "table rendering (Table 1)" `Quick test_cache_table_rendering;
        ] );
      ( "object-codec",
        [
          tc "scalar roundtrip same arch" `Quick test_codec_scalar_roundtrip_same_arch;
          tc "cross-arch translation" `Quick test_codec_cross_arch_translation;
          tc "wrong size rejected" `Quick test_codec_wrong_size_rejected;
          tc "scalar leaf count" `Quick test_codec_scalar_leaf_count;
        ] );
      ( "hints",
        [
          tc "default follows all pointers" `Quick test_hints_default_is_all_pointers;
          tc "follow order" `Quick test_hints_follow_order;
          tc "prune others" `Quick test_hints_prune_others;
          tc "clear restores default" `Quick test_hints_clear;
          tc "unknown field rejected" `Quick test_hints_unknown_field;
        ] );
      ( "funref",
        [
          tc "value projections" `Quick test_value_funref;
          tc "wire roundtrip" `Quick test_wire_funref_roundtrip;
        ] );
      ( "session",
        [
          tc "lifecycle" `Quick test_session_lifecycle;
          tc "find sees an unadmitted session" `Quick
            test_session_find_unadmitted;
          tc "begin refused while admitted open" `Quick
            test_session_begin_refused_while_admitted;
          tc "begin_reserved refused while unadmitted open" `Quick
            test_session_reserved_refused_while_unadmitted;
        ] );
    ]
