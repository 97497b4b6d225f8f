(* Unit tests for the simulated-memory substrate: address spaces, page
   protection and faults, the heap allocator, the MMU restart loop, and
   arch-aware loads/stores. *)

open Srpc_memory

let sid = Space_id.make ~site:1 ~proc:0
let mk_space ?(page_size = 256) ?(arch = Arch.sparc32) () =
  Address_space.create ~page_size ~id:sid ~arch ()

(* --- Space_id --- *)

let test_space_id_roundtrip () =
  let id = Space_id.make ~site:12 ~proc:34 in
  Alcotest.(check string) "to_string" "12.34" (Space_id.to_string id);
  Alcotest.(check bool) "roundtrip" true
    (Space_id.equal id (Space_id.of_string (Space_id.to_string id)))

let test_space_id_of_string_invalid () =
  Alcotest.check_raises "no dot" (Invalid_argument "Space_id.of_string: missing '.'")
    (fun () -> ignore (Space_id.of_string "42"))

let test_space_id_compare_order () =
  let a = Space_id.make ~site:1 ~proc:5 in
  let b = Space_id.make ~site:2 ~proc:0 in
  let c = Space_id.make ~site:1 ~proc:6 in
  Alcotest.(check bool) "site first" true (Space_id.compare a b < 0);
  Alcotest.(check bool) "proc second" true (Space_id.compare a c < 0);
  Alcotest.(check int) "equal" 0 (Space_id.compare a a)

(* --- Prot --- *)

let test_prot_permissions () =
  Alcotest.(check bool) "no read" false (Prot.allows_read Prot.No_access);
  Alcotest.(check bool) "no write" false (Prot.allows_write Prot.No_access);
  Alcotest.(check bool) "ro read" true (Prot.allows_read Prot.Read_only);
  Alcotest.(check bool) "ro write" false (Prot.allows_write Prot.Read_only);
  Alcotest.(check bool) "rw read" true (Prot.allows_read Prot.Read_write);
  Alcotest.(check bool) "rw write" true (Prot.allows_write Prot.Read_write)

(* --- Address_space basics --- *)

let test_space_page_arithmetic () =
  let s = mk_space () in
  Alcotest.(check int) "page of 0" 0 (Address_space.page_of_addr s 0);
  Alcotest.(check int) "page of 255" 0 (Address_space.page_of_addr s 255);
  Alcotest.(check int) "page of 256" 1 (Address_space.page_of_addr s 256);
  Alcotest.(check int) "base of 3" 768 (Address_space.page_base s 3)

let test_space_page_size_power_of_two () =
  Alcotest.check_raises "non power of two"
    (Invalid_argument "Address_space.create: page_size must be a power of two")
    (fun () -> ignore (Address_space.create ~page_size:100 ~id:sid ~arch:Arch.sparc32 ()))

let test_space_rw_roundtrip () =
  let s = mk_space () in
  Address_space.map s ~page:1 ~prot:Prot.Read_write;
  Address_space.write s ~addr:300 (Bytes.of_string "hello");
  Alcotest.(check string) "read back" "hello"
    (Bytes.to_string (Address_space.read s ~addr:300 ~len:5))

let test_space_cross_page_access () =
  let s = mk_space () in
  Address_space.map s ~page:1 ~prot:Prot.Read_write;
  Address_space.map s ~page:2 ~prot:Prot.Read_write;
  (* spans the 512 boundary *)
  Address_space.write s ~addr:500 (Bytes.of_string "0123456789ABCDEF");
  Alcotest.(check string) "spanning read" "0123456789ABCDEF"
    (Bytes.to_string (Address_space.read s ~addr:500 ~len:16))

let test_space_unmapped_is_segv () =
  let s = mk_space () in
  match Address_space.read s ~addr:300 ~len:4 with
  | _ -> Alcotest.fail "expected Segv"
  | exception Address_space.Segv { addr; _ } -> Alcotest.(check int) "addr" 300 addr

let test_space_protected_read_faults () =
  let s = mk_space () in
  Address_space.map s ~page:1 ~prot:Prot.No_access;
  match Address_space.read s ~addr:260 ~len:4 with
  | _ -> Alcotest.fail "expected fault"
  | exception Address_space.Page_fault f ->
    Alcotest.(check int) "page" 1 f.Address_space.page;
    Alcotest.(check int) "addr" 260 f.Address_space.addr;
    Alcotest.(check bool) "read" true (f.Address_space.access = Address_space.Read)

let test_space_readonly_write_faults () =
  let s = mk_space () in
  Address_space.map s ~page:0 ~prot:Prot.Read_only;
  (match Address_space.read s ~addr:10 ~len:2 with
  | _ -> ()
  | exception _ -> Alcotest.fail "read should succeed");
  match Address_space.write s ~addr:10 (Bytes.of_string "zz") with
  | _ -> Alcotest.fail "expected fault"
  | exception Address_space.Page_fault f ->
    Alcotest.(check bool) "write" true (f.Address_space.access = Address_space.Write)

let test_space_fault_has_no_partial_effect () =
  (* Access spanning a writable then protected page must not modify the
     writable page before faulting — instruction-restart semantics. *)
  let s = mk_space () in
  Address_space.map s ~page:1 ~prot:Prot.Read_write;
  Address_space.map s ~page:2 ~prot:Prot.Read_only;
  (match Address_space.write s ~addr:510 (Bytes.of_string "XXXX") with
  | _ -> Alcotest.fail "expected fault"
  | exception Address_space.Page_fault _ -> ());
  Alcotest.(check string) "first page untouched" "\000\000"
    (Bytes.to_string (Address_space.read s ~addr:510 ~len:2))

let test_space_fault_reports_first_bad_page () =
  let s = mk_space () in
  Address_space.map s ~page:1 ~prot:Prot.Read_write;
  Address_space.map s ~page:2 ~prot:Prot.No_access;
  match Address_space.read s ~addr:400 ~len:200 with
  | _ -> Alcotest.fail "expected fault"
  | exception Address_space.Page_fault f ->
    Alcotest.(check int) "page 2" 2 f.Address_space.page;
    (* fault address is the first byte on the offending page *)
    Alcotest.(check int) "addr at page base" 512 f.Address_space.addr

let test_space_unchecked_ignores_protection () =
  let s = mk_space () in
  Address_space.map s ~page:1 ~prot:Prot.No_access;
  Address_space.write_unchecked s ~addr:260 (Bytes.of_string "sys");
  Alcotest.(check string) "system path" "sys"
    (Bytes.to_string (Address_space.read_unchecked s ~addr:260 ~len:3))

let test_space_remap_keeps_contents () =
  let s = mk_space () in
  Address_space.map s ~page:1 ~prot:Prot.Read_write;
  Address_space.write s ~addr:256 (Bytes.of_string "keep");
  Address_space.map s ~page:1 ~prot:Prot.Read_only;
  Alcotest.(check string) "kept" "keep"
    (Bytes.to_string (Address_space.read s ~addr:256 ~len:4))

let test_space_unmap () =
  let s = mk_space () in
  Address_space.map s ~page:1 ~prot:Prot.Read_write;
  Address_space.unmap s ~page:1;
  Alcotest.(check bool) "unmapped" false (Address_space.is_mapped s ~page:1);
  Address_space.unmap s ~page:1 (* idempotent *)

(* A page's frame outlives its unmap and is handed to the next map, so
   what an unmapped page held must never show through. *)
let test_space_remap_reads_zero () =
  let s = mk_space () in
  let pages = [ 1; 2 ] in
  List.iter (fun page -> Address_space.map s ~page ~prot:Prot.Read_write) pages;
  (* one write on page 2 alone, one straddling pages 1 and 2 *)
  Address_space.write s ~addr:612 (Bytes.make 8 'x');
  Address_space.write s ~addr:504 (Bytes.make 16 'y');
  List.iter (fun page -> Address_space.unmap s ~page) pages;
  List.iter (fun page -> Address_space.map s ~page ~prot:Prot.Read_only) pages;
  Alcotest.(check string) "zero-filled" (String.make 512 '\000')
    (Bytes.to_string (Address_space.read s ~addr:256 ~len:512))

(* A 4 KiB frame is too big for the minor heap, so each new frame adds
   its words to the major-heap count of [Gc.counters]; an unmap/map
   cycle reuses the frame and must add fewer words than one frame over
   all its cycles. *)
let test_space_remap_allocates_no_frame () =
  let page_size = 4096 in
  let s = mk_space ~page_size () in
  Address_space.map s ~page:1 ~prot:Prot.Read_write;
  Address_space.unmap s ~page:1;
  let frame_words = float_of_int (page_size / (Sys.word_size / 8)) in
  let major_words () =
    let _, _, major = Gc.counters () in
    major
  in
  Gc.minor ();
  let w0 = major_words () in
  for _ = 1 to 1_000 do
    Address_space.map s ~page:1 ~prot:Prot.Read_write;
    Address_space.unmap s ~page:1
  done;
  let words = major_words () -. w0 in
  if words >= frame_words then
    Alcotest.failf "1000 remap cycles added %.0f major words; one frame is %.0f"
      words frame_words

let test_space_ensure_mapped_partial () =
  let s = mk_space () in
  Address_space.map s ~page:1 ~prot:Prot.Read_only;
  Address_space.ensure_mapped s ~addr:200 ~len:400 ~prot:Prot.Read_write;
  Alcotest.(check (option bool)) "page 0 mapped rw" (Some true)
    (Option.map Prot.allows_write (Address_space.protection s ~page:0));
  Alcotest.(check (option bool)) "page 1 untouched" (Some false)
    (Option.map Prot.allows_write (Address_space.protection s ~page:1));
  Alcotest.(check bool) "page 2 mapped" true (Address_space.is_mapped s ~page:2)

let test_space_zero_length_access () =
  let s = mk_space () in
  Alcotest.(check string) "empty read" ""
    (Bytes.to_string (Address_space.read s ~addr:999 ~len:0));
  Address_space.write s ~addr:999 Bytes.empty

let test_space_fill_zero () =
  let s = mk_space () in
  Address_space.map s ~page:0 ~prot:Prot.Read_write;
  Address_space.write s ~addr:0 (Bytes.of_string "garbage!");
  Address_space.fill_zero_unchecked s ~addr:0 ~len:8;
  Alcotest.(check string) "zeroed" (String.make 8 '\000')
    (Bytes.to_string (Address_space.read s ~addr:0 ~len:8))

let test_space_mapped_pages_sorted () =
  let s = mk_space () in
  Address_space.map s ~page:5 ~prot:Prot.Read_write;
  Address_space.map s ~page:2 ~prot:Prot.Read_write;
  Alcotest.(check (list int)) "sorted" [ 2; 5 ] (Address_space.mapped_pages s)

(* --- Allocator --- *)

let mk_heap ?(page_size = 256) () =
  let s = mk_space ~page_size () in
  (s, Allocator.create ~space:s ~base:1024 ~limit:8192)

let check_inv heap =
  match Allocator.check_invariants heap with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("invariant: " ^ msg)

let test_alloc_returns_aligned_zeroed () =
  let s, heap = mk_heap () in
  let a = Allocator.alloc heap ~size:10 in
  Alcotest.(check int) "aligned" 0 (a mod 8);
  Alcotest.(check string) "zeroed" (String.make 10 '\000')
    (Bytes.to_string (Address_space.read s ~addr:a ~len:10));
  check_inv heap

let test_alloc_distinct_blocks () =
  let _, heap = mk_heap () in
  let a = Allocator.alloc heap ~size:16 in
  let b = Allocator.alloc heap ~size:16 in
  Alcotest.(check bool) "disjoint" true (abs (a - b) >= 16);
  check_inv heap

let test_alloc_free_reuse () =
  let _, heap = mk_heap () in
  let a = Allocator.alloc heap ~size:32 in
  Allocator.free heap a;
  let b = Allocator.alloc heap ~size:32 in
  Alcotest.(check int) "first fit reuses" a b;
  check_inv heap

let test_alloc_coalescing () =
  let _, heap = mk_heap () in
  let a = Allocator.alloc heap ~size:16 in
  let b = Allocator.alloc heap ~size:16 in
  let c = Allocator.alloc heap ~size:16 in
  ignore c;
  Allocator.free heap a;
  Allocator.free heap b;
  (* coalesced hole fits a 32-byte block at the original address *)
  let d = Allocator.alloc heap ~size:32 in
  Alcotest.(check int) "coalesced" a d;
  check_inv heap

let test_alloc_invalid_free () =
  let _, heap = mk_heap () in
  let a = Allocator.alloc heap ~size:8 in
  Alcotest.check_raises "bad addr" (Allocator.Invalid_free (a + 8)) (fun () ->
      Allocator.free heap (a + 8))

let test_alloc_double_free () =
  let _, heap = mk_heap () in
  let a = Allocator.alloc heap ~size:8 in
  Allocator.free heap a;
  Alcotest.check_raises "double" (Allocator.Invalid_free a) (fun () ->
      Allocator.free heap a)

let test_alloc_out_of_region () =
  let _, heap = mk_heap () in
  match Allocator.alloc heap ~size:100000 with
  | _ -> Alcotest.fail "expected Out_of_region"
  | exception Allocator.Out_of_region { requested; free } ->
    Alcotest.(check bool) "requested" true (requested >= 100000);
    Alcotest.(check int) "free" (8192 - 1024) free

let test_alloc_exhaustion_and_recovery () =
  let _, heap = mk_heap () in
  let blocks = List.init 7 (fun _ -> Allocator.alloc heap ~size:1024) in
  (match Allocator.alloc heap ~size:1024 with
  | _ -> Alcotest.fail "should be full"
  | exception Allocator.Out_of_region _ -> ());
  List.iter (Allocator.free heap) blocks;
  Alcotest.(check int) "all free" (8192 - 1024) (Allocator.free_bytes heap);
  Alcotest.(check int) "none live" 0 (Allocator.live_blocks heap);
  check_inv heap

let test_alloc_accounting () =
  let _, heap = mk_heap () in
  let a = Allocator.alloc heap ~size:10 in
  Alcotest.(check int) "rounded to 16" 16 (Allocator.allocated_bytes heap);
  Alcotest.(check (option int)) "block size" (Some 16) (Allocator.block_size heap a);
  Alcotest.(check bool) "is_allocated" true (Allocator.is_allocated heap a);
  Allocator.free heap a;
  Alcotest.(check bool) "freed" false (Allocator.is_allocated heap a)

let test_alloc_zero_size () =
  let _, heap = mk_heap () in
  let a = Allocator.alloc heap ~size:0 in
  Alcotest.(check (option int)) "min block" (Some 8) (Allocator.block_size heap a)

let test_alloc_maps_pages () =
  let s, heap = mk_heap () in
  let a = Allocator.alloc heap ~size:1000 in
  let first = Address_space.page_of_addr s a in
  let last = Address_space.page_of_addr s (a + 999) in
  for p = first to last do
    Alcotest.(check bool) (Printf.sprintf "page %d" p) true
      (Address_space.is_mapped s ~page:p)
  done

let test_alloc_reuse_is_zeroed () =
  let s, heap = mk_heap () in
  let a = Allocator.alloc heap ~size:16 in
  Address_space.write s ~addr:a (Bytes.of_string "dirtydirtydirty!");
  Allocator.free heap a;
  let b = Allocator.alloc heap ~size:16 in
  Alcotest.(check int) "same block" a b;
  Alcotest.(check string) "zeroed on reuse" (String.make 16 '\000')
    (Bytes.to_string (Address_space.read s ~addr:b ~len:16))

(* --- MMU --- *)

let test_mmu_no_handler_unhandled () =
  let s = mk_space () in
  Address_space.map s ~page:0 ~prot:Prot.No_access;
  let m = Mmu.create s in
  match Mmu.read m ~addr:0 ~len:1 with
  | _ -> Alcotest.fail "expected Unhandled_fault"
  | exception Mmu.Unhandled_fault _ -> ()

let test_mmu_handler_resolves_and_restarts () =
  let s = mk_space () in
  Address_space.map s ~page:0 ~prot:Prot.No_access;
  Address_space.write_unchecked s ~addr:4 (Bytes.of_string "data");
  let m = Mmu.create s in
  let runs = ref 0 in
  Mmu.set_handler m (fun f ->
      incr runs;
      Address_space.set_protection s ~page:f.Address_space.page Prot.Read_only);
  Alcotest.(check string) "restarted read" "data"
    (Bytes.to_string (Mmu.read m ~addr:4 ~len:4));
  Alcotest.(check int) "one handler run" 1 !runs

let test_mmu_two_page_fault_sequence () =
  let s = mk_space () in
  Address_space.map s ~page:0 ~prot:Prot.No_access;
  Address_space.map s ~page:1 ~prot:Prot.No_access;
  let m = Mmu.create s in
  let runs = ref 0 in
  Mmu.set_handler m (fun f ->
      incr runs;
      Address_space.set_protection s ~page:f.Address_space.page Prot.Read_write);
  Mmu.write m ~addr:250 (Bytes.make 12 'x');
  Alcotest.(check int) "two handler runs" 2 !runs

let test_mmu_fault_loop_detected () =
  let s = mk_space () in
  Address_space.map s ~page:0 ~prot:Prot.No_access;
  let m = Mmu.create s in
  Mmu.set_handler m (fun _ -> () (* never resolves *));
  match Mmu.read m ~addr:0 ~len:1 with
  | _ -> Alcotest.fail "expected Fault_loop"
  | exception Mmu.Fault_loop _ -> ()

let test_mmu_clear_handler () =
  let s = mk_space () in
  Address_space.map s ~page:0 ~prot:Prot.No_access;
  let m = Mmu.create s in
  Mmu.set_handler m (fun f ->
      Address_space.set_protection s ~page:f.Address_space.page Prot.Read_only);
  ignore (Mmu.read m ~addr:0 ~len:1);
  Address_space.set_protection s ~page:0 Prot.No_access;
  Mmu.clear_handler m;
  match Mmu.read m ~addr:0 ~len:1 with
  | _ -> Alcotest.fail "expected Unhandled_fault"
  | exception Mmu.Unhandled_fault _ -> ()

(* --- Mem codec and accessors --- *)

let test_mem_codec_endianness () =
  let b = Bytes.create 4 in
  Mem.Codec.set_i32 Arch.Big b 0 0x01020304l;
  Alcotest.(check char) "big first byte" '\001' (Bytes.get b 0);
  Mem.Codec.set_i32 Arch.Little b 0 0x01020304l;
  Alcotest.(check char) "little first byte" '\004' (Bytes.get b 0)

let test_mem_codec_word_sizes () =
  let b = Bytes.make 8 '\000' in
  Mem.Codec.set_word Arch.sparc32 b 0 0xdeadbeef;
  Alcotest.(check int) "32-bit word" 0xdeadbeef (Mem.Codec.get_word Arch.sparc32 b 0);
  Mem.Codec.set_word Arch.lp64_le b 0 0x1234567890;
  Alcotest.(check int) "64-bit word" 0x1234567890 (Mem.Codec.get_word Arch.lp64_le b 0)

let test_mem_codec_word_range_check () =
  let b = Bytes.make 4 '\000' in
  Alcotest.(check bool) "out of range rejected" true
    (match Mem.Codec.set_word Arch.sparc32 b 0 0x100000000 with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_mem_load_store_via_mmu () =
  let s = mk_space ~arch:Arch.lp64_be () in
  Address_space.map s ~page:0 ~prot:Prot.Read_write;
  let m = Mmu.create s in
  Mem.store_i64 m ~addr:8 0x1122334455667788L;
  Alcotest.(check int64) "i64" 0x1122334455667788L (Mem.load_i64 m ~addr:8);
  Mem.store_f64 m ~addr:16 3.14159;
  Alcotest.(check (float 1e-12)) "f64" 3.14159 (Mem.load_f64 m ~addr:16);
  Mem.store_word m ~addr:24 0xcafe;
  Alcotest.(check int) "word" 0xcafe (Mem.load_word m ~addr:24);
  Mem.store_i16 m ~addr:32 0xbeef;
  Alcotest.(check int) "i16" 0xbeef (Mem.load_i16 m ~addr:32);
  Mem.store_i8 m ~addr:34 0x7f;
  Alcotest.(check int) "i8" 0x7f (Mem.load_i8 m ~addr:34)

let test_mem_raw_word () =
  let s = mk_space ~arch:Arch.ilp32_le () in
  Address_space.map s ~page:0 ~prot:Prot.No_access;
  Mem.raw_store_word s ~addr:0 0xabcd;
  Alcotest.(check int) "raw word through protection" 0xabcd
    (Mem.raw_load_word s ~addr:0)

(* A store straddling two pages takes the copying branch: it faults on
   each protected page in turn before any byte lands, then reads back
   whole across the boundary. *)
let test_mem_straddling_scalar () =
  let s = mk_space ~arch:Arch.lp64_le () in
  Address_space.map s ~page:0 ~prot:Prot.Read_only;
  Address_space.map s ~page:1 ~prot:Prot.Read_only;
  let m = Mmu.create s in
  let faults = ref [] in
  Mmu.set_handler m (fun f ->
      faults := f.Address_space.page :: !faults;
      Address_space.set_protection s ~page:f.Address_space.page Prot.Read_write);
  Mem.store_i64 m ~addr:252 0x0102030405060708L;
  Alcotest.(check (list int)) "one fault per page, in order" [ 0; 1 ]
    (List.rev !faults);
  Alcotest.(check int64) "value across the boundary" 0x0102030405060708L
    (Mem.load_i64 m ~addr:252);
  Alcotest.(check int) "low half on page 0" 0x05060708
    (Int32.to_int (Mem.load_i32 m ~addr:252))

(* Within one page, word loads and stores read and write the page's
   bytes in place: no buffer, closure or boxed integer per access. *)
let test_mem_one_page_access_allocates_nothing () =
  let s = mk_space ~arch:Arch.lp64_le () in
  Address_space.map s ~page:0 ~prot:Prot.Read_write;
  let m = Mmu.create s in
  Mem.store_word m ~addr:8 1;
  let acc = ref 0 in
  let w0 = Gc.minor_words () in
  for i = 1 to 1000 do
    Mem.store_word m ~addr:8 i;
    Mem.store_i16 m ~addr:16 i;
    acc := !acc + Mem.load_word m ~addr:8 + Mem.load_i16 m ~addr:16
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "values" (1000 * 1001) !acc;
  if words > 100. then
    Alcotest.failf "%.0f minor words for 4,000 one-page accesses" words

(* [Int_table] must fold exactly like the generic [Hashtbl]: the fold
   orders of some per-datum tables decide frame order and the cache
   layout. A seeded mix of adds, replaces, removes, resets and clears
   on 8-aligned keys, compared every few hundred steps and after every
   reset or clear. *)
let test_int_table_fold_order () =
  let g = Hashtbl.create 16 and t = Int_table.create 16 in
  let rng = Random.State.make [| 16 |] in
  let same what =
    Alcotest.(check (list (pair int int)))
      what
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) g [])
      (Int_table.fold (fun k v acc -> (k, v) :: acc) t [])
  in
  for step = 1 to 60_000 do
    let key = 8 * (Random.State.int rng 8192 - 64) in
    match Random.State.int rng 10_000 with
    | n when n < 5_000 ->
      Hashtbl.add g key step;
      Int_table.add t key step
    | n when n < 7_500 ->
      Hashtbl.replace g key step;
      Int_table.replace t key step
    | n when n < 9_994 ->
      Hashtbl.remove g key;
      Int_table.remove t key;
      if step mod 300 = 0 then same (Printf.sprintf "step %d" step)
    | n when n < 9_997 ->
      Hashtbl.reset g;
      Int_table.reset t;
      same (Printf.sprintf "reset at step %d" step)
    | _ ->
      Hashtbl.clear g;
      Int_table.clear t;
      same (Printf.sprintf "clear at step %d" step)
  done;
  same "end"

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "memory"
    [
      ( "space-id",
        [
          tc "string roundtrip" `Quick test_space_id_roundtrip;
          tc "invalid parse" `Quick test_space_id_of_string_invalid;
          tc "ordering" `Quick test_space_id_compare_order;
        ] );
      ("prot", [ tc "permission table" `Quick test_prot_permissions ]);
      ( "int-table",
        [ tc "folds like the generic Hashtbl" `Quick test_int_table_fold_order ] );
      ( "address-space",
        [
          tc "page arithmetic" `Quick test_space_page_arithmetic;
          tc "page size must be power of two" `Quick test_space_page_size_power_of_two;
          tc "read/write roundtrip" `Quick test_space_rw_roundtrip;
          tc "cross-page access" `Quick test_space_cross_page_access;
          tc "unmapped access is Segv" `Quick test_space_unmapped_is_segv;
          tc "protected read faults" `Quick test_space_protected_read_faults;
          tc "read-only write faults" `Quick test_space_readonly_write_faults;
          tc "fault has no partial effect" `Quick test_space_fault_has_no_partial_effect;
          tc "fault reports first bad page" `Quick test_space_fault_reports_first_bad_page;
          tc "unchecked path ignores protection" `Quick test_space_unchecked_ignores_protection;
          tc "remap keeps contents" `Quick test_space_remap_keeps_contents;
          tc "unmap" `Quick test_space_unmap;
          tc "remapped page reads zero" `Quick test_space_remap_reads_zero;
          tc "remap reuses the frame" `Quick test_space_remap_allocates_no_frame;
          tc "ensure_mapped maps only gaps" `Quick test_space_ensure_mapped_partial;
          tc "zero-length access" `Quick test_space_zero_length_access;
          tc "fill zero" `Quick test_space_fill_zero;
          tc "mapped pages sorted" `Quick test_space_mapped_pages_sorted;
        ] );
      ( "allocator",
        [
          tc "aligned and zeroed" `Quick test_alloc_returns_aligned_zeroed;
          tc "distinct blocks" `Quick test_alloc_distinct_blocks;
          tc "free then reuse (first fit)" `Quick test_alloc_free_reuse;
          tc "coalescing" `Quick test_alloc_coalescing;
          tc "invalid free" `Quick test_alloc_invalid_free;
          tc "double free" `Quick test_alloc_double_free;
          tc "out of region" `Quick test_alloc_out_of_region;
          tc "exhaustion and recovery" `Quick test_alloc_exhaustion_and_recovery;
          tc "accounting" `Quick test_alloc_accounting;
          tc "zero size gets minimum block" `Quick test_alloc_zero_size;
          tc "maps backing pages" `Quick test_alloc_maps_pages;
          tc "reused block is zeroed" `Quick test_alloc_reuse_is_zeroed;
        ] );
      ( "mmu",
        [
          tc "no handler -> unhandled" `Quick test_mmu_no_handler_unhandled;
          tc "handler resolves, access restarts" `Quick test_mmu_handler_resolves_and_restarts;
          tc "two-page fault sequence" `Quick test_mmu_two_page_fault_sequence;
          tc "fault loop detected" `Quick test_mmu_fault_loop_detected;
          tc "clear handler" `Quick test_mmu_clear_handler;
        ] );
      ( "mem",
        [
          tc "codec endianness" `Quick test_mem_codec_endianness;
          tc "codec word sizes" `Quick test_mem_codec_word_sizes;
          tc "codec word range check" `Quick test_mem_codec_word_range_check;
          tc "typed loads/stores via MMU" `Quick test_mem_load_store_via_mmu;
          tc "raw word access" `Quick test_mem_raw_word;
          tc "scalar straddling pages" `Quick test_mem_straddling_scalar;
          tc "one-page access allocates nothing" `Quick
            test_mem_one_page_access_allocates_nothing;
        ] );
    ]
