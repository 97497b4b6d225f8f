open Srpc_memory
open Srpc_types

type ptr = { addr : int; ty : string }

let ptr ~ty addr = { addr; ty }
let null ~ty = { addr = 0; ty }
let is_null p = p.addr = 0

let of_value = function
  | Value.Ptr { addr; ty } -> { addr; ty }
  | v -> invalid_arg (Format.asprintf "Access.of_value: %a is not a pointer" Value.pp v)

let to_value p = Value.Ptr { addr = p.addr; ty = p.ty }

(* Field resolution is on every data access of every workload; the
   layout it reads is computed once per registry and word size. *)
let field_info node p ~field =
  Layout.field (Node.registry node) (Node.arch node) ~ty:(Type_desc.Named p.ty) ~field

let resolve_prim node fty =
  match Registry.resolve (Node.registry node) fty with
  | Type_desc.Prim p -> p
  | Type_desc.Pointer _ | Array _ | Struct _ ->
    invalid_arg "Access: field is not a primitive"
  | Type_desc.Named _ -> assert false

let check_not_null p =
  if is_null p then invalid_arg ("Access: null " ^ p.ty ^ " pointer dereference")

let get_int node p ~field =
  check_not_null p;
  Node.charge_touch ~addr:p.addr node;
  let { Layout.offset; ty = fty; _ } = field_info node p ~field in
  let addr = p.addr + offset in
  let m = Node.mmu node in
  match resolve_prim node fty with
  | Type_desc.I8 -> Mem.load_i8 m ~addr
  | I16 -> Mem.load_i16 m ~addr
  | I32 -> Int32.to_int (Mem.load_i32 m ~addr)
  | I64 -> Int64.to_int (Mem.load_i64 m ~addr)
  | F32 | F64 -> invalid_arg "Access.get_int: float field"

(* A store that leaves the bytes as they were is invisible to the
   coherency layer — the twin/shadow diffs find no dirty range and the
   write-back is elided — so the race checker must not be told a write
   happened either. The comparison load is only paid while a trace is
   collecting witnesses. *)
let set_int node p ~field v =
  check_not_null p;
  let { Layout.offset; ty = fty; _ } = field_info node p ~field in
  let addr = p.addr + offset in
  let m = Node.mmu node in
  let prim = resolve_prim node fty in
  let unchanged =
    Node.traced node
    &&
    match prim with
    | Type_desc.I8 -> Mem.load_i8 m ~addr = v
    | I16 -> Mem.load_i16 m ~addr = v
    | I32 -> Int32.equal (Mem.load_i32 m ~addr) (Int32.of_int v)
    | I64 -> Int64.equal (Mem.load_i64 m ~addr) (Int64.of_int v)
    | F32 | F64 -> false
  in
  Node.charge_touch ~addr:p.addr ~write:(not unchanged) node;
  match prim with
  | Type_desc.I8 -> Mem.store_i8 m ~addr v
  | I16 -> Mem.store_i16 m ~addr v
  | I32 -> Mem.store_i32 m ~addr (Int32.of_int v)
  | I64 -> Mem.store_i64 m ~addr (Int64.of_int v)
  | F32 | F64 -> invalid_arg "Access.set_int: float field"

let get_i64 node p ~field =
  check_not_null p;
  Node.charge_touch ~addr:p.addr node;
  let { Layout.offset; _ } = field_info node p ~field in
  Mem.load_i64 (Node.mmu node) ~addr:(p.addr + offset)

let set_i64 node p ~field v =
  check_not_null p;
  let { Layout.offset; _ } = field_info node p ~field in
  let addr = p.addr + offset in
  let m = Node.mmu node in
  let unchanged = Node.traced node && Int64.equal (Mem.load_i64 m ~addr) v in
  Node.charge_touch ~addr:p.addr ~write:(not unchanged) node;
  Mem.store_i64 m ~addr v

let get_f64 node p ~field =
  check_not_null p;
  Node.charge_touch ~addr:p.addr node;
  let { Layout.offset; ty = fty; _ } = field_info node p ~field in
  let addr = p.addr + offset in
  let m = Node.mmu node in
  match resolve_prim node fty with
  | Type_desc.F32 -> Mem.load_f32 m ~addr
  | F64 -> Mem.load_f64 m ~addr
  | I8 | I16 | I32 | I64 -> invalid_arg "Access.get_f64: integer field"

let set_f64 node p ~field v =
  check_not_null p;
  let { Layout.offset; ty = fty; _ } = field_info node p ~field in
  let addr = p.addr + offset in
  let m = Node.mmu node in
  let prim = resolve_prim node fty in
  let unchanged =
    (* bit-compare: the diff layer works on stored bytes, and NaNs must
       compare by representation, not IEEE equality *)
    Node.traced node
    &&
    match prim with
    | Type_desc.F32 ->
      Int32.equal
        (Int32.bits_of_float (Mem.load_f32 m ~addr))
        (Int32.bits_of_float v)
    | F64 ->
      Int64.equal (Int64.bits_of_float (Mem.load_f64 m ~addr))
        (Int64.bits_of_float v)
    | I8 | I16 | I32 | I64 -> false
  in
  Node.charge_touch ~addr:p.addr ~write:(not unchanged) node;
  match prim with
  | Type_desc.F32 -> Mem.store_f32 m ~addr v
  | F64 -> Mem.store_f64 m ~addr v
  | I8 | I16 | I32 | I64 -> invalid_arg "Access.set_f64: integer field"

let pointee node fty =
  match Registry.resolve (Node.registry node) fty with
  | Type_desc.Pointer target -> target
  | Type_desc.Prim _ | Array _ | Struct _ ->
    invalid_arg "Access: field is not a pointer"
  | Type_desc.Named _ -> assert false

let get_ptr node p ~field =
  check_not_null p;
  Node.charge_touch ~addr:p.addr node;
  let { Layout.offset; ty = fty; _ } = field_info node p ~field in
  let target = pointee node fty in
  let word = Mem.load_word (Node.mmu node) ~addr:(p.addr + offset) in
  { addr = word; ty = target }

let set_ptr node p ~field q =
  check_not_null p;
  let { Layout.offset; ty = fty; _ } = field_info node p ~field in
  let target = pointee node fty in
  if (not (is_null q)) && not (String.equal q.ty target) then
    invalid_arg
      (Printf.sprintf "Access.set_ptr: storing %s* into %s* field" q.ty target);
  let addr = p.addr + offset in
  let m = Node.mmu node in
  let unchanged = Node.traced node && Mem.load_word m ~addr = q.addr in
  Node.charge_touch ~addr:p.addr ~write:(not unchanged) node;
  Mem.store_word m ~addr q.addr

let stride node ty =
  let arch = Address_space.arch (Node.space node) in
  let l = Layout.of_type (Node.registry node) arch (Type_desc.Named ty) in
  (l.Layout.size + l.Layout.align - 1) / l.Layout.align * l.Layout.align

let elem node p i =
  check_not_null p;
  { p with addr = p.addr + (i * stride node p.ty) }

let load_int node p =
  check_not_null p;
  Node.charge_touch ~addr:p.addr node;
  let m = Node.mmu node in
  match Registry.resolve (Node.registry node) (Type_desc.Named p.ty) with
  | Type_desc.Prim I8 -> Mem.load_i8 m ~addr:p.addr
  | Type_desc.Prim I16 -> Mem.load_i16 m ~addr:p.addr
  | Type_desc.Prim I32 -> Int32.to_int (Mem.load_i32 m ~addr:p.addr)
  | Type_desc.Prim I64 -> Int64.to_int (Mem.load_i64 m ~addr:p.addr)
  | Type_desc.Prim (F32 | F64) | Pointer _ | Array _ | Struct _ ->
    invalid_arg "Access.load_int: not an integer pointee"
  | Type_desc.Named _ -> assert false

let store_int node p v =
  check_not_null p;
  let m = Node.mmu node in
  let prim = Registry.resolve (Node.registry node) (Type_desc.Named p.ty) in
  let unchanged =
    Node.traced node
    &&
    match prim with
    | Type_desc.Prim I8 -> Mem.load_i8 m ~addr:p.addr = v
    | Type_desc.Prim I16 -> Mem.load_i16 m ~addr:p.addr = v
    | Type_desc.Prim I32 ->
      Int32.equal (Mem.load_i32 m ~addr:p.addr) (Int32.of_int v)
    | Type_desc.Prim I64 ->
      Int64.equal (Mem.load_i64 m ~addr:p.addr) (Int64.of_int v)
    | _ -> false
  in
  Node.charge_touch ~addr:p.addr ~write:(not unchanged) node;
  match prim with
  | Type_desc.Prim I8 -> Mem.store_i8 m ~addr:p.addr v
  | Type_desc.Prim I16 -> Mem.store_i16 m ~addr:p.addr v
  | Type_desc.Prim I32 -> Mem.store_i32 m ~addr:p.addr (Int32.of_int v)
  | Type_desc.Prim I64 -> Mem.store_i64 m ~addr:p.addr (Int64.of_int v)
  | Type_desc.Prim (F32 | F64) | Pointer _ | Array _ | Struct _ ->
    invalid_arg "Access.store_int: not an integer pointee"
  | Type_desc.Named _ -> assert false
