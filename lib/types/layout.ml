open Srpc_memory

type field = { name : string; offset : int; ty : Type_desc.t }
type t = { size : int; align : int; fields : field list }
type leaf = { leaf_offset : int; kind : leaf_kind }
and leaf_kind = Scalar of Type_desc.prim | Ptr of string

exception Recursive_type of string

let round_up n align = (n + align - 1) / align * align

(* [visiting] tracks Named types being laid out by value, to reject
   infinitely-sized types (a struct containing itself not behind a
   pointer). Pointers do not recurse, so list/tree nodes are fine. *)
let rec layout_rec reg (arch : Arch.t) visiting ty : t =
  match (ty : Type_desc.t) with
  | Prim p ->
    let size = Type_desc.prim_size p in
    { size; align = size; fields = [] }
  | Pointer _ -> { size = arch.word_size; align = arch.word_size; fields = [] }
  | Named name ->
    if List.mem name visiting then raise (Recursive_type name);
    layout_rec reg arch (name :: visiting) (Registry.find reg name)
  | Array (elem, n) ->
    if n < 0 then invalid_arg "Layout: negative array length";
    let el = layout_rec reg arch visiting elem in
    let stride = round_up el.size el.align in
    { size = stride * n; align = el.align; fields = [] }
  | Struct fs ->
    let offset, align, rev_fields =
      List.fold_left
        (fun (offset, align, acc) (name, fty) ->
          let fl = layout_rec reg arch visiting fty in
          let offset = round_up offset fl.align in
          (offset + fl.size, max align fl.align, { name; offset; ty = fty } :: acc))
        (0, 1, []) fs
    in
    { size = round_up offset align; align; fields = List.rev rev_fields }

let leaves_of reg (arch : Arch.t) ty =
  let out = ref [] in
  let rec go base visiting ty =
    match (ty : Type_desc.t) with
    | Prim p -> out := { leaf_offset = base; kind = Scalar p } :: !out
    | Pointer target -> out := { leaf_offset = base; kind = Ptr target } :: !out
    | Named name ->
      if List.mem name visiting then raise (Recursive_type name);
      go base (name :: visiting) (Registry.find reg name)
    | Array (elem, n) ->
      let el = layout_rec reg arch visiting elem in
      let stride = round_up el.size el.align in
      for i = 0 to n - 1 do
        go (base + (i * stride)) visiting elem
      done
    | Struct fs ->
      let l = layout_rec reg arch visiting ty in
      List.iter2
        (fun { offset; ty = fty; _ } (_, _) -> go (base + offset) visiting fty)
        l.fields fs
  in
  go 0 [] ty;
  List.rev !out

let pointers_of leaves =
  List.filter_map
    (fun l -> match l.kind with Ptr t -> Some (l.leaf_offset, t) | Scalar _ -> None)
    leaves

(* What the per-datum paths read off a registered name, at one word size
   (the only part of an architecture a layout depends on). The registry
   never rebinds a name, so a shape is computed once and kept in the
   registry it was computed against; a layout that raises is not kept.
   Leaves are expanded on first use: a type may be sized without ever
   being encoded. *)
type shape = {
  layout : t;
  leaves : leaf list Lazy.t;
  pointer_leaves : (int * string) list Lazy.t;
}

type Registry.derived += Shape of shape

let shape reg (arch : Arch.t) name =
  let memo = Registry.derived reg ~word_size:arch.word_size in
  match Registry.Names.find memo name with
  | Shape s -> s
  | _ | (exception Not_found) ->
    let ty = Type_desc.Named name in
    let leaves = lazy (leaves_of reg arch ty) in
    let s =
      {
        layout = layout_rec reg arch [] ty;
        leaves;
        pointer_leaves = lazy (pointers_of (Lazy.force leaves));
      }
    in
    Registry.Names.replace memo name (Shape s);
    s

let of_type reg arch = function
  | Type_desc.Named name -> (shape reg arch name).layout
  | ty -> layout_rec reg arch [] ty

let sizeof reg arch ty = (of_type reg arch ty).size
let sizeof_name reg arch name = (shape reg arch name).layout.size

let struct_fields reg ty =
  match Registry.resolve reg ty with
  | Type_desc.Struct fs -> fs
  | Type_desc.Prim _ | Pointer _ | Array _ -> raise Not_found
  | Type_desc.Named _ -> assert false (* resolve returns structural *)

let rec find_field name = function
  | [] -> raise Not_found
  | f :: rest -> if String.equal f.name name then f else find_field name rest

let field reg arch ~ty ~field = find_field field (of_type reg arch ty).fields
let field_offset reg arch ~ty ~field:name = (field reg arch ~ty ~field:name).offset

let field_type reg ~ty ~field =
  match List.assoc_opt field (struct_fields reg ty) with
  | Some t -> t
  | None -> raise Not_found

let leaves reg arch = function
  | Type_desc.Named name -> Lazy.force (shape reg arch name).leaves
  | ty -> leaves_of reg arch ty

let pointer_leaves reg arch = function
  | Type_desc.Named name -> Lazy.force (shape reg arch name).pointer_leaves
  | ty -> pointers_of (leaves_of reg arch ty)
