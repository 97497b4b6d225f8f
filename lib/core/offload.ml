module Xdr = Srpc_xdr.Xdr
open Srpc_types

type op =
  | Op_sum
  | Op_visit
  | Op_find of int
  | Op_update of { idx : int; delta : int }
  | Op_map of { mul : int; add : int }

type plan = {
  root_ty : string;
  hops : string list;
  value_field : string;
  op : op;
  hop_bound : int;
}

let op_name = function
  | Op_sum -> "sum"
  | Op_visit -> "visit"
  | Op_find _ -> "find"
  | Op_update _ -> "update"
  | Op_map _ -> "map"

let pp_plan ppf p =
  Format.fprintf ppf "%s over %s via [%s]/%s bound %d" (op_name p.op) p.root_ty
    (String.concat ";" p.hops) p.value_field p.hop_bound

(* --- wire form --- *)

(* The encoder is deliberately blind (it writes whatever plan the caller
   built) so the fuzz tests can ship malformed plans through a real
   encode; every structural check lives in [validate], run by the
   decoder at the trust boundary. *)

let encode_op enc = function
  | Op_sum -> Xdr.Enc.int enc 0
  | Op_visit -> Xdr.Enc.int enc 1
  | Op_find target ->
    Xdr.Enc.int enc 2;
    Xdr.Enc.hyper enc target
  | Op_update { idx; delta } ->
    Xdr.Enc.int enc 3;
    Xdr.Enc.int enc idx;
    Xdr.Enc.hyper enc delta
  | Op_map { mul; add } ->
    Xdr.Enc.int enc 4;
    Xdr.Enc.hyper enc mul;
    Xdr.Enc.hyper enc add

let decode_op dec =
  match Xdr.Dec.int dec with
  | 0 -> Op_sum
  | 1 -> Op_visit
  | 2 -> Op_find (Xdr.Dec.hyper dec)
  | 3 ->
    let idx = Xdr.Dec.int dec in
    let delta = Xdr.Dec.hyper dec in
    Op_update { idx; delta }
  | 4 ->
    let mul = Xdr.Dec.hyper dec in
    let add = Xdr.Dec.hyper dec in
    Op_map { mul; add }
  | n -> raise (Xdr.Decode_error (Printf.sprintf "bad offload op tag %d" n))

let encode_plan enc p =
  Xdr.Enc.string enc p.root_ty;
  Xdr.Enc.list enc Xdr.Enc.string p.hops;
  Xdr.Enc.string enc p.value_field;
  encode_op enc p.op;
  Xdr.Enc.int enc p.hop_bound

(* A traversal plan drives an automatic walk of the home's heap, so its
   shape is validated before any state is touched: the hop bound must be
   a positive, sane budget; a hop listed twice makes the declared chain
   cyclic; every named field must exist (with the right shape) on some
   struct type reachable from the root type. *)

let max_hop_bound = 1 lsl 20

let err fmt = Printf.ksprintf (fun m -> raise (Xdr.Decode_error m)) fmt

(* Struct types reachable from [root_ty] through pointer fields (direct
   or array-of-pointer), each with its field list. *)
let reachable_structs reg root_ty =
  let seen = Hashtbl.create 8 in
  let out = ref [] in
  let rec pointees acc = function
    | Type_desc.Pointer name -> name :: acc
    | Type_desc.Array (t, _) -> pointees acc t
    | Type_desc.Struct fields ->
      List.fold_left (fun acc (_, t) -> pointees acc t) acc fields
    | Type_desc.Named name -> (
      match Registry.find_opt reg name with
      | Some t -> pointees acc t
      | None -> acc)
    | Type_desc.Prim _ -> acc
  in
  let rec visit name =
    if not (Hashtbl.mem seen name) then begin
      Hashtbl.replace seen name ();
      match Registry.find_opt reg name with
      | None -> ()
      | Some desc -> (
        match Registry.resolve reg desc with
        | Type_desc.Struct fields ->
          out := (name, fields) :: !out;
          List.iter visit (List.fold_left (fun acc (_, t) -> pointees acc t) [] fields)
        | _ -> ())
    end
  in
  visit root_ty;
  List.rev !out

let field_on reg fields name =
  match List.assoc_opt name fields with
  | None -> None
  | Some t -> Some (Registry.resolve reg t)

let is_pointer_field reg fields name =
  match field_on reg fields name with
  | Some (Type_desc.Pointer _) -> true
  | Some (Type_desc.Array (t, _)) -> (
    match Registry.resolve reg t with Type_desc.Pointer _ -> true | _ -> false)
  | _ -> false

let is_value_field reg fields name =
  match field_on reg fields name with
  | Some (Type_desc.Prim _) -> true
  | Some (Type_desc.Array (t, _)) -> (
    match Registry.resolve reg t with Type_desc.Prim _ -> true | _ -> false)
  | _ -> false

let validate ~reg p =
  if p.hop_bound <= 0 then err "offload plan: non-positive hop bound";
  if p.hop_bound > max_hop_bound then
    err "offload plan: hop bound %d exceeds the %d cap" p.hop_bound max_hop_bound;
  let rec dup = function
    | [] -> None
    | h :: t -> if List.mem h t then Some h else dup t
  in
  (match dup p.hops with
  | Some h -> err "offload plan: cyclic traversal (hop %S listed twice)" h
  | None -> ());
  let structs = reachable_structs reg p.root_ty in
  if structs = [] then err "offload plan: unknown root type %S" p.root_ty;
  List.iter
    (fun hop ->
      if not (List.exists (fun (_, fields) -> is_pointer_field reg fields hop) structs)
      then err "offload plan: unknown hop field %S" hop)
    p.hops;
  if
    not
      (List.exists
         (fun (_, fields) -> is_value_field reg fields p.value_field)
         structs)
  then err "offload plan: unknown value field %S" p.value_field

let decode_plan ~reg dec =
  let root_ty = Xdr.Dec.string dec in
  let hops = Xdr.Dec.list dec Xdr.Dec.string in
  let value_field = Xdr.Dec.string dec in
  let op = decode_op dec in
  let hop_bound = Xdr.Dec.int dec in
  let p = { root_ty; hops; value_field; op; hop_bound } in
  validate ~reg p;
  p

(* --- the walker --- *)

(* One interpreter serves both sides: the home walks its own heap and
   the client replays the very same traversal over its cache (loads
   fault through the MMU, so the local arm pays its honest cost). The
   memory behind the walk is abstracted to a closure record the node
   supplies; the walker itself only computes layouts. *)

type mem = {
  w_arch : Srpc_memory.Arch.t;
  w_reg : Registry.t;
  w_load_word : int -> int;  (** program-path pointer load at an address *)
  w_load : Type_desc.prim -> int -> int;
      (** program-path primitive load, int-ified ([int_of_float] for
          floats — both sides truncate identically) *)
  w_store : Type_desc.prim -> int -> int -> unit;
}

type outcome = {
  results : int list;
  visited : int;
  mutated : (int * string) list;
      (** (address, type) of every node whose value slots were written,
          in first-touch order *)
}

type slot = { s_addr : int; s_prim : Type_desc.prim; s_node : int; s_ty : string }

let prim_stride p = Type_desc.prim_size p

let run mem plan ~root =
  let reg = mem.w_reg and arch = mem.w_arch in
  let named ty = Type_desc.Named ty in
  let seen = Hashtbl.create 64 in
  let visited = ref 0 in
  let slots = ref [] in
  let rec go addr ty =
    if addr <> 0 && (not (Hashtbl.mem seen addr)) && !visited < plan.hop_bound
    then begin
      Hashtbl.replace seen addr ();
      incr visited;
      let fields =
        match Registry.resolve reg (named ty) with
        | Type_desc.Struct fields -> fields
        | _ -> []
      in
      (* value slots of this node, in element order *)
      (match field_on reg fields plan.value_field with
      | Some (Type_desc.Prim p) ->
        let off = Layout.field_offset reg arch ~ty:(named ty) ~field:plan.value_field in
        slots := { s_addr = addr + off; s_prim = p; s_node = addr; s_ty = ty } :: !slots
      | Some (Type_desc.Array (elem, n)) -> (
        match Registry.resolve reg elem with
        | Type_desc.Prim p ->
          let off =
            Layout.field_offset reg arch ~ty:(named ty) ~field:plan.value_field
          in
          for i = 0 to n - 1 do
            slots :=
              { s_addr = addr + off + (i * prim_stride p); s_prim = p;
                s_node = addr; s_ty = ty }
              :: !slots
          done
        | _ -> ())
      | _ -> ());
      (* hop fields in declared order *)
      List.iter
        (fun hop ->
          match field_on reg fields hop with
          | Some (Type_desc.Pointer child_ty) ->
            let off = Layout.field_offset reg arch ~ty:(named ty) ~field:hop in
            go (mem.w_load_word (addr + off)) child_ty
          | Some (Type_desc.Array (elem, n)) -> (
            match Registry.resolve reg elem with
            | Type_desc.Pointer child_ty ->
              let off = Layout.field_offset reg arch ~ty:(named ty) ~field:hop in
              for i = 0 to n - 1 do
                go
                  (mem.w_load_word (addr + off + (i * arch.Srpc_memory.Arch.word_size)))
                  child_ty
              done
            | _ -> ())
          | _ -> ())
        plan.hops
    end
  in
  go root plan.root_ty;
  let slots = Array.of_list (List.rev !slots) in
  let value i = mem.w_load slots.(i).s_prim slots.(i).s_addr in
  let mutated = ref [] in
  let write i v =
    let s = slots.(i) in
    mem.w_store s.s_prim s.s_addr v;
    if not (List.mem_assoc s.s_node !mutated) then
      mutated := (s.s_node, s.s_ty) :: !mutated
  in
  let n = Array.length slots in
  let sum () =
    let t = ref 0 in
    for i = 0 to n - 1 do
      t := !t + value i
    done;
    !t
  in
  let results =
    match plan.op with
    | Op_sum -> [ sum () ]
    | Op_visit -> [ !visited; sum () ]
    | Op_find target ->
      let found = ref (-1) in
      (try
         for i = 0 to n - 1 do
           if value i = target then begin
             found := i;
             raise Exit
           end
         done
       with Exit -> ());
      [ !found ]
    | Op_update { idx; delta } ->
      if idx < 0 || idx >= n then [ -1 ]
      else begin
        let v = value idx + delta in
        write idx v;
        [ v ]
      end
    | Op_map { mul; add } ->
      let t = ref 0 in
      for i = 0 to n - 1 do
        let v = (mul * value i) + add in
        write i v;
        t := !t + v
      done;
      [ n; !t ]
  in
  { results; visited = !visited; mutated = List.rev !mutated }
