open Srpc_memory
module Xdr = Srpc_xdr.Xdr

type t = { origin : Space_id.t; addr : int; ty : string }

let make ~origin ~addr ~ty = { origin; addr; ty }
let is_provisional t = t.addr < 0

let equal a b =
  a.addr = b.addr && Space_id.equal a.origin b.origin && String.equal a.ty b.ty

let compare a b =
  match Space_id.compare a.origin b.origin with
  | 0 -> (
    match Int.compare a.addr b.addr with
    | 0 -> String.compare a.ty b.ty
    | c -> c)
  | c -> c

let hash t = (Space_id.hash t.origin * 31) + (t.addr * 7) + Hashtbl.hash t.ty

let pp ppf t =
  Format.fprintf ppf "<%a:0x%x:%s>%s" Space_id.pp t.origin (abs t.addr) t.ty
    (if is_provisional t then "?" else "")

let encode ~reg enc = function
  | None -> Xdr.Enc.bool enc false
  | Some t ->
    assert (not (is_provisional t));
    assert (t.origin.Space_id.site land lnot 0xffff = 0);
    assert (t.origin.Space_id.proc land lnot 0xffff = 0);
    Xdr.Enc.bool enc true;
    Xdr.Enc.uint32 enc ((t.origin.Space_id.site lsl 16) lor t.origin.Space_id.proc);
    Xdr.Enc.hyper enc t.addr;
    Xdr.Enc.uint32 enc (Srpc_types.Registry.id_of_name reg t.ty)

let decode ~reg dec =
  if not (Xdr.Dec.bool dec) then None
  else
    let packed = Xdr.Dec.uint32 dec in
    let addr = Xdr.Dec.hyper dec in
    let ty = Srpc_types.Registry.name_of_id reg (Xdr.Dec.uint32 dec) in
    Some
      {
        origin = Space_id.make ~site:(packed lsr 16) ~proc:(packed land 0xffff);
        addr;
        ty;
      }

module Table = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

(* [hash]'s low 3 bits are the same for every 8-aligned address, so a
   table indexed by it uses one bucket in 8. A multiply moves every
   address bit into the high half and the fold brings them back down. *)
let spread t =
  let h = (t.addr + (Space_id.hash t.origin lsl 32)) * 0x2545F4914F6CDD1D in
  h lxor (h lsr 32)

module Lookup = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = spread
end)
