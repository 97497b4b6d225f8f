open Srpc_types

type rule = { follow : string list; prune_others : bool }
type t = rule Registry.Names.t

exception Unknown_field of { ty : string; field : string }

let () =
  Printexc.register_printer (function
    | Unknown_field { ty; field } ->
      Some
        (Printf.sprintf
           "Srpc_core.Hints.Unknown_field: hint for type %S names field %S, \
            which the type does not declare"
           ty field)
    | _ -> None)

let create () = Registry.Names.create 8
let set t ~ty rule = Registry.Names.replace t ty rule
let clear t ~ty = Registry.Names.remove t ty
let find t ~ty = Registry.Names.find_opt t ty
let to_list t = Registry.Names.fold (fun ty rule acc -> (ty, rule) :: acc) t []

(* Pointer leaves contributed by one direct field, at its offset. *)
let field_pointer_leaves reg arch ~ty ~field =
  let desc = Type_desc.Named ty in
  let base =
    try Layout.field_offset reg arch ~ty:desc ~field
    with Not_found -> raise (Unknown_field { ty; field })
  in
  let fty = Layout.field_type reg ~ty:desc ~field in
  List.map (fun (off, target) -> (base + off, target)) (Layout.pointer_leaves reg arch fty)

(* Every datum a closure walk ships asks for its pointer fields, and
   most runs set no hint: an empty table is not probed. *)
let pointer_fields t reg arch ~ty =
  match if Registry.Names.length t = 0 then None else find t ~ty with
  | None -> Layout.pointer_leaves reg arch (Type_desc.Named ty)
  | Some { follow; prune_others } ->
    let followed =
      List.concat_map (fun field -> field_pointer_leaves reg arch ~ty ~field) follow
    in
    if prune_others then followed
    else begin
      let seen = List.map fst followed in
      let rest =
        Layout.pointer_leaves reg arch (Type_desc.Named ty)
        |> List.filter (fun (off, _) -> not (List.mem off seen))
      in
      followed @ rest
    end
