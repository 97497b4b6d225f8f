type derived = ..

type t = {
  types : (string, Type_desc.t) Hashtbl.t;
  ids : (string, int) Hashtbl.t;
  names : (int, string) Hashtbl.t;
  mutable next_id : int;
  derived : (int * string, derived) Hashtbl.t;
}

exception Unknown_type of string
exception Duplicate_type of string

let create () =
  { types = Hashtbl.create 32; ids = Hashtbl.create 32; names = Hashtbl.create 32;
    next_id = 0; derived = Hashtbl.create 32 }

let derived t = t.derived

let register t name desc =
  match Hashtbl.find_opt t.types name with
  | None ->
    Hashtbl.add t.types name desc;
    Hashtbl.add t.ids name t.next_id;
    Hashtbl.add t.names t.next_id name;
    t.next_id <- t.next_id + 1
  | Some existing ->
    if not (Type_desc.equal existing desc) then raise (Duplicate_type name)

let find_opt t name = Hashtbl.find_opt t.types name

let find t name =
  match find_opt t name with
  | Some d -> d
  | None -> raise (Unknown_type name)

let mem t name = Hashtbl.mem t.types name

let names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.types [] |> List.sort compare

let id_of_name t name =
  match Hashtbl.find_opt t.ids name with
  | Some id -> id
  | None -> raise (Unknown_type name)

let name_of_id t id =
  match Hashtbl.find_opt t.names id with
  | Some name -> name
  | None -> raise (Unknown_type (Printf.sprintf "#%d" id))

let resolve t desc =
  match desc with
  | Type_desc.Prim _ | Pointer _ | Array _ | Struct _ -> desc
  | Type_desc.Named _ ->
    (* A Named chain longer than the registry is necessarily cyclic. *)
    let max_depth = Hashtbl.length t.types + 1 in
    let rec go depth = function
      | Type_desc.Named name ->
        if depth > max_depth then raise (Unknown_type (name ^ " (cyclic alias)"));
        go (depth + 1) (find t name)
      | (Type_desc.Prim _ | Pointer _ | Array _ | Struct _) as d -> d
    in
    go 0 desc
