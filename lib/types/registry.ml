type derived = ..

module Names = Hashtbl.Make (String)

type t = {
  types : Type_desc.t Names.t;
  ids : int Names.t;
  mutable names : string array;  (** by id; the first [next_id] are assigned *)
  mutable next_id : int;
  mutable derived : (int * derived Names.t) list;  (** by word size *)
}

exception Unknown_type of string
exception Duplicate_type of string

let create () =
  { types = Names.create 32; ids = Names.create 32; names = Array.make 32 "";
    next_id = 0; derived = [] }

let rec memo_for word_size = function
  | [] -> raise Not_found
  | (ws, memo) :: rest ->
    if Int.equal ws word_size then memo else memo_for word_size rest

let derived t ~word_size =
  match memo_for word_size t.derived with
  | memo -> memo
  | exception Not_found ->
    let memo = Names.create 32 in
    t.derived <- (word_size, memo) :: t.derived;
    memo

let register t name desc =
  match Names.find_opt t.types name with
  | None ->
    Names.add t.types name desc;
    Names.add t.ids name t.next_id;
    if t.next_id = Array.length t.names then begin
      let names = Array.make (2 * t.next_id) "" in
      Array.blit t.names 0 names 0 t.next_id;
      t.names <- names
    end;
    t.names.(t.next_id) <- name;
    t.next_id <- t.next_id + 1
  | Some existing ->
    if not (Type_desc.equal existing desc) then raise (Duplicate_type name)

let find_opt t name = Names.find_opt t.types name

let find t name =
  match find_opt t name with
  | Some d -> d
  | None -> raise (Unknown_type name)

let mem t name = Names.mem t.types name

let names t =
  Names.fold (fun name _ acc -> name :: acc) t.types [] |> List.sort String.compare

let id_of_name t name =
  match Names.find t.ids name with
  | id -> id
  | exception Not_found -> raise (Unknown_type name)

let name_of_id t id =
  if id >= 0 && id < t.next_id then t.names.(id)
  else raise (Unknown_type (Printf.sprintf "#%d" id))

let resolve t desc =
  match desc with
  | Type_desc.Prim _ | Pointer _ | Array _ | Struct _ -> desc
  | Type_desc.Named _ ->
    (* A Named chain longer than the registry is necessarily cyclic. *)
    let max_depth = Names.length t.types + 1 in
    let rec go depth = function
      | Type_desc.Named name ->
        if depth > max_depth then raise (Unknown_type (name ^ " (cyclic alias)"));
        go (depth + 1) (find t name)
      | (Type_desc.Prim _ | Pointer _ | Array _ | Struct _) as d -> d
    in
    go 0 desc
