type derived = ..

module Names = Hashtbl.Make (String)

(* The per-datum paths ask for one name many times in a row, as the
   same string value (the type of the datum at hand), so each lookup
   they make keeps its last answer in front of its table: a repeat of
   that name, compared by identity, is answered without hashing. Names
   are never rebound, so such an answer never goes stale. [no_name] is
   the key of a memo that holds nothing: no caller can pass it. *)
let no_name = String.make 1 '\000'

type derived_memo = {
  ws : int;
  values : derived Names.t;
  mutable last_key : string;
  mutable last_value : derived option;
}

type t = {
  types : Type_desc.t Names.t;
  ids : int Names.t;
  mutable names : string array;  (** by id; the first [next_id] are assigned *)
  mutable next_id : int;
  mutable last_name : string;  (** [id_of_name]'s last answer... *)
  mutable last_id : int;  (** ...and its id *)
  mutable derived : derived_memo list;  (** by word size *)
}

exception Unknown_type of string
exception Duplicate_type of string

let create () =
  { types = Names.create 32; ids = Names.create 32; names = Array.make 32 "";
    next_id = 0; last_name = no_name; last_id = -1; derived = [] }

let rec memo_for word_size = function
  | [] -> raise Not_found
  | m :: rest -> if Int.equal m.ws word_size then m else memo_for word_size rest

let derived_memo t ~word_size =
  match memo_for word_size t.derived with
  | m -> m
  | exception Not_found ->
    let m =
      { ws = word_size; values = Names.create 32; last_key = no_name; last_value = None }
    in
    t.derived <- m :: t.derived;
    m

let find_derived t ~word_size name =
  let m = derived_memo t ~word_size in
  if name == m.last_key then m.last_value
  else
    match Names.find m.values name with
    | v ->
      let found = Some v in
      m.last_key <- name;
      m.last_value <- found;
      found
    | exception Not_found -> None

let add_derived t ~word_size name v =
  let m = derived_memo t ~word_size in
  Names.replace m.values name v;
  m.last_key <- no_name;
  m.last_value <- None

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
  if name == t.last_name then t.last_id
  else
    match Names.find t.ids name with
    | id ->
      t.last_name <- name;
      t.last_id <- id;
      id
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
