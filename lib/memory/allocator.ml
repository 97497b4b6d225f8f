exception Out_of_region of { requested : int; free : int }
exception Invalid_free of int

type t = {
  space : Address_space.t;
  base : int;
  limit : int;
  mutable free_list : (int * int) list;  (* (addr, size), sorted by addr *)
  live : int Int_table.t;  (* addr -> size *)
  mutable allocated_bytes : int;
}

let align = 8
let round_up n = (n + align - 1) land lnot (align - 1)

let create ~space ~base ~limit =
  if base <= 0 then invalid_arg "Allocator.create: base must be positive";
  if base mod align <> 0 then invalid_arg "Allocator.create: base misaligned";
  if limit <= base then invalid_arg "Allocator.create: empty region";
  {
    space;
    base;
    limit;
    free_list = [ (base, limit - base) ];
    live = Int_table.create 64;
    allocated_bytes = 0;
  }

let base t = t.base
let limit t = t.limit

let alloc t ~size =
  if size < 0 then invalid_arg "Allocator.alloc: negative size";
  let size = max align (round_up size) in
  let rec take = function
    | [] ->
      let free = List.fold_left (fun acc (_, s) -> acc + s) 0 t.free_list in
      raise (Out_of_region { requested = size; free })
    | (addr, bsize) :: rest when bsize >= size ->
      let remainder =
        if bsize > size then [ (addr + size, bsize - size) ] else []
      in
      (addr, remainder @ rest)
    | block :: rest ->
      let addr, rest' = take rest in
      (addr, block :: rest')
  in
  let addr, free_list = take t.free_list in
  t.free_list <- free_list;
  Int_table.replace t.live addr size;
  t.allocated_bytes <- t.allocated_bytes + size;
  Address_space.ensure_mapped t.space ~addr ~len:size ~prot:Prot.Read_write;
  Address_space.fill_zero_unchecked t.space ~addr ~len:size;
  addr

(* Insert a block into the sorted free list, coalescing with neighbours. *)
let rec insert addr size = function
  | [] -> [ (addr, size) ]
  | (a, s) :: rest when addr + size = a -> (addr, size + s) :: rest
  | (a, s) :: rest when a + s = addr -> insert a (s + size) rest
  | (a, s) :: rest when addr < a -> (addr, size) :: (a, s) :: rest
  | block :: rest -> block :: insert addr size rest

let free t addr =
  match Int_table.find_opt t.live addr with
  | None -> raise (Invalid_free addr)
  | Some size ->
    Int_table.remove t.live addr;
    t.allocated_bytes <- t.allocated_bytes - size;
    t.free_list <- insert addr size t.free_list

let block_size t addr = Int_table.find_opt t.live addr
let is_allocated t addr = Int_table.mem t.live addr

let find_containing t addr =
  match Int_table.find_opt t.live addr with
  | Some size -> Some (addr, size)
  | None ->
    Int_table.fold
      (fun base size acc ->
        match acc with
        | Some _ -> acc
        | None -> if addr >= base && addr < base + size then Some (base, size)
                  else None)
      t.live None
let allocated_bytes t = t.allocated_bytes
let free_bytes t = List.fold_left (fun acc (_, s) -> acc + s) 0 t.free_list
let live_blocks t = Int_table.length t.live
let iter_live t f = Int_table.iter f t.live

let check_invariants t =
  let ( let* ) r f = Result.bind r f in
  let rec sorted_disjoint = function
    | [] | [ _ ] -> Ok ()
    | (a, s) :: ((a', _) :: _ as rest) ->
      if a + s > a' then Error (Printf.sprintf "overlap at 0x%x" a)
      else if a + s = a' then Error (Printf.sprintf "uncoalesced at 0x%x" a)
      else sorted_disjoint rest
  in
  let* () = sorted_disjoint t.free_list in
  let* () =
    if List.for_all (fun (a, s) -> a >= t.base && a + s <= t.limit) t.free_list
    then Ok ()
    else Error "free block outside region"
  in
  let overlap_live =
    Int_table.fold
      (fun addr size acc ->
        acc
        || List.exists
             (fun (a, s) -> addr < a + s && a < addr + size)
             t.free_list)
      t.live false
  in
  let* () = if overlap_live then Error "live block overlaps free list" else Ok () in
  let total = free_bytes t + t.allocated_bytes in
  if total = t.limit - t.base then Ok ()
  else Error (Printf.sprintf "accounting: %d <> %d" total (t.limit - t.base))
