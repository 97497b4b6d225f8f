type t = {
  space : Address_space.t;
  mutable handler : (Address_space.fault -> unit) option;
}

exception Fault_loop of Address_space.fault
exception Unhandled_fault of Address_space.fault

let create space = { space; handler = None }
let space t = t.space
let set_handler t h = t.handler <- Some h
let clear_handler t = t.handler <- None

(* A single access may touch several pages, and servicing one page can
   leave the next still protected, so allow one handler run per page plus
   slack before declaring a loop. *)
let max_retries t ~len =
  let pages = (len / Address_space.page_size t.space) + 2 in
  (2 * pages) + 4

(* The restart loop is a top-level function of all its arguments, not a
   closure, so that a scalar access allocates nothing; the budget is
   only computed once a fault happens. *)
let rec restart t ~addr ~len acc f x budget =
  match Address_space.access t.space ~addr ~len acc ~check:true f x with
  | v -> v
  | exception Address_space.Page_fault fault -> (
    match t.handler with
    | None -> raise (Unhandled_fault fault)
    | Some handler ->
      let budget = if budget < 0 then max_retries t ~len else budget in
      if budget <= 0 then raise (Fault_loop fault);
      handler fault;
      restart t ~addr ~len acc f x (budget - 1))

let access t ~addr ~len acc f x = restart t ~addr ~len acc f x (-1)

let read t ~addr ~len =
  access t ~addr ~len Address_space.Read (fun _ b off len -> Bytes.sub b off len) len

let write t ~addr data =
  access t ~addr ~len:(Bytes.length data) Address_space.Write
    (fun _ b off data -> Bytes.blit data 0 b off (Bytes.length data))
    data
