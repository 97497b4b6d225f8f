open Srpc_memory

type info = {
  id : int;
  ground : Space_id.t;
  admitted : bool;
  mutable participants : Space_id.Set.t;
  mutable cachers : Space_id.Set.t;
}

type t = {
  mutable counter : int;
  mutable current : info option;
  opened : (int, info) Hashtbl.t;
}

exception No_active_session
exception Session_already_active
exception Session_aborted of { session : int; reason : string }

let create () = { counter = 0; current = None; opened = Hashtbl.create 8 }

let reserve t =
  t.counter <- t.counter + 1;
  t.counter

let open_session t ~id ~ground ~admitted =
  if Hashtbl.mem t.opened id then raise Session_already_active;
  let info =
    {
      id;
      ground;
      admitted;
      participants = Space_id.Set.singleton ground;
      cachers = Space_id.Set.empty;
    }
  in
  Hashtbl.replace t.opened id info;
  t.current <- Some info;
  info

let begin_session t ~ground =
  if Hashtbl.length t.opened > 0 then raise Session_already_active;
  open_session t ~id:(reserve t) ~ground ~admitted:false

let begin_reserved t ~id ~ground =
  if Hashtbl.fold (fun _ info found -> found || not info.admitted) t.opened false
  then raise Session_already_active;
  open_session t ~id ~ground ~admitted:true

let close t =
  match t.current with
  | None -> raise No_active_session
  | Some info ->
    Hashtbl.remove t.opened info.id;
    t.current <- None

let current t = t.current

let current_exn t =
  match t.current with None -> raise No_active_session | Some info -> info

let is_active t = Hashtbl.length t.opened > 0
let find t id = Hashtbl.find_opt t.opened id

(* [is_open] and [focus] check the focused session first: every frame
   asks about the session that is almost always the focused one, and
   must neither hash nor allocate for it. *)
let is_open t id =
  match t.current with
  | Some info when info.id = id -> true
  | Some _ | None -> Hashtbl.mem t.opened id

let focus t id =
  match t.current with
  | Some info when info.id = id -> ()
  | Some _ | None -> (
    match Hashtbl.find_opt t.opened id with
    | Some _ as focused -> t.current <- focused
    | None -> raise No_active_session)

let join t id =
  let info = current_exn t in
  info.participants <- Space_id.Set.add id info.participants

let record_casher t id =
  let info = current_exn t in
  info.cachers <- Space_id.Set.add id info.cachers
