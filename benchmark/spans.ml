(* In-memory span recorder for traced runs. Spans are taken from the
   benchmark's own code around its calls into the runtime (session,
   [Node.call], the callee body, [Node.end_session]); spans inside the
   runtime itself do not exist yet. A span's self time is its duration
   minus the durations of its children, which never overlap here. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** [-1] for a root span *)
  session : int;
  start_ns : int;
  end_ns : int;
}

type t = { mutable rev : span list; mutable next : int }

let create () = { rev = []; next = 0 }

(* Record a finished span and return its id; a parent is recorded
   before its children. *)
let add t ~name ?(parent = -1) ~session ~start_ns ~end_ns () =
  let id = t.next in
  t.next <- id + 1;
  t.rev <- { id; name; parent; session; start_ns; end_ns } :: t.rev;
  id

let spans t = List.rev t.rev

let self_ns t =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          ((s.end_ns - s.start_ns)
          + Option.value ~default:0 (Hashtbl.find_opt child s.parent)))
    t.rev;
  fun s ->
    s.end_ns - s.start_ns - Option.value ~default:0 (Hashtbl.find_opt child s.id)

(* Mean self time, in milliseconds, of the spans called [name]. *)
let mean_self_ms t name =
  let self = self_ns t in
  Metric.mean
    (List.filter_map
       (fun s -> if String.equal s.name name then Some (Metric.ms_of_ns (self s)) else None)
       t.rev)

let to_json t =
  let self = self_ns t in
  let open Metric in
  Arr
    (List.map
       (fun s ->
         Obj
           [
             ("id", Int s.id);
             ("name", Str s.name);
             ("parent", Int s.parent);
             ("session", Int s.session);
             ("start_ns", Int s.start_ns);
             ("end_ns", Int s.end_ns);
             ("self_ns", Int (self s));
           ])
       (spans t))
