type edge_outcome = Prefetched_touched | Prefetched_wasted | Demanded | Avoided

type type_stats = {
  mutable p_bytes : int;
  mutable t_bytes : int;
  mutable w_bytes : int;
  mutable d_bytes : int;
  mutable d_count : int;
  mutable stall_s : float;
}

type edge_stats = {
  mutable e_prefetched : int;
  mutable e_touched : int;
  mutable e_demanded : int;
  mutable e_avoided : int;
  mutable e_wasted_bytes : int;
}

type window = {
  by_type : (string, type_stats) Hashtbl.t;
  by_edge : (string * string, edge_stats) Hashtbl.t;
}

type t = {
  mutable current : window;
  mutable history : window list;  (** newest first *)
  max_windows : int;
}

let fresh_window () = { by_type = Hashtbl.create 8; by_edge = Hashtbl.create 8 }

let create ?(max_windows = 8) () =
  if max_windows < 1 then invalid_arg "Profile.create: max_windows < 1";
  { current = fresh_window (); history = []; max_windows }

let type_stats w ty =
  match Hashtbl.find_opt w.by_type ty with
  | Some s -> s
  | None ->
    let s =
      { p_bytes = 0; t_bytes = 0; w_bytes = 0; d_bytes = 0; d_count = 0; stall_s = 0.0 }
    in
    Hashtbl.add w.by_type ty s;
    s

let edge_stats w key =
  match Hashtbl.find_opt w.by_edge key with
  | Some s -> s
  | None ->
    let s =
      { e_prefetched = 0; e_touched = 0; e_demanded = 0; e_avoided = 0; e_wasted_bytes = 0 }
    in
    Hashtbl.add w.by_edge key s;
    s

let prefetched t ~ty ~bytes =
  let s = type_stats t.current ty in
  s.p_bytes <- s.p_bytes + bytes

let demand_fetched t ~ty ~bytes =
  let s = type_stats t.current ty in
  s.d_bytes <- s.d_bytes + bytes;
  s.d_count <- s.d_count + 1

let stall t ~ty ~seconds =
  let s = type_stats t.current ty in
  s.stall_s <- s.stall_s +. seconds

let outcome t ~ty ~bytes ~touched =
  let s = type_stats t.current ty in
  if touched then s.t_bytes <- s.t_bytes + bytes
  else s.w_bytes <- s.w_bytes + bytes

let edge t ~ty ~field ~outcome ~bytes =
  let s = edge_stats t.current (ty, field) in
  match outcome with
  | Prefetched_touched ->
    s.e_prefetched <- s.e_prefetched + 1;
    s.e_touched <- s.e_touched + 1
  | Prefetched_wasted ->
    s.e_prefetched <- s.e_prefetched + 1;
    s.e_wasted_bytes <- s.e_wasted_bytes + bytes
  | Demanded -> s.e_demanded <- s.e_demanded + 1
  | Avoided -> s.e_avoided <- s.e_avoided + 1

let end_window t =
  let keep = t.max_windows in
  t.history <- t.current :: t.history;
  (if List.length t.history > keep then
     t.history <- List.filteri (fun i _ -> i < keep) t.history);
  t.current <- fresh_window ()

let window_count t = List.length t.history

(* --- aggregation --- *)

type type_summary = {
  ts_prefetched_bytes : int;
  ts_touched_bytes : int;
  ts_wasted_bytes : int;
  ts_demand_bytes : int;
  ts_demand_count : int;
  ts_stall_seconds : float;
}

type edge_summary = {
  es_prefetched : int;
  es_touched : int;
  es_demanded : int;
  es_avoided : int;
  es_wasted_bytes : int;
}

type summary = {
  types : (string * type_summary) list;
  edges : ((string * string) * edge_summary) list;
}

let summary t ~windows =
  let picked = List.filteri (fun i _ -> i < windows) t.history in
  let types : (string, type_summary) Hashtbl.t = Hashtbl.create 8 in
  let edges : (string * string, edge_summary) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun w ->
      Hashtbl.iter
        (fun ty (s : type_stats) ->
          let acc =
            match Hashtbl.find_opt types ty with
            | Some a -> a
            | None ->
              {
                ts_prefetched_bytes = 0;
                ts_touched_bytes = 0;
                ts_wasted_bytes = 0;
                ts_demand_bytes = 0;
                ts_demand_count = 0;
                ts_stall_seconds = 0.0;
              }
          in
          Hashtbl.replace types ty
            {
              ts_prefetched_bytes = acc.ts_prefetched_bytes + s.p_bytes;
              ts_touched_bytes = acc.ts_touched_bytes + s.t_bytes;
              ts_wasted_bytes = acc.ts_wasted_bytes + s.w_bytes;
              ts_demand_bytes = acc.ts_demand_bytes + s.d_bytes;
              ts_demand_count = acc.ts_demand_count + s.d_count;
              ts_stall_seconds = acc.ts_stall_seconds +. s.stall_s;
            })
        w.by_type;
      Hashtbl.iter
        (fun key (s : edge_stats) ->
          let acc =
            match Hashtbl.find_opt edges key with
            | Some a -> a
            | None ->
              {
                es_prefetched = 0;
                es_touched = 0;
                es_demanded = 0;
                es_avoided = 0;
                es_wasted_bytes = 0;
              }
          in
          Hashtbl.replace edges key
            {
              es_prefetched = acc.es_prefetched + s.e_prefetched;
              es_touched = acc.es_touched + s.e_touched;
              es_demanded = acc.es_demanded + s.e_demanded;
              es_avoided = acc.es_avoided + s.e_avoided;
              es_wasted_bytes = acc.es_wasted_bytes + s.e_wasted_bytes;
            })
        w.by_edge)
    picked;
  let sorted_bindings tbl =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  { types = sorted_bindings types; edges = sorted_bindings edges }
