type endpoint = string

exception Unknown_endpoint of endpoint
exception Timeout of endpoint
exception Peer_crashed of endpoint

type t = {
  clock : Clock.t;
  stats : Stats.t;
  cost : Cost_model.t;
  dispatchers : (endpoint, endpoint -> string -> string) Hashtbl.t;
  mutable link_costs : (endpoint * endpoint * Cost_model.t) list;
      (** per-direction overrides of [cost]; a few at most *)
  mutable trace : Trace.t option;
  mutable faults : Fault_plan.t option;
  mutable labeler : (dir:Trace.direction -> string -> string) option;
}

let src_log = Logs.Src.create "srpc.transport" ~doc:"simulated transport"

module Log = (val Logs.src_log src_log : Logs.LOG)

let create ~clock ~stats ~cost =
  {
    clock;
    stats;
    cost;
    dispatchers = Hashtbl.create 16;
    link_costs = [];
    trace = None;
    faults = None;
    labeler = None;
  }

let clock t = t.clock
let stats t = t.stats
let cost t = t.cost
let is_link ~src ~dst (s, d, _) = String.equal s src && String.equal d dst

let clear_link_cost t ~src ~dst =
  t.link_costs <- List.filter (fun l -> not (is_link ~src ~dst l)) t.link_costs

let set_link_cost t ~src ~dst cost =
  clear_link_cost t ~src ~dst;
  t.link_costs <- (src, dst, cost) :: t.link_costs

(* Every frame asks, so the walk compares strings and allocates
   nothing. *)
let rec cost_in ~src ~dst default = function
  | [] -> default
  | ((_, _, c) as l) :: rest ->
    if is_link ~src ~dst l then c else cost_in ~src ~dst default rest

let link_cost t ~src ~dst = cost_in ~src ~dst t.cost t.link_costs

let set_trace t trace = t.trace <- trace
let traced t = Option.is_some t.trace
let set_frame_labeler t labeler = t.labeler <- labeler
let set_fault_plan t plan = t.faults <- plan
let fault_plan t = t.faults

let mark t ~src kind =
  match t.trace with
  | Some trace -> Trace.mark trace ~at:(Clock.now t.clock) ~src kind
  | None -> ()

(* Protocol notes are bookkeeping witnesses, not traffic: they name a
   destination but move no bytes, so no stats and no clock time. *)
let note t ~src ~dst kind =
  match t.trace with
  | Some trace ->
    Trace.record_kind trace ~at:(Clock.now t.clock) ~src ~dst ~kind ~label:""
      ~bytes:0
  | None -> ()

let access t ~src ~session ~home ~addr akind =
  match t.trace with
  | Some trace ->
    Trace.access trace ~at:(Clock.now t.clock) ~src ~session ~home ~addr akind
  | None -> ()

let crash t ep =
  match t.faults with
  | None -> invalid_arg "Transport.crash: no fault plan installed"
  | Some plan ->
    if not (Fault_plan.is_crashed plan ep) then begin
      Fault_plan.crash plan ep;
      mark t ~src:ep (Trace.Crash ep)
    end

let revive t ep =
  match t.faults with
  | None -> invalid_arg "Transport.revive: no fault plan installed"
  | Some plan ->
    if Fault_plan.is_crashed plan ep then begin
      Fault_plan.revive plan ep;
      mark t ~src:ep (Trace.Revive ep)
    end

let register t ep dispatch = Hashtbl.replace t.dispatchers ep dispatch
let unregister t ep = Hashtbl.remove t.dispatchers ep
let is_registered t ep = Hashtbl.mem t.dispatchers ep
let endpoints t = Hashtbl.fold (fun ep _ acc -> ep :: acc) t.dispatchers []

let record_frame t ~src ~dst ~kind frame =
  let bytes = String.length frame in
  Stats.incr_messages t.stats;
  Stats.add_bytes t.stats bytes;
  (match t.trace with
  | Some trace ->
    let label =
      match (t.labeler, kind) with
      | Some f, (Trace.Message dir | Trace.Dropped dir | Trace.Dup dir) ->
        (try f ~dir frame with _ -> "")
      | _ -> ""
    in
    Trace.record_kind trace ~at:(Clock.now t.clock) ~src ~dst ~kind ~label
      ~bytes
  | None -> ());
  Clock.advance t.clock (Cost_model.frame_cost (link_cost t ~src ~dst) ~bytes)

let charge_frame t ~src ~dst ~dir frame =
  record_frame t ~src ~dst ~kind:(Trace.Message dir) frame

(* A lost frame: record it as dropped (charging wire time for the send),
   then burn the sender's timeout waiting for a reply that never comes. *)
let lose_frame t plan ~src ~dst ~dir frame =
  record_frame t ~src ~dst ~kind:(Trace.Dropped dir) frame;
  Stats.incr_timeouts t.stats;
  Clock.advance t.clock (Fault_plan.timeout plan)

let deliver_frame t plan ~src ~dst ~dir frame =
  record_frame t ~src ~dst ~kind:(Trace.Message dir) frame;
  Clock.advance t.clock (Fault_plan.extra_latency plan ~src ~dst)

let rpc_faulty t plan dispatch ~src ~dst request =
  if Fault_plan.is_crashed plan dst then raise (Peer_crashed dst);
  if Fault_plan.is_crashed plan src then raise (Peer_crashed src);
  let req_fate = Fault_plan.frame_fate plan ~src ~dst in
  (match req_fate with
  | Fault_plan.Drop ->
    lose_frame t plan ~src ~dst ~dir:Trace.Request request;
    raise (Timeout dst)
  | Fault_plan.Deliver | Fault_plan.Duplicate -> ());
  deliver_frame t plan ~src ~dst ~dir:Trace.Request request;
  if req_fate = Fault_plan.Duplicate then
    record_frame t ~src ~dst ~kind:(Trace.Dup Trace.Request) request;
  let reply = dispatch src request in
  let rep_fate = Fault_plan.frame_fate plan ~src:dst ~dst:src in
  (match rep_fate with
  | Fault_plan.Drop ->
    lose_frame t plan ~src:dst ~dst:src ~dir:Trace.Reply reply;
    raise (Timeout dst)
  | Fault_plan.Deliver | Fault_plan.Duplicate -> ());
  deliver_frame t plan ~src:dst ~dst:src ~dir:Trace.Reply reply;
  (match req_fate with
  | Fault_plan.Duplicate ->
    (* the duplicate request arrives after the first exchange completed;
       the receiver's reply cache replays and its answer is discarded *)
    let dup_reply = dispatch src request in
    record_frame t ~src:dst ~dst:src ~kind:(Trace.Dup Trace.Reply) dup_reply
  | _ -> ());
  if rep_fate = Fault_plan.Duplicate then
    record_frame t ~src:dst ~dst:src ~kind:(Trace.Dup Trace.Reply) reply;
  reply

let rpc t ~src ~dst request =
  match Hashtbl.find_opt t.dispatchers dst with
  | None -> raise (Unknown_endpoint dst)
  | Some dispatch -> (
    (* checked first: the message closure would cost every frame *)
    (match Logs.Src.level src_log with
    | Some Logs.Debug ->
      Log.debug (fun m -> m "rpc %s -> %s (%d bytes)" src dst (String.length request))
    | Some _ | None -> ());
    match t.faults with
    | None ->
      charge_frame t ~src ~dst ~dir:Trace.Request request;
      let reply = dispatch src request in
      charge_frame t ~src:dst ~dst:src ~dir:Trace.Reply reply;
      reply
    | Some plan -> rpc_faulty t plan dispatch ~src ~dst request)

let multicast t ~src ~dsts request =
  let send acc dst =
    if String.equal dst src then acc
    else
      match rpc t ~src ~dst request with
      | _ -> acc
      | exception ((Unknown_endpoint _ | Timeout _ | Peer_crashed _) as e) ->
        (dst, e) :: acc
  in
  List.rev (List.fold_left send [] dsts)

let charge_fault t =
  Stats.incr_faults t.stats;
  Clock.advance t.clock t.cost.Cost_model.fault_overhead

let charge_local_touches t n =
  Clock.advance t.clock (float_of_int n *. t.cost.Cost_model.local_touch)

let charge_cpu_bytes t n =
  Clock.advance t.clock (float_of_int n *. t.cost.Cost_model.per_byte_cpu)
