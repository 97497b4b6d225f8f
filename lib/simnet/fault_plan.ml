type endpoint = string

type profile = { drop : float; duplicate : float; latency : float }

let zero_profile = { drop = 0.0; duplicate = 0.0; latency = 0.0 }

let profile ?(drop = 0.0) ?(duplicate = 0.0) ?(latency = 0.0) () =
  if drop < 0.0 || drop > 1.0 || duplicate < 0.0 || duplicate > 1.0 then
    invalid_arg "Fault_plan.profile: probabilities must be in [0, 1]";
  if latency < 0.0 then invalid_arg "Fault_plan.profile: negative latency";
  { drop; duplicate; latency }

type t = {
  rng : Random.State.t;
  timeout : float;
  mutable global : profile;
  links : (endpoint * endpoint, profile) Hashtbl.t;
  partitions : (endpoint * endpoint, unit) Hashtbl.t;
  crashed : (endpoint, unit) Hashtbl.t;
  mutable forced_drops : int;
}

let create ?(seed = 0) ?(timeout = 2.0e-3) () =
  if timeout < 0.0 then invalid_arg "Fault_plan.create: negative timeout";
  {
    rng = Random.State.make [| seed |];
    timeout;
    global = zero_profile;
    links = Hashtbl.create 4;
    partitions = Hashtbl.create 4;
    crashed = Hashtbl.create 4;
    forced_drops = 0;
  }

let timeout t = t.timeout
let set_global t p = t.global <- p
let set_link t ~src ~dst p = Hashtbl.replace t.links (src, dst) p

let link_profile t ~src ~dst =
  match Hashtbl.find_opt t.links (src, dst) with
  | Some p -> p
  | None -> t.global

let partition t ~src ~dst = Hashtbl.replace t.partitions (src, dst) ()
let heal t ~src ~dst = Hashtbl.remove t.partitions (src, dst)
let is_partitioned t ~src ~dst = Hashtbl.mem t.partitions (src, dst)
let crash t ep = Hashtbl.replace t.crashed ep ()
let revive t ep = Hashtbl.remove t.crashed ep
let is_crashed t ep = Hashtbl.mem t.crashed ep
let drop_next t n = t.forced_drops <- t.forced_drops + n

type fate = Deliver | Drop | Duplicate

let frame_fate t ~src ~dst =
  if t.forced_drops > 0 then begin
    t.forced_drops <- t.forced_drops - 1;
    Drop
  end
  else if is_partitioned t ~src ~dst then Drop
  else begin
    let p = link_profile t ~src ~dst in
    (* consume the PRNG identically whatever the profile, so adding a
       fault-free link does not shift the schedule of the others *)
    let r_drop = Random.State.float t.rng 1.0 in
    let r_dup = Random.State.float t.rng 1.0 in
    if r_drop < p.drop then Drop
    else if r_dup < p.duplicate then Duplicate
    else Deliver
  end

let extra_latency t ~src ~dst = (link_profile t ~src ~dst).latency
