open Srpc_memory
open Srpc_types
open Srpc_simnet

let src_log = Logs.Src.create "srpc.node" ~doc:"smart-RPC runtime"

module Log = (val Logs.src_log src_log : Logs.LOG)

(* Retry envelope parameters. Attempts are total tries (first send
   included); backoff doubles per retry up to the cap, charged to the
   simulated clock. *)
type retry = { max_attempts : int; base_backoff : float; max_backoff : float }

let default_retry =
  { max_attempts = 8; base_backoff = 2.5e-4; max_backoff = 8.0e-3 }

type t = {
  id : Space_id.t;
  ep : string;  (** [id] as a transport endpoint name *)
  space : Address_space.t;
  mmu : Mmu.t;
  heap : Allocator.t;
  cache : Cache.t;
  registry : Registry.t;
  transport : Transport.t;
  session : Session.t;
  hints : Hints.t;
  policy : Srpc_policy.Engine.t option;
  strategy : Strategy.t;
  procs : (string, proc) Hashtbl.t;
  mutable shipped : unit Int_table.t Space_id.Table.t;
      (** per peer, addresses of own data already sent in this session *)
  mutable traveling : unit Long_pointer.Table.t;
      (** own data modified elsewhere this session: the paper's modified
          data set keeps traveling with the thread of control even after
          reaching home, so stale caches at other participants are
          refreshed (section 3.4) *)
  mutable pending_allocs : pending_alloc list;
  mutable pending_frees : Long_pointer.t list;
  mutable prov_counter : int;
  mutable session_t0 : float;
      (** simulated clock at [begin_session], for the policy's measured
          session duration *)
  retry : retry;
  mutable seq : int;  (** outgoing retry-envelope sequence counter *)
  replies : (string, reply_slot) Hashtbl.t;
      (** per source endpoint, the last (seq, encoded reply) served — the
          at-most-once cache that suppresses duplicate deliveries; LRU,
          bounded by [reply_cap] *)
  reply_cap : int;
  mutable reply_tick : int;  (** LRU clock for [replies] *)
  staged : (int, (Space_id.t * batch) list) Hashtbl.t;
      (** per session, write-backs delivered by [Wb_stage] /
          [Wb_stage_delta] (with their sender) and not yet applied;
          [Wb_commit] applies and drops them, in delivery order *)
  directory : (Space_id.t * string) list Int_table.t;
      (** copy directory (delta coherency): own-heap datum address →
          per-peer encoding that peer's cached copy agrees with. It is
          both the base image a peer's byte-range delta patches against
          and the record of who holds copies of our data. Maintained
          regardless of the strategy flag so mixed clusters stay
          coherent; cleared with the rest of the session state
          ([drop_session]). *)
  sstash : (int, saved_sstate) Hashtbl.t;
      (** parked per-session runtime state of the admitted sessions held
          here other than the focused one. [shipped], [traveling] and
          the pending batches above always describe the focused session;
          switching focus swaps them through here. An unadmitted session
          is only ever held alone, so it is never parked. *)
  mutable focused : int option;
      (** the session whose state occupies the swappable fields; [None]
          when the node holds no session's state there *)
  dir_owner : int Int_table.t;
      (** datum address -> admitted session that recorded its
          copy-directory rows, so that session's drop removes exactly
          its rows. Empty while an unadmitted session owns the node. *)
  peer_eps : string Space_id.Table.t;
      (** other spaces' endpoint names, formatted once each: every
          request and trace note names one *)
  peer_ids : Space_id.t Registry.Names.t;
      (** the reverse: senders' spaces by endpoint name, parsed once
          each, since every incoming frame names one *)
  closure_seen : unit Int_table.t;
      (** addresses one [ship_closure] has visited; cleared per call *)
  enc_ctx : Object_codec.encode_ctx;
  dec_ctx : Object_codec.decode_ctx;
      (** the codec contexts, built once: every datum shipped or
          installed goes through one *)
}

and proc = t -> Value.t list -> Value.t list
and pending_alloc = { prov : Long_pointer.t; pa_entry : Cache.entry }
and reply_slot = { rs_seq : int; rs_reply : string; mutable rs_used : int }

(* The modified data set as one frame carries it to one space. *)
and batch = {
  b_full : Wire.item list;
  b_deltas : Wire.delta list;
      (** byte ranges over an encoding the receiver already holds *)
  b_frees : Long_pointer.t list;  (** releases of the receiver's own data *)
}

and saved_sstate = {
  sv_shipped : unit Int_table.t Space_id.Table.t;
  sv_traveling : unit Long_pointer.Table.t;
  sv_allocs : pending_alloc list;
  sv_frees : Long_pointer.t list;
}

exception Remote_error of string
exception Unknown_procedure of string
exception Invalid_pointer of int
exception Peer_unreachable of string

let id t = t.id
let arch t = Address_space.arch t.space
let space t = t.space
let mmu t = t.mmu
let registry t = t.registry
let transport t = t.transport
let strategy t = t.strategy
let cache t = t.cache
let heap t = t.heap
let endpoint t = t.ep

let endpoint_of t id =
  match Space_id.Table.find_opt t.peer_eps id with
  | Some ep -> ep
  | None ->
    let ep = Space_id.to_string id in
    Space_id.Table.add t.peer_eps id ep;
    ep

(* The space that sent a frame, by its endpoint name. *)
let peer_of t src =
  match Registry.Names.find t.peer_ids src with
  | id -> id
  | exception Not_found ->
    let id = Space_id.of_string src in
    Registry.Names.add t.peer_ids src id;
    id

let sizeof t ty = Layout.sizeof_name t.registry (arch t) ty

(* [Log.debug] builds its message closure before it checks the level,
   so the per-datum paths check first and build nothing while debug
   logging is off. *)
let debugging () =
  match Logs.Src.level src_log with Some Logs.Debug -> true | Some _ | None -> false

let in_heap t addr = addr >= Allocator.base t.heap && addr < Allocator.limit t.heap

(* --- datum-granular access marks (race-checker witnesses) --- *)

(* A datum is named by its home and heap address: "B/66560". The marks
   are only witnesses for [Srpc_analysis.Race_lint]; they move no bytes,
   charge no time, and are skipped entirely when no trace is attached or
   no session is open (setup-time touches cannot race). A name is
   formatted only once a trace is known to be attached: the untraced
   path touches every datum and must not pay for it. *)
let note_access t ~datum akind =
  if Transport.traced t.transport then
    match Session.current t.session with
    | None -> ()
    | Some info ->
      Transport.mark t.transport ~src:t.ep
        (Trace.Access { session = info.Session.id; datum; akind })

(* Provisional pointers are renamed when the allocation batch resolves,
   so marks under the provisional name would never pair up with the
   home-side marks under the real one; they are elided instead. *)
let note_datum t (lp : Long_pointer.t) akind =
  if lp.addr > 0 && Transport.traced t.transport then
    note_access t akind
      ~datum:(Printf.sprintf "%s/%d" (endpoint_of t lp.origin) lp.addr)

(* A datum of this node's own heap, by address. *)
let note_own t addr akind =
  if Transport.traced t.transport then
    note_access t akind ~datum:(Printf.sprintf "%s/%d" t.ep addr)

(* --- pointer swizzling (paper, section 3.2) --- *)

let swizzle t = function
  | None -> 0
  | Some (lp : Long_pointer.t) ->
    if Space_id.equal lp.origin t.id then lp.addr
    else (
      match Cache.find_by_lp t.cache lp with
      | Some e ->
        Cache.pin t.cache e;
        e.Cache.local_addr
      | None ->
        let e = Cache.allocate t.cache lp ~size:(sizeof t lp.ty) in
        Cache.pin t.cache e;
        if debugging () then
          Log.debug (fun m ->
              m "%a: swizzled %a -> 0x%x" Space_id.pp t.id Long_pointer.pp lp
                e.Cache.local_addr);
        e.Cache.local_addr)

let unswizzle t ~ty addr =
  if addr = 0 then None
  else if Cache.in_region t.cache addr then (
    match Cache.find_by_addr t.cache addr with
    | Some e -> Some e.Cache.lp
    | None -> raise (Invalid_pointer addr))
  else if in_heap t addr then Some (Long_pointer.make ~origin:t.id ~addr ~ty)
  else raise (Invalid_pointer addr)

(* --- data transfer (paper, sections 3.2-3.4) --- *)

let encode_item t ~(lp : Long_pointer.t) ~addr : Wire.item =
  let raw = Address_space.read_unchecked t.space ~addr ~len:(sizeof t lp.ty) in
  { lp; data = Object_codec.encode t.enc_ctx ~ty:lp.ty raw }

(* --- delta coherency: copy directory and shadow bookkeeping --- *)

let delta_on t = t.strategy.Strategy.delta_coherency

(* A datum's directory rows, one per peer holding a copy: a short list,
   since few peers ever hold one datum. *)
let dir_rows t addr = Option.value ~default:[] (Int_table.find_opt t.directory addr)

let rec remove_row peer = function
  | [] -> []
  | ((p, _) as row) :: rest ->
    if Space_id.equal p peer then rest else row :: remove_row peer rest

(* [peer]'s copy of our datum at [addr] is now byte-for-byte [image]. *)
let dir_record t ~peer ~addr image =
  (match Cache.scope t.cache with
  | Some sid -> Int_table.replace t.dir_owner addr sid
  | None -> ());
  Int_table.replace t.directory addr
    ((peer, image) :: remove_row peer (dir_rows t addr))

let dir_base t ~peer ~addr =
  List.find_map
    (fun (p, image) -> if Space_id.equal p peer then Some image else None)
    (dir_rows t addr)

(* [dst] received data copies this session (items installed, or deltas
   patched — either can swizzle foreign pointers into fresh cache
   slots there). The shared session metadata stands in for provenance
   piggybacked on the transfers; the ground's targeted invalidation
   reads it at close. The trace note is the witness SP007 orders
   against the close-time invalidations. Every control transfer and
   fetch records its copies; at close only the delta closes do — the
   full close's multicast reaches every participant regardless. *)
let record_copy t ~dst n =
  if n > 0 then
    match Session.current t.session with
    | None -> ()
    | Some info ->
      Session.record_casher t.session dst;
      Transport.note t.transport ~src:(endpoint t)
        ~dst:(endpoint_of t dst) (Trace.Copy info.Session.id)

(* Wire sizes of the two write-back encodings for one datum, mirroring
   the XDR framing: a non-null long pointer is 20 bytes, opaques pad to
   4, each list costs a 4-byte count and each range an 8-byte header. *)
let padded4 n = (n + 3) land lnot 3
let item_wire_size data_len = 20 + 4 + padded4 data_len

let delta_wire_size ranges =
  List.fold_left
    (fun acc (_, bytes) -> acc + 8 + padded4 (String.length bytes))
    (20 + 4 + 4) ranges

(* Install a transferred datum. [kind] is its provenance: [`Writeback]
   items overwrite our copy and keep traveling with the thread of
   control; [`Eager] items are speculative closure extras; [`Demand]
   items answer an explicit fetch from this node. Provenance is what the
   access-pattern profile keys its outcome accounting on. [src] is the
   space the item arrived from, which the delta bookkeeping needs: a
   write-back landing home updates the sender's directory base, and a
   cache copy installed straight from its home space leaves both sides
   agreeing on the encoding (shadow synced). *)
let install_item t ~src ~kind (item : Wire.item) =
  let lp = item.Wire.lp in
  let dirty = kind = `Writeback in
  if Space_id.equal lp.origin t.id then begin
    (* The datum came home: apply it to the original location. When it
       arrived dirty mid-session it stays in the traveling modified set
       so later control transfers refresh other participants' caches. *)
    let raw = Object_codec.decode t.dec_ctx ~ty:lp.ty item.Wire.data in
    Address_space.write_unchecked t.space ~addr:lp.addr raw;
    if dirty then begin
      note_datum t lp Trace.Acc_apply;
      Long_pointer.Table.replace t.traveling lp ();
      (* the sender's copy now agrees with this encoding: it is the base
         its next byte-range delta patches *)
      dir_record t ~peer:src ~addr:lp.addr item.Wire.data
    end
  end
  else begin
    let e =
      match Cache.find_by_lp t.cache lp with
      | Some e -> e
      | None -> Cache.allocate t.cache lp ~size:(sizeof t lp.ty)
    in
    Cache.pin t.cache e;
    let fresh = not e.Cache.present in
    if dirty || fresh then begin
      note_datum t lp Trace.Acc_install;
      let raw = Object_codec.decode t.dec_ctx ~ty:lp.ty item.Wire.data in
      Address_space.write_unchecked t.space ~addr:e.Cache.local_addr raw;
      if dirty then e.Cache.dirty <- true;
      Cache.mark_present t.cache e;
      (* A copy installed straight from its home is an encoding both
         sides hold (usable as a delta base); via any other space the
         home may not know it, so the shadow goes stale and the next
         write-back falls back to the full item. *)
      Cache.bump_version e;
      if Space_id.equal src lp.origin then Cache.sync_shadow e item.Wire.data
    end;
    (* else: a clean copy we already hold; ours is authoritative *)
    if fresh then begin
      (match kind with
      | `Eager ->
        e.Cache.prefetched <- true;
        Stats.add_prefetched_bytes (Transport.stats t.transport) e.Cache.size
      | `Writeback | `Demand -> ());
      match t.policy with
      | None -> ()
      | Some pol -> (
        let profile = Srpc_policy.Engine.profile pol in
        match kind with
        | `Eager ->
          Srpc_policy.Profile.prefetched profile ~ty:lp.Long_pointer.ty
            ~bytes:e.Cache.size
        | `Demand ->
          Srpc_policy.Profile.demand_fetched profile ~ty:lp.Long_pointer.ty
            ~bytes:e.Cache.size
        | `Writeback -> ())
    end
  end

(* [d]'s ranges patched onto [base]: the full encoding its sender would
   otherwise have shipped. [what] names the base in the error for a
   base of the wrong length. *)
let patch t ~what (d : Wire.delta) base =
  if String.length base <> d.Wire.base_len then
    raise
      (Remote_error
         (Format.asprintf "%s for %a: %d bytes, frame says %d" what
            Long_pointer.pp d.Wire.dlp (String.length base) d.Wire.base_len));
  let buf = Bytes.of_string base in
  List.iter
    (fun (r : Wire.range) ->
      (* range bounds were validated against [base_len] at decode *)
      Bytes.blit_string r.Wire.bytes 0 buf r.Wire.off
        (String.length r.Wire.bytes))
    d.Wire.ranges;
  (* reconstructing the image is CPU-side byte crunching, not wire *)
  Transport.charge_cpu_bytes t.transport d.Wire.base_len;
  Bytes.to_string buf

(* A delta from [src] is patched onto the base it was computed against
   and then lands exactly as its full item would have, so the result is
   bit-identical to the full-write-back protocol.
   - Landing home, the base is the per-(datum, src) image in the copy
     directory — NOT our current encoding: our own heap is unprotected,
     so we may have drifted since shipping. Senders only emit a delta
     while their shadow is fresh, which implies the directory holds the
     matching base; a miss means a protocol bug or a crash-purged
     directory, and must fail loudly.
   - Refreshing our cached copy from its home, the base is our shadow
     bytes, which stay in lockstep with the home's directory row for us
     even while the freshness flag says the copy drifted (a third party
     may have overwritten it; the full protocol would overwrite it too).
     A missing entry or shadow can only mean we released the copy and
     our free has not reached the home yet; the full protocol would
     pointlessly resurrect the datum here, so the refresh is skipped. *)
let apply_delta t ~src (d : Wire.delta) =
  let lp = d.Wire.dlp in
  let base, what =
    if Space_id.equal lp.Long_pointer.origin t.id then
      match dir_base t ~peer:src ~addr:lp.Long_pointer.addr with
      | Some base -> (Some base, "stale delta base")
      | None ->
        raise
          (Remote_error
             (Format.asprintf "delta without a shipped base for %a"
                Long_pointer.pp lp))
    else if Space_id.equal lp.Long_pointer.origin src then
      (Option.bind (Cache.find_by_lp t.cache lp) Cache.shadow_image,
       "refresh delta base")
    else
      raise
        (Remote_error
           (Format.asprintf "delta for third-party datum %a" Long_pointer.pp lp))
  in
  match base with
  | Some base ->
    install_item t ~src ~kind:`Writeback { Wire.lp; data = patch t ~what d base }
  | None ->
    Log.debug (fun m ->
        m "%a: refresh delta for dropped copy %a skipped" Space_id.pp t.id
          Long_pointer.pp lp)

let shipped_set t peer =
  match Space_id.Table.find_opt t.shipped peer with
  | Some s -> s
  | None ->
    let s = Int_table.create 64 in
    Space_id.Table.add t.shipped peer s;
    s

(* Bounded transitive closure from [seeds], in the configured traversal
   order (paper, section 3.3). Seeds are shipped unconditionally when
   [forced_seeds]; extras stop at the closure budget. Data already
   shipped to [peer] in this session is traversed but not re-sent.

   With an adaptive policy installed the static byte budget is replaced
   by the controller's per-type budgets: each candidate datum is charged
   against the budget of its own type, an exhausted type is skipped
   (left for the lazy path) without stopping traversal of the others,
   and its children are not explored. An [Unbounded] strategy stays
   unbounded — the policy only retunes bounded shipping. *)
let ship_closure t ~peer ~forced_seeds ~seeds =
  let strategy = t.strategy in
  let shipped = shipped_set t peer in
  let visited = t.closure_seen in
  Int_table.clear visited;
  let out = ref [] in
  let total = ref 0 in
  let budget_exceeded = ref false in
  (* the policy's per-type budgets, and the bytes charged to each type *)
  let per_type_budget =
    match t.policy with
    | Some pol when strategy.Strategy.budget <> Strategy.Unbounded ->
      Some (Registry.Names.create 8, fun ty -> Srpc_policy.Engine.budget_for pol ~ty)
    | Some _ | None -> None
  in
  let used_by_ty used ty = Option.value ~default:0 (Registry.Names.find_opt used ty) in
  let budget_allows ~ty ~extra =
    match per_type_budget with
    | None -> Strategy.budget_allows strategy ~total:!total ~extra
    | Some (used, budget) -> used_by_ty used ty + extra <= budget ty
  in
  (* Once the static budget has no byte left, nothing more can ship and
     walking on to children has no visible effect: the lazy path's
     one-datum fetches stop at their seed. *)
  let spent () =
    Option.is_none per_type_budget
    && not (Strategy.budget_allows strategy ~total:!total ~extra:1)
  in
  let queue = Queue.create () in
  let stack = ref [] in
  let push lp =
    match strategy.Strategy.order with
    | Strategy.Breadth_first -> Queue.add lp queue
    | Strategy.Depth_first -> stack := lp :: !stack
  in
  let pop () =
    match strategy.Strategy.order with
    | Strategy.Breadth_first -> Queue.take_opt queue
    | Strategy.Depth_first -> (
      match !stack with
      | [] -> None
      | lp :: rest ->
        stack := rest;
        Some lp)
  in
  let children raw ty =
    Hints.pointer_fields t.hints t.registry (arch t) ~ty
    |> List.filter_map (fun (off, target) ->
           let w = Mem.Codec.get_word (arch t) raw off in
           if w = 0 then None else unswizzle t ~ty:target w)
  in
  let visit ~forced (lp : Long_pointer.t) =
    if Space_id.equal lp.origin t.id && not (Int_table.mem visited lp.addr) then begin
      Int_table.add visited lp.addr ();
      let size = sizeof t lp.ty in
      let raw () = Address_space.read_unchecked t.space ~addr:lp.addr ~len:size in
      if Int_table.mem shipped lp.addr && not forced then begin
        (* peer caches it already; traverse through without re-sending *)
        if not (spent ()) then List.iter push (children (raw ()) lp.ty)
      end
      else if forced || budget_allows ~ty:lp.ty ~extra:size then begin
        total := !total + size;
        (match per_type_budget with
        | Some (used, _) ->
          Registry.Names.replace used lp.ty (used_by_ty used lp.ty + size)
        | None -> ());
        let raw = raw () in
        let data = Object_codec.encode t.enc_ctx ~ty:lp.ty raw in
        out := { Wire.lp; data } :: !out;
        Int_table.replace shipped lp.addr ();
        note_datum t lp Trace.Acc_serve;
        (* closure provenance feeds the copy directory: [peer] will hold
           exactly this encoding *)
        dir_record t ~peer ~addr:lp.addr data;
        if not (spent ()) then List.iter push (children raw lp.ty)
      end
      else if Option.is_none per_type_budget then budget_exceeded := true
      (* per-type budgets: this datum stays lazy, other types continue *)
    end
  in
  List.iter (visit ~forced:forced_seeds) seeds;
  let rec drain () =
    if not !budget_exceeded then
      match pop () with
      | None -> ()
      | Some lp ->
        visit ~forced:false lp;
        drain ()
  in
  drain ();
  List.rev !out

let serve_fetch t ~peer wanted =
  List.iter
    (fun (lp : Long_pointer.t) ->
      if not (Space_id.equal lp.origin t.id) then
        invalid_arg
          (Format.asprintf "Fetch for foreign datum %a" Long_pointer.pp lp);
      (* a long pointer into our heap whose block has been released is a
         stale reference: answer with a typed error instead of shipping
         whatever bytes the allocator left behind *)
      if in_heap t lp.Long_pointer.addr
         && not (Allocator.is_allocated t.heap lp.Long_pointer.addr)
      then
        raise
          (Remote_error
             (Format.asprintf "dangling fetch: %a was freed" Long_pointer.pp lp)))
    wanted;
  ship_closure t ~peer ~forced_seeds:true ~seeds:wanted

(* --- remote allocation batching (paper, section 3.5) --- *)

let group_by_space key xs =
  match xs with
  | x :: rest when List.for_all (fun y -> Space_id.equal (key y) (key x)) rest ->
    (* one space, the usual case: one group, no table *)
    [ (key x, xs) ]
  | _ ->
    let tbl = Space_id.Table.create 4 in
    List.iter
      (fun x ->
        let k = key x in
        match Space_id.Table.find_opt tbl k with
        | Some r -> r := x :: !r
        | None -> Space_id.Table.add tbl k (ref [ x ]))
      xs;
    Space_id.Table.fold (fun k r acc -> (k, List.rev !r) :: acc) tbl []

let session_id t = (Session.current_exn t.session).Session.id
let faulty t = Option.is_some (Transport.fault_plan t.transport)

(* Marker prefix preserved across nesting levels so the ground thread can
   tell a dead participant apart from an ordinary remote exception. *)
let unreachable_prefix = "peer-unreachable: "

let is_unreachable_msg msg =
  String.length msg >= String.length unreachable_prefix
  && String.equal (String.sub msg 0 (String.length unreachable_prefix))
       unreachable_prefix

(* --- the session a node works for --- *)

(* A node holds the state of every session that reached it and has not
   been dropped here yet: the focused one in the swappable fields, the
   others parked in [sstash]. An unadmitted session differs from an
   admitted one in one fact: it owns the node. That is decided when the
   node first focuses the session and kept in the cache's scope
   ({!Cache.set_scope}): [None] for an unadmitted session, [Some sid]
   for an admitted one. The scope then decides where entries are
   placed, whether they are pinned, which entries a flush covers and
   which drop ends the session.

   Sessions interleave only at operation granularity — the simulated
   cluster is single-threaded, and every frame is handled to completion
   before another session's frame can arrive — so swapping at each
   focus switch is sound. *)
let swap_focus t sid =
  match t.focused with
  | Some f when f = sid -> ()
  | focused ->
    (match focused with
    | Some old ->
      Hashtbl.replace t.sstash old
        {
          sv_shipped = t.shipped;
          sv_traveling = t.traveling;
          sv_allocs = t.pending_allocs;
          sv_frees = t.pending_frees;
        }
    | None -> ());
    (match Hashtbl.find_opt t.sstash sid with
    | Some sv ->
      (* only an admitted session is ever parked *)
      Hashtbl.remove t.sstash sid;
      t.shipped <- sv.sv_shipped;
      t.traveling <- sv.sv_traveling;
      t.pending_allocs <- sv.sv_allocs;
      t.pending_frees <- sv.sv_frees;
      Cache.set_scope t.cache (Some sid)
    | None ->
      (* first focus here; with nothing focused the swappable fields
         hold no session's state and are taken over as they are *)
      if Option.is_some focused then begin
        t.shipped <- Space_id.Table.create 4;
        t.traveling <- Long_pointer.Table.create 16;
        t.pending_allocs <- [];
        t.pending_frees <- []
      end;
      Cache.set_scope t.cache
        (match Session.find t.session sid with
        | Some info when info.Session.admitted -> Some sid
        | Some _ | None -> None));
    t.focused <- Some sid

(* Re-align the shared registry's focus with this node's own focused
   session before a ground-side operation: between two of this ground's
   operations, another ground's activity may have moved the focus. Every
   access touch calls this, so the common case — the registry already
   points there — is two field reads. *)
let refocus t =
  match (t.focused, Session.current t.session) with
  | Some sid, Some info when info.Session.id = sid -> ()
  | Some sid, _ when Session.is_open t.session sid -> Session.focus t.session sid
  | Some _, _ | None, _ -> ()

(* --- outcome accounting for the adaptive policy --- *)

(* Close the session's book on its cache entries (the scope's, see
   {!Cache.iter_scoped}), just before invalidation: every prefetched
   datum either paid off (it was touched) or was pure waste, and each
   pointer field of a touched datum yields one edge observation — child
   still absent: a healthy skip; child prefetched: touched or wasted;
   child present otherwise: the program had to demand it. The
   controller turns these into budgets and hints. *)
let record_outcomes t =
  let stats = Transport.stats t.transport in
  Cache.iter_scoped t.cache (fun e ->
      if e.Cache.present && e.Cache.prefetched && not e.Cache.touched then
        Stats.add_wasted_prefetch_bytes stats e.Cache.size);
  match t.policy with
  | None -> ()
  | Some pol ->
    let profile = Srpc_policy.Engine.profile pol in
    let arch = arch t in
    Cache.iter_scoped t.cache (fun (e : Cache.entry) ->
        if e.Cache.present then begin
          let ty = e.Cache.lp.Long_pointer.ty in
          if e.Cache.prefetched then
            Srpc_policy.Profile.outcome profile ~ty ~bytes:e.Cache.size
              ~touched:e.Cache.touched;
          if e.Cache.touched then
            let fields =
              (Layout.of_type t.registry arch (Type_desc.Named ty)).Layout.fields
            in
            let raw =
              lazy
                (Address_space.read_unchecked t.space ~addr:e.Cache.local_addr
                   ~len:e.Cache.size)
            in
            List.iter
              (fun (f : Layout.field) ->
                List.iter
                  (fun (off, _target) ->
                    let w =
                      Mem.Codec.get_word arch (Lazy.force raw)
                        (f.Layout.offset + off)
                    in
                    if w <> 0 && Cache.in_region t.cache w then
                      match Cache.find_by_addr t.cache w with
                      | None -> ()
                      | Some child ->
                        let outcome : Srpc_policy.Profile.edge_outcome =
                          if not child.Cache.present then Avoided
                          else if child.Cache.prefetched then
                            if child.Cache.touched then Prefetched_touched
                            else Prefetched_wasted
                          else Demanded
                        in
                        Srpc_policy.Profile.edge profile ~ty
                          ~field:f.Layout.name ~outcome ~bytes:child.Cache.size)
                  (Layout.pointer_leaves t.registry arch f.Layout.ty))
              fields
        end)

(* Forget this node's state of session [sid]: cached foreign data,
   shipped/traveling bookkeeping, staged write-backs, the copy directory
   and unflushed batched operations. An unadmitted session owns the
   node, so everything goes, under one wildcard drop mark. An admitted
   session's share goes and every other open session's stays: its
   pinned entries (per-datum drop marks; a wildcard would erase other
   open sessions' access history in the race checker), its staged
   write-backs and its copy-directory rows. A [closed] session is no
   longer in the registry and its drops are not marked: its access
   history ended with it. [outcomes] first closes the policy's book on
   the session's entries: at a session's normal end, not at an abort or
   at the lazy purge of a node that missed its session's end. *)
let drop_session ?(outcomes = false) ?(closed = false) t sid =
  swap_focus t sid;
  if outcomes then record_outcomes t;
  (match Cache.scope t.cache with
  | None ->
    note_access t ~datum:"*" Trace.Acc_drop;
    Cache.invalidate t.cache;
    Hashtbl.reset t.staged;
    (* only looked up, never folded: it keeps the size it grew to *)
    Int_table.clear t.directory
  | Some _ ->
    if not closed then
      Cache.iter_scoped t.cache (fun e -> note_datum t e.Cache.lp Trace.Acc_drop);
    Cache.invalidate_session t.cache ~session:sid;
    Hashtbl.remove t.staged sid;
    let owned =
      Int_table.fold
        (fun addr owner acc -> if owner = sid then addr :: acc else acc)
        t.dir_owner []
    in
    List.iter
      (fun addr ->
        Int_table.remove t.directory addr;
        Int_table.remove t.dir_owner addr)
      owned);
  Space_id.Table.reset t.shipped;
  Long_pointer.Table.reset t.traveling;
  t.pending_allocs <- [];
  t.pending_frees <- [];
  t.focused <- None

(* Focus the open session [sid] at this node and in the shared
   registry. A node that was unreachable when a session's invalidation
   or abort went out still holds that session's state, so on [sid]'s
   first focus here — its begin at the ground, its first frame anywhere
   else — the node first drops every session it holds that the registry
   has closed: the lazy half of crash-safe reusability, once per
   session per node, never a cache scan per frame. *)
let focus_node t sid =
  let held =
    (match t.focused with Some f -> f = sid | None -> false)
    || Hashtbl.mem t.sstash sid
  in
  if not held then
    Option.to_list t.focused
    @ Hashtbl.fold (fun parked _ acc -> parked :: acc) t.sstash []
    |> List.sort compare
    |> List.iter (fun old ->
           if not (Session.is_open t.session old) then
             drop_session ~closed:true t old);
  swap_focus t sid;
  Session.focus t.session sid

let request t ~dst req =
  let dst_ep = endpoint_of t dst in
  match Transport.fault_plan t.transport with
  | None ->
    let reply =
      Transport.rpc t.transport ~src:(endpoint t) ~dst:dst_ep
        (Wire.encode_request ~reg:t.registry req)
    in
    Wire.decode_response ~reg:t.registry reply
  | Some _ ->
    t.seq <- t.seq + 1;
    let frame = Wire.encode_framed ~reg:t.registry ~seq:t.seq req in
    let stats = Transport.stats t.transport in
    let clock = Transport.clock t.transport in
    let rec attempt n backoff =
      match Transport.rpc t.transport ~src:(endpoint t) ~dst:dst_ep frame with
      | reply -> Wire.decode_response ~reg:t.registry reply
      | exception Transport.Peer_crashed ep -> raise (Peer_unreachable ep)
      | exception Transport.Timeout _ ->
        if n >= t.retry.max_attempts then raise (Peer_unreachable dst_ep)
        else begin
          Stats.incr_retries stats;
          Clock.advance clock backoff;
          attempt (n + 1) (Float.min (backoff *. 2.0) t.retry.max_backoff)
        end
    in
    attempt 1 t.retry.base_backoff

let expect_ack = function
  | Wire.Ack -> ()
  | Wire.Error msg -> raise (Remote_error msg)
  | Wire.Return _ | Wire.Fetched _ | Wire.Allocated _ | Wire.Return_d _
  | Wire.Hb_ack | Wire.Offload_return _ ->
    failwith "protocol error: expected Ack"

(* Crash-safe session abort (ground only): discard the modified data set
   instead of writing it back, tell every reachable participant to drop
   session state, close the session, and surface [Session_aborted]. The
   trace carries the abort mark and the invalidation mark but no
   write-back mark — the SP005 witness that nothing was committed. *)
let abort_session t ~reason : 'a =
  let info = Session.current_exn t.session in
  let sid = info.Session.id in
  Log.warn (fun m ->
      m "%a: aborting session #%d (%s)" Space_id.pp t.id sid reason);
  Transport.mark t.transport ~src:(endpoint t) (Trace.Session_abort sid);
  Transport.mark t.transport ~src:(endpoint t) (Trace.Invalidate sid);
  let others = Space_id.Set.remove t.id info.Session.participants in
  Space_id.Set.iter
    (fun peer ->
      try expect_ack (request t ~dst:peer (Wire.Abort { session = sid }))
      with Peer_unreachable _ ->
        (* the dead peer purges its own leftovers on next contact *)
        ())
    others;
  drop_session t sid;
  Session.close t.session;
  Transport.mark t.transport ~src:(endpoint t) (Trace.Session_end sid);
  raise (Session.Session_aborted { session = sid; reason })

let peer_failure t exn : 'a =
  match Session.current t.session with
  | Some info when Space_id.equal info.Session.ground t.id ->
    let reason =
      match exn with
      | Peer_unreachable ep -> unreachable_prefix ^ ep
      | Remote_error msg -> msg
      | e -> Printexc.to_string e
    in
    abort_session t ~reason
  | Some _ | None -> raise exn

(* Wrap a protocol step that may discover a dead participant. On the
   ground thread that is a session abort; elsewhere the failure
   propagates (and travels back to the ground as a marked remote
   error). No-op without a fault plan. *)
let ground_guard t f =
  if not (faulty t) then f ()
  else
    try f () with
    | Peer_unreachable _ as e -> peer_failure t e
    | Remote_error msg as e when is_unreachable_msg msg -> peer_failure t e

let flush_remote_ops t =
  if t.pending_allocs <> [] then begin
    let batches =
      group_by_space (fun pa -> pa.prov.Long_pointer.origin) t.pending_allocs
    in
    t.pending_allocs <- [];
    List.iter
      (fun (home, pas) ->
        let reqs =
          List.map
            (fun pa -> (pa.prov.Long_pointer.addr, pa.prov.Long_pointer.ty))
            pas
        in
        match request t ~dst:home (Wire.Alloc_batch { session = session_id t; reqs })
        with
        | Wire.Allocated { addrs } ->
          List.iter
            (fun pa ->
              match List.assoc_opt pa.prov.Long_pointer.addr addrs with
              | Some real ->
                let lp =
                  Long_pointer.make ~origin:home ~addr:real
                    ~ty:pa.prov.Long_pointer.ty
                in
                Cache.rebind t.cache pa.pa_entry lp
              | None -> failwith "protocol error: allocation not answered")
            pas
        | Wire.Error msg -> raise (Remote_error msg)
        | Wire.Return _ | Wire.Fetched _ | Wire.Ack | Wire.Return_d _
        | Wire.Hb_ack | Wire.Offload_return _ ->
          failwith "protocol error: expected Allocated")
      batches
  end;
  if t.pending_frees <> [] then begin
    let batches = group_by_space (fun lp -> lp.Long_pointer.origin) t.pending_frees in
    t.pending_frees <- [];
    List.iter
      (fun (home, lps) ->
        expect_ack
          (request t ~dst:home (Wire.Free_batch { session = session_id t; lps })))
      batches
  end

(* --- coherency protocol (paper, section 3.4) --- *)

(* Test-only defect switch: when set, the first dirty cache entry of the
   next flush is silently not written back (its page is still cleaned,
   so the update is lost for good). Exists so srpc-check can prove it
   detects and shrinks real coherency bugs; never set it in production
   code. *)
let chaos_lose_first_writeback = ref false

(* Test-only defect switch: when set, an incoming [Invalidate] updates
   the session bookkeeping (so the lazy purge never kicks in) but leaves
   every cached copy, shipped set and directory row in place — the
   observable effect of an invalidation racing ahead of the state it was
   supposed to clear. Exists so srpc-check can prove the happens-before
   checker catches stale reads; never set it in production code. *)
let chaos_reorder_invalidate = ref false

(* Drain the dirty entries, charging the twin-diff CPU cost and applying
   the chaos defect switch — shared by the transfer and close encodes. *)
let take_dirty_entries t =
  let entries = Cache.dirty_entries t.cache in
  if t.strategy.Strategy.grain = Strategy.Twin_diff then begin
    let psz = Address_space.page_size t.space in
    Transport.charge_cpu_bytes t.transport
      (List.length (Cache.dirty_pages t.cache) * psz)
  end;
  match entries with
  | _ :: rest when !chaos_lose_first_writeback -> rest
  | entries -> entries

(* One datum bound for a space that holds [base], an earlier encoding
   of it: byte ranges over [base] when they beat the full item, [None]
   to ship the full item. A length change (a pointer flipped nullness)
   or ranges no smaller than the item count as fallbacks. *)
let delta_over t ~base (item : Wire.item) =
  let stats = Transport.stats t.transport in
  let data = item.Wire.data in
  let full_size = item_wire_size (String.length data) in
  let fallback () =
    Stats.incr_full_fallbacks stats;
    None
  in
  if String.length base <> String.length data then fallback ()
  else begin
    (* the byte scan is CPU-side, like a twin diff *)
    Transport.charge_cpu_bytes t.transport (String.length data);
    let ranges = Cache.diff_ranges ~base ~now:data in
    let dsize = delta_wire_size ranges in
    if dsize >= full_size then fallback ()
    else begin
      Stats.add_delta_bytes_saved stats (full_size - dsize);
      Stats.add_writeback_bytes stats dsize;
      Some
        {
          Wire.dlp = item.Wire.lp;
          base_len = String.length base;
          ranges = List.map (fun (off, bytes) -> { Wire.off; bytes }) ranges;
        }
    end
  end

(* encode: the modified data set bound for [dst] — the dirty cache
   [entries], then our own [travelers] — as full items or, with [delta],
   as byte-range deltas wherever [dst] holds an agreed base: the shadow
   for an entry homed at [dst], the copy-directory row for our own
   datum. Either way [dst] holds the shipped encoding afterwards. A
   missing shadow is a fallback; a missing row is simply a first
   shipment. *)
let encode t ~delta ~dst entries travelers =
  let stats = Transport.stats t.transport in
  let full = ref [] and deltas = ref [] in
  let ship (item : Wire.item) = function
    | Some d -> deltas := d :: !deltas
    | None ->
      Stats.add_writeback_bytes stats
        (item_wire_size (String.length item.Wire.data));
      full := item :: !full
  in
  List.iter
    (fun (e : Cache.entry) ->
      let item = encode_item t ~lp:e.Cache.lp ~addr:e.Cache.local_addr in
      if delta && Space_id.equal e.Cache.lp.Long_pointer.origin dst then begin
        ship item
          (match Cache.shadow_base e with
          | Some base -> delta_over t ~base item
          | None ->
            Stats.incr_full_fallbacks stats;
            None);
        Cache.sync_shadow e item.Wire.data
      end
      else ship item None)
    entries;
  List.iter
    (fun (lp : Long_pointer.t) ->
      let item = encode_item t ~lp ~addr:lp.addr in
      if delta then begin
        ship item
          (Option.bind (dir_base t ~peer:dst ~addr:lp.addr) (fun base ->
               delta_over t ~base item));
        dir_record t ~peer:dst ~addr:lp.addr item.Wire.data
      end
      else ship item None)
    travelers;
  Stats.add_writebacks stats (List.length !full + List.length !deltas);
  (List.rev !full, List.rev !deltas)

(* encode, transfer variant: the modified data set travels with every
   control transfer (paper, section 3.4), our own data modified
   elsewhere included, so stale copies at other participants are
   refreshed. With [delta] the frees homed at [dst] ride along; the
   other batched operations flush first — pending allocations cannot
   ride, as their provisional pointers must be resolved by the
   [Alloc_batch] round trip before any datum naming them is encoded. *)
let transfer_batch t ~delta ~dst =
  let frees, others =
    if delta then
      List.partition
        (fun (lp : Long_pointer.t) -> Space_id.equal lp.origin dst)
        t.pending_frees
    else ([], t.pending_frees)
  in
  t.pending_frees <- others;
  flush_remote_ops t;
  let entries = take_dirty_entries t in
  (* each frame format keeps its own order for the traveling data: the
     order decides the receiver's cache layout, and the coherency trace
     digests pin both *)
  let travelers = Long_pointer.Table.fold (fun lp () acc -> lp :: acc) t.traveling [] in
  let travelers = if delta then List.rev travelers else travelers in
  let full, deltas = encode t ~delta ~dst entries travelers in
  Cache.clean_after_flush t.cache;
  { b_full = full; b_deltas = deltas; b_frees = frees }

(* encode, close variant: the foreign dirty entries, grouped by home and
   each group encoded for its home. Our own traveling data is already
   applied to the originals and ships nowhere. When [frees] ride the
   close frames, their homes join the batches and the batches go out in
   space order. *)
let close_batches t ~delta ~frees =
  let foreign =
    List.filter
      (fun (e : Cache.entry) ->
        not (Space_id.equal e.Cache.lp.Long_pointer.origin t.id))
      (take_dirty_entries t)
  in
  let encoded =
    group_by_space (fun (e : Cache.entry) -> e.Cache.lp.Long_pointer.origin)
      foreign
    |> List.map (fun (home, entries) -> (home, encode t ~delta ~dst:home entries []))
  in
  Cache.clean_after_flush t.cache;
  let batch home (full, deltas) frees =
    (home, { b_full = full; b_deltas = deltas; b_frees = frees })
  in
  match frees with
  | None -> List.map (fun (home, fd) -> batch home fd []) encoded
  | Some frees ->
    let frees_by = group_by_space (fun (lp : Long_pointer.t) -> lp.origin) frees in
    let find home l default = Option.value ~default (List.assoc_opt home l) in
    List.sort_uniq Space_id.compare (List.map fst encoded @ List.map fst frees_by)
    |> List.map (fun home ->
           batch home (find home encoded ([], [])) (find home frees_by []))

(* Apply a batch of releases for our own heap (the [Free_batch] body,
   also ridden by delta-coherency frames). *)
let apply_frees t lps =
  List.iter
    (fun (lp : Long_pointer.t) ->
      if not (Space_id.equal lp.origin t.id) then
        invalid_arg "Free_batch: foreign datum";
      (* a dead datum must stop traveling, and its directory row would
         otherwise invite a refresh delta to a space that dropped it *)
      note_datum t lp Trace.Acc_free;
      Long_pointer.Table.remove t.traveling lp;
      Int_table.remove t.directory lp.addr;
      Allocator.free t.heap lp.addr)
    lps

(* The receive half of every frame carrying a modified data set from
   [src]: frees, full items, deltas, then the eager closure extras. *)
let apply_batch ?(eager = []) t ~src b =
  apply_frees t b.b_frees;
  List.iter (install_item t ~src ~kind:`Writeback) b.b_full;
  List.iter (apply_delta t ~src) b.b_deltas;
  List.iter (install_item t ~src ~kind:`Eager) eager

let full_batch items = { b_full = items; b_deltas = []; b_frees = [] }

(* --- marshaling of argument values --- *)

let wire_of_value t = function
  | Value.Unit -> Wire.WUnit
  | Value.Bool b -> Wire.WBool b
  | Value.Int n -> Wire.WInt n
  | Value.Float f -> Wire.WFloat f
  | Value.Str s -> Wire.WStr s
  | Value.Ptr { addr; ty } -> Wire.WPtr (unswizzle t ~ty addr)
  | Value.Fun f -> Wire.WFun f

let value_of_wire t = function
  | Wire.WUnit -> Value.Unit
  | Wire.WBool b -> Value.Bool b
  | Wire.WInt n -> Value.Int n
  | Wire.WFloat f -> Value.Float f
  | Wire.WStr s -> Value.Str s
  | Wire.WPtr None -> Value.Ptr { addr = 0; ty = "" }
  | Wire.WPtr (Some lp) ->
    Value.Ptr { addr = swizzle t (Some lp); ty = lp.Long_pointer.ty }
  | Wire.WFun f -> Value.Fun f

(* With an unbounded budget the whole closure travels with the pointer —
   the fully eager method. Bounded budgets ship at fault time instead,
   as in the paper's experiments (section 4.1). *)
let eager_for t ~peer wvalues =
  match t.strategy.Strategy.budget with
  | Strategy.Bytes _ -> []
  | Strategy.Unbounded ->
    let seeds =
      List.filter_map
        (function
          | Wire.WPtr (Some lp) when Space_id.equal lp.Long_pointer.origin t.id ->
            Some lp
          | Wire.WPtr _ | Wire.WUnit | Wire.WBool _ | Wire.WInt _ | Wire.WFloat _
          | Wire.WStr _ | Wire.WFun _ ->
            None)
        wvalues
    in
    ship_closure t ~peer ~forced_seeds:false ~seeds

(* --- the RPC itself --- *)

(* One control transfer to [dst], in either direction: the modified data
   set, the values, and the eager closure of their pointers. *)
let transfer t ~delta ~dst values =
  let b = transfer_batch t ~delta ~dst in
  let wvalues = List.map (wire_of_value t) values in
  let eager = eager_for t ~peer:dst wvalues in
  record_copy t ~dst
    (List.length b.b_full + List.length b.b_deltas + List.length eager);
  (b, wvalues, eager)

let call t ~dst proc args =
  refocus t;
  let info = Session.current_exn t.session in
  if Space_id.equal dst t.id then invalid_arg "Node.call: dst is self";
  ground_guard t @@ fun () ->
  let delta = delta_on t in
  let b, args, eager = transfer t ~delta ~dst args in
  Log.debug (fun m ->
      m "%a -> %a: call %s (%d wb, %d deltas, %d eager, %d frees)" Space_id.pp
        t.id Space_id.pp dst proc (List.length b.b_full)
        (List.length b.b_deltas) (List.length eager) (List.length b.b_frees));
  let session = info.Session.id in
  match
    request t ~dst
      (if delta then
         Wire.Call_d
           {
             session;
             proc;
             args;
             writebacks = b.b_full;
             wb_deltas = b.b_deltas;
             eager;
             frees = b.b_frees;
           }
       else Wire.Call { session; proc; args; writebacks = b.b_full; eager })
  with
  | Wire.Return { results; writebacks; eager } when not delta ->
    apply_batch t ~src:dst ~eager (full_batch writebacks);
    List.map (value_of_wire t) results
  | Wire.Return_d { results; writebacks; wb_deltas; eager; frees } when delta ->
    apply_batch t ~src:dst ~eager
      { b_full = writebacks; b_deltas = wb_deltas; b_frees = frees };
    List.map (value_of_wire t) results
  | Wire.Error msg -> raise (Remote_error msg)
  | Wire.Return _ | Wire.Return_d _ | Wire.Fetched _ | Wire.Allocated _
  | Wire.Ack | Wire.Hb_ack | Wire.Offload_return _ ->
    failwith
      ("protocol error: bad reply to " ^ if delta then "Call_d" else "Call")

(* The callee's half of [call]: the caller's modified data set lands
   first, the body runs, and the transfer back takes the frame's own
   format ([Call_d] frames get delta replies whatever our strategy). *)
let serve_call t ~peer ~delta ~eager b proc args =
  Session.join t.session t.id;
  apply_batch t ~src:peer ~eager b;
  let body =
    match Hashtbl.find_opt t.procs proc with
    | Some f -> f
    | None -> raise (Unknown_procedure proc)
  in
  let results = body t (List.map (value_of_wire t) args) in
  let b, results, eager = transfer t ~delta ~dst:peer results in
  if delta then
    Wire.Return_d
      { results; writebacks = b.b_full; wb_deltas = b.b_deltas; eager; frees = b.b_frees }
  else Wire.Return { results; writebacks = b.b_full; eager }

(* --- fault handling: the lazy path (paper, section 3.2) --- *)

let fetch_missing t missing =
  let batches =
    group_by_space (fun (e : Cache.entry) -> e.lp.Long_pointer.origin) missing
  in
  let clock = Transport.clock t.transport in
  List.iter
    (fun (origin, entries) ->
      Stats.incr_callbacks (Transport.stats t.transport);
      let wanted = List.map (fun (e : Cache.entry) -> e.Cache.lp) entries in
      let t0 = Clock.now clock in
      match request t ~dst:origin (Wire.Fetch { session = session_id t; wanted })
      with
      | Wire.Fetched { items } ->
        (* Items we asked for are demand fetches; anything extra in the
           same reply is the server's speculative closure around them. *)
        let asked =
          match wanted with
          | [ lp ] -> Long_pointer.equal lp
          | _ ->
            let asked = Long_pointer.Lookup.create (List.length wanted) in
            List.iter (fun lp -> Long_pointer.Lookup.replace asked lp ()) wanted;
            Long_pointer.Lookup.mem asked
        in
        List.iter
          (fun (item : Wire.item) ->
            let kind = if asked item.Wire.lp then `Demand else `Eager in
            install_item t ~src:origin ~kind item)
          items;
        (* The clock advance across this synchronous round trip is
           exactly how long the faulting thread was stopped. *)
        let stall = Clock.now clock -. t0 in
        Stats.add_stall_ns (Transport.stats t.transport)
          (int_of_float (stall *. 1e9));
        (match t.policy with
        | None -> ()
        | Some pol ->
          (* The profile gets only the avoidable part of the stall: the
             fixed round-trip and fault overheads. The demanded bytes
             cost the same wire and conversion time whether they ship
             eagerly or lazily, so pricing them as stall would push the
             controller toward eager-sized budgets whose waste it can
             never recoup. *)
          let c =
            Transport.link_cost t.transport ~src:(endpoint t)
              ~dst:(endpoint_of t origin)
          in
          let overhead =
            (2.0 *. c.Cost_model.message_latency) +. c.Cost_model.fault_overhead
          in
          let profile = Srpc_policy.Engine.profile pol in
          let share = overhead /. float_of_int (List.length entries) in
          List.iter
            (fun (e : Cache.entry) ->
              Srpc_policy.Profile.stall profile ~ty:e.Cache.lp.Long_pointer.ty
                ~seconds:share)
            entries)
      | Wire.Error msg -> raise (Remote_error msg)
      | Wire.Return _ | Wire.Allocated _ | Wire.Ack | Wire.Return_d _
      | Wire.Hb_ack | Wire.Offload_return _ ->
        failwith "protocol error: bad reply to Fetch")
    batches

let handle_fault t (fault : Address_space.fault) =
  refocus t;
  ground_guard t @@ fun () ->
  Transport.charge_fault t.transport;
  let page = fault.page in
  if not (Cache.in_region t.cache (Address_space.page_base t.space page)) then
    failwith (Format.asprintf "unserviceable %a" Address_space.pp_fault fault);
  let entries = Cache.entries_on_page t.cache page in
  if entries = [] then
    failwith (Format.asprintf "%a on empty cache page" Address_space.pp_fault fault);
  (* Decoding fetched data swizzles its pointers, which can allocate
     fresh (absent) slots on this very page; the access protection can
     only be released once no datum on the page is missing (paper,
     section 3.2), so iterate until the page is fully present. *)
  let rec resolve_missing () =
    let missing =
      List.filter
        (fun (e : Cache.entry) -> not e.Cache.present)
        (Cache.entries_on_page t.cache page)
    in
    if missing <> [] then begin
      if debugging () then
        Log.debug (fun m ->
            m "%a: fault page %d, fetching %d data" Space_id.pp t.id page
              (List.length missing));
      fetch_missing t missing;
      resolve_missing ()
    end
  in
  let had_missing = List.exists (fun e -> not e.Cache.present) entries in
  resolve_missing ();
  if had_missing then Cache.refresh_protection t.cache ~page
  else
    match fault.access with
    | Address_space.Write ->
      if t.strategy.Strategy.grain = Strategy.Twin_diff then
        Transport.charge_cpu_bytes t.transport (Address_space.page_size t.space);
      Cache.mark_page_dirty t.cache ~page
    | Address_space.Read -> Cache.refresh_protection t.cache ~page

(* --- traversal offloading (docs/OFFLOAD.md) --- *)

let charge_touch ?addr ?(write = false) t =
  refocus t;
  Transport.charge_local_touches t.transport 1;
  match addr with
  | None -> ()
  | Some a ->
    if Cache.in_region t.cache a then (
      match Cache.find_containing t.cache a with
      | Some e ->
        e.Cache.touched <- true;
        note_datum t e.Cache.lp
          (if write then Trace.Acc_write else Trace.Acc_read)
      | None -> ())
    else if in_heap t a && Transport.traced t.transport then
      (* interior addresses need the O(live) scan; only pay it when a
         trace is actually collecting witnesses *)
      match Allocator.find_containing t.heap a with
      | Some (base, _) ->
        note_own t base (if write then Trace.Acc_write else Trace.Acc_read)
      | None -> ()

(* The plan walker's memory closure over this node's program path: every
   access charges one local touch with its race-checker witness, exactly
   like the Access layer, and loads go through the MMU — so a plan run
   client-side faults over the cache and pays the honest lazy cost the
   strategy comparison needs, while the home walks its own (unprotected)
   heap for free. *)
let walker_mem t : Offload.mem =
  let open Type_desc in
  let load p addr =
    charge_touch ~addr t;
    match p with
    | I8 -> Mem.load_i8 t.mmu ~addr
    | I16 -> Mem.load_i16 t.mmu ~addr
    | I32 -> Int32.to_int (Mem.load_i32 t.mmu ~addr)
    | I64 -> Int64.to_int (Mem.load_i64 t.mmu ~addr)
    | F32 -> int_of_float (Mem.load_f32 t.mmu ~addr)
    | F64 -> int_of_float (Mem.load_f64 t.mmu ~addr)
  in
  let store p addr v =
    (* a store of the value already there is witnessed as a read, like
       the Access layer: it produces no twin diff, so it never travels
       and must not create a write obligation for the race checker *)
    let unchanged =
      match p with
      | I8 -> Mem.load_i8 t.mmu ~addr = v
      | I16 -> Mem.load_i16 t.mmu ~addr = v
      | I32 -> Mem.load_i32 t.mmu ~addr = Int32.of_int v
      | I64 -> Mem.load_i64 t.mmu ~addr = Int64.of_int v
      | F32 -> Mem.load_f32 t.mmu ~addr = float_of_int v
      | F64 -> Mem.load_f64 t.mmu ~addr = float_of_int v
    in
    charge_touch ~addr ~write:(not unchanged) t;
    match p with
    | I8 -> Mem.store_i8 t.mmu ~addr v
    | I16 -> Mem.store_i16 t.mmu ~addr v
    | I32 -> Mem.store_i32 t.mmu ~addr (Int32.of_int v)
    | I64 -> Mem.store_i64 t.mmu ~addr (Int64.of_int v)
    | F32 -> Mem.store_f32 t.mmu ~addr (float_of_int v)
    | F64 -> Mem.store_f64 t.mmu ~addr (float_of_int v)
  in
  {
    Offload.w_arch = arch t;
    w_reg = t.registry;
    w_load_word =
      (fun addr ->
        charge_touch ~addr t;
        Mem.load_word t.mmu ~addr);
    w_load = load;
    w_store = store;
  }

let offload_local t plan ~root =
  (Offload.run (walker_mem t) plan ~root).Offload.results

let offload_remote t (info : Session.info) ~dst ~(root : Long_pointer.t) plan =
  (* the session's footprint witness on the targeted space precedes the
     frame — rule SP010 orders the offload-call against it *)
  note_datum t root Trace.Acc_read;
  (* the plan frame carries full items only, whatever the strategy *)
  let writebacks = (transfer_batch t ~delta:false ~dst).b_full in
  record_copy t ~dst (List.length writebacks);
  Stats.incr_offload_calls (Transport.stats t.transport);
  Log.debug (fun m ->
      m "%a -> %a: offload %a (%d wb)" Space_id.pp t.id Space_id.pp dst
        Offload.pp_plan plan (List.length writebacks));
  match
    request t ~dst
      (Wire.Offload_call { session = info.Session.id; root; plan; writebacks })
  with
  | Wire.Offload_return { results; writebacks; wset = _ } ->
    (* the write set rides in [writebacks] too (the home keeps mutated
       data traveling), so installing them refreshes our copies *)
    apply_batch t ~src:dst (full_batch writebacks);
    results
  | Wire.Error msg -> raise (Remote_error msg)
  | Wire.Return _ | Wire.Fetched _ | Wire.Allocated _ | Wire.Ack
  | Wire.Return_d _ | Wire.Hb_ack ->
    failwith "protocol error: bad reply to Offload_call"

(* Run a traversal plan rooted at the (ordinary, possibly swizzled)
   address [root]. Where it runs is the strategy's third per-call-site
   mode: client-side over the cache (identical wire behavior to not
   having the feature), at the root's home ([Offload_always], foreign
   roots only), or wherever the adaptive controller's per-root-type
   learner currently believes is cheaper ([Offload_auto]). *)
let offload t ~root plan =
  refocus t;
  let info = Session.current_exn t.session in
  (* a locally-run plan meets the same typed validation a decoded frame
     would, so the two arms reject identically *)
  Offload.validate ~reg:t.registry plan;
  ground_guard t @@ fun () ->
  match unswizzle t ~ty:plan.Offload.root_ty root with
  | None -> offload_local t plan ~root
  | Some lp when Space_id.equal lp.Long_pointer.origin t.id ->
    offload_local t plan ~root
  | Some lp -> (
    let remote () =
      offload_remote t info ~dst:lp.Long_pointer.origin ~root:lp plan
    in
    match t.strategy.Strategy.offload with
    | Strategy.Offload_never -> offload_local t plan ~root
    | Strategy.Offload_always -> remote ()
    | Strategy.Offload_auto -> (
      match t.policy with
      | None -> remote ()
      | Some pol ->
        let ty = lp.Long_pointer.ty in
        let offloaded = Srpc_policy.Engine.choose_offload pol ~ty in
        let clock = Transport.clock t.transport in
        let t0 = Clock.now clock in
        let results =
          if offloaded then remote () else offload_local t plan ~root
        in
        Srpc_policy.Engine.offload_feedback pol ~ty ~offloaded
          ~seconds:(Clock.now clock -. t0);
        results))

(* --- dispatch of incoming frames --- *)

(* Every frame names its session, which must be open: a frame for a
   closed one (e.g. a stale remote pointer used after its session
   ended) is a protocol violation and must fail loudly. The frame is
   then demultiplexed onto its own session's state ([focus_node]) — the
   wire-level session id is exactly the interleaving key. *)
let check_session t session =
  if not (Session.is_open t.session session) then
    failwith
      (Printf.sprintf "session mismatch: frame for #%d, which is not open"
         session)

(* The session's invalidation reached us — the [Invalidate] body,
   shared with the invalidation ridden by a [Wb_delta] close frame. *)
let invalidated t sid =
  if !chaos_reorder_invalidate then
    (* the defect: acknowledge the invalidation and let go of the
       session without dropping anything — its stale copies survive
       into the next session, and the node no longer holds the session,
       so the self-healing purge never finds it *)
    t.focused <- None
  else drop_session ~outcomes:true t sid

(* all-or-nothing close, phase one: hold a batch without applying it; a
   crash before the commit leaves the originals untouched *)
let stage t ~src sid b =
  Session.join t.session t.id;
  let prev = Option.value ~default:[] (Hashtbl.find_opt t.staged sid) in
  Hashtbl.replace t.staged sid (prev @ [ (src, b) ]);
  Wire.Ack

let handle t src req =
  match (req : Wire.request) with
  (* Liveness probes carry no session: answered before any session
     bookkeeping so a heartbeat neither disturbs nor depends on open
     sessions (and stays valid between them). *)
  | Wire.Hb -> Wire.Hb_ack
  | _ ->
  check_session t (Wire.request_session req);
  focus_node t (Wire.request_session req);
  let peer () = peer_of t src in
  match (req : Wire.request) with
  | Wire.Call { proc; args; writebacks; eager; session = _ } ->
    serve_call t ~peer:(peer ()) ~delta:false ~eager (full_batch writebacks)
      proc args
  | Wire.Call_d { proc; args; writebacks; wb_deltas; eager; frees; session = _ }
    ->
    serve_call t ~peer:(peer ()) ~delta:true ~eager
      { b_full = writebacks; b_deltas = wb_deltas; b_frees = frees }
      proc args
  | Wire.Fetch { wanted; session = _ } ->
    Session.join t.session t.id;
    let peer = peer () in
    let items = serve_fetch t ~peer wanted in
    record_copy t ~dst:peer (List.length items);
    Wire.Fetched { items }
  | Wire.Write_back { items; session = _ } ->
    (* installing write-backs can swizzle foreign pointers into fresh
       cache slots here, so this space must be invalidated too *)
    Session.join t.session t.id;
    apply_batch t ~src:(peer ()) (full_batch items);
    Wire.Ack
  | Wire.Wb_delta { full; deltas; frees; invalidate; session } ->
    (* delta-coherency close frame: apply the per-destination batch,
       then, if the targeted invalidation rides along, drop all session
       state *)
    Session.join t.session t.id;
    apply_batch t ~src:(peer ())
      { b_full = full; b_deltas = deltas; b_frees = frees };
    if invalidate then invalidated t session;
    Wire.Ack
  | Wire.Wb_stage { items; session } ->
    stage t ~src:(peer ()) session (full_batch items)
  | Wire.Wb_stage_delta { deltas; session } ->
    stage t ~src:(peer ()) session
      { b_full = []; b_deltas = deltas; b_frees = [] }
  | Wire.Wb_commit { session } ->
    Session.join t.session t.id;
    (match Hashtbl.find_opt t.staged session with
    | Some staged ->
      Hashtbl.remove t.staged session;
      List.iter (fun (src, b) -> apply_batch t ~src b) staged
    | None -> ());
    Wire.Ack
  | Wire.Abort { session } ->
    (* discard everything the session put here; nothing is applied *)
    drop_session t session;
    Wire.Ack
  | Wire.Alloc_batch { reqs; session = _ } ->
    Session.join t.session t.id;
    let addrs =
      List.map
        (fun (prov, ty) ->
          let real = Allocator.alloc t.heap ~size:(sizeof t ty) in
          note_own t real Trace.Acc_alloc;
          (prov, real))
        reqs
    in
    Wire.Allocated { addrs }
  | Wire.Free_batch { lps; session = _ } ->
    apply_frees t lps;
    Wire.Ack
  | Wire.Invalidate { session } ->
    invalidated t session;
    Wire.Ack
  | Wire.Offload_call { root; plan; writebacks; session = _ } ->
    Session.join t.session t.id;
    let peer = peer () in
    (* the caller's modified data set arrives first so the walk sees the
       session's latest writes, exactly as a Call's callee would *)
    apply_batch t ~src:peer (full_batch writebacks);
    if not (Space_id.equal root.Long_pointer.origin t.id) then
      raise
        (Remote_error
           (Format.asprintf "offload for foreign datum %a" Long_pointer.pp root));
    if
      in_heap t root.Long_pointer.addr
      && not (Allocator.is_allocated t.heap root.Long_pointer.addr)
    then
      raise
        (Remote_error
           (Format.asprintf "dangling offload root: %a was freed"
              Long_pointer.pp root));
    let out = Offload.run (walker_mem t) plan ~root:root.Long_pointer.addr in
    let stats = Transport.stats t.transport in
    Stats.add_offload_nodes stats out.Offload.visited;
    Stats.add_offload_wset stats (List.length out.Offload.mutated);
    (* data an update plan mutated joins the traveling modified set, so
       the reply below (and every later control transfer) refreshes the
       stale copies other participants hold *)
    let wset =
      List.map
        (fun (addr, ty) ->
          let lp = Long_pointer.make ~origin:t.id ~addr ~ty in
          Long_pointer.Table.replace t.traveling lp ();
          lp)
        out.Offload.mutated
    in
    let wb = (transfer_batch t ~delta:false ~dst:peer).b_full in
    record_copy t ~dst:peer (List.length wb);
    Wire.Offload_return { results = out.Offload.results; writebacks = wb; wset }
  | Wire.Hb -> Wire.Hb_ack (* handled above; unreachable *)

let handle_encoded t src req =
  match handle t src req with
  | resp -> Wire.encode_response ~reg:t.registry resp
  | exception Peer_unreachable ep ->
    Wire.encode_response ~reg:t.registry (Wire.Error (unreachable_prefix ^ ep))
  | exception Remote_error msg when is_unreachable_msg msg ->
    Wire.encode_response ~reg:t.registry (Wire.Error msg)
  | exception exn ->
    Wire.encode_response ~reg:t.registry (Wire.Error (Printexc.to_string exn))

let dispatch t src req_str =
  match Wire.decode_framed ~reg:t.registry req_str with
  | exception exn ->
    Wire.encode_response ~reg:t.registry (Wire.Error (Printexc.to_string exn))
  | None, req -> handle_encoded t src req
  | Some seq, req -> (
    (* at-most-once: a re-sent or duplicated frame replays the cached
       reply instead of executing again *)
    t.reply_tick <- t.reply_tick + 1;
    match Hashtbl.find_opt t.replies src with
    | Some slot when slot.rs_seq = seq ->
      Stats.incr_duplicates (Transport.stats t.transport);
      slot.rs_used <- t.reply_tick;
      slot.rs_reply
    | Some _ | None ->
      let encoded = handle_encoded t src req in
      Hashtbl.replace t.replies src
        { rs_seq = seq; rs_reply = encoded; rs_used = t.reply_tick };
      (* bounded: evict the least-recently-used source beyond the cap.
         An evicted source loses duplicate suppression for its last
         request only — it would have to stay silent through [cap]
         other sources' requests and then re-send, which the retry
         envelope's bounded backoff cannot do. The O(cap) scan is
         amortized by how rarely the cap is hit. *)
      if Hashtbl.length t.replies > t.reply_cap then begin
        let victim =
          Hashtbl.fold
            (fun src slot acc ->
              match acc with
              | Some (_, best) when best <= slot.rs_used -> acc
              | _ -> Some (src, slot.rs_used))
            t.replies None
        in
        match victim with
        | Some (vsrc, _) -> Hashtbl.remove t.replies vsrc
        | None -> ()
      end;
      encoded)

(* --- sessions --- *)

(* The ground's half of opening a session the registry has just
   opened: the begin mark, then the session's first focus here. *)
let open_at_ground t (info : Session.info) =
  t.session_t0 <- Clock.now (Transport.clock t.transport);
  Transport.mark t.transport ~src:(endpoint t) (Trace.Session_begin info.Session.id);
  focus_node t info.Session.id

let begin_session t =
  open_at_ground t (Session.begin_session t.session ~ground:t.id)

(* Common close-out once the coherency traffic is done: invalidate the
   ground's own cache, run the policy's control decision, close the
   session and record the end mark. *)
let close_tail t (info : Session.info) =
  drop_session ~outcomes:true t info.Session.id;
  (* Every participant has now recorded its outcomes into the shared
     profile; run one control decision and install the derived hints so
     the next session ships under the revised policy. *)
  (match t.policy with
  | None -> ()
  | Some pol ->
    let seconds = Clock.now (Transport.clock t.transport) -. t.session_t0 in
    let d = Srpc_policy.Engine.session_end ~seconds pol in
    List.iter
      (fun (r : Srpc_policy.Controller.rule) ->
        Hints.set t.hints ~ty:r.Srpc_policy.Controller.rule_ty
          {
            Hints.follow = r.Srpc_policy.Controller.follow;
            prune_others = r.Srpc_policy.Controller.prune_others;
          })
      d.Srpc_policy.Controller.rules;
    List.iter
      (fun ty -> Hints.clear t.hints ~ty)
      d.Srpc_policy.Controller.cleared);
  Session.close t.session;
  Transport.mark t.transport ~src:(endpoint t) (Trace.Session_end info.Session.id)

(* deliver: one home's close batch, applied on receipt or, when
   [staged], held for the commit. With [delta] the home is recorded as
   a cacher (installing write-backs can swizzle foreign pointers into
   fresh cache slots there), and a frame applied on receipt also
   carries the home's frees and its invalidation. *)
let deliver t sid ~delta ~staged (home, b) =
  let send req = expect_ack (request t ~dst:home req) in
  if delta then
    record_copy t ~dst:home (List.length b.b_full + List.length b.b_deltas);
  if staged then begin
    if b.b_full <> [] then send (Wire.Wb_stage { session = sid; items = b.b_full });
    if b.b_deltas <> [] then
      send (Wire.Wb_stage_delta { session = sid; deltas = b.b_deltas })
  end
  else if delta then begin
    Transport.note t.transport ~src:(endpoint t) ~dst:(endpoint_of t home)
      (Trace.Inval_sent sid);
    send
      (Wire.Wb_delta
         {
           session = sid;
           full = b.b_full;
           deltas = b.b_deltas;
           frees = b.b_frees;
           invalidate = true;
         })
  end
  else send (Wire.Write_back { session = sid; items = b.b_full })

(* invalidate: every participant drops its copies — or, when [targeted],
   only the cachers the copy provenance names, the rest being counted as
   spared. Spaces in [reached] already got it riding their write-back
   frame. With [tolerate] an unreachable peer is skipped: it purges its
   leftovers on next contact. *)
let invalidate t (info : Session.info) ~targeted ~reached ~tolerate =
  let sid = info.Session.id in
  (* read only now: delivering the write-backs may have enrolled homes
     that must also drop fresh cache entries *)
  let others = Space_id.Set.remove t.id info.Session.participants in
  let targets =
    if targeted then Space_id.Set.remove t.id info.Session.cachers else others
  in
  let remaining = Space_id.Set.diff targets reached in
  Space_id.Set.iter
    (fun peer ->
      Transport.note t.transport ~src:(endpoint t) ~dst:(endpoint_of t peer)
        (Trace.Inval_sent sid);
      try expect_ack (request t ~dst:peer (Wire.Invalidate { session = sid }))
      with Peer_unreachable _ when tolerate -> ())
    remaining;
  let spared = Space_id.Set.diff others (Space_id.Set.union reached remaining) in
  Stats.add_invalidations_skipped
    (Transport.stats t.transport)
    (Space_id.Set.cardinal spared)

(* Session close (paper, section 3.4): encode the modified data set per
   home, deliver it, then invalidate every copy. Two facts pick each
   stage's variant:
   - delta coherency encodes byte-range deltas and targets the
     invalidation at the cachers;
   - a fault plan makes the delivery all-or-nothing: stage at every
     home, pass the commit point, then commit. A participant dying
     before the commit point aborts the session with every original
     untouched; after it, each home applies its complete set or (if it
     died) none of it.
   Only with delta on and no plan does each home get one combined frame
   carrying its write-backs, its pending frees and its invalidation. *)
let end_session t =
  refocus t;
  let info = Session.current_exn t.session in
  if not (Space_id.equal info.Session.ground t.id) then
    invalid_arg "Node.end_session: only the ground thread may end the session";
  let sid = info.Session.id in
  let delta = delta_on t and staged = faulty t in
  let combined = delta && not staged in
  let write_back_mark () =
    Transport.mark t.transport ~src:(endpoint t) (Trace.Write_back sid)
  in
  let batches =
    ground_guard t @@ fun () ->
    let frees =
      if combined then begin
        let frees = t.pending_frees in
        t.pending_frees <- [];
        Some frees
      end
      else None
    in
    flush_remote_ops t;
    if not staged then write_back_mark ();
    let batches = close_batches t ~delta ~frees in
    List.iter (deliver t sid ~delta ~staged) batches;
    batches
  in
  if staged then begin
    (* commit point: the complete modified data set is staged everywhere *)
    write_back_mark ();
    List.iter
      (fun (home, _) ->
        try expect_ack (request t ~dst:home (Wire.Wb_commit { session = sid }))
        with Peer_unreachable _ ->
          (* the dead home's staged set dies with it and is purged on
             next contact; it never applies a partial set *)
          ())
      batches
  end;
  Transport.mark t.transport ~src:(endpoint t) (Trace.Invalidate sid);
  let reached =
    if combined then Space_id.Set.of_list (List.map fst batches)
    else Space_id.Set.empty
  in
  invalidate t info ~targeted:delta ~reached ~tolerate:staged;
  close_tail t info

let with_session t f =
  begin_session t;
  match f () with
  | v ->
    end_session t;
    v
  | exception (Session.Session_aborted _ as exn) ->
    (* the abort already closed the session and reset the nodes *)
    raise exn
  | exception exn ->
    (try end_session t with _ -> ());
    raise exn

(* --- admission (see docs/TRAFFIC.md) --- *)

(* Test-only defect switch: when set, admission requests bypass the
   footprint conflict check and every candidate is admitted — two
   sessions writing the same datum root run concurrently. Exists so the
   traffic harness can prove that Race_lint, the SP008 protocol rule and
   the close-time optimistic validation all catch a broken admission
   controller; never set it in production code. *)
let chaos_admit_conflicting = ref false

(* Two strategies keep a session alone on its nodes, so admission refuses
   them: twin diffs and delta shadows are per page and per copy, not per
   session. *)
let require_admissible_strategy t who =
  if t.strategy.Strategy.grain = Strategy.Twin_diff then
    invalid_arg (who ^ ": Twin_diff write-back grain is single-session only");
  if delta_on t then
    invalid_arg (who ^ ": delta coherency is single-session only")

let reserve_session t =
  require_admissible_strategy t "Node.reserve_session";
  Session.reserve t.session

(* Open a session that the admission controller has already recorded as
   admitted — either directly by [request_admission] or later by the
   close-time FIFO drain. Emits the admit mark, which tells the offline
   linters the session may overlap others, then the ordinary begin
   mark. *)
let start_admitted t ~id =
  require_admissible_strategy t "Node.start_admitted";
  Transport.mark t.transport ~src:(endpoint t) (Trace.Session_admit id);
  open_at_ground t (Session.begin_reserved t.session ~id ~ground:t.id)

(* Ask the admission controller whether the session may open now. On
   [Admitted] the session is begun immediately; on [Queued] the caller
   parks it until a close's drain admits it (then [start_admitted]); on
   [Denied] the caller backs off ([Admission.backoff_delay]) and asks
   again with the same reserved id. *)
let request_admission ?(peers = []) t adm ~id ~footprint =
  require_admissible_strategy t "Node.request_admission";
  match
    Admission.request ~force:!chaos_admit_conflicting ~peers adm ~session:id
      footprint
  with
  | Admission.Admitted ->
    start_admitted t ~id;
    Admission.Admitted
  | (Admission.Queued | Admission.Denied) as d ->
    Transport.mark t.transport ~src:(endpoint t) (Trace.Session_queued id);
    d
  | Admission.Overloaded _ as d ->
    (* the typed rejection is witnessed in the trace: rule SP009 holds a
       shed terminal until a fresh admit mark *)
    Transport.mark t.transport ~src:(endpoint t) (Trace.Session_shed id);
    d

(* Close with optimistic validation: if another session committed a
   write to any datum root this session touched since it was admitted
   (possible only when admission was bypassed), the close becomes an
   abort — the modified data set is discarded, never committed over the
   foreign write — and the caller retries the whole session. Either way
   the controller retires the session and returns the FIFO waiters its
   departure admitted; the caller starts each with [start_admitted]. *)
let end_session_validated t adm =
  require_admissible_strategy t "Node.end_session_validated";
  refocus t;
  let info = Session.current_exn t.session in
  let sid = info.Session.id in
  if Admission.validate adm ~session:sid then begin
    end_session t;
    (`Committed, Admission.close adm ~session:sid)
  end
  else begin
    Admission.fail_validation adm ~session:sid;
    (try abort_session t ~reason:"admission validation failed"
     with Session.Session_aborted _ -> ());
    (`Validation_failed, Admission.close ~committed:false adm ~session:sid)
  end

(* --- memory management --- *)

let malloc t ~ty =
  refocus t;
  let addr = Allocator.alloc t.heap ~size:(sizeof t ty) in
  note_own t addr Trace.Acc_alloc;
  addr

let malloc_n t ~ty n =
  refocus t;
  let size =
    Layout.sizeof t.registry (arch t) (Type_desc.Array (Type_desc.Named ty, n))
  in
  let addr = Allocator.alloc t.heap ~size in
  note_own t addr Trace.Acc_alloc;
  addr

let extended_malloc t ~home ~ty =
  refocus t;
  if Space_id.equal home t.id then malloc t ~ty
  else begin
    ignore (Session.current_exn t.session);
    t.prov_counter <- t.prov_counter + 1;
    let prov = Long_pointer.make ~origin:home ~addr:(-t.prov_counter) ~ty in
    let e = Cache.allocate t.cache prov ~size:(sizeof t ty) in
    Cache.pin t.cache e;
    e.Cache.dirty <- true;
    Cache.mark_present t.cache e;
    Stats.add_remote_allocs (Transport.stats t.transport) 1;
    t.pending_allocs <- { prov; pa_entry = e } :: t.pending_allocs;
    if not t.strategy.Strategy.batch_remote_ops then flush_remote_ops t;
    e.Cache.local_addr
  end

let extended_free t addr =
  refocus t;
  if addr = 0 then ()
  else if Cache.in_region t.cache addr then (
    match Cache.find_by_addr t.cache addr with
    | None -> raise (Invalid_pointer addr)
    | Some e ->
      Cache.remove t.cache e;
      if Long_pointer.is_provisional e.Cache.lp then
        (* never reached its home space: cancel the batched allocation *)
        t.pending_allocs <-
          List.filter
            (fun pa -> not (Long_pointer.equal pa.prov e.Cache.lp))
            t.pending_allocs
      else begin
        Stats.add_remote_frees (Transport.stats t.transport) 1;
        t.pending_frees <- e.Cache.lp :: t.pending_frees;
        if not t.strategy.Strategy.batch_remote_ops then flush_remote_ops t
      end)
  else if in_heap t addr then begin
    Long_pointer.Table.fold
      (fun lp () acc ->
        if lp.Long_pointer.addr = addr && Space_id.equal lp.origin t.id then
          lp :: acc
        else acc)
      t.traveling []
    |> List.iter (Long_pointer.Table.remove t.traveling);
    Int_table.remove t.directory addr;
    note_own t addr Trace.Acc_free;
    Allocator.free t.heap addr
  end
  else raise (Invalid_pointer addr)

(* --- construction --- *)

let create ?(page_size = 4096) ?(heap_base = 0x10000) ?(heap_limit = 0x4000000)
    ?(cache_limit = 0x24000000) ?hints ?policy ?(validate = false)
    ?(retry = default_retry) ?(reply_cache_cap = 64) ~id ~arch ~registry
    ~transport ~session ~strategy () =
  if retry.max_attempts < 1 then
    invalid_arg "Node.create: retry.max_attempts must be at least 1";
  if reply_cache_cap < 1 then
    invalid_arg "Node.create: reply_cache_cap must be at least 1";
  if heap_limit mod page_size <> 0 then
    invalid_arg "Node.create: heap_limit must be page-aligned";
  (* Reject a malformed registry before any datum is laid out against
     it: a defective descriptor corrupts silently at run time.
     @raise Srpc_analysis.Desc_lint.Invalid_registry on error findings. *)
  if validate then Srpc_analysis.Desc_lint.validate ~arches:[ arch ] registry;
  let space = Address_space.create ~page_size ~id ~arch () in
  let mmu = Mmu.create space in
  let heap = Allocator.create ~space ~base:heap_base ~limit:heap_limit in
  let cache =
    Cache.create ~space ~base:heap_limit ~limit:cache_limit
      ~grouping:strategy.Strategy.grouping ~grain:strategy.Strategy.grain
  in
  let hints = match hints with Some h -> h | None -> Hints.create () in
  let rec t =
    {
      id;
      ep = Space_id.to_string id;
      space;
      mmu;
      heap;
      cache;
      registry;
      transport;
      session;
      hints;
      policy;
      strategy;
      procs = Hashtbl.create 16;
      shipped = Space_id.Table.create 4;
      traveling = Long_pointer.Table.create 16;
      pending_allocs = [];
      pending_frees = [];
      prov_counter = 0;
      session_t0 = 0.0;
      retry;
      seq = 0;
      replies = Hashtbl.create 8;
      reply_cap = reply_cache_cap;
      reply_tick = 0;
      staged = Hashtbl.create 4;
      directory = Int_table.create 32;
      sstash = Hashtbl.create 4;
      focused = None;
      dir_owner = Int_table.create 32;
      peer_eps = Space_id.Table.create 4;
      peer_ids = Registry.Names.create 4;
      closure_seen = Int_table.create 64;
      enc_ctx =
        {
          Object_codec.enc_reg = registry;
          enc_arch = arch;
          unswizzle = (fun ~ty w -> unswizzle t ~ty w);
        };
      dec_ctx =
        {
          Object_codec.dec_reg = registry;
          dec_arch = arch;
          swizzle = (fun lp -> swizzle t lp);
        };
    }
  in
  Mmu.set_handler mmu (handle_fault t);
  Transport.register transport (endpoint t) (dispatch t);
  (* Frame labels give the offline linters the opcode of every recorded
     frame without their own decoder. Registries are identical across a
     cluster (frames could not decode otherwise), so the last node's is
     as good as any. Only consulted while a trace is attached. *)
  Transport.set_frame_labeler transport
    (Some
       (fun ~dir frame ->
         match dir with
         | Trace.Request ->
           Wire.request_label (snd (Wire.decode_framed ~reg:registry frame))
         | Trace.Reply ->
           Wire.response_label (Wire.decode_response ~reg:registry frame)));
  t

let register t name body = Hashtbl.replace t.procs name body

let run_local t name args =
  match Hashtbl.find_opt t.procs name with
  | Some f -> f t args
  | None -> raise (Unknown_procedure name)
let traced t = Transport.traced t.transport
let cached_entries t = Cache.entry_count t.cache
let reply_cache_size t = Hashtbl.length t.replies

let pp_alloc_table ppf t = Cache.pp_table ppf t.cache
