module Xdr = Srpc_xdr.Xdr
open Xdr

type wvalue =
  | WUnit
  | WBool of bool
  | WInt of int64
  | WFloat of float
  | WStr of string
  | WPtr of Long_pointer.t option
  | WFun of Value.funref

type item = { lp : Long_pointer.t; data : string }

type range = { off : int; bytes : string }

type delta = { dlp : Long_pointer.t; base_len : int; ranges : range list }

type request =
  | Call of {
      session : int;
      proc : string;
      args : wvalue list;
      writebacks : item list;
      eager : item list;
    }
  | Fetch of { session : int; wanted : Long_pointer.t list }
  | Write_back of { session : int; items : item list }
  | Alloc_batch of { session : int; reqs : (int * string) list }
  | Free_batch of { session : int; lps : Long_pointer.t list }
  | Invalidate of { session : int }
  | Abort of { session : int }
  | Wb_stage of { session : int; items : item list }
  | Wb_commit of { session : int }
  | Wb_delta of {
      session : int;
      full : item list;
      deltas : delta list;
      frees : Long_pointer.t list;
      invalidate : bool;
    }
  | Wb_stage_delta of { session : int; deltas : delta list }
  | Call_d of {
      session : int;
      proc : string;
      args : wvalue list;
      writebacks : item list;
      wb_deltas : delta list;
      eager : item list;
      frees : Long_pointer.t list;
    }
  | Hb
  | Offload_call of {
      session : int;
      root : Long_pointer.t;
      plan : Offload.plan;
      writebacks : item list;
    }

type response =
  | Return of { results : wvalue list; writebacks : item list; eager : item list }
  | Fetched of { items : item list }
  | Allocated of { addrs : (int * int) list }
  | Ack
  | Error of string
  | Return_d of {
      results : wvalue list;
      writebacks : item list;
      wb_deltas : delta list;
      eager : item list;
      frees : Long_pointer.t list;
    }
  | Hb_ack
  | Offload_return of {
      results : int list;
      writebacks : item list;
      wset : Long_pointer.t list;
    }

let encode_wvalue ~reg enc = function
  | WUnit -> Enc.int enc 0
  | WBool b ->
    Enc.int enc 1;
    Enc.bool enc b
  | WInt n ->
    Enc.int enc 2;
    Enc.int64 enc n
  | WFloat f ->
    Enc.int enc 3;
    Enc.float64 enc f
  | WStr s ->
    Enc.int enc 4;
    Enc.string enc s
  | WPtr lp ->
    Enc.int enc 5;
    Long_pointer.encode ~reg enc lp
  | WFun { Value.home; name } ->
    Enc.int enc 6;
    Enc.uint32 enc
      ((home.Srpc_memory.Space_id.site lsl 16) lor home.Srpc_memory.Space_id.proc);
    Enc.string enc name

let decode_wvalue ~reg dec =
  match Dec.int dec with
  | 0 -> WUnit
  | 1 -> WBool (Dec.bool dec)
  | 2 -> WInt (Dec.int64 dec)
  | 3 -> WFloat (Dec.float64 dec)
  | 4 -> WStr (Dec.string dec)
  | 5 -> WPtr (Long_pointer.decode ~reg dec)
  | 6 ->
    let packed = Dec.uint32 dec in
    let name = Dec.string dec in
    WFun
      {
        Value.home =
          Srpc_memory.Space_id.make ~site:(packed lsr 16) ~proc:(packed land 0xffff);
        name;
      }
  | n -> raise (Decode_error (Printf.sprintf "bad wvalue tag %d" n))

let encode_item ~reg enc { lp; data } =
  Long_pointer.encode ~reg enc (Some lp);
  Enc.opaque enc data

let decode_item ~reg dec =
  match Long_pointer.decode ~reg dec with
  | None -> raise (Decode_error "null item pointer")
  | Some lp ->
    let data = Dec.opaque dec in
    { lp; data }

let encode_lp ~reg enc lp = Long_pointer.encode ~reg enc (Some lp)

let decode_lp ~reg dec =
  match Long_pointer.decode ~reg dec with
  | None -> raise (Decode_error "unexpected null long pointer")
  | Some lp -> lp

let encode_range enc { off; bytes } =
  Enc.int enc off;
  Enc.opaque enc bytes

let encode_delta ~reg enc { dlp; base_len; ranges } =
  Long_pointer.encode ~reg enc (Some dlp);
  Enc.int enc base_len;
  Enc.list enc encode_range ranges

(* A delta patches the receiver's copy in place, so its ranges are
   validated here at the trust boundary: ascending, non-empty,
   non-overlapping and inside the base image. Anything else must be a
   typed decode error, never an out-of-bounds blit. *)
let decode_delta ~reg dec =
  let dlp = decode_lp ~reg dec in
  let base_len = Dec.int dec in
  if base_len < 0 then raise (Decode_error "negative delta base length");
  let ranges =
    Dec.list dec (fun dec ->
        let off = Dec.int dec in
        let bytes = Dec.opaque dec in
        { off; bytes })
  in
  let rec validate cursor = function
    | [] -> ()
    | { off; bytes } :: rest ->
      let len = String.length bytes in
      if len = 0 then raise (Decode_error "empty delta range");
      if off < cursor then
        raise (Decode_error "unordered or overlapping delta ranges");
      if off + len > base_len then
        raise (Decode_error "delta range out of bounds");
      validate (off + len) rest
  in
  validate 0 ranges;
  { dlp; base_len; ranges }

module Frames = Srpc_analysis.Frames
module Trace = Srpc_simnet.Trace

(* Each direction's one constructor-to-tag map; [Frames] says what a tag
   carries. *)
let request_tag = function
  | Call _ -> 0
  | Fetch _ -> 1
  | Write_back _ -> 2
  | Alloc_batch _ -> 3
  | Free_batch _ -> 4
  | Invalidate _ -> 5
  | Abort _ -> 6
  | Wb_stage _ -> 7
  | Wb_commit _ -> 8
  | Wb_delta _ -> 9
  | Wb_stage_delta _ -> 10
  | Call_d _ -> 11
  | Hb -> 12
  | Offload_call _ -> 13

let response_tag = function
  | Return _ -> 0
  | Fetched _ -> 1
  | Allocated _ -> 2
  | Ack -> 3
  | Error _ -> 4
  | Return_d _ -> 5
  | Hb_ack -> 6
  | Offload_return _ -> 7

let request_session = function
  | Call { session; _ }
  | Fetch { session; _ }
  | Write_back { session; _ }
  | Alloc_batch { session; _ }
  | Free_batch { session; _ }
  | Invalidate { session }
  | Abort { session }
  | Wb_stage { session; _ }
  | Wb_commit { session }
  | Wb_delta { session; _ }
  | Wb_stage_delta { session; _ }
  | Call_d { session; _ }
  | Offload_call { session; _ } -> session
  | Hb -> -1

let bad_tag dir tag =
  let what =
    match dir with Trace.Request -> "request" | Trace.Reply -> "response"
  in
  raise (Decode_error (Printf.sprintf "bad %s tag %d" what tag))

let row dir tag = try Frames.by_tag dir tag with Not_found -> bad_tag dir tag

let encode_request_body ~reg enc r =
  let tag = request_tag r in
  Enc.int enc tag;
  if (Frames.by_tag Trace.Request tag).session then
    Enc.int enc (request_session r);
  match r with
  | Call { proc; args; writebacks; eager; _ } ->
    Enc.string enc proc;
    Enc.list enc (encode_wvalue ~reg) args;
    Enc.list enc (encode_item ~reg) writebacks;
    Enc.list enc (encode_item ~reg) eager
  | Fetch { wanted = lps; _ } | Free_batch { lps; _ } ->
    Enc.list enc (encode_lp ~reg) lps
  | Write_back { items; _ } | Wb_stage { items; _ } ->
    Enc.list enc (encode_item ~reg) items
  | Alloc_batch { reqs; _ } ->
    Enc.list enc
      (fun enc (id, ty) ->
        Enc.int enc id;
        Enc.string enc ty)
      reqs
  | Invalidate _ | Abort _ | Wb_commit _ | Hb -> ()
  | Wb_delta { full; deltas; frees; invalidate; _ } ->
    Enc.list enc (encode_item ~reg) full;
    Enc.list enc (encode_delta ~reg) deltas;
    Enc.list enc (encode_lp ~reg) frees;
    Enc.bool enc invalidate
  | Wb_stage_delta { deltas; _ } -> Enc.list enc (encode_delta ~reg) deltas
  | Call_d { proc; args; writebacks; wb_deltas; eager; frees; _ } ->
    Enc.string enc proc;
    Enc.list enc (encode_wvalue ~reg) args;
    Enc.list enc (encode_item ~reg) writebacks;
    Enc.list enc (encode_delta ~reg) wb_deltas;
    Enc.list enc (encode_item ~reg) eager;
    Enc.list enc (encode_lp ~reg) frees
  | Offload_call { root; plan; writebacks; _ } ->
    encode_lp ~reg enc root;
    Offload.encode_plan enc plan;
    Enc.list enc (encode_item ~reg) writebacks

(* Every frame is encoded into one scratch encoder and copied out, so a
   frame costs only its string. Encoding never re-enters itself: items
   arrive already encoded. *)
let scratch = Enc.create ~initial:4096 ()

let encoded f =
  Enc.clear scratch;
  f scratch;
  Enc.to_string scratch

let encode_request ~reg r = encoded (fun enc -> encode_request_body ~reg enc r)

(* Retry-envelope framing: tag 15 prefixes a sequence number before the
   ordinary request body. Tag 15 is far from the live request tags so an
   un-enveloped decoder fails loudly rather than misparsing. *)
let framed_tag = 15

let encode_framed ~reg ~seq r =
  encoded (fun enc ->
      Enc.int enc framed_tag;
      Enc.int enc seq;
      encode_request_body ~reg enc r)

(* The table refuses a tag no frame carries before any arm runs. *)
let decode_request_tagged ~reg dec tag =
  let session = if (row Trace.Request tag).session then Dec.int dec else -1 in
  match tag with
  | 0 ->
    let proc = Dec.string dec in
    let args = Dec.list dec (decode_wvalue ~reg) in
    let writebacks = Dec.list dec (decode_item ~reg) in
    let eager = Dec.list dec (decode_item ~reg) in
    Call { session; proc; args; writebacks; eager }
  | 1 -> Fetch { session; wanted = Dec.list dec (decode_lp ~reg) }
  | 2 -> Write_back { session; items = Dec.list dec (decode_item ~reg) }
  | 3 ->
    let reqs =
      Dec.list dec (fun dec ->
          let id = Dec.int dec in
          let ty = Dec.string dec in
          (id, ty))
    in
    Alloc_batch { session; reqs }
  | 4 -> Free_batch { session; lps = Dec.list dec (decode_lp ~reg) }
  | 5 -> Invalidate { session }
  | 6 -> Abort { session }
  | 7 -> Wb_stage { session; items = Dec.list dec (decode_item ~reg) }
  | 8 -> Wb_commit { session }
  | 9 ->
    let full = Dec.list dec (decode_item ~reg) in
    let deltas = Dec.list dec (decode_delta ~reg) in
    let frees = Dec.list dec (decode_lp ~reg) in
    let invalidate = Dec.bool dec in
    Wb_delta { session; full; deltas; frees; invalidate }
  | 10 -> Wb_stage_delta { session; deltas = Dec.list dec (decode_delta ~reg) }
  | 11 ->
    let proc = Dec.string dec in
    let args = Dec.list dec (decode_wvalue ~reg) in
    let writebacks = Dec.list dec (decode_item ~reg) in
    let wb_deltas = Dec.list dec (decode_delta ~reg) in
    let eager = Dec.list dec (decode_item ~reg) in
    let frees = Dec.list dec (decode_lp ~reg) in
    Call_d { session; proc; args; writebacks; wb_deltas; eager; frees }
  | 12 -> Hb
  | 13 ->
    let root = decode_lp ~reg dec in
    let plan = Offload.decode_plan ~reg dec in
    let writebacks = Dec.list dec (decode_item ~reg) in
    Offload_call { session; root; plan; writebacks }
  | n -> bad_tag Trace.Request n

let decode_request ~reg s =
  let dec = Dec.of_string s in
  let r = decode_request_tagged ~reg dec (Dec.int dec) in
  Dec.check_end dec;
  r

let decode_framed ~reg s =
  let dec = Dec.of_string s in
  let tag = Dec.int dec in
  let seq, r =
    if tag = framed_tag then
      let seq = Dec.int dec in
      (Some seq, decode_request_tagged ~reg dec (Dec.int dec))
    else (None, decode_request_tagged ~reg dec tag)
  in
  Dec.check_end dec;
  (seq, r)

let request_label = function
  | Wb_delta { invalidate = true; _ } -> Frames.inv_delta.label
  | r -> (Frames.by_tag Trace.Request (request_tag r)).label

let response_label r = (Frames.by_tag Trace.Reply (response_tag r)).label

(* Labels by tag word, for frames that are recorded but not decoded. A
   [Wb_delta] frame ends with its [invalidate] flag. *)
let frame_label ~dir frame =
  let word at = Int32.to_int (String.get_int32_be frame at) in
  match dir with
  | Trace.Request ->
    let tag = if word 0 = framed_tag then word 8 else word 0 in
    if tag = Frames.inv_delta.tag && word (String.length frame - 4) = 1 then
      Frames.inv_delta.label
    else (row dir tag).label
  | Trace.Reply -> (row dir (word 0)).label

let encode_response ~reg r =
  encoded @@ fun enc ->
  Enc.int enc (response_tag r);
  match r with
  | Return { results; writebacks; eager } ->
    Enc.list enc (encode_wvalue ~reg) results;
    Enc.list enc (encode_item ~reg) writebacks;
    Enc.list enc (encode_item ~reg) eager
  | Fetched { items } -> Enc.list enc (encode_item ~reg) items
  | Allocated { addrs } ->
    Enc.list enc
      (fun enc (id, addr) ->
        Enc.int enc id;
        Enc.hyper enc addr)
      addrs
  | Ack | Hb_ack -> ()
  | Error msg -> Enc.string enc msg
  | Return_d { results; writebacks; wb_deltas; eager; frees } ->
    Enc.list enc (encode_wvalue ~reg) results;
    Enc.list enc (encode_item ~reg) writebacks;
    Enc.list enc (encode_delta ~reg) wb_deltas;
    Enc.list enc (encode_item ~reg) eager;
    Enc.list enc (encode_lp ~reg) frees
  | Offload_return { results; writebacks; wset } ->
    Enc.list enc Enc.hyper results;
    Enc.list enc (encode_item ~reg) writebacks;
    Enc.list enc (encode_lp ~reg) wset

let decode_response ~reg s =
  let dec = Dec.of_string s in
  let r =
    match Dec.int dec with
    | 0 ->
      let results = Dec.list dec (decode_wvalue ~reg) in
      let writebacks = Dec.list dec (decode_item ~reg) in
      let eager = Dec.list dec (decode_item ~reg) in
      Return { results; writebacks; eager }
    | 1 -> Fetched { items = Dec.list dec (decode_item ~reg) }
    | 2 ->
      let addrs =
        Dec.list dec (fun dec ->
            let id = Dec.int dec in
            let addr = Dec.hyper dec in
            (id, addr))
      in
      Allocated { addrs }
    | 3 -> Ack
    | 4 -> Error (Dec.string dec)
    | 5 ->
      let results = Dec.list dec (decode_wvalue ~reg) in
      let writebacks = Dec.list dec (decode_item ~reg) in
      let wb_deltas = Dec.list dec (decode_delta ~reg) in
      let eager = Dec.list dec (decode_item ~reg) in
      let frees = Dec.list dec (decode_lp ~reg) in
      Return_d { results; writebacks; wb_deltas; eager; frees }
    | 6 -> Hb_ack
    | 7 ->
      let results = Dec.list dec Dec.hyper in
      let writebacks = Dec.list dec (decode_item ~reg) in
      let wset = Dec.list dec (decode_lp ~reg) in
      Offload_return { results; writebacks; wset }
    | n -> bad_tag Trace.Reply n
  in
  Dec.check_end dec;
  r
