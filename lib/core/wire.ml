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

let encode_request_body ~reg enc r =
  match r with
  | Call { session; proc; args; writebacks; eager } ->
    Enc.int enc 0;
    Enc.int enc session;
    Enc.string enc proc;
    Enc.list enc (encode_wvalue ~reg) args;
    Enc.list enc (encode_item ~reg) writebacks;
    Enc.list enc (encode_item ~reg) eager
  | Fetch { session; wanted } ->
    Enc.int enc 1;
    Enc.int enc session;
    Enc.list enc (encode_lp ~reg) wanted
  | Write_back { session; items } ->
    Enc.int enc 2;
    Enc.int enc session;
    Enc.list enc (encode_item ~reg) items
  | Alloc_batch { session; reqs } ->
    Enc.int enc 3;
    Enc.int enc session;
    Enc.list enc
      (fun enc (id, ty) ->
        Enc.int enc id;
        Enc.string enc ty)
      reqs
  | Free_batch { session; lps } ->
    Enc.int enc 4;
    Enc.int enc session;
    Enc.list enc (encode_lp ~reg) lps
  | Invalidate { session } ->
    Enc.int enc 5;
    Enc.int enc session
  | Abort { session } ->
    Enc.int enc 6;
    Enc.int enc session
  | Wb_stage { session; items } ->
    Enc.int enc 7;
    Enc.int enc session;
    Enc.list enc (encode_item ~reg) items
  | Wb_commit { session } ->
    Enc.int enc 8;
    Enc.int enc session
  | Wb_delta { session; full; deltas; frees; invalidate } ->
    Enc.int enc 9;
    Enc.int enc session;
    Enc.list enc (encode_item ~reg) full;
    Enc.list enc (encode_delta ~reg) deltas;
    Enc.list enc (encode_lp ~reg) frees;
    Enc.bool enc invalidate
  | Wb_stage_delta { session; deltas } ->
    Enc.int enc 10;
    Enc.int enc session;
    Enc.list enc (encode_delta ~reg) deltas
  | Call_d { session; proc; args; writebacks; wb_deltas; eager; frees } ->
    Enc.int enc 11;
    Enc.int enc session;
    Enc.string enc proc;
    Enc.list enc (encode_wvalue ~reg) args;
    Enc.list enc (encode_item ~reg) writebacks;
    Enc.list enc (encode_delta ~reg) wb_deltas;
    Enc.list enc (encode_item ~reg) eager;
    Enc.list enc (encode_lp ~reg) frees
  | Hb -> Enc.int enc 12
  | Offload_call { session; root; plan; writebacks } ->
    Enc.int enc 13;
    Enc.int enc session;
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

let decode_request_tagged ~reg dec tag =
  match tag with
  | 0 ->
    let session = Dec.int dec in
    let proc = Dec.string dec in
    let args = Dec.list dec (decode_wvalue ~reg) in
    let writebacks = Dec.list dec (decode_item ~reg) in
    let eager = Dec.list dec (decode_item ~reg) in
    Call { session; proc; args; writebacks; eager }
  | 1 ->
    let session = Dec.int dec in
    let wanted = Dec.list dec (decode_lp ~reg) in
    Fetch { session; wanted }
  | 2 ->
    let session = Dec.int dec in
    let items = Dec.list dec (decode_item ~reg) in
    Write_back { session; items }
  | 3 ->
    let session = Dec.int dec in
    let reqs =
      Dec.list dec (fun dec ->
          let id = Dec.int dec in
          let ty = Dec.string dec in
          (id, ty))
    in
    Alloc_batch { session; reqs }
  | 4 ->
    let session = Dec.int dec in
    let lps = Dec.list dec (decode_lp ~reg) in
    Free_batch { session; lps }
  | 5 ->
    let session = Dec.int dec in
    Invalidate { session }
  | 6 ->
    let session = Dec.int dec in
    Abort { session }
  | 7 ->
    let session = Dec.int dec in
    let items = Dec.list dec (decode_item ~reg) in
    Wb_stage { session; items }
  | 8 ->
    let session = Dec.int dec in
    Wb_commit { session }
  | 9 ->
    let session = Dec.int dec in
    let full = Dec.list dec (decode_item ~reg) in
    let deltas = Dec.list dec (decode_delta ~reg) in
    let frees = Dec.list dec (decode_lp ~reg) in
    let invalidate = Dec.bool dec in
    Wb_delta { session; full; deltas; frees; invalidate }
  | 10 ->
    let session = Dec.int dec in
    let deltas = Dec.list dec (decode_delta ~reg) in
    Wb_stage_delta { session; deltas }
  | 11 ->
    let session = Dec.int dec in
    let proc = Dec.string dec in
    let args = Dec.list dec (decode_wvalue ~reg) in
    let writebacks = Dec.list dec (decode_item ~reg) in
    let wb_deltas = Dec.list dec (decode_delta ~reg) in
    let eager = Dec.list dec (decode_item ~reg) in
    let frees = Dec.list dec (decode_lp ~reg) in
    Call_d { session; proc; args; writebacks; wb_deltas; eager; frees }
  | 12 -> Hb
  | 13 ->
    let session = Dec.int dec in
    let root = decode_lp ~reg dec in
    let plan = Offload.decode_plan ~reg dec in
    let writebacks = Dec.list dec (decode_item ~reg) in
    Offload_call { session; root; plan; writebacks }
  | n -> raise (Decode_error (Printf.sprintf "bad request tag %d" n))

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
  (* heartbeats live outside any session; the protocol linter exempts
     them from session attribution by label *)
  | Hb -> -1

let request_label = function
  | Call _ -> "call"
  | Fetch _ -> "fetch"
  | Write_back _ -> "write-back"
  | Alloc_batch _ -> "alloc-batch"
  | Free_batch _ -> "free-batch"
  | Invalidate _ -> "invalidate"
  | Abort _ -> "abort"
  | Wb_stage _ -> "wb-stage"
  | Wb_commit _ -> "wb-commit"
  | Wb_delta { invalidate; _ } -> if invalidate then "wb-delta+inv" else "wb-delta"
  | Wb_stage_delta _ -> "wb-stage-delta"
  | Call_d _ -> "call-d"
  | Hb -> "hb"
  | Offload_call _ -> "offload-call"

let response_label = function
  | Return _ -> "return"
  | Fetched _ -> "fetched"
  | Allocated _ -> "allocated"
  | Ack -> "ack"
  | Error _ -> "error"
  | Return_d _ -> "return-d"
  | Hb_ack -> "hb-ack"
  | Offload_return _ -> "offload-return"

let encode_response ~reg r =
  encoded @@ fun enc ->
  match r with
  | Return { results; writebacks; eager } ->
    Enc.int enc 0;
    Enc.list enc (encode_wvalue ~reg) results;
    Enc.list enc (encode_item ~reg) writebacks;
    Enc.list enc (encode_item ~reg) eager
  | Fetched { items } ->
    Enc.int enc 1;
    Enc.list enc (encode_item ~reg) items
  | Allocated { addrs } ->
    Enc.int enc 2;
    Enc.list enc
      (fun enc (id, addr) ->
        Enc.int enc id;
        Enc.hyper enc addr)
      addrs
  | Ack -> Enc.int enc 3
  | Error msg ->
    Enc.int enc 4;
    Enc.string enc msg
  | Return_d { results; writebacks; wb_deltas; eager; frees } ->
    Enc.int enc 5;
    Enc.list enc (encode_wvalue ~reg) results;
    Enc.list enc (encode_item ~reg) writebacks;
    Enc.list enc (encode_delta ~reg) wb_deltas;
    Enc.list enc (encode_item ~reg) eager;
    Enc.list enc (encode_lp ~reg) frees
  | Hb_ack -> Enc.int enc 6
  | Offload_return { results; writebacks; wset } ->
    Enc.int enc 7;
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
    | n -> raise (Decode_error (Printf.sprintf "bad response tag %d" n))
  in
  Dec.check_end dec;
  r

let pp_items ppf items = Format.fprintf ppf "%d items" (List.length items)

let pp_request ppf = function
  | Call { proc; args; writebacks; eager; session } ->
    Format.fprintf ppf "Call[%d] %s/%d (wb %a, eager %a)" session proc
      (List.length args) pp_items writebacks pp_items eager
  | Fetch { wanted; session } ->
    Format.fprintf ppf "Fetch[%d] %d lps" session (List.length wanted)
  | Write_back { items; session } ->
    Format.fprintf ppf "WriteBack[%d] %a" session pp_items items
  | Alloc_batch { reqs; session } ->
    Format.fprintf ppf "AllocBatch[%d] %d reqs" session (List.length reqs)
  | Free_batch { lps; session } ->
    Format.fprintf ppf "FreeBatch[%d] %d lps" session (List.length lps)
  | Invalidate { session } -> Format.fprintf ppf "Invalidate[%d]" session
  | Abort { session } -> Format.fprintf ppf "Abort[%d]" session
  | Wb_stage { items; session } ->
    Format.fprintf ppf "WbStage[%d] %a" session pp_items items
  | Wb_commit { session } -> Format.fprintf ppf "WbCommit[%d]" session
  | Wb_delta { full; deltas; frees; invalidate; session } ->
    Format.fprintf ppf "WbDelta[%d] (%a, %d deltas, %d frees, inval %b)"
      session pp_items full (List.length deltas) (List.length frees)
      invalidate
  | Wb_stage_delta { deltas; session } ->
    Format.fprintf ppf "WbStageDelta[%d] %d deltas" session
      (List.length deltas)
  | Call_d { proc; args; writebacks; wb_deltas; eager; frees; session } ->
    Format.fprintf ppf "CallD[%d] %s/%d (wb %a, %d deltas, eager %a, %d frees)"
      session proc (List.length args) pp_items writebacks
      (List.length wb_deltas) pp_items eager (List.length frees)
  | Hb -> Format.pp_print_string ppf "Hb"
  | Offload_call { session; root = _; plan; writebacks } ->
    Format.fprintf ppf "OffloadCall[%d] %a (wb %a)" session Offload.pp_plan
      plan pp_items writebacks

let pp_response ppf = function
  | Return { results; writebacks; eager } ->
    Format.fprintf ppf "Return/%d (wb %a, eager %a)" (List.length results)
      pp_items writebacks pp_items eager
  | Fetched { items } -> Format.fprintf ppf "Fetched %a" pp_items items
  | Allocated { addrs } -> Format.fprintf ppf "Allocated %d" (List.length addrs)
  | Ack -> Format.pp_print_string ppf "Ack"
  | Error msg -> Format.fprintf ppf "Error %S" msg
  | Return_d { results; writebacks; wb_deltas; eager; frees } ->
    Format.fprintf ppf "ReturnD/%d (wb %a, %d deltas, eager %a, %d frees)"
      (List.length results) pp_items writebacks (List.length wb_deltas)
      pp_items eager (List.length frees)
  | Hb_ack -> Format.pp_print_string ppf "HbAck"
  | Offload_return { results; writebacks; wset } ->
    Format.fprintf ppf "OffloadReturn/%d (wb %a, %d wset)"
      (List.length results) pp_items writebacks (List.length wset)
