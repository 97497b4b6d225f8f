type direction = Request | Reply

type access =
  | Acc_read
  | Acc_write
  | Acc_serve
  | Acc_apply
  | Acc_install
  | Acc_free
  | Acc_alloc
  | Acc_drop

type kind =
  | Message of direction
  | Dropped of direction
  | Dup of direction
  | Session_begin of int
  | Session_end of int
  | Session_admit of int
  | Session_queued of int
  | Session_shed of int
  | Write_back of int
  | Invalidate of int
  | Session_abort of int
  | Crash of string
  | Revive of string
  | Copy of int
  | Inval_sent of int
  | Access of { session : int; home : string; addr : int; akind : access }

let every_datum = -1

type event = {
  at : float;
  src : string;
  dst : string;
  kind : kind;
  bytes : int;
  label : string;
}

module Tag = struct
  type t =
    | Message of direction
    | Dropped of direction
    | Dup of direction
    | Session_begin
    | Session_end
    | Session_admit
    | Session_queued
    | Session_shed
    | Write_back
    | Invalidate
    | Session_abort
    | Crash
    | Revive
    | Copy
    | Inval_sent
    | Access of access
end

(* A row's tag byte is the index of its tag here; [tag_code] is the
   inverse. *)
let tags =
  Tag.
    [|
      Message Request; Message Reply; Dropped Request; Dropped Reply;
      Dup Request; Dup Reply; Session_begin; Session_end; Session_admit;
      Session_queued; Session_shed; Write_back; Invalidate; Session_abort;
      Crash; Revive; Copy; Inval_sent; Access Acc_read; Access Acc_write;
      Access Acc_serve; Access Acc_apply; Access Acc_install; Access Acc_free;
      Access Acc_alloc; Access Acc_drop;
    |]

let dir_code = function Request -> 0 | Reply -> 1

let access_code = function
  | Acc_read -> 18
  | Acc_write -> 19
  | Acc_serve -> 20
  | Acc_apply -> 21
  | Acc_install -> 22
  | Acc_free -> 23
  | Acc_alloc -> 24
  | Acc_drop -> 25

let tag_code = function
  | Message d -> dir_code d
  | Dropped d -> 2 + dir_code d
  | Dup d -> 4 + dir_code d
  | Session_begin _ -> 6
  | Session_end _ -> 7
  | Session_admit _ -> 8
  | Session_queued _ -> 9
  | Session_shed _ -> 10
  | Write_back _ -> 11
  | Invalidate _ -> 12
  | Session_abort _ -> 13
  | Crash _ -> 14
  | Revive _ -> 15
  | Copy _ -> 16
  | Inval_sent _ -> 17
  | Access { akind; _ } -> access_code akind

(* --- names: each endpoint and label once per trace --- *)

module Names = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

type names = {
  what : string;  (* plural, for the bound's message *)
  limit : int;  (* ordinals fit the column: [0, limit) *)
  ords : int Names.t;
  mutable by_ord : string array;
  mutable size : int;
}

let names what limit =
  { what; limit; ords = Names.create 16; by_ord = [||]; size = 0 }

let intern ns s =
  match Names.find ns.ords s with
  | o -> o
  | exception Not_found ->
    let o = ns.size in
    if o = ns.limit then
      invalid_arg (Printf.sprintf "Trace: more than %d %s" ns.limit ns.what);
    if o = Array.length ns.by_ord then
      ns.by_ord <- Array.append ns.by_ord (Array.make (max 8 o) "");
    ns.by_ord.(o) <- s;
    ns.size <- o + 1;
    Names.add ns.ords s o;
    o

(* The name a column recorded last, and its ordinal. The runtime passes
   each node's shared endpoint strings and the labeler's literals, so
   runs of one name settle on [==] before any hashing. *)
type memo = { mutable last : string; mutable ord : int }

(* This module's own string: no caller's matches it by [==]. *)
let unset = "(unset)"
let memo () = { last = unset; ord = -1 }

let ordinal ns memo s =
  if memo.last == s then memo.ord
  else begin
    let o = intern ns s in
    memo.last <- s;
    memo.ord <- o;
    o
  end

(* --- rows --- *)

(* One event is one 32-byte row:

     0  tag          u8   index into [tags]
     1  label        u8   label ordinal
     2  src          u16  endpoint ordinal
     4  dst          u16  endpoint ordinal
     6  home         u16  endpoint ordinal: an access's home, a crash's
                          or revival's endpoint, else [src]
     8  at           f64
    16  bytes        u32
    20  session      i32  a session mark's or note's id, an access's
                          session, else 0
    24  addr         i64  an access's address, else 0

   Rows sit in fixed-size chunks, so a long trace never copies the rows
   it already holds and keeps no pointer per event. *)
let row = 32
let chunk_bits = 10
let chunk_rows = 1 lsl chunk_bits
let max_bytes = 0xFFFF_FFFF
let min_session = -0x8000_0000
let max_session = 0x7FFF_FFFF

type t = {
  mutable chunks : Bytes.t array;  (* kept by [clear] *)
  mutable count : int;
  endpoints : names;
  labels : names;  (* "" is ordinal 0 *)
  src_memo : memo;
  dst_memo : memo;
  home_memo : memo;
  label_memo : memo;
}

let reset_names t =
  Names.reset t.endpoints.ords;
  t.endpoints.size <- 0;
  Names.reset t.labels.ords;
  t.labels.size <- 0;
  ignore (intern t.labels "");
  List.iter
    (fun m -> m.last <- unset)
    [ t.src_memo; t.dst_memo; t.home_memo; t.label_memo ]

let create () =
  let t =
    {
      chunks = [||];
      count = 0;
      endpoints = names "endpoints" 0x1_0000;
      labels = names "labels" 0x100;
      src_memo = memo ();
      dst_memo = memo ();
      home_memo = memo ();
      label_memo = memo ();
    }
  in
  reset_names t;
  t

let clear t =
  t.count <- 0;
  reset_names t

let out_of_range field v lo hi =
  invalid_arg (Printf.sprintf "Trace: %s %d outside [%d, %d]" field v lo hi)

(* Marks pass their source as [dst] and [home], which costs no lookup. *)
let put t ~tag ~at ~src ~dst ~home ~label ~bytes ~session ~addr =
  if bytes < 0 || bytes > max_bytes then out_of_range "bytes" bytes 0 max_bytes;
  if session < min_session || session > max_session then
    out_of_range "session" session min_session max_session;
  let s = ordinal t.endpoints t.src_memo src in
  let d = if dst == src then s else ordinal t.endpoints t.dst_memo dst in
  let h = if home == src then s else ordinal t.endpoints t.home_memo home in
  let l = if String.length label = 0 then 0 else ordinal t.labels t.label_memo label in
  let i = t.count in
  let c = i lsr chunk_bits in
  if c = Array.length t.chunks then
    t.chunks <- Array.append t.chunks [| Bytes.create (chunk_rows * row) |];
  let b = t.chunks.(c) and o = (i land (chunk_rows - 1)) * row in
  Bytes.set_uint8 b o tag;
  Bytes.set_uint8 b (o + 1) l;
  Bytes.set_uint16_le b (o + 2) s;
  Bytes.set_uint16_le b (o + 4) d;
  Bytes.set_uint16_le b (o + 6) h;
  Bytes.set_int64_le b (o + 8) (Int64.bits_of_float at);
  Bytes.set_int32_le b (o + 16) (Int32.of_int bytes);
  Bytes.set_int32_le b (o + 20) (Int32.of_int session);
  Bytes.set_int64_le b (o + 24) (Int64.of_int addr);
  t.count <- i + 1

let session_of = function
  | Session_begin id | Session_end id | Session_admit id | Session_queued id
  | Session_shed id | Write_back id | Invalidate id | Session_abort id | Copy id
  | Inval_sent id ->
    id
  | Access { session; _ } -> session
  | Message _ | Dropped _ | Dup _ | Crash _ | Revive _ -> 0

let home_of ~src = function
  | Access { home; _ } | Crash home | Revive home -> home
  | _ -> src

let addr_of = function Access { addr; _ } -> addr | _ -> 0

let record_kind t ~at ~src ~dst ~kind ~label ~bytes =
  put t ~tag:(tag_code kind) ~at ~src ~dst ~home:(home_of ~src kind) ~label
    ~bytes ~session:(session_of kind) ~addr:(addr_of kind)

let record ?(label = "") t ~at ~src ~dst ~dir ~bytes =
  put t ~tag:(dir_code dir) ~at ~src ~dst ~home:src ~label ~bytes ~session:0
    ~addr:0

let mark t ~at ~src kind = record_kind t ~at ~src ~dst:src ~kind ~label:"" ~bytes:0

let access t ~at ~src ~session ~home ~addr akind =
  put t ~tag:(access_code akind) ~at ~src ~dst:src ~home ~label:"" ~bytes:0
    ~session ~addr

let of_events events =
  let t = create () in
  List.iter
    (fun e ->
      record_kind t ~at:e.at ~src:e.src ~dst:e.dst ~kind:e.kind ~label:e.label
        ~bytes:e.bytes)
    events;
  t

let length t = t.count

(* --- reading by index --- *)

let chunk t i =
  if i < 0 || i >= t.count then invalid_arg "Trace: no such event";
  t.chunks.(i lsr chunk_bits)

let offset i = (i land (chunk_rows - 1)) * row
let tag t i = tags.(Bytes.get_uint8 (chunk t i) (offset i))
let label t i = Bytes.get_uint8 (chunk t i) (offset i + 1)
let src t i = Bytes.get_uint16_le (chunk t i) (offset i + 2)
let dst t i = Bytes.get_uint16_le (chunk t i) (offset i + 4)
let home t i = Bytes.get_uint16_le (chunk t i) (offset i + 6)
let at t i = Int64.float_of_bits (Bytes.get_int64_le (chunk t i) (offset i + 8))

let bytes t i =
  Int32.to_int (Bytes.get_int32_le (chunk t i) (offset i + 16)) land max_bytes

let session t i = Int32.to_int (Bytes.get_int32_le (chunk t i) (offset i + 20))
let addr t i = Int64.to_int (Bytes.get_int64_le (chunk t i) (offset i + 24))
let endpoint_count t = t.endpoints.size

let endpoint t o =
  if o < 0 || o >= t.endpoints.size then invalid_arg "Trace: no such endpoint";
  t.endpoints.by_ord.(o)

let label_count t = t.labels.size

let label_name t o =
  if o < 0 || o >= t.labels.size then invalid_arg "Trace: no such label";
  t.labels.by_ord.(o)

let find_label t s = Option.value ~default:(-1) (Names.find_opt t.labels.ords s)

let kind t i =
  match tag t i with
  | Tag.Message d -> Message d
  | Tag.Dropped d -> Dropped d
  | Tag.Dup d -> Dup d
  | Tag.Session_begin -> Session_begin (session t i)
  | Tag.Session_end -> Session_end (session t i)
  | Tag.Session_admit -> Session_admit (session t i)
  | Tag.Session_queued -> Session_queued (session t i)
  | Tag.Session_shed -> Session_shed (session t i)
  | Tag.Write_back -> Write_back (session t i)
  | Tag.Invalidate -> Invalidate (session t i)
  | Tag.Session_abort -> Session_abort (session t i)
  | Tag.Crash -> Crash (endpoint t (home t i))
  | Tag.Revive -> Revive (endpoint t (home t i))
  | Tag.Copy -> Copy (session t i)
  | Tag.Inval_sent -> Inval_sent (session t i)
  | Tag.Access akind ->
    Access
      { session = session t i; home = endpoint t (home t i); addr = addr t i; akind }

let event t i =
  {
    at = at t i;
    src = endpoint t (src t i);
    dst = endpoint t (dst t i);
    kind = kind t i;
    bytes = bytes t i;
    label = label_name t (label t i);
  }

let events t =
  let rec build i acc = if i < 0 then acc else build (i - 1) (event t i :: acc) in
  build (t.count - 1) []

let access_name = function
  | Acc_read -> "read"
  | Acc_write -> "write"
  | Acc_serve -> "serve"
  | Acc_apply -> "apply"
  | Acc_install -> "install"
  | Acc_free -> "free"
  | Acc_alloc -> "alloc"
  | Acc_drop -> "drop"

let pp_kind ppf = function
  | Message Request -> Format.pp_print_string ppf "request"
  | Message Reply -> Format.pp_print_string ppf "reply"
  | Dropped Request -> Format.pp_print_string ppf "request (dropped)"
  | Dropped Reply -> Format.pp_print_string ppf "reply (dropped)"
  | Dup Request -> Format.pp_print_string ppf "request (duplicate)"
  | Dup Reply -> Format.pp_print_string ppf "reply (duplicate)"
  | Session_begin id -> Format.fprintf ppf "session-begin #%d" id
  | Session_end id -> Format.fprintf ppf "session-end #%d" id
  | Session_admit id -> Format.fprintf ppf "session-admit #%d" id
  | Session_queued id -> Format.fprintf ppf "session-queued #%d" id
  | Session_shed id -> Format.fprintf ppf "session-shed #%d" id
  | Write_back id -> Format.fprintf ppf "write-back #%d" id
  | Invalidate id -> Format.fprintf ppf "invalidate #%d" id
  | Session_abort id -> Format.fprintf ppf "session-abort #%d" id
  | Crash ep -> Format.fprintf ppf "crash %s" ep
  | Revive ep -> Format.fprintf ppf "revive %s" ep
  | Copy id -> Format.fprintf ppf "copy #%d" id
  | Inval_sent id -> Format.fprintf ppf "inval-sent #%d" id
  | Access { session; akind; addr; _ } when addr = every_datum ->
    Format.fprintf ppf "access #%d %s *" session (access_name akind)
  | Access { session; home; addr; akind } ->
    Format.fprintf ppf "access #%d %s %s/%d" session (access_name akind) home addr

let pp_event ppf e =
  match e.kind with
  | Message _ | Dropped _ | Dup _ ->
    if String.equal e.label "" then
      Format.fprintf ppf "%10.6f %s -> %s %a (%d bytes)" e.at e.src e.dst
        pp_kind e.kind e.bytes
    else
      Format.fprintf ppf "%10.6f %s -> %s %a[%s] (%d bytes)" e.at e.src e.dst
        pp_kind e.kind e.label e.bytes
  | Copy _ | Inval_sent _ ->
    Format.fprintf ppf "%10.6f %s -> %s %a" e.at e.src e.dst pp_kind e.kind
  | Session_begin _ | Session_end _ | Session_admit _ | Session_queued _
  | Session_shed _ | Write_back _ | Invalidate _ | Session_abort _ | Crash _
  | Revive _ | Access _ ->
    Format.fprintf ppf "%10.6f %s %a" e.at e.src pp_kind e.kind

let pp ppf t =
  for i = 0 to t.count - 1 do
    if i > 0 then Format.pp_print_newline ppf ();
    pp_event ppf (event t i)
  done
