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
  | Access of { session : int; datum : string; akind : access }

type event = {
  at : float;
  src : string;
  dst : string;
  kind : kind;
  bytes : int;
  label : string;
}

type t = { mutable rev_events : event list; mutable count : int }

let create () = { rev_events = []; count = 0 }

let add t e =
  t.rev_events <- e :: t.rev_events;
  t.count <- t.count + 1

let record ?(label = "") t ~at ~src ~dst ~dir ~bytes =
  add t { at; src; dst; kind = Message dir; bytes; label }

let record_kind ?(label = "") t ~at ~src ~dst ~kind ~bytes =
  add t { at; src; dst; kind; bytes; label }

let mark t ~at ~src kind = add t { at; src; dst = src; kind; bytes = 0; label = "" }

let events t = List.rev t.rev_events
let length t = t.count

let since t n =
  let rec take k acc = function
    | e :: rest when k > 0 -> take (k - 1) (e :: acc) rest
    | _ -> acc
  in
  take (t.count - n) [] t.rev_events

let clear t =
  t.rev_events <- [];
  t.count <- 0

let between t ~src ~dst =
  List.length
    (List.filter
       (fun e ->
         e.kind = Message Request && String.equal e.src src && String.equal e.dst dst)
       t.rev_events)

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
  | Access { session; datum; akind } ->
    Format.fprintf ppf "access #%d %s %s" session (access_name akind) datum

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
  Format.pp_print_list ~pp_sep:Format.pp_print_newline pp_event ppf (events t)
