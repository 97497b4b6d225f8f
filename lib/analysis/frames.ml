open Srpc_simnet

type phase = Heartbeat | Offload_call | Staged | Commit | Inv_delta | Plain

type row = {
  tag : int;
  label : string;
  reply : string;
  session : bool;
  phase : phase;
}

let row tag label reply session phase = { tag; label; reply; session; phase }
let error = "error"

(* By tag: a row's index is its tag. Columns: tag, label, the reply's
   label, whether a session id follows the tag, phase. *)
let requests =
  [|
    row 0 "call" "return" true Plain;
    row 1 "fetch" "fetched" true Plain;
    row 2 "write-back" "ack" true Plain;
    row 3 "alloc-batch" "allocated" true Plain;
    row 4 "free-batch" "ack" true Plain;
    row 5 "invalidate" "ack" true Plain;
    row 6 "abort" "ack" true Plain;
    row 7 "wb-stage" "ack" true Staged;
    row 8 "wb-commit" "ack" true Commit;
    row 9 "wb-delta" "ack" true Plain;
    row 10 "wb-stage-delta" "ack" true Staged;
    row 11 "call-d" "return-d" true Plain;
    row 12 "hb" "hb-ack" false Heartbeat;
    row 13 "offload-call" "offload-return" true Offload_call;
  |]

let inv_delta = row 9 "wb-delta+inv" "ack" true Inv_delta

let replies =
  [|
    row 0 "return" "" false Plain;
    row 1 "fetched" "" false Plain;
    row 2 "allocated" "" false Plain;
    row 3 "ack" "" false Plain;
    row 4 error "" false Plain;
    row 5 "return-d" "" false Plain;
    row 6 "hb-ack" "" false Heartbeat;
    row 7 "offload-return" "" false Plain;
  |]

let table = function Trace.Request -> requests | Trace.Reply -> replies

let by_tag dir tag =
  let rows = table dir in
  if tag < 0 || tag >= Array.length rows then raise Not_found else rows.(tag)

(* [inv_delta] follows the row whose tag it shares. *)
let rows dir =
  List.concat_map
    (fun r -> if r == requests.(inv_delta.tag) then [ r; inv_delta ] else [ r ])
    (Array.to_list (table dir))

let all = rows Trace.Request @ rows Trace.Reply
let find label = List.find_opt (fun r -> String.equal r.label label) all

let phases trace =
  Array.init (Trace.label_count trace) (fun l ->
      match find (Trace.label_name trace l) with
      | Some r -> r.phase
      | None -> Plain)
