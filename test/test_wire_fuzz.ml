(* Deterministic wire-decode fuzzing.

   The decoders sit on the trust boundary: every byte that crosses the
   simulated network goes through them, and a fault plan can hand them
   truncated or corrupted frames. Whatever arrives, they must either
   return a value or raise one of the protocol's typed decode errors —
   [Srpc_xdr.Xdr.Decode_error] or [Srpc_types.Registry.Unknown_type] —
   never an assert failure, an [Invalid_argument] from a blind
   [String.sub], or a loop.

   The corpus covers every request and response variant, both bare and
   retry-enveloped, then attacks each encoding three ways: truncation at
   every prefix length, a single bit flip at every position, and seeded
   multi-byte corruption (Srpc_check.Rng, so the byte stream is identical
   on every compiler). *)

open Srpc_types
open Srpc_core
module Rng = Srpc_check.Rng

let reg = Registry.create ()

let () =
  Registry.register reg "fznode"
    (Type_desc.Struct
       [ ("next", Type_desc.ptr "fznode"); ("data", Type_desc.i64) ])

let sid site = Srpc_memory.Space_id.make ~site ~proc:0
let lp addr = Long_pointer.make ~origin:(sid 1) ~addr ~ty:"fznode"
let item addr data = { Wire.lp = lp addr; data }

(* A valid traversal plan over the fuzz registry's one type. *)
let fzplan =
  {
    Offload.root_ty = "fznode";
    hops = [ "next" ];
    value_field = "data";
    op = Offload.Op_update { idx = 3; delta = -2 };
    hop_bound = 64;
  }

let wvals : Wire.wvalue list =
  [
    Wire.WUnit;
    Wire.WBool true;
    Wire.WInt 0x1122334455667788L;
    Wire.WFloat 3.25;
    Wire.WStr "hello";
    Wire.WPtr None;
    Wire.WPtr (Some (lp 4096));
    Wire.WFun { Value.home = sid 2; name = "visit" };
  ]

let requests : Wire.request list =
  [
    Wire.Call
      {
        session = 7;
        proc = "walk";
        args = wvals;
        writebacks = [ item 4096 "\x00\x01\x02\x03\x04\x05\x06\x07" ];
        eager = [ item 8192 "\xff\xfe\xfd\xfc" ];
      };
    Wire.Fetch { session = 7; wanted = [ lp 4096; lp 8192 ] };
    Wire.Write_back { session = 7; items = [ item 4096 "payload" ] };
    Wire.Alloc_batch { session = 7; reqs = [ (1, "fznode"); (2, "fznode") ] };
    Wire.Free_batch { session = 7; lps = [ lp 4096 ] };
    Wire.Invalidate { session = 7 };
    Wire.Abort { session = 7 };
    Wire.Wb_stage { session = 7; items = [ item 4096 "staged" ] };
    Wire.Wb_commit { session = 7 };
    Wire.Wb_delta
      {
        session = 7;
        full = [ item 4096 "whole payload" ];
        deltas =
          [
            {
              Wire.dlp = lp 8192;
              base_len = 32;
              ranges =
                [
                  { Wire.off = 0; bytes = "\x01\x02" };
                  { Wire.off = 8; bytes = "\x03\x04\x05" };
                  { Wire.off = 24; bytes = "\xff" };
                ];
            };
          ];
        frees = [ lp 12288 ];
        invalidate = true;
      };
    Wire.Wb_delta
      { session = 7; full = []; deltas = []; frees = [ lp 4096 ]; invalidate = false };
    Wire.Wb_stage_delta
      {
        session = 7;
        deltas =
          [ { Wire.dlp = lp 4096; base_len = 16;
              ranges = [ { Wire.off = 4; bytes = "abcd" } ] } ];
      };
    Wire.Call_d
      {
        session = 7;
        proc = "walk";
        args = wvals;
        writebacks = [ item 4096 "\x00\x01\x02\x03\x04\x05\x06\x07" ];
        wb_deltas =
          [ { Wire.dlp = lp 8192; base_len = 8;
              ranges = [ { Wire.off = 0; bytes = "\x2a" } ] } ];
        eager = [ item 8192 "\xff\xfe\xfd\xfc" ];
        frees = [ lp 12288 ];
      };
    Wire.Offload_call
      {
        session = 7;
        root = lp 4096;
        plan = fzplan;
        writebacks = [ item 8192 "stale" ];
      };
    Wire.Hb;
  ]

let responses : Wire.response list =
  [
    Wire.Return
      {
        results = wvals;
        writebacks = [ item 4096 "back" ];
        eager = [ item 8192 "more" ];
      };
    Wire.Fetched { items = [ item 4096 "\x00\x00\x00\x2a" ] };
    Wire.Allocated { addrs = [ (1, 4096); (2, 8192) ] };
    Wire.Ack;
    Wire.Error "remote exception text";
    Wire.Return_d
      {
        results = wvals;
        writebacks = [ item 4096 "back" ];
        wb_deltas =
          [ { Wire.dlp = lp 8192; base_len = 24;
              ranges =
                [ { Wire.off = 0; bytes = "xy" };
                  { Wire.off = 16; bytes = "zw" } ] } ];
        eager = [ item 8192 "more" ];
        frees = [ lp 12288 ];
      };
    Wire.Offload_return
      {
        results = [ 123; -4; 0 ];
        writebacks = [ item 4096 "refreshed" ];
        wset = [ lp 4096; lp 8192 ];
      };
    Wire.Hb_ack;
  ]

(* (label, encoded frame, decoder) — decoders are closed over [reg] and
   thunked so every attack below treats them uniformly. *)
let corpus : (string * string * (string -> unit)) list =
  let dec_req s = ignore (Wire.decode_request ~reg s) in
  let dec_framed s = ignore (Wire.decode_framed ~reg s) in
  let dec_resp s = ignore (Wire.decode_response ~reg s) in
  List.concat_map
    (fun r ->
      [
        ("request", Wire.encode_request ~reg r, dec_req);
        ("framed", Wire.encode_framed ~reg ~seq:42 r, dec_framed);
      ])
    requests
  @ List.map (fun r -> ("response", Wire.encode_response ~reg r, dec_resp)) responses

let survives decode s =
  match decode s with
  | () -> true
  | exception Srpc_xdr.Xdr.Decode_error _ -> true
  | exception Registry.Unknown_type _ -> true
  | exception e ->
      Printf.eprintf "untyped escape: %s\n%!" (Printexc.to_string e);
      false

let flip_bit s pos =
  let b = Bytes.of_string s in
  Bytes.set b (pos / 8)
    (Char.chr (Char.code (Bytes.get b (pos / 8)) lxor (1 lsl (pos mod 8))));
  Bytes.to_string b

let test_truncations () =
  List.iter
    (fun (label, s, decode) ->
      for len = 0 to String.length s - 1 do
        if not (survives decode (String.sub s 0 len)) then
          Alcotest.failf "%s: truncation to %d bytes escaped the typed errors"
            label len
      done)
    corpus

let test_bit_flips () =
  List.iter
    (fun (label, s, decode) ->
      for pos = 0 to (8 * String.length s) - 1 do
        if not (survives decode (flip_bit s pos)) then
          Alcotest.failf "%s: bit flip at %d escaped the typed errors" label pos
      done)
    corpus

let test_random_corruption () =
  let rng = Rng.create 0xF00D in
  List.iter
    (fun (label, s, decode) ->
      for round = 1 to 200 do
        let b = Bytes.of_string s in
        let hits = Rng.range rng 1 8 in
        for _ = 1 to hits do
          Bytes.set b (Rng.int rng (Bytes.length b)) (Char.chr (Rng.int rng 256))
        done;
        (* sometimes also chop the tail, compounding the corruption *)
        let s' =
          let s' = Bytes.to_string b in
          if Rng.bool rng then String.sub s' 0 (Rng.int rng (String.length s'))
          else s'
        in
        if not (survives decode s') then
          Alcotest.failf "%s: random corruption (round %d) escaped the typed errors"
            label round
      done)
    corpus

let test_garbage_frames () =
  let rng = Rng.create 0xBEEF in
  for _ = 1 to 500 do
    let len = Rng.int rng 64 in
    let b = Bytes.init len (fun _ -> Char.chr (Rng.int rng 256)) in
    let s = Bytes.to_string b in
    List.iter
      (fun (label, _, decode) ->
        if not (survives decode s) then
          Alcotest.failf "%s: garbage frame escaped the typed errors" label)
      corpus
  done

(* Delta frames carry byte ranges the receiver patches straight into a
   base image, so the decoder must reject any geometry that a blit
   would run off with — before a single byte is applied. The encoder is
   deliberately blind (it writes whatever the caller built), which lets
   these tests ship each malformed geometry through a real encode. *)
let test_malformed_delta_ranges () =
  let delta ~base_len ranges =
    { Wire.dlp = lp 8192; base_len;
      ranges = List.map (fun (off, bytes) -> { Wire.off; bytes }) ranges }
  in
  let cases =
    [
      ("out of bounds", delta ~base_len:8 [ (4, "abcdef") ]);
      ("range past the end", delta ~base_len:8 [ (9, "a") ]);
      ("overlapping", delta ~base_len:16 [ (0, "abcd"); (2, "ef") ]);
      ("unordered", delta ~base_len:16 [ (8, "ab"); (0, "cd") ]);
      ("empty range", delta ~base_len:16 [ (4, "") ]);
      ("negative offset", delta ~base_len:16 [ (-1, "ab") ]);
      ("negative base_len", delta ~base_len:(-4) []);
    ]
  in
  List.iter
    (fun (label, d) ->
      let reqs =
        [
          Wire.Wb_delta
            { session = 1; full = []; deltas = [ d ]; frees = [];
              invalidate = false };
          Wire.Wb_stage_delta { session = 1; deltas = [ d ] };
          Wire.Call_d
            { session = 1; proc = "p"; args = []; writebacks = [];
              wb_deltas = [ d ]; eager = []; frees = [] };
        ]
      in
      List.iter
        (fun r ->
          match Wire.decode_request ~reg (Wire.encode_request ~reg r) with
          | _ -> Alcotest.failf "%s: malformed delta range decoded" label
          | exception Srpc_xdr.Xdr.Decode_error _ -> ())
        reqs;
      let resp =
        Wire.Return_d
          { results = []; writebacks = []; wb_deltas = [ d ]; eager = [];
            frees = [] }
      in
      match Wire.decode_response ~reg (Wire.encode_response ~reg resp) with
      | _ -> Alcotest.failf "%s: malformed delta range decoded (response)" label
      | exception Srpc_xdr.Xdr.Decode_error _ -> ())
    cases

(* Offload plans drive an automatic walk of the home's heap, so the
   decoder validates the plan's whole shape before the handler sees it:
   a hop bound that is not a positive sane budget, a hop listed twice
   (a cyclic declared chain), or any field name that does not exist on
   a struct reachable from the root type must raise a typed decode
   error — never reach the walker. The blind encoder ships each
   malformed plan through a real encode. *)
let test_malformed_plans () =
  let cases =
    [
      ("negative hop bound", { fzplan with Offload.hop_bound = -3 });
      ("zero hop bound", { fzplan with Offload.hop_bound = 0 });
      ("oversized hop bound", { fzplan with Offload.hop_bound = (1 lsl 20) + 1 });
      ("unknown root type", { fzplan with Offload.root_ty = "phantom" });
      ("unknown hop field", { fzplan with Offload.hops = [ "prev" ] });
      ("unknown value field", { fzplan with Offload.value_field = "weight" });
      (* [data] exists but is not a pointer field, so it cannot hop *)
      ("value field as hop", { fzplan with Offload.hops = [ "data" ] });
      (* [next] exists but is not a primitive field, so it cannot be read *)
      ("hop field as value", { fzplan with Offload.value_field = "next" });
      ("cyclic plan", { fzplan with Offload.hops = [ "next"; "next" ] });
    ]
  in
  List.iter
    (fun (label, plan) ->
      let r =
        Wire.Offload_call { session = 1; root = lp 4096; plan; writebacks = [] }
      in
      (match Wire.decode_request ~reg (Wire.encode_request ~reg r) with
      | _ -> Alcotest.failf "%s: malformed plan decoded" label
      | exception Srpc_xdr.Xdr.Decode_error _ -> ());
      (* the retry envelope goes through the same validation *)
      match Wire.decode_framed ~reg (Wire.encode_framed ~reg ~seq:9 r) with
      | _ -> Alcotest.failf "%s: malformed plan decoded (framed)" label
      | exception Srpc_xdr.Xdr.Decode_error _ -> ())
    cases

let test_roundtrip_sanity () =
  (* the corpus itself must decode: a fuzzer over frames that were never
     valid proves nothing *)
  List.iter
    (fun r ->
      let r' = Wire.decode_request ~reg (Wire.encode_request ~reg r) in
      Alcotest.(check bool) "request roundtrip" true (r = r');
      let seq, r'' = Wire.decode_framed ~reg (Wire.encode_framed ~reg ~seq:42 r) in
      Alcotest.(check bool) "framed roundtrip" true (seq = Some 42 && r = r''))
    requests;
  List.iter
    (fun r ->
      let r' = Wire.decode_response ~reg (Wire.encode_response ~reg r) in
      Alcotest.(check bool) "response roundtrip" true (r = r'))
    responses

(* Traced frames are labeled from their tag words, never decoded: the
   label read so must be the one the decoded frame carries. *)
let test_tag_labels () =
  let open Srpc_simnet in
  List.iter
    (fun r ->
      List.iter
        (fun frame ->
          Alcotest.(check string) "request label"
            (Wire.request_label (snd (Wire.decode_framed ~reg frame)))
            (Wire.frame_label ~dir:Trace.Request frame))
        [ Wire.encode_request ~reg r; Wire.encode_framed ~reg ~seq:42 r ])
    requests;
  List.iter
    (fun r ->
      let frame = Wire.encode_response ~reg r in
      Alcotest.(check string) "response label"
        (Wire.response_label (Wire.decode_response ~reg frame))
        (Wire.frame_label ~dir:Trace.Reply frame))
    responses

(* Every frame kind the table names, [wb-delta+inv] included, labels
   some corpus frame, so none escapes the attacks above. *)
let test_corpus_covers_table () =
  let open Srpc_simnet in
  List.iter
    (fun dir ->
      let labels =
        List.filter_map
          (fun (kind, frame, _) ->
            if (kind = "response") = (dir = Trace.Reply) then
              Some (Wire.frame_label ~dir frame)
            else None)
          corpus
      in
      List.iter
        (fun (row : Srpc_analysis.Frames.row) ->
          if not (List.mem row.label labels) then
            Alcotest.failf "no corpus frame is labeled %s" row.label)
        (Srpc_analysis.Frames.rows dir))
    [ Trace.Request; Trace.Reply ]

(* The (tag, label) rows of the opcode table in docs/PROTOCOL.md's
   section [heading]: the first and third cells of each row whose first
   cell is a number. *)
let doc_rows heading =
  let cell s = String.concat "" (String.split_on_char '`' (String.trim s)) in
  let rec section = function
    | [] -> []
    | l :: rest -> if l = heading then body rest else section rest
  and body = function
    | [] -> []
    | l :: _ when String.starts_with ~prefix:"## " l -> []
    | l :: rest -> (
      match String.split_on_char '|' l with
      | "" :: tag :: _ :: label :: _ -> (
        match int_of_string_opt (cell tag) with
        | Some tag -> (tag, cell label) :: body rest
        | None -> body rest)
      | _ -> body rest)
  in
  (* [dune test] runs in test/; [dune exec] from the repository root *)
  let doc =
    List.find Sys.file_exists [ "../docs/PROTOCOL.md"; "docs/PROTOCOL.md" ]
  in
  section
    (String.split_on_char '\n'
       (In_channel.with_open_text doc In_channel.input_all))

let test_doc_tables () =
  let open Srpc_simnet in
  List.iter
    (fun (heading, dir) ->
      Alcotest.(check (list (pair int string)))
        heading
        (List.map
           (fun (r : Srpc_analysis.Frames.row) -> (r.tag, r.label))
           (Srpc_analysis.Frames.rows dir))
        (doc_rows heading))
    [ ("## Requests", Trace.Request); ("## Responses", Trace.Reply) ]

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "wire-fuzz"
    [
      ( "decode",
        [
          tc "corpus roundtrips" `Quick test_roundtrip_sanity;
          tc "malformed delta ranges are rejected" `Quick
            test_malformed_delta_ranges;
          tc "malformed offload plans are rejected" `Quick
            test_malformed_plans;
          tc "every truncation is typed" `Quick test_truncations;
          tc "every bit flip is typed" `Quick test_bit_flips;
          tc "seeded corruption is typed" `Quick test_random_corruption;
          tc "pure garbage is typed" `Quick test_garbage_frames;
          tc "tag labels match decoded labels" `Quick test_tag_labels;
          tc "corpus covers the frame table" `Quick test_corpus_covers_table;
          tc "PROTOCOL.md opcode tables match the frame table" `Quick
            test_doc_tables;
        ] );
    ]
