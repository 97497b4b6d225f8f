(* The metric catalog: every metric's name and unit, in BENCHMARK.json
   order. A measurement names its metric and takes the unit from here,
   so each unit is written once in the program. *)

(* Trace frame labels tallied as [wire.<label>.*]; any other label is
   tallied as [other]. *)
let wire_labels = [ "call"; "return"; "fetch"; "fetched"; "write-back"; "invalidate"; "ack"; "hb" ]

(* The host probes, each reported as [<probe>.ns_per_op] and
   [<probe>.words_per_op]. *)
let probes =
  [
    "xdr.enc_dec_1k_ints";
    "object_codec.encode_tnode";
    "object_codec.decode_tnode";
    "wire.encode_fetch";
    "wire.decode_fetch";
    "node.swizzle_hit";
    "node.unswizzle";
    "cache.find_by_addr";
    "cache.diff_ranges_8k";
    "access.cached_write";
    "node.call_noop";
    "node.offload_sum_d8";
    "health.observe_10k";
    "health.observe_100k";
    "race_lint.per_event";
    "proto_lint.per_event";
  ]

let end_to_end = [ ("sim_p50_s", "s"); ("sim_sessions_per_s", "1/s"); ("setup_s", "s") ]

let per_layer =
  [
    ("host_sessions_per_cpu_s", "1/s");
    ("host_p50_ms", "ms");
    ("host_heap_mb", "MB");
    ("sim_p99_s", "s");
    ("wire_bytes_per_session", "B");
    ("transport.frames", "count");
    ("transport.latency_s", "s");
    ("transport.bandwidth_s", "s");
    ("xdr.sim_cpu_s", "s");
    ("mmu.faults", "count");
    ("mmu.fault_trap_s", "s");
    ("sim.residual_s", "s");
    ("node.callbacks", "count");
    ("node.stall_s", "s");
    ("node.prefetched_bytes", "B");
    ("node.prefetch_useful_ratio", "ratio");
    ("node.writebacks", "count");
    ("node.writeback_bytes", "B");
    ("cache.pages", "count");
  ]
  @ List.concat_map
      (fun l -> [ ("wire." ^ l ^ ".frames", "count"); ("wire." ^ l ^ ".bytes", "B") ])
      (wire_labels @ [ "other" ])
  @ [
      ("admission.queued", "count");
      ("admission.retried", "count");
      ("admission.denied", "count");
      ("sim.backlog_ratio", "ratio");
      ("gc.minor_words", "words");
      ("gc.major_collections", "count/1000");
      ("host.call_self_ms", "ms");
      ("host.callee_body_ms", "ms");
      ("host.close_ms", "ms");
      ("host.trace_overhead_ratio", "ratio");
    ]
  @ List.concat_map (fun p -> [ (p ^ ".ns_per_op", "ns"); (p ^ ".words_per_op", "words") ]) probes

let unit name =
  match List.assoc_opt name (end_to_end @ per_layer) with
  | Some u -> u
  | None -> invalid_arg ("metric missing from the catalog: " ^ name)
