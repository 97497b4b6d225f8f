(* Counter sets and snapshots are copies of one record; the interface
   keeps [t] abstract and [snapshot] private, so only this module writes
   a field. *)
type snapshot = {
  mutable messages : int;
  mutable bytes : int;
  mutable faults : int;
  mutable callbacks : int;
  mutable writebacks : int;
  mutable remote_allocs : int;
  mutable remote_frees : int;
  mutable prefetched_bytes : int;
  mutable wasted_prefetch_bytes : int;
  mutable stall_ns : int;
  mutable retries : int;
  mutable timeouts : int;
  mutable duplicates : int;
  mutable writeback_bytes : int;
  mutable delta_bytes_saved : int;
  mutable full_fallbacks : int;
  mutable invalidations_skipped : int;
  mutable sessions_admitted : int;
  mutable sessions_queued : int;
  mutable sessions_aborted : int;
  mutable sessions_retried : int;
  mutable validations_failed : int;
  mutable heartbeats_sent : int;
  mutable suspicions : int;
  mutable sheds : int;
  mutable breaker_trips : int;
  mutable recoveries : int;
  mutable offload_calls : int;
  mutable offload_nodes : int;
  mutable offload_wset : int;
}

type t = snapshot

let zero : snapshot =
  {
    messages = 0;
    bytes = 0;
    faults = 0;
    callbacks = 0;
    writebacks = 0;
    remote_allocs = 0;
    remote_frees = 0;
    prefetched_bytes = 0;
    wasted_prefetch_bytes = 0;
    stall_ns = 0;
    retries = 0;
    timeouts = 0;
    duplicates = 0;
    writeback_bytes = 0;
    delta_bytes_saved = 0;
    full_fallbacks = 0;
    invalidations_skipped = 0;
    sessions_admitted = 0;
    sessions_queued = 0;
    sessions_aborted = 0;
    sessions_retried = 0;
    validations_failed = 0;
    heartbeats_sent = 0;
    suspicions = 0;
    sheds = 0;
    breaker_trips = 0;
    recoveries = 0;
    offload_calls = 0;
    offload_nodes = 0;
    offload_wset = 0;
  }

let create () = { zero with messages = 0 }

let incr_messages t = t.messages <- t.messages + 1
let add_bytes t n = t.bytes <- t.bytes + n
let incr_faults t = t.faults <- t.faults + 1
let incr_callbacks t = t.callbacks <- t.callbacks + 1
let add_writebacks t n = t.writebacks <- t.writebacks + n
let add_remote_allocs t n = t.remote_allocs <- t.remote_allocs + n
let add_remote_frees t n = t.remote_frees <- t.remote_frees + n
let add_prefetched_bytes t n = t.prefetched_bytes <- t.prefetched_bytes + n

let add_wasted_prefetch_bytes t n =
  t.wasted_prefetch_bytes <- t.wasted_prefetch_bytes + n

let add_stall_ns t n = t.stall_ns <- t.stall_ns + n
let incr_retries t = t.retries <- t.retries + 1
let incr_timeouts t = t.timeouts <- t.timeouts + 1
let incr_duplicates t = t.duplicates <- t.duplicates + 1
let add_writeback_bytes t n = t.writeback_bytes <- t.writeback_bytes + n
let add_delta_bytes_saved t n = t.delta_bytes_saved <- t.delta_bytes_saved + n
let incr_full_fallbacks t = t.full_fallbacks <- t.full_fallbacks + 1

let add_invalidations_skipped t n =
  t.invalidations_skipped <- t.invalidations_skipped + n

let incr_sessions_admitted t = t.sessions_admitted <- t.sessions_admitted + 1
let incr_sessions_queued t = t.sessions_queued <- t.sessions_queued + 1
let incr_sessions_aborted t = t.sessions_aborted <- t.sessions_aborted + 1
let incr_sessions_retried t = t.sessions_retried <- t.sessions_retried + 1
let incr_validations_failed t = t.validations_failed <- t.validations_failed + 1
let incr_heartbeats_sent t = t.heartbeats_sent <- t.heartbeats_sent + 1
let incr_suspicions t = t.suspicions <- t.suspicions + 1
let incr_sheds t = t.sheds <- t.sheds + 1
let incr_breaker_trips t = t.breaker_trips <- t.breaker_trips + 1
let incr_recoveries t = t.recoveries <- t.recoveries + 1
let incr_offload_calls t = t.offload_calls <- t.offload_calls + 1
let add_offload_nodes t n = t.offload_nodes <- t.offload_nodes + n
let add_offload_wset t n = t.offload_wset <- t.offload_wset + n

let snapshot t : snapshot = { t with messages = t.messages }

let diff (a : snapshot) (b : snapshot) : snapshot =
  {
    messages = a.messages - b.messages;
    bytes = a.bytes - b.bytes;
    faults = a.faults - b.faults;
    callbacks = a.callbacks - b.callbacks;
    writebacks = a.writebacks - b.writebacks;
    remote_allocs = a.remote_allocs - b.remote_allocs;
    remote_frees = a.remote_frees - b.remote_frees;
    prefetched_bytes = a.prefetched_bytes - b.prefetched_bytes;
    wasted_prefetch_bytes = a.wasted_prefetch_bytes - b.wasted_prefetch_bytes;
    stall_ns = a.stall_ns - b.stall_ns;
    retries = a.retries - b.retries;
    timeouts = a.timeouts - b.timeouts;
    duplicates = a.duplicates - b.duplicates;
    writeback_bytes = a.writeback_bytes - b.writeback_bytes;
    delta_bytes_saved = a.delta_bytes_saved - b.delta_bytes_saved;
    full_fallbacks = a.full_fallbacks - b.full_fallbacks;
    invalidations_skipped = a.invalidations_skipped - b.invalidations_skipped;
    sessions_admitted = a.sessions_admitted - b.sessions_admitted;
    sessions_queued = a.sessions_queued - b.sessions_queued;
    sessions_aborted = a.sessions_aborted - b.sessions_aborted;
    sessions_retried = a.sessions_retried - b.sessions_retried;
    validations_failed = a.validations_failed - b.validations_failed;
    heartbeats_sent = a.heartbeats_sent - b.heartbeats_sent;
    suspicions = a.suspicions - b.suspicions;
    sheds = a.sheds - b.sheds;
    breaker_trips = a.breaker_trips - b.breaker_trips;
    recoveries = a.recoveries - b.recoveries;
    offload_calls = a.offload_calls - b.offload_calls;
    offload_nodes = a.offload_nodes - b.offload_nodes;
    offload_wset = a.offload_wset - b.offload_wset;
  }

let pp_snapshot ppf (s : snapshot) =
  Format.fprintf ppf
    "@[<h>msgs=%d bytes=%d faults=%d callbacks=%d writebacks=%d allocs=%d \
     frees=%d prefetched=%dB wasted=%dB stall=%dns retries=%d timeouts=%d \
     dups=%d wb=%dB saved=%dB fallbacks=%d inval-skipped=%d@]"
    s.messages s.bytes s.faults s.callbacks s.writebacks s.remote_allocs
    s.remote_frees s.prefetched_bytes s.wasted_prefetch_bytes s.stall_ns
    s.retries s.timeouts s.duplicates s.writeback_bytes s.delta_bytes_saved
    s.full_fallbacks s.invalidations_skipped;
  (* admission counters only appear once the concurrent-session layer is
     in play; single-session runs keep the historical one-line format *)
  if
    s.sessions_admitted <> 0 || s.sessions_queued <> 0
    || s.sessions_aborted <> 0 || s.sessions_retried <> 0
    || s.validations_failed <> 0
  then
    Format.fprintf ppf
      "@ @[<h>admitted=%d queued=%d adm-aborted=%d adm-retried=%d \
       validation-failed=%d@]"
      s.sessions_admitted s.sessions_queued s.sessions_aborted
      s.sessions_retried s.validations_failed;
  (* robustness counters likewise stay silent until the health/recovery
     layer is active *)
  if
    s.heartbeats_sent <> 0 || s.suspicions <> 0 || s.sheds <> 0
    || s.breaker_trips <> 0 || s.recoveries <> 0
  then
    Format.fprintf ppf
      "@ @[<h>heartbeats=%d suspicions=%d sheds=%d breaker-trips=%d \
       recoveries=%d@]"
      s.heartbeats_sent s.suspicions s.sheds s.breaker_trips s.recoveries;
  (* offload counters stay silent until a traversal plan is shipped *)
  if s.offload_calls <> 0 || s.offload_nodes <> 0 || s.offload_wset <> 0 then
    Format.fprintf ppf "@ @[<h>offloads=%d off-nodes=%d off-wset=%d@]"
      s.offload_calls s.offload_nodes s.offload_wset
