(** Harnesses regenerating the paper's evaluation (section 4), one entry
    per table/figure, plus the ablations of DESIGN.md.

    Every run builds a fresh two-site cluster (caller site 1 owns the
    data and is the ground thread; callee site 2 runs the remote
    procedure), exactly the paper's setup. Times are simulated seconds
    under {!Srpc_simnet.Cost_model.sparc_10mbps}; counts are measured
    from the real protocol frames. *)

open Srpc_core
open Srpc_memory

(** Aggregate measurements of one experimental run. *)
type run = {
  seconds : float;  (** simulated time per RPC (averaged over repeats) *)
  callbacks : int;  (** fetch round-trips *)
  messages : int;
  bytes : int;  (** wire payload bytes *)
  faults : int;
  visited : int;  (** nodes the callee actually visited *)
  cache_pages : int;  (** callee cache working set, pages *)
}

(** The three compared methods of section 4.1. *)
type method_kind = Fully_eager | Fully_lazy | Proposed of int

val method_name : method_kind -> string
val strategy_of_method : method_kind -> Strategy.t

(** [run_tree_search ~strategy ~depth ~ratio ()] is one point of the
    Fig. 4 experiment: a [2^depth - 1]-node tree on the caller, one RPC
    visiting [ratio] of the nodes depth-first on the callee.
    [update] makes the callee increment each visited node (Fig. 7);
    [repeats] issues that many identical calls inside one session
    (Fig. 6); [arches] selects caller/callee architectures;
    [link_cost] replaces the default cost model on the caller-callee
    link (both directions) — e.g. a WAN; [fault_plan] installs a
    {!Srpc_simnet.Fault_plan} on the cluster's transport before the
    session (the retry envelope is then active, and the session may
    raise {!Srpc_core.Session.Session_aborted}). *)
val run_tree_search :
  ?update:bool ->
  ?repeats:int ->
  ?arches:Arch.t * Arch.t ->
  ?link_cost:Srpc_simnet.Cost_model.t ->
  ?page_size:int ->
  ?fault_plan:Srpc_simnet.Fault_plan.t ->
  strategy:Strategy.t ->
  depth:int ->
  ratio:float ->
  unit ->
  run

(** {1 Figures} *)

type fig4_row = {
  ratio : float;
  eager : run;
  lazy_ : run;
  proposed : run;
}

(** Fig. 4 (times) and Fig. 5 (callback counts) come from the same
    sweep. Defaults: depth 15 (32 767 nodes), ratios 0.0, 0.1, …, 1.0,
    closure 8 192 B. *)
val fig4 : ?depth:int -> ?ratios:float list -> ?closure:int -> unit -> fig4_row list

type fig6_row = { closure_bytes : int; by_depth : (int * run) list }

(** Fig. 6: closure-size sweep with 10 repeated searches, for trees of
    the given depths (paper: 16 383 / 32 767 / 65 535 nodes = depths
    14/15/16). *)
val fig6 :
  ?depths:int list -> ?closures:int list -> ?repeats:int -> unit -> fig6_row list

(** Fig. 6 under the descent reading: each search is one pseudo-random
    root-to-leaf path, 10 per call. Sparse consumption makes {e large}
    closures pay for unused breadth — the other side of the paper's
    dip (small closures lose under the full-traversal reading above). *)
val fig6_descents :
  ?depths:int list -> ?closures:int list -> ?paths:int -> unit -> fig6_row list

type fig7_row = { ratio7 : float; updated : run; not_updated : run }

(** Fig. 7: update-ratio sweep at closure 8 192 B. *)
val fig7 : ?depth:int -> ?ratios:float list -> ?closure:int -> unit -> fig7_row list

(** {1 Ablations} *)

type alloc_row = { grouping : Strategy.alloc_grouping; merge : run }

(** A1: cache-allocation strategy under a two-origin interleaved walk
    (section 6's open problem). *)
val ablation_alloc_strategy : ?depth:int -> unit -> alloc_row list

type shape_row = { order : Strategy.closure_order; partial : run }

(** A2: closure traversal order under a partial depth-first consumer. *)
val ablation_closure_shape :
  ?depth:int -> ?ratio:float -> ?closure:int -> unit -> shape_row list

type batching_row = { batched : bool; alloc_run : run }

(** A3: batched vs immediate remote allocation/release (section 3.5). *)
val ablation_alloc_batching : ?cells:int -> unit -> batching_row list

type grain_row = { grain : Strategy.writeback_grain; sparse_update : run }

(** A4: write-back granularity under sparse updates (1 node in
    [stride]). *)
val ablation_writeback_grain :
  ?depth:int -> ?stride:int -> unit -> grain_row list

type page_row = { page_bytes : int; partial_search : run }

(** A6: the page is the system's transfer granularity (a fault moves
    every datum allocated to the faulting page), so the simulated page
    size is itself a design knob: small pages approach per-datum
    laziness, large pages approach bulk transfer. *)
val ablation_page_size :
  ?depth:int -> ?ratio:float -> ?closure:int -> ?page_sizes:int list -> unit ->
  page_row list

val pp_page_rows : Format.formatter -> page_row list -> unit

type hint_row = { hinted : bool; chain_walk : run }

(** A5: programmer closure hints (paper, section 6). A chain of cells
    each carrying a pointer to a bulky payload; the consumer walks the
    chain without touching payloads. The hint prunes payload pointers
    from the prefetch closure. *)
val ablation_closure_hints : ?cells:int -> ?closure:int -> unit -> hint_row list

(** One A5 chain walk on its own (the building block of
    {!ablation_closure_hints}), for head-to-head comparisons. *)
val run_chain_walk : hinted:bool -> cells:int -> closure:int -> run

(** {1 Derived experiments} *)

(** [fig4_wan ()] re-runs the Fig. 4 sweep with the caller-callee link
    behind a WAN ([latency_factor] × the LAN latency, default 50): shows
    how the method ranking shifts when round-trips dominate. *)
val fig4_wan :
  ?depth:int -> ?ratios:float list -> ?closure:int -> ?latency_factor:float ->
  unit -> fig4_row list

type kv_row = { kv_method : method_kind; point : run; range : run; scan : run }

(** [kv_store ()] — an application-scale derived experiment: a B-tree
    key-value store owned by one site, queried remotely under the three
    methods with point lookups, a range count, and a full scan; shows
    which method suits which query shape. *)
val kv_store :
  ?keys:int -> ?points:int -> ?closure:int -> unit -> kv_row list

val pp_kv : Format.formatter -> kv_row list -> unit

type scale_row = { sites : int; relay : run }

(** [scaling ()] — sessions spanning 2..[max_sites] address spaces: the
    ground site's tree is passed down a chain of nested RPCs; the last
    site visits 30% and updates 10% of it, so the modified data set
    travels back through every frame. Shows how per-hop coherency
    traffic scales with session width. *)
val scaling : ?depth:int -> ?max_sites:int -> unit -> scale_row list

val pp_scaling : Format.formatter -> scale_row list -> unit

type manual_row = {
  m_ratio : float;
  smart_rpc : run;  (** the proposed method, transparent pointers *)
  manual_naive : run;
      (** hand-written caller-callee protocol, one callback per node
          (paper section 2: the lazy programming style) *)
  manual_subtree : run;
      (** hand-written protocol shipping subtree batches (section 2: "an
          experienced programmer might ... develop a caller-callee
          protocol to pass only the required portion of the tree") *)
}

(** [manual_comparison ()] pits the transparent system against the two
    hand-written protocols the paper's section 2 describes. Shows the
    transparency is (nearly) free. *)
val manual_comparison :
  ?depth:int -> ?ratios:float list -> ?closure:int -> unit -> manual_row list

val pp_manual : Format.formatter -> manual_row list -> unit

(** {1 Faults (srpc-faults)} *)

(** The price of the retry envelope when nothing ever fails: the same
    Fig. 4 point with no fault plan and with an all-zero plan installed
    (sequence-number framing, duplicate-reply cache, staged all-or-
    nothing close — but not a single injected fault). *)
type faults_overhead = {
  fo_plain : run;  (** no fault plan: today's exact wire behavior *)
  fo_envelope : run;  (** zero-fault plan: retry envelope active, no faults *)
  fo_ratio : float;  (** envelope seconds / plain seconds *)
}

val measure_faults_overhead :
  ?depth:int -> ?ratio:float -> ?closure:int -> unit -> faults_overhead

(** One (drop rate, strategy) cell of the chaos sweep. *)
type faults_summary = {
  f_drop : float;
  f_strategy : string;
  f_sessions : int;
  f_completed : int;
  f_aborted : int;
  f_wrong : int;  (** completed sessions whose result differed *)
  f_retries : int;
  f_timeouts : int;
  f_duplicates : int;
  f_seconds : float;  (** mean simulated seconds per completed session *)
}

(** [faults_sweep ()] runs the seeded chaos matrix: for every drop rate
    (default 0, 1%, 10%) and every strategy (smart, lazy, eager) one
    cluster runs [sessions] tree searches under injected frame drops and
    duplicates. Every session must either complete with the fault-free
    reference result or raise [Session_aborted] with the cluster still
    usable — [f_wrong] counts the sessions that did neither and must be
    zero. *)
val faults_sweep :
  ?depth:int ->
  ?ratio:float ->
  ?sessions:int ->
  ?seed:int ->
  ?drops:float list ->
  unit ->
  faults_summary list

val pp_faults :
  Format.formatter -> faults_overhead * faults_summary list -> unit

(** {1 Adaptive policy (srpc-adapt)} *)

type adaptive_curve = {
  a_ratio : float;
  a_sessions : run list;  (** one entry per session, in order *)
  a_budgets : (string * int) list;
      (** per-type budgets after the last session *)
}

(** [run_adaptive_tree_search ~ratio ()] is the Fig. 4 tree search run
    [sessions] times over one cluster that shares a fresh
    {!Srpc_policy.Engine}: every session is profiled and the controller
    revises the per-type closure budgets in between, starting from the
    default 8 192 B with no tuning. The per-session runs are the
    convergence curve. *)
val run_adaptive_tree_search :
  ?depth:int ->
  ?sessions:int ->
  ?config:Srpc_policy.Controller.config ->
  ratio:float ->
  unit ->
  adaptive_curve

type adaptive_fig4_row = {
  af_ratio : float;
  af_eager : run;
  af_lazy : run;
  af_smart : run;
  af_adaptive : adaptive_curve;
}

(** The Fig. 4 sweep with a fourth, adaptive competitor: at each ratio
    the three statics run once and the adaptive policy runs [sessions]
    sessions from cold. *)
val adaptive_fig4 :
  ?depth:int ->
  ?ratios:float list ->
  ?closure:int ->
  ?sessions:int ->
  unit ->
  adaptive_fig4_row list

type adaptive_chain = {
  ac_sessions : run list;
  ac_hint : Hints.rule option;
      (** the machine-derived closure-shape hint for the cell type after
          the last session (the A5 hint, learned instead of written) *)
  ac_budgets : (string * int) list;
}

(** The A5 hot/cold chain walk (cells hot, payload blobs cold) under the
    adaptive policy: the controller must learn to follow [next] and
    prune [blob] from edge touch rates alone. *)
val run_adaptive_chain_walk :
  ?cells:int ->
  ?sessions:int ->
  ?config:Srpc_policy.Controller.config ->
  unit ->
  adaptive_chain

val pp_adaptive_fig4 : Format.formatter -> adaptive_fig4_row list -> unit

(** {1 Rendering} *)

val pp_fig4 : Format.formatter -> fig4_row list -> unit
val pp_fig5 : Format.formatter -> fig4_row list -> unit
val pp_fig6 : Format.formatter -> fig6_row list -> unit
val pp_fig7 : Format.formatter -> fig7_row list -> unit
val pp_ablations : Format.formatter ->
  alloc_row list * shape_row list * batching_row list * grain_row list -> unit

val pp_hint_rows : Format.formatter -> hint_row list -> unit

(** Table 1: run the paper's two-pointer example and render the callee's
    data allocation table. *)
val table1 : Format.formatter -> unit -> unit

(** {1 Delta coherency (srpc-delta)} *)

type delta_run = {
  dl_run : run;
  dl_wb_bytes : int;
      (** wire bytes of modified-data-set payload, full items and deltas *)
  dl_saved : int;  (** bytes the delta encoding avoided *)
  dl_fallbacks : int;  (** delta-eligible entries shipped full anyway *)
  dl_copies : int;  (** [Trace.Copy] provenance notes recorded *)
  dl_cachers : int;
      (** distinct non-home spaces that received data copies — the
          targeted invalidation's expected fan-out *)
  dl_inval_sent : int;  (** [Trace.Inval_sent] notes at the close *)
  dl_inval_skipped : int;
      (** participants spared an invalidation by the copy directory *)
  dl_check : bool;
      (** the home observed every poked value after the close *)
}

(** [run_field_update ()] is the update-heavy workload the delta layer
    exists for: a worker overwrites one 8-byte field of the ground's
    8 KiB flat struct per call, [pokes] times, with [idle_peers] extra
    spaces joining the session but caching nothing. With [delta] off
    every reply ships the whole struct; with it on, a dirty-range
    delta. Measured through the session close. *)
val run_field_update :
  ?delta:bool -> ?pokes:int -> ?idle_peers:int -> unit -> delta_run

type delta_cell = {
  dc_run : run;
  dc_wb_bytes : int;
  dc_saved : int;
  dc_fallbacks : int;
}

type delta_fig4_row = {
  dm_method : method_kind;
  dm_off : delta_cell;
  dm_on : delta_cell;
}

(** The Fig. 4 strategies (fully eager, fully lazy, proposed) on the
    updating tree search, each with delta coherency off and on. Tree
    nodes are small, so this is the delta win's lower bound — the
    interesting number is that "on" never ships {e more} write-back
    bytes than "off". *)
val delta_fig4 :
  ?depth:int -> ?ratio:float -> ?closure:int -> unit -> delta_fig4_row list

val pp_delta : Format.formatter -> delta_run list -> delta_fig4_row list -> unit

(** {1 Offload (srpc-offload)}

    Traversal plans shipped to the data's home (docs/OFFLOAD.md). The
    sweep axis is the reuse count K: a session that walks a remote tree
    once should offload (an order of magnitude fewer wire bytes than an
    eager closure); a session that walks it K times amortizes the
    one-time fetch and should keep the walk local. *)

type offload_run = {
  of_seconds : float;
  of_messages : int;
  of_bytes : int;
  of_offload_calls : int;
  of_result : int;  (** the traversal's sum — must agree across modes *)
}

type offload_row = {
  of_repeats : int;
  of_eager : offload_run;  (** eager closure ships the tree, walks local *)
  of_lazy : offload_run;  (** lazy faulting, walks local *)
  of_always : offload_run;  (** every traversal shipped to the home *)
}

val default_offload_repeats : int list

(** [offload_sweep ()] measures one session of K tree-sum traversals
    per transfer mode at each repeat point. *)
val offload_sweep :
  ?depth:int -> ?repeat_points:int list -> unit -> offload_row list

type offload_adaptive_point = {
  oa_repeats : int;
  oa_sessions : int;  (** sessions the learner observed *)
  oa_run : offload_run;  (** whole sweep: all sessions, learner in charge *)
  oa_choice : string;  (** {!Srpc_policy.Engine.offload_choice} at the end *)
}

(** [offload_adaptive ~repeats ()] runs [sessions] sessions of
    [repeats] traversals each, letting the per-type two-arm learner
    pick each session's transfer mode and feeding back per-traversal
    seconds; reports the learner's converged verdict. [link_cost]
    defaults to a long-haul link: real per-frame latency, and a pipe
    where shipping the whole closure costs a handful of round trips —
    the regime where the reuse count genuinely decides between
    offloading and fetching. *)
val offload_adaptive :
  ?depth:int ->
  ?sessions:int ->
  ?link_cost:Srpc_simnet.Cost_model.t ->
  repeats:int ->
  unit ->
  offload_adaptive_point

val offload_adaptive_sweep :
  ?depth:int ->
  ?sessions:int ->
  ?repeat_points:int list ->
  unit ->
  offload_adaptive_point list

val pp_offload :
  Format.formatter -> offload_row list * offload_adaptive_point list -> unit
