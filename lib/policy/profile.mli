(** Online access-pattern profile.

    The paper tunes the closure budget by hand and leaves the shape of
    the shipped subset of the transitive closure as an open problem
    (section 6). This module is the measurement half of the feedback
    loop that closes it: the runtime reports, per pointed-to type and
    per (parent type, field) edge, what became of every datum the
    closure engine moved — prefetched and then touched, prefetched and
    never touched (wasted bytes), demand-fetched after a fault (a
    callback stall), or skipped and never missed.

    Events accumulate into the current window; {!end_window} rolls the
    window into a bounded sliding history (one window per session is the
    intended cadence). {!summary} aggregates the most recent windows so
    the controller reacts to recent behavior, not the whole past. *)

type t

(** What became of one pointed-to datum, observed from the parent field
    that referenced it. *)
type edge_outcome =
  | Prefetched_touched  (** shipped speculatively, then used *)
  | Prefetched_wasted  (** shipped speculatively, never used *)
  | Demanded  (** not shipped; the program faulted and fetched it *)
  | Avoided  (** not shipped, and the program never needed it *)

val create : ?max_windows:int -> unit -> t

(** {1 Event feed (called by the runtime)} *)

(** [prefetched t ~ty ~bytes]: a datum of [ty] was installed without the
    receiver having asked for it. *)
val prefetched : t -> ty:string -> bytes:int -> unit

(** [demand_fetched t ~ty ~bytes]: a datum of [ty] was fetched because a
    fault demanded it. *)
val demand_fetched : t -> ty:string -> bytes:int -> unit

(** [stall t ~ty ~seconds]: the program was blocked [seconds] of
    simulated time on a fetch round trip attributed to [ty]. *)
val stall : t -> ty:string -> seconds:float -> unit

(** [outcome t ~ty ~bytes ~touched]: a prefetched datum's fate at
    invalidation time. *)
val outcome : t -> ty:string -> bytes:int -> touched:bool -> unit

(** [edge t ~ty ~field ~outcome ~bytes]: the fate of a child referenced
    by direct field [field] of a cached parent of type [ty]. *)
val edge : t -> ty:string -> field:string -> outcome:edge_outcome -> bytes:int -> unit

(** [end_window t] rolls the current window into the history. *)
val end_window : t -> unit

(** {1 Aggregation (consumed by the controller)} *)

type type_summary = {
  ts_prefetched_bytes : int;
  ts_touched_bytes : int;  (** prefetched and touched *)
  ts_wasted_bytes : int;  (** prefetched, never touched *)
  ts_demand_bytes : int;
  ts_demand_count : int;
  ts_stall_seconds : float;
}

type edge_summary = {
  es_prefetched : int;  (** children shipped speculatively *)
  es_touched : int;  (** ... of which touched *)
  es_demanded : int;  (** children fetched on a fault *)
  es_avoided : int;  (** children neither shipped nor missed *)
  es_wasted_bytes : int;
}

type summary = {
  types : (string * type_summary) list;
  edges : ((string * string) * edge_summary) list;
      (** keyed by (parent type, field) *)
}

(** [summary t ~windows] aggregates the last [windows] closed windows
    (the open current window is not included). *)
val summary : t -> windows:int -> summary

(** Closed windows currently held. *)
val window_count : t -> int
