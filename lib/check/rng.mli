(** Hand-rolled splitmix64 PRNG for the script generator.

    [Random.State] changed its algorithm between OCaml 4 and 5; a check
    seed must generate the identical script on every compiler the CI
    matrix runs, so the harness carries its own generator. *)

type t

val create : int -> t

(** [int t bound] is uniform-ish in [\[0, bound)]. [bound] must be
    positive. *)
val int : t -> int -> int

(** [range t lo hi] is inclusive on both ends. *)
val range : t -> int -> int -> int

val bool : t -> bool

(** [float t] is in [\[0, 1)]. *)
val float : t -> float
