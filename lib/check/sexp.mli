(** Minimal s-expression reader/printer for replay files.

    The toolchain has no sexp library baked in, so the harness carries
    its own ~80-line codec: atoms are runs of non-whitespace,
    non-parenthesis characters (enough for identifiers and numbers;
    [;] starts a comment through end of line). *)

type t = Atom of string | List of t list

exception Parse_error of string

(** [of_string s] parses exactly one s-expression (surrounding
    whitespace and comments allowed).
    @raise Parse_error on malformed input. *)
val of_string : string -> t

(** [to_string t] renders with line breaks and indentation. *)
val to_string : t -> string

val pp : Format.formatter -> t -> unit

(** Helpers used by the script codec. *)

val to_int : t -> int
val to_float : t -> float
val int : int -> t
val float : float -> t
