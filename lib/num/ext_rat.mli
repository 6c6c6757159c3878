(** Rationals extended with [+oo].

    The platform model of §2 allows [w_i = +oo] (a node that can forward
    data but not compute) and [c_ij = +oo] (no link).  Only the operations
    meaningful for such cost parameters are provided; in particular there
    is no [oo - oo]. *)

type t =
  | Fin of Rat.t
  | Inf  (** [+oo] *)

val zero : t
val one : t
val inf : t
val of_rat : Rat.t -> t
val of_int : int -> t
val of_ints : int -> int -> t

val is_inf : t -> bool
val is_finite : t -> bool

val fin_exn : t -> Rat.t
(** @raise Invalid_argument on [Inf]. *)

val equal : t -> t -> bool
val compare : t -> t -> int
(** Total order with [Inf] greater than every finite value. *)

val add : t -> t -> t
val mul : t -> t -> t
(** @raise Invalid_argument on [0 * oo]. *)

val inv : t -> t
(** [inv Inf = Fin 0]; [inv (Fin 0)] raises [Division_by_zero].
    The inverse of a weight is a speed: an infinitely slow node computes
    at rate zero, which is exactly how [w_i = +oo] enters the LPs. *)

val min : t -> t -> t
val max : t -> t -> t

val of_string : string -> t
(** ["inf"] or anything {!Rat.of_string} accepts. *)

val of_substring : string -> int -> int -> t
(** [of_substring s pos len] is [of_string (String.sub s pos len)],
    read in place when the value is a plain number.  A shared small
    value ({!Rat.of_substring}) comes with a shared [Fin] wrapper, so it
    allocates nothing. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
