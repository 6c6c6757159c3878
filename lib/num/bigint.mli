(** Arbitrary-precision signed integers.

    Vendored bignum substrate: the sealed build environment provides no
    [zarith], yet exact rational linear programming — the backbone of
    steady-state scheduling — needs integers that never overflow (simplex
    pivots and lcm-based period computations grow coefficients quickly).

    Values are immutable.  The representation is sign–magnitude with
    little-endian limbs in base 2^30, chosen so that a limb product plus
    carries always fits in OCaml's 63-bit native [int]. *)

type t

(** {1 Constants} *)

val zero : t
val one : t
val two : t
val minus_one : t

(** {1 Conversions} *)

val of_int : int -> t

val to_int : t -> int
(** @raise Failure if the value does not fit in a native [int]. *)

val to_int_opt : t -> int option

val to_float : t -> float
(** Nearest-ish float; intended for reporting, not exact arithmetic. *)

val of_string : string -> t
(** Parses an optional [+]/[-] sign followed by decimal digits.
    @raise Invalid_argument on any other input. *)

val to_string : t -> string

val pp : Format.formatter -> t -> unit

(** {1 Tests and comparisons} *)

val sign : t -> int
(** [-1], [0] or [1]. *)

val is_zero : t -> bool
val is_one : t -> bool
val is_negative : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val min : t -> t -> t
val max : t -> t -> t

(** {1 Arithmetic} *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val succ : t -> t
val mul : t -> t -> t
(** Schoolbook below ~960 bits, Karatsuba above. *)

val mul_schoolbook : t -> t -> t
(** Always-schoolbook multiplication; exists so the test-suite can
    cross-check the Karatsuba path against an independent
    implementation. *)

val divmod : t -> t -> t * t
(** [divmod a b] is [(q, r)] with [a = q*b + r] and [0 <= r < |b|]
    (Euclidean division: the remainder is never negative).
    @raise Division_by_zero if [b] is zero. *)

val div : t -> t -> t
(** Euclidean quotient, see {!divmod}. *)

val rem : t -> t -> t
(** Euclidean remainder, see {!divmod}. *)

val mul_int : t -> int -> t
val add_int : t -> int -> t

val pow : t -> int -> t
(** [pow b e] for [e >= 0].  @raise Invalid_argument on negative exponent. *)

val gcd : t -> t -> t
(** Non-negative gcd; [gcd zero zero = zero]. *)

val lcm : t -> t -> t
(** Non-negative lcm; zero if either argument is zero. *)

(** {1 Infix operators} *)

module Infix : sig
  val ( + ) : t -> t -> t
  val ( - ) : t -> t -> t
  val ( * ) : t -> t -> t
  val ( / ) : t -> t -> t
  val ( mod ) : t -> t -> t
  val ( ~- ) : t -> t
  val ( = ) : t -> t -> bool
  val ( < ) : t -> t -> bool
  val ( <= ) : t -> t -> bool
  val ( > ) : t -> t -> bool
  val ( >= ) : t -> t -> bool
end
