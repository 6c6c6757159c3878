(** Exact rational numbers.

    The whole steady-state machinery — LP activity variables, periods
    obtained as lcm of denominators, simulated time — runs on exact
    rationals so that feasibility checks are equalities, never epsilon
    comparisons.  Values are normalised: the denominator is positive and
    coprime with the numerator; zero is [0/1].

    The representation is a tagged union with a small-integer fast path:
    when both numerator and denominator fit a native [int] the value is
    stored untagged and all arithmetic runs on overflow-checked native
    ints, falling back to the {!Bigint} substrate only on overflow.  The
    representation is canonical (small whenever it fits), so structural
    equality still coincides with numeric equality. *)

type t

(** {1 Constants} *)

val zero : t
val one : t
val two : t
val minus_one : t

(** {1 Construction} *)

val make : Bigint.t -> Bigint.t -> t
(** [make num den] is the normalised rational [num/den].
    @raise Division_by_zero if [den] is zero. *)

val of_bigint : Bigint.t -> t
val of_int : int -> t

val of_ints : int -> int -> t
(** [of_ints a b] is [a/b].  @raise Division_by_zero if [b = 0]. *)

val of_string : string -> t
(** Accepts ["a"], ["a/b"] and decimal notation ["a.b"] with optional
    sign.  @raise Invalid_argument on malformed input, a zero
    denominator included. *)

val of_substring : string -> int -> int -> t
(** [of_substring s pos len] is [of_string (String.sub s pos len)]; the
    common short forms (at most 18 digits per part) are read in place,
    without the copy or a {!Bigint} detour. *)

(** {1 Accessors} *)

val num : t -> Bigint.t
val den : t -> Bigint.t

(** {1 Tests and comparisons} *)

val sign : t -> int
val is_zero : t -> bool
val is_integer : t -> bool

val fits_small : t -> bool
(** [true] iff the value is carried by the native-int fast path.  The
    representation is canonical, so this is a property of the value, not
    of how it was computed — useful for tests and diagnostics. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val min : t -> t -> t
val max : t -> t -> t

(** {1 Arithmetic} *)

val neg : t -> t
val abs : t -> t
val inv : t -> t
(** @raise Division_by_zero on zero. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** @raise Division_by_zero if the divisor is zero. *)

val submul : t -> t -> t -> t
(** [submul a b c] is exactly [sub a (mul b c)], fused: the row
    operation of exact elimination.  On the small-integer path the
    product is cross-reduced and fed directly into the fraction
    addition without materialising the intermediate value. *)

val mul_int : t -> int -> t
val div_int : t -> int -> t

val floor : t -> Bigint.t
(** Greatest integer [<= t]. *)

val ceil : t -> Bigint.t
(** Least integer [>= t]. *)

val to_float : t -> float

val to_int_exn : t -> int
(** @raise Failure if not an integer fitting in a native [int]. *)

(** {1 Printing} *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit

(** {1 Infix operators} *)

module Infix : sig
  val ( + ) : t -> t -> t
  val ( - ) : t -> t -> t
  val ( * ) : t -> t -> t
  val ( / ) : t -> t -> t
  val ( ~- ) : t -> t
  val ( = ) : t -> t -> bool
  val ( <> ) : t -> t -> bool
  val ( < ) : t -> t -> bool
  val ( <= ) : t -> t -> bool
  val ( > ) : t -> t -> bool
  val ( >= ) : t -> t -> bool
end

(** {1 Aggregates} *)

val sum : t list -> t
val lcm_denominators : t list -> Bigint.t
(** Least common multiple of the denominators; [one] on the empty list.
    Scaling every element of the list by this integer yields integers:
    this is exactly how a steady-state period is derived from the LP
    solution (§3.1 of the paper). *)
