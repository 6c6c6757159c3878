(** Text format for platforms.

    One declaration per line; [#] starts a comment; blank lines ignored.
    Words are separated by spaces, tabs or carriage returns, so a CRLF
    file reads as its LF twin.

    {v
    node P1 w=2
    node P2 w=inf
    edge P1 P2 c=3/2        # oriented edge
    link P1 P2 c=3/2        # shorthand for both directions
    v}

    Weights accept integers, fractions, decimals or [inf]; costs must be
    finite and positive. *)

val of_string : string -> Platform.t
(** @raise Invalid_argument with a line-numbered message on bad input. *)

val of_file : string -> Platform.t
(** @raise Sys_error, with a message that names [path], if [path] is not
    a regular file or cannot be read;
    @raise Invalid_argument on bad content. *)

val to_string : Platform.t -> string
(** Round-trips through {!of_string}. *)
