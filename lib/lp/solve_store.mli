(** Crash-safe, disk-backed record store for exact LP solves.

    A store is a directory of small record files, one per key (the
    key is {!Lp}'s canonical model string; the value is an encoded
    solve result).  The store is shared between processes — the CLI,
    the bench and the test-suite can all point at one directory — and
    is designed so that {e nothing} that happens to the bytes on disk
    can ever change an answer or raise out of {!find}/{!add}:

    - {b Atomic commits.}  A record is written to a process-unique
      tempfile in the store directory and published with [rename];
      a writer killed at any byte leaves either the old record, the
      new record, or an orphaned tempfile (swept later) — never a
      half-written record under the live name.
    - {b Validation.}  Every record carries a format-version magic, the
      payload byte count and an FNV-1a/64 checksum; the stored key is
      compared against the requested key.  Truncations, bit-flips and
      version skew all fail validation.
    - {b Quarantine.}  A record that fails validation is moved into the
      [quarantine/] sub-directory (bounded; oldest dropped) and the
      lookup reports a miss: a corrupted cache costs time, never
      correctness, and the bad bytes are kept for post-mortem instead
      of being re-read forever.
    - {b LRU eviction.}  Hits refresh a record's timestamp; when the
      directory exceeds the entry or byte budget, the stalest records
      are unlinked first.
    - {b Advisory locking.}  Commits and eviction sweeps serialise on
      a [flock]-style advisory lock file, so concurrent writers (CLI +
      bench + [dune runtest] over one directory) do not interleave
      sweeps.  Readers never lock: [rename] atomicity is enough.

    The store neither knows nor cares what the value bytes mean;
    {!Lp.Cache} layers the exact solve semantics on top. *)

type t

val open_store : ?max_entries:int -> ?max_bytes:int -> string -> t
(** [open_store dir] opens (creating it if needed) a store rooted at
    [dir]; its [quarantine/] sub-directory is made when a first record
    is moved there, and when it cannot be (a plain file of that name,
    say) the record is removed instead.  Budgets default
    to 4096 entries / 64 MiB; eviction keeps the store strictly under
    both.  Opening also sweeps tempfiles orphaned by crashed writers
    (older than the in-flight grace period), so a store that is only
    ever read still reclaims the debris of past kills; the sweep
    swallows its own I/O errors.  This is the only function that raises
    on I/O failure
    ([Sys_error]/[Unix.Unix_error], e.g. an uncreatable directory):
    a store that cannot even be opened should be reported to the user,
    whereas a store that merely goes bad underneath us degrades to
    misses.
    @raise Invalid_argument if a budget is [<= 0]. *)

val dir : t -> string

val find : t -> string -> string option
(** [find t key] is the value committed under [key], or [None] — a miss
    on absence, hash-collision, or any validation failure (the record is
    then quarantined).  Never raises; a hit refreshes the record's LRU
    timestamp. *)

val add : t -> string -> string -> unit
(** [add t key value] atomically commits [value] under [key] (replacing
    any previous record) and then enforces the budgets; an eviction
    that unlinks a record also sweeps orphaned tempfiles, which a
    commit otherwise leaves to the next {!open_store}.  I/O failure
    (disk full, permissions) silently degrades to not-stored.  Never
    raises. *)

val quarantine : t -> string -> unit
(** [quarantine t key] demotes the record stored under [key] without
    reading it — for callers whose higher-level decoding of a
    checksum-valid value fails (version skew in the value encoding).
    Never raises. *)

(** {1 Counters (this handle only, not cross-process)} *)

val hits : t -> int
val misses : t -> int
val stores : t -> int
(** Successful commits. *)

val evictions : t -> int
(** Records unlinked by LRU sweeps this handle ran. *)

val quarantined : t -> int
(** Records this handle moved to [quarantine/] (validation failures
    plus explicit {!quarantine} calls). *)

(** {1 Introspection (scans the directory)} *)

val entries : t -> int
(** Live records on disk right now. *)

val bytes : t -> int
(** Total size of live records on disk right now. *)

(** {1 Record-format internals, exposed for the corruption harness} *)

val record_path : t -> string -> string
(** Absolute path the record for a key lives at (whether or not it
    exists): the file the fuzz tests truncate and bit-flip. *)

val checksum : string -> string
(** The FNV-1a/64 hex digest records embed — exposed so tests can
    distinguish "checksum caught it" from "length caught it". *)

val digest : string -> string
(** 128-bit hex digest of a key (two FNV-1a/64 passes under independent
    bases) — the record filename stem.  The full key is echoed in the
    record, so a digest collision degrades to a miss, never a wrong
    answer. *)
