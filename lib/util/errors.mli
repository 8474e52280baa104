(** Common error type shared by every subsystem of the reproduction.

    All fallible public operations return [('a, Errors.t) result]. The
    constructors mirror the error classes of the original system: file-system
    errors, disk-process errors, transaction aborts, and SQL front-end
    errors. *)

type t =
  | Not_found_key of string  (** no record with the given (encoded) key *)
  | Duplicate_key of string  (** unique-key violation on insert *)
  | File_not_found of string  (** unknown file name *)
  | File_exists of string  (** create of an existing file *)
  | Bad_request of string  (** malformed FS-DP request *)
  | Lock_timeout of string  (** lock wait aborted: timeout or deadlock *)
  | Tx_aborted of string  (** transaction was aborted *)
  | No_transaction  (** operation requires an active transaction *)
  | Constraint_violation of string  (** CHECK constraint rejected an update *)
  | Type_error of string  (** expression/type mismatch *)
  | Parse_error of string  (** SQL syntax error *)
  | Name_error of string  (** unknown table/column/index *)
  | Invalid_argument_error of string  (** bad parameter to a public API *)
  | Io_error of string  (** simulated device failure *)
  | Internal of string  (** invariant violation: a bug in this library *)
  | Deadlock of string
      (** transaction chosen as deadlock victim; the request was denied and
          the caller should abort and retry *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val equal : t -> t -> bool

(** [fail e] is [Error e]. *)
val fail : t -> ('a, t) result

(** Monadic bind for [('a, t) result]; also available as [let*]. *)
val ( let* ) : ('a, t) result -> ('a -> ('b, t) result) -> ('b, t) result

(** [list_iter f xs] applies [f] to each element, stopping at the first
    error. *)
val list_iter : ('a -> (unit, t) result) -> 'a list -> (unit, t) result

(** [list_map f xs] maps [f], stopping at the first error. *)
val list_map : ('a -> ('b, t) result) -> 'a list -> ('b list, t) result

(** [get_ok ~ctx r] unwraps [r], raising [Failure] with [ctx] and the error
    text if [r] is an [Error]. Only for tests, examples and benches. *)
val get_ok : ctx:string -> ('a, t) result -> 'a

(** Unrecoverable invariant violation in a protocol path: an audited
    operation failed to apply, a backout could not compensate a record, or an
    abort could not complete. Distinct from [Failure] so callers cannot
    confuse a corruption signal with an ordinary error message. *)
exception Fatal of string

(** [fatal msg] raises {!Fatal}. The nsql-lint rule ERR-SWALLOW bans bare
    [failwith] in protocol paths ([lib/dp], [lib/fs], [lib/msg], [lib/dtx],
    [lib/tmf]); this is the sanctioned replacement for genuine
    can't-happen failures. *)
val fatal : string -> 'a
