(** Entry-sequenced files: ENSCRIBE's insert-at-EOF structure.

    Records are appended at end-of-file and addressed by the record address
    assigned at insert time; existing records are read-only (no in-place
    update or delete), exactly like the original access method. Natural fit
    for history/journal user files. *)

type t

val create : Nsql_sim.Sim.t -> Nsql_cache.Cache.t -> t

val record_count : t -> int

(** [fits t record] — does [record] fit in a block? *)
val fits : t -> string -> bool

(** [append t ~record ~lsn] adds a record at EOF and returns its address. *)
val append : t -> record:string -> lsn:int64 -> (int, Nsql_util.Errors.t) result

(** [read t ~addr] is the record at [addr], [None] where no record
    starts (past EOF, or inside another record). *)
val read : t -> addr:int -> string option

(** [next_from t ~addr] is the first record at or after address [addr],
    with its address — the sequential-read primitive. *)
val next_from : t -> addr:int -> (int * string) option

(** [truncate_to t ~addr ~lsn] discards the record at [addr] and everything
    after it — the undo of appends (appends are the only mutation, so
    within a transaction they can only be compensated back-to-front). *)
val truncate_to : t -> addr:int -> lsn:int64 -> (unit, Nsql_util.Errors.t) result

(** [last_addr t ~record] is the address of the last record, which must be
    [record] ([None] if the file is empty), found without I/O. *)
val last_addr : t -> record:string -> int option

(** [iter t f] applies [f addr record] in insertion order. *)
val iter : t -> (int -> string -> unit) -> unit
