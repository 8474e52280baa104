(** ENSCRIBE: the pre-existing record-at-a-time DBMS interface.

    The application calls OPEN / KEYPOSITION / READ / READNEXT / WRITE /
    REWRITE / DELETE / LOCKFILE explicitly, one record per call — and with
    the exception of sequential block buffering, one FS-DP message per
    call. This is the baseline the paper compares NonStop SQL against.

    Sequential block buffering (SBB): when enabled at open, READNEXT
    fetches a whole physical block per message and de-blocks locally.
    Faithful to the original restriction, SBB reads take no record locks —
    the caller must hold a file lock (see the paper: "no locking other
    than at the file level is effective when it is in use"); [readnext]
    enforces this by requiring that [lockfile] was called first when the
    open is SBB.

    Every call serves every file kind, because a key addresses a record in
    each: a key-sequenced record by its primary key, a relative record by
    [Keycode.of_int slot], an entry-sequenced record by [Keycode.of_int
    addr] (its byte address, assigned when [write] appends it). [readnext]
    returns those keys. Under SBB a relative or entry-sequenced file ships
    one record per reply, as without it; only a key-sequenced file ships a
    block. ENSCRIBE defines no [rewrite] or [delete] on an entry-sequenced
    file: both answer [Bad_request] and change nothing. A record number
    key must be the one [Keycode.of_int] builds; any other 8-byte spelling
    answers [Bad_request]. An append locks only the file's EOF, not the
    new entry's key, so a [read] or [readnext] of an entry-sequenced file
    can see another transaction's uncommitted append. *)

module Fs = Nsql_fs.Fs
module Dp_msg = Nsql_dp.Dp_msg

type handle

(** [open_file fs file ~sbb] opens an ENSCRIBE access path. *)
val open_file : Fs.t -> Fs.file -> sbb:bool -> handle

(** [keyposition h ~key] positions the current-record pointer so the next
    [readnext] returns the first record with key [>= key]. *)
val keyposition : handle -> key:string -> unit

(** [read h ~tx ~key ~lock] reads the record with exactly [key]. *)
val read :
  handle -> tx:int -> key:string -> lock:Dp_msg.lock_mode ->
  (string, Nsql_util.Errors.t) result

(** [readnext h ~tx ~lock] returns the next record in key sequence, or
    [None] at end-of-file. Under SBB, de-blocks locally ([lock] must be
    [L_none]; file locking governs). *)
val readnext :
  handle -> tx:int -> lock:Dp_msg.lock_mode ->
  ((string * string) option, Nsql_util.Errors.t) result

(** [write h ~tx ~key ~record] inserts a record; on an entry-sequenced
    file it appends at EOF and [key] is not used. *)
val write :
  handle -> tx:int -> key:string -> record:string ->
  (unit, Nsql_util.Errors.t) result

(** [rewrite h ~tx ~key ~record] replaces an existing record (the caller
    has typically just [read] it — the read-before-write message pattern
    whose elimination motivates the SQL update-expression pushdown). *)
val rewrite :
  handle -> tx:int -> key:string -> record:string ->
  (unit, Nsql_util.Errors.t) result

(** [delete h ~tx ~key] removes a record. *)
val delete : handle -> tx:int -> key:string -> (unit, Nsql_util.Errors.t) result

(** [lockfile h ~tx ~lock] locks every partition of the file. *)
val lockfile :
  handle -> tx:int -> lock:Dp_msg.lock_mode -> (unit, Nsql_util.Errors.t) result

(** [lockgeneric h ~tx ~prefix ~lock] locks every record whose key starts
    with [prefix] with one acquisition. *)
val lockgeneric :
  handle -> tx:int -> prefix:string -> lock:Dp_msg.lock_mode ->
  (unit, Nsql_util.Errors.t) result
