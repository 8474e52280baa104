(** TMF — the Transaction Monitoring Facility.

    Coordinates transactions across the Disk Processes of a node: assigns
    transaction identifiers, writes BEGIN/COMMIT/ABORT audit records to the
    shared audit trail, decides when a group commit can stop waiting, and
    drives backout on abort.

    Each Disk Process registers as the resource manager of its volume with
    an {e on-finish} hook (where two-phase locking releases its locks) and
    an {e undo} function, which applies {!Nsql_audit.Audit_record.invert}
    of a record. Every data record a transaction writes goes through
    {!log}; abort reads those records back from the trail, newest first,
    and hands each to the manager of the volume holding its file. Restart recovery is in {!Recovery}. *)

type t

val create : Nsql_sim.Sim.t -> Nsql_audit.Trail.t -> t

val trail : t -> Nsql_audit.Trail.t

(** [register_resource_manager t ~volume ~on_finish ~undo] adds the
    manager of [volume]: [on_finish] runs at every transaction completion,
    and [undo] backs out a data record of one of its files, auditing its
    inverse as the compensation. *)
val register_resource_manager :
  t ->
  volume:string ->
  on_finish:(int -> unit) ->
  undo:(Nsql_audit.Audit_record.t -> unit) ->
  unit

(** [begin_tx t] starts a transaction and returns its id. *)
val begin_tx : t -> int

(** [allocate_file_id t] hands out a node-global file identifier, so that
    audit records in the shared trail name files unambiguously across the
    node's Disk Processes. *)
val allocate_file_id : t -> int

(** [in_flight t ~tx] is true from [begin_tx] until [tx] commits or
    aborts. *)
val in_flight : t -> tx:int -> bool

(** [is_active t ~tx] is true for an in-flight transaction that is not
    prepared. *)
val is_active : t -> tx:int -> bool

(** [log t ~volume ~tx body] appends the data record [body] of the
    in-flight transaction [tx], a change to a file on [volume], to the
    trail and returns its LSN. The record is what restart replays and what
    {!abort} backs out, so it is logged only for a change that is then
    applied. *)
val log : t -> volume:string -> tx:int -> Nsql_audit.Audit_record.body -> int64

(** [volume_lost t ~volume] drops, from every in-flight transaction, the
    records logged for [volume]. Called when that volume crashes: restart
    recovery will treat the unfinished transactions as losers there, so
    backing the records out would double-undo. The transactions can still
    abort cleanly on the surviving volumes. *)
val volume_lost : t -> volume:string -> unit

(** [prepare t ~tx ~coordinator_node ~coordinator_tx] makes the
    transaction a ready branch of a network transaction: its PREPARE
    record is forced to the trail and its locks are retained until the
    coordinator's decision arrives. No further work is accepted. A branch
    that lost records to {!volume_lost} is aborted instead, answering
    [Tx_aborted], as {!commit} does. *)
val prepare :
  t -> tx:int -> coordinator_node:int -> coordinator_tx:int ->
  (unit, Nsql_util.Errors.t) result

(** [request_commit ?on_durable t ~tx] is the first half of a commit:
    it writes the COMMIT record and registers it with the trail, and
    [on_durable] runs at the flush that makes it durable. The answer is
    the COMMIT's LSN, or [None] for a transaction that logged no data
    record, which writes no COMMIT and waits for no flush.

    A transaction is {e running} while it is in flight, has not requested
    its commit, and has no request parked on a lock queue: only a running
    transaction can still bring its commit to the pending group. So if no
    other transaction runs when the COMMIT arrives, the trail flushes at
    once, and whenever the last running transaction stops (it parks, or
    aborts) while commits are pending, the trail flushes them at that
    moment ({!Nsql_audit.Trail.close_group}). Also commits a
    prepared branch when the coordinator's decision arrives. An active
    transaction that lost records to {!volume_lost} is aborted instead,
    answering [Tx_aborted]. *)
val request_commit :
  ?on_durable:(unit -> unit) ->
  t ->
  tx:int ->
  (int64 option, Nsql_util.Errors.t) result

(** [finish_commit t ~tx] is the second half: it counts the commit and
    releases the participants. Called once the COMMIT is durable. *)
val finish_commit : t -> tx:int -> unit

(** [commit t ~tx] is {!request_commit}, then the wait for the COMMIT to
    become durable, then {!finish_commit}: the blocking form. *)
val commit : t -> tx:int -> (unit, Nsql_util.Errors.t) result

(** [park t ~tx] and [unpark t ~tx] report that a request of [tx] joined
    or left a Disk Process lock queue (granted, denied, timed out, chosen
    as deadlock victim or flushed by a crash). Every park is matched by
    one unpark; a transaction that has finished is ignored. *)
val park : t -> tx:int -> unit

val unpark : t -> tx:int -> unit

(** [abort t ~tx] backs the transaction's records out, newest first,
    writes the ABORT record, and releases the participants. *)
val abort : t -> tx:int -> (unit, Nsql_util.Errors.t) result

(** [run t f] wraps [f] in a transaction: commits on [Ok], aborts on
    [Error] (returning the original error). *)
val run :
  t -> (int -> ('a, Nsql_util.Errors.t) result) -> ('a, Nsql_util.Errors.t) result
