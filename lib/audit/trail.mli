(** The TMF audit trail.

    One audit trail per node, resident on its own volume and managed (in
    the real system) by a standard Disk Process whose audit-writing path is
    optimized for long sequential bulk I/Os. This module reproduces that
    behaviour:

    - records are staged in an audit buffer (default 28 KB);
    - the buffer is flushed to the audit volume with bulk writes when it
      fills ({e buffer-full flush}), when a group-commit timer expires
      ({e timer flush}), or when the WAL protocol forces it ({e force});
    - transactions whose COMMIT record is in the buffer wait for the flush
      that makes it durable — every flush thus commits a {e group} of
      transactions [Gawlick];
    - because field compression makes buffer-full flushes rarer, a timer
      forces out pending commits from a partially full buffer; following
      [Helland], the timer adapts to the observed transaction rate. *)

type t

type flush_reason = Flush_full | Flush_timer | Flush_force

val create : Nsql_sim.Sim.t -> Nsql_disk.Disk.t -> t

(** [volume t] is the audit volume the trail writes to — exposed so the
    chaos layer can stall it. *)
val volume : t -> Nsql_disk.Disk.t

(** [append t ~tx body] stages a record and returns its LSN. May trigger a
    buffer-full flush. *)
val append : t -> tx:int -> Audit_record.body -> int64

(** [next_lsn t] is the LSN the next append will receive. *)
val next_lsn : t -> int64

(** [durable_lsn t] is the highest LSN safely on the audit volume. *)
val durable_lsn : t -> int64

(** [force t lsn] synchronously makes the trail durable through [lsn]
    (write-ahead-log servicing for the cache manager). *)
val force : t -> int64 -> unit

(** [request_commit t ~tx ~alone lsn] registers a commit waiting on [lsn]
    and feeds its arrival to the timer's adaptation. [alone] says that no
    other transaction is in flight, so none could join the commit's group:
    the trail then flushes at once. Otherwise it arms the group-commit
    timer if no timer is armed. *)
val request_commit : t -> tx:int -> alone:bool -> int64 -> unit

(** [await_durable t lsn] advances simulated time until [lsn] is durable
    (the group-commit wait). *)
val await_durable : t -> int64 -> unit

(** [end_pos t] is the stream position at which the next record starts. *)
val end_pos : t -> int

(** [read_at t pos] is the record at stream position [pos], durable or
    staged, read without I/O: how backout reads a transaction's records. *)
val read_at : t -> int -> Audit_record.t

(** [read_durable t] reads back every durable record from the volume, in
    LSN order — the restart-recovery scan. *)
val read_durable : t -> Audit_record.t list

(** [set_timer_us t us] pins the group-commit timer (disables adaptation
    for experiment E7 sweeps). *)
val set_timer_us : t -> float -> unit

(** [current_timer_us t] is the timer in effect. *)
val current_timer_us : t -> float
