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

(** [request_commit t ~can_grow ?on_durable lsn] registers a commit
    waiting on [lsn], feeds its arrival to the timer's adaptation, and
    runs [on_durable] at the flush that makes [lsn] durable (at once if it
    already is). [can_grow] says whether some in-flight transaction could
    still bring its commit to this group. If none could, the trail
    flushes at once; otherwise it arms the group-commit timer if no timer
    is armed. *)
val request_commit :
  t -> can_grow:bool -> ?on_durable:(unit -> unit) -> int64 -> unit

(** [close_group t] says that no transaction can join the pending group
    any more: if commits are pending, the trail flushes them at the
    current simulated time, through an event that re-arms the timer (the
    earlier arm's event then does nothing). *)
val close_group : t -> unit

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
