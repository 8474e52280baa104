(** Simulation statistics.

    Every subsystem charges its activity to the statistics record of the
    simulation world it belongs to. Experiments snapshot the counters around
    a measured region ({!diff}) — message counts, I/O counts and bytes moved
    are the quantities the paper's claims are stated in. *)

type t = {
  mutable msgs_sent : int;  (** request messages (FS-DP and others) *)
  mutable msg_req_bytes : int;  (** request payload bytes *)
  mutable msg_reply_bytes : int;  (** reply payload bytes *)
  mutable msgs_remote : int;  (** messages that crossed a processor *)
  mutable msgs_internode : int;  (** messages that crossed a node *)
  mutable checkpoint_msgs : int;  (** primary-to-backup checkpoints *)
  mutable checkpoint_bytes : int;
  mutable disk_reads : int;  (** read I/O operations *)
  mutable disk_writes : int;  (** write I/O operations *)
  mutable blocks_read : int;  (** blocks transferred by reads *)
  mutable blocks_written : int;
  mutable bulk_reads : int;  (** read I/Os moving more than one block *)
  mutable bulk_writes : int;
  mutable prefetch_reads : int;  (** asynchronous pre-fetch I/Os *)
  mutable writebehind_writes : int;  (** asynchronous write-behind I/Os *)
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable cache_steals : int;  (** frames surrendered to VM pressure *)
  mutable cpu_ticks : int;  (** simulated instruction units *)
  mutable lock_requests : int;
  mutable lock_conflicts : int;  (** conflicts answered with an immediate denial *)
  mutable lock_waits : int;  (** requests parked on a DP wait queue *)
  mutable deadlocks : int;  (** wait-for cycles detected (victim denied) *)
  mutable audit_records : int;
  mutable audit_bytes : int;
  mutable audit_flushes : int;  (** physical writes of the audit buffer *)
  mutable audit_flush_full : int;  (** flushes caused by buffer-full *)
  mutable audit_flush_timer : int;  (** flushes caused by the timer *)
  mutable group_commit_txs : int;  (** transactions committed by flushes *)
  mutable tx_begun : int;
  mutable tx_committed : int;
  mutable tx_aborted : int;
  mutable records_read : int;  (** records examined by the Disk Process *)
  mutable records_returned : int;  (** records shipped to the requester *)
  mutable exec_batches : int;
      (** reply buffers absorbed into an executor-visible scan batch *)
  mutable exec_rows : int;  (** rows flowing out of scan batches *)
  mutable redrives : int;  (** continuation re-drive messages *)
  mutable faults_injected : int;  (** faults applied by the chaos engine *)
  mutable msg_path_retries : int;  (** message-path failures retried *)
  mutable disk_transient_errors : int;  (** transient I/O errors retried *)
  mutable takeovers : int;  (** process-pair takeovers performed *)
}

val create : unit -> t

(** [copy t] is an independent snapshot. *)
val copy : t -> t

(** [diff ~before ~after] is the per-counter difference. *)
val diff : before:t -> after:t -> t

(** [add a b] sums two statistics records into a fresh one. *)
val add : t -> t -> t

(** [map2 f a b] applies [f] to every counter pair into a fresh record.
    Because it names every field, it is the one place that must grow when a
    counter is added — tests exploit that to check {!pp} completeness. *)
val map2 : (int -> int -> int) -> t -> t -> t

val pp : Format.formatter -> t -> unit

(** [pp_brief] prints only the message/IO counters that the experiments
    report. *)
val pp_brief : Format.formatter -> t -> unit

(** [to_assoc t] lists (name, value) for every counter, for table output. *)
val to_assoc : t -> (string * int) list
