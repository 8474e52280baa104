(** Simulation parameters: era-faithful defaults.

    The model is a late-1980s Tandem NonStop VLX-class configuration:
    4 KB disk blocks, 28 KB maximum bulk transfer, ~25 ms disk access time,
    millisecond-scale interprocess messages. The cost model is a set of
    fixed constants below; the record holds only the knobs that select a
    mechanism or size a resource. Absolute times only set the scale of
    reported simulated times; the reproduced results are ratios of
    message/IO/byte counts, which do not depend on them.

    Every time constant is a binary-exact multiple of 0.25 µs, which the
    monitor's exact category tiling relies on (see [Moncore]). *)

val block_size : int
(** bytes per disk block (paper: 4 KB max) *)

val msg_local_cost_us : float
(** fixed cost, same-processor message *)

val msg_cpu_cost_us : float
(** fixed cost, cross-processor message *)

val msg_node_cost_us : float
(** fixed cost, cross-node message *)

val msg_per_byte_us : float
(** marginal cost per payload byte *)

val disk_seek_us : float
(** average seek + rotational delay *)

val disk_sequential_us : float
(** settle cost when physically sequential *)

val disk_per_block_us : float
(** media transfer time per block *)

val cpu_tick_us : float
(** duration of one simulated CPU tick *)

val group_commit_timer_us : float
(** initial group-commit timer *)

type t = {
  bulk_io_max_bytes : int;  (** max bytes per bulk I/O (paper: 28 KB) *)
  cache_blocks : int;  (** buffer-pool capacity in blocks *)
  vsbb_buffer_bytes : int;  (** reply buffer for virtual/real blocks *)
  audit_buffer_bytes : int;  (** audit (log) staging buffer *)
  dp_records_per_request : int;
      (** continuation re-drive limit: max records examined per FS-DP
          request message before the DP replies with a continuation *)
  dp_ticks_per_request : int;
      (** continuation re-drive limit: max CPU ticks per request *)
  dp_prefetch : bool;
      (** asynchronous sequential pre-fetch in the DP; on by default, off
          only in E5's no-pre-fetch runs *)
  fs_fanout : bool;
      (** drive partitioned files with overlapped (nowait) requests; when
          false the File System uses the blocking one-partition-at-a-time
          driver (the pre-nowait behaviour). On by default; off in E17's
          sequential runs, the [queries_sequential] golden and the
          sequential cases of test_fanout and test_redrive *)
  dp_lock_wait : bool;
      (** park a blocked point request on a DP-side FIFO wait queue (with
          deadlock detection and a {!lock_wait_timeout_us} budget) instead
          of answering with an immediate denial; off by default so
          single-session workloads keep byte-identical message traffic.
          On in E20 (and the other contended-transfer experiments), the
          [xfer_contend] benchmark workload, the [transfers] golden and
          the chaos contention runs *)
  disk_queue_depth : int;
      (** number of I/Os a volume services concurrently (io_uring-style
          submission/completion channels). 1 — the default — serializes
          every I/O behind a single busy window, byte-identical in
          results, counters and clock to the pre-queue-model disk
          (test-enforced); deeper queues overlap seeks and transfers
          across channels, and pre-fetch, write-behind and the DP scan
          read-ahead keep that many bulk windows in flight *)
  lock_wait_timeout_us : float;  (** lock wait before timeout abort *)
  mirrored : bool;
      (** mirrored volume writes: every volume of the world doubles its
          physical writes. Off by default; on in test_protocol's and
          test_sim's mirrored-volume cases *)
}

val default : t

(** [v ()] builds a configuration from [default] with optional overrides.
    Raises [Invalid_argument] naming the field when
    [lock_wait_timeout_us] is not a positive multiple of 0.25 µs, or when
    a count or size other than [disk_queue_depth] (which [Disk.create]
    checks) is below 1. *)
val v :
  ?bulk_io_max_bytes:int ->
  ?cache_blocks:int ->
  ?vsbb_buffer_bytes:int ->
  ?audit_buffer_bytes:int ->
  ?dp_records_per_request:int ->
  ?dp_ticks_per_request:int ->
  ?dp_prefetch:bool ->
  ?fs_fanout:bool ->
  ?dp_lock_wait:bool ->
  ?disk_queue_depth:int ->
  ?lock_wait_timeout_us:float ->
  ?mirrored:bool ->
  unit ->
  t
