(** Simulation parameters: era-faithful defaults, all overridable.

    The defaults model a late-1980s Tandem NonStop VLX-class configuration:
    4 KB disk blocks, 28 KB maximum bulk transfer, ~25 ms disk access time,
    millisecond-scale interprocess messages. Absolute values only set the
    scale of reported simulated times; the reproduced results are ratios of
    message/IO/byte counts, which do not depend on them. *)

type t = {
  block_size : int;  (** bytes per disk block (paper: 4 KB max) *)
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
  dp_checkpoint : bool;
      (** maintain a backup-side replica of takeover-relevant DP state
          (open SCBs, lock table, wait queues, mutation intents) applied
          from the checkpoint stream; pure backup-side bookkeeping — the
          knob changes no message traffic, clock or counters, only whether
          a takeover can resume in-flight work. On by default; off only in
          test_availability's unreplicated-takeover and replica-is-free
          cases *)
  disk_queue_depth : int;
      (** number of I/Os a volume services concurrently (io_uring-style
          submission/completion channels). 1 — the default — serializes
          every I/O behind a single busy window, byte-identical in
          results, counters and clock to the pre-queue-model disk
          (test-enforced); deeper queues overlap seeks and transfers
          across channels, and pre-fetch, write-behind and the DP scan
          read-ahead keep that many bulk windows in flight *)
  msg_local_cost_us : float;  (** fixed cost, same-processor message *)
  msg_cpu_cost_us : float;  (** fixed cost, cross-processor message *)
  msg_node_cost_us : float;  (** fixed cost, cross-node message *)
  msg_per_byte_us : float;  (** marginal cost per payload byte *)
  disk_seek_us : float;  (** average seek + rotational delay *)
  disk_sequential_us : float;  (** settle cost when physically sequential *)
  disk_per_block_us : float;  (** media transfer time per block *)
  cpu_tick_us : float;  (** duration of one simulated CPU tick *)
  lock_wait_timeout_us : float;  (** lock wait before timeout abort *)
  group_commit_timer_us : float;  (** initial group-commit timer *)
  mirrored : bool;
      (** mirrored volume writes: every volume of the world doubles its
          physical writes. Off by default; on in test_protocol's and
          test_sim's mirrored-volume cases *)
}

val default : t

(** [v ()] builds a configuration from [default] with optional overrides. *)
val v :
  ?block_size:int ->
  ?bulk_io_max_bytes:int ->
  ?cache_blocks:int ->
  ?vsbb_buffer_bytes:int ->
  ?audit_buffer_bytes:int ->
  ?dp_records_per_request:int ->
  ?dp_ticks_per_request:int ->
  ?dp_prefetch:bool ->
  ?fs_fanout:bool ->
  ?dp_lock_wait:bool ->
  ?dp_checkpoint:bool ->
  ?disk_queue_depth:int ->
  ?msg_local_cost_us:float ->
  ?msg_cpu_cost_us:float ->
  ?msg_node_cost_us:float ->
  ?msg_per_byte_us:float ->
  ?disk_seek_us:float ->
  ?disk_sequential_us:float ->
  ?disk_per_block_us:float ->
  ?cpu_tick_us:float ->
  ?lock_wait_timeout_us:float ->
  ?group_commit_timer_us:float ->
  ?mirrored:bool ->
  unit ->
  t
