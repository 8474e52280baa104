type t = {
  block_size : int;
  bulk_io_max_bytes : int;
  cache_blocks : int;
  vsbb_buffer_bytes : int;
  audit_buffer_bytes : int;
  dp_records_per_request : int;
  dp_ticks_per_request : int;
  dp_prefetch : bool;
  fs_fanout : bool;
      (** drive partitioned files with overlapped (nowait) requests; when
          false the File System falls back to the blocking one-partition-
          at-a-time driver (the pre-nowait behaviour, kept for A/B runs) *)
  dp_lock_wait : bool;
      (** park a blocked point request on a DP-side FIFO wait queue (with
          deadlock detection) instead of answering with an immediate
          [Rp_blocked]; off by default so single-session workloads keep
          byte-identical message traffic *)
  dp_checkpoint : bool;
      (** maintain a backup-side replica of takeover-relevant DP state
          (open SCBs, lock table, wait queues, mutation intents) applied
          from the checkpoint stream; the replica is pure backup-side
          bookkeeping, so turning it off changes no message traffic,
          clock or counters — only whether a takeover can resume
          in-flight work *)
  disk_queue_depth : int;
      (** number of I/Os a volume services concurrently (io_uring-style
          submission/completion channels). 1 — the default — serializes
          every I/O behind a single busy window, byte-identical to the
          pre-queue-model disk (the regression gate test_diskq enforces);
          deeper queues overlap seeks/transfers across channels and make
          pre-fetch and the DP read-ahead keep that many bulk windows in
          flight *)
  msg_local_cost_us : float;
  msg_cpu_cost_us : float;
  msg_node_cost_us : float;
  msg_per_byte_us : float;
  disk_seek_us : float;
  disk_sequential_us : float;
  disk_per_block_us : float;
  cpu_tick_us : float;
  lock_wait_timeout_us : float;
  group_commit_timer_us : float;
  mirrored : bool;
}

let default =
  {
    block_size = 4096;
    bulk_io_max_bytes = 28 * 1024;
    cache_blocks = 512;
    vsbb_buffer_bytes = 4096;
    audit_buffer_bytes = 28 * 1024;
    dp_records_per_request = 1024;
    dp_ticks_per_request = 200_000;
    dp_prefetch = true;
    fs_fanout = true;
    dp_lock_wait = false;
    dp_checkpoint = true;
    disk_queue_depth = 1;
    msg_local_cost_us = 300.;
    msg_cpu_cost_us = 1_000.;
    msg_node_cost_us = 5_000.;
    msg_per_byte_us = 0.5;
    disk_seek_us = 25_000.;
    disk_sequential_us = 1_000.;
    disk_per_block_us = 600.;
    cpu_tick_us = 1.;
    lock_wait_timeout_us = 2_000_000.;
    group_commit_timer_us = 10_000.;
    mirrored = false;
  }

let v ?(block_size = default.block_size)
    ?(bulk_io_max_bytes = default.bulk_io_max_bytes)
    ?(cache_blocks = default.cache_blocks)
    ?(vsbb_buffer_bytes = default.vsbb_buffer_bytes)
    ?(audit_buffer_bytes = default.audit_buffer_bytes)
    ?(dp_records_per_request = default.dp_records_per_request)
    ?(dp_ticks_per_request = default.dp_ticks_per_request)
    ?(dp_prefetch = default.dp_prefetch)
    ?(fs_fanout = default.fs_fanout)
    ?(dp_lock_wait = default.dp_lock_wait)
    ?(dp_checkpoint = default.dp_checkpoint)
    ?(disk_queue_depth = default.disk_queue_depth)
    ?(msg_local_cost_us = default.msg_local_cost_us)
    ?(msg_cpu_cost_us = default.msg_cpu_cost_us)
    ?(msg_node_cost_us = default.msg_node_cost_us)
    ?(msg_per_byte_us = default.msg_per_byte_us)
    ?(disk_seek_us = default.disk_seek_us)
    ?(disk_sequential_us = default.disk_sequential_us)
    ?(disk_per_block_us = default.disk_per_block_us)
    ?(cpu_tick_us = default.cpu_tick_us)
    ?(lock_wait_timeout_us = default.lock_wait_timeout_us)
    ?(group_commit_timer_us = default.group_commit_timer_us)
    ?(mirrored = default.mirrored) () =
  {
    block_size;
    bulk_io_max_bytes;
    cache_blocks;
    vsbb_buffer_bytes;
    audit_buffer_bytes;
    dp_records_per_request;
    dp_ticks_per_request;
    dp_prefetch;
    fs_fanout;
    dp_lock_wait;
    dp_checkpoint;
    disk_queue_depth;
    msg_local_cost_us;
    msg_cpu_cost_us;
    msg_node_cost_us;
    msg_per_byte_us;
    disk_seek_us;
    disk_sequential_us;
    disk_per_block_us;
    cpu_tick_us;
    lock_wait_timeout_us;
    group_commit_timer_us;
    mirrored;
  }
