let block_size = 4096
let msg_local_cost_us = 300.
let msg_cpu_cost_us = 1_000.
let msg_node_cost_us = 5_000.
let msg_per_byte_us = 0.5
let disk_seek_us = 25_000.
let disk_sequential_us = 1_000.
let disk_per_block_us = 600.
let cpu_tick_us = 1.
let group_commit_timer_us = 10_000.

type t = {
  bulk_io_max_bytes : int;
  cache_blocks : int;
  vsbb_buffer_bytes : int;
  audit_buffer_bytes : int;
  dp_records_per_request : int;
  dp_ticks_per_request : int;
  dp_prefetch : bool;
  fs_fanout : bool;
  dp_lock_wait : bool;
  disk_queue_depth : int;
  lock_wait_timeout_us : float;
  mirrored : bool;
}

let default =
  {
    bulk_io_max_bytes = 28 * 1024;
    cache_blocks = 512;
    vsbb_buffer_bytes = 4096;
    audit_buffer_bytes = 28 * 1024;
    dp_records_per_request = 1024;
    dp_ticks_per_request = 200_000;
    dp_prefetch = true;
    fs_fanout = true;
    dp_lock_wait = false;
    disk_queue_depth = 1;
    lock_wait_timeout_us = 2_000_000.;
    mirrored = false;
  }

let at_least_1 field n =
  if n < 1 then
    invalid_arg (Printf.sprintf "Config.v: %s must be at least 1 (got %d)" field n)

let v ?(bulk_io_max_bytes = default.bulk_io_max_bytes)
    ?(cache_blocks = default.cache_blocks)
    ?(vsbb_buffer_bytes = default.vsbb_buffer_bytes)
    ?(audit_buffer_bytes = default.audit_buffer_bytes)
    ?(dp_records_per_request = default.dp_records_per_request)
    ?(dp_ticks_per_request = default.dp_ticks_per_request)
    ?(dp_prefetch = default.dp_prefetch) ?(fs_fanout = default.fs_fanout)
    ?(dp_lock_wait = default.dp_lock_wait)
    ?(disk_queue_depth = default.disk_queue_depth)
    ?(lock_wait_timeout_us = default.lock_wait_timeout_us)
    ?(mirrored = default.mirrored) () =
  at_least_1 "bulk_io_max_bytes" bulk_io_max_bytes;
  at_least_1 "cache_blocks" cache_blocks;
  at_least_1 "vsbb_buffer_bytes" vsbb_buffer_bytes;
  at_least_1 "audit_buffer_bytes" audit_buffer_bytes;
  at_least_1 "dp_records_per_request" dp_records_per_request;
  at_least_1 "dp_ticks_per_request" dp_ticks_per_request;
  (* exact tiling in [Moncore] needs every clock delta binary-exact *)
  if not (lock_wait_timeout_us > 0. && Float.is_integer (lock_wait_timeout_us *. 4.))
  then
    invalid_arg
      (Printf.sprintf
         "Config.v: lock_wait_timeout_us must be a positive multiple of \
          0.25 (got %g)"
         lock_wait_timeout_us);
  {
    bulk_io_max_bytes;
    cache_blocks;
    vsbb_buffer_bytes;
    audit_buffer_bytes;
    dp_records_per_request;
    dp_ticks_per_request;
    dp_prefetch;
    fs_fanout;
    dp_lock_wait;
    disk_queue_depth;
    lock_wait_timeout_us;
    mirrored;
  }
