(* Every metric the benchmark reports: name, unit, direction and, for the
   end-to-end ones, the bound by which a change may worsen the median
   before it counts as a regression. BENCHMARK.json repeats this table;
   the smoke test checks that the two agree. *)

type better = Lower | Higher

type e2e = { name : string; unit_ : string; better : better; bound : float }

(* Host-time metrics depend on the machine. On the shared 2-core VM the
   baseline comes from, the speed of the same code moves by up to 20% over
   a few minutes, and the host metrics' interquartile range over ten seeds
   is 2-10% even in CPU time, so their bound is 25%, the largest allowed.
   Simulated-time metrics (units sim_ms and 1/sim_s: the simulator's
   clock, not the host's) and counts are exact for a seed; their bounds
   only absorb the spread between seeds, at least three times the typical
   ten-seed spread. *)
let e2e =
  [
    { name = "setup_s"; unit_ = "s"; better = Lower; bound = 0.25 };
    { name = "host_ops_per_s"; unit_ = "1/s"; better = Higher; bound = 0.25 };
    { name = "host_p50_us"; unit_ = "us"; better = Lower; bound = 0.25 };
    { name = "host_p99_us"; unit_ = "us"; better = Lower; bound = 0.25 };
    { name = "peak_heap_mb"; unit_ = "MB"; better = Lower; bound = 0.05 };
    { name = "sim_ops_per_s"; unit_ = "1/sim_s"; better = Higher; bound = 0.1 };
    { name = "sim_p50_ms"; unit_ = "sim_ms"; better = Lower; bound = 0.02 };
    { name = "sim_p95_ms"; unit_ = "sim_ms"; better = Lower; bound = 0.25 };
    { name = "sim_p99_ms"; unit_ = "sim_ms"; better = Lower; bound = 0.25 };
    { name = "msgs_per_op"; unit_ = "count"; better = Lower; bound = 0.02 };
    { name = "disk_ios_per_op"; unit_ = "count"; better = Lower; bound = 0.1 };
  ]

(* A per-layer metric names the end-to-end metric and workload it should
   move when its layer changes. *)
type layer = {
  lname : string;
  lunit : string;
  lbetter : better;
  layer : string;
  moves : string;
}

let l lname lunit lbetter layer moves = { lname; lunit; lbetter; layer; moves }

let per_layer =
  [
    (* host split, from the DP handler wrapper and the GC *)
    l "dp.host_share_pct" "%" Lower "DP dispatch" "host_ops_per_s on wisc_scan, mixed_d8";
    l "requester.host_us_per_op" "us" Lower "executor+FS+Msg+TMF" "host_ops_per_s on xfer_contend";
    l "gc.alloc_words_per_op" "words" Lower "GC" "peak_heap_mb, host_ops_per_s on dc_oltp";
    l "obs.monitor_overhead_pct" "%" Lower "monitor" "host_ops_per_s when monitoring is on";
    l "obs.span_overhead_pct" "%" Lower "tracer" "host_ops_per_s when spans are on";
    (* probes: host ns per call, replaying the workload's own inputs *)
    l "sql.parse_ns" "ns" Lower "Parser" "host_p50_us on dc_oltp";
    l "sql.plan_ns" "ns" Lower "Planner" "host_p50_us on dc_oltp";
    l "dp_msg.decode_request_ns" "ns" Lower "Dp_msg" "host_ops_per_s on dc_oltp, xfer_contend";
    l "dp_msg.decode_reply_ns" "ns" Lower "Dp_msg" "host_ops_per_s on wisc_scan";
    l "row.decode_ns" "ns" Lower "Row" "host_ops_per_s on wisc_scan";
    l "btree.lookup_ns" "ns" Lower "Btree" "host_p50_us on dc_oltp";
    l "btree.next_ns" "ns" Lower "Btree" "host_ops_per_s on wisc_scan";
    l "cache.hit_ns" "ns" Lower "Cache" "host_ops_per_s on wisc_scan";
    l "msg.send_ns" "ns" Lower "Msg" "host_ops_per_s on xfer_contend";
    (* exact counts per op, from Stats deltas over the timed loop *)
    l "msg.bytes_per_op" "bytes" Lower "Msg" "sim_p50_ms on wisc_scan";
    l "dp.redrives_per_op" "count" Lower "DP" "msgs_per_op on wisc_scan";
    l "dp.useful_ratio" "ratio" Higher "DP" "host_ops_per_s on wisc_scan";
    l "cache.reads_per_op" "count" Lower "Cache" "host_ops_per_s on wisc_scan";
    l "cache.hit_ratio" "ratio" Higher "Cache" "disk_ios_per_op on mixed_d8";
    l "disk.blocks_per_io" "blocks" Higher "Disk" "sim_p50_ms on wisc_scan";
    l "disk.async_ios_per_op" "count" Higher "Disk" "sim_p99_ms on mixed_d8";
    l "lock.waits_per_op" "count" Lower "Lock" "sim_ops_per_s on xfer_contend";
    l "lock.deadlocks_per_op" "count" Lower "Lock" "sim_ops_per_s on xfer_contend";
    l "lock.retry_ratio" "ratio" Lower "Lock" "sim_ops_per_s on xfer_contend";
    l "tmf.txs_per_flush" "count" Higher "TMF" "sim_p50_ms on dc_oltp";
    l "dp.ckpt_bytes_per_op" "bytes" Lower "DP" "sim_p50_ms on dc_oltp, xfer_contend";
    (* simulated-time split: Moncore category deltas over the Sim.now delta *)
    l "simtime.compute_pct" "%" Lower "Sim" "sim_p50_ms on wisc_scan";
    l "simtime.msg_pct" "%" Lower "Msg" "sim_p50_ms on dc_oltp";
    l "simtime.disk_pct" "%" Lower "Disk" "sim_p50_ms on mixed_d8";
    l "simtime.lock_wait_pct" "%" Lower "Lock" "sim_p50_ms on xfer_contend";
    l "simtime.ckpt_pct" "%" Lower "DP" "sim_p50_ms on dc_oltp";
    l "simtime.await_pct" "%" Lower "nowait" "sim_p50_ms on dc_oltp";
    l "simtime.other_pct" "%" Lower "Sim" "sim_p50_ms on dc_oltp";
  ]

let better_string = function Lower -> "lower" | Higher -> "higher"

let find_e2e name = List.find_opt (fun m -> m.name = name) e2e

let unit_of name =
  match find_e2e name with
  | Some m -> m.unit_
  | None -> (
      match List.find_opt (fun m -> m.lname = name) per_layer with
      | Some m -> m.lunit
      | None -> invalid_arg ("unknown metric " ^ name))

(* --- order statistics ------------------------------------------------------ *)

(* Nearest rank on a sorted array. A tail percentile is only read where
   at least ten samples lie beyond it: with fewer than 10/(1-p) samples,
   [p] drops to the highest percentile that has ten. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let p = Float.min p (Float.max 0.5 (1. -. (10. /. float_of_int n))) in
    sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* (q1, median, q3) by Python's statistics.quantiles(n=4), the
   'exclusive' method, so spreads read the same as a script computes them *)
let quartiles l =
  let a = sorted (Array.of_list l) in
  let n = Array.length a in
  if n = 0 then (nan, nan, nan)
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)

let median l =
  let _, m, _ = quartiles l in
  m
