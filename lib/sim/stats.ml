type t = {
  mutable msgs_sent : int;
  mutable msg_req_bytes : int;
  mutable msg_reply_bytes : int;
  mutable msgs_remote : int;
  mutable msgs_internode : int;
  mutable checkpoint_msgs : int;
  mutable checkpoint_bytes : int;
  mutable disk_reads : int;
  mutable disk_writes : int;
  mutable blocks_read : int;
  mutable blocks_written : int;
  mutable bulk_reads : int;
  mutable bulk_writes : int;
  mutable prefetch_reads : int;
  mutable writebehind_writes : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable cache_steals : int;
  mutable cpu_ticks : int;
  mutable lock_requests : int;
  mutable lock_conflicts : int;
  mutable lock_waits : int;
  mutable deadlocks : int;
  mutable audit_records : int;
  mutable audit_bytes : int;
  mutable audit_flushes : int;
  mutable audit_flush_full : int;
  mutable audit_flush_timer : int;
  mutable group_commit_txs : int;
  mutable tx_begun : int;
  mutable tx_committed : int;
  mutable tx_aborted : int;
  mutable records_read : int;
  mutable records_returned : int;
  mutable exec_batches : int;
  mutable exec_rows : int;
  mutable redrives : int;
  mutable faults_injected : int;
  mutable msg_path_retries : int;
  mutable disk_transient_errors : int;
  mutable takeovers : int;
}

let create () =
  {
    msgs_sent = 0;
    msg_req_bytes = 0;
    msg_reply_bytes = 0;
    msgs_remote = 0;
    msgs_internode = 0;
    checkpoint_msgs = 0;
    checkpoint_bytes = 0;
    disk_reads = 0;
    disk_writes = 0;
    blocks_read = 0;
    blocks_written = 0;
    bulk_reads = 0;
    bulk_writes = 0;
    prefetch_reads = 0;
    writebehind_writes = 0;
    cache_hits = 0;
    cache_misses = 0;
    cache_steals = 0;
    cpu_ticks = 0;
    lock_requests = 0;
    lock_conflicts = 0;
    lock_waits = 0;
    deadlocks = 0;
    audit_records = 0;
    audit_bytes = 0;
    audit_flushes = 0;
    audit_flush_full = 0;
    audit_flush_timer = 0;
    group_commit_txs = 0;
    tx_begun = 0;
    tx_committed = 0;
    tx_aborted = 0;
    records_read = 0;
    records_returned = 0;
    exec_batches = 0;
    exec_rows = 0;
    redrives = 0;
    faults_injected = 0;
    msg_path_retries = 0;
    disk_transient_errors = 0;
    takeovers = 0;
  }

let copy t = { t with msgs_sent = t.msgs_sent }

(* Applying an int->int->int operator pointwise keeps diff/add in sync with
   the field list. *)
let map2 f a b =
  {
    msgs_sent = f a.msgs_sent b.msgs_sent;
    msg_req_bytes = f a.msg_req_bytes b.msg_req_bytes;
    msg_reply_bytes = f a.msg_reply_bytes b.msg_reply_bytes;
    msgs_remote = f a.msgs_remote b.msgs_remote;
    msgs_internode = f a.msgs_internode b.msgs_internode;
    checkpoint_msgs = f a.checkpoint_msgs b.checkpoint_msgs;
    checkpoint_bytes = f a.checkpoint_bytes b.checkpoint_bytes;
    disk_reads = f a.disk_reads b.disk_reads;
    disk_writes = f a.disk_writes b.disk_writes;
    blocks_read = f a.blocks_read b.blocks_read;
    blocks_written = f a.blocks_written b.blocks_written;
    bulk_reads = f a.bulk_reads b.bulk_reads;
    bulk_writes = f a.bulk_writes b.bulk_writes;
    prefetch_reads = f a.prefetch_reads b.prefetch_reads;
    writebehind_writes = f a.writebehind_writes b.writebehind_writes;
    cache_hits = f a.cache_hits b.cache_hits;
    cache_misses = f a.cache_misses b.cache_misses;
    cache_steals = f a.cache_steals b.cache_steals;
    cpu_ticks = f a.cpu_ticks b.cpu_ticks;
    lock_requests = f a.lock_requests b.lock_requests;
    lock_conflicts = f a.lock_conflicts b.lock_conflicts;
    lock_waits = f a.lock_waits b.lock_waits;
    deadlocks = f a.deadlocks b.deadlocks;
    audit_records = f a.audit_records b.audit_records;
    audit_bytes = f a.audit_bytes b.audit_bytes;
    audit_flushes = f a.audit_flushes b.audit_flushes;
    audit_flush_full = f a.audit_flush_full b.audit_flush_full;
    audit_flush_timer = f a.audit_flush_timer b.audit_flush_timer;
    group_commit_txs = f a.group_commit_txs b.group_commit_txs;
    tx_begun = f a.tx_begun b.tx_begun;
    tx_committed = f a.tx_committed b.tx_committed;
    tx_aborted = f a.tx_aborted b.tx_aborted;
    records_read = f a.records_read b.records_read;
    records_returned = f a.records_returned b.records_returned;
    exec_batches = f a.exec_batches b.exec_batches;
    exec_rows = f a.exec_rows b.exec_rows;
    redrives = f a.redrives b.redrives;
    faults_injected = f a.faults_injected b.faults_injected;
    msg_path_retries = f a.msg_path_retries b.msg_path_retries;
    disk_transient_errors = f a.disk_transient_errors b.disk_transient_errors;
    takeovers = f a.takeovers b.takeovers;
  }

let diff ~before ~after = map2 (fun a b -> a - b) after before
let add a b = map2 ( + ) a b

let to_assoc t =
  [
    ("msgs_sent", t.msgs_sent);
    ("msg_req_bytes", t.msg_req_bytes);
    ("msg_reply_bytes", t.msg_reply_bytes);
    ("msgs_remote", t.msgs_remote);
    ("msgs_internode", t.msgs_internode);
    ("checkpoint_msgs", t.checkpoint_msgs);
    ("checkpoint_bytes", t.checkpoint_bytes);
    ("disk_reads", t.disk_reads);
    ("disk_writes", t.disk_writes);
    ("blocks_read", t.blocks_read);
    ("blocks_written", t.blocks_written);
    ("bulk_reads", t.bulk_reads);
    ("bulk_writes", t.bulk_writes);
    ("prefetch_reads", t.prefetch_reads);
    ("writebehind_writes", t.writebehind_writes);
    ("cache_hits", t.cache_hits);
    ("cache_misses", t.cache_misses);
    ("cache_steals", t.cache_steals);
    ("cpu_ticks", t.cpu_ticks);
    ("lock_requests", t.lock_requests);
    ("lock_conflicts", t.lock_conflicts);
    ("lock_waits", t.lock_waits);
    ("deadlocks", t.deadlocks);
    ("audit_records", t.audit_records);
    ("audit_bytes", t.audit_bytes);
    ("audit_flushes", t.audit_flushes);
    ("audit_flush_full", t.audit_flush_full);
    ("audit_flush_timer", t.audit_flush_timer);
    ("group_commit_txs", t.group_commit_txs);
    ("tx_begun", t.tx_begun);
    ("tx_committed", t.tx_committed);
    ("tx_aborted", t.tx_aborted);
    ("records_read", t.records_read);
    ("records_returned", t.records_returned);
    ("exec_batches", t.exec_batches);
    ("exec_rows", t.exec_rows);
    ("redrives", t.redrives);
    ("faults_injected", t.faults_injected);
    ("msg_path_retries", t.msg_path_retries);
    ("disk_transient_errors", t.disk_transient_errors);
    ("takeovers", t.takeovers);
  ]

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (name, v) -> if v <> 0 then Format.fprintf ppf "%-20s %d@," name v)
    (to_assoc t);
  Format.fprintf ppf "@]"

let pp_brief ppf t =
  Format.fprintf ppf
    "msgs=%d req_bytes=%d reply_bytes=%d disk_reads=%d disk_writes=%d \
     cpu_ticks=%d"
    t.msgs_sent t.msg_req_bytes t.msg_reply_bytes t.disk_reads t.disk_writes
    t.cpu_ticks
