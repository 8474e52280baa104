(* Golden fingerprints: canonical strings of the full statistics vector
   plus the final simulated clock of fixed workloads, in five groups:

   - [scenarios], captured before the multi-queue disk rework (after the
     PR-10 stall/read_range accounting bugfixes): they pin the contract
     that [disk_queue_depth = 1] — the default — reproduces the
     single-[busy_until] disk byte for byte. test_diskq checks them;
   - [redrive_scenarios], captured before the continuation re-drive
     drivers merged, with digests of results and of the Chrome trace
     export. test_redrive checks them;
   - [cat_scenarios], each world's seven per-category totals of simulated
     time. test_monitor checks them;
   - the [golden_batch_*] digests of test_batch's fixed-seed runs,
     captured while the row-at-a-time pull engine still ran beside the
     batched executor and matched it on every seed. test_batch computes
     and checks them;
   - [golden_chaos_seeds], a digest over chaos seeds 0-40, captured while
     DebitCredit still formatted and parsed its statements per
     transaction. test_chaos checks it.

   All five groups were re-derived once, when a commit with no other
   transaction in flight stopped waiting out the group-commit timer.
   Outside the chaos runs only the clock, [audit_flush_timer], the await
   category and the trace digests moved; the chaos runs' faults fire on
   the simulated clock, so their counts moved too.

   No Alcotest in here: the module is also compiled standalone by the
   one-off capture driver that (re)generates the constants, so keep it a
   pure library over the nsql libs. *)

module N = Nsql_core.Nonstop_sql
module Sim = Nsql_sim.Sim
module Stats = Nsql_sim.Stats
module Config = Nsql_sim.Config
module Errors = Nsql_util.Errors
module Wisconsin = Nsql_workload.Wisconsin
module Debitcredit = Nsql_workload.Debitcredit
module Chaos = Nsql_chaos.Chaos
module Trace = Nsql_trace.Trace
module Moncore = Nsql_sim.Moncore

let get_ok = Errors.get_ok

let fingerprint_of ~stats ~now =
  String.concat ";"
    (List.map
       (fun (k, v) -> Printf.sprintf "%s=%d" k v)
       (Stats.to_assoc stats))
  ^ Printf.sprintf ";now=%.6f" now

let fingerprint node =
  fingerprint_of ~stats:(N.snapshot node) ~now:(Sim.now (N.sim node))

(* the test_monitor Wisconsin mini-suite: selections, aggregates, a join
   and DML over a partitioned table — scans, prefetch, bulk I/O, audit *)
let queries ?config () =
  let config = match config with Some c -> c | None -> Config.v ~fs_fanout:true () in
  let node = N.create_node ~config ~volumes:4 () in
  let rows = 200 in
  get_ok ~ctx:"wisc" (Wisconsin.create node ~name:"t" ~rows ~partitions:4 ());
  get_ok ~ctx:"wisc2" (Wisconsin.create node ~name:"t2" ~rows ());
  let s = N.session node in
  List.iter
    (fun q -> ignore (N.exec_exn s q.Wisconsin.q_sql))
    (Wisconsin.selection_queries ~table:"t" ~rows
    @ Wisconsin.agg_and_join_queries ~table:"t" ~table2:"t2" ~rows);
  ignore (N.exec_exn s "UPDATE t SET two = 1 WHERE unique2 < 20");
  ignore (N.exec_exn s "DELETE FROM t WHERE unique2 >= 190");
  Sim.drain (N.sim node);
  fingerprint node

(* contended DebitCredit with DP lock-wait queues: dirties the cache hard
   enough to drive write-behind and eviction cleaning *)
let transfers ?config () =
  let config =
    match config with
    | Some c -> c
    | None -> Config.v ~dp_lock_wait:true ~lock_wait_timeout_us:150_000. ()
  in
  let node = N.create_node ~config ~volumes:2 () in
  let db =
    get_ok ~ctx:"transfer setup" (Debitcredit.setup_transfer node ~accounts:4)
  in
  let rep = Debitcredit.run_transfers db ~terminals:4 ~txs_per_terminal:10 () in
  assert (rep.Debitcredit.x_failed = 0);
  assert (rep.Debitcredit.x_committed = 40);
  Sim.drain (N.sim node);
  fingerprint node

(* a pool far smaller than the table: scans run cold, so demand bulk
   reads, pre-fetch, eviction cleaning and re-reads all hit the disk *)
let cold_scans ?config () =
  let config =
    match config with
    | Some c -> c
    | None -> Config.v ~fs_fanout:true ~cache_blocks:16 ()
  in
  let node = N.create_node ~config ~volumes:2 () in
  let rows = 4000 in
  get_ok ~ctx:"wisc" (Wisconsin.create node ~name:"t" ~rows ~partitions:2 ());
  let s = N.session node in
  ignore (N.exec_exn s "SELECT COUNT(*), SUM(unique1) FROM t");
  ignore (N.exec_exn s "SELECT unique1 FROM t WHERE unique2 < 50");
  ignore (N.exec_exn s "UPDATE t SET two = 1 WHERE unique2 < 40");
  ignore (N.exec_exn s "SELECT COUNT(*), MIN(unique2) FROM t WHERE two = 1");
  Sim.drain (N.sim node);
  fingerprint node

(* a blocking INSERT parked on a DP lock queue behind an open transaction
   until its wait budget runs out: the requester pumps events while it
   waits, the one path whose clock moves under [C_lockwait] *)
let lock_timeout () =
  let config =
    Config.v ~dp_lock_wait:true ~lock_wait_timeout_us:150_000. ()
  in
  let node = N.create_node ~config ~volumes:2 () in
  let s1 = N.session node and s2 = N.session node in
  ignore (N.exec_exn s1 "CREATE TABLE a (k INT PRIMARY KEY, v INT NOT NULL)");
  ignore (N.exec_exn s1 "INSERT INTO a VALUES (1, 0)");
  ignore (N.exec_exn s1 "BEGIN");
  ignore (N.exec_exn s1 "UPDATE a SET v = 1 WHERE k = 1");
  (match N.exec s2 "INSERT INTO a VALUES (1, 5)" with
  | Error _ -> ()
  | Ok _ -> failwith "lock_timeout: the parked INSERT went through");
  ignore (N.exec_exn s1 "COMMIT");
  Sim.drain (N.sim node)

(* chaos runs whose plans include audit stalls, disk transients and VM
   pressure (seeds 6 and 12 carry all three): pins the repaired
   [Disk.stall] arithmetic under faults; the applied-fault counts ride
   along in the fingerprint *)
let chaos ~seed () =
  let r = Chaos.run ~txs:40 ~seed () in
  assert (r.Chaos.r_violations = []);
  fingerprint_of ~stats:r.Chaos.r_stats
    ~now:(float_of_int r.Chaos.r_txs_committed)
  ^ ";"
  ^ String.concat ";"
      (List.map (fun (k, n) -> Printf.sprintf "fault_%s=%d" k n) r.Chaos.r_faults)

(* every chaos seed 0-40, fingerprinted as above and digested together *)
let chaos_seeds_digest () =
  Digest.to_hex
    (Digest.string (String.concat "\n" (List.init 41 (fun seed -> chaos ~seed ()))))

let scenarios =
  [
    ("queries", fun () -> queries ());
    ("transfers", fun () -> transfers ());
    ("cold_scans", fun () -> cold_scans ());
    ("chaos_seed6", fun () -> chaos ~seed:6 ());
    ("chaos_seed12", fun () -> chaos ~seed:12 ());
  ]

(* --- re-drive engine fingerprints ----------------------------------------

   Captured before the FS and DP continuation re-drive drivers were merged
   into one engine per side; they pin the paths that merge touched. *)

(* the Wisconsin mini-suite on the blocking drivers: one partition at a
   time for scans, subsets and pushdown aggregates *)
let queries_sequential () = queries ~config:(Config.v ~fs_fanout:false ()) ()

(* a 4-partition table with a secondary index: an index scan, the
   requester-side fallbacks that index maintenance forces on UPDATE of an
   indexed column and on DELETE, pushdown aggregates and an RSBB scan. A
   9-record request budget makes every chain re-drive. Run with fan-out
   off and on; each run's fingerprint carries a digest of every result it
   printed and of its Chrome trace export, which pins span attribution
   (nesting, extents, counter deltas) on the index-scan path. *)
let indexed_run ~fanout =
  let config = Config.v ~fs_fanout:fanout ~dp_records_per_request:9 () in
  let node = N.create_node ~config ~volumes:4 () in
  Trace.set_enabled (N.sim node) true;
  let rows = 200 in
  get_ok ~ctx:"wisc" (Wisconsin.create node ~name:"t" ~rows ~partitions:4 ());
  let s = N.session node in
  let out = Buffer.create 4096 in
  let run sql =
    Buffer.add_string out (Format.asprintf "%a@." N.pp_exec_result (N.exec_exn s sql))
  in
  run "CREATE INDEX t_op ON t (onepercent)";
  run "SELECT unique1, unique2 FROM t WHERE onepercent = 1";
  run "UPDATE t SET onepercent = 0, two = 1 WHERE unique2 < 30";
  run "DELETE FROM t WHERE unique2 >= 180";
  run "SELECT unique2, stringu1 FROM t WHERE onepercent = 0";
  run "SELECT unique2, COUNT(*), SUM(unique1) FROM t GROUP BY unique2";
  run "SELECT COUNT(*), SUM(unique1), MIN(unique3) FROM t WHERE two = 1";
  N.set_access_mode s (Some Nsql_fs.Fs.A_rsbb);
  run "SELECT unique1, unique2 FROM t WHERE unique2 < 120 AND four = 2";
  Sim.drain (N.sim node);
  assert (Trace.dropped (N.sim node) = 0);
  let trace = Trace.chrome_json [ Trace.take (N.sim node) ] in
  fingerprint node
  ^ ";rows=" ^ Digest.to_hex (Digest.string (Buffer.contents out))
  ^ ";trace=" ^ Digest.to_hex (Digest.string trace)

let indexed () =
  String.concat "|" [ indexed_run ~fanout:false; indexed_run ~fanout:true ]

let redrive_scenarios =
  [
    ("queries_sequential", queries_sequential);
    ("indexed", indexed);
  ]

(* --- category-split fingerprints -----------------------------------------

   A scenario re-run with the monitor enabled in every world it creates,
   fingerprinted by each world's seven per-category totals of simulated
   time. The monitor never perturbs results, stats or the clock, so the
   scenario's own constant still holds under it. These pin which category
   every clock advance lands in: a misfiled advance still tiles the clock
   exactly, so the tiling tests cannot see it. *)
let cat_split scenario () =
  let worlds = ref [] in
  let saved = !Moncore.creation_hook in
  Moncore.creation_hook :=
    Some
      (fun mc ->
        Moncore.set_enabled mc ~now:0. true;
        worlds := mc :: !worlds);
  Fun.protect
    ~finally:(fun () -> Moncore.creation_hook := saved)
    (fun () -> ignore (scenario ()));
  String.concat "|"
    (List.rev_map
       (fun mc ->
         String.concat ";"
           (Array.to_list
              (Array.mapi
                 (fun i us -> Printf.sprintf "%s=%.3f" Moncore.cat_names.(i) us)
                 (Moncore.cat_snapshot mc))))
       !worlds)

let cat_scenarios =
  [
    ("queries", cat_split (fun () -> queries ()));
    ("transfers", cat_split (fun () -> transfers ()));
    ("cold_scans", cat_split (fun () -> cold_scans ()));
    ("lock_timeout", cat_split lock_timeout);
  ]

(* --- captured constants (regenerate with the PR-10 capture driver) --- *)

let golden_queries =
  "msgs_sent=50;msg_req_bytes=90398;msg_reply_bytes=19683;msgs_remote=50;msgs_internode=0;checkpoint_msgs=55;checkpoint_bytes=91178;disk_reads=0;disk_writes=12;blocks_read=0;blocks_written=37;bulk_reads=0;bulk_writes=5;prefetch_reads=0;writebehind_writes=0;cache_hits=5045;cache_misses=0;cache_steals=0;cpu_ticks=86053;lock_requests=36;lock_conflicts=0;lock_waits=0;deadlocks=0;audit_records=448;audit_bytes=119212;audit_flushes=8;audit_flush_full=4;audit_flush_timer=0;group_commit_txs=4;tx_begun=14;tx_committed=14;tx_aborted=0;records_read=1652;records_returned=629;exec_batches=20;exec_rows=629;redrives=1;faults_injected=0;msg_path_retries=0;disk_transient_errors=0;takeovers=0;now=284586.500000"

(* recaptured when the transfer terminals began to commit nowait and a
   commit stopped waiting for its group once no transaction could join it:
   no timer flush is left (37 before), and the run ends at 0.86 s of
   simulated time instead of 2.46 s *)
let golden_transfers =
  "msgs_sent=233;msg_req_bytes=19456;msg_reply_bytes=12305;msgs_remote=233;msgs_internode=0;checkpoint_msgs=496;checkpoint_bytes=25221;disk_reads=2;disk_writes=41;blocks_read=2;blocks_written=49;bulk_reads=0;bulk_writes=8;prefetch_reads=0;writebehind_writes=0;cache_hits=331;cache_misses=2;cache_steals=0;cpu_ticks=19587;lock_requests=372;lock_conflicts=150;lock_waits=86;deadlocks=9;audit_records=242;audit_bytes=34448;audit_flushes=41;audit_flush_full=0;audit_flush_timer=0;group_commit_txs=41;tx_begun=50;tx_committed=41;tx_aborted=9;records_read=0;records_returned=0;exec_batches=0;exec_rows=0;redrives=0;faults_injected=0;msg_path_retries=0;disk_transient_errors=0;takeovers=0;now=858369.500000"

let golden_cold_scans =
  "msgs_sent=52;msg_req_bytes=880809;msg_reply_bytes=1074;msgs_remote=52;msgs_internode=0;checkpoint_msgs=55;checkpoint_bytes=882802;disk_reads=102;disk_writes=373;blocks_read=578;blocks_written=614;bulk_reads=80;bulk_writes=41;prefetch_reads=80;writebehind_writes=0;cache_hits=32817;cache_misses=22;cache_steals=0;cpu_ticks=512149;lock_requests=80;lock_conflicts=0;lock_waits=0;deadlocks=0;audit_records=4047;audit_bytes=1153858;audit_flushes=42;audit_flush_full=40;audit_flush_timer=0;group_commit_txs=2;tx_begun=5;tx_committed=5;tx_aborted=0;records_read=8090;records_returned=50;exec_batches=1;exec_rows=50;redrives=4;faults_injected=0;msg_path_retries=0;disk_transient_errors=0;takeovers=0;now=3065230.000000"

(* recaptured when backing out a field-compressed update began to audit its
   field-compressed inverse instead of two whole images: audit_bytes falls
   (19271 and 18795 before), and in seed 6 the shorter trail moves a block
   boundary, so one write spans two blocks (blocks_written and bulk_writes
   one more each, disk_writes the same) *)
let golden_chaos6 =
  "msgs_sent=415;msg_req_bytes=13762;msg_reply_bytes=12882;msgs_remote=415;msgs_internode=0;checkpoint_msgs=311;checkpoint_bytes=15301;disk_reads=6;disk_writes=56;blocks_read=18;blocks_written=60;bulk_reads=3;bulk_writes=4;prefetch_reads=0;writebehind_writes=0;cache_hits=2152;cache_misses=3;cache_steals=5;cpu_ticks=53995;lock_requests=284;lock_conflicts=0;lock_waits=0;deadlocks=0;audit_records=399;audit_bytes=19055;audit_flushes=51;audit_flush_full=0;audit_flush_timer=0;group_commit_txs=51;tx_begun=68;tx_committed=63;tx_aborted=5;records_read=336;records_returned=290;exec_batches=28;exec_rows=274;redrives=0;faults_injected=8;msg_path_retries=0;disk_transient_errors=0;takeovers=1;now=35.000000;fault_msg_delay=2;fault_msg_flap=0;fault_takeover=2;fault_crash=1;fault_disk_transient=1;fault_vm_pressure=1;fault_audit_stall=1;fault_2pc_crash=0"

let golden_chaos12 =
  "msgs_sent=507;msg_req_bytes=15034;msg_reply_bytes=19496;msgs_remote=507;msgs_internode=0;checkpoint_msgs=302;checkpoint_bytes=14479;disk_reads=11;disk_writes=56;blocks_read=22;blocks_written=60;bulk_reads=3;bulk_writes=4;prefetch_reads=0;writebehind_writes=0;cache_hits=2481;cache_misses=8;cache_steals=5;cpu_ticks=62195;lock_requests=284;lock_conflicts=0;lock_waits=0;deadlocks=0;audit_records=389;audit_bytes=18675;audit_flushes=51;audit_flush_full=0;audit_flush_timer=0;group_commit_txs=50;tx_begun=68;tx_committed=65;tx_aborted=3;records_read=470;records_returned=427;exec_batches=34;exec_rows=412;redrives=0;faults_injected=7;msg_path_retries=0;disk_transient_errors=2;takeovers=1;now=37.000000;fault_msg_delay=0;fault_msg_flap=0;fault_takeover=1;fault_crash=1;fault_disk_transient=3;fault_vm_pressure=1;fault_audit_stall=1;fault_2pc_crash=0"

(* captured before the re-drive engines merged (see [redrive_scenarios]) *)

let golden_queries_sequential =
  "msgs_sent=50;msg_req_bytes=90398;msg_reply_bytes=19683;msgs_remote=50;msgs_internode=0;checkpoint_msgs=55;checkpoint_bytes=91178;disk_reads=0;disk_writes=12;blocks_read=0;blocks_written=37;bulk_reads=0;bulk_writes=5;prefetch_reads=0;writebehind_writes=0;cache_hits=5045;cache_misses=0;cache_steals=0;cpu_ticks=86053;lock_requests=36;lock_conflicts=0;lock_waits=0;deadlocks=0;audit_records=448;audit_bytes=119212;audit_flushes=8;audit_flush_full=4;audit_flush_timer=0;group_commit_txs=4;tx_begun=14;tx_committed=14;tx_aborted=0;records_read=1652;records_returned=629;exec_batches=20;exec_rows=629;redrives=1;faults_injected=0;msg_path_retries=0;disk_transient_errors=0;takeovers=0;now=399882.500000"

(* the [;trace=] digests were captured before index scans became ordinary
   scan handles *)
let golden_indexed =
  "msgs_sent=494;msg_req_bytes=63776;msg_reply_bytes=125705;msgs_remote=494;msgs_internode=0;checkpoint_msgs=267;checkpoint_bytes=95166;disk_reads=0;disk_writes=8;blocks_read=0;blocks_written=28;bulk_reads=0;bulk_writes=5;prefetch_reads=0;writebehind_writes=0;cache_hits=4454;cache_misses=0;cache_steals=0;cpu_ticks=86970;lock_requests=197;lock_conflicts=0;lock_waits=0;deadlocks=0;audit_records=521;audit_bytes=93002;audit_flushes=6;audit_flush_full=2;audit_flush_timer=0;group_commit_txs=4;tx_begun=9;tx_committed=9;tx_aborted=0;records_read=937;records_returned=577;exec_batches=68;exec_rows=486;redrives=97;faults_injected=0;msg_path_retries=0;disk_transient_errors=0;takeovers=0;now=1533093.500000;rows=d4f11169d6617aa58907b5db80865e77;trace=08e9eebc0227ef5a9d66d08d79805616|msgs_sent=494;msg_req_bytes=63776;msg_reply_bytes=125705;msgs_remote=494;msgs_internode=0;checkpoint_msgs=267;checkpoint_bytes=95166;disk_reads=0;disk_writes=8;blocks_read=0;blocks_written=28;bulk_reads=0;bulk_writes=5;prefetch_reads=0;writebehind_writes=0;cache_hits=4454;cache_misses=0;cache_steals=0;cpu_ticks=86970;lock_requests=197;lock_conflicts=0;lock_waits=0;deadlocks=0;audit_records=521;audit_bytes=93002;audit_flushes=6;audit_flush_full=2;audit_flush_timer=0;group_commit_txs=4;tx_begun=9;tx_committed=9;tx_aborted=0;records_read=937;records_returned=577;exec_batches=68;exec_rows=486;redrives=97;faults_injected=0;msg_path_retries=0;disk_transient_errors=0;takeovers=0;now=1313442.000000;rows=d4f11169d6617aa58907b5db80865e77;trace=f35ffecb918ecf52850ecaae1bbc32bb"

(* captured before the clock category became an argument of [Sim]'s clock
   calls (see [cat_scenarios]) *)

let golden_cats_queries =
  "compute=35623.000;msg=83904.500;disk=58200.000;lock_wait=0.000;ckpt=67912.000;await=38947.000;other=0.000"

(* transfers recaptured with [golden_transfers]: the commit wait (await)
   shrinks, and a flush a commit starts at once runs under the terminal's
   clock capture, so its disk time is overlapped (await), not charged *)
let golden_cats_transfers =
  "compute=3015.000;msg=12292.000;disk=60000.000;lock_wait=0.000;ckpt=96462.000;await=686600.500;other=0.000"

let golden_cats_cold_scans =
  "compute=287936.000;msg=528662.500;disk=885400.000;lock_wait=0.000;ckpt=488184.000;await=875047.500;other=0.000"

let golden_cats_lock_timeout =
  "compute=369.000;msg=7057.000;disk=27200.000;lock_wait=151013.500;ckpt=8105.000;await=0.000;other=0.000"

(* test_batch's fixed-seed digests, captured while the row-at-a-time pull
   engine still ran beside the batched one and matched it on every seed.
   Re-derived twice since: when the always-zero [takeover_denials] counter
   left the statistics vector (each was the digest of the same
   fingerprints with that one field removed), and when a lone commit
   stopped waiting out the group-commit timer. *)

let golden_batch_select = "7c40681e9b032223d4a53aa11ef1adcc"
let golden_batch_select_chaos = "4925e7c26482600bb5f6ae39ad9621ff"
let golden_batch_dml = "82a725f72042b8f1df61a885de34a05e"
let golden_batch_dml_chaos = "efde6f2486af56f18a3771cbf7e1b6ac"
let golden_batch_wisconsin = "66753fb0b84d9799d8713ff46cdbc0f8"
let golden_batch_wisconsin_chaos = "0efc19f5e15d9fedd16eca803b887bfd"

(* [chaos_seeds_digest ()], captured before DebitCredit's statements were
   prepared once and bound per transaction: binding a value must cost
   exactly what parsing its formatted text did. Recaptured when a
   field-compressed update's backout began to audit its field-compressed
   inverse. test_chaos checks it. *)
let golden_chaos_seeds = "0060bad7bc6a1a747a6179ee111742e0"
