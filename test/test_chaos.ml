(* The chaos corpus: pinned fault-schedule seeds checked against the
   transactional oracle, a replay-determinism witness, and a QCheck sweep
   over arbitrary seeds.

   Each seed materializes a fault plan (crashes, takeovers, message flaps,
   disk errors, audit stalls, mid-2PC coordinator losses), drives a mixed
   SQL/FS workload through it, and requires the post-recovery state to
   match the serial oracle exactly — any atomicity, durability or index
   inconsistency fails the test with the seed in the message, which is all
   that is needed to replay the run (`sqlci chaos <seed>`). *)

module Chaos = Nsql_chaos.Chaos
module Stats = Nsql_sim.Stats
module Debitcredit = Nsql_workload.Debitcredit

let check_seed ?topology ~txs seed () =
  let r = Chaos.run ~txs ?topology ~seed () in
  Alcotest.(check (list string))
    (Printf.sprintf "seed %d: ACID violations" seed)
    [] r.Chaos.r_violations;
  Alcotest.(check bool)
    (Printf.sprintf "seed %d: transactions committed" seed)
    true
    (r.Chaos.r_txs_committed > 0);
  Alcotest.(check bool)
    (Printf.sprintf "seed %d: faults applied" seed)
    true
    (List.exists (fun (_, n) -> n > 0) r.Chaos.r_faults)

(* seeds with [seed land 3 <> 3] run the single-node scenario (volume
   crash + rollforward, takeover mid-scan, message-path flaps, ...) *)
let single_seeds =
  [ 1; 2; 4; 5; 6; 8; 9; 10; 12; 13; 14; 16; 17; 18; 20; 21; 22; 24 ]

(* seeds with [seed land 3 = 3] run the 2-node cluster scenario, whose
   plans always include a mid-2PC coordinator crash *)
let cluster_seeds = [ 3; 7; 11; 15; 19; 23; 27; 31 ]

let corpus_cases =
  List.map
    (fun seed ->
      Alcotest.test_case
        (Printf.sprintf "seed %d (single)" seed)
        `Quick
        (check_seed ~txs:80 seed))
    single_seeds
  @ List.map
      (fun seed ->
        Alcotest.test_case
          (Printf.sprintf "seed %d (cluster)" seed)
          `Quick
          (check_seed ~txs:80 seed))
      cluster_seeds

(* the same seed must replay byte-identically: every counter of the final
   statistics record — messages, I/Os, ticks, faults — is equal *)
let determinism seed () =
  let r1 = Chaos.run ~txs:60 ~seed () in
  let r2 = Chaos.run ~txs:60 ~seed () in
  Alcotest.(check (list (pair string int)))
    (Printf.sprintf "seed %d: identical statistics" seed)
    (Stats.to_assoc r1.Chaos.r_stats)
    (Stats.to_assoc r2.Chaos.r_stats);
  Alcotest.(check (list (pair string int)))
    "identical fault application"
    r1.Chaos.r_faults r2.Chaos.r_faults;
  Alcotest.(check (list string))
    "identical violations" r1.Chaos.r_violations r2.Chaos.r_violations;
  Alcotest.(check int)
    "identical commit count" r1.Chaos.r_txs_committed r2.Chaos.r_txs_committed

(* the plan alone is also a pure function of the seed *)
let plan_determinism () =
  let p1 = Chaos.plan ~seed:42 () and p2 = Chaos.plan ~seed:42 () in
  Alcotest.(check int)
    "same event count"
    (List.length p1.Chaos.p_events)
    (List.length p2.Chaos.p_events);
  List.iter2
    (fun a b ->
      Alcotest.(check string)
        "same fault"
        (Format.asprintf "%a" Chaos.pp_fault a.Chaos.fault)
        (Format.asprintf "%a" Chaos.pp_fault b.Chaos.fault);
      Alcotest.(check (float 0.)) "same due time" a.Chaos.due b.Chaos.due)
    p1.Chaos.p_events p2.Chaos.p_events

(* any seed QCheck throws at the harness must uphold ACID *)
let qcheck_any_seed =
  QCheck.Test.make ~count:10 ~name:"chaos: arbitrary seeds uphold ACID"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let r = Chaos.run ~txs:30 ~seed () in
      if r.Chaos.r_violations <> [] then
        QCheck.Test.fail_reportf "seed %d violations:@.%s" seed
          (String.concat "\n" r.Chaos.r_violations);
      true)

(* --- contended multi-terminal corpus ---------------------------------- *)

(* pinned seeds for the contention harness: every run must be violation
   free, and these seeds are known to produce wait-for cycles, so each run
   also witnesses at least one detected-and-resolved deadlock *)
let check_contention_seed seed () =
  let r = Chaos.run_contention ~seed () in
  Alcotest.(check (list string))
    (Printf.sprintf "contention seed %d: violations" seed)
    [] r.Chaos.n_violations;
  Alcotest.(check bool)
    (Printf.sprintf "contention seed %d: all transfers committed" seed)
    true
    (r.Chaos.n_transfers.Debitcredit.x_committed > 0);
  Alcotest.(check bool)
    (Printf.sprintf "contention seed %d: requests queued on the DP" seed)
    true (r.Chaos.n_lock_waits > 0);
  Alcotest.(check bool)
    (Printf.sprintf "contention seed %d: deadlock detected and resolved" seed)
    true (r.Chaos.n_deadlocks > 0)

let contention_determinism seed () =
  let r1 = Chaos.run_contention ~seed () in
  let r2 = Chaos.run_contention ~seed () in
  Alcotest.(check (list (pair string int)))
    (Printf.sprintf "contention seed %d: identical statistics" seed)
    (Stats.to_assoc r1.Chaos.n_stats)
    (Stats.to_assoc r2.Chaos.n_stats);
  Alcotest.(check int)
    "identical commit count"
    r1.Chaos.n_transfers.Debitcredit.x_committed
    r2.Chaos.n_transfers.Debitcredit.x_committed;
  Alcotest.(check int)
    "identical retries" r1.Chaos.n_transfers.Debitcredit.x_retries
    r2.Chaos.n_transfers.Debitcredit.x_retries;
  Alcotest.(check int)
    "identical deadlocks" r1.Chaos.n_deadlocks r2.Chaos.n_deadlocks

let qcheck_contention_seed =
  QCheck.Test.make ~count:5 ~name:"contention: arbitrary seeds stay consistent"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let r = Chaos.run_contention ~txs_per_terminal:5 ~seed () in
      if r.Chaos.n_violations <> [] then
        QCheck.Test.fail_reportf "contention seed %d violations:@.%s" seed
          (String.concat "\n" r.Chaos.n_violations);
      true)

(* --- process-pair takeover under live contention ----------------------- *)

(* pinned seeds where the hot volume's primary fails mid-run, with
   terminals mid-scan, parked on the wait queue, or between phases. The
   replica makes the takeover transparent: the oracle must hold, nothing
   may be denied, and no parameter set abandoned. *)
let check_takeover_seed seed () =
  let r = Chaos.run_contention ~takeover:true ~seed () in
  Alcotest.(check (list string))
    (Printf.sprintf "takeover seed %d: violations" seed)
    [] r.Chaos.n_violations;
  Alcotest.(check int)
    (Printf.sprintf "takeover seed %d: exactly one takeover" seed)
    1 r.Chaos.n_stats.Stats.takeovers;
  Alcotest.(check int)
    (Printf.sprintf "takeover seed %d: no transfer abandoned" seed)
    0 r.Chaos.n_transfers.Debitcredit.x_failed;
  Alcotest.(check bool)
    (Printf.sprintf "takeover seed %d: the queue was exercised" seed)
    true (r.Chaos.n_lock_waits > 0)

let takeover_determinism seed () =
  let r1 = Chaos.run_contention ~takeover:true ~seed () in
  let r2 = Chaos.run_contention ~takeover:true ~seed () in
  Alcotest.(check (list (pair string int)))
    (Printf.sprintf "takeover seed %d: identical statistics" seed)
    (Stats.to_assoc r1.Chaos.n_stats)
    (Stats.to_assoc r2.Chaos.n_stats);
  Alcotest.(check int)
    "identical commit count"
    r1.Chaos.n_transfers.Debitcredit.x_committed
    r2.Chaos.n_transfers.Debitcredit.x_committed;
  (* the takeover flag must not perturb a run without it: the extra stream
     draw happens only when armed *)
  let base1 = Chaos.run_contention ~seed () in
  let base2 = Chaos.run_contention ~seed () in
  Alcotest.(check (list (pair string int)))
    "unarmed runs replay identically"
    (Stats.to_assoc base1.Chaos.n_stats)
    (Stats.to_assoc base2.Chaos.n_stats)

(* acknowledged commits are never lost and never doubled: each run's
   violations list already proves its balances match the mirror of exactly
   the acknowledged commits; and when neither run abandons a parameter
   set, the deterministic parameter streams commit exactly once in both,
   so the committed results of the takeover run equal the fault-free
   run's *)
let takeover_equivalence seed =
  let ff = Chaos.run_contention ~txs_per_terminal:5 ~seed () in
  let tk = Chaos.run_contention ~txs_per_terminal:5 ~takeover:true ~seed () in
  if tk.Chaos.n_violations <> [] then
    QCheck.Test.fail_reportf "takeover seed %d violations:@.%s" seed
      (String.concat "\n" tk.Chaos.n_violations);
  if tk.Chaos.n_stats.Stats.takeovers <> 1 then
    QCheck.Test.fail_reportf "takeover seed %d: takeover did not land" seed;
  let failed r = r.Chaos.n_transfers.Debitcredit.x_failed in
  if failed ff = 0 && failed tk <> 0 then
    QCheck.Test.fail_reportf
      "takeover seed %d: takeover abandoned %d parameter sets the fault-free \
       run committed"
      seed (failed tk);
  if failed ff = 0 && failed tk = 0
     && ff.Chaos.n_transfers.Debitcredit.x_committed
        <> tk.Chaos.n_transfers.Debitcredit.x_committed
  then
    QCheck.Test.fail_reportf
      "takeover seed %d: %d commits fault-free vs %d across takeover" seed
      ff.Chaos.n_transfers.Debitcredit.x_committed
      tk.Chaos.n_transfers.Debitcredit.x_committed

let qcheck_takeover_equivalence =
  QCheck.Test.make ~count:5
    ~name:"takeover: committed results equal the fault-free run"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      takeover_equivalence seed;
      true)

(* seeds where the takeover landed inside a checkpoint hop: the backup
   must already hold the checkpoint the hop carries, or the new primary
   restores a lock its finished holder released (an orphan lock every
   later transfer on that account waits out) *)
let takeover_in_ckpt_hop seed () = takeover_equivalence seed

(* the SQL DebitCredit transactions of every seed run with negative
   deltas; a value bound into a prepared statement must tick, lock and
   message exactly as the formatted text it replaced *)
let seeds_digest () =
  Alcotest.(check string) "chaos seeds 0-40: fixed-seed digest"
    Golden.golden_chaos_seeds (Golden.chaos_seeds_digest ())

let suite =
  corpus_cases
  @ [
      Alcotest.test_case "replay determinism (single)" `Quick (determinism 17);
      Alcotest.test_case "replay determinism (cluster)" `Quick (determinism 19);
      Alcotest.test_case "plan determinism" `Quick plan_determinism;
      QCheck_alcotest.to_alcotest qcheck_any_seed;
      Alcotest.test_case "contention seed 1" `Quick (check_contention_seed 1);
      Alcotest.test_case "contention seed 4" `Quick (check_contention_seed 4);
      Alcotest.test_case "contention replay determinism" `Quick
        (contention_determinism 9);
      QCheck_alcotest.to_alcotest qcheck_contention_seed;
      Alcotest.test_case "takeover seed 2" `Quick (check_takeover_seed 2);
      Alcotest.test_case "takeover seed 5" `Quick (check_takeover_seed 5);
      Alcotest.test_case "takeover seed 8" `Quick (check_takeover_seed 8);
      Alcotest.test_case "takeover replay determinism" `Quick
        (takeover_determinism 6);
      QCheck_alcotest.to_alcotest qcheck_takeover_equivalence;
      Alcotest.test_case "takeover mid-checkpoint, seed 316" `Quick
        (takeover_in_ckpt_hop 316);
      Alcotest.test_case "takeover mid-checkpoint, seed 354" `Quick
        (takeover_in_ckpt_hop 354);
      Alcotest.test_case "takeover mid-checkpoint, seed 412035" `Quick
        (takeover_in_ckpt_hop 412035);
      Alcotest.test_case "seeds 0-40 match the pinned digest" `Quick seeds_digest;
    ]
