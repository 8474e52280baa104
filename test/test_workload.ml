(* Tests of the workload generators: Wisconsin determinism and schema
   properties; DebitCredit consistency across the SQL and ENSCRIBE
   implementations. *)

module N = Nsql_core.Nonstop_sql
module Row = Nsql_row.Row
module Wisconsin = Nsql_workload.Wisconsin
module Debitcredit = Nsql_workload.Debitcredit
module Errors = Nsql_util.Errors

let get_ok = Errors.get_ok

let wisconsin_loads () =
  let node = N.create_node () in
  get_ok ~ctx:"wisc"
    (Wisconsin.create node ~name:"tenktup1" ~rows:1000 ());
  let s = N.session node in
  (match N.exec_exn s "SELECT COUNT(*) FROM tenktup1" with
  | N.Rows { rows = [ [| Row.Vint n |] ]; _ } ->
      Alcotest.(check int) "row count" 1000 n
  | _ -> Alcotest.fail "bad count");
  (* unique1 is a permutation: min 0, max n-1, all distinct *)
  (match
     N.exec_exn s "SELECT MIN(unique1), MAX(unique1), COUNT(*) FROM tenktup1"
   with
  | N.Rows { rows = [ [| Row.Vint mn; Row.Vint mx; Row.Vint c |] ]; _ } ->
      Alcotest.(check int) "min" 0 mn;
      Alcotest.(check int) "max" 999 mx;
      Alcotest.(check int) "count" 1000 c
  | _ -> Alcotest.fail "bad permutation stats");
  (* selectivity sanity: the 1% predicate selects 1% *)
  match
    N.exec_exn s "SELECT COUNT(*) FROM tenktup1 WHERE unique1 >= 400 AND unique1 < 410"
  with
  | N.Rows { rows = [ [| Row.Vint n |] ]; _ } ->
      Alcotest.(check int) "1% selection" 10 n
  | _ -> Alcotest.fail "bad selectivity"

let wisconsin_deterministic () =
  let load () =
    let node = N.create_node () in
    get_ok ~ctx:"wisc" (Wisconsin.create node ~name:"t" ~rows:200 ());
    let s = N.session node in
    match N.exec_exn s "SELECT unique1 FROM t WHERE unique2 < 5 ORDER BY unique2" with
    | N.Rows { rows; _ } ->
        List.map (fun r -> match r.(0) with Row.Vint i -> i | _ -> -1) rows
    | _ -> Alcotest.fail "bad rows"
  in
  Alcotest.(check (list int)) "two loads identical" (load ()) (load ())

let wisconsin_partitioned () =
  let node = N.create_node ~volumes:4 () in
  get_ok ~ctx:"wisc"
    (Wisconsin.create node ~name:"t" ~rows:400 ~partitions:4 ());
  let s = N.session node in
  match N.exec_exn s "SELECT COUNT(*) FROM t" with
  | N.Rows { rows = [ [| Row.Vint 400 |] ]; _ } -> ()
  | _ -> Alcotest.fail "partitioned load wrong"

let queries_run () =
  let node = N.create_node () in
  get_ok ~ctx:"wisc" (Wisconsin.create node ~name:"a" ~rows:500 ());
  get_ok ~ctx:"wisc" (Wisconsin.create node ~name:"b" ~rows:500 ());
  let s = N.session node in
  List.iter
    (fun q ->
      match N.exec s q.Wisconsin.q_sql with
      | Ok (N.Rows _) -> ()
      | Ok _ -> Alcotest.fail (q.Wisconsin.q_id ^ ": no rows result")
      | Error e ->
          Alcotest.fail (q.Wisconsin.q_id ^ ": " ^ Errors.to_string e))
    (Wisconsin.selection_queries ~table:"a" ~rows:500
    @ Wisconsin.agg_and_join_queries ~table:"a" ~table2:"b" ~rows:500)

let debitcredit_consistent () =
  (* run the same transaction mix through both implementations; final
     account totals and history counts must agree *)
  let txs = 50 in
  let deltas = List.init txs (fun i -> float_of_int ((i mod 19) - 9)) in
  let aids = List.init txs (fun i -> (i * 37) mod 200) in
  (* SQL side *)
  let node_sql = N.create_node () in
  let db_sql =
    get_ok ~ctx:"sql setup"
      (Debitcredit.setup_sql node_sql ~accounts:200 ~tellers:20 ~branches:2)
  in
  let s = N.session node_sql in
  List.iter2
    (fun aid delta ->
      get_ok ~ctx:"sql tx" (Debitcredit.run_sql_tx db_sql s ~aid ~delta))
    aids deltas;
  let sql_total, sql_hist = get_ok ~ctx:"sql bal" (Debitcredit.sql_balances db_sql s) in
  (* ENSCRIBE side *)
  let node_ens = N.create_node () in
  let db_ens =
    get_ok ~ctx:"ens setup"
      (Debitcredit.setup_enscribe node_ens ~accounts:200 ~tellers:20 ~branches:2)
  in
  List.iter2
    (fun aid delta ->
      get_ok ~ctx:"ens tx" (Debitcredit.run_enscribe_tx node_ens db_ens ~aid ~delta))
    aids deltas;
  let ens_total, ens_hist =
    get_ok ~ctx:"ens bal" (Debitcredit.enscribe_balances node_ens db_ens)
  in
  Alcotest.(check (float 1e-6)) "totals agree" sql_total ens_total;
  Alcotest.(check int) "history counts agree" sql_hist ens_hist;
  let expected = 200_000. +. List.fold_left ( +. ) 0. deltas in
  Alcotest.(check (float 1e-6)) "conservation" expected sql_total

let debitcredit_sql_cheaper_messages () =
  (* the headline integration claim: the SQL transaction needs no
     preliminary reads, so it sends fewer FS-DP messages than ENSCRIBE *)
  let node_sql = N.create_node () in
  let db_sql =
    get_ok ~ctx:"setup" (Debitcredit.setup_sql node_sql ~accounts:100 ~tellers:10 ~branches:1)
  in
  let s = N.session node_sql in
  let _, d_sql =
    N.measure node_sql (fun () ->
        for i = 0 to 19 do
          get_ok ~ctx:"tx" (Debitcredit.run_sql_tx db_sql s ~aid:i ~delta:1.)
        done)
  in
  let node_ens = N.create_node () in
  let db_ens =
    get_ok ~ctx:"setup"
      (Debitcredit.setup_enscribe node_ens ~accounts:100 ~tellers:10 ~branches:1)
  in
  let _, d_ens =
    N.measure node_ens (fun () ->
        for i = 0 to 19 do
          get_ok ~ctx:"tx" (Debitcredit.run_enscribe_tx node_ens db_ens ~aid:i ~delta:1.)
        done)
  in
  let m_sql = d_sql.Nsql_sim.Stats.msgs_sent in
  let m_ens = d_ens.Nsql_sim.Stats.msgs_sent in
  Alcotest.(check bool)
    (Printf.sprintf "SQL %d msgs < ENSCRIBE %d msgs" m_sql m_ens)
    true (m_sql < m_ens)

(* enabling DP-side lock waiting must be free for uncontended sessions: a
   single session never parks, so its message and byte counts are
   identical with the feature on and off *)
let lock_wait_free_when_uncontended () =
  let run dp_lock_wait =
    let config = Nsql_sim.Config.v ~dp_lock_wait () in
    let node = N.create_node ~config () in
    let db =
      get_ok ~ctx:"setup"
        (Debitcredit.setup_sql node ~accounts:50 ~tellers:5 ~branches:1)
    in
    let s = N.session node in
    let _, d =
      N.measure node (fun () ->
          for i = 0 to 14 do
            get_ok ~ctx:"tx" (Debitcredit.run_sql_tx db s ~aid:i ~delta:1.)
          done)
    in
    d
  in
  let off = run false and on = run true in
  let module S = Nsql_sim.Stats in
  Alcotest.(check int) "messages identical" off.S.msgs_sent on.S.msgs_sent;
  Alcotest.(check int) "request bytes identical" off.S.msg_req_bytes
    on.S.msg_req_bytes;
  Alcotest.(check int) "reply bytes identical" off.S.msg_reply_bytes
    on.S.msg_reply_bytes;
  Alcotest.(check int) "no queued waits" 0 on.S.lock_waits

(* the transfer driver itself, uncontended: one terminal commits everything
   with no waits, no deadlocks, no retries, and conserves money *)
let transfer_single_terminal () =
  let config = Nsql_sim.Config.v ~dp_lock_wait:true () in
  let node = N.create_node ~config () in
  let db = get_ok ~ctx:"setup" (Debitcredit.setup_transfer node ~accounts:4) in
  let rep = Debitcredit.run_transfers db ~terminals:1 ~txs_per_terminal:8 () in
  Alcotest.(check int) "all committed" 8 rep.Debitcredit.x_committed;
  Alcotest.(check int) "no retries" 0 rep.Debitcredit.x_retries;
  Alcotest.(check int) "no failures" 0 rep.Debitcredit.x_failed;
  let sum = get_ok ~ctx:"sum" (Debitcredit.transfer_balance_sum db) in
  Alcotest.(check (float 1e-6)) "conservation" 4000. sum

(* nowait commits: a commit waits only while another terminal can still
   bring its commit to the group, so no flush waits out the timer *)
let transfer_commits_wait_no_timer () =
  let config =
    Nsql_sim.Config.v ~dp_lock_wait:true ~lock_wait_timeout_us:150_000. ()
  in
  let node = N.create_node ~config ~volumes:2 () in
  let db = get_ok ~ctx:"setup" (Debitcredit.setup_transfer node ~accounts:4) in
  let s = Nsql_sim.Sim.stats (N.sim node) in
  let timers = s.Nsql_sim.Stats.audit_flush_timer in
  let rep = Debitcredit.run_transfers db ~terminals:4 ~txs_per_terminal:25 () in
  Alcotest.(check int) "all committed" 100 rep.Debitcredit.x_committed;
  Alcotest.(check int) "no failures" 0 rep.Debitcredit.x_failed;
  Alcotest.(check int) "no timer flush" 0 (s.Nsql_sim.Stats.audit_flush_timer - timers);
  let sum = get_ok ~ctx:"sum" (Debitcredit.transfer_balance_sum db) in
  Alcotest.(check (float 1e-6)) "conservation" 4000. sum

let suite =
  [
    Alcotest.test_case "wisconsin loads correctly" `Quick wisconsin_loads;
    Alcotest.test_case "wisconsin deterministic" `Quick wisconsin_deterministic;
    Alcotest.test_case "wisconsin partitioned" `Quick wisconsin_partitioned;
    Alcotest.test_case "benchmark queries run" `Quick queries_run;
    Alcotest.test_case "debitcredit SQL = ENSCRIBE results" `Quick
      debitcredit_consistent;
    Alcotest.test_case "debitcredit SQL cheaper in messages" `Quick
      debitcredit_sql_cheaper_messages;
    Alcotest.test_case "lock waiting free when uncontended" `Quick
      lock_wait_free_when_uncontended;
    Alcotest.test_case "transfer driver, single terminal" `Quick
      transfer_single_terminal;
    Alcotest.test_case "transfer commits wait out no timer" `Quick
      transfer_commits_wait_no_timer;
  ]
