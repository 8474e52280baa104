(* Tests of the availability features (process-pair takeover) and of the
   newest SQL surface (DISTINCT, DROP TABLE). *)

open Harness
module N = Nsql_core.Nonstop_sql
module Msg = Nsql_msg.Msg
module Dp_msg = Nsql_dp.Dp_msg
module Row = Nsql_row.Row

let takeover_preserves_service () =
  let n, file = (fun () -> let n = node () in (n, create_accounts n)) () in
  load_accounts n file 50;
  let primary_before = Msg.endpoint_processor (Dp.endpoint n.dps.(0)) in
  (* an open transaction holds locks across the takeover *)
  let tx = Tmf.begin_tx n.tmf in
  ignore
    (get_ok ~ctx:"upd"
       (Fs.update_subset n.fs file ~tx
          ~range:Expr.{ lo = acct_key 7; hi = Keycode.successor (acct_key 7) }
          [ { Expr.target = 1; source = Expr.(Const (Row.Vfloat 42.)) } ]));
  (* the primary fails; the backup takes over *)
  get_ok ~ctx:"takeover" (Dp.takeover n.dps.(0));
  let primary_after = Msg.endpoint_processor (Dp.endpoint n.dps.(0)) in
  Alcotest.(check bool) "endpoint moved processors" true
    (primary_before <> primary_after);
  (* the in-flight transaction continues: its locks survived *)
  let tx2 = Tmf.begin_tx n.tmf in
  (match Fs.read n.fs file ~tx:tx2 ~key:(acct_key 7) ~lock:Dp_msg.L_shared with
  | Error (Errors.Lock_timeout _) -> ()
  | Ok _ -> Alcotest.fail "lock lost across takeover"
  | Error e -> Alcotest.fail (Errors.to_string e));
  get_ok ~ctx:"abort reader" (Tmf.abort n.tmf ~tx:tx2);
  get_ok ~ctx:"commit writer" (Tmf.commit n.tmf ~tx);
  (* normal service continues, no recovery required *)
  in_tx n (fun tx ->
      let open Errors in
      let* r = Fs.read n.fs file ~tx ~key:(acct_key 7) ~lock:Dp_msg.L_none in
      (match (Row.decode_exn account_schema r).(1) with
      | Row.Vfloat f -> Alcotest.(check (float 1e-9)) "update survived" 42. f
      | _ -> Alcotest.fail "bad type");
      Ok ());
  (* a second takeover has no backup left *)
  match Dp.takeover n.dps.(0) with
  | Error (Errors.Bad_request _) -> ()
  | Ok () -> Alcotest.fail "takeover without backup succeeded"
  | Error e -> Alcotest.fail (Errors.to_string e)

let takeover_mid_scan () =
  let n, file = (fun () -> let n = node () in (n, create_accounts n)) () in
  load_accounts n file 200;
  in_tx n (fun tx ->
      let open Errors in
      let sc =
        Fs.open_scan n.fs file ~tx ~access:Fs.A_vsbb ~range:full_range
          ~proj:[| 0 |] ~lock:Dp_msg.L_none ()
      in
      let rec go k =
        (* primary fails in the middle of the subset: the SCB was
           checkpointed, so the re-drives continue on the backup *)
        if k = 50 then get_ok ~ctx:"takeover" (Dp.takeover n.dps.(0));
        let* row = Fs.scan_next n.fs sc in
        match row with
        | Some _ -> go (k + 1)
        | None ->
            Fs.close_scan n.fs sc;
            Alcotest.(check int) "scan complete across takeover" 200 k;
            Ok ()
      in
      go 0)

let distinct_sql () =
  let node = N.create_node () in
  let s = N.session node in
  ignore (N.exec_exn s "CREATE TABLE t (k INT PRIMARY KEY, g INT NOT NULL)");
  for i = 0 to 9 do
    ignore (N.exec_exn s (Printf.sprintf "INSERT INTO t VALUES (%d, %d)" i (i mod 3)))
  done;
  let rows =
    match N.exec_exn s "SELECT DISTINCT g FROM t ORDER BY g" with
    | N.Rows r -> r.Nsql_sql.Executor.rows
    | _ -> Alcotest.fail "expected rows"
  in
  Alcotest.(check int) "three distinct values" 3 (List.length rows);
  let plain =
    match N.exec_exn s "SELECT g FROM t" with
    | N.Rows r -> List.length r.Nsql_sql.Executor.rows
    | _ -> 0
  in
  Alcotest.(check int) "without DISTINCT all rows" 10 plain

let drop_table_sql () =
  let node = N.create_node () in
  let s = N.session node in
  ignore (N.exec_exn s "CREATE TABLE t (k INT PRIMARY KEY)");
  ignore (N.exec_exn s "INSERT INTO t VALUES (1)");
  (match N.exec_exn s "DROP TABLE t" with
  | N.Done -> ()
  | _ -> Alcotest.fail "expected Done");
  (match N.exec s "SELECT * FROM t" with
  | Error (Errors.Name_error _) -> ()
  | _ -> Alcotest.fail "dropped table still queryable");
  match N.exec s "DROP TABLE t" with
  | Error (Errors.Name_error _) -> ()
  | _ -> Alcotest.fail "double drop accepted"

let suite =
  [
    Alcotest.test_case "takeover preserves service + locks" `Quick
      takeover_preserves_service;
    Alcotest.test_case "takeover mid-scan (SCB survives)" `Quick
      takeover_mid_scan;
    Alcotest.test_case "SELECT DISTINCT" `Quick distinct_sql;
    Alcotest.test_case "DROP TABLE" `Quick drop_table_sql;
  ]

(* --- read-only transactions and entry-append undo (late additions) ------- *)

let readonly_tx_skips_group_commit () =
  let node = N.create_node () in
  let s = N.session node in
  ignore (N.exec_exn s "CREATE TABLE t (k INT PRIMARY KEY)");
  ignore (N.exec_exn s "INSERT INTO t VALUES (1)");
  let stats = N.stats node in
  let flushes = stats.Nsql_sim.Stats.audit_flushes in
  let records = stats.Nsql_sim.Stats.audit_records in
  let t0 = Nsql_sim.Sim.now (N.sim node) in
  ignore (N.exec_exn s "SELECT * FROM t");
  Alcotest.(check int) "no log flush for a read-only statement" flushes
    stats.Nsql_sim.Stats.audit_flushes;
  (* only the BEGIN record, no COMMIT *)
  Alcotest.(check int) "one audit record (BEGIN)" (records + 1)
    stats.Nsql_sim.Stats.audit_records;
  Alcotest.(check bool) "no group-commit wait" true
    (Nsql_sim.Sim.now (N.sim node) -. t0 < 10_000.)

let entry_append_abort_undoes () =
  let n = node () in
  let file =
    get_ok ~ctx:"create"
      (Fs.create_enscribe_file n.fs ~fname:"HIST" ~kind:Dp_msg.K_entry_sequenced
         ~partitions:[ Fs.{ ps_lo = ""; ps_dp = n.dps.(0) } ])
  in
  in_tx n (fun tx ->
      let open Errors in
      let* _ = Fs.append_entry n.fs file ~tx ~record:"committed-1" in
      Ok ());
  let tx = Tmf.begin_tx n.tmf in
  ignore (get_ok ~ctx:"a1" (Fs.append_entry n.fs file ~tx ~record:"doomed-1"));
  ignore (get_ok ~ctx:"a2" (Fs.append_entry n.fs file ~tx ~record:"doomed-2"));
  Alcotest.(check int) "visible before abort" 3 (record_count n file);
  get_ok ~ctx:"abort" (Tmf.abort n.tmf ~tx);
  Alcotest.(check int) "appends rolled back" 1 (record_count n file);
  (* the file still works after the truncation *)
  in_tx n (fun tx ->
      let open Errors in
      let* _ = Fs.append_entry n.fs file ~tx ~record:"committed-2" in
      Ok ());
  Alcotest.(check int) "append after undo" 2 (record_count n file)

let suite =
  suite
  @ [
      Alcotest.test_case "read-only tx skips group commit" `Quick
        readonly_tx_skips_group_commit;
      Alcotest.test_case "entry-append abort truncates" `Quick
        entry_append_abort_undoes;
    ]

(* --- process-pair replication battery ------------------------------------ *)

module Stats = Nsql_sim.Stats

let lock_wait_config () =
  Config.v ~dp_lock_wait:true ~lock_wait_timeout_us:150_000. ()

(* an exclusive point read sent nowait straight at the Disk Process, so the
   test can hold several parked requests at once *)
let xread_nowait n ~dpfile ~tx key =
  let req =
    Dp_msg.R_read { file = dpfile; tx; key; lock = Dp_msg.L_exclusive }
  in
  Msg.send_nowait n.msys ~from:n.app_processor ~tag:(Dp_msg.tag req)
    (Dp.endpoint n.dps.(0)) (Dp_msg.encode_request req)

let reply_of payload =
  match Dp_msg.decode_reply payload with
  | Ok r -> r
  | Error e -> Alcotest.fail (Dp_msg.decode_error_to_string e)

(* two waiters queue behind an exclusive lock; the primary fails; the NEW
   primary must grant them in the original FIFO order when the lock holder
   commits *)
let takeover_preserves_fifo_waiters () =
  let n = node ~config:(lock_wait_config ()) () in
  let file = create_accounts n in
  load_accounts n file 10;
  let dpfile = Option.get (Dp.file_id n.dps.(0) "ACCOUNT#p0") in
  let tx1 = Tmf.begin_tx n.tmf in
  ignore
    (get_ok ~ctx:"tx1 X"
       (Fs.read n.fs file ~tx:tx1 ~key:(acct_key 5) ~lock:Dp_msg.L_exclusive));
  let tx2 = Tmf.begin_tx n.tmf in
  let tx3 = Tmf.begin_tx n.tmf in
  let c2 = xread_nowait n ~dpfile ~tx:tx2 (acct_key 5) in
  let c3 = xread_nowait n ~dpfile ~tx:tx3 (acct_key 5) in
  Alcotest.(check bool) "both parked" true
    (Msg.done_at c2 = None && Msg.done_at c3 = None);
  get_ok ~ctx:"takeover" (Dp.takeover n.dps.(0));
  Alcotest.(check bool) "both still parked on the new primary" true
    (Msg.done_at c2 = None && Msg.done_at c3 = None);
  (* release: the new primary pumps its (checkpointed) wait queue *)
  get_ok ~ctx:"commit tx1" (Tmf.commit n.tmf ~tx:tx1);
  Alcotest.(check bool) "tx2 granted first (FIFO)" true
    (Msg.done_at c2 <> None);
  Alcotest.(check bool) "tx3 still behind tx2" true (Msg.done_at c3 = None);
  (match reply_of (Msg.await n.msys c2) with
  | Dp_msg.Rp_record _ -> ()
  | _ -> Alcotest.fail "tx2: expected the record");
  get_ok ~ctx:"commit tx2" (Tmf.commit n.tmf ~tx:tx2);
  Alcotest.(check bool) "tx3 granted after tx2" true (Msg.done_at c3 <> None);
  (match reply_of (Msg.await n.msys c3) with
  | Dp_msg.Rp_record _ -> ()
  | _ -> Alcotest.fail "tx3: expected the record");
  get_ok ~ctx:"commit tx3" (Tmf.commit n.tmf ~tx:tx3)

(* a parked request's wait budget is NOT restarted by a takeover: the
   timeout fires at park-time + budget even though the primary changed
   half-way through the wait *)
let takeover_keeps_wait_budget () =
  let n = node ~config:(lock_wait_config ()) () in
  let file = create_accounts n in
  load_accounts n file 10;
  let dpfile = Option.get (Dp.file_id n.dps.(0) "ACCOUNT#p0") in
  let tx1 = Tmf.begin_tx n.tmf in
  ignore
    (get_ok ~ctx:"tx1 X"
       (Fs.read n.fs file ~tx:tx1 ~key:(acct_key 3) ~lock:Dp_msg.L_exclusive));
  let tx2 = Tmf.begin_tx n.tmf in
  let parked_at = Sim.now n.sim in
  let c2 = xread_nowait n ~dpfile ~tx:tx2 (acct_key 3) in
  (* fail the primary half-way into the 150ms budget *)
  Sim.schedule n.sim
    ~at:(parked_at +. 75_000.)
    (fun () -> get_ok ~ctx:"mid-wait takeover" (Dp.takeover n.dps.(0)));
  (match reply_of (Msg.await n.msys c2) with
  | Dp_msg.Rp_error (Errors.Lock_timeout _) -> ()
  | Dp_msg.Rp_error e -> Alcotest.fail (Errors.to_string e)
  | _ -> Alcotest.fail "expected a lock-wait timeout");
  let waited = Sim.now n.sim -. parked_at in
  Alcotest.(check bool) "waited out the budget" true (waited >= 150_000.);
  Alcotest.(check bool) "budget kept counting across takeover" true
    (waited < 160_000.);
  get_ok ~ctx:"abort tx2" (Tmf.abort n.tmf ~tx:tx2);
  get_ok ~ctx:"commit tx1" (Tmf.commit n.tmf ~tx:tx1)

(* no-backup regressions: a solo Disk Process refuses takeover with
   [Bad_request], and a second takeover of a pair finds no backup left *)
let no_backup_regressions () =
  let sim = Sim.create () in
  let msys = Msg.create sim in
  let audit_volume = Disk.create sim ~name:"$AUDIT" in
  let trail = Trail.create sim audit_volume in
  let tmf = Tmf.create sim trail in
  let solo =
    Dp.create sim msys tmf ~name:"$SOLO"
      ~processor:Msg.{ node = 0; cpu = 1 }
      ()
  in
  (match Dp.takeover solo with
  | Error (Errors.Bad_request _) -> ()
  | Ok () -> Alcotest.fail "takeover without backup succeeded"
  | Error e -> Alcotest.fail (Errors.to_string e));
  let nn = N.create_node () in
  Alcotest.(check bool) "first takeover flips to the backup" true
    (N.takeover_volume nn 0);
  Alcotest.(check bool) "double takeover refused" false
    (N.takeover_volume nn 0)

(* "the replica is free when unused": with no fault injected, running the
   same workload with the backup's replica fed and detached yields
   bit-identical results, clock, and counters — the checkpoint messages
   themselves are charged either way, the replica bookkeeping is pure
   heap *)
let replica_is_free_when_unused () =
  let run replica =
    let n = node ~config:(lock_wait_config ()) () in
    if not replica then
      Array.iter
        (fun dp -> Msg.set_checkpoint_receiver (Dp.endpoint dp) None)
        n.dps;
    let file = create_accounts n in
    load_accounts n file 60;
    let dpfile = Option.get (Dp.file_id n.dps.(0) "ACCOUNT#p0") in
    (* cross every checkpointed structure: a subset update (SCB + intent),
       a lock wait with grant (park/unpark), and a full scan *)
    in_tx n (fun tx ->
        let open Errors in
        let* nrows =
          Fs.update_subset n.fs file ~tx
            ~range:
              Expr.{ lo = acct_key 10; hi = Keycode.successor (acct_key 19) }
            [ { Expr.target = 1; source = Expr.(Const (Row.Vfloat 7.)) } ]
        in
        Alcotest.(check int) "updated" 10 nrows;
        Ok ());
    let tx1 = Tmf.begin_tx n.tmf in
    ignore
      (get_ok ~ctx:"tx1 X"
         (Fs.read n.fs file ~tx:tx1 ~key:(acct_key 0)
            ~lock:Dp_msg.L_exclusive));
    let tx2 = Tmf.begin_tx n.tmf in
    let c2 = xread_nowait n ~dpfile ~tx:tx2 (acct_key 0) in
    get_ok ~ctx:"commit tx1" (Tmf.commit n.tmf ~tx:tx1);
    (match reply_of (Msg.await n.msys c2) with
    | Dp_msg.Rp_record _ -> ()
    | _ -> Alcotest.fail "waiter not granted");
    get_ok ~ctx:"commit tx2" (Tmf.commit n.tmf ~tx:tx2);
    let rows =
      in_tx n (fun tx ->
          let sc =
            Fs.open_scan n.fs file ~tx ~access:Fs.A_vsbb ~range:full_range
              ~lock:Dp_msg.L_none ()
          in
          Ok (drain_scan n sc))
    in
    let encoded = List.map (Row.encode account_schema) rows in
    (Sim.now n.sim, Stats.to_assoc (Sim.stats n.sim), encoded)
  in
  let t_on, s_on, r_on = run true in
  let t_off, s_off, r_off = run false in
  Alcotest.(check (float 0.)) "bit-identical clock" t_on t_off;
  Alcotest.(check (list (pair string int))) "bit-identical counters" s_on
    s_off;
  Alcotest.(check (list string)) "bit-identical results" r_on r_off

let suite =
  suite
  @ [
      Alcotest.test_case "takeover preserves waiter FIFO" `Quick
        takeover_preserves_fifo_waiters;
      Alcotest.test_case "takeover keeps the wait budget counting" `Quick
        takeover_keeps_wait_budget;
      Alcotest.test_case "no backup: Bad_request and double takeover" `Quick
        no_backup_regressions;
      Alcotest.test_case "replica is free when unused" `Quick
        replica_is_free_when_unused;
    ]
