(* Integration tests of the Disk Process: the FS-DP protocol codec, record
   operations, set-oriented operations with re-drive, SCBs, field-compressed
   audit, undo/abort, crash recovery. *)

open Harness
module Dp_msg = Nsql_dp.Dp_msg
module Stats = Nsql_sim.Stats
module Ar = Nsql_audit.Audit_record

(* one of each subset request shape, pinned to its tag and encoded length:
   a byte slipping into (or out of) the shared subset field codec moves
   one of these lengths *)
let subset_wire_cases =
  let pos = Some Expr.(Cmp (Gt, Field 1, float_ 0.)) in
  Dp_msg.
    [
      ( "GET^FIRST^VSBB48",
        R_subset_first
          {
            file = 1;
            tx = 2;
            range = Expr.{ lo = "a"; hi = Keycode.high_value };
            body =
              Cs_read
                { buffering = B_vsbb; pred = pos; proj = Some [| 0; 2 |]; lock = L_none };
          } );
      ( "GET^FIRST^RSBB30",
        R_subset_first
          {
            file = 1;
            tx = 2;
            range = Expr.full_range;
            body =
              Cs_read { buffering = B_rsbb; pred = None; proj = None; lock = L_shared };
          } );
      ( "GET^NEXT8",
        R_subset_next { kind = Sk_get; file = 1; tx = 2; scb = 5; after_key = "k42" } );
      ( "UPDATE^SUBSET^FIRST43",
        R_subset_first
          {
            file = 1;
            tx = 2;
            range = Expr.full_range;
            body =
              Cs_update
                {
                  pred = None;
                  assignments =
                    [
                      { Expr.target = 1; source = Expr.(Binop (Mul, Field 1, float_ 1.07)) };
                    ];
                };
          } );
      ( "UPDATE^SUBSET^NEXT6",
        R_subset_next { kind = Sk_update; file = 1; tx = 2; scb = 3; after_key = "m" } );
      ( "DELETE^SUBSET^FIRST22",
        R_subset_first
          {
            file = 4;
            tx = 9;
            range = Expr.{ lo = "b"; hi = "q" };
            body = Cs_delete { pred = Some Expr.(Cmp (Lt, Field 0, int_ 10)) };
          } );
      ( "DELETE^SUBSET^NEXT6",
        R_subset_next { kind = Sk_delete; file = 4; tx = 9; scb = 12; after_key = "c" } );
      ( "AGGREGATE^FIRST51",
        R_subset_first
          {
            file = 2;
            tx = 3;
            range = Expr.full_range;
            body =
              Cs_agg
                {
                  pred = Some Expr.(Cmp (Ge, Field 1, int_ 0));
                  group_keys = [| 0 |];
                  aggs =
                    [
                      { ag_kind = Agg_count_star; ag_arg = None };
                      { ag_kind = Agg_sum; ag_arg = Some (Expr.Field 1) };
                    ];
                  lock = L_shared;
                };
          } );
      ( "AGGREGATE^NEXT8",
        R_subset_next { kind = Sk_agg; file = 2; tx = 3; scb = 300; after_key = "zz" } );
    ]

let codec_roundtrip () =
  let wire req =
    Dp_msg.tag req ^ string_of_int (String.length (Dp_msg.encode_request req))
  in
  let reqs =
    [
      Dp_msg.R_read { file = 3; tx = 7; key = "k"; lock = Dp_msg.L_shared };
      Dp_msg.R_insert_block
        { file = 0; tx = 1; rows = [ [| Row.Vint 1; Row.Vstr "x" |] ] };
      Dp_msg.R_read_next
        { file = 0; tx = 0; from_key = "q"; inclusive = true;
          lock = Dp_msg.L_none; sbb = true };
    ]
    @ List.map snd subset_wire_cases
  in
  List.iter
    (fun (pinned, req) -> Alcotest.(check string) "subset wire length" pinned (wire req))
    subset_wire_cases;
  List.iter
    (fun req ->
      let req' =
        match Dp_msg.decode_request (Dp_msg.encode_request req) with
        | Ok r -> r
        | Error e -> failwith (Dp_msg.decode_error_to_string e)
      in
      Alcotest.(check string) "request roundtrip (by tag+size)" (wire req) (wire req'))
    reqs;
  let replies =
    [
      Dp_msg.Rp_ok;
      Dp_msg.Rp_record { key = "k"; record = "r" };
      Dp_msg.Rp_vblock
        { rows = [ [| Row.Vint 1 |]; [| Row.Null |] ]; last_key = "z"; more = true; scb = 4 };
      Dp_msg.Rp_blocked { blockers = [ 3; 9 ]; processed = 2; last_key = "m"; scb = 1 };
      Dp_msg.Rp_error (Errors.Duplicate_key "dup");
    ]
  in
  List.iter
    (fun reply ->
      let reply' =
        match Dp_msg.decode_reply (Dp_msg.encode_reply reply) with
        | Ok r -> r
        | Error e -> failwith (Dp_msg.decode_error_to_string e)
      in
      Alcotest.(check string) "reply roundtrip"
        (String.length (Dp_msg.encode_reply reply) |> string_of_int)
        (String.length (Dp_msg.encode_reply reply') |> string_of_int))
    replies

let setup_with_file () =
  let n = node () in
  let file = create_accounts n in
  (n, file)

let insert_read_commit () =
  let n, file = setup_with_file () in
  in_tx n (fun tx ->
      let open Errors in
      let* () = Fs.insert_row n.fs file ~tx (account 1 500. "alice") in
      let* () = Fs.insert_row n.fs file ~tx (account 2 700. "bob") in
      Ok ());
  in_tx n (fun tx ->
      let open Errors in
      let* record = Fs.read n.fs file ~tx ~key:(acct_key 1) ~lock:Dp_msg.L_shared in
      let row = Row.decode_exn account_schema record in
      Alcotest.(check bool) "balance read back" true
        (Row.equal_value (Row.Vfloat 500.) row.(1));
      Ok ())

let duplicate_key_via_messages () =
  let n, file = setup_with_file () in
  in_tx n (fun tx -> Fs.insert_row n.fs file ~tx (account 1 1. "x"));
  let tx = Tmf.begin_tx n.tmf in
  (match Fs.insert_row n.fs file ~tx (account 1 2. "y") with
  | Error (Errors.Duplicate_key _) -> ()
  | Ok () -> Alcotest.fail "duplicate accepted"
  | Error e -> Alcotest.fail (Errors.to_string e));
  get_ok ~ctx:"abort" (Tmf.abort n.tmf ~tx)

let check_constraint_enforced_at_dp () =
  let n = node () in
  (* CHECK balance >= 0, enforced in the Disk Process *)
  let check = Some Expr.(Cmp (Ge, Field 1, float_ 0.)) in
  let file = create_accounts ~check n in
  let tx = Tmf.begin_tx n.tmf in
  (match Fs.insert_row n.fs file ~tx (account 1 (-5.) "red") with
  | Error (Errors.Constraint_violation _) -> ()
  | Ok () -> Alcotest.fail "negative balance accepted"
  | Error e -> Alcotest.fail (Errors.to_string e));
  get_ok ~ctx:"insert ok" (Fs.insert_row n.fs file ~tx (account 1 5. "ok"));
  (* update that would violate the constraint must be rejected DP-side
     without a preliminary read message *)
  (match
     Fs.update_subset n.fs file ~tx ~range:full_range
       [ { Expr.target = 1; source = Expr.(Binop (Sub, Field 1, float_ 100.)) } ]
   with
  | Error (Errors.Constraint_violation _) -> ()
  | Ok _ -> Alcotest.fail "constraint-violating update accepted"
  | Error e -> Alcotest.fail (Errors.to_string e));
  get_ok ~ctx:"abort" (Tmf.abort n.tmf ~tx)

let vsbb_scan_results () =
  let n, file = setup_with_file () in
  load_accounts n file 200;
  in_tx n (fun tx ->
      let sc =
        Fs.open_scan n.fs file ~tx ~access:Fs.A_vsbb ~range:full_range
          ~pred:Expr.(Cmp (Ge, Field 1, float_ 15000.))
          ~proj:[| 0; 2 |] ~lock:Dp_msg.L_shared ()
      in
      let rows = drain_scan n sc in
      (* balances are 100*i, i in 0..199; >= 15000 means i >= 150 *)
      Alcotest.(check int) "row count" 50 (List.length rows);
      (match rows with
      | first :: _ ->
          Alcotest.(check bool) "projected first row" true
            (Row.equal_row [| Row.Vint 150; Row.Vstr "owner-0150" |] first)
      | [] -> Alcotest.fail "no rows");
      Ok ())

let scan_modes_agree () =
  let n, file = setup_with_file () in
  load_accounts n file 300;
  let pred = Expr.(Cmp (Lt, Field 0, int_ 123)) in
  let collect access =
    in_tx n (fun tx ->
        let sc =
          Fs.open_scan n.fs file ~tx ~access ~range:full_range ~pred
            ~proj:[| 0 |] ~lock:Dp_msg.L_none ()
        in
        Ok (drain_scan n sc))
  in
  let va = collect Fs.A_vsbb in
  let ra = collect Fs.A_rsbb in
  let rec_ = collect Fs.A_record in
  Alcotest.(check int) "vsbb count" 123 (List.length va);
  Alcotest.(check bool) "vsbb = rsbb" true
    (List.for_all2 Row.equal_row va ra);
  Alcotest.(check bool) "vsbb = record" true
    (List.for_all2 Row.equal_row va rec_)

let vsbb_fewer_messages () =
  let n, file = setup_with_file () in
  load_accounts n file 500;
  let messages access =
    let before = (Sim.stats n.sim).Stats.msgs_sent in
    in_tx n (fun tx ->
        let sc =
          Fs.open_scan n.fs file ~tx ~access ~range:full_range
            ~pred:Expr.(Cmp (Eq, Field 2, str "owner-0100"))
            ~proj:[| 0 |] ~lock:Dp_msg.L_none ()
        in
        ignore (drain_scan n sc);
        Ok ());
    (Sim.stats n.sim).Stats.msgs_sent - before
  in
  let m_rec = messages Fs.A_record in
  let m_rsbb = messages Fs.A_rsbb in
  let m_vsbb = messages Fs.A_vsbb in
  Alcotest.(check bool)
    (Printf.sprintf "record(%d) > rsbb(%d) > vsbb(%d)" m_rec m_rsbb m_vsbb)
    true
    (m_rec > m_rsbb && m_rsbb > m_vsbb)

let redrive_protocol () =
  (* a tiny VSBB buffer forces continuation re-drives *)
  let config = Config.v ~vsbb_buffer_bytes:256 () in
  let n = node ~config () in
  let file = create_accounts n in
  load_accounts n file 120;
  let s = Sim.stats n.sim in
  in_tx n (fun tx ->
      let sc =
        Fs.open_scan n.fs file ~tx ~access:Fs.A_vsbb ~range:full_range
          ~lock:Dp_msg.L_none ()
      in
      let rows = drain_scan n sc in
      Alcotest.(check int) "all rows despite re-drives" 120 (List.length rows);
      Ok ());
  Alcotest.(check bool)
    (Printf.sprintf "re-drives happened (%d)" s.Stats.redrives)
    true (s.Stats.redrives > 3)

let update_subset_applies () =
  let n, file = setup_with_file () in
  load_accounts n file 100;
  let updated =
    in_tx n (fun tx ->
        Fs.update_subset n.fs file ~tx ~range:full_range
          ~pred:Expr.(Cmp (Ge, Field 1, float_ 5000.))
          [ { Expr.target = 1; source = Expr.(Binop (Mul, Field 1, float_ 1.07)) } ])
  in
  Alcotest.(check int) "rows updated" 50 updated;
  in_tx n (fun tx ->
      let open Errors in
      let* record = Fs.read n.fs file ~tx ~key:(acct_key 60) ~lock:Dp_msg.L_none in
      let row = Row.decode_exn account_schema record in
      (match row.(1) with
      | Row.Vfloat f -> Alcotest.(check (float 1e-6)) "interest applied" (6000. *. 1.07) f
      | _ -> Alcotest.fail "bad type");
      let* record = Fs.read n.fs file ~tx ~key:(acct_key 10) ~lock:Dp_msg.L_none in
      let row = Row.decode_exn account_schema record in
      (match row.(1) with
      | Row.Vfloat f -> Alcotest.(check (float 1e-6)) "below threshold untouched" 1000. f
      | _ -> Alcotest.fail "bad type");
      Ok ())

let update_subset_field_compressed_audit () =
  let n, file = setup_with_file () in
  load_accounts n file 50;
  let s = Sim.stats n.sim in
  let audit_before = s.Stats.audit_bytes in
  let _count =
    in_tx n (fun tx ->
        Fs.update_subset n.fs file ~tx ~range:full_range
          [ { Expr.target = 1; source = Expr.(Binop (Mul, Field 1, float_ 1.07)) } ])
  in
  let sql_audit = s.Stats.audit_bytes - audit_before in
  (* same update via the record-at-a-time full-image path *)
  let audit_before = s.Stats.audit_bytes in
  in_tx n (fun tx ->
      let open Errors in
      let rec go i =
        if i >= 50 then Ok ()
        else
          let* () =
            Fs.update_row_via_key n.fs file ~tx ~key:(acct_key i)
              [ { Expr.target = 1; source = Expr.(Binop (Mul, Field 1, float_ 1.07)) } ]
          in
          go (i + 1)
      in
      go 0);
  let full_audit = s.Stats.audit_bytes - audit_before in
  (* the account record is small (~45B); even so the compressed form must
     clearly win — the E4 bench measures the larger, realistic ratio on
     wide records *)
  Alcotest.(check bool)
    (Printf.sprintf "field-compressed %dB < full-image %dB" sql_audit full_audit)
    true
    (sql_audit * 3 < full_audit * 2)

let delete_subset_applies () =
  let n, file = setup_with_file () in
  load_accounts n file 100;
  let deleted =
    in_tx n (fun tx ->
        Fs.delete_subset n.fs file ~tx ~range:full_range
          ~pred:Expr.(Cmp (Lt, Field 0, int_ 30))
          ())
  in
  Alcotest.(check int) "rows deleted" 30 deleted;
  Alcotest.(check int) "remaining" 70 (record_count n file)

let abort_undoes_everything () =
  let n, file = setup_with_file () in
  load_accounts n file 40;
  let tx = Tmf.begin_tx n.tmf in
  get_ok ~ctx:"ins" (Fs.insert_row n.fs file ~tx (account 999 1. "ghost"));
  ignore
    (get_ok ~ctx:"upd"
       (Fs.update_subset n.fs file ~tx ~range:full_range
          [ { Expr.target = 1; source = Expr.(Binop (Add, Field 1, float_ 5.)) } ]));
  ignore
    (get_ok ~ctx:"del"
       (Fs.delete_subset n.fs file ~tx ~range:full_range
          ~pred:Expr.(Cmp (Lt, Field 0, int_ 5))
          ()));
  get_ok ~ctx:"abort" (Tmf.abort n.tmf ~tx);
  (* everything back to the loaded state *)
  Alcotest.(check int) "count restored" 40 (record_count n file);
  in_tx n (fun tx ->
      let open Errors in
      let* record = Fs.read n.fs file ~tx ~key:(acct_key 7) ~lock:Dp_msg.L_none in
      let row = Row.decode_exn account_schema record in
      (match row.(1) with
      | Row.Vfloat f -> Alcotest.(check (float 1e-9)) "balance restored" 700. f
      | _ -> Alcotest.fail "bad type");
      (match Fs.read n.fs file ~tx ~key:(acct_key 999) ~lock:Dp_msg.L_none with
      | Error (Errors.Not_found_key _) -> ()
      | Ok _ -> Alcotest.fail "ghost insert survived abort"
      | Error e -> Alcotest.fail (Errors.to_string e));
      Ok ())

let crash_recovery_restores_committed () =
  let n, file = setup_with_file () in
  load_accounts n file 60;
  (* a committed update *)
  ignore
    (in_tx n (fun tx ->
         Fs.update_subset n.fs file ~tx ~range:full_range
           ~pred:Expr.(Cmp (Eq, Field 0, int_ 10))
           [ { Expr.target = 1; source = Expr.(Const (Row.Vfloat 9999.)) } ]));
  (* an uncommitted transaction in flight at the crash; its audit happens
     to reach the trail (buffer-full flush) so recovery must recognise it
     as a loser *)
  let tx = Tmf.begin_tx n.tmf in
  get_ok ~ctx:"ins" (Fs.insert_row n.fs file ~tx (account 777 1. "loser"));
  Trail.force n.trail (Int64.pred (Trail.next_lsn n.trail));
  (* crash: volatile state lost *)
  Dp.crash n.dps.(0);
  let outcome = Dp.recover n.dps.(0) in
  Alcotest.(check bool) "some records replayed" true
    (outcome.Nsql_tmf.Recovery.replayed >= 60);
  Alcotest.(check bool) "losers detected" true
    (outcome.Nsql_tmf.Recovery.losers >= 1);
  Alcotest.(check int) "committed count restored" 60 (record_count n file);
  (match Dp.check_invariants n.dps.(0) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  in_tx n (fun tx ->
      let open Errors in
      let* record = Fs.read n.fs file ~tx ~key:(acct_key 10) ~lock:Dp_msg.L_none in
      let row = Row.decode_exn account_schema record in
      (match row.(1) with
      | Row.Vfloat f ->
          Alcotest.(check (float 1e-9)) "committed update survived" 9999. f
      | _ -> Alcotest.fail "bad type");
      (match Fs.read n.fs file ~tx ~key:(acct_key 777) ~lock:Dp_msg.L_none with
      | Error (Errors.Not_found_key _) -> ()
      | Ok _ -> Alcotest.fail "uncommitted insert survived crash"
      | Error e -> Alcotest.fail (Errors.to_string e));
      Ok ())

let update_of_primary_key_rejected () =
  let n, file = setup_with_file () in
  load_accounts n file 5;
  let tx = Tmf.begin_tx n.tmf in
  (match
     Fs.update_subset n.fs file ~tx ~range:full_range
       [ { Expr.target = 0; source = Expr.(Binop (Add, Field 0, int_ 1)) } ]
   with
  | Error (Errors.Bad_request _) -> ()
  | Ok _ -> Alcotest.fail "primary-key update accepted"
  | Error e -> Alcotest.fail (Errors.to_string e));
  get_ok ~ctx:"abort" (Tmf.abort n.tmf ~tx)

let lock_conflict_reported () =
  let n, file = setup_with_file () in
  load_accounts n file 10;
  let tx1 = Tmf.begin_tx n.tmf in
  ignore
    (get_ok ~ctx:"upd"
       (Fs.update_subset n.fs file ~tx:tx1 ~range:full_range
          ~pred:Expr.(Cmp (Eq, Field 0, int_ 3))
          [ { Expr.target = 1; source = Expr.(Const (Row.Vfloat 0.)) } ]));
  let tx2 = Tmf.begin_tx n.tmf in
  (match Fs.read n.fs file ~tx:tx2 ~key:(acct_key 3) ~lock:Dp_msg.L_shared with
  | Error (Errors.Lock_timeout _) -> ()
  | Ok _ -> Alcotest.fail "conflicting read granted"
  | Error e -> Alcotest.fail (Errors.to_string e));
  get_ok ~ctx:"commit tx1" (Tmf.commit n.tmf ~tx:tx1);
  (* after commit the lock is free *)
  (match Fs.read n.fs file ~tx:tx2 ~key:(acct_key 3) ~lock:Dp_msg.L_shared with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Errors.to_string e));
  get_ok ~ctx:"commit tx2" (Tmf.commit n.tmf ~tx:tx2)

let checkpoint_messages_counted () =
  let n, file = setup_with_file () in
  let s = Sim.stats n.sim in
  let before = s.Stats.checkpoint_msgs in
  in_tx n (fun tx -> Fs.insert_row n.fs file ~tx (account 1 1. "a"));
  Alcotest.(check bool) "mutations checkpoint to backup" true
    (s.Stats.checkpoint_msgs > before)

let suite =
  [
    Alcotest.test_case "protocol codec roundtrip" `Quick codec_roundtrip;
    Alcotest.test_case "insert + read via messages" `Quick insert_read_commit;
    Alcotest.test_case "duplicate key" `Quick duplicate_key_via_messages;
    Alcotest.test_case "CHECK constraint at DP" `Quick
      check_constraint_enforced_at_dp;
    Alcotest.test_case "VSBB scan selects and projects" `Quick vsbb_scan_results;
    Alcotest.test_case "scan modes agree" `Quick scan_modes_agree;
    Alcotest.test_case "VSBB < RSBB < record messages" `Quick
      vsbb_fewer_messages;
    Alcotest.test_case "continuation re-drive protocol" `Quick redrive_protocol;
    Alcotest.test_case "update subset applies expression" `Quick
      update_subset_applies;
    Alcotest.test_case "field-compressed audit smaller" `Quick
      update_subset_field_compressed_audit;
    Alcotest.test_case "delete subset" `Quick delete_subset_applies;
    Alcotest.test_case "abort undoes inserts/updates/deletes" `Quick
      abort_undoes_everything;
    Alcotest.test_case "crash recovery" `Quick crash_recovery_restores_committed;
    Alcotest.test_case "primary-key update rejected" `Quick
      update_of_primary_key_rejected;
    Alcotest.test_case "lock conflict + release on commit" `Quick
      lock_conflict_reported;
    Alcotest.test_case "checkpoints to backup process" `Quick
      checkpoint_messages_counted;
  ]

(* late addition: the raw record interface cannot bypass the CHECK
   constraint of a SQL file *)
let raw_update_checks_constraint () =
  let n = node () in
  let check = Some Expr.(Cmp (Ge, Field 1, float_ 0.)) in
  let file = create_accounts ~check n in
  load_accounts n file 3;
  let tx = Tmf.begin_tx n.tmf in
  let bad = Row.encode account_schema (account 1 (-50.) "evil") in
  (match Fs.update n.fs file ~tx ~key:(acct_key 1) ~record:bad with
  | Error (Errors.Constraint_violation _) -> ()
  | Ok () -> Alcotest.fail "raw UPDATE bypassed CHECK"
  | Error e -> Alcotest.fail (Errors.to_string e));
  (match Fs.insert n.fs file ~tx ~key:(acct_key 99) ~record:bad with
  | Error (Errors.Constraint_violation _) -> ()
  | Ok () -> Alcotest.fail "raw WRITE bypassed CHECK"
  | Error e -> Alcotest.fail (Errors.to_string e));
  get_ok ~ctx:"abort" (Tmf.abort n.tmf ~tx)

let suite =
  suite
  @ [
      Alcotest.test_case "raw record writes respect CHECK" `Quick
        raw_update_checks_constraint;
    ]

(* --- DP lock wait queues (dp_lock_wait) ------------------------------- *)

(* With [dp_lock_wait] on, a conflicting request parks on the Disk
   Process's FIFO wait queue — the reply is simply withheld — instead of
   bouncing back as an immediate denial. These tests drive the DP with
   nowait sends so the test itself can hold locks while other requests
   wait. *)

let wait_node ?(timeout_us = 1_000_000.) () =
  let config = Config.v ~dp_lock_wait:true ~lock_wait_timeout_us:timeout_us () in
  let n = node ~config () in
  let file = create_accounts n in
  load_accounts n file 5;
  (n, file)

let dp_file n = Option.get (Dp.file_id n.dps.(0) "ACCOUNT#p0")

let nowait_read n ~tx ~acct ~lock =
  let req =
    Dp_msg.R_read { file = dp_file n; tx; key = acct_key acct; lock }
  in
  Msg.send_nowait n.msys ~from:n.app_processor ~tag:(Dp_msg.tag req)
    (Dp.endpoint n.dps.(0))
    (Dp_msg.encode_request req)

let reply_of n c =
  match Dp_msg.decode_reply (Msg.await n.msys c) with
  | Ok r -> r
  | Error e -> failwith (Dp_msg.decode_error_to_string e)

let wait_queue_grants_on_release () =
  let n, file = wait_node () in
  let s = Sim.stats n.sim in
  let tx1 = Tmf.begin_tx n.tmf in
  ignore
    (get_ok ~ctx:"tx1 read"
       (Fs.read n.fs file ~tx:tx1 ~key:(acct_key 1) ~lock:Dp_msg.L_exclusive));
  let tx2 = Tmf.begin_tx n.tmf in
  let waits_before = s.Stats.lock_waits in
  let c = nowait_read n ~tx:tx2 ~acct:1 ~lock:Dp_msg.L_exclusive in
  (* tx1's commit releases its locks; the parked request must then be
     granted and the withheld reply delivered *)
  get_ok ~ctx:"commit tx1" (Tmf.commit n.tmf ~tx:tx1);
  (match reply_of n c with
  | Dp_msg.Rp_record _ -> ()
  | Dp_msg.Rp_error e -> Alcotest.fail (Errors.to_string e)
  | _ -> Alcotest.fail "unexpected reply to parked READ");
  Alcotest.(check bool) "request was queued, not denied" true
    (s.Stats.lock_waits > waits_before);
  get_ok ~ctx:"commit tx2" (Tmf.commit n.tmf ~tx:tx2)

let wait_budget_expires () =
  let n, file = wait_node ~timeout_us:2_000. () in
  let tx1 = Tmf.begin_tx n.tmf in
  ignore
    (get_ok ~ctx:"tx1 read"
       (Fs.read n.fs file ~tx:tx1 ~key:(acct_key 1) ~lock:Dp_msg.L_exclusive));
  let tx2 = Tmf.begin_tx n.tmf in
  let c = nowait_read n ~tx:tx2 ~acct:1 ~lock:Dp_msg.L_exclusive in
  (* nothing else is running: draining the event queue runs the park and
     then the wait-budget expiry *)
  Sim.drain n.sim;
  (match reply_of n c with
  | Dp_msg.Rp_error (Errors.Lock_timeout _) -> ()
  | Dp_msg.Rp_error e -> Alcotest.fail (Errors.to_string e)
  | _ -> Alcotest.fail "parked READ should have timed out");
  (* the holder is undisturbed by the waiter's expiry *)
  get_ok ~ctx:"abort tx2" (Tmf.abort n.tmf ~tx:tx2);
  get_ok ~ctx:"commit tx1" (Tmf.commit n.tmf ~tx:tx1)

let deadlock_aborts_youngest () =
  let n, file = wait_node () in
  let s = Sim.stats n.sim in
  let tx1 = Tmf.begin_tx n.tmf in
  let tx2 = Tmf.begin_tx n.tmf in
  Alcotest.(check bool) "tx2 is the younger transaction" true (tx2 > tx1);
  ignore
    (get_ok ~ctx:"tx1 locks acct 1"
       (Fs.read n.fs file ~tx:tx1 ~key:(acct_key 1) ~lock:Dp_msg.L_exclusive));
  ignore
    (get_ok ~ctx:"tx2 locks acct 2"
       (Fs.read n.fs file ~tx:tx2 ~key:(acct_key 2) ~lock:Dp_msg.L_exclusive));
  let deadlocks_before = s.Stats.deadlocks in
  (* crossed requests: tx2 wants acct 1 (parks), then tx1 wants acct 2 —
     the wait-for cycle is detected at block time *)
  let c2 = nowait_read n ~tx:tx2 ~acct:1 ~lock:Dp_msg.L_exclusive in
  let c1 = nowait_read n ~tx:tx1 ~acct:2 ~lock:Dp_msg.L_exclusive in
  (* the victim is the youngest: tx2's parked request is denied *)
  (match reply_of n c2 with
  | Dp_msg.Rp_error (Errors.Deadlock _) -> ()
  | Dp_msg.Rp_error e -> Alcotest.fail (Errors.to_string e)
  | _ -> Alcotest.fail "victim's READ should be denied with Deadlock");
  Alcotest.(check bool) "deadlock counted" true
    (s.Stats.deadlocks > deadlocks_before);
  (* the survivor stays parked; the victim's abort unblocks it *)
  get_ok ~ctx:"abort tx2" (Tmf.abort n.tmf ~tx:tx2);
  (match reply_of n c1 with
  | Dp_msg.Rp_record _ -> ()
  | Dp_msg.Rp_error e -> Alcotest.fail (Errors.to_string e)
  | _ -> Alcotest.fail "unexpected reply to survivor's READ");
  get_ok ~ctx:"commit tx1" (Tmf.commit n.tmf ~tx:tx1)

let crash_flushes_wait_queue () =
  let n, file = wait_node () in
  let tx1 = Tmf.begin_tx n.tmf in
  ignore
    (get_ok ~ctx:"tx1 read"
       (Fs.read n.fs file ~tx:tx1 ~key:(acct_key 1) ~lock:Dp_msg.L_exclusive));
  let tx2 = Tmf.begin_tx n.tmf in
  let c = nowait_read n ~tx:tx2 ~acct:1 ~lock:Dp_msg.L_exclusive in
  (* a blocking no-lock read by tx1 pumps the event queue, so tx2's
     conflicting request is delivered and parked before the crash *)
  ignore
    (get_ok ~ctx:"pump"
       (Fs.read n.fs file ~tx:tx1 ~key:(acct_key 2) ~lock:Dp_msg.L_none));
  Alcotest.(check bool) "request parked, reply withheld" true
    (Msg.done_at c = None);
  Dp.crash n.dps.(0);
  (* no completion may be left unresolvable after the server is gone *)
  (match reply_of n c with
  | Dp_msg.Rp_error (Errors.Io_error _) -> ()
  | Dp_msg.Rp_error e -> Alcotest.fail (Errors.to_string e)
  | _ -> Alcotest.fail "flushed READ should report an I/O error")

let suite =
  suite
  @ [
      Alcotest.test_case "wait queue grants on release" `Quick
        wait_queue_grants_on_release;
      Alcotest.test_case "wait budget expires" `Quick wait_budget_expires;
      Alcotest.test_case "deadlock aborts youngest" `Quick
        deadlock_aborts_youngest;
      Alcotest.test_case "crash flushes wait queue" `Quick
        crash_flushes_wait_queue;
    ]

(* --- a blocked point request applies nothing ------------------------- *)

(* The wait queue re-dispatches a parked request whole, which is
   only sound if a blocked point request has applied nothing. With
   [dp_lock_wait] off the Disk Process answers [Rp_blocked] at once, so
   every request kind that may park is sent against files another
   transaction holds exclusively, and must come back blocked with no
   progress, no SCB, no audit and no change to any file. *)
let blocked_point_request_applies_nothing () =
  let n = node () in
  let dp = n.dps.(0) in
  let create fname kind schema =
    match
      Dp.request dp (Dp_msg.R_create_file { fname; kind; schema; check = None })
    with
    | Dp_msg.Rp_file id -> id
    | _ -> Alcotest.fail ("create " ^ fname)
  in
  let ks = create "KS" Dp_msg.K_key_sequenced (Some account_schema) in
  let rel = create "REL" (Dp_msg.K_relative 80) None in
  let ent = create "ENT" Dp_msg.K_entry_sequenced None in
  let what = function
    | Dp_msg.Rp_error e -> Errors.to_string e
    | _ -> "unexpected reply"
  in
  let applied = function
    | Dp_msg.Rp_ok | Dp_msg.Rp_slot _ -> ()
    | r -> Alcotest.fail ("load: " ^ what r)
  in
  in_tx n (fun tx ->
      for i = 0 to 4 do
        applied
          (Dp.request dp
             (Dp_msg.R_insert_row
                { file = ks; tx; row = account i (float_of_int i) "o" }));
        applied
          (Dp.request dp
             (Dp_msg.R_rel_write
                { file = rel; tx; slot = i; record = Printf.sprintf "r%d" i }));
        applied
          (Dp.request dp
             (Dp_msg.R_entry_append { file = ent; tx; record = Printf.sprintf "e%d" i }))
      done;
      Ok ());
  (* every record of the three files, read without locks *)
  let contents () =
    let rec walk file from_key inclusive acc =
      match
        Dp.request dp
          (Dp_msg.R_read_next
             { file; tx = 0; from_key; inclusive; lock = Dp_msg.L_none; sbb = false })
      with
      | Dp_msg.Rp_record { key; record } ->
          walk file key false ((key, record) :: acc)
      | Dp_msg.Rp_end -> List.rev acc
      | r -> Alcotest.fail ("walk: " ^ what r)
    in
    let slots =
      List.filter_map
        (fun slot ->
          match Dp.request dp (Dp_msg.R_rel_read { file = rel; tx = 0; slot }) with
          | Dp_msg.Rp_record { key; record } -> Some (key, record)
          | _ -> None)
        (List.init 8 Fun.id)
    in
    (walk ks "" true [], slots, walk ent "" true [])
  in
  let before = contents () in
  let holder = Tmf.begin_tx n.tmf in
  List.iter
    (fun file ->
      match
        Dp.request dp
          (Dp_msg.R_lock_file { file; tx = holder; lock = Dp_msg.L_exclusive })
      with
      | Dp_msg.Rp_ok -> ()
      | r -> Alcotest.fail ("holder LOCKFILE: " ^ what r))
    [ ks; rel; ent ];
  let tx = Tmf.begin_tx n.tmf in
  let s = Sim.stats n.sim in
  let audits0 = s.Stats.audit_records in
  let from_key = acct_key 2 in
  let rec_of i = Row.encode account_schema (account i 7. "new") in
  let requests =
    Dp_msg.
      [
        ("", R_read { file = ks; tx; key = acct_key 1; lock = L_shared });
        ( from_key,
          R_read_next
            { file = ks; tx; from_key; inclusive = true; lock = L_shared; sbb = false } );
        ("", R_insert { file = ks; tx; key = acct_key 9; record = rec_of 9 });
        ("", R_update { file = ks; tx; key = acct_key 1; record = rec_of 1 });
        ("", R_delete { file = ks; tx; key = acct_key 3 });
        ("", R_lock_file { file = ks; tx; lock = L_shared });
        ("", R_lock_generic { file = ks; tx; prefix = acct_key 4; lock = L_shared });
        ("", R_rel_write { file = rel; tx; slot = 6; record = "new" });
        ("", R_rel_rewrite { file = rel; tx; slot = 1; record = "new" });
        ("", R_rel_delete { file = rel; tx; slot = 2 });
        ("", R_entry_append { file = ent; tx; record = "new" });
        ("", R_insert_row { file = ks; tx; row = account 10 1. "new" });
        ( "",
          R_insert_block
            { file = ks; tx; rows = [ account 11 1. "a"; account 12 2. "b" ] } );
      ]
  in
  Alcotest.(check int) "every parkable request kind" 13 (List.length requests);
  List.iter
    (fun (last, req) ->
      let name = Dp_msg.tag req in
      match Dp.request dp req with
      | Dp_msg.Rp_blocked { blockers; processed; last_key; scb } ->
          Alcotest.(check (list int)) (name ^ " blockers") [ holder ] blockers;
          Alcotest.(check int) (name ^ " processed") 0 processed;
          Alcotest.(check string) (name ^ " last key") last last_key;
          Alcotest.(check int) (name ^ " scb") (-1) scb
      | r -> Alcotest.fail (name ^ " not blocked: " ^ what r))
    requests;
  Alcotest.(check int) "nothing audited" 0 (s.Stats.audit_records - audits0);
  Alcotest.(check bool) "no file changed" true (contents () = before);
  get_ok ~ctx:"abort" (Tmf.abort n.tmf ~tx);
  get_ok ~ctx:"commit holder" (Tmf.commit n.tmf ~tx:holder)

let suite =
  suite
  @ [
      Alcotest.test_case "a blocked point request applies nothing" `Quick
        blocked_point_request_applies_nothing;
    ]
