(* Tests of the future-work extensions (blocked inserts are covered in
   test_fs; here: buffered update/delete where current, remote requesters)
   and deeper fault-injection / concurrency scenarios. *)

open Harness
module N = Nsql_core.Nonstop_sql
module Dp_msg = Nsql_dp.Dp_msg
module Lock = Nsql_lock.Lock
module Cache = Nsql_cache.Cache
module Stats = Nsql_sim.Stats
module Trail = Nsql_audit.Trail

(* --- buffered update/delete where current --------------------------------- *)

let bump = [ { Expr.target = 1; source = Expr.(Binop (Add, Field 1, float_ 5.)) } ]

let apply_buffer_correct () =
  let n, file = (fun () -> let n = node () in (n, create_accounts n)) () in
  load_accounts n file 30;
  in_tx n (fun tx ->
      let open Errors in
      let b = Fs.open_apply_buffer n.fs file ~tx ~capacity:8 in
      let rec go i =
        if i >= 30 then Fs.flush_apply_buffer n.fs b
        else
          let* () =
            if i mod 3 = 0 then Fs.buffered_update n.fs b ~key:(acct_key i) bump
            else if i mod 3 = 1 then Fs.buffered_delete n.fs b ~key:(acct_key i)
            else Ok ()
          in
          go (i + 1)
      in
      go 0);
  Alcotest.(check int) "deletes applied" 20 (record_count n file);
  in_tx n (fun tx ->
      let open Errors in
      let* r = Fs.read n.fs file ~tx ~key:(acct_key 6) ~lock:Dp_msg.L_none in
      (match (Row.decode_exn account_schema r).(1) with
      | Row.Vfloat f -> Alcotest.(check (float 1e-9)) "updated" 605. f
      | _ -> Alcotest.fail "bad type");
      let* r = Fs.read n.fs file ~tx ~key:(acct_key 2) ~lock:Dp_msg.L_none in
      (match (Row.decode_exn account_schema r).(1) with
      | Row.Vfloat f -> Alcotest.(check (float 1e-9)) "untouched" 200. f
      | _ -> Alcotest.fail "bad type");
      (match Fs.read n.fs file ~tx ~key:(acct_key 4) ~lock:Dp_msg.L_none with
      | Error (Errors.Not_found_key _) -> Ok ()
      | Ok _ -> Alcotest.fail "buffered delete missed"
      | Error e -> Error e))

let apply_buffer_saves_messages () =
  let n, file = (fun () -> let n = node () in (n, create_accounts n)) () in
  load_accounts n file 100;
  let s = Sim.stats n.sim in
  let before = s.Stats.msgs_sent in
  in_tx n (fun tx ->
      let open Errors in
      let b = Fs.open_apply_buffer n.fs file ~tx ~capacity:25 in
      let rec go i =
        if i >= 100 then Fs.flush_apply_buffer n.fs b
        else
          let* () = Fs.buffered_update n.fs b ~key:(acct_key i) bump in
          go (i + 1)
      in
      go 0);
  let msgs = s.Stats.msgs_sent - before in
  Alcotest.(check bool)
    (Printf.sprintf "4 APPLY^BLOCK messages expected, got %d total" msgs)
    true
    (msgs <= 6)

let apply_buffer_abort_undoes () =
  let n, file = (fun () -> let n = node () in (n, create_accounts n)) () in
  load_accounts n file 10;
  let tx = Tmf.begin_tx n.tmf in
  let b = Fs.open_apply_buffer n.fs file ~tx ~capacity:4 in
  get_ok ~ctx:"upd" (Fs.buffered_update n.fs b ~key:(acct_key 1) bump);
  get_ok ~ctx:"del" (Fs.buffered_delete n.fs b ~key:(acct_key 2));
  get_ok ~ctx:"flush" (Fs.flush_apply_buffer n.fs b);
  get_ok ~ctx:"abort" (Tmf.abort n.tmf ~tx);
  Alcotest.(check int) "all rows back" 10 (record_count n file);
  in_tx n (fun tx ->
      let open Errors in
      let* r = Fs.read n.fs file ~tx ~key:(acct_key 1) ~lock:Dp_msg.L_none in
      (match (Row.decode_exn account_schema r).(1) with
      | Row.Vfloat f -> Alcotest.(check (float 1e-9)) "balance restored" 100. f
      | _ -> Alcotest.fail "bad type");
      Ok ())

let apply_buffer_indexed_fallback () =
  let n = node ~dps:2 () in
  let file =
    create_accounts n
      ~indexes:[ Fs.{ is_name = "by_owner"; is_cols = [ 2 ]; is_dp = n.dps.(1) } ]
  in
  load_accounts n file 10;
  in_tx n (fun tx ->
      let open Errors in
      let b = Fs.open_apply_buffer n.fs file ~tx ~capacity:4 in
      let* () =
        Fs.buffered_update n.fs b ~key:(acct_key 3)
          [ { Expr.target = 2; source = Expr.str "renamed" } ]
      in
      let* () = Fs.buffered_delete n.fs b ~key:(acct_key 4) in
      Fs.flush_apply_buffer n.fs b);
  (* the fallback path must have maintained the index *)
  let found =
    in_tx n (fun tx ->
        Fs.read_row_via_index n.fs file ~tx ~index:"by_owner"
          ~index_key:[ Row.Vstr "renamed" ])
  in
  Alcotest.(check bool) "index sees rename" true (found <> None);
  let ix_file = Option.get (Dp.file_id n.dps.(1) "ACCOUNT#ix_by_owner") in
  Alcotest.(check int) "index entry deleted" 9
    (Dp.record_count n.dps.(1) ~file:ix_file)

(* --- remote requester -------------------------------------------------------- *)

let remote_requester_counts () =
  let node_local = N.create_node ~volumes:1 () in
  let node_remote = N.create_node ~remote_requester:true ~volumes:1 () in
  let seed node =
    let s = N.session node in
    ignore (N.exec_exn s "CREATE TABLE t (k INT PRIMARY KEY, v INT NOT NULL)");
    for i = 0 to 19 do
      ignore (N.exec_exn s (Printf.sprintf "INSERT INTO t VALUES (%d, %d)" i (i * i)))
    done;
    s
  in
  let sl = seed node_local and sr = seed node_remote in
  let q = "SELECT v FROM t WHERE k >= 5 AND k < 8 ORDER BY k" in
  let rows s = match N.exec_exn s q with N.Rows r -> r.Nsql_sql.Executor.rows | _ -> [] in
  let rl = rows sl and rr = rows sr in
  Alcotest.(check bool) "same results" true
    (List.for_all2 Row.equal_row rl rr);
  Alcotest.(check int) "local has no internode traffic" 0
    (N.stats node_local).Stats.msgs_internode;
  Alcotest.(check bool) "remote counts internode messages" true
    ((N.stats node_remote).Stats.msgs_internode > 0)

(* --- deadlock detection at the driver level ----------------------------------- *)

let deadlock_detected_and_broken () =
  let n, file = (fun () -> let n = node () in (n, create_accounts n)) () in
  load_accounts n file 10;
  let g = Lock.Waitgraph.create () in
  let tx1 = Tmf.begin_tx n.tmf in
  let tx2 = Tmf.begin_tx n.tmf in
  let upd tx i =
    Fs.update_subset n.fs file ~tx
      ~range:Expr.{ lo = acct_key i; hi = Keycode.successor (acct_key i) }
      [ { Expr.target = 1; source = Expr.(Const (Row.Vfloat 0.)) } ]
  in
  ignore (get_ok ~ctx:"tx1 locks 1" (upd tx1 1));
  ignore (get_ok ~ctx:"tx2 locks 2" (upd tx2 2));
  (* tx1 -> record 2: blocked by tx2 *)
  (match upd tx1 2 with
  | Error (Errors.Lock_timeout _) -> Lock.Waitgraph.set_waiting g ~tx:tx1 ~on:[ tx2 ]
  | _ -> Alcotest.fail "tx1 should block");
  Alcotest.(check bool) "no deadlock yet" true
    (Lock.Waitgraph.find_cycle g ~tx:tx1 = None);
  (* tx2 -> record 1: blocked by tx1 -> cycle *)
  (match upd tx2 1 with
  | Error (Errors.Lock_timeout _) -> Lock.Waitgraph.set_waiting g ~tx:tx2 ~on:[ tx1 ]
  | _ -> Alcotest.fail "tx2 should block");
  (match Lock.Waitgraph.find_cycle g ~tx:tx2 with
  | Some _ -> ()
  | None -> Alcotest.fail "deadlock not detected");
  (* break it: abort the younger transaction; the survivor proceeds *)
  get_ok ~ctx:"abort victim" (Tmf.abort n.tmf ~tx:tx2);
  Lock.Waitgraph.clear_waiting g ~tx:tx2;
  (match upd tx1 2 with
  | Ok 1 -> ()
  | Ok k -> Alcotest.fail (Printf.sprintf "expected 1 update, got %d" k)
  | Error e -> Alcotest.fail (Errors.to_string e));
  get_ok ~ctx:"commit survivor" (Tmf.commit n.tmf ~tx:tx1)

(* --- VM pressure during operation ----------------------------------------------- *)

let vm_pressure_mid_scan () =
  let n, file = (fun () -> let n = node () in (n, create_accounts n)) () in
  load_accounts n file 300;
  in_tx n (fun tx ->
      let open Errors in
      let sc =
        Fs.open_scan n.fs file ~tx ~access:Fs.A_vsbb ~range:full_range
          ~proj:[| 0 |] ~lock:Dp_msg.L_none ()
      in
      let rec go k =
        (* the memory manager steals frames while the scan runs *)
        if k = 100 then ignore (Cache.steal (Dp.cache n.dps.(0)) 64);
        let* row = Fs.scan_next n.fs sc in
        match row with
        | Some _ -> go (k + 1)
        | None ->
            Fs.close_scan n.fs sc;
            Alcotest.(check int) "scan complete despite steals" 300 k;
            Ok ()
      in
      go 0)

(* --- multi-volume crash with mixed winners/losers ------------------------------- *)

let multi_volume_crash_recovery () =
  let n = node ~dps:2 () in
  let file = create_accounts ~parts:2 ~split:50 n in
  load_accounts n file 100;
  (* committed update touching both partitions *)
  ignore
    (in_tx n (fun tx ->
         Fs.update_subset n.fs file ~tx
           ~range:Expr.{ lo = acct_key 40; hi = acct_key 60 }
           [ { Expr.target = 1; source = Expr.(Const (Row.Vfloat 1.)) } ]));
  (* a loser in flight, with its audit already durable *)
  let tx = Tmf.begin_tx n.tmf in
  get_ok ~ctx:"ins" (Fs.insert_row n.fs file ~tx (account 999 7. "ghost"));
  Trail.force n.trail (Int64.pred (Trail.next_lsn n.trail));
  Dp.crash n.dps.(0);
  Dp.crash n.dps.(1);
  let o1 = Dp.recover n.dps.(0) in
  let o2 = Dp.recover n.dps.(1) in
  Alcotest.(check bool) "losers seen" true
    (o1.Nsql_tmf.Recovery.losers >= 1 && o2.Nsql_tmf.Recovery.losers >= 1);
  Alcotest.(check int) "committed rows restored" 100 (record_count n file);
  in_tx n (fun tx2 ->
      let open Errors in
      let* r = Fs.read n.fs file ~tx:tx2 ~key:(acct_key 45) ~lock:Dp_msg.L_none in
      (match (Row.decode_exn account_schema r).(1) with
      | Row.Vfloat f -> Alcotest.(check (float 1e-9)) "partition 1 update" 1. f
      | _ -> Alcotest.fail "bad type");
      let* r = Fs.read n.fs file ~tx:tx2 ~key:(acct_key 55) ~lock:Dp_msg.L_none in
      (match (Row.decode_exn account_schema r).(1) with
      | Row.Vfloat f -> Alcotest.(check (float 1e-9)) "partition 2 update" 1. f
      | _ -> Alcotest.fail "bad type");
      Ok ())

(* --- randomized recovery property ------------------------------------------------ *)

let recovery_matches_model =
  QCheck.Test.make ~name:"recovery rebuilds exactly the committed state"
    ~count:20
    QCheck.(list (tup3 (int_bound 2) (int_bound 30) bool))
    (fun txs ->
      let n = node () in
      let file = create_accounts n in
      let model = Hashtbl.create 32 in
      List.iter
        (fun (op, key, commit) ->
          let tx = Tmf.begin_tx n.tmf in
          let applied =
            match op with
            | 0 -> (
                match
                  Fs.insert_row n.fs file ~tx (account key (float_of_int key) "m")
                with
                | Ok () -> Some (`Ins (key, float_of_int key))
                | Error _ -> None)
            | 1 -> (
                match
                  Fs.update_subset n.fs file ~tx
                    ~range:
                      Expr.{ lo = acct_key key; hi = Keycode.successor (acct_key key) }
                    [ { Expr.target = 1; source = Expr.(Binop (Add, Field 1, float_ 1.)) } ]
                with
                | Ok 1 -> Some (`Upd key)
                | Ok _ | Error _ -> None)
            | _ -> (
                match
                  Fs.delete_subset n.fs file ~tx
                    ~range:
                      Expr.{ lo = acct_key key; hi = Keycode.successor (acct_key key) }
                    ()
                with
                | Ok 1 -> Some (`Del key)
                | Ok _ | Error _ -> None)
          in
          if commit then begin
            (match Tmf.commit n.tmf ~tx with Ok () -> () | Error _ -> ());
            match applied with
            | Some (`Ins (k, v)) -> Hashtbl.replace model k v
            | Some (`Upd k) ->
                Hashtbl.replace model k (Hashtbl.find model k +. 1.)
            | Some (`Del k) -> Hashtbl.remove model k
            | None -> ()
          end
          else match Tmf.abort n.tmf ~tx with Ok () -> () | Error _ -> ())
        txs;
      (* crash at an arbitrary durability point and recover *)
      Dp.crash n.dps.(0);
      ignore (Dp.recover n.dps.(0));
      (* committed state only *)
      record_count n file = Hashtbl.length model
      && Hashtbl.fold
           (fun k v acc ->
             acc
             &&
             match
               Tmf.run n.tmf (fun tx ->
                   Fs.read n.fs file ~tx ~key:(acct_key k) ~lock:Dp_msg.L_none)
             with
             | Ok record -> (
                 match (Row.decode_exn account_schema record).(1) with
                 | Row.Vfloat f -> abs_float (f -. v) < 1e-9
                 | _ -> false)
             | Error _ -> false)
           model true)

let suite =
  [
    Alcotest.test_case "apply buffer: correctness" `Quick apply_buffer_correct;
    Alcotest.test_case "apply buffer: message savings" `Quick
      apply_buffer_saves_messages;
    Alcotest.test_case "apply buffer: abort undoes" `Quick
      apply_buffer_abort_undoes;
    Alcotest.test_case "apply buffer: indexed fallback" `Quick
      apply_buffer_indexed_fallback;
    Alcotest.test_case "remote requester" `Quick remote_requester_counts;
    Alcotest.test_case "deadlock detected and broken" `Quick
      deadlock_detected_and_broken;
    Alcotest.test_case "VM pressure mid-scan" `Quick vm_pressure_mid_scan;
    Alcotest.test_case "multi-volume crash recovery" `Quick
      multi_volume_crash_recovery;
    QCheck_alcotest.to_alcotest recovery_matches_model;
  ]

(* RECORD^COUNT: a partition answering an error fails the whole count
   instead of counting that partition as empty, with fan-out on or off *)
let record_count_surfaces_errors () =
  List.iter
    (fun fs_fanout ->
      let n = node ~config:(Config.v ~fs_fanout ()) ~dps:2 () in
      let file = create_accounts ~parts:2 ~split:5 n in
      load_accounts n file 10;
      Alcotest.(check int) "both partitions counted" 10 (record_count n file);
      Msg.set_handler (Dp.endpoint n.dps.(1)) (fun _ ->
          Dp_msg.encode_reply (Dp_msg.Rp_error (Errors.Io_error "volume down")));
      match Fs.record_count n.fs file with
      | Error (Errors.Io_error _) -> ()
      | Ok count -> Alcotest.failf "partition error counted as %d rows" count
      | Error e -> Alcotest.fail (Errors.to_string e))
    [ true; false ]

let suite =
  suite
  @ [
      Alcotest.test_case "record count surfaces a partition error" `Quick
        record_count_surfaces_errors;
    ]
