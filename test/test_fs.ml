(* Integration tests of the File System: partition routing, secondary-index
   maintenance and access (Figure 2), multi-partition scans, requester-side
   fallbacks, blocked inserts. *)

open Harness
module Dp_msg = Nsql_dp.Dp_msg
module Stats = Nsql_sim.Stats
module Tracer = Nsql_sim.Tracer
module Trace = Nsql_trace.Trace

let partitioned_file () =
  let n = node ~dps:3 () in
  (* three partitions split at 100 and 200 *)
  let file = create_accounts ~parts:3 ~split:100 n in
  Alcotest.(check int) "three partitions" 3 (Fs.partition_count file);
  load_accounts n file 300;
  (* each record landed on the partition owning its key range *)
  Alcotest.(check int) "p1 rows" 100 (Dp.record_count n.dps.(0) ~file:(Option.get (Dp.file_id n.dps.(0) "ACCOUNT#p0")));
  Alcotest.(check int) "p2 rows" 100 (Dp.record_count n.dps.(1) ~file:(Option.get (Dp.file_id n.dps.(1) "ACCOUNT#p1")));
  Alcotest.(check int) "p3 rows" 100 (Dp.record_count n.dps.(2) ~file:(Option.get (Dp.file_id n.dps.(2) "ACCOUNT#p2")));
  (* point reads route to the right Disk Process *)
  in_tx n (fun tx ->
      let open Errors in
      let* r = Fs.read n.fs file ~tx ~key:(acct_key 250) ~lock:Dp_msg.L_none in
      let row = Row.decode_exn account_schema r in
      Alcotest.(check bool) "right record" true (Row.equal_value (Row.Vint 250) row.(0));
      Ok ())

let scan_across_partitions () =
  let n = node ~dps:3 () in
  let file = create_accounts ~parts:3 ~split:100 n in
  load_accounts n file 300;
  in_tx n (fun tx ->
      let sc =
        Fs.open_scan n.fs file ~tx ~access:Fs.A_vsbb
          ~range:full_range ~proj:[| 0 |] ~lock:Dp_msg.L_none ()
      in
      let rows = drain_scan n sc in
      Alcotest.(check int) "all rows across partitions" 300 (List.length rows);
      (* key order is preserved across the partition boundary *)
      let keys = List.map (fun r -> match r.(0) with Row.Vint i -> i | _ -> -1) rows in
      Alcotest.(check (list int)) "ordered" (List.init 300 (fun i -> i)) keys;
      Ok ())

let scan_subrange_crossing_boundary () =
  let n = node ~dps:2 () in
  let file = create_accounts ~parts:2 ~split:100 n in
  load_accounts n file 200;
  in_tx n (fun tx ->
      let range = Expr.{ lo = acct_key 90; hi = acct_key 110 } in
      let sc =
        Fs.open_scan n.fs file ~tx ~access:Fs.A_vsbb ~range ~proj:[| 0 |]
          ~lock:Dp_msg.L_none ()
      in
      let rows = drain_scan n sc in
      Alcotest.(check int) "20 rows" 20 (List.length rows);
      Ok ())

let with_branch_index () =
  (* schema with a non-key column to index: owner *)
  let n = node ~dps:2 () in
  let file =
    create_accounts ~parts:1 n
      ~indexes:[ Fs.{ is_name = "by_owner"; is_cols = [ 2 ]; is_dp = n.dps.(1) } ]
  in
  (n, file)

let index_maintained_on_insert () =
  let n, file = with_branch_index () in
  load_accounts n file 50;
  (* the index file holds one entry per base row, on the other volume *)
  let ix_file = Option.get (Dp.file_id n.dps.(1) "ACCOUNT#ix_by_owner") in
  Alcotest.(check int) "index entries" 50 (Dp.record_count n.dps.(1) ~file:ix_file)

let figure2_read_via_index () =
  let n, file = with_branch_index () in
  load_accounts n file 50;
  Trace.set_enabled n.sim true;
  let row =
    in_tx n (fun tx ->
        Fs.read_row_via_index n.fs file ~tx ~index:"by_owner"
          ~index_key:[ Row.Vstr "owner-0031" ])
  in
  Trace.set_enabled n.sim false;
  let trace = Trace.msg_spans (Trace.take n.sim) in
  (match row with
  | Some r -> Alcotest.(check bool) "right base row" true (Row.equal_value (Row.Vint 31) r.(0))
  | None -> Alcotest.fail "row not found via index");
  (* Figure 2: first a message to the index's DP, then one to the base DP
     (plus BEGIN/COMMIT traffic which goes to no DP endpoint here) *)
  let to_name sp =
    match Trace.attr sp "to" with Some (Trace.Str s) -> s | _ -> ""
  in
  let dp_msgs =
    List.filter
      (fun sp -> sp.Tracer.sp_name = "READ^NEXT" || sp.Tracer.sp_name = "READ")
      trace
  in
  Alcotest.(check int) "two FS-DP messages" 2 (List.length dp_msgs);
  (match dp_msgs with
  | [ first; second ] ->
      Alcotest.(check string) "index DP first" "$DATA2" (to_name first);
      Alcotest.(check string) "base DP second" "$DATA1" (to_name second)
  | _ -> Alcotest.fail "unexpected trace shape")

let index_maintained_on_update_delete () =
  let n, file = with_branch_index () in
  load_accounts n file 20;
  let ix_file = Option.get (Dp.file_id n.dps.(1) "ACCOUNT#ix_by_owner") in
  (* update an indexed column through the requester-side path *)
  in_tx n (fun tx ->
      Fs.update_row_via_key n.fs file ~tx ~key:(acct_key 7)
        [ { Expr.target = 2; source = Expr.str "renamed" } ]);
  let found =
    in_tx n (fun tx ->
        Fs.read_row_via_index n.fs file ~tx ~index:"by_owner"
          ~index_key:[ Row.Vstr "renamed" ])
  in
  (match found with
  | Some r -> Alcotest.(check bool) "found under new owner" true (Row.equal_value (Row.Vint 7) r.(0))
  | None -> Alcotest.fail "index not updated");
  let stale =
    in_tx n (fun tx ->
        Fs.read_row_via_index n.fs file ~tx ~index:"by_owner"
          ~index_key:[ Row.Vstr "owner-0007" ])
  in
  Alcotest.(check bool) "old entry gone" true (stale = None);
  (* delete maintains the index too *)
  in_tx n (fun tx -> Fs.delete_row_via_key n.fs file ~tx ~key:(acct_key 7));
  Alcotest.(check int) "index entry removed" 19 (Dp.record_count n.dps.(1) ~file:ix_file)

let update_subset_falls_back_when_indexed () =
  let n, file = with_branch_index () in
  load_accounts n file 30;
  (* updating the indexed column cannot be delegated; the FS falls back to
     read-modify-write plus index maintenance, and the result is correct *)
  let count =
    in_tx n (fun tx ->
        Fs.update_subset n.fs file ~tx ~range:full_range
          ~pred:Expr.(Cmp (Lt, Field 0, int_ 10))
          [ { Expr.target = 2; source = Expr.str "mass-renamed" } ])
  in
  Alcotest.(check int) "10 updated" 10 count;
  let found =
    in_tx n (fun tx ->
        Fs.read_row_via_index n.fs file ~tx ~index:"by_owner"
          ~index_key:[ Row.Vstr "mass-renamed" ])
  in
  Alcotest.(check bool) "reachable via index" true (found <> None)

let update_subset_delegated_when_not_indexed () =
  let n, file = with_branch_index () in
  load_accounts n file 30;
  let s = Sim.stats n.sim in
  let before = s.Stats.msgs_sent in
  (* balance is not indexed: the whole subset costs O(re-drives) messages,
     not O(records) *)
  let count =
    in_tx n (fun tx ->
        Fs.update_subset n.fs file ~tx ~range:full_range
          [ { Expr.target = 1; source = Expr.(Binop (Mul, Field 1, float_ 2.)) } ])
  in
  let msgs = s.Stats.msgs_sent - before in
  Alcotest.(check int) "30 updated" 30 count;
  Alcotest.(check bool)
    (Printf.sprintf "far fewer messages than records (%d)" msgs)
    true (msgs < 10)

let blocked_insert_fewer_messages () =
  let n = node () in
  let file_a = create_accounts n in
  let s = Sim.stats n.sim in
  (* per-record inserts *)
  let before = s.Stats.msgs_sent in
  in_tx n (fun tx ->
      let open Errors in
      let rec go i =
        if i >= 100 then Ok ()
        else
          let* () = Fs.insert_row n.fs file_a ~tx (account i 1. "x") in
          go (i + 1)
      in
      go 0);
  let per_record_msgs = s.Stats.msgs_sent - before in
  (* blocked inserts, 20 rows per message *)
  let n2 = node () in
  let file_b = create_accounts n2 in
  let s2 = Sim.stats n2.sim in
  let before = s2.Stats.msgs_sent in
  in_tx n2 (fun tx ->
      let open Errors in
      let buf = Fs.open_insert_buffer n2.fs file_b ~tx ~capacity:20 in
      let rec go i =
        if i >= 100 then Fs.flush_insert_buffer n2.fs buf
        else
          let* () = Fs.buffered_insert n2.fs buf (account i 1. "x") in
          go (i + 1)
      in
      go 0);
  let blocked_msgs = s2.Stats.msgs_sent - before in
  Alcotest.(check int) "rows all inserted" 100 (record_count n2 file_b);
  Alcotest.(check bool)
    (Printf.sprintf "blocked %d << per-record %d" blocked_msgs per_record_msgs)
    true
    (blocked_msgs * 10 <= per_record_msgs)

let index_scan_streams_base_rows () =
  let n, file = with_branch_index () in
  load_accounts n file 40;
  in_tx n (fun tx ->
      let open Errors in
      let ix_schema = get_ok ~ctx:"ixs" (Fs.index_schema file ~index:"by_owner") in
      (* range over the index: owners 0010..0019 (string prefix) *)
      let* lo = Row.key_of_values ix_schema [ Row.Vstr "owner-0010" ] in
      let* hi = Row.key_of_values ix_schema [ Row.Vstr "owner-0019" ] in
      let range = Expr.{ lo; hi = Keycode.successor (hi ^ "\xff") } in
      let* sc =
        Fs.open_index_scan n.fs file ~tx ~index:"by_owner" ~range ~proj:[| 0 |]
          ~lock:Dp_msg.L_none ()
      in
      let rec go acc =
        let* row = Fs.scan_next n.fs sc in
        match row with None -> Ok (List.rev acc) | Some r -> go (r :: acc)
      in
      let res = go [] in
      Fs.close_scan n.fs sc;
      let* rows = res in
      Alcotest.(check int) "ten base rows" 10 (List.length rows);
      (* an unknown index is an error, not a raise *)
      (match
         Fs.open_index_scan n.fs file ~tx ~index:"by_nobody" ~range
           ~lock:Dp_msg.L_none ()
       with
      | Error (Errors.Name_error _) -> ()
      | _ -> Alcotest.fail "an unknown index must open as an Error");
      Ok ())

let suite =
  [
    Alcotest.test_case "partitioned file routing" `Quick partitioned_file;
    Alcotest.test_case "scan across partitions" `Quick scan_across_partitions;
    Alcotest.test_case "subrange scan over boundary" `Quick
      scan_subrange_crossing_boundary;
    Alcotest.test_case "index maintained on insert" `Quick
      index_maintained_on_insert;
    Alcotest.test_case "Figure 2: read via alternate key" `Quick
      figure2_read_via_index;
    Alcotest.test_case "index maintained on update/delete" `Quick
      index_maintained_on_update_delete;
    Alcotest.test_case "update subset: indexed fallback" `Quick
      update_subset_falls_back_when_indexed;
    Alcotest.test_case "update subset: delegated" `Quick
      update_subset_delegated_when_not_indexed;
    Alcotest.test_case "blocked insert message savings" `Quick
      blocked_insert_fewer_messages;
    Alcotest.test_case "index scan streams base rows" `Quick
      index_scan_streams_base_rows;
  ]
