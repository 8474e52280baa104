(* Tests of ENSCRIBE relative and entry-sequenced files through the full
   FS-DP message path — the same point requests a key-sequenced file
   takes, with [Keycode.of_int slot] or [Keycode.of_int addr] as the key —
   including transactional undo and crash recovery. *)

open Harness
module Dp_msg = Nsql_dp.Dp_msg
module Enscribe = Nsql_enscribe.Enscribe
module Trail = Nsql_audit.Trail

let create n fname kind =
  get_ok ~ctx:"create"
    (Fs.create_enscribe_file n.fs ~fname ~kind
       ~partitions:[ { Fs.ps_lo = ""; ps_dp = n.dps.(0) } ])

let setup () =
  let n = node () in
  (n, create n "RELF" (Dp_msg.K_relative 80))

let slot = Keycode.of_int

let read n file ~tx k = Fs.read n.fs file ~tx ~key:k ~lock:Dp_msg.L_none

let rel_write_read_cycle () =
  let n, file = setup () in
  let h = Enscribe.open_file n.fs file ~sbb:false in
  in_tx n (fun tx ->
      let open Errors in
      let* () = Enscribe.write h ~tx ~key:(slot 3) ~record:"three" in
      Enscribe.write h ~tx ~key:(slot 7) ~record:"seven");
  in_tx n (fun tx ->
      let open Errors in
      let* r = Enscribe.read h ~tx ~key:(slot 3) ~lock:Dp_msg.L_shared in
      Alcotest.(check string) "read slot 3" "three" r;
      (match Enscribe.read h ~tx ~key:(slot 4) ~lock:Dp_msg.L_shared with
      | Error (Errors.Not_found_key _) -> ()
      | _ -> Alcotest.fail "empty slot readable");
      let* () = Enscribe.rewrite h ~tx ~key:(slot 7) ~record:"SEVEN" in
      Enscribe.delete h ~tx ~key:(slot 3));
  Alcotest.(check int) "one slot occupied" 1 (record_count n file)

(* the requester path an application sees: the record-at-a-time FS calls
   serve relative and entry-sequenced files alike *)
let fs_point_calls () =
  let n, relf = setup () in
  let entf = create n "ENTW" Dp_msg.K_entry_sequenced in
  let addr = ref (-1) in
  in_tx n (fun tx ->
      get_ok ~ctx:"insert" (Fs.insert n.fs relf ~tx ~key:(slot 5) ~record:"five");
      Alcotest.(check string) "read" "five"
        (get_ok ~ctx:"read" (read n relf ~tx (slot 5)));
      get_ok ~ctx:"update" (Fs.update n.fs relf ~tx ~key:(slot 5) ~record:"FIVE");
      Alcotest.(check string) "update visible" "FIVE"
        (get_ok ~ctx:"read2" (read n relf ~tx (slot 5)));
      get_ok ~ctx:"delete" (Fs.delete n.fs relf ~tx ~key:(slot 5));
      (match read n relf ~tx (slot 5) with
      | Error (Errors.Not_found_key _) -> ()
      | _ -> Alcotest.fail "deleted slot still readable");
      (match read n relf ~tx "slot" with
      | Error (Errors.Bad_request _) -> ()
      | _ -> Alcotest.fail "a key that is no record number was accepted");
      addr :=
        get_ok ~ctx:"append_entry" (Fs.append_entry n.fs entf ~tx ~record:"logline");
      Ok ());
  in_tx n (fun tx ->
      Alcotest.(check string) "entry read by address" "logline"
        (get_ok ~ctx:"entry read" (read n entf ~tx (Keycode.of_int !addr)));
      (* an entry's record never changes in place *)
      (match Fs.update n.fs entf ~tx ~key:(Keycode.of_int !addr) ~record:"x" with
      | Error (Errors.Bad_request _) -> ()
      | _ -> Alcotest.fail "entry rewritten");
      (match Fs.delete n.fs entf ~tx ~key:(Keycode.of_int !addr) with
      | Error (Errors.Bad_request _) -> ()
      | _ -> Alcotest.fail "entry deleted");
      Ok ());
  Alcotest.(check int) "entry kept" 1 (record_count n entf)

(* a record number has one key: another spelling of slot 5 (the sign bit
   clear) is refused, so it cannot pass the lock the holder took on
   [slot 5] *)
let rel_noncanonical_key_rejected () =
  let n, file = setup () in
  let alias = "\x00\x00\x00\x00\x00\x00\x00\x05" in
  let holder = Tmf.begin_tx n.tmf in
  get_ok ~ctx:"insert" (Fs.insert n.fs file ~tx:holder ~key:(slot 5) ~record:"five");
  let other = Tmf.begin_tx n.tmf in
  let refused what = function
    | Error (Errors.Bad_request _) -> ()
    | _ -> Alcotest.fail (what ^ " through another spelling of a locked slot")
  in
  refused "read" (Fs.read n.fs file ~tx:other ~key:alias ~lock:Dp_msg.L_shared);
  refused "update" (Fs.update n.fs file ~tx:other ~key:alias ~record:"stolen");
  refused "delete" (Fs.delete n.fs file ~tx:other ~key:alias);
  refused "insert" (Fs.insert n.fs file ~tx:other ~key:alias ~record:"dup");
  get_ok ~ctx:"abort" (Tmf.abort n.tmf ~tx:other);
  get_ok ~ctx:"commit" (Tmf.commit n.tmf ~tx:holder);
  Alcotest.(check int) "one slot occupied" 1 (record_count n file);
  in_tx n (fun tx ->
      Alcotest.(check string) "holder's record untouched" "five"
        (get_ok ~ctx:"read" (read n file ~tx (slot 5)));
      Ok ())

let rel_double_write_rejected () =
  let n, file = setup () in
  in_tx n (fun tx ->
      get_ok ~ctx:"write" (Fs.insert n.fs file ~tx ~key:(slot 1) ~record:"a");
      (match Fs.insert n.fs file ~tx ~key:(slot 1) ~record:"b" with
      | Error (Errors.Duplicate_key _) -> ()
      | _ -> Alcotest.fail "occupied slot overwritten");
      (match Fs.insert n.fs file ~tx ~key:(slot 2) ~record:(String.make 200 'x') with
      | Error (Errors.Bad_request _) -> ()
      | _ -> Alcotest.fail "oversized record accepted");
      Ok ());
  Alcotest.(check int) "one slot occupied" 1 (record_count n file)

let rel_abort_undoes () =
  let n, file = setup () in
  in_tx n (fun tx -> Fs.insert n.fs file ~tx ~key:(slot 5) ~record:"keep");
  let tx = Tmf.begin_tx n.tmf in
  get_ok ~ctx:"rewrite" (Fs.update n.fs file ~tx ~key:(slot 5) ~record:"clobber");
  get_ok ~ctx:"write" (Fs.insert n.fs file ~tx ~key:(slot 6) ~record:"ghost");
  get_ok ~ctx:"delete" (Fs.delete n.fs file ~tx ~key:(slot 5));
  get_ok ~ctx:"abort" (Tmf.abort n.tmf ~tx);
  in_tx n (fun tx ->
      Alcotest.(check string) "slot 5 restored" "keep"
        (get_ok ~ctx:"read" (read n file ~tx (slot 5)));
      (match read n file ~tx (slot 6) with
      | Error (Errors.Not_found_key _) -> ()
      | _ -> Alcotest.fail "aborted write survived");
      Ok ())

let crash_and_recover n =
  Trail.force n.trail (Int64.pred (Trail.next_lsn n.trail));
  Dp.crash n.dps.(0);
  ignore (Dp.recover n.dps.(0))

let rel_crash_recovery () =
  let n, file = setup () in
  in_tx n (fun tx ->
      let open Errors in
      let* () = Fs.insert n.fs file ~tx ~key:(slot 0) ~record:"zero" in
      Fs.insert n.fs file ~tx ~key:(slot 9) ~record:"nine");
  in_tx n (fun tx -> Fs.update n.fs file ~tx ~key:(slot 9) ~record:"NINE");
  crash_and_recover n;
  Alcotest.(check int) "slots recovered" 2 (record_count n file);
  in_tx n (fun tx ->
      Alcotest.(check string) "rewrite recovered" "NINE"
        (get_ok ~ctx:"read" (read n file ~tx (slot 9)));
      Ok ())

(* replay re-appends the committed entries at their old addresses; an
   aborted append is gone *)
let entry_crash_recovery () =
  let n = node () in
  let file = create n "ENTR" Dp_msg.K_entry_sequenced in
  let append tx record = Fs.append_entry n.fs file ~tx ~record in
  let a1 = get_ok ~ctx:"tx" (Tmf.run n.tmf (fun tx -> append tx "first")) in
  let tx = Tmf.begin_tx n.tmf in
  ignore (get_ok ~ctx:"append" (append tx "aborted"));
  get_ok ~ctx:"abort" (Tmf.abort n.tmf ~tx);
  let a2 = get_ok ~ctx:"tx" (Tmf.run n.tmf (fun tx -> append tx "second")) in
  crash_and_recover n;
  Alcotest.(check int) "entries recovered" 2 (record_count n file);
  in_tx n (fun tx ->
      let at a = get_ok ~ctx:"read" (read n file ~tx (Keycode.of_int a)) in
      Alcotest.(check string) "first" "first" (at a1);
      Alcotest.(check string) "second" "second" (at a2);
      Ok ())

let suite =
  [
    Alcotest.test_case "relative write/read/rewrite/delete" `Quick
      rel_write_read_cycle;
    Alcotest.test_case "FS point calls: relative and entry" `Quick
      fs_point_calls;
    Alcotest.test_case "relative key of another spelling rejected" `Quick
      rel_noncanonical_key_rejected;
    Alcotest.test_case "relative duplicate/oversize rejected" `Quick
      rel_double_write_rejected;
    Alcotest.test_case "relative abort undoes" `Quick rel_abort_undoes;
    Alcotest.test_case "relative crash recovery" `Quick rel_crash_recovery;
    Alcotest.test_case "entry-sequenced crash recovery" `Quick
      entry_crash_recovery;
  ]
