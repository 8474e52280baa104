(* Tests of the ENSCRIBE record-at-a-time interface, including SBB
   semantics and its file-locking restriction. *)

open Harness
module Enscribe = Nsql_enscribe.Enscribe
module Dp_msg = Nsql_dp.Dp_msg
module Stats = Nsql_sim.Stats

let setup_file ?(rows = 100) () =
  let n = node () in
  let file =
    get_ok ~ctx:"create"
      (Fs.create_enscribe_file n.fs ~fname:"ENSFILE"
         ~kind:Dp_msg.K_key_sequenced
         ~partitions:[ Fs.{ ps_lo = ""; ps_dp = n.dps.(0) } ])
  in
  let h = Enscribe.open_file n.fs file ~sbb:false in
  get_ok ~ctx:"load"
    (Tmf.run n.tmf (fun tx ->
         let rec go i =
           if i >= rows then Ok ()
           else
             let open Errors in
             let* () =
               Enscribe.write h ~tx ~key:(Keycode.of_int i)
                 ~record:(Printf.sprintf "record-%03d" i)
             in
             go (i + 1)
         in
         go 0));
  (n, file, h)

let write_read_rewrite_delete () =
  let n, _file, h = setup_file ~rows:10 () in
  in_tx n (fun tx ->
      let open Errors in
      let* r = Enscribe.read h ~tx ~key:(Keycode.of_int 5) ~lock:Dp_msg.L_shared in
      Alcotest.(check string) "read" "record-005" r;
      let* () = Enscribe.rewrite h ~tx ~key:(Keycode.of_int 5) ~record:"v2" in
      let* r = Enscribe.read h ~tx ~key:(Keycode.of_int 5) ~lock:Dp_msg.L_none in
      Alcotest.(check string) "rewritten" "v2" r;
      let* () = Enscribe.delete h ~tx ~key:(Keycode.of_int 5) in
      (match Enscribe.read h ~tx ~key:(Keycode.of_int 5) ~lock:Dp_msg.L_none with
      | Error (Errors.Not_found_key _) -> ()
      | _ -> Alcotest.fail "deleted record readable");
      Ok ())

let sequential_readnext () =
  let n, _file, h = setup_file ~rows:20 () in
  in_tx n (fun tx ->
      let open Errors in
      Enscribe.keyposition h ~key:(Keycode.of_int 15);
      let rec collect acc =
        let* entry = Enscribe.readnext h ~tx ~lock:Dp_msg.L_none in
        match entry with
        | None -> Ok (List.rev acc)
        | Some (_, r) -> collect (r :: acc)
      in
      let* rs = collect [] in
      Alcotest.(check (list string)) "tail of file"
        [ "record-015"; "record-016"; "record-017"; "record-018"; "record-019" ]
        rs;
      Ok ())

let sbb_requires_file_lock () =
  let n, file, _ = setup_file ~rows:10 () in
  let h = Enscribe.open_file n.fs file ~sbb:true in
  in_tx n (fun tx ->
      (match Enscribe.readnext h ~tx ~lock:Dp_msg.L_none with
      | Error (Errors.Bad_request _) -> ()
      | _ -> Alcotest.fail "SBB read without file lock allowed");
      let open Errors in
      let* () = Enscribe.lockfile h ~tx ~lock:Dp_msg.L_shared in
      let* first = Enscribe.readnext h ~tx ~lock:Dp_msg.L_none in
      Alcotest.(check bool) "read after lockfile" true (first <> None);
      Ok ())

let sbb_reduces_messages () =
  let rows = 200 in
  let n, _file, h = setup_file ~rows () in
  let s = Sim.stats n.sim in
  (* record-at-a-time *)
  let before = s.Stats.msgs_sent in
  in_tx n (fun tx ->
      Enscribe.keyposition h ~key:"";
      let rec drain () =
        match get_ok ~ctx:"rn" (Enscribe.readnext h ~tx ~lock:Dp_msg.L_none) with
        | None -> Ok ()
        | Some _ -> drain ()
      in
      drain ());
  let record_msgs = s.Stats.msgs_sent - before in
  (* SBB *)
  let n2, file2, _ = setup_file ~rows () in
  let h2 = Enscribe.open_file n2.fs file2 ~sbb:true in
  let s2 = Sim.stats n2.sim in
  let before = s2.Stats.msgs_sent in
  in_tx n2 (fun tx ->
      let open Errors in
      let* () = Enscribe.lockfile h2 ~tx ~lock:Dp_msg.L_shared in
      let rec drain k =
        match get_ok ~ctx:"rn" (Enscribe.readnext h2 ~tx ~lock:Dp_msg.L_none) with
        | None -> Ok k
        | Some _ -> drain (k + 1)
      in
      let* k = drain 0 in
      Alcotest.(check int) "all records seen" rows k;
      Ok ());
  let sbb_msgs = s2.Stats.msgs_sent - before in
  Alcotest.(check bool)
    (Printf.sprintf "SBB %d << record-at-a-time %d" sbb_msgs record_msgs)
    true
    (sbb_msgs * 3 < record_msgs)

let entry_sequenced_history () =
  let n = node () in
  let file =
    get_ok ~ctx:"create"
      (Fs.create_enscribe_file n.fs ~fname:"HIST" ~kind:Dp_msg.K_entry_sequenced
         ~partitions:[ Fs.{ ps_lo = ""; ps_dp = n.dps.(0) } ])
  in
  let h = Enscribe.open_file n.fs file ~sbb:false in
  in_tx n (fun tx ->
      let open Errors in
      let* () = Enscribe.write h ~tx ~key:"" ~record:"event-1" in
      let* () = Enscribe.write h ~tx ~key:"" ~record:"event-2" in
      Ok ());
  Alcotest.(check int) "two history records" 2 (record_count n file)

let suite =
  [
    Alcotest.test_case "write/read/rewrite/delete" `Quick
      write_read_rewrite_delete;
    Alcotest.test_case "keyposition + readnext" `Quick sequential_readnext;
    Alcotest.test_case "SBB requires file lock" `Quick sbb_requires_file_lock;
    Alcotest.test_case "SBB message savings" `Quick sbb_reduces_messages;
    Alcotest.test_case "entry-sequenced history file" `Quick
      entry_sequenced_history;
  ]

(* late addition: LOCKGENERIC coverage through the message interface *)
let lockgeneric_covers_prefix () =
  let n = node () in
  let file =
    get_ok ~ctx:"create"
      (Fs.create_enscribe_file n.fs ~fname:"GEN" ~kind:Dp_msg.K_key_sequenced
         ~partitions:[ Fs.{ ps_lo = ""; ps_dp = n.dps.(0) } ])
  in
  let h = Enscribe.open_file n.fs file ~sbb:false in
  let key a b = Keycode.of_int a ^ Keycode.of_int b in
  in_tx n (fun tx ->
      let open Errors in
      let* () = Enscribe.write h ~tx ~key:(key 1 1) ~record:"a" in
      let* () = Enscribe.write h ~tx ~key:(key 1 2) ~record:"b" in
      Enscribe.write h ~tx ~key:(key 2 1) ~record:"c");
  let tx1 = Tmf.begin_tx n.tmf in
  get_ok ~ctx:"lockgeneric"
    (Enscribe.lockgeneric h ~tx:tx1 ~prefix:(Keycode.of_int 1)
       ~lock:Dp_msg.L_exclusive);
  let tx2 = Tmf.begin_tx n.tmf in
  (* records under the prefix are covered; others are not *)
  (match Enscribe.read h ~tx:tx2 ~key:(key 1 2) ~lock:Dp_msg.L_shared with
  | Error (Errors.Lock_timeout _) -> ()
  | Ok _ -> Alcotest.fail "prefix lock missed a record"
  | Error e -> Alcotest.fail (Errors.to_string e));
  (match Enscribe.read h ~tx:tx2 ~key:(key 2 1) ~lock:Dp_msg.L_shared with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Errors.to_string e));
  get_ok ~ctx:"abort tx2" (Tmf.abort n.tmf ~tx:tx2);
  get_ok ~ctx:"commit tx1" (Tmf.commit n.tmf ~tx:tx1)

let suite =
  suite
  @ [
      Alcotest.test_case "LOCKGENERIC covers key prefix" `Quick
        lockgeneric_covers_prefix;
    ]
