(* Tests of audit records (incl. field compression) and the audit trail
   (group commit, timers, WAL force, read-back). *)

module Sim = Nsql_sim.Sim
module Moncore = Nsql_sim.Moncore
module Stats = Nsql_sim.Stats
module Config = Nsql_sim.Config
module Disk = Nsql_disk.Disk
module Row = Nsql_row.Row
module Ar = Nsql_audit.Audit_record
module Trail = Nsql_audit.Trail

let setup ?config () =
  let sim = Sim.create ?config () in
  let vol = Disk.create sim ~name:"$AUDIT" in
  (sim, Trail.create sim vol)

let record_roundtrip () =
  let records =
    [
      Ar.{ lsn = 1L; tx = 7; body = Begin_tx };
      Ar.{ lsn = 2L; tx = 7; body = Insert { file = 3; key = "k"; image = "img" } };
      Ar.{ lsn = 3L; tx = 7; body = Delete { file = 3; key = "k2"; image = "old" } };
      Ar.
        {
          lsn = 4L;
          tx = 8;
          body = Update_full { file = 1; key = "k3"; before = "b"; after = "a" };
        };
      Ar.
        {
          lsn = 5L;
          tx = 8;
          body =
            Update_fields
              {
                file = 1;
                key = "k4";
                fields = [ (2, Row.Vfloat 1., Row.Vfloat 1.07); (4, Row.Null, Row.Vstr "x") ];
              };
        };
      Ar.{ lsn = 6L; tx = 8; body = Commit_tx };
    ]
  in
  let encoded = String.concat "" (List.map Ar.encode records) in
  let r = Nsql_util.Codec.reader encoded in
  List.iter
    (fun expect ->
      let got = Ar.decode r in
      Alcotest.(check int64) "lsn" expect.Ar.lsn got.Ar.lsn;
      Alcotest.(check int) "tx" expect.Ar.tx got.Ar.tx;
      Alcotest.(check string) "body"
        (Format.asprintf "%a" Ar.pp_body expect.Ar.body)
        (Format.asprintf "%a" Ar.pp_body got.Ar.body))
    records

let field_compression_smaller () =
  (* a 200-byte record where one float field changes *)
  let big = String.make 200 'r' in
  let full =
    Ar.
      {
        lsn = 1L;
        tx = 1;
        body = Update_full { file = 0; key = "k"; before = big; after = big };
      }
  in
  let compressed =
    Ar.
      {
        lsn = 1L;
        tx = 1;
        body =
          Update_fields
            {
              file = 0;
              key = "k";
              fields = [ (3, Row.Vfloat 100., Row.Vfloat 107.) ];
            };
      }
  in
  let fs = Ar.encoded_size full and cs = Ar.encoded_size compressed in
  Alcotest.(check bool)
    (Printf.sprintf "compressed %dB much smaller than full %dB" cs fs)
    true
    (cs * 5 < fs)

let append_and_force () =
  let _sim, trail = setup () in
  let l1 = Trail.append trail ~tx:1 Ar.Begin_tx in
  let l2 =
    Trail.append trail ~tx:1 (Ar.Insert { file = 0; key = "k"; image = "i" })
  in
  Alcotest.(check bool) "lsns ascend" true (Int64.compare l1 l2 < 0);
  Alcotest.(check int64) "nothing durable yet" 0L (Trail.durable_lsn trail);
  Trail.force trail l2;
  Alcotest.(check bool) "durable after force" true
    (Int64.compare (Trail.durable_lsn trail) l2 >= 0)

let read_back () =
  let _sim, trail = setup () in
  let bodies =
    [
      (1, Ar.Begin_tx);
      (1, Ar.Insert { file = 0; key = "a"; image = "1" });
      (1, Ar.Commit_tx);
      (2, Ar.Begin_tx);
      (2, Ar.Delete { file = 0; key = "a"; image = "1" });
    ]
  in
  let lsns = List.map (fun (tx, b) -> Trail.append trail ~tx b) bodies in
  Trail.force trail (List.nth lsns (List.length lsns - 1));
  let read = Trail.read_durable trail in
  Alcotest.(check int) "all records read back" (List.length bodies)
    (List.length read);
  List.iter2
    (fun (tx, body) got ->
      Alcotest.(check int) "tx" tx got.Ar.tx;
      Alcotest.(check string) "body"
        (Format.asprintf "%a" Ar.pp_body body)
        (Format.asprintf "%a" Ar.pp_body got.Ar.body))
    bodies read

let read_back_large () =
  (* spans many blocks and several flushes with partial-block rewrite *)
  let _sim, trail = setup () in
  let n = 500 in
  for i = 1 to n do
    let lsn =
      Trail.append trail ~tx:i
        (Ar.Insert { file = 0; key = Printf.sprintf "key-%04d" i; image = String.make 50 'v' })
    in
    if i mod 37 = 0 then Trail.force trail lsn
  done;
  Trail.force trail (Int64.of_int n);
  let read = Trail.read_durable trail in
  Alcotest.(check int) "all read back" n (List.length read);
  List.iteri
    (fun i r -> Alcotest.(check int64) "lsn order" (Int64.of_int (i + 1)) r.Ar.lsn)
    read

let buffer_full_flush () =
  let config = Config.v ~audit_buffer_bytes:1024 () in
  let sim, trail = setup ~config () in
  let s = Sim.stats sim in
  for i = 1 to 30 do
    ignore
      (Trail.append trail ~tx:i
         (Ar.Insert { file = 0; key = "k"; image = String.make 60 'x' }))
  done;
  Alcotest.(check bool) "buffer-full flushes happened" true
    (s.Stats.audit_flush_full > 0)

let group_commit_batches () =
  let sim, trail = setup () in
  Trail.set_timer_us trail 10_000.;
  let s = Sim.stats sim in
  (* five transactions commit within one timer window *)
  let lsns =
    List.map
      (fun tx ->
        ignore (Trail.append trail ~tx Ar.Begin_tx);
        let lsn = Trail.append trail ~tx Ar.Commit_tx in
        Trail.request_commit trail ~tx lsn;
        lsn)
      [ 1; 2; 3; 4; 5 ]
  in
  let last = List.nth lsns 4 in
  Trail.await_durable trail last;
  Alcotest.(check int) "single flush commits the group" 1 s.Stats.audit_flushes;
  Alcotest.(check int) "five transactions in the group" 5 s.Stats.group_commit_txs;
  Alcotest.(check int) "timer flush" 1 s.Stats.audit_flush_timer

let group_commit_waits_timer () =
  let sim, trail = setup () in
  Trail.set_timer_us trail 10_000.;
  ignore (Trail.append trail ~tx:1 Ar.Begin_tx);
  let lsn = Trail.append trail ~tx:1 Ar.Commit_tx in
  let t0 = Sim.now sim in
  Trail.request_commit trail ~tx:1 lsn;
  Trail.await_durable trail lsn;
  let waited = Sim.now sim -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "wait %.0fus >= timer" waited)
    true (waited >= 10_000.)

let adaptive_timer_tracks_rate () =
  let sim, trail = setup () in
  (* rapid commits: timer should shrink towards the clamp *)
  for tx = 1 to 50 do
    Sim.charge sim ~cat:Moncore.C_other 100.;
    let lsn = Trail.append trail ~tx Ar.Commit_tx in
    Trail.request_commit trail ~tx lsn
  done;
  let fast_timer = Trail.current_timer_us trail in
  (* slow commits: timer should grow *)
  for tx = 51 to 70 do
    Sim.charge sim ~cat:Moncore.C_other 40_000.;
    let lsn = Trail.append trail ~tx Ar.Commit_tx in
    Trail.request_commit trail ~tx lsn
  done;
  let slow_timer = Trail.current_timer_us trail in
  Alcotest.(check bool)
    (Printf.sprintf "fast %.0f < slow %.0f" fast_timer slow_timer)
    true
    (fast_timer < slow_timer)

let suite =
  [
    Alcotest.test_case "audit record roundtrip" `Quick record_roundtrip;
    Alcotest.test_case "field compression shrinks records" `Quick
      field_compression_smaller;
    Alcotest.test_case "append + force" `Quick append_and_force;
    Alcotest.test_case "read back" `Quick read_back;
    Alcotest.test_case "read back large (multi-flush)" `Quick read_back_large;
    Alcotest.test_case "buffer-full flush" `Quick buffer_full_flush;
    Alcotest.test_case "group commit batches" `Quick group_commit_batches;
    Alcotest.test_case "commit waits for timer" `Quick group_commit_waits_timer;
    Alcotest.test_case "adaptive timer tracks rate" `Quick
      adaptive_timer_tracks_rate;
  ]
