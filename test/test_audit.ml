(* Tests of audit records (incl. field compression), the audit trail
   (group commit, timers, WAL force, read-back) and TMF's choice between
   a group-commit wait and an immediate flush. *)

module Sim = Nsql_sim.Sim
module Moncore = Nsql_sim.Moncore
module Stats = Nsql_sim.Stats
module Config = Nsql_sim.Config
module Disk = Nsql_disk.Disk
module Row = Nsql_row.Row
module Ar = Nsql_audit.Audit_record
module Trail = Nsql_audit.Trail
module Tmf = Nsql_tmf.Tmf

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
  let positions =
    List.init n (fun i ->
        let i = i + 1 in
        let pos = Trail.end_pos trail in
        let lsn =
          Trail.append trail ~tx:i
            (Ar.Insert { file = 0; key = Printf.sprintf "key-%04d" i; image = String.make 50 'v' })
        in
        if i mod 37 = 0 then Trail.force trail lsn;
        pos)
  in
  (* each record by its position: flushed ones, some straddling blocks,
     and the staged tail *)
  List.iteri
    (fun i pos ->
      let r = Trail.read_at trail pos in
      Alcotest.(check int64) "read at its position" (Int64.of_int (i + 1)) r.Ar.lsn)
    positions;
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
        Trail.request_commit trail ~can_grow:true lsn;
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
  Trail.request_commit trail ~can_grow:true lsn;
  Trail.await_durable trail lsn;
  let waited = Sim.now sim -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "wait %.0fus >= timer" waited)
    true (waited >= 10_000.)

(* A flush disarms the timer but leaves its event in the heap. A group
   armed after the flush waits for its own timer: the old event, firing
   first, must not flush it early. *)
let stale_timer_event () =
  let sim, trail = setup () in
  let timer = 100_000. in
  Trail.set_timer_us trail timer;
  let commit tx =
    let lsn = Trail.append trail ~tx Ar.Commit_tx in
    Trail.request_commit trail ~can_grow:true lsn;
    lsn
  in
  let a = commit 1 in
  let a_due = Sim.now sim +. timer in
  Trail.force trail a;
  let b = commit 2 in
  let b_due = Sim.now sim +. timer in
  Alcotest.(check bool) "B's timer is armed before A's is due" true
    (b_due -. timer < a_due);
  Sim.charge sim ~cat:Moncore.C_other (a_due +. 1. -. Sim.now sim);
  Alcotest.(check bool) "B's timer is not due" true (Sim.now sim < b_due);
  Alcotest.(check bool) "B is not flushed by A's timer" true
    (Int64.compare (Trail.durable_lsn trail) b < 0);
  Trail.await_durable trail b;
  Alcotest.(check bool) "B waits for its own timer" true (Sim.now sim >= b_due);
  Alcotest.(check int) "one timer flush" 1 (Sim.stats sim).Stats.audit_flush_timer

(* With no other transaction in flight no group can form: the commit
   flushes the trail at once. Beside an open transaction it waits out the
   timer for the group to fill. *)
let lone_commit_flushes () =
  let sim, trail = setup () in
  let tmf = Tmf.create sim trail in
  Trail.set_timer_us trail 50_000.;
  let s = Sim.stats sim in
  let commit tx =
    ignore (Tmf.log tmf ~volume:"$DATA" ~tx (Ar.Insert { file = 0; key = "k"; image = "i" }));
    let t0 = Sim.now sim in
    Nsql_util.Errors.get_ok ~ctx:"commit" (Tmf.commit tmf ~tx);
    Sim.now sim -. t0
  in
  let lone = commit (Tmf.begin_tx tmf) in
  Alcotest.(check bool) (Printf.sprintf "lone commit took %.0fus" lone) true
    (lone < 50_000.);
  Alcotest.(check int) "no timer flush" 0 s.Stats.audit_flush_timer;
  let tx = Tmf.begin_tx tmf in
  let other = Tmf.begin_tx tmf in
  let grouped = commit tx in
  Alcotest.(check bool) (Printf.sprintf "grouped commit took %.0fus" grouped) true
    (grouped >= 50_000.);
  Alcotest.(check int) "one timer flush" 1 s.Stats.audit_flush_timer;
  Nsql_util.Errors.get_ok ~ctx:"abort" (Tmf.abort tmf ~tx:other)

(* Two commits share one flush through TMF: A's nowait commit arms the
   timer while B runs; B's commit leaves no transaction running, so one
   flush commits both before the timer is due. *)
let commits_share_a_flush () =
  let sim, trail = setup () in
  let tmf = Tmf.create sim trail in
  Trail.set_timer_us trail 50_000.;
  let s = Sim.stats sim in
  let write tx =
    ignore (Tmf.log tmf ~volume:"$DATA" ~tx (Ar.Insert { file = 0; key = "k"; image = "i" }))
  in
  let a = Tmf.begin_tx tmf and b = Tmf.begin_tx tmf in
  write a;
  write b;
  let flushes = s.Stats.audit_flushes and txs = s.Stats.group_commit_txs in
  let timers = s.Stats.audit_flush_timer in
  let t0 = Sim.now sim in
  let a_durable = ref false in
  ignore
    (Nsql_util.Errors.get_ok ~ctx:"A requests its commit"
       (Tmf.request_commit tmf ~tx:a ~on_durable:(fun () -> a_durable := true)));
  Alcotest.(check bool) "A waits while B runs" false !a_durable;
  Nsql_util.Errors.get_ok ~ctx:"commit B" (Tmf.commit tmf ~tx:b);
  Alcotest.(check bool) "A is durable" true !a_durable;
  Alcotest.(check bool) "before the timer is due" true (Sim.now sim -. t0 < 50_000.);
  Alcotest.(check int) "two commits in the group" 2 (s.Stats.group_commit_txs - txs);
  Alcotest.(check int) "one flush" 1 (s.Stats.audit_flushes - flushes);
  Alcotest.(check int) "no timer flush" 0 (s.Stats.audit_flush_timer - timers);
  Tmf.finish_commit tmf ~tx:a

let adaptive_timer_tracks_rate () =
  let sim, trail = setup () in
  (* rapid commits: timer should shrink towards the clamp *)
  for tx = 1 to 50 do
    Sim.charge sim ~cat:Moncore.C_other 100.;
    let lsn = Trail.append trail ~tx Ar.Commit_tx in
    Trail.request_commit trail ~can_grow:true lsn
  done;
  let fast_timer = Trail.current_timer_us trail in
  (* slow commits: timer should grow *)
  for tx = 51 to 70 do
    Sim.charge sim ~cat:Moncore.C_other 40_000.;
    let lsn = Trail.append trail ~tx Ar.Commit_tx in
    Trail.request_commit trail ~can_grow:true lsn
  done;
  let slow_timer = Trail.current_timer_us trail in
  Alcotest.(check bool)
    (Printf.sprintf "fast %.0f < slow %.0f" fast_timer slow_timer)
    true
    (fast_timer < slow_timer)

(* --- inverse records --------------------------------------------------- *)

let gen_body =
  let open QCheck.Gen in
  let str = string_size ~gen:char (int_bound 40) in
  let value =
    oneof
      [
        return Row.Null;
        map (fun i -> Row.Vint i) int;
        map (fun f -> Row.Vfloat f) (oneof [ float; oneofl [ nan; -0.; infinity ] ]);
        map (fun b -> Row.Vbool b) bool;
        map (fun s -> Row.Vstr s) str;
      ]
  in
  let* file = int_bound 1000 and* key = str in
  oneof
    [
      map (fun image -> Ar.Insert { file; key; image }) str;
      map (fun image -> Ar.Delete { file; key; image }) str;
      map2 (fun before after -> Ar.Update_full { file; key; before; after }) str str;
      map
        (fun fields -> Ar.Update_fields { file; key; fields })
        (list_size (int_bound 6) (triple (int_bound 50) value value));
    ]

(* Every data body's inverse undoes it, and a compensation costs the trail
   as many bytes as its record (compared encoded, so NaN fields compare). *)
let invert_laws =
  QCheck.Test.make ~name:"invert is an involution that keeps the size" ~count:300
    (QCheck.make ~print:(Format.asprintf "%a" Ar.pp_body) gen_body)
    (fun body ->
      let record body = Ar.{ lsn = 9L; tx = 4; body } in
      String.equal (Ar.encode (record (Ar.invert (Ar.invert body)))) (Ar.encode (record body))
      && Ar.encoded_size (record (Ar.invert body)) = Ar.encoded_size (record body))

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
    Alcotest.test_case "a stale timer event leaves a later group" `Quick
      stale_timer_event;
    Alcotest.test_case "a lone commit flushes at once" `Quick lone_commit_flushes;
    Alcotest.test_case "two commits share one flush" `Quick commits_share_a_flush;
    QCheck_alcotest.to_alcotest invert_laws;
  ]
