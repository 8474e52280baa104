(* The continuation re-drive engines on both sides of the FS-DP interface:

   - golden fingerprints (statistics vector, clock, result and trace
     digests) pinning the sequential chain and scan drivers, the
     index-scan plumbing and the indexed-table fallbacks;
   - the Subset Control Block lifecycle: a set request that comes back
     blocked or failed leaves no SCB behind on its Disk Process, since no
     requester ever re-drives such a chain, nor a NEXT of the wrong kind;
   - the chain driver's error path on a partitioned file, fan-out on and
     off: one failing partition fails the whole request, and every
     sibling's subset is abandoned and closed;
   - an index scan closed before its stream ends releases its SCB and
     finishes its span, like any other scan handle;
   - a grouped AGGREGATE's partials survive a takeover between two
     re-drives, rebuilt on the backup from the checkpoint stream. *)

open Harness
module Dp_msg = Nsql_dp.Dp_msg
module Stats = Nsql_sim.Stats
module Trace = Nsql_trace.Trace
module Tracer = Nsql_sim.Tracer

(* --- goldens ----------------------------------------------------------- *)

let golden_cases =
  List.map2
    (fun (name, run) expected ->
      Alcotest.test_case ("golden: " ^ name) `Quick (fun () ->
          Alcotest.(check string)
            (name ^ ": pre-merge fingerprint reproduced")
            expected (run ())))
    Golden.redrive_scenarios
    [ Golden.golden_queries_sequential; Golden.golden_indexed ]

(* --- SCB watch ----------------------------------------------------------- *)

(* Wrap every Disk Process handler and remember each SCB named on the wire
   — by a re-drive request or by a reply that carries one — together with
   the Disk Process (by index) and file it belongs to. Also counts the
   CLOSE^SCB requests a requester sends. *)
type watch = {
  mutable scbs : (int * int * int) list;
  mutable closes : int;
}

let watch_scbs n =
  let w = { scbs = []; closes = 0 } in
  Array.iteri
    (fun i dp ->
      Msg.set_handler (Dp.endpoint dp) (fun payload ->
          let reply = Dp.handler dp payload in
          (match Dp_msg.decode_request payload with
          | Error _ -> ()
          | Ok req -> (
              let note file scb =
                if scb >= 0 && not (List.mem (i, file, scb) w.scbs) then
                  w.scbs <- (i, file, scb) :: w.scbs
              in
              let file =
                match req with
                | Dp_msg.R_subset_first { file; _ } -> Some file
                | Dp_msg.R_subset_next { file; scb; _ } ->
                    note file scb;
                    Some file
                | Dp_msg.R_close_scb _ ->
                    w.closes <- w.closes + 1;
                    None
                | _ -> None
              in
              match (file, Dp_msg.decode_reply reply) with
              | ( Some file,
                  Ok
                    ( Dp_msg.Rp_blocked { scb; _ }
                    | Dp_msg.Rp_progress { scb; _ }
                    | Dp_msg.Rp_block { scb; _ }
                    | Dp_msg.Rp_vblock { scb; _ }
                    | Dp_msg.Rp_agg { scb; _ } ) ) ->
                  note file scb
              | _ -> ()));
          reply))
    n.dps;
  w

(* every watched SCB must be gone: a re-drive naming it is refused as an
   unknown SCB, not run (or rejected as the wrong kind of subset) *)
let assert_all_closed n w =
  Alcotest.(check bool) "the run named at least one SCB" true (w.scbs <> []);
  List.iter
    (fun (i, file, scb) ->
      match
        Dp.request n.dps.(i)
          (Dp_msg.R_subset_next
             { kind = Dp_msg.Sk_get; file; tx = 0; scb; after_key = "" })
      with
      | Dp_msg.Rp_error (Errors.Bad_request m)
        when String.equal m (Printf.sprintf "unknown SCB %d" scb) ->
          ()
      | _ ->
          Alcotest.failf "SCB %d (file %d) is still open on %s" scb file
            (Dp.name n.dps.(i)))
    w.scbs

let set_balance_to e = [ { Expr.target = 1; source = e } ]

let expect_error what pred = function
  | Ok _ -> Alcotest.failf "%s succeeded" what
  | Error e ->
      if not (pred e) then
        Alcotest.failf "%s: unexpected error %s" what (Errors.to_string e)

let is_lock_timeout = function Errors.Lock_timeout _ -> true | _ -> false
let is_violation = function Errors.Constraint_violation _ -> true | _ -> false

let count_star = [ { Dp_msg.ag_kind = Dp_msg.Agg_count_star; ag_arg = None } ]

(* --- blocked and failed set requests drop their SCB ------------------------ *)

let blocked_set_requests_drop_scb () =
  let n = node () in
  let file = create_accounts n in
  load_accounts n file 20;
  let w = watch_scbs n in
  (* tx A holds an exclusive record lock inside every range below *)
  let tx_a = Tmf.begin_tx n.tmf in
  ignore
    (get_ok ~ctx:"lock record 7"
       (Fs.read n.fs file ~tx:tx_a ~key:(acct_key 7) ~lock:Dp_msg.L_exclusive));
  let tx_b = Tmf.begin_tx n.tmf in
  expect_error "UPDATE^SUBSET over a locked record" is_lock_timeout
    (Fs.update_subset n.fs file ~tx:tx_b ~range:full_range
       (set_balance_to Expr.(float_ 1.)));
  let sc =
    Fs.open_scan n.fs file ~tx:tx_b ~access:Fs.A_vsbb ~range:full_range
      ~lock:Dp_msg.L_shared ()
  in
  expect_error "locking VSBB GET^FIRST" is_lock_timeout (Fs.scan_next n.fs sc);
  Fs.close_scan n.fs sc;
  expect_error "locking AGGREGATE^FIRST" is_lock_timeout
    (Fs.aggregate n.fs file ~tx:tx_b ~range:full_range ~group_keys:[||]
       ~aggs:count_star ~lock:Dp_msg.L_shared ());
  get_ok ~ctx:"abort B" (Tmf.abort n.tmf ~tx:tx_b);
  get_ok ~ctx:"commit A" (Tmf.commit n.tmf ~tx:tx_a);
  Alcotest.(check int) "three blocked chains" 3 (List.length w.scbs);
  assert_all_closed n w

let failed_update_subset_drops_scb () =
  let n = node ~config:(Config.v ~dp_records_per_request:4 ()) () in
  (* CHECK balance >= 0; balance = 1000 - balance turns negative at
     account 11, two re-drives into the chain *)
  let file = create_accounts ~check:(Some Expr.(Cmp (Ge, Field 1, float_ 0.))) n in
  load_accounts n file 20;
  let w = watch_scbs n in
  let tx = Tmf.begin_tx n.tmf in
  expect_error "UPDATE^SUBSET failing its CHECK" is_violation
    (Fs.update_subset n.fs file ~tx ~range:full_range
       (set_balance_to Expr.(Binop (Sub, float_ 1000., Field 1))));
  get_ok ~ctx:"abort" (Tmf.abort n.tmf ~tx);
  assert_all_closed n w

(* A NEXT must continue a subset of its own kind: GET^NEXT naming an
   UPDATE^SUBSET SCB is refused, and the refusal drops the SCB like any
   other failed step. *)
let next_of_wrong_kind_drops_scb () =
  let n = node ~config:(Config.v ~dp_records_per_request:4 ()) () in
  let file = create_accounts n in
  load_accounts n file 20;
  let dp = n.dps.(0) in
  let dpfile = Option.get (Dp.file_id dp "ACCOUNT#p0") in
  let tx = Tmf.begin_tx n.tmf in
  let next kind scb =
    Dp_msg.R_subset_next { kind; file = dpfile; tx; scb; after_key = "" }
  in
  let scb =
    match
      Dp.request dp
        (Dp_msg.R_subset_first
           {
             file = dpfile;
             tx;
             range = full_range;
             body =
               Dp_msg.Cs_update
                 { pred = None; assignments = set_balance_to Expr.(float_ 1.) };
           })
    with
    | Dp_msg.Rp_progress { more = true; scb; _ } -> scb
    | _ -> Alcotest.fail "UPDATE^SUBSET^FIRST: expected a re-drivable progress reply"
  in
  (match Dp.request dp (next Dp_msg.Sk_get scb) with
  | Dp_msg.Rp_error (Errors.Bad_request _) -> ()
  | _ -> Alcotest.fail "GET^NEXT on an UPDATE^SUBSET SCB was not refused");
  (match Dp.request dp (next Dp_msg.Sk_update scb) with
  | Dp_msg.Rp_error (Errors.Bad_request m)
    when String.equal m (Printf.sprintf "unknown SCB %d" scb) ->
      ()
  | _ -> Alcotest.fail "the refused SCB is still open");
  get_ok ~ctx:"abort" (Tmf.abort n.tmf ~tx)

(* --- the chain driver's error path on 4 partitions ------------------------- *)

(* accounts 0..39 over four partitions of ten, one per Disk Process, with a
   3-record budget so that every partition's chain re-drives *)
let partitioned ~fanout ~check =
  let n =
    node ~config:(Config.v ~fs_fanout:fanout ~dp_records_per_request:3 ()) ~dps:4 ()
  in
  let file = create_accounts ~check ~parts:4 ~split:10 n in
  load_accounts n file 40;
  (n, file)

let failing_partition_update ~fanout () =
  let n, file =
    partitioned ~fanout ~check:(Some Expr.(Cmp (Ge, Field 1, float_ 0.)))
  in
  let w = watch_scbs n in
  let tx = Tmf.begin_tx n.tmf in
  (* balance = 3600 - balance goes negative from account 37 on: only the
     last partition fails, in its second re-drive *)
  expect_error "UPDATE with one failing partition" is_violation
    (Fs.update_subset n.fs file ~tx ~range:full_range
       (set_balance_to Expr.(Binop (Sub, float_ 3600., Field 1))));
  get_ok ~ctx:"abort" (Tmf.abort n.tmf ~tx);
  if fanout then
    Alcotest.(check bool) "siblings' subsets abandoned with CLOSE^SCB" true
      (w.closes > 0);
  assert_all_closed n w

let blocked_partition_aggregate ~fanout () =
  let n, file = partitioned ~fanout ~check:None in
  let w = watch_scbs n in
  let tx_a = Tmf.begin_tx n.tmf in
  ignore
    (get_ok ~ctx:"lock record 25"
       (Fs.read n.fs file ~tx:tx_a ~key:(acct_key 25) ~lock:Dp_msg.L_exclusive));
  let tx_b = Tmf.begin_tx n.tmf in
  expect_error "aggregate with one blocked partition" is_lock_timeout
    (Fs.aggregate n.fs file ~tx:tx_b ~range:full_range ~group_keys:[||]
       ~aggs:count_star ~lock:Dp_msg.L_shared ());
  get_ok ~ctx:"abort B" (Tmf.abort n.tmf ~tx:tx_b);
  get_ok ~ctx:"commit A" (Tmf.commit n.tmf ~tx:tx_a);
  if fanout then
    Alcotest.(check bool) "siblings' subsets abandoned with CLOSE^SCB" true
      (w.closes > 0);
  assert_all_closed n w

(* --- an abandoned index scan ------------------------------------------------ *)

(* a 4-partition base file indexed on owner: the index scan takes one row
   (one base READ) and is closed long before its stream ends; the index
   subset's SCB must be gone and the scan's span finished *)
let abandoned_index_scan ~fanout () =
  let n =
    node ~config:(Config.v ~fs_fanout:fanout ~dp_records_per_request:3 ()) ~dps:4 ()
  in
  let file =
    create_accounts n ~parts:4 ~split:10
      ~indexes:[ Fs.{ is_name = "by_owner"; is_cols = [ 2 ]; is_dp = n.dps.(0) } ]
  in
  load_accounts n file 40;
  let w = watch_scbs n in
  Trace.set_enabled n.sim true;
  let tx = Tmf.begin_tx n.tmf in
  let sc =
    get_ok ~ctx:"open index scan"
      (Fs.open_index_scan n.fs file ~tx ~index:"by_owner" ~range:full_range
         ~lock:Dp_msg.L_none ())
  in
  (match get_ok ~ctx:"first row" (Fs.scan_next n.fs sc) with
  | Some row ->
      Alcotest.(check bool) "first base row" true
        (Row.equal_value (Row.Vint 0) row.(0))
  | None -> Alcotest.fail "the index scan yielded nothing");
  Alcotest.(check int) "one index subset open" 1 (List.length w.scbs);
  Fs.close_scan n.fs sc;
  Alcotest.(check int) "abandoned with CLOSE^SCB" 1 w.closes;
  get_ok ~ctx:"commit" (Tmf.commit n.tmf ~tx);
  let spans = Trace.take n.sim in
  Trace.set_enabled n.sim false;
  (match
     List.find_opt
       (fun sp -> String.equal sp.Tracer.sp_name "vsbb scan ACCOUNT#ix_by_owner")
       spans
   with
  | Some sp ->
      Alcotest.(check bool) "scan span finished" false sp.Tracer.sp_open
  | None -> Alcotest.fail "no index scan span");
  assert_all_closed n w

(* --- column-selective decoding across re-drives ------------------------- *)

(* The predicate, group-key and projected columns all sit after a nullable
   VARCHAR, so a record's decode must skip a field whose width varies from
   row to row (absent when NULL, one- and two-byte length prefixes) before
   it reaches any of them. A 7-record budget makes every chain re-drive
   many times and cross leaves. Answers are checked against the generated
   rows themselves, evaluated whole. *)
let wide_schema =
  Row.schema
    [|
      Row.column ~nullable:true "note" (Row.T_varchar 200);
      Row.column "grp" Row.T_int;
      Row.column "k" Row.T_int;
      Row.column "v" Row.T_int;
      Row.column "tag" (Row.T_char 6);
      Row.column ~nullable:true "f" Row.T_float;
      Row.column "b" Row.T_bool;
    |]
    ~key:[ "grp"; "k" ]

let wide_row i =
  [|
    (if i mod 3 = 0 then Row.Null else Row.Vstr (String.make (i * 37 mod 201) 'n'));
    Row.Vint (i mod 5);
    Row.Vint i;
    Row.Vint (i * 7919 mod 1000);
    Row.Vstr (Printf.sprintf "t%d" (i mod 13));
    (if i mod 4 = 0 then Row.Null else Row.Vfloat (float_of_int i /. 3.));
    Row.Vbool (i mod 2 = 0);
  |]

let wide_rows = 300

(* (v < 600 OR f IS NULL) AND b = TRUE *)
let wide_pred =
  Expr.(
    And
      ( Or (Cmp (Lt, Field 3, int_ 600), Is_null (Field 5)),
        Cmp (Eq, Field 6, bool_ true) ))

let check_rows what expected got =
  Alcotest.(check (list string))
    what
    (List.map (Format.asprintf "%a" Row.pp_row) expected)
    (List.map (Format.asprintf "%a" Row.pp_row) got)

let selective_decode_redrive () =
  let n = node ~config:(Config.v ~dp_records_per_request:7 ()) () in
  let file =
    get_ok ~ctx:"create WIDE"
      (Fs.create_file n.fs ~fname:"WIDE" ~schema:wide_schema
         ~partitions:[ Fs.{ ps_lo = ""; ps_dp = n.dps.(0) } ]
         ~indexes:[] ())
  in
  in_tx n (fun tx ->
      Errors.list_iter
        (fun i -> Fs.insert_row n.fs file ~tx (wide_row i))
        (List.init wide_rows Fun.id));
  (* the reference: every row in key order, evaluated whole *)
  let all =
    List.sort
      (fun a b ->
        String.compare (Row.key_of_row wide_schema a) (Row.key_of_row wide_schema b))
      (List.init wide_rows wide_row)
  in
  let selected = List.filter (fun r -> Expr.eval_pred r wide_pred) all in
  let scan ~access ?proj () =
    in_tx n (fun tx ->
        Ok
          (drain_scan n
             (Fs.open_scan n.fs file ~tx ~access ~range:full_range
                ~pred:wide_pred ?proj ~lock:Dp_msg.L_none ())))
  in
  (* GET: shipped columns beyond the predicate's, none, all, and raw
     entries *)
  List.iter
    (fun (what, access, proj) ->
      check_rows what
        (match proj with
        | Some fields -> List.map (fun r -> Row.project r fields) selected
        | None -> selected)
        (scan ~access ?proj ()))
    [
      ("VSBB, projection beyond the predicate", Fs.A_vsbb, Some [| 5; 2; 4 |]);
      ("VSBB, projection within the predicate", Fs.A_vsbb, Some [| 6; 3 |]);
      ("VSBB, whole rows", Fs.A_vsbb, None);
      ("RSBB, projection", Fs.A_rsbb, Some [| 5; 2; 4 |]);
    ];
  (* AGGREGATE per grp: row count, SUM(v), MIN(tag), MAX(f) *)
  let aggs =
    Dp_msg.
      [
        { ag_kind = Agg_count_star; ag_arg = None };
        { ag_kind = Agg_sum; ag_arg = Some (Expr.Field 3) };
        { ag_kind = Agg_min; ag_arg = Some (Expr.Field 4) };
        { ag_kind = Agg_max; ag_arg = Some (Expr.Field 5) };
      ]
  in
  let groups =
    in_tx n (fun tx ->
        Fs.aggregate n.fs file ~tx ~range:full_range ~pred:wide_pred
          ~group_keys:[| 1 |] ~aggs ~lock:Dp_msg.L_none ())
  in
  let got = Dp_msg.Groups.rows groups in
  let expected =
    List.filter_map
      (fun g ->
        let rows = List.filter (fun r -> Row.equal_value r.(1) (Row.Vint g)) selected in
        if rows = [] then None
        else
          let acc spec =
            let a = Dp_msg.fresh_acc () in
            List.iter (Dp_msg.feeder spec a) rows;
            Dp_msg.finish_acc spec.Dp_msg.ag_kind a
          in
          Some (Array.of_list (Row.Vint g :: List.map acc aggs)))
      (List.init 5 Fun.id)
  in
  check_rows "AGGREGATE by grp" expected got;
  (* UPDATE: v = v + 1000 where the predicate holds *)
  let bump = [ Expr.{ target = 3; source = Binop (Add, Field 3, int_ 1000) } ] in
  let updated =
    in_tx n (fun tx ->
        Fs.update_subset n.fs file ~tx ~range:full_range ~pred:wide_pred bump)
  in
  Alcotest.(check int) "UPDATE count" (List.length selected) updated;
  check_rows "UPDATE result"
    (List.map
       (fun r -> if Expr.eval_pred r wide_pred then Expr.apply_assignments r bump else r)
       all)
    (in_tx n (fun tx ->
         Ok
           (drain_scan n
              (Fs.open_scan n.fs file ~tx ~access:Fs.A_vsbb ~range:full_range
                 ~lock:Dp_msg.L_none ()))))

(* --- aggregate partials across a takeover -------------------------------- *)

(* A grouped AGGREGATE whose chain re-drives dozens of times, with the
   process pair taking over between two re-drives: the new primary must
   fold on from the partials its backup rebuilt out of the last
   [Ck_agg_state] checkpoint, so the final groups equal an uninterrupted
   run's. *)
let agg_takeover_between_redrives () =
  let aggs =
    Dp_msg.
      [
        { ag_kind = Agg_count_star; ag_arg = None };
        { ag_kind = Agg_sum; ag_arg = Some (Expr.Field 5) };
        { ag_kind = Agg_min; ag_arg = Some (Expr.Field 4) };
        { ag_kind = Agg_max; ag_arg = Some (Expr.Field 3) };
      ]
  in
  let run ~takeover_after =
    let n = node ~config:(Config.v ~dp_records_per_request:7 ()) () in
    let file =
      get_ok ~ctx:"create WIDE"
        (Fs.create_file n.fs ~fname:"WIDE" ~schema:wide_schema
           ~partitions:[ Fs.{ ps_lo = ""; ps_dp = n.dps.(0) } ]
           ~indexes:[] ())
    in
    in_tx n (fun tx ->
        Errors.list_iter
          (fun i -> Fs.insert_row n.fs file ~tx (wide_row i))
          (List.init wide_rows Fun.id));
    let dp = n.dps.(0) in
    let dpfile = Option.get (Dp.file_id dp "WIDE#p0") in
    let tx = Tmf.begin_tx n.tmf in
    let rec drive k req =
      match Dp.request dp req with
      | Dp_msg.Rp_agg { groups; last_key; more = false; _ } -> (k, last_key, groups)
      | Dp_msg.Rp_agg { last_key; more = true; scb; _ } ->
          if k = takeover_after then get_ok ~ctx:"takeover" (Dp.takeover dp);
          drive (k + 1)
            (Dp_msg.R_subset_next
               { kind = Dp_msg.Sk_agg; file = dpfile; tx; scb; after_key = last_key })
      | _ -> Alcotest.fail "AGGREGATE chain: unexpected reply"
    in
    let redrives, _, groups =
      drive 1
        (Dp_msg.R_subset_first
           {
             file = dpfile;
             tx;
             range = full_range;
             body =
               Dp_msg.Cs_agg
                 {
                   pred = Some wide_pred;
                   group_keys = [| 1 |];
                   aggs;
                   lock = Dp_msg.L_none;
                 };
           })
    in
    get_ok ~ctx:"commit" (Tmf.commit n.tmf ~tx);
    let merged = Dp_msg.Groups.create ~keyless:false aggs in
    List.iter (fun (key, accs) -> Dp_msg.Groups.merge merged key accs) groups;
    ((Sim.stats n.sim).Stats.takeovers, redrives, Dp_msg.Groups.rows merged)
  in
  let takeovers0, redrives0, expected = run ~takeover_after:(-1) in
  let takeovers1, redrives1, got = run ~takeover_after:10 in
  Alcotest.(check int) "no takeover in the reference run" 0 takeovers0;
  Alcotest.(check int) "one takeover, mid-chain" 1 takeovers1;
  Alcotest.(check bool) "the chain re-drove past the takeover" true
    (redrives1 > 20);
  Alcotest.(check int) "same chain length" redrives0 redrives1;
  Alcotest.(check int) "every grp value grouped" 5 (List.length expected);
  check_rows "groups across the takeover = groups without it" expected got

let suite =
  golden_cases
  @ [
      Alcotest.test_case "blocked set requests drop their SCB" `Quick
        blocked_set_requests_drop_scb;
      Alcotest.test_case "failed UPDATE^SUBSET drops its SCB" `Quick
        failed_update_subset_drops_scb;
      Alcotest.test_case "NEXT of the wrong kind drops its SCB" `Quick
        next_of_wrong_kind_drops_scb;
      Alcotest.test_case "UPDATE, one partition fails (sequential)" `Quick
        (failing_partition_update ~fanout:false);
      Alcotest.test_case "UPDATE, one partition fails (fan-out)" `Quick
        (failing_partition_update ~fanout:true);
      Alcotest.test_case "aggregate, one partition blocked (sequential)" `Quick
        (blocked_partition_aggregate ~fanout:false);
      Alcotest.test_case "aggregate, one partition blocked (fan-out)" `Quick
        (blocked_partition_aggregate ~fanout:true);
      Alcotest.test_case "abandoned index scan frees its SCB (sequential)"
        `Quick (abandoned_index_scan ~fanout:false);
      Alcotest.test_case "abandoned index scan frees its SCB (fan-out)" `Quick
        (abandoned_index_scan ~fanout:true);
      Alcotest.test_case "selective decode after a nullable VARCHAR" `Quick
        selective_decode_redrive;
      Alcotest.test_case "grouped AGGREGATE across a takeover between re-drives"
        `Quick agg_takeover_between_redrives;
    ]
