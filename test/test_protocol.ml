(* Property tests of the FS-DP wire protocol, the processor time-slice
   re-drive, entry-sequenced sequential reads, and mirrored volumes. *)

open Harness
module Dp_msg = Nsql_dp.Dp_msg
module Enscribe = Nsql_enscribe.Enscribe
module Stats = Nsql_sim.Stats
module Disk = Nsql_disk.Disk

(* --- random protocol roundtrips ------------------------------------------- *)

let key_gen = QCheck.Gen.(string_size ~gen:(char_range '\x00' '\xff') (int_bound 24))

let value_gen =
  QCheck.Gen.(
    oneof
      [
        return Row.Null;
        map (fun i -> Row.Vint i) int;
        map (fun f -> Row.Vfloat f) (float_bound_inclusive 1e6);
        map (fun b -> Row.Vbool b) bool;
        map (fun s -> Row.Vstr s) (string_size (int_bound 16));
      ])

let expr_gen =
  QCheck.Gen.(
    fix
      (fun self depth ->
        if depth = 0 then
          oneof
            [ map (fun i -> Expr.Field i) (int_bound 10);
              map (fun v -> Expr.Const v) value_gen ]
        else
          let sub = self (depth - 1) in
          oneof
            [
              map (fun i -> Expr.Field i) (int_bound 10);
              map (fun v -> Expr.Const v) value_gen;
              map2 (fun a b -> Expr.Binop (Expr.Add, a, b)) sub sub;
              map2 (fun a b -> Expr.Cmp (Expr.Lt, a, b)) sub sub;
              map2 (fun a b -> Expr.And (a, b)) sub sub;
              map (fun a -> Expr.Not a) sub;
              map2 (fun a p -> Expr.Like (a, p)) sub (string_size (int_bound 6));
            ])
      3)

let request_gen =
  QCheck.Gen.(
    let range =
      map2 (fun lo hi -> Expr.{ lo; hi }) key_gen key_gen
    in
    oneof
      [
        map2
          (fun file key -> Dp_msg.R_read { file; tx = 1; key; lock = Dp_msg.L_shared })
          (int_bound 30) key_gen;
        map2
          (fun key record -> Dp_msg.R_insert { file = 0; tx = 2; key; record })
          key_gen (string_size (int_bound 64));
        map2
          (fun range pred ->
            Dp_msg.R_subset_first
              {
                file = 1;
                tx = 3;
                range;
                body =
                  Dp_msg.Cs_read
                    {
                      buffering = Dp_msg.B_vsbb;
                      pred = Some pred;
                      proj = Some [| 0; 2; 5 |];
                      lock = Dp_msg.L_none;
                    };
              })
          range expr_gen;
        map
          (fun range ->
            Dp_msg.R_subset_first
              {
                file = 1;
                tx = 3;
                range;
                body =
                  Dp_msg.Cs_read
                    { buffering = Dp_msg.B_rsbb; pred = None; proj = None;
                      lock = Dp_msg.L_shared };
              })
          range;
        map2
          (fun range pred ->
            Dp_msg.R_subset_first
              {
                file = 2;
                tx = 4;
                range;
                body =
                  Dp_msg.Cs_update
                    { pred = Some pred;
                      assignments = [ { Expr.target = 1; source = pred } ] };
              })
          range expr_gen;
        map2
          (fun range pred ->
            Dp_msg.R_subset_first
              { file = 2; tx = 4; range; body = Dp_msg.Cs_delete { pred } })
          range (opt expr_gen);
        map3
          (fun range pred arg ->
            Dp_msg.R_subset_first
              {
                file = 5;
                tx = 7;
                range;
                body =
                  Dp_msg.Cs_agg
                    {
                      pred;
                      group_keys = [| 0 |];
                      aggs =
                        [
                          { ag_kind = Dp_msg.Agg_count_star; ag_arg = None };
                          { ag_kind = Dp_msg.Agg_avg; ag_arg = Some arg };
                        ];
                      lock = Dp_msg.L_exclusive;
                    };
              })
          range (opt expr_gen) expr_gen;
        map3
          (fun kind scb after_key ->
            Dp_msg.R_subset_next { kind; file = 6; tx = 8; scb; after_key })
          (oneofl Dp_msg.[ Sk_get; Sk_update; Sk_delete; Sk_agg ])
          (int_bound 100_000) key_gen;
        map
          (fun rows -> Dp_msg.R_insert_block { file = 3; tx = 5; rows })
          (list_size (int_bound 6) (array_size (int_bound 4) value_gen));
        map
          (fun ops ->
            Dp_msg.R_apply_block
              { file = 4; tx = 6;
                ops = List.map (fun k -> (k, Dp_msg.Ob_delete)) ops })
          (list_size (int_bound 5) key_gen);
      ])

let request_roundtrip =
  QCheck.Test.make ~name:"request codec roundtrip (random)" ~count:500
    (QCheck.make request_gen) (fun req ->
      let bytes1 = Dp_msg.encode_request req in
      let req' =
        match Dp_msg.decode_request bytes1 with
        | Ok r -> r
        | Error e -> failwith (Dp_msg.decode_error_to_string e)
      in
      let bytes2 = Dp_msg.encode_request req' in
      (* byte-level idempotence implies structural equality for this codec *)
      String.equal bytes1 bytes2 && Dp_msg.tag req = Dp_msg.tag req')

let reply_gen =
  QCheck.Gen.(
    oneof
      [
        return Dp_msg.Rp_ok;
        return Dp_msg.Rp_end;
        map (fun id -> Dp_msg.Rp_file id) (int_bound 100);
        map2
          (fun key record -> Dp_msg.Rp_record { key; record })
          key_gen (string_size (int_bound 64));
        map2
          (fun rows last_key ->
            Dp_msg.Rp_vblock { rows; last_key; more = true; scb = 7 })
          (list_size (int_bound 5) (array_size (int_bound 4) value_gen))
          key_gen;
        map
          (fun blockers ->
            Dp_msg.Rp_blocked { blockers; processed = 3; last_key = "k"; scb = 1 })
          (list_size (int_bound 4) (int_bound 50));
        map
          (fun msg_ -> Dp_msg.Rp_error (Errors.Lock_timeout msg_))
          (string_size (int_bound 20));
      ])

let reply_roundtrip =
  QCheck.Test.make ~name:"reply codec roundtrip (random)" ~count:500
    (QCheck.make reply_gen) (fun reply ->
      let bytes1 = Dp_msg.encode_reply reply in
      match Dp_msg.decode_reply bytes1 with
      | Error e -> failwith (Dp_msg.decode_error_to_string e)
      | Ok reply' -> String.equal bytes1 (Dp_msg.encode_reply reply'))

(* --- time-slice re-drives --------------------------------------------------- *)

let tick_limit_triggers_redrive () =
  (* a tiny CPU budget per request forces re-drives even when the record
     limit and the reply buffer would not *)
  let config = Config.v ~dp_ticks_per_request:500 ~dp_records_per_request:100000 () in
  let n = node ~config () in
  let file = create_accounts n in
  load_accounts n file 400;
  let s = Sim.stats n.sim in
  in_tx n (fun tx ->
      let sc =
        Fs.open_scan n.fs file ~tx ~access:Fs.A_vsbb ~range:full_range
          ~pred:Expr.(Cmp (Eq, Field 2, str "nobody"))
          ~proj:[| 0 |] ~lock:Dp_msg.L_none ()
      in
      let rows = drain_scan n sc in
      Alcotest.(check int) "predicate matches nothing" 0 (List.length rows);
      Ok ());
  Alcotest.(check bool)
    (Printf.sprintf "time-slice re-drives happened (%d)" s.Stats.redrives)
    true
    (s.Stats.redrives > 2)

(* --- entry-sequenced sequential read through ENSCRIBE ------------------------ *)

let entry_file_scan () =
  let n = node () in
  let file =
    get_ok ~ctx:"create"
      (Fs.create_enscribe_file n.fs ~fname:"HIST" ~kind:Dp_msg.K_entry_sequenced
         ~partitions:[ Fs.{ ps_lo = ""; ps_dp = n.dps.(0) } ])
  in
  let h = Enscribe.open_file n.fs file ~sbb:false in
  in_tx n (fun tx ->
      let open Errors in
      let rec go i =
        if i >= 150 then Ok ()
        else
          let* () =
            Enscribe.write h ~tx ~key:""
              ~record:(Printf.sprintf "event-%04d-%s" i (String.make 60 'h'))
          in
          go (i + 1)
      in
      go 0);
  in_tx n (fun tx ->
      let open Errors in
      Enscribe.keyposition h ~key:"";
      let rec collect acc =
        let* entry = Enscribe.readnext h ~tx ~lock:Dp_msg.L_none in
        match entry with
        | None -> Ok (List.rev acc)
        | Some (_, r) -> collect (r :: acc)
      in
      let* all = collect [] in
      Alcotest.(check int) "all history records" 150 (List.length all);
      (* insertion order preserved *)
      List.iteri
        (fun i r ->
          Alcotest.(check string) "prefix"
            (Printf.sprintf "event-%04d" i)
            (String.sub r 0 10))
        all;
      Ok ())

(* --- re-drive under random bounds and fault points ---------------------------- *)

(* A scan is chopped into continuation re-drives by whatever per-request
   record and CPU-tick budgets the Disk Process is configured with; the
   session control block must make the resumption exact no matter where
   the cut falls — and no matter whether the message path flaps, the
   reply is delayed, or the primary DP dies and the backup takes over
   mid-scan. The observable contract: the requester sees every row
   exactly once, in key order. *)
let scan_redrive_exactly_once =
  QCheck.Test.make
    ~name:"re-drive: random bounds + fault points lose/duplicate nothing"
    ~count:30
    QCheck.(
      quad (int_range 1 40) (int_range 150 4000) (int_range 30 220)
        (int_bound 100_000))
    (fun (recs, ticks, count, salt) ->
      let config =
        Config.v ~dp_records_per_request:recs ~dp_ticks_per_request:ticks
          ~vsbb_buffer_bytes:(512 + (salt mod 7 * 256))
          ()
      in
      let n = node ~config ~dps:2 () in
      let file = create_accounts ~parts:2 ~split:((count + 1) / 2) n in
      load_accounts n file count;
      let access = if salt land 1 = 0 then Fs.A_vsbb else Fs.A_rsbb in
      let fault_at = salt mod count in
      let fault_kind = salt / 7 mod 3 in
      let inject () =
        match fault_kind with
        | 0 ->
            (* next few messages fail on the primary path and are resent *)
            let remaining = ref 3 in
            Msg.set_fault_filter n.msys
              (Some
                 (fun ~from:_ ~to_name:_ ~tag:_ ->
                   if !remaining > 0 then begin
                     decr remaining;
                     Msg.Fault_path_retry 400.
                   end
                   else Msg.Fault_pass))
        | 1 ->
            let remaining = ref 4 in
            Msg.set_fault_filter n.msys
              (Some
                 (fun ~from:_ ~to_name:_ ~tag:_ ->
                   if !remaining > 0 then begin
                     decr remaining;
                     Msg.Fault_delay 2_000.
                   end
                   else Msg.Fault_pass))
        | _ ->
            (* the primary of one volume dies; the backup takes over and
               the scan's next re-drive lands on it transparently *)
            get_ok ~ctx:"takeover" (Dp.takeover n.dps.(salt land 1))
      in
      let rows =
        in_tx n (fun tx ->
            let sc =
              Fs.open_scan n.fs file ~tx ~access ~range:full_range
                ~lock:Dp_msg.L_none ()
            in
            let rec go i acc =
              if i = fault_at then inject ();
              match get_ok ~ctx:"scan_next" (Fs.scan_next n.fs sc) with
              | Some row -> go (i + 1) (row :: acc)
              | None -> List.rev acc
            in
            let rows = go 0 [] in
            Fs.close_scan n.fs sc;
            Ok rows)
      in
      Msg.set_fault_filter n.msys None;
      if List.length rows <> count then
        QCheck.Test.fail_reportf "expected %d rows, got %d" count
          (List.length rows);
      List.iteri
        (fun i row ->
          match row.(0) with
          | Row.Vint acct when acct = i -> ()
          | v ->
              QCheck.Test.fail_reportf
                "row %d: expected acctno %d, got %s (lost/dup/reordered)" i i
                (Format.asprintf "%a" Row.pp_value v))
        rows;
      true)

(* --- mirrored volumes --------------------------------------------------------- *)

let mirrored_volume_duplicates_writes () =
  let config = Config.v ~mirrored:true () in
  let n = node ~config () in
  let file = create_accounts n in
  let s = Sim.stats n.sim in
  let before_w = s.Stats.disk_writes in
  load_accounts n file 100;
  Nsql_cache.Cache.flush_all (Dp.cache n.dps.(0));
  let writes = s.Stats.disk_writes - before_w in
  Alcotest.(check bool) "writes doubled by mirroring" true (writes mod 2 = 0 && writes > 0);
  (* reads are served by one drive: a cold scan costs single reads *)
  ignore (Nsql_cache.Cache.steal (Dp.cache n.dps.(0)) max_int);
  let before_r = s.Stats.disk_reads in
  in_tx n (fun tx ->
      let sc =
        Fs.open_scan n.fs file ~tx ~access:Fs.A_vsbb ~range:full_range
          ~proj:[| 0 |] ~lock:Dp_msg.L_none ()
      in
      ignore (drain_scan n sc);
      Ok ());
  Alcotest.(check bool) "reads not doubled" true (s.Stats.disk_reads - before_r > 0)

(* a malformed payload must surface as a typed decode error, never an
   exception out of the transport layer *)
let malformed_payload_is_typed_error () =
  (match Dp_msg.decode_request "\xff" with
  | Error (Dp_msg.Bad_tag { field = "request"; tag = 255 }) -> ()
  | Error e ->
      Alcotest.failf "unexpected error: %s" (Dp_msg.decode_error_to_string e)
  | Ok _ -> Alcotest.fail "decoded a garbage request");
  (match Dp_msg.decode_reply "" with
  | Error Dp_msg.Truncated -> ()
  | Error e ->
      Alcotest.failf "unexpected error: %s" (Dp_msg.decode_error_to_string e)
  | Ok _ -> Alcotest.fail "decoded an empty reply");
  (* tag 1 = R_read, with its fields cut off *)
  match Dp_msg.decode_request "\x01" with
  | Error Dp_msg.Truncated -> ()
  | Error e ->
      Alcotest.failf "unexpected error: %s" (Dp_msg.decode_error_to_string e)
  | Ok _ -> Alcotest.fail "decoded a truncated request"

let suite =
  [
    QCheck_alcotest.to_alcotest request_roundtrip;
    Alcotest.test_case "malformed payloads are typed errors" `Quick
      malformed_payload_is_typed_error;
    QCheck_alcotest.to_alcotest reply_roundtrip;
    Alcotest.test_case "CPU time-slice forces re-drives" `Quick
      tick_limit_triggers_redrive;
    Alcotest.test_case "entry-sequenced scan via ENSCRIBE" `Quick
      entry_file_scan;
    Alcotest.test_case "mirrored volume write doubling" `Quick
      mirrored_volume_duplicates_writes;
    QCheck_alcotest.to_alcotest scan_redrive_exactly_once;
  ]
