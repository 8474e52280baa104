(* Backout: abort undoes a transaction from its own audit records, newest
   first, on whichever volume still holds them. Field-compressed updates
   come back byte for byte, appends are truncated from the end of an
   entry-sequenced file under their compensation's LSN, a crashed
   volume's records are skipped, and a transaction that lost a volume
   can neither commit nor prepare. *)

open Harness
module Dp_msg = Nsql_dp.Dp_msg
module Ar = Nsql_audit.Audit_record

let in_range key = Expr.{ lo = key; hi = Keycode.successor key }

(* a small audit buffer flushes within a transaction: its records are read
   back from the audit volume, some straddling blocks, as well as from the
   buffer *)
let flushing_node () = node ~config:(Config.v ~audit_buffer_bytes:512 ()) ()

(* the raw image of [key], read outside any transaction's locks *)
let image n file key =
  in_tx n (fun tx -> Fs.read n.fs file ~tx ~key ~lock:Dp_msg.L_none)

let absent n file key =
  let tx = Tmf.begin_tx n.tmf in
  let r = Fs.read n.fs file ~tx ~key ~lock:Dp_msg.L_none in
  get_ok ~ctx:"abort probe" (Tmf.abort n.tmf ~tx);
  match r with
  | Error (Errors.Not_found_key _) -> true
  | Ok _ -> false
  | Error e -> Alcotest.fail (Errors.to_string e)

(* --- field-compressed updates come back byte for byte -------------------- *)

(* every column type: nullable columns, blank-padded CHAR, VARCHAR, bool
   and float *)
let wide_schema =
  Row.schema
    [|
      Row.column "k" Row.T_int;
      Row.column ~nullable:true "i" Row.T_int;
      Row.column "f" Row.T_float;
      Row.column "b" Row.T_bool;
      Row.column "c" (Row.T_char 6);
      Row.column "v" (Row.T_varchar 10);
      Row.column ~nullable:true "nv" (Row.T_varchar 8);
    |]
    ~key:[ "k" ]

let gen_value col =
  let open QCheck.Gen in
  let str n = string_size ~gen:(oneofl [ 'a'; 'z'; ' '; '\000'; '\255' ]) (int_bound n) in
  let v =
    match col.Row.col_type with
    | Row.T_int -> map (fun i -> Row.Vint i) (oneof [ int; oneofl [ min_int; max_int; 0; -1 ] ])
    | Row.T_float ->
        map (fun f -> Row.Vfloat f)
          (oneof [ float; oneofl [ -0.; 0.; nan; infinity; neg_infinity ] ])
    | Row.T_bool -> map (fun b -> Row.Vbool b) bool
    | Row.T_char n | Row.T_varchar n -> map (fun s -> Row.Vstr s) (str n)
  in
  if col.Row.nullable then oneof [ return Row.Null; v ] else v

(* a row at key [k], and two updates of some of its non-key columns *)
let gen_case =
  let open QCheck.Gen in
  let cols = wide_schema.Row.cols in
  let row = flatten_a (Array.map gen_value cols) in
  let update =
    list_size (int_range 1 4) (int_range 1 (Array.length cols - 1)) >>= fun targets ->
    flatten_l (List.map (fun i -> map (fun v -> (i, v)) (gen_value cols.(i))) targets)
  in
  triple row update update

let assignments = List.map (fun (target, v) -> { Expr.target; source = Expr.Const v })

(* the bytes a record body encodes to, which compare NaN fields too *)
let body_bytes body = Ar.encode { Ar.lsn = 0L; tx = 0; body }

(* [tx]'s data records, oldest first, read back from the trail *)
let data_records n ~tx =
  Trail.force n.trail (Int64.pred (Trail.next_lsn n.trail));
  List.filter_map
    (fun r ->
      match r.Ar.body with
      | (Ar.Insert _ | Ar.Delete _ | Ar.Update_full _ | Ar.Update_fields _) as b
        when r.Ar.tx = tx ->
          Some b
      | _ -> None)
    (Trail.read_durable n.trail)

(* The updates are backed out byte for byte, each by a compensation that is
   its record's field-compressed inverse; committed instead, they come back
   byte for byte from a restart's redo. *)
let update_fields_backout =
  QCheck.Test.make ~name:"field-compressed updates back out byte for byte" ~count:60
    (QCheck.make gen_case) (fun (row, first, second) ->
      let n = flushing_node () in
      let file =
        get_ok ~ctx:"create"
          (Fs.create_file n.fs ~fname:"WIDE" ~schema:wide_schema
             ~partitions:[ Fs.{ ps_lo = ""; ps_dp = n.dps.(0) } ]
             ~indexes:[] ())
      in
      let keyed k = Array.mapi (fun i v -> if i = 0 then Row.Vint k else v) row in
      in_tx n (fun tx ->
          Errors.list_iter (fun k -> Fs.insert_row n.fs file ~tx (keyed k)) [ 1; 2; 3 ]);
      let key = Row.key_of_row wide_schema (keyed 2) in
      let before = image n file key in
      (* the set update and the buffered one both audit Update_fields *)
      let update () =
        let tx = Tmf.begin_tx n.tmf in
        ignore
          (get_ok ~ctx:"update subset"
             (Fs.update_subset n.fs file ~tx ~range:(in_range key) (assignments first)));
        let buf = Fs.open_apply_buffer n.fs file ~tx ~capacity:4 in
        get_ok ~ctx:"buffered update" (Fs.buffered_update n.fs buf ~key (assignments second));
        get_ok ~ctx:"flush" (Fs.flush_apply_buffer n.fs buf);
        tx
      in
      let tx = update () in
      get_ok ~ctx:"abort" (Tmf.abort n.tmf ~tx);
      if not (String.equal before (image n file key)) then
        QCheck.Test.fail_report "the image did not come back";
      let inverse c u = String.equal (body_bytes c) (body_bytes (Ar.invert u)) in
      (match data_records n ~tx with
      | [ u1; u2; c2; c1 ] when inverse c2 u2 && inverse c1 u1 -> ()
      | _ -> QCheck.Test.fail_report "a compensation is not its record's inverse");
      let tx = update () in
      get_ok ~ctx:"commit" (Tmf.commit n.tmf ~tx);
      let committed = image n file key in
      Dp.crash n.dps.(0);
      ignore (Dp.recover n.dps.(0) : Nsql_tmf.Recovery.outcome);
      String.equal committed (image n file key))

(* --- entry-sequenced appends are truncated from the end ------------------ *)

let entries n file =
  in_tx n (fun tx ->
      let rec go from_key inclusive acc =
        match
          Fs.read_next_raw n.fs file ~tx ~from_key ~inclusive ~lock:Dp_msg.L_none
            ~sbb:false
        with
        | Ok [] -> Ok (List.rev acc)
        | Ok l ->
            let last, _ = List.nth l (List.length l - 1) in
            go last false (List.rev_append (List.map snd l) acc)
        | Error _ as e -> e
      in
      go Keycode.low_value true [])

let append_all n file ~tx records =
  List.iter
    (fun record -> ignore (get_ok ~ctx:"append" (Fs.append_entry n.fs file ~tx ~record)))
    records

(* records of about 1000 bytes fill a 4 KB block with four: the aborted
   appends run from the first block into the second, and the block they
   leave partly filled must end where its last surviving record ends.
   Their lengths differ, so each is found only when undone newest
   first. *)
let entry_abort_across_blocks () =
  let n = flushing_node () in
  let file =
    get_ok ~ctx:"create"
      (Fs.create_enscribe_file n.fs ~fname:"HIST" ~kind:Dp_msg.K_entry_sequenced
         ~partitions:[ Fs.{ ps_lo = ""; ps_dp = n.dps.(0) } ])
  in
  let record c = String.make (900 + (50 * (Char.code c - Char.code 'a'))) c in
  in_tx n (fun tx -> Ok (append_all n file ~tx [ record 'a'; record 'b' ]));
  let tx = Tmf.begin_tx n.tmf in
  append_all n file ~tx (List.map record [ 'c'; 'd'; 'e'; 'f'; 'g' ]);
  Alcotest.(check int) "seven records before abort" 7 (record_count n file);
  get_ok ~ctx:"abort" (Tmf.abort n.tmf ~tx);
  Alcotest.(check (list string)) "the committed records alone"
    [ record 'a'; record 'b' ] (entries n file);
  (* a short append lands inside the first block; a long one no longer
     fits there and opens the next *)
  in_tx n (fun tx -> Ok (append_all n file ~tx [ "h"; String.make 3000 'i' ]));
  Alcotest.(check (list string)) "appends after the truncation"
    [ record 'a'; record 'b'; "h"; String.make 3000 'i' ] (entries n file);
  Alcotest.(check int) "record count" 4 (record_count n file)

(* the truncation that backs an append out is stamped with its
   compensation's LSN: cleaning the truncated block forces the trail
   through the compensation, though the append itself is durable *)
let entry_truncation_forces_compensation () =
  let n = node () in
  let file =
    get_ok ~ctx:"create"
      (Fs.create_enscribe_file n.fs ~fname:"HIST" ~kind:Dp_msg.K_entry_sequenced
         ~partitions:[ Fs.{ ps_lo = ""; ps_dp = n.dps.(0) } ])
  in
  let tx = Tmf.begin_tx n.tmf in
  append_all n file ~tx [ "appended" ];
  Trail.force n.trail (Int64.pred (Trail.next_lsn n.trail));
  let compensation = Trail.next_lsn n.trail in
  get_ok ~ctx:"abort" (Tmf.abort n.tmf ~tx);
  Alcotest.(check bool) "the compensation is staged, not durable" true
    (Int64.compare (Trail.durable_lsn n.trail) compensation < 0);
  Nsql_cache.Cache.flush_all (Dp.cache n.dps.(0));
  Alcotest.(check bool) "cleaning the block forced the compensation" true
    (Int64.compare (Trail.durable_lsn n.trail) compensation >= 0)

(* --- a crashed volume's records are skipped ----------------------------- *)

(* accounts below 1000 live on $DATA1, the rest on $DATA2 *)
let two_volumes () =
  let n = node ~dps:2 () in
  let file = create_accounts ~parts:2 n in
  in_tx n (fun tx ->
      Errors.list_iter
        (fun a -> Fs.insert_row n.fs file ~tx (account a 100. "loaded"))
        [ 1; 1001 ]);
  (n, file)

let crash_and_recover n i =
  Dp.crash n.dps.(i);
  ignore (Dp.recover n.dps.(i) : Nsql_tmf.Recovery.outcome)

let set_balance n file ~tx a =
  Fs.update_subset n.fs file ~tx ~range:(in_range (acct_key a))
    [ { Expr.target = 1; source = Expr.(Const (Row.Vfloat 555.)) } ]

let abort_after_volume_crash () =
  let n, file = two_volumes () in
  let survivor = image n file (acct_key 1001) in
  let tx = Tmf.begin_tx n.tmf in
  get_ok ~ctx:"insert 10" (Fs.insert_row n.fs file ~tx (account 10 1. "lost"));
  get_ok ~ctx:"insert 1010" (Fs.insert_row n.fs file ~tx (account 1010 1. "survivor"));
  ignore (get_ok ~ctx:"update 1001" (set_balance n file ~tx 1001));
  crash_and_recover n 0;
  (* written after the volume came back: backed out like any other *)
  get_ok ~ctx:"insert 11" (Fs.insert_row n.fs file ~tx (account 11 1. "after"));
  ignore (get_ok ~ctx:"update 1" (set_balance n file ~tx 1));
  get_ok ~ctx:"abort" (Tmf.abort n.tmf ~tx);
  Alcotest.(check bool) "survivor's insert backed out" true (absent n file (acct_key 1010));
  Alcotest.(check string) "survivor's update backed out" survivor
    (image n file (acct_key 1001));
  Alcotest.(check bool) "loser's insert gone with the crash" true (absent n file (acct_key 10));
  Alcotest.(check bool) "post-recovery insert backed out" true (absent n file (acct_key 11));
  Alcotest.(check (float 0.)) "post-recovery update backed out" 100.
    (match (Row.decode_exn account_schema (image n file (acct_key 1))).(1) with
    | Row.Vfloat f -> f
    | _ -> nan)

(* committing, or preparing to, would write COMMIT or PREPARE for records
   the recovered volume already dropped, and a second restart would replay
   them there *)
let lost_volume_cannot_finish finish () =
  let n, file = two_volumes () in
  let tx = Tmf.begin_tx n.tmf in
  get_ok ~ctx:"insert 10" (Fs.insert_row n.fs file ~tx (account 10 1. "lost"));
  get_ok ~ctx:"insert 1010" (Fs.insert_row n.fs file ~tx (account 1010 1. "survivor"));
  crash_and_recover n 0;
  (match finish n.tmf ~tx with
  | Error (Errors.Tx_aborted _) -> ()
  | Ok () -> Alcotest.fail "a transaction that lost a volume went on"
  | Error e -> Alcotest.fail (Errors.to_string e));
  Alcotest.(check bool) "no longer active" false (Tmf.is_active n.tmf ~tx);
  Alcotest.(check bool) "survivor backed out" true (absent n file (acct_key 1010));
  crash_and_recover n 0;
  Alcotest.(check bool) "a second restart does not bring the row back" true
    (absent n file (acct_key 10));
  (* both volumes still serve *)
  in_tx n (fun tx ->
      Errors.list_iter
        (fun a -> Fs.insert_row n.fs file ~tx (account a 2. "again"))
        [ 10; 1010 ])

(* --- records logged while a flush's write is under way -------------------- *)

(* An event firing during an audit flush's disk wait logs a record for one
   transaction and aborts another whose records are in that flush: each
   record is found at its own position, whether it sits in the buffer, in
   the flush under way (written one block per I/O, so its later blocks are
   not on the volume yet) or on the volume. *)
let log_during_flush () =
  let sim = Sim.create ~config:(Config.v ~bulk_io_max_bytes:Config.block_size ()) () in
  let trail = Trail.create sim (Disk.create sim ~name:"$AUDIT") in
  let tmf = Tmf.create sim trail in
  let undone = ref [] in
  Tmf.register_resource_manager tmf ~volume:"$DATA" ~on_finish:ignore
    ~undo:(fun r -> undone := r :: !undone);
  let insert key = Ar.Insert { file = 0; key; image = String.make 1500 'x' } in
  let log tx key = Tmf.log tmf ~volume:"$DATA" ~tx (insert key) in
  (* "tx:key" of each record undone since the last call, in undo order *)
  let keys () =
    let undo_order = List.rev !undone in
    undone := [];
    List.map
      (fun r ->
        match r.Ar.body with
        | Ar.Insert { key; _ } -> Printf.sprintf "%d:%s" r.Ar.tx key
        | _ -> Alcotest.fail "not an insert")
      undo_order
  in
  let t1 = Tmf.begin_tx tmf and t2 = Tmf.begin_tx tmf in
  ignore (log t2 "early");
  let last = List.fold_left (fun _ k -> log t1 k) 0L [ "a"; "b"; "c" ] in
  let t1_undone = ref [] in
  Sim.schedule sim ~at:(Sim.now sim +. 1.) (fun () ->
      ignore (log t2 "late");
      get_ok ~ctx:"abort t1" (Tmf.abort tmf ~tx:t1);
      t1_undone := keys ());
  Trail.force trail last;
  Alcotest.(check (list string)) "t1's records, in the flush under way"
    [ Printf.sprintf "%d:c" t1; Printf.sprintf "%d:b" t1; Printf.sprintf "%d:a" t1 ]
    !t1_undone;
  get_ok ~ctx:"abort t2" (Tmf.abort tmf ~tx:t2);
  Alcotest.(check (list string)) "t2's records, staged after the flush and on the volume"
    [ Printf.sprintf "%d:late" t2; Printf.sprintf "%d:early" t2 ]
    (keys ())

(* --- SQL files accept only canonical images ----------------------------- *)

let canon_schema =
  Row.schema
    [| Row.column "k" Row.T_int; Row.column "n" Row.T_int; Row.column "b" Row.T_bool |]
    ~key:[ "k" ]

(* the image [Row.encode] writes for (k, n, b): a one-byte null bitmap,
   k at byte 1, n at byte 9, b at byte 17 *)
let canonical_image_required () =
  let n = node () in
  let file =
    get_ok ~ctx:"create"
      (Fs.create_file n.fs ~fname:"CANON" ~schema:canon_schema
         ~partitions:[ Fs.{ ps_lo = ""; ps_dp = n.dps.(0) } ]
         ~indexes:[] ())
  in
  let row k = [| Row.Vint k; Row.Vint 7; Row.Vbool true |] in
  let key k = Row.key_of_row canon_schema (row k) in
  let good = Row.encode canon_schema (row 1) in
  let patched at c = String.mapi (fun i x -> if i = at then c else x) good in
  let top_bit = Bytes.of_string good in
  Bytes.set_int64_le top_bit 9 0x4000_0000_0000_0000L;
  let bad =
    [
      ("a bool byte of 2", patched 17 '\002');
      ("trailing bytes", good ^ "\000");
      ("a null bit past the last column", patched 0 '\x80');
      ("an int outside 63 bits", Bytes.to_string top_bit);
    ]
  in
  let tx = Tmf.begin_tx n.tmf in
  get_ok ~ctx:"the canonical image" (Fs.insert n.fs file ~tx ~key:(key 1) ~record:good);
  List.iter
    (fun (what, record) ->
      let rejected = function
        | Error (Errors.Bad_request _) -> ()
        | Ok () -> Alcotest.failf "%s accepted" what
        | Error e -> Alcotest.failf "%s: %s" what (Errors.to_string e)
      in
      rejected (Fs.insert n.fs file ~tx ~key:(key 2) ~record);
      rejected (Fs.update n.fs file ~tx ~key:(key 1) ~record))
    bad;
  get_ok ~ctx:"commit" (Tmf.commit n.tmf ~tx);
  Alcotest.(check string) "the stored image" good (image n file (key 1))

let suite =
  [
    QCheck_alcotest.to_alcotest update_fields_backout;
    Alcotest.test_case "entry appends across a block boundary abort" `Quick
      entry_abort_across_blocks;
    Alcotest.test_case "an append's truncation carries its compensation's LSN"
      `Quick entry_truncation_forces_compensation;
    Alcotest.test_case "abort after a volume crash" `Quick abort_after_volume_crash;
    Alcotest.test_case "a transaction that lost a volume cannot commit" `Quick
      (lost_volume_cannot_finish Tmf.commit);
    Alcotest.test_case "a branch that lost a volume cannot prepare" `Quick
      (lost_volume_cannot_finish (fun tmf ~tx ->
           Tmf.prepare tmf ~tx ~coordinator_node:1 ~coordinator_tx:1));
    Alcotest.test_case "records logged during an audit flush back out" `Quick
      log_during_flush;
    Alcotest.test_case "SQL files accept only canonical images" `Quick
      canonical_image_required;
  ]
