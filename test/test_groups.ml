(* The one group table, [Dp_msg.Groups], that the Disk Process's aggregate
   SCB, the File System's partition merge and the Executor's group and
   DISTINCT operators share: its key rule, its order, its merge and its
   grand-aggregate row. *)

module Dp_msg = Nsql_dp.Dp_msg
module Groups = Dp_msg.Groups
module Row = Nsql_row.Row
module Expr = Nsql_expr.Expr

let count_star = { Dp_msg.ag_kind = Dp_msg.Agg_count_star; ag_arg = None }
let sum_of i = { Dp_msg.ag_kind = Dp_msg.Agg_sum; ag_arg = Some (Expr.Field i) }
let min_of i = { Dp_msg.ag_kind = Dp_msg.Agg_min; ag_arg = Some (Expr.Field i) }

let check_rows what expected got =
  Alcotest.(check (list string))
    what
    (List.map (Format.asprintf "%a" Row.pp_row) expected)
    (List.map (Format.asprintf "%a" Row.pp_row) got)

(* group every row of [rows] by its column 0, counting rows *)
let count_by_first rows =
  let t = Groups.create ~keyless:false [ count_star ] in
  let feed = Dp_msg.feeder count_star in
  List.iter
    (fun row -> List.iter (fun acc -> feed acc row) (Groups.find_or_add t [| row.(0) |]))
    rows;
  t

let counts t =
  List.map
    (fun row -> match row.(1) with Row.Vint n -> n | _ -> Alcotest.fail "count")
    (Groups.rows t)

(* floats key by their encoding: [-0.] and [0.] are distinct bit patterns
   and two groups, although [-0. = 0.]; a NaN is one group with an
   equal-bit NaN, although [nan <> nan] *)
let float_keys_by_encoding () =
  let t =
    count_by_first
      [
        [| Row.Vfloat (-0.) |]; [| Row.Vfloat 0. |]; [| Row.Vfloat Float.nan |];
        [| Row.Vfloat 0. |]; [| Row.Vfloat Float.nan |]; [| Row.Vfloat (-0.) |];
        [| Row.Vfloat (-0.) |];
      ]
  in
  Alcotest.(check int) "-0., 0. and NaN are three groups" 3 (Groups.length t);
  Alcotest.(check (list int)) "rows per group" [ 3; 2; 2 ] (counts t);
  (* a float anywhere in a multi-column key takes the whole key to the
     encoding *)
  let t = Groups.create ~keyless:false [] in
  List.iter
    (fun key -> ignore (Groups.find_or_add t key))
    [
      [| Row.Vint 1; Row.Vfloat 0. |]; [| Row.Vint 1; Row.Vfloat (-0.) |];
      [| Row.Vint 1; Row.Vfloat 0. |];
    ];
  Alcotest.(check int) "multi-column float keys" 2 (Groups.length t)

(* every other kind keys by value: equal values in distinct heap blocks
   are one group *)
let values_key_by_value () =
  let t =
    count_by_first
      [
        [| Row.Vint 7 |]; [| Row.Vstr "ab" |]; [| Row.Vbool true |]; [| Row.Null |];
        [| Row.Vstr (String.concat "" [ "a"; "b" ]) |]; [| Row.Vint 7 |];
        [| Row.Null |]; [| Row.Vbool false |]; [| Row.Vbool true |];
        [| Row.Vint 8 |];
      ]
  in
  Alcotest.(check (list int)) "rows per group" [ 2; 2; 2; 2; 1; 1 ] (counts t);
  check_rows "keys in first-seen order"
    [
      [| Row.Vint 7; Row.Vint 2 |]; [| Row.Vstr "ab"; Row.Vint 2 |];
      [| Row.Vbool true; Row.Vint 2 |]; [| Row.Null; Row.Vint 2 |];
      [| Row.Vbool false; Row.Vint 1 |]; [| Row.Vint 8; Row.Vint 1 |];
    ]
    (Groups.rows t)

(* groups list in the order their keys first arrived, never hash order;
   [first_seen] (the DISTINCT test) agrees *)
let first_seen_order () =
  let keys = [ 42; 3; 17; 3; 99; 0; 42; -5; 17 ] in
  let t = count_by_first (List.map (fun k -> [| Row.Vint k |]) keys) in
  Alcotest.(check (list int)) "first-seen order" [ 42; 3; 17; 99; 0; -5 ]
    (List.map
       (fun (key, _) -> match key.(0) with Row.Vint k -> k | _ -> -1)
       (Groups.groups t));
  let seen = Groups.create ~keyless:false [] in
  Alcotest.(check (list bool)) "first_seen"
    [ true; true; true; false; true; true; false; true; false ]
    (List.map (fun k -> Groups.first_seen seen [| Row.Vint k |]) keys)

(* partials merged: a group split across two tables (two partitions, or
   two re-drives) and merged equals the same rows fed to one table *)
let split_then_merge () =
  let specs = [ count_star; sum_of 1; min_of 2; sum_of 3 ] in
  let feeds = List.map Dp_msg.feeder specs in
  let fold t rows =
    List.iter
      (fun row ->
        List.iter2 (fun feed acc -> feed acc row) feeds
          (Groups.find_or_add t [| row.(0) |]))
      rows
  in
  let rows =
    List.init 40 (fun i ->
        [|
          (match i mod 5 with
          | 0 -> Row.Vfloat 0.
          | 1 -> Row.Vfloat (-0.)
          | 2 -> Row.Vstr "s"
          | 3 -> Row.Null
          | _ -> Row.Vint (i mod 3));
          Row.Vint i;
          Row.Vstr (Printf.sprintf "m%02d" ((i * 7) mod 40));
          (if i mod 6 = 0 then Row.Null else Row.Vfloat (float_of_int i /. 4.));
        |])
  in
  let whole = Groups.create ~keyless:false specs in
  fold whole rows;
  let a = Groups.create ~keyless:false specs in
  let b = Groups.create ~keyless:false specs in
  fold a (List.filteri (fun i _ -> i < 23) rows);
  fold b (List.filteri (fun i _ -> i >= 23) rows);
  let merged = Groups.create ~keyless:false specs in
  List.iter
    (fun part ->
      List.iter (fun (key, accs) -> Groups.merge merged key accs) (Groups.groups part))
    [ a; b ];
  Alcotest.(check int) "both halves hold every key" (Groups.length whole)
    (Groups.length a);
  check_rows "split and merged = fed whole" (Groups.rows whole) (Groups.rows merged)

(* a grand aggregate (no GROUP BY) over no rows is still one row: COUNT 0,
   every other aggregate NULL; a grouped one over no rows is empty *)
let grand_aggregate_of_nothing () =
  let specs = [ count_star; sum_of 0; min_of 0 ] in
  check_rows "keyless, no input"
    [ [| Row.Vint 0; Row.Null; Row.Null |] ]
    (Groups.rows (Groups.create ~keyless:true specs));
  check_rows "grouped, no input" [] (Groups.rows (Groups.create ~keyless:false specs));
  let t = Groups.create ~keyless:true specs in
  let feeds = List.map Dp_msg.feeder specs in
  List.iter
    (fun row -> List.iter2 (fun feed acc -> feed acc row) feeds (Groups.find_or_add t [||]))
    [ [| Row.Vint 4 |]; [| Row.Vint 2 |] ];
  check_rows "keyless, two rows" [ [| Row.Vint 2; Row.Vint 6; Row.Vint 2 |] ] (Groups.rows t)

let suite =
  [
    Alcotest.test_case "floats key by encoding" `Quick float_keys_by_encoding;
    Alcotest.test_case "other values key by value" `Quick values_key_by_value;
    Alcotest.test_case "groups come out in first-seen order" `Quick first_seen_order;
    Alcotest.test_case "split partials merge to the whole" `Quick split_then_merge;
    Alcotest.test_case "grand aggregate of no rows is one row" `Quick
      grand_aggregate_of_nothing;
  ]
