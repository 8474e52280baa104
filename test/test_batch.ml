(* Properties of the push-based batched executor, against two references:

   - fixed-seed golden digests: for each property below, an MD5 over the
     per-seed fingerprints (rows, the whole [Stats.to_assoc] vector and the
     simulated clock) of seeds 0-14 (select), 0-9 (DML) and 0-2 (the
     Wisconsin suite), with and without chaos. They were captured while
     the row-at-a-time pull engine still ran beside the batched one and
     produced the same fingerprint on every seed, so they pin messages,
     bytes, locks, batches, rows and the clock to what it produced;
   - a naive evaluator: the tables are dumped through [Fs.open_scan] and
     [Fs.scan_next] (not through the executor), and every generated
     statement carries its meaning over the dumped rows — [List.filter],
     nested-loop join, [Hashtbl] grouping, [List.stable_sort]. Random
     QCheck seeds compare the executor with it, with and without a chaos
     fault filter delaying and flapping the Disk Processes, and one
     deterministic case runs each query shape once. *)

module N = Nsql_core.Nonstop_sql
module Sim = Nsql_sim.Sim
module Msg = Nsql_msg.Msg
module Row = Nsql_row.Row
module Fs = Nsql_fs.Fs
module Tmf = Nsql_tmf.Tmf
module Expr = Nsql_expr.Expr
module Dp_msg = Nsql_dp.Dp_msg
module Errors = Nsql_util.Errors
module Wisconsin = Nsql_workload.Wisconsin

let get_ok = Errors.get_ok
let fpr = Printf.sprintf
let rows = 240
let parts = 4

(* a tiny deterministic generator seeded per property case, as in
   test_fanout: keeping everything on the QCheck seed makes shrinking and
   replay exact *)
let prng seed =
  let state = ref (max 1 (seed land 0x3FFFFFFF)) in
  fun n ->
    state := (!state * 48271 + 13) land 0x3FFFFFFF;
    !state mod n

(* --- the reference: table dumps and statement meanings ----------------- *)

(* the rows of [t] and [t2] as the File System stores them, and the
   position of each Wisconsin column *)
type db = { t : Row.row list; t2 : Row.row list; col : string -> int }

let dump_table node name =
  let tbl = get_ok ~ctx:name (N.Catalog.find (N.catalog node) name) in
  let fs = N.fs node in
  let rows =
    get_ok ~ctx:("dump " ^ name)
      (Tmf.run (N.tmf node) (fun tx ->
           let sc =
             Fs.open_scan fs tbl.N.Catalog.t_file ~tx ~access:Fs.A_vsbb
               ~range:Expr.full_range ~lock:Dp_msg.L_none ()
           in
           let rec go acc =
             match Fs.scan_next fs sc with
             | Ok (Some row) -> go (row :: acc)
             | Ok None -> Ok (List.rev acc)
             | Error e -> Error e
           in
           Fun.protect ~finally:(fun () -> Fs.close_scan fs sc) (fun () -> go [])))
  in
  (rows, tbl.N.Catalog.t_schema)

let dump node =
  let t, schema = dump_table node "t" in
  let t2, _ = dump_table node "t2" in
  { t; t2; col = (fun name -> get_ok ~ctx:name (Row.field_number schema name)) }

let int_col db name row =
  match row.(db.col name) with
  | Row.Vint n -> n
  | _ -> Alcotest.failf "column %s is not an integer" name

let cols db names row = Array.of_list (List.map (fun n -> row.(db.col n)) names)

(* [Hashtbl] grouping in first-seen order: each group's key and its rows *)
let group_by key rows =
  let groups = Hashtbl.create 16 and order = ref [] in
  List.iter
    (fun row ->
      let k = key row in
      match Hashtbl.find_opt groups k with
      | Some rs -> Hashtbl.replace groups k (row :: rs)
      | None ->
          Hashtbl.replace groups k [ row ];
          order := k :: !order)
    rows;
  List.rev_map (fun k -> (k, List.rev (Hashtbl.find groups k))) !order

let sum f rs = List.fold_left (fun acc r -> acc + f r) 0 rs
let min_of f rs = List.fold_left (fun acc r -> min acc (f r)) max_int rs
let max_of f rs = List.fold_left (fun acc r -> max acc (f r)) min_int rs

(* SQL aggregates over a possibly empty input: SUM, MIN, MAX and AVG of
   nothing are NULL *)
let agg_or_null rs v = if rs = [] then Row.Null else v
let avg f rs = Row.Vfloat (float_of_int (sum f rs) /. float_of_int (List.length rs))

(* a statement and its meaning; [ordered] results compare in exact order,
   the others as multisets *)
type query = { sql : string; ordered : bool; meaning : db -> Row.row list }

(* [SELECT a.unique2, b.stringu1 FROM t a, t2 b WHERE a.unique2 =
   b.unique2 AND a.unique1 < n], as nested loops *)
let join_meaning n db =
  List.concat_map
    (fun a ->
      List.filter_map
        (fun b ->
          if
            int_col db "unique2" a = int_col db "unique2" b
            && int_col db "unique1" a < n
          then Some [| a.(db.col "unique2"); b.(db.col "stringu1") |]
          else None)
        db.t2)
    db.t

let random_where next =
  match next 7 with
  | 0 -> ("", fun _ _ -> true)
  | 1 ->
      let n = next rows in
      (fpr " WHERE unique1 < %d" n, fun db r -> int_col db "unique1" r < n)
  | 2 ->
      let n = next 10 in
      (fpr " WHERE tenpercent = %d" n, fun db r -> int_col db "tenpercent" r = n)
  | 3 ->
      let lo = next rows in
      let hi = lo + 1 + next rows in
      ( fpr " WHERE unique2 >= %d AND unique2 < %d" lo hi,
        fun db r ->
          let u = int_col db "unique2" r in
          u >= lo && u < hi )
  | 4 ->
      let n = next (1 + (rows / 100)) in
      ( fpr " WHERE two = 0 OR onepercent = %d" n,
        fun db r -> int_col db "two" r = 0 || int_col db "onepercent" r = n )
  | 5 ->
      (* equality on the secondary-indexed column: exercises the
         index-scan batch path *)
      let n = next (1 + (rows / 100)) in
      (fpr " WHERE onepercent = %d" n, fun db r -> int_col db "onepercent" r = n)
  | _ ->
      let f = next 4 in
      let u = next rows in
      ( fpr " WHERE four = %d AND unique1 >= %d" f u,
        fun db r -> int_col db "four" r = f && int_col db "unique1" r >= u )

(* the query shapes cover every batched operator: scan + residual filter,
   projection, grouped and grand aggregates with HAVING, ORDER BY,
   DISTINCT, LIMIT, and the keyed and scan joins *)
let shapes = 8

let select_shape next ~where:(where, keep) shape =
  let sel db = List.filter (keep db) db.t in
  let unordered sql meaning = { sql; ordered = false; meaning } in
  match shape with
  | 0 ->
      unordered (fpr "SELECT unique1, unique2, stringu1 FROM t%s" where)
        (fun db -> List.map (cols db [ "unique1"; "unique2"; "stringu1" ]) (sel db))
  | 1 -> unordered (fpr "SELECT * FROM t%s" where) sel
  | 2 ->
      unordered
        (fpr
           "SELECT onepercent, COUNT(*), SUM(unique1), MIN(unique2) FROM t%s GROUP BY onepercent"
           where)
        (fun db ->
          List.map
            (fun (k, rs) ->
              [|
                Row.Vint k;
                Row.Vint (List.length rs);
                Row.Vint (sum (int_col db "unique1") rs);
                Row.Vint (min_of (int_col db "unique2") rs);
              |])
            (group_by (int_col db "onepercent") (sel db)))
  | 3 ->
      let n = next 8 in
      unordered
        (fpr
           "SELECT tenpercent, AVG(unique1) FROM t%s GROUP BY tenpercent HAVING COUNT(*) > %d"
           where n)
        (fun db ->
          List.filter_map
            (fun (k, rs) ->
              if List.length rs > n then
                Some [| Row.Vint k; avg (int_col db "unique1") rs |]
              else None)
            (group_by (int_col db "tenpercent") (sel db)))
  | 4 ->
      let n = 1 + next 20 in
      {
        sql = fpr "SELECT unique1, stringu1 FROM t%s ORDER BY unique1 DESC LIMIT %d" where n;
        ordered = true;
        meaning =
          (fun db ->
            let u1 = int_col db "unique1" in
            List.stable_sort (fun a b -> compare (u1 b) (u1 a)) (sel db)
            |> List.filteri (fun i _ -> i < n)
            |> List.map (cols db [ "unique1"; "stringu1" ]));
      }
  | 5 ->
      {
        sql = fpr "SELECT DISTINCT four, twenty FROM t%s ORDER BY four, twenty" where;
        ordered = true;
        meaning =
          (fun db ->
            List.map (fun r -> (int_col db "four" r, int_col db "twenty" r)) (sel db)
            |> List.sort_uniq compare
            |> List.map (fun (f, t) -> [| Row.Vint f; Row.Vint t |]));
      }
  | 6 ->
      let n = next (rows / 2) in
      unordered
        (fpr
           "SELECT a.unique2, b.stringu1 FROM t a, t2 b WHERE a.unique2 = b.unique2 AND a.unique1 < %d"
           n)
        (join_meaning n)
  | _ ->
      unordered
        (fpr "SELECT COUNT(*), SUM(unique1), MIN(unique2), MAX(unique3), AVG(two) FROM t%s"
           where)
        (fun db ->
          let rs = sel db in
          [
            [|
              Row.Vint (List.length rs);
              agg_or_null rs (Row.Vint (sum (int_col db "unique1") rs));
              agg_or_null rs (Row.Vint (min_of (int_col db "unique2") rs));
              agg_or_null rs (Row.Vint (max_of (int_col db "unique3") rs));
              agg_or_null rs (avg (int_col db "two") rs);
            |];
          ])

let random_select next =
  let where = random_where next in
  select_shape next ~where (next shapes)

(* the published Wisconsin suite's meanings, by query id *)
let wisconsin_meaning (q : Wisconsin.query) db =
  let pct p = rows * p / 100 in
  let within name lo hi r =
    let v = int_col db name r in
    v >= lo && v < hi
  in
  let groups f = group_by (int_col db "onepercent") db.t |> List.map f in
  match q.Wisconsin.q_id with
  | "W1" -> List.filter (within "unique2" (pct 40) (pct 41)) db.t
  | "W2" -> List.filter (within "unique2" (pct 40) (pct 50)) db.t
  | "W3" -> List.filter (within "unique1" (pct 40) (pct 41)) db.t
  | "W4" ->
      List.filter (within "unique1" (pct 40) (pct 41)) db.t
      |> List.map (cols db [ "unique1"; "stringu1" ])
  | "W5" -> List.filter (within "unique1" (pct 50) (pct 50 + 1)) db.t
  | "W6" -> List.map (cols db [ "unique2"; "two" ]) db.t
  | "W20" -> [ [| Row.Vint (min_of (int_col db "unique2") db.t) |] ]
  | "W21" ->
      groups (fun (k, rs) -> [| Row.Vint k; Row.Vint (min_of (int_col db "unique2") rs) |])
  | "W22" ->
      groups (fun (k, rs) -> [| Row.Vint k; Row.Vint (sum (int_col db "unique2") rs) |])
  | "W30" -> join_meaning (rows / 100) db
  | id -> Alcotest.failf "no reference meaning for Wisconsin query %s" id

let wisconsin_queries () =
  Wisconsin.selection_queries ~table:"t" ~rows
  @ Wisconsin.agg_and_join_queries ~table:"t" ~table2:"t2" ~rows

(* --- worlds ----------------------------------------------------------- *)

(* chaos: deterministic delays and path flaps keyed on (seed, dest, tag);
   delivery always succeeds, only latencies and arrival order move *)
let install_chaos node seed =
  Msg.set_fault_filter (N.msys node)
    (Some
       (fun ~from:_ ~to_name ~tag ->
         match Hashtbl.hash (seed, to_name, tag) mod 5 with
         | 0 -> Msg.Fault_delay (float_of_int (Hashtbl.hash (to_name, seed) mod 700))
         | 1 -> Msg.Fault_path_retry (float_of_int (Hashtbl.hash (tag, seed) mod 300))
         | _ -> Msg.Fault_pass))

let make_node ~chaos seed =
  let node = N.create_node ~volumes:4 () in
  get_ok ~ctx:"wisc" (Wisconsin.create node ~name:"t" ~rows ~partitions:parts ());
  get_ok ~ctx:"wisc2" (Wisconsin.create node ~name:"t2" ~rows:(rows / 2) ());
  ignore (N.exec_exn (N.session node) "CREATE INDEX t_op ON t (onepercent)");
  if chaos then install_chaos node seed;
  node

let run_sql node sql =
  match N.exec_exn (N.session node) sql with
  | N.Rows { rows; _ } -> rows
  | _ -> Alcotest.fail ("not a rowset: " ^ sql)

let affected node stmt =
  match N.exec_exn (N.session node) stmt with
  | N.Affected n -> n
  | _ -> Alcotest.fail ("not a DML result: " ^ stmt)

let pp_rows rs =
  String.concat "; " (List.map (Format.asprintf "%a" Row.pp_row) rs)

(* does the executor's answer [got] match the reference's? *)
let check_rows ~ordered what ~expected got =
  let norm = if ordered then Fun.id else List.sort compare in
  if norm expected <> norm got then
    Alcotest.failf "%s diverged from the reference:@.  expected %s@.  got      %s"
      what (pp_rows expected) (pp_rows got)

let check_query db node q =
  check_rows ~ordered:q.ordered q.sql ~expected:(q.meaning db) (run_sql node q.sql)

(* --- the DML statements and their meaning ------------------------------ *)

let random_dml next =
  let k = 1 + next 50 in
  let uw, ukeep = random_where next in
  let dw, dkeep = random_where next in
  let upd = fpr "UPDATE t SET unique3 = unique3 + %d, stringu1 = 'touched'%s" k uw in
  let del = fpr "DELETE FROM t%s" dw in
  (* the rows the UPDATE touches, the rows the DELETE removes, and what
     the probe sees afterwards *)
  let meaning db =
    let set r =
      let r = Array.copy r in
      r.(db.col "unique3") <- Row.Vint (int_col db "unique3" r + k);
      r.(db.col "stringu1") <- Row.Vstr "touched";
      r
    in
    let updated = List.map (fun r -> if ukeep db r then set r else r) db.t in
    let kept = List.filter (fun r -> not (dkeep db r)) updated in
    ( List.length (List.filter (ukeep db) db.t),
      List.length updated - List.length kept,
      List.map (cols db [ "unique2"; "unique3"; "stringu1" ]) kept )
  in
  (upd, del, meaning)

let dml_probe = "SELECT unique2, unique3, stringu1 FROM t"

(* --- fixed-seed golden digests ---------------------------------------- *)

let digest seeds fingerprint =
  Digest.to_hex
    (Digest.string (String.concat "\n" (List.init seeds fingerprint)))

let fingerprint node what =
  what ^ "\n" ^ Golden.fingerprint node

let select_fingerprint ~chaos seed =
  let q = random_select (prng seed) in
  let node = make_node ~chaos seed in
  fingerprint node (q.sql ^ "\n" ^ pp_rows (run_sql node q.sql))

let dml_fingerprint ~chaos seed =
  let upd, del, _ = random_dml (prng seed) in
  let node = make_node ~chaos seed in
  let nu = affected node upd in
  let nd = affected node del in
  fingerprint node
    (fpr "%s\n%s\n%d,%d\n%s" upd del nu nd (pp_rows (run_sql node dml_probe)))

let wisconsin_fingerprint ~chaos seed =
  let node = make_node ~chaos seed in
  String.concat "\n"
    (List.map
       (fun q ->
         fingerprint node
           (q.Wisconsin.q_id ^ "\n" ^ pp_rows (run_sql node q.Wisconsin.q_sql)))
       (wisconsin_queries ()))

(* named for the pull = batched properties they replace: each digest is
   of fingerprints on which the two engines agreed, seed by seed *)
let golden name expected seeds fingerprint =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check string) (name ^ ": fixed-seed digest") expected
        (digest seeds fingerprint))

let golden_cases =
  [
    golden "batched select = pull select" Golden.golden_batch_select 15
      (select_fingerprint ~chaos:false);
    golden "batched select = pull select (under chaos)"
      Golden.golden_batch_select_chaos 15 (select_fingerprint ~chaos:true);
    golden "batched DML = pull DML" Golden.golden_batch_dml 10
      (dml_fingerprint ~chaos:false);
    golden "batched DML = pull DML (under chaos)" Golden.golden_batch_dml_chaos
      10 (dml_fingerprint ~chaos:true);
    golden "Wisconsin suite: batched = pull" Golden.golden_batch_wisconsin 3
      (wisconsin_fingerprint ~chaos:false);
    golden "Wisconsin suite: batched = pull (under chaos)"
      Golden.golden_batch_wisconsin_chaos 3 (wisconsin_fingerprint ~chaos:true);
  ]

(* --- the executor against the reference, random seeds -------------------- *)

let select_reference ~chaos =
  QCheck.Test.make ~count:15
    ~name:
      (if chaos then "batched select = reference (under chaos)"
       else "batched select = reference")
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let node = make_node ~chaos seed in
      check_query (dump node) node (random_select (prng seed));
      true)

let dml_reference ~chaos =
  QCheck.Test.make ~count:10
    ~name:
      (if chaos then "batched DML = reference (under chaos)"
       else "batched DML = reference")
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let upd, del, meaning = random_dml (prng seed) in
      let node = make_node ~chaos seed in
      let nu_ref, nd_ref, probe_ref = meaning (dump node) in
      let nu = affected node upd in
      let nd = affected node del in
      if (nu, nd) <> (nu_ref, nd_ref) then
        Alcotest.failf "%s; %s: affected %d,%d, reference %d,%d" upd del nu nd
          nu_ref nd_ref;
      check_rows ~ordered:false dml_probe ~expected:probe_ref (run_sql node dml_probe);
      true)

let wisconsin_reference ~chaos =
  QCheck.Test.make ~count:3
    ~name:
      (if chaos then "Wisconsin suite: batched = reference (under chaos)"
       else "Wisconsin suite: batched = reference")
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let node = make_node ~chaos seed in
      let db = dump node in
      List.iter
        (fun q ->
          check_rows ~ordered:false
            (fpr "%s (%s)" q.Wisconsin.q_id q.Wisconsin.q_sql)
            ~expected:(wisconsin_meaning q db)
            (run_sql node q.Wisconsin.q_sql))
        (wisconsin_queries ());
      true)

(* each shape once, on a generator that always picks the midpoint: an
   operator bug fails here whatever the QCheck seed *)
let every_shape () =
  let node = make_node ~chaos:false 0 in
  let db = dump node in
  let midpoint n = n / 2 in
  for shape = 0 to shapes - 1 do
    let where = random_where midpoint in
    check_query db node (select_shape midpoint ~where shape)
  done

let suite =
  golden_cases
  @ [
    QCheck_alcotest.to_alcotest (select_reference ~chaos:false);
    QCheck_alcotest.to_alcotest (select_reference ~chaos:true);
    QCheck_alcotest.to_alcotest (dml_reference ~chaos:false);
    QCheck_alcotest.to_alcotest (dml_reference ~chaos:true);
    QCheck_alcotest.to_alcotest (wisconsin_reference ~chaos:false);
    QCheck_alcotest.to_alcotest (wisconsin_reference ~chaos:true);
    Alcotest.test_case "every select shape = reference" `Quick every_shape;
  ]
