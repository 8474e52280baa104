(* End-to-end SQL tests: parsing, planning, execution through the full
   simulated stack. *)

module N = Nsql_core.Nonstop_sql
module Row = Nsql_row.Row
module Fs = Nsql_fs.Fs
module Parser = Nsql_sql.Parser
module Catalog = Nsql_sql.Catalog
module Ast = Nsql_sql.Ast
module Errors = Nsql_util.Errors

let setup () =
  let node = N.create_node ~volumes:2 () in
  (node, N.session node)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let rows_of = function
  | N.Rows rs -> rs.Nsql_sql.Executor.rows
  | _ -> Alcotest.fail "expected rows"

let ints rs = List.map (fun r -> match r.(0) with Row.Vint i -> i | _ -> -1) rs

let seed_emp s =
  ignore
    (N.exec_exn s
       "CREATE TABLE emp (empno INT PRIMARY KEY, name VARCHAR(32) NOT NULL, \
        dept INT NOT NULL, salary FLOAT NOT NULL)");
  for i = 1 to 20 do
    ignore
      (N.exec_exn s
         (Printf.sprintf "INSERT INTO emp VALUES (%d, 'emp-%02d', %d, %d.0)" i
            i (i mod 4) (1000 * i)))
  done

(* --- parsing ------------------------------------------------------------- *)

let parse_ok sql =
  match Parser.parse sql with
  | Ok stmt -> stmt
  | Error e -> Alcotest.fail (sql ^ " -> " ^ Errors.to_string e)

let parser_accepts () =
  let cases =
    [
      "SELECT * FROM emp";
      "SELECT name, salary * 1.1 AS bumped FROM emp WHERE dept = 3 ORDER BY \
       salary DESC LIMIT 5";
      "select count(*), avg(salary) from emp group by dept having count(*) > 2";
      "SELECT e.name, d.name FROM emp e, dept d WHERE e.dept = d.deptno";
      "SELECT a.x FROM t1 a JOIN t2 b ON a.k = b.k WHERE b.y BETWEEN 1 AND 2";
      "INSERT INTO emp (empno, name) VALUES (1, 'x'), (2, 'y')";
      "UPDATE account SET balance = balance * 1.07 WHERE balance > 0";
      "DELETE FROM emp WHERE name LIKE 'temp%'";
      "CREATE TABLE t (a INT PRIMARY KEY, b VARCHAR(10), CHECK (a >= 0))";
      "CREATE TABLE t2 (a INT, b INT, PRIMARY KEY (a, b))";
      "CREATE INDEX ix ON emp (dept)";
      "SELECT * FROM t WHERE a IN (1, 2, 3) AND b IS NOT NULL";
      "BEGIN WORK";
      "COMMIT";
      "ROLLBACK WORK";
      "SELECT -salary FROM emp WHERE NOT (dept = 1 OR dept = 2)";
      "SeLeCt Name FrOm Emp wHeRe DePt = 1";
      "SELECT * FROM t WHERE a = ? AND b IN (?, -1) AND c BETWEEN ? AND -?";
      "INSERT INTO t VALUES (?, ?), (3, ?)";
      "UPDATE account SET balance = balance + ? WHERE aid = ?";
    ]
  in
  List.iter (fun sql -> ignore (parse_ok sql)) cases

let parser_rejects () =
  let cases =
    [
      "SELECT";
      "SELECT * FROM";
      "INSERT INTO t VALUES (1,)";
      "UPDATE t SET";
      "CREATE TABLE t (a INT PRIMARY KEY";
      "SELECT * FROM t WHERE a = 'unterminated";
      "FROBNICATE THE DATABASE";
    ]
  in
  List.iter
    (fun sql ->
      match Parser.parse sql with
      | Error (Errors.Parse_error _) -> ()
      | Ok _ -> Alcotest.fail ("accepted: " ^ sql)
      | Error e -> Alcotest.fail (sql ^ " -> wrong error " ^ Errors.to_string e))
    cases

let parse_script () =
  match Parser.parse_many "SELECT * FROM a; SELECT * FROM b; BEGIN" with
  | Ok stmts -> Alcotest.(check int) "three statements" 3 (List.length stmts)
  | Error e -> Alcotest.fail (Errors.to_string e)

(* --- basic DML / queries ---------------------------------------------------- *)

let create_insert_select () =
  let _node, s = setup () in
  seed_emp s;
  let rs = rows_of (N.exec_exn s "SELECT empno FROM emp WHERE salary > 15000.0 ORDER BY empno") in
  Alcotest.(check (list int)) "selection" [ 16; 17; 18; 19; 20 ] (ints rs)

let select_star_order () =
  let _node, s = setup () in
  seed_emp s;
  let rs = rows_of (N.exec_exn s "SELECT * FROM emp ORDER BY empno DESC LIMIT 3") in
  Alcotest.(check int) "three rows" 3 (List.length rs);
  Alcotest.(check int) "width" 4 (Array.length (List.hd rs));
  Alcotest.(check (list int)) "descending" [ 20; 19; 18 ] (ints rs)

let projection_and_expressions () =
  let _node, s = setup () in
  seed_emp s;
  let rs =
    rows_of (N.exec_exn s "SELECT salary / 1000.0, name FROM emp WHERE empno = 7")
  in
  (match rs with
  | [ [| Row.Vfloat f; Row.Vstr n |] ] ->
      Alcotest.(check (float 1e-9)) "expr" 7. f;
      Alcotest.(check string) "name" "emp-07" n
  | _ -> Alcotest.fail "unexpected shape")

let where_like_in_between () =
  let _node, s = setup () in
  seed_emp s;
  Alcotest.(check (list int)) "like"
    [ 1; 10; 11; 12; 13; 14; 15; 16; 17; 18; 19 ]
    (ints (rows_of (N.exec_exn s "SELECT empno FROM emp WHERE name LIKE 'emp-1%' OR empno = 1 ORDER BY empno")));
  Alcotest.(check (list int)) "between" [ 5; 6; 7 ]
    (ints (rows_of (N.exec_exn s "SELECT empno FROM emp WHERE empno BETWEEN 5 AND 7")));
  Alcotest.(check (list int)) "in" [ 3; 9 ]
    (ints (rows_of (N.exec_exn s "SELECT empno FROM emp WHERE empno IN (9, 3) ORDER BY empno")))

let null_semantics_sql () =
  let _node, s = setup () in
  ignore
    (N.exec_exn s
       "CREATE TABLE t (k INT PRIMARY KEY, v INT)");
  ignore (N.exec_exn s "INSERT INTO t VALUES (1, 10), (2, NULL), (3, 30)");
  Alcotest.(check (list int)) "null filtered by comparison" [ 3 ]
    (ints (rows_of (N.exec_exn s "SELECT k FROM t WHERE v > 10")));
  Alcotest.(check (list int)) "is null" [ 2 ]
    (ints (rows_of (N.exec_exn s "SELECT k FROM t WHERE v IS NULL")));
  Alcotest.(check (list int)) "is not null" [ 1; 3 ]
    (ints (rows_of (N.exec_exn s "SELECT k FROM t WHERE v IS NOT NULL ORDER BY k")))

let update_with_expression () =
  let _node, s = setup () in
  ignore
    (N.exec_exn s
       "CREATE TABLE account (acctno INT PRIMARY KEY, balance FLOAT NOT NULL)");
  for i = 1 to 10 do
    ignore
      (N.exec_exn s
         (Printf.sprintf "INSERT INTO account VALUES (%d, %d.0)" i (100 * i)))
  done;
  (match N.exec_exn s "UPDATE account SET balance = balance * 1.07 WHERE balance > 500.0" with
  | N.Affected n -> Alcotest.(check int) "five updated" 5 n
  | _ -> Alcotest.fail "expected Affected");
  let rs = rows_of (N.exec_exn s "SELECT balance FROM account WHERE acctno = 6") in
  (match rs with
  | [ [| Row.Vfloat f |] ] -> Alcotest.(check (float 1e-6)) "interest" 642. f
  | _ -> Alcotest.fail "unexpected shape")

let delete_where () =
  let _node, s = setup () in
  seed_emp s;
  (match N.exec_exn s "DELETE FROM emp WHERE dept = 0" with
  | N.Affected n -> Alcotest.(check int) "deleted" 5 n
  | _ -> Alcotest.fail "expected Affected");
  let rs = rows_of (N.exec_exn s "SELECT COUNT(*) FROM emp") in
  (match rs with
  | [ [| Row.Vint n |] ] -> Alcotest.(check int) "remaining" 15 n
  | _ -> Alcotest.fail "unexpected shape")

(* --- aggregates -------------------------------------------------------------- *)

let aggregates () =
  let _node, s = setup () in
  seed_emp s;
  let rs = rows_of (N.exec_exn s "SELECT COUNT(*), SUM(salary), MIN(empno), MAX(empno), AVG(salary) FROM emp") in
  (match rs with
  | [ [| Row.Vint c; Row.Vfloat sum; Row.Vint mn; Row.Vint mx; Row.Vfloat avg |] ] ->
      Alcotest.(check int) "count" 20 c;
      Alcotest.(check (float 1e-6)) "sum" 210000. sum;
      Alcotest.(check int) "min" 1 mn;
      Alcotest.(check int) "max" 20 mx;
      Alcotest.(check (float 1e-6)) "avg" 10500. avg
  | _ -> Alcotest.fail "unexpected shape")

let group_by_having () =
  let _node, s = setup () in
  seed_emp s;
  let rs =
    rows_of
      (N.exec_exn s
         "SELECT dept, COUNT(*) FROM emp GROUP BY dept HAVING COUNT(*) >= 5 \
          ORDER BY dept")
  in
  Alcotest.(check int) "four groups" 4 (List.length rs);
  List.iter
    (fun r ->
      match r with
      | [| Row.Vint _; Row.Vint c |] -> Alcotest.(check int) "group size" 5 c
      | _ -> Alcotest.fail "bad group row")
    rs

let aggregate_over_empty () =
  let _node, s = setup () in
  ignore (N.exec_exn s "CREATE TABLE t (k INT PRIMARY KEY)");
  let rs = rows_of (N.exec_exn s "SELECT COUNT(*), SUM(k) FROM t") in
  match rs with
  | [ [| Row.Vint 0; Row.Null |] ] -> ()
  | _ -> Alcotest.fail "grand aggregate over empty table"

(* --- joins ---------------------------------------------------------------------- *)

let seed_join s =
  ignore
    (N.exec_exn s
       "CREATE TABLE dept (deptno INT PRIMARY KEY, dname VARCHAR(16) NOT NULL)");
  List.iter
    (fun (i, n) ->
      ignore (N.exec_exn s (Printf.sprintf "INSERT INTO dept VALUES (%d, '%s')" i n)))
    [ (0, "ops"); (1, "dev"); (2, "sales"); (3, "mgmt") ]

let keyed_join () =
  let node, s = setup () in
  seed_emp s;
  seed_join s;
  (* inner pk equality: should plan a keyed point-read join *)
  let before = (N.stats node).Nsql_sim.Stats.msgs_sent in
  let rs =
    rows_of
      (N.exec_exn s
         "SELECT e.empno, d.dname FROM emp e, dept d WHERE e.dept = d.deptno \
          AND e.empno <= 4 ORDER BY e.empno")
  in
  let msgs = (N.stats node).Nsql_sim.Stats.msgs_sent - before in
  Alcotest.(check int) "four joined rows" 4 (List.length rs);
  (match List.hd rs with
  | [| Row.Vint 1; Row.Vstr "dev" |] -> ()
  | r -> Alcotest.fail (Format.asprintf "bad row %a" Row.pp_row r));
  Alcotest.(check bool) (Printf.sprintf "keyed join is cheap (%d msgs)" msgs)
    true (msgs < 20)

let nested_loop_join () =
  let _node, s = setup () in
  seed_emp s;
  seed_join s;
  (* non-pk join predicate forces a nested-loop rescan *)
  let rs =
    rows_of
      (N.exec_exn s
         "SELECT e.empno FROM emp e, dept d WHERE e.dept = d.deptno AND \
          d.dname = 'sales' ORDER BY e.empno")
  in
  Alcotest.(check (list int)) "sales employees" [ 2; 6; 10; 14; 18 ] (ints rs)

let three_way_join () =
  let _node, s = setup () in
  seed_emp s;
  seed_join s;
  ignore
    (N.exec_exn s
       "CREATE TABLE loc (deptno INT PRIMARY KEY, city VARCHAR(16) NOT NULL)");
  ignore (N.exec_exn s "INSERT INTO loc VALUES (1, 'cupertino'), (2, 'austin')");
  let rs =
    rows_of
      (N.exec_exn s
         "SELECT e.empno, l.city FROM emp e, dept d, loc l WHERE e.dept = \
          d.deptno AND l.deptno = d.deptno AND e.empno < 3 ORDER BY e.empno")
  in
  match rs with
  | [ [| Row.Vint 1; Row.Vstr "cupertino" |]; [| Row.Vint 2; Row.Vstr "austin" |] ] -> ()
  | _ -> Alcotest.fail "three-way join wrong"

(* --- indexes ----------------------------------------------------------------------- *)

let index_used_by_planner () =
  let _node, s = setup () in
  seed_emp s;
  ignore (N.exec_exn s "CREATE INDEX by_dept ON emp (dept)");
  let plan = Errors.get_ok ~ctx:"explain" (N.explain s "SELECT name FROM emp WHERE dept = 2") in
  Alcotest.(check bool)
    (Printf.sprintf "plan uses index: %s" plan)
    true
    (contains plan "index by_dept");
  let rs = rows_of (N.exec_exn s "SELECT empno FROM emp WHERE dept = 2 ORDER BY empno") in
  Alcotest.(check (list int)) "index results" [ 2; 6; 10; 14; 18 ] (ints rs)

let primary_range_preferred () =
  let _node, s = setup () in
  seed_emp s;
  let plan = Errors.get_ok ~ctx:"explain" (N.explain s "SELECT name FROM emp WHERE empno <= 1000 AND salary > 3000.0") in
  Alcotest.(check bool) ("primary: " ^ plan) true (contains plan "primary")

(* --- constraints / transactions ------------------------------------------------------ *)

let check_constraint_sql () =
  let _node, s = setup () in
  ignore
    (N.exec_exn s
       "CREATE TABLE part (pno INT PRIMARY KEY, quantity INT NOT NULL, CHECK \
        (quantity >= 0))");
  ignore (N.exec_exn s "INSERT INTO part VALUES (1, 10)");
  (match N.exec s "INSERT INTO part VALUES (2, -1)" with
  | Error (Errors.Constraint_violation _) -> ()
  | _ -> Alcotest.fail "negative quantity accepted");
  match N.exec s "UPDATE part SET quantity = quantity - 100" with
  | Error (Errors.Constraint_violation _) -> ()
  | _ -> Alcotest.fail "violating update accepted"

let transactions_sql () =
  let _node, s = setup () in
  seed_emp s;
  ignore (N.exec_exn s "BEGIN WORK");
  ignore (N.exec_exn s "UPDATE emp SET salary = 0.0 WHERE empno = 1");
  ignore (N.exec_exn s "ROLLBACK WORK");
  let rs = rows_of (N.exec_exn s "SELECT salary FROM emp WHERE empno = 1") in
  (match rs with
  | [ [| Row.Vfloat f |] ] -> Alcotest.(check (float 1e-9)) "rolled back" 1000. f
  | _ -> Alcotest.fail "unexpected shape");
  ignore (N.exec_exn s "BEGIN WORK");
  ignore (N.exec_exn s "UPDATE emp SET salary = 0.0 WHERE empno = 1");
  ignore (N.exec_exn s "COMMIT WORK");
  let rs = rows_of (N.exec_exn s "SELECT salary FROM emp WHERE empno = 1") in
  match rs with
  | [ [| Row.Vfloat f |] ] -> Alcotest.(check (float 1e-9)) "committed" 0. f
  | _ -> Alcotest.fail "unexpected shape"

let errors_reported () =
  let _node, s = setup () in
  seed_emp s;
  (match N.exec s "SELECT nope FROM emp" with
  | Error (Errors.Name_error _) -> ()
  | _ -> Alcotest.fail "unknown column accepted");
  (match N.exec s "SELECT * FROM nope" with
  | Error (Errors.Name_error _) -> ()
  | _ -> Alcotest.fail "unknown table accepted");
  (match N.exec s "INSERT INTO emp VALUES (1, 'dup', 0, 0.0)" with
  | Error (Errors.Duplicate_key _) -> ()
  | _ -> Alcotest.fail "duplicate accepted");
  match N.exec s "SELECT dept, name FROM emp GROUP BY dept" with
  | Error (Errors.Bad_request _) -> ()
  | _ -> Alcotest.fail "non-grouped column accepted"

let access_modes_equivalent () =
  let _node, s = setup () in
  seed_emp s;
  let run mode =
    N.set_access_mode s mode;
    ints (rows_of (N.exec_exn s "SELECT empno FROM emp WHERE salary >= 8000.0 AND dept = 1 ORDER BY empno"))
  in
  let auto = run None in
  let vsbb = run (Some Fs.A_vsbb) in
  let rsbb = run (Some Fs.A_rsbb) in
  let record = run (Some Fs.A_record) in
  Alcotest.(check (list int)) "auto = vsbb" auto vsbb;
  Alcotest.(check (list int)) "auto = rsbb" auto rsbb;
  Alcotest.(check (list int)) "auto = record" auto record

let multi_partition_sql () =
  (* register a partitioned table programmatically, then query it *)
  let node, s = setup () in
  let schema =
    Row.schema
      [| Row.column "k" Row.T_int; Row.column "v" Row.T_int |]
      ~key:[ "k" ]
  in
  let split = Errors.get_ok ~ctx:"key" (Row.key_of_values schema [ Row.Vint 50 ]) in
  let file =
    Errors.get_ok ~ctx:"create"
      (Fs.create_file (N.fs node) ~fname:"wide" ~schema
         ~partitions:
           [
             Fs.{ ps_lo = ""; ps_dp = (N.dps node).(0) };
             Fs.{ ps_lo = split; ps_dp = (N.dps node).(1) };
           ]
         ~indexes:[] ())
  in
  Errors.get_ok ~ctx:"register" (Catalog.register (N.catalog node) "wide" file);
  for i = 0 to 99 do
    ignore (N.exec_exn s (Printf.sprintf "INSERT INTO wide VALUES (%d, %d)" i (i * i)))
  done;
  let rs = rows_of (N.exec_exn s "SELECT COUNT(*) FROM wide WHERE k >= 40 AND k < 60") in
  match rs with
  | [ [| Row.Vint 20 |] ] -> ()
  | _ -> Alcotest.fail "partitioned count wrong"

(* --- prepared statements ----------------------------------------------- *)

module Lexer = Nsql_sql.Lexer
module Debitcredit = Nsql_workload.Debitcredit

let fpr = Printf.sprintf

(* a value as a literal the lexer reads back exactly *)
let float_text f =
  let t = fpr "%.17g" f in
  if String.exists (fun c -> c = '.' || c = 'e') t then t else t ^ ".0"

let quote s = "'" ^ String.concat "''" (String.split_on_char '\'' s) ^ "'"

let inline = function
  | Row.Null -> "NULL"
  | Row.Vint i -> string_of_int i
  | Row.Vfloat f -> float_text f
  | Row.Vbool b -> if b then "TRUE" else "FALSE"
  | Row.Vstr s -> quote s

(* [sql] with every literal — a number with its unary minus, a string,
   NULL, TRUE or FALSE — turned into a marker, except LIMIT's count and
   the NULL of IS [NOT] NULL; the values come back in marker order *)
let parameterize sql =
  let toks = Errors.get_ok ~ctx:sql (Lexer.tokenize sql) in
  let values = ref [] in
  let param v =
    values := v :: !values;
    "?"
  in
  (* a minus is unary unless it follows an operand *)
  let unary = function
    | Some (Lexer.T_ident _ | Lexer.T_int _ | Lexer.T_float _ | Lexer.T_string _)
    | Some (Lexer.T_symbol ")" | Lexer.T_param)
    | Some (Lexer.T_keyword ("NULL" | "TRUE" | "FALSE")) ->
        false
    | _ -> true
  in
  let rec go prev acc = function
    | [] | [ Lexer.T_eof ] -> String.concat " " (List.rev acc)
    | Lexer.T_symbol "-" :: (Lexer.T_int i as t) :: rest when unary prev ->
        go (Some t) (param (Row.Vint (-i)) :: acc) rest
    | Lexer.T_symbol "-" :: (Lexer.T_float f as t) :: rest when unary prev ->
        go (Some t) (param (Row.Vfloat (-.f)) :: acc) rest
    | (Lexer.T_int i as t) :: rest -> (
        match prev with
        | Some (Lexer.T_keyword "LIMIT") -> go (Some t) (string_of_int i :: acc) rest
        | _ -> go (Some t) (param (Row.Vint i) :: acc) rest)
    | (Lexer.T_keyword "NULL" as t) :: rest
      when prev = Some (Lexer.T_keyword "IS") || prev = Some (Lexer.T_keyword "NOT") ->
        go (Some t) ("NULL" :: acc) rest
    | t :: rest ->
        let text =
          match t with
          | Lexer.T_float f -> param (Row.Vfloat f)
          | Lexer.T_string v -> param (Row.Vstr v)
          | Lexer.T_keyword "NULL" -> param Row.Null
          | Lexer.T_keyword (("TRUE" | "FALSE") as b) -> param (Row.Vbool (b = "TRUE"))
          | Lexer.T_ident x | Lexer.T_keyword x | Lexer.T_symbol x -> x
          | Lexer.T_int _ | Lexer.T_param | Lexer.T_eof -> assert false
        in
        go (Some t) (text :: acc) rest
  in
  let template = go None [] toks in
  (template, Array.of_list (List.rev !values))

let result_text = function
  | Ok (N.Rows rs) ->
      String.concat "; " (List.map (Format.asprintf "%a" Row.pp_row) rs.rows)
  | Ok (N.Affected n) -> fpr "%d affected" n
  | Ok N.Done -> "done"
  | Error e -> "error: " ^ Errors.to_string e

(* values of every kind a marker takes: negative, zero and fractional
   numbers (-0. included), strings holding quotes, NULL *)
let number next =
  match next 6 with
  | 0 -> Row.Vint (next 400 - 200)
  | 1 -> Row.Vfloat (float_of_int (next 2001 - 1000) /. 8.)
  | 2 -> Row.Vfloat (-.float_of_int (next 300) -. 0.375)
  | 3 -> if next 2 = 0 then Row.Vfloat 0. else Row.Vfloat (-0.)
  | 4 -> Row.Null
  | _ -> Row.Vint (-next 300)

let text next = [| "it's"; "''"; ""; "touched"; "a'b'c"; "O'Neil's" |].(next 6)
let string_or_null next = if next 5 = 0 then Row.Null else Row.Vstr (text next)

(* test_batch's WHERE clause with one more conjunct over random values *)
let where_with_values next =
  let where, keep = Test_batch.random_where next in
  let extra =
    fpr "(unique1 + %s >= %s OR stringu1 <> %s OR unique3 IN (%s, %s) OR %s IS NULL)"
      (inline (number next)) (inline (number next)) (inline (string_or_null next))
      (inline (number next)) (inline (number next)) (inline (number next))
  in
  ((if where = "" then " WHERE " ^ extra else where ^ " AND " ^ extra), keep)

let generated_statements next =
  let select =
    Test_batch.select_shape next ~where:(where_with_values next)
      (next Test_batch.shapes)
  in
  [
    select.Test_batch.sql;
    fpr "UPDATE t SET unique3 = unique3 + %d, stringu1 = %s%s" (next 200 - 100)
      (quote (text next)) (fst (where_with_values next));
    fpr "INSERT INTO t VALUES (%d, %d, %s, %s)" (next 200 - 100) (10_000 + next 1000)
      (String.concat ", " (List.init 11 (fun _ -> string_of_int (next 200 - 100))))
      (String.concat ", " (List.init 3 (fun _ -> quote (text next))));
    fpr "DELETE FROM t%s" (fst (where_with_values next));
    Test_batch.dml_probe;
  ]

let prepared_equals_text =
  QCheck.Test.make ~count:10
    ~name:"prepared + bound values = text with the literals inlined"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let by_text = Test_batch.make_node ~chaos:false seed in
      let by_prep = Test_batch.make_node ~chaos:false seed in
      let ts = N.session by_text and ps = N.session by_prep in
      List.iter
        (fun sql ->
          let template, values = parameterize sql in
          let parsed = Parser.parse sql in
          let bound =
            Result.bind (Parser.parse template) (fun st -> Ast.bind_params st values)
          in
          if parsed <> bound then Alcotest.failf "%s: bound tree differs from %s" sql template;
          let want = result_text (N.exec ts sql) in
          let got =
            result_text (Result.bind (N.prepare template) (fun p -> N.execute ps p values))
          in
          Alcotest.(check string) sql want got)
        (generated_statements (Test_batch.prng seed));
      Alcotest.(check string) "statistics and clock" (Golden.fingerprint by_text)
        (Golden.fingerprint by_prep);
      true)

(* DebitCredit's prepared transaction on one node, the statements it
   formatted and parsed before on a twin: negative, fractional and whole
   deltas must cost the same, tick for tick *)
let debitcredit_prepared_equals_text () =
  let twin () =
    let node = N.create_node ~volumes:2 () in
    let db =
      Errors.get_ok ~ctx:"setup"
        (Debitcredit.setup_sql node ~accounts:40 ~tellers:4 ~branches:2)
    in
    (node, db, N.session node)
  in
  let by_prep, db, ps = twin () in
  let by_text, db_text, ts = twin () in
  List.iteri
    (fun hid (aid, delta) ->
      Errors.get_ok ~ctx:"prepared tx" (Debitcredit.run_sql_tx db ps ~aid ~delta);
      let tid = aid mod 4 in
      let bid = tid mod 2 in
      List.iter
        (fun sql -> ignore (N.exec_exn ts sql))
        [
          "BEGIN WORK";
          fpr "UPDATE account SET balance = balance + %f WHERE aid = %d" delta aid;
          fpr "UPDATE teller SET balance = balance + %f WHERE tid = %d" delta tid;
          fpr "UPDATE branch SET balance = balance + %f WHERE bid = %d" delta bid;
          fpr "INSERT INTO history VALUES (%d, %d, %d, %d, %f, '%s')" hid aid tid bid
            delta (String.make 96 'f');
          "COMMIT WORK";
        ])
    [ (3, -5.); (7, 12.5); (11, -0.125); (3, 0.); (39, -999.); (8, 1. /. 3.); (0, -2e-7) ];
  let balances db s = Errors.get_ok ~ctx:"balances" (Debitcredit.sql_balances db s) in
  Alcotest.(check (pair (float 0.) int)) "balances and history"
    (balances db_text ts) (balances db ps);
  Alcotest.(check string) "statistics and clock" (Golden.fingerprint by_text)
    (Golden.fingerprint by_prep)

(* every execute plans afresh: after CREATE INDEX the prepared SELECT
   takes the index path, as the same text does *)
let prepared_sees_ddl () =
  let by_text, ts = setup () and by_prep, ps = setup () in
  seed_emp ts;
  seed_emp ps;
  let text = "SELECT empno FROM emp WHERE dept = 2 AND salary > -0.5 ORDER BY empno" in
  let p =
    Errors.get_ok ~ctx:"prepare"
      (N.prepare "SELECT empno FROM emp WHERE dept = ? AND salary > ? ORDER BY empno")
  in
  let same what =
    let want = rows_of (N.exec_exn ts text) in
    let got =
      rows_of
        (Errors.get_ok ~ctx:"execute" (N.execute ps p [| Row.Vint 2; Row.Vfloat (-0.5) |]))
    in
    Alcotest.(check (list int)) (what ^ ": rows") [ 2; 6; 10; 14; 18 ] (ints want);
    Alcotest.(check (list int)) (what ^ ": prepared rows") (ints want) (ints got);
    Alcotest.(check string) (what ^ ": statistics and clock")
      (Golden.fingerprint by_text) (Golden.fingerprint by_prep)
  in
  same "before the index";
  List.iter
    (fun s -> ignore (N.exec_exn s "CREATE INDEX by_dept ON emp (dept)"))
    [ ts; ps ];
  Alcotest.(check bool) "the text now uses the index" true
    (contains (Errors.get_ok ~ctx:"explain" (N.explain ts text)) "index by_dept");
  same "after the index"

let prepared_errors () =
  let _node, s = setup () in
  seed_emp s;
  let bad_request what = function
    | Error (Errors.Bad_request _) -> ()
    | r -> Alcotest.failf "%s: %s" what (result_text r)
  in
  let p =
    Errors.get_ok ~ctx:"prepare"
      (N.prepare "SELECT name FROM emp WHERE dept = ? AND empno < ?")
  in
  List.iter
    (fun values ->
      bad_request (fpr "%d values for 2 markers" (Array.length values))
        (N.execute s p values))
    [ [||]; [| Row.Vint 1 |]; [| Row.Vint 1; Row.Vint 2; Row.Vint 3 |] ];
  bad_request "unbound marker in a SELECT" (N.exec s "SELECT name FROM emp WHERE dept = ?");
  bad_request "unbound marker in VALUES" (N.exec s "INSERT INTO emp VALUES (?, 'x', 1, 1.0)");
  bad_request "unbound marker in IN" (N.exec s "SELECT name FROM emp WHERE dept IN (1, ?)");
  List.iter
    (fun sql ->
      match N.prepare sql with
      | Error (Errors.Parse_error _) -> ()
      | Ok _ -> Alcotest.fail ("accepted: " ^ sql)
      | Error e -> Alcotest.fail (sql ^ " -> wrong error " ^ Errors.to_string e))
    [
      "CREATE TABLE c (a INT PRIMARY KEY, CHECK (a > ?))";
      "SELECT name FROM emp LIMIT ?";
      "SELECT name FROM emp WHERE name LIKE ?";
      "INSERT INTO emp VALUES (-?, 'x', 1, 1.0)";
    ];
  (* markers are numbered left to right, whatever the tree's shape *)
  let where = function
    | Ok (Ast.St_select { sel_where = Some w; _ }) -> Format.asprintf "%a" Ast.pp_sexpr w
    | _ -> Alcotest.fail "not a SELECT with a WHERE"
  in
  let stmt =
    Errors.get_ok ~ctx:"parse"
      (Parser.parse "SELECT a FROM t JOIN u ON t.k = ? WHERE b IN (?, ?) AND c = ?")
  in
  Alcotest.(check string) "marker order" "(((b IN (?, ?)) AND (c = ?)) AND (t.k = ?))"
    (where (Ok stmt));
  Alcotest.(check string) "bound in order" "(((b IN (1, 2)) AND (c = 3)) AND (t.k = 0))"
    (where (Ast.bind_params stmt [| Row.Vint 0; Row.Vint 1; Row.Vint 2; Row.Vint 3 |]))

let suite =
  [
    Alcotest.test_case "parser accepts dialect" `Quick parser_accepts;
    Alcotest.test_case "parser rejects garbage" `Quick parser_rejects;
    Alcotest.test_case "parse script" `Quick parse_script;
    Alcotest.test_case "create/insert/select" `Quick create_insert_select;
    Alcotest.test_case "select * order limit" `Quick select_star_order;
    Alcotest.test_case "projection & expressions" `Quick
      projection_and_expressions;
    Alcotest.test_case "LIKE/IN/BETWEEN" `Quick where_like_in_between;
    Alcotest.test_case "NULL semantics" `Quick null_semantics_sql;
    Alcotest.test_case "UPDATE with expression" `Quick update_with_expression;
    Alcotest.test_case "DELETE WHERE" `Quick delete_where;
    Alcotest.test_case "aggregates" `Quick aggregates;
    Alcotest.test_case "GROUP BY / HAVING" `Quick group_by_having;
    Alcotest.test_case "aggregate over empty" `Quick aggregate_over_empty;
    Alcotest.test_case "keyed join" `Quick keyed_join;
    Alcotest.test_case "nested-loop join" `Quick nested_loop_join;
    Alcotest.test_case "three-way join" `Quick three_way_join;
    Alcotest.test_case "index used by planner" `Quick index_used_by_planner;
    Alcotest.test_case "primary range preferred" `Quick primary_range_preferred;
    Alcotest.test_case "CHECK via SQL" `Quick check_constraint_sql;
    Alcotest.test_case "transactions via SQL" `Quick transactions_sql;
    Alcotest.test_case "errors reported" `Quick errors_reported;
    Alcotest.test_case "access modes equivalent" `Quick access_modes_equivalent;
    Alcotest.test_case "partitioned table via SQL" `Quick multi_partition_sql;
    QCheck_alcotest.to_alcotest prepared_equals_text;
    Alcotest.test_case "prepared DebitCredit = text" `Quick
      debitcredit_prepared_equals_text;
    Alcotest.test_case "prepared SELECT re-plans after DDL" `Quick prepared_sees_ddl;
    Alcotest.test_case "prepared statement errors" `Quick prepared_errors;
  ]
