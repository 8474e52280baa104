(* The four closed-loop workloads. Each has one client: the next operation
   starts only when the previous one has returned (xfer_contend's eight
   terminals are state machines on the simulated clock, driven by one
   host thread). A round builds a fresh node, loads it and warms it up —
   that is the set-up the [setup_s] metric times — and then runs a timed
   loop whose inputs are a pure function of the seed, so every round of a
   run, and every run with that seed, does the same simulated work. *)

module N = Nsql_core.Nonstop_sql
module Sim = Nsql_sim.Sim
module Config = Nsql_sim.Config
module Row = Nsql_row.Row
module Errors = Nsql_util.Errors
module Debitcredit = Nsql_workload.Debitcredit
module Wisconsin = Nsql_workload.Wisconsin

(* The host clock of every host-time metric: this thread's CPU time, which
   leaves out time the process, or the virtual machine it runs in, spent
   descheduled. The benchmark is one thread doing no real I/O, so on an
   idle machine this equals wall-clock time. *)
external now_ns : unit -> int = "bench_thread_cputime_ns" [@@noalloc]

(* splitmix64: the generators' only source of randomness, fixed across
   OCaml versions *)
type rng = { mutable st : int64 }

let rng ~seed ~stream =
  { st = Int64.(add (mul (of_int seed) 0x9E3779B97F4A7C15L) (of_int (stream * 7919))) }

let rand r bound =
  r.st <- Int64.add r.st 0x9E3779B97F4A7C15L;
  let z = r.st in
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  let z = Int64.(logxor z (shift_right_logical z 31)) in
  Int64.(to_int (unsigned_rem z (of_int bound)))

(* [data] scales table sizes, [ops] the number of operations; the smoke
   test shrinks both, the span-export runs only the second *)
type scale = { data : float; ops : float }

let full = { data = 1.; ops = 1. }
let scaled f n ~min = max min (int_of_float (Float.round (f *. float_of_int n)))

(* What the timed loop did. [lat_host]/[lat_sim] hold one sample per
   operation the latency percentiles cover. *)
type loop = {
  ops : int;  (** the unit every per-op metric divides by *)
  failed : int;
  host_ns : float;  (** host time of the operations, checks excluded *)
  sim_us : float;  (** simulated time of the loop *)
  lat_host : float array;  (** ns *)
  lat_sim : float array;  (** simulated us *)
  committed : int;
  retries : int;
}

(* Inputs the per-layer probes replay. *)
type corpus = {
  sql : string list;  (** statement texts the loop sent *)
  sql_node : N.node;  (** a node whose catalog plans [sql] *)
  row_schema : Row.schema;
  row_images : string list;  (** records of the workload's main table *)
  tree_keys : int;  (** key count of the workload's main table *)
}

type round = {
  node : N.node;
  run : unit -> loop;
  check : unit -> (unit, string) result;  (** output checks, after [run] *)
  corpus : unit -> corpus;
}

type t = {
  name : string;
  why : string;
  prepare : seed:int -> scale -> round;  (** node creation, load, warm-up *)
}

let ok_or ctx = function
  | Ok v -> v
  | Error e -> failwith (ctx ^ ": " ^ Errors.to_string e)

let check_all checks =
  List.fold_left
    (fun acc (ok, what) -> match acc with Error _ -> acc | Ok () -> if ok then Ok () else Error what)
    (Ok ()) checks

(* Times [n] operations; [f i] runs operation [i] and reports success.
   Only operations with [counted i] enter the latency percentiles.
   [after i] checks operation [i]'s output outside the timed interval; it
   must not move the simulated clock. *)
let timed_ops sim n ?(counted = fun _ -> true) ?(after = ignore) f =
  let lh = Array.make n 0. and ls = Array.make n 0. in
  let k = ref 0 and failed = ref 0 and total = ref 0 in
  let s_start = Sim.now sim in
  for i = 0 to n - 1 do
    let s0 = Sim.now sim in
    let h0 = now_ns () in
    let ok = f i in
    let dh = now_ns () - h0 in
    total := !total + dh;
    if not ok then incr failed;
    if counted i then begin
      lh.(!k) <- float_of_int dh;
      ls.(!k) <- Sim.now sim -. s0;
      incr k
    end;
    after i
  done;
  {
    ops = n;
    failed = !failed;
    host_ns = float_of_int !total;
    sim_us = Sim.now sim -. s_start;
    lat_host = Array.sub lh 0 !k;
    lat_sim = Array.sub ls 0 !k;
    committed = n - !failed;
    retries = 0;
  }

(* --- DebitCredit ----------------------------------------------------------- *)

(* the account record layout of Debitcredit (SQL and ENSCRIBE alike) *)
let account_schema =
  Row.schema
    [|
      Row.column "aid" Row.T_int;
      Row.column "bid" Row.T_int;
      Row.column "balance" Row.T_float;
      Row.column "filler" (Row.T_char 96);
    |]
    ~key:[ "aid" ]

let account_images ~branches aids =
  List.map
    (fun aid ->
      Row.encode account_schema
        [| Row.Vint aid; Row.Vint (aid mod branches); Row.Vfloat 1000.;
           Row.Vstr (String.make 96 'f') |])
    aids

(* whole-unit deltas keep every balance sum exact in floating point *)
let dc_params r ~accounts =
  let aid = rand r accounts in
  (aid, float_of_int (rand r 1999 - 999))

(* the statement texts Debitcredit.run_sql_tx sends for one transaction *)
let dc_statements ~tellers ~branches ~hid (aid, delta) =
  let tid = aid mod tellers in
  let bid = tid mod branches in
  [
    "BEGIN WORK";
    Printf.sprintf "UPDATE account SET balance = balance + %f WHERE aid = %d" delta aid;
    Printf.sprintf "UPDATE teller SET balance = balance + %f WHERE tid = %d" delta tid;
    Printf.sprintf "UPDATE branch SET balance = balance + %f WHERE bid = %d" delta bid;
    Printf.sprintf "INSERT INTO history VALUES (%d, %d, %d, %d, %f, '%s')" hid aid
      tid bid delta (String.make 96 'f');
    "COMMIT WORK";
  ]

type dc = {
  db : Debitcredit.sql_db;
  session : N.session;
  accounts : int;
  tellers : int;
  branches : int;
  mutable applied : float;  (** sum of committed deltas *)
  mutable txs : int;  (** committed transactions *)
}

let dc_setup ?config ~accounts ~tellers ~branches () =
  let node = N.create_node ?config ~volumes:2 () in
  let db = ok_or "setup_sql" (Debitcredit.setup_sql node ~accounts ~tellers ~branches) in
  (node, { db; session = N.session node; accounts; tellers; branches; applied = 0.; txs = 0 })

let dc_tx d (aid, delta) =
  match Debitcredit.run_sql_tx d.db d.session ~aid ~delta with
  | Ok () ->
      d.applied <- d.applied +. delta;
      d.txs <- d.txs + 1;
      true
  | Error _ -> false

(* the balance invariant: the account sum moved by exactly the committed
   deltas, and every committed transaction left one history row *)
let dc_check d () =
  match Debitcredit.sql_balances d.db d.session with
  | Error e -> Error ("sql_balances: " ^ Errors.to_string e)
  | Ok (sum, hist) ->
      let want = (float_of_int d.accounts *. 1000.) +. d.applied in
      check_all
        [
          (sum = want, Printf.sprintf "account sum %.2f, expected %.2f" sum want);
          (hist = d.txs, Printf.sprintf "history has %d rows, expected %d" hist d.txs);
        ]

let dc_corpus node d params () =
  let hid = ref 0 in
  {
    sql =
      List.concat_map
        (fun p ->
          incr hid;
          dc_statements ~tellers:d.tellers ~branches:d.branches ~hid:!hid p)
        params;
    sql_node = node;
    row_schema = account_schema;
    row_images = account_images ~branches:d.branches (List.map fst params);
    tree_keys = d.accounts;
  }

let take n l = List.filteri (fun i _ -> i < n) l

let dc_oltp =
  {
    name = "dc_oltp";
    why =
      "DebitCredit through SQL: point writes through parser, planner, DP, \
       locks and group commit, with the account file inside the cache";
    prepare =
      (fun ~seed sc ->
        let accounts = scaled sc.data 10_000 ~min:100 in
        let tellers = scaled sc.data 1_000 ~min:10 in
        let branches = scaled sc.data 100 ~min:1 in
        let n = scaled sc.ops 15_000 ~min:100 in
        let node, d = dc_setup ~accounts ~tellers ~branches () in
        let warm = rng ~seed ~stream:1 in
        for _ = 1 to max 1 (n / 50) do
          ignore (dc_tx d (dc_params warm ~accounts))
        done;
        let r = rng ~seed ~stream:2 in
        let params = Array.init n (fun _ -> dc_params r ~accounts) in
        {
          node;
          run = (fun () -> timed_ops (N.sim node) n (fun i -> dc_tx d params.(i)));
          check = dc_check d;
          corpus = dc_corpus node d (take 32 (Array.to_list params));
        });
  }

(* --- Wisconsin ------------------------------------------------------------- *)

type wquery = { wq_id : string; wq_sql : string; wq_rows : int }

(* The Wisconsin templates of Nsql_workload.Wisconsin with seeded range
   offsets; [wq_rows] is each one's closed-form result size. Instance [k]
   of a template reads table [k mod 2] (the join reads both). *)
let wisc_instances r ~rows ~per_template =
  let pct p = rows * p / 100 in
  let off width = rand r (rows - width + 1) in
  let tables = [| "tenktup1"; "tenktup2" |] in
  List.concat_map
    (fun k ->
      let t = tables.(k mod 2) and t2 = tables.((k + 1) mod 2) in
      let range col width =
        let lo = off width in
        Printf.sprintf "%s >= %d AND %s < %d" col lo col (lo + width)
      in
      let q id rows sql = { wq_id = id; wq_sql = sql; wq_rows = rows } in
      [
        q "W1" (pct 1) (Printf.sprintf "SELECT * FROM %s WHERE %s" t (range "unique2" (pct 1)));
        q "W2" (pct 10) (Printf.sprintf "SELECT * FROM %s WHERE %s" t (range "unique2" (pct 10)));
        q "W3" (pct 1) (Printf.sprintf "SELECT * FROM %s WHERE %s" t (range "unique1" (pct 1)));
        q "W4" (pct 1)
          (Printf.sprintf "SELECT unique1, stringu1 FROM %s WHERE %s" t (range "unique1" (pct 1)));
        q "W5" 1 (Printf.sprintf "SELECT * FROM %s WHERE unique1 = %d" t (off 1));
        q "W6" rows (Printf.sprintf "SELECT unique2, two FROM %s" t);
        q "W20" 1 (Printf.sprintf "SELECT MIN(unique2) FROM %s" t);
        q "W21" (pct 1)
          (Printf.sprintf "SELECT onepercent, MIN(unique2) FROM %s GROUP BY onepercent" t);
        q "W22" (pct 1)
          (Printf.sprintf "SELECT onepercent, SUM(unique2) FROM %s GROUP BY onepercent" t);
        q "W30" (pct 1)
          (Printf.sprintf
             "SELECT a.unique2, b.stringu1 FROM %s a, %s b WHERE a.unique2 = b.unique2 \
              AND %s"
             t t2 (range "a.unique1" (pct 1)));
      ])
    (List.init per_template Fun.id)

(* FNV-1a over a rowset's values; allocation-free, so checking a result
   leaves no GC work for the next timed query *)
let digest (rs : Nsql_sql.Executor.rowset) =
  let h = ref 0x4bf29ce484222325 in
  let mix x = h := (!h lxor x) * 0x100000001b3 in
  List.iter
    (fun row ->
      Array.iter
        (function
          | Row.Null -> mix 1
          | Row.Vint i -> mix 2; mix i
          | Row.Vfloat f -> mix 3; mix (Int64.to_int (Int64.bits_of_float f))
          | Row.Vbool b -> mix (if b then 4 else 5)
          | Row.Vstr s ->
              mix 6;
              for i = 0 to String.length s - 1 do
                mix (Char.code s.[i])
              done)
        row;
      mix 7)
    rs.rows;
  !h

let wisc_scan =
  {
    name = "wisc_scan";
    why =
      "Wisconsin W1-W6, W20-W22, W30 over two 2-partition tables larger \
       than the cache: VSBB, re-drive, pushdown, fan-out, bulk I/O";
    prepare =
      (fun ~seed sc ->
        let rows = 100 * scaled sc.data 200 ~min:2 in
        let passes = scaled sc.ops 4 ~min:1 in
        let node = N.create_node ~volumes:2 () in
        List.iter
          (fun name ->
            ok_or "Wisconsin.create" (Wisconsin.create node ~name ~rows ~partitions:2 ()))
          [ "tenktup1"; "tenktup2" ];
        let s = N.session node in
        let pool =
          Array.of_list (wisc_instances (rng ~seed ~stream:1) ~rows ~per_template:2)
        in
        let problems = ref [] in
        let note fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
        let query q =
          match N.query s q.wq_sql with
          | Ok rs ->
              let n = List.length rs.rows in
              if n <> q.wq_rows then note "%s returned %d rows, expected %d" q.wq_id n q.wq_rows;
              Some rs
          | Error e ->
              note "%s failed: %s" q.wq_id (Errors.to_string e);
              None
        in
        (* warm-up: one pass over the pool, keeping each result's digest *)
        let w1_rows = ref [] in
        let digests =
          Array.map
            (fun q ->
              match query q with
              | Some rs ->
                  if q.wq_id = "W1" && !w1_rows = [] then w1_rows := rs.rows;
                  digest rs
              | None -> 0)
            pool
        in
        let m = Array.length pool in
        let last = ref (Ok { Nsql_sql.Executor.cols = []; rows = [] }) in
        let after i =
          let q = pool.(i mod m) in
          match !last with
          | Ok rs ->
              let n = List.length rs.Nsql_sql.Executor.rows in
              if n <> q.wq_rows then note "%s returned %d rows, expected %d" q.wq_id n q.wq_rows;
              if digest rs <> digests.(i mod m) then
                note "%s: timed result differs from the warm-up result" q.wq_id
          | Error e -> note "%s failed: %s" q.wq_id (Errors.to_string e)
        in
        let run () =
          timed_ops (N.sim node) (passes * m) ~after (fun i ->
              last := N.query s pool.(i mod m).wq_sql;
              Result.is_ok !last)
        in
        let schema = (ok_or "catalog" (N.Catalog.find (N.catalog node) "tenktup1")).N.Catalog.t_schema in
        {
          node;
          run;
          check =
            (fun () ->
              match List.rev !problems with [] -> Ok () | p :: _ -> Error p);
          corpus =
            (fun () ->
              {
                sql = Array.to_list (Array.map (fun q -> q.wq_sql) pool);
                sql_node = node;
                row_schema = schema;
                row_images = List.map (Row.encode schema) !w1_rows;
                tree_keys = rows;
              });
        });
  }

(* --- contended transfers ---------------------------------------------------- *)

let xfer_terminals = 8
let xfer_accounts = 16

(* A growable log of (host ns, simulated us) at each commit. *)
type commits = { mutable h : float array; mutable s : float array; mutable n : int }

let push c h s =
  if c.n = Array.length c.h then begin
    let grow a = Array.append a (Array.make (Array.length a) 0.) in
    c.h <- grow c.h;
    c.s <- grow c.s
  end;
  c.h.(c.n) <- h;
  c.s.(c.n) <- s;
  c.n <- c.n + 1

let xfer_contend =
  {
    name = "xfer_contend";
    why =
      "8 terminals crossing transfers on 16 hot accounts with DP lock \
       waits: wait queues, deadlock detection, abort, undo and retry";
    prepare =
      (fun ~seed sc ->
        let target = scaled sc.ops 30_000 ~min:200 in
        let config = Config.v ~dp_lock_wait:true ~lock_wait_timeout_us:150_000. () in
        let node = N.create_node ~config ~volumes:2 () in
        let db = ok_or "setup_transfer" (Debitcredit.setup_transfer node ~accounts:xfer_accounts) in
        let sim = N.sim node in
        let failed = ref 0 and committed = ref 0 and retries = ref 0 in
        (* Terminals log off after a seeded number of transfers each, and a
           new burst starts; the seed has nothing else to vary, since
           run_transfers derives every transfer from (terminal, sequence). *)
        let r = rng ~seed ~stream:1 in
        let burst ?on_commit () =
          let k = 16 + rand r 33 in
          let rep =
            Debitcredit.run_transfers ?on_commit db ~terminals:xfer_terminals
              ~txs_per_terminal:k ()
          in
          failed := !failed + rep.x_failed;
          committed := !committed + rep.x_committed;
          retries := !retries + rep.x_retries;
          rep.x_committed
        in
        (* warm-up: about 2% of the loop, in whole bursts *)
        let warm = ref 0 in
        while !warm < target / 50 do
          warm := !warm + burst ()
        done;
        let run () =
          let c = { h = Array.make 1024 0.; s = Array.make 1024 0.; n = 0 } in
          let on_commit ~src:_ ~dst:_ ~delta:_ =
            push c (float_of_int (now_ns ())) (Sim.now sim)
          in
          let f0 = !failed and c0 = !committed and r0 = !retries in
          let s0 = Sim.now sim and h0 = now_ns () in
          push c (float_of_int h0) s0;
          let done_ = ref 0 in
          while !done_ < target do
            done_ := !done_ + burst ~on_commit ()
          done;
          let host_ns = float_of_int (now_ns () - h0) in
          (* terminals interleave, so per-transfer latency is read over
             windows of one commit per terminal: with T terminals always
             busy, Little's law makes the time of T consecutive commits
             the mean transfer latency in that window, and its host time
             over T the host cost per commit *)
          let w = xfer_terminals in
          let nw = max 0 (c.n - w) in
          {
            ops = !committed - c0;
            failed = !failed - f0;
            host_ns;
            sim_us = Sim.now sim -. s0;
            lat_host = Array.init nw (fun i -> (c.h.(i + w) -. c.h.(i)) /. float_of_int w);
            lat_sim = Array.init nw (fun i -> c.s.(i + w) -. c.s.(i));
            committed = !committed - c0;
            retries = !retries - r0;
          }
        in
        {
          node;
          run;
          check =
            (fun () ->
              match Debitcredit.transfer_balance_sum db with
              | Error e -> Error ("transfer_balance_sum: " ^ Errors.to_string e)
              | Ok sum ->
                  let want = float_of_int xfer_accounts *. 1000. in
                  check_all
                    [
                      (sum = want, Printf.sprintf "balance sum %.2f, expected %.2f" sum want);
                      (!failed = 0, Printf.sprintf "%d transfers abandoned" !failed);
                    ]);
          corpus =
            (fun () ->
              (* no SQL reaches the requester here; the SQL probes time
                 DebitCredit's statements on a small side node instead *)
              let sql_node, d = dc_setup ~accounts:16 ~tellers:4 ~branches:2 () in
              let r = rng ~seed ~stream:9 in
              let params = List.init 32 (fun _ -> dc_params r ~accounts:16) in
              { (dc_corpus sql_node d params ()) with tree_keys = xfer_accounts });
        });
  }

(* --- mixed reads and writes at queue depth 8 -------------------------------- *)

let report_span = 2_000

let mixed_d8 =
  {
    name = "mixed_d8";
    why =
      "DebitCredit on 60k accounts (3.5x the cache) with a range report \
       every 10th op at disk queue depth 8: writes beside prefetch";
    prepare =
      (fun ~seed sc ->
        let accounts = scaled sc.data 60_000 ~min:600 in
        let tellers = scaled sc.data 1_000 ~min:10 in
        let branches = scaled sc.data 100 ~min:1 in
        let span = scaled sc.data report_span ~min:20 in
        let n = scaled sc.ops 3_500 ~min:50 in
        let config = Config.v ~disk_queue_depth:8 () in
        let node, d = dc_setup ~config ~accounts ~tellers ~branches () in
        (* the benchmark's own copy of every balance, to check reports *)
        let mirror = Array.make accounts 1000. in
        let tx p =
          let ok = dc_tx d p in
          if ok then mirror.(fst p) <- mirror.(fst p) +. snd p;
          ok
        in
        let warm = rng ~seed ~stream:1 in
        for _ = 1 to max 1 (n / 50) do
          ignore (tx (dc_params warm ~accounts))
        done;
        let r = rng ~seed ~stream:2 in
        let is_report i = i mod 10 = 9 in
        let ops =
          Array.init n (fun i ->
              if is_report i then `Report (rand r (accounts - span + 1))
              else `Tx (dc_params r ~accounts))
        in
        let report_sql lo =
          Printf.sprintf
            "SELECT bid, COUNT(*), SUM(balance) FROM account WHERE aid >= %d AND aid < \
             %d GROUP BY bid"
            lo (lo + span)
        in
        let problems = ref [] in
        let check_report lo (rs : Nsql_sql.Executor.rowset) =
          let want = Hashtbl.create 128 in
          for aid = lo to lo + span - 1 do
            let bid = aid mod branches in
            let c, s = Option.value (Hashtbl.find_opt want bid) ~default:(0, 0.) in
            Hashtbl.replace want bid (c + 1, s +. mirror.(aid))
          done;
          let good =
            List.length rs.rows = Hashtbl.length want
            && List.for_all
                 (function
                   | [| Row.Vint bid; Row.Vint c; Row.Vfloat s |] ->
                       Hashtbl.find_opt want bid = Some (c, s)
                   | _ -> false)
                 rs.rows
          in
          if not good then
            problems := Printf.sprintf "report at aid %d disagrees with the balances" lo :: !problems
        in
        let last = ref None in
        let after i =
          match (ops.(i), !last) with
          | `Report lo, Some rs -> check_report lo rs
          | _ -> ()
        in
        let run () =
          timed_ops (N.sim node) n
            ~counted:(fun i -> not (is_report i))
            ~after
            (fun i ->
              last := None;
              match ops.(i) with
              | `Tx p -> tx p
              | `Report lo -> (
                  match N.query d.session (report_sql lo) with
                  | Ok rs ->
                      last := Some rs;
                      true
                  | Error _ -> false))
        in
        let params =
          Array.to_list ops |> List.filter_map (function `Tx p -> Some p | `Report _ -> None)
        in
        let reports =
          Array.to_list ops |> List.filter_map (function `Report lo -> Some lo | `Tx _ -> None)
        in
        {
          node;
          run;
          check =
            (fun () ->
              match !problems with
              | p :: _ -> Error p
              | [] -> dc_check d ());
          corpus =
            (fun () ->
              let c = dc_corpus node d (take 32 params) () in
              { c with sql = c.sql @ List.map report_sql (take 4 reports) });
        });
  }

let all = [ dc_oltp; wisc_scan; xfer_contend; mixed_d8 ]

let find name = List.find_opt (fun w -> w.name = name) all
