module N = Nsql_core.Nonstop_sql
module Row = Nsql_row.Row
module Fs = Nsql_fs.Fs
module Dp_msg = Nsql_dp.Dp_msg
module Enscribe = Nsql_enscribe.Enscribe
module Tmf = Nsql_tmf.Tmf
module Errors = Nsql_util.Errors

open Errors

(* 100-byte filler keeps record sizes in the era-typical range *)
let filler = String.make 96 'f'

(* the transaction's statements, prepared once by [setup_sql] *)
type sql_db = {
  s_tellers : int;
  s_branches : int;
  mutable s_hid : int;
  s_begin : N.prepared;
  s_commit : N.prepared;
  s_rollback : N.prepared;
  s_account : N.prepared;
  s_teller : N.prepared;
  s_branch : N.prepared;
  s_history : N.prepared;
}

let setup_sql node ~accounts ~tellers ~branches =
  let s = N.session node in
  let ddl =
    [
      "CREATE TABLE account (aid INT PRIMARY KEY, bid INT NOT NULL, balance \
       FLOAT NOT NULL, filler CHAR(96) NOT NULL)";
      "CREATE TABLE teller (tid INT PRIMARY KEY, bid INT NOT NULL, balance \
       FLOAT NOT NULL, filler CHAR(96) NOT NULL)";
      "CREATE TABLE branch (bid INT PRIMARY KEY, balance FLOAT NOT NULL, \
       filler CHAR(96) NOT NULL)";
      "CREATE TABLE history (hid INT PRIMARY KEY, aid INT NOT NULL, tid INT \
       NOT NULL, bid INT NOT NULL, delta FLOAT NOT NULL, filler CHAR(96) NOT \
       NULL)";
    ]
  in
  let* () =
    Errors.list_iter
      (fun sql ->
        let* _ = N.exec s sql in
        Ok ())
      ddl
  in
  (* load through blocked inserts (programmatic; load is unmeasured) *)
  let load table rows mk =
    let* tbl = N.Catalog.find (N.catalog node) table in
    Tmf.run (N.tmf node) (fun tx ->
        let buf =
          Fs.open_insert_buffer (N.fs node) tbl.N.Catalog.t_file ~tx
            ~capacity:100
        in
        let rec go i =
          if i >= rows then Fs.flush_insert_buffer (N.fs node) buf
          else
            let* () = Fs.buffered_insert (N.fs node) buf (mk i) in
            go (i + 1)
        in
        go 0)
  in
  let* () =
    load "account" accounts (fun i ->
        [| Row.Vint i; Row.Vint (i mod branches); Row.Vfloat 1000.; Row.Vstr filler |])
  in
  let* () =
    load "teller" tellers (fun i ->
        [| Row.Vint i; Row.Vint (i mod branches); Row.Vfloat 1000.; Row.Vstr filler |])
  in
  let* () =
    load "branch" branches (fun i ->
        [| Row.Vint i; Row.Vfloat 1000.; Row.Vstr filler |])
  in
  let* s_begin = N.prepare "BEGIN WORK" in
  let* s_commit = N.prepare "COMMIT WORK" in
  let* s_rollback = N.prepare "ROLLBACK WORK" in
  let* s_account = N.prepare "UPDATE account SET balance = balance + ? WHERE aid = ?" in
  let* s_teller = N.prepare "UPDATE teller SET balance = balance + ? WHERE tid = ?" in
  let* s_branch = N.prepare "UPDATE branch SET balance = balance + ? WHERE bid = ?" in
  let* s_history =
    N.prepare (Printf.sprintf "INSERT INTO history VALUES (?, ?, ?, ?, ?, '%s')" filler)
  in
  Ok
    {
      s_tellers = tellers;
      s_branches = branches;
      s_hid = 0;
      s_begin;
      s_commit;
      s_rollback;
      s_account;
      s_teller;
      s_branch;
      s_history;
    }

let run_sql_tx db s ~aid ~delta =
  let tid = aid mod db.s_tellers in
  let bid = tid mod db.s_branches in
  let hid = db.s_hid in
  db.s_hid <- hid + 1;
  (* the delta the statement text carried when it was formatted with %f *)
  let d = Row.Vfloat (float_of_string (Printf.sprintf "%f" delta)) in
  let stmts =
    [
      (db.s_account, [| d; Row.Vint aid |]);
      (db.s_teller, [| d; Row.Vint tid |]);
      (db.s_branch, [| d; Row.Vint bid |]);
      (db.s_history, [| Row.Vint hid; Row.Vint aid; Row.Vint tid; Row.Vint bid; d |]);
    ]
  in
  let* _ = N.execute s db.s_begin [||] in
  let rec go = function
    | [] ->
        let* _ = N.execute s db.s_commit [||] in
        Ok ()
    | (p, values) :: rest -> (
        match N.execute s p values with
        | Ok _ -> go rest
        | Error e ->
            let* _ = N.execute s db.s_rollback [||] in
            Error e)
  in
  go stmts

let sql_balances db s =
  ignore db;
  let* rs = N.query s "SELECT SUM(balance) FROM account" in
  let* hist = N.query s "SELECT COUNT(*) FROM history" in
  match (rs.Nsql_sql.Executor.rows, hist.Nsql_sql.Executor.rows) with
  | [ [| Row.Vfloat sum |] ], [ [| Row.Vint n |] ] -> Ok (sum, n)
  | _ -> fail (Errors.Internal "unexpected balance query shape")

(* --- the ENSCRIBE implementation ------------------------------------------ *)

(* the application's own record layouts, encoded with the shared codec *)
let account_schema =
  Row.schema
    [|
      Row.column "aid" Row.T_int;
      Row.column "bid" Row.T_int;
      Row.column "balance" Row.T_float;
      Row.column "filler" (Row.T_char 96);
    |]
    ~key:[ "aid" ]

let branch_schema =
  Row.schema
    [|
      Row.column "bid" Row.T_int;
      Row.column "balance" Row.T_float;
      Row.column "filler" (Row.T_char 96);
    |]
    ~key:[ "bid" ]

let history_schema =
  Row.schema
    [|
      Row.column "hid" Row.T_int;
      Row.column "aid" Row.T_int;
      Row.column "tid" Row.T_int;
      Row.column "bid" Row.T_int;
      Row.column "delta" Row.T_float;
      Row.column "filler" (Row.T_char 96);
    |]
    ~key:[ "hid" ]

type enscribe_db = {
  e_account : Enscribe.handle;
  e_teller : Enscribe.handle;
  e_branch : Enscribe.handle;
  e_history : Enscribe.handle;
  e_accounts : int;
  e_tellers : int;
  e_branches : int;
  mutable e_hid : int;
}

let key_int schema i =
  match Row.key_of_values schema [ Row.Vint i ] with
  | Ok k -> k
  | Error e -> failwith (Errors.to_string e)

let setup_enscribe node ~accounts ~tellers ~branches =
  let fs = N.fs node in
  let dps = N.dps node in
  let dp i = dps.(i mod Array.length dps) in
  let mk name kind dpi =
    Fs.create_enscribe_file fs ~fname:name ~kind
      ~partitions:[ Fs.{ ps_lo = ""; ps_dp = dp dpi } ]
  in
  let* f_account = mk "ens_account" Dp_msg.K_key_sequenced 0 in
  let* f_teller = mk "ens_teller" Dp_msg.K_key_sequenced 1 in
  let* f_branch = mk "ens_branch" Dp_msg.K_key_sequenced 1 in
  let* f_history = mk "ens_history" Dp_msg.K_entry_sequenced 0 in
  let db =
    {
      e_account = Enscribe.open_file fs f_account ~sbb:false;
      e_teller = Enscribe.open_file fs f_teller ~sbb:false;
      e_branch = Enscribe.open_file fs f_branch ~sbb:false;
      e_history = Enscribe.open_file fs f_history ~sbb:false;
      e_accounts = accounts;
      e_tellers = tellers;
      e_branches = branches;
      e_hid = 0;
    }
  in
  (* load with record-at-a-time writes, the only interface ENSCRIBE has *)
  Tmf.run (N.tmf node) (fun tx ->
      let rec load_file n handle schema mk i =
        if i >= n then Ok ()
        else
          let row = mk i in
          let* () =
            Enscribe.write handle ~tx ~key:(Row.key_of_row schema row)
              ~record:(Row.encode schema row)
          in
          load_file n handle schema mk (i + 1)
      in
      let* () =
        load_file accounts db.e_account account_schema
          (fun i ->
            [| Row.Vint i; Row.Vint (i mod branches); Row.Vfloat 1000.; Row.Vstr filler |])
          0
      in
      let* () =
        load_file tellers db.e_teller account_schema
          (fun i ->
            [| Row.Vint i; Row.Vint (i mod branches); Row.Vfloat 1000.; Row.Vstr filler |])
          0
      in
      load_file branches db.e_branch branch_schema
        (fun i -> [| Row.Vint i; Row.Vfloat 1000.; Row.Vstr filler |])
        0)
  |> fun r ->
  match r with Ok () -> Ok db | Error e -> Error e

(* read-modify-rewrite of one float field: the message pattern the paper's
   update-expression delegation eliminates *)
let bump_balance handle schema ~tx ~key ~field ~delta =
  let* record = Enscribe.read handle ~tx ~key ~lock:Dp_msg.L_exclusive in
  let row = Row.decode_exn schema record in
  (match row.(field) with
  | Row.Vfloat b -> row.(field) <- Row.Vfloat (b +. delta)
  | _ -> ());
  Enscribe.rewrite handle ~tx ~key ~record:(Row.encode schema row)

let run_enscribe_tx node db ~aid ~delta =
  let tid = aid mod db.e_tellers in
  let bid = tid mod db.e_branches in
  let hid = db.e_hid in
  db.e_hid <- hid + 1;
  Tmf.run (N.tmf node) (fun tx ->
      let* () =
        bump_balance db.e_account account_schema ~tx
          ~key:(key_int account_schema aid) ~field:2 ~delta
      in
      let* () =
        bump_balance db.e_teller account_schema ~tx
          ~key:(key_int account_schema tid) ~field:2 ~delta
      in
      let* () =
        bump_balance db.e_branch branch_schema ~tx
          ~key:(key_int branch_schema bid) ~field:1 ~delta
      in
      let hrow =
        [| Row.Vint hid; Row.Vint aid; Row.Vint tid; Row.Vint bid;
           Row.Vfloat delta; Row.Vstr filler |]
      in
      (* history is entry-sequenced: insert at EOF *)
      Enscribe.write db.e_history ~tx ~key:""
        ~record:(Row.encode history_schema hrow))

let enscribe_balances node db =
  Tmf.run (N.tmf node) (fun tx ->
      Enscribe.keyposition db.e_account ~key:"";
      let rec sum acc =
        let* entry = Enscribe.readnext db.e_account ~tx ~lock:Dp_msg.L_none in
        match entry with
        | None -> Ok acc
        | Some (_, record) -> (
            let row = Row.decode_exn account_schema record in
            match row.(2) with
            | Row.Vfloat b -> sum (acc +. b)
            | _ -> sum acc)
      in
      let* total = sum 0. in
      Ok (total, db.e_hid))

(* --- multi-terminal contention (transfer) driver --------------------------- *)

module Msg = Nsql_msg.Msg
module Dp = Nsql_dp.Dp
module Sim = Nsql_sim.Sim
module Moncore = Nsql_sim.Moncore

(* DebitCredit proper cannot deadlock: every terminal touches account,
   teller, branch in the same order, and reads take the lock it will
   write under. Contended runs therefore use a *transfer* variant — move
   [delta] from a source account to a destination account (read-modify-
   rewrite both, source first) and append a history entry. Terminals pick
   crossed source/destination pairs from a small hot set, so two sessions
   regularly acquire the same two records in opposite orders: a genuine
   wait-for cycle for the Disk Process to detect. Every committed
   transfer conserves the sum of account balances, which gives runs an
   end-of-run invariant independent of interleaving. *)

type transfer_db = {
  c_node : N.node;
  c_adp : Dp.t;  (** volume hosting the hot account file *)
  c_hdp : Dp.t;  (** volume hosting the history file *)
  c_afile : int;
  c_hfile : int;
  c_accounts : int;
}

let setup_transfer node ~accounts =
  if accounts < 2 then invalid_arg "setup_transfer: accounts < 2";
  let fs = N.fs node in
  let dps = N.dps node in
  let adp = dps.(0) and hdp = dps.(1 mod Array.length dps) in
  let* f_account =
    Fs.create_enscribe_file fs ~fname:"xfer_account"
      ~kind:Dp_msg.K_key_sequenced
      ~partitions:[ Fs.{ ps_lo = ""; ps_dp = adp } ]
  in
  let* _f_history =
    Fs.create_enscribe_file fs ~fname:"xfer_history"
      ~kind:Dp_msg.K_entry_sequenced
      ~partitions:[ Fs.{ ps_lo = ""; ps_dp = hdp } ]
  in
  let* () =
    Tmf.run (N.tmf node) (fun tx ->
        let rec go i =
          if i >= accounts then Ok ()
          else
            let row =
              [| Row.Vint i; Row.Vint 0; Row.Vfloat 1000.; Row.Vstr filler |]
            in
            let* () =
              Fs.insert fs f_account ~tx
                ~key:(key_int account_schema i)
                ~record:(Row.encode account_schema row)
            in
            go (i + 1)
        in
        go 0)
  in
  (* the Disk Process knows each single-partition file as "<fname>#p0" *)
  let fid dp name =
    match Dp.file_id dp (name ^ "#p0") with
    | Some id -> Ok id
    | None -> fail (Errors.Internal ("setup_transfer: missing file " ^ name))
  in
  let* c_afile = fid adp "xfer_account" in
  let* c_hfile = fid hdp "xfer_history" in
  Ok { c_node = node; c_adp = adp; c_hdp = hdp; c_afile; c_hfile;
       c_accounts = accounts }

type transfer_report = {
  x_committed : int;
  x_deadlock_aborts : int;
  x_timeout_aborts : int;
  x_retries : int;
  x_failed : int;
}

(* a terminal is an explicit state machine: at most one completion
   outstanding, advanced by the driver loop when it arrives — possibly long
   after it was issued, if the request sat on a lock wait queue or the
   commit waited for its group's flush *)
type phase =
  | P_read_src
  | P_write_src
  | P_read_dst
  | P_write_dst
  | P_append
  | P_commit

type terminal = {
  t_id : int;
  mutable t_done : int;  (** parameter sets finished (committed or given up) *)
  mutable t_seq : int;  (** parameter-set counter, drives the arithmetic *)
  mutable t_tx : int;
  mutable t_phase : phase;
  mutable t_pending : Msg.completion option;
  mutable t_src : int;
  mutable t_dst : int;
  mutable t_delta : float;
  mutable t_attempt : int;  (** aborts of the current parameter set *)
  mutable t_ready_at : float;  (** earliest simulated time to (re)start *)
  mutable t_started_at : float;  (** first attempt of the parameter set *)
}

let run_transfers ?(max_retries = 25) ?(backoff_us = 300.) ?on_commit db
    ~terminals ~txs_per_terminal () =
  if terminals < 1 then invalid_arg "run_transfers: terminals < 1";
  let node = db.c_node in
  let sim = N.sim node and msys = N.msys node and tmf = N.tmf node in
  let from = N.app_processor node in
  let committed = ref 0 and deadlocks = ref 0 and timeouts = ref 0 in
  let retries = ref 0 and failures = ref 0 in
  let send_dp dp req =
    Msg.send_nowait msys ~from ~tag:(Dp_msg.tag req) (Dp.endpoint dp)
      (Dp_msg.encode_request req)
  in
  let hot = db.c_accounts in
  (* deterministic crossed pairs: adjacent hot accounts, direction
     alternating with terminal parity, so concurrent terminals regularly
     lock the same pair in opposite orders *)
  let params t =
    let a = (t.t_id + t.t_seq) mod hot in
    let b = (a + 1) mod hot in
    let src, dst = if t.t_id land 1 = 0 then (a, b) else (b, a) in
    t.t_src <- src;
    t.t_dst <- dst;
    t.t_delta <- float_of_int (1 + ((t.t_seq * 7) + (t.t_id * 3)) mod 50)
  in
  let bump record delta =
    let row = Row.decode_exn account_schema record in
    (match row.(2) with
    | Row.Vfloat b -> row.(2) <- Row.Vfloat (b +. delta)
    | _ -> ());
    Row.encode account_schema row
  in
  let history_record t =
    Row.encode history_schema
      [| Row.Vint ((t.t_id * 1_000_000) + t.t_seq); Row.Vint t.t_src;
         Row.Vint 0; Row.Vint t.t_dst; Row.Vfloat t.t_delta; Row.Vstr filler |]
  in
  let read_account t aid =
    send_dp db.c_adp
      (Dp_msg.R_read
         { file = db.c_afile; tx = t.t_tx; key = key_int account_schema aid;
           lock = Dp_msg.L_exclusive })
  in
  let write_account t aid record =
    send_dp db.c_adp
      (Dp_msg.R_update
         { file = db.c_afile; tx = t.t_tx; key = key_int account_schema aid;
           record })
  in
  let start t =
    if t.t_attempt = 0 then begin
      params t;
      t.t_started_at <- Sim.now sim
    end;
    t.t_tx <- Tmf.begin_tx tmf;
    t.t_phase <- P_read_src;
    t.t_pending <- Some (read_account t t.t_src)
  in
  (* terminal-perceived transfer latency, retries and backoffs included *)
  let observe_transfer t =
    Moncore.observe (Sim.moncore sim) "transfer" (Sim.now sim -. t.t_started_at)
  in
  let give_up t =
    incr failures;
    observe_transfer t;
    t.t_done <- t.t_done + 1;
    t.t_seq <- t.t_seq + 1;
    t.t_attempt <- 0;
    t.t_ready_at <- Sim.now sim
  in
  (* after a failed attempt whose transaction has ended: back off for a
     bounded, terminal-staggered time before retrying the same parameters,
     or give the parameter set up *)
  let settle t e =
    t.t_tx <- 0;
    let retryable =
      match e with
      | Errors.Deadlock _ ->
          incr deadlocks;
          true
      | Errors.Lock_timeout _ ->
          incr timeouts;
          true
      | _ -> false
    in
    if not retryable then give_up t
    else if t.t_attempt >= max_retries then give_up t
    else begin
      incr retries;
      t.t_attempt <- t.t_attempt + 1;
      t.t_ready_at <-
        Sim.now sim
        +. (backoff_us *. (2. ** float_of_int (min t.t_attempt 6)))
        +. (float_of_int t.t_id *. backoff_us /. 4.)
    end
  in
  (* the session-side half of victim abort: release our locks (waking the
     competitors we deadlocked with), then settle *)
  let abort_terminal t e =
    (match Tmf.abort tmf ~tx:t.t_tx with
    | Ok () -> ()
    | Error e' -> Errors.fatal ("transfer abort: " ^ Errors.to_string e'));
    settle t e
  in
  let committed_terminal t =
    t.t_tx <- 0;
    incr committed;
    observe_transfer t;
    (match on_commit with
    | Some f -> f ~src:t.t_src ~dst:t.t_dst ~delta:t.t_delta
    | None -> ());
    t.t_done <- t.t_done + 1;
    t.t_seq <- t.t_seq + 1;
    t.t_attempt <- 0;
    t.t_ready_at <- Sim.now sim
  in
  (* the nowait commit: COMMIT is written and registered with the trail
     under a clock capture (a flush it starts at once is the audit
     volume's work, not this terminal's), and the completion, which no
     message carries, is resolved by the flush that makes it durable. The
     terminal keeps its locks until the driver awaits it. *)
  let ok_reply = Dp_msg.encode_reply Dp_msg.Rp_ok in
  let commit_nowait t =
    let d, c = Msg.local msys in
    let reply payload () = Msg.resolve msys d payload in
    (match
       fst
         (Sim.capture sim (fun () ->
              Tmf.request_commit tmf ~tx:t.t_tx ~on_durable:(reply ok_reply)))
     with
    | Ok (Some _) -> ()
    | Ok None -> reply ok_reply ()
    | Error e -> reply (Dp_msg.encode_reply (Dp_msg.Rp_error e)) ());
    t.t_phase <- P_commit;
    t.t_pending <- Some c
  in
  let advance t reply =
    match (t.t_phase, (reply : Dp_msg.reply)) with
    (* a failed commit request has already ended its transaction *)
    | P_commit, Dp_msg.Rp_error e -> settle t e
    | _, Dp_msg.Rp_error e -> abort_terminal t e
    | P_read_src, Dp_msg.Rp_record { record; _ } ->
        t.t_phase <- P_write_src;
        t.t_pending <- Some (write_account t t.t_src (bump record (-.t.t_delta)))
    | P_write_src, Dp_msg.Rp_ok ->
        t.t_phase <- P_read_dst;
        t.t_pending <- Some (read_account t t.t_dst)
    | P_read_dst, Dp_msg.Rp_record { record; _ } ->
        t.t_phase <- P_write_dst;
        t.t_pending <- Some (write_account t t.t_dst (bump record t.t_delta))
    | P_write_dst, Dp_msg.Rp_ok ->
        t.t_phase <- P_append;
        t.t_pending <-
          Some
            (send_dp db.c_hdp
               (Dp_msg.R_entry_append
                  { file = db.c_hfile; tx = t.t_tx; record = history_record t }))
    | P_append, Dp_msg.Rp_slot _ -> commit_nowait t
    | P_commit, Dp_msg.Rp_ok ->
        Tmf.finish_commit tmf ~tx:t.t_tx;
        committed_terminal t
    | _ -> Errors.fatal "transfer driver: reply does not match phase"
  in
  let terms =
    Array.init terminals (fun i ->
        { t_id = i; t_done = 0; t_seq = 0; t_tx = 0; t_phase = P_read_src;
          t_pending = None; t_src = 0; t_dst = 0; t_delta = 0.;
          t_attempt = 0; t_ready_at = 0.; t_started_at = 0. })
  in
  let undone t = t.t_done < txs_per_terminal in
  let rec loop () =
    (* start every idle, ready terminal, in terminal order *)
    Array.iter
      (fun t ->
        if undone t && t.t_pending = None && t.t_ready_at <= Sim.now sim then
          start t)
      terms;
    let pend =
      Array.to_list terms |> List.filter (fun t -> t.t_pending <> None)
    in
    if pend <> [] then begin
      let cs = List.map (fun t -> Option.get t.t_pending) pend in
      let which, payload = Msg.await_any msys cs in
      let t = List.nth pend which in
      t.t_pending <- None;
      (match Dp_msg.decode_reply payload with
      | Ok reply -> advance t reply
      | Error e ->
          Errors.fatal
            ("transfer driver: " ^ Dp_msg.decode_error_to_string e));
      loop ()
    end
    else if Array.exists undone terms then begin
      (* everyone unfinished is backing off; jump to the earliest restart *)
      let next =
        Array.fold_left
          (fun acc t -> if undone t then min acc t.t_ready_at else acc)
          infinity terms
      in
      Sim.wait_until sim ~cat:Moncore.C_await next;
      loop ()
    end
  in
  loop ();
  {
    x_committed = !committed;
    x_deadlock_aborts = !deadlocks;
    x_timeout_aborts = !timeouts;
    x_retries = !retries;
    x_failed = !failures;
  }

(* per-account balances, read lock-free outside any transaction — the
   post-run state an oracle compares against *)
let transfer_balances db =
  let node = db.c_node in
  let msys = N.msys node and from = N.app_processor node in
  let rec go i acc =
    if i >= db.c_accounts then Ok (List.rev acc)
    else
      let req =
        Dp_msg.R_read
          { file = db.c_afile; tx = 0; key = key_int account_schema i;
            lock = Dp_msg.L_none }
      in
      let payload =
        Msg.send msys ~from ~tag:(Dp_msg.tag req) (Dp.endpoint db.c_adp)
          (Dp_msg.encode_request req)
      in
      match Dp_msg.decode_reply payload with
      | Ok (Dp_msg.Rp_record { record; _ }) -> (
          match (Row.decode_exn account_schema record).(2) with
          | Row.Vfloat b -> go (i + 1) ((i, b) :: acc)
          | _ -> fail (Errors.Internal "transfer: non-float balance"))
      | Ok (Dp_msg.Rp_error e) -> Error e
      | Ok _ -> fail (Errors.Internal "unexpected reply to READ")
      | Error e -> fail (Errors.Internal (Dp_msg.decode_error_to_string e))
  in
  go 0 []

(* sum of account balances: invariant under every committed transfer *)
let transfer_balance_sum db =
  let* balances = transfer_balances db in
  Ok (List.fold_left (fun acc (_, b) -> acc +. b) 0. balances)
