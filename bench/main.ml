(* The experiment harness: regenerates every quantitative claim and figure
   of the paper (experiments E1-E24 and the A1 ablation). Every number it
   prints is a simulation statistic, so a run repeats bit for bit.
   Host-time costs are measured by the repository benchmark (benchmark/).

   Every experiment is one spec: an id, a title and the paper's claim,
   which the runner prints as its heading, and a [run] that reports its
   tables, text blocks and headline metrics through [table], [text] and
   [emit]. Only the runner formats them: it prints them as markdown,
   writes --json, and with --doc writes the same markdown into the
   experiment's generated block of a file (EXPERIMENTS.md). World setup,
   measurement and the --trace/--monitor observers are shared code.

   Run with: dune exec bench/main.exe
   Results are discussed against the paper in EXPERIMENTS.md. *)

module N = Nsql_core.Nonstop_sql
module Sim = Nsql_sim.Sim
module Stats = Nsql_sim.Stats
module Config = Nsql_sim.Config
module Disk = Nsql_disk.Disk
module Cache = Nsql_cache.Cache
module Row = Nsql_row.Row
module Expr = Nsql_expr.Expr
module Fs = Nsql_fs.Fs
module Dp = Nsql_dp.Dp
module Dp_msg = Nsql_dp.Dp_msg
module Tmf = Nsql_tmf.Tmf
module Trail = Nsql_audit.Trail
module Enscribe = Nsql_enscribe.Enscribe
module Keycode = Nsql_util.Keycode
module Errors = Nsql_util.Errors
module Wisconsin = Nsql_workload.Wisconsin
module Debitcredit = Nsql_workload.Debitcredit
module Trace = Nsql_trace.Trace
module Tracer = Nsql_sim.Tracer
module Moncore = Nsql_sim.Moncore
module Hist = Nsql_sim.Hist
module Monitor = Nsql_monitor.Monitor

let get_ok = Errors.get_ok
let printf = Format.printf
let fpr = Printf.sprintf

(* --- experiment specs ---------------------------------------------- *)

type experiment = {
  id : string;
  title : string;
  paper : string;  (** the claim under test *)
  run : unit -> unit;
}

let experiment id title paper run = { id; title; paper; run }

(* --- what an experiment reports ------------------------------------ *)

(* a table (an optional caption, a header and rows of cells) or a block
   of preformatted text, in the order the experiment reports them *)
type part =
  | Table of { caption : string; header : string list; rows : string list list }
  | Text of string

(* the running experiment's parts and headline metrics, newest first *)
let parts : part list ref = ref []
let metrics : (string * float) list ref = ref []

(* a table with one row of cells [row_of x] per item [x] *)
let table ?(caption = "") header row_of items =
  parts := Table { caption; header; rows = List.map row_of items } :: !parts

let rstrip l =
  let n = ref (String.length l) in
  while !n > 0 && l.[!n - 1] = ' ' do decr n done;
  String.sub l 0 !n

(* preformatted text, kept without trailing blanks *)
let text s =
  let lines = List.map rstrip (String.split_on_char '\n' (String.trim s)) in
  parts := Text (String.concat "\n" lines) :: !parts

(* a headline metric: printed after the experiment's tables, written to
   --json, and the last table of its generated doc block *)
let emit metric value = metrics := (metric, value) :: !metrics
let emit_count metric n = emit metric (float_of_int n)

let num = string_of_int
let fixed digits x = fpr "%.*f" digits x
let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

(* a count ratio; the denominator is clamped to 1 so a zero count cannot
   make it infinite *)
let ratio a b = float_of_int a /. float_of_int (max 1 b)

(* --- formatting ----------------------------------------------------- *)

(* a table in markdown, each column as wide as its widest cell and
   right-aligned when every data cell starts with a digit *)
let render_table ~caption ~header ~rows =
  let digit c = c <> "" && c.[0] >= '0' && c.[0] <= '9' in
  let layout =
    List.mapi
      (fun i h ->
        let cells = List.map (fun r -> List.nth r i) rows in
        let widest w c = max w (String.length c) in
        ( List.fold_left widest (String.length h) cells,
          cells <> [] && List.for_all digit cells ))
      header
  in
  let line cells =
    let padded =
      List.map2
        (fun c (w, right) ->
          let pad = String.make (w - String.length c) ' ' in
          if right then pad ^ c else c ^ pad)
        cells layout
    in
    "| " ^ String.concat " | " padded ^ " |"
  in
  let rule (w, right) = String.make (w + 1) '-' ^ if right then ":" else "-" in
  let rules = "|" ^ String.concat "|" (List.map rule layout) ^ "|" in
  (if caption = "" then [] else [ caption; "" ])
  @ (line header :: rules :: List.map line rows)
  |> String.concat "\n"

(* a metric value for reading: integral and large values in full, others
   to six significant digits *)
let value v =
  if Float.is_integer v then fpr "%.0f" v
  else if Float.abs v >= 1e5 then fpr "%.1f" v
  else fpr "%.6g" v

(* an experiment's parts followed by its metric table, as markdown
   separated by blank lines: what the harness prints and what --doc
   writes *)
let render (parts, metrics) =
  let part = function
    | Table { caption; header; rows } -> render_table ~caption ~header ~rows
    | Text s -> "```\n" ^ s ^ "\n```"
  in
  let rows = List.map (fun (m, v) -> [ m; value v ]) metrics in
  let metric_table =
    Table { caption = ""; header = [ "metric"; "value" ]; rows }
  in
  String.concat "\n\n" (List.map part (parts @ [ metric_table ]))

(* --- worlds and measurement ---------------------------------------- *)

(* a node holding one Wisconsin table, and a session on it *)
let wisconsin_node ?config ?(volumes = 1) ?remote_requester ?partitions
    ?(name = "t") rows =
  let node = N.create_node ?config ?remote_requester ~volumes () in
  get_ok ~ctx:"wisc" (Wisconsin.create node ~name ~rows ?partitions ());
  (node, N.session node)

(* a one-volume node with the single SQL table [ddl] creates *)
let sql_node ?config ddl =
  let node = N.create_node ?config ~volumes:1 () in
  let s = N.session node in
  ignore (N.exec_exn s ddl);
  (node, s)

(* a one-partition SQL file on the node's first volume *)
let create_file node ~fname ~schema ~indexes =
  get_ok ~ctx:"create"
    (Fs.create_file (N.fs node) ~fname ~schema
       ~partitions:[ Fs.{ ps_lo = ""; ps_dp = (N.dps node).(0) } ]
       ~indexes ())

(* the rowset a query returns *)
let query s sql =
  match N.exec_exn s sql with N.Rows rs -> rs | _ -> assert false

let table_of node name = get_ok ~ctx:"find" (N.Catalog.find (N.catalog node) name)

(* the contended DebitCredit transfer world of E20, E21, E23 and E24:
   conflicting requests park in the DP for up to 150 ms *)
let transfer_world ?disk_queue_depth ~accounts () =
  let config =
    Config.v ~dp_lock_wait:true ~lock_wait_timeout_us:150_000.
      ?disk_queue_depth ()
  in
  let node = N.create_node ~config ~volumes:2 () in
  let db = get_ok ~ctx:"transfer" (Debitcredit.setup_transfer node ~accounts) in
  (node, db)

(* run the transfer terminals: no transfer may fail, each one commits *)
let transfers ?on_commit db ~terminals ~txs_per_terminal =
  let rep =
    Debitcredit.run_transfers ?on_commit db ~terminals ~txs_per_terminal ()
  in
  assert (rep.Debitcredit.x_failed = 0);
  assert (rep.Debitcredit.x_committed = terminals * txs_per_terminal);
  rep

let balance_sum db =
  get_ok ~ctx:"balances" (Debitcredit.transfer_balance_sum db)

(* the simulated elapsed time of a fault-free transfer run *)
let transfer_run ~accounts ~terminals ~txs_per_terminal =
  let node, db = transfer_world ~accounts () in
  let t0 = Sim.now (N.sim node) in
  ignore (transfers db ~terminals ~txs_per_terminal);
  Sim.now (N.sim node) -. t0

(* the counter delta of [f 0] ... [f (n - 1)] on [node] *)
let measure_each node n f =
  snd
    (N.measure node (fun () ->
         for i = 0 to n - 1 do
           f i
         done))

(* [f]'s result, its counter delta and its simulated elapsed time *)
let timed node f =
  let t0 = Sim.now (N.sim node) in
  let r, delta = N.measure node f in
  (r, delta, Sim.now (N.sim node) -. t0)

(* run [f] as one TMF transaction on [node]; it must commit *)
let in_tx node f = get_ok ~ctx:"tx" (Tmf.run (N.tmf node) f)

(* [upto n f] runs [f 0] ... [f (n - 1)] in order, stopping at the first
   error *)
let upto n f = Errors.list_iter f (List.init n Fun.id)

(* insert rows [0, rows) of [row_of] into [file] in one transaction: one
   INSERT message per row or, given [capacity], a blocked insert buffer *)
let load node file ?capacity ~rows row_of =
  let fs = N.fs node in
  in_tx node (fun tx ->
      match capacity with
      | None -> upto rows (fun i -> Fs.insert_row fs file ~tx (row_of i))
      | Some capacity ->
          let buf = Fs.open_insert_buffer fs file ~tx ~capacity in
          let open Errors in
          let* () = upto rows (fun i -> Fs.buffered_insert fs buf (row_of i)) in
          Fs.flush_insert_buffer fs buf)

let key_of tbl k =
  get_ok ~ctx:"key" (Row.key_of_values tbl.N.Catalog.t_schema [ Row.Vint k ])

(* read-modify-write column 1 of keys [0, rows) of [tbl] to [source] in
   one transaction, the requester reading each record before rewriting
   it *)
let update_each_key node tbl ~rows source =
  in_tx node (fun tx ->
      upto rows (fun i ->
          Fs.update_row_via_key (N.fs node) tbl.N.Catalog.t_file ~tx
            ~key:(key_of tbl i)
            [ { Expr.target = 1; source } ]))

(* on a fresh Wisconsin node, drain a shared-locked full scan, which must
   return all [rows]: its counter delta and simulated elapsed time *)
let timed_scan ?config ?volumes ?partitions ?(access = Fs.A_vsbb)
    ?(proj = [| 0; 1 |]) rows =
  let node, _ = wisconsin_node ?config ?volumes ?partitions rows in
  let fs = N.fs node and tbl = table_of node "t" in
  let (), delta, elapsed =
    timed node (fun () ->
        in_tx node (fun tx ->
            let sc =
              Fs.open_scan fs tbl.N.Catalog.t_file ~tx ~access
                ~range:Expr.full_range ~proj ~lock:Dp_msg.L_shared ()
            in
            let rec drain k =
              match Fs.scan_next fs sc with
              | Ok (Some _) -> drain (k + 1)
              | Ok None ->
                  Fs.close_scan fs sc;
                  assert (k = rows);
                  Ok ()
              | Error _ as e -> e
            in
            drain 0))
  in
  (delta, elapsed)

(* --- observation ---------------------------------------------------- *)

(* spans [traced] consumed from worlds that --trace also exports *)
let kept_spans : (Tracer.t * Tracer.span list) list ref = ref []

(* [traced sim f] runs [f] with span collection on and returns its result
   with the spans it produced. Under --trace the world is traced from
   creation: the spans collected before [f] and those returned stay in
   the world's export, and tracing stays on afterwards *)
let traced sim f =
  let tr = Sim.tracer sim in
  let observed = Tracer.enabled tr in
  let before = Tracer.take tr in
  Tracer.set_enabled tr true;
  let r = f () in
  Tracer.set_enabled tr observed;
  let spans = Tracer.take tr in
  if observed then kept_spans := (tr, before @ spans) :: !kept_spans;
  (r, spans)

(* open a fresh monitoring window on [sim]; enabling alone is not enough
   under --monitor, where the monitor has been on since the world's
   creation *)
let monitor_from_now sim =
  Monitor.set_enabled sim true;
  Monitor.clear sim

(* the monitor's tiling invariant: category totals sum to the clock delta
   exactly (float-equal, not within epsilon — the quanta are
   binary-exact) *)
let tiled_cats sim =
  let mc = Sim.moncore sim in
  let cats = Moncore.cat_snapshot mc in
  let total = Array.fold_left ( +. ) 0. cats in
  assert (total = Sim.now sim -. Moncore.start_now mc);
  (cats, total)

let hist mc name =
  match Moncore.hist mc name with
  | Some h -> h
  | None -> failwith ("no " ^ name ^ " histogram")

(* --- E1: RSBB vs record-at-a-time on an era-typical file ---------- *)

let e1_rsbb_vs_record =
  experiment "e1" "sequential read: record-at-a-time vs SBB"
    "\"SBB reduces FS-DP message traffic by the file's physical blocking \
     factor ... RSBB gives a factor of three over the record-at-a-time \
     interface\""
  @@ fun () ->
  (* a ~1.2 KB record gives the paper's blocking factor of three in 4 KB
     blocks *)
  let rows = 300 in
  let record = String.make 1200 'r' in
  let scan sbb =
    let node = N.create_node ~volumes:1 () in
    let file =
      get_ok ~ctx:"create"
        (Fs.create_enscribe_file (N.fs node) ~fname:"F"
           ~kind:Dp_msg.K_key_sequenced
           ~partitions:[ Fs.{ ps_lo = ""; ps_dp = (N.dps node).(0) } ])
    in
    let h = Enscribe.open_file (N.fs node) file ~sbb in
    in_tx node (fun tx ->
        upto rows (fun i ->
            Enscribe.write h ~tx ~key:(Keycode.of_int i) ~record));
    let count = ref 0 in
    let (), delta =
      N.measure node (fun () ->
          in_tx node (fun tx ->
              let open Errors in
              let* () =
                if sbb then Enscribe.lockfile h ~tx ~lock:Dp_msg.L_shared
                else Ok ()
              in
              Enscribe.keyposition h ~key:"";
              let rec drain () =
                let* entry = Enscribe.readnext h ~tx ~lock:Dp_msg.L_none in
                match entry with
                | None -> Ok ()
                | Some _ ->
                    incr count;
                    drain ()
              in
              drain ()))
    in
    assert (!count = rows);
    delta
  in
  let d_rec = scan false in
  let d_sbb = scan true in
  table
    [ "interface"; "messages"; "reply bytes"; "msgs/record" ]
    (fun (name, { Stats.msgs_sent; msg_reply_bytes; _ }) ->
      [
        name; num msgs_sent; num msg_reply_bytes;
        fixed 2 (ratio msgs_sent rows);
      ])
    [ ("record-at-a-time", d_rec); ("SBB (RSBB)", d_sbb) ];
  emit "rsbb_message_factor" (ratio d_rec.Stats.msgs_sent d_sbb.Stats.msgs_sent)

(* --- E2: VSBB on the Wisconsin queries ---------------------------- *)

let e2_vsbb_wisconsin =
  experiment "e2" "Wisconsin selections: record vs RSBB vs VSBB"
    "\"RSBB gives a factor of three over the record-at-a-time interface. \
     VSBB gives NonStop SQL an additional factor of three over RSBB on \
     many of the Wisconsin benchmark queries\""
  @@ fun () ->
  let rows = 2000 in
  let node, s = wisconsin_node ~name:"tenktup1" rows in
  let cost q mode =
    N.set_access_mode s (Some mode);
    let _, delta = N.measure node (fun () -> N.exec_exn s q.Wisconsin.q_sql) in
    delta.Stats.msgs_sent
  in
  let runs =
    List.map
      (fun q ->
        let m_rec = cost q Fs.A_record in
        let m_rsbb = cost q Fs.A_rsbb in
        (q, m_rec, m_rsbb, cost q Fs.A_vsbb))
      (Wisconsin.selection_queries ~table:"tenktup1" ~rows)
  in
  N.set_access_mode s None;
  table
    [ "id"; "query"; "rec"; "RSBB"; "VSBB"; "rec/RSBB"; "RSBB/VSBB" ]
    (fun (q, m_rec, m_rsbb, m_vsbb) ->
      [
        q.Wisconsin.q_id; q.Wisconsin.q_desc; num m_rec; num m_rsbb;
        num m_vsbb; fixed 1 (ratio m_rec m_rsbb) ^ "x";
        fixed 1 (ratio m_rsbb m_vsbb) ^ "x";
      ])
    runs;
  emit_count "vsbb_messages_total" (sum (fun (_, _, _, m) -> m) runs)

(* --- E3: update at the data source -------------------------------- *)

let e3_update_subset =
  experiment "e3" "UPDATE via expression vs read-then-update"
    "\"delegating an update via update expression to the disk process \
     eliminates the extra message which would otherwise be required for \
     the requester to read the record before updating it\""
  @@ fun () ->
  let rows = 500 in
  let mk () =
    let node, s =
      sql_node
        "CREATE TABLE account (acctno INT PRIMARY KEY, balance FLOAT NOT NULL)"
    in
    load node (table_of node "account").N.Catalog.t_file ~capacity:100 ~rows
      (fun i -> [| Row.Vint i; Row.Vfloat (float_of_int i) |]);
    (node, s)
  in
  let node1, s1 = mk () in
  let _, d_sql =
    N.measure node1 (fun () ->
        match N.exec_exn s1 "UPDATE account SET balance = balance * 1.07" with
        | N.Affected n -> assert (n = rows)
        | _ -> assert false)
  in
  let node2, _s2 = mk () in
  let tbl = table_of node2 "account" in
  let (), d_rmw =
    N.measure node2 (fun () ->
        update_each_key node2 tbl ~rows
          Expr.(Binop (Mul, Field 1, float_ 1.07)))
  in
  table
    [ "path"; "messages"; "req bytes"; "msgs/record" ]
    (fun (name, { Stats.msgs_sent; msg_req_bytes; _ }) ->
      [ name; num msgs_sent; num msg_req_bytes; fixed 3 (ratio msgs_sent rows) ])
    [
      ("read + rewrite per record", d_rmw);
      ("UPDATE^SUBSET (delegated)", d_sql);
    ];
  emit "update_message_factor" (ratio d_rmw.Stats.msgs_sent d_sql.Stats.msgs_sent)

(* --- E4: field-compressed audit ----------------------------------- *)

let e4_audit_compression =
  experiment "e4" "field-compressed vs full-image audit records"
    "\"The resultant field-compressed audit records are generally reduced \
     in size ... The audit buffer fills up less frequently ... each \
     bulk-write of the audit trail commits a larger group of \
     transactions\""
  @@ fun () ->
  let rows = 400 in
  let mk () =
    let node, s =
      sql_node
        ~config:(Config.v ~audit_buffer_bytes:8192 ())
        "CREATE TABLE account (acctno INT PRIMARY KEY, balance FLOAT NOT \
         NULL, filler CHAR(200) NOT NULL)"
    in
    for i = 0 to rows - 1 do
      ignore (N.exec_exn s (fpr "INSERT INTO account VALUES (%d, 100.0, 'x')" i))
    done;
    (node, s)
  in
  (* all updates inside one transaction, so the only audit flushes are
     buffer-full flushes — the frequency the paper says compression cuts *)
  let run_txs ~compressed =
    let node, s = mk () in
    let tbl = table_of node "account" in
    N.measure node (fun () ->
        if compressed then begin
          ignore (N.exec_exn s "BEGIN WORK");
          for i = 0 to rows - 1 do
            ignore
              (N.exec_exn s
                 (fpr "UPDATE account SET balance = balance + 1.0 WHERE acctno = %d" i))
          done;
          ignore (N.exec_exn s "COMMIT WORK")
        end
        else
          update_each_key node tbl ~rows Expr.(Binop (Add, Field 1, float_ 1.)))
  in
  let (), d_sql = run_txs ~compressed:true in
  let (), d_full = run_txs ~compressed:false in
  table
    [ "audit format"; "audit bytes"; "bytes/update"; "buffer-full flushes" ]
    (fun (name, { Stats.audit_bytes; audit_flush_full; _ }) ->
      [
        name; num audit_bytes; fixed 0 (ratio audit_bytes rows);
        num audit_flush_full;
      ])
    [ ("full-record images", d_full); ("field-compressed (SQL)", d_sql) ];
  emit "audit_size_ratio"
    (ratio d_full.Stats.audit_bytes d_sql.Stats.audit_bytes);
  emit "flush_ratio"
    (ratio d_full.Stats.audit_flush_full d_sql.Stats.audit_flush_full)

(* --- E5: bulk I/O and pre-fetch ----------------------------------- *)

let e5_bulk_prefetch =
  experiment "e5" "cache optimizations for a key-range scan"
    "\"it reads into cache buffers sequential strings of physical blocks \
     using bulk I/O's ... the Disk Process attempts to pre-fetch data ... \
     allows cpu-bound processing ... in parallel with disk I/O's\""
  @@ fun () ->
  let rows = 2000 in
  let run (name, prefetch, bulk_bytes) =
    let config =
      Config.v ~dp_prefetch:prefetch ~bulk_io_max_bytes:bulk_bytes ()
    in
    let node, s = wisconsin_node ~config rows in
    (* cool the cache: GUARDIAN steals every frame (cleaning dirty ones) *)
    ignore (N.vm_pressure node 0 ~frames:max_int);
    let (), d, t =
      timed node (fun () ->
          let r = query s "SELECT COUNT(*) FROM t" in
          assert (r.rows = [ [| Row.Vint rows |] ]))
    in
    (name, d, t)
  in
  let runs =
    List.map run
      [
        ("per-block reads (no pre-fetch)", false, 4096);
        ("pre-fetch, 4 KB I/O limit", true, 4096);
        ("pre-fetch, 28 KB bulk I/O", true, 28 * 1024);
      ]
  in
  table
    [ "configuration"; "I/Os"; "blocks"; "blocks/IO"; "elapsed(ms)" ]
    (fun (name, { Stats.disk_reads; blocks_read; _ }, t) ->
      [
        name; num disk_reads; num blocks_read;
        fixed 2 (ratio blocks_read disk_reads); fixed 1 (t /. 1000.);
      ])
    runs;
  match runs with
  | [ (_, d_plain, t_plain); _; (_, d_pre, t_pre) ] ->
      emit "io_reduction" (ratio d_plain.Stats.disk_reads d_pre.Stats.disk_reads);
      emit "elapsed_reduction" (t_plain /. t_pre)
  | _ -> assert false

(* --- E6: asynchronous write-behind -------------------------------- *)

let e6_write_behind =
  experiment "e6" "write-behind of dirty sequential block strings"
    "\"This mechanism uses idle time between Disk Process requests to \
     write out strings of sequential blocks updated under a subset ... \
     without violating write-ahead-log protocol\""
  @@ fun () ->
  let rows = 1500 in
  let prepare () =
    let node, s = wisconsin_node rows in
    (match N.exec_exn s "UPDATE t SET two = 1 - two" with
    | N.Affected n -> assert (n = rows)
    | _ -> assert false);
    node
  in
  (* WAL check: before commit makes audit durable, write-behind may only
     write the blocks whose audit an earlier buffer-full flush made
     durable *)
  let node, s = wisconsin_node 200 in
  ignore (N.exec_exn s "BEGIN WORK");
  ignore (N.exec_exn s "UPDATE t SET two = 1 - two");
  let premature = Dp.idle (N.dps node).(0) in
  ignore (N.exec_exn s "COMMIT WORK");
  let node_wb = prepare () in
  let dirty = Cache.dirty_count (Dp.cache (N.dps node_wb).(0)) in
  let _, d_wb =
    N.measure node_wb (fun () -> ignore (Dp.idle (N.dps node_wb).(0)))
  in
  let node_sync = prepare () in
  let _, d_sync =
    N.measure node_sync (fun () ->
        Cache.flush_all (Dp.cache (N.dps node_sync).(0)))
  in
  table
    ~caption:(fpr "%d dirty blocks to clean after the subset update:" dirty)
    [ "mechanism"; "write I/Os"; "bulk writes" ]
    (fun (name, { Stats.disk_writes; bulk_writes; _ }) ->
      [ name; num disk_writes; num bulk_writes ])
    [ ("synchronous per-block", d_sync); ("write-behind (bulk strings)", d_wb) ];
  emit "write_io_reduction"
    (ratio d_sync.Stats.disk_writes d_wb.Stats.disk_writes);
  emit_count "written_before_commit" premature

(* --- E7: group commit timers -------------------------------------- *)

let e7_group_commit =
  experiment "e7" "group-commit timer behaviour under load"
    "\"timers have been introduced to force out pending commits from a \
     partially full buffer. Response times are minimized by dynamically \
     adjusting the timers based on such system statistics as transaction \
     rate\" [Helland]"
  @@ fun () ->
  let txs = 400 in
  (* transactions arrive on the simulated clock and their COMMIT records
     wait for the group-commit flush; the driver advances time in small
     steps so concurrent commits can share one flush *)
  let run ~interarrival_us ~timer =
    let sim = Sim.create () in
    let volume = Disk.create sim ~name:"$AUDIT" in
    let trail = Trail.create sim volume in
    (* a pinned timer, or None for the adaptive one *)
    Option.iter (Trail.set_timer_us trail) timer;
    let update_image = String.make 60 'u' in
    let completions = ref [] in
    (* note completions that became durable while time passed *)
    let note_durable () =
      List.iter
        (fun (l, _, done_at) ->
          if !done_at = None && Int64.compare l (Trail.durable_lsn trail) <= 0
          then done_at := Some (Sim.now sim))
        !completions
    in
    let before = Sim.snapshot sim in
    for tx = 1 to txs do
      Sim.charge sim ~cat:Moncore.C_other interarrival_us;
      ignore (Trail.append trail ~tx Nsql_audit.Audit_record.Begin_tx);
      ignore
        (Trail.append trail ~tx
           (Nsql_audit.Audit_record.Insert
              { file = 0; key = "k"; image = update_image }));
      let lsn = Trail.append trail ~tx Nsql_audit.Audit_record.Commit_tx in
      (* open arrivals: another commit is always on its way *)
      Trail.request_commit trail ~can_grow:true lsn;
      let requested_at = Sim.now sim in
      completions := (lsn, requested_at, ref None) :: !completions;
      note_durable ()
    done;
    (* drain the tail *)
    let steps = ref 0 in
    while List.exists (fun (_, _, done_at) -> !done_at = None) !completions do
      incr steps;
      if !steps > 10_001 then failwith "E7: settle did not converge";
      Sim.charge sim ~cat:Moncore.C_other 500.;
      note_durable ()
    done;
    let after = Sim.snapshot sim in
    let d = Stats.diff ~before ~after in
    let total_response =
      List.fold_left
        (fun acc (_, t0, done_at) ->
          match !done_at with Some t1 -> acc +. (t1 -. t0) | None -> acc)
        0. !completions
    in
    (d, total_response /. float_of_int txs)
  in
  let runs =
    List.concat_map
      (fun (rate_name, interarrival_us) ->
        List.map
          (fun (timer_name, timer) ->
            let d, resp = run ~interarrival_us ~timer in
            (timer_name, rate_name, d, resp))
          [
            ("timer 1 ms", Some 1_000.);
            ("timer 10 ms", Some 10_000.);
            ("timer 50 ms", Some 50_000.);
            ("adaptive (Helland)", None);
          ])
      [ ("high (2k/s)", 500.); ("low (100/s)", 10_000.) ]
  in
  table
    [ "timer"; "tx rate"; "flushes"; "txs/flush"; "response(ms)" ]
    (fun (timer_name, rate_name, d, resp) ->
      [
        timer_name; rate_name; num d.Stats.audit_flushes;
        fixed 2 (ratio d.Stats.group_commit_txs d.Stats.audit_flushes);
        fixed 2 (resp /. 1000.);
      ])
    runs;
  emit_count "audit_flushes_total"
    (sum (fun (_, _, d, _) -> d.Stats.audit_flushes) runs)

(* --- E8: DebitCredit, SQL vs ENSCRIBE ----------------------------- *)

let e8_debitcredit =
  experiment "e8" "DebitCredit: NonStop SQL vs ENSCRIBE"
    "\"The result is an SQL system which matches the performance of the \
     pre-existing DBMS\" (abstract)"
  @@ fun () ->
  let txs = 200 in
  let accounts = 1000 and tellers = 100 and branches = 10 in
  let aid i = (i * 131) mod accounts in
  let delta_of i = float_of_int ((i mod 21) - 10) in
  (* [setup] loads a fresh node; [tx node db] runs one transaction *)
  let run setup tx =
    let node = N.create_node ~volumes:2 () in
    let db = get_ok ~ctx:"setup" (setup node ~accounts ~tellers ~branches) in
    let tx = tx node db in
    measure_each node txs (fun i ->
        get_ok ~ctx:"tx" (tx ~aid:(aid i) ~delta:(delta_of i)))
  in
  let d_sql =
    run Debitcredit.setup_sql (fun node db ->
        Debitcredit.run_sql_tx db (N.session node))
  in
  let d_ens = run Debitcredit.setup_enscribe Debitcredit.run_enscribe_tx in
  table
    ~caption:(fpr "per transaction (%d transactions):" txs)
    [
      "interface"; "messages"; "msg bytes"; "disk I/Os"; "CPU ticks";
      "audit bytes";
    ]
    (fun (name, (d : Stats.t)) ->
      let f digits v = fixed digits (ratio v txs) in
      [
        name; f 1 d.Stats.msgs_sent;
        f 0 (d.Stats.msg_req_bytes + d.Stats.msg_reply_bytes);
        f 2 (d.Stats.disk_reads + d.Stats.disk_writes); f 0 d.Stats.cpu_ticks;
        f 0 d.Stats.audit_bytes;
      ])
    [ ("ENSCRIBE", d_ens); ("NonStop SQL", d_sql) ];
  emit "sql_enscribe_msg_ratio"
    (ratio d_sql.Stats.msgs_sent d_ens.Stats.msgs_sent);
  emit "sql_enscribe_cpu_ratio"
    (ratio d_sql.Stats.cpu_ticks d_ens.Stats.cpu_ticks)

(* --- E9: Figure 2 message trace ----------------------------------- *)

let e9_figure2_trace =
  experiment "e9" "Figure 2: access via alternate key"
    "\"The File System in doing an update via alternate key first sends a \
     request to the disk server managing the index to find the primary \
     key. It then sends the update expression to the server managing the \
     primary key partition.\""
  @@ fun () ->
  let node = N.create_node ~volumes:2 () in
  let schema =
    Row.schema
      [|
        Row.column "acctno" Row.T_int;
        Row.column "balance" Row.T_float;
        Row.column "owner" (Row.T_varchar 24);
      |]
      ~key:[ "acctno" ]
  in
  let file =
    create_file node ~fname:"account" ~schema
      ~indexes:
        [ Fs.{ is_name = "by_owner"; is_cols = [ 2 ]; is_dp = (N.dps node).(1) } ]
  in
  load node file ~rows:100 (fun i ->
      [| Row.Vint i; Row.Vfloat 100.; Row.Vstr (fpr "cust-%03d" i) |]);
  let found, spans =
    traced (N.sim node) (fun () ->
        in_tx node (fun tx ->
            Fs.read_row_via_index (N.fs node) file ~tx ~index:"by_owner"
              ~index_key:[ Row.Vstr "cust-042" ]))
  in
  let trace = Trace.msg_spans spans in
  let row = match found with Some r -> r | None -> failwith "E9: row not found" in
  text
    (String.concat "\n  "
       (Format.asprintf "row found: %a@\nmessage flow:" Row.pp_row row
       :: List.map (Format.asprintf "%a" Trace.pp_msg_span) trace));
  emit_count "fs_dp_messages" (List.length trace)

(* --- E10: continuation re-drive limits ---------------------------- *)

let e10_redrive =
  experiment "e10" "continuation re-drive protocol"
    "\"To prevent a single set-oriented FS-DP request from monopolizing a \
     Disk Process over a long period of time, limits on the ... time \
     spent per request message are set. If exceeded, a continuation \
     re-drive protocol is triggered.\""
  @@ fun () ->
  let rows = 2000 in
  let runs =
    List.map
      (fun limit ->
        let config = Config.v ~dp_records_per_request:limit () in
        let node, s = wisconsin_node ~config rows in
        (* a selective predicate on a non-key column: the DP must examine
           every record but returns almost none, so only the record limit
           triggers re-drives *)
        let _, delta =
          N.measure node (fun () ->
              let r = query s "SELECT unique2 FROM t WHERE unique1 = 1" in
              assert (List.length r.rows = 1))
        in
        (limit, delta))
      [ 64; 256; 1024; 4096 ]
  in
  table
    [ "per-request limit"; "messages"; "re-drives"; "max records/msg" ]
    (fun (limit, d) ->
      [
        num limit; num d.Stats.msgs_sent; num d.Stats.redrives;
        num (min limit rows);
      ])
    runs;
  emit_count "messages_total" (sum (fun (_, d) -> d.Stats.msgs_sent) runs)

(* --- E11: blocked sequential inserts (future-work extension) ------ *)

let e11_blocked_insert =
  experiment "e11" "blocked sequential insert interface"
    "\"If a blocked interface for inserts were introduced, the message \
     traffic between the File System and the Disk Process could be \
     reduced by the blocking factor\" (future enhancements)"
  @@ fun () ->
  let rows = 1000 in
  let run (name, capacity) =
    let node, _ =
      sql_node "CREATE TABLE t (k INT PRIMARY KEY, v CHAR(60) NOT NULL)"
    in
    let tbl = table_of node "t" in
    let (), delta =
      N.measure node (fun () ->
          load node tbl.N.Catalog.t_file ?capacity ~rows (fun i ->
              [| Row.Vint i; Row.Vstr "v" |]))
    in
    (name, delta.Stats.msgs_sent)
  in
  let runs =
    List.map run
      (("INSERT^ROW per record", None)
      :: List.map
           (fun cap -> (fpr "INSERT^BLOCK of %d" cap, Some cap))
           [ 10; 30; 100 ])
  in
  table
    [ "interface"; "messages"; "msgs/insert" ]
    (fun (name, m) -> [ name; num m; fixed 3 (ratio m rows) ])
    runs;
  emit "msgs_per_insert_unblocked" (ratio (snd (List.hd runs)) rows)

(* --- E12: virtual-block group locking ----------------------------- *)

let e12_vblock_locking =
  experiment "e12" "virtual-block group locking"
    "\"Record locking has been extended to a form of virtual block \
     locking in which the records of the virtual block are locked as a \
     group.\""
  @@ fun () ->
  let rows = 1000 in
  let d_rec, _ = timed_scan ~access:Fs.A_record ~proj:[| 1 |] rows in
  let d_vsbb, _ = timed_scan ~access:Fs.A_vsbb ~proj:[| 1 |] rows in
  table
    [ "locking regime"; "lock requests"; "locks/row" ]
    (fun (name, { Stats.lock_requests; _ }) ->
      [ name; num lock_requests; fixed 3 (ratio lock_requests rows) ])
    [ ("record locks", d_rec); ("virtual-block group", d_vsbb) ];
  emit "lock_reduction"
    (ratio d_rec.Stats.lock_requests d_vsbb.Stats.lock_requests)

(* --- E13: distribution transparency over partitions --------------- *)

let e13_partitions =
  experiment "e13" "horizontally partitioned tables (Figure 1 architecture)"
    "\"Base files ... may be horizontally partitioned, based on record \
     key ranges, into multiple fragments residing on a distributed set of \
     disk volumes\""
  @@ fun () ->
  let rows = 2000 in
  let runs =
    List.map
      (fun parts ->
        let node, s = wisconsin_node ~volumes:4 ~partitions:parts rows in
        let result, delta =
          N.measure node (fun () ->
              match
                N.exec_exn s
                  "SELECT COUNT(*) FROM t WHERE unique1 >= 500 AND unique1 < 700"
              with
              | N.Rows { rows = [ [| Row.Vint n |] ]; _ } -> n
              | _ -> assert false)
        in
        let per_part =
          String.concat "/"
            (List.init parts (fun i ->
                 let dp = (N.dps node).(i) in
                 let file = Option.get (Dp.file_id dp (fpr "t#p%d" i)) in
                 num (Dp.record_count dp ~file)))
        in
        (parts, delta, result, per_part))
      [ 1; 2; 4 ]
  in
  table
    [ "partitions"; "messages"; "remote"; "result rows"; "rows/partition" ]
    (fun (parts, d, result, per_part) ->
      [
        num parts; num d.Stats.msgs_sent; num d.Stats.msgs_remote;
        num result; per_part;
      ])
    runs;
  emit_count "messages_total" (sum (fun (_, d, _, _) -> d.Stats.msgs_sent) runs)

(* --- E14: buffered update/delete where current (future-work extension) *)

let e14_apply_block =
  experiment "e14" "buffered update/delete where current"
    "\"By allowing the updates (deletes) to occur in a buffer local to the \
     File System, and then sending the buffer full of updates (deletes) to \
     the Disk Process in one message, substantial message traffic savings \
     ... could be realized\" (future enhancements)"
  @@ fun () ->
  let rows = 1000 in
  (* the cursor owner updates every third record it visits — a selection
     the Disk Process cannot evaluate (it is the application's choice), so
     set-oriented delegation does not apply *)
  let run capacity =
    let node, _ =
      sql_node "CREATE TABLE t (k INT PRIMARY KEY, v FLOAT NOT NULL)"
    in
    let tbl = table_of node "t" in
    let fs = N.fs node and file = tbl.N.Catalog.t_file in
    load node file ~capacity:100 ~rows (fun i ->
        [| Row.Vint i; Row.Vfloat 1. |]);
    let bump =
      [ { Expr.target = 1; source = Expr.(Binop (Add, Field 1, float_ 1.)) } ]
    in
    let updated = ref 0 in
    let update ~tx apply_buf k =
      incr updated;
      let key = key_of tbl k in
      match apply_buf with
      | Some b -> Fs.buffered_update fs b ~key bump
      | None -> Fs.update_row_via_key fs file ~tx ~key bump
    in
    let _, delta =
      N.measure node (fun () ->
          in_tx node (fun tx ->
              let sc =
                Fs.open_scan fs file ~tx ~access:Fs.A_vsbb
                  ~range:Expr.full_range ~proj:[| 0 |] ~lock:Dp_msg.L_exclusive
                  ()
              in
              let apply_buf =
                Option.map
                  (fun capacity -> Fs.open_apply_buffer fs file ~tx ~capacity)
                  capacity
              in
              (* the cursor drains whole reply batches; rows are taken
                 uncharged and the 3-tick drain cost is paid per row
                 before any per-row message, so flushes triggered
                 mid-batch go out at the same instants as a
                 row-at-a-time cursor would send them *)
              let open Errors in
              let rec walk () =
                let* batch = Fs.scan_next_batch ~tick:false fs sc in
                match batch with
                | None -> (
                    Fs.close_scan fs sc;
                    match apply_buf with
                    | Some b -> Fs.flush_apply_buffer fs b
                    | None -> Ok ())
                | Some batch ->
                    let* () =
                      list_iter
                        (fun r ->
                          Sim.tick (N.sim node) 3;
                          match r with
                          | [| Row.Vint k |] when k mod 3 = 0 ->
                              update ~tx apply_buf k
                          | _ -> Ok ())
                        (Array.to_list batch)
                    in
                    walk ()
              in
              walk ()))
    in
    (delta.Stats.msgs_sent, !updated)
  in
  let base, n_updated = run None in
  let buffered = List.map (fun cap -> (cap, fst (run (Some cap)))) [ 10; 50 ] in
  table
    ~caption:
      (fpr "cursor over %d rows, %d of them updated at the requester:" rows
         n_updated)
    [ "interface"; "messages"; "msgs/updated row" ]
    (fun (name, m) -> [ name; num m; fixed 3 (ratio m n_updated) ])
    (("read + UPDATE per record", base)
    :: List.map (fun (cap, m) -> (fpr "APPLY^BLOCK of %d" cap, m)) buffered);
  emit_count "messages_unbuffered" base

(* --- E15: remote requester — filtering at the source across the network *)

let e15_remote_requester =
  experiment "e15" "remote requester: VSBB across the network"
    "\"In a distributed system, this produces important performance \
     benefits due to reduced message traffic, since only selected and \
     projected data is returned to a remote requester.\""
  @@ fun () ->
  let rows = 1000 in
  let runs =
    List.concat_map
      (fun (where, remote) ->
        List.map
          (fun (mode_name, mode) ->
            let node, s = wisconsin_node ~remote_requester:remote rows in
            N.set_access_mode s (Some mode);
            let _, d, t =
              timed node (fun () ->
                  query s "SELECT unique1 FROM t WHERE tenpercent = 3")
            in
            (where, mode_name, d, t))
          [ ("record-at-a-time", Fs.A_record); ("VSBB", Fs.A_vsbb) ])
      [ ("local", false); ("remote node", true) ]
  in
  table
    [ "requester"; "interface"; "msgs"; "reply bytes"; "elapsed(ms)" ]
    (fun (where, mode_name, d, t) ->
      [
        where; mode_name; num d.Stats.msgs_sent; num d.Stats.msg_reply_bytes;
        fixed 1 (t /. 1000.);
      ])
    runs;
  emit_count "messages_total" (sum (fun (_, _, d, _) -> d.Stats.msgs_sent) runs)

(* --- E16: distributed transactions — the cost of network atomicity *)

let e16_distributed_tx =
  experiment "e16" "network transactions: two-phase commit cost"
    "\"A transaction mechanism coordinates the atomic commitment of \
     updates by multiple processes in the network\" [Borr1] — the \
     facility NonStop SQL inherits for distribution"
  @@ fun () ->
  let schema =
    Row.schema
      [| Row.column "k" Row.T_int; Row.column "v" Row.T_float |]
      ~key:[ "k" ]
  in
  let key i = get_ok ~ctx:"key" (Row.key_of_values schema [ Row.Vint i ]) in
  let cluster = N.create_cluster ~nodes:2 ~volumes_per_node:1 () in
  let nodes = N.cluster_nodes cluster in
  (* every update goes through node 0's File System *)
  let bump file tx i delta =
    Fs.update_subset (N.fs nodes.(0)) file ~tx
      ~range:Expr.{ lo = key i; hi = Keycode.successor (key i) }
      [ { Expr.target = 1; source = Expr.(Binop (Add, Field 1, float_ delta)) } ]
  in
  let mk node_id rows =
    let node = nodes.(node_id) in
    let file =
      create_file node ~fname:(fpr "t%d" node_id) ~schema ~indexes:[]
    in
    load node file ~rows (fun i -> [| Row.Vint i; Row.Vfloat 0. |]);
    file
  in
  let f0 = mk 0 100 and f1 = mk 1 100 in
  let txs = 50 in
  (* local transactions: both updates on node 0's file *)
  let d_local =
    measure_each nodes.(0) txs (fun i ->
        in_tx nodes.(0) (fun tx ->
            let open Errors in
            let* _ = bump f0 tx (i mod 100) 1. in
            let* _ = bump f0 tx ((i + 7) mod 100) (-1.) in
            Ok ()))
  in
  (* network transactions: one update on each node, 2PC *)
  let d_dtx =
    measure_each nodes.(0) txs (fun i ->
        get_ok ~ctx:"dtx"
          (let open Errors in
           let* dtx = N.network_tx cluster ~home:0 in
           let* _ = bump f0 (Nsql_dtx.Dtx.coordinator_tx dtx) (i mod 100) 1. in
           let* tx1 = Nsql_dtx.Dtx.branch dtx ~node_id:1 in
           let* _ = bump f1 tx1 (i mod 100) (-1.) in
           Nsql_dtx.Dtx.commit dtx))
  in
  table
    ~caption:(fpr "per transaction (%d two-update transactions):" txs)
    [ "transaction kind"; "messages"; "internode"; "audit flushes" ]
    (fun (name, { Stats.msgs_sent; msgs_internode; audit_flushes; _ }) ->
      let f v = fixed 1 (ratio v txs) in
      [ name; f msgs_sent; f msgs_internode; f audit_flushes ])
    [ ("local (one node)", d_local); ("network (2PC, two nodes)", d_dtx) ];
  emit "network_msgs_per_tx" (ratio d_dtx.Stats.msgs_sent txs)

(* --- E17: nowait fan-out across partitions ------------------------ *)

let e17_parallel_scan =
  experiment "e17" "parallel partitioned scan via nowait fan-out"
    "\"requests may be issued nowait ... the File System overlaps requests \
     to the Disk Processes managing the partitions\" — the GUARDIAN nowait \
     message primitive lets one requester keep every partition's Disk \
     Process busy at once"
  @@ fun () ->
  let rows = 2000 in
  let parts = 4 in
  let run fanout =
    let config = Config.v ~fs_fanout:fanout () in
    timed_scan ~config ~volumes:4 ~partitions:parts rows
  in
  let d_seq, t_seq = run false in
  let d_par, t_par = run true in
  table
    ~caption:(fpr "full scan of %d rows over %d partitions:" rows parts)
    [ "driver"; "messages"; "reply bytes"; "elapsed(ms)" ]
    (fun (name, { Stats.msgs_sent; msg_reply_bytes; _ }, t) ->
      [ name; num msgs_sent; num msg_reply_bytes; fixed 1 (t /. 1000.) ])
    [
      ("sequential (one at a time)", d_seq, t_seq);
      ("nowait fan-out", d_par, t_par);
    ];
  (* the fan-out changes when latencies overlap, never what is sent *)
  assert (d_seq.Stats.msgs_sent = d_par.Stats.msgs_sent);
  assert (d_seq.Stats.msg_reply_bytes = d_par.Stats.msg_reply_bytes);
  emit "elapsed_speedup" (t_seq /. t_par);
  emit_count "messages_fanout" d_par.Stats.msgs_sent;
  emit_count "messages_sequential" d_seq.Stats.msgs_sent;
  emit_count "reply_bytes_fanout" d_par.Stats.msg_reply_bytes

(* --- E18: aggregate pushdown to the Disk Process ------------------ *)

let e18_agg_pushdown =
  experiment "e18" "aggregate evaluation at the data source"
    "\"passing ... operations directly to the Disk Process\" taken one \
     step further: COUNT/SUM/MIN/MAX fold inside the Disk Process's \
     re-drive budget and the reply carries accumulator state instead of \
     rows"
  @@ fun () ->
  let rows = 2000 in
  let parts = 4 in
  let sql = "SELECT COUNT(*), SUM(unique1), MIN(unique2), MAX(unique2) FROM t" in
  let run pushdown =
    let node, s = wisconsin_node ~volumes:4 ~partitions:parts rows in
    (* pinning the access mode disables pushdown, so the baseline ships
       the (projected) rows and aggregates at the requester *)
    if not pushdown then N.set_access_mode s (Some Fs.A_vsbb);
    N.measure node (fun () ->
        match (query s sql).rows with [ row ] -> row | _ -> assert false)
  in
  let r_client, d_client = run false in
  let r_push, d_push = run true in
  assert (r_client = r_push);
  table
    ~caption:
      (fpr "%s over %d rows in %d partitions (both return %s):" sql rows parts
         (Format.asprintf "%a" Row.pp_row r_push))
    [ "evaluation"; "messages"; "reply bytes" ]
    (fun (name, { Stats.msgs_sent; msg_reply_bytes; _ }) ->
      [ name; num msgs_sent; num msg_reply_bytes ])
    [
      ("requester-side (VSBB scan)", d_client);
      ("pushed to Disk Process", d_push);
    ];
  emit "reply_byte_ratio"
    (ratio d_client.Stats.msg_reply_bytes d_push.Stats.msg_reply_bytes);
  emit_count "reply_bytes_pushdown" d_push.Stats.msg_reply_bytes;
  emit_count "reply_bytes_client" d_client.Stats.msg_reply_bytes;
  emit_count "messages_pushdown" d_push.Stats.msgs_sent;
  emit "message_ratio" (ratio d_client.Stats.msgs_sent d_push.Stats.msgs_sent)

(* --- A1 (ablation): VSBB reply-buffer size ------------------------ *)

let a1_vsbb_buffer =
  experiment "a1" "ablation: virtual-block (reply buffer) size"
    "design choice: the VSBB reply buffer bounds how much selected and \
     projected data one GET message returns; larger virtual blocks mean \
     fewer re-drives but bigger replies and coarser group locks"
  @@ fun () ->
  let rows = 2000 in
  let runs =
    List.map
      (fun buf_bytes ->
        let config = Config.v ~vsbb_buffer_bytes:buf_bytes () in
        (buf_bytes, fst (timed_scan ~config rows)))
      [ 1024; 4096; 16384 ]
  in
  table
    [ "buffer"; "messages"; "reply bytes"; "lock requests" ]
    (fun (buf_bytes, d) ->
      [
        fpr "%d B" buf_bytes; num d.Stats.msgs_sent;
        num d.Stats.msg_reply_bytes; num d.Stats.lock_requests;
      ])
    runs;
  emit_count "messages_total" (sum (fun (_, d) -> d.Stats.msgs_sent) runs)

(* --- E19: span-profile attribution of the message-flow wins ------- *)

let e19_profile_attribution =
  experiment "e19" "span profile attributes messages to operators and legs"
    "the span tracer replays E17's fan-out scan and the E1 access-mode \
     comparison, attributing messages and records to individual plan \
     operators and partition legs; observation is free — counters and \
     clock stay bit-identical with tracing on"
  @@ fun () ->
  let rows = 2000 in
  let parts = 4 in
  let scan_traced mode =
    let config = Config.v ~fs_fanout:true () in
    let node, s = wisconsin_node ~config ~volumes:4 ~partitions:parts rows in
    N.set_access_mode s (Some mode);
    traced (N.sim node) (fun () ->
        N.measure node (fun () ->
            let r = query s "SELECT unique1, unique2 FROM t" in
            assert (List.length r.rows = rows)))
  in
  let ((), delta), spans = scan_traced Fs.A_vsbb in
  text (Format.asprintf "%a" (fun ppf l -> Trace.pp_profile ppf l) spans);
  let legs =
    List.filter (fun sp -> sp.Tracer.sp_cat = "fs.leg") spans
  in
  table
    [ "partition leg"; "messages"; "records" ]
    (fun leg ->
      [
        leg.Tracer.sp_name; num leg.Tracer.sp_stats.Stats.msgs_sent;
        num leg.Tracer.sp_stats.Stats.records_read;
      ])
    legs;
  let over_legs f = sum (fun l -> f l.Tracer.sp_stats) legs in
  let leg_msgs = over_legs (fun d -> d.Stats.msgs_sent) in
  (* the legs tile the statement: the fan-out win is the overlap, not
     the message count *)
  assert (List.length legs = parts);
  assert (leg_msgs = delta.Stats.msgs_sent);
  assert (over_legs (fun d -> d.Stats.records_read) = rows);
  (* access-mode ratios, measured from the trace's FS-DP message spans
     (the msg spans also hold each DP's checkpoints to its backup) *)
  let msg_count mode =
    List.length
      (List.filter
         (fun sp -> sp.Tracer.sp_name <> "checkpoint")
         (Trace.msg_spans (snd (scan_traced mode))))
  in
  let m_rec = msg_count Fs.A_record in
  let m_rsbb = msg_count Fs.A_rsbb in
  let m_vsbb = msg_count Fs.A_vsbb in
  table ~caption:"messages per full scan, from the message spans:"
    [ "access mode"; "messages"; "vs VSBB" ]
    (fun (name, m) -> [ name; num m; fixed 1 (ratio m m_vsbb) ^ "x" ])
    [ ("record-at-a-time", m_rec); ("RSBB", m_rsbb); ("VSBB", m_vsbb) ];
  emit_count "fanout_legs" (List.length legs);
  emit_count "leg_messages" leg_msgs;
  emit "record_vsbb_msg_ratio" (ratio m_rec m_vsbb);
  emit "rsbb_vsbb_msg_ratio" (ratio m_rsbb m_vsbb)

(* --- E20: lock waiting under multi-terminal contention ------------ *)

let e20_contention =
  experiment "e20" "multi-terminal contention: waits, deadlocks, retries"
    "the Disk Process is the locale for concurrency control: conflicting \
     requests queue in the DP (reply withheld, requester undisturbed), \
     wait-for cycles are detected at block time and the youngest \
     transaction is denied, its session aborts and retries"
  @@ fun () ->
  let txs_per_terminal = 10 in
  let accounts = 4 in
  let row terminals =
    let node, db = transfer_world ~accounts () in
    let (rep, delta, elapsed_us), spans =
      traced (N.sim node) (fun () ->
          timed node (fun () -> transfers db ~terminals ~txs_per_terminal))
    in
    (* lock-wait time comes from the trace: the DP emits one
       "lock_wait_end" instant per un-parked request, carrying the
       queued duration and the outcome *)
    let wait_us =
      List.fold_left
        (fun acc sp ->
          match (sp.Tracer.sp_name, Trace.attr sp "wait_us") with
          | "lock_wait_end", Some (Tracer.Float w) -> acc +. w
          | _ -> acc)
        0. spans
    in
    assert (
      Float.abs (balance_sum db -. (1000. *. float_of_int accounts)) < 1e-6);
    (* one terminal never conflicts with itself: waiting must be free *)
    if terminals = 1 then begin
      assert (delta.Stats.lock_waits = 0);
      assert (delta.Stats.deadlocks = 0);
      assert (rep.Debitcredit.x_retries = 0)
    end;
    let tps =
      float_of_int rep.Debitcredit.x_committed /. (elapsed_us /. 1e6)
    in
    emit_count (fpr "lock_waits_%d" terminals) delta.Stats.lock_waits;
    emit_count (fpr "deadlocks_%d" terminals) delta.Stats.deadlocks;
    emit_count (fpr "retries_%d" terminals) rep.Debitcredit.x_retries;
    emit (fpr "wait_ms_%d" terminals) (wait_us /. 1e3);
    [
      num terminals; num rep.Debitcredit.x_committed;
      num delta.Stats.lock_waits; num delta.Stats.deadlocks;
      num rep.Debitcredit.x_timeout_aborts; num rep.Debitcredit.x_retries;
      fixed 2 (wait_us /. 1e3); fixed 0 tps;
    ]
  in
  table
    [
      "terminals"; "committed"; "waits"; "deadlocks"; "timeouts"; "retries";
      "wait_ms"; "tps";
    ]
    row [ 1; 2; 4; 8 ]

(* --- E21: process-pair takeover under live traffic ---------------- *)

let e21_takeover =
  experiment "e21" "process-pair takeover under live DebitCredit contention"
    "every Disk Process runs as a NonStop process pair: the primary \
     checkpoints SCBs, lock grants and wait-queue membership to its hot \
     backup, so when the primary fails mid-run the backup resumes as \
     primary with no recovery pass and no acknowledged commit lost"
  @@ fun () ->
  let terminals = 4 and txs_per_terminal = 25 and accounts = 4 in
  (* fault-free calibration run: identical node, identical workload. Its
     elapsed time locates the virtual-time midpoint of the real run, and
     its throughput is the dip's reference *)
  let base_elapsed = transfer_run ~accounts ~terminals ~txs_per_terminal in
  (* transactions per second of [n] commits in [us] *)
  let tps n us = float_of_int n /. us *. 1e6 in
  let node, db = transfer_world ~accounts () in
  let sim = N.sim node in
  (* oracle mirror plus a commit timestamp stream, so throughput can be
     split into before/after-takeover windows *)
  let expected = Array.make accounts 1000. in
  let commit_times = ref [] in
  let on_commit ~src ~dst ~delta =
    expected.(src) <- expected.(src) -. delta;
    expected.(dst) <- expected.(dst) +. delta;
    commit_times := Sim.now sim :: !commit_times
  in
  (* fail the hot volume's primary at the run's midpoint: terminals are
     mid-transaction — some scanning, some parked on the wait queue, some
     between phases *)
  let t0 = Sim.now sim in
  let takeover_at = t0 +. (base_elapsed /. 2.) in
  let takeover_latency = ref nan in
  Sim.schedule sim ~at:takeover_at (fun () ->
      let before = Sim.now sim in
      assert (N.takeover_volume node 0);
      takeover_latency := Sim.now sim -. before);
  let rep, delta, elapsed_us =
    timed node (fun () -> transfers ~on_commit db ~terminals ~txs_per_terminal)
  in
  (* ACID + conservation oracle across the takeover *)
  let balances = get_ok ~ctx:"e21 balances" (Debitcredit.transfer_balances db) in
  List.iter
    (fun (aid, b) -> assert (Float.abs (b -. expected.(aid)) < 1e-6))
    balances;
  let sum = List.fold_left (fun acc (_, b) -> acc +. b) 0. balances in
  assert (Float.abs (sum -. (1000. *. float_of_int accounts)) < 1e-6);
  (* zero acknowledged-commit loss: every parameter set commits exactly
     once, none abandoned — [transfers] checks both *)
  assert (delta.Stats.takeovers = 1);
  let before, after = List.partition (fun t -> t < takeover_at) !commit_times in
  emit_count "committed" rep.Debitcredit.x_committed;
  emit "takeover_latency_us" !takeover_latency;
  (* [transfers] has checked that every transfer of both runs committed *)
  emit "tps_base" (tps (terminals * txs_per_terminal) base_elapsed);
  emit "tps_before" (tps (List.length before) (takeover_at -. t0));
  emit "tps_after" (tps (List.length after) (t0 +. elapsed_us -. takeover_at));
  emit "slowdown" (elapsed_us /. base_elapsed);
  emit_count "lock_waits" delta.Stats.lock_waits

(* --- E22: push-based batched executor ----------------------------- *)

let e22_batched_executor =
  experiment "e22"
    "push-based batched executor: reply buffers as operator batches"
    "the File System already receives whole VSBB reply buffers; the \
     executor keeps each buffer intact as one operator-exchange batch — \
     tight array loops inside every operator, no per-record closure call \
     or list cons at operator boundaries"
  @@ fun () ->
  let rows = 10_000 in
  let sql =
    "SELECT onepercent, COUNT(*), SUM(unique1), MIN(unique2) FROM t GROUP \
     BY onepercent"
  in
  let node, s = wisconsin_node rows in
  (* first execution warms the cache and keeps the rowset for the check *)
  let first = query s sql in
  let (), d_bat = N.measure node (fun () -> ignore (N.exec_exn s sql)) in
  (* one traced run for the per-operator span profile *)
  let (), sp_bat = traced (N.sim node) (fun () -> ignore (N.exec_exn s sql)) in
  (* the answer itself: 100 groups whose counts cover every row and whose
     SUM(unique1) values add up to 0 + 1 + ... + 9999 *)
  let column i =
    List.fold_left
      (fun acc r -> match r.(i) with Row.Vint n -> acc + n | _ -> assert false)
      0 first.N.Executor.rows
  in
  assert (List.length first.N.Executor.rows = 100);
  assert (column 1 = rows);
  assert (column 2 = rows * (rows - 1) / 2);
  (* the operator chain, from the planner's descriptor API *)
  let ops =
    match Nsql_sql.Parser.parse sql with
    | Ok (Nsql_sql.Ast.St_select stmt) ->
        Nsql_sql.Planner.operators
          (get_ok ~ctx:"e22 plan"
             (Nsql_sql.Planner.plan_select (N.catalog node) stmt))
    | _ -> assert false
  in
  text
    (String.concat "\n  "
       ("operator chain (planner descriptors):"
       :: List.map (Format.asprintf "%a" Nsql_sql.Planner.pp_op_desc) ops));
  text
    (Format.asprintf "per-operator span profile:@\n%a"
       (Trace.pp_profile ~cats:[ "op" ]) sp_bat);
  emit_count "messages" d_bat.Stats.msgs_sent;
  emit_count "reply_bytes" d_bat.Stats.msg_reply_bytes;
  emit_count "batches" d_bat.Stats.exec_batches;
  emit_count "batch_rows" d_bat.Stats.exec_rows;
  emit "rows_per_batch" (ratio d_bat.Stats.exec_rows d_bat.Stats.exec_batches)

(* --- E23: the resource monitor — latency percentiles and utilization *)

let e23_monitor =
  experiment "e23" "resource monitor: terminal latency and utilization"
    "zero-perturbation observability: fixed-bucket latency histograms, a \
     time-sliced utilization/queueing sampler, and an exhaustive tiling \
     of simulated time into categories — monitoring on vs off is \
     bit-identical in results, counters and clock"
  @@ fun () ->
  let terminals = 4 and txs_per_terminal = 25 and accounts = 4 in
  let probe_idx name =
    Option.get (Array.find_index (String.equal name) Moncore.probe_names)
  in
  (* --- part A: E20-shape contention, monitored ----------------------- *)
  let node, db = transfer_world ~accounts () in
  let sim = N.sim node in
  monitor_from_now sim;
  let _, _, elapsed =
    timed node (fun () -> transfers db ~terminals ~txs_per_terminal)
  in
  let mc = Sim.moncore sim in
  let cats, total = tiled_cats sim in
  text (Format.asprintf "%a" Monitor.pp_report sim);
  let h = hist mc "transfer" in
  let q p = Hist.quantile h p in
  let busy = Moncore.busy_snapshot mc in
  (* DP-side queue time of parked requests: the terminal spends the same
     interval in await (overlapped), which is why C_await dominates *)
  let lw = hist mc "lock_wait" in
  emit "transfer_p50_us" (q 0.5);
  emit "transfer_p95_us" (q 0.95);
  emit "transfer_p99_us" (q 0.99);
  emit "transfer_max_us" (Hist.max_value h);
  emit "dp_util" (busy.(Moncore.res_index Moncore.R_dp) /. elapsed);
  emit "await_share" (cats.(Moncore.cat_index Moncore.C_await) /. total);
  emit "lock_wait_p50_us" (Hist.quantile lw 0.5);
  emit "lock_wait_p95_us" (Hist.quantile lw 0.95);
  emit_count "lock_wait_n" (Hist.count lw);
  (* --- part B: the E21 takeover dip as a sampled transient ------------ *)
  let base_elapsed = transfer_run ~accounts ~terminals ~txs_per_terminal in
  let node, db = transfer_world ~accounts () in
  let sim = N.sim node in
  Monitor.set_slice_us sim 50_000.;
  monitor_from_now sim;
  let takeover_at = Sim.now sim +. (base_elapsed /. 2.) in
  Sim.schedule sim ~at:takeover_at (fun () ->
      assert (N.takeover_volume node 0));
  ignore (transfers db ~terminals ~txs_per_terminal);
  let mc = Sim.moncore sim in
  ignore (tiled_cats sim);
  let slices = Array.of_list (Moncore.slices mc) in
  let n = Array.length slices in
  assert (n >= 3);
  let msg_i = probe_idx "msgs_sent" in
  let ckpt_i = probe_idx "checkpoint_bytes" in
  let parked_i = Moncore.gauge_index Moncore.G_parked in
  (* per-slice message throughput from the cumulative stats probe; slice 0
     is skipped — its delta reaches back into setup *)
  let delta_of i idx =
    slices.(i).Moncore.sl_stats.(idx) - slices.(i - 1).Moncore.sl_stats.(idx)
  in
  let tko_slice =
    Array.find_index
      (fun s ->
        s.Moncore.sl_start <= takeover_at
        && takeover_at < s.Moncore.sl_start +. 50_000.)
      slices
    |> Option.value ~default:(n - 1)
  in
  table
    ~caption:
      (fpr
         "takeover at %.0fus falls in slice %d of %d (50ms slices; window \
          around it shown):"
         takeover_at tko_slice n)
    [ "slice"; "t(ms)"; "msgs"; "parked"; "ckpt bytes" ]
    (fun i ->
      [
        fpr "%d%s" i (if i = tko_slice then "*" else " ");
        fixed 1 (slices.(i).Moncore.sl_start /. 1000.);
        num (delta_of i msg_i);
        num slices.(i).Moncore.sl_gauges.(parked_i);
        num (delta_of i ckpt_i);
      ])
    (let first = max 1 (tko_slice - 5) in
     List.init (min (n - 1) (tko_slice + 5) - first + 1) (( + ) first));
  (* the dip: message throughput in the takeover window drops below the
     steady-state peak while the replay's checkpoint traffic lands *)
  let dip_msgs =
    min (delta_of tko_slice msg_i)
      (delta_of (min (n - 1) (tko_slice + 1)) msg_i)
  in
  let steady_msgs = ref 0 in
  for i = 1 to n - 1 do
    if i < tko_slice || i > tko_slice + 1 then
      steady_msgs := max !steady_msgs (delta_of i msg_i)
  done;
  assert (dip_msgs < !steady_msgs);
  emit_count "tko_slices" n;
  emit_count "tko_dip_msgs" dip_msgs;
  emit_count "tko_steady_msgs" !steady_msgs;
  emit_count "tko_max_parked"
    (Array.fold_left (fun m s -> max m s.Moncore.sl_gauges.(parked_i)) 0 slices)

(* --- E24: multi-queue disk — IOPS and scan throughput vs queue depth *)

let e24_disk_queue =
  experiment "e24" "multi-queue disk: IOPS and scan throughput vs queue depth"
    "the paper's disk process overlaps seeks across spindles; the \
     simulated volume generalizes its single busy-window to an \
     io_uring-style submission/completion queue of configurable depth — \
     depth 1 stays byte-identical to the historical device, deeper \
     queues overlap transfers for higher IOPS and faster cold scans \
     while every query answers exactly the same"
  @@ fun () ->
  let depths = [ 1; 2; 4; 8; 16 ] in
  (* --- part A: raw device IOPS, pipelined random reads ---------------- *)
  (* a fixed scatter of single-block reads pumped through the device with
     up to [depth] in flight: every depth sees the same address list, so
     the elapsed ratio is pure queue overlap *)
  let ios = 240 and vol_blocks = 4096 in
  let iops depth =
    let sim = Sim.create ~config:(Config.v ~disk_queue_depth:depth ()) () in
    let mc = Sim.moncore sim in
    monitor_from_now sim;
    let d = Disk.create sim ~name:"$DATA" in
    ignore (Disk.allocate d vol_blocks);
    let pending = Queue.create () in
    let t0 = Sim.now sim in
    for i = 0 to ios - 1 do
      if Queue.length pending >= depth then
        ignore (Disk.complete d (Queue.pop pending));
      Queue.push (Disk.submit_read d ~first:(i * 997 mod vol_blocks) ~count:1)
        pending
    done;
    while not (Queue.is_empty pending) do
      ignore (Disk.complete d (Queue.pop pending))
    done;
    let elapsed = Sim.now sim -. t0 in
    let qh = hist mc "diskq:$DATA" and lh = hist mc "disk:$DATA" in
    ( float_of_int ios /. (elapsed /. 1e6),
      Hist.quantile qh 0.95,
      Hist.quantile lh 0.5,
      Hist.quantile lh 0.95 )
  in
  let iops_runs = List.map (fun d -> (d, iops d)) depths in
  table
    ~caption:
      (fpr
         "raw device, %d scattered single-block reads pumped at depth \
          (per-volume submit→complete latency from the monitor):"
         ios)
    [ "depth"; "IOPS"; "queue p95"; "latency p50"; "latency p95" ]
    (fun (depth, (rate, q95, l50, l95)) ->
      [
        num depth; fixed 0 rate; fixed 1 q95; fixed 1 l50 ^ "us";
        fixed 1 l95 ^ "us";
      ])
    iops_runs;
  let iops_at d = match List.assoc d iops_runs with rate, _, _, _ -> rate in
  let iops1 = iops_at 1 and iops8 = iops_at 8 in
  (* queueing cannot make the device slower, and 8 channels over seeks
     dominated by positioning time must overlap substantially *)
  List.iter (fun d -> assert (iops_at d >= iops1)) depths;
  assert (iops8 /. iops1 >= 1.5);
  (* --- part B: cold Wisconsin scan-drain throughput ------------------- *)
  (* the DP's deep read-ahead keeps [depth * bulk] blocks in flight
     (clamped to half the pool); the scan drains the same rowset at every
     depth, only the elapsed time moves *)
  let rows = 10_000 in
  let sql = "SELECT COUNT(*), SUM(unique1) FROM t" in
  let scan depth =
    let config = Config.v ~cache_blocks:256 ~disk_queue_depth:depth () in
    let node, s = wisconsin_node ~config rows in
    (* evict the freshly loaded table: fill the pool from a second one *)
    get_ok ~ctx:"e24 wisc2" (Wisconsin.create node ~name:"u" ~rows ());
    ignore (N.exec_exn s "SELECT COUNT(*) FROM u");
    let sim = N.sim node in
    monitor_from_now sim;
    let r, _, elapsed = timed node (fun () -> query s sql) in
    let rowset = Format.asprintf "%a" N.pp_rowset r in
    (* the monitor's exhaustive tiling survives the deep queue: category
       totals still sum to the clock delta exactly *)
    let cats, _ = tiled_cats sim in
    (elapsed, rowset, cats.(Moncore.cat_index Moncore.C_disk))
  in
  let runs = List.map (fun d -> (d, scan d)) depths in
  let e1, rowset1, disk1 = List.assoc 1 runs in
  table
    ~caption:
      (fpr
         "cold scan drain, %d-row Wisconsin table (%s), deep read-ahead at \
          depth:"
         rows sql)
    [ "depth"; "elapsed"; "speedup"; "C_disk time" ]
    (fun (d, (e, rowset, disk_us)) ->
      assert (rowset = rowset1);
      assert (e <= e1);
      [
        num d; fixed 1 e ^ "us"; fixed 2 (e1 /. e) ^ "x";
        fixed 1 disk_us ^ "us";
      ])
    runs;
  let e8, _, disk8 = List.assoc 8 runs in
  (* the acceptance gate: ≥1.5x at depth 8, identical rowsets (checked
     above for every depth), blocking disk time squeezed by the overlap *)
  assert (e1 /. e8 >= 1.5);
  assert (disk8 < disk1);
  (* --- part C: DebitCredit under a deep queue ------------------------- *)
  (* OLTP rides the same device model: every transfer commits and the
     money is conserved — 8 accounts seeded at 1000.0 each *)
  List.iter
    (fun depth ->
      let _, db = transfer_world ~disk_queue_depth:depth ~accounts:8 () in
      ignore (transfers db ~terminals:4 ~txs_per_terminal:25);
      assert (balance_sum db = 8. *. 1000.))
    [ 1; 8 ];
  emit "iops_depth1" iops1;
  emit "iops_depth8" iops8;
  List.iter (fun (d, (e, _, _)) -> emit (fpr "scan_depth%d_us" d) e) runs;
  emit "scan_speedup_d8" (e1 /. e8)

(* --- the experiment registry and command line --------------------- *)

let registry =
  [
    e1_rsbb_vs_record; e2_vsbb_wisconsin; e3_update_subset;
    e4_audit_compression; e5_bulk_prefetch; e6_write_behind; e7_group_commit;
    e8_debitcredit; e9_figure2_trace; e10_redrive; e11_blocked_insert;
    e12_vblock_locking; e13_partitions; e14_apply_block; e15_remote_requester;
    e16_distributed_tx; e17_parallel_scan; e18_agg_pushdown;
    e19_profile_attribution; e20_contention; e21_takeover;
    e22_batched_executor; e23_monitor; e24_disk_queue; a1_vsbb_buffer;
  ]

let usage () =
  prerr_endline
    "usage: main.exe [--list] [--only e1,e17,...] [--json results.json] \
     [--doc EXPERIMENTS.md] [--trace DIR] [--monitor DIR]\n\
     experiment ids: e1-e24, a1 (--list for descriptions)";
  exit 2

let ensure_dir dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755
  else if not (Sys.is_directory dir) then begin
    prerr_endline (dir ^ " is not a directory");
    exit 2
  end

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

(* Run one experiment under its heading and print what it reported; its
   parts and metrics are returned for --json and --doc. --trace enables
   span collection, and --monitor the resource monitor, on every
   simulation world the experiment creates (via the creation hooks);
   afterwards each writes one export per experiment: Chrome trace-event
   JSON, and the monitor JSON. Observation never perturbs the simulation,
   so results are identical with and without the flags, and the exports
   themselves are byte-identical across runs (CI diffs them). *)
let run_experiment ~trace_dir ~monitor_dir e =
  let tracers = ref [] and moncores = ref [] in
  if trace_dir <> None then
    Tracer.creation_hook :=
      Some
        (fun tr ->
          Tracer.set_enabled tr true;
          tracers := tr :: !tracers);
  if monitor_dir <> None then
    Moncore.creation_hook :=
      Some
        (fun mc ->
          Moncore.set_enabled mc ~now:0. true;
          moncores := mc :: !moncores);
  parts := [];
  metrics := [];
  printf "@.==== %s: %s ====@." (String.uppercase_ascii e.id) e.title;
  printf "paper: %s@.@." e.paper;
  Fun.protect
    ~finally:(fun () ->
      Tracer.creation_hook := None;
      Moncore.creation_hook := None)
    e.run;
  let result = (List.rev !parts, List.rev !metrics) in
  printf "%s@." (render result);
  Option.iter
    (fun dir ->
      let path = Filename.concat dir (e.id ^ ".monitor.json") in
      write_file path (Monitor.json_of_moncores (List.rev !moncores));
      printf "monitor export written to %s (%d worlds)@." path
        (List.length !moncores))
    monitor_dir;
  Option.iter
    (fun dir ->
      let spans =
        List.rev_map
          (fun tr ->
            let kept = List.filter (fun (t, _) -> t == tr) !kept_spans in
            List.concat_map snd (List.rev kept) @ Tracer.take tr)
          !tracers
      in
      kept_spans := [];
      let path = Filename.concat dir (e.id ^ ".json") in
      write_file path (Trace.chrome_json spans);
      printf "trace written to %s (%d worlds, %d spans)@." path
        (List.length spans)
        (List.fold_left (fun a l -> a + List.length l) 0 spans))
    trace_dir;
  (e, result)

(* one {id, metric, value} record per headline metric, in run order *)
let write_json path results =
  let record id (metric, v) =
    fpr "  {\"id\": \"%s\", \"metric\": \"%s\", \"value\": %.6g}" id metric v
  in
  let body =
    String.concat ",\n"
      (List.concat_map (fun (e, (_, ms)) -> List.map (record e.id) ms) results)
  in
  write_file path (if body = "" then "[\n]\n" else "[\n" ^ body ^ "\n]\n")

(* the index of the first [sub] in [s] at or after [from], if any *)
let rec find_sub s sub from =
  if from + String.length sub > String.length s then None
  else if String.sub s from (String.length sub) = sub then Some from
  else find_sub s sub (from + 1)

(* rewrite, in the markdown file [path], each experiment's block between
   "<!-- bench:ID -->" and "<!-- /bench:ID -->" with its rendered result;
   every experiment run must have its block *)
let write_doc path results =
  let splice doc (e, result) =
    let opening = fpr "<!-- bench:%s -->" e.id in
    let closing = fpr "<!-- /bench:%s -->" e.id in
    let body =
      Option.map (( + ) (String.length opening)) (find_sub doc opening 0)
    in
    match (body, Option.bind body (find_sub doc closing)) with
    | Some body, Some j ->
        String.sub doc 0 body ^ "\n\n" ^ render result ^ "\n\n"
        ^ String.sub doc j (String.length doc - j)
    | _ ->
        prerr_endline (fpr "%s has no %s ... %s block" path opening closing);
        exit 2
  in
  let doc = In_channel.with_open_bin path In_channel.input_all in
  write_file path (List.fold_left splice doc results)

let () =
  let json_path = ref None in
  let doc_path = ref None in
  let trace_dir = ref None in
  let monitor_dir = ref None in
  let only = ref None in
  let list_only = ref false in
  let rec parse_args = function
    | [] -> ()
    | "--list" :: rest ->
        list_only := true;
        parse_args rest
    | "--json" :: path :: rest ->
        json_path := Some path;
        parse_args rest
    | "--doc" :: path :: rest ->
        doc_path := Some path;
        parse_args rest
    | "--trace" :: dir :: rest ->
        trace_dir := Some dir;
        parse_args rest
    | "--monitor" :: dir :: rest ->
        monitor_dir := Some dir;
        parse_args rest
    | "--only" :: ids :: rest ->
        let ids =
          String.split_on_char ',' ids
          |> List.map String.trim
          |> List.filter (fun s -> s <> "")
        in
        List.iter
          (fun id ->
            if not (List.exists (fun e -> e.id = id) registry) then begin
              prerr_endline ("unknown experiment id: " ^ id);
              usage ()
            end)
          ids;
        only := Some ids;
        parse_args rest
    | _ -> usage ()
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  if !list_only then begin
    List.iter (fun e -> printf "%-6s %s@." e.id e.title) registry;
    exit 0
  end;
  let chosen =
    match !only with
    | None -> registry
    | Some ids -> List.filter (fun e -> List.mem e.id ids) registry
  in
  printf "NonStop SQL reproduction — experiment harness@.";
  printf
    "(see DESIGN.md for the experiment index, EXPERIMENTS.md for the \
     paper-vs-measured discussion)@.";
  Option.iter ensure_dir !trace_dir;
  Option.iter ensure_dir !monitor_dir;
  let results =
    List.map
      (run_experiment ~trace_dir:!trace_dir ~monitor_dir:!monitor_dir)
      chosen
  in
  Option.iter
    (fun path ->
      write_json path results;
      printf "machine-readable results written to %s@." path)
    !json_path;
  Option.iter
    (fun path ->
      write_doc path results;
      printf "generated blocks written to %s@." path)
    !doc_path;
  printf "@.all experiments complete.@."
