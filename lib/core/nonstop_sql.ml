module Sim = Nsql_sim.Sim
module Stats = Nsql_sim.Stats
module Config = Nsql_sim.Config
module Moncore = Nsql_sim.Moncore
module Msg = Nsql_msg.Msg
module Disk = Nsql_disk.Disk
module Row = Nsql_row.Row
module Expr = Nsql_expr.Expr
module Fs = Nsql_fs.Fs
module Dp = Nsql_dp.Dp
module Tmf = Nsql_tmf.Tmf
module Trail = Nsql_audit.Trail
module Catalog = Nsql_sql.Catalog
module Parser = Nsql_sql.Parser
module Ast = Nsql_sql.Ast
module Binder = Nsql_sql.Binder
module Planner = Nsql_sql.Planner
module Executor = Nsql_sql.Executor
module Errors = Nsql_util.Errors
module Trace = Nsql_trace.Trace

open Errors

type node = {
  sim : Sim.t;
  msys : Msg.system;
  trail : Trail.t;
  tmf : Tmf.t;
  dps : Dp.t array;
  fs : Fs.t;
  catalog : Catalog.t;
  app_processor : Msg.processor;
}

(* Build one node's subsystems on an existing network. Disk Process
   endpoint names carry the node id so that a cluster's names stay
   unique. *)
let build_node ~sim ~msys ~node_id ~volumes ~dp_prefix ~app_processor =
  if volumes < 1 then invalid_arg "create_node: volumes < 1";
  let audit_volume =
    Disk.create sim ~name:(Printf.sprintf "$AUDIT%d" node_id)
  in
  let trail = Trail.create sim audit_volume in
  let tmf = Tmf.create sim trail in
  (* processors: 0 = requesters + TMF, 1..volumes = Disk Process
     primaries, backups on the next processor round-robin (max 16) *)
  let nproc = min 16 (volumes + 1) in
  let dps =
    Array.init volumes (fun i ->
        let cpu = 1 + (i mod (nproc - 1)) in
        let backup = 1 + ((i + 1) mod (nproc - 1)) in
        Dp.create sim msys tmf
          ~name:(Printf.sprintf "%s%d" dp_prefix (i + 1))
          ~processor:Msg.{ node = node_id; cpu }
          ~backup:Msg.{ node = node_id; cpu = backup }
          ())
  in
  let fs = Fs.create sim msys ~my_processor:app_processor in
  let catalog = Catalog.create fs ~dps in
  { sim; msys; trail; tmf; dps; fs; catalog; app_processor }

let create_node ?config ?(volumes = 2) ?(name = "\\NODE")
    ?(remote_requester = false) () =
  ignore name;
  let sim = Sim.create ?config () in
  let msys = Msg.create sim in
  let app_processor =
    if remote_requester then Msg.{ node = 1; cpu = 0 }
    else Msg.{ node = 0; cpu = 0 }
  in
  build_node ~sim ~msys ~node_id:0 ~volumes ~dp_prefix:"$DATA" ~app_processor

let sim n = n.sim
let stats n = Sim.stats n.sim
let msys n = n.msys
let tmf n = n.tmf
let fs n = n.fs
let catalog n = n.catalog
let dps n = n.dps
let trail n = n.trail
let app_processor n = n.app_processor
let snapshot n = Sim.snapshot n.sim
let measure n f = Sim.measure n.sim f

(* --- sessions ---------------------------------------------------------- *)

type session = {
  node : node;
  mutable open_tx : int option;
  mutable access_override : Fs.access option;
  mutable read_lock : Nsql_dp.Dp_msg.lock_mode;
}

type exec_result = Rows of Executor.rowset | Affected of int | Done

let pp_rowset = Executor.pp_rowset

let pp_exec_result ppf = function
  | Rows rs -> pp_rowset ppf rs
  | Affected n -> Format.fprintf ppf "%d row(s) affected" n
  | Done -> Format.pp_print_string ppf "ok"

let session node =
  { node; open_tx = None; access_override = None;
    read_lock = Nsql_dp.Dp_msg.L_none }

let set_access_mode s mode = s.access_override <- mode
let set_read_lock s mode = s.read_lock <- mode

let current_tx s = s.open_tx

(* run [f tx] in the session's open transaction, or autocommit *)
let with_tx s f =
  match s.open_tx with
  | Some tx -> f tx
  | None -> Tmf.run s.node.tmf f

let in_tx s f = Tmf.run s.node.tmf f

let schema_of_create (cols : Ast.col_def list) primary_key =
  let columns =
    Array.of_list
      (List.map
         (fun cd ->
           (* key columns are implicitly NOT NULL *)
           let nullable =
             (not cd.Ast.cd_not_null) && not (List.mem cd.Ast.cd_name primary_key)
           in
           Row.column ~nullable cd.Ast.cd_name cd.Ast.cd_type)
         cols)
  in
  if primary_key = [] then
    fail (Errors.Bad_request "CREATE TABLE requires a PRIMARY KEY")
  else
    try Ok (Row.schema columns ~key:primary_key)
    with Invalid_argument msg -> fail (Errors.Bad_request msg)

let exec_statement0 s stmt =
  let node = s.node in
  let ctx_of tx =
    Executor.{ fs = node.fs; sim = node.sim; tx; read_lock = s.read_lock }
  in
  match stmt with
  | Ast.St_begin -> (
      match s.open_tx with
      | Some _ -> fail (Errors.Bad_request "transaction already open")
      | None ->
          s.open_tx <- Some (Tmf.begin_tx node.tmf);
          Ok Done)
  | Ast.St_commit -> (
      match s.open_tx with
      | None -> fail Errors.No_transaction
      | Some tx ->
          s.open_tx <- None;
          let* () = Tmf.commit node.tmf ~tx in
          Ok Done)
  | Ast.St_rollback -> (
      match s.open_tx with
      | None -> fail Errors.No_transaction
      | Some tx ->
          s.open_tx <- None;
          let* () = Tmf.abort node.tmf ~tx in
          Ok Done)
  | Ast.St_create_table { ct_name; ct_cols; ct_primary_key; ct_check } ->
      let* schema = schema_of_create ct_cols ct_primary_key in
      let* check =
        match ct_check with
        | None -> Ok None
        | Some c ->
            let env = Binder.env_of_tables [ (ct_name, None, schema) ] in
            let* e = Binder.bind env c in
            let* ty = Expr.typecheck schema e in
            if Row.equal_col_type ty Row.T_bool then Ok (Some e)
            else fail (Errors.Type_error "CHECK constraint must be boolean")
      in
      let* _tbl = Catalog.create_table node.catalog ~name:ct_name ~schema ?check () in
      Ok Done
  | Ast.St_create_index { ci_name; ci_table; ci_cols } ->
      let* () =
        with_tx s (fun tx ->
            Catalog.create_index node.catalog ~tx ~table:ci_table
              ~index:ci_name ~cols:ci_cols)
      in
      Ok Done
  | Ast.St_insert { i_table; i_cols; i_values } ->
      let* tbl = Catalog.find node.catalog i_table in
      let* n =
        with_tx s (fun tx -> Executor.run_insert (ctx_of tx) tbl ~cols:i_cols i_values)
      in
      Ok (Affected n)
  | Ast.St_select sel ->
      let* plan =
        Planner.plan_select node.catalog ?access_override:s.access_override sel
      in
      let* rows = with_tx s (fun tx -> Executor.run_select (ctx_of tx) plan) in
      Ok (Rows rows)
  | Ast.St_update { u_table; u_sets; u_where } ->
      let* plan = Planner.plan_update node.catalog ~table:u_table ~sets:u_sets ~where:u_where in
      let* n = with_tx s (fun tx -> Executor.run_update (ctx_of tx) plan) in
      Ok (Affected n)
  | Ast.St_drop_table name ->
      let* () = Catalog.drop_table node.catalog name in
      Ok Done
  | Ast.St_delete { d_table; d_where } ->
      let* plan = Planner.plan_delete node.catalog ~table:d_table ~where:d_where in
      let* n = with_tx s (fun tx -> Executor.run_delete (ctx_of tx) plan) in
      Ok (Affected n)

let statement_kind = function
  | Ast.St_begin -> "begin"
  | Ast.St_commit -> "commit"
  | Ast.St_rollback -> "rollback"
  | Ast.St_create_table _ -> "create table"
  | Ast.St_create_index _ -> "create index"
  | Ast.St_drop_table _ -> "drop table"
  | Ast.St_insert _ -> "insert"
  | Ast.St_select _ -> "select"
  | Ast.St_update _ -> "update"
  | Ast.St_delete _ -> "delete"

(* the statement span is the root of a statement's operator tree; [?sql]
   renders the statement's text into the trace when the caller has it *)
let exec_statement_traced ?sql s stmt =
  Trace.span s.node.sim ~cat:"stmt"
    ~attrs:(fun () ->
      match sql with None -> [] | Some q -> [ ("sql", Trace.Str (q ())) ])
    (statement_kind stmt)
    (fun _ -> exec_statement0 s stmt)

(* the monitor brackets the whole statement: its elapsed time decomposes
   into per-category clock movement (deltas of the cumulative category
   totals), which tiles the [Sim.now] delta exactly — see Moncore. *)
let exec_statement ?sql s stmt =
  let sim = s.node.sim in
  let mc = Sim.moncore sim in
  if not (Moncore.enabled mc) then exec_statement_traced ?sql s stmt
  else begin
    let t0 = Sim.now sim in
    let before = Moncore.cat_snapshot mc in
    Fun.protect
      ~finally:(fun () ->
        let after = Moncore.cat_snapshot mc in
        let cats = Array.mapi (fun i a -> a -. before.(i)) after in
        let elapsed = Sim.now sim -. t0 in
        Moncore.note_stmt mc ~name:(statement_kind stmt) ~start:t0 ~elapsed
          ~cats;
        Moncore.observe mc "stmt" elapsed)
      (fun () -> exec_statement_traced ?sql s stmt)
  end

let exec s sql =
  let* stmt = Parser.parse sql in
  exec_statement ~sql:(fun () -> sql) s stmt

type prepared = { p_sql : string; p_stmt : Ast.statement }

let prepare sql =
  let* stmt = Parser.parse sql in
  Ok { p_sql = sql; p_stmt = stmt }

(* [sql] with each [?] outside quotes and comments replaced by its value
   as a literal would be written: the text a caller formatting the values
   with [%d], [%f] and ['%s'] would have sent *)
let render sql values =
  if Array.length values = 0 then sql
  else begin
    let b = Buffer.create (String.length sql + 32) in
    let n = String.length sql in
    let k = ref 0 in
    let rec go i ~quoted =
      if i < n then
        match sql.[i] with
        | '\'' ->
            Buffer.add_char b '\'';
            go (i + 1) ~quoted:(not quoted)
        | '-' when (not quoted) && i + 1 < n && sql.[i + 1] = '-' ->
            let j = try String.index_from sql i '\n' with Not_found -> n in
            Buffer.add_substring b sql i (j - i);
            go j ~quoted
        | '?' when not quoted ->
            (match values.(!k) with
            | Row.Null -> Buffer.add_string b "NULL"
            | Row.Vint i -> Buffer.add_string b (string_of_int i)
            | Row.Vfloat f -> Printf.bprintf b "%f" f
            | Row.Vbool v -> Buffer.add_string b (if v then "TRUE" else "FALSE")
            | Row.Vstr v ->
                Buffer.add_char b '\'';
                String.iter
                  (fun c ->
                    if c = '\'' then Buffer.add_char b c;
                    Buffer.add_char b c)
                  v;
                Buffer.add_char b '\'');
            incr k;
            go (i + 1) ~quoted
        | c ->
            Buffer.add_char b c;
            go (i + 1) ~quoted
    in
    go 0 ~quoted:false;
    Buffer.contents b
  end

let execute s p values =
  let* stmt = Ast.bind_params p.p_stmt values in
  exec_statement ~sql:(fun () -> render p.p_sql values) s stmt

let exec_exn s sql =
  match exec s sql with
  | Ok r -> r
  | Error e -> failwith (Printf.sprintf "exec %S: %s" sql (Errors.to_string e))

let query s sql =
  let* r = exec s sql in
  match r with
  | Rows rs -> Ok rs
  | Affected _ | Done -> fail (Errors.Bad_request "statement returned no rows")

let exec_script s sql =
  let* stmts = Parser.parse_many sql in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | stmt :: rest ->
        let* r = exec_statement s stmt in
        go (r :: acc) rest
  in
  go [] stmts

let explain s sql =
  let* stmt = Parser.parse sql in
  match stmt with
  | Ast.St_select sel ->
      let* plan =
        Planner.plan_select s.node.catalog ?access_override:s.access_override sel
      in
      Ok (Format.asprintf "%a" Planner.pp_select_plan plan)
  | _ -> fail (Errors.Bad_request "EXPLAIN supports SELECT only")

(* --- clusters ---------------------------------------------------------------- *)

module Dtx = Nsql_dtx.Dtx

type cluster = { cl_nodes : node array; cl_registry : Dtx.registry }

let create_cluster ?config ?(volumes_per_node = 1) ~nodes () =
  if nodes < 1 then invalid_arg "create_cluster: nodes < 1";
  let sim = Sim.create ?config () in
  let msys = Msg.create sim in
  let cl_nodes =
    Array.init nodes (fun node_id ->
        build_node ~sim ~msys ~node_id ~volumes:volumes_per_node
          ~dp_prefix:(Printf.sprintf "$N%dDATA" node_id)
          ~app_processor:Msg.{ node = node_id; cpu = 0 })
  in
  let cl_registry = Dtx.create_registry msys in
  Array.iteri
    (fun node_id n -> Dtx.register_tmf cl_registry ~node_id n.tmf)
    cl_nodes;
  { cl_nodes; cl_registry }

let cluster_nodes c = c.cl_nodes

let network_tx c ~home =
  Dtx.begin_network c.cl_registry ~home
    ~from:c.cl_nodes.(home).app_processor

let recover_cluster_volume c ~node ~volume =
  let resolve ~coordinator_node ~coordinator_tx =
    match Dtx.tmf_of c.cl_registry ~node_id:coordinator_node with
    | Some tmf ->
        Nsql_tmf.Recovery.coordinator_committed (Tmf.trail tmf)
          ~tx:coordinator_tx
    | None -> false
  in
  Dp.recover_with c.cl_nodes.(node).dps.(volume) ~resolve

(* --- fault injection ------------------------------------------------------- *)

let crash_volume n i = Dp.crash n.dps.(i)
let recover_volume n i = Dp.recover n.dps.(i)

let takeover_volume n i =
  match Dp.takeover n.dps.(i) with Ok () -> true | Error _ -> false

let vm_pressure n i ~frames = Nsql_cache.Cache.steal (Dp.cache n.dps.(i)) frames
