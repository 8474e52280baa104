(** NonStop SQL reproduction — the public API.

    A {!node} is one simulated Tandem system: up to sixteen processors, a
    set of Disk Processes (one per volume), the TMF transaction monitor
    with its audit-trail volume, and a message system connecting them. A
    {!session} executes SQL against the node through the SQL Executor and
    File System, which turn statements into FS-DP messages.

    {[
      let node = Nonstop_sql.create_node () in
      let s = Nonstop_sql.session node in
      ignore (Nonstop_sql.exec_exn s
        "CREATE TABLE emp (empno INT PRIMARY KEY, name VARCHAR(32), salary FLOAT NOT NULL)");
      ignore (Nonstop_sql.exec_exn s "INSERT INTO emp VALUES (1, 'Borr', 95000.0)");
      match Nonstop_sql.exec_exn s "SELECT name FROM emp WHERE salary > 32000" with
      | Rows rs -> Format.printf "%a@." Nonstop_sql.pp_rowset rs
      | _ -> ()
    ]} *)

module Sim = Nsql_sim.Sim
module Stats = Nsql_sim.Stats
module Config = Nsql_sim.Config
module Msg = Nsql_msg.Msg
module Row = Nsql_row.Row
module Expr = Nsql_expr.Expr
module Fs = Nsql_fs.Fs
module Dp = Nsql_dp.Dp
module Tmf = Nsql_tmf.Tmf
module Catalog = Nsql_sql.Catalog
module Executor = Nsql_sql.Executor

type node

(** [create_node ()] brings up a simulated node. [volumes] Disk Processes
    are placed round-robin on processors 1..; the requester runs on
    processor 0. With [remote_requester] the application/Executor runs on
    a different {e node} of the network, so every FS-DP interaction is an
    internode message — the configuration in which the paper's
    filter-at-the-source argument matters most. *)
val create_node :
  ?config:Config.t -> ?volumes:int -> ?name:string ->
  ?remote_requester:bool -> unit -> node

val sim : node -> Sim.t
val stats : node -> Stats.t
val msys : node -> Msg.system
val tmf : node -> Tmf.t
val fs : node -> Fs.t
val catalog : node -> Catalog.t
val dps : node -> Dp.t array
val trail : node -> Nsql_audit.Trail.t

(** [app_processor node] is the processor the requesters (File System,
    sessions, workload drivers) run on. *)
val app_processor : node -> Msg.processor

(** [snapshot node] / [measure node f] — statistics bracketing. *)
val snapshot : node -> Stats.t

val measure : node -> (unit -> 'a) -> 'a * Stats.t

(** {1 Sessions} *)

type session

type exec_result =
  | Rows of Executor.rowset
  | Affected of int  (** rows touched by INSERT/UPDATE/DELETE *)
  | Done  (** DDL and transaction control *)

val pp_exec_result : Format.formatter -> exec_result -> unit
val pp_rowset : Format.formatter -> Executor.rowset -> unit

val session : node -> session

(** [exec s sql] parses and executes one statement. Outside BEGIN/COMMIT,
    each statement autocommits. *)
val exec : session -> string -> (exec_result, Nsql_util.Errors.t) result

(** {2 Prepared statements}

    A statement may carry [?] parameter markers wherever a literal may
    stand: in an expression, a VALUES list or an IN list (not in DDL).
    [prepare] parses the text once; [execute] binds the values and then
    plans and runs the statement as [exec] does. Every execute plans
    afresh, so DDL run between the two (a new index, a dropped table) is
    honoured. *)

type prepared

(** [prepare sql] parses one statement, markers and all. *)
val prepare : string -> (prepared, Nsql_util.Errors.t) result

(** [execute s p values] runs [p] with marker [i] bound to [values.(i)].
    A value binds as the tree its [%d]/[%f]/quoted text would parse to at
    that position (see {!Nsql_sql.Ast.bind_params}), so it runs exactly as
    that text would, simulated costs included. [Bad_request] when the
    number of values differs from the number of markers. *)
val execute :
  session -> prepared -> Row.value array ->
  (exec_result, Nsql_util.Errors.t) result

(** [exec_exn s sql] is [exec] for examples and tests. *)
val exec_exn : session -> string -> exec_result

(** [query s sql] runs a SELECT and returns the rowset. *)
val query : session -> string -> (Executor.rowset, Nsql_util.Errors.t) result

(** [exec_script s sql] runs a [;]-separated script, stopping at the first
    error. *)
val exec_script : session -> string -> (exec_result list, Nsql_util.Errors.t) result

(** [set_access_mode s mode] pins the table-access mode used by scans —
    [Some A_record] / [Some A_rsbb] / [Some A_vsbb] for the paper's
    before/after comparisons, [None] to let the compiler choose. *)
val set_access_mode : session -> Fs.access option -> unit

(** [set_read_lock s mode] sets the lock mode of SELECT scans: [L_none]
    (the default) is browse access; [L_shared] holds virtual-block group
    locks to transaction end — repeatable read. *)
val set_read_lock : session -> Nsql_dp.Dp_msg.lock_mode -> unit

(** [explain s sql] renders the compiled plan of a SELECT. *)
val explain : session -> string -> (string, Nsql_util.Errors.t) result

(** [current_tx s] is the open transaction, if any. *)
val current_tx : session -> int option

(** [in_tx s f] runs [f tx] in a fresh transaction, committing on [Ok] and
    aborting on [Error] — for mixing SQL with programmatic FS access. *)
val in_tx :
  session -> (int -> ('a, Nsql_util.Errors.t) result) ->
  ('a, Nsql_util.Errors.t) result

(** {1 Clusters and network transactions}

    Multiple nodes share one simulated network; each node has its own TMF
    monitor (reachable as the ["$TMP<n>"] endpoint) and audit trail, and
    transactions spanning nodes commit atomically with two-phase commit —
    the distributed transaction management NonStop SQL inherits
    ({!Nsql_dtx.Dtx}). *)

type cluster

(** [create_cluster ~nodes ()] brings up [nodes] nodes on one network.
    Node [i]'s Disk Processes are named ["$N<i>DATA<j>"]. *)
val create_cluster :
  ?config:Config.t -> ?volumes_per_node:int -> nodes:int -> unit -> cluster

val cluster_nodes : cluster -> node array

(** [network_tx cluster ~home] begins a network transaction coordinated on
    node [home]; use {!Nsql_dtx.Dtx.branch} for per-node transaction ids
    and {!Nsql_dtx.Dtx.commit} / [abort] to finish. *)
val network_tx :
  cluster -> home:int -> (Nsql_dtx.Dtx.t, Nsql_util.Errors.t) result

(** [recover_cluster_volume cluster ~node ~volume] recovers after a crash,
    resolving in-doubt two-phase-commit branches against the coordinator
    nodes' audit trails. *)
val recover_cluster_volume :
  cluster -> node:int -> volume:int -> Nsql_tmf.Recovery.outcome

(** {1 Fault injection} *)

(** [crash_volume node i] crashes the i-th Disk Process (volatile state
    lost); [recover_volume node i] rolls the audit trail forward. *)
val crash_volume : node -> int -> unit

val recover_volume : node -> int -> Nsql_tmf.Recovery.outcome

(** [takeover_volume node i] fails the primary of the i-th Disk Process
    pair; the hot-standby backup keeps serving (no recovery needed).
    Returns [false] when the pair has no backup left. *)
val takeover_volume : node -> int -> bool

(** [vm_pressure node i ~frames] steals buffer frames from volume [i]'s
    cache, as the GUARDIAN memory manager does. Returns frames freed. *)
val vm_pressure : node -> int -> frames:int -> int
