(** The SQL compiler: produces execution plans in terms of File System
    operations.

    Faithful to the paper's architecture, the compiler reduces every
    statement to {e single-variable queries}: per-table conjuncts of the
    WHERE clause are lowered to the expression language and attached to
    the table's access path, where the File System will ship them to Disk
    Processes; a primary-key (or secondary-index) range is extracted from
    the predicate; the remaining multi-variable conjuncts stay in the
    Executor as join/residual predicates. *)

module Row = Nsql_row.Row
module Expr = Nsql_expr.Expr
module Fs = Nsql_fs.Fs
module Dp_msg = Nsql_dp.Dp_msg

type access_path =
  | Ap_primary of {
      access : Fs.access;
      range : Expr.key_range;
      pred : Expr.t option;  (** pushed to the Disk Process *)
      proj : int array option;  (** pushed projection *)
    }
  | Ap_index of {
      index : string;
      range : Expr.key_range;  (** over the index key space *)
      ipred : Expr.t option;  (** pushed to the index's Disk Process *)
      residual : Expr.t option;  (** over base rows, after the base read *)
    }

type inner_access =
  | Ji_scan of { pred : Expr.t option }  (** inner-table scan per outer row *)
  | Ji_keyed of { key_exprs : Expr.t list }
      (** primary-key point read built from the outer row *)

type join_step = {
  j_table : Catalog.table;
  j_inner : inner_access;
  j_post : Expr.t option;  (** residual over the joined row so far *)
}

type group_spec = {
  g_keys : Expr.t list;
  g_aggs : (Ast.agg_kind * Expr.t option) list;
  g_having : Expr.t option;  (** over the group-output row *)
}

(** Aggregate pushdown: the GROUP BY evaluates at the data source, one
    AGGREGATE^FIRST/NEXT re-drive chain per partition, replies carrying
    accumulator state instead of rows. Legal only for a single-table
    primary scan with no access override whose group keys are bare columns
    forming a prefix of the primary key (then per-partition first-seen
    order is key order, and partials for a group that straddles a
    partition boundary merge exactly). Fields are in base numbering. *)
type agg_pushdown = {
  ap_range : Expr.key_range;
  ap_pred : Expr.t option;
  ap_group_keys : int array;
  ap_aggs : Dp_msg.agg_spec list;
}

type select_plan = {
  p_distinct : bool;  (** SELECT DISTINCT: de-duplicate the output rows *)
  p_table : Catalog.table;
  p_access : access_path;
  p_joins : join_step list;
  p_group : group_spec option;
  p_pushdown : agg_pushdown option;
      (** when set, the Executor ignores [p_access] and drives
          {!Fs.aggregate} instead of a scan *)
  p_order : (Expr.t * bool) list;
  p_exprs : Expr.t list;  (** output expressions *)
  p_names : string list;
  p_limit : int option;
}

(** [dp_agg_spec (kind, arg)] is the wire spec for one aggregate; COUNT
    with no argument counts rows, like a star-count. The Executor's
    client-side group path uses the same accumulators and group table
    ({!Dp_msg.feeder} / {!Dp_msg.Groups}), so pushed-down and
    client-side aggregation agree exactly. *)
val dp_agg_spec : Ast.agg_kind * Expr.t option -> Dp_msg.agg_spec

val pp_select_plan : Format.formatter -> select_plan -> unit

(** A linear description of the operator chain the Executor runs for a
    plan, one entry per operator in execution order — the vocabulary the
    batched pipeline and the per-operator experiments share. *)
type op_desc =
  | Od_scan of { table : string; path : string }
      (** base access; [path] is ["primary"] or ["index:<name>"] *)
  | Od_filter of { table : string }  (** client-side residual filter *)
  | Od_join of { table : string; kind : string }  (** ["keyed"] or ["scan"] *)
  | Od_group of { keys : int; aggs : int; pushdown : bool }
  | Od_sort of { keys : int }
  | Od_project of { exprs : int; distinct : bool }
  | Od_limit of { n : int }

(** [operators plan] lists the plan's operators in execution order. *)
val operators : select_plan -> op_desc list

val pp_op_desc : Format.formatter -> op_desc -> unit

type update_plan = {
  up_table : Catalog.table;
  up_range : Expr.key_range;
  up_pred : Expr.t option;
  up_assignments : Expr.assignment list;
}

type delete_plan = {
  dp_table : Catalog.table;
  dp_range : Expr.key_range;
  dp_pred : Expr.t option;
}

(** [plan_select cat ?access_override stmt] compiles a SELECT.
    [access_override] pins the scan mode (record-at-a-time / RSBB / VSBB)
    for the experiments; the default picks RSBB when there is nothing to
    push down and VSBB otherwise, as the paper describes. *)
val plan_select :
  Catalog.t -> ?access_override:Fs.access -> Ast.select_stmt ->
  (select_plan, Nsql_util.Errors.t) result

val plan_update :
  Catalog.t -> table:string -> sets:(string * Ast.sexpr) list ->
  where:Ast.sexpr option -> (update_plan, Nsql_util.Errors.t) result

val plan_delete :
  Catalog.t -> table:string -> where:Ast.sexpr option ->
  (delete_plan, Nsql_util.Errors.t) result
