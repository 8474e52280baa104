(** The SQL catalog: table name → file handle + schema.

    DDL placement policy: tables created through SQL go to the node's Disk
    Processes round-robin; programmatically created (e.g. partitioned)
    files can be registered directly. *)

module Fs = Nsql_fs.Fs
module Row = Nsql_row.Row
module Expr = Nsql_expr.Expr

type table = { t_name : string; t_file : Fs.file; t_schema : Row.schema }

type t

val create : Fs.t -> dps:Nsql_dp.Dp.t array -> t

(** [register t name file] adds an externally created SQL file. *)
val register : t -> string -> Fs.file -> (unit, Nsql_util.Errors.t) result

val find : t -> string -> (table, Nsql_util.Errors.t) result

val table_names : t -> string list

(** [create_table t ~name ~schema ?check ()] creates an unpartitioned
    table on the next Disk Process (round-robin). *)
val create_table :
  t -> name:string -> schema:Row.schema -> ?check:Expr.t -> unit ->
  (table, Nsql_util.Errors.t) result

(** [drop_table t name] removes the table from the catalog; its data
    becomes unreachable. The on-volume blocks and Disk Process file labels
    are not reclaimed (the simulated volumes only grow), so re-creating a
    dropped table requires a fresh name. *)
val drop_table : t -> string -> (unit, Nsql_util.Errors.t) result

(** [create_index t ~tx ~table ~index ~cols] builds a secondary index
    (with backfill) and updates the catalog handle. *)
val create_index :
  t -> tx:int -> table:string -> index:string -> cols:string list ->
  (unit, Nsql_util.Errors.t) result
