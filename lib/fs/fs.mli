(** The File System: the requester-side library.

    These routines run in the application (or SQL Executor) process and
    turn logical file operations into FS-DP messages. As in the paper, the
    File System is the natural locale for the logic that — transparently
    to the caller —

    - routes an operation to the right {e partition} based on the record
      key (files may be horizontally partitioned over many Disk Processes
      on different processors or nodes);
    - accesses a base record {e via a secondary index} (first a message to
      the index's Disk Process, then a message to the base file's Disk
      Process — Figure 2 of the paper);
    - {e maintains secondary indices} consistently when records are
      inserted, updated or deleted;
    - performs {e sequential block buffering}: de-blocks locally from the
      real (RSBB) or virtual (VSBB) block returned by a set-oriented
      request, sending a continuation re-drive only when the local buffer
      drains;
    - accumulates sequential inserts into a local buffer and ships them
      with one blocked-insert message (the paper's future enhancement).

    Every operation here costs messages; nothing touches the disk or the
    lock table directly. *)

module Row = Nsql_row.Row
module Expr = Nsql_expr.Expr
module Msg = Nsql_msg.Msg
module Dp_msg = Nsql_dp.Dp_msg

type t

(** A partition: the key subrange [>= lo] hosted by one Disk Process. *)
type partition_spec = {
  ps_lo : string;  (** inclusive encoded lower bound; "" for the first *)
  ps_dp : Nsql_dp.Dp.t;
}

(** A secondary index over a SQL file. *)
type index_spec = {
  is_name : string;
  is_cols : int list;  (** base-file field numbers, index key prefix *)
  is_dp : Nsql_dp.Dp.t;  (** volume hosting the (unpartitioned) index *)
}

type file

(** [create sim msys ~my_processor] builds a File System instance for a
    requester running on [my_processor]. *)
val create : Nsql_sim.Sim.t -> Msg.system -> my_processor:Msg.processor -> t

(** [create_file t ~fname ~schema ?check ~partitions ~indexes ()] creates a
    SQL key-sequenced file on the given partitions, plus one key-sequenced
    file per secondary index, and returns the catalog handle. *)
val create_file :
  t ->
  fname:string ->
  schema:Row.schema ->
  ?check:Expr.t ->
  partitions:partition_spec list ->
  indexes:index_spec list ->
  unit ->
  (file, Nsql_util.Errors.t) result

(** [create_enscribe_file t ~fname ~kind ~partitions] creates a schema-less
    ENSCRIBE file (key-sequenced, relative or entry-sequenced). *)
val create_enscribe_file :
  t ->
  fname:string ->
  kind:Dp_msg.file_kind_spec ->
  partitions:partition_spec list ->
  (file, Nsql_util.Errors.t) result

val file_name : file -> string
val file_schema : file -> Row.schema option
val file_kind : file -> Dp_msg.file_kind_spec
val partition_count : file -> int
val index_names : file -> string list

(** [record_count t file] sums the partitions' live record counts: one
    RECORD^COUNT message per partition, overlapped (nowait) when
    {!Nsql_sim.Config.t.fs_fanout} is on. A partition's error reply is the
    result's error, never a count of 0. *)
val record_count : t -> file -> (int, Nsql_util.Errors.t) result

(** {1 Record-at-a-time operations (ENSCRIBE-style)} *)

(** [read t file ~tx ~key ~lock] reads one record by primary key. *)
val read :
  t -> file -> tx:int -> key:string -> lock:Dp_msg.lock_mode ->
  (string, Nsql_util.Errors.t) result

(** [read_row_via_index t file ~tx ~index ~index_key] implements Figure 2's
    first half: index lookup then base-file read; returns the base row. *)
val read_row_via_index :
  t -> file -> tx:int -> index:string -> index_key:Row.value list ->
  (Row.row option, Nsql_util.Errors.t) result

(** [insert t file ~tx ~key ~record] writes one (byte) record. *)
val insert :
  t -> file -> tx:int -> key:string -> record:string ->
  (unit, Nsql_util.Errors.t) result

(** [update t file ~tx ~key ~record] rewrites one (byte) record. *)
val update :
  t -> file -> tx:int -> key:string -> record:string ->
  (unit, Nsql_util.Errors.t) result

(** [append_entry t file ~tx ~record] appends to an entry-sequenced file
    and returns the record address. *)
val append_entry :
  t -> file -> tx:int -> record:string -> (int, Nsql_util.Errors.t) result

(** [delete t file ~tx ~key] removes one (byte) record (no index upkeep —
    ENSCRIBE byte files have no indices here). *)
val delete :
  t -> file -> tx:int -> key:string -> (unit, Nsql_util.Errors.t) result

(** [lock_file t file ~tx ~lock] locks every partition of the file; the
    per-partition round trips are overlapped under fan-out. *)
val lock_file :
  t -> file -> tx:int -> lock:Dp_msg.lock_mode ->
  (unit, Nsql_util.Errors.t) result

(** [lock_generic t file ~tx ~prefix ~lock] takes a generic (key-prefix)
    lock on the partition owning the prefix — ENSCRIBE's LOCKGENERIC. *)
val lock_generic :
  t -> file -> tx:int -> prefix:string -> lock:Dp_msg.lock_mode ->
  (unit, Nsql_util.Errors.t) result

(** [rel_read t file ~tx ~slot] reads one slot of a relative file. *)
val rel_read :
  t -> file -> tx:int -> slot:int -> (string, Nsql_util.Errors.t) result

(** [rel_write t file ~tx ~slot ~record] writes an empty slot and returns
    the slot number (ENSCRIBE REL^WRITE). *)
val rel_write :
  t -> file -> tx:int -> slot:int -> record:string ->
  (int, Nsql_util.Errors.t) result

(** [rel_rewrite t file ~tx ~slot ~record] overwrites an occupied slot. *)
val rel_rewrite :
  t -> file -> tx:int -> slot:int -> record:string ->
  (unit, Nsql_util.Errors.t) result

(** [rel_delete t file ~tx ~slot] empties a slot. *)
val rel_delete :
  t -> file -> tx:int -> slot:int -> (unit, Nsql_util.Errors.t) result

(** [entry_read t file ~tx ~addr] reads the entry at [addr] of an
    entry-sequenced file (addresses come from {!append_entry}). *)
val entry_read :
  t -> file -> tx:int -> addr:int -> (string, Nsql_util.Errors.t) result

(** {1 SQL row operations (with index maintenance)} *)

(** [insert_row t file ~tx row] validates DP-side, inserts into the right
    base partition, and maintains every secondary index (one message per
    index). *)
val insert_row :
  t -> file -> tx:int -> Row.row -> (unit, Nsql_util.Errors.t) result

(** [update_row_via_key t file ~tx ~key assignments] reads, recomputes,
    rewrites, and maintains indices — the requester-side path used when
    updated columns are indexed (set-oriented delegation is not legal
    then). *)
val update_row_via_key :
  t -> file -> tx:int -> key:string -> Expr.assignment list ->
  (unit, Nsql_util.Errors.t) result

(** [delete_row_via_key t file ~tx ~key] deletes a row and its index
    entries. *)
val delete_row_via_key :
  t -> file -> tx:int -> key:string -> (unit, Nsql_util.Errors.t) result

(** [read_next_raw t file ~tx ~from_key ~inclusive ~lock ~sbb] is the
    ENSCRIBE sequential-read primitive: returns the next record ([sbb] =
    false, one message per record) or the rest of the current physical
    block ([sbb] = true, ENSCRIBE's real sequential block buffering), in
    key order, transparently moving to the next partition when one is
    exhausted. The empty list means end-of-file. *)
val read_next_raw :
  t -> file -> tx:int -> from_key:string -> inclusive:bool ->
  lock:Dp_msg.lock_mode -> sbb:bool ->
  ((string * string) list, Nsql_util.Errors.t) result

(** {1 Set-oriented operations}

    These delegate selection / projection / update expressions to the Disk
    Processes and drive the continuation re-drive protocol. *)

(** How a scan moves data from the Disk Process to the requester. *)
type access =
  | A_record  (** record-at-a-time: one message per record (old way) *)
  | A_rsbb  (** real sequential block buffering: one block per message *)
  | A_vsbb  (** virtual blocks: selection + projection at the source *)

type scan

(** [open_scan t file ~tx ~access ~range ?pred ?proj ?ordered ~lock ()]
    starts a scan of the primary-key [range]. Under [A_vsbb] the predicate
    and projection execute in the Disk Process; under [A_rsbb] whole
    blocks are shipped and filtering happens here; under [A_record] each
    record costs one message (and per-record locks).

    When the range spans several partitions and
    {!Nsql_sim.Config.t.fs_fanout} is on, the block-buffered scans drive
    every partition with overlapped (nowait) requests, one outstanding
    re-drive per partition: per-partition message sequences — and thus
    message and byte counts — are identical to the blocking driver, but
    the elapsed time of requests in flight together is the max of their
    latencies, not the sum. [ordered] (default [true]) merges partitions
    in key order (partition ranges are disjoint and ascending, so this
    buffers not-yet-current partitions locally); [ordered:false] yields
    rows in completion order — earliest simulated completion first, ties
    to the lowest partition — which is still deterministic. *)
val open_scan :
  t ->
  file ->
  tx:int ->
  access:access ->
  range:Expr.key_range ->
  ?pred:Expr.t ->
  ?proj:int array ->
  ?ordered:bool ->
  lock:Dp_msg.lock_mode ->
  unit ->
  scan

(** [scan_next t scan] yields the next row (projected if requested): one
    pop over the {!scan_next_batch} stream. When nothing is left from the
    last buffer taken, it takes the next one uncharged — re-driving the
    Disk Process only if the local buffer is empty — and each pop charges
    [Sim.tick 3], so popping a buffer row by row is byte-identical to
    surrendering it whole. [Ok None] is end-of-scan. *)
val scan_next : t -> scan -> (Row.row option, Nsql_util.Errors.t) result

(** [scan_next_batch t scan] surfaces everything the scan has buffered —
    at least one FS-DP reply buffer, re-driving the Disk Process if the
    buffer is empty — as one row array; [Ok None] is end-of-scan. The
    batch is exactly the rows an uninterrupted run of {!scan_next} pops
    would return (starting with any that {!scan_next} has not popped yet),
    and by default carries the same aggregate per-row pop charge, so
    message traffic, counters and the simulated clock are byte-identical
    to pulling row-at-a-time.

    [~tick:false] defers the pop charge: the rows come back uncharged and
    the consumer owes [Sim.tick 3] per row {e before} any per-row message
    it sends — the contract that keeps send times exact for drivers that
    interleave messages with consumption (per-record read-modify-write
    fallbacks). An index scan ({!open_index_scan}) ignores [tick]: it
    charges each pop itself, right before that row's base read. *)
val scan_next_batch :
  ?tick:bool -> t -> scan -> (Row.row array option, Nsql_util.Errors.t) result

(** [close_scan t scan] releases the scan's SCBs and finishes its trace
    span. Idempotent. *)
val close_scan : t -> scan -> unit

(** [update_subset t file ~tx ~range ?pred assignments] delegates a
    set-oriented update (selection + update expression evaluated at the
    data source); re-drives until the subset is exhausted. Falls back to
    the requester-side per-record path when an updated column is indexed.
    Returns the number of records updated. *)
val update_subset :
  t -> file -> tx:int -> range:Expr.key_range -> ?pred:Expr.t ->
  Expr.assignment list -> (int, Nsql_util.Errors.t) result

(** [delete_subset t file ~tx ~range ?pred ()] — set-oriented delete;
    requester-side fallback when the file has indices. *)
val delete_subset :
  t -> file -> tx:int -> range:Expr.key_range -> ?pred:Expr.t -> unit ->
  (int, Nsql_util.Errors.t) result

(** {1 Aggregate pushdown}

    [aggregate t file ~tx ~range ?pred ~group_keys ~aggs ~lock ()]
    evaluates grouped aggregates at the data source: one
    AGGREGATE^FIRST / AGGREGATE^NEXT re-drive chain per partition
    (overlapped under fan-out), each final reply carrying one accumulator
    per (group, aggregate) instead of the qualifying rows. Partition
    results are merged, in partition order, into one
    {!Dp_msg.Groups.t} — groups whose rows straddle a partition boundary
    merge exactly. [group_keys] must be a prefix of the file's
    primary-key columns (the planner's legality rule), which makes
    first-seen order equal key order, so the group order is identical to
    a client-side scan's. *)
val aggregate :
  t -> file -> tx:int -> range:Expr.key_range -> ?pred:Expr.t ->
  group_keys:int array -> aggs:Dp_msg.agg_spec list -> lock:Dp_msg.lock_mode ->
  unit ->
  (Dp_msg.Groups.t, Nsql_util.Errors.t) result

(** {1 Blocked sequential insert (extension, experiment E11)} *)

type insert_buffer

(** [open_insert_buffer t file ~tx ~capacity] starts client-side insert
    blocking: rows accumulate locally and ship [capacity] at a time. *)
val open_insert_buffer : t -> file -> tx:int -> capacity:int -> insert_buffer

val buffered_insert :
  t -> insert_buffer -> Row.row -> (unit, Nsql_util.Errors.t) result

(** [flush_insert_buffer t b] ships any remaining rows. *)
val flush_insert_buffer : t -> insert_buffer -> (unit, Nsql_util.Errors.t) result

(** [add_index t file ~tx spec] creates a new secondary index on an
    existing SQL file and backfills it by scanning the base file (VSBB) and
    inserting the index entries (blocked). Returns the updated catalog
    handle — callers must replace their old handle. *)
val add_index :
  t -> file -> tx:int -> index_spec -> (file, Nsql_util.Errors.t) result

(** {1 Buffered update/delete where current (extension, experiment E14)}

    The paper's second future enhancement: a cursor owner accumulates
    updates and deletes of the records it has visited in a local buffer;
    the File System ships a full buffer to the Disk Process in one
    APPLY^BLOCK message instead of one message per record. Not available
    on indexed files (index maintenance needs the old row at the
    requester) — {!buffered_update}/{!buffered_delete} fall back to the
    per-record path there. *)

type apply_buffer

val open_apply_buffer : t -> file -> tx:int -> capacity:int -> apply_buffer

val buffered_update :
  t -> apply_buffer -> key:string -> Expr.assignment list ->
  (unit, Nsql_util.Errors.t) result

val buffered_delete :
  t -> apply_buffer -> key:string -> (unit, Nsql_util.Errors.t) result

(** [flush_apply_buffer t b] ships any remaining buffered operations. *)
val flush_apply_buffer : t -> apply_buffer -> (unit, Nsql_util.Errors.t) result

(** {1 Scans via secondary index} *)

(** [open_index_scan t file ~tx ~index ~range ?pred ?proj ~lock ()] opens
    a scan of [file] through its secondary [index]: a VSBB scan of the
    index file whose every entry {!scan_next} and {!scan_next_batch}
    resolve to its base row with a point read (one message per base row —
    the cost structure of Figure 2). [range] and [pred] are in terms of
    the {e index} file's fields; [proj] is in terms of the base file. The
    handle is an ordinary {!scan}: the caller must {!close_scan} it on
    every exit, or an abandoned scan leaks its SCB and leaves its trace
    span open. [Error] on an unknown index or a file without a schema. *)
val open_index_scan :
  t -> file -> tx:int -> index:string -> range:Expr.key_range ->
  ?pred:Expr.t -> ?proj:int array -> lock:Dp_msg.lock_mode -> unit ->
  (scan, Nsql_util.Errors.t) result

(** [index_schema file ~index] is the schema of the index file (index
    columns then base key columns), for planners that push predicates to
    the index. *)
val index_schema : file -> index:string -> (Row.schema, Nsql_util.Errors.t) result
