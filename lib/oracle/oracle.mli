(** The transactional oracle: a serial in-memory reference model.

    The chaos harness runs a workload against the simulated node while
    faults fire; this module maintains what the database {e should}
    contain, applying only the transactions the harness saw commit. After
    the fault schedule and recovery, the real system's state is dumped and
    compared against the oracle, which checks the ACID end-to-end
    properties:

    - {b atomicity}: no effect of an aborted or in-flight transaction is
      visible;
    - {b durability}: every committed write survives crash + recovery;
    - {b consistency}: secondary indices agree with their base files, and
      workload invariants (balance conservation) hold.

    The model is deliberately simple — a sorted map per key-sequenced
    file, an append list per entry-sequenced file, and an index shadow
    derived from the base rows — so that it is obviously correct. *)

module Row = Nsql_row.Row

type t

val create : unit -> t

(** [add_file t ~name ~schema ~indexes] registers a key-sequenced SQL
    file. [indexes] lists (index name, base-file key column numbers). *)
val add_file :
  t -> name:string -> schema:Row.schema -> indexes:(string * int list) list ->
  unit

(** [add_entry_file t ~name] registers an entry-sequenced (history) file. *)
val add_entry_file : t -> name:string -> unit

(** {1 Committed state} *)

val row_count : t -> file:string -> int

(** [rows t ~file] is the committed contents in primary-key order. *)
val rows : t -> file:string -> (string * Row.row) list

(** {1 Transaction views}

    A view buffers one transaction's intended effects on top of the
    committed state. The harness mirrors every operation it performs into
    the view; if the transaction commits, the view is folded into the
    committed state, otherwise it is dropped. *)

type view

val view : t -> view

(** [v_lookup v ~file ~key] reads through the overlay then the committed
    state. *)
val v_lookup : view -> file:string -> key:string -> Row.row option

(** [v_insert v ~file row] records an insert. Raises [Invalid_argument] if
    the key is already present in the view — the harness must only mirror
    operations that succeeded on the real system. *)
val v_insert : view -> file:string -> Row.row -> unit

(** [v_update v ~file row] records a full-row rewrite (same primary key). *)
val v_update : view -> file:string -> Row.row -> unit

val v_delete : view -> file:string -> key:string -> unit

val v_append : view -> file:string -> record:string -> unit

(** [commit t v] folds the view into the committed state. *)
val commit : t -> view -> unit

(** {1 End-of-run checks}

    Each check returns human-readable violation descriptions; an empty
    list means the property holds. [actual] arguments are dumps of the
    real system's post-recovery state obtained through ordinary scans. *)

(** [check_file t ~file ~actual] compares a key-sequenced file dump
    (primary-key order) against the committed model: missing rows are
    durability violations, extra rows are atomicity violations. *)
val check_file :
  t -> file:string -> actual:(string * Row.row) list -> string list

(** [check_entries t ~file ~actual] compares an entry-sequenced dump in
    address order. *)
val check_entries : t -> file:string -> actual:string list -> string list

(** [check_index t ~file ~index ~actual] compares the base rows returned
    by a full index scan against the model ordered by (index columns,
    primary key): orphaned or missing index entries and wrong ordering all
    surface here. *)
val check_index :
  t -> file:string -> index:string -> actual:Row.row list -> string list
