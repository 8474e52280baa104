(** Key-sequenced files: the B-tree access method of the Disk Process.

    Keys are order-preserving encoded byte strings ({!Nsql_util.Keycode});
    records are opaque byte images. Pages live in disk blocks accessed
    through the {!Nsql_cache.Cache} buffer pool, so every structural
    operation participates in LRU caching, WAL ordering, bulk I/O and
    pre-fetch.

    Deletion is lazy (a drained leaf stays chained and is skipped by
    scans), as in several production B-trees; splits allocate at the end of
    the volume, so physical clustering of a sequentially loaded file
    degrades as it takes random inserts — exactly the behaviour the paper
    notes for bulk I/O ("where physical clustering ... has been broken due
    to B-tree splits, some bulk I/Os may be less than maximal length"). *)

type t

(** [create sim cache ~name] allocates an empty tree (one root leaf). *)
val create : Nsql_sim.Sim.t -> Nsql_cache.Cache.t -> name:string -> t

val record_count : t -> int
val height : t -> int

(** [lookup t key] returns the record image stored under [key]. *)
val lookup : t -> string -> string option

(** [record_fits t ~key ~record] — is the entry within the size a page can
    hold? Mutations must verify this {e before} writing their audit
    record, so a failed operation leaves no trace in the trail. *)
val record_fits : t -> key:string -> record:string -> bool

(** [insert t ~key ~record ~lsn] adds a new record.
    Fails with [Duplicate_key] if present. *)
val insert :
  t -> key:string -> record:string -> lsn:int64 -> (unit, Nsql_util.Errors.t) result

(** [update t ~key ~record ~lsn] replaces an existing record and returns
    the old image. Fails with [Not_found_key] if absent. *)
val update :
  t -> key:string -> record:string -> lsn:int64 -> (string, Nsql_util.Errors.t) result

(** [delete t ~key ~lsn] removes a record and returns its old image.
    Fails with [Not_found_key] if absent. *)
val delete : t -> key:string -> lsn:int64 -> (string, Nsql_util.Errors.t) result

(** [load_sorted t entries ~lsn] bulk-loads an empty tree from entries
    sorted by strictly ascending key, producing physically contiguous
    leaves. Fails if the tree is non-empty or keys are unsorted. *)
val load_sorted :
  t -> (string * string) list -> lsn:int64 -> (unit, Nsql_util.Errors.t) result

(** {1 Cursors}

    A cursor denotes a position at an actual entry, or the end. Cursors
    are value-snapshots: after any mutation, re-seek by key (which is what
    the FS-DP continuation re-drive protocol does anyway). *)

type cursor

(** [seek t key] positions at the first entry with key [>= key]. *)
val seek : t -> string -> cursor

(** [cursor_view t c] is the leaf view and entry index at the cursor,
    read through the cache exactly as {!cursor_entry} reads it; the entry
    stays in the block until a caller copies it out. *)
val cursor_view : t -> cursor -> (Page.view * int) option

(** [cursor_entry t c] is the (key, record) at the cursor. *)
val cursor_entry : t -> cursor -> (string * string) option

(** [advance t c] moves to the next entry. *)
val advance : t -> cursor -> cursor

(** [cursor_block c] is the leaf block the cursor rests on, if any — the
    Disk Process uses it to drive sequential pre-fetch. *)
val cursor_block : cursor -> int option

(** {1 Diagnostics} *)

(** [leaf_blocks t] lists leaf block numbers in key order. *)
val leaf_blocks : t -> int list

(** [check_invariants t] walks the tree verifying ordering, separator
    correctness and leaf chaining; returns a violation description if any.
    For tests. *)
val check_invariants : t -> (unit, string) result
