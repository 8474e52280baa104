(** The Disk Process lock manager.

    Concurrency control for both SQL and ENSCRIBE data at the file, record,
    or generic (key-prefix) level, as in the paper. SQL's virtual sequential
    block buffering adds *virtual-block group locking*: the records of a
    virtual block are locked as a group, which this module models as a key
    {e range} lock.

    Every resource is internally an interval of the encoded-key space, so
    conflicts between the four granularities reduce to interval overlap:
    - a whole-file lock covers [LOW, HIGH];
    - a record lock covers exactly its key;
    - a generic lock covers every key with the given prefix;
    - a range (virtual-block group) lock covers [lo, hi).

    Acquisition is non-blocking: the caller receives [Granted] or
    [Blocked blockers] and decides whether to queue, retry, or abort; the
    {!Waitgraph} companion detects deadlocks among waiting transactions. *)

type mode = Shared | Exclusive

type resource =
  | File
  | Record of string  (** encoded primary key *)
  | Generic of string  (** encoded key prefix *)
  | Range of string * string  (** [lo, hi) in encoded-key space *)

type outcome = Granted | Blocked of int list  (** blocking transaction ids *)

type t

val create : Nsql_sim.Sim.t -> t

(** [acquire t ~tx ~file resource mode] requests a lock for transaction
    [tx] on [resource] of file [file]. Re-acquisition by the same holder is
    granted (including Shared-to-Exclusive upgrade when [tx] is the sole
    conflicting holder). *)
val acquire : t -> tx:int -> file:int -> resource -> mode -> outcome

(** [release_all t ~tx] drops every lock of [tx] (commit/abort time —
    two-phase locking releases nothing earlier). *)
val release_all : t -> tx:int -> unit

(** [clear_all t] empties the lock table — processor crash (lock state is
    volatile). *)
val clear_all : t -> unit

(** [held t ~tx] is the number of locks held by [tx]. *)
val held : t -> tx:int -> int

(** [total_locks t] is the total number of granted locks (for tests). *)
val total_locks : t -> int

(** [set_grant_hook t hook] registers an observer called on every new grant
    and on every actual Shared-to-Exclusive upgrade (no-op re-grants are not
    reported). The process-pair checkpoint stream uses this to mirror the
    lock table onto the backup. [None] unregisters. *)
val set_grant_hook :
  t -> (tx:int -> file:int -> resource -> mode -> unit) option -> unit

(** [restore t entries] rebuilds the table from a grant log (takeover on
    the new primary). Charges no statistics and no simulated time: the
    backup already paid for this state through the checkpoint stream. *)
val restore : t -> (int * int * resource * mode) list -> unit

(** {1 Wait-for graph} *)

module Waitgraph : sig
  type g

  val create : unit -> g

  (** [set_waiting g ~tx ~on] records that [tx] waits for the transactions
      [on], merging with any edges [tx] already has — a waiter blocked by
      several holders keeps an edge to each. Use {!clear_waiting} first for
      replace semantics (e.g. when a re-probe reports a fresh blocker
      set). *)
  val set_waiting : g -> tx:int -> on:int list -> unit

  (** [clear_waiting g ~tx] removes [tx]'s outgoing edges. *)
  val clear_waiting : g -> tx:int -> unit

  (** [clear g] removes every edge — processor crash (wait state is
      volatile, like the lock table itself). *)
  val clear : g -> unit

  (** [find_cycle g ~tx] returns a deadlock cycle through [tx], if any. *)
  val find_cycle : g -> tx:int -> int list option
end
