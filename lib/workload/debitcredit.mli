(** The DebitCredit (TP1 / ET1) banking workload.

    The transaction profile of the NonStop SQL benchmark workbook: update
    an account balance, its teller and its branch, and append a history
    record. Implemented twice over the same logical schema:

    - {b SQL}: three UPDATE statements with update expressions plus one
      INSERT, executed by the SQL Executor — updates are delegated to the
      Disk Processes (no preliminary read);
    - {b ENSCRIBE}: the pre-existing record-at-a-time style — READ (lock),
      modify in the requester, REWRITE, for each of the three records,
      plus a WRITE to an entry-sequenced history file.

    Experiment E8 compares the two implementations' message, I/O and CPU
    costs per transaction. *)

module N = Nsql_core.Nonstop_sql

type sql_db

(** [setup_sql node ~accounts ~tellers ~branches] creates and loads the
    four tables through SQL DDL/DML. *)
val setup_sql :
  N.node -> accounts:int -> tellers:int -> branches:int ->
  (sql_db, Nsql_util.Errors.t) result

(** [run_sql_tx db session ~aid ~delta] runs one DebitCredit transaction
    through SQL. *)
val run_sql_tx :
  sql_db -> N.session -> aid:int -> delta:float ->
  (unit, Nsql_util.Errors.t) result

type enscribe_db

(** [setup_enscribe node ~accounts ~tellers ~branches] creates and loads
    the ENSCRIBE files (key-sequenced account/teller/branch,
    entry-sequenced history). *)
val setup_enscribe :
  N.node -> accounts:int -> tellers:int -> branches:int ->
  (enscribe_db, Nsql_util.Errors.t) result

(** [run_enscribe_tx node db ~aid ~delta] runs one transaction through the
    record-at-a-time interface. *)
val run_enscribe_tx :
  N.node -> enscribe_db -> aid:int -> delta:float ->
  (unit, Nsql_util.Errors.t) result

(** [sql_balances db session] is (sum of account balances, history count) —
    for consistency checks. *)
val sql_balances :
  sql_db -> N.session -> (float * int, Nsql_util.Errors.t) result

val enscribe_balances :
  N.node -> enscribe_db -> (float * int, Nsql_util.Errors.t) result

(** {1 Multi-terminal contention}

    DebitCredit proper cannot deadlock (every terminal acquires account,
    teller, branch in the same order), so contended runs use a {e transfer}
    variant: move money between two hot accounts (read-modify-rewrite both,
    source first) and append a history entry. Terminals pick crossed
    source/destination pairs, so concurrent sessions regularly lock the
    same two records in opposite orders — real wait-for cycles for the
    Disk Process deadlock detector. Run it with
    {!Nsql_sim.Config.t.dp_lock_wait} on to exercise the wait queues; with
    it off, every conflict is an immediate denial and the driver's
    abort/backoff/retry path carries all the load. *)

type transfer_db

(** [setup_transfer node ~accounts] creates and loads the hot account file
    (balances 1000.0 each) and the entry-sequenced history file. *)
val setup_transfer :
  N.node -> accounts:int -> (transfer_db, Nsql_util.Errors.t) result

type transfer_report = {
  x_committed : int;
  x_deadlock_aborts : int;  (** aborts after a [Deadlock] denial *)
  x_timeout_aborts : int;  (** aborts after a lock-wait budget expiry *)
  x_retries : int;  (** re-runs after a retryable abort *)
  x_failed : int;  (** parameter sets abandoned (retry budget spent) *)
}

(** [run_transfers db ~terminals ~txs_per_terminal ()] round-robins
    [terminals] terminal state machines, each with at most one Disk
    Process interaction outstanding, until every terminal has finished
    [txs_per_terminal] parameter sets. Deterministic for a fixed
    configuration: terminal parameters are arithmetic in (terminal id,
    sequence number), and the driver advances whichever completion the
    message system resolves earliest. [on_commit] fires once per committed
    transfer with its parameters (e.g. to mirror into an oracle). A victim
    aborts, backs off for a bounded terminal-staggered delay on the
    simulated clock, then retries the same parameters up to
    [max_retries]. *)
val run_transfers :
  ?max_retries:int ->
  ?backoff_us:float ->
  ?on_commit:(src:int -> dst:int -> delta:float -> unit) ->
  transfer_db ->
  terminals:int ->
  txs_per_terminal:int ->
  unit ->
  transfer_report

(** [transfer_balances db] lists (account, balance) pairs, read lock-free —
    the post-run state an oracle compares against. *)
val transfer_balances :
  transfer_db -> ((int * float) list, Nsql_util.Errors.t) result

(** [transfer_balance_sum db] is the sum of account balances (lock-free
    reads): invariant under every committed transfer. *)
val transfer_balance_sum : transfer_db -> (float, Nsql_util.Errors.t) result
