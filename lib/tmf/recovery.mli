(** Restart recovery: rollforward of the durable audit trail.

    After a simulated crash (all processor memory — caches, lock tables,
    transaction tables — lost), the committed state is reconstructed by
    scanning the durable audit trail and replaying the data operations of
    every transaction that has a durable COMMIT record, in LSN order.
    Transactions with no COMMIT (in-flight at the crash) or with an ABORT
    record are losers and are not replayed — their on-disk effects are
    discarded because replay starts from empty files, which is sound
    because the trail is never truncated in this simulation (the moral
    equivalent of TMF rollforward from an online dump taken at file-create
    time).

    The caller supplies the apply function that routes each record body to
    the right file. *)

type outcome = {
  replayed : int;  (** data records applied *)
  winners : int;  (** committed transactions *)
  losers : int;  (** in-flight or aborted transactions skipped *)
}

val pp_outcome : Format.formatter -> outcome -> unit

(** [rollforward_with trail ~resolve ~apply] scans the durable trail and
    calls [apply body] for every data operation of a committed
    transaction. In-doubt two-phase-commit branches (PREPARE without a
    local decision) are resolved by asking
    [resolve ~coordinator_node ~coordinator_tx] whether the named
    coordinator transaction committed. *)
val rollforward_with :
  Nsql_audit.Trail.t ->
  resolve:(coordinator_node:int -> coordinator_tx:int -> bool) ->
  apply:(Nsql_audit.Audit_record.body -> unit) ->
  outcome

(** [coordinator_committed trail ~tx] — does [trail] hold a durable COMMIT
    record for [tx]? The standard in-doubt resolver. *)
val coordinator_committed : Nsql_audit.Trail.t -> tx:int -> bool
