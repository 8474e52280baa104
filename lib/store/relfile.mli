(** Relative files: ENSCRIBE's direct-access structure.

    Records live in fixed-size numbered slots; the record number is the
    key. Reads and writes address slots directly, with no tree descent.
    Slots are grouped into blocks accessed through the cache. *)

type t

(** [create sim cache ~slot_size] builds an empty relative file whose
    slots hold at most [slot_size] record bytes. *)
val create : Nsql_sim.Sim.t -> Nsql_cache.Cache.t -> slot_size:int -> t

(** [fits t record] — does [record] fit in a slot? *)
val fits : t -> string -> bool

(** [record_count t] is the number of occupied slots. *)
val record_count : t -> int

(** [write t ~slot ~record ~lsn] stores [record] in [slot], extending the
    file as needed. Fails with [Bad_request] if the record exceeds the
    slot size, [Duplicate_key] if the slot is occupied. *)
val write :
  t -> slot:int -> record:string -> lsn:int64 -> (unit, Nsql_util.Errors.t) result

(** [rewrite t ~slot ~record ~lsn] replaces an occupied slot's record,
    returning the old image. *)
val rewrite :
  t -> slot:int -> record:string -> lsn:int64 -> (string, Nsql_util.Errors.t) result

(** [read t ~slot] is the record in [slot], [None] for an empty or
    nonexistent slot. *)
val read : t -> slot:int -> string option

(** [next_from t ~slot] is the first occupied slot at or after [slot],
    with its record — the sequential-read primitive. *)
val next_from : t -> slot:int -> (int * string) option

(** [delete t ~slot ~lsn] empties a slot, returning the old image. *)
val delete : t -> slot:int -> lsn:int64 -> (string, Nsql_util.Errors.t) result

(** [append t ~record ~lsn] stores into the lowest free slot and returns
    its number. *)
val append : t -> record:string -> lsn:int64 -> (int, Nsql_util.Errors.t) result

(** [iter t f] applies [f slot record] to every occupied slot in order. *)
val iter : t -> (int -> string -> unit) -> unit
