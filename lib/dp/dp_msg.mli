(** The FS-DP wire protocol.

    Every interaction between the File System (client side) and a Disk
    Process is one of these request/reply messages, serialized to bytes so
    that the message system can count real payload sizes — the paper's
    central performance quantity.

    Two interface generations coexist, as in the paper:

    {b The old, record-oriented ENSCRIBE interface}: point reads, single
    record inserts/updates/deletes, record-at-a-time sequential reads, and
    real sequential block buffering ([R_read_next] with [sbb]). One
    point-request set serves all three file structures, because a key
    addresses a record in each: a key-sequenced record by its primary
    key, a relative record by [Keycode.of_int slot] and an entry by
    [Keycode.of_int addr]. An entry-sequenced file grows only by
    [R_entry_append] (WRITE at EOF has no key) and its records are
    read-only: [R_update] and [R_delete] on it answer [Bad_request].

    {b The new SQL interface}: set-oriented requests over a primary-key
    range. A subset's FIRST request ([R_subset_first]) ships its
    definition — a {!subset}: a selection predicate, a field projection,
    update-expression assignments or aggregates — and the Disk Process
    keeps it in a {e Subset Control Block}. Every continuation re-drive
    ([R_subset_next]) carries only the SCB number and the restart key —
    measurably smaller messages.

    [R_insert_block] is the paper's "future enhancement": a blocked
    sequential-insert interface (experiment E11). *)

module Row = Nsql_row.Row
module Expr = Nsql_expr.Expr

type buffered_op = Ob_update of Expr.assignment list | Ob_delete

type lock_mode = L_none | L_shared | L_exclusive

type buffering = B_rsbb | B_vsbb

type file_kind_spec = K_key_sequenced | K_relative of int | K_entry_sequenced

(** {1 Aggregate pushdown}

    The SQL interface lets the Disk Process evaluate COUNT/SUM/MIN/MAX/AVG
    at the source (a [Cs_agg] subset): instead of shipping every
    qualifying row up in virtual blocks, the DP folds rows into accumulator
    state inside the re-drive budget and the final reply carries one
    accumulator per (group, aggregate) — bytes proportional to the number
    of groups, not the number of rows. *)

type agg_kind = Agg_count_star | Agg_count | Agg_sum | Agg_min | Agg_max | Agg_avg

type agg_spec = {
  ag_kind : agg_kind;
  ag_arg : Expr.t option;  (** [None] only for [Agg_count_star] *)
}

(** One aggregate's partial state. A single representation serves every
    kind so that partials from different partitions (or re-drives) merge
    uniformly; [finish_acc] extracts the kind's final value. *)
type agg_acc = {
  mutable aa_count : int;  (** non-Null inputs seen (all rows for [*]) *)
  mutable aa_sum_i : int;
  mutable aa_sum_f : float;
  mutable aa_saw_float : bool;
  mutable aa_min : Row.value;  (** [Null] while no input seen *)
  mutable aa_max : Row.value;
}

val fresh_acc : unit -> agg_acc

(** [feeder spec acc row] evaluates the spec's argument against [row] and
    feeds it ([Agg_count_star] counts the row unconditionally). The
    kind/argument dispatch happens once, in [feeder spec]: batch loops
    resolve it once per query and apply the returned closure to every
    row. *)
val feeder : agg_spec -> agg_acc -> Row.row -> unit

(** [finish_acc kind acc] is the aggregate's final value: COUNT of zero
    rows is 0, every other kind over zero rows is [Null], SUM stays
    integer unless a float was seen. *)
val finish_acc : agg_kind -> agg_acc -> Row.value

(** The one group table. Every grouping site keys groups here: the Disk
    Process's aggregate SCB, the File System's partition merge and the
    Executor's group and DISTINCT operators, so pushed-down and
    requester-side grouping agree bit for bit.

    Key rule: a key row with no [Vfloat] is its own identity (the codec
    is canonical for [Null]/[Vint]/[Vbool]/[Vstr], so value equality is
    encoded equality). A key row holding a [Vfloat] keys by its encoding,
    because [-0. = 0.] and NaN make value and encoded equality disagree:
    [-0.] and [0.] are two groups, equal-bit NaNs one. Groups list in
    first-seen order, never in hash order. *)
module Groups : sig
  type t

  (** [create ~keyless specs] is an empty table whose groups carry one
      accumulator per spec. [keyless] marks a grand aggregate (no GROUP
      BY), which {!rows} answers with one row even over no input. *)
  val create : keyless:bool -> agg_spec list -> t

  (** [find_or_add t key] is the accumulators of [key]'s group, adding a
      fresh group first if [key] is new. [key] must not be mutated
      afterwards: the table keeps it as the group's key row. *)
  val find_or_add : t -> Row.row -> agg_acc list

  (** [first_seen t key] adds [key]'s group if absent and says whether it
      did — the DISTINCT test. *)
  val first_seen : t -> Row.row -> bool

  (** [merge t key accs] folds a partial group in, accumulator by
      accumulator (counts and sums add, MIN/MAX keep the extreme); a new
      key adopts [accs] as its accumulators. *)
  val merge : t -> Row.row -> agg_acc list -> unit

  (** the number of groups *)
  val length : t -> int

  (** the groups, with their key rows, in first-seen order *)
  val groups : t -> (Row.row * agg_acc list) list

  (** [reset t] empties the table. *)
  val reset : t -> unit

  (** [rows t] is one finished row per group, in first-seen order: the key
      row followed by each accumulator's {!finish_acc} value. A keyless
      table with no groups yields one row of empty accumulators (COUNT 0,
      every other aggregate [Null]). *)
  val rows : t -> Row.row list
end

(** A subset's definition: everything a FIRST request ships and the Disk
    Process keeps in the SCB, and everything the backup needs to rebuild
    it ([Ck_scb_open]). Scan {e position} is deliberately absent for
    read/update/delete subsets: it is client-held and re-supplied by every
    re-drive ([after_key]). *)
type subset =
  | Cs_read of {
      buffering : buffering;
      pred : Expr.t option;
      proj : int array option;
      lock : lock_mode;
    }
  | Cs_update of { pred : Expr.t option; assignments : Expr.assignment list }
  | Cs_delete of { pred : Expr.t option }
  | Cs_agg of {
      pred : Expr.t option;
      group_keys : int array;
          (** grouping fields, a prefix of the file's key columns *)
      aggs : agg_spec list;
      lock : lock_mode;
    }

(** which subset a re-drive continues: GET, UPDATE^SUBSET, DELETE^SUBSET
    or AGGREGATE *)
type subset_kind = Sk_get | Sk_update | Sk_delete | Sk_agg

val kind_of_subset : subset -> subset_kind

type request =
  | R_create_file of {
      fname : string;
      kind : file_kind_spec;
      schema : Row.schema option;  (** SQL files carry their structure *)
      check : Expr.t option;  (** CHECK integrity constraint *)
    }
  | R_read of { file : int; tx : int; key : string; lock : lock_mode }
  | R_read_next of {
      file : int;
      tx : int;
      from_key : string;
      inclusive : bool;  (** start at [from_key] itself, or just after it *)
      lock : lock_mode;
      sbb : bool;  (** real sequential block buffering *)
    }
  | R_insert of { file : int; tx : int; key : string; record : string }
  | R_update of { file : int; tx : int; key : string; record : string }
  | R_delete of { file : int; tx : int; key : string }
  | R_lock_file of { file : int; tx : int; lock : lock_mode }
  | R_lock_generic of { file : int; tx : int; prefix : string; lock : lock_mode }
  | R_entry_append of { file : int; tx : int; record : string }
  | R_subset_first of { file : int; tx : int; range : Expr.key_range; body : subset }
      (** opens an SCB on [body] and runs its first step over [range] *)
  | R_subset_next of {
      kind : subset_kind;  (** must match the SCB's body *)
      file : int;
      tx : int;
      scb : int;
      after_key : string;  (** restart strictly after this key *)
    }  (** re-drives the subset SCB [scb] defines *)
  | R_insert_row of { file : int; tx : int; row : Row.row }
  | R_insert_block of { file : int; tx : int; rows : Row.row list }
  | R_apply_block of {
      file : int;
      tx : int;
      ops : (string * buffered_op) list;
          (** updates/deletes of specific records, accumulated in the File
              System while a cursor walked them ("update/delete where
              current") and shipped in one message — the paper's second
              future enhancement *)
    }
  | R_close_scb of { scb : int }
  | R_record_count of { file : int }
      (** catalog-style cardinality probe, one per partition *)

type reply =
  | Rp_ok
  | Rp_file of int  (** created file id *)
  | Rp_record of { key : string; record : string }
  | Rp_row of Row.row  (** projected point read *)
  | Rp_slot of int  (** an appended entry's address, or a record count *)
  | Rp_block of {
      entries : (string * string) list;
      last_key : string;
      more : bool;
      scb : int;  (** -1 for the stateless ENSCRIBE SBB path *)
    }
  | Rp_vblock of { rows : Row.row list; last_key : string; more : bool; scb : int }
  | Rp_progress of { processed : int; last_key : string; more : bool; scb : int }
  | Rp_end  (** scan/set exhausted *)
  | Rp_blocked of {
      blockers : int list;  (** transactions holding conflicting locks *)
      processed : int;  (** records already processed this request *)
      last_key : string;  (** restart point: last key fully processed *)
      scb : int;
    }  (** lock conflict: the requester waits and re-drives *)
  | Rp_agg of {
      groups : (Row.row * agg_acc list) list;
          (** group-key values paired with one accumulator per spec, in
              first-seen (= key) order; empty on intermediate re-drives —
              the partials stay in the SCB until the subset is exhausted *)
      last_key : string;
      more : bool;
      scb : int;
    }
  | Rp_error of Nsql_util.Errors.t

(** [tag req] is the human-readable message-type name, in the paper's
    GET^FIRST^VSBB style, used for tracing. *)
val tag : request -> string

(** Why decoding can fail: a tag byte outside the known range for a
    field, or a payload that ends mid-field. A malformed payload is a
    peer bug or corruption, so decoders return [result] and the
    transport layer answers with a protocol-level error instead of
    unwinding the process. *)
type decode_error =
  | Bad_tag of { field : string; tag : int }
  | Truncated

val decode_error_to_string : decode_error -> string

val encode_request : request -> string
val decode_request : string -> (request, decode_error) result

val encode_reply : reply -> string
val decode_reply : string -> (reply, decode_error) result

(** [is_mutation req] — does the request change file state (and thus
    checkpoint to the backup process)? *)
val is_mutation : request -> bool

(** {1 Process-pair checkpoint stream}

    The deltas a primary Disk Process sends its backup so the backup can
    resume as primary with no lost acknowledged work: SCB definitions (and
    the one kind of server-held progress, aggregate partials), lock grants
    and releases, and wait-queue membership. Encoded with the same codec as
    the request/reply protocol, so the byte charge of a checkpoint message
    is exactly the length of its encoded items. *)

module Lock = Nsql_lock.Lock

type ckpt_item =
  | Ck_intent of { payload : string }
      (** a mutation request is being applied: its full request bytes *)
  | Ck_lock of { tx : int; file : int; res : Lock.resource; mode : Lock.mode }
      (** a lock was granted, or upgraded to Exclusive *)
  | Ck_release of { tx : int }  (** commit/abort released every lock of [tx] *)
  | Ck_scb_open of {
      scb : int;
      file : int;
      lo : string;
      hi : string;
      body : subset;
    }
  | Ck_agg_state of { scb : int; groups : (Row.row * agg_acc list) list }
      (** aggregate partials surviving a re-drive boundary *)
  | Ck_scb_close of { scb : int }
  | Ck_park of { tx : int; payload : string }
      (** a request was parked on the lock wait queue *)
  | Ck_unpark of { tx : int }  (** the parked request left the queue *)

val encode_ckpt : ckpt_item list -> string
val decode_ckpt : string -> (ckpt_item list, decode_error) result
