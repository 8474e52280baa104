(** TMF audit (journal) records.

    Both ENSCRIBE and SQL write to the same audit trail, but with different
    record formats for updates:
    - ENSCRIBE's unit of update is the whole record, so its audit records
      carry full before- and after-images ({!Update_full});
    - SQL syntax names the fields being updated, so the Disk Process emits
      *field-compressed* records carrying only the touched fields'
      before/after values ({!Update_fields}) — generally much smaller.

    The size difference is the subject of experiment E4. *)

type body =
  | Begin_tx
  | Commit_tx
  | Abort_tx
  | Prepare_tx of { coordinator_node : int; coordinator_tx : int }
      (** two-phase commit: this branch is ready; the named coordinator
          transaction owns the commit decision *)
  | Insert of { file : int; key : string; image : string }
  | Delete of { file : int; key : string; image : string }
  | Update_full of { file : int; key : string; before : string; after : string }
  | Update_fields of {
      file : int;
      key : string;
      fields : (int * Nsql_row.Row.value * Nsql_row.Row.value) list;
          (** (field number, before, after) for each updated field *)
    }

type t = { lsn : int64; tx : int; body : body }

val pp_body : Format.formatter -> body -> unit

(** [encode r] frames the record (length prefix included) for the trail. *)
val encode : t -> string

(** [decode reader] parses one framed record. *)
val decode : Nsql_util.Codec.reader -> t

(** [encoded_size r] is [String.length (encode r)]. *)
val encoded_size : t -> int
