module Sim = Nsql_sim.Sim
module Stats = Nsql_sim.Stats
module Config = Nsql_sim.Config
module Moncore = Nsql_sim.Moncore
module Msg = Nsql_msg.Msg
module Disk = Nsql_disk.Disk
module Cache = Nsql_cache.Cache
module Lock = Nsql_lock.Lock
module Row = Nsql_row.Row
module Expr = Nsql_expr.Expr
module Btree = Nsql_store.Btree
module Relfile = Nsql_store.Relfile
module Entryfile = Nsql_store.Entryfile
module Page = Nsql_store.Page
module Tmf = Nsql_tmf.Tmf
module Trail = Nsql_audit.Trail
module Ar = Nsql_audit.Audit_record
module Keycode = Nsql_util.Keycode
module Errors = Nsql_util.Errors
module Trace = Nsql_trace.Trace

open Dp_msg

type structure =
  | S_btree of Btree.t
  | S_rel of Relfile.t
  | S_entry of Entryfile.t

type file = {
  f_id : int;
  f_name : string;
  f_kind : file_kind_spec;
  f_schema : Row.schema option;
  f_check : Expr.t option;
  mutable f_structure : structure;
}

type scb = {
  scb_file : int;
  scb_lo : string;  (** inclusive begin of the key range *)
  scb_hi : string;  (** exclusive end of the key range *)
  scb_body : subset;
      (** what re-drives don't re-send (predicate, projection, update
          expression), exactly as checkpointed to the backup *)
  scb_groups : Groups.t option;
      (** an aggregate's partials across re-drives; [Some] iff [Cs_agg] *)
  mutable scb_prev_leaf : int;  (** pre-fetch heuristic state *)
  mutable scb_pf_hi : int;
      (** highest block the deep (queue-depth > 1) read-ahead has
          submitted for this scan. Advisory only — not checkpointed, so
          after a takeover the frontier resets and the heuristic re-arms
          from the next sequential leaf. *)
}

(* A request parked on the lock wait queue: its reply is withheld (the
   requester holds a pending completion) until a release re-dispatch grants
   it, the wait budget expires, or deadlock resolution denies it. *)
type waiter = {
  w_tx : int;
  w_req : request;
  w_deferral : Msg.deferral;
  w_parked_at : float;
  w_payload : string;  (** raw request bytes, checkpointed to the backup *)
}

(* The backup half's replica of takeover-relevant state, maintained purely
   from the checkpoint stream (see {!Dp_msg.ckpt_item}): decoded SCB copies,
   the lock grant log (newest first; releases filter it), and the FIFO wait
   queue. Waiters are held by reference — the message-system deferral and
   its scheduled timeout survive the takeover, so budgets keep counting. *)
type replica = {
  rp_scbs : (int, scb) Hashtbl.t;
  mutable rp_locks : (int * int * Lock.resource * Lock.mode) list;
  mutable rp_parked : waiter list;
}

type t = {
  sim : Sim.t;
  msys : Msg.system;
  tmf : Tmf.t;
  dp_name : string;
  endpoint : Msg.endpoint;
  volume : Disk.t;
  cache : Cache.t;
  locks : Lock.t;
  files : (int, file) Hashtbl.t;
  by_name : (string, int) Hashtbl.t;
  scbs : (int, scb) Hashtbl.t;
  mutable next_scb : int;
  (* lock wait queue, FIFO (oldest first). Invariant: a transaction has
     outgoing waitgraph edges iff it has a waiter in this queue or is the
     requester currently being probed. *)
  mutable waiters : waiter list;
  waitgraph : Lock.Waitgraph.g;
  (* checkpoint items accumulated (reversed) while a request executes;
     flushed as one checkpoint message when the request completes *)
  mutable ckpt_pending : Dp_msg.ckpt_item list;
  (* backup-side replica; [Some] iff a backup exists. Cleared by takeover
     (the backup is consumed) and emptied by crash. *)
  mutable replica : replica option;
}

(* --- process-pair checkpointing ---------------------------------------- *)

(* Checkpoint traffic flows whenever a backup exists. *)
let ckpt_active t = Msg.endpoint_backup t.endpoint <> None

let ckpt_push t item =
  if ckpt_active t then t.ckpt_pending <- item :: t.ckpt_pending

(* Emit one checkpoint message immediately (park/unpark/release events that
   happen outside a request's execution window). *)
let ckpt_emit t items =
  if ckpt_active t then Msg.checkpoint t.msys t.endpoint (encode_ckpt items)

(* a fresh SCB: no pre-fetch history, no aggregate partials yet *)
let new_scb ~file ~lo ~hi scb_body =
  {
    scb_file = file;
    scb_lo = lo;
    scb_hi = hi;
    scb_body;
    scb_groups =
      (match scb_body with
      | Cs_agg { group_keys; aggs; _ } ->
          Some (Groups.create ~keyless:(group_keys = [||]) aggs)
      | Cs_read _ | Cs_update _ | Cs_delete _ -> None);
    scb_prev_leaf = -10;
    scb_pf_hi = -1;
  }

(* The backup half absorbing a checkpoint message: pure heap bookkeeping,
   never touching the simulation clock or counters — the wire cost was
   already charged by [Msg.checkpoint]. *)
let apply_ckpt t payload =
  match t.replica with
  | None -> ()
  | Some rp -> (
      match decode_ckpt payload with
      | Error e ->
          Errors.fatal
            ("Dp replica: malformed checkpoint: " ^ decode_error_to_string e)
      | Ok items ->
          List.iter
            (fun item ->
              match item with
              | Ck_intent _ ->
                  (* the mutation lands in the shared durable structures;
                     the replica only mirrors control state *)
                  ()
              | Ck_lock { tx; file; res; mode } ->
                  rp.rp_locks <- (tx, file, res, mode) :: rp.rp_locks
              | Ck_release { tx } ->
                  rp.rp_locks <-
                    List.filter (fun (tx', _, _, _) -> tx' <> tx) rp.rp_locks
              | Ck_scb_open { scb; file; lo; hi; body } ->
                  Hashtbl.replace rp.rp_scbs scb (new_scb ~file ~lo ~hi body)
              | Ck_agg_state { scb; groups } -> (
                  match Hashtbl.find_opt rp.rp_scbs scb with
                  | Some { scb_groups = Some g; _ } ->
                      Groups.reset g;
                      List.iter (fun (key, accs) -> Groups.merge g key accs) groups
                  | Some _ | None -> ())
              | Ck_scb_close { scb } -> Hashtbl.remove rp.rp_scbs scb
              | Ck_park { tx; payload = _ } -> (
                  (* mirror the live waiter record by reference: its
                     deferral and scheduled timeout stay valid across
                     takeover, so budgets keep counting *)
                  match List.find_opt (fun w -> w.w_tx = tx) t.waiters with
                  | Some w -> rp.rp_parked <- rp.rp_parked @ [ w ]
                  | None -> ())
              | Ck_unpark { tx } ->
                  rp.rp_parked <-
                    List.filter (fun w -> w.w_tx <> tx) rp.rp_parked)
            items)

let name t = t.dp_name
let endpoint t = t.endpoint
let volume t = t.volume
let cache t = t.cache

let file_id t fname = Hashtbl.find_opt t.by_name fname

let find_file t id =
  match Hashtbl.find_opt t.files id with
  | Some f -> Ok f
  | None -> Errors.fail (Errors.File_not_found (Printf.sprintf "#%d" id))

(* --- small helpers ----------------------------------------------------- *)

let ( let* ) = Errors.( let* )

let require_tx t tx =
  if tx <= 0 then Errors.fail Errors.No_transaction
  else if not (Tmf.is_active t.tmf ~tx) then
    Errors.fail (Errors.Tx_aborted (Printf.sprintf "tx %d not active" tx))
  else Ok ()

let btree_of f =
  match f.f_structure with
  | S_btree b -> Ok b
  | S_rel _ | S_entry _ ->
      Errors.fail (Errors.Bad_request "operation requires a key-sequenced file")

let sql_schema f ~what =
  match f.f_schema with
  | Some s -> Ok s
  | None -> Errors.fail (Errors.Bad_request (what ^ " requires a SQL file"))

let lock_of_mode = function
  | L_shared -> Some Lock.Shared
  | L_exclusive -> Some Lock.Exclusive
  | L_none -> None

(* the blocked answer of a request that holds no SCB *)
let blocked ?(processed = 0) ?(last_key = "") blockers =
  Rp_blocked { blockers; processed; last_key; scb = -1 }

(* The lock-or-block step of every point request: [k] runs only once
   [resource] is granted in [mode] (at once for [L_none]), and a denial
   answers [Rp_blocked] with nothing applied — what lets the wait queue
   re-dispatch a parked request whole (DESIGN.md §5e). READ^NEXT
   reports its start key as [last_key]. *)
let try_lock ?last_key t ~tx ~file resource mode k =
  match lock_of_mode mode with
  | None -> k ()
  | Some mode -> (
      match Lock.acquire t.locks ~tx ~file resource mode with
      | Lock.Granted -> k ()
      | Lock.Blocked blockers -> Ok (blocked ?last_key blockers))

(* --- the record layer ------------------------------------------------------

   A key addresses a record in every structure: a key-sequenced record by
   its primary key, a relative record by [Keycode.of_int slot] and an entry
   by [Keycode.of_int addr] — the keys the DP locks, audits and replies
   with. Each primitive below is the only [match f.f_structure] for its
   operation, and every change to a record goes through them from
   [apply_record]. An entry-sequenced file grows only at EOF (ENTRY^APPEND,
   audited under the empty key) and loses a record only to the backout of
   its append. *)

(* the record number a relative or entry key encodes; only the key
   [Keycode.of_int] builds is accepted, since locks compare keys as
   strings and a second spelling of a number would slip past them *)
let number_of key =
  if String.length key <> 8 then
    Errors.fail (Errors.Bad_request "malformed record number key")
  else
    let n = Keycode.read_int (Nsql_util.Codec.reader key) in
    if n < 0 then Errors.fail (Errors.Bad_request "negative record number")
    else if not (String.equal (Keycode.of_int n) key) then
      Errors.fail (Errors.Bad_request "malformed record number key")
    else Ok n

let lookup f key =
  match f.f_structure with
  | S_btree b -> Ok (Btree.lookup b key)
  | S_rel r ->
      let* slot = number_of key in
      Ok (Relfile.read r ~slot)
  | S_entry e ->
      let* addr = number_of key in
      Ok (Entryfile.read e ~addr)

let fits f ~key ~record =
  match f.f_structure with
  | S_btree b -> Btree.record_fits b ~key ~record
  | S_rel r -> Relfile.fits r record
  | S_entry e -> Entryfile.fits e record

(* the key the record is stored at: an entry goes to EOF, whatever [key] *)
let insert f ~key ~record ~lsn =
  match f.f_structure with
  | S_btree b ->
      let* () = Btree.insert b ~key ~record ~lsn in
      Ok key
  | S_rel r ->
      let* slot = number_of key in
      let* () = Relfile.write r ~slot ~record ~lsn in
      Ok key
  | S_entry e ->
      let* addr = Entryfile.append e ~record ~lsn in
      Ok (Keycode.of_int addr)

let replace f ~key ~record ~lsn =
  match f.f_structure with
  | S_btree b ->
      let* _old = Btree.update b ~key ~record ~lsn in
      Ok ()
  | S_rel r ->
      let* slot = number_of key in
      let* _old = Relfile.rewrite r ~slot ~record ~lsn in
      Ok ()
  | S_entry _ ->
      Errors.fail (Errors.Bad_request "entry-sequenced records are read-only")

(* an entry is removed with everything appended after it *)
let remove f ~key ~lsn =
  match f.f_structure with
  | S_btree b ->
      let* _old = Btree.delete b ~key ~lsn in
      Ok ()
  | S_rel r ->
      let* slot = number_of key in
      let* _old = Relfile.delete r ~slot ~lsn in
      Ok ()
  | S_entry e ->
      let* addr = number_of key in
      Entryfile.truncate_to e ~addr ~lsn

(* What READ^NEXT finds from its start key. *)
type next =
  | Next_end
  | Next_record of { key : string; record : string; ticks : int }
      (** one record; its reply costs [ticks] once its lock is granted *)
  | Next_block of { entries : (string * string) list; last_key : string; more : bool }
      (** SBB on a B-tree: the rest of the physical block, shipped unlocked *)

(* the first record number a READ^NEXT from [from_key] may return *)
let first_number from_key ~inclusive =
  if String.equal from_key Keycode.low_value then Ok 0
  else
    let* n = number_of from_key in
    Ok (if inclusive || n = max_int then n else n + 1)

(* the records after [from_key] — from it when [inclusive] — in key order:
   under SBB a B-tree ships the rest of the physical block, relative and
   entry files one record per reply, like a record-at-a-time read *)
let next_from t f ~from_key ~inclusive ~sbb =
  let one ~ticks = function
    | Some (n, record) -> Next_record { key = Keycode.of_int n; record; ticks }
    | None -> Next_end
  in
  match f.f_structure with
  | S_btree b -> (
      let start = if inclusive then from_key else Keycode.successor from_key in
      let cursor = Btree.seek b start in
      match Btree.cursor_entry b cursor with
      | None -> Ok Next_end
      | Some (key, record) when not sbb -> Ok (Next_record { key; record; ticks = 15 })
      | Some (key, _) ->
          let this_block = Btree.cursor_block cursor in
          let rec collect c acc last =
            match Btree.cursor_entry b c with
            | Some (k, r) when Btree.cursor_block c = this_block ->
                collect (Btree.advance b c) ((k, r) :: acc) k
            | Some _ | None ->
                (List.rev acc, last, Btree.cursor_entry b c <> None)
          in
          let entries, last_key, more = collect cursor [] key in
          Ok (Next_block { entries; last_key; more }))
  | S_rel r ->
      let* slot = first_number from_key ~inclusive in
      Ok (one ~ticks:15 (Relfile.next_from r ~slot))
  | S_entry e ->
      let* addr = first_number from_key ~inclusive in
      (* an entry read is charged before the walk, and nothing once locked *)
      Sim.tick t.sim 10;
      Ok (one ~ticks:0 (Entryfile.next_from e ~addr))

let count f =
  match f.f_structure with
  | S_btree b -> Btree.record_count b
  | S_rel r -> Relfile.record_count r
  | S_entry e -> Entryfile.record_count e

let record_count t ~file =
  match Hashtbl.find_opt t.files file with Some f -> count f | None -> 0

(* --- constraint checking ------------------------------------------------- *)

let check_constraint f row =
  match f.f_check with
  | None -> Ok ()
  | Some check ->
      if Expr.eval_pred row check then Ok ()
      else
        Errors.fail
          (Errors.Constraint_violation
             (Format.asprintf "CHECK %a rejected row %a" Expr.pp check
                Row.pp_row row))

(* --- applying audit records ------------------------------------------------

   [apply_record] is the one place a data record changes a file; it answers
   the key the record is stored at (an append's address). A forward write
   checks that its record will apply, audits it, then applies it; backout
   does the same with the record's inverse; redo applies a winner's record
   at LSN 0, which the trail never issues. [encoded] is a forward field
   update's after-image; without it the row at the key is read and its
   fields set. Once audited, failing to apply is a broken invariant: the
   trail would describe a change that never happened. Redo alone is
   lenient, though its winners find each key as they first did: an
   [Insert] overwrites a present key (trying the overwrite first, as
   restart always has), and a [Delete] or [Update_fields] that finds its
   key absent does nothing. *)

let applied what = function
  | Ok x -> x
  | Error e -> Errors.fatal ("Dp." ^ what ^ ": " ^ Errors.to_string e)

let apply_record f ~lsn ?encoded (body : Ar.body) =
  let redo = Int64.equal lsn 0L in
  let at key = function Ok () -> Ok key | Error e -> Error e in
  match body with
  | Ar.Insert { key; image; _ } when redo -> (
      match replace f ~key ~record:image ~lsn with
      | Ok () -> Ok key
      | Error _ -> insert f ~key ~record:image ~lsn)
  | Ar.Insert { key; image; _ } -> insert f ~key ~record:image ~lsn
  | Ar.Delete { key; _ } -> (
      match remove f ~key ~lsn with
      | Error (Errors.Not_found_key _) when redo -> Ok key
      | r -> at key r)
  | Ar.Update_full { key; after; _ } -> at key (replace f ~key ~record:after ~lsn)
  | Ar.Update_fields { key; fields; _ } -> (
      let* record =
        match encoded with
        | Some _ -> Ok encoded
        | None ->
            let* schema = sql_schema f ~what:"a field update" in
            let* current = lookup f key in
            Ok
              (Option.map
                 (fun current ->
                   let row = Row.decode_exn schema current in
                   List.iter (fun (i, _, after) -> row.(i) <- after) fields;
                   Row.encode schema row)
                 current)
      in
      match record with
      | Some record -> at key (replace f ~key ~record ~lsn)
      | None when redo -> Ok key
      | None -> Errors.fail (Errors.Not_found_key key))
  | Ar.Begin_tx | Ar.Commit_tx | Ar.Abort_tx | Ar.Prepare_tx _ ->
      Errors.fail (Errors.Internal "not a data record")

(* the file of this volume a data record changes *)
let record_file t (body : Ar.body) =
  match body with
  | Ar.Insert { file; _ } | Ar.Delete { file; _ } | Ar.Update_full { file; _ }
  | Ar.Update_fields { file; _ } ->
      Hashtbl.find_opt t.files file
  | Ar.Begin_tx | Ar.Commit_tx | Ar.Abort_tx | Ar.Prepare_tx _ -> None

(* audit [body], a change to [f] checked to apply, and apply it *)
let audited t ~tx f ?encoded body =
  let lsn = Tmf.log t.tmf ~volume:t.dp_name ~tx body in
  applied "apply_record" (apply_record f ~lsn ?encoded body)

(* a forward write's last check before it audits *)
let must_fit f ~key ~record =
  if fits f ~key ~record then Ok ()
  else Errors.fail (Errors.Bad_request "record exceeds maximum size")

let do_insert t ~tx f ~key ~record =
  let* present = lookup f key in
  if present <> None then Errors.fail (Errors.Duplicate_key key)
  else
    let* () = must_fit f ~key ~record in
    let body = Ar.Insert { file = f.f_id; key; image = record } in
    Ok (ignore (audited t ~tx f body : string))

let do_delete t ~tx f ~key =
  let* present = lookup f key in
  match present with
  | None -> Errors.fail (Errors.Not_found_key key)
  | Some image ->
      let body = Ar.Delete { file = f.f_id; key; image } in
      Ok (ignore (audited t ~tx f body : string))

(* field-compressed update of [row], the record at [key]: the assignments'
   result is checked, and only the touched fields are audited *)
let do_update_fields t ~tx f ~key schema row assignments =
  let after_row = Expr.apply_assignments row assignments in
  let* () = Row.validate schema after_row in
  let* () = check_constraint f after_row in
  let record = Row.encode schema after_row in
  let* () = must_fit f ~key ~record in
  let fields =
    List.map (fun { Expr.target = i; _ } -> (i, row.(i), after_row.(i))) assignments
  in
  let body = Ar.Update_fields { file = f.f_id; key; fields } in
  Ok (ignore (audited t ~tx f ~encoded:record body : string))

(* The backout of one of the transaction's own records, newest first: its
   [Ar.invert], audited as a compensation and applied like any write.
   Two-phase locking still holds every record the transaction changed, so
   its key holds what the record left there: backout reads and checks it,
   as the forward write read it ([apply_record] reads an [Update_fields]
   row itself). SQL images are canonical ([check_sql_image]), so setting the
   before-values again rebuilds the old image byte for byte. An append,
   audited under the empty key, is still the file's last record (its
   "EOF" lock is held until the transaction ends) and is backed out at
   that address, truncated under the compensation's LSN: the WAL rule
   keeps the truncated block off disk until the compensation is durable. *)
let back_out t (r : Ar.t) =
  (* [r], once its [key] is found to hold [left] *)
  let holding f key left =
    let* now = lookup f key in
    if Option.equal String.equal now left then Ok r.Ar.body
    else Errors.fail (Errors.Internal (Printf.sprintf "backout finds %S changed" key))
  in
  applied "back_out"
    (let* f =
       Option.to_result (record_file t r.Ar.body)
         ~none:(Errors.Internal "not a record of this volume")
     in
     let* body =
       match (f.f_structure, r.Ar.body) with
       | S_entry e, Ar.Insert { file; key = _; image } -> (
           match Entryfile.last_addr e ~record:image with
           | Some addr -> Ok (Ar.Insert { file; key = Keycode.of_int addr; image })
           | None -> Errors.fail (Errors.Internal "no append to back out"))
       | _, Ar.Insert { key; image; _ } -> holding f key (Some image)
       | _, Ar.Update_full { key; after; _ } -> holding f key (Some after)
       | _, Ar.Delete { key; _ } -> holding f key None
       | _, body -> Ok body
     in
     Ok (ignore (audited t ~tx:r.Ar.tx f (Ar.invert body) : string)))

(* --- point / record operations ------------------------------------------- *)

let op_read t ~file ~tx ~key ~lock =
  let* f = find_file t file in
  try_lock t ~tx ~file (Lock.Record key) lock @@ fun () ->
  Sim.tick t.sim 15;
  let* record = lookup f key in
  match record with
  | Some record -> Ok (Rp_record { key; record })
  | None -> Errors.fail (Errors.Not_found_key key)

let op_read_next t ~file ~tx ~from_key ~inclusive ~lock ~sbb =
  let* f = find_file t file in
  let* next = next_from t f ~from_key ~inclusive ~sbb in
  let returned n =
    let s = Sim.stats t.sim in
    s.Stats.records_read <- s.Stats.records_read + n;
    s.Stats.records_returned <- s.Stats.records_returned + n
  in
  match next with
  | Next_end -> Ok Rp_end
  | Next_block { entries; last_key; more } ->
      (* real sequential block buffering: only file-level locking is
         effective *)
      returned (List.length entries);
      Sim.tick t.sim (10 * List.length entries);
      Ok (Rp_block { entries; last_key; more; scb = -1 })
  | Next_record { key; record; ticks } ->
      try_lock ~last_key:from_key t ~tx ~file (Lock.Record key) lock
      @@ fun () ->
      returned 1;
      Sim.tick t.sim ticks;
      Ok (Rp_record { key; record })

(* whole-record writes to a SQL file must still satisfy its structure and
   CHECK constraint — the Disk Process enforces them regardless of which
   interface carried the record. The image must also be the one
   [Row.encode] writes for its row: backout of a field-compressed update
   and restart replay both rebuild images by re-encoding. *)
let check_sql_image f record =
  match f.f_schema with
  | None -> Ok ()
  | Some schema -> (
      match Row.decode schema record with
      | Ok row when String.equal (Row.encode schema row) record ->
          let* () = Row.validate schema row in
          check_constraint f row
      | Ok _ | Error _ -> Errors.fail (Errors.Bad_request "malformed record image"))

(* An entry-sequenced file grows only by ENTRY^APPEND and never changes a
   record in place, so no keyed write applies to it. *)
let keyed_write f ~what =
  match f.f_kind with
  | K_entry_sequenced ->
      Errors.fail
        (Errors.Bad_request
           (what ^ " on an entry-sequenced file: append-only, records read-only"))
  | K_key_sequenced | K_relative _ -> Ok ()

let op_insert t ~file ~tx ~key ~record =
  let* () = require_tx t tx in
  let* f = find_file t file in
  let* () = keyed_write f ~what:"WRITE" in
  let* () = check_sql_image f record in
  try_lock t ~tx ~file (Lock.Record key) L_exclusive @@ fun () ->
  let* () = do_insert t ~tx f ~key ~record in
  Ok Rp_ok

let op_update t ~file ~tx ~key ~record =
  let* () = require_tx t tx in
  let* f = find_file t file in
  let* () = keyed_write f ~what:"REWRITE" in
  let* () = check_sql_image f record in
  try_lock t ~tx ~file (Lock.Record key) L_exclusive @@ fun () ->
  let* present = lookup f key in
  match present with
  | None -> Errors.fail (Errors.Not_found_key key)
  | Some before ->
      let* () = must_fit f ~key ~record in
      let body = Ar.Update_full { file = f.f_id; key; before; after = record } in
      ignore (audited t ~tx f body : string);
      Ok Rp_ok

let op_delete t ~file ~tx ~key =
  let* () = require_tx t tx in
  let* f = find_file t file in
  let* () = keyed_write f ~what:"DELETE" in
  try_lock t ~tx ~file (Lock.Record key) L_exclusive @@ fun () ->
  let* () = do_delete t ~tx f ~key in
  Ok Rp_ok

let op_lock_file t ~file ~tx ~lock =
  let* _f = find_file t file in
  if lock = L_none then
    Errors.fail (Errors.Bad_request "LOCKFILE with mode none")
  else try_lock t ~tx ~file Lock.File lock (fun () -> Ok Rp_ok)

let op_lock_generic t ~file ~tx ~prefix ~lock =
  let* _f = find_file t file in
  if lock = L_none then
    Errors.fail (Errors.Bad_request "LOCKGENERIC with mode none")
  else try_lock t ~tx ~file (Lock.Generic prefix) lock (fun () -> Ok Rp_ok)

let op_entry_append t ~file ~tx ~record =
  let* () = require_tx t tx in
  let* f = find_file t file in
  let* () =
    if f.f_kind = K_entry_sequenced then Ok ()
    else
      Errors.fail (Errors.Bad_request "ENTRY^APPEND requires an entry-sequenced file")
  in
  (* entry-sequenced inserts at EOF: serialize appenders via a generic
     lock on the EOF *)
  try_lock t ~tx ~file (Lock.Generic "EOF") L_exclusive @@ fun () ->
  if not (fits f ~key:"" ~record) then
    Errors.fail (Errors.Bad_request "record exceeds block size")
  else
    let* addr =
      number_of (audited t ~tx f (Ar.Insert { file = f.f_id; key = ""; image = record }))
    in
    Ok (Rp_slot addr)

(* --- set-oriented scans ---------------------------------------------------- *)

(* Every set request shares one Subset Control Block lifecycle:
   [open_subset] builds and registers the SCB a FIRST request starts,
   [redrive] finds the file and SCB a NEXT request continues, and
   [finish_subset] settles the SCB once the request has run. *)
let open_subset t ~file (range : Expr.key_range) scb_body =
  let scb = new_scb ~file ~lo:range.Expr.lo ~hi:range.Expr.hi scb_body in
  let id = t.next_scb in
  t.next_scb <- id + 1;
  Hashtbl.replace t.scbs id scb;
  ckpt_push t
    (Ck_scb_open
       { scb = id; file; lo = scb.scb_lo; hi = scb.scb_hi; body = scb_body });
  (scb, id)

let find_scb t id =
  match Hashtbl.find_opt t.scbs id with
  | Some scb -> Ok scb
  | None -> Errors.fail (Errors.Bad_request (Printf.sprintf "unknown SCB %d" id))

let redrive t ~file id =
  let s = Sim.stats t.sim in
  s.Stats.redrives <- s.Stats.redrives + 1;
  let* f = find_file t file in
  let* scb = find_scb t id in
  Ok (f, scb)

let drop_scb t id =
  if Hashtbl.mem t.scbs id then begin
    Hashtbl.remove t.scbs id;
    ckpt_push t (Ck_scb_close { scb = id })
  end

(* Aggregate SCBs are the one cursor with server-held progress: when a
   re-drive boundary leaves partials in the SCB, checkpoint them so the
   backup's replica folds from the same accumulators. *)
let ckpt_agg_progress t id scb =
  match scb.scb_groups with
  | Some g when ckpt_active t ->
      ckpt_push t (Ck_agg_state { scb = id; groups = Groups.groups g })
  | Some _ | None -> ()

(* The Disk Process frees a Subset Control Block itself as soon as it
   reports the subset exhausted, so the File System never has to send a
   CLOSE^SCB for a completed subset. A blocked or failed request frees it
   too: the File System reports either as an error and never re-drives
   the chain, so the SCB is closed before the error returns. [Rp_end]
   still leaves its SCB open (see DESIGN.md §5c). *)
let finish_subset t scb id result =
  (match result with
  | Ok (Rp_agg { more = true; _ }) -> ckpt_agg_progress t id scb
  | Ok
      ( Rp_block { more = false; _ }
      | Rp_vblock { more = false; _ }
      | Rp_progress { more = false; _ }
      | Rp_agg { more = false; _ }
      | Rp_blocked _ | Rp_error _ )
  | Error _ ->
      drop_scb t id
  | Ok
      ( Rp_end | Rp_ok | Rp_file _ | Rp_record _ | Rp_row _ | Rp_slot _
      | Rp_block _ | Rp_vblock _ | Rp_progress _ ) ->
      ());
  result

(* Sequential pre-fetch heuristic: when the scan enters leaf block [b] and
   the previous leaf was [b-1] (physically clustered), asynchronously read
   ahead. Where clustering is broken by splits, the heuristic stays quiet.

   At queue depth 1 the read-ahead is one bulk window, re-armed only once
   the previous window has drained so each pre-fetch is a maximal bulk
   I/O — the historical behaviour, byte for byte. With a deeper device
   queue the scan keeps [disk_queue_depth] windows in flight: each
   sequential leaf entry tops the submitted frontier ([scb_pf_hi]) up to
   [depth] windows ahead, so the bulk transfers overlap each other and
   the DP's reply encoding across the device's channels. *)
let maybe_prefetch t scb block =
  let cfg = Sim.config t.sim in
  let depth = cfg.Config.disk_queue_depth in
  (if cfg.Config.dp_prefetch && block = scb.scb_prev_leaf + 1 then
     let window = Disk.max_bulk_blocks t.volume in
     if depth <= 1 then begin
       if not (Cache.resident t.cache (block + 1)) then begin
         let first = block + 1 in
         let avail = Disk.blocks t.volume - first in
         if avail > 0 then
           Cache.prefetch t.cache ~first ~count:(min window avail)
       end
     end
     else begin
       (* clamp the frontier to what the pool can hold: steady state keeps
          the unconsumed read-ahead plus the same number of just-consumed
          blocks resident (their LRU ages interleave), so a span past half
          the pool — less slack for the index path — evicts pre-fetched
          blocks before the scan reaches them and the scan degenerates
          into demand re-reads with seeks *)
       let cap = Cache.capacity t.cache in
       let span = min (depth * window) (max window ((cap / 2) - window)) in
       let target = min (block + span) (Disk.blocks t.volume - 1) in
       let lo = max (block + 1) (scb.scb_pf_hi + 1) in
       if target >= lo then begin
         Cache.prefetch t.cache ~first:lo ~count:(target - lo + 1);
         scb.scb_pf_hi <- target
       end
     end);
  scb.scb_prev_leaf <- block

(* --- the per-record scan path ------------------------------------------

   The subset scans read each record in place in its leaf view: the end
   key is compared there, and a record is decoded only in the fields its
   request evaluates or ships (DESIGN.md §5l). The cache reads, ticks and
   counters are those of a whole-record decode; only host work is saved. *)

(* is entry [i]'s key below the end key [hi]? [Keycode.compare_keys] in
   place: [high_value] sorts after every other key *)
let below_end v i hi =
  if String.equal hi Keycode.high_value then
    Page.view_compare_key v i hi <> 0
  else
    Page.view_compare_key v i hi < 0
    && Page.view_compare_key v i Keycode.high_value <> 0

(* [fields] of [sch] as a decode mask *)
let field_mask sch fields =
  let m = Array.make (Array.length sch.Row.cols) false in
  List.iter (fun i -> if i >= 0 && i < Array.length m then m.(i) <- true) fields;
  m

(* the fields [mask] selects of entry [i]'s record, decoded in place *)
let decode_entry sch mask v i =
  let pos, len = Page.view_record_span v i in
  Row.decode_fields sch mask (Page.view_block v) ~pos ~len

(* A pushed-down predicate, prepared once per request: the fields it
   reads and its charge of 2 ticks per node. *)
type filter = { expr : Expr.t; mask : bool array; ticks : int }

let filter_of sch = function
  | None -> None
  | Some p ->
      Some
        { expr = p; mask = field_mask sch (Expr.fields p); ticks = 2 * Expr.size p }

let passes t fl row =
  Sim.tick t.sim fl.ticks;
  Expr.eval_pred row fl.expr

(* The walk shared by GET and AGGREGATE executions: from [from_key], visit
   each record below the SCB's end key — pre-fetch, one [records_read] and
   [tick 15] each — until the key range ends or the request's budget is
   spent: [dp_records_per_request] records, [dp_ticks_per_request] ticks,
   or [visit] reporting its reply buffer full. [visit v i] gets the record
   as entry [i] of leaf view [v]. [one_block] (RSBB) also stops before the
   first record of a second physical block. A locking scan then takes one
   virtual-block range lock over the whole span it examined, replacing
   per-record locks. [reply ~last_key ~more] builds the answer when that
   lock is granted. *)
let walk_scan t ~tx f b scb scb_id ~lock ~from_key ~one_block ~visit ~reply =
  let cfg = Sim.config t.sim in
  let s = Sim.stats t.sim in
  let ticks0 = s.Stats.cpu_ticks in
  let examined = ref 0 in
  (* the last visited entry; its key is copied out once, at the end *)
  let last_view = ref None in
  let last_idx = ref 0 in
  let more = ref false in
  let first_block = ref (-1) in
  let stop = ref false in
  let cursor = ref (Btree.seek b from_key) in
  while not !stop do
    match Btree.cursor_view b !cursor with
    | None -> stop := true
    | Some (v, i) ->
        if not (below_end v i scb.scb_hi) then stop := true
        else begin
          (match Btree.cursor_block !cursor with
          | Some blk ->
              if !first_block < 0 then first_block := blk;
              if one_block && blk <> !first_block then begin
                stop := true;
                more := true
              end
              else maybe_prefetch t scb blk
          | None -> ());
          if not !stop then begin
            incr examined;
            s.Stats.records_read <- s.Stats.records_read + 1;
            Sim.tick t.sim 15;
            let full = visit v i in
            (match !last_view with
            | Some lv when lv == v -> ()
            | Some _ | None -> last_view := Some v);
            last_idx := i;
            cursor := Btree.advance b !cursor;
            if
              full
              || !examined >= cfg.Config.dp_records_per_request
              || s.Stats.cpu_ticks - ticks0 >= cfg.Config.dp_ticks_per_request
            then begin
              stop := true;
              more := Btree.cursor_view b !cursor <> None
            end
          end
        end
  done;
  let last_key =
    match !last_view with
    | Some v -> Page.view_key v !last_idx
    | None -> from_key
  in
  let locked =
    match lock_of_mode lock with
    | Some mode
      when Keycode.compare_keys from_key last_key <= 0 && !examined > 0 ->
        Lock.acquire t.locks ~tx ~file:f.f_id
          (Lock.Range (from_key, Keycode.successor last_key))
          mode
    | Some _ | None -> Lock.Granted
  in
  match locked with
  | Lock.Blocked blockers ->
      Ok (Rp_blocked { blockers; processed = 0; last_key = from_key; scb = scb_id })
  | Lock.Granted -> reply ~last_key ~more:!more

(* One GET^FIRST/GET^NEXT execution: fill a (virtual or real) block. *)
let run_read_scan t ~tx f scb scb_id ~buffering ~pred ~proj ~lock ~from_key =
  let cfg = Sim.config t.sim in
  let s = Sim.stats t.sim in
  let* b = btree_of f in
  let schema = f.f_schema in
  (* a VSBB scan of a SQL file ships rows; everything else ships raw
     (key, record) entries *)
  let ships_rows = buffering = B_vsbb && schema <> None in
  let fl = match schema with Some sch -> filter_of sch pred | None -> None in
  (* the fields a shipped row is decoded in, and whether the
     predicate's decode already holds all of them *)
  let ship_mask =
    match (schema, proj) with
    | Some sch, Some fields -> field_mask sch (Array.to_list fields)
    | Some sch, None -> Array.make (Array.length sch.Row.cols) true
    | None, _ -> [||]
  in
  let pred_covers =
    match fl with
    | Some fl -> Array.for_all2 (fun ship p -> p || not ship) ship_mask fl.mask
    | None -> false
  in
  let reply_bytes = ref 0 in
  let rows = ref [] in
  let entries = ref [] in
  let visit v i =
    let selected, row =
      match (fl, schema) with
      | Some fl, Some sch ->
          let row = decode_entry sch fl.mask v i in
          (passes t fl row, Some row)
      | _ -> (true, None)
    in
    if selected then begin
      (match schema with
      | Some sch when ships_rows ->
          let row =
            match row with
            | Some r when pred_covers -> r
            | Some _ | None -> decode_entry sch ship_mask v i
          in
          let row =
            match proj with Some fields -> Row.project row fields | None -> row
          in
          reply_bytes := !reply_bytes + Row.values_size row;
          rows := row :: !rows
      | Some _ | None ->
          let key, record = Page.view_entry v i in
          reply_bytes := !reply_bytes + String.length key + String.length record;
          entries := (key, record) :: !entries);
      s.Stats.records_returned <- s.Stats.records_returned + 1;
      Sim.tick t.sim 10
    end;
    !reply_bytes >= cfg.Config.vsbb_buffer_bytes
  in
  walk_scan t ~tx f b scb scb_id ~lock ~from_key
    ~one_block:(buffering = B_rsbb) ~visit ~reply:(fun ~last_key ~more ->
      if !rows = [] && !entries = [] && not more then Ok Rp_end
      else if ships_rows then
        Ok (Rp_vblock { rows = List.rev !rows; last_key; more; scb = scb_id })
      else
        Ok (Rp_block { entries = List.rev !entries; last_key; more; scb = scb_id }))

(* One AGGREGATE^FIRST/AGGREGATE^NEXT execution: fold qualifying records
   into the SCB's per-group accumulators under the same re-drive budget as
   a read scan. Intermediate replies carry no group data (the partials
   stay in the SCB); the final reply ships every group's accumulator state
   in first-seen order — which is key order, because the scan is. *)
let run_agg_scan t ~tx f scb scb_id ~pred ~group_keys ~aggs ~lock ~from_key =
  let* b = btree_of f in
  match scb.scb_groups with
  | None -> Errors.fail (Errors.Internal "aggregate SCB without partials")
  | Some groups ->
      let* schema = sql_schema f ~what:"AGGREGATE" in
      let fl = filter_of schema pred in
      (* one decode per record, in every field the predicate, the group
         key or an aggregate argument reads *)
      let mask =
        field_mask schema
          (Array.to_list group_keys
          @ (match pred with Some p -> Expr.fields p | None -> [])
          @ List.concat_map
              (fun spec ->
                match spec.ag_arg with Some e -> Expr.fields e | None -> [])
              aggs)
      in
      let feeds = List.map feeder aggs in
      let visit v i =
        let row = decode_entry schema mask v i in
        let selected = match fl with None -> true | Some fl -> passes t fl row in
        if selected then begin
          let accs =
            Groups.find_or_add groups (Array.map (fun i -> row.(i)) group_keys)
          in
          List.iter2 (fun feed acc -> feed acc row) feeds accs;
          Sim.tick t.sim 5
        end;
        false
      in
      walk_scan t ~tx f b scb scb_id ~lock ~from_key ~one_block:false ~visit
        ~reply:(fun ~last_key ~more ->
          let groups = if more then [] else Groups.groups groups in
          Ok (Rp_agg { groups; last_key; more; scb = scb_id }))

(* One UPDATE^SUBSET / DELETE^SUBSET execution.

   Restart semantics: each NEXT message carries the last fully processed
   key and restarts strictly after it; an empty [after_key] (the FIRST
   message, or a NEXT before anything was processed) starts at the range's
   begin key, inclusive. If a record's lock is unavailable, the reply
   reports the last key processed {e before} it (or "" if none this
   request), so the re-drive retries the conflicting record. One update is
   applied per matched record; updated records are never revisited because
   the scan key always advances past them. *)
let run_write_scan t ~tx f scb scb_id ~pred ~action ~after_key =
  let cfg = Sim.config t.sim in
  let s = Sim.stats t.sim in
  let* () = require_tx t tx in
  let* b = btree_of f in
  let* schema = sql_schema f ~what:"set update" in
  let all_fields = Array.make (Array.length schema.Row.cols) true in
  let apply_one key v i =
    match action with
    | `Update assignments ->
        Sim.tick t.sim
          (List.fold_left
             (fun acc a -> acc + (2 * Expr.size a.Expr.source))
             0 assignments);
        do_update_fields t ~tx f ~key schema (decode_entry schema all_fields v i)
          assignments
    | `Delete -> do_delete t ~tx f ~key
  in
  let fl = filter_of schema pred in
  let ticks0 = s.Stats.cpu_ticks in
  let examined = ref 0 in
  let processed = ref 0 in
  (* last key fully handled this request; "" = none yet *)
  let last_done = ref "" in
  let next_seek =
    ref (if String.equal after_key "" then scb.scb_lo else Keycode.successor after_key)
  in
  let more = ref false in
  let result = ref None in
  let continue_ = ref true in
  while !continue_ do
    let cursor = Btree.seek b !next_seek in
    match Btree.cursor_view b cursor with
    | None -> continue_ := false
    | Some (v, i) ->
        if not (below_end v i scb.scb_hi) then continue_ := false
        else begin
          (match Btree.cursor_block cursor with
          | Some blk -> maybe_prefetch t scb blk
          | None -> ());
          incr examined;
          s.Stats.records_read <- s.Stats.records_read + 1;
          Sim.tick t.sim 15;
          let key = Page.view_key v i in
          let selected =
            match fl with
            | None -> true
            | Some fl -> passes t fl (decode_entry schema fl.mask v i)
          in
          if selected then begin
            (* per-record exclusive lock for set mutations *)
            match Lock.acquire t.locks ~tx ~file:f.f_id (Lock.Record key) Lock.Exclusive with
            | Lock.Blocked blockers ->
                result :=
                  Some
                    (Rp_blocked
                       {
                         blockers;
                         processed = !processed;
                         last_key = !last_done;
                         scb = scb_id;
                       });
                continue_ := false
            | Lock.Granted -> (
                match apply_one key v i with
                | Ok () ->
                    incr processed;
                    last_done := key;
                    next_seek := Keycode.successor key
                | Error e ->
                    result := Some (Rp_error e);
                    continue_ := false)
          end
          else begin
            last_done := key;
            next_seek := Keycode.successor key
          end;
          if
            !continue_
            && (!examined >= cfg.Config.dp_records_per_request
               || s.Stats.cpu_ticks - ticks0 >= cfg.Config.dp_ticks_per_request)
          then begin
            more := true;
            continue_ := false
          end
        end
  done;
  match !result with
  | Some r -> Ok r
  | None ->
      Ok
        (Rp_progress
           {
             processed = !processed;
             last_key = !last_done;
             more = !more;
             scb = scb_id;
           })

(* One step of the subset [scb] defines: its FIRST ([after_key = None])
   or a NEXT restarting after [Some key]. *)
let run_subset t ~tx f scb id ~after_key =
  let from_key =
    match after_key with None -> scb.scb_lo | Some k -> Keycode.successor k
  in
  match scb.scb_body with
  | Cs_read { buffering; pred; proj; lock } ->
      run_read_scan t ~tx f scb id ~buffering ~pred ~proj ~lock ~from_key
  | Cs_agg { pred; group_keys; aggs; lock } ->
      run_agg_scan t ~tx f scb id ~pred ~group_keys ~aggs ~lock ~from_key
  | Cs_update { pred; assignments } ->
      run_write_scan t ~tx f scb id ~pred ~action:(`Update assignments)
        ~after_key:(Option.value after_key ~default:"")
  | Cs_delete { pred } ->
      run_write_scan t ~tx f scb id ~pred ~action:`Delete
        ~after_key:(Option.value after_key ~default:"")

(* --- SQL row inserts --------------------------------------------------------- *)

let op_insert_row t ~file ~tx ~row =
  let* () = require_tx t tx in
  let* f = find_file t file in
  let* schema = sql_schema f ~what:"INSERT^ROW" in
  let* () = Row.validate schema row in
  let* () = check_constraint f row in
  let key = Row.key_of_row schema row in
  try_lock t ~tx ~file (Lock.Record key) L_exclusive @@ fun () ->
  let record = Row.encode schema row in
  let* () = do_insert t ~tx f ~key ~record in
  Ok Rp_ok

(* Blocked sequential insert (the paper's future enhancement, E11): the
   whole target key range is locked by prior agreement, then the batch is
   applied with one message. *)
let op_insert_block t ~file ~tx ~rows =
  let* () = require_tx t tx in
  let* f = find_file t file in
  let* schema = sql_schema f ~what:"INSERT^BLOCK" in
  match rows with
  | [] -> Ok Rp_ok
  | _ :: _ ->
      let keys = List.map (fun row -> Row.key_of_row schema row) rows in
      let lo = List.fold_left min (List.hd keys) keys in
      let hi = Keycode.successor (List.fold_left max (List.hd keys) keys) in
      (* the empty target range is locked before the batch lands, avoiding
         late-detected duplicate keys *)
      try_lock t ~tx ~file (Lock.Range (lo, hi)) L_exclusive @@ fun () ->
      let rec apply n = function
        | [] ->
            Ok (Rp_progress { processed = n; last_key = ""; more = false; scb = -1 })
        | row :: rest ->
            let* () = Row.validate schema row in
            let* () = check_constraint f row in
            let key = Row.key_of_row schema row in
            let record = Row.encode schema row in
            let* () = do_insert t ~tx f ~key ~record in
            apply (n + 1) rest
      in
      apply 0 rows

(* A buffer of updates/deletes of specific records, applied under one
   message. Updates are audited field-compressed; the whole batch fails on
   the first error (the transaction's undo restores prior ops). *)
let op_apply_block t ~file ~tx ~ops =
  let* () = require_tx t tx in
  let* f = find_file t file in
  let* schema = sql_schema f ~what:"APPLY^BLOCK" in
  let* b = btree_of f in
  let apply (key, op) =
    match Lock.acquire t.locks ~tx ~file (Lock.Record key) Lock.Exclusive with
    | Lock.Blocked blockers -> Error (`Blocked blockers)
    | Lock.Granted ->
        Result.map_error
          (fun e -> `Err e)
          (match op with
          | Ob_delete -> do_delete t ~tx f ~key
          | Ob_update assignments -> (
              match Btree.lookup b key with
              | None -> Errors.fail (Errors.Not_found_key key)
              | Some record ->
                  do_update_fields t ~tx f ~key schema (Row.decode_exn schema record)
                    assignments))
  in
  let rec go n = function
    | [] -> Ok (Rp_progress { processed = n; last_key = ""; more = false; scb = -1 })
    | op :: rest -> (
        match apply op with
        | Ok () -> go (n + 1) rest
        | Error (`Blocked blockers) -> Ok (blocked ~processed:n blockers)
        | Error (`Err e) -> Error e)
  in
  go 0 ops

(* --- DDL ----------------------------------------------------------------------- *)

(* an empty structure of [kind]: file creation, and recovery's rebuild *)
let new_structure t ~name = function
  | K_key_sequenced -> S_btree (Btree.create t.sim t.cache ~name)
  | K_relative slot_size -> S_rel (Relfile.create t.sim t.cache ~slot_size)
  | K_entry_sequenced -> S_entry (Entryfile.create t.sim t.cache)

let op_create_file t ~fname ~kind ~schema ~check =
  if Hashtbl.mem t.by_name fname then Errors.fail (Errors.File_exists fname)
  else if schema = None && check <> None then
    Errors.fail (Errors.Bad_request "CHECK constraint requires a schema")
  else begin
    let id = Tmf.allocate_file_id t.tmf in
    let f =
      { f_id = id; f_name = fname; f_kind = kind; f_schema = schema;
        f_check = check; f_structure = new_structure t ~name:fname kind }
    in
    Hashtbl.replace t.files id f;
    Hashtbl.replace t.by_name fname id;
    Ok (Rp_file id)
  end

(* --- dispatch -------------------------------------------------------------------- *)

let dispatch t req : (reply, Errors.t) result =
  match req with
  | R_create_file { fname; kind; schema; check } ->
      op_create_file t ~fname ~kind ~schema ~check
  | R_read { file; tx; key; lock } -> op_read t ~file ~tx ~key ~lock
  | R_read_next { file; tx; from_key; inclusive; lock; sbb } ->
      op_read_next t ~file ~tx ~from_key ~inclusive ~lock ~sbb
  | R_insert { file; tx; key; record } -> op_insert t ~file ~tx ~key ~record
  | R_update { file; tx; key; record } -> op_update t ~file ~tx ~key ~record
  | R_delete { file; tx; key } -> op_delete t ~file ~tx ~key
  | R_lock_file { file; tx; lock } -> op_lock_file t ~file ~tx ~lock
  | R_lock_generic { file; tx; prefix; lock } ->
      op_lock_generic t ~file ~tx ~prefix ~lock
  | R_entry_append { file; tx; record } -> op_entry_append t ~file ~tx ~record
  | R_subset_first { file; tx; range; body } ->
      let* f = find_file t file in
      (* reject primary-key updates: the scan is keyed on them *)
      let* () =
        match (body, f.f_schema) with
        | Cs_update { assignments; _ }, Some sch
          when List.exists (fun a -> Array.mem a.Expr.target sch.Row.key_cols)
                 assignments ->
            Errors.fail
              (Errors.Bad_request "UPDATE of primary-key columns not allowed")
        | (Cs_read _ | Cs_update _ | Cs_delete _ | Cs_agg _), _ -> Ok ()
      in
      let scb, id = open_subset t ~file range body in
      finish_subset t scb id (run_subset t ~tx f scb id ~after_key:None)
  | R_subset_next { kind; file; tx; scb = id; after_key } ->
      let* f, scb = redrive t ~file id in
      finish_subset t scb id
        (if kind_of_subset scb.scb_body = kind then
           run_subset t ~tx f scb id ~after_key:(Some after_key)
         else
           Errors.fail
             (Errors.Bad_request
                (Printf.sprintf "SCB %d does not serve %s" id (tag req))))
  | R_insert_row { file; tx; row } -> op_insert_row t ~file ~tx ~row
  | R_insert_block { file; tx; rows } -> op_insert_block t ~file ~tx ~rows
  | R_apply_block { file; tx; ops } -> op_apply_block t ~file ~tx ~ops
  | R_close_scb { scb } ->
      drop_scb t scb;
      Ok Rp_ok
  | R_record_count { file } ->
      let* f = find_file t file in
      Ok (Rp_slot (count f))

let run_request t req =
  match dispatch t req with Ok reply -> reply | Error e -> Rp_error e

(* Ship the deltas a dispatched request accumulated to the backup, as one
   checkpoint message. A mutation additionally carries its own request
   bytes (the write intent), so the charge covers exactly what a real
   process pair would ship before acknowledging. *)
let flush_ckpt t req =
  let pending = t.ckpt_pending in
  t.ckpt_pending <- [];
  if ckpt_active t then begin
    let items = List.rev pending in
    let items =
      if is_mutation req then Ck_intent { payload = encode_request req } :: items
      else items
    in
    if items <> [] then ckpt_emit t items
  end

(* one span per dispatched request; a re-drive reusing a Subset Control
   Block is marked, making SCB hits visible per operator *)
let request_body t req =
  Trace.span t.sim ~cat:"dp"
    ~attrs:(fun () ->
      ("dp", Trace.Str t.dp_name)
      ::
      (match req with
      | R_subset_next { scb; _ } ->
          [ ("scb_reuse", Trace.Bool true); ("scb", Trace.Int scb) ]
      | R_subset_first { body = Cs_agg _; _ } -> [ ("agg_fold", Trace.Bool true) ]
      | R_create_file _ | R_read _ | R_read_next _ | R_insert _ | R_update _
      | R_delete _ | R_lock_file _ | R_lock_generic _ | R_entry_append _
      | R_subset_first _ | R_insert_row _ | R_insert_block _ | R_apply_block _
      | R_close_scb _ | R_record_count _ -> []))
    (tag req)
    (fun _ -> run_request t req)

let request t req =
  (* service duration via the capture-aware clock: virtual under a nowait
     issue or a pump re-dispatch, real when blocking — either way the
     requester-perceived service time of this dispatch *)
  let mc = Sim.moncore t.sim in
  let t0 = Sim.now t.sim in
  Sim.tick t.sim 20;
  let reply = request_body t req in
  flush_ckpt t req;
  let dur = Sim.now t.sim -. t0 in
  Moncore.observe mc "dp" dur;
  Moncore.add_busy mc Moncore.R_dp dur;
  reply

(* --- lock wait queue ------------------------------------------------------ *)

(* With [Config.dp_lock_wait] set, a blocked point request is parked on a
   FIFO wait queue instead of being denied: the Disk Process withholds the
   reply (a {!Msg.defer} deferral), records wait-for edges, and
   re-dispatches the request when a transaction finish releases locks.
   Only operations where [Rp_blocked] implies nothing was applied may park,
   because the re-dispatch repeats the whole operation: the point requests,
   whose lock-or-block step [try_lock] runs nothing before the grant. Subset
   scans and apply-block batches carry partial progress (processed counts,
   SCB and accumulator state) and keep the immediate-denial protocol. *)
let park_tx (req : request) =
  match req with
  | R_read { tx; _ } -> Some tx
  | R_read_next { tx; _ } -> Some tx
  | R_insert { tx; _ } -> Some tx
  | R_update { tx; _ } -> Some tx
  | R_delete { tx; _ } -> Some tx
  | R_lock_file { tx; _ } -> Some tx
  | R_lock_generic { tx; _ } -> Some tx
  | R_entry_append { tx; _ } -> Some tx
  | R_insert_row { tx; _ } -> Some tx
  | R_insert_block { tx; _ } -> Some tx
  | R_create_file _ | R_subset_first _ | R_subset_next _ | R_apply_block _
  | R_close_scb _ | R_record_count _ -> None

let emit_wait_end t w ~outcome =
  Moncore.observe (Sim.moncore t.sim) "lock_wait"
    (Sim.now t.sim -. w.w_parked_at);
  if Trace.enabled t.sim then
    Trace.instant t.sim ~cat:"lock"
      ~attrs:
        [
          ("dp", Str t.dp_name);
          ("tx", Int w.w_tx);
          ("wait_us", Float (Sim.now t.sim -. w.w_parked_at));
          ("outcome", Str outcome);
        ]
      "lock_wait_end"

(* Every waiter that joins or leaves the queue goes through these two,
   which keep the parked gauge and TMF's count of running transactions. *)
let parked t w =
  Moncore.gauge_add (Sim.moncore t.sim) Moncore.G_parked 1;
  Tmf.park t.tmf ~tx:w.w_tx

let unparked t w =
  Moncore.gauge_add (Sim.moncore t.sim) Moncore.G_parked (-1);
  Tmf.unpark t.tmf ~tx:w.w_tx

let remove_waiter t w =
  t.waiters <- List.filter (fun w' -> w' != w) t.waiters;
  unparked t w;
  Lock.Waitgraph.clear_waiting t.waitgraph ~tx:w.w_tx;
  ckpt_emit t [ Ck_unpark { tx = w.w_tx } ]

(* Deny a parked waiter (deadlock victim, wait-budget expiry): deliver the
   withheld reply as an error so its session can abort and retry. *)
let deny_waiter t w ~outcome err =
  remove_waiter t w;
  emit_wait_end t w ~outcome;
  Msg.resolve t.msys w.w_deferral (encode_reply (Rp_error err))

let find_waiter t ~tx = List.find_opt (fun w -> w.w_tx = tx) t.waiters

(* Deadlock resolution: while the wait-for relation has a cycle through
   [tx], deny the youngest transaction of the cycle (highest id — begun
   last, least work lost). Every cycle node has outgoing edges, so it is
   either parked here or is [tx] itself: the victim is always locally
   reachable. Returns [`Deny e] when [tx] itself must be denied. *)
let rec resolve_cycles t ~tx =
  match Lock.Waitgraph.find_cycle t.waitgraph ~tx with
  | None -> `Park
  | Some cycle ->
      let victim = List.fold_left max tx cycle in
      let s = Sim.stats t.sim in
      s.Stats.deadlocks <- s.Stats.deadlocks + 1;
      if Trace.enabled t.sim then
        Trace.instant t.sim ~cat:"lock"
          ~attrs:
            [
              ("dp", Str t.dp_name);
              ("victim", Int victim);
              ("cycle_len", Int (List.length cycle));
            ]
          "deadlock";
      let msg =
        Printf.sprintf "tx %d chosen as victim (cycle of %d)" victim
          (List.length cycle)
      in
      if victim = tx then begin
        Lock.Waitgraph.clear_waiting t.waitgraph ~tx;
        `Deny (Errors.Deadlock msg)
      end
      else begin
        (match find_waiter t ~tx:victim with
        | Some w -> deny_waiter t w ~outcome:"deadlock" (Errors.Deadlock msg)
        | None ->
            (* unreachable: a non-requester cycle node has out-edges only
               while parked *)
            Lock.Waitgraph.clear_waiting t.waitgraph ~tx:victim);
        resolve_cycles t ~tx
      end

let park t req ~tx ~blockers ~payload =
  Lock.Waitgraph.set_waiting t.waitgraph ~tx ~on:blockers;
  match resolve_cycles t ~tx with
  | `Deny e -> `Deny e
  | `Park ->
      let d = Msg.defer t.msys in
      let w =
        {
          w_tx = tx;
          w_req = req;
          w_deferral = d;
          w_parked_at = Sim.now t.sim;
          w_payload = payload;
        }
      in
      t.waiters <- t.waiters @ [ w ];
      parked t w;
      ckpt_emit t [ Ck_park { tx; payload } ];
      let s = Sim.stats t.sim in
      s.Stats.lock_waits <- s.Stats.lock_waits + 1;
      let budget = (Sim.config t.sim).Config.lock_wait_timeout_us in
      (* schedule against the virtual clock: under a nowait capture the
         real clock is frozen, so a deadline based on it would be early *)
      Sim.schedule t.sim
        ~at:(Sim.now t.sim +. budget)
        (fun () ->
          if not (Msg.resolved d) then
            deny_waiter t w ~outcome:"timeout"
              (Errors.Lock_timeout "lock wait budget expired"));
      `Parked

(* Re-dispatch parked requests after a lock release, in FIFO order. The
   whole queue is scanned: per-resource FIFO is preserved (an earlier
   waiter on the freed resource re-dispatches first) while waiters on
   unrelated resources are not head-of-line blocked behind it. Each
   re-dispatch runs under a clock capture so its work lands on the parked
   requester's timeline, not the releasing transaction's. *)
let pump t =
  if t.waiters <> [] then
    List.iter
      (fun w ->
        (* a waiter denied by cycle resolution earlier in this scan is
           already resolved *)
        if not (Msg.resolved w.w_deferral) then
          let (), _probe_cost =
            Sim.capture t.sim (fun () ->
                match request t w.w_req with
                | Rp_blocked { blockers; _ } -> (
                    (* still blocked: refresh edges (the blocker set may
                       have changed) and re-check for cycles *)
                    Lock.Waitgraph.clear_waiting t.waitgraph ~tx:w.w_tx;
                    Lock.Waitgraph.set_waiting t.waitgraph ~tx:w.w_tx
                      ~on:blockers;
                    match resolve_cycles t ~tx:w.w_tx with
                    | `Park -> ()
                    | `Deny e -> deny_waiter t w ~outcome:"deadlock" e)
                | reply ->
                    remove_waiter t w;
                    emit_wait_end t w
                      ~outcome:
                        (match reply with
                        | Rp_error _ -> "error"
                        | _ -> "granted");
                    Msg.resolve t.msys w.w_deferral (encode_reply reply))
          in
          ())
      t.waiters

let handler t payload =
  match decode_request payload with
  | Error e ->
      encode_reply
        (Rp_error
           (Errors.Bad_request
              ("malformed request: " ^ decode_error_to_string e)))
  | Ok req -> (
      let reply = request t req in
      let action =
        match reply with
        | Rp_blocked { blockers; _ }
          when (Sim.config t.sim).Config.dp_lock_wait -> (
            match park_tx req with
            | Some tx when tx > 0 -> (
                match park t req ~tx ~blockers ~payload with
                | `Parked -> `Parked
                | `Deny e -> `Reply (Rp_error e))
            | Some _ | None -> `Reply reply)
        | _ -> `Reply reply
      in
      match action with
      | `Parked ->
          (* the reply is withheld; this placeholder is discarded by Msg *)
          ""
      | `Reply reply -> encode_reply reply)

(* Process-pair takeover: the backup resumes as primary, rebuilt from its
   replica. Every acknowledged piece of state survives — SCB definitions,
   aggregate partials, granted locks in grant order, and the parked
   waiters with their live deferrals, so wait budgets keep counting. A
   Disk Process with a backup always keeps a replica, so the replica and
   the endpoint's backup come and go together. *)
let takeover t =
  match t.replica with
  | Some rp when Msg.takeover_endpoint t.endpoint ->
      let s = Sim.stats t.sim in
      s.Stats.takeovers <- s.Stats.takeovers + 1;
      t.ckpt_pending <- [];
      (* rebuild primary structures from the replica alone: anything the
         checkpoint stream missed is deliberately lost, which is what the
         byte-identity and takeover tests probe *)
      Hashtbl.reset t.scbs;
      Lock.clear_all t.locks;
      Lock.Waitgraph.clear t.waitgraph;
      let items = ref 0 in
      List.iter
        (fun (id, scb) ->
          incr items;
          Hashtbl.replace t.scbs id scb)
        (Nsql_util.Tbl.sorted_bindings rp.rp_scbs);
      (* oldest grant first, so Shared-then-Exclusive upgrades replay in
         the order the primary granted them *)
      let locks = List.rev rp.rp_locks in
      List.iter (fun _ -> incr items) locks;
      Lock.restore t.locks locks;
      (* waiter records survive by reference: the withheld deferrals and
         the already-scheduled wait-budget timeouts stay valid, so FIFO
         order and remaining budgets carry across the takeover *)
      List.iter (unparked t) t.waiters;
      t.waiters <-
        List.filter (fun w -> not (Msg.resolved w.w_deferral)) rp.rp_parked;
      List.iter
        (fun w ->
          parked t w;
          incr items)
        t.waiters;
      (* the new primary has no backup: stop consuming checkpoints *)
      Msg.set_checkpoint_receiver t.endpoint None;
      t.replica <- None;
      (* rebuild cost: one message-handling quantum plus work linear in
         the replayed state *)
      Sim.charge t.sim ~cat:Moncore.C_ckpt Config.msg_cpu_cost_us;
      Sim.tick t.sim (50 * !items);
      (* re-dispatch survivors: a waiter whose blocker never checkpointed
         re-parks against the restored lock table *)
      pump t;
      Ok ()
  | _ ->
      Errors.fail
        (Errors.Bad_request (t.dp_name ^ ": process pair has no backup"))

(* --- idle-time work ------------------------------------------------------------- *)

let idle t = Cache.write_behind t.cache

(* --- crash and recovery ----------------------------------------------------------- *)

let crash t =
  Cache.drop_all t.cache;
  Hashtbl.reset t.scbs;
  (* lock tables are volatile too *)
  Lock.clear_all t.locks;
  (* a crash takes both halves of the pair down: the replica is as gone as
     the primary's own volatile state *)
  t.ckpt_pending <- [];
  (match t.replica with
  | Some rp ->
      Hashtbl.reset rp.rp_scbs;
      rp.rp_locks <- [];
      rp.rp_parked <- []
  | None -> ());
  (* parked requests lose their server: flush each with an I/O error so no
     requester is left holding a completion that can never resolve *)
  Lock.Waitgraph.clear t.waitgraph;
  let waiting = t.waiters in
  t.waiters <- [];
  List.iter (unparked t) waiting;
  List.iter
    (fun w ->
      if not (Msg.resolved w.w_deferral) then begin
        emit_wait_end t w ~outcome:"crash";
        Msg.resolve t.msys w.w_deferral
          (encode_reply
             (Rp_error (Errors.Io_error (t.dp_name ^ ": disk process crashed"))))
      end)
    waiting;
  (* in-flight transactions lose their records on this volume: restart
     recovery treats them as losers here, and the transactions can still
     abort cleanly on surviving volumes *)
  Tmf.volume_lost t.tmf ~volume:t.dp_name

let recover_with t ~resolve =
  (* rebuild every structure empty (the file labels survive on disk), in
     file-id order: creation order decides cache/disk allocation *)
  List.iter
    (fun (_, f) -> f.f_structure <- new_structure t ~name:f.f_name f.f_kind)
    (Nsql_util.Tbl.sorted_bindings t.files);
  (* a record of a file on another volume is not this volume's to redo *)
  let redo body =
    match record_file t body with
    | Some f -> ignore (applied "recover" (apply_record f ~lsn:0L body) : string)
    | None -> ()
  in
  Nsql_tmf.Recovery.rollforward_with (Tmf.trail t.tmf) ~resolve ~apply:redo

let recover t =
  recover_with t ~resolve:(fun ~coordinator_node:_ ~coordinator_tx:_ -> false)

let check_invariants t =
  List.fold_left
    (fun acc (_, f) ->
      match acc with
      | Error _ -> acc
      | Ok () -> (
          match f.f_structure with
          | S_btree b -> Btree.check_invariants b
          | S_rel _ | S_entry _ -> Ok ()))
    (Ok ())
    (Nsql_util.Tbl.sorted_bindings t.files)

let create sim msys tmf ~name ~processor ?backup () =
  let volume = Disk.create sim ~name in
  let trail = Tmf.trail tmf in
  let cfg = Sim.config sim in
  let cache =
    Cache.create sim volume ~capacity:cfg.Config.cache_blocks
      ~durable_lsn:(fun () -> Trail.durable_lsn trail)
      ~force_log:(fun lsn -> Trail.force trail lsn)
  in
  let locks = Lock.create sim in
  let endpoint =
    Msg.register msys ~name ~processor ?backup (fun _ -> assert false)
  in
  let t =
    {
      sim;
      msys;
      tmf;
      dp_name = name;
      endpoint;
      volume;
      cache;
      locks;
      files = Hashtbl.create 16;
      by_name = Hashtbl.create 16;
      scbs = Hashtbl.create 16;
      next_scb = 0;
      waiters = [];
      waitgraph = Lock.Waitgraph.create ();
      ckpt_pending = [];
      replica =
        (if backup <> None then
           Some { rp_scbs = Hashtbl.create 16; rp_locks = []; rp_parked = [] }
         else None);
    }
  in
  (* mirror lock grants into the checkpoint stream *)
  Lock.set_grant_hook locks
    (Some (fun ~tx ~file res mode -> ckpt_push t (Ck_lock { tx; file; res; mode })));
  (* the backup half consumes the checkpoint stream *)
  if t.replica <> None then
    Msg.set_checkpoint_receiver endpoint (Some (fun payload -> apply_ckpt t payload));
  (* two-phase locking: locks drop at transaction finish, then the wait
     queue is pumped — freed resources may grant parked requests *)
  Tmf.register_resource_manager tmf ~volume:name
    ~on_finish:(fun tx ->
      let held = Lock.held locks ~tx in
      Lock.release_all locks ~tx;
      if held > 0 then ckpt_emit t [ Ck_release { tx } ];
      pump t)
    ~undo:(back_out t);
  Msg.set_handler endpoint (handler t);
  t
