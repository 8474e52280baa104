module Row = Nsql_row.Row
module Expr = Nsql_expr.Expr
module Codec = Nsql_util.Codec
module Errors = Nsql_util.Errors

type buffered_op = Ob_update of Expr.assignment list | Ob_delete

type lock_mode = L_none | L_shared | L_exclusive

type buffering = B_rsbb | B_vsbb

type file_kind_spec = K_key_sequenced | K_relative of int | K_entry_sequenced

(* --- aggregate pushdown ------------------------------------------------- *)

(* The Disk Process evaluates COUNT/SUM/MIN/MAX/AVG at the source and
   ships accumulator state instead of rows. One accumulator carries every
   kind's partial state so that merging partials from several partitions
   (or several re-drives) is uniform. *)

type agg_kind = Agg_count_star | Agg_count | Agg_sum | Agg_min | Agg_max | Agg_avg

type agg_spec = {
  ag_kind : agg_kind;
  ag_arg : Expr.t option;  (** [None] only for [Agg_count_star] *)
}

type agg_acc = {
  mutable aa_count : int;  (** non-Null inputs seen (all rows for [*]) *)
  mutable aa_sum_i : int;
  mutable aa_sum_f : float;
  mutable aa_saw_float : bool;
  mutable aa_min : Row.value;  (** [Null] while no input seen *)
  mutable aa_max : Row.value;
}

let fresh_acc () =
  {
    aa_count = 0;
    aa_sum_i = 0;
    aa_sum_f = 0.;
    aa_saw_float = false;
    aa_min = Row.Null;
    aa_max = Row.Null;
  }

let feed_acc acc (v : Row.value) =
  match v with
  | Row.Null -> ()
  | v ->
      acc.aa_count <- acc.aa_count + 1;
      (match v with
      | Row.Vint n -> acc.aa_sum_i <- acc.aa_sum_i + n
      | Row.Vfloat f ->
          acc.aa_sum_f <- acc.aa_sum_f +. f;
          acc.aa_saw_float <- true
      | _ -> ());
      (match acc.aa_min with
      | Row.Null -> acc.aa_min <- v
      | m -> if Row.compare_value v m < 0 then acc.aa_min <- v);
      (match acc.aa_max with
      | Row.Null -> acc.aa_max <- v
      | m -> if Row.compare_value v m > 0 then acc.aa_max <- v)

(* the kind/argument dispatch is resolved once per query, not per row *)
let feeder spec =
  match (spec.ag_kind, spec.ag_arg) with
  | Agg_count_star, _ -> fun acc _row -> acc.aa_count <- acc.aa_count + 1
  | _, Some e -> fun acc row -> feed_acc acc (Expr.eval row e)
  | _, None -> fun _acc _row -> ()

let merge_acc ~into acc =
  into.aa_count <- into.aa_count + acc.aa_count;
  into.aa_sum_i <- into.aa_sum_i + acc.aa_sum_i;
  into.aa_sum_f <- into.aa_sum_f +. acc.aa_sum_f;
  into.aa_saw_float <- into.aa_saw_float || acc.aa_saw_float;
  (match acc.aa_min with
  | Row.Null -> ()
  | v -> (
      match into.aa_min with
      | Row.Null -> into.aa_min <- v
      | m -> if Row.compare_value v m < 0 then into.aa_min <- v));
  match acc.aa_max with
  | Row.Null -> ()
  | v -> (
      match into.aa_max with
      | Row.Null -> into.aa_max <- v
      | m -> if Row.compare_value v m > 0 then into.aa_max <- v)

let finish_acc kind acc : Row.value =
  match kind with
  | Agg_count_star | Agg_count -> Row.Vint acc.aa_count
  | Agg_sum ->
      if acc.aa_count = 0 then Row.Null
      else if acc.aa_saw_float then
        Row.Vfloat (acc.aa_sum_f +. float_of_int acc.aa_sum_i)
      else Row.Vint acc.aa_sum_i
  | Agg_min -> acc.aa_min
  | Agg_max -> acc.aa_max
  | Agg_avg ->
      if acc.aa_count = 0 then Row.Null
      else
        Row.Vfloat
          ((acc.aa_sum_f +. float_of_int acc.aa_sum_i)
          /. float_of_int acc.aa_count)

(* The one group table: the Disk Process's SCB, the File System's
   partition merge and the Executor's group and DISTINCT operators all
   key groups here, so pushed-down and requester-side grouping agree bit
   for bit. A key row with no float is its own identity (the codec is
   canonical for Null/Vint/Vbool/Vstr, so structural equality is encoded
   equality); a key holding a float keys by its encoding, because
   [-0. = 0.] and NaN make structural and encoded equality disagree. *)
module Groups = struct
  type t = {
    specs : agg_spec list;
    keyless : bool;
    tbl : (Row.row, agg_acc list) Hashtbl.t;
    mutable order : (Row.row * agg_acc list) list;  (** reversed *)
  }

  (* A float-free key is its own table key, so the common case allocates
     nothing. A key holding a float is looked up by its encoding, wrapped
     as [[| Vfloat 0.; Vstr encoding |]]: that row holds a float, so it
     can never equal a float-free key. *)
  let key_of row =
    if Array.exists (function Row.Vfloat _ -> true | _ -> false) row then begin
      let w = Codec.writer () in
      Row.encode_values w row;
      [| Row.Vfloat 0.; Row.Vstr (Codec.contents w) |]
    end
    else row

  let create ~keyless specs =
    { specs; keyless; tbl = Hashtbl.create 16; order = [] }

  let add t k row accs =
    Hashtbl.replace t.tbl k accs;
    t.order <- (row, accs) :: t.order

  let find_or_add t row =
    let k = key_of row in
    match Hashtbl.find t.tbl k with
    | accs -> accs
    | exception Not_found ->
        let accs = List.map (fun _ -> fresh_acc ()) t.specs in
        add t k row accs;
        accs

  let first_seen t row =
    let k = key_of row in
    if Hashtbl.mem t.tbl k then false
    else begin
      add t k row [];
      true
    end

  let merge t row accs =
    let k = key_of row in
    match Hashtbl.find t.tbl k with
    | into -> List.iter2 (fun into acc -> merge_acc ~into acc) into accs
    | exception Not_found -> add t k row accs

  let length t = Hashtbl.length t.tbl
  let groups t = List.rev t.order

  let reset t =
    Hashtbl.reset t.tbl;
    t.order <- []

  let rows t =
    let finish accs =
      Array.of_list
        (List.map2 (fun spec acc -> finish_acc spec.ag_kind acc) t.specs accs)
    in
    (* a grand aggregate over zero rows still yields one row *)
    if t.order = [] && t.keyless then
      [ finish (List.map (fun _ -> fresh_acc ()) t.specs) ]
    else List.rev_map (fun (key, accs) -> Array.append key (finish accs)) t.order
end

(* A subset's definition: what a FIRST request ships, what the Disk
   Process keeps in the Subset Control Block (re-drives never re-send it)
   and what [Ck_scb_open] checkpoints to the backup. *)
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
      aggs : agg_spec list;
      lock : lock_mode;
    }

type subset_kind = Sk_get | Sk_update | Sk_delete | Sk_agg

let kind_of_subset = function
  | Cs_read _ -> Sk_get
  | Cs_update _ -> Sk_update
  | Cs_delete _ -> Sk_delete
  | Cs_agg _ -> Sk_agg

type request =
  | R_create_file of {
      fname : string;
      kind : file_kind_spec;
      schema : Row.schema option;
      check : Expr.t option;
    }
  | R_read of { file : int; tx : int; key : string; lock : lock_mode }
  | R_read_next of {
      file : int;
      tx : int;
      from_key : string;
      inclusive : bool;
      lock : lock_mode;
      sbb : bool;
    }
  | R_insert of { file : int; tx : int; key : string; record : string }
  | R_update of { file : int; tx : int; key : string; record : string }
  | R_delete of { file : int; tx : int; key : string }
  | R_lock_file of { file : int; tx : int; lock : lock_mode }
  | R_lock_generic of { file : int; tx : int; prefix : string; lock : lock_mode }
  | R_entry_append of { file : int; tx : int; record : string }
  | R_subset_first of { file : int; tx : int; range : Expr.key_range; body : subset }
  | R_subset_next of {
      kind : subset_kind;
      file : int;
      tx : int;
      scb : int;
      after_key : string;
    }
  | R_insert_row of { file : int; tx : int; row : Row.row }
  | R_insert_block of { file : int; tx : int; rows : Row.row list }
  | R_apply_block of { file : int; tx : int; ops : (string * buffered_op) list }
  | R_close_scb of { scb : int }
  | R_record_count of { file : int }

type reply =
  | Rp_ok
  | Rp_file of int
  | Rp_record of { key : string; record : string }
  | Rp_row of Row.row
  | Rp_slot of int
  | Rp_block of {
      entries : (string * string) list;
      last_key : string;
      more : bool;
      scb : int;
    }
  | Rp_vblock of { rows : Row.row list; last_key : string; more : bool; scb : int }
  | Rp_progress of { processed : int; last_key : string; more : bool; scb : int }
  | Rp_end
  | Rp_blocked of {
      blockers : int list;
      processed : int;
      last_key : string;
      scb : int;
    }
  | Rp_agg of {
      groups : (Row.row * agg_acc list) list;
      last_key : string;
      more : bool;
      scb : int;
    }
  | Rp_error of Errors.t

let tag = function
  | R_create_file _ -> "CREATE^FILE"
  | R_read _ -> "READ"
  | R_read_next { sbb = true; _ } -> "READ^NEXT^SBB"
  | R_read_next _ -> "READ^NEXT"
  | R_insert _ -> "WRITE"
  | R_update _ -> "UPDATE"
  | R_delete _ -> "DELETE"
  | R_lock_file _ -> "LOCKFILE"
  | R_lock_generic _ -> "LOCKGENERIC"
  | R_entry_append _ -> "ENTRY^APPEND"
  | R_subset_first { body = Cs_read { buffering = B_vsbb; _ }; _ } -> "GET^FIRST^VSBB"
  | R_subset_first { body = Cs_read { buffering = B_rsbb; _ }; _ } -> "GET^FIRST^RSBB"
  | R_subset_first { body = Cs_update _; _ } -> "UPDATE^SUBSET^FIRST"
  | R_subset_first { body = Cs_delete _; _ } -> "DELETE^SUBSET^FIRST"
  | R_subset_first { body = Cs_agg _; _ } -> "AGGREGATE^FIRST"
  | R_subset_next { kind = Sk_get; _ } -> "GET^NEXT"
  | R_subset_next { kind = Sk_update; _ } -> "UPDATE^SUBSET^NEXT"
  | R_subset_next { kind = Sk_delete; _ } -> "DELETE^SUBSET^NEXT"
  | R_subset_next { kind = Sk_agg; _ } -> "AGGREGATE^NEXT"
  | R_insert_row _ -> "INSERT^ROW"
  | R_insert_block _ -> "INSERT^BLOCK"
  | R_apply_block _ -> "APPLY^BLOCK"
  | R_close_scb _ -> "CLOSE^SCB"
  | R_record_count _ -> "RECORD^COUNT"

let is_mutation = function
  | R_insert _ | R_update _ | R_delete _ | R_entry_append _ | R_insert_row _
  | R_insert_block _ | R_apply_block _ | R_create_file _
  | R_subset_first { body = Cs_update _ | Cs_delete _; _ }
  | R_subset_next { kind = Sk_update | Sk_delete; _ } ->
      true
  | R_read _ | R_read_next _ | R_lock_file _ | R_lock_generic _
  | R_close_scb _ | R_record_count _
  | R_subset_first _ | R_subset_next _ ->
      false

(* --- decode errors ------------------------------------------------------- *)

(* A malformed payload is a peer bug or corruption, not a caller error:
   decoding returns [result] so the transport layer can answer with a
   protocol-level error instead of unwinding the process. *)
type decode_error =
  | Bad_tag of { field : string; tag : int }
  | Truncated

let decode_error_to_string = function
  | Bad_tag { field; tag } -> Printf.sprintf "bad %s tag %d" field tag
  | Truncated -> "truncated payload"

(* internal: unwinds the recursive-descent decoders; callers only ever
   see the [result] *)
exception Bad_tag_exn of string * int

let bad_tag field tag = raise (Bad_tag_exn (field, tag))

(* --- primitive codecs --------------------------------------------------- *)

let w_lock w = function
  | L_none -> Codec.w_u8 w 0
  | L_shared -> Codec.w_u8 w 1
  | L_exclusive -> Codec.w_u8 w 2

let r_lock r =
  match Codec.r_u8 r with
  | 0 -> L_none
  | 1 -> L_shared
  | 2 -> L_exclusive
  | n -> bad_tag "lock mode" n

let w_range w (range : Expr.key_range) =
  Codec.w_bytes w range.Expr.lo;
  Codec.w_bytes w range.Expr.hi

let r_range r =
  let lo = Codec.r_bytes r in
  let hi = Codec.r_bytes r in
  Expr.{ lo; hi }

let w_opt w f = function
  | None -> Codec.w_u8 w 0
  | Some x ->
      Codec.w_u8 w 1;
      f w x

let r_opt r f = match Codec.r_u8 r with 0 -> None | _ -> Some (f r)

let w_proj w proj =
  Codec.w_varint w (Array.length proj);
  Array.iter (fun i -> Codec.w_varint w i) proj

let r_proj r =
  let n = Codec.r_varint r in
  Array.init n (fun _ -> Codec.r_varint r)

let w_assignments w assignments =
  Codec.w_varint w (List.length assignments);
  List.iter (fun a -> Expr.encode_assignment w a) assignments

let r_assignments r =
  let n = Codec.r_varint r in
  List.init n (fun _ -> Expr.decode_assignment r)

let w_rows w rows =
  Codec.w_varint w (List.length rows);
  List.iter (fun row -> Row.encode_values w row) rows

let r_rows r =
  let n = Codec.r_varint r in
  List.init n (fun _ -> Row.decode_values r)

let w_agg_kind w k =
  Codec.w_u8 w
    (match k with
    | Agg_count_star -> 0
    | Agg_count -> 1
    | Agg_sum -> 2
    | Agg_min -> 3
    | Agg_max -> 4
    | Agg_avg -> 5)

let r_agg_kind r =
  match Codec.r_u8 r with
  | 0 -> Agg_count_star
  | 1 -> Agg_count
  | 2 -> Agg_sum
  | 3 -> Agg_min
  | 4 -> Agg_max
  | 5 -> Agg_avg
  | n -> bad_tag "aggregate kind" n

let w_agg_specs w specs =
  Codec.w_varint w (List.length specs);
  List.iter
    (fun s ->
      w_agg_kind w s.ag_kind;
      w_opt w Expr.encode s.ag_arg)
    specs

let r_agg_specs r =
  let n = Codec.r_varint r in
  List.init n (fun _ ->
      let ag_kind = r_agg_kind r in
      let ag_arg = r_opt r Expr.decode in
      { ag_kind; ag_arg })

let w_agg_acc w acc =
  Codec.w_varint w acc.aa_count;
  Codec.w_int w acc.aa_sum_i;
  Codec.w_float w acc.aa_sum_f;
  Codec.w_bool w acc.aa_saw_float;
  Row.encode_value w acc.aa_min;
  Row.encode_value w acc.aa_max

let r_agg_acc r =
  let aa_count = Codec.r_varint r in
  let aa_sum_i = Codec.r_int r in
  let aa_sum_f = Codec.r_float r in
  let aa_saw_float = Codec.r_bool r in
  let aa_min = Row.decode_value r in
  let aa_max = Row.decode_value r in
  { aa_count; aa_sum_i; aa_sum_f; aa_saw_float; aa_min; aa_max }

let w_groups w groups =
  Codec.w_varint w (List.length groups);
  List.iter
    (fun (key_vals, accs) ->
      Row.encode_values w key_vals;
      Codec.w_varint w (List.length accs);
      List.iter (fun acc -> w_agg_acc w acc) accs)
    groups

let r_groups r =
  let n = Codec.r_varint r in
  List.init n (fun _ ->
      let key_vals = Row.decode_values r in
      let k = Codec.r_varint r in
      let accs = List.init k (fun _ -> r_agg_acc r) in
      (key_vals, accs))

let w_error w (e : Errors.t) =
  let tag, payload =
    match e with
    | Errors.Not_found_key s -> (0, s)
    | Errors.Duplicate_key s -> (1, s)
    | Errors.File_not_found s -> (2, s)
    | Errors.File_exists s -> (3, s)
    | Errors.Bad_request s -> (4, s)
    | Errors.Lock_timeout s -> (5, s)
    | Errors.Tx_aborted s -> (6, s)
    | Errors.No_transaction -> (7, "")
    | Errors.Constraint_violation s -> (8, s)
    | Errors.Type_error s -> (9, s)
    | Errors.Parse_error s -> (10, s)
    | Errors.Name_error s -> (11, s)
    | Errors.Invalid_argument_error s -> (12, s)
    | Errors.Io_error s -> (13, s)
    | Errors.Internal s -> (14, s)
    | Errors.Deadlock s -> (15, s)
  in
  Codec.w_u8 w tag;
  Codec.w_bytes w payload

let r_error r : Errors.t =
  let tag = Codec.r_u8 r in
  let payload = Codec.r_bytes r in
  match tag with
  | 0 -> Errors.Not_found_key payload
  | 1 -> Errors.Duplicate_key payload
  | 2 -> Errors.File_not_found payload
  | 3 -> Errors.File_exists payload
  | 4 -> Errors.Bad_request payload
  | 5 -> Errors.Lock_timeout payload
  | 6 -> Errors.Tx_aborted payload
  | 7 -> Errors.No_transaction
  | 8 -> Errors.Constraint_violation payload
  | 9 -> Errors.Type_error payload
  | 10 -> Errors.Parse_error payload
  | 11 -> Errors.Name_error payload
  | 12 -> Errors.Invalid_argument_error payload
  | 13 -> Errors.Io_error payload
  | 14 -> Errors.Internal payload
  | 15 -> Errors.Deadlock payload
  | n -> bad_tag "error" n

(* --- request codec ------------------------------------------------------- *)

(* A subset's own fields, written and read in this one place: a FIRST
   request carries them after its key range, [Ck_scb_open] after its key
   bounds. *)
let w_subset_fields w = function
  | Cs_read { buffering; pred; proj; lock } ->
      Codec.w_u8 w (match buffering with B_rsbb -> 0 | B_vsbb -> 1);
      w_opt w Expr.encode pred;
      w_opt w w_proj proj;
      w_lock w lock
  | Cs_update { pred; assignments } ->
      w_opt w Expr.encode pred;
      w_assignments w assignments
  | Cs_delete { pred } -> w_opt w Expr.encode pred
  | Cs_agg { pred; group_keys; aggs; lock } ->
      w_opt w Expr.encode pred;
      w_proj w group_keys;
      w_agg_specs w aggs;
      w_lock w lock

let r_subset_fields r = function
  | Sk_get ->
      let buffering = match Codec.r_u8 r with 0 -> B_rsbb | _ -> B_vsbb in
      let pred = r_opt r Expr.decode in
      let proj = r_opt r r_proj in
      let lock = r_lock r in
      Cs_read { buffering; pred; proj; lock }
  | Sk_update ->
      let pred = r_opt r Expr.decode in
      let assignments = r_assignments r in
      Cs_update { pred; assignments }
  | Sk_delete -> Cs_delete { pred = r_opt r Expr.decode }
  | Sk_agg ->
      let pred = r_opt r Expr.decode in
      let group_keys = r_proj r in
      let aggs = r_agg_specs r in
      let lock = r_lock r in
      Cs_agg { pred; group_keys; aggs; lock }

(* the request tag of a subset's FIRST; its NEXT's tag is one more *)
let first_tag = function
  | Sk_get -> 13
  | Sk_update -> 15
  | Sk_delete -> 17
  | Sk_agg -> 24

let r_subset_first r kind =
  let file = Codec.r_varint r in
  let tx = Codec.r_varint r in
  let range = r_range r in
  let body = r_subset_fields r kind in
  R_subset_first { file; tx; range; body }

let r_subset_next r kind =
  let file = Codec.r_varint r in
  let tx = Codec.r_varint r in
  let scb = Codec.r_varint r in
  let after_key = Codec.r_bytes r in
  R_subset_next { kind; file; tx; scb; after_key }

let encode_request req =
  let w = Codec.writer () in
  (match req with
  | R_create_file { fname; kind; schema; check } ->
      Codec.w_u8 w 0;
      Codec.w_bytes w fname;
      (match kind with
      | K_key_sequenced -> Codec.w_u8 w 0
      | K_relative slot_size ->
          Codec.w_u8 w 1;
          Codec.w_varint w slot_size
      | K_entry_sequenced -> Codec.w_u8 w 2);
      w_opt w Row.encode_schema schema;
      w_opt w Expr.encode check
  | R_read { file; tx; key; lock } ->
      Codec.w_u8 w 1;
      Codec.w_varint w file;
      Codec.w_varint w tx;
      Codec.w_bytes w key;
      w_lock w lock
  | R_read_next { file; tx; from_key; inclusive; lock; sbb } ->
      Codec.w_u8 w 2;
      Codec.w_varint w file;
      Codec.w_varint w tx;
      Codec.w_bytes w from_key;
      Codec.w_bool w inclusive;
      w_lock w lock;
      Codec.w_bool w sbb
  | R_insert { file; tx; key; record } ->
      Codec.w_u8 w 3;
      Codec.w_varint w file;
      Codec.w_varint w tx;
      Codec.w_bytes w key;
      Codec.w_bytes w record
  | R_update { file; tx; key; record } ->
      Codec.w_u8 w 4;
      Codec.w_varint w file;
      Codec.w_varint w tx;
      Codec.w_bytes w key;
      Codec.w_bytes w record
  | R_delete { file; tx; key } ->
      Codec.w_u8 w 5;
      Codec.w_varint w file;
      Codec.w_varint w tx;
      Codec.w_bytes w key
  | R_lock_file { file; tx; lock } ->
      Codec.w_u8 w 6;
      Codec.w_varint w file;
      Codec.w_varint w tx;
      w_lock w lock
  | R_lock_generic { file; tx; prefix; lock } ->
      Codec.w_u8 w 23;
      Codec.w_varint w file;
      Codec.w_varint w tx;
      Codec.w_bytes w prefix;
      w_lock w lock
  | R_entry_append { file; tx; record } ->
      Codec.w_u8 w 11;
      Codec.w_varint w file;
      Codec.w_varint w tx;
      Codec.w_bytes w record
  | R_subset_first { file; tx; range; body } ->
      Codec.w_u8 w (first_tag (kind_of_subset body));
      Codec.w_varint w file;
      Codec.w_varint w tx;
      w_range w range;
      w_subset_fields w body
  | R_subset_next { kind; file; tx; scb; after_key } ->
      Codec.w_u8 w (first_tag kind + 1);
      Codec.w_varint w file;
      Codec.w_varint w tx;
      Codec.w_varint w scb;
      Codec.w_bytes w after_key
  | R_insert_row { file; tx; row } ->
      Codec.w_u8 w 19;
      Codec.w_varint w file;
      Codec.w_varint w tx;
      Row.encode_values w row
  | R_insert_block { file; tx; rows } ->
      Codec.w_u8 w 20;
      Codec.w_varint w file;
      Codec.w_varint w tx;
      w_rows w rows
  | R_apply_block { file; tx; ops } ->
      Codec.w_u8 w 22;
      Codec.w_varint w file;
      Codec.w_varint w tx;
      Codec.w_varint w (List.length ops);
      List.iter
        (fun (key, op) ->
          Codec.w_bytes w key;
          match op with
          | Ob_update assignments ->
              Codec.w_u8 w 0;
              w_assignments w assignments
          | Ob_delete -> Codec.w_u8 w 1)
        ops
  | R_close_scb { scb } ->
      Codec.w_u8 w 21;
      Codec.w_varint w scb
  | R_record_count { file } ->
      Codec.w_u8 w 26;
      Codec.w_varint w file);
  Codec.contents w

let decode_request_exn payload =
  let r = Codec.reader payload in
  match Codec.r_u8 r with
  | 0 ->
      let fname = Codec.r_bytes r in
      let kind =
        match Codec.r_u8 r with
        | 0 -> K_key_sequenced
        | 1 -> K_relative (Codec.r_varint r)
        | 2 -> K_entry_sequenced
        | n -> bad_tag "file kind" n
      in
      let schema = r_opt r Row.decode_schema in
      let check = r_opt r Expr.decode in
      R_create_file { fname; kind; schema; check }
  | 1 ->
      let file = Codec.r_varint r in
      let tx = Codec.r_varint r in
      let key = Codec.r_bytes r in
      let lock = r_lock r in
      R_read { file; tx; key; lock }
  | 2 ->
      let file = Codec.r_varint r in
      let tx = Codec.r_varint r in
      let from_key = Codec.r_bytes r in
      let inclusive = Codec.r_bool r in
      let lock = r_lock r in
      let sbb = Codec.r_bool r in
      R_read_next { file; tx; from_key; inclusive; lock; sbb }
  | 3 ->
      let file = Codec.r_varint r in
      let tx = Codec.r_varint r in
      let key = Codec.r_bytes r in
      let record = Codec.r_bytes r in
      R_insert { file; tx; key; record }
  | 4 ->
      let file = Codec.r_varint r in
      let tx = Codec.r_varint r in
      let key = Codec.r_bytes r in
      let record = Codec.r_bytes r in
      R_update { file; tx; key; record }
  | 5 ->
      let file = Codec.r_varint r in
      let tx = Codec.r_varint r in
      let key = Codec.r_bytes r in
      R_delete { file; tx; key }
  | 6 ->
      let file = Codec.r_varint r in
      let tx = Codec.r_varint r in
      let lock = r_lock r in
      R_lock_file { file; tx; lock }
  | 11 ->
      let file = Codec.r_varint r in
      let tx = Codec.r_varint r in
      let record = Codec.r_bytes r in
      R_entry_append { file; tx; record }
  | 13 -> r_subset_first r Sk_get
  | 14 -> r_subset_next r Sk_get
  | 15 -> r_subset_first r Sk_update
  | 16 -> r_subset_next r Sk_update
  | 17 -> r_subset_first r Sk_delete
  | 18 -> r_subset_next r Sk_delete
  | 19 ->
      let file = Codec.r_varint r in
      let tx = Codec.r_varint r in
      let row = Row.decode_values r in
      R_insert_row { file; tx; row }
  | 20 ->
      let file = Codec.r_varint r in
      let tx = Codec.r_varint r in
      let rows = r_rows r in
      R_insert_block { file; tx; rows }
  | 21 ->
      let scb = Codec.r_varint r in
      R_close_scb { scb }
  | 23 ->
      let file = Codec.r_varint r in
      let tx = Codec.r_varint r in
      let prefix = Codec.r_bytes r in
      let lock = r_lock r in
      R_lock_generic { file; tx; prefix; lock }
  | 22 ->
      let file = Codec.r_varint r in
      let tx = Codec.r_varint r in
      let n = Codec.r_varint r in
      let ops =
        List.init n (fun _ ->
            let key = Codec.r_bytes r in
            let op =
              match Codec.r_u8 r with
              | 0 -> Ob_update (r_assignments r)
              | 1 -> Ob_delete
              | k -> bad_tag "buffered op" k
            in
            (key, op))
      in
      R_apply_block { file; tx; ops }
  | 24 -> r_subset_first r Sk_agg
  | 25 -> r_subset_next r Sk_agg
  | 26 ->
      let file = Codec.r_varint r in
      R_record_count { file }
  | n -> bad_tag "request" n

(* --- reply codec ----------------------------------------------------------- *)

let encode_reply reply =
  let w = Codec.writer () in
  (match reply with
  | Rp_ok -> Codec.w_u8 w 0
  | Rp_file id ->
      Codec.w_u8 w 1;
      Codec.w_varint w id
  | Rp_record { key; record } ->
      Codec.w_u8 w 2;
      Codec.w_bytes w key;
      Codec.w_bytes w record
  | Rp_row row ->
      Codec.w_u8 w 3;
      Row.encode_values w row
  | Rp_slot slot ->
      Codec.w_u8 w 4;
      Codec.w_varint w slot
  | Rp_block { entries; last_key; more; scb } ->
      Codec.w_u8 w 5;
      Codec.w_varint w (List.length entries);
      List.iter
        (fun (k, record) ->
          Codec.w_bytes w k;
          Codec.w_bytes w record)
        entries;
      Codec.w_bytes w last_key;
      Codec.w_bool w more;
      Codec.w_varint w (scb + 1)
  | Rp_vblock { rows; last_key; more; scb } ->
      Codec.w_u8 w 6;
      w_rows w rows;
      Codec.w_bytes w last_key;
      Codec.w_bool w more;
      Codec.w_varint w (scb + 1)
  | Rp_progress { processed; last_key; more; scb } ->
      Codec.w_u8 w 7;
      Codec.w_varint w processed;
      Codec.w_bytes w last_key;
      Codec.w_bool w more;
      Codec.w_varint w (scb + 1)
  | Rp_end -> Codec.w_u8 w 8
  | Rp_blocked { blockers; processed; last_key; scb } ->
      Codec.w_u8 w 9;
      Codec.w_varint w (List.length blockers);
      List.iter (fun b -> Codec.w_varint w b) blockers;
      Codec.w_varint w processed;
      Codec.w_bytes w last_key;
      Codec.w_varint w (scb + 1)
  | Rp_agg { groups; last_key; more; scb } ->
      Codec.w_u8 w 11;
      w_groups w groups;
      Codec.w_bytes w last_key;
      Codec.w_bool w more;
      Codec.w_varint w (scb + 1)
  | Rp_error e ->
      Codec.w_u8 w 10;
      w_error w e);
  Codec.contents w

let decode_reply_exn payload =
  let r = Codec.reader payload in
  match Codec.r_u8 r with
  | 0 -> Rp_ok
  | 1 -> Rp_file (Codec.r_varint r)
  | 2 ->
      let key = Codec.r_bytes r in
      let record = Codec.r_bytes r in
      Rp_record { key; record }
  | 3 -> Rp_row (Row.decode_values r)
  | 4 -> Rp_slot (Codec.r_varint r)
  | 5 ->
      let n = Codec.r_varint r in
      let entries =
        List.init n (fun _ ->
            let k = Codec.r_bytes r in
            let record = Codec.r_bytes r in
            (k, record))
      in
      let last_key = Codec.r_bytes r in
      let more = Codec.r_bool r in
      let scb = Codec.r_varint r - 1 in
      Rp_block { entries; last_key; more; scb }
  | 6 ->
      let rows = r_rows r in
      let last_key = Codec.r_bytes r in
      let more = Codec.r_bool r in
      let scb = Codec.r_varint r - 1 in
      Rp_vblock { rows; last_key; more; scb }
  | 7 ->
      let processed = Codec.r_varint r in
      let last_key = Codec.r_bytes r in
      let more = Codec.r_bool r in
      let scb = Codec.r_varint r - 1 in
      Rp_progress { processed; last_key; more; scb }
  | 8 -> Rp_end
  | 9 ->
      let n = Codec.r_varint r in
      let blockers = List.init n (fun _ -> Codec.r_varint r) in
      let processed = Codec.r_varint r in
      let last_key = Codec.r_bytes r in
      let scb = Codec.r_varint r - 1 in
      Rp_blocked { blockers; processed; last_key; scb }
  | 10 -> Rp_error (r_error r)
  | 11 ->
      let groups = r_groups r in
      let last_key = Codec.r_bytes r in
      let more = Codec.r_bool r in
      let scb = Codec.r_varint r - 1 in
      Rp_agg { groups; last_key; more; scb }
  | n -> bad_tag "reply" n

let guard decode payload =
  match decode payload with
  | v -> Ok v
  | exception Bad_tag_exn (field, tag) -> Error (Bad_tag { field; tag })
  | exception Codec.Truncated -> Error Truncated

let decode_request payload = guard decode_request_exn payload

let decode_reply payload = guard decode_reply_exn payload

(* --- process-pair checkpoint codec --------------------------------------- *)

(* The checkpoint stream a primary sends its backup: every item is a delta
   against the replica of takeover-relevant state (SCBs, lock table, wait
   queues, mutation intents). Each checkpoint message carries the encoded
   items — the byte charge on the wire is exactly [String.length payload]. *)

module Lock = Nsql_lock.Lock

type ckpt_item =
  | Ck_intent of { payload : string }
      (** a mutation request is about to be applied: its full request bytes *)
  | Ck_lock of { tx : int; file : int; res : Lock.resource; mode : Lock.mode }
      (** a lock was granted (or upgraded to Exclusive) *)
  | Ck_release of { tx : int }  (** commit/abort released every lock of [tx] *)
  | Ck_scb_open of {
      scb : int;
      file : int;
      lo : string;
      hi : string;
      body : subset;
    }  (** a subset cursor opened: definition, not position — position is
           client-held and re-supplied on every re-drive *)
  | Ck_agg_state of { scb : int; groups : (Row.row * agg_acc list) list }
      (** server-side aggregate partials after a re-drive (the one cursor
          kind whose progress lives in the Disk Process) *)
  | Ck_scb_close of { scb : int }  (** the cursor completed or was closed *)
  | Ck_park of { tx : int; payload : string }
      (** a request was parked on the lock wait queue: its request bytes *)
  | Ck_unpark of { tx : int }  (** the parked request left the queue *)

let w_lock_mode w = function
  | Lock.Shared -> Codec.w_u8 w 0
  | Lock.Exclusive -> Codec.w_u8 w 1

let r_lock_mode r =
  match Codec.r_u8 r with
  | 0 -> Lock.Shared
  | 1 -> Lock.Exclusive
  | n -> bad_tag "lock grant mode" n

let w_resource w = function
  | Lock.File -> Codec.w_u8 w 0
  | Lock.Record k ->
      Codec.w_u8 w 1;
      Codec.w_bytes w k
  | Lock.Generic p ->
      Codec.w_u8 w 2;
      Codec.w_bytes w p
  | Lock.Range (lo, hi) ->
      Codec.w_u8 w 3;
      Codec.w_bytes w lo;
      Codec.w_bytes w hi

let r_resource r =
  match Codec.r_u8 r with
  | 0 -> Lock.File
  | 1 -> Lock.Record (Codec.r_bytes r)
  | 2 -> Lock.Generic (Codec.r_bytes r)
  | 3 ->
      let lo = Codec.r_bytes r in
      let hi = Codec.r_bytes r in
      Lock.Range (lo, hi)
  | n -> bad_tag "lock resource" n

(* [Ck_scb_open]'s kind byte *)
let w_ckpt_kind w kind =
  Codec.w_u8 w
    (match kind with Sk_get -> 0 | Sk_update -> 1 | Sk_delete -> 2 | Sk_agg -> 3)

let r_ckpt_kind r =
  match Codec.r_u8 r with
  | 0 -> Sk_get
  | 1 -> Sk_update
  | 2 -> Sk_delete
  | 3 -> Sk_agg
  | n -> bad_tag "checkpoint SCB body" n

let w_ckpt_item w = function
  | Ck_intent { payload } ->
      Codec.w_u8 w 0;
      Codec.w_bytes w payload
  | Ck_lock { tx; file; res; mode } ->
      Codec.w_u8 w 1;
      Codec.w_varint w tx;
      Codec.w_varint w file;
      w_resource w res;
      w_lock_mode w mode
  | Ck_release { tx } ->
      Codec.w_u8 w 2;
      Codec.w_varint w tx
  | Ck_scb_open { scb; file; lo; hi; body } ->
      Codec.w_u8 w 3;
      Codec.w_varint w scb;
      Codec.w_varint w file;
      Codec.w_bytes w lo;
      Codec.w_bytes w hi;
      w_ckpt_kind w (kind_of_subset body);
      w_subset_fields w body
  | Ck_agg_state { scb; groups } ->
      Codec.w_u8 w 4;
      Codec.w_varint w scb;
      w_groups w groups
  | Ck_scb_close { scb } ->
      Codec.w_u8 w 5;
      Codec.w_varint w scb
  | Ck_park { tx; payload } ->
      Codec.w_u8 w 6;
      Codec.w_varint w tx;
      Codec.w_bytes w payload
  | Ck_unpark { tx } ->
      Codec.w_u8 w 7;
      Codec.w_varint w tx

let r_ckpt_item r =
  match Codec.r_u8 r with
  | 0 -> Ck_intent { payload = Codec.r_bytes r }
  | 1 ->
      let tx = Codec.r_varint r in
      let file = Codec.r_varint r in
      let res = r_resource r in
      let mode = r_lock_mode r in
      Ck_lock { tx; file; res; mode }
  | 2 -> Ck_release { tx = Codec.r_varint r }
  | 3 ->
      let scb = Codec.r_varint r in
      let file = Codec.r_varint r in
      let lo = Codec.r_bytes r in
      let hi = Codec.r_bytes r in
      let body = r_subset_fields r (r_ckpt_kind r) in
      Ck_scb_open { scb; file; lo; hi; body }
  | 4 ->
      let scb = Codec.r_varint r in
      let groups = r_groups r in
      Ck_agg_state { scb; groups }
  | 5 -> Ck_scb_close { scb = Codec.r_varint r }
  | 6 ->
      let tx = Codec.r_varint r in
      let payload = Codec.r_bytes r in
      Ck_park { tx; payload }
  | 7 -> Ck_unpark { tx = Codec.r_varint r }
  | n -> bad_tag "checkpoint item" n

let encode_ckpt items =
  let w = Codec.writer () in
  Codec.w_varint w (List.length items);
  List.iter (fun item -> w_ckpt_item w item) items;
  Codec.contents w

let decode_ckpt_exn payload =
  let r = Codec.reader payload in
  let n = Codec.r_varint r in
  List.init n (fun _ -> r_ckpt_item r)

let decode_ckpt payload = guard decode_ckpt_exn payload
