module Sim = Nsql_sim.Sim
module Config = Nsql_sim.Config
module Msg = Nsql_msg.Msg
module Row = Nsql_row.Row
module Expr = Nsql_expr.Expr
module Dp = Nsql_dp.Dp
module Dp_msg = Nsql_dp.Dp_msg
module Keycode = Nsql_util.Keycode
module Errors = Nsql_util.Errors
module Trace = Nsql_trace.Trace
module Stats = Nsql_sim.Stats

open Errors

type t = { sim : Sim.t; msys : Msg.system; my_processor : Msg.processor }

type partition_spec = { ps_lo : string; ps_dp : Dp.t }

type index_spec = { is_name : string; is_cols : int list; is_dp : Dp.t }

type partition = { p_lo : string; p_dp : Dp.t; p_file : int }

type index_ = {
  ix_name : string;
  ix_cols : int array;  (** base field numbers, in index-key order *)
  ix_all_cols : int array;  (** index cols then base key cols (deduped) *)
  ix_basekey_pos : int array;  (** where each base key col sits in ix rows *)
  ix_schema : Row.schema;
  ix_dp : Dp.t;
  ix_file : int;
}

type file = {
  fname : string;
  schema : Row.schema option;
  kind : Dp_msg.file_kind_spec;
  parts : partition array;  (** sorted by [p_lo] ascending; parts.(0).p_lo = "" *)
  indexes : index_ list;
}

let create sim msys ~my_processor = { sim; msys; my_processor }

let file_name f = f.fname
let file_schema f = f.schema
let partition_count f = Array.length f.parts
let index_names f = List.map (fun ix -> ix.ix_name) f.indexes

(* nowait fan-out across partitions, unless configured off for A/B runs *)
let fanout t = (Sim.config t.sim).Config.fs_fanout

(* --- messaging --------------------------------------------------------- *)

let decode_or_internal reply_payload =
  match Dp_msg.decode_reply reply_payload with
  | Ok reply -> reply
  | Error e ->
      Dp_msg.Rp_error
        (Errors.Internal
           ("malformed reply: " ^ Dp_msg.decode_error_to_string e))

let send t dp req =
  let payload = Dp_msg.encode_request req in
  let t0 = Sim.now t.sim in
  let reply =
    decode_or_internal
      (Msg.send t.msys ~from:t.my_processor ~tag:(Dp_msg.tag req)
         (Dp.endpoint dp) payload)
  in
  (* caller-perceived request/reply round trip, hops included *)
  Nsql_sim.Moncore.observe (Sim.moncore t.sim) "fs_req" (Sim.now t.sim -. t0);
  reply

(* overlapped request: issue now, collect the reply (and the latency) at
   the await. Every completion returned here must be awaited. *)
let send_nowait t dp req =
  Msg.send_nowait t.msys ~from:t.my_processor ~tag:(Dp_msg.tag req)
    (Dp.endpoint dp) (Dp_msg.encode_request req)

let await_reply t c = decode_or_internal (Msg.await t.msys c)

(* CLOSE^SCB: abandon a subset the Disk Process still holds open *)
let close_scb t dp scb = ignore (send t dp (Dp_msg.R_close_scb { scb }))

let blocked_error blockers =
  Errors.Lock_timeout
    (Printf.sprintf "blocked by transactions [%s]"
       (String.concat "; " (List.map string_of_int blockers)))

(* Every reply path surfaces protocol errors and lock denials the same
   way, so the shared arms live in this one classifier. [k] matches only
   the success shapes of the operation (returning [None] for anything
   else) and [ctx] names the operation for the unexpected-reply
   diagnostic. *)
let classify ~ctx reply k =
  match reply with
  | Dp_msg.Rp_error e -> Error e
  | Dp_msg.Rp_blocked { blockers; _ } -> Error (blocked_error blockers)
  | reply -> (
      match k reply with
      | Some r -> r
      | None -> Error (Errors.Internal ("unexpected reply to " ^ ctx)))

let record_count t f =
  (* one RECORD^COUNT message per partition; overlapped when fan-out is on *)
  let req p = Dp_msg.R_record_count { file = p.p_file } in
  let replies =
    if fanout t then
      Array.map (await_reply t) (Array.map (fun p -> send_nowait t p.p_dp (req p)) f.parts)
    else Array.map (fun p -> send t p.p_dp (req p)) f.parts
  in
  Array.fold_left
    (fun acc reply ->
      let* total = acc in
      classify ~ctx:"RECORD^COUNT" reply (function
        | Dp_msg.Rp_slot n -> Some (Ok (total + n))
        | _ -> None))
    (Ok 0) replies

let expect_ok reply =
  classify ~ctx:"request" reply (function
    | Dp_msg.Rp_ok -> Some (Ok ())
    | _ -> None)

(* blocked (batched) requests acknowledge with either OK or a progress
   report; both mean the whole batch was applied *)
let expect_applied ~ctx reply =
  classify ~ctx reply (function
    | Dp_msg.Rp_progress _ | Dp_msg.Rp_ok -> Some (Ok ())
    | _ -> None)

let expect_file = function
  | Dp_msg.Rp_file id -> Ok id
  | Dp_msg.Rp_error e -> Error e
  | _ -> Error (Errors.Internal "unexpected reply to CREATE^FILE")

let expect_record reply =
  classify ~ctx:"READ" reply (function
    | Dp_msg.Rp_record { key; record } -> Some (Ok (key, record))
    | _ -> None)

(* --- partition routing --------------------------------------------------- *)

(* the partition whose [lo, next-lo) interval contains [key] *)
let route_index f key =
  let n = Array.length f.parts in
  let rec go i = if i + 1 < n && Keycode.compare_keys f.parts.(i + 1).p_lo key <= 0 then go (i + 1) else i in
  go 0

let route f key = f.parts.(route_index f key)

(* [by_partition f key_of items] splits [items] by the partition [key_of]
   routes each to, keeping arrival order within a partition, and lists
   the partitions touched in ascending [p_file] order — the send order of
   the blocked INSERT^BLOCK and APPLY^BLOCK flushes *)
let by_partition f key_of items =
  let per_part = Array.make (Array.length f.parts) [] in
  List.iter
    (fun x ->
      let i = route_index f (key_of x) in
      per_part.(i) <- x :: per_part.(i))
    items;
  Array.to_list f.parts
  |> List.mapi (fun i p -> (p, List.rev per_part.(i)))
  |> List.filter (fun (_, xs) -> xs <> [])
  |> List.sort (fun (a, _) (b, _) -> Int.compare a.p_file b.p_file)

(* clip [range] to each partition; returns the non-empty pieces in order *)
let partition_ranges f (range : Expr.key_range) =
  let n = Array.length f.parts in
  let pieces = ref [] in
  for i = n - 1 downto 0 do
    let p = f.parts.(i) in
    let p_hi = if i + 1 < n then f.parts.(i + 1).p_lo else Keycode.high_value in
    let lo = if Keycode.compare_keys range.Expr.lo p.p_lo > 0 then range.Expr.lo else p.p_lo in
    let hi = if Keycode.compare_keys range.Expr.hi p_hi < 0 then range.Expr.hi else p_hi in
    if Keycode.compare_keys lo hi < 0 then
      pieces := (p, Expr.{ lo; hi }) :: !pieces
  done;
  !pieces

(* --- subset chains ------------------------------------------------------------ *)

(* The FIRST request opening [body] over one partition's piece of a range,
   and the NEXT re-drive of that subset's SCB after [after_key]: the
   blocking and the nowait scan and [drive_chains] send exactly these. *)
let subset_first ~tx body (p, range) =
  Dp_msg.R_subset_first { file = p.p_file; tx; range; body }

let subset_next ~tx body p ~scb ~after_key =
  Dp_msg.R_subset_next
    { kind = Dp_msg.kind_of_subset body; file = p.p_file; tx; scb; after_key }

(* Await the earliest of the completions [pending i] holds, [i < n] (ties
   break to the lowest index — a pure function of simulated time):
   [Some (i, reply)], or [None] when nothing is outstanding. The caller
   clears slot [i]. *)
let await_earliest t n pending =
  match List.filter (fun i -> pending i <> None) (List.init n Fun.id) with
  | [] -> None
  | idxs ->
      let which, payload =
        Msg.await_any t.msys (List.map (fun i -> Option.get (pending i)) idxs)
      in
      Some (List.nth idxs which, decode_or_internal payload)

(* --- file creation --------------------------------------------------------- *)

let validate_partitions partitions =
  match partitions with
  | [] -> fail (Errors.Invalid_argument_error "no partitions")
  | first :: _ ->
      if not (String.equal first.ps_lo "") then
        fail
          (Errors.Invalid_argument_error
             "first partition must start at LOW-VALUE")
      else begin
        let rec sorted = function
          | a :: (b :: _ as rest) ->
              Keycode.compare_keys a.ps_lo b.ps_lo < 0 && sorted rest
          | _ -> true
        in
        if sorted partitions then Ok ()
        else fail (Errors.Invalid_argument_error "partition keys not ascending")
      end

(* one file [fname#p<i>] of [kind] per partition, in partition order *)
let create_parts t ~fname ~kind ~schema ~check partitions =
  let* () = validate_partitions partitions in
  let* parts =
    Errors.list_map
      (fun (i, ps) ->
        let pname = Printf.sprintf "%s#p%d" fname i in
        let* id =
          expect_file
            (send t ps.ps_dp
               (Dp_msg.R_create_file { fname = pname; kind; schema; check }))
        in
        Ok { p_lo = ps.ps_lo; p_dp = ps.ps_dp; p_file = id })
      (List.mapi (fun i ps -> (i, ps)) partitions)
  in
  Ok (Array.of_list parts)

(* the index file [fname#ix_<name>] [spec] describes, created empty: its
   rows are the index columns then the base key columns not among them *)
let create_index t ~fname (schema : Row.schema) spec =
  let key_cols = Array.to_list schema.Row.key_cols in
  let extra = List.filter (fun k -> not (List.mem k spec.is_cols)) key_cols in
  let all = Array.of_list (spec.is_cols @ extra) in
  let cols = Array.map (fun i -> schema.Row.cols.(i)) all in
  let names = Array.map (fun c -> c.Row.col_name) cols in
  let ix_schema = Row.schema cols ~key:(Array.to_list names) in
  let pos_of base_col =
    let rec go i =
      if i >= Array.length all then invalid_arg "Fs: index misses base key col"
      else if all.(i) = base_col then i
      else go (i + 1)
    in
    go 0
  in
  let iname = Printf.sprintf "%s#ix_%s" fname spec.is_name in
  let* id =
    expect_file
      (send t spec.is_dp
         (Dp_msg.R_create_file
            { fname = iname; kind = Dp_msg.K_key_sequenced;
              schema = Some ix_schema; check = None }))
  in
  Ok
    {
      ix_name = spec.is_name;
      ix_cols = Array.of_list spec.is_cols;
      ix_all_cols = all;
      ix_basekey_pos = Array.of_list (List.map pos_of key_cols);
      ix_schema;
      ix_dp = spec.is_dp;
      ix_file = id;
    }

let create_file t ~fname ~schema ?check ~partitions ~indexes () =
  let kind = Dp_msg.K_key_sequenced in
  let* parts =
    create_parts t ~fname ~kind ~schema:(Some schema) ~check partitions
  in
  let* indexes = Errors.list_map (create_index t ~fname schema) indexes in
  Ok { fname; schema = Some schema; kind; parts; indexes }

let create_enscribe_file t ~fname ~kind ~partitions =
  let* parts = create_parts t ~fname ~kind ~schema:None ~check:None partitions in
  Ok { fname; schema = None; kind; parts; indexes = [] }

(* --- index helpers ------------------------------------------------------------ *)

let index_row ix row = Row.project row ix.ix_all_cols

let index_key ix row = Row.key_of_row ix.ix_schema (index_row ix row)

let base_key_of_index_row f ix irow =
  match f.schema with
  | None -> invalid_arg "Fs: index on schema-less file"
  | Some schema ->
      let values =
        Array.to_list (Array.map (fun p -> irow.(p)) ix.ix_basekey_pos)
      in
      Row.key_of_values schema values

let find_index f index =
  match List.find_opt (fun ix -> String.equal ix.ix_name index) f.indexes with
  | Some ix -> Ok ix
  | None -> fail (Errors.Name_error ("unknown index " ^ index))

let index_schema f ~index =
  let* ix = find_index f index in
  Ok ix.ix_schema

(* --- record-at-a-time operations ------------------------------------------------ *)

let read t f ~tx ~key ~lock =
  let p = route f key in
  let* _k, record = expect_record (send t p.p_dp (Dp_msg.R_read { file = p.p_file; tx; key; lock })) in
  Ok record

let append_entry t f ~tx ~record =
  (* entry-sequenced files are unpartitioned: all appends go to EOF *)
  let p = f.parts.(0) in
  classify ~ctx:"ENTRY^APPEND"
    (send t p.p_dp (Dp_msg.R_entry_append { file = p.p_file; tx; record }))
    (function Dp_msg.Rp_slot addr -> Some (Ok addr) | _ -> None)

let insert t f ~tx ~key ~record =
  match f.kind with
  | Dp_msg.K_entry_sequenced ->
      (* WRITE to an entry-sequenced file appends; [key] is not used *)
      let* _addr = append_entry t f ~tx ~record in
      Ok ()
  | Dp_msg.K_key_sequenced | Dp_msg.K_relative _ ->
      let p = route f key in
      expect_ok (send t p.p_dp (Dp_msg.R_insert { file = p.p_file; tx; key; record }))

let update t f ~tx ~key ~record =
  let p = route f key in
  expect_ok (send t p.p_dp (Dp_msg.R_update { file = p.p_file; tx; key; record }))

let delete t f ~tx ~key =
  let p = route f key in
  expect_ok (send t p.p_dp (Dp_msg.R_delete { file = p.p_file; tx; key }))

let lock_file t f ~tx ~lock =
  if fanout t && Array.length f.parts > 1 then begin
    (* overlap the per-partition LOCKFILE round trips; every completion is
       awaited (first failing partition wins, in partition order) *)
    let cs =
      Array.map
        (fun p -> send_nowait t p.p_dp (Dp_msg.R_lock_file { file = p.p_file; tx; lock }))
        f.parts
    in
    Array.fold_left
      (fun acc c ->
        let reply = await_reply t c in
        match acc with Error _ -> acc | Ok () -> expect_ok reply)
      (Ok ()) cs
  end
  else
    let rec go i =
      if i >= Array.length f.parts then Ok ()
      else
        let p = f.parts.(i) in
        let* () =
          expect_ok (send t p.p_dp (Dp_msg.R_lock_file { file = p.p_file; tx; lock }))
        in
        go (i + 1)
    in
    go 0

let lock_generic t f ~tx ~prefix ~lock =
  let p = route f prefix in
  expect_ok
    (send t p.p_dp (Dp_msg.R_lock_generic { file = p.p_file; tx; prefix; lock }))

(* --- SQL row operations ----------------------------------------------------------- *)

let require_schema f =
  match f.schema with
  | Some s -> Ok s
  | None -> fail (Errors.Bad_request (f.fname ^ " is not a SQL file"))

let insert_row t f ~tx row =
  let* schema = require_schema f in
  let* () = Row.validate schema row in
  let key = Row.key_of_row schema row in
  let p = route f key in
  let* () =
    expect_ok (send t p.p_dp (Dp_msg.R_insert_row { file = p.p_file; tx; row }))
  in
  (* secondary-index maintenance: one message per index *)
  Errors.list_iter
    (fun ix ->
      expect_ok
        (send t ix.ix_dp
           (Dp_msg.R_insert_row { file = ix.ix_file; tx; row = index_row ix row })))
    f.indexes

let delete_index_entries t f ~tx old_row =
  Errors.list_iter
    (fun ix ->
      let key = index_key ix old_row in
      ignore f;
      expect_ok (send t ix.ix_dp (Dp_msg.R_delete { file = ix.ix_file; tx; key })))
    f.indexes

let update_row_via_key t f ~tx ~key assignments =
  let* schema = require_schema f in
  let p = route f key in
  (* requester-side read-modify-write: costs an extra message vs. the
     delegated update-expression path (the paper's point) *)
  let* _k, record =
    expect_record
      (send t p.p_dp (Dp_msg.R_read { file = p.p_file; tx; key; lock = Dp_msg.L_exclusive }))
  in
  let old_row = Row.decode_exn schema record in
  let new_row = Expr.apply_assignments old_row assignments in
  let* () = Row.validate schema new_row in
  let new_record = Row.encode schema new_row in
  let* () =
    expect_ok
      (send t p.p_dp (Dp_msg.R_update { file = p.p_file; tx; key; record = new_record }))
  in
  (* index maintenance for the indices whose entries changed *)
  Errors.list_iter
    (fun ix ->
      let old_ir = index_row ix old_row and new_ir = index_row ix new_row in
      if Row.equal_row old_ir new_ir then Ok ()
      else
        let* () =
          expect_ok
            (send t ix.ix_dp
               (Dp_msg.R_delete { file = ix.ix_file; tx; key = index_key ix old_row }))
        in
        expect_ok
          (send t ix.ix_dp (Dp_msg.R_insert_row { file = ix.ix_file; tx; row = new_ir })))
    f.indexes

let delete_row_via_key t f ~tx ~key =
  let* schema = require_schema f in
  let p = route f key in
  let* _k, record =
    expect_record
      (send t p.p_dp (Dp_msg.R_read { file = p.p_file; tx; key; lock = Dp_msg.L_exclusive }))
  in
  let old_row = Row.decode_exn schema record in
  let* () = expect_ok (send t p.p_dp (Dp_msg.R_delete { file = p.p_file; tx; key })) in
  delete_index_entries t f ~tx old_row

let read_row_via_index t f ~tx ~index ~index_key:ikey_values =
  let* schema = require_schema f in
  let* ix = find_index f index in
  let* prefix = Row.key_of_values ix.ix_schema ikey_values in
  (* message 1: read the first matching index record *)
  let reply =
    send t ix.ix_dp
      (Dp_msg.R_read_next
         {
           file = ix.ix_file;
           tx;
           from_key = prefix;
           inclusive = true;
           lock = Dp_msg.L_none;
           sbb = false;
         })
  in
  classify ~ctx:"index READ^NEXT" reply (function
    | Dp_msg.Rp_end -> Some (Ok None)
    | Dp_msg.Rp_record { key; record } ->
        (* check the index record is within the prefix *)
        let within =
          String.length key >= String.length prefix
          && String.equal (String.sub key 0 (String.length prefix)) prefix
        in
        Some
          (if not within then Ok None
           else begin
             let irow = Row.decode_exn ix.ix_schema record in
             let* base_key = base_key_of_index_row f ix irow in
             (* message 2: read the base record on its partition *)
             let p = route f base_key in
             let* _k, base_record =
               expect_record
                 (send t p.p_dp
                    (Dp_msg.R_read
                       { file = p.p_file; tx; key = base_key; lock = Dp_msg.L_none }))
             in
             Ok (Some (Row.decode_exn schema base_record))
           end)
    | _ -> None)

(* --- ENSCRIBE sequential read --------------------------------------------- *)

let read_next_raw t f ~tx ~from_key ~inclusive ~lock ~sbb =
  (* partitions at or after the one holding [from_key], in key order *)
  let n = Array.length f.parts in
  let rec try_part i from_key inclusive =
    if i >= n then Ok []
    else begin
      let p = f.parts.(i) in
      let reply =
        send t p.p_dp
          (Dp_msg.R_read_next { file = p.p_file; tx; from_key; inclusive; lock; sbb })
      in
      classify ~ctx:"READ^NEXT" reply (function
        | Dp_msg.Rp_end ->
            (* this partition is exhausted: continue in the next one *)
            Some
              (if i + 1 < n then try_part (i + 1) f.parts.(i + 1).p_lo true
               else Ok [])
        | Dp_msg.Rp_record { key; record } -> Some (Ok [ (key, record) ])
        | Dp_msg.Rp_block { entries; _ } -> Some (Ok entries)
        | _ -> None)
    end
  in
  try_part (route_index f from_key) from_key inclusive

(* --- set-oriented scans -------------------------------------------------------------- *)

type access = A_record | A_rsbb | A_vsbb

let access_name = function
  | A_record -> "record"
  | A_rsbb -> "rsbb"
  | A_vsbb -> "vsbb"

type scan_item = I_row of Row.row | I_entry of string * string

(* client-side filtering for the record-at-a-time and RSBB paths *)
let client_select ~schema ~pred ~proj key record =
  match schema with
  | None -> Some (I_entry (key, record))
  | Some schema -> (
      let row = Row.decode_exn schema record in
      match pred with
      | Some p when not (Expr.eval_pred row p) -> None
      | _ -> (
          match proj with
          | Some fields -> Some (I_row (Row.project row fields))
          | None -> Some (I_row row)))

(* the subset a GET^FIRST opens: the predicate and projection travel only
   under VSBB, an RSBB scan applies them client-side *)
let read_body ~access ~pred ~proj ~lock =
  let vsbb = access = A_vsbb in
  Dp_msg.Cs_read
    {
      buffering = (if vsbb then Dp_msg.B_vsbb else Dp_msg.B_rsbb);
      pred = (if vsbb then pred else None);
      proj = (if vsbb then proj else None);
      lock;
    }

(* One GET reply as (items, last key, more, SCB): a VSBB block's rows as
   shipped, an RSBB block's entries through the client-side [select].
   [Rp_end] is an empty last reply, whose SCB the Disk Process has
   already dropped. *)
let read_get select reply =
  classify ~ctx:"GET" reply (function
    | Dp_msg.Rp_end -> Some (Ok ([], "", false, -1))
    | Dp_msg.Rp_vblock { rows; last_key; more; scb } ->
        Some (Ok (List.map (fun r -> I_row r) rows, last_key, more, scb))
    | Dp_msg.Rp_block { entries; last_key; more; scb } ->
        let items = List.filter_map (fun (k, r) -> select k r) entries in
        Some (Ok (items, last_key, more, scb))
    | _ -> None)

(* the blocking driver: one partition at a time, one outstanding request *)
type seq_scan = {
  sc_file : file;
  sc_tx : int;
  sc_access : access;
  sc_lock : Dp_msg.lock_mode;  (** record-at-a-time READ^NEXT lock *)
  sc_body : Dp_msg.subset;
  sc_select : string -> string -> scan_item option;
  mutable sc_parts : (partition * Expr.key_range) list;  (** head = current *)
  mutable sc_scb : int option;
  mutable sc_last_key : string;
  mutable sc_started : bool;  (** GET^FIRST already sent in this partition *)
  mutable sc_buf : scan_item list;
  mutable sc_done : bool;
  sc_span : Trace.h;  (** scan-lifetime span, finished at close *)
}

(* the nowait driver: every partition keeps one outstanding re-drive *)
type par_part = {
  pp_part : partition;
  pp_range : Expr.key_range;
  mutable pp_scb : int option;
  mutable pp_pending : Msg.completion option;
  mutable pp_chunks : scan_item list list;  (** whole replies, newest first *)
  mutable pp_done : bool;  (** partition exhausted on the DP side *)
  mutable pp_span : Trace.h;
      (** fan-out leg span; its counter deltas are attributed per
          interaction (issue, re-drive, close), never by window diff —
          sibling legs interleave inside the scan's extent *)
}

type par_scan = {
  pr_file : file;
  pr_tx : int;
  pr_body : Dp_msg.subset;
  pr_select : string -> string -> scan_item option;
  pr_ordered : bool;
  pr_parts : par_part array;
  mutable pr_cur : int;  (** ordered: next partition to consume *)
  mutable pr_chunks : scan_item list list;
      (** unordered: whole replies in arrival order, newest first *)
  mutable pr_started : bool;
  mutable pr_dead : bool;  (** closed or failed: yield nothing more *)
  pr_span : Trace.h;
}

type driver = Seq of seq_scan | Par of par_scan

type scan = {
  driver : driver;
  mutable popped : scan_item list;
      (** taken from the driver, not yet handed out by [scan_next] *)
  base_row : (Row.row -> (Row.row, Errors.t) result) option;
      (** an index scan's resolver: index row to base row, one point READ *)
}

let open_scan t f ~tx ~access ~range ?pred ?proj ?(ordered = true) ~lock () =
  let pieces = partition_ranges f range in
  (* the record-at-a-time path stays blocking: it is the old-interface
     baseline, and its lock acquisition is inherently one-at-a-time *)
  let par = fanout t && access <> A_record && List.length pieces > 1 in
  (* [push:false]: a scan handle outlives this call, so its span must not
     sit on the open-span stack between interactions — scan_next,
     scan_next_batch and close_scan bracket each interaction in an
     attribute window instead *)
  let sp =
    if Trace.enabled t.sim then
      Trace.begin_span t.sim ~push:false ~cat:"fs"
        ~attrs:
          [
            ("file", Trace.Str f.fname);
            ("access", Trace.Str (access_name access));
            ("partitions", Trace.Int (List.length pieces));
            ("parallel", Trace.Bool par);
          ]
        (access_name access ^ " scan " ^ f.fname)
    else None
  in
  let body = read_body ~access ~pred ~proj ~lock in
  let select = client_select ~schema:f.schema ~pred ~proj in
  let driver =
    if par then
      Par
        {
          pr_file = f;
          pr_tx = tx;
          pr_body = body;
          pr_select = select;
          pr_ordered = ordered;
          pr_parts =
            Array.of_list
              (List.map
                 (fun (p, r) ->
                   {
                     pp_part = p;
                     pp_range = r;
                     pp_scb = None;
                     pp_pending = None;
                     pp_chunks = [];
                     pp_done = false;
                     pp_span = None;
                   })
                 pieces);
          pr_cur = 0;
          pr_chunks = [];
          pr_started = false;
          pr_dead = false;
          pr_span = sp;
        }
    else
      Seq
        {
          sc_file = f;
          sc_tx = tx;
          sc_access = access;
          sc_lock = lock;
          sc_body = body;
          sc_select = select;
          sc_parts = pieces;
          sc_scb = None;
          sc_last_key = "";
          sc_started = false;
          sc_buf = [];
          sc_done = false;
          sc_span = sp;
        }
  in
  { driver; popped = []; base_row = None }

(* --- sequential (blocking) scan driver ----------------------------------- *)

(* abandon the current partition's subset, if the scan holds its SCB *)
let seq_drop_scb t sc =
  (match (sc.sc_scb, sc.sc_parts) with
  | Some scb, (p, _) :: _ -> close_scb t p.p_dp scb
  | _ -> ());
  sc.sc_scb <- None

let seq_close t sc =
  if sc.sc_scb <> None then
    Trace.attribute t.sim sc.sc_span (fun () -> seq_drop_scb t sc);
  sc.sc_done <- true;
  Trace.finish t.sim sc.sc_span

(* move to the next partition *)
let advance_partition t sc =
  seq_drop_scb t sc;
  sc.sc_started <- false;
  sc.sc_last_key <- "";
  match sc.sc_parts with
  | [] -> sc.sc_done <- true
  | _ :: rest ->
      sc.sc_parts <- rest;
      if rest = [] then sc.sc_done <- true

(* one reply buffer absorbed into the scan's item buffer = one
   executor-visible batch; counted at the absorb site so draining a scan
   with [scan_next] or with [scan_next_batch] (the same buffers either
   way) counts the same *)
let note_batch t n =
  if n > 0 then begin
    let s = Sim.stats t.sim in
    s.Stats.exec_batches <- s.Stats.exec_batches + 1;
    s.Stats.exec_rows <- s.Stats.exec_rows + n
  end

(* one FS-DP interaction to refill the buffer; true if the scan may continue *)
let refill t sc =
  match sc.sc_parts with
  | [] ->
      sc.sc_done <- true;
      Ok ()
  | (p, range) :: _ -> (
      match sc.sc_access with
      | A_record -> (
          let from_key, inclusive =
            if sc.sc_started then (sc.sc_last_key, false)
            else (range.Expr.lo, true)
          in
          sc.sc_started <- true;
          let reply =
            send t p.p_dp
              (Dp_msg.R_read_next
                 {
                   file = p.p_file;
                   tx = sc.sc_tx;
                   from_key;
                   inclusive;
                   lock = sc.sc_lock;
                   sbb = false;
                 })
          in
          classify ~ctx:"READ^NEXT" reply (function
            | Dp_msg.Rp_end ->
                advance_partition t sc;
                Some (Ok ())
            | Dp_msg.Rp_record { key; record } ->
                if Keycode.compare_keys key range.Expr.hi >= 0 then begin
                  advance_partition t sc;
                  Some (Ok ())
                end
                else begin
                  sc.sc_last_key <- key;
                  (match sc.sc_select key record with
                  | Some item ->
                      sc.sc_buf <- [ item ];
                      note_batch t 1
                  | None -> ());
                  Some (Ok ())
                end
            | _ -> None))
      | A_rsbb | A_vsbb ->
          let reply =
            match sc.sc_scb with
            | None when not sc.sc_started ->
                sc.sc_started <- true;
                send t p.p_dp (subset_first ~tx:sc.sc_tx sc.sc_body (p, range))
            | Some scb ->
                send t p.p_dp
                  (subset_next ~tx:sc.sc_tx sc.sc_body p ~scb
                     ~after_key:sc.sc_last_key)
            | None ->
                (* SCB lost but scan started: treat as exhausted *)
                Dp_msg.Rp_end
          in
          let* items, last_key, more, scb = read_get sc.sc_select reply in
          sc.sc_scb <- (if more then Some scb else None);
          sc.sc_last_key <- last_key;
          sc.sc_buf <- items;
          note_batch t (List.length items);
          if not more then advance_partition t sc;
          Ok ())

(* take everything currently buffered as one batch, refilling only when
   the buffer is empty. Draining item-by-item does nothing to the
   simulation between pops (the pops are pure), so one aggregated
   [Sim.tick (3n)] fires the same events at the same times as n
   interleaved [Sim.tick 3]s — popping row by row and taking the batch
   are observationally identical. [tick:false] hands the rows over uncharged:
   the caller owes [Sim.tick 3] per row *before* any per-row message, which
   keeps message send times exact for consumers that interleave sends with
   consumption (index base reads, keyed fallbacks, [scan_next]'s pops). *)
let rec seq_next_items ~tick t sc =
  match sc.sc_buf with
  | _ :: _ as items ->
      sc.sc_buf <- [];
      if tick then Sim.tick t.sim (3 * List.length items);
      Ok (Some items)
  | [] ->
      if sc.sc_done then Ok None
      else
        let* () = refill t sc in
        if sc.sc_buf = [] && sc.sc_done then Ok None
        else seq_next_items ~tick t sc

(* --- parallel (nowait) scan driver ---------------------------------------- *)

(* drain a partition's (or an unordered scan's) buffer in arrival order *)
let pp_take_all pp =
  let items = List.concat (List.rev pp.pp_chunks) in
  pp.pp_chunks <- [];
  items

let pr_take_all ps =
  let items = List.concat (List.rev ps.pr_chunks) in
  ps.pr_chunks <- [];
  items

(* ordered scans buffer per partition (ranges are disjoint and ascending,
   so partition order IS key order); unordered scans queue arrivals *)
let par_absorb ps pp items =
  match items with
  | [] -> ()
  | items ->
      if ps.pr_ordered then pp.pp_chunks <- items :: pp.pp_chunks
      else ps.pr_chunks <- items :: ps.pr_chunks

(* launch: one GET^FIRST^VSBB (or RSBB) per partition, all overlapped *)
let par_issue_first t ps =
  ps.pr_started <- true;
  Array.iteri
    (fun i pp ->
      if Trace.enabled t.sim then
        pp.pp_span <-
          Trace.begin_span t.sim ~parent:ps.pr_span ~push:false ~tid:(i + 1)
            ~cat:"fs.leg"
            ~attrs:[ ("partition", Trace.Int i) ]
            ("leg " ^ Dp.name pp.pp_part.p_dp);
      let req = subset_first ~tx:ps.pr_tx ps.pr_body (pp.pp_part, pp.pp_range) in
      Trace.attribute t.sim pp.pp_span (fun () ->
          pp.pp_pending <- Some (send_nowait t pp.pp_part.p_dp req)))
    ps.pr_parts

(* fold one reply into the partition state; keep one re-drive outstanding *)
let par_process t ps pp reply =
  Trace.attribute t.sim pp.pp_span @@ fun () ->
  let* items, last_key, more, scb = read_get ps.pr_select reply in
  par_absorb ps pp items;
  note_batch t (List.length items);
  if more then begin
    pp.pp_scb <- Some scb;
    pp.pp_pending <-
      Some
        (send_nowait t pp.pp_part.p_dp
           (subset_next ~tx:ps.pr_tx ps.pr_body pp.pp_part ~scb ~after_key:last_key))
  end
  else begin
    pp.pp_scb <- None;
    pp.pp_done <- true
  end;
  Ok ()

(* drain every outstanding completion (charging its latency); called on
   error and on close so no completion is ever leaked *)
let par_quiesce t ps =
  Array.iter
    (fun pp ->
      match pp.pp_pending with
      | None -> ()
      | Some c ->
          pp.pp_pending <- None;
          (match await_reply t c with
          | Dp_msg.Rp_vblock { more; scb; _ } | Dp_msg.Rp_block { more; scb; _ } ->
              pp.pp_scb <- (if more then Some scb else None)
          | Dp_msg.Rp_blocked { scb; _ } when scb >= 0 -> pp.pp_scb <- Some scb
          | _ -> pp.pp_scb <- None);
          pp.pp_done <- true)
    ps.pr_parts

(* await the earliest outstanding completion across ALL partitions (ties
   break to the lowest partition index — pure function of simulated time)
   and fold its reply in; [Ok false] when nothing was outstanding *)
let par_await_some t ps =
  let n = Array.length ps.pr_parts in
  match await_earliest t n (fun i -> ps.pr_parts.(i).pp_pending) with
  | None -> Ok false
  | Some (i, reply) -> (
      let pp = ps.pr_parts.(i) in
      pp.pp_pending <- None;
      match par_process t ps pp reply with
      | Ok () -> Ok true
      | Error e ->
          par_quiesce t ps;
          ps.pr_dead <- true;
          Error e)

(* surrender the next non-empty buffer whole, awaiting replies only while
   nothing is buffered (see [seq_next_items] for the tick-equivalence
   argument) *)
let rec par_next_items ~tick t ps =
  if ps.pr_dead then Ok None
  else begin
    if not ps.pr_started then par_issue_first t ps;
    if ps.pr_ordered then begin
      if ps.pr_cur >= Array.length ps.pr_parts then Ok None
      else begin
        let pp = ps.pr_parts.(ps.pr_cur) in
        match pp_take_all pp with
        | _ :: _ as items ->
            if tick then Sim.tick t.sim (3 * List.length items);
            Ok (Some items)
        | [] ->
            if pp.pp_done && pp.pp_pending = None then begin
              ps.pr_cur <- ps.pr_cur + 1;
              par_next_items ~tick t ps
            end
            else
              let* progressed = par_await_some t ps in
              if progressed then par_next_items ~tick t ps else Ok None
      end
    end
    else begin
      match pr_take_all ps with
      | _ :: _ as items ->
          if tick then Sim.tick t.sim (3 * List.length items);
          Ok (Some items)
      | [] ->
          let all_done =
            Array.for_all (fun pp -> pp.pp_done && pp.pp_pending = None) ps.pr_parts
          in
          if all_done then Ok None
          else
            let* progressed = par_await_some t ps in
            if progressed then par_next_items ~tick t ps else Ok None
    end
  end

(* --- common scan interface -------------------------------------------------- *)

(* every interaction runs inside an attribute window on the scan's span:
   children begun here nest under it and its counter delta accumulates
   exactly over scan work, not whatever the caller does while holding the
   handle open *)
let scan_span sc = match sc.driver with Seq sc -> sc.sc_span | Par ps -> ps.pr_span

let scan_file sc = match sc.driver with Seq sc -> sc.sc_file | Par ps -> ps.pr_file

(* everything the scan holds: what [scan_next] has not popped yet, else
   the driver's next buffer *)
let take_items ~tick t sc =
  match sc.popped with
  | _ :: _ as items ->
      sc.popped <- [];
      if tick then Sim.tick t.sim (3 * List.length items);
      Ok (Some items)
  | [] -> (
      match sc.driver with
      | Seq s -> seq_next_items ~tick t s
      | Par ps -> par_next_items ~tick t ps)

let close_scan t sc =
  sc.popped <- [];
  match sc.driver with
  | Seq sc -> seq_close t sc
  | Par ps ->
      Trace.attribute t.sim ps.pr_span (fun () ->
          par_quiesce t ps;
          Array.iter
            (fun pp ->
              (match pp.pp_scb with
              | Some scb ->
                  pp.pp_scb <- None;
                  Trace.attribute t.sim pp.pp_span (fun () ->
                      close_scb t pp.pp_part.p_dp scb)
              | None -> ());
              Trace.finish t.sim pp.pp_span)
            ps.pr_parts);
      Trace.finish t.sim ps.pr_span;
      ps.pr_dead <- true

(* one row per call, popped from the batch stream: a buffer is taken
   uncharged and each pop charges its [Sim.tick 3] — the same events at
   the same times as surrendering the buffer whole. An index scan then
   resolves the popped entry to its base row; that READ is sent outside
   the scan span's attribute window. *)
let scan_next t sc =
  let* item =
    Trace.attribute t.sim (scan_span sc) (fun () ->
        let* () =
          if sc.popped <> [] then Ok ()
          else
            let* items = take_items ~tick:false t sc in
            sc.popped <- Option.value items ~default:[];
            Ok ()
        in
        match sc.popped with
        | [] -> Ok None
        | item :: rest ->
            sc.popped <- rest;
            Sim.tick t.sim 3;
            Ok (Some item))
  in
  let* row =
    match item with
    | None -> Ok None
    | Some (I_row row) -> Ok (Some row)
    | Some (I_entry (_, record)) -> (
        match (scan_file sc).schema with
        | Some schema -> Ok (Some (Row.decode_exn schema record))
        | None -> Error (Errors.Bad_request "scan_next on schema-less file"))
  in
  match (row, sc.base_row) with
  | Some irow, Some base_row ->
      let* row = base_row irow in
      Ok (Some row)
  | _ -> Ok row

(* surface everything the scan has buffered — at least one FS-DP reply
   buffer — as one row array; [None] when the scan is exhausted. With
   [~tick:false] the per-row pop charge is NOT applied: the consumer must
   charge [Sim.tick 3] per row before any per-row message it sends, so the
   message timeline stays byte-identical to popping row by row. *)
let take_rows ~tick t sc =
  let* items = Trace.attribute t.sim (scan_span sc) (fun () -> take_items ~tick t sc) in
  match items with
  | None -> Ok None
  | Some items -> (
      match (scan_file sc).schema with
      | Some schema ->
          Ok
            (Some
               (Array.of_list items |> Array.map (function
                  | I_row row -> row
                  | I_entry (_, record) -> Row.decode_exn schema record)))
      | None ->
          if List.exists (function I_entry _ -> true | I_row _ -> false) items
          then Error (Errors.Bad_request "scan_next_batch on a schema-less file")
          else
            Ok
              (Some
                 (Array.of_list items |> Array.map (function
                    | I_row row -> row
                    | I_entry _ -> assert false))))

(* an index scan takes its entries uncharged ([~tick:false]) and
   re-applies each pop's tick immediately before that entry's base READ,
   so the message timeline is byte-identical to pulling rows one at a
   time; [tick] only governs primary scans *)
let scan_next_batch ?(tick = true) t sc =
  match sc.base_row with
  | None -> take_rows ~tick t sc
  | Some base_row -> (
      let* irows = take_rows ~tick:false t sc in
      match irows with
      | None -> Ok None
      | Some irows ->
          let n = Array.length irows in
          let out = Array.make n [||] in
          let rec fill i =
            if i >= n then Ok (Some out)
            else begin
              Sim.tick t.sim 3;
              let* row = base_row irows.(i) in
              out.(i) <- row;
              fill (i + 1)
            end
          in
          fill 0)

(* --- set-oriented update / delete / aggregate ----------------------------- *)

(* The one FIRST/NEXT chain driver behind every set request a Disk
   Process runs under its own SCB: UPDATE^SUBSET, DELETE^SUBSET and
   AGGREGATE. [step i reply] folds partition [i]'s reply in and says
   whether its chain re-drives ([`Redrive (scb, last_key)]) or is finished
   ([`Done]). Under fan-out every partition keeps one re-drive outstanding
   and replies fold in earliest-completion order; once one partition
   fails, each sibling abandons its subset with CLOSE^SCB at its next
   reply (the failed partition's Disk Process has already dropped its
   SCB). Otherwise the partitions run one after another and the first
   failure ends the request. Each chain opens [body] over its piece of
   [range]. The request runs under one [span] named [span ^ " " ^ file]. *)
let drive_chains t f ~tx ~range ~body ~span ~attrs ~step =
  let parts = Array.of_list (partition_ranges f range) in
  let par = fanout t && Array.length parts > 1 in
  let next p (scb, after_key) = subset_next ~tx body p ~scb ~after_key in
  let run (_ : Trace.h) =
    if par then begin
      let pending =
        Array.map
          (fun ((p, _) as part) -> Some (send_nowait t p.p_dp (subset_first ~tx body part)))
          parts
      in
      let err = ref None in
      let rec loop () =
        match await_earliest t (Array.length parts) (Array.get pending) with
        | None -> ()
        | Some (i, reply) ->
            pending.(i) <- None;
            let p, _ = parts.(i) in
            (match step i reply with
            | Ok (`Redrive (scb, after_key)) ->
                if !err = None then
                  pending.(i) <- Some (send_nowait t p.p_dp (next p (scb, after_key)))
                else close_scb t p.p_dp scb
            | Ok `Done -> ()
            | Error e -> if !err = None then err := Some e);
            loop ()
      in
      loop ();
      match !err with Some e -> Error e | None -> Ok ()
    end
    else
      let rec per_partition i =
        if i >= Array.length parts then Ok ()
        else
          let p, _ = parts.(i) in
          let rec drive req =
            let* outcome = step i (send t p.p_dp req) in
            match outcome with
            | `Redrive redrive -> drive (next p redrive)
            | `Done -> per_partition (i + 1)
          in
          drive (subset_first ~tx body parts.(i))
      in
      per_partition 0
  in
  Trace.span t.sim ~cat:"fs"
    ~attrs:(fun () ->
      [
        ("file", Trace.Str f.fname);
        ("partitions", Trace.Int (Array.length parts));
        ("parallel", Trace.Bool par);
      ]
      @ attrs)
    (span ^ " " ^ f.fname)
    run

(* UPDATE^SUBSET / DELETE^SUBSET chains: count the records processed *)
let drive_subset t f ~tx ~range body =
  let total = ref 0 in
  let* () =
    drive_chains t f ~tx ~range ~body ~span:"subset" ~attrs:[]
      ~step:(fun _ reply ->
        classify ~ctx:"SUBSET request" reply (function
          | Dp_msg.Rp_progress { processed; last_key; more; scb } ->
              total := !total + processed;
              Some (Ok (if more then `Redrive (scb, last_key) else `Done))
          | _ -> None))
  in
  Ok !total

(* The requester-side path for set updates and deletes that must maintain
   secondary indexes (not delegable to the Disk Process): qualify with a
   VSBB scan projecting the key columns, then run [per_key] — a
   read-modify-write with index maintenance — on each qualifying record.
   The rows come a whole reply buffer at a time; the pop tick is deferred
   ([~tick:false]) and re-applied before each per-row request, so the
   message timeline matches a row-at-a-time driver exactly. *)
let via_keys t f ~tx ~range ~pred per_key =
  let* schema = require_schema f in
  let sc =
    open_scan t f ~tx ~access:A_vsbb ~range ?pred ~proj:schema.Row.key_cols
      ~lock:Dp_msg.L_exclusive ()
  in
  let rec go count =
    let* batch = scan_next_batch ~tick:false t sc in
    match batch with
    | None -> Ok count
    | Some batch ->
        let n = Array.length batch in
        let rec apply i =
          if i >= n then go (count + n)
          else begin
            Sim.tick t.sim 3;
            let* key = Row.key_of_values schema (Array.to_list batch.(i)) in
            let* () = per_key key in
            apply (i + 1)
          end
        in
        apply 0
  in
  (* close on every exit — errors and raises out of the driver (a
     malformed record decode) must not leave the scan (or its span) open *)
  Fun.protect ~finally:(fun () -> close_scan t sc) (fun () -> go 0)

let assignments_touch_index f assignments =
  List.exists
    (fun ix ->
      List.exists
        (fun a -> Array.exists (fun c -> c = a.Expr.target) ix.ix_all_cols)
        assignments)
    f.indexes

let update_subset t f ~tx ~range ?pred assignments =
  let* _schema = require_schema f in
  if assignments_touch_index f assignments then
    via_keys t f ~tx ~range ~pred (fun key ->
        update_row_via_key t f ~tx ~key assignments)
  else
    drive_subset t f ~tx ~range (Dp_msg.Cs_update { pred; assignments })

let delete_subset t f ~tx ~range ?pred () =
  let* _schema = require_schema f in
  if f.indexes <> [] then
    via_keys t f ~tx ~range ~pred (fun key -> delete_row_via_key t f ~tx ~key)
  else
    drive_subset t f ~tx ~range (Dp_msg.Cs_delete { pred })

(* one AGGREGATE^FIRST / AGGREGATE^NEXT chain per partition; intermediate
   replies carry no groups (the partials stay in the Disk Process SCB),
   the final one carries the partition's groups *)
let aggregate t f ~tx ~range ?pred ~group_keys ~aggs ~lock () =
  let* _schema = require_schema f in
  (* indexed by the range's partition pieces, which never outnumber the
     file's partitions *)
  let per_part = Array.make (Array.length f.parts) [] in
  let* () =
    drive_chains t f ~tx ~range
      ~body:(Dp_msg.Cs_agg { pred; group_keys; aggs; lock })
      ~span:"aggregate"
      ~attrs:[ ("groups", Trace.Int (Array.length group_keys)) ]
      ~step:(fun i reply ->
        classify ~ctx:"AGGREGATE request" reply (function
          | Dp_msg.Rp_agg { groups; last_key; more; scb } ->
              if more then Some (Ok (`Redrive (scb, last_key)))
              else begin
                per_part.(i) <- groups;
                Some (Ok `Done)
              end
          | _ -> None))
  in
  (* merge in partition (= key) order, whatever order the chains finished
     in; a group whose rows straddle a partition boundary merges
     accumulator-wise *)
  let merged = Dp_msg.Groups.create ~keyless:(group_keys = [||]) aggs in
  Array.iter
    (List.iter (fun (key, accs) -> Dp_msg.Groups.merge merged key accs))
    per_part;
  Ok merged

(* --- blocked sequential inserts --------------------------------------------------------- *)

type insert_buffer = {
  ib_file : file;
  ib_tx : int;
  ib_capacity : int;
  mutable ib_rows : Row.row list;  (** newest first *)
}

let open_insert_buffer _t f ~tx ~capacity =
  if capacity < 1 then invalid_arg "Fs.open_insert_buffer: capacity < 1";
  { ib_file = f; ib_tx = tx; ib_capacity = capacity; ib_rows = [] }

let flush_insert_buffer t b =
  match b.ib_rows with
  | [] -> Ok ()
  | rows_rev ->
      let rows = List.rev rows_rev in
      b.ib_rows <- [];
      let* schema = require_schema b.ib_file in
      (* one INSERT^BLOCK message per partition *)
      let* () =
        Errors.list_iter
          (fun (p, prows) ->
            expect_applied ~ctx:"INSERT^BLOCK"
              (send t p.p_dp
                 (Dp_msg.R_insert_block
                    { file = p.p_file; tx = b.ib_tx; rows = prows })))
          (by_partition b.ib_file (Row.key_of_row schema) rows)
      in
      (* index maintenance, also blocked *)
      Errors.list_iter
        (fun ix ->
          let irows = List.map (fun row -> index_row ix row) rows in
          expect_applied ~ctx:"INSERT^BLOCK"
            (send t ix.ix_dp
               (Dp_msg.R_insert_block
                  { file = ix.ix_file; tx = b.ib_tx; rows = irows })))
        b.ib_file.indexes

let buffered_insert t b row =
  b.ib_rows <- row :: b.ib_rows;
  if List.length b.ib_rows >= b.ib_capacity then flush_insert_buffer t b
  else Ok ()

(* --- buffered update/delete where current ----------------------------------- *)

type apply_buffer = {
  ab_file : file;
  ab_tx : int;
  ab_capacity : int;
  mutable ab_ops : (string * Dp_msg.buffered_op) list;  (** newest first *)
}

let open_apply_buffer _t f ~tx ~capacity =
  if capacity < 1 then invalid_arg "Fs.open_apply_buffer: capacity < 1";
  { ab_file = f; ab_tx = tx; ab_capacity = capacity; ab_ops = [] }

let flush_apply_buffer t b =
  match b.ab_ops with
  | [] -> Ok ()
  | ops_rev ->
      let ops = List.rev ops_rev in
      b.ab_ops <- [];
      if b.ab_file.indexes <> [] then
        (* index maintenance needs the requester-side path *)
        Errors.list_iter
          (fun (key, op) ->
            match op with
            | Dp_msg.Ob_update assignments ->
                update_row_via_key t b.ab_file ~tx:b.ab_tx ~key assignments
            | Dp_msg.Ob_delete -> delete_row_via_key t b.ab_file ~tx:b.ab_tx ~key)
          ops
      else begin
        (* one APPLY^BLOCK per partition touched *)
        Errors.list_iter
          (fun (p, pops) ->
            expect_applied ~ctx:"APPLY^BLOCK"
              (send t p.p_dp
                 (Dp_msg.R_apply_block
                    { file = p.p_file; tx = b.ab_tx; ops = pops })))
          (by_partition b.ab_file fst ops)
      end

let buffer_op t b key op =
  b.ab_ops <- (key, op) :: b.ab_ops;
  if List.length b.ab_ops >= b.ab_capacity then flush_apply_buffer t b
  else Ok ()

let buffered_update t b ~key assignments =
  buffer_op t b key (Dp_msg.Ob_update assignments)

let buffered_delete t b ~key = buffer_op t b key Dp_msg.Ob_delete

(* --- index scans -------------------------------------------------------------------------- *)

(* A VSBB scan of the index file (selection on index fields runs in the
   index's Disk Process) whose handle carries [base_row], which resolves
   one index row to its base row with a point read — one message per
   qualifying entry, the cost structure of Figure 2. *)
let open_index_scan t f ~tx ~index ~range ?pred ?proj ~lock () =
  let* schema = require_schema f in
  let* ix = find_index f index in
  let ix_file : file =
    {
      fname = f.fname ^ "#ix_" ^ index;
      schema = Some ix.ix_schema;
      kind = Dp_msg.K_key_sequenced;
      parts = [| { p_lo = ""; p_dp = ix.ix_dp; p_file = ix.ix_file } |];
      indexes = [];
    }
  in
  let base_row irow =
    let* base_key = base_key_of_index_row f ix irow in
    let p = route f base_key in
    let* _k, record =
      expect_record
        (send t p.p_dp (Dp_msg.R_read { file = p.p_file; tx; key = base_key; lock }))
    in
    let row = Row.decode_exn schema record in
    Ok (match proj with Some fields -> Row.project row fields | None -> row)
  in
  let sc = open_scan t ix_file ~tx ~access:A_vsbb ~range ?pred ~lock () in
  Ok { sc with base_row = Some base_row }

(* --- online index creation ------------------------------------------------ *)

let add_index t f ~tx spec =
  let* schema = require_schema f in
  if Result.is_ok (find_index f spec.is_name) then
    fail (Errors.File_exists ("index " ^ spec.is_name))
  else begin
    let* ix = create_index t ~fname:f.fname schema spec in
    (* backfill: scan the base with VSBB projecting the index fields, ship
       the entries with blocked inserts *)
    let sc =
      open_scan t f ~tx ~access:A_vsbb ~range:Expr.full_range
        ~proj:ix.ix_all_cols ~lock:Dp_msg.L_shared ()
    in
    let batch = ref [] in
    let flush () =
      match !batch with
      | [] -> Ok ()
      | rows ->
          let rows = List.rev rows in
          batch := [];
          expect_applied ~ctx:"INSERT^BLOCK"
            (send t spec.is_dp (Dp_msg.R_insert_block { file = ix.ix_file; tx; rows }))
    in
    let rec fill () =
      let* row = scan_next t sc in
      match row with
      | None -> flush ()
      | Some irow ->
          batch := irow :: !batch;
          let* () = if List.length !batch >= 50 then flush () else Ok () in
          fill ()
    in
    let* () = Fun.protect ~finally:(fun () -> close_scan t sc) fill in
    Ok { f with indexes = ix :: f.indexes }
  end
