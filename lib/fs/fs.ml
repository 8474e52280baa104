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
   way, so the shared arms live in this one classifier: a reply path
   matches the success shapes of its operation and hands any other reply
   here, with [ctx] naming the operation for the unexpected-reply
   diagnostic. *)
let refuse ~ctx = function
  | Dp_msg.Rp_error e -> Error e
  | Dp_msg.Rp_blocked { blockers; _ } -> Error (blocked_error blockers)
  | _ -> Error (Errors.Internal ("unexpected reply to " ^ ctx))

let expect_ok = function
  | Dp_msg.Rp_ok -> Ok ()
  | reply -> refuse ~ctx:"request" reply

(* blocked (batched) requests acknowledge with either OK or a progress
   report; both mean the whole batch was applied *)
let expect_applied ~ctx = function
  | Dp_msg.Rp_progress _ | Dp_msg.Rp_ok -> Ok ()
  | reply -> refuse ~ctx reply

let expect_file = function
  | Dp_msg.Rp_file id -> Ok id
  | Dp_msg.Rp_error e -> Error e
  | _ -> Error (Errors.Internal "unexpected reply to CREATE^FILE")

let expect_record = function
  | Dp_msg.Rp_record { key; record } -> Ok (key, record)
  | reply -> refuse ~ctx:"READ" reply

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

(* --- the partition fan ---------------------------------------------------- *)

(* Every multi-partition request runs as a fan of chains, one per
   partition its key range overlaps. A chain sends the FIRST request its
   caller supplies, then whatever the caller's [step] makes of each reply:
   [Redrive] with the next request (a NEXT after the last key, while the
   Disk Process keeps the subset in its SCB) or [Done].

   The transport is chosen once, when the fan opens. Blocking drives one
   chain at a time with waited sends, and a re-drive goes out only at the
   next [pull], when the consumer next asks for rows. Overlapped keeps
   one nowait request outstanding per chain, re-drives as soon as a reply
   is folded in, and takes replies earliest first. Each chain's requests
   and their bytes are the same under both; only their timing differs.

   One abandon policy serves every caller: on the first failure, in
   completion order, the fan stops re-driving, awaits every outstanding
   reply and closes each subset a Disk Process still holds. The failed
   chain needs no CLOSE^SCB, since its Disk Process dropped the SCB with
   the failed reply. The fan stays failed: every later pull returns the
   same error. A scan closed before its end runs the same path. *)

type redrive = Redrive of Dp_msg.request | Done

type chain = {
  c_index : int;  (** position in the fan: partition (= key) order *)
  c_part : partition;
  c_range : Expr.key_range;  (** the range's piece within [c_part] *)
  mutable c_next : redrive;  (** [Redrive req]: [req] goes out at the next pull *)
  mutable c_pending : Msg.completion option;  (** overlapped: in flight *)
  mutable c_scb : int;  (** the SCB its Disk Process still holds, or -1 *)
  mutable c_leg : Trace.h;
      (** a scan's overlapped leg span; its counter deltas are attributed
          per interaction (issue, re-drive, close), never by window diff,
          since sibling legs interleave inside the scan's extent *)
}

type fan = {
  chains : chain array;
  overlap : bool;
  legs : bool;  (** open a leg span per overlapped chain *)
  step : chain -> Dp_msg.reply -> (redrive, Errors.t) result;
  mutable cur : int;  (** blocking: the chain being driven *)
  mutable failed : Errors.t option;
}

(* Chain [k] of the [m] that [range] spans from partition [a] on, opened
   by [first p piece] over the range clipped to its partition. *)
let new_chain f (range : Expr.key_range) ~first ~a ~m k =
  let p = f.parts.(a + k) in
  let piece =
    if m = 1 then range
    else
      Expr.
        {
          lo = (if k = 0 then range.lo else p.p_lo);
          hi = (if k = m - 1 then range.hi else f.parts.(a + k + 1).p_lo);
        }
  in
  {
    c_index = k;
    c_part = p;
    c_range = piece;
    c_next = Redrive (first p piece);
    c_pending = None;
    c_scb = -1;
    c_leg = None;
  }

(* The fan over [range]: one chain per partition the range overlaps, a
   run of adjacent partitions from the one holding its low key. Overlapped
   when fan-out is on and there is more than one chain, unless the caller
   asks for [serial] chains. *)
let open_fan t f (range : Expr.key_range) ?(serial = false) ?(legs = false)
    ~first ~step () =
  let n = Array.length f.parts in
  let a = route_index f range.lo in
  let b = ref a in
  while !b + 1 < n && Keycode.compare_keys f.parts.(!b + 1).p_lo range.hi < 0 do
    incr b
  done;
  let m = if Keycode.compare_keys range.lo range.hi < 0 then !b - a + 1 else 0 in
  (* built without a closure: a one-chain fan is the DebitCredit hot path *)
  let chains =
    if m = 0 then [||] else Array.make m (new_chain f range ~first ~a ~m 0)
  in
  for k = 1 to m - 1 do
    chains.(k) <- new_chain f range ~first ~a ~m k
  done;
  {
    chains;
    (* the one reader of [fs_fanout]: A/B runs compare both transports *)
    overlap = (not serial) && m > 1 && (Sim.config t.sim).Config.fs_fanout;
    legs;
    step;
    cur = 0;
    failed = None;
  }

(* The SCB a reply leaves open: a set reply with more to come. A Disk
   Process drops the SCB of a last, blocked or failed reply itself; an
   [Rp_end] keeps its SCB but ends the chain (DESIGN.md §5c). *)
let held_scb = function
  | Dp_msg.Rp_vblock { more = true; scb; _ }
  | Dp_msg.Rp_block { more = true; scb; _ }
  | Dp_msg.Rp_progress { more = true; scb; _ }
  | Dp_msg.Rp_agg { more = true; scb; _ } ->
      scb
  | _ -> -1

let finished c =
  match (c.c_next, c.c_pending) with Done, None -> true | _ -> false

(* Await the earliest outstanding reply (ties break to the lowest chain, a
   pure function of simulated time); [None] when nothing is in flight. *)
let await_earliest t chains =
  match List.filter (fun c -> c.c_pending <> None) (Array.to_list chains) with
  | [] -> None
  | live ->
      let which, payload =
        Msg.await_any t.msys (List.map (fun c -> Option.get c.c_pending) live)
      in
      let c = List.nth live which in
      c.c_pending <- None;
      Some (c, decode_or_internal payload)

(* Stop the fan: nothing more goes out, every outstanding reply is
   awaited, each subset a Disk Process still holds is closed and each leg
   span finished. *)
let abandon t fan =
  let chains = fan.chains in
  for i = 0 to Array.length chains - 1 do
    let c = chains.(i) in
    c.c_next <- Done;
    match c.c_pending with
    | None -> ()
    | Some p ->
        c.c_pending <- None;
        c.c_scb <- held_scb (await_reply t p)
  done;
  for i = 0 to Array.length chains - 1 do
    let c = chains.(i) in
    let scb = c.c_scb in
    if scb >= 0 then begin
      c.c_scb <- -1;
      Trace.attribute t.sim c.c_leg (fun () -> close_scb t c.c_part.p_dp scb)
    end;
    Trace.finish t.sim c.c_leg
  done

(* Fold one reply of chain [c] in through the caller's step: a re-drive
   goes out now when overlapped, else at the next pull. *)
let fold t fan c reply =
  let* next = fan.step c reply in
  (match next with
  | Redrive req when fan.overlap ->
      c.c_pending <- Some (send_nowait t c.c_part.p_dp req)
  | Redrive _ -> c.c_next <- next
  | Done -> ());
  Ok ()

let settle t fan c reply =
  c.c_scb <- held_scb reply;
  (* no attribute closure for a chain without a leg: this is the
     DebitCredit hot path *)
  let outcome =
    match c.c_leg with
    | None -> fold t fan c reply
    | Some _ -> Trace.attribute t.sim c.c_leg (fun () -> fold t fan c reply)
  in
  match outcome with
  | Ok () -> Ok true
  | Error e ->
      c.c_scb <- -1;
      fan.failed <- Some e;
      abandon t fan;
      Error e

(* One reply folded in: [Ok true] after progress, [Ok false] once every
   chain is finished, and the fan's error once it has failed. *)
let rec pull t fan =
  match fan.failed with
  | Some e -> Error e
  | None when fan.overlap -> (
      (* the first pull issues every chain's FIRST *)
      for i = 0 to Array.length fan.chains - 1 do
        let c = fan.chains.(i) in
        match c.c_next with
        | Done -> ()
        | Redrive req ->
            c.c_next <- Done;
            (* a leg nests under the span whose attribute window the pull
               runs in: the scan's *)
            if fan.legs && Trace.enabled t.sim then
              c.c_leg <-
                Trace.begin_span t.sim ~push:false ~tid:(i + 1) ~cat:"fs.leg"
                  ~attrs:[ ("partition", Trace.Int i) ]
                  ("leg " ^ Dp.name c.c_part.p_dp);
            Trace.attribute t.sim c.c_leg (fun () ->
                c.c_pending <- Some (send_nowait t c.c_part.p_dp req))
      done;
      match await_earliest t fan.chains with
      | None -> Ok false
      | Some (c, reply) -> settle t fan c reply)
  | None -> (
      if fan.cur >= Array.length fan.chains then Ok false
      else
        let c = fan.chains.(fan.cur) in
        match c.c_next with
        | Done ->
            fan.cur <- fan.cur + 1;
            pull t fan
        | Redrive req ->
            c.c_next <- Done;
            settle t fan c (send t c.c_part.p_dp req))

(* drive every chain to its end *)
let rec run t fan =
  let* progressed = pull t fan in
  if progressed then run t fan else Ok ()

(* one RECORD^COUNT per partition *)
let record_count t f =
  let total = ref 0 in
  let* () =
    run t
      (open_fan t f Expr.full_range
         ~first:(fun p _ -> Dp_msg.R_record_count { file = p.p_file })
         ~step:(fun _ -> function
           | Dp_msg.Rp_slot n ->
               total := !total + n;
               Ok Done
           | reply -> refuse ~ctx:"RECORD^COUNT" reply)
         ())
  in
  Ok !total

(* --- subset chains ------------------------------------------------------------ *)

(* The FIRST request opening [body] over one partition's piece of a range,
   and the step that follows a reply with the NEXT re-drive of its SCB
   after [after_key] while the subset has [more]: every subset chain sends
   exactly these. *)
let subset_first ~tx body p range =
  Dp_msg.R_subset_first { file = p.p_file; tx; range; body }

let continue_subset ~tx body c ~more ~scb ~after_key =
  if not more then Ok Done
  else
    Ok
      (Redrive
         (Dp_msg.R_subset_next
            {
              kind = Dp_msg.kind_of_subset body;
              file = c.c_part.p_file;
              tx;
              scb;
              after_key;
            }))

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
  match send t p.p_dp (Dp_msg.R_entry_append { file = p.p_file; tx; record }) with
  | Dp_msg.Rp_slot addr -> Ok addr
  | reply -> refuse ~ctx:"ENTRY^APPEND" reply

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
  run t
    (open_fan t f Expr.full_range
       ~first:(fun p _ -> Dp_msg.R_lock_file { file = p.p_file; tx; lock })
       ~step:(fun _ reply ->
         let* () = expect_ok reply in
         Ok Done)
       ())

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
  match reply with
  | Dp_msg.Rp_end -> Ok None
  | Dp_msg.Rp_record { key; record } ->
      (* check the index record is within the prefix *)
      let within =
        String.length key >= String.length prefix
        && String.equal (String.sub key 0 (String.length prefix)) prefix
      in
      if not within then Ok None
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
      end
  | reply -> refuse ~ctx:"index READ^NEXT" reply

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
      match reply with
      | Dp_msg.Rp_end ->
          (* this partition is exhausted: continue in the next one *)
          if i + 1 < n then try_part (i + 1) f.parts.(i + 1).p_lo true else Ok []
      | Dp_msg.Rp_record { key; record } -> Ok [ (key, record) ]
      | Dp_msg.Rp_block { entries; _ } -> Ok entries
      | reply -> refuse ~ctx:"READ^NEXT" reply
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

type scan = {
  sc_file : file;
  sc_fan : fan;
  sc_span : Trace.h;  (** scan-lifetime span, finished at close *)
  sc_ordered : bool;
  sc_bufs : scan_item list list array;
      (** whole replies not yet taken, newest first: one buffer per chain
          when ordered (partition order is key order), else one arrival
          queue *)
  mutable sc_cur : int;  (** ordered: the chain being consumed *)
  mutable popped : scan_item list;
      (** taken from the buffers, not yet handed out by [scan_next] *)
  base_row : (Row.row -> (Row.row, Errors.t) result) option;
      (** an index scan's resolver: index row to base row, one point READ *)
}

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

(* a reply's items into chain [c]'s buffer, or the arrival queue *)
let absorb t bufs ~ordered c items =
  if items <> [] then begin
    let slot = if ordered then c.c_index else 0 in
    bufs.(slot) <- items :: bufs.(slot);
    note_batch t (List.length items)
  end

let read_next ~tx ~lock p ~from_key ~inclusive =
  Dp_msg.R_read_next { file = p.p_file; tx; from_key; inclusive; lock; sbb = false }

(* A scan is a fan of GET chains (READ^NEXT under [A_record]) with the
   scan's buffers on top. The record-at-a-time chains stay blocking: they
   are the old-interface baseline, and their lock acquisition is
   inherently one at a time. *)
let open_scan t f ~tx ~access ~range ?pred ?proj ?(ordered = true) ~lock () =
  let body = read_body ~access ~pred ~proj ~lock in
  let select = client_select ~schema:f.schema ~pred ~proj in
  (* chains never outnumber the file's partitions *)
  let bufs = Array.make (if ordered then Array.length f.parts else 1) [] in
  let first p (piece : Expr.key_range) =
    match access with
    | A_record -> read_next ~tx ~lock p ~from_key:piece.lo ~inclusive:true
    | A_rsbb | A_vsbb -> subset_first ~tx body p piece
  in
  (* a READ^NEXT chain ends at its piece's end; a GET reply brings a VSBB
     block's rows as shipped or an RSBB block's entries through the
     client-side [select], and [Rp_end] is an empty last reply *)
  let step c reply =
    match (access, reply) with
    | A_record, Dp_msg.Rp_record { key; record } ->
        if Keycode.compare_keys key c.c_range.Expr.hi >= 0 then Ok Done
        else begin
          (match select key record with
          | Some item -> absorb t bufs ~ordered c [ item ]
          | None -> ());
          Ok (Redrive (read_next ~tx ~lock c.c_part ~from_key:key ~inclusive:false))
        end
    | _, Dp_msg.Rp_end -> Ok Done
    | A_record, reply -> refuse ~ctx:"READ^NEXT" reply
    | _, Dp_msg.Rp_vblock { rows; last_key; more; scb } ->
        absorb t bufs ~ordered c (List.map (fun r -> I_row r) rows);
        continue_subset ~tx body c ~more ~scb ~after_key:last_key
    | _, Dp_msg.Rp_block { entries; last_key; more; scb } ->
        absorb t bufs ~ordered c
          (List.filter_map (fun (k, r) -> select k r) entries);
        continue_subset ~tx body c ~more ~scb ~after_key:last_key
    | _, reply -> refuse ~ctx:"GET" reply
  in
  let fan =
    open_fan t f range ~serial:(access = A_record) ~legs:true ~first ~step ()
  in
  (* [push:false]: a scan handle outlives this call, so its span must not
     sit on the open-span stack between interactions — scan_next,
     scan_next_batch and close_scan bracket each interaction in an
     attribute window instead, and the fan's leg spans nest under it *)
  let sp =
    if Trace.enabled t.sim then
      Trace.begin_span t.sim ~push:false ~cat:"fs"
        ~attrs:
          [
            ("file", Trace.Str f.fname);
            ("access", Trace.Str (access_name access));
            ("partitions", Trace.Int (Array.length fan.chains));
            ("parallel", Trace.Bool fan.overlap);
          ]
        (access_name access ^ " scan " ^ f.fname)
    else None
  in
  {
    sc_file = f;
    sc_fan = fan;
    sc_span = sp;
    sc_ordered = ordered;
    sc_bufs = bufs;
    sc_cur = 0;
    popped = [];
    base_row = None;
  }

(* Take everything buffered in the scan's current slot as one batch,
   pulling the fan only while nothing is buffered. Draining item-by-item
   does nothing to the simulation between pops (the pops are pure), so
   one aggregated [Sim.tick (3n)] fires the same events at the same
   times as n interleaved [Sim.tick 3]s — popping row by row and taking
   the batch are observationally identical. [tick:false] hands the rows
   over uncharged: the caller owes [Sim.tick 3] per row *before* any
   per-row message, which keeps message send times exact for consumers
   that interleave sends with consumption (index base reads, keyed
   fallbacks, [scan_next]'s pops). *)
let rec next_items ~tick t sc =
  let fan = sc.sc_fan in
  let slot = if sc.sc_ordered then sc.sc_cur else 0 in
  let live = slot < Array.length fan.chains in
  match fan.failed with
  | Some e ->
      (* what other chains buffered before the failure stays unread *)
      Error e
  | None when live && sc.sc_bufs.(slot) <> [] ->
      let items =
        match sc.sc_bufs.(slot) with
        | [ items ] -> items
        | chunks -> List.concat (List.rev chunks)
      in
      sc.sc_bufs.(slot) <- [];
      if tick then Sim.tick t.sim (3 * List.length items);
      Ok (Some items)
  | None when live && sc.sc_ordered && finished fan.chains.(slot) ->
      sc.sc_cur <- slot + 1;
      next_items ~tick t sc
  | None ->
      let* progressed = pull t fan in
      if progressed then next_items ~tick t sc else Ok None

(* --- common scan interface -------------------------------------------------- *)

(* Every interaction runs inside an attribute window on the scan's span:
   children begun here nest under it and its counter delta accumulates
   exactly over scan work, not whatever the caller does while holding the
   handle open. *)

(* everything the scan holds: what [scan_next] has not popped yet, else
   the next buffer *)
let take_items ~tick t sc =
  match sc.popped with
  | _ :: _ as items ->
      sc.popped <- [];
      if tick then Sim.tick t.sim (3 * List.length items);
      Ok (Some items)
  | [] -> next_items ~tick t sc

let close_scan t sc =
  sc.popped <- [];
  Trace.attribute t.sim sc.sc_span (fun () -> abandon t sc.sc_fan);
  Trace.finish t.sim sc.sc_span

(* one row per call, popped from the batch stream: a buffer is taken
   uncharged and each pop charges its [Sim.tick 3] — the same events at
   the same times as surrendering the buffer whole. An index scan then
   resolves the popped entry to its base row; that READ is sent outside
   the scan span's attribute window. *)
let scan_next t sc =
  let* item =
    Trace.attribute t.sim sc.sc_span (fun () ->
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
        match sc.sc_file.schema with
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
  let* items = Trace.attribute t.sim sc.sc_span (fun () -> take_items ~tick t sc) in
  match items with
  | None -> Ok None
  | Some items -> (
      match sc.sc_file.schema with
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

(* The set requests a Disk Process runs under its own SCB — UPDATE^SUBSET,
   DELETE^SUBSET and AGGREGATE — as one fan of chains opening [body] over
   the pieces of [range], under one span named [span ^ " " ^ file]. *)
let drive_chains t f ~tx ~range ~body ~span ~attrs ~step =
  let fan = open_fan t f range ~first:(subset_first ~tx body) ~step () in
  Trace.span t.sim ~cat:"fs"
    ~attrs:(fun () ->
      [
        ("file", Trace.Str f.fname);
        ("partitions", Trace.Int (Array.length fan.chains));
        ("parallel", Trace.Bool fan.overlap);
      ]
      @ attrs)
    (span ^ " " ^ f.fname)
    (fun _ -> run t fan)

(* UPDATE^SUBSET / DELETE^SUBSET chains: count the records processed *)
let drive_subset t f ~tx ~range body =
  let total = ref 0 in
  let* () =
    drive_chains t f ~tx ~range ~body ~span:"subset" ~attrs:[]
      ~step:(fun c -> function
        | Dp_msg.Rp_progress { processed; last_key; more; scb } ->
            total := !total + processed;
            continue_subset ~tx body c ~more ~scb ~after_key:last_key
        | reply -> refuse ~ctx:"SUBSET request" reply)
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
  (* close on every exit — errors and raises out of the scan (a
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
  let body = Dp_msg.Cs_agg { pred; group_keys; aggs; lock } in
  let* () =
    drive_chains t f ~tx ~range ~body ~span:"aggregate"
      ~attrs:[ ("groups", Trace.Int (Array.length group_keys)) ]
      ~step:(fun c -> function
        | Dp_msg.Rp_agg { groups; last_key; more; scb } ->
            if not more then per_part.(c.c_index) <- groups;
            continue_subset ~tx body c ~more ~scb ~after_key:last_key
        | reply -> refuse ~ctx:"AGGREGATE request" reply)
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
