(* Per-layer measurement from outside the library: a timing wrapper around
   every Disk Process endpoint, counter and simulated-time splits over the
   timed loop, and probes that replay the workload's own inputs into one
   layer's public functions. *)

module N = Nsql_core.Nonstop_sql
module Sim = Nsql_sim.Sim
module Stats = Nsql_sim.Stats
module Moncore = Nsql_sim.Moncore
module Msg = Nsql_msg.Msg
module Dp = Nsql_dp.Dp
module Dp_msg = Nsql_dp.Dp_msg
module Row = Nsql_row.Row
module Disk = Nsql_disk.Disk
module Cache = Nsql_cache.Cache
module Btree = Nsql_store.Btree
module Keycode = Nsql_util.Keycode
module Parser = Nsql_sql.Parser
module Planner = Nsql_sql.Planner
module Ast = Nsql_sql.Ast
module W = Workloads

(* --- DP dispatch wrapper ------------------------------------------------------ *)

type dp_timer = {
  mutable ns : int;  (** host ns inside outermost Dp.handler calls *)
  mutable depth : int;
  mutable calls : int;
  mutable capture : bool;
  mutable kept : int;
  mutable requests : string list;  (** every 16th payload while capturing *)
  mutable replies : string list;
}

let sample_every = 16
let sample_max = 512

(* Replaces each DP endpoint's handler with a timed call of Dp.handler.
   Only the outermost call is timed, and exceptions pass through. *)
let wrap_dps node =
  let t =
    { ns = 0; depth = 0; calls = 0; capture = false; kept = 0; requests = []; replies = [] }
  in
  Array.iter
    (fun dp ->
      Msg.set_handler (Dp.endpoint dp) (fun p ->
          if t.depth > 0 then Dp.handler dp p
          else begin
            t.depth <- 1;
            let h0 = W.now_ns () in
            match Dp.handler dp p with
            | reply ->
                t.ns <- t.ns + (W.now_ns () - h0);
                t.depth <- 0;
                t.calls <- t.calls + 1;
                if t.capture && t.calls mod sample_every = 0 && t.kept < sample_max then begin
                  t.kept <- t.kept + 1;
                  t.requests <- p :: t.requests;
                  t.replies <- reply :: t.replies
                end;
                reply
            | exception e ->
                t.ns <- t.ns + (W.now_ns () - h0);
                t.depth <- 0;
                raise e
          end))
    (N.dps node);
  t

(* --- exact counts and the simulated-time split -------------------------------- *)

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let counts (d : Stats.t) ~ops ~committed ~retries =
  let per x = ratio x ops in
  [
    ("msg.bytes_per_op", per (d.msg_req_bytes + d.msg_reply_bytes));
    ("dp.redrives_per_op", per d.redrives);
    ("dp.useful_ratio", ratio d.records_returned d.records_read);
    ("cache.reads_per_op", per (d.cache_hits + d.cache_misses));
    ("cache.hit_ratio", ratio d.cache_hits (d.cache_hits + d.cache_misses));
    ("disk.blocks_per_io", ratio (d.blocks_read + d.blocks_written) (d.disk_reads + d.disk_writes));
    ("disk.async_ios_per_op", per (d.prefetch_reads + d.writebehind_writes));
    ("lock.waits_per_op", per d.lock_waits);
    ("lock.deadlocks_per_op", per d.deadlocks);
    ("lock.retry_ratio", ratio retries committed);
    ("tmf.txs_per_flush", ratio d.group_commit_txs d.audit_flushes);
    ("dp.ckpt_bytes_per_op", per d.checkpoint_bytes);
  ]

let split_names =
  [
    (Moncore.C_compute, "simtime.compute_pct");
    (Moncore.C_msg, "simtime.msg_pct");
    (Moncore.C_disk, "simtime.disk_pct");
    (Moncore.C_lockwait, "simtime.lock_wait_pct");
    (Moncore.C_ckpt, "simtime.ckpt_pct");
    (Moncore.C_await, "simtime.await_pct");
    (Moncore.C_other, "simtime.other_pct");
  ]

(* category deltas over the loop's Sim.now delta; they sum to it exactly *)
let split ~before ~after ~sim_us =
  List.map
    (fun (c, name) ->
      let i = Moncore.cat_index c in
      (name, if sim_us = 0. then 0. else 100. *. (after.(i) -. before.(i)) /. sim_us))
    split_names

let tiles ~before ~after ~sim_us =
  let sum = ref 0. in
  Array.iteri (fun i a -> sum := !sum +. (a -. before.(i))) after;
  !sum = sim_us

(* --- probes ---------------------------------------------------------------------- *)

(* Host ns per call of [f] over [inputs]: the median of 5 blocks, each
   replaying the inputs enough times to last about [block_ns]. *)
let per_call ~block_ns f inputs =
  let inputs = Array.of_list inputs in
  let n = Array.length inputs in
  if n = 0 then 0.
  else begin
    let pass () =
      for i = 0 to n - 1 do
        ignore (Sys.opaque_identity (f inputs.(i)))
      done
    in
    let h0 = W.now_ns () in
    pass ();
    let one = max 1 (W.now_ns () - h0) in
    let reps = max 1 (block_ns / one) in
    let block () =
      let h0 = W.now_ns () in
      for _ = 1 to reps do
        pass ()
      done;
      float_of_int (W.now_ns () - h0) /. float_of_int (reps * n)
    in
    Metrics.median (List.init 5 (fun _ -> block ()))
  end

let plan cat = function
  | Ast.St_select sel -> Some (fun () -> ignore (Planner.plan_select cat sel))
  | Ast.St_update { u_table; u_sets; u_where } ->
      Some (fun () -> ignore (Planner.plan_update cat ~table:u_table ~sets:u_sets ~where:u_where))
  | Ast.St_delete { d_table; d_where } ->
      Some (fun () -> ignore (Planner.plan_delete cat ~table:d_table ~where:d_where))
  | _ -> None

(* A standalone tree with the workload's key count and record size, in a
   cache large enough to hold all of it, so lookups and scans hit. *)
let standalone_tree ~keys ~record =
  let sim = Sim.create () in
  let disk = Disk.create sim ~name:"$PROBE" in
  let blocks = (keys * (String.length record + 16) / 1024) + 64 in
  let cache =
    Cache.create sim disk ~capacity:blocks
      ~durable_lsn:(fun () -> Int64.max_int)
      ~force_log:ignore
  in
  let tree = Btree.create sim cache ~name:"probe" in
  W.ok_or "load_sorted"
    (Btree.load_sorted tree (List.init keys (fun i -> (Keycode.of_int i, record))) ~lsn:1L);
  (cache, tree)

let probes ~block_ns ~seed (c : W.corpus) (t : dp_timer) =
  let per_call f l = per_call ~block_ns f l in
  let parsed = List.filter_map (fun s -> Result.to_option (Parser.parse s)) c.sql in
  let cat = N.catalog c.sql_node in
  let plans = List.filter_map (plan cat) parsed in
  let record = match c.row_images with r :: _ -> r | [] -> String.make 100 'r' in
  let cache, tree = standalone_tree ~keys:c.tree_keys ~record in
  let r = W.rng ~seed ~stream:5 in
  let keys = List.init 256 (fun _ -> Keycode.of_int (W.rand r c.tree_keys)) in
  let scan_len = min 64 c.tree_keys in
  let leaves = Btree.leaf_blocks tree in
  (* an echo server on its own world: one round trip per captured request *)
  let sim = Sim.create () in
  let msys = Msg.create sim in
  let echo = Msg.register msys ~name:"$ECHO" ~processor:{ Msg.node = 0; cpu = 1 } Fun.id in
  let from = { Msg.node = 0; cpu = 0 } in
  [
    ("sql.parse_ns", per_call Parser.parse c.sql);
    ("sql.plan_ns", per_call (fun f -> f ()) plans);
    ("dp_msg.decode_request_ns", per_call Dp_msg.decode_request t.requests);
    ("dp_msg.decode_reply_ns", per_call Dp_msg.decode_reply t.replies);
    ("row.decode_ns", per_call (Row.decode c.row_schema) c.row_images);
    ("btree.lookup_ns", per_call (Btree.lookup tree) keys);
    ( "btree.next_ns",
      per_call
        (fun k ->
          let cur = ref (Btree.seek tree k) in
          for _ = 1 to scan_len do
            ignore (Sys.opaque_identity (Btree.cursor_entry tree !cur));
            cur := Btree.advance tree !cur
          done)
        keys
      /. float_of_int scan_len );
    ("cache.hit_ns", per_call (Cache.read cache) leaves);
    ("msg.send_ns", per_call (fun p -> Msg.send msys ~from ~tag:"ECHO" echo p) t.requests);
  ]
