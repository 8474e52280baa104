module Sim = Nsql_sim.Sim
module Stats = Nsql_sim.Stats
module Config = Nsql_sim.Config
module Moncore = Nsql_sim.Moncore
module Trace = Nsql_trace.Trace

type t = {
  sim : Sim.t;
  name : string;
  lat_key : string;  (** this volume's latency histogram, "disk:<name>" *)
  depth_key : string;  (** its depth-at-submission one, "diskq:<name>" *)
  mirrored : bool;
  mutable data : string array;
      (** each block's image as it was stored; blocks never written share
          [zero_block] *)
  mutable nblocks : int;
  mutable last_block : int;  (** head position for sequential detection *)
  slots : float array;
      (** busy-until per service channel ([Config.disk_queue_depth] of
          them): a submission enters the earliest-free channel, so up to
          [Array.length slots] I/Os are in service concurrently and the
          rest queue behind them. One channel reproduces the historical
          single-[busy_until] device exactly. *)
  mutable inflight : float list;
      (** completion times of submitted I/Os not yet retired from the
          [Moncore.G_diskq] gauge (lazy retirement at touch points) *)
  mutable fault_hook : (unit -> float option) option;
      (** transient I/O errors: [Some penalty_us] makes this I/O fail once
          and be retried (mirror read / recalibrate), costing [penalty_us] *)
}

let create sim ~name =
  let cfg = Sim.config sim in
  let depth = cfg.Config.disk_queue_depth in
  if depth < 1 then
    invalid_arg
      (Printf.sprintf "Disk(%s): disk_queue_depth %d < 1" name depth);
  {
    sim;
    name;
    lat_key = "disk:" ^ name;
    depth_key = "diskq:" ^ name;
    mirrored = cfg.Config.mirrored;
    data = [||];
    nblocks = 0;
    last_block = -10;
    slots = Array.make depth 0.;
    inflight = [];
    fault_hook = None;
  }

let set_fault_hook t h = t.fault_hook <- h

(* Drop I/Os whose completion the clock has passed from the in-flight set
   and the queue-depth gauge; returns the number still in flight. Called
   at every submission/completion/stall touch point — the gauge cannot be
   decremented *at* a future completion time without scheduling an event,
   which would perturb [Sim.drain]. *)
let retire t =
  let now = Sim.now t.sim in
  let live = List.filter (fun c -> c > now) t.inflight in
  let n_done = List.length t.inflight - List.length live in
  t.inflight <- live;
  if n_done > 0 then begin
    let mc = Sim.moncore t.sim in
    let drop = min n_done (Moncore.gauge_value mc Moncore.G_diskq) in
    if drop > 0 then Moncore.gauge_add mc Moncore.G_diskq (-drop)
  end;
  List.length live

let queue_depth t = retire t

(* [stall t ~us] makes the device unavailable for [us] microseconds from
   now: queued and future I/Os wait it out. Models a controller hiccup or
   an own-path retry storm on the (audit) volume — every service channel
   is held, but a backlog already longer than the stall absorbs it. *)
let stall t ~us =
  let until = Sim.now t.sim +. us in
  Array.iteri (fun i b -> t.slots.(i) <- max b until) t.slots;
  ignore (retire t)

let blocks t = t.nblocks

let max_bulk_blocks t =
  let cfg = Sim.config t.sim in
  max 1 (cfg.Config.bulk_io_max_bytes / Config.block_size)

let zero_block = String.make Config.block_size '\x00'

let allocate t n =
  let first = t.nblocks in
  let needed = t.nblocks + n in
  if needed > Array.length t.data then begin
    let cap = max 64 (max needed (2 * Array.length t.data)) in
    let data = Array.make cap zero_block in
    Array.blit t.data 0 data 0 t.nblocks;
    t.data <- data
  end;
  t.nblocks <- needed;
  first

let check_range t ~first ~count =
  if first < 0 || count < 1 || first + count > t.nblocks then
    invalid_arg
      (Printf.sprintf "Disk(%s): blocks [%d..%d) out of range [0..%d)" t.name
         first (first + count) t.nblocks);
  if count > max_bulk_blocks t then
    invalid_arg
      (Printf.sprintf "Disk(%s): bulk I/O of %d blocks exceeds limit %d"
         t.name count (max_bulk_blocks t))

(* Service time of one I/O; the head moves to the end of the range. *)
let io_time t ~first ~count =
  let position_cost =
    (* continuing right after — or rewriting — the last touched block is
       physically sequential *)
    if first = t.last_block + 1 || first = t.last_block then
      Config.disk_sequential_us
    else Config.disk_seek_us
  in
  t.last_block <- first + count - 1;
  position_cost +. (float_of_int count *. Config.disk_per_block_us)

(* An I/O enters the device queue: it starts when its service channel is
   free and the caller has reached that point in time. The channel is the
   earliest-free slot (lowest index on ties), so submissions stack up
   breadth-first across the configured queue depth. Returns the completion
   time. Head movement ([io_time]'s sequential detection) follows
   submission order regardless of depth — determinism over realism. *)
let enqueue_io t ~first ~count =
  let live = retire t in
  let si = ref 0 in
  for i = 1 to Array.length t.slots - 1 do
    if t.slots.(i) < t.slots.(!si) then si := i
  done;
  let si = !si in
  let start = max t.slots.(si) (Sim.now t.sim) in
  let retry_penalty =
    match t.fault_hook with
    | None -> 0.
    | Some hook -> (
        match hook () with
        | None -> 0.
        | Some penalty ->
            let s = Sim.stats t.sim in
            s.Stats.disk_transient_errors <-
              s.Stats.disk_transient_errors + 1;
            penalty)
  in
  let completion = start +. io_time t ~first ~count +. retry_penalty in
  t.slots.(si) <- completion;
  t.inflight <- completion :: t.inflight;
  (* device service window and caller-perceived latency (queueing
     included); virtual times under a capture, like the spans. The global
     "disk" histogram keeps its pre-queue-model feed; the per-volume
     latency and depth-at-submission histograms attribute tails by
     volume and by how deep the queue ran. *)
  let mc = Sim.moncore t.sim in
  Moncore.add_busy mc Moncore.R_disk (completion -. start);
  Moncore.observe mc "disk" (completion -. Sim.now t.sim);
  Moncore.gauge_add mc Moncore.G_diskq 1;
  Moncore.observe mc t.lat_key (completion -. Sim.now t.sim);
  Moncore.observe mc t.depth_key (float_of_int (live + 1));
  completion

let count_read t ~count ~prefetch =
  let s = Sim.stats t.sim in
  s.Stats.disk_reads <- s.Stats.disk_reads + 1;
  s.Stats.blocks_read <- s.Stats.blocks_read + count;
  if count > 1 then s.Stats.bulk_reads <- s.Stats.bulk_reads + 1;
  if prefetch then s.Stats.prefetch_reads <- s.Stats.prefetch_reads + 1

let count_write t ~count ~behind =
  let s = Sim.stats t.sim in
  let ios = if t.mirrored then 2 else 1 in
  s.Stats.disk_writes <- s.Stats.disk_writes + ios;
  s.Stats.blocks_written <- s.Stats.blocks_written + (count * ios);
  if count > 1 then s.Stats.bulk_writes <- s.Stats.bulk_writes + ios;
  if behind then
    s.Stats.writebehind_writes <- s.Stats.writebehind_writes + ios

(* block images are immutable strings, so a fetch shares them *)
let fetch t ~first ~count = Array.sub t.data first count

let store t ~first data =
  Array.iteri
    (fun i block ->
      let bs = Config.block_size in
      if String.length block <> bs then
        invalid_arg
          (Printf.sprintf "Disk(%s): block payload %d bytes, expected %d"
             t.name (String.length block) bs);
      t.data.(first + i) <- block)
    data

let io_attrs t ~first ~count =
  [
    ("vol", Trace.Str t.name);
    ("first", Trace.Int first);
    ("count", Trace.Int count);
    ("bulk", Trace.Bool (count > 1));
  ]

(* --- submission/completion handles ------------------------------------ *)

type io = {
  io_first : int;
  io_count : int;
  io_read : bool;
  io_submitted : float;
  io_done : float;
  io_span : Trace.h;
}

let io_done_at io = io.io_done

let submit_read t ~first ~count =
  check_range t ~first ~count;
  let sp =
    if Trace.enabled t.sim then
      Trace.begin_span t.sim ~cat:"disk" ~attrs:(io_attrs t ~first ~count)
        "disk_read"
    else None
  in
  count_read t ~count ~prefetch:false;
  let submitted = Sim.now t.sim in
  let completion = enqueue_io t ~first ~count in
  {
    io_first = first;
    io_count = count;
    io_read = true;
    io_submitted = submitted;
    io_done = completion;
    io_span = sp;
  }

let submit_write t ~first data =
  let count = Array.length data in
  check_range t ~first ~count;
  let sp =
    if Trace.enabled t.sim then
      Trace.begin_span t.sim ~cat:"disk" ~attrs:(io_attrs t ~first ~count)
        "disk_write"
    else None
  in
  count_write t ~count ~behind:false;
  store t ~first data;
  let submitted = Sim.now t.sim in
  let completion = enqueue_io t ~first ~count in
  {
    io_first = first;
    io_count = count;
    io_read = false;
    io_submitted = submitted;
    io_done = completion;
    io_span = sp;
  }

(* Reap one completion: block until the I/O's done-time, then hand the
   data over (reads transfer into memory only now — events firing during
   the wait run before the contents are observed). The sole blocking wait
   in this module. *)
let complete t io =
  Sim.wait_until t.sim ~cat:Moncore.C_disk io.io_done;
  ignore (retire t);
  let blocks =
    if io.io_read then fetch t ~first:io.io_first ~count:io.io_count
    else [||]
  in
  Trace.finish t.sim io.io_span;
  blocks

let read_bulk t ~first ~count =
  let io = submit_read t ~first ~count in
  complete t io

let read t i =
  match read_bulk t ~first:i ~count:1 with
  | [| b |] -> b
  | _ -> assert false

let write_bulk t ~first data =
  let io = submit_write t ~first data in
  ignore (complete t io)

let write t i data = write_bulk t ~first:i [| data |]

let read_bulk_async t ~first ~count =
  check_range t ~first ~count;
  count_read t ~count ~prefetch:true;
  let completion = enqueue_io t ~first ~count in
  if Trace.enabled t.sim then
    Trace.instant t.sim ~cat:"disk"
      ~attrs:(io_attrs t ~first ~count @ [ ("done_at", Float completion) ])
      "disk_prefetch";
  (fetch t ~first ~count, completion)

let write_bulk_async t ~first data =
  let count = Array.length data in
  check_range t ~first ~count;
  count_write t ~count ~behind:true;
  store t ~first data;
  let completion = enqueue_io t ~first ~count in
  if Trace.enabled t.sim then
    Trace.instant t.sim ~cat:"disk"
      ~attrs:(io_attrs t ~first ~count @ [ ("done_at", Float completion) ])
      "disk_write_behind";
  completion
