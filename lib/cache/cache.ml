module Sim = Nsql_sim.Sim
module Stats = Nsql_sim.Stats
module Config = Nsql_sim.Config
module Moncore = Nsql_sim.Moncore
module Disk = Nsql_disk.Disk
module Tbl = Nsql_util.Tbl
module Errors = Nsql_util.Errors
module Trace = Nsql_trace.Trace

type memo = ..

type frame = {
  block : int;
  mutable data : string;
  mutable memo : memo option;  (** [data] as a reader decoded it *)
  mutable dirty : bool;
  mutable page_lsn : int64;
  mutable valid_at : float;  (** async read in flight until this time *)
  mutable durable_at : float;  (** async write in flight until this time *)
  mutable prev : frame option;  (** towards MRU *)
  mutable next : frame option;  (** towards LRU *)
}

type t = {
  sim : Sim.t;
  disk : Disk.t;
  capacity : int;
  table : (int, frame) Hashtbl.t;
  mutable mru : frame option;
  mutable lru : frame option;
  durable_lsn : unit -> int64;
  force_log : int64 -> unit;
}

let create sim disk ~capacity ~durable_lsn ~force_log =
  if capacity < 8 then invalid_arg "Cache.create: capacity < 8";
  {
    sim;
    disk;
    capacity;
    table = Hashtbl.create (2 * capacity);
    mru = None;
    lru = None;
    durable_lsn;
    force_log;
  }

let disk t = t.disk
let capacity t = t.capacity
let cached t = Hashtbl.length t.table

(* --- LRU list maintenance -------------------------------------------- *)

let unlink t f =
  (match f.prev with Some p -> p.next <- f.next | None -> t.mru <- f.next);
  (match f.next with Some n -> n.prev <- f.prev | None -> t.lru <- f.prev);
  f.prev <- None;
  f.next <- None

let push_mru t f =
  f.prev <- None;
  f.next <- t.mru;
  (match t.mru with Some m -> m.prev <- Some f | None -> t.lru <- Some f);
  t.mru <- Some f

(* a frame already at the MRU end stays put *)
let touch t f =
  match t.mru with
  | Some m when m == f -> ()
  | Some _ | None ->
      unlink t f;
      push_mru t f

(* --- cleaning and eviction ------------------------------------------- *)

(* WAL: before a dirty frame reaches disk, the audit trail must be durable
   through the frame's page_lsn. *)
let clean_frame t f =
  if f.dirty then begin
    if Int64.compare f.page_lsn (t.durable_lsn ()) > 0 then
      t.force_log f.page_lsn;
    assert (Int64.compare f.page_lsn (t.durable_lsn ()) <= 0);
    Disk.write t.disk f.block f.data;
    f.dirty <- false
  end
  else
    (* an async write may still be in flight; eviction must wait for it *)
    Sim.wait_until t.sim ~cat:Moncore.C_disk f.durable_at

let evict_frame t f =
  clean_frame t f;
  unlink t f;
  Hashtbl.remove t.table f.block

let evict_lru t =
  match t.lru with
  | Some f -> evict_frame t f
  | None -> Errors.fatal "Cache: no evictable frame"

let make_room t =
  while Hashtbl.length t.table >= t.capacity do
    evict_lru t
  done

let insert t block data ~dirty ~lsn ~valid_at =
  make_room t;
  let f =
    {
      block;
      data;
      memo = None;
      dirty;
      page_lsn = lsn;
      valid_at;
      durable_at = 0.;
      prev = None;
      next = None;
    }
  in
  Hashtbl.replace t.table block f;
  push_mru t f;
  f

(* --- reads ------------------------------------------------------------ *)

let hit t f =
  if Trace.enabled t.sim then
    Trace.instant t.sim ~cat:"cache"
      ~attrs:[ ("block", Int f.block) ]
      "cache_hit";
  let s = Sim.stats t.sim in
  s.Stats.cache_hits <- s.Stats.cache_hits + 1;
  touch t f;
  (* if the block was pre-fetched and has not landed yet, wait out the
     remaining latency (still cheaper than a fresh synchronous read) *)
  Sim.wait_until t.sim ~cat:Moncore.C_disk f.valid_at;
  Sim.tick t.sim 3

let miss t =
  if Trace.enabled t.sim then Trace.instant t.sim ~cat:"cache" "cache_miss";
  let s = Sim.stats t.sim in
  s.Stats.cache_misses <- s.Stats.cache_misses + 1

let read_frame t block =
  match Hashtbl.find_opt t.table block with
  | Some f ->
      hit t f;
      f
  | None ->
      miss t;
      let data = Disk.read t.disk block in
      let f = insert t block data ~dirty:false ~lsn:0L ~valid_at:(Sim.now t.sim) in
      Sim.tick t.sim 5;
      f

let read t block = (read_frame t block).data

let read_memo t block decode =
  let f = read_frame t block in
  match f.memo with
  | Some m -> m
  | None ->
      let m = decode f.data in
      f.memo <- Some m;
      m

let write t block data ~lsn =
  Sim.tick t.sim 3;
  match Hashtbl.find_opt t.table block with
  | Some f ->
      Sim.wait_until t.sim ~cat:Moncore.C_disk f.valid_at;
      touch t f;
      f.data <- data;
      f.memo <- None;
      f.dirty <- true;
      if Int64.compare lsn f.page_lsn > 0 then f.page_lsn <- lsn
  | None ->
      (* write of a whole block without reading it first *)
      ignore (insert t block data ~dirty:true ~lsn ~valid_at:(Sim.now t.sim))

(* --- bulk reads and pre-fetch ----------------------------------------- *)

(* Group the missing blocks of [first..first+count) into maximal strings of
   consecutive absent blocks, clipped to the bulk I/O limit. *)
let missing_strings t ~first ~count =
  let limit = Disk.max_bulk_blocks t.disk in
  let strings = ref [] in
  let run_start = ref (-1) in
  let flush i =
    if !run_start >= 0 then begin
      let s = !run_start and e = i in
      (* split oversized runs at the bulk limit *)
      let rec split s =
        if s < e then begin
          let n = min limit (e - s) in
          strings := (s, n) :: !strings;
          split (s + n)
        end
      in
      split s;
      run_start := -1
    end
  in
  for i = first to first + count - 1 do
    if Hashtbl.mem t.table i then flush i
    else if !run_start < 0 then run_start := i
  done;
  flush (first + count);
  List.rev !strings

(* A block the range fetched itself: same LRU touch, in-flight wait and
   CPU charge as [hit], but no hit counting — arriving on the I/O this
   very call issued is not a cache hit. *)
let absorb t f =
  touch t f;
  Sim.wait_until t.sim ~cat:Moncore.C_disk f.valid_at;
  Sim.tick t.sim 3

let read_range t ~first ~count =
  (* residency before any I/O decides hit/miss accounting: a miss per
     absent block (not per run-string), a hit only for blocks that were
     already in the pool when the call began *)
  let was_resident =
    Array.init count (fun i -> Hashtbl.mem t.table (first + i))
  in
  (* pump the missing strings through the device with up to
     [disk_queue_depth] submissions in flight, retiring (and inserting)
     in submission order before topping up — at depth 1 this is exactly
     the historical fetch-a-string, insert-a-string sequence *)
  let depth = max 1 (Sim.config t.sim).Config.disk_queue_depth in
  let pending = Queue.create () in
  let retire_one () =
    let s, io = Queue.pop pending in
    let datas = Disk.complete t.disk io in
    Array.iteri
      (fun i data ->
        ignore
          (insert t (s + i) data ~dirty:false ~lsn:0L
             ~valid_at:(Sim.now t.sim)))
      datas
  in
  List.iter
    (fun (s, n) ->
      for _ = 1 to n do
        miss t
      done;
      if Queue.length pending >= depth then retire_one ();
      Queue.push (s, Disk.submit_read t.disk ~first:s ~count:n) pending)
    (missing_strings t ~first ~count);
  while not (Queue.is_empty pending) do
    retire_one ()
  done;
  Array.init count (fun i ->
      match Hashtbl.find_opt t.table (first + i) with
      | Some f ->
          if was_resident.(i) then hit t f else absorb t f;
          f.data
      | None ->
          (* a range larger than the pool can evict its own earlier
             blocks while later strings are fetched; re-read those *)
          read t (first + i))

(* Each missing string is its own submission, so with a queue depth above
   1 the strings transfer concurrently across the device's channels — the
   pool keeps up to [disk_queue_depth] strings in flight. *)
let prefetch t ~first ~count =
  List.iter
    (fun (s, n) ->
      let datas, completion = Disk.read_bulk_async t.disk ~first:s ~count:n in
      Array.iteri
        (fun i data ->
          ignore
            (insert t (s + i) data ~dirty:false ~lsn:0L ~valid_at:completion))
        datas)
    (missing_strings t ~first ~count)

(* --- write-behind ------------------------------------------------------ *)

(* Find maximal strings of dirty resident blocks whose audit is durable and
   write them asynchronously — one submission per string, so a deeper
   device queue drains the dirty pool that many strings at a time. *)
let write_behind t =
  let durable = t.durable_lsn () in
  let sorted =
    List.filter
      (fun (_, f) -> f.dirty && Int64.compare f.page_lsn durable <= 0)
      (Tbl.sorted_bindings t.table)
  in
  let limit = Disk.max_bulk_blocks t.disk in
  let queued = ref 0 in
  let flush_string frames =
    match frames with
    | [] -> ()
    | (first, _) :: _ ->
        let arr = Array.of_list (List.map (fun (_, f) -> f.data) frames) in
        let completion = Disk.write_bulk_async t.disk ~first arr in
        List.iter
          (fun (_, f) ->
            f.dirty <- false;
            f.durable_at <- completion)
          frames;
        queued := !queued + List.length frames
  in
  let rec go current = function
    | [] -> flush_string (List.rev current)
    | (block, f) :: rest -> (
        match current with
        | [] -> go [ (block, f) ] rest
        | (prev_block, _) :: _ ->
            if block = prev_block + 1 && List.length current < limit then
              go ((block, f) :: current) rest
            else begin
              flush_string (List.rev current);
              go [ (block, f) ] rest
            end)
  in
  go [] sorted;
  !queued

(* --- forced cleaning, stealing, crash ---------------------------------- *)

let flush_block t block =
  match Hashtbl.find_opt t.table block with
  | Some f -> clean_frame t f
  | None -> ()

let flush_all t =
  List.iter (fun (_, f) -> if f.dirty then clean_frame t f)
    (Tbl.sorted_bindings t.table);
  (* wait for in-flight write-behind too *)
  List.iter
    (fun (_, f) -> Sim.wait_until t.sim ~cat:Moncore.C_disk f.durable_at)
    (Tbl.sorted_bindings t.table)

let steal t n =
  let s = Sim.stats t.sim in
  let freed = ref 0 in
  while !freed < n && t.lru <> None do
    evict_lru t;
    incr freed;
    s.Stats.cache_steals <- s.Stats.cache_steals + 1
  done;
  if Trace.enabled t.sim then
    Trace.instant t.sim ~cat:"cache"
      ~attrs:[ ("asked", Int n); ("freed", Int !freed) ]
      "cache_steal";
  !freed

let drop_all t =
  Hashtbl.reset t.table;
  t.mru <- None;
  t.lru <- None

let resident t block = Hashtbl.mem t.table block

let is_dirty t block =
  match Hashtbl.find_opt t.table block with
  | Some f -> f.dirty
  | None -> false

let dirty_count t =
  List.length (List.filter (fun (_, f) -> f.dirty) (Tbl.sorted_bindings t.table))
