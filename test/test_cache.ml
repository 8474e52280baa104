(* Tests of the buffer pool: LRU, WAL protocol, bulk reads, pre-fetch,
   write-behind, VM stealing, the per-frame memo. *)

module Sim = Nsql_sim.Sim
module Stats = Nsql_sim.Stats
module Config = Nsql_sim.Config
module Disk = Nsql_disk.Disk
module Cache = Nsql_cache.Cache

(* A little stand-in for the audit trail: durability is advanced manually,
   and we record every force request. *)
type fake_log = { mutable durable : int64; mutable forced : int64 list }

let setup ?(capacity = 16) () =
  let sim = Sim.create () in
  let disk = Disk.create sim ~name:"$DATA" in
  ignore (Disk.allocate disk 256);
  let log = { durable = 0L; forced = [] } in
  let cache =
    Cache.create sim disk ~capacity
      ~durable_lsn:(fun () -> log.durable)
      ~force_log:(fun lsn ->
        log.forced <- lsn :: log.forced;
        log.durable <- lsn)
  in
  (sim, disk, cache, log)

let block_of c = String.make Config.block_size c

let hit_miss_counting () =
  let sim, _disk, cache, _log = setup () in
  let s = Sim.stats sim in
  ignore (Cache.read cache 0);
  Alcotest.(check int) "first read misses" 1 s.Stats.cache_misses;
  ignore (Cache.read cache 0);
  Alcotest.(check int) "second read hits" 1 s.Stats.cache_hits;
  Alcotest.(check int) "one disk read total" 1 s.Stats.disk_reads

let write_read_through () =
  let sim, _disk, cache, _log = setup () in
  let payload = block_of 'z' in
  Cache.write cache 5 payload ~lsn:10L;
  Alcotest.(check string) "read back from cache" payload (Cache.read cache 5);
  Alcotest.(check bool) "dirty" true (Cache.is_dirty cache 5);
  let s = Sim.stats sim in
  Alcotest.(check int) "no disk write yet" 0 s.Stats.disk_writes

let lru_evicts_coldest () =
  let sim, _disk, cache, _log = setup ~capacity:8 () in
  let s = Sim.stats sim in
  for i = 0 to 7 do
    ignore (Cache.read cache i)
  done;
  (* touch block 0 so block 1 is the coldest, then overflow the pool *)
  ignore (Cache.read cache 0);
  ignore (Cache.read cache 8);
  Alcotest.(check int) "capacity respected" 8 (Cache.cached cache);
  let misses = s.Stats.cache_misses in
  ignore (Cache.read cache 0);
  Alcotest.(check int) "hot block survived" misses s.Stats.cache_misses;
  ignore (Cache.read cache 1);
  Alcotest.(check int) "coldest block was evicted" (misses + 1)
    s.Stats.cache_misses

let wal_forces_log_before_write () =
  let _sim, disk, cache, log = setup () in
  let payload = block_of 'w' in
  Cache.write cache 3 payload ~lsn:42L;
  Cache.flush_block cache 3;
  Alcotest.(check bool) "log forced through 42" true
    (List.exists (fun l -> Int64.compare l 42L >= 0) log.forced);
  Alcotest.(check string) "block on disk" payload (Disk.read disk 3);
  Alcotest.(check bool) "clean now" false (Cache.is_dirty cache 3)

let wal_no_force_when_durable () =
  let _sim, _disk, cache, log = setup () in
  log.durable <- 100L;
  Cache.write cache 3 (block_of 'q') ~lsn:42L;
  Cache.flush_block cache 3;
  Alcotest.(check (list int64)) "no force needed" [] log.forced

let eviction_respects_wal () =
  let _sim, _disk, cache, log = setup ~capacity:8 () in
  Cache.write cache 0 (block_of 'd') ~lsn:77L;
  (* filling the pool forces eviction of block 0 *)
  for i = 1 to 9 do
    ignore (Cache.read cache i)
  done;
  Alcotest.(check bool) "forced before eviction write" true
    (List.exists (fun l -> Int64.compare l 77L >= 0) log.forced)

let read_range_bulk () =
  let sim, _disk, cache, _log = setup ~capacity:32 () in
  let s = Sim.stats sim in
  let datas = Cache.read_range cache ~first:0 ~count:14 in
  Alcotest.(check int) "all returned" 14 (Array.length datas);
  (* 14 blocks, bulk limit 7 -> exactly 2 bulk I/Os *)
  Alcotest.(check int) "two I/Os" 2 s.Stats.disk_reads;
  Alcotest.(check int) "both bulk" 2 s.Stats.bulk_reads;
  (* second scan: no further I/O *)
  ignore (Cache.read_range cache ~first:0 ~count:14);
  Alcotest.(check int) "cached afterwards" 2 s.Stats.disk_reads

let read_range_fills_gaps () =
  let sim, _disk, cache, _log = setup ~capacity:32 () in
  ignore (Cache.read cache 2);
  (* cached block splits the range: [0..1] and [3..5] fetched separately *)
  let s = Sim.stats sim in
  let before = s.Stats.disk_reads in
  ignore (Cache.read_range cache ~first:0 ~count:6);
  Alcotest.(check int) "two string fetches" (before + 2) s.Stats.disk_reads

let prefetch_overlaps_io () =
  let sim, _disk, cache, _log = setup ~capacity:32 () in
  let s = Sim.stats sim in
  Cache.prefetch cache ~first:0 ~count:7;
  Alcotest.(check int) "async read issued" 1 s.Stats.prefetch_reads;
  let t0 = Sim.now sim in
  (* CPU work proceeds while the read is in flight *)
  Sim.tick sim 100;
  ignore (Cache.read cache 0);
  Alcotest.(check int) "read was a hit" 1 s.Stats.cache_hits;
  Alcotest.(check bool) "waited at most the remaining latency" true
    (Sim.now sim -. t0 < 40_000.)

let write_behind_strings () =
  let _sim, disk, cache, log = setup ~capacity:32 () in
  (* dirty blocks 0..6 under lsn 5, plus an isolated dirty block 20 *)
  for i = 0 to 6 do
    Cache.write cache i (block_of (Char.chr (48 + i))) ~lsn:5L
  done;
  Cache.write cache 20 (block_of 'x') ~lsn:5L;
  (* not durable yet: write-behind must do nothing *)
  let queued = Cache.write_behind cache in
  Alcotest.(check int) "WAL blocks write-behind" 0 queued;
  log.durable <- 5L;
  let s = Sim.stats _sim in
  let queued = Cache.write_behind cache in
  Alcotest.(check int) "all eligible queued" 8 queued;
  Alcotest.(check int) "one bulk + one single write" 2 s.Stats.disk_writes;
  Alcotest.(check int) "bulk write used" 1 s.Stats.bulk_writes;
  Alcotest.(check int) "counted as write-behind" 2 s.Stats.writebehind_writes;
  Alcotest.(check int) "nothing dirty left" 0 (Cache.dirty_count cache);
  Sim.drain _sim;
  Alcotest.(check string) "contents on disk" (block_of '0')
    (Disk.read disk 0)

let steal_cleans_and_frees () =
  let _sim, _disk, cache, log = setup ~capacity:16 () in
  for i = 0 to 9 do
    ignore (Cache.read cache i)
  done;
  Cache.write cache 3 (block_of 's') ~lsn:9L;
  let freed = Cache.steal cache 10 in
  Alcotest.(check int) "freed all" 10 freed;
  Alcotest.(check int) "empty now" 0 (Cache.cached cache);
  Alcotest.(check bool) "dirty victim forced the log" true
    (List.exists (fun l -> Int64.compare l 9L >= 0) log.forced)

let crash_drops_dirty () =
  let _sim, disk, cache, _log = setup () in
  Cache.write cache 7 (block_of 'c') ~lsn:3L;
  Cache.drop_all cache;
  Alcotest.(check string) "disk untouched"
    (String.make Config.block_size '\x00')
    (Disk.read disk 7);
  Alcotest.(check int) "cache empty" 0 (Cache.cached cache)

(* --- the per-frame memo -------------------------------------------------- *)

type Cache.memo += Copy of string

let decodes = ref 0

let copy data =
  incr decodes;
  Copy data

let read_via_memo cache block =
  match Cache.read_memo cache block copy with
  | Copy data -> data
  | _ -> Alcotest.fail "another reader's memo"

(* One sequence of misses, hits, a write, evictions (one of them dirty), a
   bulk range, a pre-fetch and a crash, run on twin pools: once reading
   through [read], once through [read_memo]. The memo must not show in
   the counters, the clock or the contents read. *)
let memo_invisible_to_counters () =
  let run read =
    let sim, _disk, cache, _log = setup ~capacity:8 () in
    let seen = ref [] in
    let r b = seen := read cache b :: !seen in
    List.iter r [ 0; 1; 2; 0; 1 ];
    Cache.write cache 1 (block_of 'a') ~lsn:1L;
    List.iter r [ 1; 3; 4; 5; 6; 7; 8; 9; 10; 11; 1 ];
    ignore (Cache.read_range cache ~first:12 ~count:5);
    List.iter r [ 12; 16; 1 ];
    Cache.prefetch cache ~first:20 ~count:3;
    r 21;
    Cache.drop_all cache;
    List.iter r [ 1; 21; 1 ];
    (Stats.to_assoc (Sim.stats sim), Sim.now sim, List.rev !seen)
  in
  let stats, now, seen = run Cache.read in
  let stats', now', seen' = run read_via_memo in
  Alcotest.(check (list (pair string int))) "same Stats" stats stats';
  Alcotest.(check (float 0.)) "same clock" now now';
  Alcotest.(check (list string)) "same contents" seen seen'

let memo_decoded_once_per_residency () =
  let _sim, _disk, cache, _log = setup ~capacity:8 () in
  decodes := 0;
  let r b = ignore (read_via_memo cache b) in
  r 0;
  r 0;
  Alcotest.(check int) "a hit reuses the memo" 1 !decodes;
  Cache.write cache 0 (block_of 'w') ~lsn:1L;
  Alcotest.(check string) "a write forces a fresh decode" (block_of 'w')
    (read_via_memo cache 0);
  Alcotest.(check int) "one decode per write" 2 !decodes;
  (* eight more blocks through an eight-frame pool evict block 0 *)
  for i = 1 to 8 do
    r i
  done;
  Alcotest.(check bool) "evicted" false (Cache.resident cache 0);
  decodes := 0;
  r 0;
  r 0;
  Alcotest.(check int) "an eviction forces a fresh decode" 1 !decodes;
  Cache.drop_all cache;
  r 0;
  Alcotest.(check int) "drop_all forces a fresh decode" 2 !decodes

(* The pool's replacement order against a list-based LRU: MRU first, a
   hit or a write moves a block to the front, an insert first evicts from
   the back until there is room. Pre-fetch inserts the range's missing
   blocks in block order. Residency is compared after every step, and at
   the end [steal] must give up the blocks in the model's LRU order. *)
type cache_op = Read of int | Write of int | Prefetch of int * int

let cache_ops_gen =
  QCheck.Gen.(
    list_size (int_range 1 80)
      (frequency
         [
           (4, map (fun b -> Read b) (int_bound 23));
           (2, map (fun b -> Write b) (int_bound 23));
           (1, map2 (fun b n -> Prefetch (b, n)) (int_bound 23) (int_range 1 6));
         ]))

let print_cache_op = function
  | Read b -> Printf.sprintf "R%d" b
  | Write b -> Printf.sprintf "W%d" b
  | Prefetch (b, n) -> Printf.sprintf "P%d+%d" b n

let lru_matches_model =
  QCheck.Test.make ~name:"eviction order is LRU" ~count:300
    (QCheck.make ~print:QCheck.Print.(list print_cache_op) cache_ops_gen)
    (fun ops ->
      let capacity = 8 in
      let _sim, _disk, cache, _log = setup ~capacity () in
      let model = ref [] in
      let use b =
        if List.mem b !model then model := b :: List.filter (( <> ) b) !model
        else begin
          if List.length !model >= capacity then
            model := List.filteri (fun i _ -> i < capacity - 1) !model;
          model := b :: !model
        end
      in
      let agrees () =
        List.for_all
          (fun b -> Cache.resident cache b = List.mem b !model)
          (List.init 32 Fun.id)
      in
      List.for_all
        (fun op ->
          (match op with
          | Read b ->
              ignore (Cache.read cache b);
              use b
          | Write b ->
              Cache.write cache b (block_of 'w') ~lsn:0L;
              use b
          | Prefetch (first, count) ->
              let missing =
                List.filter
                  (fun b -> not (List.mem b !model))
                  (List.init count (fun i -> first + i))
              in
              Cache.prefetch cache ~first ~count;
              List.iter use missing);
          agrees ())
        ops
      && List.for_all
           (fun b ->
             ignore (Cache.steal cache 1);
             not (Cache.resident cache b))
           (List.rev !model))

let suite =
  [
    Alcotest.test_case "hit/miss counting" `Quick hit_miss_counting;
    Alcotest.test_case "write read-through" `Quick write_read_through;
    Alcotest.test_case "capacity respected" `Quick lru_evicts_coldest;
    Alcotest.test_case "WAL: force before flush" `Quick
      wal_forces_log_before_write;
    Alcotest.test_case "WAL: no force when durable" `Quick
      wal_no_force_when_durable;
    Alcotest.test_case "WAL: eviction forces log" `Quick eviction_respects_wal;
    Alcotest.test_case "read_range uses bulk I/O" `Quick read_range_bulk;
    Alcotest.test_case "read_range fills gaps" `Quick read_range_fills_gaps;
    Alcotest.test_case "prefetch overlaps CPU and I/O" `Quick
      prefetch_overlaps_io;
    Alcotest.test_case "write-behind bulk strings under WAL" `Quick
      write_behind_strings;
    Alcotest.test_case "VM steal cleans and frees" `Quick steal_cleans_and_frees;
    Alcotest.test_case "crash drops dirty pages" `Quick crash_drops_dirty;
    Alcotest.test_case "memo invisible to counters and clock" `Quick
      memo_invisible_to_counters;
    Alcotest.test_case "memo decoded once per residency" `Quick
      memo_decoded_once_per_residency;
    QCheck_alcotest.to_alcotest lru_matches_model;
  ]
