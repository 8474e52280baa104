(* Tests of the simulation world: clock, events, heap, stats, message
   system, disk cost model. *)

module Heap = Nsql_util.Heap
module Sim = Nsql_sim.Sim
module Moncore = Nsql_sim.Moncore
module Stats = Nsql_sim.Stats
module Config = Nsql_sim.Config
module Msg = Nsql_msg.Msg
module Disk = Nsql_disk.Disk
module Tracer = Nsql_sim.Tracer
module Trace = Nsql_trace.Trace

let heap_orders () =
  let h = Heap.create () in
  List.iter (fun (p, v) -> Heap.push h ~prio:p v)
    [ (3., "c"); (1., "a"); (2., "b"); (1., "a2") ];
  let pop () = match Heap.pop_min h with Some (_, v) -> v | None -> "END" in
  let p1 = pop () in
  let p2 = pop () in
  let p3 = pop () in
  let p4 = pop () in
  let p5 = pop () in
  let popped = [ p1; p2; p3; p4; p5 ] in
  Alcotest.(check (list string)) "order with FIFO ties"
    [ "a"; "a2"; "b"; "c"; "END" ]
    popped

let heap_property =
  QCheck.Test.make ~name:"heap pops in nondecreasing priority" ~count:200
    QCheck.(list (float_bound_inclusive 1000.))
    (fun prios ->
      let h = Heap.create () in
      List.iter (fun p -> Heap.push h ~prio:p ()) prios;
      let rec drain last =
        match Heap.pop_min h with
        | None -> true
        | Some (p, ()) -> p >= last && drain p
      in
      drain neg_infinity)

let clock_advances () =
  let sim = Sim.create () in
  Alcotest.(check (float 0.)) "starts at 0" 0. (Sim.now sim);
  Sim.charge sim ~cat:Moncore.C_other 100.;
  Alcotest.(check (float 0.)) "charge" 100. (Sim.now sim);
  Sim.tick sim 50;
  Alcotest.(check (float 0.)) "ticks move clock" 150. (Sim.now sim);
  Alcotest.(check int) "ticks counted" 50 (Sim.stats sim).Stats.cpu_ticks

let events_fire_in_order () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.schedule sim ~at:50. (fun () -> log := "b" :: !log);
  Sim.schedule sim ~at:10. (fun () -> log := "a" :: !log);
  Sim.schedule sim ~at:90. (fun () -> log := "c" :: !log);
  Sim.charge sim ~cat:Moncore.C_other 60.;
  Alcotest.(check (list string)) "due events fired" [ "a"; "b" ] (List.rev !log);
  Sim.drain sim;
  Alcotest.(check (list string)) "drained" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.(check (float 0.)) "clock at last event" 90. (Sim.now sim)

let event_schedules_event () =
  let sim = Sim.create () in
  let fired = ref 0 in
  Sim.schedule sim ~at:10. (fun () ->
      incr fired;
      Sim.schedule sim ~at:20. (fun () -> incr fired));
  Sim.drain sim;
  Alcotest.(check int) "both fired" 2 !fired

(* --- the clock's no-event fast path ------------------------------------ *)

let event_due_at_target_fires () =
  let sim = Sim.create () in
  let fired_at = ref (-1.) in
  Sim.schedule sim ~at:5. (fun () -> fired_at := Sim.now sim);
  Sim.tick sim 4;
  Alcotest.(check (float 0.)) "not yet due" (-1.) !fired_at;
  Sim.tick sim 1;
  Alcotest.(check (float 0.)) "fired on reaching its time" 5. !fired_at

let late_event_fires_next_advance () =
  let sim = Sim.create () in
  let log = ref [] in
  let note name () = log := (name, Sim.now sim) :: !log in
  (* a handler that schedules into the past and then moves the clock
     itself: the nested advance cannot fire, the outer one must *)
  Sim.schedule sim ~at:10. (fun () ->
      note "a" ();
      Sim.schedule sim ~at:3. (note "b");
      Sim.tick sim 1);
  Sim.charge sim ~cat:Moncore.C_other 10.;
  Alcotest.(check (list (pair string (float 0.))))
    "past event fired by the enclosing advance"
    [ ("a", 10.); ("b", 11.) ]
    (List.rev !log);
  (* scheduled at [now] outside any handler: fires on the next advance *)
  Sim.schedule sim ~at:(Sim.now sim) (note "c");
  Alcotest.(check int) "pending until the clock moves" 2 (List.length !log);
  Sim.tick sim 1;
  Alcotest.(check (list (pair string (float 0.))))
    "fired on the next tick"
    [ ("a", 10.); ("b", 11.); ("c", 12.) ]
    (List.rev !log)

(* The advance rule written over a list: step to each event due by the
   target and later than now, firing everything due at each step, then
   land on the target and fire what is due there. The events are data —
   an id, an offset from the clock at scheduling, and an optional child
   the handler schedules the same way — so the model and [Sim] run the
   same schedule. *)
type clock_op = Sched of int * int * (int * int) option | Tick of int

let clock_ops_gen =
  QCheck.Gen.(
    list_size (int_bound 40)
      (frequency
         [
           ( 2,
             map3
               (fun off child coff -> (off, if child then Some coff else None))
               (int_range (-5) 20) bool (int_range (-3) 10)
             |> map (fun (off, child) -> `S (off, child)) );
           (3, map (fun n -> `T n) (int_bound 12));
         ]))
  |> QCheck.Gen.map (fun ops ->
         List.mapi
           (fun i -> function
             | `S (off, child) ->
                 Sched (i, off, Option.map (fun c -> (1000 + i, c)) child)
             | `T n -> Tick n)
           ops)

let model_firing ops =
  let now = ref 0. and seq = ref 0 and pending = ref [] and log = ref [] in
  let push at ev =
    pending := (Float.max at !now, !seq, ev) :: !pending;
    incr seq
  in
  let earliest () =
    List.fold_left
      (fun acc (d, q, e) ->
        match acc with
        | Some (d', q', _) when d' < d || (d' = d && q' < q) -> acc
        | _ -> Some (d, q, e))
      None !pending
  in
  let run (_, q, (id, child)) =
    pending := List.filter (fun (_, q', _) -> q' <> q) !pending;
    log := (id, !now) :: !log;
    Option.iter
      (fun (cid, coff) -> push (!now +. float_of_int coff) (cid, None))
      child
  in
  let rec fire_due () =
    match earliest () with
    | Some ((d, _, _) as e) when d <= !now ->
        run e;
        fire_due ()
    | _ -> ()
  in
  let rec advance target =
    match earliest () with
    | Some (d, _, _) when d <= target && d > !now ->
        now := d;
        fire_due ();
        advance target
    | _ ->
        now := Float.max !now target;
        fire_due ()
  in
  List.iter
    (function
      | Sched (id, off, child) -> push (!now +. float_of_int off) (id, child)
      | Tick n -> if n > 0 then advance (!now +. float_of_int n))
    ops;
  let rec drain () =
    match earliest () with
    | Some (d, _, _) ->
        advance d;
        drain ()
    | None -> ()
  in
  drain ();
  List.rev !log

let sim_firing ops =
  let sim = Sim.create () in
  let log = ref [] in
  let rec handler id child () =
    log := (id, Sim.now sim) :: !log;
    Option.iter
      (fun (cid, coff) ->
        Sim.schedule sim ~at:(Sim.now sim +. float_of_int coff) (handler cid None))
      child
  in
  List.iter
    (function
      | Sched (id, off, child) ->
          Sim.schedule sim ~at:(Sim.now sim +. float_of_int off) (handler id child)
      | Tick n -> Sim.tick sim n)
    ops;
  Sim.drain sim;
  List.rev !log

let firing_matches_model =
  QCheck.Test.make ~name:"events fire as the advance rule says" ~count:300
    (QCheck.make clock_ops_gen) (fun ops -> sim_firing ops = model_firing ops)

let measure_diffs () =
  let sim = Sim.create () in
  Sim.tick sim 7;
  let (), delta = Sim.measure sim (fun () -> Sim.tick sim 5) in
  Alcotest.(check int) "delta isolated" 5 delta.Stats.cpu_ticks

(* --- message system ---------------------------------------------------- *)

let msg_roundtrip_and_counters () =
  let sim = Sim.create () in
  let sys = Msg.create sim in
  let proc_a = Msg.{ node = 0; cpu = 0 } in
  let proc_b = Msg.{ node = 0; cpu = 1 } in
  let server =
    Msg.register sys ~name:"$DATA" ~processor:proc_b (fun req ->
        req ^ "-reply")
  in
  let reply = Msg.send sys ~from:proc_a ~tag:"TEST" server "hello" in
  Alcotest.(check string) "handler ran" "hello-reply" reply;
  let s = Sim.stats sim in
  Alcotest.(check int) "one message" 1 s.Stats.msgs_sent;
  Alcotest.(check int) "req bytes" 5 s.Stats.msg_req_bytes;
  Alcotest.(check int) "reply bytes" 11 s.Stats.msg_reply_bytes;
  Alcotest.(check int) "remote" 1 s.Stats.msgs_remote

let msg_local_vs_remote_cost () =
  let sim = Sim.create () in
  let sys = Msg.create sim in
  let p0 = Msg.{ node = 0; cpu = 0 } in
  let p1 = Msg.{ node = 0; cpu = 1 } in
  let n1 = Msg.{ node = 1; cpu = 0 } in
  let mk name proc = Msg.register sys ~name ~processor:proc (fun _ -> "") in
  let local = mk "$LOCAL" p0 in
  let cross = mk "$CROSS" p1 in
  let remote = mk "$REMOTE" n1 in
  let cost target =
    let t0 = Sim.now sim in
    ignore (Msg.send sys ~from:p0 ~tag:"T" target "x");
    Sim.now sim -. t0
  in
  let cl = cost local and cc = cost cross and cr = cost remote in
  Alcotest.(check bool) "local < cross" true (cl < cc);
  Alcotest.(check bool) "cross < node" true (cc < cr)

let msg_trace () =
  let sim = Sim.create () in
  let sys = Msg.create sim in
  let p0 = Msg.{ node = 0; cpu = 0 } in
  let server = Msg.register sys ~name:"$D1" ~processor:p0 (fun _ -> "ok") in
  Trace.set_enabled sim true;
  ignore (Msg.send sys ~from:p0 ~tag:"READ" server "req");
  Trace.set_enabled sim false;
  let trace = Trace.msg_spans (Trace.take sim) in
  Alcotest.(check int) "one entry" 1 (List.length trace);
  let sp = List.hd trace in
  Alcotest.(check string) "tag" "READ" sp.Tracer.sp_name;
  (match Trace.attr sp "to" with
  | Some (Trace.Str s) -> Alcotest.(check string) "target" "$D1" s
  | _ -> Alcotest.fail "msg span has no 'to' attribute")

(* --- disk --------------------------------------------------------------- *)

let disk_roundtrip () =
  let sim = Sim.create () in
  let d = Disk.create sim ~name:"$DATA" in
  let first = Disk.allocate d 10 in
  let bs = Config.block_size in
  let payload = String.init bs (fun i -> Char.chr (i mod 256)) in
  Disk.write d (first + 3) payload;
  Alcotest.(check string) "read back" payload (Disk.read d (first + 3));
  Alcotest.(check string) "other block zero"
    (String.make bs '\x00')
    (Disk.read d first)

let disk_bulk_counts () =
  let sim = Sim.create () in
  let d = Disk.create sim ~name:"$DATA" in
  ignore (Disk.allocate d 20);
  let s = Sim.stats sim in
  ignore (Disk.read_bulk d ~first:0 ~count:7);
  Alcotest.(check int) "one io" 1 s.Nsql_sim.Stats.disk_reads;
  Alcotest.(check int) "seven blocks" 7 s.Nsql_sim.Stats.blocks_read;
  Alcotest.(check int) "bulk" 1 s.Nsql_sim.Stats.bulk_reads;
  Alcotest.check_raises "bulk limit enforced"
    (Invalid_argument
       "Disk($DATA): bulk I/O of 8 blocks exceeds limit 7") (fun () ->
      ignore (Disk.read_bulk d ~first:0 ~count:8))

let disk_sequential_cheaper () =
  let sim = Sim.create () in
  let d = Disk.create sim ~name:"$DATA" in
  ignore (Disk.allocate d 100);
  ignore (Disk.read d 10);
  let t0 = Sim.now sim in
  ignore (Disk.read d 11);
  let sequential = Sim.now sim -. t0 in
  let t1 = Sim.now sim in
  ignore (Disk.read d 50);
  let random = Sim.now sim -. t1 in
  Alcotest.(check bool) "sequential cheaper" true (sequential < random)

let disk_mirrored_writes () =
  let sim = Sim.create ~config:(Config.v ~mirrored:true ()) () in
  let d = Disk.create sim ~name:"$MIR" in
  ignore (Disk.allocate d 4);
  let bs = Config.block_size in
  Disk.write d 0 (String.make bs 'x');
  let s = Sim.stats sim in
  Alcotest.(check int) "two physical writes" 2 s.Nsql_sim.Stats.disk_writes;
  Alcotest.(check int) "two blocks" 2 s.Nsql_sim.Stats.blocks_written

let disk_async_completion () =
  let sim = Sim.create () in
  let d = Disk.create sim ~name:"$DATA" in
  ignore (Disk.allocate d 20);
  let t0 = Sim.now sim in
  let _data, completion = Disk.read_bulk_async d ~first:0 ~count:7 in
  Alcotest.(check (float 0.)) "clock did not advance" t0 (Sim.now sim);
  Alcotest.(check bool) "completion in the future" true (completion > t0)

(* --- configuration ---------------------------------------------------- *)

let rejects ~field f =
  match f () with
  | (_ : Config.t) -> Alcotest.failf "%s: bad value accepted" field
  | exception Invalid_argument msg ->
      let mentions =
        let n = String.length field and m = String.length msg in
        let rec go i = i + n <= m && (String.sub msg i n = field || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) (field ^ " named in: " ^ msg) true mentions

let config_rejects_bad_values () =
  let time = rejects ~field:"lock_wait_timeout_us" in
  time (fun () -> Config.v ~lock_wait_timeout_us:0. ());
  time (fun () -> Config.v ~lock_wait_timeout_us:(-250.) ());
  time (fun () -> Config.v ~lock_wait_timeout_us:0.1 ());
  time (fun () -> Config.v ~lock_wait_timeout_us:1000.3 ());
  time (fun () -> Config.v ~lock_wait_timeout_us:Float.nan ());
  time (fun () -> Config.v ~lock_wait_timeout_us:Float.infinity ());
  rejects ~field:"bulk_io_max_bytes" (fun () -> Config.v ~bulk_io_max_bytes:0 ());
  rejects ~field:"cache_blocks" (fun () -> Config.v ~cache_blocks:0 ());
  rejects ~field:"vsbb_buffer_bytes" (fun () ->
      Config.v ~vsbb_buffer_bytes:(-1) ());
  rejects ~field:"audit_buffer_bytes" (fun () ->
      Config.v ~audit_buffer_bytes:0 ());
  rejects ~field:"dp_records_per_request" (fun () ->
      Config.v ~dp_records_per_request:0 ());
  rejects ~field:"dp_ticks_per_request" (fun () ->
      Config.v ~dp_ticks_per_request:0 ())

let config_accepts_defaults () =
  Alcotest.(check bool) "v () is default" true (Config.v () = Config.default);
  let d = Config.default in
  let c =
    Config.v ~bulk_io_max_bytes:d.Config.bulk_io_max_bytes
      ~cache_blocks:d.Config.cache_blocks
      ~vsbb_buffer_bytes:d.Config.vsbb_buffer_bytes
      ~audit_buffer_bytes:d.Config.audit_buffer_bytes
      ~dp_records_per_request:d.Config.dp_records_per_request
      ~dp_ticks_per_request:d.Config.dp_ticks_per_request
      ~disk_queue_depth:d.Config.disk_queue_depth
      ~lock_wait_timeout_us:d.Config.lock_wait_timeout_us ()
  in
  Alcotest.(check bool) "defaults pass the checks" true (c = d);
  (* the smallest accepted values *)
  ignore
    (Config.v ~lock_wait_timeout_us:0.25 ~bulk_io_max_bytes:1 ~cache_blocks:1
       ~vsbb_buffer_bytes:1 ~audit_buffer_bytes:1 ~dp_records_per_request:1
       ~dp_ticks_per_request:1 ())

(* exact time tiling in [Moncore] rests on every clock delta being a
   binary-exact multiple of 0.25 us *)
let config_constants_are_quarter_us () =
  List.iter
    (fun (name, us) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s = %g is a multiple of 0.25" name us)
        true
        (us > 0. && Float.is_integer (us *. 4.)))
    [
      ("msg_local_cost_us", Config.msg_local_cost_us);
      ("msg_cpu_cost_us", Config.msg_cpu_cost_us);
      ("msg_node_cost_us", Config.msg_node_cost_us);
      ("msg_per_byte_us", Config.msg_per_byte_us);
      ("disk_seek_us", Config.disk_seek_us);
      ("disk_sequential_us", Config.disk_sequential_us);
      ("disk_per_block_us", Config.disk_per_block_us);
      ("cpu_tick_us", Config.cpu_tick_us);
      ("group_commit_timer_us", Config.group_commit_timer_us);
      ("default lock_wait_timeout_us", Config.default.Config.lock_wait_timeout_us);
    ]

let suite =
  [
    Alcotest.test_case "config rejects bad values" `Quick
      config_rejects_bad_values;
    Alcotest.test_case "config accepts its defaults" `Quick
      config_accepts_defaults;
    Alcotest.test_case "config time constants are quarter-us exact" `Quick
      config_constants_are_quarter_us;
    Alcotest.test_case "heap ordering" `Quick heap_orders;
    QCheck_alcotest.to_alcotest heap_property;
    Alcotest.test_case "clock advances" `Quick clock_advances;
    Alcotest.test_case "events fire in order" `Quick events_fire_in_order;
    Alcotest.test_case "event schedules event" `Quick event_schedules_event;
    Alcotest.test_case "event due at the tick target fires" `Quick
      event_due_at_target_fires;
    Alcotest.test_case "late event fires on the next advance" `Quick
      late_event_fires_next_advance;
    QCheck_alcotest.to_alcotest firing_matches_model;
    Alcotest.test_case "measure diffs stats" `Quick measure_diffs;
    Alcotest.test_case "msg roundtrip and counters" `Quick
      msg_roundtrip_and_counters;
    Alcotest.test_case "msg distance costs" `Quick msg_local_vs_remote_cost;
    Alcotest.test_case "msg trace" `Quick msg_trace;
    Alcotest.test_case "disk roundtrip" `Quick disk_roundtrip;
    Alcotest.test_case "disk bulk I/O counters" `Quick disk_bulk_counts;
    Alcotest.test_case "disk sequential cost" `Quick disk_sequential_cheaper;
    Alcotest.test_case "disk mirrored writes" `Quick disk_mirrored_writes;
    Alcotest.test_case "disk async completion" `Quick disk_async_completion;
  ]
