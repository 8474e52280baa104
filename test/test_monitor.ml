(* Tests of the resource monitor: observation is free (monitoring on
   leaves the clock and every counter bit-identical), the per-category
   time accounting tiles [Sim.now] deltas exactly (float-equal, not
   within epsilon), per-statement decompositions tile each statement's
   elapsed time, gauges return to zero at quiescence, the JSON export is
   byte-identical per seed, and the fixed-bucket histogram's quantiles
   agree with a sorted-array reference while merge stays associative and
   order-independent to the bit. *)

module N = Nsql_core.Nonstop_sql
module Sim = Nsql_sim.Sim
module Stats = Nsql_sim.Stats
module Config = Nsql_sim.Config
module Moncore = Nsql_sim.Moncore
module Hist = Nsql_sim.Hist
module Monitor = Nsql_monitor.Monitor
module Errors = Nsql_util.Errors
module Wisconsin = Nsql_workload.Wisconsin
module Debitcredit = Nsql_workload.Debitcredit

let get_ok = Errors.get_ok

(* the same Wisconsin mini-suite test_trace uses: selections, aggregates,
   a join and DML over a partitioned table, exercising every instrumented
   subsystem (executor, FS fan-out, DP, disk, cache, lock, audit) *)
let query_workload ~monitoring () =
  let config = Config.v ~fs_fanout:true () in
  let node = N.create_node ~config ~volumes:4 () in
  let sim = N.sim node in
  if monitoring then Monitor.set_enabled sim true;
  let rows = 200 in
  get_ok ~ctx:"wisc" (Wisconsin.create node ~name:"t" ~rows ~partitions:4 ());
  get_ok ~ctx:"wisc2" (Wisconsin.create node ~name:"t2" ~rows ());
  let s = N.session node in
  List.iter
    (fun q -> ignore (N.exec_exn s q.Wisconsin.q_sql))
    (Wisconsin.selection_queries ~table:"t" ~rows
    @ Wisconsin.agg_and_join_queries ~table:"t" ~table2:"t2" ~rows);
  ignore (N.exec_exn s "UPDATE t SET two = 1 WHERE unique2 < 20");
  ignore (N.exec_exn s "DELETE FROM t WHERE unique2 >= 190");
  (node, sim)

(* contended debit/credit with DP lock-wait queues: feeds the transfer
   and lock_wait histograms and swings every gauge *)
let transfer_workload ~monitoring () =
  let config =
    Config.v ~dp_lock_wait:true ~lock_wait_timeout_us:150_000. ()
  in
  let node = N.create_node ~config ~volumes:2 () in
  let db =
    get_ok ~ctx:"transfer setup" (Debitcredit.setup_transfer node ~accounts:4)
  in
  let sim = N.sim node in
  if monitoring then Monitor.set_enabled sim true;
  let rep =
    Debitcredit.run_transfers db ~terminals:4 ~txs_per_terminal:10 ()
  in
  Alcotest.(check int) "no failed transfers" 0 rep.Debitcredit.x_failed;
  Alcotest.(check int) "all transfers committed" 40
    rep.Debitcredit.x_committed;
  (node, sim)

(* the monitor reads the clock and snapshots counters but never charges,
   ticks, waits or sends — enabling it must be invisible to the run *)
let zero_perturbation () =
  List.iter
    (fun (what, workload) ->
      let node_off, sim_off = workload ~monitoring:false () in
      let node_on, sim_on = workload ~monitoring:true () in
      Alcotest.(check (list (pair string int)))
        (what ^ ": monitoring leaves every counter identical")
        (Stats.to_assoc (N.snapshot node_off))
        (Stats.to_assoc (N.snapshot node_on));
      Alcotest.(check (float 0.))
        (what ^ ": monitoring leaves the clock identical")
        (Sim.now sim_off) (Sim.now sim_on))
    [ ("queries", query_workload); ("transfers", transfer_workload) ]

(* category totals and per-slice totals both tile the clock delta
   exactly: every advance is charged to exactly one category and
   apportioned across slice boundaries without loss, and every config
   time constant is a binary-exact multiple of 0.25 us, so the float
   sums are exact *)
let tiling_exact () =
  let _node, sim = transfer_workload ~monitoring:true () in
  let mc = Sim.moncore sim in
  let delta = Sim.now sim -. Moncore.start_now mc in
  let total = Array.fold_left ( +. ) 0. (Moncore.cat_snapshot mc) in
  Alcotest.(check (float 0.)) "categories tile the clock delta exactly"
    delta total;
  let all_slices = Moncore.slices mc @ [ Moncore.current_slice mc ] in
  let slice_total =
    List.fold_left
      (fun acc sl -> acc +. Array.fold_left ( +. ) 0. sl.Moncore.sl_cats)
      0. all_slices
  in
  Alcotest.(check (float 0.)) "slices tile the clock delta exactly" delta
    slice_total;
  (* sampler coverage: one closed slice per whole slice width elapsed,
     starts advancing by exactly the slice width *)
  let w = Moncore.slice_us mc in
  Alcotest.(check int) "one closed slice per elapsed slice width"
    (int_of_float (delta /. w))
    (List.length (Moncore.slices mc));
  ignore
    (List.fold_left
       (fun prev sl ->
         (match prev with
         | Some p ->
             Alcotest.(check (float 0.)) "slice starts advance by the width"
               w
               (sl.Moncore.sl_start -. p)
         | None -> ());
         Some sl.Moncore.sl_start)
       None all_slices)

(* each recorded statement's category deltas sum to its elapsed time,
   float-exactly, and its elapsed time reached the "stmt" histogram *)
let stmt_tiling_exact () =
  let _node, sim = query_workload ~monitoring:true () in
  let mc = Sim.moncore sim in
  let stmts = Moncore.stmts mc in
  Alcotest.(check bool) "statements were recorded" true
    (List.length stmts > 10);
  List.iter
    (fun st ->
      Alcotest.(check (float 0.))
        (st.Moncore.st_name ^ " categories tile its elapsed time exactly")
        st.Moncore.st_elapsed
        (Array.fold_left ( +. ) 0. st.Moncore.st_cats))
    stmts;
  match Moncore.hist mc "stmt" with
  | None -> Alcotest.fail "no stmt histogram"
  | Some h ->
      Alcotest.(check int) "one stmt histogram entry per statement"
        (List.length stmts) (Hist.count h)

(* all in-flight work has completed by the time the report runs, so the
   occupancy gauges must be back at zero — a bulk-adjustment bug at any
   park/grant/clear/restore site shows up here *)
let gauges_quiesce () =
  let _node, sim = transfer_workload ~monitoring:true () in
  let mc = Sim.moncore sim in
  List.iter
    (fun (name, g) ->
      Alcotest.(check int) (name ^ " gauge returns to zero") 0
        (Moncore.gauge_value mc g))
    [
      ("outstanding", Moncore.G_outstanding);
      ("parked", Moncore.G_parked);
      ("locks", Moncore.G_locks);
    ];
  (* the contended run exercised both latency feeds *)
  (match Moncore.hist mc "transfer" with
  | None -> Alcotest.fail "no transfer histogram"
  | Some h ->
      Alcotest.(check int) "one transfer observation per commit" 40
        (Hist.count h));
  Alcotest.(check bool) "lock waits were observed" true
    (match Moncore.hist mc "lock_wait" with
    | Some h -> not (Hist.is_empty h)
    | None -> false)

(* the export is a pure function of the (deterministic) run *)
let export_deterministic () =
  let render () =
    let _node, sim = transfer_workload ~monitoring:true () in
    (Monitor.json sim, Monitor.chrome_counters (Sim.moncore sim))
  in
  let j1, c1 = render () in
  let j2, c2 = render () in
  Alcotest.(check string) "byte-identical monitor export" j1 j2;
  Alcotest.(check (list string)) "byte-identical chrome counters" c1 c2;
  Alcotest.(check bool) "json world-array shape" true
    (String.length j1 > 2 && j1.[0] = '[');
  Alcotest.(check bool) "counter events carry ph:C" true
    (c1 <> []
    && List.for_all
         (fun ev ->
           let has needle hay =
             let n = String.length needle and h = String.length hay in
             let rec go i =
               i + n <= h
               && (String.equal (String.sub hay i n) needle || go (i + 1))
             in
             go 0
           in
           has "\"ph\":\"C\"" ev)
         c1)

(* an event handler fired during a wait charges under its own category;
   the wait then carries on under its category, so the advance splits
   exactly between the two *)
let handler_charges_own_category () =
  let sim = Sim.create () in
  Monitor.set_enabled sim true;
  let mc = Sim.moncore sim in
  let t0 = Sim.now sim in
  Sim.schedule sim ~at:(t0 +. 50.) (fun () ->
      Sim.charge sim ~cat:Moncore.C_disk 30.);
  Sim.wait_until sim ~cat:Moncore.C_await (t0 +. 100.);
  let cats = Moncore.cat_snapshot mc in
  let cat c = cats.(Moncore.cat_index c) in
  Alcotest.(check (float 0.)) "clock reached the wait target" (t0 +. 100.)
    (Sim.now sim);
  Alcotest.(check (float 0.)) "await outside the handler" 70.
    (cat Moncore.C_await);
  Alcotest.(check (float 0.)) "disk inside the handler" 30.
    (cat Moncore.C_disk);
  Alcotest.(check (float 0.)) "categories tile the clock" (Sim.now sim -. t0)
    (Array.fold_left ( +. ) 0. cats)

(* a handler that raises out of a wait leaves no category behind: the
   next charge lands in its own category and the totals still tile *)
let raising_handler_keeps_split () =
  let sim = Sim.create () in
  Monitor.set_enabled sim true;
  let mc = Sim.moncore sim in
  let t0 = Sim.now sim in
  Sim.schedule sim ~at:(t0 +. 50.) (fun () -> failwith "handler");
  (match Sim.wait_until sim ~cat:Moncore.C_await (t0 +. 100.) with
  | () -> Alcotest.fail "the handler's exception was lost"
  | exception Failure _ -> ());
  Sim.charge sim ~cat:Moncore.C_disk 30.;
  let cats = Moncore.cat_snapshot mc in
  let cat c = cats.(Moncore.cat_index c) in
  Alcotest.(check (float 0.)) "await up to the raise" 50.
    (cat Moncore.C_await);
  Alcotest.(check (float 0.)) "the next charge lands in disk" 30.
    (cat Moncore.C_disk);
  Alcotest.(check (float 0.)) "categories tile the clock" (Sim.now sim -. t0)
    (Array.fold_left ( +. ) 0. cats)

(* --- histogram properties (QCheck) --------------------------------------- *)

(* durations spread across the full bucket range: ~2^-7 us to ~2^33 us *)
let duration =
  QCheck.make
    ~print:(fun f -> Printf.sprintf "%.17g" f)
    QCheck.Gen.(
      map2
        (fun e m ->
          (1. +. (float_of_int m /. 1000.)) *. (2. ** float_of_int e) /. 128.)
        (int_bound 40) (int_bound 999))

let durations = QCheck.list_of_size (QCheck.Gen.int_range 1 300) duration

let hist_of l =
  let h = Hist.create () in
  List.iter (Hist.record h) l;
  h

(* the estimator returns the upper edge of the bucket holding the true
   rank-⌈q·n⌉ order statistic (clamped to the max), so estimate and
   truth always share a bucket *)
let quantile_vs_reference =
  QCheck.Test.make
    ~name:"histogram quantiles land in the true order statistic's bucket"
    ~count:200 durations
    (fun l ->
      l = []
      ||
      let arr = Array.of_list (List.sort compare l) in
      let n = Array.length arr in
      let h = hist_of l in
      List.for_all
        (fun q ->
          let rank = max 1 (int_of_float (ceil (q *. float_of_int n))) in
          let truth = arr.(min (n - 1) (rank - 1)) in
          let est = Hist.quantile h q in
          Hist.bucket_of est = Hist.bucket_of truth
          && est <= Hist.max_value h
          && truth <= est)
        [ 0.25; 0.5; 0.9; 0.95; 0.99; 1.0 ])

let hists_equal a b =
  Hist.count a = Hist.count b
  && Hist.min_value a = Hist.min_value b
  && Hist.max_value a = Hist.max_value b
  && Hist.nonzero a = Hist.nonzero b
  && List.for_all
       (fun q -> Hist.quantile a q = Hist.quantile b q)
       [ 0.5; 0.95; 0.99 ]

(* only int bucket counts and exact min/max are stored — no float sum —
   so merging worlds' histograms in any grouping or order, or recording
   the concatenated stream into one histogram, is bit-identical *)
let merge_associative =
  QCheck.Test.make
    ~name:"histogram merge is associative and order-independent" ~count:200
    (QCheck.triple durations durations durations)
    (fun (la, lb, lc) ->
      let a = hist_of la and b = hist_of lb and c = hist_of lc in
      let m1 = Hist.merge a (Hist.merge b c) in
      let m2 = Hist.merge (Hist.merge c a) b in
      let whole = hist_of (la @ lb @ lc) in
      hists_equal m1 m2 && hists_equal m1 whole)

(* the category split of the golden scenarios, captured at the commit
   before [Sim]'s clock calls took their category as an argument *)
let golden_cats =
  List.map2
    (fun (name, run) expected ->
      Alcotest.test_case ("golden category split: " ^ name) `Quick (fun () ->
          Alcotest.(check string)
            (name ^ ": per-category totals reproduced")
            expected (run ())))
    Golden.cat_scenarios
    [
      Golden.golden_cats_queries;
      Golden.golden_cats_transfers;
      Golden.golden_cats_cold_scans;
      Golden.golden_cats_lock_timeout;
    ]

let suite =
  [
    Alcotest.test_case "monitoring is observation-free" `Quick
      zero_perturbation;
    Alcotest.test_case "categories and slices tile the clock exactly" `Quick
      tiling_exact;
    Alcotest.test_case "statement decompositions tile elapsed time" `Quick
      stmt_tiling_exact;
    Alcotest.test_case "gauges return to zero at quiescence" `Quick
      gauges_quiesce;
    Alcotest.test_case "exports are byte-identical per seed" `Quick
      export_deterministic;
    Alcotest.test_case "an event handler charges under its own category"
      `Quick handler_charges_own_category;
    Alcotest.test_case "a raising handler leaves the split intact" `Quick
      raising_handler_keeps_split;
    QCheck_alcotest.to_alcotest quantile_vs_reference;
    QCheck_alcotest.to_alcotest merge_associative;
  ]
  @ golden_cats
