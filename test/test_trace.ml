(* Tests of the deterministic span tracer: observation is free (tracing on
   leaves the clock and every counter bit-identical), exports are
   byte-identical per seed, nesting stays well-formed under chaos faults,
   and the profile's per-operator / per-leg counters tile the statement's
   global Stats.diff exactly. Plus Stats.pp completeness: every field of
   Stats.t must reach to_assoc (and so pp), and the [Trace.span] bracket. *)

module N = Nsql_core.Nonstop_sql
module Sim = Nsql_sim.Sim
module Stats = Nsql_sim.Stats
module Config = Nsql_sim.Config
module Tracer = Nsql_sim.Tracer
module Moncore = Nsql_sim.Moncore
module Trace = Nsql_trace.Trace
module Errors = Nsql_util.Errors
module Wisconsin = Nsql_workload.Wisconsin
module Chaos = Nsql_chaos.Chaos

let get_ok = Errors.get_ok

(* A Wisconsin mini-suite over a partitioned table: selections, aggregates
   (client-side and pushed down), a join, and DML — together they exercise
   every instrumented subsystem (executor, FS fan-out, DP, disk, cache,
   lock, audit). *)
let workload ~tracing () =
  let config = Config.v ~fs_fanout:true () in
  let node = N.create_node ~config ~volumes:4 () in
  let sim = N.sim node in
  if tracing then Trace.set_enabled sim true;
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

(* spans read the clock and snapshot counters but never charge or tick *)
let zero_perturbation () =
  let node_off, sim_off = workload ~tracing:false () in
  let node_on, sim_on = workload ~tracing:true () in
  Alcotest.(check (list (pair string int)))
    "tracing leaves every counter identical"
    (Stats.to_assoc (N.snapshot node_off))
    (Stats.to_assoc (N.snapshot node_on));
  Alcotest.(check (float 0.)) "tracing leaves the clock identical"
    (Sim.now sim_off) (Sim.now sim_on)

(* one traced partitioned VSBB scan, used by the determinism and
   attribution tests *)
let traced_scan () =
  let config = Config.v ~fs_fanout:true () in
  let node = N.create_node ~config ~volumes:4 () in
  get_ok ~ctx:"wisc"
    (Wisconsin.create node ~name:"t" ~rows:200 ~partitions:4 ());
  let s = N.session node in
  let sim = N.sim node in
  Trace.set_enabled sim true;
  ignore (N.exec_exn s "SELECT unique1, unique2 FROM t");
  Trace.set_enabled sim false;
  Trace.take sim

let export_deterministic () =
  let j1 = Trace.chrome_json [ traced_scan () ] in
  let j2 = Trace.chrome_json [ traced_scan () ] in
  Alcotest.(check string) "byte-identical chrome export" j1 j2;
  Alcotest.(check bool) "chrome trace-event shape" true
    (String.length j1 > 16
    && String.equal (String.sub j1 0 15) "{\"traceEvents\":")

let counters : (string * (Stats.t -> int)) list =
  [
    ("msgs_sent", fun s -> s.Stats.msgs_sent);
    ("msg_req_bytes", fun s -> s.Stats.msg_req_bytes);
    ("msg_reply_bytes", fun s -> s.Stats.msg_reply_bytes);
    ("redrives", fun s -> s.Stats.redrives);
    ("cache_hits", fun s -> s.Stats.cache_hits);
    ("records_read", fun s -> s.Stats.records_read);
  ]

(* the profile must account for everything: operator spans tile the
   statement span, partition legs tile the fan-out scan span — for every
   counter a SELECT can generate *)
let exact_attribution () =
  let spans = traced_scan () in
  let by_cat c = List.filter (fun sp -> String.equal sp.Tracer.sp_cat c) spans in
  let the what = function
    | [ sp ] -> sp
    | l -> Alcotest.failf "expected one %s span, got %d" what (List.length l)
  in
  let stmt = the "stmt" (by_cat "stmt") in
  let scan = the "fs" (by_cat "fs") in
  let ops = by_cat "op" in
  let legs = by_cat "fs.leg" in
  Alcotest.(check int) "one leg per partition" 4 (List.length legs);
  List.iter
    (fun (name, get) ->
      let sum l =
        List.fold_left (fun a sp -> a + get sp.Tracer.sp_stats) 0 l
      in
      Alcotest.(check int)
        (name ^ ": operator spans tile the statement")
        (get stmt.Tracer.sp_stats) (sum ops);
      Alcotest.(check int)
        (name ^ ": partition legs tile the scan")
        (get scan.Tracer.sp_stats) (sum legs))
    counters

(* --- nesting well-formedness under chaos faults -------------------------- *)

let span_nesting_holds spans =
  let tbl = Hashtbl.create 256 in
  List.iter (fun sp -> Hashtbl.replace tbl sp.Tracer.sp_id sp) spans;
  List.for_all
    (fun sp ->
      (not sp.Tracer.sp_open)
      && sp.Tracer.sp_start <= sp.Tracer.sp_end
      &&
      match sp.Tracer.sp_parent with
      | None -> true
      | Some pid -> (
          match Hashtbl.find_opt tbl pid with
          | None -> true (* parent rotated out of the ring *)
          | Some p ->
              p.Tracer.sp_start <= sp.Tracer.sp_start
              && sp.Tracer.sp_end <= p.Tracer.sp_end))
    spans

(* chaos injects crashes, takeovers, message-path retries and transient
   disk faults; every span must still close and stay inside its parent's
   extent *)
let chaos_nesting =
  QCheck.Test.make ~name:"span nesting is well-formed under chaos faults"
    ~count:8
    QCheck.(int_bound 1000)
    (fun seed ->
      let worlds = ref [] in
      Tracer.creation_hook :=
        Some
          (fun tr ->
            Tracer.set_enabled tr true;
            worlds := tr :: !worlds);
      let report =
        Fun.protect
          ~finally:(fun () -> Tracer.creation_hook := None)
          (fun () -> Chaos.run ~txs:15 ~seed ())
      in
      (* tracing must not have perturbed the run into a violation *)
      if report.Chaos.r_violations <> [] then
        QCheck.Test.fail_report "chaos oracle violation under tracing"
      else
        List.for_all (fun tr -> span_nesting_holds (Tracer.take tr)) !worlds)

(* --- Stats.pp completeness ------------------------------------------------ *)

(* count the record's fields by side effect through map2, then require
   to_assoc (and so pp, which renders every non-zero to_assoc entry) to
   cover each one — adding a Stats field without exporting it fails here *)
let stats_pp_complete () =
  let z = Stats.create () in
  let nfields = ref 0 in
  let ones =
    Stats.map2
      (fun _ _ ->
        incr nfields;
        1)
      z z
  in
  Alcotest.(check int) "to_assoc covers every Stats.t field" !nfields
    (List.length (Stats.to_assoc ones));
  let rendered = Format.asprintf "%a" Stats.pp ones in
  let contains needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i =
      i + n <= h && (String.equal (String.sub hay i n) needle || go (i + 1))
    in
    go 0
  in
  List.iter
    (fun (name, v) ->
      Alcotest.(check int) (name ^ " rendered with value one") 1 v;
      Alcotest.(check bool) (name ^ " appears in Stats.pp") true
        (contains name rendered))
    (Stats.to_assoc ones)

(* the lexical span bracket: with tracing off the body runs without a
   handle and the attributes are never built; with it on they come first,
   a late [add_attr] lands after them, and a raise still finishes the span
   at the instant it escaped *)
let span_bracket () =
  let sim = Sim.create () in
  let built = ref 0 in
  let attrs () =
    incr built;
    [ ("k", Trace.Int 1) ]
  in
  Alcotest.(check bool) "off: the body gets no handle" true
    (Trace.span sim ~attrs "off" (fun h -> h = None));
  Alcotest.(check int) "off: attributes never built" 0 !built;
  Trace.set_enabled sim true;
  (match
     Trace.span sim ~cat:"t" ~attrs "on" (fun h ->
         Trace.add_attr h "late" (Trace.Bool true);
         Sim.charge sim ~cat:Moncore.C_other 10.;
         failwith "body")
   with
  | () -> Alcotest.fail "the body's exception was lost"
  | exception Failure _ -> ());
  Alcotest.(check int) "on: attributes built once" 1 !built;
  match Trace.take sim with
  | [ sp ] ->
      Alcotest.(check (list string)) "attributes, then the late one"
        [ "k"; "late" ]
        (List.map fst sp.Tracer.sp_attrs);
      Alcotest.(check bool) "finished on the raise" false sp.Tracer.sp_open;
      Alcotest.(check (float 0.)) "ends where the raise escaped" 10.
        (sp.Tracer.sp_end -. sp.Tracer.sp_start)
  | spans -> Alcotest.failf "expected one span, got %d" (List.length spans)

(* a profile line ends with its span's counters, and a span with none
   (E19's [emit], E22's [group]) ends at its duration, with no trailing
   blank *)
let profile_lines () =
  let sim = Sim.create () in
  Trace.set_enabled sim true;
  let op name ~msgs us =
    Trace.span sim ~cat:"op" ~attrs:(fun () -> []) name (fun _ ->
        let s = Sim.stats sim in
        s.Stats.msgs_sent <- s.Stats.msgs_sent + msgs;
        Sim.charge sim ~cat:Moncore.C_other us)
  in
  op "emit" ~msgs:0 2.5;
  op "scan" ~msgs:2 1.;
  let text =
    Format.asprintf "%a" (fun ppf l -> Trace.pp_profile ppf l) (Trace.take sim)
  in
  Alcotest.(check (list string)) "one line per span"
    [
      "emit                                                2.5 us";
      "scan                                                1.0 us  msgs=2";
    ]
    (List.filter (fun l -> l <> "") (String.split_on_char '\n' text))

let suite =
  [
    Alcotest.test_case "tracing is observation-free" `Quick zero_perturbation;
    Alcotest.test_case "chrome export is byte-identical per seed" `Quick
      export_deterministic;
    Alcotest.test_case "operator and leg counters tile the statement" `Quick
      exact_attribution;
    QCheck_alcotest.to_alcotest chaos_nesting;
    Alcotest.test_case "Stats.pp renders every field" `Quick stats_pp_complete;
    Alcotest.test_case "the span bracket finishes on every exit" `Quick
      span_bracket;
    Alcotest.test_case "a profile line ends at its last counter" `Quick
      profile_lines;
  ]
