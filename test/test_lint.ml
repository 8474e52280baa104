(* Per-rule fixtures for nsql-lint: each rule gets a known-bad source
   that must fire and a known-good source that must stay clean, plus
   call-graph/effect-engine unit tests, allowlist behaviour and a
   whole-repo "lib/ lints clean" check — the same invariant CI enforces,
   kept here so `dune runtest` catches a violation before the lint job
   does. *)

module Diag = Nsql_lint_lib.Diag
module Rules = Nsql_lint_lib.Rules
module Source = Nsql_lint_lib.Source
module Allow = Nsql_lint_lib.Allow
module Engine = Nsql_lint_lib.Engine
module Callgraph = Nsql_lint_lib.Callgraph
module Effects = Nsql_lint_lib.Effects

let parse ~path src = Source.parse_string ~path src

let rules_of diags = List.map (fun d -> d.Diag.rule) diags

let check_rules name expected diags =
  Alcotest.(check (list string)) name expected (rules_of diags)

(* build an interprocedural context over a list of (path, source) fixtures *)
let parse_all files = List.map (fun (p, src) -> (p, parse ~path:p src)) files
let ctx_of files = Rules.build_ctx (parse_all files)

(* run RES-LEAK on [target] with the whole fixture cluster as call-graph
   context *)
let res_leak_on files target =
  let parsed = parse_all files in
  let ctx = Rules.build_ctx parsed in
  Rules.res_leak ~path:target ~ctx (List.assoc target parsed)

let res_leak1 ~path src = res_leak_on [ (path, src) ] path

(* --- DET-RANDOM ---------------------------------------------------------- *)

let det_random () =
  let bad = parse ~path:"lib/sql/fixture.ml" "let x () = Random.int 5" in
  check_rules "Random.int fires" [ "DET-RANDOM" ]
    (Rules.det_random ~path:"lib/sql/fixture.ml" bad);
  let qualified =
    parse ~path:"lib/sql/fixture.ml" "let x () = Stdlib.Random.bits ()"
  in
  check_rules "Stdlib.Random fires" [ "DET-RANDOM" ]
    (Rules.det_random ~path:"lib/sql/fixture.ml" qualified);
  (* the simulation layer owns the seeded generator *)
  let sim = parse ~path:"lib/sim/fixture.ml" "let x () = Random.int 5" in
  check_rules "lib/sim is exempt" [] (Rules.det_random ~path:"lib/sim/fixture.ml" sim);
  let good = parse ~path:"lib/sql/fixture.ml" "let x p = Prng.int p 5" in
  check_rules "seeded Prng is clean" []
    (Rules.det_random ~path:"lib/sql/fixture.ml" good)

(* --- SIM-CLOCK ----------------------------------------------------------- *)

let sim_clock () =
  let bad =
    parse ~path:"lib/tmf/fixture.ml" "let now () = Unix.gettimeofday ()"
  in
  check_rules "Unix.gettimeofday fires" [ "SIM-CLOCK" ]
    (Rules.sim_clock ~path:"lib/tmf/fixture.ml" bad);
  let sys = parse ~path:"lib/tmf/fixture.ml" "let now () = Sys.time ()" in
  check_rules "Sys.time fires" [ "SIM-CLOCK" ]
    (Rules.sim_clock ~path:"lib/tmf/fixture.ml" sys);
  let good = parse ~path:"lib/tmf/fixture.ml" "let now sim = Sim.now sim" in
  check_rules "Sim.now is clean" []
    (Rules.sim_clock ~path:"lib/tmf/fixture.ml" good)

(* --- MON-PURE ------------------------------------------------------------ *)

let mon_pure () =
  let bad =
    parse ~path:"lib/monitor/fixture.ml"
      "let f sim = Sim.charge sim 5.0"
  in
  check_rules "Sim.charge in lib/monitor fires" [ "MON-PURE" ]
    (Rules.mon_pure ~path:"lib/monitor/fixture.ml" bad);
  let qualified =
    parse ~path:"lib/sim/moncore.ml"
      "let f sys ep = Nsql_msg.Msg.send sys ~from:ep ~tag:\"t\" ep \"x\""
  in
  check_rules "qualified Msg.send in moncore fires" [ "MON-PURE" ]
    (Rules.mon_pure ~path:"lib/sim/moncore.ml" qualified);
  let sched =
    parse ~path:"lib/sim/hist.ml"
      "let f sim = Sim.schedule sim ~at:1.0 (fun () -> ())"
  in
  check_rules "Sim.schedule in hist fires" [ "MON-PURE" ]
    (Rules.mon_pure ~path:"lib/sim/hist.ml" sched);
  let submit =
    parse ~path:"lib/monitor/fixture.ml"
      "let f d = Disk.complete d (Disk.submit_read d ~first:0 ~count:1)"
  in
  check_rules "disk submission/completion in the monitor fires"
    [ "MON-PURE"; "MON-PURE" ]
    (Rules.mon_pure ~path:"lib/monitor/fixture.ml" submit);
  (* reads are fine: the monitor observes the clock and counters *)
  let good =
    parse ~path:"lib/monitor/fixture.ml"
      "let f sim = (Sim.now sim, Sim.stats sim, Moncore.cat_snapshot \
       (Sim.moncore sim))"
  in
  check_rules "clock/counter reads are clean" []
    (Rules.mon_pure ~path:"lib/monitor/fixture.ml" good);
  (* the same call outside the monitor layer is none of this rule's
     business — CLOCK-CHARGE territory *)
  let elsewhere =
    parse ~path:"lib/dp/fixture.ml" "let f sim = Sim.charge sim 5.0"
  in
  check_rules "charging outside the monitor is exempt" []
    (Rules.mon_pure ~path:"lib/dp/fixture.ml" elsewhere)

(* --- DET-HASHITER -------------------------------------------------------- *)

let det_hashiter () =
  let bad =
    parse ~path:"lib/cache/fixture.ml"
      "let f t = Hashtbl.iter (fun _ v -> print_int v) t"
  in
  check_rules "Hashtbl.iter fires" [ "DET-HASHITER" ]
    (Rules.det_hashiter ~path:"lib/cache/fixture.ml" bad);
  let fold =
    parse ~path:"lib/cache/fixture.ml"
      "let f t = Hashtbl.fold (fun _ v acc -> v + acc) t 0"
  in
  check_rules "Hashtbl.fold fires" [ "DET-HASHITER" ]
    (Rules.det_hashiter ~path:"lib/cache/fixture.ml" fold);
  let good =
    parse ~path:"lib/cache/fixture.ml"
      "let f t = List.iter print_int (List.map snd (Nsql_util.Tbl.sorted_bindings t))\n\
       let g t k = Hashtbl.replace t k 1"
  in
  check_rules "sorted_bindings and point ops are clean" []
    (Rules.det_hashiter ~path:"lib/cache/fixture.ml" good);
  (* the sanctioned wrapper is the one place allowed raw traversal *)
  let wrapper =
    parse ~path:"lib/util/tbl.ml"
      "let sorted_bindings t = Hashtbl.fold (fun k v a -> (k, v) :: a) t []"
  in
  check_rules "lib/util/tbl.ml is exempt" []
    (Rules.det_hashiter ~path:"lib/util/tbl.ml" wrapper)

(* --- ERR-SWALLOW --------------------------------------------------------- *)

let result_index () =
  let index = Rules.Result_index.create () in
  let sg =
    Source.parse_intf_string ~path:"relfile.mli"
      "type t\n\
       val write : t -> slot:int -> (unit, string) result\n\
       val slot_size : t -> int"
  in
  Rules.Result_index.add_signature index ~module_name:"Relfile" sg;
  index

let err_swallow () =
  let index = result_index () in
  let bad =
    parse ~path:"lib/dp/fixture.ml"
      "let f r = ignore (Relfile.write r ~slot:3)"
  in
  check_rules "ignore of result fires" [ "ERR-SWALLOW" ]
    (Rules.err_swallow ~path:"lib/dp/fixture.ml" ~index bad);
  let fw =
    parse ~path:"lib/dp/fixture.ml" "let f () = failwith \"boom\""
  in
  check_rules "bare failwith fires" [ "ERR-SWALLOW" ]
    (Rules.err_swallow ~path:"lib/dp/fixture.ml" ~index fw);
  (* discarding a plain value is fine; so is the same code off-protocol *)
  let good =
    parse ~path:"lib/dp/fixture.ml" "let f r = ignore (Relfile.slot_size r)"
  in
  check_rules "ignore of non-result is clean" []
    (Rules.err_swallow ~path:"lib/dp/fixture.ml" ~index good);
  let off =
    parse ~path:"lib/sort/fixture.ml"
      "let f r = ignore (Relfile.write r ~slot:3)"
  in
  check_rules "non-protocol path is out of scope" []
    (Rules.err_swallow ~path:"lib/sort/fixture.ml" ~index off)

(* --- LOCK-ORDER ---------------------------------------------------------- *)

let lock_order () =
  let bad =
    parse ~path:"lib/dp/fixture.ml"
      "let f t tx =\n\
      \  ignore (Lock.acquire t ~tx ~file:0 (Lock.Record \"k\") Lock.Exclusive);\n\
      \  ignore (Lock.acquire t ~tx ~file:0 Lock.File Lock.Shared)"
  in
  check_rules "record-then-file fires" [ "LOCK-ORDER" ]
    (Rules.lock_order ~path:"lib/dp/fixture.ml" bad);
  let good =
    parse ~path:"lib/dp/fixture.ml"
      "let f t tx =\n\
      \  ignore (Lock.acquire t ~tx ~file:0 Lock.File Lock.Shared);\n\
      \  ignore (Lock.acquire t ~tx ~file:0 (Lock.Generic \"p\") Lock.Shared);\n\
      \  ignore (Lock.acquire t ~tx ~file:0 (Lock.Record \"k\") Lock.Exclusive)"
  in
  check_rules "coarse-to-fine is clean" []
    (Rules.lock_order ~path:"lib/dp/fixture.ml" good);
  let opaque =
    parse ~path:"lib/dp/fixture.ml"
      "let f t tx res = ignore (Lock.acquire t ~tx ~file:0 res Lock.Shared)"
  in
  check_rules "non-literal resource is unprovable" [ "LOCK-ORDER" ]
    (Rules.lock_order ~path:"lib/dp/fixture.ml" opaque);
  (* ordering is per top-level binding, so separate operations don't mix *)
  let split =
    parse ~path:"lib/dp/fixture.ml"
      "let f t tx = ignore (Lock.acquire t ~tx ~file:0 (Lock.Record \"k\") Lock.Shared)\n\
       let g t tx = ignore (Lock.acquire t ~tx ~file:0 Lock.File Lock.Shared)"
  in
  check_rules "separate bindings don't interact" []
    (Rules.lock_order ~path:"lib/dp/fixture.ml" split)

(* --- PROTO-EXHAUST ------------------------------------------------------- *)

let proto_msg =
  "type request = R_ping of int | R_pong\n\
   let tag = function R_ping _ -> \"PING\" | R_pong -> \"PONG\""

let proto_exhaust () =
  let msg = ("lib/dp/dp_msg.ml", parse ~path:"lib/dp/dp_msg.ml" proto_msg) in
  let dispatch_good =
    ( "lib/dp/dp.ml",
      parse ~path:"lib/dp/dp.ml"
        "let dispatch t = function R_ping n -> n + t | R_pong -> t" )
  in
  let requester_good =
    ( "lib/fs/fs.ml",
      parse ~path:"lib/fs/fs.ml"
        "let send () = ignore (R_ping 3); ignore R_pong" )
  in
  check_rules "complete protocol is clean" []
    (Rules.proto_exhaust ~msg ~dispatch:dispatch_good
       ~requesters:[ requester_good ]);
  (* a catch-all hides new constructors and R_pong loses its dispatch *)
  let dispatch_bad =
    ( "lib/dp/dp.ml",
      parse ~path:"lib/dp/dp.ml"
        "let dispatch t = function R_ping n -> n + t | _ -> t" )
  in
  check_rules "catch-all + undispatched constructor fire"
    [ "PROTO-EXHAUST"; "PROTO-EXHAUST" ]
    (Rules.proto_exhaust ~msg ~dispatch:dispatch_bad
       ~requesters:[ requester_good ]);
  (* a constructor nobody sends is dead protocol *)
  let requester_partial =
    ("lib/fs/fs.ml", parse ~path:"lib/fs/fs.ml" "let send () = ignore (R_ping 3)")
  in
  check_rules "requester-less constructor fires" [ "PROTO-EXHAUST" ]
    (Rules.proto_exhaust ~msg ~dispatch:dispatch_good
       ~requesters:[ requester_partial ])

(* --- the call graph ------------------------------------------------------- *)

let callgraph_resolution () =
  let parsed =
    parse_all
      [
        ("lib/core/a.ml", "let h x = x\nlet f x = x + 1");
        ( "lib/core/b.ml",
          "module A = Nsql_core.A\nopen A\nlet f y = y\nlet g y = f (h y)" );
        ("lib/core/c.ml", "module K = Nsql_core.A\nlet use x = K.f x");
        ( "lib/core/d.ml",
          "module Sub = struct let inner x = x end\nlet outer x = Sub.inner x"
        );
      ]
  in
  let g = Callgraph.build parsed in
  (* a unit's own binding shadows the opened unit's same name *)
  Alcotest.(check (option string))
    "own f shadows opened A.f" (Some "B.f")
    (Callgraph.resolve g ~unit_name:"B" [ "f" ]);
  Alcotest.(check (option string))
    "unqualified h falls through to the open" (Some "A.h")
    (Callgraph.resolve g ~unit_name:"B" [ "h" ]);
  Alcotest.(check (list string))
    "edges follow resolution" [ "A.h"; "B.f" ]
    (Callgraph.callees g "B.g");
  (* re-export alias: K.f in c.ml is A.f *)
  Alcotest.(check (list string))
    "alias re-export resolves" [ "A.f" ]
    (Callgraph.callees g "C.use");
  (* nested modules register qualified and resolve from their own unit *)
  Alcotest.(check (list string))
    "same-unit nested module resolves" [ "D.Sub.inner" ]
    (Callgraph.callees g "D.outer")

let callgraph_recursion () =
  let parsed =
    parse_all
      [
        ( "lib/dp/r.ml",
          "let rec even n = if n = 0 then true else odd (n - 1)\n\
           and odd n = if n = 0 then (Sim.tick sim 1; false) else even (n - 1)"
        );
      ]
  in
  let g = Callgraph.build parsed in
  Alcotest.(check (list string))
    "mutual recursion edges" [ "R.odd" ] (Callgraph.callees g "R.even");
  (* the effect fixed point converges through the cycle *)
  let s = Effects.summaries g in
  Alcotest.(check bool) "odd charges locally" true
    (Effects.mem Effects.Charges_clock (Effects.summary s "R.odd"));
  Alcotest.(check bool) "even charges transitively" true
    (Effects.mem Effects.Charges_clock (Effects.summary s "R.even"))

let effects_chain () =
  (* f -> g -> Sim.tick: the summary propagates up a helper chain *)
  let parsed =
    parse_all
      [
        ( "lib/dp/e.ml",
          "let g t = Sim.tick t 1\nlet f t = g t\nlet quiet t = t" );
      ]
  in
  let g = Callgraph.build parsed in
  let s = Effects.summaries g in
  Alcotest.(check bool) "f inherits Charges_clock" true
    (Effects.mem Effects.Charges_clock (Effects.summary s "E.f"));
  Alcotest.(check bool) "unrelated binding stays empty" false
    (Effects.mem Effects.Charges_clock (Effects.summary s "E.quiet"));
  (* Ck_* constructor builds count as checkpoint emission *)
  let parsed2 =
    parse_all
      [ ("lib/dp/e2.ml", "let emit t w = ckpt t [ Ck_unpark { tx = w } ]") ]
  in
  let g2 = Callgraph.build parsed2 in
  let s2 = Effects.summaries g2 in
  Alcotest.(check bool) "Ck_* construct is Emits_ckpt" true
    (Effects.mem Effects.Emits_ckpt (Effects.summary s2 "E2.emit"))

(* --- RES-LEAK ------------------------------------------------------------- *)

(* the per-file shapes the old NOWAIT-LEAK fence covered *)
let res_leak_completion () =
  let path = "lib/fs/fixture.ml" in
  check_rules "ignore of send_nowait fires" [ "RES-LEAK" ]
    (res_leak1 ~path "let f t dp req = ignore (Msg.send_nowait t dp req)");
  check_rules "statement-position send_nowait fires" [ "RES-LEAK" ]
    (res_leak1 ~path "let f t dp req = Msg.send_nowait t dp req; 0");
  check_rules "wildcard binding fires" [ "RES-LEAK" ]
    (res_leak1 ~path "let f t dp req = let _ = Msg.send_nowait t dp req in 0");
  check_rules "unused completion fires" [ "RES-LEAK" ]
    (res_leak1 ~path "let f t dp req = let c = Msg.send_nowait t dp req in 0");
  check_rules "awaited completion is clean" []
    (res_leak1 ~path
       "let f t dp req = let c = Msg.send_nowait t dp req in Msg.await t c");
  (* storing the handle hands responsibility to the holding structure *)
  check_rules "stored handles are clean" []
    (res_leak1 ~path
       "let f t dps reqs = Array.map (fun dp -> Msg.send_nowait t dp reqs) dps\n\
        let g pp t dp req = pp.pp_pending <- Some (Msg.send_nowait t dp req)")

(* the per-file shapes the old SPAN-LEAK fence covered *)
let res_leak_span () =
  let path = "lib/fs/fixture.ml" in
  check_rules "ignore of begin_span fires" [ "RES-LEAK" ]
    (res_leak1 ~path "let f t = ignore (Trace.begin_span t ~cat:\"fs\" \"scan\")");
  check_rules "statement-position begin_span fires" [ "RES-LEAK" ]
    (res_leak1 ~path "let f t = Trace.begin_span t ~cat:\"fs\" \"scan\"; 0");
  check_rules "wildcard span binding fires" [ "RES-LEAK" ]
    (res_leak1 ~path
       "let f t = let _ = Trace.begin_span t ~cat:\"fs\" \"scan\" in 0");
  check_rules "unfinished span fires" [ "RES-LEAK" ]
    (res_leak1 ~path
       "let f t = let sp = Trace.begin_span t ~cat:\"fs\" \"scan\" in 0");
  check_rules "finished span is clean" []
    (res_leak1 ~path
       "let f t = let sp = Trace.begin_span t ~cat:\"fs\" \"scan\" in\n\
        Trace.finish t sp");
  (* the guarded-opener idiom binds a live handle through Some/if *)
  check_rules "conditional span is tracked through Some/if" [ "RES-LEAK" ]
    (res_leak1 ~path
       "let f t =\n\
        \  let sp = if Trace.enabled t then Some (Trace.begin_span t \"s\") \
        else None in\n\
        \  0");
  check_rules "stored span handles are clean" []
    (res_leak1 ~path
       "let f sc t = sc.sc_span <- Trace.begin_span t ~cat:\"fs\" \"scan\"")

(* the PR-10 multi-queue disk handles: a submission that provably never
   reaches [Disk.complete] is a leaked transfer — it was counted and its
   span opened, but its latency is never charged to anyone *)
let res_leak_diskio () =
  let path = "lib/cache/fixture.ml" in
  check_rules "ignored disk submission fires" [ "RES-LEAK" ]
    (res_leak1 ~path
       "let f d = ignore (Disk.submit_read d ~first:0 ~count:7)");
  check_rules "statement-position submission fires" [ "RES-LEAK" ]
    (res_leak1 ~path "let f d buf = Disk.submit_write d ~first:0 buf; 0");
  check_rules "unused io binding fires" [ "RES-LEAK" ]
    (res_leak1 ~path
       "let f d = let io = Disk.submit_read d ~first:0 ~count:7 in 0");
  check_rules "completed io is clean" []
    (res_leak1 ~path
       "let f d = let io = Disk.submit_read d ~first:0 ~count:7 in\n\
        Disk.complete d io");
  (* the read_range pump: pushing the handle into a queue transfers
     ownership to the drain loop *)
  check_rules "queued io handle is clean" []
    (res_leak1 ~path
       "let f d q = Queue.push (0, Disk.submit_read d ~first:0 ~count:7) q")

let res_leak_deferral () =
  let path = "lib/dp/fixture.ml" in
  check_rules "unresolved deferral fires" [ "RES-LEAK" ]
    (res_leak1 ~path "let f t = let d = Msg.defer t in 0");
  check_rules "resolved deferral is clean" []
    (res_leak1 ~path
       "let f t reply = let d = Msg.defer t in Msg.resolve t d reply");
  (* a deferral parked in a waiter record is an ownership transfer *)
  check_rules "parked deferral is clean" []
    (res_leak1 ~path
       "let park t w = let d = Msg.defer t in w.w_deferral <- d")

(* the cross-function blind spot the old per-file fences could not see:
   every use of the handle goes to helpers whose analyzed bodies provably
   never reach the close *)
let res_leak_cross_function () =
  let helper =
    ( "lib/fs/helper.ml",
      "let record t c = ignore (tag t c)\nlet drain t c = Msg.await t c" )
  in
  let leak =
    ( "lib/fs/fixture.ml",
      "module Helper = Nsql_fs.Helper\n\
       let f t dp req =\n\
       \  let c = Msg.send_nowait t dp req in\n\
       \  Helper.record t c" )
  in
  check_rules "handle lost in a non-awaiting helper fires" [ "RES-LEAK" ]
    (res_leak_on [ helper; leak ] "lib/fs/fixture.ml");
  let ok =
    ( "lib/fs/fixture.ml",
      "module Helper = Nsql_fs.Helper\n\
       let f t dp req =\n\
       \  let c = Msg.send_nowait t dp req in\n\
       \  Helper.drain t c" )
  in
  check_rules "handle awaited through a helper is clean" []
    (res_leak_on [ helper; ok ] "lib/fs/fixture.ml");
  (* an unresolvable callee might close: stay quiet *)
  let unknown =
    ( "lib/fs/fixture.ml",
      "let f t dp req = let c = Msg.send_nowait t dp req in mystery t c" )
  in
  check_rules "unknown callee is trusted" []
    (res_leak_on [ unknown ] "lib/fs/fixture.ml")

(* a close reachable only on the fall-through path leaks under a raise *)
let res_leak_trailing_close () =
  let path = "lib/fs/fixture.ml" in
  check_rules "unprotected trailing close fires" [ "RES-LEAK" ]
    (res_leak1 ~path
       "let f t file =\n\
        \  let sc = open_scan t file in\n\
        \  let rec go n = match scan_next t sc with None -> n | Some _ -> go \
        (n + 1) in\n\
        \  let res = go 0 in\n\
        \  close_scan t sc;\n\
        \  res");
  check_rules "Fun.protect close is clean" []
    (res_leak1 ~path
       "let f t file =\n\
        \  let sc = open_scan t file in\n\
        \  let rec go n = match scan_next t sc with None -> n | Some _ -> go \
        (n + 1) in\n\
        \  Fun.protect ~finally:(fun () -> close_scan t sc) (fun () -> go 0)");
  (* nothing risky happens between open and close: no finding *)
  check_rules "immediate close is clean" []
    (res_leak1 ~path
       "let f t file = let sc = open_scan t file in close_scan t sc; 0")

(* index scans are ordinary scan handles: [open_index_scan] returns a
   result, so the handle is bound with [let*], sometimes behind a wrapper
   thunk. The helper fixture resolves [Helper.scan_next] (which never
   closes) and [Helper.release] (which does), so a verdict can rest on
   what the handle's uses provably reach. *)
let res_leak_stream () =
  let path = "lib/fs/fixture.ml" in
  let helper =
    ( "lib/fs/helper.ml",
      "let scan_next t sc = pop t sc\nlet release t sc = close_scan t sc" )
  in
  let check name expected body =
    check_rules name expected
      (res_leak_on
         [ helper; (path, "module Helper = Nsql_fs.Helper\n" ^ body) ]
         path)
  in
  check "trailing index-scan close fires" [ "RES-LEAK" ]
    "let f t file =\n\
     \  let* sc = open_index_scan t file in\n\
     \  let rec go n = match Helper.scan_next t sc with None -> n | Some _ \
     -> go (n + 1) in\n\
     \  let res = go 0 in\n\
     \  close_scan t sc;\n\
     \  res";
  check "never-closed index scan fires" [ "RES-LEAK" ]
    "let f t file =\n\
     \  let* sc = open_index_scan t file in\n\
     \  let rec go n = match Helper.scan_next t sc with None -> n | Some _ \
     -> go (n + 1) in\n\
     \  go 0";
  check "plain let binding is covered too" [ "RES-LEAK" ]
    "let f t file =\n\
     \  let sc = open_index_scan t file in\n\
     \  let rec go n = match Helper.scan_next t sc with None -> n | Some _ \
     -> go (n + 1) in\n\
     \  let res = go 0 in\n\
     \  close_scan t sc;\n\
     \  res";
  check "opener behind a wrapper thunk is still seen" [ "RES-LEAK" ]
    "let f t stp file =\n\
     \  let* sc = stp.stp (fun () -> open_index_scan t file) in\n\
     \  let rec go n = match Helper.scan_next t sc with None -> n | Some _ \
     -> go (n + 1) in\n\
     \  let res = go 0 in\n\
     \  close_scan t sc;\n\
     \  res";
  check "Fun.protect close is clean" []
    "let f t file =\n\
     \  let* sc = open_index_scan t file in\n\
     \  let rec go n = match Helper.scan_next t sc with None -> n | Some _ \
     -> go (n + 1) in\n\
     \  Fun.protect ~finally:(fun () -> close_scan t sc) (fun () -> go 0)";
  check "close through a helper in the finally thunk is clean" []
    "let f t file =\n\
     \  let* sc = open_index_scan t file in\n\
     \  let rec go n = match Helper.scan_next t sc with None -> n | Some _ \
     -> go (n + 1) in\n\
     \  Fun.protect ~finally:(fun () -> Helper.release t sc) (fun () -> go \
     0)"

(* --- the DP wait-queue pattern stays lintable ---------------------------- *)

(* The lock-wait path withholds replies (a deferral parked in a waiter
   record) and the multi-terminal requester keeps one completion per
   terminal until [await_any] resolves it. Both are deliberate ownership
   transfers, not leaks, and the parked dispatch keeps explicit arms — so
   the whole pattern must pass RES-LEAK and PROTO-EXHAUST unchanged. *)
let wait_queue_pattern () =
  check_rules "completion parked in terminal state is clean" []
    (res_leak1 ~path:"lib/workload/fixture.ml"
       "let start t term dp req = term.t_pending <- Some (Msg.send_nowait t \
        dp req)\n\
        let drive t terms =\n\
       \  let cs = List.filter_map (fun term -> term.t_pending) terms in\n\
       \  Msg.await_any t cs");
  let msg = ("lib/dp/dp_msg.ml", parse ~path:"lib/dp/dp_msg.ml" proto_msg) in
  (* the DP either answers now or parks the deferral — every constructor
     still has an explicit arm, and the parking arm is not a catch-all *)
  let parking_dispatch =
    ( "lib/dp/dp.ml",
      parse ~path:"lib/dp/dp.ml"
        "let dispatch t = function\n\
        \  | R_ping n -> (if locked t n then park t n else reply t n); t\n\
        \  | R_pong -> t" )
  in
  let requester_side =
    ( "lib/fs/fs.ml",
      parse ~path:"lib/fs/fs.ml" "let send () = ignore (R_ping 3); ignore R_pong"
    )
  in
  check_rules "parking dispatch is PROTO-EXHAUST clean" []
    (Rules.proto_exhaust ~msg ~dispatch:parking_dispatch
       ~requesters:[ requester_side ])

(* --- CKPT-COMPLETE -------------------------------------------------------- *)

let ckpt_complete () =
  (* clause 1: a dispatch-reachable control mutation whose call subtree
     never emits a checkpoint item *)
  let bad =
    ctx_of
      [
        ( "lib/dp/dpfix.ml",
          "let mutate t scb = Hashtbl.replace t.scbs scb 1\n\
           let dispatch t req = mutate t req\n\
           let handler t payload = dispatch t payload" );
      ]
  in
  check_rules "uncheckpointed control mutation fires" [ "CKPT-COMPLETE" ]
    (Rules.ckpt_complete ~ctx:bad ());
  (* the emit may live anywhere in the mutation's subtree *)
  let good =
    ctx_of
      [
        ( "lib/dp/dpfix.ml",
          "let ckpt_emit t items = Msg.checkpoint t items\n\
           let mutate t scb = Hashtbl.replace t.scbs scb 1; ckpt_emit t []\n\
           let dispatch t req = mutate t req\n\
           let handler t payload = dispatch t payload" );
      ]
  in
  check_rules "transitively checkpointed mutation is clean" []
    (Rules.ckpt_complete ~ctx:good ());
  (* clause 2: a handler reaching heap mutation but no checkpoint emit *)
  let bad2 =
    ctx_of
      [
        ( "lib/dp/dpfix2.ml",
          "let apply t row = Btree.insert t row\n\
           let handler t payload = apply t payload" );
      ]
  in
  check_rules "heap mutation without write intent fires" [ "CKPT-COMPLETE" ]
    (Rules.ckpt_complete ~ctx:bad2 ());
  let good2 =
    ctx_of
      [
        ( "lib/dp/dpfix2.ml",
          "let apply t row = Msg.checkpoint t [ row ]; Btree.insert t row\n\
           let handler t payload = apply t payload" );
      ]
  in
  check_rules "checkpointed heap mutation is clean" []
    (Rules.ckpt_complete ~ctx:good2 ());
  (* takeover/crash entry points rebuild state by design: only functions
     reachable from a handler owe clause 1 *)
  let offline =
    ctx_of
      [
        ( "lib/dp/dpfix3.ml",
          "let takeover t = Hashtbl.reset t.scbs\n\
           let handler t payload = payload" );
      ]
  in
  check_rules "recovery paths are exempt" []
    (Rules.ckpt_complete ~ctx:offline ())

(* --- CLOCK-CHARGE --------------------------------------------------------- *)

let clock_charge () =
  let bad =
    ctx_of
      [
        ( "lib/dp/cfix.ml",
          "let slow t = Disk.read t 0\nlet handler t payload = slow t" );
      ]
  in
  check_rules "free dispatch-path I/O fires" [ "CLOCK-CHARGE" ]
    (Rules.clock_charge ~ctx:bad ~roots:[ "Cfix.handler" ] ());
  let good =
    ctx_of
      [
        ( "lib/dp/cfix.ml",
          "let slow t = let b = Disk.read t 0 in Sim.tick t 1; b\n\
           let handler t payload = slow t" );
      ]
  in
  check_rules "charged I/O is clean" []
    (Rules.clock_charge ~ctx:good ~roots:[ "Cfix.handler" ] ());
  (* only dispatch-reachable functions owe the charge *)
  let offline =
    ctx_of
      [
        ( "lib/dp/cfix.ml",
          "let offline t = Disk.read t 0\nlet handler t payload = payload" );
      ]
  in
  check_rules "unreachable I/O is out of scope" []
    (Rules.clock_charge ~ctx:offline ~roots:[ "Cfix.handler" ] ())

(* --- PARK-SAFE ------------------------------------------------------------ *)

let park_safe () =
  let base parks dispatch_read =
    ctx_of
      [
        ( "lib/dp/pfix.ml",
          Printf.sprintf
            "let park_tx req = match req with %s | R_scan _ -> None\n\
             let dispatch t req = match req with R_read r -> %s | R_scan s \
             -> open_scan t s | R_insert r -> apply t r"
            parks dispatch_read );
      ]
  in
  let ok = base "R_read { tx } -> Some tx | R_insert _ -> None" "read t r" in
  check_rules "whitelist in sync is clean" []
    (Rules.park_safe ~whitelist:[ "R_read" ] ~ctx:ok ());
  (* a new op starts parking without being audited *)
  let drifted =
    base "R_read { tx } -> Some tx | R_insert { tx } -> Some tx" "read t r"
  in
  check_rules "unaudited parking op fires" [ "PARK-SAFE" ]
    (Rules.park_safe ~whitelist:[ "R_read" ] ~ctx:drifted ());
  (* a declared op silently stops parking *)
  let stale = base "R_read { tx } -> Some tx | R_insert _ -> None" "read t r" in
  check_rules "stale whitelist entry fires" [ "PARK-SAFE" ]
    (Rules.park_safe ~whitelist:[ "R_read"; "R_insert" ] ~ctx:stale ());
  (* a parked op whose dispatch arm allocates scan state is re-dispatch
     unsafe even if whitelisted *)
  let scans =
    base "R_read { tx } -> Some tx | R_insert _ -> None" "open_scan t r"
  in
  check_rules "whitelisted arm opening a scan fires" [ "PARK-SAFE" ]
    (Rules.park_safe ~whitelist:[ "R_read" ] ~ctx:scans ())

(* --- DEAD-EXPORT ------------------------------------------------------------ *)

let dead_export () =
  let intf = Source.parse_intf_string ~path:"lib/util/widget.mli" in
  let mli =
    intf
      "val used_in_lib : int -> int\n\
       val unused : int\n\
       val test_only : int\n\
       val via_alias : int\n\
       val self_only : int\n\
       val ( let$ ) : int -> (int -> int) -> int\n\
       val via_local_open : int"
  in
  let widget =
    ( "lib/util/widget.ml",
      parse ~path:"lib/util/widget.ml"
        "let used_in_lib x = x\n\
         let unused = 0\n\
         let test_only = 1\n\
         let via_alias = 2\n\
         let self_only = 3\n\
         let ( let$ ) x f = f x\n\
         let via_local_open = self_only + 4" )
  in
  let lib_user =
    ( "lib/core/gadget.ml",
      parse ~path:"lib/core/gadget.ml"
        "module W = Nsql_util.Widget\n\
         let g = W.via_alias + Nsql_util.Widget.used_in_lib 1\n\
         let h = W.(via_local_open)\n\
         let k = let open Nsql_util.Widget in let$ x = 1 in x" )
  in
  let test_user =
    ( "test/test_widget.ml",
      parse ~path:"test/test_widget.ml" "let t = Widget.test_only" )
  in
  let names diags =
    List.map
      (fun d ->
        match String.index_opt d.Diag.msg ' ' with
        | Some i -> String.sub d.Diag.msg 0 i
        | None -> d.Diag.msg)
      diags
  in
  let run users =
    Rules.dead_export ~mli_sigs:[ ("lib/util/widget.mli", mli) ] ~users
  in
  Alcotest.(check (list string))
    "unused and self-only exports fire; test, alias, local-open and \
     binding-operator users count"
    [ "Widget.unused"; "Widget.self_only" ]
    (names (run [ widget; lib_user; test_user ]));
  Alcotest.(check (list string))
    "without the test tree the test-only export is dead too"
    [ "Widget.unused"; "Widget.test_only"; "Widget.self_only" ]
    (names (run [ widget; lib_user ]));
  check_rules "a finding is a DEAD-EXPORT"
    [ "DEAD-EXPORT"; "DEAD-EXPORT" ]
    (run [ widget; lib_user; test_user ])

(* --- rule filtering -------------------------------------------------------- *)

let rule_filtering () =
  let path = "lib/sql/fixture.ml" in
  let structure =
    parse ~path
      "let x () = Random.int 5\n\
       let f t = Hashtbl.iter (fun _ v -> print_int v) t"
  in
  let ctx = Rules.build_ctx [ (path, structure) ] in
  let index = Rules.Result_index.create () in
  check_rules "all per-file rules run by default"
    [ "DET-RANDOM"; "DET-HASHITER" ]
    (Rules.per_file ~path ~index ~ctx ~enabled:(fun _ -> true) structure);
  check_rules "disabled rules stay silent" [ "DET-RANDOM" ]
    (Rules.per_file ~path ~index ~ctx
       ~enabled:(fun r -> String.equal r "DET-RANDOM")
       structure)

(* --- allowlist ----------------------------------------------------------- *)

let with_allow_file contents f =
  (* cwd during runtest is inside _build, so this stays in the sandbox *)
  let path = "test_lint_allow.sexp" in
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let allowlist () =
  let d =
    Diag.v ~rule:"DET-HASHITER" ~file:"lib/lock/lock.ml" ~line:85 ~col:6
      "unordered traversal"
  in
  with_allow_file
    "((rule DET-HASHITER) (file lib/lock/lock.ml) (line 85) (note \"audited\"))\n\
     ((rule SIM-CLOCK) (file lib/tmf/tmf.ml) (note \"never matches\"))"
    (fun path ->
      match Allow.load path with
      | Error msg -> Alcotest.fail msg
      | Ok entries ->
          let kept, suppressed = Allow.apply entries [ d ] in
          Alcotest.(check int) "finding suppressed" 0 (List.length kept);
          Alcotest.(check int) "suppression counted" 1 suppressed;
          Alcotest.(check (list string)) "unused entry is stale"
            [ "SIM-CLOCK" ]
            (List.map (fun e -> e.Allow.a_rule) (Allow.stale entries)))

let allowlist_line_mismatch () =
  let d =
    Diag.v ~rule:"DET-HASHITER" ~file:"lib/lock/lock.ml" ~line:99 ~col:6 "x"
  in
  with_allow_file
    "((rule DET-HASHITER) (file lib/lock/lock.ml) (line 85) (note \"pinned\"))"
    (fun path ->
      match Allow.load path with
      | Error msg -> Alcotest.fail msg
      | Ok entries ->
          let kept, suppressed = Allow.apply entries [ d ] in
          Alcotest.(check int) "wrong line is not suppressed" 1
            (List.length kept);
          Alcotest.(check int) "nothing counted" 0 suppressed)

(* --- diagnostics format --------------------------------------------------- *)

let diag_format () =
  let d = Diag.v ~rule:"SIM-CLOCK" ~file:"lib/a.ml" ~line:3 ~col:7 "msg" in
  Alcotest.(check string) "grep-able format" "lib/a.ml:3:7 [SIM-CLOCK] msg"
    (Diag.to_string d)

(* --- the repository itself lints clean ------------------------------------ *)

let repo_root () =
  (* runtest executes inside _build; walk up to the checkout, recognised
     by the allowlist file (dune does not copy lint/ into _build) *)
  let rec up dir =
    if Sys.file_exists (Filename.concat dir "lint/allow.sexp") then Some dir
    else
      let parent = Filename.dirname dir in
      if String.equal parent dir then None else up parent
  in
  up (Sys.getcwd ())

let repo_is_clean () =
  match repo_root () with
  | None -> Alcotest.skip ()
  | Some root ->
      let report =
        Engine.run
          ~allow_file:(Some (Filename.concat root "lint/allow.sexp"))
          ~roots:[ Filename.concat root "lib" ]
          ()
      in
      List.iter
        (fun d -> Printf.printf "unsuppressed: %s\n" (Diag.to_string d))
        report.Engine.diags;
      Alcotest.(check int) "no unsuppressed findings in lib/" 0
        (List.length report.Engine.diags);
      Alcotest.(check int) "no stale allow entries" 0
        (List.length report.Engine.stale_allows);
      Alcotest.(check bool) "scanned a plausible number of files" true
        (report.Engine.files_scanned > 20)

(* running a rule subset must not report other rules' entries as stale *)
let repo_rule_subset () =
  match repo_root () with
  | None -> Alcotest.skip ()
  | Some root ->
      let report =
        Engine.run
          ~allow_file:(Some (Filename.concat root "lint/allow.sexp"))
          ~rules:(Some [ "RES-LEAK"; "CKPT-COMPLETE" ])
          ~roots:[ Filename.concat root "lib" ]
          ()
      in
      Alcotest.(check int) "subset run is clean" 0
        (List.length report.Engine.diags);
      Alcotest.(check int) "entries for disabled rules are not stale" 0
        (List.length report.Engine.stale_allows)

let suite =
  [
    Alcotest.test_case "DET-RANDOM fixtures" `Quick det_random;
    Alcotest.test_case "SIM-CLOCK fixtures" `Quick sim_clock;
    Alcotest.test_case "MON-PURE fixtures" `Quick mon_pure;
    Alcotest.test_case "DET-HASHITER fixtures" `Quick det_hashiter;
    Alcotest.test_case "ERR-SWALLOW fixtures" `Quick err_swallow;
    Alcotest.test_case "LOCK-ORDER fixtures" `Quick lock_order;
    Alcotest.test_case "PROTO-EXHAUST fixtures" `Quick proto_exhaust;
    Alcotest.test_case "call graph resolution" `Quick callgraph_resolution;
    Alcotest.test_case "call graph recursion + fixed point" `Quick
      callgraph_recursion;
    Alcotest.test_case "effect summary chains" `Quick effects_chain;
    Alcotest.test_case "RES-LEAK completion fixtures" `Quick
      res_leak_completion;
    Alcotest.test_case "RES-LEAK span fixtures" `Quick res_leak_span;
    Alcotest.test_case "RES-LEAK deferral fixtures" `Quick res_leak_deferral;
    Alcotest.test_case "RES-LEAK disk I/O fixtures" `Quick res_leak_diskio;
    Alcotest.test_case "RES-LEAK cross-function blind spot" `Quick
      res_leak_cross_function;
    Alcotest.test_case "RES-LEAK trailing close" `Quick
      res_leak_trailing_close;
    Alcotest.test_case "RES-LEAK index-scan streams" `Quick res_leak_stream;
    Alcotest.test_case "wait-queue pattern lints clean" `Quick
      wait_queue_pattern;
    Alcotest.test_case "CKPT-COMPLETE fixtures" `Quick ckpt_complete;
    Alcotest.test_case "CLOCK-CHARGE fixtures" `Quick clock_charge;
    Alcotest.test_case "PARK-SAFE fixtures" `Quick park_safe;
    Alcotest.test_case "DEAD-EXPORT fixtures" `Quick dead_export;
    Alcotest.test_case "rule filtering" `Quick rule_filtering;
    Alcotest.test_case "allowlist suppresses and reports stale" `Quick allowlist;
    Alcotest.test_case "allowlist line pinning" `Quick allowlist_line_mismatch;
    Alcotest.test_case "diagnostic format" `Quick diag_format;
    Alcotest.test_case "whole repo lints clean" `Quick repo_is_clean;
    Alcotest.test_case "rule subset keeps allowlist quiet" `Quick
      repo_rule_subset;
  ]
