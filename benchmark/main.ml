(* The repository benchmark. See README.md in this directory.

     main.exe --workload W --seed N --seconds S --trace 0|1 [--spans DIR]
         one workload in this process; the last line of output is the
         result as JSON
     main.exe --seed N [--seconds S] [--traced] [--spans DIR] [--out FILE]
         every workload, each in a fresh child process, one after another
     main.exe --compare A.json B.json
         regressions, improvements and unresolved metrics between two sets
     main.exe --smoke [BENCHMARK.json]
         every workload at 1/100 size with all output checks *)

module N = Nsql_core.Nonstop_sql
module Sim = Nsql_sim.Sim
module Stats = Nsql_sim.Stats
module Moncore = Nsql_sim.Moncore
module Tracer = Nsql_sim.Tracer
module Trace = Nsql_trace.Trace
module Monitor = Nsql_monitor.Monitor
module W = Workloads
module M = Metrics

type mode = Plain | Traced | Spans

type round = {
  setup_s : float;
  loop : W.loop;
  delta : Stats.t;  (** counters over the timed loop *)
  end_state : float * (string * int) list;  (** Sim.now and Stats after the loop *)
  alloc_words : float;
  heap_mb : float;
  problems : string list;
  dp : Layers.dp_timer option;
  split : (string * float) list;
  probes : (string * float) list;
  exports : (string * string) list;  (** file suffix, contents *)
}

let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* One round: a fresh node, set up and warmed up (timed as setup_s), then
   the timed loop and the output checks. [Traced] turns the monitor on
   through its creation hook and wraps the DP endpoints; [Spans] turns
   on the monitor and the span tracer. A traced round given
   [probe_block_ns] also runs the probes on its inputs. *)
let run_round ?probe_block_ns (w : W.t) ~seed ~scale mode =
  Gc.compact ();
  let mons = ref [] and tracers = ref [] in
  if mode <> Plain then
    Moncore.creation_hook :=
      Some
        (fun mc ->
          Moncore.set_enabled mc ~now:0. true;
          mons := mc :: !mons);
  if mode = Spans then
    Tracer.creation_hook :=
      Some
        (fun tr ->
          Tracer.set_enabled tr true;
          tracers := tr :: !tracers);
  let h0 = W.now_ns () in
  let r =
    Fun.protect
      ~finally:(fun () ->
        Moncore.creation_hook := None;
        Tracer.creation_hook := None)
      (fun () -> w.prepare ~seed scale)
  in
  let setup_s = float_of_int (W.now_ns () - h0) /. 1e9 in
  let dp = if mode = Traced then Some (Layers.wrap_dps r.node) else None in
  Gc.full_major ();
  let sim = N.sim r.node in
  let mc = Sim.moncore sim in
  let st0 = N.snapshot r.node and cats0 = Moncore.cat_snapshot mc in
  let a0 = alloc_words () in
  Option.iter (fun (t : Layers.dp_timer) -> t.ns <- 0; t.capture <- true) dp;
  let loop = r.run () in
  Option.iter (fun (t : Layers.dp_timer) -> t.capture <- false) dp;
  let a1 = alloc_words () in
  let st1 = N.snapshot r.node and cats1 = Moncore.cat_snapshot mc in
  let end_state = (Sim.now sim, Stats.to_assoc st1) in
  let problems = match r.check () with Ok () -> [] | Error e -> [ w.name ^ ": " ^ e ] in
  let problems =
    if mode <> Plain && not (Layers.tiles ~before:cats0 ~after:cats1 ~sim_us:loop.sim_us) then
      (w.name ^ ": monitor categories do not sum to the clock delta") :: problems
    else problems
  in
  let probes =
    match (dp, probe_block_ns) with
    | Some t, Some block_ns -> Layers.probes ~block_ns ~seed (r.corpus ()) t
    | _ -> []
  in
  let exports =
    if mode = Spans then
      [
        ("trace.json", Trace.chrome_json (List.rev_map Tracer.take !tracers));
        ("monitor.json", Monitor.json_of_moncores (List.rev !mons));
      ]
    else []
  in
  {
    setup_s;
    loop;
    delta = Stats.diff ~before:st0 ~after:st1;
    end_state;
    alloc_words = a1 -. a0;
    heap_mb = float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1e6;
    problems;
    dp;
    split = (if mode = Plain then [] else Layers.split ~before:cats0 ~after:cats1 ~sim_us:loop.sim_us);
    probes;
    exports;
  }

let e2e_values r =
  let l = r.loop in
  let ops = float_of_int l.ops in
  let ph = M.sorted l.lat_host and ps = M.sorted l.lat_sim in
  let d = r.delta in
  [
    ("setup_s", r.setup_s);
    ("host_ops_per_s", ops /. (l.host_ns /. 1e9));
    ("host_p50_us", M.percentile ph 0.50 /. 1e3);
    ("host_p99_us", M.percentile ph 0.99 /. 1e3);
    ("peak_heap_mb", r.heap_mb);
    ("sim_ops_per_s", ops /. (l.sim_us /. 1e6));
    ("sim_p50_ms", M.percentile ps 0.50 /. 1e3);
    ("sim_p95_ms", M.percentile ps 0.95 /. 1e3);
    ("sim_p99_ms", M.percentile ps 0.99 /. 1e3);
    ("msgs_per_op", float_of_int d.msgs_sent /. ops);
    ("disk_ios_per_op", float_of_int (d.disk_reads + d.disk_writes) /. ops);
  ]

(* per-layer values of one (untraced, traced) pair of rounds *)
let layer_values ~(plain : round) ~(traced : round) =
  let l = traced.loop in
  let ops = float_of_int l.ops in
  let dp_ns = match traced.dp with Some t -> float_of_int t.ns | None -> 0. in
  [
    ("dp.host_share_pct", 100. *. dp_ns /. l.host_ns);
    ("requester.host_us_per_op", (l.host_ns -. dp_ns) /. ops /. 1e3);
    ("gc.alloc_words_per_op", plain.alloc_words /. float_of_int plain.loop.ops);
    ("obs.monitor_overhead_pct", 100. *. ((l.host_ns /. plain.loop.host_ns) -. 1.));
  ]
  @ Layers.counts traced.delta ~ops:l.ops ~committed:l.committed ~retries:l.retries
  @ traced.split

let same_state what (a : round) (b : round) =
  if a.end_state = b.end_state then []
  else [ what ^ ": simulated clock or counters differ" ]

(* --- one workload in this process --------------------------------------------- *)

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  samples : (string * float list) list;  (** metric, one value per round *)
  problems : string list;
  rounds : int;
}

let collect rows =
  (* rows: one (name, value) list per round, all with the same names *)
  match rows with
  | [] -> []
  | first :: _ ->
      List.map (fun (name, _) -> (name, List.map (List.assoc name) rows)) first

(* [repeat ~min ~seconds f] runs [f ()] at least [min] times, and then
   again while another one, taking as long as the last, still ends within
   [seconds] of wall-clock time from the first. Host speed on a shared
   machine drifts, so a run spreads its rounds over a fixed span of time,
   set-up included, rather than doing a fixed amount of work; it then
   lasts about [seconds] on a fast machine and a slow one alike. *)
let repeat ~min ~seconds f =
  let t0 = Unix.gettimeofday () in
  let rec go acc n last =
    if n >= min && Unix.gettimeofday () -. t0 +. last > seconds then List.rev acc
    else
      let t = Unix.gettimeofday () in
      let r = f () in
      go (r :: acc) (n + 1) (Unix.gettimeofday () -. t)
  in
  go [] 0 0.

let untraced (w : W.t) ~seed ~seconds =
  let rounds = repeat ~min:3 ~seconds (fun () -> run_round w ~seed ~scale:W.full Plain) in
  let first = List.hd rounds in
  (* the heap peak is one reading for the whole run, taken at its end *)
  let heap = (List.hd (List.rev rounds)).heap_mb in
  let problems =
    List.concat_map (fun (r : round) -> r.problems) rounds
    @ List.concat
        (List.mapi
           (fun i r -> same_state (Printf.sprintf "round %d against round 1" (i + 1)) first r)
           rounds)
  in
  let samples = collect (List.map e2e_values rounds) in
  (rounds, problems, ("peak_heap_mb", [ heap ]) :: List.remove_assoc "peak_heap_mb" samples)

let traced (w : W.t) ~seed ~seconds ~spans =
  let first = ref true in
  let pairs =
    repeat ~min:1 ~seconds:(seconds /. 2.) (fun () ->
        let p = run_round w ~seed ~scale:W.full Plain in
        let probe_block_ns = if !first then Some 20_000_000 else None in
        first := false;
        (p, run_round ?probe_block_ns w ~seed ~scale:W.full Traced))
  in
  let tenth = { W.data = 1.; ops = 0.1 } in
  let p10 = run_round w ~seed ~scale:tenth Plain in
  let s10 = run_round w ~seed ~scale:tenth Spans in
  Option.iter
    (fun dir ->
      List.iter
        (fun (suffix, contents) ->
          let oc = open_out_bin (Filename.concat dir (w.name ^ "." ^ suffix)) in
          output_string oc contents;
          close_out oc)
        s10.exports)
    spans;
  let problems =
    List.concat_map
      (fun ((p : round), (t : round)) ->
        p.problems @ t.problems @ same_state "traced pass against the untraced pass" p t)
      pairs
    @ s10.problems @ p10.problems
    @ same_state "span pass against the untraced pass" p10 s10
  in
  let span_pct = 100. *. ((s10.loop.host_ns /. p10.loop.host_ns) -. 1.) in
  let probes = (snd (List.hd pairs)).probes in
  let rows =
    List.map
      (fun (plain, traced) ->
        layer_values ~plain ~traced @ [ ("obs.span_overhead_pct", span_pct) ] @ probes)
      pairs
  in
  let rounds = List.concat_map (fun (p, t) -> [ p; t ]) pairs @ [ p10; s10 ] in
  (rounds, problems, collect rows)

let run_one (w : W.t) ~seed ~seconds ~trace ~spans =
  let rounds, problems, samples =
    if trace then traced w ~seed ~seconds ~spans else untraced w ~seed ~seconds
  in
  let attempted = List.fold_left (fun a (r : round) -> a + r.loop.ops) 0 rounds in
  let failed = List.fold_left (fun a (r : round) -> a + r.loop.failed) 0 rounds in
  let order =
    if trace then List.map (fun (m : M.layer) -> m.lname) M.per_layer
    else List.map (fun (m : M.e2e) -> m.name) M.e2e
  in
  {
    correct = problems = [] && failed = 0;
    attempted;
    failed;
    samples = List.map (fun name -> (name, List.assoc name samples)) order;
    problems;
    rounds = List.length rounds;
  }

let finite v = if Float.is_finite v then v else 0.

let result_json o =
  Json.Obj
    [
      ("correct", Json.Bool o.correct);
      ("attempted", Json.Num (float_of_int o.attempted));
      ("failed", Json.Num (float_of_int o.failed));
      ( "metrics",
        Json.Obj
          (List.map
             (fun (name, vs) ->
               ( name,
                 Json.Obj
                   [ ("value", Json.Num (finite (M.median vs))); ("unit", Json.Str (M.unit_of name)) ] ))
             o.samples) );
    ]

(* the result line plus what --compare needs: quartiles over rounds *)
let detail_json (w : W.t) ~seed ~trace o =
  Json.Obj
    [
      ("workload", Json.Str w.name);
      ("seed", Json.Num (float_of_int seed));
      ("trace", Json.Bool trace);
      ("rounds", Json.Num (float_of_int o.rounds));
      ("problems", Json.Arr (List.map (fun p -> Json.Str p) o.problems));
      ( "metrics",
        Json.Obj
          (List.map
             (fun (name, vs) ->
               let q1, med, q3 = M.quartiles vs in
               ( name,
                 Json.Obj
                   [
                     ("value", Json.Num (finite med));
                     ("unit", Json.Str (M.unit_of name));
                     ("q1", Json.Num (finite q1));
                     ("q3", Json.Num (finite q3));
                     ("samples", Json.Arr (List.map (fun v -> Json.Num (finite v)) vs));
                   ] ))
             o.samples) );
    ]

let print_metrics name samples =
  List.iter
    (fun (m, vs) ->
      let q1, med, q3 = M.quartiles vs in
      let target =
        match List.find_opt (fun (l : M.layer) -> l.lname = m) M.per_layer with
        | Some l -> Printf.sprintf "  %s -> %s" l.layer l.moves
        | None -> ""
      in
      Printf.printf "%-13s %-26s %14.4f %-7s [q1 %.4f, q3 %.4f, %d rounds]%s\n" name m med
        (M.unit_of m) q1 q3 (List.length vs) target)
    samples

let workload_main (w : W.t) ~seed ~seconds ~trace ~spans =
  Printf.printf "%s: %s\n%!" w.name w.why;
  let o = run_one w ~seed ~seconds ~trace ~spans in
  print_metrics w.name o.samples;
  List.iter (fun p -> Printf.printf "CHECK FAILED: %s\n" p) o.problems;
  print_endline (Json.to_string (detail_json w ~seed ~trace o));
  print_endline (Json.to_string (result_json o));
  exit (if o.correct then 0 else 1)

(* --- every workload, each in a child process ------------------------------------ *)

let read_all fd =
  let ic = Unix.in_channel_of_descr fd in
  let rec go acc =
    match input_line ic with
    | line ->
        print_endline line;
        go (line :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let run_child args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
      Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let lines = read_all rd in
  let _, status = Unix.waitpid [] pid in
  (lines, status = Unix.WEXITED 0)

let set_main ~seed ~seconds ~trace ~spans ~out =
  let ok = ref true in
  let results =
    List.map
      (fun (w : W.t) ->
        let args =
          [ "--workload"; w.name; "--seed"; string_of_int seed; "--seconds";
            Printf.sprintf "%g" seconds; "--trace"; (if trace then "1" else "0") ]
          @ match spans with Some d -> [ "--spans"; d ] | None -> []
        in
        let lines, exited_ok = run_child args in
        if not exited_ok then ok := false;
        match List.rev lines with
        | result :: detail :: _ -> (
            match (Json.of_string detail, Json.of_string result) with
            | Json.Obj d, Json.Obj r ->
                (w.name, Json.Obj (List.filter (fun (k, _) -> k <> "metrics") r @ d))
            | _ | (exception Json.Parse_error _) ->
                ok := false;
                (w.name, Json.Null))
        | _ ->
            ok := false;
            (w.name, Json.Null))
      W.all
  in
  let set =
    Json.Obj
      [
        ("seed", Json.Num (float_of_int seed));
        ("trace", Json.Bool trace);
        ("seconds", Json.Num seconds);
        ("nproc", Json.Num (float_of_int (Domain.recommended_domain_count ())));
        ("ocaml", Json.Str Sys.ocaml_version);
        ("workloads", Json.Obj results);
      ]
  in
  Option.iter (fun path -> Json.write_file path set) out;
  exit (if !ok then 0 else 1)

(* --- compare ------------------------------------------------------------------------ *)

(* one workload's metric in a result set: median and quartiles over rounds *)
type side = { q1 : float; med : float; q3 : float; samples : float list }

let side set wname metric =
  let m = Json.(member metric (member "metrics" (member wname (member "workloads" set)))) in
  match Json.member "value" m with
  | Json.Num med when med <> 0. ->
      Some
        {
          q1 = Json.to_num (Json.member "q1" m);
          med;
          q3 = Json.to_num (Json.member "q3" m);
          samples = List.map Json.to_num (Json.to_list (Json.member "samples" m));
        }
  | _ -> None

type verdict = Regression | Improvement | Unresolved | Within

let verdict_label = function
  | Regression -> "REGRESSION"
  | Improvement -> "improvement"
  | Unresolved -> "unresolved"
  | Within -> "within bound"

(* [worse] is how far B's median is worse than A's, as a share of A's.
   Where either side spreads wider than the bound the change is
   unresolved, unless every round of B beats every round of A. *)
let verdict (m : M.e2e) a b =
  let worse =
    match m.better with
    | M.Lower -> (b.med -. a.med) /. a.med
    | M.Higher -> (a.med -. b.med) /. a.med
  in
  let spread s = (s.q3 -. s.q1) /. Float.abs s.med in
  let beats y x = match m.better with M.Lower -> y < x | M.Higher -> y > x in
  let all_better =
    a.samples <> [] && b.samples <> []
    && List.for_all (fun y -> List.for_all (beats y) a.samples) b.samples
  in
  let v =
    if Float.max (spread a) (spread b) > m.bound then if all_better then Improvement else Unresolved
    else if worse > m.bound then Regression
    else if worse < -.m.bound then Improvement
    else Within
  in
  (v, worse)

let compare_main a_path b_path =
  let a = Json.read_file a_path and b = Json.read_file b_path in
  let rows =
    List.concat_map
      (fun (wname, _) ->
        List.filter_map
          (fun (m : M.e2e) ->
            match (side a wname m.name, side b wname m.name) with
            | Some sa, Some sb ->
                let v, worse = verdict m sa sb in
                Some (v, wname, m, sa, sb, worse)
            | _ -> None)
          M.e2e)
      (Json.to_assoc (Json.member "workloads" a))
  in
  let rank (v, _, _, _, _, _) = match v with Regression -> 0 | Improvement -> 1 | Unresolved -> 2 | Within -> 3 in
  let show s unit_ = Printf.sprintf "%.4g [%.4g, %.4g] %s" s.med s.q1 s.q3 unit_ in
  Printf.printf "%-12s %-13s %-16s %-36s %-36s %9s %6s\n" "verdict" "workload" "metric"
    "A median [q1, q3]" "B median [q1, q3]" "worse by" "bound";
  List.iter
    (fun (v, wname, (m : M.e2e), sa, sb, worse) ->
      Printf.printf "%-12s %-13s %-16s %-36s %-36s %8.2f%% %5.0f%%\n" (verdict_label v) wname
        m.name (show sa m.unit_) (show sb m.unit_) (100. *. worse) (100. *. m.bound))
    (List.stable_sort (fun x y -> compare (rank x) (rank y)) rows);
  exit (if List.exists (fun r -> rank r = 0) rows then 1 else 0)

(* --- smoke ---------------------------------------------------------------------------- *)

(* BENCHMARK.json must list exactly the workloads and metrics above *)
let check_manifest path =
  let j = Json.read_file path in
  let e2e_ok =
    List.map
      (fun e ->
        ( Json.to_str (Json.member "name" e),
          Json.to_str (Json.member "unit" e),
          Json.to_str (Json.member "better" e),
          Json.to_num (Json.member "bound" e) ))
      (Json.to_list (Json.member "end_to_end" j))
    = List.map (fun (m : M.e2e) -> (m.name, m.unit_, M.better_string m.better, m.bound)) M.e2e
  in
  let layer_ok =
    List.map
      (fun e ->
        ( Json.to_str (Json.member "name" e),
          Json.to_str (Json.member "unit" e),
          Json.to_str (Json.member "better" e) ))
      (Json.to_list (Json.member "per_layer" j))
    = List.map (fun (m : M.layer) -> (m.lname, m.lunit, M.better_string m.lbetter)) M.per_layer
  in
  let wl_ok =
    List.map (fun e -> (Json.to_str (Json.member "name" e), Json.to_str (Json.member "why" e)))
      (Json.to_list (Json.member "workloads" j))
    = List.map (fun (w : W.t) -> (w.name, w.why)) W.all
  in
  List.filter_map
    (fun (ok, what) -> if ok then None else Some ("BENCHMARK.json: " ^ what ^ " differ from the benchmark"))
    [ (wl_ok, "workloads"); (e2e_ok, "end_to_end metrics"); (layer_ok, "per_layer metrics") ]

let smoke_main manifest =
  let scale = { W.data = 0.01; ops = 0.01 } in
  let problems =
    List.concat_map
      (fun (w : W.t) ->
        let p = run_round w ~seed:1 ~scale Plain in
        let t = run_round ~probe_block_ns:100_000 w ~seed:1 ~scale Traced in
        let s = run_round w ~seed:1 ~scale Spans in
        let v = e2e_values p @ layer_values ~plain:p ~traced:t @ t.probes in
        let bad =
          List.filter_map
            (fun (k, x) -> if Float.is_finite x then None else Some (w.name ^ ": " ^ k ^ " is not finite"))
            v
        in
        Printf.printf "%-13s %d ops, %d failed\n" w.name p.loop.ops p.loop.failed;
        p.problems @ t.problems @ s.problems @ bad
        @ (if p.loop.failed > 0 then [ w.name ^ ": operations failed" ] else [])
        @ same_state (w.name ^ ": traced pass") p t
        @ same_state (w.name ^ ": span pass") p s)
      W.all
    @ match manifest with Some path -> check_manifest path | None -> []
  in
  List.iter (fun p -> Printf.printf "FAILED: %s\n" p) problems;
  exit (if problems = [] then 0 else 1)

(* --- command line ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: main.exe --workload W --seed N --seconds S --trace 0|1 [--spans DIR]\n\
    \       main.exe --seed N [--seconds S] [--traced] [--spans DIR] [--out FILE]\n\
    \       main.exe --compare A.json B.json\n\
    \       main.exe --smoke [BENCHMARK.json]";
  exit 2

let () =
  let workload = ref None and seed = ref None and seconds = ref 10. and trace = ref false in
  let spans = ref None and out = ref None in
  let int_arg s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec parse = function
    | [] -> ()
    | "--compare" :: a :: b :: _ -> compare_main a b
    | "--smoke" :: rest -> smoke_main (match rest with p :: _ -> Some p | [] -> None)
    | "--workload" :: w :: rest ->
        workload := Some w;
        parse rest
    | "--seed" :: n :: rest ->
        seed := Some (int_arg n);
        parse rest
    | "--seconds" :: s :: rest ->
        seconds := (match float_of_string_opt s with Some f when f > 0. -> f | _ -> usage ());
        parse rest
    | "--trace" :: t :: rest ->
        trace := (match t with "0" -> false | "1" -> true | _ -> usage ());
        parse rest
    | "--traced" :: rest ->
        trace := true;
        parse rest
    | "--spans" :: d :: rest ->
        if not (Sys.file_exists d && Sys.is_directory d) then Sys.mkdir d 0o755;
        spans := Some d;
        parse rest
    | "--out" :: f :: rest ->
        out := Some f;
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed = match !seed with Some s -> s | None -> usage () in
  match !workload with
  | Some name -> (
      match W.find name with
      | Some w -> workload_main w ~seed ~seconds:!seconds ~trace:!trace ~spans:!spans
      | None ->
          prerr_endline ("unknown workload " ^ name);
          exit 2)
  | None -> set_main ~seed ~seconds:!seconds ~trace:!trace ~spans:!spans ~out:!out
