module Sim = Nsql_sim.Sim
module Moncore = Nsql_sim.Moncore
module Hist = Nsql_sim.Hist

(* Observation must never perturb the simulation: everything below reads
   [Sim.now] and the moncore storage but never calls [charge]/[tick]/
   [wait_until]/[schedule] or sends a message — the MON-PURE lint rule
   and test/test_monitor.ml hold this library to that. *)

let set_enabled sim on =
  Moncore.set_enabled (Sim.moncore sim) ~now:(Sim.now sim) on

let clear sim = Moncore.clear (Sim.moncore sim) ~now:(Sim.now sim)
let set_slice_us sim us = Moncore.set_slice_us (Sim.moncore sim) us

(* --- rendering ------------------------------------------------------------ *)

let pp_us ppf us =
  if us < 1_000. then Format.fprintf ppf "%.1fus" us
  else if us < 1_000_000. then Format.fprintf ppf "%.2fms" (us /. 1_000.)
  else Format.fprintf ppf "%.3fs" (us /. 1_000_000.)

let spark_levels = [| "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83";
                     "\xe2\x96\x84"; "\xe2\x96\x85"; "\xe2\x96\x86";
                     "\xe2\x96\x87"; "\xe2\x96\x88" |]

(* the non-empty bucket range of [h], compressed into at most [width]
   columns, each column scaled to eight block heights by its count *)
let sparkline ?(width = 32) h =
  match Hist.nonzero h with
  | [] -> ""
  | nz ->
      let lo = fst (List.hd nz) in
      let hi = List.fold_left (fun acc (i, _) -> max acc i) lo nz in
      let nb = hi - lo + 1 in
      let cols = min width nb in
      let counts = Array.make cols 0 in
      List.iter
        (fun (i, c) ->
          let col = (i - lo) * cols / nb in
          counts.(col) <- counts.(col) + c)
        nz;
      let top = Array.fold_left max 1 counts in
      let buf = Buffer.create (3 * cols) in
      Array.iter
        (fun c ->
          if c = 0 then Buffer.add_char buf ' '
          else
            let lvl = min 7 (c * 8 / top) in
            Buffer.add_string buf spark_levels.(lvl))
        counts;
      Buffer.contents buf

let us_str us = Format.asprintf "%a" pp_us us

let pp_hist_line ppf (name, h) =
  Format.fprintf ppf "  %-10s n=%-6d p50=%-9s p95=%-9s p99=%-9s max=%-9s %s"
    name (Hist.count h)
    (us_str (Hist.quantile h 0.5))
    (us_str (Hist.quantile h 0.95))
    (us_str (Hist.quantile h 0.99))
    (us_str (Hist.max_value h))
    (sparkline h)

let pp_report ppf sim =
  let mc = Sim.moncore sim in
  if not (Moncore.enabled mc) then
    Format.fprintf ppf "monitor: disabled@."
  else begin
    let now = Sim.now sim in
    let start = Moncore.start_now mc in
    let elapsed = now -. start in
    let cats = Moncore.cat_snapshot mc in
    let total = Array.fold_left ( +. ) 0. cats in
    let slices = Moncore.slices mc in
    Format.fprintf ppf "monitor: %a simulated, slice %a, %d closed slices@."
      pp_us elapsed pp_us (Moncore.slice_us mc)
      (List.length slices);
    Format.fprintf ppf "where time goes:@.";
    Array.iteri
      (fun i name ->
        if cats.(i) > 0. then
          Format.fprintf ppf "  %-10s %14.1f us  %5.1f%%@." name cats.(i)
            (if elapsed > 0. then 100. *. cats.(i) /. elapsed else 0.))
      Moncore.cat_names;
    Format.fprintf ppf "  %-10s %14.1f us  (clock delta %.1f us)@." "total"
      total elapsed;
    let busy = Moncore.busy_snapshot mc in
    Format.fprintf ppf "busy:";
    Array.iteri
      (fun i name ->
        Format.fprintf ppf " %s %.1f%%" name
          (if elapsed > 0. then 100. *. busy.(i) /. elapsed else 0.))
      Moncore.res_names;
    let gauges = Moncore.gauge_snapshot mc in
    Format.fprintf ppf "@.gauges:";
    Array.iteri
      (fun i name -> Format.fprintf ppf " %s=%d" name gauges.(i))
      Moncore.gauge_names;
    Format.fprintf ppf "@.";
    (match Moncore.hists mc with
    | [] -> ()
    | hs ->
        Format.fprintf ppf "latency histograms:@.";
        List.iter (fun nh -> Format.fprintf ppf "%a@." pp_hist_line nh) hs);
    (* statements aggregated by name, heaviest first *)
    let stmts = Moncore.stmts mc in
    if stmts <> [] then begin
      let agg = Hashtbl.create 16 in
      List.iter
        (fun (s : Moncore.stmt) ->
          let n, us =
            match Hashtbl.find_opt agg s.st_name with
            | Some (n, us) -> (n, us)
            | None -> (0, 0.)
          in
          Hashtbl.replace agg s.st_name (n + 1, us +. s.st_elapsed))
        stmts;
      let rows =
        Nsql_util.Tbl.sorted_bindings agg
        |> List.sort (fun (a, (_, ua)) (b, (_, ub)) ->
               match compare ub ua with 0 -> compare a b | c -> c)
      in
      Format.fprintf ppf "statements (by total time):@.";
      List.iter
        (fun (name, (n, us)) ->
          Format.fprintf ppf "  %-10s x%-5d %a@." name n pp_us us)
        rows
    end;
    if Moncore.dropped_slices mc > 0 || Moncore.dropped_stmts mc > 0 then
      Format.fprintf ppf "dropped: %d slices, %d statements@."
        (Moncore.dropped_slices mc)
        (Moncore.dropped_stmts mc)
  end

(* --- JSON export ----------------------------------------------------------

   Byte-identical for a given seed: fixed [%.3f] for every microsecond
   value, histogram buckets as (index, count) pairs, slices in order. *)

let add_f buf f = Buffer.add_string buf (Printf.sprintf "%.3f" f)

let add_named_floats buf names values =
  Buffer.add_char buf '{';
  Array.iteri
    (fun i name ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "\"%s\":" name);
      add_f buf values.(i))
    names;
  Buffer.add_char buf '}'

let add_named_ints buf names values =
  Buffer.add_char buf '{';
  Array.iteri
    (fun i name ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "\"%s\":%d" name values.(i)))
    names;
  Buffer.add_char buf '}'

let add_hist buf h =
  Buffer.add_string buf
    (Printf.sprintf "{\"n\":%d,\"min\":%.3f,\"max\":%.3f,\"p50\":%.3f,\"p95\":%.3f,\"p99\":%.3f,\"buckets\":["
       (Hist.count h) (Hist.min_value h) (Hist.max_value h)
       (Hist.quantile h 0.5) (Hist.quantile h 0.95) (Hist.quantile h 0.99));
  List.iteri
    (fun i (b, c) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "[%d,%d]" b c))
    (Hist.nonzero h);
  Buffer.add_string buf "]}"

let add_slice buf (sl : Moncore.slice) =
  Buffer.add_string buf (Printf.sprintf "{\"t\":%.3f,\"cats\":" sl.sl_start);
  add_named_floats buf Moncore.cat_names sl.sl_cats;
  Buffer.add_string buf ",\"busy\":";
  add_named_floats buf Moncore.res_names sl.sl_busy;
  Buffer.add_string buf ",\"gauges\":";
  add_named_ints buf Moncore.gauge_names sl.sl_gauges;
  Buffer.add_string buf ",\"stats\":";
  add_named_ints buf Moncore.probe_names sl.sl_stats;
  Buffer.add_char buf '}'

let add_world buf mc =
  Buffer.add_string buf
    (Printf.sprintf "{\"start\":%.3f,\"now\":%.3f,\"slice_us\":%.3f"
       (Moncore.start_now mc) (Moncore.last_now mc) (Moncore.slice_us mc));
  Buffer.add_string buf ",\"cats\":";
  add_named_floats buf Moncore.cat_names (Moncore.cat_snapshot mc);
  Buffer.add_string buf ",\"busy\":";
  add_named_floats buf Moncore.res_names (Moncore.busy_snapshot mc);
  Buffer.add_string buf ",\"hists\":{";
  List.iteri
    (fun i (name, h) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "\"%s\":" name);
      add_hist buf h)
    (Moncore.hists mc);
  Buffer.add_string buf "},\"slices\":[";
  List.iteri
    (fun i sl ->
      if i > 0 then Buffer.add_string buf ",\n";
      add_slice buf sl)
    (Moncore.slices mc);
  Buffer.add_string buf
    (Printf.sprintf "],\"dropped_slices\":%d,\"dropped_stmts\":%d}"
       (Moncore.dropped_slices mc)
       (Moncore.dropped_stmts mc))

let json_of_moncores mcs =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "[";
  List.iteri
    (fun i mc ->
      if i > 0 then Buffer.add_string buf ",\n";
      add_world buf mc)
    mcs;
  Buffer.add_string buf "]\n";
  Buffer.contents buf

let json sim = json_of_moncores [ Sim.moncore sim ]

(* --- Chrome counter events ------------------------------------------------

   One "ph":"C" event per closed slice per track, timestamped at the
   slice close, rendered with the same fixed [%.3f] as the span export.
   Merged into [Trace.chrome_json ~counters] they draw queue depth,
   parked waiters, and busy time as tracks under the spans. *)

let chrome_counters ?(pid = 0) mc =
  let slice_us = Moncore.slice_us mc in
  List.concat_map
    (fun (sl : Moncore.slice) ->
      let ts = sl.sl_start +. slice_us in
      let ev name add_args =
        let buf = Buffer.create 128 in
        Buffer.add_string buf
          (Printf.sprintf "{\"name\":\"%s\",\"cat\":\"monitor\",\"ph\":\"C\",\"ts\":%.3f,\"pid\":%d,\"tid\":0,\"args\":"
             name ts pid);
        add_args buf;
        Buffer.add_char buf '}';
        Buffer.contents buf
      in
      [
        ev "mon.gauges" (fun buf ->
            add_named_ints buf Moncore.gauge_names sl.sl_gauges);
        ev "mon.busy_us" (fun buf ->
            add_named_floats buf Moncore.res_names sl.sl_busy);
      ])
    (Moncore.slices mc)
