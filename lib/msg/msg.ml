module Sim = Nsql_sim.Sim
module Stats = Nsql_sim.Stats
module Config = Nsql_sim.Config
module Moncore = Nsql_sim.Moncore
module Trace = Nsql_trace.Trace
module Errors = Nsql_util.Errors

type processor = { node : int; cpu : int }

let pp_processor ppf p = Format.fprintf ppf "\\%d.%d" p.node p.cpu

type endpoint = {
  name : string;
  mutable processor : processor;
  mutable backup : processor option;
  mutable handler : string -> string;
  (* backup-side consumer of checkpoint payloads; pure bookkeeping — it must
     never touch the simulation clock or counters *)
  mutable ckpt_receiver : (string -> unit) option;
}

type fault_action =
  | Fault_pass
  | Fault_delay of float
  | Fault_path_retry of float

type fault_filter =
  from:processor -> to_name:string -> tag:string -> fault_action

(* A deferred reply: the server parked the request (e.g. on a lock wait
   queue) and will deliver the reply later via [resolve]. [d_route] is the
   requester and the server, whose reply hop [resolve] charges; [None] for
   a local completion, which no message carries. [d_arrived_at] is the
   virtual time the request reached the server — resolution can never
   complete before it. *)
type deferral = {
  d_route : (processor * endpoint) option;
  d_arrived_at : float;
  mutable d_state : [ `Waiting | `Resolved of string * float ];
}

(* Per-call context threaded to the handler so it can [defer] the reply. *)
type call_ctx = {
  cc_from : processor;
  cc_endpoint : endpoint;
  mutable cc_deferral : deferral option;
}

type system = {
  sim : Sim.t;
  endpoints : (string, endpoint) Hashtbl.t;
  mutable fault_filter : fault_filter option;
  mutable current_call : call_ctx option;
}

let create sim =
  {
    sim;
    endpoints = Hashtbl.create 16;
    fault_filter = None;
    current_call = None;
  }

let set_fault_filter t f = t.fault_filter <- f

let sim t = t.sim

let register t ~name ~processor ?backup handler =
  if Hashtbl.mem t.endpoints name then
    invalid_arg (Printf.sprintf "Msg.register: duplicate endpoint %s" name);
  let e = { name; processor; backup; handler; ckpt_receiver = None } in
  Hashtbl.replace t.endpoints name e;
  e

let set_handler e h = e.handler <- h

let endpoint_processor e = e.processor

let distance_cost ~(from : processor) ~(to_ : processor) =
  if from.node <> to_.node then Config.msg_node_cost_us
  else if from.cpu <> to_.cpu then Config.msg_cpu_cost_us
  else Config.msg_local_cost_us

let charge_hop ?(cat = Moncore.C_msg) t ~from ~to_ bytes =
  let cost =
    distance_cost ~from ~to_
    +. (float_of_int bytes *. Config.msg_per_byte_us)
  in
  Sim.charge t.sim ~cat cost

type raw_result = R_ready of string | R_deferred of deferral

let do_send t ~from ~tag e request =
  let stats = Sim.stats t.sim in
  stats.Stats.msgs_sent <- stats.Stats.msgs_sent + 1;
  stats.Stats.msg_req_bytes <- stats.Stats.msg_req_bytes + String.length request;
  if from.cpu <> e.processor.cpu || from.node <> e.processor.node then
    stats.Stats.msgs_remote <- stats.Stats.msgs_remote + 1;
  if from.node <> e.processor.node then
    stats.Stats.msgs_internode <- stats.Stats.msgs_internode + 1;
  (* fault injection: the chaos engine may delay this interaction or fail
     the first path, in which case GUARDIAN transparently resends over the
     alternate path — the requester only sees added latency *)
  (match t.fault_filter with
  | None -> ()
  | Some filter -> (
      match filter ~from ~to_name:e.name ~tag with
      | Fault_pass -> ()
      | Fault_delay d ->
          Sim.charge t.sim ~cat:Moncore.C_msg d
      | Fault_path_retry d ->
          stats.Stats.msg_path_retries <- stats.Stats.msg_path_retries + 1;
          (* the failed attempt still cost a hop before the timeout *)
          charge_hop t ~from ~to_:e.processor (String.length request);
          Sim.charge t.sim ~cat:Moncore.C_msg d));
  charge_hop t ~from ~to_:e.processor (String.length request);
  let ctx = { cc_from = from; cc_endpoint = e; cc_deferral = None } in
  let saved = t.current_call in
  t.current_call <- Some ctx;
  let reply =
    Fun.protect
      ~finally:(fun () -> t.current_call <- saved)
      (fun () -> e.handler request)
  in
  match ctx.cc_deferral with
  | Some d ->
      (* reply withheld: its bytes and hop are charged at [resolve] time *)
      R_deferred d
  | None ->
      stats.Stats.msg_reply_bytes <-
        stats.Stats.msg_reply_bytes + String.length reply;
      charge_hop t ~from:e.processor ~to_:from (String.length reply);
      R_ready reply

(* One span per request/reply interaction, covering both hops and the
   server handler; virtual times when issued under a capture (nowait). A
   deferred interaction's span covers only the request leg — the server
   reports the wait itself (cat-"lock" instants), keeping spans and clock
   charges aligned. *)
let do_send_traced t ~from ~tag e request =
  Trace.span t.sim ~cat:"msg"
    ~attrs:(fun () ->
      [
        ("from", Str (Format.asprintf "%a" pp_processor from));
        ("to", Str e.name);
        ("dest", Str (Format.asprintf "%a" pp_processor e.processor));
        ("req_bytes", Int (String.length request));
        ("remote",
         Bool (from.cpu <> e.processor.cpu || from.node <> e.processor.node));
        ("internode", Bool (from.node <> e.processor.node));
      ])
    tag
    (fun sp ->
      match do_send t ~from ~tag e request with
      | R_ready reply ->
          Trace.add_attr sp "reply_bytes" (Int (String.length reply));
          R_ready reply
      | R_deferred d ->
          Trace.add_attr sp "deferred" (Bool true);
          R_deferred d)

(* --- deferred replies ---------------------------------------------------- *)

let defer t =
  match t.current_call with
  | None -> invalid_arg "Msg.defer: no request/reply interaction in progress"
  | Some ctx -> (
      match ctx.cc_deferral with
      | Some _ -> invalid_arg "Msg.defer: reply already deferred"
      | None ->
          let d =
            {
              d_route = Some (ctx.cc_from, ctx.cc_endpoint);
              d_arrived_at = Sim.now t.sim;
              d_state = `Waiting;
            }
          in
          ctx.cc_deferral <- Some d;
          d)

let resolve t d reply =
  match d.d_state with
  | `Resolved _ -> invalid_arg "Msg.resolve: deferral already resolved"
  | `Waiting ->
      let hop =
        match d.d_route with
        | None -> 0.
        | Some (from, e) ->
            let stats = Sim.stats t.sim in
            stats.Stats.msg_reply_bytes <-
              stats.Stats.msg_reply_bytes + String.length reply;
            (* measure the reply hop without advancing the resolver's
               clock: the hop belongs to the parked requester's timeline *)
            snd
              (Sim.capture t.sim (fun () ->
                   charge_hop t ~from:e.processor ~to_:from
                     (String.length reply)))
      in
      let done_at = max (Sim.now t.sim) d.d_arrived_at +. hop in
      d.d_state <- `Resolved (reply, done_at)

let resolved d = match d.d_state with `Resolved _ -> true | `Waiting -> false

(* Pump the event loop until the deferral resolves: the resolution comes
   from another session's lock release (ordinary control flow reached via
   an awaited completion) or from a scheduled timeout/deadlock event. *)
let pump_until_resolved t d =
  if Sim.in_capture t.sim then
    Errors.fatal
      "Msg: blocking wait on a deferred reply under a clock capture";
  (* a requester parked on a server-side lock queue: its wall time here is
     lock wait, whatever events happen to fire meanwhile; a local
     completion's wait is await *)
  let cat =
    match d.d_route with None -> Moncore.C_await | Some _ -> Moncore.C_lockwait
  in
  let rec loop () =
    match d.d_state with
    | `Resolved (reply, done_at) ->
        Sim.wait_until t.sim ~cat done_at;
        reply
    | `Waiting -> (
        match Sim.next_event t.sim with
        | None ->
            Errors.fatal
              "Msg: deferred reply can never resolve (no pending events)"
        | Some due ->
            if due <= Sim.now t.sim then Sim.flush_events t.sim
            else Sim.wait_until t.sim ~cat due;
            loop ())
  in
  loop ()

let send t ~from ~tag e request =
  match do_send_traced t ~from ~tag e request with
  | R_ready reply -> reply
  | R_deferred d -> pump_until_resolved t d

(* --- nowait (overlapped) requests -------------------------------------- *)

type completion =
  | C_ready of { c_reply : string; c_done_at : float }
  | C_pending of deferral

(* GUARDIAN nowait I/O: issue the interaction under a clock capture so its
   full latency (hops, Disk Process work, disk waits) is measured but not
   yet charged; the completion records when the reply lands. A batch of
   nowait sends issued back-to-back therefore costs the max of the
   individual latencies once awaited — never the sum — while every message,
   byte, CPU-tick and lock counter is identical to the blocking path.
   Handlers still run at issue time, in issue order: server-side state
   changes are deterministic and independent of await order. A parked
   request yields a pending completion whose time is fixed at [resolve]. *)
let send_nowait t ~from ~tag e request =
  let r, elapsed =
    Sim.capture t.sim (fun () -> do_send_traced t ~from ~tag e request)
  in
  Moncore.gauge_add (Sim.moncore t.sim) Moncore.G_outstanding 1;
  match r with
  | R_ready reply -> C_ready { c_reply = reply; c_done_at = Sim.now t.sim +. elapsed }
  | R_deferred d -> C_pending d

let local t =
  Moncore.gauge_add (Sim.moncore t.sim) Moncore.G_outstanding 1;
  let d = { d_route = None; d_arrived_at = Sim.now t.sim; d_state = `Waiting } in
  (d, C_pending d)

let await t c =
  Moncore.gauge_add (Sim.moncore t.sim) Moncore.G_outstanding (-1);
  match c with
  | C_ready { c_reply; c_done_at } ->
      Sim.wait_until t.sim ~cat:Moncore.C_await c_done_at;
      c_reply
  | C_pending d -> pump_until_resolved t d

let done_at = function
  | C_ready { c_done_at; _ } -> Some c_done_at
  | C_pending d -> (
      match d.d_state with
      | `Resolved (_, done_at) -> Some done_at
      | `Waiting -> None)

let await_any t cs =
  if cs = [] then invalid_arg "Msg.await_any: empty completion list";
  if Sim.in_capture t.sim && List.exists (function C_pending d -> not (resolved d) | C_ready _ -> false) cs
  then Errors.fatal "Msg.await_any: pending deferral under a clock capture";
  (* earliest known completion wins; ties break to the lowest list index so
     the choice never depends on anything but the sim clock. While some
     completion is still parked, pump events one at a time — a pending
     request may resolve earlier than the best already-known time. Every
     wait in the loop is await time. *)
  let cat = Moncore.C_await in
  let rec loop () =
    let best = ref None in
    List.iteri
      (fun i c ->
        let known =
          match c with
          | C_ready { c_reply; c_done_at } -> Some (c_done_at, c_reply)
          | C_pending d -> (
              match d.d_state with
              | `Resolved (reply, done_at) -> Some (done_at, reply)
              | `Waiting -> None)
        in
        match (known, !best) with
        | Some (da, reply), None -> best := Some (i, da, reply)
        | Some (da, reply), Some (_, best_da, _) when da < best_da ->
            best := Some (i, da, reply)
        | _ -> ())
      cs;
    let pump_one due =
      if due <= Sim.now t.sim then Sim.flush_events t.sim
      else Sim.wait_until t.sim ~cat due
    in
    match !best with
    | Some (i, da, reply) -> (
        match Sim.next_event t.sim with
        | Some due when due < da ->
            (* an event firing before the best known completion may resolve
               a parked request to an earlier time *)
            pump_one due;
            loop ()
        | Some _ | None ->
            Sim.wait_until t.sim ~cat da;
            (i, reply))
    | None -> (
        match Sim.next_event t.sim with
        | Some due ->
            pump_one due;
            loop ()
        | None ->
            Errors.fatal
              "Msg.await_any: every completion is parked and no events are \
               pending")
  in
  let result = loop () in
  Moncore.gauge_add (Sim.moncore t.sim) Moncore.G_outstanding (-1);
  result

let set_checkpoint_receiver e r = e.ckpt_receiver <- r

let checkpoint t e payload =
  match e.backup with
  | None -> ()
  | Some backup ->
      let bytes_ = String.length payload in
      if Trace.enabled t.sim then
        Trace.instant t.sim ~cat:"msg"
          ~attrs:
            [
              ("from", Str (Format.asprintf "%a" pp_processor e.processor));
              ("to", Str (e.name ^ ":backup"));
              ("dest", Str (Format.asprintf "%a" pp_processor backup));
              ("req_bytes", Int bytes_);
            ]
          "checkpoint";
      let stats = Sim.stats t.sim in
      stats.Stats.checkpoint_msgs <- stats.Stats.checkpoint_msgs + 1;
      stats.Stats.checkpoint_bytes <- stats.Stats.checkpoint_bytes + bytes_;
      (* deliver to the backup half before charging the hop: the charge
         fires due events, and a takeover among them must find the
         checkpoint already applied, as a real primary waits for the
         backup's acknowledgement. Heap-only, so nothing else moves. *)
      (match e.ckpt_receiver with None -> () | Some f -> f payload);
      charge_hop ~cat:Moncore.C_ckpt t ~from:e.processor ~to_:backup bytes_

(* Process-pair takeover: the backup becomes the primary. The old primary
   is gone; a new backup would be re-created elsewhere in the real system
   (not modelled). *)
let takeover_endpoint e =
  match e.backup with
  | None -> false
  | Some backup ->
      e.processor <- backup;
      e.backup <- None;
      true

let endpoint_backup e = e.backup
