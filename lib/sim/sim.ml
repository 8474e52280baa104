type capture = { cap_base : float; mutable cap_accum : float }

type t = {
  config : Config.t;
  stats : Stats.t;
  tracer : Tracer.t;
  moncore : Moncore.t;
  mutable now : float;
  events : (unit -> unit) Nsql_util.Heap.t;
  mutable firing : bool;
  mutable capture : capture option;
}

let create ?(config = Config.default) () =
  let tracer = Tracer.create () in
  (match !Tracer.creation_hook with None -> () | Some f -> f tracer);
  let moncore = Moncore.create () in
  let stats = Stats.create () in
  (* cumulative counters the sampler snapshots at each slice close; the
     order matches [Moncore.probe_names] *)
  Moncore.set_probe moncore (fun () ->
      [|
        stats.Stats.msgs_sent;
        stats.Stats.disk_reads;
        stats.Stats.disk_writes;
        stats.Stats.checkpoint_bytes;
        stats.Stats.lock_waits;
      |]);
  (match !Moncore.creation_hook with None -> () | Some f -> f moncore);
  {
    config;
    stats;
    tracer;
    moncore;
    now = 0.;
    events = Nsql_util.Heap.create ();
    firing = false;
    capture = None;
  }

let config t = t.config
let stats t = t.stats
let tracer t = t.tracer
let moncore t = t.moncore

let now t =
  match t.capture with
  | None -> t.now
  | Some c -> c.cap_base +. c.cap_accum

(* Events may schedule further events while firing; the loop re-examines the
   heap top each round. [firing] guards against re-entrant firing when an
   event handler itself advances the clock. *)
let fire_due t =
  if not t.firing then begin
    t.firing <- true;
    let rec loop () =
      match Nsql_util.Heap.min_prio t.events with
      | Some due when due <= t.now -> (
          match Nsql_util.Heap.pop_min t.events with
          | Some (_, f) ->
              f ();
              loop ()
          | None -> ())
      | Some _ | None -> ()
    in
    Fun.protect ~finally:(fun () -> t.firing <- false) loop
  end

(* the clock moves forward to [when_]; this assignment is the only place
   [t.now] moves, so reporting it to the monitor here makes the
   per-category clock attribution exhaustive by construction *)
let move_to t ~cat when_ =
  if when_ > t.now then begin
    Moncore.clock_advance t.moncore ~cat ~from_:t.now ~to_:when_;
    t.now <- when_
  end

(* step through intermediate event times so each event sees a clock that
   has just reached its due time. Every step is charged to [cat]: a
   handler that moves the clock names its own category, and the advance
   then carries on under [cat]. When no event is due by the target, the
   clock just moves: [fire_due] would find nothing to fire, so skipping
   it is exact, and this path allocates nothing. *)
let rec advance_to t ~cat when_ =
  let target = if when_ > t.now then when_ else t.now in
  if Nsql_util.Heap.none_due_by t.events target then move_to t ~cat when_
  else
    match Nsql_util.Heap.min_prio t.events with
    | Some due when due <= when_ && due > t.now ->
        move_to t ~cat due;
        fire_due t;
        advance_to t ~cat when_
    | _ ->
        move_to t ~cat when_;
        fire_due t

let charge t ~cat us =
  if us > 0. then
    match t.capture with
    | None -> advance_to t ~cat (t.now +. us)
    | Some c -> c.cap_accum <- c.cap_accum +. us

let tick t n =
  if n > 0 then begin
    t.stats.Stats.cpu_ticks <- t.stats.Stats.cpu_ticks + n;
    charge t ~cat:Moncore.C_compute
      (float_of_int n *. Config.cpu_tick_us)
  end

let wait_until t ~cat when_ =
  match t.capture with
  | None -> if when_ > t.now then advance_to t ~cat when_
  | Some c ->
      if when_ -. c.cap_base > c.cap_accum then
        c.cap_accum <- when_ -. c.cap_base

(* Run [f] with the real clock frozen: every [charge] and [wait_until]
   accumulates virtual elapsed time instead of advancing [t.now], while
   counters ([tick], stats) and persistent resource state (disk busy
   windows, cache stamps) mutate exactly as in a blocking run. Events
   scheduled during the capture keep their virtual due times and fire
   once the real clock later advances past them. Captures nest: an inner
   capture bases itself on the outer one's virtual clock. *)
let capture t f =
  let saved = t.capture in
  let c = { cap_base = now t; cap_accum = 0. } in
  t.capture <- Some c;
  let result = Fun.protect ~finally:(fun () -> t.capture <- saved) f in
  (result, c.cap_accum)

let schedule t ~at f =
  Nsql_util.Heap.push t.events ~prio:(max at t.now) f

let flush_events t = fire_due t

let next_event t = Nsql_util.Heap.min_prio t.events

let in_capture t = t.capture <> None

let rec drain t =
  match Nsql_util.Heap.min_prio t.events with
  | None -> ()
  | Some due ->
      advance_to t ~cat:Moncore.C_await (max due t.now);
      drain t

let snapshot t = Stats.copy t.stats

let measure t f =
  let before = snapshot t in
  let result = f () in
  let after_ = snapshot t in
  (result, Stats.diff ~before ~after:after_)
