(** Deterministic span tracing over the simulated clock.

    A span is a named, categorised interval with key/value attributes and
    the {!Nsql_sim.Stats} delta observed over its extent. Spans nest
    (parent inferred from the innermost open span, or given explicitly),
    are collected in a bounded ring per simulation world, and carry
    deterministic sequential ids — so for a given seed the collected trace,
    its Chrome JSON export, and the `\profile` rendering are byte-identical
    across runs.

    The zero-perturbation rule: tracing reads the clock and snapshots
    counters but never charges time or bumps a counter. Enabling tracing
    must leave [Sim.now] and every [Stats] field of a run bit-identical to
    a run with tracing off; test/test_trace.ml enforces this. When tracing
    is disabled every entry point below costs a single branch.

    A span with lexical extent opens through {!span}, which finishes it
    on every exit. Every other {!begin_span} handle must reach {!finish}
    (the [RES-LEAK] lint rule flags handles that are dropped or never
    finished). *)

type value = Nsql_sim.Tracer.value =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

(** A span handle: [None] when tracing was disabled at begin time, so
    every subsequent operation on it is one branch. *)
type h = Nsql_sim.Tracer.span option

val set_enabled : Nsql_sim.Sim.t -> bool -> unit
val enabled : Nsql_sim.Sim.t -> bool

(** [begin_span sim name] opens a span at the current simulated time with
    a counter snapshot. [parent] overrides stack inference (pass the
    enclosing fan-out span for partition legs); [push:false] keeps the
    span off the parent-inference stack (legs, so siblings don't adopt
    each other); [tid] sets the display track, defaulting to the
    parent's. *)
val begin_span :
  Nsql_sim.Sim.t ->
  ?parent:h ->
  ?push:bool ->
  ?tid:int ->
  ?cat:string ->
  ?attrs:(string * value) list ->
  string ->
  h

(** [finish sim h] closes the span at the current simulated time; unless
    {!add_stats} was used, its counter delta becomes the begin/end window
    diff. Idempotent; [None] is a no-op. *)
val finish : Nsql_sim.Sim.t -> h -> unit

(** [span sim ~attrs name f] runs [f] inside a span with the lexical
    extent of the call: the span begins before [f] runs and finishes when
    [f] returns or raises. [f] receives the handle, for late
    {!add_attr} calls. [attrs] is called only when tracing is on; when it
    is off, [f] gets [None] and the bracket costs one branch. *)
val span :
  Nsql_sim.Sim.t ->
  ?cat:string ->
  attrs:(unit -> (string * value) list) ->
  string ->
  (h -> 'a) ->
  'a

(** Zero-duration event (cache hit, lock wait, SCB reuse). *)
val instant :
  Nsql_sim.Sim.t ->
  ?tid:int ->
  ?cat:string ->
  ?attrs:(string * value) list ->
  string ->
  unit

val add_attr : h -> string -> value -> unit

(** [attribute sim h f] runs [f], adds the counter delta it produced to
    [h] (suppressing the span's begin/end window diff: a partition leg's
    window would absorb the interleaved work of its siblings), and — while [f] runs — lets spans begun inside
    infer [h] as their parent. One branch when [h] is [None]. *)
val attribute : Nsql_sim.Sim.t -> h -> (unit -> 'a) -> 'a

(** Drain the world's collected spans in begin order. *)
val take : Nsql_sim.Sim.t -> Nsql_sim.Tracer.span list

val clear : Nsql_sim.Sim.t -> unit

(** Spans lost to ring wrap-around since the last {!take}. *)
val dropped : Nsql_sim.Sim.t -> int

(** [attr sp k] looks up an attribute on a collected span. *)
val attr : Nsql_sim.Tracer.span -> string -> value option

(** {1 Exports} *)

(** [chrome_json worlds] renders one span list per simulation world (pid =
    list index) as Chrome trace-event JSON — loadable in chrome://tracing
    and Perfetto, byte-identical for a given seed. [?counters] appends
    pre-rendered ["ph":"C"] counter events (see
    [Nsql_monitor.Monitor.chrome_counters]) after the span events. *)
val chrome_json :
  ?counters:string list -> Nsql_sim.Tracer.span list list -> string

(** [pp_profile ppf spans] renders the operator tree with per-span
    simulated µs and counter deltas (messages, bytes, re-drives, cache
    hits, records) — the `\profile` view. *)
val pp_profile :
  ?cats:string list -> Format.formatter -> Nsql_sim.Tracer.span list -> unit

(** The cat-"msg" spans of a collected trace, in send order. *)
val msg_spans : Nsql_sim.Tracer.span list -> Nsql_sim.Tracer.span list

(** One line per message interaction — the `\trace` view. *)
val pp_msg_span : Format.formatter -> Nsql_sim.Tracer.span -> unit
