(** The message system.

    Tandem's GUARDIAN operating system is message-based: requesters (the
    File System running inside application processes) talk to servers (Disk
    Processes) exclusively through request/reply messages, whether the
    server runs on the same processor, another processor of the node, or a
    remote node. The bandwidth asymmetry this creates is the paper's central
    motivation, so this module makes every message — and its payload bytes —
    a counted, costed event.

    A {!send} models one request/reply interaction: the requester blocks
    until the reply arrives. Costs scale with distance (same processor <
    cross-processor < cross-node) and payload size. *)

type processor = { node : int; cpu : int }

type system

type endpoint

val create : Nsql_sim.Sim.t -> system

val sim : system -> Nsql_sim.Sim.t

(** {1 Fault injection}

    GUARDIAN sends every interprocess message over one of two paths and
    transparently resends over the alternate path when the first fails; a
    chaos layer can observe and perturb every send through a filter. *)

type fault_action =
  | Fault_pass  (** deliver normally *)
  | Fault_delay of float  (** extra queueing delay in microseconds *)
  | Fault_path_retry of float
      (** the primary path fails: the request hop is charged twice plus
          this retry delay; delivery still succeeds (alternate path) *)

type fault_filter =
  from:processor -> to_name:string -> tag:string -> fault_action

(** [set_fault_filter sys (Some f)] consults [f] on every {!send};
    [set_fault_filter sys None] removes the filter. *)
val set_fault_filter : system -> fault_filter option -> unit

(** [register sys ~name ~processor ?backup handler] creates a server
    endpoint. [backup] is the hot-standby half of the process pair; when
    given, {!checkpoint} messages to it are charged. The handler receives
    the raw request payload and returns the reply payload. *)
val register :
  system ->
  name:string ->
  processor:processor ->
  ?backup:processor ->
  (string -> string) ->
  endpoint

(** [set_handler e h] replaces the endpoint's handler (used to break the
    construction cycle between a server and its message system). *)
val set_handler : endpoint -> (string -> string) -> unit

val endpoint_processor : endpoint -> processor
val endpoint_backup : endpoint -> processor option

(** [takeover_endpoint e] moves the endpoint to its backup processor (the
    process-pair takeover after a primary failure); returns [false] if no
    backup exists. Checkpointed state makes this transparent to clients. *)
val takeover_endpoint : endpoint -> bool

(** [send sys ~from ~tag endpoint request] performs one request/reply
    interaction and returns the reply payload. Charges message costs and
    counters on the system's simulation world. When tracing is enabled
    (see [Nsql_trace.Trace]) each interaction is one cat-"msg" span with
    kind, endpoint, byte and locality attributes.

    If the server {!defer}s the reply, [send] blocks by pumping the event
    loop — advancing the clock event by event — until another session's
    release path or a timeout event {!resolve}s it. Must not be called on a
    deferring endpoint under a {!Nsql_sim.Sim.capture} (raises
    [Errors.Fatal]: events cannot fire while the clock is frozen). *)
val send : system -> from:processor -> tag:string -> endpoint -> string -> string

(** {1 Deferred replies}

    A server handler may park a request instead of answering it — the Disk
    Process does this for lock waits: the requester stays blocked while
    other sessions run, and the reply is delivered when the lock is granted
    or the wait budget expires. The handler calls [defer] (its returned
    string is then discarded), holds on to the deferral, and later calls
    [resolve] from ordinary control flow or a scheduled event. *)

type deferral

(** [defer sys] parks the current request/reply interaction and returns the
    handle the server must eventually {!resolve}. Only callable from inside
    an endpoint handler, once per interaction. *)
val defer : system -> deferral

(** [resolve sys d reply] delivers the withheld reply: charges the reply
    bytes and hop, and stamps the completion time (never earlier than the
    request's arrival at the server). The resolver's own clock does not
    advance. Resolving twice raises [Invalid_argument]. *)
val resolve : system -> deferral -> string -> unit

(** [resolved d] is true once {!resolve} has delivered the reply. *)
val resolved : deferral -> bool

(** {1 Nowait (overlapped) requests}

    GUARDIAN lets a requester issue an I/O without blocking and collect the
    completion later ("nowait I/O") — the mechanism the real File System
    used to drive several Disk Processes in parallel. [send_nowait] models
    it on the deterministic clock: the interaction runs at issue time under
    a {!Nsql_sim.Sim.capture}, so all counters (messages, bytes, CPU ticks,
    locks) are charged exactly as a blocking {!send}, but the elapsed time
    is only charged when the completion is awaited. Awaiting a batch of
    overlapped requests costs the {e max} of their latencies, not the sum.

    Every completion must be awaited (see the [NOWAIT-LEAK] lint rule):
    dropping one silently discards the latency of a request whose effects
    already happened. *)

type completion

(** [send_nowait sys ~from ~tag endpoint request] issues one interaction
    without blocking and returns its completion handle. The server handler
    runs immediately (in issue order), so replies and server state are
    deterministic regardless of await order. If the server {!defer}s, the
    completion is pending: its time is fixed when the server resolves it. *)
val send_nowait :
  system -> from:processor -> tag:string -> endpoint -> string -> completion

(** [await sys c] advances the clock to the completion time (a no-op if
    already past) and returns the reply payload. Idempotent. A pending
    completion is awaited by pumping the event loop (see {!send}). *)
val await : system -> completion -> string

(** [done_at c] is the simulated time at which the reply lands, or [None]
    while the request is still parked at the server. *)
val done_at : completion -> float option

(** [await_any sys cs] waits for the earliest completion in [cs] and
    returns its index and reply. Ties break to the lowest index, so the
    order is a pure function of simulated time. While any completion is
    still parked, events are pumped one at a time — a parked request may
    resolve to an earlier time than the best already-known completion.
    Raises [Invalid_argument] on the empty list. *)
val await_any : system -> completion list -> int * string

(** [checkpoint sys endpoint payload] sends a primary-to-backup checkpoint
    message carrying [payload], if the endpoint has a backup: charges the
    hop and the payload bytes, then hands the payload to the endpoint's
    checkpoint receiver (the backup half's replica maintenance). A no-op
    without a backup. State-changing requests checkpoint so the backup can
    take over mid-transaction. *)
val checkpoint : system -> endpoint -> string -> unit

(** [set_checkpoint_receiver e (Some f)] installs the backup-side consumer
    of checkpoint payloads. [f] must be pure heap bookkeeping: it runs
    synchronously inside {!checkpoint} after the charge and must never
    touch the simulation clock or counters. [None] uninstalls. *)
val set_checkpoint_receiver : endpoint -> (string -> unit) option -> unit
