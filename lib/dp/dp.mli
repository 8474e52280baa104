(** The Disk Process: the low-level disk file server.

    One Disk Process (a process pair in the real system) manages one disk
    volume. It combines, as in the paper:

    - {b record management}: key-sequenced (B-tree), relative, and
      entry-sequenced file structures;
    - {b cache management}: an LRU buffer pool with write-ahead-log
      discipline, bulk I/O, asynchronous pre-fetch (driven by the key span
      of set-oriented requests) and asynchronous write-behind;
    - {b lock management}: file / record / generic locks, plus virtual-block
      group locks for VSBB scans;
    - {b transaction support}: every mutation appends a TMF audit record
      (field-compressed for SQL set updates), registers its logical undo,
      and checkpoints to the backup process of the pair.

    Requests arrive as {!Dp_msg.request} messages through the message
    system ({!handler} is registered as the endpoint handler); the set
    requests implement the continuation re-drive protocol with Subset
    Control Blocks. *)

type t

(** [create sim msys tmf ~name ~processor ?backup ()] builds a Disk
    Process, its volume and cache, and registers its message endpoint
    under [name] (e.g. ["$DATA1"]). *)
val create :
  Nsql_sim.Sim.t ->
  Nsql_msg.Msg.system ->
  Nsql_tmf.Tmf.t ->
  name:string ->
  processor:Nsql_msg.Msg.processor ->
  ?backup:Nsql_msg.Msg.processor ->
  unit ->
  t

val name : t -> string
val endpoint : t -> Nsql_msg.Msg.endpoint
val volume : t -> Nsql_disk.Disk.t
val cache : t -> Nsql_cache.Cache.t

(** [handler t request_bytes] decodes, executes and replies — the message
    system calls this. Exposed for direct testing. *)
val handler : t -> string -> string

(** [request t req] is [handler] at the typed level (no serialization);
    only for tests — real clients must go through the message system so
    traffic is counted. *)
val request : t -> Dp_msg.request -> Dp_msg.reply

(** {1 Local (non-message) services} *)

(** [file_id t fname] looks up a file by name. *)
val file_id : t -> string -> int option

(** [record_count t ~file] is the live record count. *)
val record_count : t -> file:int -> int

(** [idle t] models idle time between requests: triggers asynchronous
    write-behind of eligible dirty block strings. Returns blocks queued. *)
val idle : t -> int

(** [takeover t] simulates failure of the primary half of the process
    pair: the hot-standby backup becomes primary and keeps serving, with
    the control state (locks, Subset Control Blocks, dirtied cache
    contents) it received through the checkpoint messages charged on every
    mutation. In contrast to {!crash}, no recovery is needed — this is the
    paper's single-module-failure availability story. Fails with
    [Bad_request] if the pair has no backup. *)
val takeover : t -> (unit, Nsql_util.Errors.t) result

(** [crash t] simulates a processor crash: volatile state (cache, locks,
    subset control blocks, file directory) is lost. Disk contents remain.
    Use {!recover} to rebuild from the audit trail. *)
val crash : t -> unit

(** [recover t] rebuilds every file of this volume by rolling the durable
    audit trail forward (see {!Nsql_tmf.Recovery}): file structures are
    re-created empty from the on-disk file labels (which survive the
    crash) and committed operations of this volume's files re-applied.
    File ids are node-global (allocated by TMF), so the shared trail
    routes unambiguously. *)
val recover : t -> Nsql_tmf.Recovery.outcome

(** [recover_with t ~resolve] is {!recover} with an in-doubt resolver for
    prepared two-phase-commit branches (cluster recovery consults the
    coordinator node's trail). *)
val recover_with :
  t ->
  resolve:(coordinator_node:int -> coordinator_tx:int -> bool) ->
  Nsql_tmf.Recovery.outcome

(** [check_invariants t] validates every key-sequenced file's B-tree. *)
val check_invariants : t -> (unit, string) result
