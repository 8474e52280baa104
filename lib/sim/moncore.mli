(** Per-world monitor storage: the layer below {!Sim} that the resource
    monitor (lib/monitor) reads and every subsystem feeds.

    Pure bookkeeping in the [Tracer] mould: callers pass clock values
    in; nothing here charges, ticks, waits, schedules, or sends — the
    MON-PURE lint rule holds this module and lib/monitor to that. Every
    entry point is one [enabled] branch when monitoring is off, and
    enabling it is observationally free: results, stats, and the
    simulated clock are bit-identical either way (test-enforced). *)

(** Category a real clock advance is charged to. The per-category
    totals tile [Sim.now] deltas {e exactly}: every config time constant
    is a binary-exact multiple of 0.25 us far below 2^52, so the float
    additions splitting an advance across categories and slices are
    exact. Every clock-moving [Sim] call names its category; [C_other]
    is for movement that belongs to no subsystem (a driver's own think
    time), and [C_await] is overlapped/idle waiting (nowait completions,
    backoff, event drains) whose underlying work was charged under a
    capture. *)
type cat = C_compute | C_msg | C_disk | C_lockwait | C_ckpt | C_await | C_other

val cat_index : cat -> int
val cat_names : string array

(** Instantaneous occupancy counters, sampled at each slice close:
    outstanding nowait completions, parked lock waiters, held locks, and
    in-flight disk I/Os. [G_diskq] is maintained by the disk layer with
    lazy retirement — completed I/Os leave the gauge at the volume's next
    submission/completion/stall touch point, so between disk operations
    it reads the depth as of the last disk interaction. *)
type gauge = G_outstanding | G_parked | G_locks | G_diskq

val gauge_index : gauge -> int
val gauge_names : string array

(** Resources whose service time is accumulated per slice. iostat-style:
    a slice's busy time is the service time of work {e completed} in it,
    so overlapped service can exceed the slice length. *)
type res = R_dp | R_disk

val res_index : res -> int
val res_names : string array

val probe_names : string array
(** Names of the cumulative stat counters probed at each slice close,
    in the order the closure installed by [Sim.create] produces them. *)

type slice = {
  sl_start : float;
  sl_cats : float array;
  sl_busy : float array;
  mutable sl_gauges : int array;
  mutable sl_stats : int array;
}

type stmt = {
  st_name : string;
  st_start : float;
  st_elapsed : float;
  st_cats : float array;  (** sums to [st_elapsed] exactly *)
}

type t

val create : unit -> t

val creation_hook : (t -> unit) option ref
(** Called by [Sim.create] on every new world's monitor, before any
    simulation runs — how [bench --monitor] turns monitoring on for
    worlds it never sees constructed. *)

val set_probe : t -> (unit -> int array) -> unit
val enabled : t -> bool
val set_enabled : t -> now:float -> bool -> unit
val clear : t -> now:float -> unit

val set_slice_us : t -> float -> unit
(** Sampler slice width; must be a binary-exact positive value (the
    default 10_000. is) or boundary apportioning loses exactness. *)

val clock_advance : t -> cat:cat -> from_:float -> to_:float -> unit
(** The [Sim.advance_to] hook: attribute real clock movement to [cat]
    (the category the causing charge or wait named) and to the open
    slice, closing slices (gauge sample + stats probe) at every boundary
    crossed. Never schedules anything. *)

val observe : t -> string -> float -> unit
(** Record a duration into the named histogram ("stmt", "dp", "disk",
    "lock_wait", "fs_req", "transfer", ...). *)

val add_busy : t -> res -> float -> unit
val gauge_add : t -> gauge -> int -> unit

val note_stmt :
  t -> name:string -> start:float -> elapsed:float -> cats:float array -> unit

val start_now : t -> float
val last_now : t -> float
val slice_us : t -> float
val cat_snapshot : t -> float array
val busy_snapshot : t -> float array
val gauge_snapshot : t -> int array
val gauge_value : t -> gauge -> int
val dropped_slices : t -> int
val dropped_stmts : t -> int
val slices : t -> slice list
val current_slice : t -> slice
val stmts : t -> stmt list
val hist : t -> string -> Hist.t option
val hists : t -> (string * Hist.t) list
