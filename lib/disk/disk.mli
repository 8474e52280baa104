(** Simulated disk volume.

    A volume is a growable array of fixed-size blocks, optionally mirrored
    on a pair of physical drives (writes go to both, reads are served by
    one). The cost model distinguishes random access (seek + rotational
    delay) from physically sequential access, and supports *bulk I/O*: one
    operation transferring a string of consecutive blocks, bounded by the
    configured maximum (the paper's 28 KB).

    The device is an io_uring-style multi-queue model: it services up to
    {!Nsql_sim.Config.t.disk_queue_depth} I/Os concurrently (submissions
    enter the earliest-free channel; the rest queue behind them), and
    submission is decoupled from completion. {!submit_read} and
    {!submit_write} enqueue an I/O and return a handle immediately — no
    simulated time passes — and {!complete} blocks until the handle's
    done-time and hands the data over. The classic {!read_bulk} /
    {!write_bulk} are submit-then-complete; at queue depth 1 the model is
    byte-identical to the historical single-busy-window device
    (test-enforced).

    Asynchronous variants return a completion time instead of blocking the
    simulated clock; the cache layer uses them for pre-fetch and
    write-behind. *)

type t

(** [create sim ~name] makes an empty volume, mirrored when the
    simulation config's [mirrored] is set. *)
val create : Nsql_sim.Sim.t -> name:string -> t

(** [blocks t] is the current number of allocated blocks. *)
val blocks : t -> int

(** [max_bulk_blocks t] is the bulk I/O limit in blocks. *)
val max_bulk_blocks : t -> int

(** [allocate t n] extends the volume by [n] zeroed blocks and returns the
    index of the first new block. No I/O is charged (allocation is a
    catalogue operation). *)
val allocate : t -> int -> int

(** [read t i] synchronously reads block [i]. *)
val read : t -> int -> string

(** [peek t i] is block [i]'s image, read without I/O. *)
val peek : t -> int -> string

(** [read_bulk t ~first ~count] synchronously reads [count] consecutive
    blocks as one I/O. [count] must not exceed [max_bulk_blocks]. *)
val read_bulk : t -> first:int -> count:int -> string array

(** [write t i data] synchronously writes block [i]. *)
val write : t -> int -> string -> unit

(** [write_bulk t ~first data] synchronously writes consecutive blocks as
    one I/O. *)
val write_bulk : t -> first:int -> string array -> unit

(** {1 Submission/completion handles}

    The nowait face of the device: submission costs no simulated time and
    completions are reaped explicitly, so a caller can keep several I/Os
    in flight and overlap CPU work (or further submissions) with the
    transfers. Every handle must reach {!complete} — the RES-LEAK lint
    rule flags submissions that provably never do. *)

type io
(** An in-flight I/O: carries its block range, submission and completion
    times, and the open trace span. *)

(** [submit_read t ~first ~count] enqueues a demand bulk read and returns
    its handle without advancing the clock. *)
val submit_read : t -> first:int -> count:int -> io

(** [io_done_at io] is the simulated time at which the I/O completes. *)
val io_done_at : io -> float

(** [complete t io] waits until the I/O's done-time and returns the blocks
    read ([[||]] for writes). *)
val complete : t -> io -> string array

(** [queue_depth t] is the number of I/Os in flight at the current
    simulated time (in service or queued on a busy channel). *)
val queue_depth : t -> int

(** [read_bulk_async t ~first ~count] starts a read and returns the data
    together with its completion time; the caller must [Sim.wait_until]
    that time before using the data. Counted as a pre-fetch read. *)
val read_bulk_async : t -> first:int -> count:int -> string array * float

(** [write_bulk_async t ~first data] starts a write and returns its
    completion time. Counted as a write-behind write. The block contents
    are applied immediately (the simulated controller owns the buffer). *)
val write_bulk_async : t -> first:int -> string array -> float

(** {1 Fault injection} *)

(** [set_fault_hook t (Some h)] consults [h] on every I/O; returning
    [Some penalty_us] makes that I/O suffer a transient error — it is
    retried (from the mirror, or after recalibration) and completes
    [penalty_us] later. Data always gets through; only latency and the
    {!Nsql_sim.Stats.t} transient-error counter change. *)
val set_fault_hook : t -> (unit -> float option) option -> unit

(** [stall t ~us] makes the device unavailable until [now + us] (queued
    I/Os wait it out; a backlog already extending past that point absorbs
    the stall), modelling a controller hiccup — used by the chaos layer
    for audit-volume stalls. *)
val stall : t -> us:float -> unit
