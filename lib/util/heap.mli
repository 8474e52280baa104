(** Mutable binary min-heap, used for the simulation event queue.

    Priorities are floats (simulated microseconds); ties are broken by
    insertion order, so simultaneous events fire first-scheduled-first —
    this keeps the whole simulation deterministic. *)

type 'a t

val create : unit -> 'a t

(** [push h ~prio x] inserts [x] with priority [prio]. *)
val push : 'a t -> prio:float -> 'a -> unit

(** [min_prio h] is the smallest priority, if any. *)
val min_prio : 'a t -> float option

(** [none_due_by h x] is [true] iff every priority in [h] exceeds [x]:
    [min_prio h] is [None] or above [x], asked without allocating. *)
val none_due_by : 'a t -> float -> bool

(** [pop_min h] removes and returns the minimum element. *)
val pop_min : 'a t -> (float * 'a) option
