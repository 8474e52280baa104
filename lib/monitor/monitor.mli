(** The resource monitor: the high-level API over {!Nsql_sim.Moncore}.

    Zero-perturbation observability in the mould of [Nsql_trace.Trace]:
    latency histograms fed at existing span end sites, a time-sliced
    utilization/queueing sampler driven passively by the simulated
    clock, and an exhaustive decomposition of where simulated time goes
    — per-category totals tile [Sim.now] deltas exactly. Everything
    here only reads; monitoring on vs off is bit-identical in results,
    stats, and clock (test-enforced), and the MON-PURE lint rule
    statically keeps perturbing calls out of this library. *)

module Moncore = Nsql_sim.Moncore
module Hist = Nsql_sim.Hist

val set_enabled : Nsql_sim.Sim.t -> bool -> unit
(** Enabling clears previous state and starts accounting at the current
    simulated time. *)

val clear : Nsql_sim.Sim.t -> unit

val set_slice_us : Nsql_sim.Sim.t -> float -> unit
(** Sampler slice width (default 10_000. us). Must be binary-exact. *)

(** {2 Rendering} *)

val pp_report : Format.formatter -> Nsql_sim.Sim.t -> unit
(** The [\monitor] view: where-time-goes table, busy fractions, gauges,
    histogram lines with sparklines, per-statement totals. *)

(** {2 Export} *)

val json : Nsql_sim.Sim.t -> string
(** Single-world monitor export; byte-identical for a given seed. *)

val json_of_moncores : Moncore.t list -> string
(** Multi-world export ([bench --monitor] collects one moncore per
    created world via {!Moncore.creation_hook}). *)

val chrome_counters : ?pid:int -> Moncore.t -> string list
(** Chrome trace-event counter samples (["ph":"C"]), one per closed
    slice per track (gauges, per-resource busy time), for merging into
    [Trace.chrome_json ~counters]. *)
