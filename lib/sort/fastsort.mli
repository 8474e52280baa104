(** FastSort: an external merge sort with (simulated) parallel sub-sorts.

    Models Tsukerman et al.'s FastSort, which the SQL compiler can invoke
    for ORDER BY / GROUP BY: input is partitioned over [ways] sub-sorters
    (each using its own processor and scratch disk in the real system);
    each sub-sorter forms sorted runs bounded by its memory and merges
    them; a final fan-in merge produces the output. Costs are charged to
    the simulated clock — the elapsed time of the parallel phase is the
    {e maximum} of the sub-sorters' times, not the sum, so configurations
    with more sub-sorters finish sooner at equal total work. *)

type stats = {
  runs_formed : int;
  merge_passes : int;
  comparisons : int;
  elapsed_us : float;  (** simulated elapsed time of the whole sort *)
}

(** [sort sim ~compare items] sorts with the default configuration. *)
val sort :
  ?ways:int ->
  ?run_capacity:int ->
  Nsql_sim.Sim.t ->
  compare:('a -> 'a -> int) ->
  'a list ->
  'a list * stats

(** [sort_keyed sim items] sorts (key, value) pairs by byte key. *)
val sort_keyed :
  ?ways:int ->
  ?run_capacity:int ->
  Nsql_sim.Sim.t ->
  (string * 'a) list ->
  (string * 'a) list * stats
