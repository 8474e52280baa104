module Sim = Nsql_sim.Sim

type stats = {
  runs_formed : int;
  merge_passes : int;
  comparisons : int;
  elapsed_us : float;
}

(* split [items] round-robin over [ways] sub-sorters *)
let distribute ways items =
  let buckets = Array.make ways [] in
  List.iteri (fun i x -> buckets.(i mod ways) <- x :: buckets.(i mod ways)) items;
  Array.map List.rev buckets

(* cut a list into runs of at most [cap] elements *)
let runs_of cap items =
  let rec go acc current k = function
    | [] -> List.rev (if current = [] then acc else List.rev current :: acc)
    | x :: rest ->
        if k = cap then go (List.rev current :: acc) [ x ] 1 rest
        else go acc (x :: current) (k + 1) rest
  in
  go [] [] 0 items

(* merge two sorted lists, counting comparisons *)
let merge_two compare comparisons a b =
  let rec go acc a b =
    match (a, b) with
    | [], rest | rest, [] -> List.rev_append acc rest
    | x :: xs, y :: ys ->
        incr comparisons;
        if compare x y <= 0 then go (x :: acc) xs b else go (y :: acc) a ys
  in
  go [] a b

(* repeatedly merge pairs of runs until one remains; count passes *)
let merge_runs compare comparisons passes runs =
  let rec pass = function
    | [] -> []
    | [ r ] -> [ r ]
    | a :: b :: rest -> merge_two compare comparisons a b :: pass rest
  in
  let rec go runs =
    match runs with
    | [] -> []
    | [ r ] -> r
    | _ ->
        incr passes;
        go (pass runs)
  in
  go runs

let sort ?(ways = 4) ?(run_capacity = 256) sim ~compare items =
  if ways < 1 then invalid_arg "Fastsort.sort: ways < 1";
  let n = List.length items in
  if n <= 1 then
    (items, { runs_formed = (if n = 0 then 0 else 1); merge_passes = 0; comparisons = 0; elapsed_us = 0. })
  else begin
    let t0 = Sim.now sim in
    let comparisons = ref 0 in
    let total_runs = ref 0 in
    let passes = ref 0 in
    (* phase 1+2: each sub-sorter forms runs and merges them locally;
       simulated work per sub-sorter is measured by its comparison count *)
    let sub_outputs_and_work =
      Array.map
        (fun sub_items ->
          let before = !comparisons in
          let runs = runs_of run_capacity sub_items in
          total_runs := !total_runs + List.length runs;
          let sorted_runs =
            List.map
              (fun run ->
                (* in-memory run formation: n log n comparisons charged *)
                let arr = Array.of_list run in
                let len = Array.length arr in
                Array.sort
                  (fun a b ->
                    incr comparisons;
                    compare a b)
                  arr;
                ignore len;
                Array.to_list arr)
              runs
          in
          let merged = merge_runs compare comparisons passes sorted_runs in
          (merged, !comparisons - before))
        (distribute ways items)
    in
    (* elapsed of the parallel phase = max of the sub-sorters' work *)
    let max_work =
      Array.fold_left (fun acc (_, w) -> max acc w) 0 sub_outputs_and_work
    in
    Sim.charge sim ~cat:Nsql_sim.Moncore.C_compute
      (float_of_int max_work *. 0.5);
    (* final fan-in merge runs on the coordinating processor *)
    let before = !comparisons in
    let final =
      merge_runs compare comparisons passes
        (Array.to_list (Array.map fst sub_outputs_and_work))
    in
    Sim.tick sim (!comparisons - before);
    ( final,
      {
        runs_formed = !total_runs;
        merge_passes = !passes;
        comparisons = !comparisons;
        elapsed_us = Sim.now sim -. t0;
      } )
  end

let sort_keyed ?ways ?run_capacity sim items =
  sort ?ways ?run_capacity sim
    ~compare:(fun (a, _) (b, _) -> String.compare a b)
    items
