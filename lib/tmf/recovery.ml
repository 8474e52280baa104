module Trail = Nsql_audit.Trail
module Ar = Nsql_audit.Audit_record

type outcome = { replayed : int; winners : int; losers : int }

let pp_outcome ppf o =
  Format.fprintf ppf "replayed=%d winners=%d losers=%d" o.replayed o.winners
    o.losers

(* In-doubt branches (PREPARE without a local decision) ask the resolver
   whether their coordinator committed; a resolver that answers [false]
   makes them losers (presumed abort). *)
let rollforward_with trail ~resolve ~apply =
  let records = Trail.read_durable trail in
  (* pass 1: find winners *)
  let committed = Hashtbl.create 64 in
  let prepared = Hashtbl.create 16 in
  let seen = Hashtbl.create 64 in
  List.iter
    (fun r ->
      Hashtbl.replace seen r.Ar.tx ();
      match r.Ar.body with
      | Ar.Commit_tx ->
          Hashtbl.remove prepared r.Ar.tx;
          Hashtbl.replace committed r.Ar.tx ()
      | Ar.Abort_tx ->
          Hashtbl.remove prepared r.Ar.tx;
          Hashtbl.remove committed r.Ar.tx
      | Ar.Prepare_tx { coordinator_node; coordinator_tx } ->
          Hashtbl.replace prepared r.Ar.tx (coordinator_node, coordinator_tx)
      | Ar.Begin_tx | Ar.Insert _ | Ar.Delete _ | Ar.Update_full _
      | Ar.Update_fields _ ->
          ())
    records;
  (* in-doubt resolution, in ascending-tx order: [resolve] may message the
     coordinator, so iteration order is part of the replayed schedule *)
  List.iter
    (fun (tx, (coordinator_node, coordinator_tx)) ->
      if resolve ~coordinator_node ~coordinator_tx then
        Hashtbl.replace committed tx ())
    (Nsql_util.Tbl.sorted_bindings prepared);
  (* pass 2: replay winners' data operations in LSN order *)
  let replayed = ref 0 in
  List.iter
    (fun r ->
      if Hashtbl.mem committed r.Ar.tx then
        match r.Ar.body with
        | Ar.Begin_tx | Ar.Commit_tx | Ar.Abort_tx | Ar.Prepare_tx _ -> ()
        | Ar.Insert _ | Ar.Delete _ | Ar.Update_full _ | Ar.Update_fields _ ->
            apply r.Ar.body;
            incr replayed)
    records;
  {
    replayed = !replayed;
    winners = Hashtbl.length committed;
    losers = Hashtbl.length seen - Hashtbl.length committed;
  }

(* [coordinator_committed trail ~tx] — did this trail record a COMMIT for
   [tx]? Used as the in-doubt resolver against a coordinator's trail. *)
let coordinator_committed trail ~tx =
  List.exists
    (fun r -> r.Ar.tx = tx && r.Ar.body = Ar.Commit_tx)
    (Trail.read_durable trail)
