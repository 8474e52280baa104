module Sim = Nsql_sim.Sim
module Stats = Nsql_sim.Stats
module Trail = Nsql_audit.Trail
module Ar = Nsql_audit.Audit_record
module Errors = Nsql_util.Errors

let ( let* ) = Errors.( let* )

type tx_state = Active | Prepared | Committing

(* a resource manager: the Disk Process of one volume *)
type rm = { volume : string; on_finish : int -> unit; undo : Ar.t -> unit }

(* an in-flight transaction: [records] are the volume and trail position of
   each of its data records, newest first; [lost] is set once a crashed
   volume took some of them; [parks] counts its requests parked on Disk
   Process lock queues (a fan-out can park at several) *)
type tx_entry = {
  mutable tx_state : tx_state;
  mutable records : (string * int) list;
  mutable lost : bool;
  mutable parks : int;
}

(* A running transaction can still bring a commit to the pending group:
   it is neither waiting on its own COMMIT flush nor parked on a lock. *)
let running e = e.parks = 0 && e.tx_state <> Committing

type t = {
  sim : Sim.t;
  trail : Trail.t;
  mutable next_tx : int;
  mutable next_file_id : int;
  table : (int, tx_entry) Hashtbl.t;  (** in-flight transactions *)
  mutable running : int;  (** entries of [table] that are [running] *)
  mutable rms : rm list;
}

let create sim trail =
  {
    sim;
    trail;
    next_tx = 1;
    next_file_id = 0;
    table = Hashtbl.create 64;
    running = 0;
    rms = [];
  }

let allocate_file_id t =
  let id = t.next_file_id in
  t.next_file_id <- id + 1;
  id

let trail t = t.trail

let register_resource_manager t ~volume ~on_finish ~undo =
  t.rms <- { volume; on_finish; undo } :: t.rms

let begin_tx t =
  let tx = t.next_tx in
  t.next_tx <- tx + 1;
  Hashtbl.replace t.table tx
    { tx_state = Active; records = []; lost = false; parks = 0 };
  t.running <- t.running + 1;
  ignore (Trail.append t.trail ~tx Ar.Begin_tx);
  let s = Sim.stats t.sim in
  s.Stats.tx_begun <- s.Stats.tx_begun + 1;
  Sim.tick t.sim 20;
  tx

let in_flight t ~tx = Hashtbl.mem t.table tx

let is_active t ~tx =
  match Hashtbl.find_opt t.table tx with
  | Some { tx_state = Active; _ } -> true
  | Some { tx_state = Prepared | Committing; _ } | None -> false

(* a transaction stopped running: once none runs, no commit can join the
   pending group *)
let stop_running t =
  t.running <- t.running - 1;
  if t.running = 0 then Trail.close_group t.trail

let park t ~tx =
  match Hashtbl.find_opt t.table tx with
  | Some e ->
      if running e then stop_running t;
      e.parks <- e.parks + 1
  | None -> ()

let unpark t ~tx =
  match Hashtbl.find_opt t.table tx with
  | Some e ->
      if e.parks = 0 then Errors.fatal "Tmf.unpark: transaction not parked";
      e.parks <- e.parks - 1;
      if running e then t.running <- t.running + 1
  | None -> ()

let log t ~volume ~tx body =
  let pos = Trail.end_pos t.trail in
  let lsn = Trail.append t.trail ~tx body in
  (match Hashtbl.find_opt t.table tx with
  | Some e -> e.records <- (volume, pos) :: e.records
  | None -> Errors.fatal "Tmf.log: transaction not in flight");
  lsn

let volume_lost t ~volume =
  let elsewhere (v, _) = not (String.equal v volume) in
  List.iter
    (fun (_, e) ->
      if not (List.for_all elsewhere e.records) then begin
        e.records <- List.filter elsewhere e.records;
        e.lost <- true
      end)
    (Nsql_util.Tbl.sorted_bindings t.table)

(* The locks go first: the waiters they grant run again before this
   transaction's leaving can close the group. *)
let finish t tx e =
  Hashtbl.remove t.table tx;
  List.iter (fun rm -> rm.on_finish tx) t.rms;
  if running e then stop_running t

(* Back out the transaction's records newest first, each read back from
   the trail and handed to the manager of its volume (the compensations it
   logs are dropped with the rest), then write ABORT. *)
let abort t ~tx =
  match Hashtbl.find_opt t.table tx with
  | None | Some { tx_state = Committing; _ } -> Errors.fail Errors.No_transaction
  | Some e ->
      List.iter
        (fun (volume, pos) ->
          (List.find (fun rm -> String.equal rm.volume volume) t.rms).undo
            (Trail.read_at t.trail pos))
        e.records;
      ignore (Trail.append t.trail ~tx Ar.Abort_tx);
      let s = Sim.stats t.sim in
      s.Stats.tx_aborted <- s.Stats.tx_aborted + 1;
      finish t tx e;
      Sim.tick t.sim 20;
      Ok ()

(* a COMMIT or PREPARE would make a later restart replay, on the crashed
   volume, the records that its recovery already dropped *)
let abort_lost t ~tx =
  let* () = abort t ~tx in
  Errors.fail (Errors.Tx_aborted (Printf.sprintf "tx %d lost a volume" tx))

let prepare t ~tx ~coordinator_node ~coordinator_tx =
  match Hashtbl.find_opt t.table tx with
  | Some { tx_state = Active; lost = true; _ } -> abort_lost t ~tx
  | Some ({ tx_state = Active; _ } as e) ->
      let lsn =
        Trail.append t.trail ~tx (Ar.Prepare_tx { coordinator_node; coordinator_tx })
      in
      (* a branch must be durable-ready before it answers the coordinator *)
      Trail.force t.trail lsn;
      e.tx_state <- Prepared;
      Sim.tick t.sim 20;
      Ok ()
  | Some _ | None -> Errors.fail Errors.No_transaction

let request_commit ?on_durable t ~tx =
  match Hashtbl.find_opt t.table tx with
  | None | Some { tx_state = Committing; _ } -> Errors.fail Errors.No_transaction
  | Some { tx_state = Active; lost = true; _ } -> abort_lost t ~tx
  | Some e when e.records = [] && e.tx_state = Active ->
      (* a read-only transaction holds no data record: no COMMIT record
         and no group-commit wait are needed (two-phase locks still
         release) *)
      Ok None
  | Some e ->
      let lsn = Trail.append t.trail ~tx Ar.Commit_tx in
      (* no [stop_running]: this request flushes at once if the group
         cannot grow *)
      if running e then t.running <- t.running - 1;
      e.tx_state <- Committing;
      Trail.request_commit t.trail ~can_grow:(t.running > 0) ?on_durable lsn;
      Ok (Some lsn)

let finish_commit t ~tx =
  match Hashtbl.find_opt t.table tx with
  | None -> Errors.fatal "Tmf.finish_commit: transaction not in flight"
  | Some e ->
      let s = Sim.stats t.sim in
      s.Stats.tx_committed <- s.Stats.tx_committed + 1;
      finish t tx e;
      Sim.tick t.sim 20

let commit t ~tx =
  let* lsn = request_commit t ~tx in
  Option.iter (Trail.await_durable t.trail) lsn;
  finish_commit t ~tx;
  Ok ()

let run t f =
  let tx = begin_tx t in
  match f tx with
  | Ok result -> (
      match commit t ~tx with Ok () -> Ok result | Error _ as e -> e)
  | Error err ->
      (match abort t ~tx with
      | Ok () -> ()
      | Error e2 ->
          Errors.fatal ("Tmf.run: abort failed: " ^ Errors.to_string e2));
      Error err
