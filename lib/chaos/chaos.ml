module Sim = Nsql_sim.Sim
module Stats = Nsql_sim.Stats
module Msg = Nsql_msg.Msg
module Disk = Nsql_disk.Disk
module Row = Nsql_row.Row
module Expr = Nsql_expr.Expr
module Keycode = Nsql_util.Keycode
module Errors = Nsql_util.Errors
module Trail = Nsql_audit.Trail
module Tmf = Nsql_tmf.Tmf
module Recovery = Nsql_tmf.Recovery
module Dp = Nsql_dp.Dp
module Dp_msg = Nsql_dp.Dp_msg
module Fs = Nsql_fs.Fs
module Dtx = Nsql_dtx.Dtx
module N = Nsql_core.Nonstop_sql
module Oracle = Nsql_oracle.Oracle
module Debitcredit = Nsql_workload.Debitcredit

open Errors

(* --- deterministic pseudo-random stream --------------------------------- *)

module Prng = struct
  type t = { mutable state : int64 }

  let create ~seed = { state = Int64.of_int seed }

  (* splitmix64: every draw is one add + three xor-shift-multiplies; the
     stream depends only on the seed, never on the clock or on
     [Stdlib.Random]'s hidden global state *)
  let next t =
    t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
    let z = t.state in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
        0xBF58476D1CE4E5B9L
    in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
        0x94D049BB133111EBL
    in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let split t = { state = next t }

  let int t bound =
    if bound <= 0 then invalid_arg "Prng.int: bound <= 0";
    Int64.to_int (Int64.rem (Int64.shift_right_logical (next t) 1) (Int64.of_int bound))

  let float t bound =
    let u = Int64.to_float (Int64.shift_right_logical (next t) 11) in
    bound *. (u /. 9007199254740992.0 (* 2^53 *))

  let bool t = Int64.equal (Int64.logand (next t) 1L) 1L

  let pick t xs = List.nth xs (int t (List.length xs))
end

(* --- fault plans --------------------------------------------------------- *)

type fault =
  | F_msg_delay of { victim : string; delay_us : float; count : int }
  | F_msg_flap of { victim : string; retry_us : float; count : int }
  | F_takeover of { node : int; volume : int }
  | F_crash of { node : int; volume : int }
  | F_disk_transient of {
      node : int;
      volume : int;
      penalty_us : float;
      count : int;
    }
  | F_vm_pressure of { node : int; volume : int; frames : int }
  | F_audit_stall of { node : int; stall_us : float }
  | F_2pc_crash of { commit : bool; participant_crash : bool }

type event = { due : float; fault : fault }

type topology = Single | Cluster

type plan = { p_seed : int; p_topology : topology; p_events : event list }

let fault_kind = function
  | F_msg_delay _ -> "msg_delay"
  | F_msg_flap _ -> "msg_flap"
  | F_takeover _ -> "takeover"
  | F_crash _ -> "crash"
  | F_disk_transient _ -> "disk_transient"
  | F_vm_pressure _ -> "vm_pressure"
  | F_audit_stall _ -> "audit_stall"
  | F_2pc_crash _ -> "2pc_crash"

let fault_kinds =
  [
    "msg_delay";
    "msg_flap";
    "takeover";
    "crash";
    "disk_transient";
    "vm_pressure";
    "audit_stall";
    "2pc_crash";
  ]

let pp_fault ppf = function
  | F_msg_delay { victim; delay_us; count } ->
      Format.fprintf ppf "msg-delay %s +%.0fus x%d" victim delay_us count
  | F_msg_flap { victim; retry_us; count } ->
      Format.fprintf ppf "msg-path-fail %s retry %.0fus x%d" victim retry_us
        count
  | F_takeover { node; volume } ->
      Format.fprintf ppf "takeover node %d volume %d" node volume
  | F_crash { node; volume } ->
      Format.fprintf ppf "crash+recover node %d volume %d" node volume
  | F_disk_transient { node; volume; penalty_us; count } ->
      Format.fprintf ppf "disk-transient node %d volume %d +%.0fus x%d" node
        volume penalty_us count
  | F_vm_pressure { node; volume; frames } ->
      Format.fprintf ppf "vm-pressure node %d volume %d steal %d frames" node
        volume frames
  | F_audit_stall { node; stall_us } ->
      Format.fprintf ppf "audit-stall node %d %.0fus" node stall_us
  | F_2pc_crash { commit; participant_crash } ->
      Format.fprintf ppf "2pc coordinator crash (decision %s%s)"
        (if commit then "commit" else "abort")
        (if participant_crash then ", participant crashes in-doubt" else "")

let pp_topology ppf = function
  | Single -> Format.pp_print_string ppf "single-node"
  | Cluster -> Format.pp_print_string ppf "2-node cluster"

let pp_plan ppf p =
  Format.fprintf ppf "@[<v>seed %d, %a, %d faults:" p.p_seed pp_topology
    p.p_topology (List.length p.p_events);
  List.iter
    (fun e -> Format.fprintf ppf "@,  @[%10.0fus  %a@]" e.due pp_fault e.fault)
    p.p_events;
  Format.fprintf ppf "@]"

let default_topology seed = if seed land 3 = 3 then Cluster else Single

(* materialize the fault schedule from the plan stream; [horizon] is the
   simulated-time window the events are spread over *)
let build_plan prng ~topology ~horizon =
  let endpoints =
    match topology with
    | Single -> [ "$DATA1"; "$DATA2" ]
    | Cluster -> [ "$N0DATA1"; "$N1DATA1"; "$TMP0"; "$TMP1" ]
  in
  let volumes =
    match topology with
    | Single -> [ (0, 0); (0, 1) ]
    | Cluster -> [ (0, 0); (1, 0) ]
  in
  let nodes = match topology with Single -> 1 | Cluster -> 2 in
  let rand_msg_delay () =
    F_msg_delay
      {
        victim = Prng.pick prng endpoints;
        delay_us = 200. +. Prng.float prng 4800.;
        count = 1 + Prng.int prng 8;
      }
  in
  let rand_fault () =
    match Prng.int prng 8 with
    | 0 -> rand_msg_delay ()
    | 1 ->
        F_msg_flap
          {
            victim = Prng.pick prng endpoints;
            retry_us = 500. +. Prng.float prng 2500.;
            count = 1 + Prng.int prng 5;
          }
    | 2 ->
        let node, volume = Prng.pick prng volumes in
        F_takeover { node; volume }
    | 3 ->
        let node, volume = Prng.pick prng volumes in
        F_crash { node; volume }
    | 4 ->
        let node, volume = Prng.pick prng volumes in
        F_disk_transient
          {
            node;
            volume;
            penalty_us = 5_000. +. Prng.float prng 25_000.;
            count = 1 + Prng.int prng 3;
          }
    | 5 ->
        let node, volume = Prng.pick prng volumes in
        F_vm_pressure { node; volume; frames = 8 + Prng.int prng 56 }
    | 6 ->
        F_audit_stall
          {
            node = Prng.int prng nodes;
            stall_us = 10_000. +. Prng.float prng 70_000.;
          }
    | _ -> (
        match topology with
        | Cluster ->
            F_2pc_crash
              { commit = Prng.bool prng; participant_crash = Prng.bool prng }
        | Single -> rand_msg_delay ())
  in
  (* every plan carries the scenario the archetype cares most about: a full
     crash + rollforward, and (clusters) a mid-commit coordinator loss *)
  let mandatory =
    match topology with
    | Single ->
        [
          F_crash { node = 0; volume = Prng.int prng 2 };
          F_takeover { node = 0; volume = Prng.int prng 2 };
        ]
    | Cluster ->
        [
          F_2pc_crash
            { commit = Prng.bool prng; participant_crash = Prng.bool prng };
          F_crash { node = Prng.int prng 2; volume = 0 };
          (* a process-pair takeover racing the distributed workload — with
             2PC in the plan, some seeds land it mid-prepare/mid-commit *)
          F_takeover { node = Prng.int prng 2; volume = 0 };
        ]
  in
  let extra = List.init (2 + Prng.int prng 5) (fun _ -> rand_fault ()) in
  let events =
    List.map
      (fun fault -> { due = Prng.float prng horizon; fault })
      (mandatory @ extra)
  in
  List.sort (fun a b -> compare a.due b.due) events

let streams ~seed =
  let root = Prng.create ~seed in
  let plan_prng = Prng.split root in
  let wl_prng = Prng.split root in
  (plan_prng, wl_prng)

let horizon_of txs = float_of_int txs *. 30_000.

let plan ?(txs = 120) ?topology ~seed () =
  let p_topology =
    match topology with Some t -> t | None -> default_topology seed
  in
  let plan_prng, _ = streams ~seed in
  {
    p_seed = seed;
    p_topology;
    p_events =
      build_plan plan_prng ~topology:p_topology ~horizon:(horizon_of txs);
  }

(* --- the engine ----------------------------------------------------------- *)

(* Faults that are transparent to in-flight operations (delays, path
   retries, takeover, cache pressure, stalls) act the moment their event
   fires. Destructive faults — losing a whole volume — are flagged as
   pending and consumed by the driver at the next operation boundary,
   where the open transaction can be aborted between the crash and the
   rollforward, the way an operator would restart a failed disk pair. *)
type engine = {
  en_sim : Sim.t;
  mutable en_msg : (string * Msg.fault_action * int ref) list;
  en_disk : (string, float * int ref) Hashtbl.t;  (** dp name -> penalty *)
  mutable en_pending_crash : (int * int) list;
  mutable en_pending_steal : (int * int * int) list;
  mutable en_pending_2pc : (bool * bool) list;
  en_applied : (string, int) Hashtbl.t;
}

let engine_create sim =
  {
    en_sim = sim;
    en_msg = [];
    en_disk = Hashtbl.create 4;
    en_pending_crash = [];
    en_pending_steal = [];
    en_pending_2pc = [];
    en_applied = Hashtbl.create 8;
  }

let bump_applied engine kind =
  Hashtbl.replace engine.en_applied kind
    (1 + Option.value ~default:0 (Hashtbl.find_opt engine.en_applied kind));
  let s = Sim.stats engine.en_sim in
  s.Stats.faults_injected <- s.Stats.faults_injected + 1

let msg_filter engine ~from:_ ~to_name ~tag:_ =
  let rec go = function
    | [] -> Msg.Fault_pass
    | (victim, action, remaining) :: rest ->
        if String.equal victim to_name && !remaining > 0 then begin
          decr remaining;
          action
        end
        else go rest
  in
  go engine.en_msg

let apply_fault engine nodes fault =
  bump_applied engine (fault_kind fault);
  match fault with
  | F_msg_delay { victim; delay_us; count } ->
      engine.en_msg <-
        (victim, Msg.Fault_delay delay_us, ref count) :: engine.en_msg
  | F_msg_flap { victim; retry_us; count } ->
      engine.en_msg <-
        (victim, Msg.Fault_path_retry retry_us, ref count) :: engine.en_msg
  | F_takeover { node; volume } ->
      ignore (N.takeover_volume nodes.(node) volume)
  | F_crash { node; volume } ->
      engine.en_pending_crash <- engine.en_pending_crash @ [ (node, volume) ]
  | F_disk_transient { node; volume; penalty_us; count } ->
      Hashtbl.replace engine.en_disk
        (Dp.name (N.dps nodes.(node)).(volume))
        (penalty_us, ref count)
  | F_vm_pressure { node; volume; frames } ->
      engine.en_pending_steal <-
        engine.en_pending_steal @ [ (node, volume, frames) ]
  | F_audit_stall { node; stall_us } ->
      Disk.stall (Trail.volume (N.trail nodes.(node))) ~us:stall_us
  | F_2pc_crash { commit; participant_crash } ->
      engine.en_pending_2pc <-
        engine.en_pending_2pc @ [ (commit, participant_crash) ]

let arm engine nodes events =
  Msg.set_fault_filter (N.msys nodes.(0)) (Some (msg_filter engine));
  Array.iter
    (fun n ->
      Array.iter
        (fun dp ->
          Disk.set_fault_hook (Dp.volume dp)
            (Some
               (fun () ->
                 match Hashtbl.find_opt engine.en_disk (Dp.name dp) with
                 | Some (penalty, remaining) when !remaining > 0 ->
                     decr remaining;
                     Some penalty
                 | _ -> None)))
        (N.dps n))
    nodes;
  let base = Sim.now engine.en_sim in
  List.iter
    (fun { due; fault } ->
      Sim.schedule engine.en_sim ~at:(base +. due) (fun () ->
          apply_fault engine nodes fault))
    events

(* --- run context ---------------------------------------------------------- *)

type ctx = {
  cx_nodes : N.node array;
  cx_cluster : N.cluster option;
  cx_engine : engine;
  cx_oracle : Oracle.t;
  mutable cx_attempted : int;
  mutable cx_committed : int;
  mutable cx_aborted : int;
  mutable cx_recoveries : int;
  mutable cx_violations : string list;  (** reversed *)
}

let ctx_create ~nodes ~cluster ~engine ~oracle =
  {
    cx_nodes = nodes;
    cx_cluster = cluster;
    cx_engine = engine;
    cx_oracle = oracle;
    cx_attempted = 0;
    cx_committed = 0;
    cx_aborted = 0;
    cx_recoveries = 0;
    cx_violations = [];
  }

let add_vio ctx v = ctx.cx_violations <- v :: ctx.cx_violations

let committed ctx view =
  Oracle.commit ctx.cx_oracle view;
  ctx.cx_committed <- ctx.cx_committed + 1

let aborted ctx = ctx.cx_aborted <- ctx.cx_aborted + 1

let recover_one ctx node volume =
  ctx.cx_recoveries <- ctx.cx_recoveries + 1;
  match ctx.cx_cluster with
  | Some c -> ignore (N.recover_cluster_volume c ~node ~volume)
  | None -> ignore (N.recover_volume ctx.cx_nodes.(node) volume)

let take_crashes engine =
  let cs = List.sort_uniq compare engine.en_pending_crash in
  engine.en_pending_crash <- [];
  cs

let take_steals engine =
  let s = engine.en_pending_steal in
  engine.en_pending_steal <- [];
  s

let take_2pc engine =
  match engine.en_pending_2pc with
  | [] -> None
  | f :: rest ->
      engine.en_pending_2pc <- rest;
      Some f

let poll_steals ctx =
  List.iter
    (fun (node, volume, frames) ->
      ignore (N.vm_pressure ctx.cx_nodes.(node) volume ~frames))
    (take_steals ctx.cx_engine)

let apply_crashes ctx crashes ~abort =
  List.iter
    (fun (node, volume) -> N.crash_volume ctx.cx_nodes.(node) volume)
    crashes;
  (* the crash dropped the volume's records from the open transaction; it can
     now abort cleanly on the surviving volumes before rollforward *)
  abort ();
  List.iter (fun (node, volume) -> recover_one ctx node volume) crashes

let poll_idle ctx =
  poll_steals ctx;
  match take_crashes ctx.cx_engine with
  | [] -> ()
  | cs -> apply_crashes ctx cs ~abort:(fun () -> ())

(* operation-boundary checkpoint inside a transaction: if a crash is
   pending, the transaction is doomed — crash, abort it, recover, and
   unwind with [Tx_aborted] *)
let step ctx ~abort op =
  poll_steals ctx;
  match take_crashes ctx.cx_engine with
  | [] -> op ()
  | cs ->
      apply_crashes ctx cs ~abort;
      fail (Errors.Tx_aborted "chaos: volume crashed")

(* --- transaction wrappers -------------------------------------------------- *)

(* a polymorphic operation-boundary checkpoint, passed into transaction
   bodies (a record field so one body can step operations of different
   result types) *)
type stepper = {
  stp : 'a. (unit -> ('a, Errors.t) result) -> ('a, Errors.t) result;
}

(* Run [f ~tx ~view ~stp] in a programmatic (File System level)
   transaction on [node]; every operation inside [f] goes through [stp] so
   pending destructive faults land on operation boundaries. *)
let with_fs_tx ctx node f =
  ctx.cx_attempted <- ctx.cx_attempted + 1;
  let tmf = N.tmf node in
  let tx = Tmf.begin_tx tmf in
  let view = Oracle.view ctx.cx_oracle in
  let abort () = if Tmf.is_active tmf ~tx then ignore (Tmf.abort tmf ~tx) in
  let stp = { stp = (fun op -> step ctx ~abort op) } in
  match f ~tx ~view ~stp with
  | Ok `Commit -> (
      match Tmf.commit tmf ~tx with
      | Ok () -> committed ctx view
      | Error _ -> aborted ctx)
  | Ok `Abort ->
      abort ();
      aborted ctx
  | Error _ ->
      abort ();
      aborted ctx

(* Same shape for a SQL transaction through a session. *)
let with_sql_tx ctx session f =
  ctx.cx_attempted <- ctx.cx_attempted + 1;
  match N.exec session "BEGIN WORK" with
  | Error _ -> aborted ctx
  | Ok _ -> (
      let view = Oracle.view ctx.cx_oracle in
      let abort () =
        match N.current_tx session with
        | Some _ -> ignore (N.exec session "ROLLBACK WORK")
        | None -> ()
      in
      let stp = { stp = (fun op -> step ctx ~abort op) } in
      match f ~view ~stp with
      | Ok `Commit -> (
          match N.exec session "COMMIT WORK" with
          | Ok _ -> committed ctx view
          | Error _ -> aborted ctx)
      | Ok `Abort ->
          abort ();
          aborted ctx
      | Error _ ->
          abort ();
          aborted ctx)

(* --- dumps (post-recovery state, read through ordinary scans) ------------- *)

let dump_keyed node file schema =
  let fs = N.fs node in
  Tmf.run (N.tmf node) (fun tx ->
      let sc =
        Fs.open_scan fs file ~tx ~access:Fs.A_vsbb ~range:Expr.full_range
          ~lock:Dp_msg.L_none ()
      in
      let rec loop acc =
        match Fs.scan_next fs sc with
        | Ok None -> Ok (List.rev acc)
        | Ok (Some row) -> loop ((Row.key_of_row schema row, row) :: acc)
        | Error e -> Error e
      in
      (* close on every exit — including a raise — since scans hold SCBs
         and a trace span open *)
      Fun.protect
        ~finally:(fun () -> Fs.close_scan fs sc)
        (fun () -> loop []))

let dump_index node file index =
  let fs = N.fs node in
  Tmf.run (N.tmf node) (fun tx ->
      let* sc =
        Fs.open_index_scan fs file ~tx ~index ~range:Expr.full_range
          ~lock:Dp_msg.L_none ()
      in
      let rec loop acc =
        match Fs.scan_next fs sc with
        | Ok None -> Ok (List.rev acc)
        | Ok (Some row) -> loop (row :: acc)
        | Error e -> Error e
      in
      (* close on raise too, not just on the fall-through path *)
      Fun.protect
        ~finally:(fun () -> Fs.close_scan fs sc)
        (fun () -> loop []))

let dump_entries node file =
  let fs = N.fs node in
  Tmf.run (N.tmf node) (fun tx ->
      (* entry-sequenced files are read with the ENSCRIBE sequential
         primitive (addressed by record address), not a key-range scan *)
      let rec loop acc ~from_key ~inclusive =
        match
          Fs.read_next_raw fs file ~tx ~from_key ~inclusive
            ~lock:Dp_msg.L_none ~sbb:true
        with
        | Ok [] -> Ok (List.rev acc)
        | Ok batch ->
            let last_key = fst (List.nth batch (List.length batch - 1)) in
            loop
              (List.rev_append (List.map snd batch) acc)
              ~from_key:last_key ~inclusive:false
        | Error e -> Error e
      in
      loop [] ~from_key:"" ~inclusive:true)

let check_dump ctx what = function
  | Ok violations -> List.iter (add_vio ctx) violations
  | Error e -> add_vio ctx (what ^ " dump failed: " ^ Errors.to_string e)

(* --- the single-node workload ---------------------------------------------- *)

let acct_file = "CHACCT"
let hist_file = "CHHIST"
let acct_index = "CHACCT_GRP"

type fsenv = {
  fe_node : N.node;
  fe_session : N.session;
  fe_acct : Fs.file;
  fe_acct_schema : Row.schema;
  fe_hist : Fs.file;
  fe_item_name : string;
  fe_item_schema : Row.schema;
  fe_dc : Debitcredit.sql_db;
  fe_dc_accounts : int;
  mutable fe_dc_sum : float;
  mutable fe_dc_count : int;
  mutable fe_next_acct : int;
  mutable fe_next_item : int;
}

let acct_schema_v () =
  Row.schema
    [|
      Row.column "acctno" Row.T_int;
      Row.column "balance" Row.T_float;
      Row.column "grp" Row.T_int;
      Row.column ~nullable:true "note" (Row.T_varchar 16);
    |]
    ~key:[ "acctno" ]

let setup_single oracle node =
  let fs = N.fs node and dps = N.dps node in
  let schema = acct_schema_v () in
  let acct =
    Errors.get_ok ~ctx:"chaos: create CHACCT"
      (Fs.create_file fs ~fname:acct_file ~schema
         ~partitions:
           [
             { Fs.ps_lo = ""; ps_dp = dps.(0) };
             { Fs.ps_lo = Keycode.of_int 1000; ps_dp = dps.(1) };
           ]
         ~indexes:[ { Fs.is_name = acct_index; is_cols = [ 2 ]; is_dp = dps.(1) } ]
         ())
  in
  let hist =
    Errors.get_ok ~ctx:"chaos: create CHHIST"
      (Fs.create_enscribe_file fs ~fname:hist_file
         ~kind:Dp_msg.K_entry_sequenced
         ~partitions:[ { Fs.ps_lo = ""; ps_dp = dps.(0) } ])
  in
  Oracle.add_file oracle ~name:acct_file ~schema
    ~indexes:[ (acct_index, [ 2 ]) ];
  Oracle.add_entry_file oracle ~name:hist_file;
  let view = Oracle.view oracle in
  Errors.get_ok ~ctx:"chaos: load CHACCT"
    (Tmf.run (N.tmf node) (fun tx ->
         let rec go i =
           if i >= 40 then Ok ()
           else
             let row =
               [|
                 Row.Vint (i * 50);
                 Row.Vfloat 1000.;
                 Row.Vint (i mod 5);
                 (if i mod 3 = 0 then Row.Null
                  else Row.Vstr (Printf.sprintf "o%02d" i));
               |]
             in
             let* () = Fs.insert_row fs acct ~tx row in
             Oracle.v_insert view ~file:acct_file row;
             go (i + 1)
         in
         go 0));
  Oracle.commit oracle view;
  (* the SQL side: an inventory table with an indexed column, driven
     through the Executor *)
  let session = N.session node in
  ignore
    (N.exec_exn session
       "CREATE TABLE item (k INT PRIMARY KEY, qty INT NOT NULL, tag \
        VARCHAR(8))");
  ignore (N.exec_exn session "CREATE INDEX item_qty ON item (qty)");
  let item_view = ref None in
  for k = 1 to 16 do
    ignore
      (N.exec_exn session
         (Printf.sprintf "INSERT INTO item VALUES (%d, %d, 'i%d')" k (100 + k)
            k));
    ignore item_view
  done;
  let item_tbl =
    Errors.get_ok ~ctx:"chaos: find item" (N.Catalog.find (N.catalog node) "item")
  in
  let item_name = Fs.file_name item_tbl.N.Catalog.t_file in
  Oracle.add_file oracle ~name:item_name ~schema:item_tbl.N.Catalog.t_schema
    ~indexes:[ ("item_qty", [ 1 ]) ];
  let iview = Oracle.view oracle in
  for k = 1 to 16 do
    Oracle.v_insert iview ~file:item_name
      [| Row.Vint k; Row.Vint (100 + k); Row.Vstr (Printf.sprintf "i%d" k) |]
  done;
  Oracle.commit oracle iview;
  (* DebitCredit rides along for the balance-conservation invariant *)
  let dc =
    Errors.get_ok ~ctx:"chaos: DebitCredit setup"
      (Debitcredit.setup_sql node ~accounts:24 ~tellers:6 ~branches:3)
  in
  {
    fe_node = node;
    fe_session = session;
    fe_acct = acct;
    fe_acct_schema = schema;
    fe_hist = hist;
    fe_item_name = item_name;
    fe_item_schema = item_tbl.N.Catalog.t_schema;
    fe_dc = dc;
    fe_dc_accounts = 24;
    fe_dc_sum = 0.;
    fe_dc_count = 0;
    fe_next_acct = 10_000;
    fe_next_item = 1_000;
  }

(* add [delta] to the balance of [key], through whichever of the two update
   paths the stream picks, and mirror the effect into the view *)
let bump_balance env prng ~tx ~view ~stp ~key ~delta =
  let fs = N.fs env.fe_node in
  let assigns =
    [
      Expr.
        {
          target = 1;
          source = Binop (Add, Field 1, Const (Row.Vfloat delta));
        };
    ]
  in
  let* () =
    if Prng.bool prng then
      (* set-oriented: selection and update expression at the data source *)
      let* n =
        stp.stp (fun () ->
            Fs.update_subset fs env.fe_acct ~tx
              ~range:Expr.{ lo = key; hi = Keycode.successor key }
              assigns)
      in
      if n = 1 then Ok ()
      else fail (Errors.Internal (Printf.sprintf "update_subset hit %d rows" n))
    else
      (* requester-side read-modify-rewrite *)
      stp.stp (fun () -> Fs.update_row_via_key fs env.fe_acct ~tx ~key assigns)
  in
  match Oracle.v_lookup view ~file:acct_file ~key with
  | Some row ->
      let row' = Array.copy row in
      (match row.(1) with
      | Row.Vfloat b -> row'.(1) <- Row.Vfloat (b +. delta)
      | _ -> ());
      Oracle.v_update view ~file:acct_file row';
      Ok ()
  | None -> fail (Errors.Internal "oracle lost a committed account")

let append_hist env ~tx ~view ~stp record =
  let fs = N.fs env.fe_node in
  let* _addr = stp.stp (fun () -> Fs.append_entry fs env.fe_hist ~tx ~record) in
  Oracle.v_append view ~file:hist_file ~record;
  Ok ()

let pick_two prng xs =
  let n = List.length xs in
  let i = Prng.int prng n in
  let j0 = Prng.int prng (n - 1) in
  let j = if j0 >= i then j0 + 1 else j0 in
  (List.nth xs i, List.nth xs j)

let acctno_of (_key, row) =
  match row.(0) with Row.Vint a -> a | _ -> -1

let fs_transfer ctx env prng =
  let accounts = Oracle.rows ctx.cx_oracle ~file:acct_file in
  if List.length accounts < 2 then ()
  else
    with_fs_tx ctx env.fe_node (fun ~tx ~view ~stp ->
        let a, b = pick_two prng accounts in
        let delta = float_of_int (1 + Prng.int prng 49) in
        let* () = bump_balance env prng ~tx ~view ~stp ~key:(fst a) ~delta in
        let* () =
          bump_balance env prng ~tx ~view ~stp ~key:(fst b)
            ~delta:(-.delta)
        in
        let* () =
          if Prng.bool prng then
            append_hist env ~tx ~view ~stp
              (Printf.sprintf "xfer %d %d %.0f" (acctno_of a) (acctno_of b)
                 delta)
          else Ok ()
        in
        Ok `Commit)

let acct_insert ctx env prng =
  with_fs_tx ctx env.fe_node (fun ~tx ~view ~stp ->
      let a = env.fe_next_acct in
      env.fe_next_acct <- a + 1 + Prng.int prng 3;
      let row =
        [|
          Row.Vint a;
          Row.Vfloat (float_of_int (100 + Prng.int prng 900));
          Row.Vint (Prng.int prng 5);
          (if Prng.bool prng then Row.Vstr "new" else Row.Null);
        |]
      in
      let fs = N.fs env.fe_node in
      let* () = stp.stp (fun () -> Fs.insert_row fs env.fe_acct ~tx row) in
      Oracle.v_insert view ~file:acct_file row;
      let* () = append_hist env ~tx ~view ~stp (Printf.sprintf "ins %d" a) in
      Ok `Commit)

let acct_delete ctx env prng =
  if Oracle.row_count ctx.cx_oracle ~file:acct_file < 15 then
    acct_insert ctx env prng
  else
    with_fs_tx ctx env.fe_node (fun ~tx ~view ~stp ->
        let accounts = Oracle.rows ctx.cx_oracle ~file:acct_file in
        let victim = List.nth accounts (Prng.int prng (List.length accounts)) in
        let fs = N.fs env.fe_node in
        let* () =
          stp.stp (fun () ->
              Fs.delete_row_via_key fs env.fe_acct ~tx ~key:(fst victim))
        in
        Oracle.v_delete view ~file:acct_file ~key:(fst victim);
        let* () =
          append_hist env ~tx ~view ~stp
            (Printf.sprintf "del %d" (acctno_of victim))
        in
        Ok `Commit)

let item_key env k =
  Errors.get_ok ~ctx:"chaos: item key"
    (Row.key_of_values env.fe_item_schema [ Row.Vint k ])

let exec_affected session sql =
  match N.exec session sql with
  | Ok (N.Affected n) -> Ok n
  | Ok _ -> Ok 0
  | Error e -> Error e

(* mirror a qty bump for item [k] if the statement touched one row *)
let mirror_item_bump ctx env view k d n =
  if n = 1 then
    let key = item_key env k in
    match Oracle.v_lookup view ~file:env.fe_item_name ~key with
    | Some row ->
        let row' = Array.copy row in
        (match row.(1) with
        | Row.Vint q -> row'.(1) <- Row.Vint (q + d)
        | _ -> ());
        Oracle.v_update view ~file:env.fe_item_name row';
        Ok ()
    | None -> fail (Errors.Internal "oracle lost a committed item")
  else begin
    ignore ctx;
    Ok ()
  end

let sql_item_transfer ctx env prng =
  let items = Oracle.rows ctx.cx_oracle ~file:env.fe_item_name in
  if List.length items < 2 then ()
  else
    with_sql_tx ctx env.fe_session (fun ~view ~stp ->
        let a, b = pick_two prng items in
        let ka = acctno_of a and kb = acctno_of b in
        let d = 1 + Prng.int prng 20 in
        let* na =
          stp.stp (fun () ->
              exec_affected env.fe_session
                (Printf.sprintf "UPDATE item SET qty = qty + %d WHERE k = %d" d
                   ka))
        in
        let* () = mirror_item_bump ctx env view ka d na in
        let* nb =
          stp.stp (fun () ->
              exec_affected env.fe_session
                (Printf.sprintf "UPDATE item SET qty = qty - %d WHERE k = %d" d
                   kb))
        in
        let* () = mirror_item_bump ctx env view kb (-d) nb in
        Ok `Commit)

let sql_item_churn ctx env prng =
  let items = Oracle.rows ctx.cx_oracle ~file:env.fe_item_name in
  let do_insert = List.length items <= 6 || Prng.bool prng in
  with_sql_tx ctx env.fe_session (fun ~view ~stp ->
      if do_insert then begin
        let k = env.fe_next_item in
        env.fe_next_item <- k + 1 + Prng.int prng 2;
        let q = 50 + Prng.int prng 200 in
        let* n =
          stp.stp (fun () ->
              exec_affected env.fe_session
                (Printf.sprintf "INSERT INTO item VALUES (%d, %d, 'c%d')" k q k))
        in
        if n = 1 then
          Oracle.v_insert view ~file:env.fe_item_name
            [| Row.Vint k; Row.Vint q; Row.Vstr (Printf.sprintf "c%d" k) |];
        Ok `Commit
      end
      else begin
        let victim = List.nth items (Prng.int prng (List.length items)) in
        let k = acctno_of victim in
        let* n =
          stp.stp (fun () ->
              exec_affected env.fe_session
                (Printf.sprintf "DELETE FROM item WHERE k = %d" k))
        in
        if n = 1 then
          Oracle.v_delete view ~file:env.fe_item_name ~key:(item_key env k);
        Ok `Commit
      end)

(* a read-only transaction that drains a full scan (base or via the
   secondary index) and cross-checks it against the oracle mid-run — this
   is where takeover-mid-scan and message flaps must not lose, duplicate
   or reorder rows under the continuation re-drive protocol *)
let scan_check ctx env prng =
  with_fs_tx ctx env.fe_node (fun ~tx ~view:_ ~stp ->
      let fs = N.fs env.fe_node in
      if Prng.bool prng then begin
        let sc =
          Fs.open_scan fs env.fe_acct ~tx ~access:Fs.A_vsbb
            ~range:Expr.full_range ~lock:Dp_msg.L_none ()
        in
        let rec loop acc =
          match stp.stp (fun () -> Fs.scan_next fs sc) with
          | Ok None -> Ok (List.rev acc)
          | Ok (Some row) -> loop (row :: acc)
          | Error e -> Error e
        in
        let* rows =
          Fun.protect
            ~finally:(fun () -> Fs.close_scan fs sc)
            (fun () -> loop [])
        in
        let actual =
          List.map (fun r -> (Row.key_of_row env.fe_acct_schema r, r)) rows
        in
        List.iter
          (fun v -> add_vio ctx ("mid-run scan: " ^ v))
          (Oracle.check_file ctx.cx_oracle ~file:acct_file ~actual);
        Ok `Commit
      end
      else begin
        let* sc =
          stp.stp (fun () ->
              Fs.open_index_scan fs env.fe_acct ~tx ~index:acct_index
                ~range:Expr.full_range ~lock:Dp_msg.L_none ())
        in
        let rec loop acc =
          match stp.stp (fun () -> Fs.scan_next fs sc) with
          | Ok None -> Ok (List.rev acc)
          | Ok (Some row) -> loop (row :: acc)
          | Error e -> Error e
        in
        (* close on raise too, not just on the fall-through path *)
        let* rows =
          Fun.protect
            ~finally:(fun () -> Fs.close_scan fs sc)
            (fun () -> loop [])
        in
        List.iter
          (fun v -> add_vio ctx ("mid-run index scan: " ^ v))
          (Oracle.check_index ctx.cx_oracle ~file:acct_file ~index:acct_index
             ~actual:rows);
        Ok `Commit
      end)

let deliberate_abort ctx env prng =
  let accounts = Oracle.rows ctx.cx_oracle ~file:acct_file in
  if List.length accounts < 2 then ()
  else
    with_fs_tx ctx env.fe_node (fun ~tx ~view ~stp ->
        let a, b = pick_two prng accounts in
        let delta = float_of_int (1 + Prng.int prng 30) in
        let* () = bump_balance env prng ~tx ~view ~stp ~key:(fst a) ~delta in
        let* () =
          if Prng.bool prng then
            bump_balance env prng ~tx ~view ~stp ~key:(fst b)
              ~delta:(-.delta)
          else Ok ()
        in
        (* changed our mind: the undo protocol must erase everything *)
        Ok `Abort)

let dc_tx ctx env prng =
  ctx.cx_attempted <- ctx.cx_attempted + 1;
  let aid = Prng.int prng env.fe_dc_accounts in
  let delta =
    float_of_int (1 + Prng.int prng 100)
    *. (if Prng.bool prng then 1. else -1.)
  in
  match Debitcredit.run_sql_tx env.fe_dc env.fe_session ~aid ~delta with
  | Ok () ->
      ctx.cx_committed <- ctx.cx_committed + 1;
      env.fe_dc_sum <- env.fe_dc_sum +. delta;
      env.fe_dc_count <- env.fe_dc_count + 1
  | Error _ ->
      aborted ctx;
      (* never leave the shared session stuck in a half-open transaction *)
      (match N.current_tx env.fe_session with
      | Some _ -> ignore (N.exec env.fe_session "ROLLBACK WORK")
      | None -> ())

let single_tx ctx env prng =
  match Prng.int prng 10 with
  | 0 | 1 -> fs_transfer ctx env prng
  | 2 -> acct_insert ctx env prng
  | 3 -> acct_delete ctx env prng
  | 4 | 5 -> sql_item_transfer ctx env prng
  | 6 -> sql_item_churn ctx env prng
  | 7 -> scan_check ctx env prng
  | 8 -> deliberate_abort ctx env prng
  | _ -> dc_tx ctx env prng

let verify_single ctx env =
  let node = env.fe_node in
  let sim = N.sim node in
  poll_idle ctx;
  Sim.drain sim;
  poll_idle ctx;
  (* the strongest durability probe: lose every volume, roll the audit
     trail forward, and require the committed state back *)
  Array.iteri
    (fun i _ ->
      N.crash_volume node i;
      recover_one ctx 0 i)
    (N.dps node);
  Array.iter
    (fun dp ->
      match Dp.check_invariants dp with
      | Ok () -> ()
      | Error m -> add_vio ctx ("invariant: " ^ m))
    (N.dps node);
  check_dump ctx acct_file
    (Result.map
       (fun actual -> Oracle.check_file ctx.cx_oracle ~file:acct_file ~actual)
       (dump_keyed node env.fe_acct env.fe_acct_schema));
  check_dump ctx (acct_file ^ "." ^ acct_index)
    (Result.map
       (fun actual ->
         Oracle.check_index ctx.cx_oracle ~file:acct_file ~index:acct_index
           ~actual)
       (dump_index node env.fe_acct acct_index));
  check_dump ctx hist_file
    (Result.map
       (fun actual -> Oracle.check_entries ctx.cx_oracle ~file:hist_file ~actual)
       (dump_entries node env.fe_hist));
  (match N.Catalog.find (N.catalog node) "item" with
  | Error e -> add_vio ctx ("item lookup failed: " ^ Errors.to_string e)
  | Ok tbl ->
      check_dump ctx env.fe_item_name
        (Result.map
           (fun actual ->
             Oracle.check_file ctx.cx_oracle ~file:env.fe_item_name ~actual)
           (dump_keyed node tbl.N.Catalog.t_file env.fe_item_schema));
      check_dump ctx (env.fe_item_name ^ ".item_qty")
        (Result.map
           (fun actual ->
             Oracle.check_index ctx.cx_oracle ~file:env.fe_item_name
               ~index:"item_qty" ~actual)
           (dump_index node tbl.N.Catalog.t_file "item_qty")));
  (* the workload invariant: money is conserved across every committed
     DebitCredit transaction, and the history grew exactly once each *)
  match Debitcredit.sql_balances env.fe_dc env.fe_session with
  | Error e -> add_vio ctx ("DebitCredit balances failed: " ^ Errors.to_string e)
  | Ok (sum, hcount) ->
      let expected = (1000. *. float_of_int env.fe_dc_accounts) +. env.fe_dc_sum in
      if Float.abs (sum -. expected) > 1e-6 then
        add_vio ctx
          (Printf.sprintf
             "DebitCredit conservation: balances sum to %.6f, oracle expects \
              %.6f"
             sum expected);
      if hcount <> env.fe_dc_count then
        add_vio ctx
          (Printf.sprintf "DebitCredit history: %d records, oracle expects %d"
             hcount env.fe_dc_count)

(* --- the cluster workload --------------------------------------------------- *)

let cl_file i = Printf.sprintf "CLACCT%d" i

type clenv = {
  ce_cluster : N.cluster;
  ce_nodes : N.node array;
  ce_schema : Row.schema;
  ce_files : Fs.file array;
  ce_accounts : int;
}

let setup_cluster oracle cluster =
  let nodes = N.cluster_nodes cluster in
  let schema =
    Row.schema
      [| Row.column "acctno" Row.T_int; Row.column "balance" Row.T_float |]
      ~key:[ "acctno" ]
  in
  let accounts = 12 in
  let files =
    Array.mapi
      (fun i node ->
        let fs = N.fs node in
        let file =
          Errors.get_ok ~ctx:"chaos: create CLACCT"
            (Fs.create_file fs ~fname:(cl_file i) ~schema
               ~partitions:[ { Fs.ps_lo = ""; ps_dp = (N.dps node).(0) } ]
               ~indexes:[] ())
        in
        Oracle.add_file oracle ~name:(cl_file i) ~schema ~indexes:[];
        let view = Oracle.view oracle in
        Errors.get_ok ~ctx:"chaos: load CLACCT"
          (Tmf.run (N.tmf node) (fun tx ->
               let rec go j =
                 if j >= accounts then Ok ()
                 else
                   let row = [| Row.Vint j; Row.Vfloat 100. |] in
                   let* () = Fs.insert_row fs file ~tx row in
                   Oracle.v_insert view ~file:(cl_file i) row;
                   go (j + 1)
               in
               go 0));
        Oracle.commit oracle view;
        file)
      nodes
  in
  { ce_cluster = cluster; ce_nodes = nodes; ce_schema = schema;
    ce_files = files; ce_accounts = accounts }

let cl_key env j =
  Errors.get_ok ~ctx:"chaos: cluster key"
    (Row.key_of_values env.ce_schema [ Row.Vint j ])

(* add [delta] to account [j] of node [i]'s file under transaction [tx] *)
let cl_bump env ~view ~stp ~node:i ~tx ~j ~delta =
  let fs = N.fs env.ce_nodes.(i) in
  let key = cl_key env j in
  let assigns =
    [
      Expr.
        {
          target = 1;
          source = Binop (Add, Field 1, Const (Row.Vfloat delta));
        };
    ]
  in
  let* () =
    stp.stp (fun () -> Fs.update_row_via_key fs env.ce_files.(i) ~tx ~key assigns)
  in
  match Oracle.v_lookup view ~file:(cl_file i) ~key with
  | Some row ->
      let row' = Array.copy row in
      (match row.(1) with
      | Row.Vfloat b -> row'.(1) <- Row.Vfloat (b +. delta)
      | _ -> ());
      Oracle.v_update view ~file:(cl_file i) row';
      Ok ()
  | None -> fail (Errors.Internal "oracle lost a committed cluster account")

(* a transfer within one node: plain local transaction *)
let cl_local_tx ctx env prng =
  let i = Prng.int prng 2 in
  with_fs_tx ctx env.ce_nodes.(i) (fun ~tx ~view ~stp ->
      let a = Prng.int prng env.ce_accounts in
      let b0 = Prng.int prng (env.ce_accounts - 1) in
      let b = if b0 >= a then b0 + 1 else b0 in
      let delta = float_of_int (1 + Prng.int prng 20) in
      let* () = cl_bump env ~view ~stp ~node:i ~tx ~j:a ~delta in
      let* () = cl_bump env ~view ~stp ~node:i ~tx ~j:b ~delta:(-.delta) in
      Ok (if Prng.int prng 8 = 0 then `Abort else `Commit))

(* a cross-node transfer under normal two-phase commit *)
let cl_transfer_normal ctx env ~src ~dst ~a ~b ~delta =
  ctx.cx_attempted <- ctx.cx_attempted + 1;
  let view = Oracle.view ctx.cx_oracle in
  match N.network_tx env.ce_cluster ~home:src with
  | Error _ -> aborted ctx
  | Ok d -> (
      let abort () = ignore (Dtx.abort d) in
      let stp = { stp = (fun op -> step ctx ~abort op) } in
      let body =
        let tx_src = Dtx.coordinator_tx d in
        let* () = cl_bump env ~view ~stp ~node:src ~tx:tx_src ~j:a ~delta:(-.delta) in
        let* tx_dst = stp.stp (fun () -> Dtx.branch d ~node_id:dst) in
        cl_bump env ~view ~stp ~node:dst ~tx:tx_dst ~j:b ~delta
      in
      match body with
      | Error _ ->
          abort ();
          aborted ctx
      | Ok () -> (
          match Dtx.commit d with
          | Ok () -> committed ctx view
          | Error _ -> aborted ctx))

(* a cross-node transfer whose coordinator is lost between PREPARE and the
   decision reaching the participant: the branch is in-doubt and must
   resolve against the coordinator node's audit trail — optionally after
   crashing the participant volume too *)
let cl_transfer_2pc_fault ctx env prng ~src ~dst ~a ~b ~delta ~commit
    ~participant_crash =
  ignore prng;
  ctx.cx_attempted <- ctx.cx_attempted + 1;
  let tmf_src = N.tmf env.ce_nodes.(src)
  and tmf_dst = N.tmf env.ce_nodes.(dst) in
  let tx_src = Tmf.begin_tx tmf_src in
  let tx_dst = Tmf.begin_tx tmf_dst in
  let view = Oracle.view ctx.cx_oracle in
  let abort_both () =
    if Tmf.is_active tmf_dst ~tx:tx_dst then ignore (Tmf.abort tmf_dst ~tx:tx_dst);
    if Tmf.is_active tmf_src ~tx:tx_src then ignore (Tmf.abort tmf_src ~tx:tx_src)
  in
  let stp = { stp = (fun op -> step ctx ~abort:abort_both op) } in
  let body =
    let* () = cl_bump env ~view ~stp ~node:src ~tx:tx_src ~j:a ~delta:(-.delta) in
    let* () = cl_bump env ~view ~stp ~node:dst ~tx:tx_dst ~j:b ~delta in
    Tmf.prepare tmf_dst ~tx:tx_dst ~coordinator_node:src ~coordinator_tx:tx_src
  in
  match body with
  | Error _ ->
      abort_both ();
      aborted ctx
  | Ok () ->
      (* the participant is now in-doubt; the coordinator process dies
         right after (or before) forcing its decision *)
      (if commit then ignore (Tmf.commit tmf_src ~tx:tx_src)
       else ignore (Tmf.abort tmf_src ~tx:tx_src));
      if participant_crash then begin
        N.crash_volume env.ce_nodes.(dst) 0;
        recover_one ctx dst 0
      end;
      let resolved =
        Recovery.coordinator_committed (N.trail env.ce_nodes.(src)) ~tx:tx_src
      in
      if resolved <> commit then
        add_vio ctx
          (Printf.sprintf
             "2PC resolution mismatch: coordinator decided %s but trail says %s"
             (if commit then "commit" else "abort")
             (if resolved then "commit" else "abort"));
      if Tmf.in_flight tmf_dst ~tx:tx_dst then
        ignore
          (if resolved then Tmf.commit tmf_dst ~tx:tx_dst
           else Tmf.abort tmf_dst ~tx:tx_dst);
      if commit then committed ctx view else aborted ctx

let cl_transfer ctx env prng =
  let src = if Prng.bool prng then 0 else 1 in
  let dst = 1 - src in
  let a = Prng.int prng env.ce_accounts in
  let b = Prng.int prng env.ce_accounts in
  let delta = float_of_int (1 + Prng.int prng 20) in
  match take_2pc ctx.cx_engine with
  | Some (commit, participant_crash) ->
      cl_transfer_2pc_fault ctx env prng ~src ~dst ~a ~b ~delta ~commit
        ~participant_crash
  | None -> cl_transfer_normal ctx env ~src ~dst ~a ~b ~delta

let cl_scan_check ctx env prng =
  let i = Prng.int prng 2 in
  with_fs_tx ctx env.ce_nodes.(i) (fun ~tx ~view:_ ~stp ->
      let fs = N.fs env.ce_nodes.(i) in
      let sc =
        Fs.open_scan fs env.ce_files.(i) ~tx ~access:Fs.A_vsbb
          ~range:Expr.full_range ~lock:Dp_msg.L_none ()
      in
      let rec loop acc =
        match stp.stp (fun () -> Fs.scan_next fs sc) with
        | Ok None -> Ok (List.rev acc)
        | Ok (Some row) -> loop (row :: acc)
        | Error e -> Error e
      in
      let* rows =
        Fun.protect
          ~finally:(fun () -> Fs.close_scan fs sc)
          (fun () -> loop [])
      in
      let actual =
        List.map (fun r -> (Row.key_of_row env.ce_schema r, r)) rows
      in
      List.iter
        (fun v -> add_vio ctx ("mid-run scan: " ^ v))
        (Oracle.check_file ctx.cx_oracle ~file:(cl_file i) ~actual);
      Ok `Commit)

let cluster_tx ctx env prng =
  match Prng.int prng 8 with
  | 0 | 1 | 2 -> cl_local_tx ctx env prng
  | 3 | 4 | 5 | 6 -> cl_transfer ctx env prng
  | _ -> cl_scan_check ctx env prng

let verify_cluster ctx env =
  let sim = N.sim env.ce_nodes.(0) in
  poll_idle ctx;
  Sim.drain sim;
  poll_idle ctx;
  Array.iteri
    (fun i node ->
      N.crash_volume node 0;
      recover_one ctx i 0)
    env.ce_nodes;
  Array.iter
    (fun node ->
      Array.iter
        (fun dp ->
          match Dp.check_invariants dp with
          | Ok () -> ()
          | Error m -> add_vio ctx ("invariant: " ^ m))
        (N.dps node))
    env.ce_nodes;
  let total = ref 0. in
  Array.iteri
    (fun i node ->
      match dump_keyed node env.ce_files.(i) env.ce_schema with
      | Error e ->
          add_vio ctx (cl_file i ^ " dump failed: " ^ Errors.to_string e)
      | Ok actual ->
          List.iter (add_vio ctx)
            (Oracle.check_file ctx.cx_oracle ~file:(cl_file i) ~actual);
          List.iter
            (fun (_k, row) ->
              match row.(1) with
              | Row.Vfloat b -> total := !total +. b
              | _ -> ())
            actual)
    env.ce_nodes;
  (* transfers and local bumps both conserve money, committed or not *)
  let expected = float_of_int (2 * env.ce_accounts) *. 100. in
  if Float.abs (!total -. expected) > 1e-6 then
    add_vio ctx
      (Printf.sprintf
         "cluster conservation: balances sum to %.6f, expected %.6f" !total
         expected)

(* --- reports ---------------------------------------------------------------- *)

type report = {
  r_seed : int;
  r_topology : topology;
  r_txs_attempted : int;
  r_txs_committed : int;
  r_txs_aborted : int;
  r_faults : (string * int) list;
  r_recoveries : int;
  r_violations : string list;
  r_stats : Stats.t;
}

let report_of ctx ~seed ~topology sim =
  {
    r_seed = seed;
    r_topology = topology;
    r_txs_attempted = ctx.cx_attempted;
    r_txs_committed = ctx.cx_committed;
    r_txs_aborted = ctx.cx_aborted;
    r_faults =
      List.map
        (fun k ->
          (k, Option.value ~default:0 (Hashtbl.find_opt ctx.cx_engine.en_applied k)))
        fault_kinds;
    r_recoveries = ctx.cx_recoveries;
    r_violations = List.rev ctx.cx_violations;
    r_stats = Sim.snapshot sim;
  }

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>chaos seed %d (%a): %d transactions = %d committed + %d aborted@,\
     faults applied:" r.r_seed pp_topology r.r_topology r.r_txs_attempted
    r.r_txs_committed r.r_txs_aborted;
  List.iter
    (fun (k, n) -> if n > 0 then Format.fprintf ppf " %s x%d" k n)
    r.r_faults;
  Format.fprintf ppf
    "@,%d volume recoveries; %d messages, %d disk reads, %d disk writes, %d \
     path retries, %d transient I/O errors"
    r.r_recoveries r.r_stats.Stats.msgs_sent r.r_stats.Stats.disk_reads
    r.r_stats.Stats.disk_writes r.r_stats.Stats.msg_path_retries
    r.r_stats.Stats.disk_transient_errors;
  (match r.r_violations with
  | [] -> Format.fprintf ppf "@,ACID: no violations"
  | vs ->
      Format.fprintf ppf "@,%d VIOLATION(S):" (List.length vs);
      List.iter (fun v -> Format.fprintf ppf "@,  %s" v) vs);
  Format.fprintf ppf "@]"

(* --- contended multi-terminal runs ------------------------------------------ *)

type contention_report = {
  n_seed : int;
  n_terminals : int;
  n_accounts : int;
  n_transfers : Debitcredit.transfer_report;
  n_lock_waits : int;
  n_deadlocks : int;
  n_violations : string list;
  n_stats : Stats.t;
}

let pp_contention_report ppf r =
  let t = r.n_transfers in
  Format.fprintf ppf
    "@[<v>contention seed %d: %d terminals over %d hot accounts@,\
     %d committed, %d deadlock aborts, %d timeout aborts, %d retries, %d \
     abandoned@,\
     %d lock waits queued, %d deadlocks detected, %d takeovers, %d messages"
    r.n_seed r.n_terminals r.n_accounts t.Debitcredit.x_committed
    t.Debitcredit.x_deadlock_aborts t.Debitcredit.x_timeout_aborts
    t.Debitcredit.x_retries
    t.Debitcredit.x_failed r.n_lock_waits r.n_deadlocks
    r.n_stats.Stats.takeovers r.n_stats.Stats.msgs_sent;
  (match r.n_violations with
  | [] -> Format.fprintf ppf "@,no violations"
  | vs ->
      Format.fprintf ppf "@,%d VIOLATION(S):" (List.length vs);
      List.iter (fun v -> Format.fprintf ppf "@,  %s" v) vs);
  Format.fprintf ppf "@]"

(* [run_contention ~seed ()] drives genuinely interleaved terminal
   sessions against one node with DP-side lock waiting on, optionally
   under seeded message delays, and verifies the committed state against
   a per-account mirror maintained by the on-commit hook. *)
let run_contention ?(terminals = 4) ?(txs_per_terminal = 10)
    ?(takeover = false) ~seed () =
  let prng = Prng.create ~seed in
  let accounts = 3 + Prng.int prng 4 in
  let config =
    Nsql_sim.Config.v ~dp_lock_wait:true ~lock_wait_timeout_us:150_000. ()
  in
  let node = N.create_node ~config ~volumes:2 () in
  let engine = engine_create (N.sim node) in
  (* a few seeded message delays against the hot volume shuffle arrival
     order without breaking determinism *)
  let events =
    List.init
      (1 + Prng.int prng 3)
      (fun _ ->
        {
          due = Prng.float prng 300_000.;
          fault =
            F_msg_delay
              {
                victim = "$DATA1";
                delay_us = 100. +. Prng.float prng 900.;
                count = 1 + Prng.int prng 4;
              };
        })
    |> List.sort (fun a b -> compare a.due b.due)
  in
  let db =
    Errors.get_ok ~ctx:"contention: setup"
      (Debitcredit.setup_transfer node ~accounts)
  in
  arm engine [| node |] events;
  (* with [takeover] set, fail the hot volume's primary mid-run: terminals
     are mid-scan, parked on the wait queue, or between phases when the
     backup resumes. Drawn from the same stream, but only after every
     existing draw, so [takeover:false] runs replay byte-identically. *)
  if takeover then begin
    let due = 20_000. +. Prng.float prng 120_000. in
    Sim.schedule (N.sim node) ~at:due (fun () ->
        ignore (N.takeover_volume node 0))
  end;
  (* the oracle: expected per-account balances, updated once per commit *)
  let expected = Array.make accounts 1000. in
  let on_commit ~src ~dst ~delta =
    expected.(src) <- expected.(src) -. delta;
    expected.(dst) <- expected.(dst) +. delta
  in
  let transfers =
    Debitcredit.run_transfers ~on_commit db ~terminals ~txs_per_terminal ()
  in
  Sim.drain (N.sim node);
  let violations = ref [] in
  let vio v = violations := v :: !violations in
  (match Debitcredit.transfer_balances db with
  | Error e -> vio ("balance dump failed: " ^ Errors.to_string e)
  | Ok balances ->
      List.iter
        (fun (aid, b) ->
          if Float.abs (b -. expected.(aid)) > 1e-6 then
            vio
              (Printf.sprintf
                 "account %d: balance %.6f, oracle expects %.6f" aid b
                 expected.(aid)))
        balances;
      let total = List.fold_left (fun acc (_, b) -> acc +. b) 0. balances in
      let conserved = 1000. *. float_of_int accounts in
      if Float.abs (total -. conserved) > 1e-6 then
        vio
          (Printf.sprintf
             "conservation: balances sum to %.6f, expected %.6f" total
             conserved));
  let finished =
    transfers.Debitcredit.x_committed + transfers.Debitcredit.x_failed
  in
  if finished <> terminals * txs_per_terminal then
    vio
      (Printf.sprintf "accounting: %d transfers finished, expected %d"
         finished (terminals * txs_per_terminal));
  let s = Sim.stats (N.sim node) in
  {
    n_seed = seed;
    n_terminals = terminals;
    n_accounts = accounts;
    n_transfers = transfers;
    n_lock_waits = s.Stats.lock_waits;
    n_deadlocks = s.Stats.deadlocks;
    n_violations = List.rev !violations;
    n_stats = Sim.snapshot (N.sim node);
  }

(* --- entry point ------------------------------------------------------------- *)

let run ?(txs = 120) ?topology ~seed () =
  let p_topology =
    match topology with Some t -> t | None -> default_topology seed
  in
  let plan_prng, wl_prng = streams ~seed in
  let events =
    build_plan plan_prng ~topology:p_topology ~horizon:(horizon_of txs)
  in
  let oracle = Oracle.create () in
  match p_topology with
  | Single ->
      let node = N.create_node ~volumes:2 () in
      let engine = engine_create (N.sim node) in
      let ctx =
        ctx_create ~nodes:[| node |] ~cluster:None ~engine ~oracle
      in
      let env = setup_single oracle node in
      arm engine ctx.cx_nodes events;
      for _ = 1 to txs do
        poll_idle ctx;
        single_tx ctx env wl_prng
      done;
      verify_single ctx env;
      report_of ctx ~seed ~topology:p_topology (N.sim node)
  | Cluster ->
      let cluster = N.create_cluster ~nodes:2 () in
      let nodes = N.cluster_nodes cluster in
      let engine = engine_create (N.sim nodes.(0)) in
      let ctx =
        ctx_create ~nodes ~cluster:(Some cluster) ~engine ~oracle
      in
      let env = setup_cluster oracle cluster in
      arm engine ctx.cx_nodes events;
      for _ = 1 to txs do
        poll_idle ctx;
        cluster_tx ctx env wl_prng
      done;
      verify_cluster ctx env;
      report_of ctx ~seed ~topology:p_topology (N.sim nodes.(0))
