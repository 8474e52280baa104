(* Shared test harness: brings up a simulated node with an audit trail,
   TMF, a configurable number of Disk Processes, and a File System
   requester. *)

module Sim = Nsql_sim.Sim
module Config = Nsql_sim.Config
module Msg = Nsql_msg.Msg
module Disk = Nsql_disk.Disk
module Trail = Nsql_audit.Trail
module Tmf = Nsql_tmf.Tmf
module Dp = Nsql_dp.Dp
module Fs = Nsql_fs.Fs
module Row = Nsql_row.Row
module Expr = Nsql_expr.Expr
module Errors = Nsql_util.Errors
module Keycode = Nsql_util.Keycode

type node = {
  sim : Sim.t;
  msys : Msg.system;
  trail : Trail.t;
  tmf : Tmf.t;
  dps : Dp.t array;
  fs : Fs.t;
  app_processor : Msg.processor;
}

(* One node: the requester runs on cpu 0, Disk Process i on cpu (i+1). *)
let node ?config ?(dps = 1) () =
  let sim = Sim.create ?config () in
  let msys = Msg.create sim in
  let audit_volume = Disk.create sim ~name:"$AUDIT" in
  let trail = Trail.create sim audit_volume in
  let tmf = Tmf.create sim trail in
  let dp_array =
    Array.init dps (fun i ->
        Dp.create sim msys tmf
          ~name:(Printf.sprintf "$DATA%d" (i + 1))
          ~processor:Msg.{ node = 0; cpu = i + 1 }
          ~backup:Msg.{ node = 0; cpu = ((i + 1) mod 4) + 4 }
          ())
  in
  let app_processor = Msg.{ node = 0; cpu = 0 } in
  let fs = Fs.create sim msys ~my_processor:app_processor in
  { sim; msys; trail; tmf; dps = dp_array; fs; app_processor }

let get_ok = Errors.get_ok

(* a small ACCOUNT-style schema used across the integration tests *)
let account_schema =
  Row.schema
    [|
      Row.column "acctno" Row.T_int;
      Row.column "balance" Row.T_float;
      Row.column "owner" (Row.T_varchar 24);
      Row.column ~nullable:true "note" (Row.T_varchar 40);
    |]
    ~key:[ "acctno" ]

let account ?(note = Row.Null) acct balance owner =
  [| Row.Vint acct; Row.Vfloat balance; Row.Vstr owner; note |]

let acct_key n =
  get_ok ~ctx:"key" (Row.key_of_values account_schema [ Row.Vint n ])

(* create the ACCOUNT file on the first [parts] Disk Processes, splitting
   the key space at multiples of [split] *)
let create_accounts ?(check = None) ?(parts = 1) ?(split = 1000)
    ?(indexes = []) n =
  let specs =
    List.init parts (fun i ->
        Fs.
          {
            ps_lo = (if i = 0 then "" else acct_key (i * split));
            ps_dp = n.dps.(i mod Array.length n.dps);
          })
  in
  get_ok ~ctx:"create ACCOUNT"
    (Fs.create_file n.fs ~fname:"ACCOUNT" ~schema:account_schema ?check
       ~partitions:specs ~indexes ())

let load_accounts n file count =
  let tx = Tmf.begin_tx n.tmf in
  for i = 0 to count - 1 do
    get_ok ~ctx:"load"
      (Fs.insert_row n.fs file ~tx
         (account i (float_of_int (100 * i)) (Printf.sprintf "owner-%04d" i)))
  done;
  get_ok ~ctx:"commit load" (Tmf.commit n.tmf ~tx)

(* run one transaction, failing the test on error *)
let in_tx n f =
  get_ok ~ctx:"tx" (Tmf.run n.tmf (fun tx -> f tx))

let full_range = Expr.full_range

(* a file's live record count, failing the test on an error reply *)
let record_count n file =
  get_ok ~ctx:"record count" (Fs.record_count n.fs file)

(* drain a scan into a list of rows *)
let drain_scan n sc =
  let rec go acc =
    match get_ok ~ctx:"scan_next" (Fs.scan_next n.fs sc) with
    | Some row -> go (row :: acc)
    | None -> List.rev acc
  in
  let rows = go [] in
  Fs.close_scan n.fs sc;
  rows
