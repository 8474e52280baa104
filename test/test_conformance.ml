(* The ENSCRIBE conformance matrix: every (file kind × ENSCRIBE call) pair
   runs random sequences of committed and aborted transactions against a
   [Map] model of the file. The kinds are a key-sequenced file of one and
   of three partitions, a relative file (a record's key is
   [Keycode.of_int slot]) and an entry-sequenced file (a record's key is
   [Keycode.of_int addr], the address WRITE assigned it). ENSCRIBE does
   not define REWRITE or DELETE on an entry-sequenced file: there both
   must answer [Bad_request] and change nothing. *)

open Harness
module Enscribe = Nsql_enscribe.Enscribe
module Dp_msg = Nsql_dp.Dp_msg
module Smap = Map.Make (String)

type kind = Ks1 | Ks3 | Rel | Ent

type call =
  | Read
  | Readnext
  | Readnext_sbb
  | Write
  | Rewrite
  | Delete
  | Lockfile
  | Lockgeneric

let kind_name = function
  | Ks1 -> "key-sequenced"
  | Ks3 -> "key-sequenced 3-part"
  | Rel -> "relative"
  | Ent -> "entry-sequenced"

let call_name = function
  | Read -> "read"
  | Readnext -> "readnext"
  | Readnext_sbb -> "readnext SBB"
  | Write -> "write"
  | Rewrite -> "rewrite"
  | Delete -> "delete"
  | Lockfile -> "lockfile"
  | Lockgeneric -> "lockgeneric"

(* One step of a transaction: [call] at key choice [key] (a record number
   for the keyed kinds, an index into the current records for an entry
   file), with [record] to write and [count] records to read on. *)
type op = { call : call; key : int; record : string; count : int }

type tx_script = { ops : op list; commit : bool }

let keys = 12

let print_op o =
  Printf.sprintf "%s(%d,%S,%d)" (call_name o.call) o.key o.record o.count

let print_script txs =
  String.concat "; "
    (List.map
       (fun t ->
         Printf.sprintf "[%s] %s"
           (String.concat " " (List.map print_op t.ops))
           (if t.commit then "commit" else "abort"))
       txs)

(* a pair's sequences: WRITE populates the file, the call under test
   exercises it *)
let script_gen call =
  let open QCheck.Gen in
  let op =
    let* call = frequency [ (2, return Write); (3, return call) ] in
    let* key = int_bound (keys - 1) in
    let* record = map (Printf.sprintf "r%d") (int_bound 999) in
    let* count = int_range 1 4 in
    return { call; key; record; count }
  in
  let tx =
    let* ops = list_size (int_range 1 6) op in
    let* commit = frequencyl [ (3, true); (1, false) ] in
    return { ops; commit }
  in
  list_size (int_range 1 5) tx

let create n kind =
  let one = [ { Fs.ps_lo = ""; ps_dp = n.dps.(0) } ] in
  let kind', partitions =
    match kind with
    | Ks1 -> (Dp_msg.K_key_sequenced, one)
    | Ks3 ->
        ( Dp_msg.K_key_sequenced,
          List.init 3 (fun i ->
              { Fs.ps_lo = (if i = 0 then "" else Keycode.of_int (4 * i));
                ps_dp = n.dps.(i) }) )
    | Rel -> (Dp_msg.K_relative 80, one)
    | Ent -> (Dp_msg.K_entry_sequenced, one)
  in
  get_ok ~ctx:"create"
    (Fs.create_enscribe_file n.fs ~fname:"MATRIX" ~kind:kind' ~partitions)

let fail fmt = QCheck.Test.fail_reportf fmt

let err = function Ok _ -> "Ok" | Error e -> Errors.to_string e

let show_entries l =
  String.concat "," (List.map (fun (k, r) -> Printf.sprintf "%S=%s" k r) l)

(* up to [limit] records (every one for [None]) from the handle's position *)
let readnext_upto h ~tx ~lock limit =
  let rec go acc k =
    if k = Some 0 then Ok (List.rev acc)
    else
      match Enscribe.readnext h ~tx ~lock with
      | Ok None -> Ok (List.rev acc)
      | Ok (Some e) -> go (e :: acc) (Option.map pred k)
      | Error e -> Error e
  in
  go [] limit

(* every record of the file, read record-at-a-time without locks *)
let scan n file ~tx =
  readnext_upto (Enscribe.open_file n.fs file ~sbb:false) ~tx
    ~lock:Dp_msg.L_none None

let at_or_after from model =
  List.filter (fun (k, _) -> String.compare k from >= 0) (Smap.bindings model)

let rec take k = function
  | x :: rest when k > 0 -> x :: take (k - 1) rest
  | _ -> []

(* the key [o] addresses: a record number, or for an entry file one of
   the current records' addresses, or an address no record starts at *)
let key_of kind model o =
  match kind with
  | Ks1 | Ks3 | Rel -> Keycode.of_int o.key
  | Ent -> (
      let ks = List.map fst (Smap.bindings model) in
      match List.nth_opt ks (o.key mod (List.length ks + 1)) with
      | Some k -> k
      | None -> Keycode.of_int 1)

(* another transaction's locking read of [key] must wait *)
let probe_blocked n h key ~what =
  let tx = Tmf.begin_tx n.tmf in
  let r = Enscribe.read h ~tx ~key ~lock:Dp_msg.L_shared in
  get_ok ~ctx:"abort probe" (Tmf.abort n.tmf ~tx);
  match r with
  | Error (Errors.Lock_timeout _) -> ()
  | r -> fail "%s: probe read of %S: %s, not blocked" what key (err r)

(* Run one transaction of [kind]'s file against [model]; the model after
   the transaction's ops. *)
let run_ops n kind file h ~tx model ops =
  let locked = Hashtbl.create 8 in
  List.fold_left
    (fun model o ->
      let key = key_of kind model o in
      let what = print_op o in
      let present = Smap.find_opt key model in
      match (o.call, kind) with
      | Read, _ -> (
          let r = Enscribe.read h ~tx ~key ~lock:Dp_msg.L_shared in
          Hashtbl.replace locked key ();
          match (r, present) with
          | Ok got, Some want when String.equal got want -> model
          | Error (Errors.Not_found_key _), None -> model
          | r, _ -> fail "%s: %s" what (err r))
      | (Readnext | Readnext_sbb), _ ->
          (* under SBB the transaction first locks the file and reads on
             without record locks *)
          let sbb = o.call = Readnext_sbb in
          let rh = Enscribe.open_file n.fs file ~sbb in
          let lock, limit, want =
            if sbb then (Dp_msg.L_none, None, at_or_after key model)
            else (Dp_msg.L_shared, Some o.count, take o.count (at_or_after key model))
          in
          let read =
            let open Errors in
            let* () =
              if sbb then Enscribe.lockfile rh ~tx ~lock:Dp_msg.L_shared else Ok ()
            in
            Enscribe.keyposition rh ~key;
            readnext_upto rh ~tx ~lock limit
          in
          (match read with
          | Ok got when got = want -> ()
          | Ok got ->
              fail "%s: read [%s], model [%s]" what (show_entries got)
                (show_entries want)
          | Error e -> fail "%s: %s" what (Errors.to_string e));
          model
      | Write, Ent -> (
          match Enscribe.write h ~tx ~key ~record:o.record with
          | Error e -> fail "%s: %s" what (Errors.to_string e)
          | Ok () -> (
              (* the new record is the last, at an address past every
                 other record's *)
              match List.rev (get_ok ~ctx:"scan" (scan n file ~tx)) with
              | (k, r) :: before
                when String.equal r o.record
                     && List.rev before = Smap.bindings model
                     && not (Smap.mem k model) ->
                  Smap.add k r model
              | got -> fail "%s: file now [%s]" what (show_entries (List.rev got))))
      | Write, (Ks1 | Ks3 | Rel) -> (
          let r = Enscribe.write h ~tx ~key ~record:o.record in
          Hashtbl.replace locked key ();
          match (r, present) with
          | Ok (), None -> Smap.add key o.record model
          | Error (Errors.Duplicate_key _), Some _ -> model
          | r, _ -> fail "%s: %s" what (err r))
      | (Rewrite | Delete), Ent -> (
          let r =
            if o.call = Rewrite then Enscribe.rewrite h ~tx ~key ~record:o.record
            else Enscribe.delete h ~tx ~key
          in
          match r with
          | Error (Errors.Bad_request _) -> model
          | r -> fail "%s on an entry-sequenced file: %s" what (err r))
      | Rewrite, (Ks1 | Ks3 | Rel) -> (
          let r = Enscribe.rewrite h ~tx ~key ~record:o.record in
          Hashtbl.replace locked key ();
          match (r, present) with
          | Ok (), Some _ -> Smap.add key o.record model
          | Error (Errors.Not_found_key _), None -> model
          | r, _ -> fail "%s: %s" what (err r))
      | Delete, (Ks1 | Ks3 | Rel) -> (
          let r = Enscribe.delete h ~tx ~key in
          Hashtbl.replace locked key ();
          match (r, present) with
          | Ok (), Some _ -> Smap.remove key model
          | Error (Errors.Not_found_key _), None -> model
          | r, _ -> fail "%s: %s" what (err r))
      | Lockfile, _ ->
          (match Enscribe.lockfile h ~tx ~lock:Dp_msg.L_exclusive with
          | Ok () -> ()
          | Error e -> fail "%s: %s" what (Errors.to_string e));
          probe_blocked n h key ~what;
          (* the file lock covers appends at EOF and new keys too *)
          let tx' = Tmf.begin_tx n.tmf in
          let w = Enscribe.write h ~tx:tx' ~key ~record:"probe" in
          get_ok ~ctx:"abort probe" (Tmf.abort n.tmf ~tx:tx');
          (match w with
          | Error (Errors.Lock_timeout _) -> ()
          | r -> fail "%s: probe write: %s, not blocked" what (err r));
          model
      | Lockgeneric, _ -> (
          (match Enscribe.lockgeneric h ~tx ~prefix:key ~lock:Dp_msg.L_exclusive with
          | Ok () -> ()
          | Error e -> fail "%s: %s" what (Errors.to_string e));
          Hashtbl.replace locked key ();
          probe_blocked n h key ~what;
          (* a record this transaction has not locked stays readable *)
          match
            List.find_opt
              (fun (k, _) -> not (Hashtbl.mem locked k))
              (Smap.bindings model)
          with
          | None -> model
          | Some (k, want) -> (
              let tx' = Tmf.begin_tx n.tmf in
              let r = Enscribe.read h ~tx:tx' ~key:k ~lock:Dp_msg.L_shared in
              get_ok ~ctx:"abort probe" (Tmf.abort n.tmf ~tx:tx');
              match r with
              | Ok got when String.equal got want -> model
              | r -> fail "%s: probe read of uncovered %S: %s" what k (err r))))
    model ops

(* the file holds exactly [model], and counts as many records *)
let check_file n file model ~after =
  let got = get_ok ~ctx:"tx" (Tmf.run n.tmf (fun tx -> scan n file ~tx)) in
  if got <> Smap.bindings model then
    fail "after %s: file [%s], model [%s]" after (show_entries got)
      (show_entries (Smap.bindings model));
  match Fs.record_count n.fs file with
  | Ok c when c = Smap.cardinal model -> ()
  | r -> fail "after %s: record count %s, model %d" after
           (match r with Ok c -> string_of_int c | Error e -> Errors.to_string e)
           (Smap.cardinal model)

let run kind txs =
  let n = node ~dps:3 () in
  let file = create n kind in
  let h = Enscribe.open_file n.fs file ~sbb:false in
  let model, _ =
    List.fold_left
      (fun (model, i) t ->
        let tx = Tmf.begin_tx n.tmf in
        let local = run_ops n kind file h ~tx model t.ops in
        let model =
          if t.commit then begin
            get_ok ~ctx:"commit" (Tmf.commit n.tmf ~tx);
            local
          end
          else begin
            get_ok ~ctx:"abort" (Tmf.abort n.tmf ~tx);
            model
          end
        in
        check_file n file model
          ~after:(Printf.sprintf "transaction %d (%s)" i
                    (if t.commit then "committed" else "aborted"));
        (model, i + 1))
      (Smap.empty, 1) txs
  in
  (* restart redoes the committed transactions on every volume: each kind
     comes back as the model, an entry file's appends at their addresses *)
  Array.iter Dp.crash n.dps;
  Array.iter (fun dp -> ignore (Dp.recover dp : Nsql_tmf.Recovery.outcome)) n.dps;
  check_file n file model ~after:"a restart of every volume";
  true

let pair kind call =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:30
       ~name:(Printf.sprintf "%s %s" (kind_name kind) (call_name call))
       (QCheck.make ~print:print_script (script_gen call))
       (run kind))

let suite =
  List.concat_map
    (fun kind ->
      List.map (pair kind)
        [ Read; Readnext; Readnext_sbb; Write; Rewrite; Delete; Lockfile; Lockgeneric ])
    [ Ks1; Ks3; Rel; Ent ]
