module Fs = Nsql_fs.Fs
module Dp_msg = Nsql_dp.Dp_msg
module Keycode = Nsql_util.Keycode
module Errors = Nsql_util.Errors

open Errors

type handle = {
  fs : Fs.t;
  file : Fs.file;
  sbb : bool;
  mutable position : string;  (** next read starts at this key *)
  mutable inclusive : bool;
  mutable buffer : (string * string) list;  (** SBB de-blocking buffer *)
  mutable file_locked : bool;
}

let open_file fs file ~sbb =
  {
    fs;
    file;
    sbb;
    position = Keycode.low_value;
    inclusive = true;
    buffer = [];
    file_locked = false;
  }

let keyposition h ~key =
  h.position <- key;
  h.inclusive <- true;
  h.buffer <- []

let read h ~tx ~key ~lock = Fs.read h.fs h.file ~tx ~key ~lock

let readnext h ~tx ~lock =
  if h.sbb && not h.file_locked then
    fail
      (Errors.Bad_request
         "SBB readnext requires a prior LOCKFILE (record locks are not \
          effective under sequential block buffering)")
  else if h.sbb && lock <> Dp_msg.L_none then
    fail (Errors.Bad_request "SBB readnext takes no record locks")
  else begin
    match h.buffer with
    | (key, record) :: rest ->
        h.buffer <- rest;
        h.position <- key;
        h.inclusive <- false;
        Ok (Some (key, record))
    | [] ->
        let* entries =
          Fs.read_next_raw h.fs h.file ~tx ~from_key:h.position
            ~inclusive:h.inclusive ~lock ~sbb:h.sbb
        in
        (match entries with
        | [] -> Ok None
        | (key, record) :: rest ->
            h.buffer <- rest;
            h.position <- key;
            h.inclusive <- false;
            Ok (Some (key, record)))
  end

let write h ~tx ~key ~record = Fs.insert h.fs h.file ~tx ~key ~record
let rewrite h ~tx ~key ~record = Fs.update h.fs h.file ~tx ~key ~record
let delete h ~tx ~key = Fs.delete h.fs h.file ~tx ~key

let lockfile h ~tx ~lock =
  let* () = Fs.lock_file h.fs h.file ~tx ~lock in
  h.file_locked <- true;
  Ok ()

let lockgeneric h ~tx ~prefix ~lock =
  Fs.lock_generic h.fs h.file ~tx ~prefix ~lock
