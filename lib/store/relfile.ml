module Sim = Nsql_sim.Sim
module Config = Nsql_sim.Config
module Cache = Nsql_cache.Cache
module Disk = Nsql_disk.Disk
module Errors = Nsql_util.Errors

(* Slot layout inside a block: [u16 length+1 | record bytes | padding].
   A stored length field of 0 marks a free slot. *)

type t = {
  sim : Sim.t;
  cache : Cache.t;
  slot_size : int;
  slots_per_block : int;
  mutable blocks : int array;  (** i-th entry: disk block of slot group i *)
  mutable nblocks : int;
  mutable occupied : int;
  mutable first_free_hint : int;
}

let physical_slot_size t = t.slot_size + 2

let create sim cache ~slot_size =
  let bs = Config.block_size in
  if slot_size < 1 || slot_size + 2 > bs then
    invalid_arg "Relfile.create: bad slot size";
  {
    sim;
    cache;
    slot_size;
    slots_per_block = bs / (slot_size + 2);
    blocks = [||];
    nblocks = 0;
    occupied = 0;
    first_free_hint = 0;
  }

let slot_count t = t.nblocks * t.slots_per_block
let record_count t = t.occupied

let ensure_block t group =
  while group >= t.nblocks do
    let block = Disk.allocate (Cache.disk t.cache) 1 in
    if t.nblocks >= Array.length t.blocks then begin
      let grown = Array.make (max 16 (2 * Array.length t.blocks)) (-1) in
      Array.blit t.blocks 0 grown 0 t.nblocks;
      t.blocks <- grown
    end;
    t.blocks.(t.nblocks) <- block;
    t.nblocks <- t.nblocks + 1
  done

let fits t record = String.length record <= t.slot_size

let locate t slot = (slot / t.slots_per_block, slot mod t.slots_per_block)

(* the record in slot [idx] of a block's [data] *)
let slot_at t data idx =
  let off = idx * physical_slot_size t in
  let len = Char.code data.[off] lor (Char.code data.[off + 1] lsl 8) in
  if len = 0 then None else Some (String.sub data (off + 2) (len - 1))

let read_slot_raw t ~slot =
  let group, idx = locate t slot in
  if slot < 0 || group >= t.nblocks then None
  else slot_at t (Cache.read t.cache t.blocks.(group)) idx

let write_slot_raw t ~slot contents ~lsn =
  let group, idx = locate t slot in
  ensure_block t group;
  let block = t.blocks.(group) in
  let data = Bytes.of_string (Cache.read t.cache block) in
  let off = idx * physical_slot_size t in
  (match contents with
  | None ->
      Bytes.set data off '\x00';
      Bytes.set data (off + 1) '\x00'
  | Some record ->
      let len = String.length record + 1 in
      Bytes.set data off (Char.chr (len land 0xff));
      Bytes.set data (off + 1) (Char.chr (len lsr 8));
      Bytes.blit_string record 0 data (off + 2) (String.length record));
  Cache.write t.cache block (Bytes.to_string data) ~lsn;
  Sim.tick t.sim 8

let write t ~slot ~record ~lsn =
  if not (fits t record) then
    Errors.fail (Errors.Bad_request "record exceeds slot size")
  else if slot < 0 then Errors.fail (Errors.Bad_request "negative slot")
  else
    match read_slot_raw t ~slot with
    | Some _ -> Errors.fail (Errors.Duplicate_key (string_of_int slot))
    | None ->
        write_slot_raw t ~slot (Some record) ~lsn;
        t.occupied <- t.occupied + 1;
        Ok ()

let rewrite t ~slot ~record ~lsn =
  if not (fits t record) then
    Errors.fail (Errors.Bad_request "record exceeds slot size")
  else
    match read_slot_raw t ~slot with
    | None -> Errors.fail (Errors.Not_found_key (string_of_int slot))
    | Some old ->
        write_slot_raw t ~slot (Some record) ~lsn;
        Ok old

let read t ~slot =
  Sim.tick t.sim 5;
  read_slot_raw t ~slot

let next_from t ~slot =
  (* one cache read per block the search enters *)
  let rec block group idx =
    if group >= t.nblocks then None
    else scan group (Cache.read t.cache t.blocks.(group)) idx
  and scan group data idx =
    if idx >= t.slots_per_block then block (group + 1) 0
    else
      match slot_at t data idx with
      | Some record -> Some ((group * t.slots_per_block) + idx, record)
      | None -> scan group data (idx + 1)
  in
  let group, idx = locate t (max slot 0) in
  block group idx

let delete t ~slot ~lsn =
  match read_slot_raw t ~slot with
  | None -> Errors.fail (Errors.Not_found_key (string_of_int slot))
  | Some old ->
      write_slot_raw t ~slot None ~lsn;
      t.occupied <- t.occupied - 1;
      if slot < t.first_free_hint then t.first_free_hint <- slot;
      Ok old

let append t ~record ~lsn =
  let rec find slot =
    if slot >= slot_count t then slot
    else match read_slot_raw t ~slot with None -> slot | Some _ -> find (slot + 1)
  in
  let slot = find t.first_free_hint in
  match write t ~slot ~record ~lsn with
  | Ok () ->
      t.first_free_hint <- slot + 1;
      Ok slot
  | Error _ as e -> e

let iter t f =
  for slot = 0 to slot_count t - 1 do
    match read_slot_raw t ~slot with
    | Some record -> f slot record
    | None -> ()
  done
