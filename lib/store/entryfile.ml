module Sim = Nsql_sim.Sim
module Config = Nsql_sim.Config
module Cache = Nsql_cache.Cache
module Disk = Nsql_disk.Disk
module Errors = Nsql_util.Errors

(* Record framing inside a block: [u16 length+1 | bytes]. A length field of
   0 means the rest of the block is unused (the appender moved to a fresh
   block). The address of a record is logical_block * block_size + offset. *)

type t = {
  sim : Sim.t;
  cache : Cache.t;
  block_size : int;
  mutable blocks : int array;
  mutable nblocks : int;
  mutable tail_offset : int;  (** next free byte in the last block *)
  mutable count : int;
}

let create sim cache =
  {
    sim;
    cache;
    block_size = Config.block_size;
    blocks = [||];
    nblocks = 0;
    tail_offset = 0;
    count = 0;
  }

let record_count t = t.count

let add_block t =
  let block = Disk.allocate (Cache.disk t.cache) 1 in
  if t.nblocks >= Array.length t.blocks then begin
    let grown = Array.make (max 16 (2 * Array.length t.blocks)) (-1) in
    Array.blit t.blocks 0 grown 0 t.nblocks;
    t.blocks <- grown
  end;
  t.blocks.(t.nblocks) <- block;
  t.nblocks <- t.nblocks + 1;
  t.tail_offset <- 0

let append t ~record ~lsn =
  let need = String.length record + 2 in
  if need > t.block_size then
    Errors.fail (Errors.Bad_request "record exceeds block size")
  else begin
    if t.nblocks = 0 || t.tail_offset + need > t.block_size then add_block t;
    let logical = t.nblocks - 1 in
    let block = t.blocks.(logical) in
    let data = Bytes.of_string (Cache.read t.cache block) in
    let off = t.tail_offset in
    let len = String.length record + 1 in
    Bytes.set data off (Char.chr (len land 0xff));
    Bytes.set data (off + 1) (Char.chr (len lsr 8));
    Bytes.blit_string record 0 data (off + 2) (String.length record);
    Cache.write t.cache block (Bytes.to_string data) ~lsn;
    t.tail_offset <- off + need;
    t.count <- t.count + 1;
    Sim.tick t.sim 8;
    Ok ((logical * t.block_size) + off)
  end

let read t ~addr =
  let logical = addr / t.block_size and off = addr mod t.block_size in
  Sim.tick t.sim 5;
  if logical >= t.nblocks then
    Errors.fail (Errors.Not_found_key (string_of_int addr))
  else begin
    let data = Cache.read t.cache t.blocks.(logical) in
    let len = Char.code data.[off] lor (Char.code data.[off + 1] lsl 8) in
    if len = 0 then Errors.fail (Errors.Not_found_key (string_of_int addr))
    else Ok (String.sub data (off + 2) (len - 1))
  end

let next_from t ~addr =
  let rec try_block logical off =
    if logical >= t.nblocks then None
    else begin
      let data = Cache.read t.cache t.blocks.(logical) in
      let limit =
        if logical = t.nblocks - 1 then t.tail_offset else t.block_size
      in
      (* walk the block's records to the first at or after [off] *)
      let rec walk pos =
        if pos + 2 > limit then try_block (logical + 1) 0
        else begin
          let len = Char.code data.[pos] lor (Char.code data.[pos + 1] lsl 8) in
          if len = 0 then try_block (logical + 1) 0
          else if pos >= off then
            Some ((logical * t.block_size) + pos, String.sub data (pos + 2) (len - 1))
          else walk (pos + 2 + len - 1)
        end
      in
      walk 0
    end
  in
  if addr < 0 then try_block 0 0
  else try_block (addr / t.block_size) (addr mod t.block_size)

let truncate_to t ~addr ~lsn =
  let logical = addr / t.block_size and off = addr mod t.block_size in
  if logical >= t.nblocks || (logical = t.nblocks - 1 && off >= t.tail_offset)
  then Errors.fail (Errors.Not_found_key (string_of_int addr))
  else begin
    (* count the records being discarded *)
    let discarded = ref 0 in
    let rec count logical off =
      if logical < t.nblocks then begin
        let data = Cache.read t.cache t.blocks.(logical) in
        let limit =
          if logical = t.nblocks - 1 then t.tail_offset else t.block_size
        in
        if off + 2 > limit then count (logical + 1) 0
        else begin
          let len = Char.code data.[off] lor (Char.code data.[off + 1] lsl 8) in
          if len = 0 then count (logical + 1) 0
          else begin
            incr discarded;
            count logical (off + 2 + len - 1)
          end
        end
      end
    in
    count logical off;
    (* zero the length marker at [addr]: everything after is unreachable *)
    let block = t.blocks.(logical) in
    let data = Bytes.of_string (Cache.read t.cache block) in
    Bytes.set data off '\x00';
    Bytes.set data (off + 1) '\x00';
    Cache.write t.cache block (Bytes.to_string data) ~lsn;
    t.nblocks <- logical + 1;
    t.tail_offset <- off;
    t.count <- t.count - !discarded;
    Ok ()
  end

let iter t f =
  for logical = 0 to t.nblocks - 1 do
    let data = Cache.read t.cache t.blocks.(logical) in
    let limit =
      if logical = t.nblocks - 1 then t.tail_offset else t.block_size
    in
    let rec walk off =
      if off + 2 <= limit then begin
        let len = Char.code data.[off] lor (Char.code data.[off + 1] lsl 8) in
        if len > 0 then begin
          f ((logical * t.block_size) + off) (String.sub data (off + 2) (len - 1));
          walk (off + 2 + len - 1)
        end
      end
    in
    walk 0
  done
