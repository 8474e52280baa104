module Sim = Nsql_sim.Sim
module Config = Nsql_sim.Config
module Cache = Nsql_cache.Cache
module Disk = Nsql_disk.Disk
module Errors = Nsql_util.Errors

(* Record framing inside a block: [u16 length+1 | bytes], up to the
   block's end offset (the appender moved to a fresh block, or the records
   after it were truncated). The address of a record is logical_block *
   block_size + offset. *)

type block = { id : int; mutable fill : int  (** end offset *) }

type t = {
  sim : Sim.t;
  cache : Cache.t;
  block_size : int;
  mutable blocks : block array;
  mutable nblocks : int;
  mutable count : int;
}

let create sim cache =
  {
    sim;
    cache;
    block_size = Config.block_size;
    blocks = [||];
    nblocks = 0;
    count = 0;
  }

let record_count t = t.count

let add_block t =
  let id = Disk.allocate (Cache.disk t.cache) 1 in
  if t.nblocks >= Array.length t.blocks then begin
    let grown = Array.make (max 16 (2 * Array.length t.blocks)) { id; fill = 0 } in
    Array.blit t.blocks 0 grown 0 t.nblocks;
    t.blocks <- grown
  end;
  t.blocks.(t.nblocks) <- { id; fill = 0 };
  t.nblocks <- t.nblocks + 1

let fits t record = String.length record + 2 <= t.block_size

let append t ~record ~lsn =
  let need = String.length record + 2 in
  if not (fits t record) then
    Errors.fail (Errors.Bad_request "record exceeds block size")
  else begin
    if t.nblocks = 0 || t.blocks.(t.nblocks - 1).fill + need > t.block_size then
      add_block t;
    let logical = t.nblocks - 1 in
    let block = t.blocks.(logical) in
    let data = Bytes.of_string (Cache.read t.cache block.id) in
    let off = block.fill in
    let len = String.length record + 1 in
    Bytes.set data off (Char.chr (len land 0xff));
    Bytes.set data (off + 1) (Char.chr (len lsr 8));
    Bytes.blit_string record 0 data (off + 2) (String.length record);
    Cache.write t.cache block.id (Bytes.to_string data) ~lsn;
    block.fill <- off + need;
    t.count <- t.count + 1;
    Sim.tick t.sim 8;
    Ok ((logical * t.block_size) + off)
  end

(* the length field of the record framed at [off], and the record *)
let len_at data off = Char.code data.[off] lor (Char.code data.[off + 1] lsl 8)
let record_of data off len = String.sub data (off + 2) (len - 1)

(* The one walk of the framing: from offset [off] of logical block
   [logical], offer each record in address order to [visit addr data pos
   len] (its bytes are [len - 1] from [pos + 2] of [data]) until [visit]
   answers [Some]; [None] once the records run out. A block is read through
   the cache once per pass, or, with [per_record], again before each next
   record: the cache reads are what the walk is charged. *)
let walk ?(per_record = false) t ~logical ~off visit =
  let rec block logical off =
    if logical >= t.nblocks then None
    else scan logical (Cache.read t.cache t.blocks.(logical).id) off
  and scan logical data pos =
    let len = if pos + 2 > t.blocks.(logical).fill then 0 else len_at data pos in
    if len = 0 then block (logical + 1) 0
    else
      match visit ((logical * t.block_size) + pos) data pos len with
      | Some _ as found -> found
      | None ->
          let next = pos + 1 + len in
          if per_record then block logical next else scan logical data next
  in
  block logical off

let next_from t ~addr =
  (* from the start of [addr]'s block: a record boundary is only known
     by walking to it *)
  walk t ~logical:(max addr 0 / t.block_size) ~off:0 (fun a data pos len ->
      if a >= addr then Some (a, record_of data pos len) else None)

let read t ~addr =
  Sim.tick t.sim 5;
  match next_from t ~addr with
  | Some (a, record) when a = addr -> Some record
  | Some _ | None -> None

let truncate_to t ~addr ~lsn =
  let logical = addr / t.block_size and off = addr mod t.block_size in
  if logical >= t.nblocks || off >= t.blocks.(logical).fill then
    Errors.fail (Errors.Not_found_key (string_of_int addr))
  else begin
    (* count the records being discarded (charged one cache read each) *)
    let discarded = ref 0 in
    ignore
      (walk ~per_record:true t ~logical ~off (fun _ _ _ _ ->
           incr discarded;
           None));
    (* zero the length marker at [addr]: everything after is unreachable *)
    let block = t.blocks.(logical) in
    let data = Bytes.of_string (Cache.read t.cache block.id) in
    Bytes.set data off '\x00';
    Bytes.set data (off + 1) '\x00';
    Cache.write t.cache block.id (Bytes.to_string data) ~lsn;
    t.nblocks <- logical + 1;
    block.fill <- off;
    t.count <- t.count - !discarded;
    Ok ()
  end

let last_addr t ~record =
  let rec from logical =
    if logical < 0 then None
    else
      let fill = t.blocks.(logical).fill in
      if fill = 0 then from (logical - 1)
      else Some ((logical * t.block_size) + fill - String.length record - 2)
  in
  from (t.nblocks - 1)

let iter t f =
  ignore
    (walk t ~logical:0 ~off:0 (fun a data pos len ->
         f a (record_of data pos len);
         None))
