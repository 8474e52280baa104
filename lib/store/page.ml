module Codec = Nsql_util.Codec

type t =
  | Leaf of { entries : (string * string) array; next : int }
  | Node of { child0 : int; entries : (string * int) array }

let empty_leaf = Leaf { entries = [||]; next = -1 }

let varint_size = Codec.varint_size

let bytes_size s = varint_size (String.length s) + String.length s

let leaf_entry_size key record = bytes_size key + bytes_size record

let node_entry_size key = bytes_size key + 4

let size = function
  | Leaf { entries; _ } ->
      Array.fold_left
        (fun acc (k, r) -> acc + leaf_entry_size k r)
        (1 + 2 + 4) entries
  | Node { entries; _ } ->
      Array.fold_left
        (fun acc (k, _) -> acc + node_entry_size k)
        (1 + 2 + 4) entries

let encode ~block_size p =
  let w = Codec.writer_sized block_size in
  (match p with
  | Leaf { entries; next } ->
      Codec.w_u8 w 0;
      Codec.w_u16 w (Array.length entries);
      Codec.w_u32 w (next + 1);
      Array.iter
        (fun (k, r) ->
          Codec.w_bytes w k;
          Codec.w_bytes w r)
        entries
  | Node { child0; entries } ->
      Codec.w_u8 w 1;
      Codec.w_u16 w (Array.length entries);
      Codec.w_u32 w child0;
      Array.iter
        (fun (k, c) ->
          Codec.w_bytes w k;
          Codec.w_u32 w c)
        entries);
  let n = Codec.written w in
  if n > block_size then
    invalid_arg
      (Printf.sprintf "Page.encode: page of %d bytes exceeds block size %d" n
         block_size);
  Codec.contents_padded w block_size

let bad_tag tag =
  invalid_arg (Printf.sprintf "Page.decode: bad page type %d" tag)

(* a node's [child0] and separators, after its type byte *)
let node_fields r =
  let n = Codec.r_u16 r in
  let child0 = Codec.r_u32 r in
  let entries =
    Array.init n (fun _ ->
        let k = Codec.r_bytes r in
        let c = Codec.r_u32 r in
        (k, c))
  in
  (child0, entries)

let decode s =
  let r = Codec.reader s in
  match Codec.r_u8 r with
  | 0 ->
      let n = Codec.r_u16 r in
      let next = Codec.r_u32 r - 1 in
      let entries =
        Array.init n (fun _ ->
            let k = Codec.r_bytes r in
            let v = Codec.r_bytes r in
            (k, v))
      in
      Leaf { entries; next }
  | 1 ->
      let child0, entries = node_fields r in
      Node { child0; entries }
  | tag -> bad_tag tag

(* first index with key >= probe *)
let find_leaf_pos entries key =
  let lo = ref 0 and hi = ref (Array.length entries) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let k, _ = entries.(mid) in
    if String.compare k key < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let find_child entries child0 key =
  (* last separator <= key selects its child; none selects child0 *)
  let lo = ref 0 and hi = ref (Array.length entries) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let k, _ = entries.(mid) in
    if String.compare k key <= 0 then lo := mid + 1 else hi := mid
  done;
  if !lo = 0 then child0 else snd entries.(!lo - 1)

(* --- leaf view ------------------------------------------------------------ *)

(* [offsets.(i)] is where entry [i]'s key length varint starts in [block] *)
type view = { block : string; offsets : int array; next : int }

(* the varint at [pos]; its width is [varint_size] of the value, as the
   encoder always writes the shortest form *)
let rec varint_from s pos shift acc =
  let b = Char.code s.[pos] in
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b land 0x80 = 0 then acc else varint_from s (pos + 1) (shift + 7) acc

let varint_at s pos = varint_from s pos 0 0

let view_of_leaf s =
  let r = Codec.reader ~pos:1 s in
  let n = Codec.r_u16 r in
  let next = Codec.r_u32 r - 1 in
  let offsets = Array.make n 0 in
  let pos = ref (Codec.pos r) in
  for i = 0 to n - 1 do
    offsets.(i) <- !pos;
    let klen = varint_at s !pos in
    let rpos = !pos + varint_size klen + klen in
    let rlen = varint_at s rpos in
    pos := rpos + varint_size rlen + rlen
  done;
  { block = s; offsets; next }

let view_length v = Array.length v.offsets
let view_next v = v.next
let view_block v = v.block

(* the key of entry [i] against [key], in [String.compare]'s order
   (unsigned bytes, a proper prefix first), without copying it out *)
let view_compare_key v i key =
  let s = v.block in
  let off = v.offsets.(i) in
  let klen = varint_at s off in
  let start = off + varint_size klen in
  let len = String.length key in
  let n = Int.min klen len in
  let j = ref 0 in
  while !j < n && Char.equal s.[start + !j] key.[!j] do
    incr j
  done;
  if !j = n then Int.compare klen len else Char.compare s.[start + !j] key.[!j]

let view_pos v key =
  let lo = ref 0 and hi = ref (view_length v) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if view_compare_key v mid key < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let view_has_key v i key = i < view_length v && view_compare_key v i key = 0

let view_key v i =
  let s = v.block in
  let off = v.offsets.(i) in
  let klen = varint_at s off in
  String.sub s (off + varint_size klen) klen

(* the record whose length varint starts at [rpos] *)
let record_at s rpos =
  let rlen = varint_at s rpos in
  String.sub s (rpos + varint_size rlen) rlen

let record_pos v i =
  let s = v.block in
  let off = v.offsets.(i) in
  let klen = varint_at s off in
  off + varint_size klen + klen

let view_record_span v i =
  let rpos = record_pos v i in
  let rlen = varint_at v.block rpos in
  (rpos + varint_size rlen, rlen)

let view_record v i = record_at v.block (record_pos v i)

let view_entry v i = (view_key v i, view_record v i)

let view_entries v = Array.init (view_length v) (view_entry v)

type image =
  | View of view
  | Node_image of { child0 : int; entries : (string * int) array }

let image s =
  let r = Codec.reader s in
  match Codec.r_u8 r with
  | 0 -> View (view_of_leaf s)
  | 1 ->
      let child0, entries = node_fields r in
      Node_image { child0; entries }
  | tag -> bad_tag tag

let pp ppf = function
  | Leaf { entries; next } ->
      Format.fprintf ppf "Leaf(%d entries, next=%d)" (Array.length entries)
        next
  | Node { child0; entries } ->
      Format.fprintf ppf "Node(child0=%d, %d separators)" child0
        (Array.length entries)
