exception Truncated

type writer = Buffer.t

let writer () = Buffer.create 64
let writer_sized n = Buffer.create n

let w_u8 b v = Buffer.add_char b (Char.chr (v land 0xff))

let w_u16 b v =
  w_u8 b v;
  w_u8 b (v lsr 8)

let w_u32 b v =
  w_u16 b (v land 0xffff);
  w_u16 b ((v lsr 16) land 0xffff)

let w_i64 b v = Buffer.add_int64_le b v
let w_int b v = w_i64 b (Int64.of_int v)

let w_varint b n =
  if n < 0 then invalid_arg "Codec.w_varint: negative";
  let rec go n =
    if n < 0x80 then w_u8 b n
    else begin
      w_u8 b (0x80 lor (n land 0x7f));
      go (n lsr 7)
    end
  in
  go n

let varint_size n =
  let rec go n acc = if n < 0x80 then acc else go (n lsr 7) (acc + 1) in
  go (Int.max n 0) 1

let w_float b f = w_i64 b (Int64.bits_of_float f)
let w_bool b v = w_u8 b (if v then 1 else 0)

let w_raw b s = Buffer.add_string b s

let w_bytes b s =
  w_varint b (String.length s);
  w_raw b s

let written = Buffer.length
let contents = Buffer.contents

let contents_padded b n =
  let s = Bytes.make n '\x00' in
  Buffer.blit b 0 s 0 (Buffer.length b);
  Bytes.unsafe_to_string s

type reader = { src : string; mutable pos : int }

let reader ?(pos = 0) src = { src; pos }

let need r n = if r.pos + n > String.length r.src then raise Truncated

let r_u8 r =
  need r 1;
  let v = Char.code r.src.[r.pos] in
  r.pos <- r.pos + 1;
  v

let r_u16 r =
  let lo = r_u8 r in
  let hi = r_u8 r in
  lo lor (hi lsl 8)

let r_u32 r =
  let lo = r_u16 r in
  let hi = r_u16 r in
  lo lor (hi lsl 16)

let r_i64 r =
  need r 8;
  let v = String.get_int64_le r.src r.pos in
  r.pos <- r.pos + 8;
  v

let r_int r = Int64.to_int (r_i64 r)

let r_varint r =
  let rec go shift acc =
    let b = r_u8 r in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0

let r_float r = Int64.float_of_bits (r_i64 r)
let r_bool r = r_u8 r <> 0

let r_raw r n =
  need r n;
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s

let r_bytes r =
  let n = r_varint r in
  r_raw r n

let unread r n =
  if n > r.pos then invalid_arg "Codec.unread";
  r.pos <- r.pos - n

let pos r = r.pos
let remaining r = String.length r.src - r.pos
let at_end r = remaining r = 0
