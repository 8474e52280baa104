let be64 (v : int64) =
  let b = Bytes.create 8 in
  Bytes.set_int64_be b 0 v;
  Bytes.unsafe_to_string b

(* Flipping the sign bit maps the signed order onto the unsigned
   (lexicographic byte) order. *)
let of_int i = be64 (Int64.logxor (Int64.of_int i) Int64.min_int)

let of_float f =
  let bits = Int64.bits_of_float f in
  let mapped =
    if Int64.compare bits 0L >= 0 then Int64.logxor bits Int64.min_int
    else Int64.lognot bits
  in
  be64 mapped

(* SQLite4-style escaping: 0x00 -> 0x01 0x01, 0x01 -> 0x01 0x02, field ends
   with a lone 0x00. The terminator can never occur inside a field, so
   concatenated multi-field keys are unambiguous, and because the escape
   sequences preserve byte order the encoding is order-preserving. *)
let of_string s =
  let b = Buffer.create (String.length s + 1) in
  String.iter
    (fun c ->
      match c with
      | '\x00' -> Buffer.add_string b "\x01\x01"
      | '\x01' -> Buffer.add_string b "\x01\x02"
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '\x00';
  Buffer.contents b

let of_bool v = if v then "\x01" else "\x00"

let read_be64 r =
  let s = Codec.r_raw r 8 in
  let acc = ref 0L in
  String.iter
    (fun c ->
      acc := Int64.logor (Int64.shift_left !acc 8) (Int64.of_int (Char.code c)))
    s;
  !acc

let read_int r =
  Int64.to_int (Int64.logxor (read_be64 r) Int64.min_int)

let read_float r =
  let mapped = read_be64 r in
  let bits =
    if Int64.compare mapped 0L < 0 then Int64.logxor mapped Int64.min_int
    else Int64.lognot mapped
  in
  Int64.float_of_bits bits

let read_string r =
  let b = Buffer.create 16 in
  let rec loop () =
    match Codec.r_u8 r with
    | 0 -> Buffer.contents b
    | 1 -> (
        match Codec.r_u8 r with
        | 1 ->
            Buffer.add_char b '\x00';
            loop ()
        | 2 ->
            Buffer.add_char b '\x01';
            loop ()
        | n ->
            invalid_arg
              (Printf.sprintf "Keycode.read_string: bad escape 0x01 0x%02x" n))
    | c ->
        Buffer.add_char b (Char.chr c);
        loop ()
  in
  loop ()

let successor k = k ^ "\x00"

let prefix_upper_bound p =
  let n = String.length p in
  let rec last_non_ff i =
    if i < 0 then None
    else if p.[i] <> '\xff' then Some i
    else last_non_ff (i - 1)
  in
  match last_non_ff (n - 1) with
  | None -> None
  | Some i ->
      Some (String.sub p 0 i ^ String.make 1 (Char.chr (Char.code p.[i] + 1)))

let low_value = ""
let high_value = "\xff\xff\xff\xff\xff\xff\xff\xff\xff<HIGH-VALUE>"

let compare_keys a b =
  if String.equal a high_value then if String.equal b high_value then 0 else 1
  else if String.equal b high_value then -1
  else String.compare a b
