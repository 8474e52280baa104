module Codec = Nsql_util.Codec
module Keycode = Nsql_util.Keycode
module Errors = Nsql_util.Errors

open Errors

type col_type = T_int | T_float | T_bool | T_char of int | T_varchar of int

let pp_col_type ppf = function
  | T_int -> Format.pp_print_string ppf "INT"
  | T_float -> Format.pp_print_string ppf "FLOAT"
  | T_bool -> Format.pp_print_string ppf "BOOL"
  | T_char n -> Format.fprintf ppf "CHAR(%d)" n
  | T_varchar n -> Format.fprintf ppf "VARCHAR(%d)" n

let equal_col_type (a : col_type) (b : col_type) = a = b

type column = { col_name : string; col_type : col_type; nullable : bool }

type schema = { cols : column array; key_cols : int array }

let column ?(nullable = false) col_name col_type =
  { col_name; col_type; nullable }

let schema cols ~key =
  let find name =
    let rec go i =
      if i >= Array.length cols then
        invalid_arg (Printf.sprintf "Row.schema: unknown key column %s" name)
      else if String.equal cols.(i).col_name name then i
      else go (i + 1)
    in
    go 0
  in
  Array.iteri
    (fun i c ->
      Array.iteri
        (fun j c' ->
          if i < j && String.equal c.col_name c'.col_name then
            invalid_arg
              (Printf.sprintf "Row.schema: duplicate column %s" c.col_name))
        cols)
    cols;
  let key_cols = Array.of_list (List.map find key) in
  Array.iter
    (fun i ->
      if cols.(i).nullable then
        invalid_arg
          (Printf.sprintf "Row.schema: key column %s is nullable"
             cols.(i).col_name))
    key_cols;
  if Array.length key_cols = 0 then
    invalid_arg "Row.schema: empty primary key";
  { cols; key_cols }

let field_number s name =
  let rec go i =
    if i >= Array.length s.cols then fail (Name_error ("unknown column " ^ name))
    else if String.equal s.cols.(i).col_name name then Ok i
    else go (i + 1)
  in
  go 0

let pp_schema ppf s =
  Format.fprintf ppf "@[<hv 2>(";
  Array.iteri
    (fun i c ->
      if i > 0 then Format.fprintf ppf ",@ ";
      Format.fprintf ppf "%s %a%s" c.col_name pp_col_type c.col_type
        (if c.nullable then "" else " NOT NULL"))
    s.cols;
  Format.fprintf ppf ")@ KEY(";
  Array.iteri
    (fun i k ->
      if i > 0 then Format.fprintf ppf ", ";
      Format.pp_print_string ppf s.cols.(k).col_name)
    s.key_cols;
  Format.fprintf ppf ")@]"

type value = Null | Vint of int | Vfloat of float | Vbool of bool | Vstr of string

type row = value array

let pp_value ppf = function
  | Null -> Format.pp_print_string ppf "NULL"
  | Vint i -> Format.pp_print_int ppf i
  | Vfloat f -> Format.fprintf ppf "%g" f
  | Vbool b -> Format.pp_print_bool ppf b
  | Vstr s -> Format.fprintf ppf "%S" s

let pp_row ppf row =
  Format.fprintf ppf "@[<h>(";
  Array.iteri
    (fun i v ->
      if i > 0 then Format.fprintf ppf ", ";
      pp_value ppf v)
    row;
  Format.fprintf ppf ")@]"

let equal_value a b =
  match (a, b) with
  | Null, Null -> true
  | Vint x, Vint y -> x = y
  | Vfloat x, Vfloat y -> Float.equal x y
  | Vbool x, Vbool y -> x = y
  | Vstr x, Vstr y -> String.equal x y
  | (Null | Vint _ | Vfloat _ | Vbool _ | Vstr _), _ -> false

let equal_row a b =
  Array.length a = Array.length b
  && Array.for_all2 equal_value a b

let rank = function
  | Null -> 0
  | Vbool _ -> 1
  | Vint _ -> 2
  | Vfloat _ -> 2  (* numerics compare together *)
  | Vstr _ -> 3

let compare_value a b =
  match (a, b) with
  | Null, Null -> 0
  | Vint x, Vint y -> compare x y
  | Vfloat x, Vfloat y -> Float.compare x y
  | Vint x, Vfloat y -> Float.compare (float_of_int x) y
  | Vfloat x, Vint y -> Float.compare x (float_of_int y)
  | Vbool x, Vbool y -> compare x y
  | Vstr x, Vstr y -> String.compare x y
  | a, b -> compare (rank a) (rank b)

let value_matches_type v ty =
  match (v, ty) with
  | Null, _ -> true
  | Vint _, T_int -> true
  | Vfloat _, T_float -> true
  | Vbool _, T_bool -> true
  | Vstr s, T_char n -> String.length s <= n
  | Vstr s, T_varchar n -> String.length s <= n
  | (Vint _ | Vfloat _ | Vbool _ | Vstr _), _ -> false

let validate s row =
  if Array.length row <> Array.length s.cols then
    fail
      (Type_error
         (Printf.sprintf "row has %d fields, schema has %d" (Array.length row)
            (Array.length s.cols)))
  else begin
    let err = ref None in
    Array.iteri
      (fun i v ->
        if !err = None then begin
          let c = s.cols.(i) in
          if v = Null && not c.nullable then
            err :=
              Some (Type_error (Printf.sprintf "column %s is NOT NULL" c.col_name))
          else if not (value_matches_type v c.col_type) then
            err :=
              Some
                (Type_error
                   (Format.asprintf "column %s: value %a does not match %a"
                      c.col_name pp_value v pp_col_type c.col_type))
        end)
      row;
    match !err with None -> Ok () | Some e -> fail e
  end

(* Fixed-width CHAR fields are blank padded on disk, like ENSCRIBE. *)
let pad_char n s = if String.length s >= n then s else s ^ String.make (n - String.length s) ' '

let encode_field w ty v =
  match (v, ty) with
  | Null, _ -> ()
  | Vint i, T_int -> Codec.w_i64 w (Int64.of_int i)
  | Vfloat f, T_float -> Codec.w_float w f
  | Vbool b, T_bool -> Codec.w_bool w b
  | Vstr s, T_char n -> Codec.w_raw w (pad_char n s)
  | Vstr s, T_varchar _ -> Codec.w_bytes w s
  | _ ->
      invalid_arg "Row.encode: value/type mismatch (validate first)"

let encode s row =
  let n = Array.length s.cols in
  let w = Codec.writer_sized 64 in
  (* null bitmap *)
  let nbytes = (n + 7) / 8 in
  let bitmap = Bytes.make nbytes '\x00' in
  Array.iteri
    (fun i v ->
      if v = Null then
        Bytes.set bitmap (i / 8)
          (Char.chr (Char.code (Bytes.get bitmap (i / 8)) lor (1 lsl (i mod 8)))))
    row;
  Codec.w_raw w (Bytes.to_string bitmap);
  Array.iteri (fun i v -> encode_field w s.cols.(i).col_type v) row;
  Codec.contents w

(* where the varint at [pos] ends, reading no byte at or past [limit] *)
let rec varint_end src pos limit =
  if pos >= limit then raise Codec.Truncated
  else if Char.code src.[pos] land 0x80 = 0 then pos + 1
  else varint_end src (pos + 1) limit

(* the varint at [pos], once [varint_end] has bounded it *)
let rec varint_value src pos shift acc =
  let b = Char.code src.[pos] in
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b land 0x80 = 0 then acc else varint_value src (pos + 1) (shift + 7) acc

(* a CHAR(n) field less its blank padding, copied once *)
let char_value src pos n =
  let e = ref (pos + n) in
  while !e > pos && src.[!e - 1] = ' ' do decr e done;
  String.sub src pos (!e - pos)

(* The one record walker: the null bitmap, then each non-null field in
   column order. A field [mask] selects is decoded; any other is skipped
   by its width and reads as [Null]. No byte at or past [pos + len] is
   read: a field that would cross it raises [Codec.Truncated]. *)
let walk s mask src ~pos ~len =
  let cols = s.cols in
  let n = Array.length cols in
  let limit = pos + len in
  if pos < 0 || len < 0 || limit > String.length src then
    raise Codec.Truncated;
  let p = ref (pos + ((n + 7) / 8)) in
  if !p > limit then raise Codec.Truncated;
  let row = Array.make n Null in
  for i = 0 to n - 1 do
    if Char.code src.[pos + (i lsr 3)] land (1 lsl (i land 7)) = 0 then begin
      let at = !p in
      let ty = cols.(i).col_type in
      let width =
        match ty with
        | T_int | T_float -> 8
        | T_bool -> 1
        | T_char w -> w
        | T_varchar _ ->
            let e = varint_end src at limit in
            e - at + varint_value src at 0 0
      in
      if width < 0 || width > limit - at then raise Codec.Truncated;
      if mask.(i) then
        row.(i) <-
          (match ty with
          | T_int -> Vint (Int64.to_int (String.get_int64_le src at))
          | T_float -> Vfloat (Int64.float_of_bits (String.get_int64_le src at))
          | T_bool -> Vbool (not (Char.equal src.[at] '\000'))
          | T_char w -> Vstr (char_value src at w)
          | T_varchar _ ->
              let e = varint_end src at limit in
              Vstr (String.sub src e (at + width - e)));
      p := at + width
    end
  done;
  row

let decode_fields s mask src ~pos ~len =
  try walk s mask src ~pos ~len
  with Codec.Truncated -> Errors.fatal "Row.decode_fields: truncated record image"

let decode s bytes_ =
  let mask = Array.make (Array.length s.cols) true in
  try Ok (walk s mask bytes_ ~pos:0 ~len:(String.length bytes_))
  with Codec.Truncated -> fail (Internal "Row.decode: truncated record image")

let decode_exn s bytes_ =
  match decode s bytes_ with
  | Ok row -> row
  | Error e -> failwith ("Row.decode_exn: " ^ Errors.to_string e)

let encode_value w v =
  match v with
  | Null -> Codec.w_u8 w 0
  | Vint i ->
      Codec.w_u8 w 1;
      Codec.w_i64 w (Int64.of_int i)
  | Vfloat f ->
      Codec.w_u8 w 2;
      Codec.w_float w f
  | Vbool b ->
      Codec.w_u8 w 3;
      Codec.w_bool w b
  | Vstr s ->
      Codec.w_u8 w 4;
      Codec.w_bytes w s

let decode_value r =
  match Codec.r_u8 r with
  | 0 -> Null
  | 1 -> Vint (Int64.to_int (Codec.r_i64 r))
  | 2 -> Vfloat (Codec.r_float r)
  | 3 -> Vbool (Codec.r_bool r)
  | 4 -> Vstr (Codec.r_bytes r)
  | n -> invalid_arg (Printf.sprintf "Row.decode_value: bad tag %d" n)

let encode_col_type w = function
  | T_int -> Codec.w_u8 w 0
  | T_float -> Codec.w_u8 w 1
  | T_bool -> Codec.w_u8 w 2
  | T_char n ->
      Codec.w_u8 w 3;
      Codec.w_varint w n
  | T_varchar n ->
      Codec.w_u8 w 4;
      Codec.w_varint w n

let decode_col_type r =
  match Codec.r_u8 r with
  | 0 -> T_int
  | 1 -> T_float
  | 2 -> T_bool
  | 3 -> T_char (Codec.r_varint r)
  | 4 -> T_varchar (Codec.r_varint r)
  | n -> invalid_arg (Printf.sprintf "Row.decode_col_type: bad tag %d" n)

let encode_schema w s =
  Codec.w_varint w (Array.length s.cols);
  Array.iter
    (fun c ->
      Codec.w_bytes w c.col_name;
      encode_col_type w c.col_type;
      Codec.w_bool w c.nullable)
    s.cols;
  Codec.w_varint w (Array.length s.key_cols);
  Array.iter (fun k -> Codec.w_varint w k) s.key_cols

let decode_schema r =
  let ncols = Codec.r_varint r in
  let cols =
    Array.init ncols (fun _ ->
        let col_name = Codec.r_bytes r in
        let col_type = decode_col_type r in
        let nullable = Codec.r_bool r in
        { col_name; col_type; nullable })
  in
  let nkeys = Codec.r_varint r in
  let key_cols = Array.init nkeys (fun _ -> Codec.r_varint r) in
  { cols; key_cols }

let encode_values w row =
  Codec.w_varint w (Array.length row);
  Array.iter (fun v -> encode_value w v) row

let value_size = function
  | Null -> 1
  | Vint _ | Vfloat _ -> 9
  | Vbool _ -> 2
  | Vstr s -> 1 + Codec.varint_size (String.length s) + String.length s

let values_size row =
  Array.fold_left
    (fun acc v -> acc + value_size v)
    (Codec.varint_size (Array.length row))
    row

let decode_values r =
  let n = Codec.r_varint r in
  Array.init n (fun _ -> decode_value r)

let encode_key_value ty v =
  match (v, ty) with
  | Vint i, T_int -> Keycode.of_int i
  | Vfloat f, T_float -> Keycode.of_float f
  | Vbool b, T_bool -> Keycode.of_bool b
  | Vstr s, (T_char _ | T_varchar _) -> Keycode.of_string s
  | Null, _ -> invalid_arg "Row: NULL in key"
  | _ -> invalid_arg "Row: key value/type mismatch"

let key_of_row s row =
  let b = Buffer.create 16 in
  Array.iter
    (fun i -> Buffer.add_string b (encode_key_value s.cols.(i).col_type row.(i)))
    s.key_cols;
  Buffer.contents b

let key_of_values s vs =
  let nk = Array.length s.key_cols in
  let rec go acc i = function
    | [] -> Ok (String.concat "" (List.rev acc))
    | v :: rest ->
        if i >= nk then fail (Invalid_argument_error "too many key values")
        else begin
          let ty = s.cols.(s.key_cols.(i)).col_type in
          if not (value_matches_type v ty) || v = Null then
            fail
              (Type_error
                 (Format.asprintf "key value %a does not match %a" pp_value v
                    pp_col_type ty))
          else go (encode_key_value ty v :: acc) (i + 1) rest
        end
  in
  go [] 0 vs

let project row fields = Array.map (fun i -> row.(i)) fields

let projected_schema s fields =
  let cols = Array.map (fun i -> s.cols.(i)) fields in
  { cols; key_cols = [||] }
