module Codec = Nsql_util.Codec
module Row = Nsql_row.Row

type body =
  | Begin_tx
  | Commit_tx
  | Abort_tx
  | Prepare_tx of { coordinator_node : int; coordinator_tx : int }
  | Insert of { file : int; key : string; image : string }
  | Delete of { file : int; key : string; image : string }
  | Update_full of { file : int; key : string; before : string; after : string }
  | Update_fields of {
      file : int;
      key : string;
      fields : (int * Row.value * Row.value) list;
    }

type t = { lsn : int64; tx : int; body : body }

let pp_body ppf = function
  | Begin_tx -> Format.pp_print_string ppf "BEGIN"
  | Commit_tx -> Format.pp_print_string ppf "COMMIT"
  | Abort_tx -> Format.pp_print_string ppf "ABORT"
  | Prepare_tx { coordinator_node; coordinator_tx } ->
      Format.fprintf ppf "PREPARE (coord \\%d tx %d)" coordinator_node
        coordinator_tx
  | Insert { file; key; _ } -> Format.fprintf ppf "INSERT f%d %S" file key
  | Delete { file; key; _ } -> Format.fprintf ppf "DELETE f%d %S" file key
  | Update_full { file; key; _ } ->
      Format.fprintf ppf "UPDATE-FULL f%d %S" file key
  | Update_fields { file; key; fields } ->
      Format.fprintf ppf "UPDATE-FIELDS f%d %S [%s]" file key
        (String.concat ";"
           (List.map (fun (n, _, _) -> string_of_int n) fields))

let body_tag = function
  | Begin_tx -> 0
  | Commit_tx -> 1
  | Abort_tx -> 2
  | Prepare_tx _ -> 7
  | Insert _ -> 3
  | Delete _ -> 4
  | Update_full _ -> 5
  | Update_fields _ -> 6

let encode_body w = function
  | Begin_tx | Commit_tx | Abort_tx -> ()
  | Prepare_tx { coordinator_node; coordinator_tx } ->
      Codec.w_varint w coordinator_node;
      Codec.w_varint w coordinator_tx
  | Insert { file; key; image } | Delete { file; key; image } ->
      Codec.w_varint w file;
      Codec.w_bytes w key;
      Codec.w_bytes w image
  | Update_full { file; key; before; after } ->
      Codec.w_varint w file;
      Codec.w_bytes w key;
      Codec.w_bytes w before;
      Codec.w_bytes w after
  | Update_fields { file; key; fields } ->
      Codec.w_varint w file;
      Codec.w_bytes w key;
      Codec.w_varint w (List.length fields);
      List.iter
        (fun (n, before, after) ->
          Codec.w_varint w n;
          Row.encode_value w before;
          Row.encode_value w after)
        fields

let encode t =
  let body = Codec.writer () in
  Codec.w_u8 body (body_tag t.body);
  Codec.w_i64 body t.lsn;
  Codec.w_varint body t.tx;
  encode_body body t.body;
  let payload = Codec.contents body in
  let framed = Codec.writer_sized (String.length payload + 4) in
  Codec.w_u32 framed (String.length payload);
  Codec.w_raw framed payload;
  Codec.contents framed

let decode r =
  let len = Codec.r_u32 r in
  let payload = Codec.r_raw r len in
  let r = Codec.reader payload in
  let tag = Codec.r_u8 r in
  let lsn = Codec.r_i64 r in
  let tx = Codec.r_varint r in
  let body =
    match tag with
    | 0 -> Begin_tx
    | 1 -> Commit_tx
    | 2 -> Abort_tx
    | 7 ->
        let coordinator_node = Codec.r_varint r in
        let coordinator_tx = Codec.r_varint r in
        Prepare_tx { coordinator_node; coordinator_tx }
    | 3 | 4 ->
        let file = Codec.r_varint r in
        let key = Codec.r_bytes r in
        let image = Codec.r_bytes r in
        if tag = 3 then Insert { file; key; image }
        else Delete { file; key; image }
    | 5 ->
        let file = Codec.r_varint r in
        let key = Codec.r_bytes r in
        let before = Codec.r_bytes r in
        let after = Codec.r_bytes r in
        Update_full { file; key; before; after }
    | 6 ->
        let file = Codec.r_varint r in
        let key = Codec.r_bytes r in
        let n = Codec.r_varint r in
        let fields =
          List.init n (fun _ ->
              let fno = Codec.r_varint r in
              let before = Row.decode_value r in
              let after = Row.decode_value r in
              (fno, before, after))
        in
        Update_fields { file; key; fields }
    | n -> invalid_arg (Printf.sprintf "Audit_record.decode: bad tag %d" n)
  in
  { lsn; tx; body }

let encoded_size t = String.length (encode t)
