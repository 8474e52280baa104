(* Tests of schemas, rows, the record codec and key encoding. *)

module Row = Nsql_row.Row
module Codec = Nsql_util.Codec

let emp_schema =
  Row.schema
    [|
      Row.column "empno" Row.T_int;
      Row.column "name" (Row.T_varchar 32);
      Row.column "hire_date" (Row.T_char 10);
      Row.column ~nullable:true "salary" Row.T_float;
      Row.column "active" Row.T_bool;
    |]
    ~key:[ "empno" ]

let sample =
  [| Row.Vint 7; Row.Vstr "Borr"; Row.Vstr "1988-06-01"; Row.Vfloat 95000.; Row.Vbool true |]

let roundtrip () =
  let img = Row.encode emp_schema sample in
  match Row.decode emp_schema img with
  | Ok row -> Alcotest.(check bool) "roundtrip" true (Row.equal_row sample row)
  | Error e -> Alcotest.fail (Nsql_util.Errors.to_string e)

let roundtrip_nulls () =
  let row =
    [| Row.Vint 1; Row.Vstr ""; Row.Vstr ""; Row.Null; Row.Vbool false |]
  in
  let img = Row.encode emp_schema row in
  match Row.decode emp_schema img with
  | Ok row' -> Alcotest.(check bool) "null roundtrip" true (Row.equal_row row row')
  | Error e -> Alcotest.fail (Nsql_util.Errors.to_string e)

let validate_rejects () =
  let bad_type = [| Row.Vstr "x"; Row.Vstr "a"; Row.Vstr "b"; Row.Null; Row.Vbool true |] in
  (match Row.validate emp_schema bad_type with
  | Error (Nsql_util.Errors.Type_error _) -> ()
  | Ok () -> Alcotest.fail "accepted wrong type"
  | Error e -> Alcotest.fail (Nsql_util.Errors.to_string e));
  let bad_null = [| Row.Null; Row.Vstr "a"; Row.Vstr "b"; Row.Null; Row.Vbool true |] in
  (match Row.validate emp_schema bad_null with
  | Error (Nsql_util.Errors.Type_error _) -> ()
  | Ok () -> Alcotest.fail "accepted NULL key"
  | Error e -> Alcotest.fail (Nsql_util.Errors.to_string e));
  let too_wide =
    [| Row.Vint 1; Row.Vstr (String.make 40 'x'); Row.Vstr "b"; Row.Null; Row.Vbool true |]
  in
  match Row.validate emp_schema too_wide with
  | Error (Nsql_util.Errors.Type_error _) -> ()
  | Ok () -> Alcotest.fail "accepted overwide varchar"
  | Error e -> Alcotest.fail (Nsql_util.Errors.to_string e)

let key_ordering () =
  let key i = Row.key_of_row emp_schema
      [| Row.Vint i; Row.Vstr "x"; Row.Vstr "d"; Row.Null; Row.Vbool true |]
  in
  Alcotest.(check bool) "keys ordered" true
    (String.compare (key (-5)) (key 3) < 0 && String.compare (key 3) (key 1000) < 0)

let key_of_values_prefix () =
  match Row.key_of_values emp_schema [ Row.Vint 42 ] with
  | Ok k ->
      let full = Row.key_of_row emp_schema
          [| Row.Vint 42; Row.Vstr "a"; Row.Vstr "b"; Row.Null; Row.Vbool true |]
      in
      Alcotest.(check string) "prefix equals full single-col key" full k
  | Error e -> Alcotest.fail (Nsql_util.Errors.to_string e)

let projection () =
  let proj = Row.project sample [| 1; 2 |] in
  Alcotest.(check bool) "projected" true
    (Row.equal_row [| Row.Vstr "Borr"; Row.Vstr "1988-06-01" |] proj);
  let ps = Row.projected_schema emp_schema [| 1; 2 |] in
  Alcotest.(check int) "projected schema arity" 2 (Array.length ps.Row.cols)

let field_number () =
  (match Row.field_number emp_schema "salary" with
  | Ok i -> Alcotest.(check int) "salary is #3" 3 i
  | Error e -> Alcotest.fail (Nsql_util.Errors.to_string e));
  match Row.field_number emp_schema "nope" with
  | Error (Nsql_util.Errors.Name_error _) -> ()
  | _ -> Alcotest.fail "unknown column accepted"

let char_padding_stripped () =
  let row = [| Row.Vint 1; Row.Vstr "n"; Row.Vstr "89"; Row.Null; Row.Vbool true |] in
  let img = Row.encode emp_schema row in
  let row' = Row.decode_exn emp_schema img in
  (match row'.(2) with
  | Row.Vstr s -> Alcotest.(check string) "padding stripped" "89" s
  | _ -> Alcotest.fail "wrong type")

let value_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> Row.Vint i) int;
        map (fun f -> Row.Vfloat f) (float_bound_inclusive 1e9);
        map (fun b -> Row.Vbool b) bool;
        map (fun s -> Row.Vstr s) (string_size (int_bound 20));
      ])

let compare_total_order =
  QCheck.Test.make ~name:"value comparison antisymmetric" ~count:300
    QCheck.(pair (make value_gen) (make value_gen))
    (fun (a, b) ->
      Row.compare_value a b = -Row.compare_value b a
      || Row.compare_value a b = 0)

let roundtrip_random =
  let schema =
    Row.schema
      [|
        Row.column "k" Row.T_int;
        Row.column ~nullable:true "a" (Row.T_varchar 64);
        Row.column ~nullable:true "b" Row.T_float;
        Row.column ~nullable:true "c" Row.T_bool;
      |]
      ~key:[ "k" ]
  in
  QCheck.Test.make ~name:"record codec roundtrip (random rows)" ~count:300
    QCheck.(
      quad int
        (option (string_of_size (Gen.int_bound 40)))
        (option float) (option bool))
    (fun (k, a, b, c) ->
      let v_of f = function None -> Row.Null | Some x -> f x in
      let row =
        [|
          Row.Vint k;
          v_of (fun s -> Row.Vstr s) a;
          v_of (fun f -> Row.Vfloat f) b;
          v_of (fun b -> Row.Vbool b) c;
        |]
      in
      match Row.decode schema (Row.encode schema row) with
      | Ok row' -> Row.equal_row row row'
      | Error _ -> false)

(* A random schema (every column type, nullable or not, INT key first),
   a row for it, a decode mask, and junk around the image so that it is
   decoded at a nonzero position inside a larger string. *)
let masked_case_gen =
  QCheck.Gen.(
    let col_type =
      oneof
        [
          return Row.T_int;
          return Row.T_float;
          return Row.T_bool;
          map (fun n -> Row.T_char n) (int_range 1 8);
          map (fun n -> Row.T_varchar n) (int_range 0 200);
        ]
    in
    let text n = string_size ~gen:(oneofl [ 'a'; 'b'; ' '; '\000'; '\xff' ]) (int_bound n) in
    let value = function
      | Row.T_int -> map (fun i -> Row.Vint i) int
      | Row.T_float -> map (fun f -> Row.Vfloat f) float
      | Row.T_bool -> map (fun b -> Row.Vbool b) bool
      | Row.T_char n | Row.T_varchar n -> map (fun s -> Row.Vstr s) (text n)
    in
    let* cols = list_size (int_range 0 11) (pair col_type bool) in
    let cols = (Row.T_int, false) :: cols in
    let schema =
      Row.schema
        (Array.of_list
           (List.mapi
              (fun i (ty, nullable) -> Row.column ~nullable (Printf.sprintf "c%d" i) ty)
              cols))
        ~key:[ "c0" ]
    in
    let* row =
      flatten_l
        (List.map
           (fun (ty, nullable) ->
             if nullable then
               frequency [ (1, return Row.Null); (3, value ty) ]
             else value ty)
           cols)
    in
    let* mask = list_repeat (List.length cols) bool in
    let* prefix = string_size (int_bound 9) in
    let* suffix = string_size (int_bound 9) in
    return (schema, Array.of_list row, Array.of_list mask, prefix, suffix))

let print_masked_case (schema, row, mask, prefix, suffix) =
  Format.asprintf "%a@ %a@ mask=%s@ prefix=%S@ suffix=%S" Row.pp_schema schema
    Row.pp_row row
    (String.concat "" (Array.to_list (Array.map (fun b -> if b then "1" else "0") mask)))
    prefix suffix

let decode_fields_matches_decode =
  QCheck.Test.make ~name:"selective decode agrees with Row.decode" ~count:500
    (QCheck.make ~print:print_masked_case masked_case_gen)
    (fun (schema, row, mask, prefix, suffix) ->
      let img = Row.encode schema row in
      let src = prefix ^ img ^ suffix in
      let pos = String.length prefix and len = String.length img in
      let full = Row.decode_exn schema img in
      let sel = Row.decode_fields schema mask src ~pos ~len in
      let truncated_fails mask cut =
        match Row.decode_fields schema mask src ~pos ~len:(len - cut) with
        | _ -> false
        | exception Nsql_util.Errors.Fatal _ -> true
      in
      Array.length sel = Array.length full
      && Array.for_all2 Row.equal_value
           (Array.mapi (fun i v -> if mask.(i) then v else Row.Null) full)
           sel
      && List.for_all
           (fun cut ->
             truncated_fails mask cut
             && truncated_fails (Array.map (fun _ -> true) mask) cut)
           (List.sort_uniq compare [ 1; 1 + (len / 2); len ]))

let values_size_matches_encoding =
  QCheck.Test.make ~name:"values_size is the encode_values length" ~count:300
    QCheck.(
      make
        Gen.(
          array_size (int_bound 20)
            (oneof
               [
                 value_gen;
                 return Row.Null;
                 map (fun s -> Row.Vstr s) (string_size (int_range 100 300));
               ])))
    (fun row ->
      let w = Codec.writer () in
      Row.encode_values w row;
      Row.values_size row = Codec.written w)

let suite =
  [
    Alcotest.test_case "record codec roundtrip" `Quick roundtrip;
    Alcotest.test_case "record codec nulls" `Quick roundtrip_nulls;
    Alcotest.test_case "validate rejects bad rows" `Quick validate_rejects;
    Alcotest.test_case "key encoding ordered" `Quick key_ordering;
    Alcotest.test_case "key of values prefix" `Quick key_of_values_prefix;
    Alcotest.test_case "projection" `Quick projection;
    Alcotest.test_case "field numbers" `Quick field_number;
    Alcotest.test_case "char padding stripped" `Quick char_padding_stripped;
    QCheck_alcotest.to_alcotest compare_total_order;
    QCheck_alcotest.to_alcotest roundtrip_random;
    QCheck_alcotest.to_alcotest decode_fields_matches_decode;
    QCheck_alcotest.to_alcotest values_size_matches_encoding;
  ]
