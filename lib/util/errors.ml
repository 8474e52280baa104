type t =
  | Not_found_key of string
  | Duplicate_key of string
  | File_not_found of string
  | File_exists of string
  | Bad_request of string
  | Lock_timeout of string
  | Tx_aborted of string
  | No_transaction
  | Constraint_violation of string
  | Type_error of string
  | Parse_error of string
  | Name_error of string
  | Invalid_argument_error of string
  | Io_error of string
  | Internal of string
  | Deadlock of string

let pp ppf = function
  | Not_found_key k -> Format.fprintf ppf "key not found: %S" k
  | Duplicate_key k -> Format.fprintf ppf "duplicate key: %S" k
  | File_not_found f -> Format.fprintf ppf "file not found: %s" f
  | File_exists f -> Format.fprintf ppf "file already exists: %s" f
  | Bad_request m -> Format.fprintf ppf "bad request: %s" m
  | Lock_timeout m -> Format.fprintf ppf "lock timeout/deadlock: %s" m
  | Tx_aborted m -> Format.fprintf ppf "transaction aborted: %s" m
  | No_transaction -> Format.fprintf ppf "no active transaction"
  | Constraint_violation m -> Format.fprintf ppf "constraint violation: %s" m
  | Type_error m -> Format.fprintf ppf "type error: %s" m
  | Parse_error m -> Format.fprintf ppf "parse error: %s" m
  | Name_error m -> Format.fprintf ppf "name error: %s" m
  | Invalid_argument_error m -> Format.fprintf ppf "invalid argument: %s" m
  | Io_error m -> Format.fprintf ppf "i/o error: %s" m
  | Internal m -> Format.fprintf ppf "internal error: %s" m
  | Deadlock m -> Format.fprintf ppf "deadlock: %s" m

let to_string e = Format.asprintf "%a" pp e

let equal (a : t) (b : t) = a = b

let fail e = Error e

let ( let* ) r f = match r with Ok x -> f x | Error _ as e -> e

let list_iter f xs =
  let rec go = function
    | [] -> Ok ()
    | x :: rest -> ( match f x with Ok () -> go rest | Error _ as e -> e)
  in
  go xs

let list_map f xs =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest -> (
        match f x with Ok y -> go (y :: acc) rest | Error _ as e -> e)
  in
  go [] xs

let get_ok ~ctx = function
  | Ok x -> x
  | Error e -> failwith (Printf.sprintf "%s: %s" ctx (to_string e))

exception Fatal of string

let fatal msg = raise (Fatal msg)
