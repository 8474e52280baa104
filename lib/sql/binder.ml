module Row = Nsql_row.Row
module Expr = Nsql_expr.Expr
module Errors = Nsql_util.Errors

open Errors
open Ast

type env_entry = {
  en_table : string;
  en_alias : string option;
  en_schema : Row.schema;
  en_offset : int;
}

type env = env_entry list

let env_of_tables tables =
  let _, env =
    List.fold_left
      (fun (offset, acc) (name, alias, schema) ->
        let entry =
          { en_table = name; en_alias = alias; en_schema = schema; en_offset = offset }
        in
        (offset + Array.length schema.Row.cols, entry :: acc))
      (0, []) tables
  in
  List.rev env

let entry_matches entry name =
  (match entry.en_alias with
  | Some a -> String.equal a name
  | None -> false)
  || String.equal entry.en_table name

let resolve env ~qualifier ~column =
  let candidates =
    List.filter_map
      (fun entry ->
        match qualifier with
        | Some q when not (entry_matches entry q) -> None
        | _ -> (
            match Row.field_number entry.en_schema column with
            | Ok i -> Some (entry.en_offset + i)
            | Error _ -> None))
      env
  in
  match candidates with
  | [ i ] -> Ok i
  | [] ->
      fail
        (Errors.Name_error
           (match qualifier with
           | Some q -> Printf.sprintf "unknown column %s.%s" q column
           | None -> "unknown column " ^ column))
  | _ :: _ -> fail (Errors.Name_error ("ambiguous column " ^ column))

let lit_value = function
  | L_int i -> Ok (Row.Vint i)
  | L_float f -> Ok (Row.Vfloat f)
  | L_string s -> Ok (Row.Vstr s)
  | L_bool b -> Ok (Row.Vbool b)
  | L_null -> Ok Row.Null
  | L_param i ->
      fail
        (Errors.Bad_request
           (Printf.sprintf "parameter marker %d has no value" i))

let cmp_op = function
  | Ast.Eq -> Expr.Eq
  | Ast.Ne -> Expr.Ne
  | Ast.Lt -> Expr.Lt
  | Ast.Le -> Expr.Le
  | Ast.Gt -> Expr.Gt
  | Ast.Ge -> Expr.Ge

let bin_op = function
  | Ast.Add -> Expr.Add
  | Ast.Sub -> Expr.Sub
  | Ast.Mul -> Expr.Mul
  | Ast.Div -> Expr.Div
  | Ast.Concat -> Expr.Concat

let rec bind env e =
  match e with
  | E_col (qualifier, column) ->
      let* i = resolve env ~qualifier ~column in
      Ok (Expr.Field i)
  | E_lit l ->
      let* v = lit_value l in
      Ok (Expr.Const v)
  | E_binop (op, a, b) ->
      let* a = bind env a in
      let* b = bind env b in
      Ok (Expr.Binop (bin_op op, a, b))
  | E_cmp (op, a, b) ->
      let* a = bind env a in
      let* b = bind env b in
      Ok (Expr.Cmp (cmp_op op, a, b))
  | E_and (a, b) ->
      let* a = bind env a in
      let* b = bind env b in
      Ok (Expr.And (a, b))
  | E_or (a, b) ->
      let* a = bind env a in
      let* b = bind env b in
      Ok (Expr.Or (a, b))
  | E_not a ->
      let* a = bind env a in
      Ok (Expr.Not a)
  | E_is_null a ->
      let* a = bind env a in
      Ok (Expr.Is_null a)
  | E_is_not_null a ->
      let* a = bind env a in
      Ok (Expr.Not (Expr.Is_null a))
  | E_like (a, p) ->
      let* a = bind env a in
      Ok (Expr.Like (a, p))
  | E_between (a, lo, hi) ->
      let* a = bind env a in
      let* lo = bind env lo in
      let* hi = bind env hi in
      Ok (Expr.And (Expr.Cmp (Expr.Ge, a, lo), Expr.Cmp (Expr.Le, a, hi)))
  | E_in (a, ls) -> (
      let* a = bind env a in
      let* vs = Errors.list_map lit_value ls in
      match vs with
      | [] -> Ok (Expr.Const (Row.Vbool false))
      | first :: rest ->
          let eq v = Expr.Cmp (Expr.Eq, a, Expr.Const v) in
          Ok (List.fold_left (fun acc v -> Expr.Or (acc, eq v)) (eq first) rest))
  | E_agg _ ->
      fail (Errors.Bad_request "aggregate not allowed in this context")
