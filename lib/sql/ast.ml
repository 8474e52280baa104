module Row = Nsql_row.Row
module Errors = Nsql_util.Errors

type literal =
  | L_int of int
  | L_float of float
  | L_string of string
  | L_bool of bool
  | L_null
  | L_param of int

type binop = Add | Sub | Mul | Div | Concat

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type agg_kind = A_count_star | A_count | A_sum | A_min | A_max | A_avg

type sexpr =
  | E_col of string option * string
  | E_lit of literal
  | E_binop of binop * sexpr * sexpr
  | E_cmp of cmp * sexpr * sexpr
  | E_and of sexpr * sexpr
  | E_or of sexpr * sexpr
  | E_not of sexpr
  | E_is_null of sexpr
  | E_is_not_null of sexpr
  | E_like of sexpr * string
  | E_between of sexpr * sexpr * sexpr
  | E_in of sexpr * literal list
  | E_agg of agg_kind * sexpr option

type select_item = S_star | S_expr of sexpr * string option

type order_item = { o_expr : sexpr; o_desc : bool }

type col_def = {
  cd_name : string;
  cd_type : Row.col_type;
  cd_not_null : bool;
}

type statement =
  | St_create_table of {
      ct_name : string;
      ct_cols : col_def list;
      ct_primary_key : string list;
      ct_check : sexpr option;
    }
  | St_create_index of { ci_name : string; ci_table : string; ci_cols : string list }
  | St_insert of {
      i_table : string;
      i_cols : string list option;
      i_values : literal list list;
    }
  | St_select of select_stmt
  | St_update of {
      u_table : string;
      u_sets : (string * sexpr) list;
      u_where : sexpr option;
    }
  | St_delete of { d_table : string; d_where : sexpr option }
  | St_drop_table of string
  | St_begin
  | St_commit
  | St_rollback

and select_stmt = {
  sel_distinct : bool;
  sel_items : select_item list;
  sel_from : (string * string option) list;
  sel_where : sexpr option;
  sel_group_by : sexpr list;
  sel_having : sexpr option;
  sel_order_by : order_item list;
  sel_limit : int option;
}

let pp_literal ppf = function
  | L_int i -> Format.pp_print_int ppf i
  | L_float f -> Format.fprintf ppf "%g" f
  | L_string s -> Format.fprintf ppf "'%s'" s
  | L_bool b -> Format.pp_print_string ppf (if b then "TRUE" else "FALSE")
  | L_null -> Format.pp_print_string ppf "NULL"
  | L_param _ -> Format.pp_print_string ppf "?"

let binop_symbol = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Concat -> "||"

let cmp_symbol = function
  | Eq -> "="
  | Ne -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let agg_name = function
  | A_count_star | A_count -> "COUNT"
  | A_sum -> "SUM"
  | A_min -> "MIN"
  | A_max -> "MAX"
  | A_avg -> "AVG"

let rec pp_sexpr ppf = function
  | E_col (None, c) -> Format.pp_print_string ppf c
  | E_col (Some t, c) -> Format.fprintf ppf "%s.%s" t c
  | E_lit l -> pp_literal ppf l
  | E_binop (op, a, b) ->
      Format.fprintf ppf "(%a %s %a)" pp_sexpr a (binop_symbol op) pp_sexpr b
  | E_cmp (op, a, b) ->
      Format.fprintf ppf "(%a %s %a)" pp_sexpr a (cmp_symbol op) pp_sexpr b
  | E_and (a, b) -> Format.fprintf ppf "(%a AND %a)" pp_sexpr a pp_sexpr b
  | E_or (a, b) -> Format.fprintf ppf "(%a OR %a)" pp_sexpr a pp_sexpr b
  | E_not a -> Format.fprintf ppf "(NOT %a)" pp_sexpr a
  | E_is_null a -> Format.fprintf ppf "(%a IS NULL)" pp_sexpr a
  | E_is_not_null a -> Format.fprintf ppf "(%a IS NOT NULL)" pp_sexpr a
  | E_like (a, p) -> Format.fprintf ppf "(%a LIKE '%s')" pp_sexpr a p
  | E_between (a, lo, hi) ->
      Format.fprintf ppf "(%a BETWEEN %a AND %a)" pp_sexpr a pp_sexpr lo
        pp_sexpr hi
  | E_in (a, ls) ->
      Format.fprintf ppf "(%a IN (%a))" pp_sexpr a
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           pp_literal)
        ls
  | E_agg (A_count_star, _) -> Format.pp_print_string ppf "COUNT(*)"
  | E_agg (kind, Some e) -> Format.fprintf ppf "%s(%a)" (agg_name kind) pp_sexpr e
  | E_agg (kind, None) -> Format.fprintf ppf "%s(?)" (agg_name kind)

let conjuncts e =
  let rec go acc = function
    | E_and (a, b) -> go (go acc b) a
    | e -> e :: acc
  in
  go [] e

let rec has_agg = function
  | E_agg _ -> true
  | E_col _ | E_lit _ -> false
  | E_binop (_, a, b) | E_cmp (_, a, b) | E_and (a, b) | E_or (a, b) ->
      has_agg a || has_agg b
  | E_not a | E_is_null a | E_is_not_null a | E_like (a, _) | E_in (a, _) ->
      has_agg a
  | E_between (a, lo, hi) -> has_agg a || has_agg lo || has_agg hi

(* A marker becomes the tree the parser builds for the value's text at
   that position ([%d], [%f], a quoted string, NULL): in an expression a
   negative number is [0 - |v|], as [parse_primary] builds a unary minus,
   and in a VALUES or IN list it is a plain negative literal. *)
let bind_params stmt values =
  let n = Array.length values in
  let markers = ref 0 in
  let value i =
    markers := max !markers (i + 1);
    if i < n then values.(i) else Row.Null
  in
  let literal = function
    | Row.Null -> L_null
    | Row.Vint i -> L_int i
    | Row.Vfloat f -> L_float f
    | Row.Vbool b -> L_bool b
    | Row.Vstr s -> L_string s
  in
  let lit = function L_param i -> literal (value i) | l -> l in
  let neg l = E_binop (Sub, E_lit (L_int 0), E_lit l) in
  let rec ex e =
    match e with
    | E_lit (L_param i) -> (
        match value i with
        | Row.Vint v when v < 0 -> neg (L_int (-v))
        | Row.Vfloat f when Float.sign_bit f -> neg (L_float (Float.neg f))
        | v -> E_lit (literal v))
    | E_col _ | E_lit _ -> e
    | E_binop (op, a, b) -> E_binop (op, ex a, ex b)
    | E_cmp (op, a, b) -> E_cmp (op, ex a, ex b)
    | E_and (a, b) -> E_and (ex a, ex b)
    | E_or (a, b) -> E_or (ex a, ex b)
    | E_not a -> E_not (ex a)
    | E_is_null a -> E_is_null (ex a)
    | E_is_not_null a -> E_is_not_null (ex a)
    | E_like (a, p) -> E_like (ex a, p)
    | E_between (a, lo, hi) -> E_between (ex a, ex lo, ex hi)
    | E_in (a, ls) -> E_in (ex a, List.map lit ls)
    | E_agg (k, a) -> E_agg (k, Option.map ex a)
  in
  let bound =
    match stmt with
    | St_insert i -> St_insert { i with i_values = List.map (List.map lit) i.i_values }
    | St_select sel ->
        St_select
          {
            sel with
            sel_items =
              List.map
                (function S_star -> S_star | S_expr (e, a) -> S_expr (ex e, a))
                sel.sel_items;
            sel_where = Option.map ex sel.sel_where;
            sel_group_by = List.map ex sel.sel_group_by;
            sel_having = Option.map ex sel.sel_having;
            sel_order_by =
              List.map (fun o -> { o with o_expr = ex o.o_expr }) sel.sel_order_by;
          }
    | St_update u ->
        St_update
          {
            u with
            u_sets = List.map (fun (c, e) -> (c, ex e)) u.u_sets;
            u_where = Option.map ex u.u_where;
          }
    | St_delete d -> St_delete { d with d_where = Option.map ex d.d_where }
    | St_create_table _ | St_create_index _ | St_drop_table _ | St_begin
    | St_commit | St_rollback ->
        stmt
  in
  if !markers = n then Ok bound
  else
    Errors.fail
      (Errors.Bad_request
         (Printf.sprintf "statement has %d parameter marker(s), %d value(s) given"
            !markers n))
