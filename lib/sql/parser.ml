module Errors = Nsql_util.Errors
module Row = Nsql_row.Row

open Ast

exception Syntax of string

type state = {
  mutable toks : Lexer.token list;
  mutable params : int;  (** [?] markers met so far *)
}

let peek st = match st.toks with [] -> Lexer.T_eof | t :: _ -> t

let advance st =
  match st.toks with [] -> () | _ :: rest -> st.toks <- rest

let next st =
  let t = peek st in
  advance st;
  t

let fail_at st msg =
  raise
    (Syntax
       (Format.asprintf "%s (at %a)" msg Lexer.pp_token (peek st)))

let expect_symbol st s =
  match next st with
  | Lexer.T_symbol s' when String.equal s s' -> ()
  | _ -> fail_at st (Printf.sprintf "expected %s" s)

let expect_keyword st k =
  match next st with
  | Lexer.T_keyword k' when String.equal k k' -> ()
  | _ -> fail_at st (Printf.sprintf "expected %s" k)

let accept_symbol st s =
  match peek st with
  | Lexer.T_symbol s' when String.equal s s' ->
      advance st;
      true
  | _ -> false

let accept_keyword st k =
  match peek st with
  | Lexer.T_keyword k' when String.equal k k' ->
      advance st;
      true
  | _ -> false

let expect_ident st =
  match next st with
  | Lexer.T_ident id -> id
  | _ -> fail_at st "expected identifier"

let expect_int st =
  match next st with
  | Lexer.T_int i -> i
  | _ -> fail_at st "expected integer"

(* --- expressions -------------------------------------------------------- *)

let agg_of_keyword = function
  | "COUNT" -> Some A_count
  | "SUM" -> Some A_sum
  | "MIN" -> Some A_min
  | "MAX" -> Some A_max
  | "AVG" -> Some A_avg
  | _ -> None

let rec parse_or st =
  let a = parse_and st in
  if accept_keyword st "OR" then E_or (a, parse_or st) else a

and parse_and st =
  let a = parse_not st in
  if accept_keyword st "AND" then E_and (a, parse_and st) else a

and parse_not st =
  if accept_keyword st "NOT" then E_not (parse_not st) else parse_predicate st

and parse_predicate st =
  let a = parse_additive st in
  match peek st with
  | Lexer.T_symbol "=" ->
      advance st;
      E_cmp (Eq, a, parse_additive st)
  | Lexer.T_symbol "<>" ->
      advance st;
      E_cmp (Ne, a, parse_additive st)
  | Lexer.T_symbol "<" ->
      advance st;
      E_cmp (Lt, a, parse_additive st)
  | Lexer.T_symbol "<=" ->
      advance st;
      E_cmp (Le, a, parse_additive st)
  | Lexer.T_symbol ">" ->
      advance st;
      E_cmp (Gt, a, parse_additive st)
  | Lexer.T_symbol ">=" ->
      advance st;
      E_cmp (Ge, a, parse_additive st)
  | Lexer.T_keyword "IS" ->
      advance st;
      if accept_keyword st "NOT" then begin
        expect_keyword st "NULL";
        E_is_not_null a
      end
      else begin
        expect_keyword st "NULL";
        E_is_null a
      end
  | Lexer.T_keyword "LIKE" ->
      advance st;
      (match next st with
      | Lexer.T_string p -> E_like (a, p)
      | _ -> fail_at st "expected pattern string after LIKE")
  | Lexer.T_keyword "NOT" -> (
      advance st;
      match next st with
      | Lexer.T_keyword "LIKE" -> (
          match next st with
          | Lexer.T_string p -> E_not (E_like (a, p))
          | _ -> fail_at st "expected pattern string after NOT LIKE")
      | Lexer.T_keyword "BETWEEN" ->
          let lo = parse_additive st in
          expect_keyword st "AND";
          let hi = parse_additive st in
          E_not (E_between (a, lo, hi))
      | Lexer.T_keyword "IN" -> E_not (parse_in st a)
      | _ -> fail_at st "expected LIKE, BETWEEN or IN after NOT")
  | Lexer.T_keyword "BETWEEN" ->
      advance st;
      let lo = parse_additive st in
      expect_keyword st "AND";
      let hi = parse_additive st in
      E_between (a, lo, hi)
  | Lexer.T_keyword "IN" ->
      advance st;
      parse_in st a
  | _ -> a

and parse_in st a =
  expect_symbol st "(";
  let rec literals acc =
    let l = parse_literal st in
    if accept_symbol st "," then literals (l :: acc)
    else begin
      expect_symbol st ")";
      List.rev (l :: acc)
    end
  in
  E_in (a, literals [])

and parse_literal st =
  match next st with
  | Lexer.T_int i -> L_int i
  | Lexer.T_float f -> L_float f
  | Lexer.T_string s -> L_string s
  | Lexer.T_keyword "TRUE" -> L_bool true
  | Lexer.T_keyword "FALSE" -> L_bool false
  | Lexer.T_keyword "NULL" -> L_null
  | Lexer.T_param ->
      st.params <- st.params + 1;
      L_param (st.params - 1)
  | Lexer.T_symbol "-" -> (
      match next st with
      | Lexer.T_int i -> L_int (-i)
      | Lexer.T_float f -> L_float (-.f)
      | _ -> fail_at st "expected number after unary minus")
  | _ -> fail_at st "expected literal"

and parse_additive st =
  let rec go a =
    if accept_symbol st "+" then go (E_binop (Add, a, parse_multiplicative st))
    else if accept_symbol st "-" then go (E_binop (Sub, a, parse_multiplicative st))
    else if accept_symbol st "||" then go (E_binop (Concat, a, parse_multiplicative st))
    else a
  in
  go (parse_multiplicative st)

and parse_multiplicative st =
  let rec go a =
    if accept_symbol st "*" then go (E_binop (Mul, a, parse_primary st))
    else if accept_symbol st "/" then go (E_binop (Div, a, parse_primary st))
    else a
  in
  go (parse_primary st)

and parse_primary st =
  match peek st with
  | Lexer.T_int _ | Lexer.T_float _ | Lexer.T_string _ | Lexer.T_param
  | Lexer.T_keyword ("TRUE" | "FALSE" | "NULL") ->
      E_lit (parse_literal st)
  | Lexer.T_symbol "-" ->
      advance st;
      E_binop (Sub, E_lit (L_int 0), parse_primary st)
  | Lexer.T_symbol "(" ->
      advance st;
      let e = parse_or st in
      expect_symbol st ")";
      e
  | Lexer.T_keyword k when agg_of_keyword k <> None ->
      advance st;
      expect_symbol st "(";
      if String.equal k "COUNT" && accept_symbol st "*" then begin
        expect_symbol st ")";
        E_agg (A_count_star, None)
      end
      else begin
        let e = parse_or st in
        expect_symbol st ")";
        match agg_of_keyword k with
        | Some kind -> E_agg (kind, Some e)
        | None -> assert false
      end
  | Lexer.T_ident id ->
      advance st;
      if accept_symbol st "." then begin
        let col = expect_ident st in
        E_col (Some id, col)
      end
      else E_col (None, id)
  | _ -> fail_at st "expected expression"

(* --- types ---------------------------------------------------------------- *)

let parse_col_type st =
  match next st with
  | Lexer.T_keyword ("INT" | "INTEGER") -> Row.T_int
  | Lexer.T_keyword ("FLOAT" | "REAL") -> Row.T_float
  | Lexer.T_keyword "DOUBLE" ->
      ignore (accept_keyword st "PRECISION");
      Row.T_float
  | Lexer.T_keyword ("BOOL" | "BOOLEAN") -> Row.T_bool
  | Lexer.T_keyword "CHAR" ->
      expect_symbol st "(";
      let n = expect_int st in
      expect_symbol st ")";
      Row.T_char n
  | Lexer.T_keyword "VARCHAR" ->
      expect_symbol st "(";
      let n = expect_int st in
      expect_symbol st ")";
      Row.T_varchar n
  | _ -> fail_at st "expected column type"

(* --- statements ------------------------------------------------------------- *)

let parse_ident_list st =
  expect_symbol st "(";
  let rec go acc =
    let id = expect_ident st in
    if accept_symbol st "," then go (id :: acc)
    else begin
      expect_symbol st ")";
      List.rev (id :: acc)
    end
  in
  go []

let parse_create st =
  if accept_keyword st "TABLE" then begin
    let name = expect_ident st in
    expect_symbol st "(";
    let cols = ref [] in
    let pk = ref [] in
    let check = ref None in
    let rec item () =
      if accept_keyword st "PRIMARY" then begin
        expect_keyword st "KEY";
        pk := parse_ident_list st
      end
      else if accept_keyword st "CHECK" then begin
        expect_symbol st "(";
        let markers = st.params in
        let e = parse_or st in
        if st.params > markers then fail_at st "parameter marker in CREATE TABLE";
        expect_symbol st ")";
        check := Some e
      end
      else begin
        let cname = expect_ident st in
        let ty = parse_col_type st in
        let not_null = ref false in
        let inline_pk = ref false in
        let rec modifiers () =
          if accept_keyword st "NOT" then begin
            expect_keyword st "NULL";
            not_null := true;
            modifiers ()
          end
          else if accept_keyword st "PRIMARY" then begin
            expect_keyword st "KEY";
            inline_pk := true;
            modifiers ()
          end
        in
        modifiers ();
        cols := { cd_name = cname; cd_type = ty; cd_not_null = !not_null } :: !cols;
        if !inline_pk then pk := !pk @ [ cname ]
      end;
      if accept_symbol st "," then item () else expect_symbol st ")"
    in
    item ();
    St_create_table
      { ct_name = name; ct_cols = List.rev !cols; ct_primary_key = !pk; ct_check = !check }
  end
  else begin
    ignore (accept_keyword st "UNIQUE");
    expect_keyword st "INDEX";
    let ci_name = expect_ident st in
    expect_keyword st "ON";
    let ci_table = expect_ident st in
    let ci_cols = parse_ident_list st in
    St_create_index { ci_name; ci_table; ci_cols }
  end

let parse_insert st =
  expect_keyword st "INTO";
  let table = expect_ident st in
  let cols =
    match peek st with
    | Lexer.T_symbol "(" -> Some (parse_ident_list st)
    | _ -> None
  in
  expect_keyword st "VALUES";
  let tuple () =
    expect_symbol st "(";
    let rec go acc =
      let l = parse_literal st in
      if accept_symbol st "," then go (l :: acc)
      else begin
        expect_symbol st ")";
        List.rev (l :: acc)
      end
    in
    go []
  in
  let rec tuples acc =
    let t = tuple () in
    if accept_symbol st "," then tuples (t :: acc) else List.rev (t :: acc)
  in
  St_insert { i_table = table; i_cols = cols; i_values = tuples [] }

let parse_select st =
  let distinct = accept_keyword st "DISTINCT" in
  let items =
    if accept_symbol st "*" then [ S_star ]
    else begin
      let item () =
        let e = parse_or st in
        if accept_keyword st "AS" then S_expr (e, Some (expect_ident st))
        else
          match peek st with
          | Lexer.T_ident alias ->
              advance st;
              S_expr (e, Some alias)
          | _ -> S_expr (e, None)
      in
      let rec go acc =
        let it = item () in
        if accept_symbol st "," then go (it :: acc) else List.rev (it :: acc)
      in
      go []
    end
  in
  expect_keyword st "FROM";
  let from_item () =
    let tname = expect_ident st in
    let alias =
      if accept_keyword st "AS" then Some (expect_ident st)
      else
        match peek st with
        | Lexer.T_ident a ->
            advance st;
            Some a
        | _ -> None
    in
    (tname, alias)
  in
  let from = ref [ from_item () ] in
  let join_preds = ref [] in
  let rec more_tables () =
    if accept_symbol st "," then begin
      from := from_item () :: !from;
      more_tables ()
    end
    else if accept_keyword st "INNER" || accept_keyword st "JOIN" then begin
      (* INNER was consumed; a following JOIN may remain *)
      ignore (accept_keyword st "JOIN");
      from := from_item () :: !from;
      expect_keyword st "ON";
      join_preds := parse_or st :: !join_preds;
      more_tables ()
    end
  in
  more_tables ();
  let where = if accept_keyword st "WHERE" then Some (parse_or st) else None in
  let where =
    List.fold_left
      (fun acc p -> match acc with None -> Some p | Some w -> Some (E_and (w, p)))
      where !join_preds
  in
  let group_by =
    if accept_keyword st "GROUP" then begin
      expect_keyword st "BY";
      let rec go acc =
        let e = parse_or st in
        if accept_symbol st "," then go (e :: acc) else List.rev (e :: acc)
      in
      go []
    end
    else []
  in
  let having = if accept_keyword st "HAVING" then Some (parse_or st) else None in
  let order_by =
    if accept_keyword st "ORDER" then begin
      expect_keyword st "BY";
      let rec go acc =
        let e = parse_or st in
        let desc =
          if accept_keyword st "DESC" then true
          else begin
            ignore (accept_keyword st "ASC");
            false
          end
        in
        if accept_symbol st "," then go ({ o_expr = e; o_desc = desc } :: acc)
        else List.rev ({ o_expr = e; o_desc = desc } :: acc)
      in
      go []
    end
    else []
  in
  let limit = if accept_keyword st "LIMIT" then Some (expect_int st) else None in
  St_select
    {
      sel_distinct = distinct;
      sel_items = items;
      sel_from = List.rev !from;
      sel_where = where;
      sel_group_by = group_by;
      sel_having = having;
      sel_order_by = order_by;
      sel_limit = limit;
    }

let parse_update st =
  let table = expect_ident st in
  expect_keyword st "SET";
  let assignment () =
    let col = expect_ident st in
    (* allow qualified target: TABLE.COL *)
    let col =
      if accept_symbol st "." then expect_ident st else col
    in
    expect_symbol st "=";
    (col, parse_or st)
  in
  let rec go acc =
    let a = assignment () in
    if accept_symbol st "," then go (a :: acc) else List.rev (a :: acc)
  in
  let sets = go [] in
  let where = if accept_keyword st "WHERE" then Some (parse_or st) else None in
  St_update { u_table = table; u_sets = sets; u_where = where }

let parse_delete st =
  expect_keyword st "FROM";
  let table = expect_ident st in
  let where = if accept_keyword st "WHERE" then Some (parse_or st) else None in
  St_delete { d_table = table; d_where = where }

let parse_statement st =
  match next st with
  | Lexer.T_keyword "CREATE" -> parse_create st
  | Lexer.T_keyword "DROP" ->
      expect_keyword st "TABLE";
      St_drop_table (expect_ident st)
  | Lexer.T_keyword "INSERT" -> parse_insert st
  | Lexer.T_keyword "SELECT" -> parse_select st
  | Lexer.T_keyword "UPDATE" -> parse_update st
  | Lexer.T_keyword "DELETE" -> parse_delete st
  | Lexer.T_keyword "BEGIN" ->
      ignore (accept_keyword st "WORK");
      St_begin
  | Lexer.T_keyword "COMMIT" ->
      ignore (accept_keyword st "WORK");
      St_commit
  | Lexer.T_keyword "ROLLBACK" ->
      ignore (accept_keyword st "WORK");
      St_rollback
  | _ -> fail_at st "expected a statement"

let with_tokens src f =
  match Lexer.tokenize src with
  | Error _ as e -> e
  | Ok toks -> (
      let st = { toks; params = 0 } in
      try Ok (f st)
      with Syntax msg -> Errors.fail (Errors.Parse_error msg))

let parse src =
  with_tokens src (fun st ->
      let stmt = parse_statement st in
      ignore (accept_symbol st ";");
      (match peek st with
      | Lexer.T_eof -> ()
      | _ -> fail_at st "trailing input after statement");
      stmt)

let parse_many src =
  with_tokens src (fun st ->
      let rec go acc =
        match peek st with
        | Lexer.T_eof -> List.rev acc
        | _ ->
            let stmt = parse_statement st in
            let _ = accept_symbol st ";" in
            go (stmt :: acc)
      in
      go [])

let parse_expr src =
  with_tokens src (fun st ->
      let e = parse_or st in
      (match peek st with
      | Lexer.T_eof -> ()
      | _ -> fail_at st "trailing input after expression");
      e)
