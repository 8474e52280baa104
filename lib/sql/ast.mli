(** Abstract syntax of the supported SQL dialect.

    The dialect covers what the paper's discussion and examples need:
    CREATE TABLE (with PRIMARY KEY and CHECK), CREATE INDEX, INSERT,
    SELECT (projection, WHERE, joins, GROUP BY with aggregates, ORDER BY,
    LIMIT), UPDATE with expressions, DELETE, and transaction control. *)

type literal =
  | L_int of int
  | L_float of float
  | L_string of string
  | L_bool of bool
  | L_null
  | L_param of int  (** a [?] marker, numbered from 0 left to right *)

type binop = Add | Sub | Mul | Div | Concat

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type agg_kind = A_count_star | A_count | A_sum | A_min | A_max | A_avg

type sexpr =
  | E_col of string option * string  (** optional table qualifier, column *)
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
  cd_type : Nsql_row.Row.col_type;
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
  sel_from : (string * string option) list;  (** table, alias *)
  sel_where : sexpr option;
  sel_group_by : sexpr list;
  sel_having : sexpr option;
  sel_order_by : order_item list;
  sel_limit : int option;
}

val agg_name : agg_kind -> string

val pp_sexpr : Format.formatter -> sexpr -> unit

(** [conjuncts e] flattens nested ANDs. *)
val conjuncts : sexpr -> sexpr list

(** [has_agg e] — does the expression contain an aggregate? *)
val has_agg : sexpr -> bool

(** [bind_params stmt values] replaces marker [i] with [values.(i)], as
    the tree the parser builds for that value's text at that position: in
    an expression a negative number becomes [E_binop (Sub, E_lit (L_int
    0), E_lit |v|)], as a unary minus does; in a VALUES or IN list it
    stays one negative literal. [Bad_request] when the number of values
    differs from the number of markers. *)
val bind_params :
  statement -> Nsql_row.Row.value array -> (statement, Nsql_util.Errors.t) result
