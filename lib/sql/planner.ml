module Row = Nsql_row.Row
module Expr = Nsql_expr.Expr
module Fs = Nsql_fs.Fs
module Dp_msg = Nsql_dp.Dp_msg
module Keycode = Nsql_util.Keycode
module Errors = Nsql_util.Errors

open Errors
open Ast

type access_path =
  | Ap_primary of {
      access : Fs.access;
      range : Expr.key_range;
      pred : Expr.t option;
      proj : int array option;
    }
  | Ap_index of {
      index : string;
      range : Expr.key_range;
      ipred : Expr.t option;
      residual : Expr.t option;
    }

type inner_access =
  | Ji_scan of { pred : Expr.t option }
  | Ji_keyed of { key_exprs : Expr.t list }

type join_step = {
  j_table : Catalog.table;
  j_inner : inner_access;
  j_post : Expr.t option;
}

type group_spec = {
  g_keys : Expr.t list;
  g_aggs : (Ast.agg_kind * Expr.t option) list;
  g_having : Expr.t option;
}

(** Aggregate pushdown: the whole GROUP BY evaluates at the data source
    (one AGGREGATE^FIRST/NEXT chain per partition). Legal only for a
    single-table primary scan whose group keys are bare columns forming a
    prefix of the primary key — then per-partition first-seen order is key
    order and partials merge exactly. Fields are in base numbering: the
    pushdown bypasses the scan-side projection remap. *)
type agg_pushdown = {
  ap_range : Expr.key_range;
  ap_pred : Expr.t option;
  ap_group_keys : int array;
  ap_aggs : Dp_msg.agg_spec list;
}

type select_plan = {
  p_distinct : bool;
  p_table : Catalog.table;
  p_access : access_path;
  p_joins : join_step list;
  p_group : group_spec option;
  p_pushdown : agg_pushdown option;
  p_order : (Expr.t * bool) list;
  p_exprs : Expr.t list;
  p_names : string list;
  p_limit : int option;
}

type update_plan = {
  up_table : Catalog.table;
  up_range : Expr.key_range;
  up_pred : Expr.t option;
  up_assignments : Expr.assignment list;
}

type delete_plan = {
  dp_table : Catalog.table;
  dp_range : Expr.key_range;
  dp_pred : Expr.t option;
}

let pp_access ppf = function
  | Ap_primary { access; range; pred; proj } ->
      Format.fprintf ppf "primary %s range=%a pred=%s proj=%s"
        (match access with
        | Fs.A_record -> "record-at-a-time"
        | Fs.A_rsbb -> "RSBB"
        | Fs.A_vsbb -> "VSBB")
        Expr.pp_key_range range
        (match pred with None -> "-" | Some p -> Format.asprintf "%a" Expr.pp p)
        (match proj with
        | None -> "-"
        | Some fields ->
            String.concat ","
              (Array.to_list (Array.map string_of_int fields)))
  | Ap_index { index; range; ipred; residual } ->
      Format.fprintf ppf "index %s range=%a ipred=%s residual=%s" index
        Expr.pp_key_range range
        (match ipred with None -> "-" | Some p -> Format.asprintf "%a" Expr.pp p)
        (match residual with
        | None -> "-"
        | Some p -> Format.asprintf "%a" Expr.pp p)

let pp_select_plan ppf p =
  Format.fprintf ppf "@[<v>scan %s via %a" p.p_table.Catalog.t_name pp_access
    p.p_access;
  List.iter
    (fun step ->
      Format.fprintf ppf "@,join %s (%s)" step.j_table.Catalog.t_name
        (match step.j_inner with
        | Ji_scan _ -> "nested-loop scan"
        | Ji_keyed _ -> "keyed point read"))
    p.p_joins;
  (match p.p_group with
  | Some g ->
      Format.fprintf ppf "@,group keys=%d aggs=%d%s" (List.length g.g_keys)
        (List.length g.g_aggs)
        (if p.p_pushdown <> None then " (pushed to DP)" else "")
  | None -> ());
  if p.p_order <> [] then Format.fprintf ppf "@,sort (%d keys)" (List.length p.p_order);
  Format.fprintf ppf "@]"

(* --- operator descriptors ----------------------------------------------------

   A linear description of the operator chain the Executor runs for a
   plan, one entry per operator in execution order. The experiments use
   it to label per-operator work and report per-operator cost without
   re-deriving the plan shape. *)

type op_desc =
  | Od_scan of { table : string; path : string }
  | Od_filter of { table : string }
  | Od_join of { table : string; kind : string }
  | Od_group of { keys : int; aggs : int; pushdown : bool }
  | Od_sort of { keys : int }
  | Od_project of { exprs : int; distinct : bool }
  | Od_limit of { n : int }

let operators p =
  let group pushdown =
    match p.p_group with
    | None -> []
    | Some g ->
        [
          Od_group
            {
              keys = List.length g.g_keys;
              aggs = List.length g.g_aggs;
              pushdown;
            };
        ]
  in
  let source =
    match (p.p_group, p.p_pushdown) with
    | Some _, Some _ -> group true
    | _ ->
        let table = p.p_table.Catalog.t_name in
        let scan =
          Od_scan
            {
              table;
              path =
                (match p.p_access with
                | Ap_primary _ -> "primary"
                | Ap_index { index; _ } -> "index:" ^ index);
            }
        in
        let residual =
          match p.p_access with
          | Ap_index { residual = Some _; _ } -> [ Od_filter { table } ]
          | _ -> []
        in
        let joins =
          List.map
            (fun step ->
              Od_join
                {
                  table = step.j_table.Catalog.t_name;
                  kind =
                    (match step.j_inner with
                    | Ji_keyed _ -> "keyed"
                    | Ji_scan _ -> "scan");
                })
            p.p_joins
        in
        (scan :: residual) @ joins @ group false
  in
  source
  @ (if p.p_order <> [] then [ Od_sort { keys = List.length p.p_order } ] else [])
  @ [ Od_project { exprs = List.length p.p_exprs; distinct = p.p_distinct } ]
  @ match p.p_limit with Some n -> [ Od_limit { n } ] | None -> []

let pp_op_desc ppf = function
  | Od_scan { table; path } -> Format.fprintf ppf "scan %s via %s" table path
  | Od_filter { table } -> Format.fprintf ppf "filter %s residual" table
  | Od_join { table; kind } -> Format.fprintf ppf "join %s (%s)" table kind
  | Od_group { keys; aggs; pushdown } ->
      Format.fprintf ppf "group keys=%d aggs=%d%s" keys aggs
        (if pushdown then " (pushed to DP)" else "")
  | Od_sort { keys } -> Format.fprintf ppf "sort (%d keys)" keys
  | Od_project { exprs; distinct } ->
      Format.fprintf ppf "project %d exprs%s" exprs
        (if distinct then " distinct" else "")
  | Od_limit { n } -> Format.fprintf ppf "limit %d" n

(* --- helpers ------------------------------------------------------------ *)

let conjoin_opt = function [] -> None | cs -> Some (Expr.conjoin cs)

(* wire spec for one aggregate; COUNT with no argument counts rows, like
   a star-count *)
let dp_agg_spec (kind, arg) =
  match (kind, arg) with
  | Ast.A_count_star, _ | Ast.A_count, None ->
      { Dp_msg.ag_kind = Dp_msg.Agg_count_star; ag_arg = None }
  | Ast.A_count, a -> { Dp_msg.ag_kind = Dp_msg.Agg_count; ag_arg = a }
  | Ast.A_sum, a -> { Dp_msg.ag_kind = Dp_msg.Agg_sum; ag_arg = a }
  | Ast.A_min, a -> { Dp_msg.ag_kind = Dp_msg.Agg_min; ag_arg = a }
  | Ast.A_max, a -> { Dp_msg.ag_kind = Dp_msg.Agg_max; ag_arg = a }
  | Ast.A_avg, a -> { Dp_msg.ag_kind = Dp_msg.Agg_avg; ag_arg = a }

(* structural equality of surface expressions, for GROUP BY matching *)
let rec sexpr_equal a b =
  match (a, b) with
  | E_col (q1, c1), E_col (q2, c2) -> q1 = q2 && String.equal c1 c2
  | E_lit l1, E_lit l2 -> l1 = l2
  | E_binop (o1, a1, b1), E_binop (o2, a2, b2) ->
      o1 = o2 && sexpr_equal a1 a2 && sexpr_equal b1 b2
  | E_cmp (o1, a1, b1), E_cmp (o2, a2, b2) ->
      o1 = o2 && sexpr_equal a1 a2 && sexpr_equal b1 b2
  | E_and (a1, b1), E_and (a2, b2) | E_or (a1, b1), E_or (a2, b2) ->
      sexpr_equal a1 a2 && sexpr_equal b1 b2
  | E_not a1, E_not a2 | E_is_null a1, E_is_null a2
  | E_is_not_null a1, E_is_not_null a2 ->
      sexpr_equal a1 a2
  | E_like (a1, p1), E_like (a2, p2) -> sexpr_equal a1 a2 && String.equal p1 p2
  | E_between (a1, l1, h1), E_between (a2, l2, h2) ->
      sexpr_equal a1 a2 && sexpr_equal l1 l2 && sexpr_equal h1 h2
  | E_in (a1, l1), E_in (a2, l2) -> sexpr_equal a1 a2 && l1 = l2
  | E_agg (k1, None), E_agg (k2, None) -> k1 = k2
  | E_agg (k1, Some a1), E_agg (k2, Some a2) -> k1 = k2 && sexpr_equal a1 a2
  | _ -> false

(* output column name for a select item *)
let item_name i = function
  | S_star -> assert false
  | S_expr (_, Some alias) -> alias
  | S_expr (E_col (_, c), None) -> c
  | S_expr (E_agg (kind, _), None) ->
      String.lowercase_ascii (Ast.agg_name kind)
  | S_expr (_, None) -> Printf.sprintf "col%d" (i + 1)

(* --- single-table access path ---------------------------------------------- *)

(* Translate a base-field expression into index-file numbering, when every
   referenced base field is materialised in the index. *)
let to_index_expr (ix_all_cols : int array) e =
  let pos_of b =
    let rec go i =
      if i >= Array.length ix_all_cols then None
      else if ix_all_cols.(i) = b then Some i
      else go (i + 1)
    in
    go 0
  in
  if List.for_all (fun b -> pos_of b <> None) (Expr.fields e) then
    Some (Expr.map_fields (fun b -> Option.get (pos_of b)) e)
  else None

let full_range_p (r : Expr.key_range) =
  String.equal r.Expr.lo Keycode.low_value
  && String.equal r.Expr.hi Keycode.high_value

(* choose the access path for the first (or only) table given its pushable
   conjuncts (already in base-field numbering) *)
let choose_access (tbl : Catalog.table) conjuncts_ =
  let schema = tbl.Catalog.t_schema in
  let pred = conjoin_opt conjuncts_ in
  let range, residual =
    match pred with
    | None -> (Expr.full_range, None)
    | Some p -> Expr.extract_key_range schema p
  in
  if (not (full_range_p range)) || conjuncts_ = [] then
    `Primary (range, residual)
  else begin
    (* primary key unconstrained: look for an index whose key prefix is *)
    let indexes = Fs.index_names tbl.Catalog.t_file in
    let try_index ixname =
      match Fs.index_schema tbl.Catalog.t_file ~index:ixname with
      | Error _ -> None
      | Ok ix_schema ->
          (* index field numbering = position in the index schema; we can
             translate a conjunct iff its base fields appear in the index.
             The index columns are, by construction, the index schema's
             columns in order; recover base numbering via column names. *)
          let base_of_ix =
            Array.map
              (fun c ->
                match Row.field_number schema c.Row.col_name with
                | Ok b -> b
                | Error _ -> -1)
              ix_schema.Row.cols
          in
          let translated, untranslated =
            List.partition_map
              (fun c ->
                match to_index_expr base_of_ix c with
                | Some ic -> Left ic
                | None -> Right c)
              conjuncts_
          in
          if translated = [] then None
          else begin
            let ipred = Expr.conjoin translated in
            let irange, iresidual = Expr.extract_key_range ix_schema ipred in
            if full_range_p irange then None
            else Some (ixname, irange, iresidual, conjoin_opt untranslated)
          end
    in
    let rec first_usable = function
      | [] -> `Primary (range, residual)
      | ix :: rest -> (
          match try_index ix with
          | Some (ixname, irange, ipred, base_residual) ->
              `Index (ixname, irange, ipred, base_residual)
          | None -> first_usable rest)
    in
    first_usable indexes
  end

(* --- SELECT -------------------------------------------------------------------- *)

let plan_select cat ?access_override (stmt : Ast.select_stmt) =
  (* resolve FROM *)
  let* tables =
    Errors.list_map
      (fun (name, alias) ->
        let* tbl = Catalog.find cat name in
        Ok (tbl, alias))
      stmt.sel_from
  in
  let env =
    Binder.env_of_tables
      (List.map
         (fun (tbl, alias) -> (tbl.Catalog.t_name, alias, tbl.Catalog.t_schema))
         tables)
  in
  let entries = Array.of_list env in
  let table_array = Array.of_list (List.map fst tables) in
  (* WHERE conjuncts bound over the joined row *)
  let* where_conjuncts =
    match stmt.sel_where with
    | None -> Ok []
    | Some w ->
        if Ast.has_agg w then
          fail (Errors.Bad_request "aggregates are not allowed in WHERE")
        else
          Errors.list_map (Binder.bind env) (Ast.conjuncts w)
  in
  (* classify conjuncts by the highest table they reference *)
  let ntables = Array.length entries in
  let level_of e =
    match Expr.fields e with
    | [] -> 0
    | fields ->
        let owner i =
          let rec go k =
            if
              k + 1 < ntables
              && i >= entries.(k + 1).Binder.en_offset
            then go (k + 1)
            else k
          in
          go 0
        in
        List.fold_left (fun acc i -> max acc (owner i)) 0 fields
  in
  let by_level = Array.make ntables [] in
  List.iter
    (fun c ->
      let l = level_of c in
      by_level.(l) <- c :: by_level.(l))
    where_conjuncts;
  Array.iteri (fun i cs -> by_level.(i) <- List.rev cs) by_level;
  (* level 0: single-variable over the first table (offsets 0.. so base
     numbering already) *)
  let t0 = table_array.(0) in
  let access0 = choose_access t0 by_level.(0) in
  (* join steps for tables 1..n-1 *)
  let* joins =
    let rec build k acc =
      if k >= ntables then Ok (List.rev acc)
      else begin
        let entry = entries.(k) in
        let tbl = table_array.(k) in
        let offset = entry.Binder.en_offset in
        let width = Array.length entry.Binder.en_schema.Row.cols in
        let conjs = by_level.(k) in
        (* inner-only conjuncts: push to the inner scan *)
        let inner_only, cross =
          List.partition
            (fun c ->
              List.for_all
                (fun i -> i >= offset && i < offset + width)
                (Expr.fields c))
            conjs
        in
        let inner_pred =
          conjoin_opt
            (List.map (Expr.map_fields (fun i -> i - offset)) inner_only)
        in
        (* keyed access: an equality on every pk column, rhs from earlier
           tables *)
        let pk = entry.Binder.en_schema.Row.key_cols in
        let find_key_expr used pk_col =
          let target = offset + pk_col in
          List.find_opt
            (fun c ->
              (not (List.memq c used))
              &&
              match c with
              | Expr.Cmp (Expr.Eq, Expr.Field f, rhs) when f = target ->
                  List.for_all (fun i -> i < offset) (Expr.fields rhs)
              | Expr.Cmp (Expr.Eq, lhs, Expr.Field f) when f = target ->
                  List.for_all (fun i -> i < offset) (Expr.fields lhs)
              | _ -> false)
            cross
        in
        let keyed =
          let rec collect used exprs = function
            | [] -> Some (List.rev exprs, used)
            | pk_col :: rest -> (
                match find_key_expr used pk_col with
                | Some c ->
                    let rhs =
                      match c with
                      | Expr.Cmp (Expr.Eq, Expr.Field f, rhs) when f = offset + pk_col -> rhs
                      | Expr.Cmp (Expr.Eq, lhs, Expr.Field _) -> lhs
                      | _ -> assert false
                    in
                    collect (c :: used) (rhs :: exprs) rest
                | None -> None)
          in
          collect [] [] (Array.to_list pk)
        in
        let j_inner, consumed =
          match keyed with
          | Some (key_exprs, used) when inner_pred = None ->
              (Ji_keyed { key_exprs }, used)
          | _ -> (Ji_scan { pred = inner_pred }, [])
        in
        let post =
          conjoin_opt (List.filter (fun c -> not (List.memq c consumed)) cross)
        in
        build (k + 1) ({ j_table = tbl; j_inner; j_post = post } :: acc)
      end
    in
    build 1 []
  in
  (* select items *)
  let expanded_items =
    List.concat_map
      (function
        | S_star ->
            List.concat_map
              (fun entry ->
                Array.to_list
                  (Array.map
                     (fun c -> S_expr (E_col (None, c.Row.col_name), Some c.Row.col_name))
                     entry.Binder.en_schema.Row.cols)
              |> List.mapi (fun i it ->
                     (* qualify to avoid ambiguity across tables *)
                     match it with
                     | S_expr (E_col (None, c), a) ->
                         ignore i;
                         S_expr
                           ( E_col
                               ( Some
                                   (match entry.Binder.en_alias with
                                   | Some al -> al
                                   | None -> entry.Binder.en_table),
                                 c ),
                             a )
                     | it -> it))
              env
        | S_expr _ as it -> [ it ])
      stmt.sel_items
  in
  let names = List.mapi item_name expanded_items in
  let item_exprs = List.map (function S_star -> assert false | S_expr (e, _) -> e) expanded_items in
  let aggregated =
    stmt.sel_group_by <> [] || List.exists Ast.has_agg item_exprs
    || (match stmt.sel_having with Some h -> Ast.has_agg h | None -> stmt.sel_having <> None)
  in
  if not aggregated then begin
    (* bind output and order expressions over the joined row *)
    let* exprs = Errors.list_map (Binder.bind env) item_exprs in
    let* order =
      Errors.list_map
        (fun o ->
          let* e = Binder.bind env o.o_expr in
          Ok (e, o.o_desc))
        stmt.sel_order_by
    in
    (* projection pushdown: single-table VSBB only *)
    let access0, exprs, order =
      match (access0, joins) with
      | `Primary (range, pred), [] ->
          let needed =
            List.sort_uniq compare
              (List.concat_map Expr.fields exprs
              @ List.concat_map (fun (e, _) -> Expr.fields e) order)
          in
          let width = Array.length t0.Catalog.t_schema.Row.cols in
          let access =
            match access_override with
            | Some a -> a
            | None ->
                if pred = None && List.length needed = width then Fs.A_rsbb
                else Fs.A_vsbb
          in
          if
            List.length needed < width
            && access = Fs.A_vsbb
          then begin
            let proj = Array.of_list needed in
            let pos i =
              let rec go k = if proj.(k) = i then k else go (k + 1) in
              go 0
            in
            let remap = Expr.map_fields pos in
            ( Ap_primary { access; range; pred; proj = Some proj },
              List.map remap exprs,
              List.map (fun (e, d) -> (remap e, d)) order )
          end
          else
            (Ap_primary { access; range; pred; proj = None }, exprs, order)
      | `Primary (range, pred), _ ->
          let access =
            match access_override with Some a -> a | None -> Fs.A_vsbb
          in
          (Ap_primary { access; range; pred; proj = None }, exprs, order)
      | `Index (index, range, ipred, residual), _ ->
          (Ap_index { index; range; ipred; residual }, exprs, order)
    in
    Ok
      {
        p_distinct = stmt.sel_distinct;
        p_table = t0;
        p_access = access0;
        p_joins = joins;
        p_group = None;
        p_pushdown = None;
        p_order = order;
        p_exprs = exprs;
        p_names = names;
        p_limit = stmt.sel_limit;
      }
  end
  else begin
    (* aggregation: rewrite items/having/order over the group-output row *)
    let* g_keys = Errors.list_map (Binder.bind env) stmt.sel_group_by in
    let nkeys = List.length g_keys in
    let aggs = ref [] in
    let agg_index kind arg_sexpr =
      (* one slot per distinct aggregate *)
      let rec find i = function
        | [] -> None
        | (k, a) :: rest ->
            if
              k = kind
              &&
              match (a, arg_sexpr) with
              | None, None -> true
              | Some x, Some y -> sexpr_equal x y
              | _ -> false
            then Some i
            else find (i + 1) rest
      in
      match find 0 (List.rev !aggs) with
      | Some i -> Ok i
      | None ->
          aggs := (kind, arg_sexpr) :: !aggs;
          Ok (List.length !aggs - 1)
    in
    let rec rewrite e =
      (* a sub-expression equal to a GROUP BY key becomes a key field *)
      let rec key_pos i = function
        | [] -> None
        | k :: rest -> if sexpr_equal k e then Some i else key_pos (i + 1) rest
      in
      match key_pos 0 stmt.sel_group_by with
      | Some i -> Ok (Expr.Field i)
      | None -> (
          match e with
          | E_agg (kind, arg) ->
              let* i = agg_index kind arg in
              Ok (Expr.Field (nkeys + i))
          | E_lit l ->
              let* v = Binder.lit_value l in
              Ok (Expr.Const v)
          | E_col _ ->
              fail
                (Errors.Bad_request
                   (Format.asprintf
                      "column %a must appear in GROUP BY or an aggregate"
                      Ast.pp_sexpr e))
          | E_binop (op, a, b) ->
              let* a = rewrite a in
              let* b = rewrite b in
              Ok (Expr.Binop (Binder.bin_op op, a, b))
          | E_cmp (op, a, b) ->
              let* a = rewrite a in
              let* b = rewrite b in
              Ok (Expr.Cmp (Binder.cmp_op op, a, b))
          | E_and (a, b) ->
              let* a = rewrite a in
              let* b = rewrite b in
              Ok (Expr.And (a, b))
          | E_or (a, b) ->
              let* a = rewrite a in
              let* b = rewrite b in
              Ok (Expr.Or (a, b))
          | E_not a ->
              let* a = rewrite a in
              Ok (Expr.Not a)
          | E_is_null a ->
              let* a = rewrite a in
              Ok (Expr.Is_null a)
          | E_is_not_null a ->
              let* a = rewrite a in
              Ok (Expr.Not (Expr.Is_null a))
          | E_like (a, p) ->
              let* a = rewrite a in
              Ok (Expr.Like (a, p))
          | E_between _ | E_in _ ->
              fail
                (Errors.Bad_request
                   "BETWEEN/IN over aggregates not supported; rewrite with \
                    comparisons")
          )
    in
    let* exprs = Errors.list_map rewrite item_exprs in
    let* having =
      match stmt.sel_having with
      | None -> Ok None
      | Some h ->
          let* h = rewrite h in
          Ok (Some h)
    in
    let* order =
      Errors.list_map
        (fun o ->
          let* e = rewrite o.o_expr in
          Ok (e, o.o_desc))
        stmt.sel_order_by
    in
    (* bind aggregate arguments over the joined row *)
    let* g_aggs =
      Errors.list_map
        (fun (kind, arg) ->
          match arg with
          | None -> Ok (kind, None)
          | Some a ->
              let* a = Binder.bind env a in
              Ok (kind, Some a))
        (List.rev !aggs)
    in
    (* aggregate pushdown legality — decided in base-field numbering,
       before the projection remap below. A single-table primary scan with
       no access override whose group keys are bare columns forming a
       (set-wise) prefix of the primary key delegates the whole GROUP BY
       to the Disk Processes; anything else falls back to the client-side
       group path. *)
    let p_pushdown =
      match (access0, joins, access_override) with
      | `Primary (range, pred), [], None -> (
          let key_cols = t0.Catalog.t_schema.Row.key_cols in
          let nkeys = List.length g_keys in
          let rec bare_fields acc = function
            | [] -> Some (List.rev acc)
            | Expr.Field f :: rest -> bare_fields (f :: acc) rest
            | _ -> None
          in
          match bare_fields [] g_keys with
          | Some fields
            when nkeys <= Array.length key_cols
                 && List.sort_uniq compare fields
                    = List.sort compare
                        (Array.to_list (Array.sub key_cols 0 nkeys)) ->
              Some
                {
                  ap_range = range;
                  ap_pred = pred;
                  ap_group_keys = Array.of_list fields;
                  ap_aggs = List.map dp_agg_spec g_aggs;
                }
          | _ -> None)
      | _ -> None
    in
    (* projection pushdown for the aggregation inputs: only the group-key
       and aggregate-argument fields need to leave the Disk Process *)
    let g_keys, g_aggs, access0 =
      match (access0, joins) with
      | `Primary (range, pred), [] ->
          let needed =
            List.sort_uniq compare
              (List.concat_map Expr.fields g_keys
              @ List.concat_map
                  (fun (_, arg) ->
                    match arg with Some e -> Expr.fields e | None -> [])
                  g_aggs)
          in
          let width = Array.length t0.Catalog.t_schema.Row.cols in
          let access =
            match access_override with
            | Some a -> a
            | None ->
                if pred = None && List.length needed = width then Fs.A_rsbb
                else Fs.A_vsbb
          in
          if List.length needed < width && access = Fs.A_vsbb then begin
            let proj = Array.of_list needed in
            let pos i =
              let rec go k = if proj.(k) = i then k else go (k + 1) in
              go 0
            in
            let remap = Expr.map_fields pos in
            ( List.map remap g_keys,
              List.map
                (fun (kind, arg) -> (kind, Option.map remap arg))
                g_aggs,
              Ap_primary { access; range; pred; proj = Some proj } )
          end
          else (g_keys, g_aggs, Ap_primary { access; range; pred; proj = None })
      | `Primary (range, pred), _ ->
          let access =
            match access_override with
            | Some a -> a
            | None -> if pred = None then Fs.A_rsbb else Fs.A_vsbb
          in
          (g_keys, g_aggs, Ap_primary { access; range; pred; proj = None })
      | `Index (index, range, ipred, residual), _ ->
          (g_keys, g_aggs, Ap_index { index; range; ipred; residual })
    in
    Ok
      {
        p_distinct = stmt.sel_distinct;
        p_table = t0;
        p_access = access0;
        p_joins = joins;
        p_group = Some { g_keys; g_aggs; g_having = having };
        p_pushdown;
        p_order = order;
        p_exprs = exprs;
        p_names = names;
        p_limit = stmt.sel_limit;
      }
  end

(* --- UPDATE / DELETE ---------------------------------------------------------- *)

let single_table_where cat ~table ~where =
  let* tbl = Catalog.find cat table in
  let env =
    Binder.env_of_tables [ (tbl.Catalog.t_name, None, tbl.Catalog.t_schema) ]
  in
  let* pred =
    match where with
    | None -> Ok None
    | Some w ->
        let* p = Binder.bind env w in
        Ok (Some p)
  in
  let range, residual =
    match pred with
    | None -> (Expr.full_range, None)
    | Some p -> Expr.extract_key_range tbl.Catalog.t_schema p
  in
  Ok (tbl, env, range, residual)

let plan_update cat ~table ~sets ~where =
  let* tbl, env, range, pred = single_table_where cat ~table ~where in
  let* assignments =
    Errors.list_map
      (fun (col, e) ->
        let* target = Row.field_number tbl.Catalog.t_schema col in
        let* source = Binder.bind env e in
        Ok { Expr.target; source })
      sets
  in
  Ok { up_table = tbl; up_range = range; up_pred = pred; up_assignments = assignments }

let plan_delete cat ~table ~where =
  let* tbl, _env, range, pred = single_table_where cat ~table ~where in
  Ok { dp_table = tbl; dp_range = range; dp_pred = pred }
