module Fs = Nsql_fs.Fs
module Row = Nsql_row.Row
module Expr = Nsql_expr.Expr
module Errors = Nsql_util.Errors

open Errors

type table = { t_name : string; t_file : Fs.file; t_schema : Row.schema }

type t = {
  fs : Fs.t;
  dps : Nsql_dp.Dp.t array;
  tables : (string, table) Hashtbl.t;
  mutable next_dp : int;
}

let create fs ~dps =
  if Array.length dps = 0 then invalid_arg "Catalog.create: no disk processes";
  { fs; dps; tables = Hashtbl.create 16; next_dp = 0 }

let canonical name = String.lowercase_ascii name

let register t name file =
  let name = canonical name in
  if Hashtbl.mem t.tables name then fail (Errors.File_exists name)
  else
    match Fs.file_schema file with
    | None -> fail (Errors.Bad_request (name ^ ": not a SQL file"))
    | Some schema ->
        Hashtbl.replace t.tables name
          { t_name = name; t_file = file; t_schema = schema };
        Ok ()

let find t name =
  match Hashtbl.find_opt t.tables (canonical name) with
  | Some tbl -> Ok tbl
  | None -> fail (Errors.Name_error ("unknown table " ^ name))

let table_names t = List.map fst (Nsql_util.Tbl.sorted_bindings t.tables)

let create_table t ~name ~schema ?check () =
  let name = canonical name in
  if Hashtbl.mem t.tables name then fail (Errors.File_exists name)
  else begin
    let dp = t.dps.(t.next_dp mod Array.length t.dps) in
    t.next_dp <- t.next_dp + 1;
    let* file =
      Fs.create_file t.fs ~fname:name ~schema ?check
        ~partitions:[ Fs.{ ps_lo = ""; ps_dp = dp } ]
        ~indexes:[] ()
    in
    let tbl = { t_name = name; t_file = file; t_schema = schema } in
    Hashtbl.replace t.tables name tbl;
    Ok tbl
  end

let drop_table t name =
  let name = canonical name in
  if Hashtbl.mem t.tables name then begin
    Hashtbl.remove t.tables name;
    Ok ()
  end
  else fail (Errors.Name_error ("unknown table " ^ name))

let create_index t ~tx ~table ~index ~cols =
  let* tbl = find t table in
  let* col_nums =
    Errors.list_map (fun c -> Row.field_number tbl.t_schema c) cols
  in
  let dp = t.dps.(t.next_dp mod Array.length t.dps) in
  t.next_dp <- t.next_dp + 1;
  let* file =
    Fs.add_index t.fs tbl.t_file ~tx
      Fs.{ is_name = canonical index; is_cols = col_nums; is_dp = dp }
  in
  Hashtbl.replace t.tables tbl.t_name { tbl with t_file = file };
  Ok ()
