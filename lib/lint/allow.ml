(* The audited-exception list: lint/allow.sexp.

   Each entry suppresses exactly one rule at one site and must carry a
   note explaining why the invariant still holds:

     ((rule DET-HASHITER) (file lib/lock/lock.ml) (line 85)
      (note "commutative accumulation; every escaping list is sorted"))

   [line] is optional; without it the entry covers the whole file for that
   rule (use sparingly). Entries that match no finding are reported as
   stale and fail the run, so the list cannot rot silently. *)

type sexp = Atom of string | List of sexp list

exception Parse_error of string

(* --- a minimal s-expression reader ------------------------------------- *)

let parse_sexps src =
  let n = String.length src in
  let pos = ref 0 in
  let peek () = if !pos < n then Some src.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | Some ';' ->
        while !pos < n && src.[!pos] <> '\n' do
          advance ()
        done;
        skip_ws ()
    | _ -> ()
  in
  let quoted_atom () =
    advance ();
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> raise (Parse_error "unterminated string")
      | Some '"' -> advance ()
      | Some '\\' ->
          advance ();
          (match peek () with
          | Some 'n' -> Buffer.add_char buf '\n'
          | Some 't' -> Buffer.add_char buf '\t'
          | Some c -> Buffer.add_char buf c
          | None -> raise (Parse_error "unterminated escape"));
          advance ();
          go ()
      | Some c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Atom (Buffer.contents buf)
  in
  let bare_atom () =
    let start = !pos in
    let stop = function
      | ' ' | '\t' | '\n' | '\r' | '(' | ')' | '"' | ';' -> true
      | _ -> false
    in
    while !pos < n && not (stop src.[!pos]) do
      advance ()
    done;
    Atom (String.sub src start (!pos - start))
  in
  let rec sexp () =
    skip_ws ();
    match peek () with
    | None -> raise (Parse_error "unexpected end of input")
    | Some '(' ->
        advance ();
        let rec items acc =
          skip_ws ();
          match peek () with
          | Some ')' ->
              advance ();
              List (List.rev acc)
          | None -> raise (Parse_error "unterminated list")
          | _ -> items (sexp () :: acc)
        in
        items []
    | Some ')' -> raise (Parse_error "unexpected ')'")
    | Some '"' -> quoted_atom ()
    | Some _ -> bare_atom ()
  in
  let rec top acc =
    skip_ws ();
    if !pos >= n then List.rev acc else top (sexp () :: acc)
  in
  top []

(* --- entries ------------------------------------------------------------ *)

type entry = {
  a_rule : string;
  a_file : string;
  a_line : int option;
  a_note : string;
  mutable a_used : bool;
}

let describe e =
  Printf.sprintf "(rule %s) (file %s)%s" e.a_rule e.a_file
    (match e.a_line with
    | Some l -> Printf.sprintf " (line %d)" l
    | None -> "")

let entry_from_sexp s =
  let field name fields =
    List.find_map
      (function
        | List [ Atom k; Atom v ] when String.equal k name -> Some v
        | _ -> None)
      fields
  in
  match s with
  | List fields ->
      let required name =
        match field name fields with
        | Some v -> v
        | None -> raise (Parse_error ("allow entry missing (" ^ name ^ " ...)"))
      in
      {
        a_rule = required "rule";
        a_file = required "file";
        a_line = Option.map int_of_string (field "line" fields);
        a_note = Option.value ~default:"" (field "note" fields);
        a_used = false;
      }
  | Atom a -> raise (Parse_error ("expected an allow entry, got atom " ^ a))

let load path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let src = really_input_string ic len in
  close_in ic;
  try Ok (List.map entry_from_sexp (parse_sexps src)) with
  | Parse_error msg -> Error (path ^ ": " ^ msg)
  | Failure msg -> Error (path ^ ": " ^ msg)

(* Path suffix match so entries written repo-relative keep working when the
   lint is invoked with absolute roots. *)
let file_matches ~entry_file ~diag_file =
  String.equal entry_file diag_file
  ||
  let le = String.length entry_file and ld = String.length diag_file in
  ld > le
  && String.equal (String.sub diag_file (ld - le) le) entry_file
  && diag_file.[ld - le - 1] = '/'

let matches e (d : Diag.t) =
  String.equal e.a_rule d.Diag.rule
  && file_matches ~entry_file:e.a_file ~diag_file:d.Diag.file
  && match e.a_line with None -> true | Some l -> l = d.Diag.line

(* Partition [diags] into (unsuppressed, suppressed_count), marking used
   entries so the caller can report stale ones. *)
let apply entries diags =
  let suppressed = ref 0 in
  let kept =
    List.filter
      (fun d ->
        match List.find_opt (fun e -> matches e d) entries with
        | Some e ->
            e.a_used <- true;
            incr suppressed;
            false
        | None -> true)
      diags
  in
  (kept, !suppressed)

let stale entries = List.filter (fun e -> not e.a_used) entries
