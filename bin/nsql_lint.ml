(* nsql-lint: static analysis over the repository's own sources.

   Usage: nsql_lint [--allow FILE] [--no-allow] [--rule R1,R2] [--json]
                    [--list-rules] [DIR-or-FILE ...]

   Parses every .ml under the given roots (default: lib) with
   compiler-libs and enforces the determinism / protocol / lock-discipline
   / effect rules described in DESIGN.md §5. DEAD-EXPORT also reads the
   code directories next to each root (bin, bench, benchmark, examples,
   test) for references to lib's interfaces. Exit code 1 on any
   unsuppressed finding or stale allowlist entry, 2 on usage errors. *)

module Engine = Nsql_lint_lib.Engine
module Allow = Nsql_lint_lib.Allow
module Diag = Nsql_lint_lib.Diag

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* machine-readable report: findings and stale entries in the same stable
   order the text output uses, so CI can diff artifacts byte-for-byte *)
let print_json (report : Engine.report) =
  let finding (d : Diag.t) =
    Printf.sprintf
      "    {\"rule\": \"%s\", \"file\": \"%s\", \"line\": %d, \"col\": %d, \
       \"msg\": \"%s\"}"
      (json_escape d.Diag.rule) (json_escape d.Diag.file) d.Diag.line
      d.Diag.col (json_escape d.Diag.msg)
  in
  let stale (e : Allow.entry) =
    Printf.sprintf "    {\"entry\": \"%s\"}" (json_escape (Allow.describe e))
  in
  print_string "{\n";
  Printf.printf "  \"files_scanned\": %d,\n" report.Engine.files_scanned;
  Printf.printf "  \"suppressed\": %d,\n" report.Engine.suppressed;
  Printf.printf "  \"findings\": [\n%s\n  ],\n"
    (String.concat ",\n" (List.map finding report.Engine.diags));
  Printf.printf "  \"stale_allows\": [\n%s\n  ]\n"
    (String.concat ",\n" (List.map stale report.Engine.stale_allows));
  print_string "}\n"

let () =
  let allow_path = ref "lint/allow.sexp" in
  let no_allow = ref false in
  let json = ref false in
  let list_rules = ref false in
  let rule_csv = ref "" in
  let roots = ref [] in
  let spec =
    [
      ( "--allow",
        Arg.Set_string allow_path,
        "FILE allowlist of audited exceptions (default lint/allow.sexp)" );
      ("--no-allow", Arg.Set no_allow, " ignore the allowlist entirely");
      ( "--rule",
        Arg.Set_string rule_csv,
        "R1,R2 run only the named rules (default: all)" );
      ("--json", Arg.Set json, " emit the report as JSON on stdout");
      ("--list-rules", Arg.Set list_rules, " print the rule table and exit");
    ]
  in
  let usage =
    "nsql_lint [--allow FILE] [--no-allow] [--rule R1,R2] [--json] \
     [--list-rules] [DIR-or-FILE ...]"
  in
  Arg.parse spec (fun root -> roots := root :: !roots) usage;
  if !list_rules then begin
    List.iter
      (fun (name, doc) -> Printf.printf "%-14s %s\n" name doc)
      Engine.registry;
    exit 0
  end;
  let rules =
    if String.equal !rule_csv "" then None
    else begin
      let names =
        List.filter
          (fun s -> not (String.equal s ""))
          (String.split_on_char ',' !rule_csv)
      in
      List.iter
        (fun name ->
          if not (Engine.known_rule name) then begin
            Printf.eprintf
              "nsql-lint: unknown rule %s (see --list-rules)\n" name;
            exit 2
          end)
        names;
      Some names
    end
  in
  let roots = match List.rev !roots with [] -> [ "lib" ] | rs -> rs in
  let allow_file =
    if !no_allow then None
    else if Sys.file_exists !allow_path then Some !allow_path
    else None
  in
  let report = Engine.run ~allow_file ~rules ~roots () in
  if !json then print_json report
  else begin
    List.iter (fun d -> print_endline (Diag.to_string d)) report.Engine.diags;
    List.iter
      (fun e ->
        Printf.printf
          "%s:0:0 [ALLOW-STALE] allowlist entry %s matched nothing\n"
          !allow_path (Allow.describe e))
      report.Engine.stale_allows
  end;
  let findings = List.length report.Engine.diags in
  let stale = List.length report.Engine.stale_allows in
  Printf.eprintf "nsql-lint: %d files scanned, %d findings (%d suppressed)%s\n"
    report.Engine.files_scanned findings report.Engine.suppressed
    (if stale > 0 then Printf.sprintf ", %d stale allow entries" stale else "");
  exit (if findings > 0 || stale > 0 then 1 else 0)
