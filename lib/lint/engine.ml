(* Orchestration: discover sources, parse, build the result-returning
   function index from interfaces, build the whole-repo call graph and
   effect summaries, run every enabled rule, apply the allowlist.

   The engine is itself deterministic — file lists and diagnostics are
   sorted — so CI output is stable and diffable. *)

type report = {
  diags : Diag.t list;  (** unsuppressed findings, sorted *)
  suppressed : int;  (** findings silenced by the allowlist *)
  stale_allows : Allow.entry list;  (** allow entries that matched nothing *)
  files_scanned : int;
}

(* the rule registry: every rule the engine can run, with a one-line doc.
   [--list-rules] prints this table; [--rule] validates against it.
   LINT-PARSE is not filterable — an unparseable file fails every run. *)
let registry =
  [
    ("DET-RANDOM", "no nondeterministic randomness outside lib/sim");
    ("SIM-CLOCK", "no wall-clock reads; simulated time only");
    ("MON-PURE", "monitor code never charges, schedules, sends or does I/O");
    ("DET-HASHITER", "no order-dependent hash-table iteration");
    ("ERR-SWALLOW", "result-returning calls must not be discarded");
    ("LOCK-ORDER", "lock acquisition follows the declared order");
    ("PROTO-EXHAUST", "every request constructor is dispatched and sent");
    ("RES-LEAK", "scan/span/completion/deferral handles reach their close");
    ("CKPT-COMPLETE", "dispatch-path mutations reach a checkpoint emit");
    ("CLOCK-CHARGE", "dispatch-path I/O and parking charge the sim clock");
    ("PARK-SAFE", "wait-queue parking matches the nothing-applied whitelist");
    ("DEAD-EXPORT", "every .mli value is used by another compilation unit");
  ]

let rule_names = List.map fst registry
let known_rule name = List.mem_assoc name registry

let ends_with ~suffix s =
  let ls = String.length suffix and l = String.length s in
  l >= ls && String.equal (String.sub s (l - ls) ls) suffix

(* exported value names of every lib/fs interface: the FS entry points that
   seed CLOCK-CHARGE reachability alongside the DP handlers *)
let fs_exported_keys ~mli_sigs =
  List.concat_map
    (fun (path, signature) ->
      if Rules.under "lib/fs" path then
        let unit_name = Source.module_name path in
        List.filter_map
          (fun item ->
            match item.Parsetree.psig_desc with
            | Parsetree.Psig_value vd ->
                Some (unit_name ^ "." ^ vd.Parsetree.pval_name.txt)
            | _ -> None)
          signature
      else [])
    mli_sigs

let clock_roots ~(ctx : Rules.ctx) ~mli_sigs =
  let dp_handlers =
    List.filter_map
      (fun (n : Callgraph.node) ->
        if Rules.under "lib/dp" n.n_file && String.equal n.n_name "handler"
        then Some n.n_key
        else None)
      (Callgraph.nodes ctx.graph)
  in
  let fs_exports =
    List.filter
      (fun key -> Callgraph.find ctx.graph key <> None)
      (fs_exported_keys ~mli_sigs)
  in
  List.sort_uniq String.compare (dp_handlers @ fs_exports)

(* DEAD-EXPORT's readers outside the lint roots: the code directories next
   to each root directory ([lib] beside [bin], [test], ...). They are parsed
   for references only; no rule runs on them and a file that fails to
   parse is skipped. *)
let user_dirs = [ "bin"; "bench"; "benchmark"; "examples"; "test" ]

let outside_users roots =
  let dirs =
    List.concat_map
      (fun root ->
        if Source.is_dir root then
          List.map (Filename.concat (Filename.dirname root)) user_dirs
        else [])
      roots
  in
  let dirs =
    List.filter
      (fun d -> Source.is_dir d && not (List.mem d roots))
      (List.sort_uniq String.compare dirs)
  in
  List.filter_map
    (fun path ->
      match Source.parse_impl path with
      | Ok structure -> Some (path, structure)
      | Error _ -> None)
    (Source.ml_files dirs)

let run ?(allow_file = None) ?(rules = None) ~roots () =
  let enabled name =
    match rules with None -> true | Some rs -> List.mem name rs
  in
  let ml = Source.ml_files roots in
  let parsed, parse_diags =
    List.fold_left
      (fun (ok, bad) path ->
        match Source.parse_impl path with
        | Ok structure -> ((path, structure) :: ok, bad)
        | Error d -> (ok, d :: bad))
      ([], []) ml
  in
  let parsed = List.rev parsed in
  let index = Rules.Result_index.create () in
  let mli_sigs =
    List.filter_map
      (fun path ->
        match Source.parse_intf path with
        | Ok signature -> Some (path, signature)
        | Error _ -> None)
      (Source.mli_files roots)
  in
  List.iter
    (fun (path, signature) ->
      Rules.Result_index.add_signature index
        ~module_name:(Source.module_name path) signature)
    mli_sigs;
  let ctx = Rules.build_ctx parsed in
  let file_diags =
    List.concat_map
      (fun (path, structure) ->
        Rules.per_file ~path ~index ~ctx ~enabled structure)
      parsed
  in
  let find suffix = List.find_opt (fun (p, _) -> ends_with ~suffix p) parsed in
  let proto_diags =
    if not (enabled "PROTO-EXHAUST") then []
    else
      match (find "dp/dp_msg.ml", find "dp/dp.ml") with
      | Some msg, Some dispatch ->
          let requesters =
            List.filter (fun (p, _) -> not (Rules.under "lib/dp" p)) parsed
          in
          Rules.proto_exhaust ~msg ~dispatch ~requesters
      | _ -> []
  in
  let graph_diags =
    (if enabled "CKPT-COMPLETE" then Rules.ckpt_complete ~ctx () else [])
    @ (if enabled "CLOCK-CHARGE" then
         Rules.clock_charge ~ctx ~roots:(clock_roots ~ctx ~mli_sigs) ()
       else [])
    @ (if enabled "PARK-SAFE" then Rules.park_safe ~ctx () else [])
    @
    if enabled "DEAD-EXPORT" then
      Rules.dead_export ~mli_sigs ~users:(parsed @ outside_users roots)
    else []
  in
  let all = parse_diags @ file_diags @ proto_diags @ graph_diags in
  let entries =
    match allow_file with
    | None -> []
    | Some path -> (
        match Allow.load path with
        | Ok entries -> entries
        | Error msg ->
            (* a broken allowlist must not silently allow everything *)
            failwith msg)
  in
  let kept, suppressed = Allow.apply entries all in
  (* an entry for a rule this run did not execute is not stale evidence *)
  let stale =
    List.filter (fun e -> enabled e.Allow.a_rule) (Allow.stale entries)
  in
  {
    diags = List.sort_uniq Diag.compare kept;
    suppressed;
    stale_allows = stale;
    files_scanned = List.length ml;
  }
