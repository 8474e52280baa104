(* The rule engine: repo-specific rules over compiler-libs parse trees.

   Every rule is a pure function from a parse tree (plus whatever cross-file
   context it needs) to a list of diagnostics. Traversal uses
   [Ast_iterator.default_iterator] and touches only AST constructors that
   are stable across OCaml 5.1/5.2 (idents, applications, constructs,
   cases, type declarations), so the lint builds on both compilers in CI.

   The interprocedural rules at the bottom consume a [ctx]: the whole-repo
   call graph ([Callgraph]) and per-function may-effect summaries
   ([Effects]), so they see through helper calls instead of spot-checking
   call sites.

   | rule          | invariant it protects                                   |
   |---------------|---------------------------------------------------------|
   | DET-RANDOM    | all randomness flows from the chaos seed                |
   | SIM-CLOCK     | all time flows from the simulation clock                |
   | MON-PURE      | the monitor observes without perturbing the simulation  |
   | DET-HASHITER  | no unordered hash traversal reaches state or output     |
   | ERR-SWALLOW   | protocol paths neither drop results nor raise untyped   |
   | LOCK-ORDER    | acquisitions follow the declared volume→file→key order  |
   | PROTO-EXHAUST | every DP request is dispatched and has a requester path |
   | RES-LEAK      | every scan/span/completion/deferral/disk-I/O handle     |
   |               | reaches its paired close, even through helpers          |
   | CKPT-COMPLETE | every replica-visible DP mutation emits its checkpoint  |
   | CLOCK-CHARGE  | I/O and parking on dispatch paths charge the sim clock  |
   | PARK-SAFE     | only nothing-applied ops enter the lock wait queue      |
   | DEAD-EXPORT   | every exported value has a user outside its own unit    |
*)

open Parsetree

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.equal (String.sub hay i n) needle || go (i + 1)) in
  go 0

(* [under "lib/sim" "lib/sim/sim.ml"] — directory test on '/'-separated
   paths, robust to absolute roots *)
let under dir path =
  let needle = dir ^ "/" in
  (String.length path >= String.length needle
  && String.equal (String.sub path 0 (String.length needle)) needle)
  || contains ~needle:("/" ^ needle) path

let ident_path expr =
  match expr.pexp_desc with
  | Pexp_ident { txt; _ } -> ( try Some (Longident.flatten txt) with _ -> None)
  | _ -> None

(* treat [Stdlib.Random.int] and [Random.int] alike *)
let normalize = function "Stdlib" :: rest -> rest | path -> path

let iter_exprs structure f =
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          f e;
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.structure it structure

(* --- DET-RANDOM --------------------------------------------------------- *)

(* Nondeterministic randomness breaks byte-identical seed replay (PR 1's
   chaos harness). lib/sim is exempt: it owns the config that could one day
   seed legitimate randomness. The chaos harness's own [Prng] is a distinct
   seeded module and is untouched by this rule. *)
let det_random ~path structure =
  if under "lib/sim" path then []
  else begin
    let diags = ref [] in
    iter_exprs structure (fun e ->
        match Option.map normalize (ident_path e) with
        | Some ("Random" :: _ as p) ->
            diags :=
              Diag.of_loc ~rule:"DET-RANDOM" ~file:path e.pexp_loc
                (Printf.sprintf
                   "nondeterministic randomness source %s; derive randomness \
                    from a seeded Prng instead"
                   (String.concat "." p))
              :: !diags
        | _ -> ())
  ;
    List.rev !diags
  end

(* --- SIM-CLOCK ----------------------------------------------------------- *)

let wall_clock_reads =
  [
    [ "Unix"; "time" ];
    [ "Unix"; "gettimeofday" ];
    [ "Unix"; "sleep" ];
    [ "Unix"; "sleepf" ];
    [ "Unix"; "localtime" ];
    [ "Unix"; "gmtime" ];
    [ "Sys"; "time" ];
  ]

let sim_clock ~path structure =
  let diags = ref [] in
  iter_exprs structure (fun e ->
      match Option.map normalize (ident_path e) with
      | Some p
        when List.mem p wall_clock_reads
             || (match p with
                | ("Ptime_clock" | "Mtime_clock") :: _ -> true
                | _ -> false) ->
          diags :=
            Diag.of_loc ~rule:"SIM-CLOCK" ~file:path e.pexp_loc
              (Printf.sprintf
                 "wall-clock read %s; all time must come from Sim.now / the \
                  simulation clock"
                 (String.concat "." p))
            :: !diags
      | _ -> ());
  List.rev !diags

(* --- MON-PURE ------------------------------------------------------------ *)

(* The monitor layer is a pure observer: it reads the clock, snapshots
   counters and buckets durations, but must never charge time, schedule
   work, send messages or submit disk I/O. Any such call from the monitor
   would perturb the simulation and break the bit-identical-with-monitoring
   guarantee that test/test_monitor.ml enforces. The rule covers
   lib/monitor plus the in-sim bookkeeping modules it is built on
   (Moncore, Hist). *)

let mon_pure_file path =
  under "lib/monitor" path
  || contains ~needle:"lib/sim/moncore" path
  || contains ~needle:"lib/sim/hist" path

(* matched against the last two components of the identifier, so
   [Nsql_sim.Sim.charge] and [Sim.charge] are caught alike *)
let mon_pure_forbidden =
  [
    [ "Sim"; "tick" ];
    [ "Sim"; "charge" ];
    [ "Sim"; "wait_until" ];
    [ "Sim"; "schedule" ];
    [ "Sim"; "after" ];
    [ "Sim"; "drain" ];
    [ "Msg"; "send" ];
    [ "Msg"; "send_nowait" ];
    [ "Msg"; "await" ];
    [ "Msg"; "await_any" ];
    [ "Msg"; "checkpoint" ];
    [ "Disk"; "read" ];
    [ "Disk"; "write" ];
    [ "Disk"; "read_bulk" ];
    [ "Disk"; "write_bulk" ];
    [ "Disk"; "read_bulk_async" ];
    [ "Disk"; "write_bulk_async" ];
    [ "Disk"; "submit_read" ];
    [ "Disk"; "submit_write" ];
    [ "Disk"; "complete" ];
    [ "Disk"; "stall" ];
  ]

let mon_pure ~path structure =
  if not (mon_pure_file path) then []
  else begin
    let diags = ref [] in
    iter_exprs structure (fun e ->
        match ident_path e with
        | Some p -> (
            let tail =
              match List.rev p with
              | f :: m :: _ -> Some [ m; f ]
              | _ -> None
            in
            match tail with
            | Some t when List.mem t mon_pure_forbidden ->
                diags :=
                  Diag.of_loc ~rule:"MON-PURE" ~file:path e.pexp_loc
                    (Printf.sprintf
                       "monitor code calls %s; the monitor observes the \
                        simulation and must never charge time, schedule \
                        work, send messages or touch a disk"
                       (String.concat "." p))
                  :: !diags
            | _ -> ())
        | None -> ());
    List.rev !diags
  end

(* --- DET-HASHITER -------------------------------------------------------- *)

let hashtbl_traversals =
  [ "iter"; "fold"; "to_seq"; "to_seq_keys"; "to_seq_values" ]

(* lib/util/tbl.ml is the sanctioned wrapper and the one place allowed to
   touch raw traversal. *)
let det_hashiter ~path structure =
  if Filename.check_suffix path "lib/util/tbl.ml" then []
  else begin
    let diags = ref [] in
    iter_exprs structure (fun e ->
        match Option.map normalize (ident_path e) with
        | Some [ "Hashtbl"; f ] when List.mem f hashtbl_traversals ->
            diags :=
              Diag.of_loc ~rule:"DET-HASHITER" ~file:path e.pexp_loc
                (Printf.sprintf
                   "unordered traversal Hashtbl.%s; use \
                    Nsql_util.Tbl.sorted_bindings, or allowlist a provably \
                    order-insensitive use"
                   f)
              :: !diags
        | _ -> ())
  ;
    List.rev !diags
  end

(* --- ERR-SWALLOW --------------------------------------------------------- *)

let protocol_dirs = [ "lib/dp"; "lib/fs"; "lib/msg"; "lib/dtx"; "lib/tmf" ]

let in_protocol_path path = List.exists (fun d -> under d path) protocol_dirs

(* The cross-file ingredient: the set of (Module, value) pairs whose
   declared type returns a [result], harvested from every .mli in the
   tree. Ignoring such a call discards an error. *)
module Result_index = struct
  type t = (string * string, unit) Hashtbl.t

  let create () : t = Hashtbl.create 256

  let rec returns_result ty =
    match ty.ptyp_desc with
    | Ptyp_arrow (_, _, ret) -> returns_result ret
    | Ptyp_constr ({ txt; _ }, _) -> (
        match try Longident.flatten txt with _ -> [] with
        | l -> ( match List.rev l with "result" :: _ -> true | _ -> false))
    | Ptyp_poly (_, ty) -> returns_result ty
    | _ -> false

  let add_signature (t : t) ~module_name signature =
    List.iter
      (fun item ->
        match item.psig_desc with
        | Psig_value { pval_name; pval_type; _ } ->
            if returns_result pval_type then
              Hashtbl.replace t (module_name, pval_name.txt) ()
        | _ -> ())
      signature

  let mem (t : t) ~module_name ~value = Hashtbl.mem t (module_name, value)
end

let err_swallow ~path ~(index : Result_index.t) structure =
  if not (in_protocol_path path) then []
  else begin
    let self = Source.module_name path in
    let diags = ref [] in
    let flag loc msg = diags := Diag.of_loc ~rule:"ERR-SWALLOW" ~file:path loc msg :: !diags in
    iter_exprs structure (fun e ->
        match e.pexp_desc with
        | Pexp_ident _ when ident_path e |> Option.map normalize = Some [ "failwith" ] ->
            flag e.pexp_loc
              "bare failwith in a protocol path; use Errors.fatal for \
               invariant violations or return a typed error"
        | Pexp_apply (fn, [ (Asttypes.Nolabel, arg) ])
          when ident_path fn |> Option.map normalize = Some [ "ignore" ] -> (
            match arg.pexp_desc with
            | Pexp_apply (callee, _) -> (
                match Option.map normalize (ident_path callee) with
                | Some callee_path -> (
                    let hit =
                      match List.rev callee_path with
                      | value :: m :: _ ->
                          Result_index.mem index ~module_name:m ~value
                      | [ value ] ->
                          Result_index.mem index ~module_name:self ~value
                      | [] -> false
                    in
                    match hit with
                    | true ->
                        flag e.pexp_loc
                          (Printf.sprintf
                             "ignore of result-returning %s discards an \
                              error; handle it or propagate it"
                             (String.concat "." callee_path))
                    | false -> ())
                | None -> ())
            | _ -> ())
        | _ -> ());
    List.rev !diags
  end

(* --- LOCK-ORDER ---------------------------------------------------------- *)

let lock_dirs = [ "lib/dp"; "lib/tmf"; "lib/dtx" ]

(* The declared acquisition order is volume → file → key: a FILE lock may
   be followed by generic/range locks which may be followed by record
   locks, never the other way around within one code path. Ranks follow
   that coarse-to-fine ladder. *)
let rank_name = function
  | 0 -> "FILE"
  | 1 -> "GENERIC/RANGE"
  | 2 -> "RECORD"
  | _ -> "?"

let resource_rank expr =
  match expr.pexp_desc with
  | Pexp_construct ({ txt; _ }, _) -> (
      match try List.rev (Longident.flatten txt) with _ -> [] with
      | "File" :: _ -> Some 0
      | "Generic" :: _ | "Range" :: _ -> Some 1
      | "Record" :: _ -> Some 2
      | _ -> None)
  | _ -> None

let is_acquire_callee expr =
  match Option.map List.rev (ident_path expr) with
  | Some ("acquire" :: _) | Some ("try_lock" :: _) -> Some ()
  | _ -> None

(* Collect acquisition sites per top-level binding (interprocedural
   ordering is out of scope; each exported operation acquires its locks
   within one top-level definition in this codebase). *)
let lock_order ~path structure =
  if not (List.exists (fun d -> under d path) lock_dirs) then []
  else begin
    let diags = ref [] in
    List.iter
      (fun item ->
        let sites = ref [] in
        let it =
          {
            Ast_iterator.default_iterator with
            expr =
              (fun it e ->
                (match e.pexp_desc with
                | Pexp_apply (fn, args) when is_acquire_callee fn <> None ->
                    let rank =
                      List.find_map (fun (_, a) -> resource_rank a) args
                    in
                    sites := (e.pexp_loc, rank, fn) :: !sites
                | _ -> ());
                Ast_iterator.default_iterator.expr it e);
          }
        in
        it.structure_item it item;
        let sites = List.rev !sites in
        let coarsest = ref (-1) in
        List.iter
          (fun (loc, rank, fn) ->
            match rank with
            | None ->
                let name =
                  match ident_path fn with
                  | Some p -> String.concat "." p
                  | None -> "<fn>"
                in
                diags :=
                  Diag.of_loc ~rule:"LOCK-ORDER" ~file:path loc
                    (Printf.sprintf
                       "cannot prove lock order: resource argument of %s is \
                        not a literal Lock resource constructor"
                       name)
                  :: !diags
            | Some r ->
                if r < !coarsest then
                  diags :=
                    Diag.of_loc ~rule:"LOCK-ORDER" ~file:path loc
                      (Printf.sprintf
                         "%s lock acquired after a %s lock; acquisitions \
                          must follow the volume→file→key order"
                         (rank_name r) (rank_name !coarsest))
                    :: !diags
                else coarsest := max !coarsest r)
          sites)
      structure;
    List.rev !diags
  end

(* --- PROTO-EXHAUST ------------------------------------------------------- *)

(* Three obligations tie the wire protocol together:
   1. no match over DP requests (in the message or dispatch module) hides
      behind a catch-all — adding a request must not silently no-op;
   2. every request constructor is dispatched by name in the DP;
   3. every request constructor is constructed somewhere FS-side, i.e. the
      protocol carries no dead or DP-only requests. *)

let request_constructors structure =
  List.concat_map
    (fun item ->
      match item.pstr_desc with
      | Pstr_type (_, decls) ->
          List.concat_map
            (fun d ->
              if String.equal d.ptype_name.txt "request" then
                match d.ptype_kind with
                | Ptype_variant ctors ->
                    List.map
                      (fun c -> (c.pcd_name.txt, c.pcd_name.loc))
                      ctors
                | _ -> []
              else [])
            decls
      | _ -> [])
    structure

let rec pattern_heads in_set pat =
  match pat.ppat_desc with
  | Ppat_construct ({ txt; _ }, arg) ->
      let head =
        match try List.rev (Longident.flatten txt) with _ -> [] with
        | name :: _ when in_set name -> [ name ]
        | _ -> []
      in
      head
      @ (match arg with
        | Some (_, p) -> pattern_heads in_set p
        | None -> [])
  | Ppat_or (a, b) -> pattern_heads in_set a @ pattern_heads in_set b
  | Ppat_alias (p, _) | Ppat_constraint (p, _) | Ppat_open (_, p) ->
      pattern_heads in_set p
  | Ppat_tuple ps -> List.concat_map (pattern_heads in_set) ps
  | _ -> []

let is_catch_all pat =
  match pat.ppat_desc with
  | Ppat_any | Ppat_var _ -> true
  | Ppat_alias ({ ppat_desc = Ppat_any; _ }, _) -> true
  | _ -> false

(* Scan every case list in [structure] (match, function, try — the [cases]
   iterator hook sees them all). A case list "is over requests" when at
   least one of its patterns mentions a request constructor. *)
let scan_request_matches ~path ~in_set structure =
  let matched = Hashtbl.create 32 in
  let diags = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      cases =
        (fun it cs ->
          let heads =
            List.concat_map (fun c -> pattern_heads in_set c.pc_lhs) cs
          in
          if heads <> [] then begin
            List.iter (fun h -> Hashtbl.replace matched h ()) heads;
            List.iter
              (fun c ->
                if is_catch_all c.pc_lhs then
                  diags :=
                    Diag.of_loc ~rule:"PROTO-EXHAUST" ~file:path
                      c.pc_lhs.ppat_loc
                      "catch-all pattern in a match over DP requests; new \
                       request constructors must be handled explicitly"
                    :: !diags)
              cs
          end;
          Ast_iterator.default_iterator.cases it cs);
    }
  in
  it.structure it structure;
  (matched, List.rev !diags)

let record_constructed ~in_set built structure =
  iter_exprs structure (fun e ->
      match e.pexp_desc with
      | Pexp_construct ({ txt; _ }, _) -> (
          match try List.rev (Longident.flatten txt) with _ -> [] with
          | name :: _ when in_set name -> Hashtbl.replace built name ()
          | _ -> ())
      | _ -> ())

let proto_exhaust ~msg:(msg_path, msg_structure)
    ~dispatch:(dispatch_path, dispatch_structure) ~requesters =
  let ctors = request_constructors msg_structure in
  if ctors = [] then []
  else begin
    let in_set name = List.mem_assoc name ctors in
    let dispatched, dispatch_diags =
      scan_request_matches ~path:dispatch_path ~in_set dispatch_structure
    in
    let _, msg_diags =
      scan_request_matches ~path:msg_path ~in_set msg_structure
    in
    let requester_built = Hashtbl.create 32 in
    List.iter
      (fun (_, structure) -> record_constructed ~in_set requester_built structure)
      requesters;
    let missing_dispatch =
      List.filter_map
        (fun (name, loc) ->
          if Hashtbl.mem dispatched name then None
          else
            Some
              (Diag.of_loc ~rule:"PROTO-EXHAUST" ~file:msg_path loc
                 (Printf.sprintf
                    "request constructor %s is not dispatched in %s" name
                    dispatch_path)))
        ctors
    in
    let missing_requester =
      List.filter_map
        (fun (name, loc) ->
          if Hashtbl.mem requester_built name then None
          else
            Some
              (Diag.of_loc ~rule:"PROTO-EXHAUST" ~file:msg_path loc
                 (Printf.sprintf
                    "request constructor %s has no FS-side requester or \
                     continuation path"
                    name)))
        ctors
    in
    msg_diags @ dispatch_diags @ missing_dispatch @ missing_requester
  end

(* does [name] occur as an identifier anywhere in [e]? (conservative:
   shadowing counts as a use) *)
let uses_var name e =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it x ->
          (match x.pexp_desc with
          | Pexp_ident { txt = Longident.Lident n; _ } when String.equal n name ->
              found := true
          | _ -> ());
          Ast_iterator.default_iterator.expr it x);
    }
  in
  it.expr it e;
  !found

(* --- interprocedural context ---------------------------------------------- *)

(* Shared by the graph-aware rules: the whole-repo call graph and the
   per-function may-effect summaries computed over it. Built once per
   engine run from every parsed file. *)
type ctx = { graph : Callgraph.t; summaries : Effects.summaries }

let build_ctx parsed =
  let graph = Callgraph.build parsed in
  { graph; summaries = Effects.summaries graph }

(* --- RES-LEAK -------------------------------------------------------------- *)

(* One rule for every open/close-paired handle in the system:

     handle               opener            paired close
     scan (SCB + span)    open_scan         close_scan
                          open_index_scan
     trace span           begin_span        Trace.finish
     nowait completion    send_nowait       Msg.await / Msg.await_any
     withheld reply       Msg.defer         Msg.resolve
     in-flight disk I/O   Disk.submit_read  Disk.complete
                          Disk.submit_write

   A dropped handle is never neutral here: an unclosed scan pins its SCB
   (and its span), an unawaited completion silently discards the latency of
   a request whose effects already happened, an unresolved deferral leaves
   a requester blocked forever, and an uncompleted disk submission never
   charges its transfer to the clock (its span stays open too).

   The per-file shapes that provably drop the handle are flagged as before:
   [ignore (opener ...)], a statement-position call, a [_] binding, and a
   named binding with no use at all. A binding is a [let] or a [let*] (an
   index scan's opener returns a result), and the opener may sit behind a
   thunk-taking wrapper such as [stp.stp (fun () -> open_index_scan ...)].
   The interprocedural upgrade is in how
   a *used* binding is judged: every use of the handle is classified. A use
   that reaches a paired close — directly, or as an argument to a function
   whose effect summary contains the closing effect — proves the binding
   fine; so does any use the analysis cannot see through (a store into a
   record or constructor transfers ownership; a call to an unknown or
   unresolved function might close). But when *every* use hands the handle
   to functions whose analyzed bodies provably never reach the close, the
   handle cannot be closed on any path and the binding is flagged — the
   cross-function blind spot the old per-file NOWAIT-LEAK/SPAN-LEAK fences
   could not see. *)

type res_kind = K_scan | K_span | K_completion | K_deferral | K_diskio

let kind_label = function
  | K_scan -> "scan"
  | K_span -> "span"
  | K_completion -> "nowait completion"
  | K_deferral -> "deferral"
  | K_diskio -> "disk I/O"

let kind_close = function
  | K_scan -> "close_scan"
  | K_span -> "Trace.finish"
  | K_completion -> "Msg.await"
  | K_deferral -> "Msg.resolve"
  | K_diskio -> "Disk.complete"

let closer_names = function
  | K_scan -> [ "close_scan" ]
  | K_span -> [ "finish" ]
  | K_completion -> [ "await"; "await_any" ]
  | K_deferral -> [ "resolve" ]
  | K_diskio -> [ "complete" ]

let closing_effect = function
  | K_scan -> Effects.Closes_scan
  | K_span -> Effects.Finishes_span
  | K_completion -> Effects.Awaits_completion
  | K_deferral -> Effects.Resolves_deferral
  (* [Disk.complete] is the only primitive carrying this effect besides the
     [Msg] awaits; a helper that awaits *something* is trusted to be the
     completion path — may-analysis, it can only prove a binding fine *)
  | K_diskio -> Effects.Awaits_completion

let opener_of_app e =
  match e.pexp_desc with
  | Pexp_apply (callee, _) -> (
      match Option.map List.rev (ident_path callee) with
      | Some ("open_scan" :: _) | Some ("open_index_scan" :: _) -> Some K_scan
      | Some ("begin_span" :: _) -> Some K_span
      | Some ("send_nowait" :: _) -> Some K_completion
      | Some ("defer" :: "Msg" :: _) -> Some K_deferral
      | Some ("submit_read" :: "Disk" :: _) | Some ("submit_write" :: "Disk" :: _)
        ->
          Some K_diskio
      | _ -> None)
  | _ -> None

(* the body of a thunk [fun () -> body], read through the iterator (its
   only pattern is [()], its only expression child the body) so the check
   holds on both the 5.1 and the 5.2 function parsetree *)
let thunk_body e =
  let pats = ref [] and exprs = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      pat = (fun _ p -> pats := p :: !pats);
      expr = (fun _ x -> exprs := x :: !exprs);
    }
  in
  Ast_iterator.default_iterator.expr it e;
  match (!pats, !exprs) with
  | ( [ { ppat_desc = Ppat_construct ({ txt = Longident.Lident "()"; _ }, None); _ } ],
      [ body ] ) ->
      Some body
  | _ -> None

(* the opener may sit behind value-position wrappers: [if Trace.enabled sim
   then Some (begin_span ...) else None] still binds a live handle, and so
   does a wrapper applied to a thunk that opens it *)
let rec spine_opener e =
  match opener_of_app e with
  | Some k -> Some k
  | None -> (
      match e.pexp_desc with
      | Pexp_ifthenelse (_, a, b) -> (
          match spine_opener a with
          | Some k -> Some k
          | None -> Option.bind b spine_opener)
      | Pexp_match (_, cases) | Pexp_try (_, cases) ->
          List.find_map (fun c -> spine_opener c.pc_rhs) cases
      | Pexp_construct (_, Some a) -> spine_opener a
      | Pexp_let (_, _, b) | Pexp_sequence (_, b) | Pexp_open (_, b) ->
          spine_opener b
      | Pexp_constraint (a, _) -> spine_opener a
      | Pexp_apply (_, args) ->
          List.find_map
            (fun (_, a) -> Option.bind (thunk_body a) spine_opener)
            args
      | _ -> None)

type use = U_closer | U_known_nonclosing of string | U_unknown

(* classify every occurrence of [name] in [body] by its immediate context *)
let classify_uses ~ctx ~unit_name ~kind name body =
  let uses = ref [] in
  let add u = uses := u :: !uses in
  let is_x e =
    match e.pexp_desc with
    | Pexp_ident { txt = Longident.Lident n; _ } -> String.equal n name
    | _ -> false
  in
  let classify_callee callee =
    match ident_path callee with
    | None -> U_unknown
    | Some p -> (
        match List.rev p with
        | last :: _ when List.mem last (closer_names kind) -> U_closer
        | _ -> (
            match Callgraph.resolve ctx.graph ~unit_name p with
            | None -> U_unknown
            | Some key ->
                if Effects.mem (closing_effect kind)
                     (Effects.summary ctx.summaries key)
                then U_closer
                else U_known_nonclosing key))
  in
  let rec go e =
    match e.pexp_desc with
    | Pexp_apply (callee, args) when List.exists (fun (_, a) -> is_x a) args ->
        let u = classify_callee callee in
        List.iter (fun (_, a) -> if is_x a then add u else go a) args;
        go callee
    | Pexp_ident { txt = Longident.Lident n; _ } when String.equal n name ->
        add U_unknown
    | _ ->
        let it =
          {
            Ast_iterator.default_iterator with
            expr = (fun _ child -> go child);
          }
        in
        Ast_iterator.default_iterator.expr it e
  in
  go body;
  List.rev !uses

(* A handle that *is* closed, but only by a statement-position close at the
   end of its binding's let-chain, leaks whenever the driver between open
   and close raises ([Row.decode_exn] on a malformed record, any assert).
   Detect exactly that shape — [let x = opener in ... let r = drive ... in
   close x; r] where the handle was already used before the close — and
   demand the [Fun.protect ~finally] idiom instead. The walk stays on the
   binding's spine (let chains, sequences, branches), so a close handed out
   in a closure (caller-must-close contracts) is never flagged. *)
let trailing_unprotected_close ~kind name body =
  let is_x e =
    match e.pexp_desc with
    | Pexp_ident { txt = Longident.Lident n; _ } -> String.equal n name
    | _ -> false
  in
  let direct_close e =
    match e.pexp_desc with
    | Pexp_apply (callee, args) -> (
        List.exists (fun (_, a) -> is_x a) args
        &&
        match Option.map List.rev (ident_path callee) with
        | Some (last :: _) -> List.mem last (closer_names kind)
        | _ -> false)
    | _ -> false
  in
  let rec walk used e =
    match e.pexp_desc with
    | Pexp_let (_, vbs, cont) ->
        let used =
          used || List.exists (fun vb -> uses_var name vb.pvb_expr) vbs
        in
        walk used cont
    | Pexp_letop { let_; ands; body = cont; _ } ->
        let used =
          used
          || List.exists (fun op -> uses_var name op.pbop_exp) (let_ :: ands)
        in
        walk used cont
    | Pexp_sequence (e1, cont) ->
        if direct_close e1 then if used then Some e1.pexp_loc else None
        else walk (used || uses_var name e1) cont
    | Pexp_ifthenelse (_, a, b) -> (
        match walk used a with
        | Some l -> Some l
        | None -> Option.bind b (walk used))
    | Pexp_match (_, cases) ->
        List.find_map (fun c -> walk used c.pc_rhs) cases
    | Pexp_open (_, cont) | Pexp_constraint (cont, _) -> walk used cont
    | _ -> None
  in
  walk false body

let res_leak ~path ~ctx structure =
  let unit_name = Source.module_name path in
  let diags = ref [] in
  let flag loc msg =
    diags := Diag.of_loc ~rule:"RES-LEAK" ~file:path loc msg :: !diags
  in
  (* one [let] or [let*] binding of [pat] to [expr], scoped over [body] *)
  let check_binding pat expr body =
    match spine_opener expr with
    | None -> ()
    | Some k -> (
        let rec pat_var p =
          match p.ppat_desc with
          | Ppat_var { txt; _ } -> Some txt
          | Ppat_constraint (p, _) | Ppat_alias (p, _) -> pat_var p
          | _ -> None
        in
        match pat.ppat_desc with
        | Ppat_any ->
            flag pat.ppat_loc
              (Printf.sprintf
                 "%s handle bound to _ can never reach %s"
                 (kind_label k) (kind_close k))
        | _ -> (
            match pat_var pat with
            | None -> ()
            | Some name -> (
                match
                  classify_uses ~ctx ~unit_name ~kind:k name body
                with
                | [] ->
                    flag pat.ppat_loc
                      (Printf.sprintf
                         "%s handle %s is never used; %s it on \
                          every path"
                         (kind_label k) name (kind_close k))
                | uses
                  when List.for_all
                         (function
                           | U_known_nonclosing _ -> true
                           | _ -> false)
                         uses ->
                    let callees =
                      List.sort_uniq String.compare
                        (List.filter_map
                           (function
                             | U_known_nonclosing key -> Some key
                             | _ -> None)
                           uses)
                    in
                    flag pat.ppat_loc
                      (Printf.sprintf
                         "%s handle %s is only passed to %s, none \
                          of which can reach %s; the handle leaks \
                          on every path"
                         (kind_label k) name
                         (String.concat ", " callees)
                         (kind_close k))
                | _ -> (
                    match
                      trailing_unprotected_close ~kind:k name body
                    with
                    | Some loc ->
                        flag loc
                          (Printf.sprintf
                             "%s handle %s is closed only on the \
                              fall-through path; a raise out of \
                              the driver leaks it — run %s under \
                              Fun.protect ~finally"
                             (kind_label k) name (kind_close k))
                    | None -> ()))))
  in
  iter_exprs structure (fun e ->
      match e.pexp_desc with
      | Pexp_apply (fn, [ (Asttypes.Nolabel, arg) ])
        when ident_path fn |> Option.map normalize = Some [ "ignore" ] -> (
          match opener_of_app arg with
          | Some k ->
              flag e.pexp_loc
                (Printf.sprintf
                   "%s handle discarded with ignore; it can never reach %s"
                   (kind_label k) (kind_close k))
          | None -> ())
      | Pexp_sequence (e1, _) -> (
          match opener_of_app e1 with
          | Some k ->
              flag e1.pexp_loc
                (Printf.sprintf
                   "%s opened in statement position drops its handle; bind \
                    it and %s it on every path"
                   (kind_label k) (kind_close k))
          | None -> ())
      | Pexp_letop { let_; ands; body; _ } ->
          List.iter
            (fun op -> check_binding op.pbop_pat op.pbop_exp body)
            (let_ :: ands)
      | Pexp_let (_, vbs, body) ->
          List.iter (fun vb -> check_binding vb.pvb_pat vb.pvb_expr body) vbs
      | _ -> ());
  List.rev !diags

(* --- CKPT-COMPLETE --------------------------------------------------------- *)

(* Zero acknowledged-commit loss on takeover (PR 6) only holds if every
   piece of replica-visible state the primary mutates while serving a
   request is also streamed to the backup. Two obligations over the
   dispatch-reachable part of lib/dp (everything reachable from a DP
   [handler]; [takeover]/[crash]/recovery entry points rebuild state by
   design and are exempt):

   1. any reachable function that locally mutates checkpoint-carried
      control state (the SCB table, the waiter queue) must have
      [Emits_ckpt] in its transitive summary — the mutation and its
      checkpoint item may be in different functions, but a mutation whose
      entire call subtree never emits is state the backup cannot learn;
   2. a handler whose summary reaches [Mutates_heap] (B-tree / relative /
      entry file writes) must also reach [Emits_ckpt] — the write-intent
      stream must exist on mutation paths. *)

let ckpt_complete ~ctx () =
  let dp_nodes =
    List.filter
      (fun (n : Callgraph.node) -> under "lib/dp" n.n_file)
      (Callgraph.nodes ctx.graph)
  in
  let roots =
    List.filter (fun (n : Callgraph.node) -> String.equal n.n_name "handler")
      dp_nodes
  in
  if roots = [] then []
  else begin
    let reach =
      Callgraph.reachable ctx.graph
        ~roots:(List.map (fun (n : Callgraph.node) -> n.n_key) roots)
    in
    let mutation_diags =
      List.filter_map
        (fun (n : Callgraph.node) ->
          if
            Hashtbl.mem reach n.n_key
            && Effects.mem Effects.Mutates_control (Effects.local_of_node n)
            && not
                 (Effects.mem Effects.Emits_ckpt
                    (Effects.summary ctx.summaries n.n_key))
          then
            Some
              (Diag.of_loc ~rule:"CKPT-COMPLETE" ~file:n.n_file n.n_loc
                 (Printf.sprintf
                    "%s mutates replica-visible control state on a dispatch \
                     path but nothing in its call subtree emits a checkpoint \
                     item; the backup cannot learn this state"
                    n.n_name))
          else None)
        dp_nodes
    in
    let root_diags =
      List.filter_map
        (fun (n : Callgraph.node) ->
          let s = Effects.summary ctx.summaries n.n_key in
          if Effects.mem Effects.Mutates_heap s
             && not (Effects.mem Effects.Emits_ckpt s)
          then
            Some
              (Diag.of_loc ~rule:"CKPT-COMPLETE" ~file:n.n_file n.n_loc
                 (Printf.sprintf
                    "dispatch root %s reaches heap mutations but no \
                     checkpoint emit; acknowledged writes would be lost on \
                     takeover"
                    n.n_name))
          else None)
        roots
    in
    mutation_diags @ root_diags
  end

(* --- CLOCK-CHARGE ---------------------------------------------------------- *)

(* The max-of-latencies accounting (PR 3) and every elapsed-time claim in
   the experiment suite assume that real work on a dispatch path costs
   simulated time. A function on a DP/FS dispatch path that performs disk
   I/O or parks a waiter, while nothing in its call subtree ever touches
   the simulation clock, is free work — it silently deflates elapsed-time
   measurements. [roots] are the DP handlers plus every FS-exported entry
   point; the engine computes them from the graph and the interfaces. *)

let clock_charge ~ctx ~roots () =
  let reach = Callgraph.reachable ctx.graph ~roots in
  List.filter_map
    (fun (n : Callgraph.node) ->
      if Hashtbl.mem reach n.n_key then begin
        let local = Effects.local_of_node n in
        let wants =
          Effects.mem Effects.Performs_io local
          || Effects.mem Effects.Parks_waiter local
        in
        if
          wants
          && not
               (Effects.mem Effects.Charges_clock
                  (Effects.summary ctx.summaries n.n_key))
        then
          Some
            (Diag.of_loc ~rule:"CLOCK-CHARGE" ~file:n.n_file n.n_loc
               (Printf.sprintf
                  "%s performs I/O or parks a waiter on a dispatch path but \
                   nothing in its call subtree charges the simulation \
                   clock; the work is free and corrupts elapsed-time \
                   accounting"
                  n.n_name))
        else None
      end
      else None)
    (Callgraph.nodes ctx.graph)

(* --- PARK-SAFE ------------------------------------------------------------- *)

(* Only nothing-applied operations may enter the DP lock wait queue (PR 5):
   a parked request is re-dispatched from scratch, so any operation that
   carries partial progress (SCB state, processed counts, accumulators)
   must keep the immediate-denial protocol. Three obligations:

   1. the set of ops [park_tx] actually parks must equal the declared
      whitelist below — extending the queue to a new op is a deliberate,
      audited decision, not a fallout of editing a match;
   2. no declared op may silently stop parking (stale whitelist);
   3. no parked op's dispatch arm may reach [Opens_scan] (SCB allocation):
      re-dispatch would duplicate the partial state the SCB carries. *)

let park_whitelist =
  [
    "R_read";
    "R_read_next";
    "R_insert";
    "R_update";
    "R_delete";
    "R_lock_file";
    "R_lock_generic";
    "R_entry_append";
    "R_insert_row";
    "R_insert_block";
  ]

let case_lists_of expr =
  let acc = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      cases =
        (fun it cs ->
          acc := cs :: !acc;
          Ast_iterator.default_iterator.cases it cs);
    }
  in
  it.expr it expr;
  List.rev !acc

let is_request_ctor name =
  String.length name > 2 && String.equal (String.sub name 0 2) "R_"

let non_parking_body e =
  match e.pexp_desc with
  | Pexp_construct ({ txt; _ }, None) -> (
      match try List.rev (Longident.flatten txt) with _ -> [] with
      | ("None" | "false") :: _ -> true
      | _ -> false)
  | _ -> false

let park_safe ?(whitelist = park_whitelist) ~ctx () =
  let find_dp name =
    List.find_opt
      (fun (n : Callgraph.node) ->
        under "lib/dp" n.n_file && String.equal n.n_name name)
      (Callgraph.nodes ctx.graph)
  in
  match find_dp "park_tx" with
  | None -> []
  | Some park_tx ->
      let diags = ref [] in
      let flag ~file loc msg =
        diags := Diag.of_loc ~rule:"PARK-SAFE" ~file loc msg :: !diags
      in
      let parked = ref [] in
      List.iter
        (fun cases ->
          List.iter
            (fun c ->
              if not (non_parking_body c.pc_rhs) then
                List.iter
                  (fun h ->
                    if not (List.mem h !parked) then begin
                      parked := h :: !parked;
                      if not (List.mem h whitelist) then
                        flag ~file:park_tx.n_file c.pc_lhs.ppat_loc
                          (Printf.sprintf
                             "%s may park on the lock wait queue but is not \
                              in the declared nothing-applied whitelist; \
                              audit re-dispatch safety and extend the \
                              PARK-SAFE whitelist deliberately"
                             h)
                    end)
                  (pattern_heads is_request_ctor c.pc_lhs))
            cases)
        (case_lists_of park_tx.n_body);
      List.iter
        (fun w ->
          if not (List.mem w !parked) then
            flag ~file:park_tx.n_file park_tx.n_loc
              (Printf.sprintf
                 "declared nothing-applied op %s no longer parks in \
                  park_tx; remove it from the PARK-SAFE whitelist"
                 w))
        whitelist;
      (match find_dp "dispatch" with
      | None -> ()
      | Some dispatch ->
          List.iter
            (fun cases ->
              List.iter
                (fun c ->
                  let heads =
                    List.filter
                      (fun h -> List.mem h !parked)
                      (pattern_heads is_request_ctor c.pc_lhs)
                  in
                  if heads <> [] then begin
                    let eff =
                      Effects.of_expr ctx.graph ctx.summaries
                        ~unit_name:dispatch.n_unit c.pc_rhs
                    in
                    if Effects.mem Effects.Opens_scan eff then
                      flag ~file:dispatch.n_file c.pc_lhs.ppat_loc
                        (Printf.sprintf
                           "parkable op %s opens an SCB/scan on its dispatch \
                            path; re-dispatch after a park would duplicate \
                            partial scan state"
                           (String.concat "/" heads))
                  end)
                cases)
            (case_lists_of dispatch.n_body));
      List.rev !diags

(* --- DEAD-EXPORT ------------------------------------------------------------ *)

(* An interface value that no other compilation unit names is surface
   without a user: delete it, or drop it from the .mli when its own module
   still needs it. [users] is every parsed unit that may refer to lib (lib
   itself and the code beside it), so an export only a test uses still
   counts as used. References resolve through each file's module aliases
   and opens ([Callgraph.candidates]); a local open ([M.(e)],
   [let open M in]) widens the file's opens, and a binding operator
   ([let*]) is an unqualified reference. Resolution is deliberately
   generous, since a missed finding costs less than a false one. Only
   top-level [val]s are checked. *)
let dead_export ~mli_sigs ~users =
  let used : (string, unit) Hashtbl.t = Hashtbl.create 1024 in
  List.iter
    (fun (path, structure) ->
      let unit_name = Source.module_name path in
      let ctx = Callgraph.file_context ~unit_name structure in
      let refs = ref [] in
      let it =
        {
          Ast_iterator.default_iterator with
          open_declaration =
            (fun it od ->
              (match od.popen_expr.pmod_desc with
              | Pmod_ident { txt; _ } -> (
                  match Callgraph.last_component txt with
                  | Some m ->
                      ctx.c_opens <- Callgraph.alias_in ctx m :: ctx.c_opens
                  | None -> ())
              | _ -> ());
              Ast_iterator.default_iterator.open_declaration it od);
          expr =
            (fun it e ->
              (match e.pexp_desc with
              | Pexp_ident { txt; _ } -> (
                  match try Longident.flatten txt with _ -> [] with
                  | [] -> ()
                  | p -> refs := p :: !refs)
              | Pexp_letop { let_; ands; _ } ->
                  List.iter
                    (fun op -> refs := [ op.pbop_op.txt ] :: !refs)
                    (let_ :: ands)
              | _ -> ());
              Ast_iterator.default_iterator.expr it e);
        }
      in
      it.structure it structure;
      List.iter
        (fun p ->
          List.iter
            (fun key ->
              match String.index_opt key '.' with
              | Some i when not (String.equal (String.sub key 0 i) unit_name)
                ->
                  Hashtbl.replace used key ()
              | _ -> ())
            (Callgraph.candidates ctx ~prefixes:[] p))
        !refs)
    users;
  List.concat_map
    (fun (path, signature) ->
      let unit_name = Source.module_name path in
      List.filter_map
        (fun item ->
          match item.psig_desc with
          | Psig_value vd ->
              let key = unit_name ^ "." ^ vd.pval_name.txt in
              if Hashtbl.mem used key then None
              else
                Some
                  (Diag.of_loc ~rule:"DEAD-EXPORT" ~file:path vd.pval_loc
                     (Printf.sprintf
                        "%s is exported but no other compilation unit \
                         refers to it: delete it, or drop it from the \
                         interface"
                        key))
          | _ -> None)
        signature)
    mli_sigs

(* --- the per-file bundle -------------------------------------------------- *)

let per_file ~path ~index ~ctx ~enabled structure =
  let r name f = if enabled name then f () else [] in
  r "DET-RANDOM" (fun () -> det_random ~path structure)
  @ r "SIM-CLOCK" (fun () -> sim_clock ~path structure)
  @ r "MON-PURE" (fun () -> mon_pure ~path structure)
  @ r "DET-HASHITER" (fun () -> det_hashiter ~path structure)
  @ r "ERR-SWALLOW" (fun () -> err_swallow ~path ~index structure)
  @ r "LOCK-ORDER" (fun () -> lock_order ~path structure)
  @ r "RES-LEAK" (fun () -> res_leak ~path ~ctx structure)
