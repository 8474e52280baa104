(* Effect summaries: which invariant-relevant effects a function *may*
   perform, directly or through anything it calls.

   The lattice is a finite powerset (a bit set), so the interprocedural
   propagation below is a textbook monotone fixed point over the call
   graph: start every node at its locally recognized effects, union in
   callee summaries until nothing changes. Recursion and mutual recursion
   converge for free; unknown callees (Stdlib, closures, dynamic calls
   through refs or record fields) contribute nothing, which keeps the
   analysis a may-over-approximation on the resolved part of the graph —
   exactly what the rules need: CKPT-COMPLETE and CLOCK-CHARGE demand an
   effect is *present* in a summary, so a lost edge can only produce a
   finding, never hide one, and RES-LEAK only trusts a summary to prove a
   callee *cannot* close a handle when the callee body was actually
   analyzed.

   Local effects come from a syntactic primitive table: module-qualified
   calls ([Sim.tick], [Disk.read], [Msg.checkpoint], [Btree.insert]...),
   constructor builds ([Ck_*] checkpoint items), and mutations of the DP's
   replica-visible control state ([Hashtbl.replace t.scbs ...],
   [t.waiters <- ...]). The defining modules themselves are seeded by node
   key ([Sim.tick] *is* Charges_clock even though its body just bumps a
   counter field), so effects originate correctly whether a file calls the
   primitive or is the primitive. *)

open Parsetree

type effect_ =
  | Acquires_lock
  | Parks_waiter
  | Opens_scan
  | Closes_scan
  | Opens_span
  | Finishes_span
  | Creates_deferral
  | Resolves_deferral
  | Opens_completion
  | Awaits_completion
  | Emits_ckpt
  | Mutates_heap
  | Mutates_control
  | Charges_clock
  | Performs_io
  | Mutates_stats

let all_effects =
  [
    Acquires_lock;
    Parks_waiter;
    Opens_scan;
    Closes_scan;
    Opens_span;
    Finishes_span;
    Creates_deferral;
    Resolves_deferral;
    Opens_completion;
    Awaits_completion;
    Emits_ckpt;
    Mutates_heap;
    Mutates_control;
    Charges_clock;
    Performs_io;
    Mutates_stats;
  ]

let bit = function
  | Acquires_lock -> 1
  | Parks_waiter -> 2
  | Opens_scan -> 4
  | Closes_scan -> 8
  | Opens_span -> 16
  | Finishes_span -> 32
  | Creates_deferral -> 64
  | Resolves_deferral -> 128
  | Opens_completion -> 256
  | Awaits_completion -> 512
  | Emits_ckpt -> 1024
  | Mutates_heap -> 2048
  | Mutates_control -> 4096
  | Charges_clock -> 8192
  | Performs_io -> 16384
  | Mutates_stats -> 32768

let name = function
  | Acquires_lock -> "Acquires_lock"
  | Parks_waiter -> "Parks_waiter"
  | Opens_scan -> "Opens_scan"
  | Closes_scan -> "Closes_scan"
  | Opens_span -> "Opens_span"
  | Finishes_span -> "Finishes_span"
  | Creates_deferral -> "Creates_deferral"
  | Resolves_deferral -> "Resolves_deferral"
  | Opens_completion -> "Opens_completion"
  | Awaits_completion -> "Awaits_completion"
  | Emits_ckpt -> "Emits_ckpt"
  | Mutates_heap -> "Mutates_heap"
  | Mutates_control -> "Mutates_control"
  | Charges_clock -> "Charges_clock"
  | Performs_io -> "Performs_io"
  | Mutates_stats -> "Mutates_stats"

type set = int

let empty : set = 0
let add e s = s lor bit e
let mem e s = s land bit e <> 0
let union a b = a lor b
let of_list es = List.fold_left (fun s e -> add e s) empty es
let names s = List.filter_map (fun e -> if mem e s then Some (name e) else None) all_effects

(* --- primitive recognition ------------------------------------------------ *)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

let ends_with ~suffix s =
  let ls = String.length suffix and l = String.length s in
  l >= ls && String.equal (String.sub s (l - ls) ls) suffix

(* effects of one call/reference by name. [m] is the last module component
   of the path, if any. Most primitives require their module qualifier —
   [acquire] alone proves nothing, [Lock.acquire] does. A few names are
   distinctive enough (and called unqualified inside their own layer) to
   match bare. *)
let call_effects ~m ~fname =
  let qualified wanted = match m with Some q -> String.equal q wanted | None -> false in
  match fname with
  | "tick" | "charge" | "wait_until" when qualified "Sim" -> of_list [ Charges_clock ]
  (* synchronous I/O only: [read_bulk_async]/[write_bulk_async] return their
     completion time to the caller, who charges it at consumption (the cache
     waits out [valid_at]/[durable_at]) — submission is deliberately free.
     The same split holds for the handle face of the multi-queue device:
     [submit_read]/[submit_write] cost nothing, the transfer is observed
     (and the clock charged) at [Disk.complete], so that is where
     [Performs_io] lives *)
  | "read" | "write" | "read_bulk" | "write_bulk" when qualified "Disk" ->
      of_list [ Performs_io ]
  | "complete" when qualified "Disk" ->
      of_list [ Performs_io; Awaits_completion ]
  | "defer" when qualified "Msg" -> of_list [ Creates_deferral ]
  | "resolve" when qualified "Msg" -> of_list [ Resolves_deferral ]
  | "await" | "await_any" when qualified "Msg" -> of_list [ Awaits_completion ]
  | "checkpoint" when qualified "Msg" -> of_list [ Emits_ckpt ]
  | "begin_span" -> of_list [ Opens_span ]
  | "finish" when qualified "Trace" -> of_list [ Finishes_span ]
  | "acquire" | "try_lock" when qualified "Lock" -> of_list [ Acquires_lock ]
  | "insert" | "delete" | "update" | "upsert" when qualified "Btree" ->
      of_list [ Mutates_heap ]
  | "write" | "rewrite" | "delete" | "truncate_to" when qualified "Relfile" ->
      of_list [ Mutates_heap ]
  | "append" | "truncate_to" when qualified "Entryfile" -> of_list [ Mutates_heap ]
  | "send_nowait" -> of_list [ Opens_completion ]
  | "open_scan" -> of_list [ Opens_scan ]
  | "open_subset" -> of_list [ Opens_scan ]
  | "close_scan" -> of_list [ Closes_scan ]
  | _ -> empty

(* the modules whose own definitions *are* the primitives: seed their node
   summaries so the effect exists at its origin, not only at call sites *)
let intrinsic_of_key key =
  match key with
  | "Sim.tick" | "Sim.charge" | "Sim.wait_until" -> of_list [ Charges_clock ]
  | "Disk.read" | "Disk.write" | "Disk.read_bulk" | "Disk.write_bulk" ->
      of_list [ Performs_io ]
  | "Disk.complete" -> of_list [ Performs_io; Awaits_completion ]
  | "Msg.defer" -> of_list [ Creates_deferral ]
  | "Msg.resolve" -> of_list [ Resolves_deferral ]
  | "Msg.await" | "Msg.await_any" -> of_list [ Awaits_completion ]
  | "Msg.checkpoint" -> of_list [ Emits_ckpt ]
  | "Trace.begin_span" -> of_list [ Opens_span ]
  | "Trace.finish" -> of_list [ Finishes_span ]
  | "Lock.acquire" | "Lock.try_lock" -> of_list [ Acquires_lock ]
  | "Msg.send_nowait" -> of_list [ Opens_completion ]
  | "Fs.open_scan" -> of_list [ Opens_scan ]
  | "Fs.close_scan" -> of_list [ Closes_scan ]
  | _ -> empty

let path_split path =
  match List.rev path with
  | fname :: rev_mods ->
      let m = match rev_mods with m :: _ -> Some m | [] -> None in
      Some (m, fname)
  | [] -> None

(* local (intra-body) effects of one expression tree *)
let local_of_expr expr =
  let acc = ref empty in
  let hit s = acc := union !acc s in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_ident { txt; _ } -> (
              match path_split (try Longident.flatten txt with _ -> []) with
              | Some (m, fname) -> hit (call_effects ~m ~fname)
              | None -> ())
          | Pexp_construct ({ txt; _ }, _) -> (
              match try List.rev (Longident.flatten txt) with _ -> [] with
              | ctor :: _ when starts_with ~prefix:"Ck_" ctor ->
                  hit (of_list [ Emits_ckpt ])
              | _ -> ())
          | Pexp_setfield (_, { txt; _ }, _) -> (
              match try Longident.flatten txt with _ -> [] with
              | [] -> ()
              | comps -> (
                  (match List.rev comps with
                  | field :: _
                    when String.equal field "waiters"
                         || String.equal field "rp_parked" ->
                      hit (of_list [ Parks_waiter; Mutates_control ])
                  | _ -> ());
                  if List.exists (String.equal "Stats") comps then
                    hit (of_list [ Mutates_stats ])))
          | Pexp_apply (callee, args) -> (
              (* replica-control hash tables: Hashtbl.replace/remove/reset
                 on an ...scbs field is a checkpoint-visible mutation *)
              match path_split (match callee.pexp_desc with
                | Pexp_ident { txt; _ } -> (
                    try Longident.flatten txt with _ -> [])
                | _ -> []) with
              | Some (Some "Hashtbl", ("replace" | "remove" | "reset")) ->
                  let on_scbs (_, a) =
                    match a.pexp_desc with
                    | Pexp_field (_, { txt; _ }) -> (
                        match try List.rev (Longident.flatten txt) with _ -> [] with
                        | field :: _ -> ends_with ~suffix:"scbs" field
                        | [] -> false)
                    | _ -> false
                  in
                  if List.exists on_scbs args then
                    hit (of_list [ Mutates_control ])
              | _ -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it expr;
  !acc

let local_of_node (node : Callgraph.node) =
  union (local_of_expr node.n_body) (intrinsic_of_key node.n_key)

(* --- the fixed point ------------------------------------------------------ *)

type summaries = (string, set) Hashtbl.t

let summaries graph : summaries =
  let tbl : summaries = Hashtbl.create 512 in
  let nodes = Callgraph.nodes graph in
  List.iter
    (fun (n : Callgraph.node) -> Hashtbl.replace tbl n.n_key (local_of_node n))
    nodes;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (n : Callgraph.node) ->
        let cur = Option.value ~default:empty (Hashtbl.find_opt tbl n.n_key) in
        let next =
          List.fold_left
            (fun s callee ->
              union s (Option.value ~default:empty (Hashtbl.find_opt tbl callee)))
            cur n.n_callees
        in
        if next <> cur then begin
          Hashtbl.replace tbl n.n_key next;
          changed := true
        end)
      nodes
  done;
  tbl

let summary (tbl : summaries) key =
  Option.value ~default:empty (Hashtbl.find_opt tbl key)

(* effects of an arbitrary expression *in context*: local primitives plus
   the summaries of every resolvable reference — used for per-arm analysis
   of the DP dispatch (PARK-SAFE) where the unit of interest is smaller
   than a whole binding *)
let of_expr graph (tbl : summaries) ~unit_name expr =
  let local = local_of_expr expr in
  List.fold_left
    (fun s path ->
      match Callgraph.resolve graph ~unit_name path with
      | Some key -> union s (summary tbl key)
      | None -> s)
    local
    (Callgraph.reference_paths expr)
