(* A whole-repo call graph over compiler-libs parse trees.

   Nodes are top-level value bindings (including bindings inside nested
   [module S = struct ... end] blocks), keyed by a module-qualified name:
   ["Dp.request"], ["Lock.Waitgraph.clear_waiting"]. Edges are *references*,
   not just application heads: any [Pexp_ident] in a binding's body that
   resolves to another node adds an edge, so a function passed as a value
   (the higher-order case — [Sim.schedule t (fun () -> deny_waiter ...)])
   still contributes its effects to the enclosing binding. That makes the
   graph a may-call over-approximation, which is exactly what the
   may-effect summaries in [Effects] need.

   Resolution mirrors how the repo actually names things:
   - a compilation unit is its capitalized basename ([Source.module_name]);
   - files alias wrapped-library modules ([module Msg = Nsql_msg.Msg],
     [module N = Nsql_core.Nonstop_sql]) — a per-file alias table maps the
     alias to the *last* component of its target, which is the unit name
     under dune's wrapping;
   - [open M] makes M's bindings visible unqualified;
   - an unqualified name resolves to the innermost enclosing module chain
     first (nested module, then the unit itself), then to opened units — so
     a unit's own [f] shadows any opened unit's [f].

   A qualified path [A.B.f] is tried as [alias(B).f] (unit access, possibly
   through an alias) and then [alias(A).B.f] (a nested module of another
   unit, e.g. [Lock.Waitgraph.find_cycle]). Anything that resolves to no
   node — Stdlib, closures, record fields — is an unknown callee and simply
   contributes no edge. *)

open Parsetree

type node = {
  n_key : string;  (** "Unit.f" or "Unit.Sub.f" *)
  n_unit : string;
  n_name : string;  (** "f" or "Sub.f" *)
  n_file : string;
  n_loc : Location.t;
  n_body : expression;
  n_prefixes : string list;
      (** qualifiers to try for unqualified refs, innermost first:
          ["Unit.Sub."; "Unit."] *)
  mutable n_callees : string list;  (** resolved node keys, sorted uniq *)
}

type file_ctx = {
  c_unit : string;
  c_aliases : (string, string) Hashtbl.t;  (** alias -> target unit name *)
  mutable c_opens : string list;  (** opened unit names, latest first *)
}

type t = {
  g_nodes : (string, node) Hashtbl.t;
  g_ctx : (string, file_ctx) Hashtbl.t;  (** unit name -> its file context *)
  mutable g_order : string list;  (** node keys, sorted; DET-HASHITER-clean *)
}

let last_component lid =
  match try List.rev (Longident.flatten lid) with _ -> [] with
  | last :: _ -> Some last
  | [] -> None

(* every variable a (possibly nested) binding pattern introduces *)
let rec pattern_vars pat =
  match pat.ppat_desc with
  | Ppat_var { txt; _ } -> [ (txt, pat.ppat_loc) ]
  | Ppat_alias (p, { txt; _ }) -> (txt, pat.ppat_loc) :: pattern_vars p
  | Ppat_constraint (p, _) | Ppat_open (_, p) | Ppat_lazy p ->
      pattern_vars p
  | Ppat_tuple ps -> List.concat_map pattern_vars ps
  | _ -> []

let register t ~file ~unit_name ~prefixes structure =
  let rec items prefix prefixes structure =
    List.iter
      (fun item ->
        match item.pstr_desc with
        | Pstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                List.iter
                  (fun (name, loc) ->
                    let n_name = prefix ^ name in
                    let key = unit_name ^ "." ^ n_name in
                    if not (Hashtbl.mem t.g_nodes key) then
                      t.g_order <- key :: t.g_order;
                    Hashtbl.replace t.g_nodes key
                      {
                        n_key = key;
                        n_unit = unit_name;
                        n_name;
                        n_file = file;
                        n_loc = loc;
                        n_body = vb.pvb_expr;
                        n_prefixes = prefixes;
                        n_callees = [];
                      })
                  (pattern_vars vb.pvb_pat))
              vbs
        | Pstr_module { pmb_name = { txt = Some sub; _ }; pmb_expr; _ } -> (
            match pmb_expr.pmod_desc with
            | Pmod_structure str ->
                items (prefix ^ sub ^ ".")
                  ((unit_name ^ "." ^ prefix ^ sub ^ ".") :: prefixes)
                  str
            | _ -> ())
        | Pstr_recmodule mbs ->
            List.iter
              (fun mb ->
                match (mb.pmb_name.txt, mb.pmb_expr.pmod_desc) with
                | Some sub, Pmod_structure str ->
                    items (prefix ^ sub ^ ".")
                      ((unit_name ^ "." ^ prefix ^ sub ^ ".") :: prefixes)
                      str
                | _ -> ())
              mbs
        | _ -> ())
      structure
  in
  items "" prefixes structure

(* a file's module aliases and top-level opens *)
let file_context ~unit_name structure =
  let ctx =
    { c_unit = unit_name; c_aliases = Hashtbl.create 8; c_opens = [] }
  in
  List.iter
    (fun item ->
      match item.pstr_desc with
      | Pstr_module { pmb_name = { txt = Some alias; _ }; pmb_expr; _ } -> (
          match pmb_expr.pmod_desc with
          | Pmod_ident { txt; _ } -> (
              match last_component txt with
              | Some target -> Hashtbl.replace ctx.c_aliases alias target
              | None -> ())
          | _ -> ())
      | Pstr_open { popen_expr = { pmod_desc = Pmod_ident { txt; _ }; _ }; _ }
        -> (
          match last_component txt with
          | Some target ->
              let target =
                Option.value ~default:target
                  (Hashtbl.find_opt ctx.c_aliases target)
              in
              ctx.c_opens <- target :: ctx.c_opens
          | None -> ())
      | _ -> ())
    structure;
  ctx

let context_of t ~unit_name structure =
  let ctx = file_context ~unit_name structure in
  Hashtbl.replace t.g_ctx unit_name ctx;
  ctx

let alias_in ctx m = Option.value ~default:m (Hashtbl.find_opt ctx.c_aliases m)

(* the keys a reference path (["Msg"; "checkpoint"] or ["go"]) occurring
   in [ctx]'s file may name, inside a binding whose enclosing-module
   prefixes are [prefixes], in resolution order *)
let candidates ctx ~prefixes path =
  match List.rev path with
  | [] -> []
  | [ name ] ->
      List.map (fun p -> p ^ name) prefixes
      @ [ ctx.c_unit ^ "." ^ name ]
      @ List.map (fun o -> o ^ "." ^ name) ctx.c_opens
  | name :: rev_mods -> (
      let mods = List.rev rev_mods in
      let rec last_two = function
        | [ a; b ] -> (Some a, b)
        | [ b ] -> (None, b)
        | _ :: rest -> last_two rest
        | [] -> assert false
      in
      let before, last = last_two mods in
      let unit_access = alias_in ctx last ^ "." ^ name in
      (* a nested module of this very unit: [Waitgraph.find_cycle]
         written inside lock.ml means Lock.Waitgraph.find_cycle *)
      let own_nested =
        ctx.c_unit ^ "." ^ String.concat "." mods ^ "." ^ name
      in
      match before with
      | None -> [ unit_access; own_nested ]
      | Some m ->
          [ unit_access; alias_in ctx m ^ "." ^ last ^ "." ^ name; own_nested ])

(* resolve a reference path to the first candidate that is a node *)
let resolve_with t ctx ~prefixes path =
  List.find_opt
    (fun key -> Hashtbl.mem t.g_nodes key)
    (candidates ctx ~prefixes path)

let resolve t ~unit_name path =
  match Hashtbl.find_opt t.g_ctx unit_name with
  | None -> None
  | Some ctx -> resolve_with t ctx ~prefixes:[] path

(* all identifier reference paths in an expression *)
let reference_paths expr =
  let refs = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_ident { txt; _ } -> (
              match try Longident.flatten txt with _ -> [] with
              | [] -> ()
              | p -> refs := p :: !refs)
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it expr;
  List.rev !refs

let build parsed =
  let t =
    { g_nodes = Hashtbl.create 512; g_ctx = Hashtbl.create 64; g_order = [] }
  in
  (* pass 1: nodes and per-file contexts *)
  List.iter
    (fun (path, structure) ->
      let unit_name = Source.module_name path in
      let _ctx = context_of t ~unit_name structure in
      register t ~file:path ~unit_name ~prefixes:[] structure)
    parsed;
  t.g_order <- List.sort String.compare t.g_order;
  (* pass 2: edges, now that every node exists *)
  List.iter
    (fun key ->
      match Hashtbl.find_opt t.g_nodes key with
      | None -> ()
      | Some node -> (
          match Hashtbl.find_opt t.g_ctx node.n_unit with
          | None -> ()
          | Some ctx ->
              let callees =
                List.filter_map
                  (resolve_with t ctx ~prefixes:node.n_prefixes)
                  (reference_paths node.n_body)
              in
              node.n_callees <- List.sort_uniq String.compare callees))
    t.g_order;
  t

let find t key = Hashtbl.find_opt t.g_nodes key

let nodes t = List.filter_map (find t) t.g_order

let callees t key =
  match find t key with Some n -> n.n_callees | None -> []

(* forward reachability from [roots] over resolved edges *)
let reachable t ~roots =
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 128 in
  let rec go key =
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      List.iter go (callees t key)
    end
  in
  List.iter go roots;
  seen
