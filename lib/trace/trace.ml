module Sim = Nsql_sim.Sim
module Stats = Nsql_sim.Stats
module Tracer = Nsql_sim.Tracer

type value = Tracer.value = Int of int | Float of float | Str of string | Bool of bool

type h = Tracer.span option

let set_enabled sim on = Tracer.set_enabled (Sim.tracer sim) on
let enabled sim = Tracer.enabled (Sim.tracer sim)
let take sim = Tracer.take (Sim.tracer sim)
let clear sim = Tracer.clear (Sim.tracer sim)
let dropped sim = Tracer.dropped (Sim.tracer sim)

(* Observation must never perturb the simulation: every function below
   reads [Sim.now] and copies counters ([Sim.snapshot]) but never calls
   [charge]/[tick]/[wait_until] — test/test_trace.ml holds the simulation
   to that. When tracing is disabled the cost is the [enabled] branch. *)

let begin_span sim ?(parent = None) ?(push = true) ?tid ?(cat = "misc")
    ?(attrs = []) name : h =
  let tr = Sim.tracer sim in
  if not (Tracer.enabled tr) then None
  else
    Some
      (Tracer.begin_ tr ~now:(Sim.now sim) ~before:(Sim.snapshot sim) ?parent
         ~push ?tid ~cat ~attrs name)

let finish sim (h : h) =
  match h with
  | None -> ()
  | Some sp ->
      Tracer.finish (Sim.tracer sim) sp ~now:(Sim.now sim)
        ~after:(Sim.snapshot sim)

let span sim ?cat ~attrs name f =
  if not (Tracer.enabled (Sim.tracer sim)) then f None
  else begin
    let h = begin_span sim ?cat ~attrs:(attrs ()) name in
    Fun.protect ~finally:(fun () -> finish sim h) (fun () -> f h)
  end

let instant sim ?tid ?(cat = "misc") ?(attrs = []) name =
  let tr = Sim.tracer sim in
  if Tracer.enabled tr then
    Tracer.instant tr ~now:(Sim.now sim) ?tid ~cat ~attrs name

let add_attr (h : h) k v =
  match h with None -> () | Some sp -> Tracer.add_attr sp k v

let attribute sim (h : h) f =
  match h with
  | None -> f ()
  | Some sp ->
      let tr = Sim.tracer sim in
      let before = Sim.snapshot sim in
      Tracer.push_open tr sp;
      Fun.protect
        ~finally:(fun () ->
          Tracer.pop tr sp;
          Tracer.add_stats sp
            (Stats.diff ~before ~after:(Sim.snapshot sim)))
        f

let attr sp k = List.assoc_opt k sp.Tracer.sp_attrs

(* --- Chrome trace-event export ------------------------------------------

   One complete ("X") event per span, timestamps in microseconds rendered
   with a fixed [%.3f] so the artifact is byte-identical for a given seed.
   Loads in chrome://tracing and Perfetto. *)

let json_escape buf s =
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
    s

let add_json_value buf = function
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (Printf.sprintf "%.3f" f)
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Str s ->
      Buffer.add_char buf '"';
      json_escape buf s;
      Buffer.add_char buf '"'

let add_event buf ~pid (sp : Tracer.span) =
  Buffer.add_string buf "{\"name\":\"";
  json_escape buf sp.sp_name;
  Buffer.add_string buf "\",\"cat\":\"";
  json_escape buf sp.sp_cat;
  Buffer.add_string buf
    (Printf.sprintf "\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":%d,\"args\":{"
       sp.sp_start
       (sp.sp_end -. sp.sp_start)
       pid sp.sp_tid);
  Buffer.add_string buf (Printf.sprintf "\"span\":%d" sp.sp_id);
  (match sp.sp_parent with
  | None -> ()
  | Some p -> Buffer.add_string buf (Printf.sprintf ",\"parent\":%d" p));
  List.iter
    (fun (k, v) ->
      Buffer.add_string buf ",\"";
      json_escape buf k;
      Buffer.add_string buf "\":";
      add_json_value buf v)
    sp.sp_attrs;
  List.iter
    (fun (k, v) ->
      if v <> 0 then Buffer.add_string buf (Printf.sprintf ",\"%s\":%d" k v))
    (Stats.to_assoc sp.sp_stats);
  Buffer.add_string buf "}}"

let chrome_json ?(counters = []) (worlds : Tracer.span list list) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  List.iteri
    (fun pid spans ->
      List.iter
        (fun sp ->
          if !first then first := false else Buffer.add_string buf ",\n";
          add_event buf ~pid sp)
        spans)
    worlds;
  (* pre-rendered "ph":"C" counter events from the resource monitor *)
  List.iter
    (fun ev ->
      if !first then first := false else Buffer.add_string buf ",\n";
      Buffer.add_string buf ev)
    counters;
  Buffer.add_string buf "]}\n";
  Buffer.contents buf

(* --- profile rendering ---------------------------------------------------

   The `\profile` view: the statement/operator/partition-leg spans as an
   indented tree, each line annotated with the counter deltas the paper's
   claims are stated in. Message-level spans are summarised by their
   enclosing operator's delta rather than listed. *)

let profile_cats = [ "stmt"; "op"; "fs"; "fs.leg" ]

let pp_span_counters ppf (s : Stats.t) =
  let open Stats in
  List.iter
    (fun (k, v) -> if v <> 0 then Format.fprintf ppf " %s=%d" k v)
    [
      ("msgs", s.msgs_sent);
      ("reqB", s.msg_req_bytes);
      ("repB", s.msg_reply_bytes);
      ("redrives", s.redrives);
      ("hits", s.cache_hits);
      ("misses", s.cache_misses);
      ("reads", s.disk_reads);
      ("writes", s.disk_writes);
      ("recs_read", s.records_read);
      ("recs_ret", s.records_returned);
      ("batches", s.exec_batches);
      ("batch_rows", s.exec_rows);
      ("lock_waits", s.lock_waits);
    ]

let pp_profile ?(cats = profile_cats) ppf (spans : Tracer.span list) =
  let open Tracer in
  let keep sp = List.mem sp.sp_cat cats in
  let by_id = Hashtbl.create 256 in
  List.iter (fun sp -> Hashtbl.replace by_id sp.sp_id sp) spans;
  let kept_ids = Hashtbl.create 64 in
  List.iter (fun sp -> if keep sp then Hashtbl.replace kept_ids sp.sp_id ()) spans;
  (* nearest collected ancestor that survives the category filter *)
  let rec anchor = function
    | None -> None
    | Some id -> (
        if Hashtbl.mem kept_ids id then Some id
        else
          match Hashtbl.find_opt by_id id with
          | None -> None
          | Some sp -> anchor sp.sp_parent)
  in
  let children = Hashtbl.create 64 in
  let roots = ref [] in
  List.iter
    (fun sp ->
      if keep sp then
        match anchor sp.sp_parent with
        | Some p ->
            Hashtbl.replace children p
              (sp :: (Option.value ~default:[] (Hashtbl.find_opt children p)))
        | None -> roots := sp :: !roots)
    spans;
  let in_order l = List.rev l in
  let rec render depth sp =
    let label = String.make (2 * depth) ' ' ^ sp.sp_name in
    Format.fprintf ppf "%-44s %10.1f us %a@," label
      (sp.sp_end -. sp.sp_start)
      pp_span_counters sp.sp_stats;
    List.iter (render (depth + 1))
      (in_order (Option.value ~default:[] (Hashtbl.find_opt children sp.sp_id)))
  in
  Format.fprintf ppf "@[<v>";
  List.iter (render 0) (in_order !roots);
  Format.fprintf ppf "@]"

(* --- message view --------------------------------------------------------

   The `\trace` view: the cat-"msg" spans rendered one per line, replacing
   the old flat [Msg.trace_entry] log. *)

let msg_spans spans =
  List.filter (fun sp -> sp.Tracer.sp_cat = "msg") spans

let attr_str sp k =
  match attr sp k with Some (Str s) -> s | _ -> "?"

let attr_int sp k = match attr sp k with Some (Int i) -> i | _ -> 0

let pp_msg_span ppf (sp : Tracer.span) =
  Format.fprintf ppf "%8.0fus  %s -> %s (%s)  %-22s req=%dB reply=%dB"
    sp.Tracer.sp_start (attr_str sp "from") (attr_str sp "to")
    (attr_str sp "dest") sp.Tracer.sp_name (attr_int sp "req_bytes")
    (attr_int sp "reply_bytes")
