(* Tests of the storage structures: B-tree (incl. splits, cursors, bulk
   load, invariants under random workloads), relative and entry-sequenced
   files. *)

module Sim = Nsql_sim.Sim
module Config = Nsql_sim.Config
module Disk = Nsql_disk.Disk
module Cache = Nsql_cache.Cache
module Btree = Nsql_store.Btree
module Page = Nsql_store.Page
module Relfile = Nsql_store.Relfile
module Entryfile = Nsql_store.Entryfile
module Keycode = Nsql_util.Keycode
module Errors = Nsql_util.Errors

let setup ?(capacity = 128) () =
  let sim = Sim.create () in
  let disk = Disk.create sim ~name:"$DATA" in
  let cache =
    Cache.create sim disk ~capacity
      ~durable_lsn:(fun () -> Int64.max_int)
      ~force_log:(fun _ -> ())
  in
  (sim, cache)

let k i = Keycode.of_int i
let get_ok = Errors.get_ok

(* --- page codec --------------------------------------------------------- *)

let page_roundtrip () =
  let leaf =
    Page.Leaf
      {
        entries = [| ("a", "rec-a"); ("b", String.make 100 'x') |];
        next = 42;
      }
  in
  let node = Page.Node { child0 = 7; entries = [| ("m", 8); ("t", 9) |] } in
  let check p =
    let img = Page.encode ~block_size:4096 p in
    Alcotest.(check int) "padded to block" 4096 (String.length img);
    Alcotest.(check string) "roundtrip"
      (Format.asprintf "%a" Page.pp p)
      (Format.asprintf "%a" Page.pp (Page.decode img))
  in
  check leaf;
  check node;
  (match Page.image (Page.encode ~block_size:4096 node) with
  | Page.Node_image { child0; entries } ->
      Alcotest.(check int) "image child0" 7 child0;
      Alcotest.(check (array (pair string int)))
        "image separators" [| ("m", 8); ("t", 9) |] entries
  | Page.View _ -> Alcotest.fail "node imaged as a leaf");
  (* decoded content equality, not just shape *)
  match Page.decode (Page.encode ~block_size:4096 leaf) with
  | Page.Leaf { entries; next } ->
      Alcotest.(check int) "next" 42 next;
      Alcotest.(check string) "key" "a" (fst entries.(0));
      Alcotest.(check string) "rec" "rec-a" (snd entries.(0))
  | Page.Node _ -> Alcotest.fail "wrong page type"

let page_overflow_rejected () =
  let huge = Page.Leaf { entries = [| ("k", String.make 5000 'x') |]; next = -1 } in
  (try
     ignore (Page.encode ~block_size:4096 huge);
     Alcotest.fail "oversized page accepted"
   with Invalid_argument _ -> ())

(* Leaf views against the decoder. Keys come from a small alphabet, so
   many are prefixes of others, and include bytes >= 0x80, where signed
   and unsigned byte order disagree; long keys and records take two-byte
   length varints. *)
let view_key_gen =
  QCheck.Gen.(
    let alphabet = oneofl [ 'a'; 'b'; '\x00'; '\x7f'; '\x80'; '\xff' ] in
    oneof
      [
        string_size ~gen:alphabet (int_bound 5);
        string_size ~gen:alphabet (int_range 126 140);
      ])

let view_page_gen =
  QCheck.Gen.(
    triple
      (list_size (int_bound 10)
         (pair view_key_gen (string_size (int_bound 200))))
      (int_range (-1) 1000)
      (list_size (int_bound 8) view_key_gen))

let leaf_view_matches_decode =
  QCheck.Test.make ~name:"leaf view agrees with Page.decode" ~count:500
    (QCheck.make view_page_gen) (fun (raw, next, probes) ->
      let entries =
        List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) raw
        |> Array.of_list
      in
      let img = Page.encode ~block_size:8192 (Page.Leaf { entries; next }) in
      let decoded =
        match Page.decode img with
        | Page.Leaf l -> l.entries
        | Page.Node _ -> QCheck.Test.fail_report "decoded a node"
      in
      match Page.image img with
      | Page.Node_image _ -> QCheck.Test.fail_report "viewed a node"
      | Page.View v ->
          Page.view_next v = next
          && Page.view_entries v = decoded
          && List.for_all
               (fun i ->
                 let key, record = decoded.(i) in
                 let pos, len = Page.view_record_span v i in
                 Page.view_record v i = record
                 && String.sub (Page.view_block v) pos len = record
                 && Page.view_key v i = key)
               (List.init (Array.length decoded) Fun.id)
          && List.for_all
               (fun probe ->
                 let pos = Page.find_leaf_pos decoded probe in
                 let sign n = Int.compare n 0 in
                 Page.view_pos v probe = pos
                 && Page.view_has_key v pos probe
                    = (pos < Array.length decoded
                      && String.equal (fst decoded.(pos)) probe)
                 && Array.for_all Fun.id
                      (Array.mapi
                         (fun i (k, _) ->
                           sign (Page.view_compare_key v i probe)
                           = sign (String.compare k probe))
                         decoded))
               (probes
               @ List.concat_map
                   (fun (k, _) ->
                     [ k; String.sub k 0 (String.length k / 2); k ^ "\x00" ])
                   (Array.to_list entries)))

(* --- b-tree -------------------------------------------------------------- *)

let insert_lookup () =
  let sim, cache = setup () in
  let t = Btree.create sim cache ~name:"T" in
  get_ok ~ctx:"ins" (Btree.insert t ~key:(k 5) ~record:"five" ~lsn:1L);
  get_ok ~ctx:"ins" (Btree.insert t ~key:(k 1) ~record:"one" ~lsn:2L);
  get_ok ~ctx:"ins" (Btree.insert t ~key:(k 9) ~record:"nine" ~lsn:3L);
  Alcotest.(check (option string)) "lookup 5" (Some "five") (Btree.lookup t (k 5));
  Alcotest.(check (option string)) "lookup 1" (Some "one") (Btree.lookup t (k 1));
  Alcotest.(check (option string)) "missing" None (Btree.lookup t (k 2));
  Alcotest.(check int) "count" 3 (Btree.record_count t)

let duplicate_rejected () =
  let sim, cache = setup () in
  let t = Btree.create sim cache ~name:"T" in
  get_ok ~ctx:"ins" (Btree.insert t ~key:(k 5) ~record:"a" ~lsn:1L);
  match Btree.insert t ~key:(k 5) ~record:"b" ~lsn:2L with
  | Error (Errors.Duplicate_key _) -> ()
  | Ok () -> Alcotest.fail "duplicate accepted"
  | Error e -> Alcotest.fail (Errors.to_string e)

let update_delete () =
  let sim, cache = setup () in
  let t = Btree.create sim cache ~name:"T" in
  get_ok ~ctx:"ins" (Btree.insert t ~key:(k 5) ~record:"old" ~lsn:1L);
  let old = get_ok ~ctx:"upd" (Btree.update t ~key:(k 5) ~record:"new" ~lsn:2L) in
  Alcotest.(check string) "old returned" "old" old;
  Alcotest.(check (option string)) "updated" (Some "new") (Btree.lookup t (k 5));
  let img = get_ok ~ctx:"del" (Btree.delete t ~key:(k 5) ~lsn:3L) in
  Alcotest.(check string) "deleted image" "new" img;
  Alcotest.(check (option string)) "gone" None (Btree.lookup t (k 5));
  (match Btree.delete t ~key:(k 5) ~lsn:4L with
  | Error (Errors.Not_found_key _) -> ()
  | _ -> Alcotest.fail "double delete accepted");
  Alcotest.(check int) "count" 0 (Btree.record_count t)

let many_inserts_split () =
  let sim, cache = setup () in
  let t = Btree.create sim cache ~name:"T" in
  let n = 2000 in
  let record i = Printf.sprintf "record-%06d-%s" i (String.make 50 'p') in
  (* insert in a shuffled but deterministic order *)
  let order = Array.init n (fun i -> (i * 7919) mod n) in
  Array.iter
    (fun i ->
      get_ok ~ctx:"ins" (Btree.insert t ~key:(k i) ~record:(record i) ~lsn:1L))
    order;
  Alcotest.(check int) "count" n (Btree.record_count t);
  Alcotest.(check bool) "tree grew" true (Btree.height t > 1);
  (match Btree.check_invariants t with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  for i = 0 to n - 1 do
    match Btree.lookup t (k i) with
    | Some r -> assert (String.equal r (record i))
    | None -> Alcotest.fail (Printf.sprintf "key %d lost" i)
  done

let cursor_scan () =
  let sim, cache = setup () in
  let t = Btree.create sim cache ~name:"T" in
  List.iter
    (fun i -> get_ok ~ctx:"ins" (Btree.insert t ~key:(k i) ~record:(string_of_int i) ~lsn:1L))
    [ 2; 4; 6; 8; 10 ];
  let collect from =
    let rec go c acc =
      match Btree.cursor_entry t c with
      | None -> List.rev acc
      | Some (_, r) -> go (Btree.advance t c) (r :: acc)
    in
    go (Btree.seek t from) []
  in
  Alcotest.(check (list string)) "from low" [ "2"; "4"; "6"; "8"; "10" ]
    (collect Keycode.low_value);
  Alcotest.(check (list string)) "from 5" [ "6"; "8"; "10" ] (collect (k 5));
  Alcotest.(check (list string)) "from 6 inclusive" [ "6"; "8"; "10" ]
    (collect (k 6));
  Alcotest.(check (list string)) "past end" [] (collect (k 11))

let cursor_skips_drained_leaves () =
  let sim, cache = setup () in
  let t = Btree.create sim cache ~name:"T" in
  let n = 600 in
  for i = 0 to n - 1 do
    get_ok ~ctx:"ins"
      (Btree.insert t ~key:(k i) ~record:(String.make 60 'r') ~lsn:1L)
  done;
  (* drain a middle key range entirely *)
  for i = 100 to 399 do
    ignore (get_ok ~ctx:"del" (Btree.delete t ~key:(k i) ~lsn:2L))
  done;
  let rec count c acc =
    match Btree.cursor_entry t c with
    | None -> acc
    | Some _ -> count (Btree.advance t c) (acc + 1)
  in
  Alcotest.(check int) "scan skips empties" 300
    (count (Btree.seek t Keycode.low_value) 0);
  match Btree.check_invariants t with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let bulk_load_contiguous () =
  let sim, cache = setup () in
  let t = Btree.create sim cache ~name:"T" in
  let n = 1000 in
  let entries = List.init n (fun i -> (k i, Printf.sprintf "r%d-%s" i (String.make 80 'w'))) in
  get_ok ~ctx:"load" (Btree.load_sorted t entries ~lsn:1L);
  Alcotest.(check int) "count" n (Btree.record_count t);
  (match Btree.check_invariants t with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* leaves must be physically consecutive *)
  let leaves = Btree.leaf_blocks t in
  let contiguous =
    let rec go = function
      | a :: (b :: _ as rest) -> b = a + 1 && go rest
      | _ -> true
    in
    go leaves
  in
  Alcotest.(check bool) "leaves contiguous" true contiguous;
  Alcotest.(check (option string)) "lookup works"
    (Some (Printf.sprintf "r%d-%s" 123 (String.make 80 'w')))
    (Btree.lookup t (k 123))

let bulk_load_rejects () =
  let sim, cache = setup () in
  let t = Btree.create sim cache ~name:"T" in
  (match Btree.load_sorted t [ (k 2, "b"); (k 1, "a") ] ~lsn:1L with
  | Error (Errors.Bad_request _) -> ()
  | _ -> Alcotest.fail "unsorted accepted");
  get_ok ~ctx:"ins" (Btree.insert t ~key:(k 0) ~record:"x" ~lsn:1L);
  match Btree.load_sorted t [ (k 1, "a") ] ~lsn:1L with
  | Error (Errors.Bad_request _) -> ()
  | _ -> Alcotest.fail "non-empty accepted"

let btree_random_ops =
  QCheck.Test.make ~name:"btree matches model under random ops" ~count:30
    QCheck.(list (pair (int_bound 2) (int_bound 200)))
    (fun ops ->
      let sim, cache = setup () in
      let t = Btree.create sim cache ~name:"T" in
      let model = Hashtbl.create 64 in
      List.iter
        (fun (op, key) ->
          let ks = k key in
          match op with
          | 0 -> (
              let r = Printf.sprintf "v%d" key in
              match Btree.insert t ~key:ks ~record:r ~lsn:1L with
              | Ok () ->
                  assert (not (Hashtbl.mem model key));
                  Hashtbl.replace model key r
              | Error (Errors.Duplicate_key _) -> assert (Hashtbl.mem model key)
              | Error e -> failwith (Errors.to_string e))
          | 1 -> (
              match Btree.delete t ~key:ks ~lsn:1L with
              | Ok _ ->
                  assert (Hashtbl.mem model key);
                  Hashtbl.remove model key
              | Error (Errors.Not_found_key _) ->
                  assert (not (Hashtbl.mem model key))
              | Error e -> failwith (Errors.to_string e))
          | _ -> (
              let r = Printf.sprintf "u%d" key in
              match Btree.update t ~key:ks ~record:r ~lsn:1L with
              | Ok _ ->
                  assert (Hashtbl.mem model key);
                  Hashtbl.replace model key r
              | Error (Errors.Not_found_key _) ->
                  assert (not (Hashtbl.mem model key))
              | Error e -> failwith (Errors.to_string e)))
        ops;
      (match Btree.check_invariants t with
      | Ok () -> ()
      | Error e -> failwith e);
      Hashtbl.fold
        (fun key r acc -> acc && Btree.lookup t (k key) = Some r)
        model true
      && Btree.record_count t = Hashtbl.length model)

(* --- relative files ------------------------------------------------------ *)

let relfile_basics () =
  let sim, cache = setup () in
  let f = Relfile.create sim cache ~slot_size:100 in
  get_ok ~ctx:"w" (Relfile.write f ~slot:5 ~record:"fifth" ~lsn:1L);
  Alcotest.(check string) "read" "fifth" (get_ok ~ctx:"r" (Relfile.read f ~slot:5));
  (match Relfile.read f ~slot:4 with
  | Error (Errors.Not_found_key _) -> ()
  | _ -> Alcotest.fail "empty slot readable");
  (match Relfile.write f ~slot:5 ~record:"again" ~lsn:2L with
  | Error (Errors.Duplicate_key _) -> ()
  | _ -> Alcotest.fail "overwrite allowed");
  let old = get_ok ~ctx:"rw" (Relfile.rewrite f ~slot:5 ~record:"v2" ~lsn:3L) in
  Alcotest.(check string) "old" "fifth" old;
  let slot = get_ok ~ctx:"app" (Relfile.append f ~record:"appended" ~lsn:4L) in
  Alcotest.(check int) "append fills lowest free" 0 slot;
  ignore (get_ok ~ctx:"del" (Relfile.delete f ~slot:5 ~lsn:5L));
  (match Relfile.read f ~slot:5 with
  | Error (Errors.Not_found_key _) -> ()
  | _ -> Alcotest.fail "deleted slot readable");
  Alcotest.(check int) "record count" 1 (Relfile.record_count f)

let relfile_many_slots () =
  let sim, cache = setup () in
  let f = Relfile.create sim cache ~slot_size:64 in
  for i = 0 to 499 do
    get_ok ~ctx:"w" (Relfile.write f ~slot:i ~record:(Printf.sprintf "s%d" i) ~lsn:1L)
  done;
  let seen = ref 0 in
  Relfile.iter f (fun slot r ->
      Alcotest.(check string) "slot content" (Printf.sprintf "s%d" slot) r;
      incr seen);
  Alcotest.(check int) "iter sees all" 500 !seen

(* --- entry-sequenced files ------------------------------------------------ *)

let entryfile_basics () =
  let sim, cache = setup () in
  let f = Entryfile.create sim cache in
  let a1 = get_ok ~ctx:"a" (Entryfile.append f ~record:"first" ~lsn:1L) in
  let a2 = get_ok ~ctx:"a" (Entryfile.append f ~record:"second" ~lsn:2L) in
  Alcotest.(check bool) "addresses ascend" true (a2 > a1);
  Alcotest.(check string) "read 1" "first" (get_ok ~ctx:"r" (Entryfile.read f ~addr:a1));
  Alcotest.(check string) "read 2" "second" (get_ok ~ctx:"r" (Entryfile.read f ~addr:a2));
  match Entryfile.read f ~addr:99999 with
  | Error (Errors.Not_found_key _) -> ()
  | _ -> Alcotest.fail "bogus address readable"

let entryfile_iter_order () =
  let sim, cache = setup () in
  let f = Entryfile.create sim cache in
  let n = 300 in
  let addrs =
    List.init n (fun i ->
        get_ok ~ctx:"a"
          (Entryfile.append f ~record:(Printf.sprintf "entry-%d-%s" i (String.make 40 'e')) ~lsn:1L))
  in
  let seen = ref [] in
  Entryfile.iter f (fun addr _ -> seen := addr :: !seen);
  Alcotest.(check (list int)) "iter in insertion order" addrs (List.rev !seen);
  Alcotest.(check int) "count" n (Entryfile.record_count f)

let suite =
  [
    Alcotest.test_case "page codec roundtrip" `Quick page_roundtrip;
    Alcotest.test_case "page overflow rejected" `Quick page_overflow_rejected;
    QCheck_alcotest.to_alcotest leaf_view_matches_decode;
    Alcotest.test_case "btree insert/lookup" `Quick insert_lookup;
    Alcotest.test_case "btree duplicate rejected" `Quick duplicate_rejected;
    Alcotest.test_case "btree update/delete" `Quick update_delete;
    Alcotest.test_case "btree splits (2000 keys)" `Quick many_inserts_split;
    Alcotest.test_case "btree cursor scan" `Quick cursor_scan;
    Alcotest.test_case "btree cursor skips drained leaves" `Quick
      cursor_skips_drained_leaves;
    Alcotest.test_case "btree bulk load contiguous" `Quick bulk_load_contiguous;
    Alcotest.test_case "btree bulk load rejects bad input" `Quick
      bulk_load_rejects;
    QCheck_alcotest.to_alcotest btree_random_ops;
    Alcotest.test_case "relfile basics" `Quick relfile_basics;
    Alcotest.test_case "relfile many slots" `Quick relfile_many_slots;
    Alcotest.test_case "entryfile basics" `Quick entryfile_basics;
    Alcotest.test_case "entryfile iteration order" `Quick entryfile_iter_order;
  ]
