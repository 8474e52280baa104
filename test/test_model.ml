(* Model-based property tests: the cache against a reference "disk image"
   model under random operation interleavings, and the B-tree under
   multi-column string keys that force deep splits. *)

module Sim = Nsql_sim.Sim
module Config = Nsql_sim.Config
module Disk = Nsql_disk.Disk
module Cache = Nsql_cache.Cache
module Btree = Nsql_store.Btree
module Keycode = Nsql_util.Keycode
module Errors = Nsql_util.Errors

(* --- cache vs model ------------------------------------------------------- *)

(* Operations over a small block space. The model is simply "the latest
   value written per block" — whatever the pool does internally (evict,
   steal, prefetch, write-behind, flush), reads must always return it. *)
type cache_op =
  | C_read of int
  | C_write of int * char
  | C_flush_block of int
  | C_flush_all
  | C_steal of int
  | C_prefetch of int * int
  | C_read_range of int * int
  | C_write_behind
  | C_advance_durable

let cache_op_gen nblocks =
  QCheck.Gen.(
    oneof
      [
        map (fun b -> C_read b) (int_bound (nblocks - 1));
        map2 (fun b c -> C_write (b, c)) (int_bound (nblocks - 1)) (char_range 'a' 'z');
        map (fun b -> C_flush_block b) (int_bound (nblocks - 1));
        return C_flush_all;
        map (fun n -> C_steal (n + 1)) (int_bound 8);
        map2 (fun f n -> C_prefetch (f, (n mod 7) + 1)) (int_bound (nblocks - 8)) (int_bound 6);
        map2 (fun f n -> C_read_range (f, (n mod 7) + 1)) (int_bound (nblocks - 8)) (int_bound 6);
        return C_write_behind;
        return C_advance_durable;
      ])

let cache_matches_model =
  QCheck.Test.make ~name:"cache serves latest writes under any interleaving"
    ~count:60
    QCheck.(list_of_size (QCheck.Gen.int_bound 120) (QCheck.make (cache_op_gen 32)))
    (fun ops ->
      let sim = Sim.create () in
      let disk = Disk.create sim ~name:"$M" in
      ignore (Disk.allocate disk 32);
      let durable = ref 0L in
      let cache =
        Cache.create sim disk ~capacity:8
          ~durable_lsn:(fun () -> !durable)
          ~force_log:(fun lsn -> if lsn > !durable then durable := lsn)
      in
      let bs = Config.block_size in
      let model = Array.make 32 (String.make bs '\x00') in
      let lsn = ref 0L in
      let ok = ref true in
      List.iter
        (fun op ->
          if !ok then
            match op with
            | C_read b -> ok := String.equal (Cache.read cache b) model.(b)
            | C_write (b, c) ->
                lsn := Int64.add !lsn 1L;
                let data = String.make bs c in
                model.(b) <- data;
                Cache.write cache b data ~lsn:!lsn
            | C_flush_block b -> Cache.flush_block cache b
            | C_flush_all -> Cache.flush_all cache
            | C_steal n -> ignore (Cache.steal cache n)
            | C_prefetch (f, n) -> Cache.prefetch cache ~first:f ~count:n
            | C_read_range (f, n) ->
                let datas = Cache.read_range cache ~first:f ~count:n in
                Array.iteri
                  (fun i d -> if not (String.equal d model.(f + i)) then ok := false)
                  datas
            | C_write_behind -> ignore (Cache.write_behind cache)
            | C_advance_durable -> durable := !lsn)
        ops;
      (* final consistency: flush everything and compare the disk itself *)
      durable := !lsn;
      Cache.flush_all cache;
      Sim.drain sim;
      for b = 0 to 31 do
        if not (String.equal (Disk.read disk b) model.(b)) then ok := false
      done;
      !ok)

(* --- b-tree with composite string keys -------------------------------------- *)

let word_gen =
  QCheck.Gen.(string_size ~gen:(char_range 'a' 'f') (int_range 0 12))

(* Mutations interleaved with reads, on a pool of eight frames so blocks
   cycle through the cache (and its per-frame memo) all the time. Halfway
   through, the pool is flushed and dropped, so every later read starts
   from the disk image. *)
type tree_op =
  | T_insert of string * string
  | T_update of string * string
  | T_delete of string * string
  | T_lookup of string * string
  | T_walk of string * string

let tree_op_gen =
  QCheck.Gen.(
    map3
      (fun kind a b ->
        match kind with
        | 0 | 1 | 2 -> T_insert (a, b)
        | 3 -> T_update (a, b)
        | 4 -> T_delete (a, b)
        | 5 -> T_lookup (a, b)
        | _ -> T_walk (a, b))
      (int_bound 6) word_gen word_gen)

let btree_string_keys =
  QCheck.Test.make ~name:"btree with composite string keys matches a map"
    ~count:25
    QCheck.(list_of_size (QCheck.Gen.int_bound 400) (QCheck.make tree_op_gen))
    (fun ops ->
      let sim = Sim.create () in
      let disk = Disk.create sim ~name:"$B" in
      let cache =
        Cache.create sim disk ~capacity:8
          ~durable_lsn:(fun () -> Int64.max_int)
          ~force_log:(fun _ -> ())
      in
      let t = Btree.create sim cache ~name:"T" in
      let model = Hashtbl.create 64 in
      let key_of a b = Keycode.of_string a ^ Keycode.of_string b in
      (* a fat record forces frequent splits *)
      let record_of tag a b = tag ^ a ^ "|" ^ b ^ String.make 200 'r' in
      (* the first [n] model entries at or after [from], in key order *)
      let model_from from n =
        Hashtbl.fold
          (fun k r acc -> if String.compare k from >= 0 then (k, r) :: acc else acc)
          model []
        |> List.sort compare
        |> List.filteri (fun i _ -> i < n)
      in
      let rec walk c n =
        if n = 0 then []
        else
          match Btree.cursor_entry t c with
          | None -> []
          | Some e -> e :: walk (Btree.advance t c) (n - 1)
      in
      let ok = ref true in
      let half = List.length ops / 2 in
      List.iteri
        (fun i op ->
          if i = half then begin
            Cache.flush_all cache;
            Cache.drop_all cache
          end;
          if !ok then
            match op with
            | T_insert (a, b) -> (
                let key = key_of a b and record = record_of "i" a b in
                match Btree.insert t ~key ~record ~lsn:1L with
                | Ok () -> Hashtbl.replace model key record
                | Error (Errors.Duplicate_key _) -> ok := Hashtbl.mem model key
                | Error e -> failwith (Errors.to_string e))
            | T_update (a, b) -> (
                let key = key_of a b and record = record_of "u" a b in
                match Btree.update t ~key ~record ~lsn:1L with
                | Ok old ->
                    ok := Hashtbl.find_opt model key = Some old;
                    Hashtbl.replace model key record
                | Error (Errors.Not_found_key _) -> ok := not (Hashtbl.mem model key)
                | Error e -> failwith (Errors.to_string e))
            | T_delete (a, b) -> (
                let key = key_of a b in
                match Btree.delete t ~key ~lsn:1L with
                | Ok old ->
                    ok := Hashtbl.find_opt model key = Some old;
                    Hashtbl.remove model key
                | Error (Errors.Not_found_key _) -> ok := not (Hashtbl.mem model key)
                | Error e -> failwith (Errors.to_string e))
            | T_lookup (a, b) ->
                let key = key_of a b in
                ok := Btree.lookup t key = Hashtbl.find_opt model key
            | T_walk (a, b) ->
                let from = key_of a b in
                ok := walk (Btree.seek t from) 20 = model_from from 20)
        ops;
      (match Btree.check_invariants t with
      | Ok () -> ()
      | Error e -> failwith e);
      (* every model entry is retrievable, and the scan is the whole model *)
      !ok
      && Hashtbl.fold
           (fun key record acc -> acc && Btree.lookup t key = Some record)
           model true
      && walk (Btree.seek t Keycode.low_value) max_int
         = model_from Keycode.low_value max_int)

(* --- keycode encoding is order-preserving ------------------------------------ *)

module Row = Nsql_row.Row

(* Everything in the system — primary keys, index keys, generic locks,
   partition boundaries — relies on one property: byte-comparison of the
   encoded key equals lexicographic comparison of the typed key columns.
   Check it over random multi-column (int, string, float, bool) rows. *)
let multikey_schema =
  Row.schema
    [|
      Row.column "a" Row.T_int;
      Row.column "b" (Row.T_varchar 16);
      Row.column "c" Row.T_float;
      Row.column "d" Row.T_bool;
      Row.column "payload" (Row.T_varchar 8);
    |]
    ~key:[ "a"; "b"; "c"; "d" ]

let multikey_row_gen =
  QCheck.Gen.(
    (* small domains make every field's tie-then-differ case likely;
       floats come from a grid (no NaN — NaN has no order to preserve) *)
    let int_part = int_range (-6) 6 in
    let str_part =
      string_size ~gen:(oneofl [ 'a'; 'b'; '\x00'; '\xff' ]) (int_bound 4)
    in
    let float_part = map (fun i -> float_of_int i /. 4.) (int_range (-9) 9) in
    map
      (fun (a, b, c, d) ->
        [| Row.Vint a; Row.Vstr b; Row.Vfloat c; Row.Vbool d; Row.Vstr "p" |])
      (quad int_part str_part float_part bool))

let sign i = compare i 0

let lex_compare ra rb =
  let rec go = function
    | [] -> 0
    | c :: rest ->
        let d = Row.compare_value ra.(c) rb.(c) in
        if d <> 0 then d else go rest
  in
  go [ 0; 1; 2; 3 ]

let keycode_order_preserving =
  QCheck.Test.make
    ~name:"keycode: multi-column encoding preserves row order" ~count:1000
    QCheck.(pair (QCheck.make multikey_row_gen) (QCheck.make multikey_row_gen))
    (fun (ra, rb) ->
      let ka = Row.key_of_row multikey_schema ra
      and kb = Row.key_of_row multikey_schema rb in
      let want = sign (lex_compare ra rb)
      and got = sign (String.compare ka kb) in
      if want <> got then
        QCheck.Test.fail_reportf
          "rows compare %d but encoded keys compare %d:@.%a@.%a@.%S@.%S" want
          got Row.pp_row ra Row.pp_row rb ka kb;
      true)

let suite =
  [
    QCheck_alcotest.to_alcotest cache_matches_model;
    QCheck_alcotest.to_alcotest btree_string_keys;
    QCheck_alcotest.to_alcotest keycode_order_preserving;
  ]
