module Sim = Nsql_sim.Sim
module Config = Nsql_sim.Config
module Cache = Nsql_cache.Cache
module Disk = Nsql_disk.Disk
module Errors = Nsql_util.Errors

type t = {
  sim : Sim.t;
  cache : Cache.t;
  name : string;
  mutable root : int;
  mutable nrecords : int;
  mutable height : int;
  block_size : int;
}

let alloc_block t = Disk.allocate (Cache.disk t.cache) 1

(* Each resident block is read once into its cache frame's memo: a leaf
   as a view over the block string, a node decoded. A write clears it. *)
type Cache.memo += Image of Page.image

let memo_image s = Image (Page.image s)

let read_image t block =
  match Cache.read_memo t.cache block memo_image with
  | Image i -> i
  | _ ->
      Errors.fatal
        (Printf.sprintf "Btree %s: block %d is memoised by another reader"
           t.name block)

let write_page t block page ~lsn =
  Cache.write t.cache block (Page.encode ~block_size:t.block_size page) ~lsn

let create sim cache ~name =
  let block_size = Config.block_size in
  let t =
    { sim; cache; name; root = 0; nrecords = 0; height = 1; block_size }
  in
  let root = Disk.allocate (Cache.disk cache) 1 in
  t.root <- root;
  write_page t root Page.empty_leaf ~lsn:0L;
  t

let record_count t = t.nrecords
let height t = t.height

(* --- descent ----------------------------------------------------------- *)

(* Returns the leaf's block and view and the path of internal nodes
   visited: [(block, child0, entries)] outermost first. *)
let rec descend t block path key =
  Sim.tick t.sim 10;
  match read_image t block with
  | Page.View v -> (block, v, List.rev path)
  | Page.Node_image { child0; entries } ->
      let child = Page.find_child entries child0 key in
      descend t child ((block, child0, entries) :: path) key

let find_leaf t key = descend t t.root [] key

let lookup t key =
  let _, v, _ = find_leaf t key in
  let pos = Page.view_pos v key in
  if Page.view_has_key v pos key then Some (Page.view_record v pos) else None

(* --- array edits -------------------------------------------------------- *)

let array_insert arr pos x =
  let n = Array.length arr in
  Array.init (n + 1) (fun i ->
      if i < pos then arr.(i) else if i = pos then x else arr.(i - 1))

let array_remove arr pos =
  let n = Array.length arr in
  Array.init (n - 1) (fun i -> if i < pos then arr.(i) else arr.(i + 1))

(* --- splits -------------------------------------------------------------- *)

(* Propagate (separator, new right child) insertion up the path; splits
   internal nodes as needed and grows a new root at the top. *)
let rec insert_into_parent t path sep right_block ~lsn =
  match path with
  | [] ->
      (* the root split: make a new root *)
      let new_root = alloc_block t in
      let page =
        Page.Node { child0 = t.root; entries = [| (sep, right_block) |] }
      in
      write_page t new_root page ~lsn;
      t.root <- new_root;
      t.height <- t.height + 1
  | (block, child0, entries) :: rest ->
      (* find insertion position: first separator > sep *)
      let pos =
        let lo = ref 0 and hi = ref (Array.length entries) in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if String.compare (fst entries.(mid)) sep <= 0 then lo := mid + 1
          else hi := mid
        done;
        !lo
      in
      let entries' = array_insert entries pos (sep, right_block) in
      let page = Page.Node { child0; entries = entries' } in
      if Page.size page <= t.block_size then write_page t block page ~lsn
      else begin
        (* split the node: the middle separator moves up *)
        let n = Array.length entries' in
        let mid = n / 2 in
        let promoted, right_child0 = entries'.(mid) in
        let left_entries = Array.sub entries' 0 mid in
        let right_entries = Array.sub entries' (mid + 1) (n - mid - 1) in
        let right = alloc_block t in
        write_page t block (Page.Node { child0; entries = left_entries }) ~lsn;
        write_page t right
          (Page.Node { child0 = right_child0; entries = right_entries })
          ~lsn;
        insert_into_parent t rest promoted right ~lsn
      end

let split_leaf t block (l : (string * string) array) next path ~lsn ~rightmost =
  let n = Array.length l in
  (* splitting an always-ascending (rightmost) insert half-and-half would
     leave every leaf half full; peeling off just the new entry keeps
     sequentially loaded files dense, as production B-trees do *)
  let mid = if rightmost then n - 1 else n / 2 in
  let left_entries = Array.sub l 0 mid in
  let right_entries = Array.sub l mid (n - mid) in
  let right = alloc_block t in
  let sep = fst right_entries.(0) in
  write_page t right (Page.Leaf { entries = right_entries; next }) ~lsn;
  write_page t block (Page.Leaf { entries = left_entries; next = right }) ~lsn;
  insert_into_parent t (List.rev path) sep right ~lsn

(* --- mutations ------------------------------------------------------------ *)

let max_record_size t = (t.block_size - 16) / 2 - 8

let record_fits t ~key ~record =
  Page.leaf_entry_size key record <= max_record_size t

let store_leaf t block entries next path ~lsn ?(rightmost = false) () =
  let page = Page.Leaf { entries; next } in
  if Page.size page <= t.block_size then write_page t block page ~lsn
  else split_leaf t block entries next path ~lsn ~rightmost

let insert t ~key ~record ~lsn =
  if not (record_fits t ~key ~record) then
    Errors.fail
      (Errors.Bad_request
         (Printf.sprintf "record of %d bytes exceeds maximum"
            (String.length record)))
  else begin
    let block, v, path = find_leaf t key in
    let pos = Page.view_pos v key in
    if Page.view_has_key v pos key then
      Errors.fail (Errors.Duplicate_key key)
    else begin
      Sim.tick t.sim 10;
      let entries = array_insert (Page.view_entries v) pos (key, record) in
      let next = Page.view_next v in
      (* rightmost = appending at the end of the last leaf *)
      let rightmost = next = -1 && pos = Page.view_length v in
      store_leaf t block entries next path ~lsn ~rightmost ();
      t.nrecords <- t.nrecords + 1;
      Ok ()
    end
  end

let update t ~key ~record ~lsn =
  let block, v, path = find_leaf t key in
  let pos = Page.view_pos v key in
  if not (Page.view_has_key v pos key) then
    Errors.fail (Errors.Not_found_key key)
  else begin
    Sim.tick t.sim 10;
    (* [view_entries] is a fresh copy, so it may be written *)
    let entries = Page.view_entries v in
    let old = snd entries.(pos) in
    entries.(pos) <- (key, record);
    store_leaf t block entries (Page.view_next v) path ~lsn ();
    Ok old
  end

let delete t ~key ~lsn =
  let block, v, _path = find_leaf t key in
  let pos = Page.view_pos v key in
  if not (Page.view_has_key v pos key) then
    Errors.fail (Errors.Not_found_key key)
  else begin
    Sim.tick t.sim 10;
    let old = Page.view_record v pos in
    let entries = array_remove (Page.view_entries v) pos in
    write_page t block (Page.Leaf { entries; next = Page.view_next v }) ~lsn;
    t.nrecords <- t.nrecords - 1;
    Ok old
  end

(* --- bulk load -------------------------------------------------------------- *)

let fill_target t = t.block_size * 9 / 10

let load_sorted t entries ~lsn =
  if t.nrecords > 0 then
    Errors.fail (Errors.Bad_request "load_sorted: tree not empty")
  else begin
    let sorted =
      let rec check = function
        | a :: (b :: _ as rest) ->
            String.compare (fst a) (fst b) < 0 && check rest
        | _ -> true
      in
      check entries
    in
    if not sorted then
      Errors.fail (Errors.Bad_request "load_sorted: keys not strictly ascending")
    else begin
      (* build the leaf level into contiguous blocks *)
      let leaves = ref [] in
      let current = ref [] in
      let current_size = ref 12 in
      let flush () =
        if !current <> [] then begin
          leaves := Array.of_list (List.rev !current) :: !leaves;
          current := [];
          current_size := 12
        end
      in
      List.iter
        (fun (k, r) ->
          let es = Page.leaf_entry_size k r in
          if !current_size + es > fill_target t && !current <> [] then flush ();
          current := (k, r) :: !current;
          current_size := !current_size + es)
        entries;
      flush ();
      let leaf_pages = Array.of_list (List.rev !leaves) in
      let nleaves = Array.length leaf_pages in
      if nleaves = 0 then Ok ()
      else begin
        let first_block = Disk.allocate (Cache.disk t.cache) nleaves in
        Array.iteri
          (fun i page_entries ->
            let next = if i = nleaves - 1 then -1 else first_block + i + 1 in
            write_page t (first_block + i)
              (Page.Leaf { entries = page_entries; next })
              ~lsn)
          leaf_pages;
        (* build internal levels bottom-up *)
        let rec build_level level_blocks level_keys height =
          (* level_keys.(i) is the minimum key under level_blocks.(i) *)
          if Array.length level_blocks = 1 then begin
            t.root <- level_blocks.(0);
            t.height <- height
          end
          else begin
            let groups = ref [] in
            let cur_children = ref [] in
            let cur_size = ref 12 in
            let flush_group () =
              if !cur_children <> [] then begin
                groups := Array.of_list (List.rev !cur_children) :: !groups;
                cur_children := [];
                cur_size := 12
              end
            in
            Array.iteri
              (fun i block ->
                let k = level_keys.(i) in
                let es = Page.leaf_entry_size k "" + 4 in
                if !cur_size + es > fill_target t && !cur_children <> [] then
                  flush_group ();
                cur_children := (k, block) :: !cur_children;
                cur_size := !cur_size + es)
              level_blocks;
            flush_group ();
            let groups = Array.of_list (List.rev !groups) in
            let ngroups = Array.length groups in
            let first = Disk.allocate (Cache.disk t.cache) ngroups in
            let parent_keys = Array.make ngroups "" in
            Array.iteri
              (fun i group ->
                parent_keys.(i) <- fst group.(0);
                let child0 = snd group.(0) in
                let seps =
                  Array.sub group 1 (Array.length group - 1)
                in
                write_page t (first + i)
                  (Page.Node { child0; entries = seps })
                  ~lsn)
              groups;
            build_level
              (Array.init ngroups (fun i -> first + i))
              parent_keys (height + 1)
          end
        in
        let leaf_keys =
          Array.map (fun page_entries -> fst page_entries.(0)) leaf_pages
        in
        (* the pre-allocated empty root leaf from [create] is abandoned *)
        build_level
          (Array.init nleaves (fun i -> first_block + i))
          leaf_keys 1;
        t.nrecords <- List.length entries;
        Ok ()
      end
    end
  end

(* --- cursors ------------------------------------------------------------- *)

type cursor = End | At of { block : int; idx : int }

(* normalize a position: skip past drained leaves *)
let rec normalize t block idx =
  match read_image t block with
  | Page.View v -> at_or_after t block v idx
  | Page.Node_image _ ->
      Errors.fatal
        (Printf.sprintf "Btree %s: cursor on internal node %d" t.name block)

and at_or_after t block v idx =
  if idx < Page.view_length v then At { block; idx }
  else
    let next = Page.view_next v in
    if next < 0 then End else normalize t next 0

let seek t key =
  let block, v, _ = find_leaf t key in
  at_or_after t block v (Page.view_pos v key)

let cursor_view t = function
  | End -> None
  | At { block; idx } -> (
      match read_image t block with
      | Page.View v when idx < Page.view_length v -> Some (v, idx)
      | Page.View _ | Page.Node_image _ -> None)

let cursor_entry t c =
  Option.map (fun (v, idx) -> Page.view_entry v idx) (cursor_view t c)

let advance t = function
  | End -> End
  | At { block; idx } -> normalize t block (idx + 1)

let cursor_block = function End -> None | At { block; _ } -> Some block

(* --- diagnostics ----------------------------------------------------------- *)

let leftmost_leaf t =
  let rec go block =
    match read_image t block with
    | Page.View _ -> block
    | Page.Node_image { child0; _ } -> go child0
  in
  go t.root

let leaf_blocks t =
  let rec walk block acc =
    if block < 0 then List.rev acc
    else
      match read_image t block with
      | Page.View v -> walk (Page.view_next v) (block :: acc)
      | Page.Node_image _ -> List.rev acc
  in
  walk (leftmost_leaf t) []

let check_invariants t =
  let fail fmt = Format.kasprintf (fun s -> Error s) fmt in
  (* 1. every leaf is sorted; chain keys ascend *)
  let rec check_chain block last_key count =
    if block < 0 then Ok count
    else
      match read_image t block with
      | Page.Node_image _ -> fail "leaf chain reaches internal node %d" block
      | Page.View v ->
          let n = Page.view_length v in
          let rec check_sorted i last =
            if i >= n then Ok last
            else begin
              let k, _ = Page.view_entry v i in
              match last with
              | Some lk when String.compare lk k >= 0 ->
                  fail "keys out of order in leaf %d" block
              | _ -> check_sorted (i + 1) (Some k)
            end
          in
          let ( let* ) r f = match r with Ok x -> f x | Error e -> Error e in
          let* last = check_sorted 0 last_key in
          check_chain (Page.view_next v) last (count + n)
  in
  match check_chain (leftmost_leaf t) None 0 with
  | Error e -> Error e
  | Ok count ->
      if count <> t.nrecords then
        fail "record count mismatch: chain has %d, counter says %d" count
          t.nrecords
      else begin
        (* 2. every key reachable via descent *)
        let ok = ref (Ok ()) in
        let rec walk block =
          if !ok = Ok () then
            match read_image t block with
            | Page.View v ->
                Array.iter
                  (fun (k, _) ->
                    if !ok = Ok () then begin
                      let _, found, _ = find_leaf t k in
                      if not (Page.view_has_key found (Page.view_pos found k) k)
                      then ok := fail "key %S not reachable by descent" k
                    end)
                  (Page.view_entries v)
            | Page.Node_image { child0; entries } ->
                walk child0;
                Array.iter (fun (_, c) -> walk c) entries
        in
        walk t.root;
        !ok
      end
