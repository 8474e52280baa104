(* Batch helpers for the push-based executor: operators hand each other
   row *arrays* (one FS-DP reply buffer's worth) and loop tightly inside,
   instead of paying a closure call and a list cons per record at every
   operator boundary. The helpers are deliberately allocation-conscious:
   [filter] counts then blits, [buf] grows geometrically. *)

let empty : Row.row array = [||]

(* growable output buffer for operators whose output cardinality is not
   known up front (joins, filters over concatenations) *)
type buf = { mutable data : Row.row array; mutable len : int }

let empty_row : Row.row = [||]

let buf capacity = { data = Array.make (max capacity 1) empty_row; len = 0 }

let push b (x : Row.row) =
  if b.len = Array.length b.data then begin
    let bigger = Array.make (2 * Array.length b.data) empty_row in
    Array.blit b.data 0 bigger 0 b.len;
    b.data <- bigger
  end;
  b.data.(b.len) <- x;
  b.len <- b.len + 1

let contents b = Array.sub b.data 0 b.len

(* [filter p batch] keeps the rows satisfying [p], preserving order, with
   one predicate evaluation per row; the common all-pass case returns the
   input array unchanged *)
let filter p (batch : Row.row array) =
  let n = Array.length batch in
  let rec first_fail i =
    if i >= n then n else if p batch.(i) then first_fail (i + 1) else i
  in
  let i0 = first_fail 0 in
  if i0 = n then batch
  else begin
    let out = Array.make (n - 1) empty_row in
    Array.blit batch 0 out 0 i0;
    let j = ref i0 in
    for i = i0 + 1 to n - 1 do
      if p batch.(i) then begin
        out.(!j) <- batch.(i);
        incr j
      end
    done;
    Array.sub out 0 !j
  end

let map = Array.map

(* [concat batches] flattens a batch list (in order) into one array *)
let concat (batches : Row.row array list) =
  match batches with
  | [] -> empty
  | [ b ] -> b
  | batches -> Array.concat batches

let total_rows batches =
  List.fold_left (fun n b -> n + Array.length b) 0 batches

let to_list (batch : Row.row array) = Array.to_list batch

let list_of_batches batches =
  List.concat_map Array.to_list batches

let of_list (rows : Row.row list) = Array.of_list rows
