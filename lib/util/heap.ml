type 'a entry = { prio : float; seq : int; value : 'a }

type 'a t = {
  mutable data : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { data = [||]; size = 0; next_seq = 0 }

let less a b = if a.prio = b.prio then a.seq < b.seq else a.prio < b.prio

let swap h i j =
  let tmp = h.data.(i) in
  h.data.(i) <- h.data.(j);
  h.data.(j) <- tmp

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if less h.data.(i) h.data.(parent) then begin
      swap h i parent;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < h.size && less h.data.(l) h.data.(!smallest) then smallest := l;
  if r < h.size && less h.data.(r) h.data.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap h i !smallest;
    sift_down h !smallest
  end

let push h ~prio value =
  let entry = { prio; seq = h.next_seq; value } in
  h.next_seq <- h.next_seq + 1;
  if h.size = Array.length h.data then begin
    let cap = max 16 (2 * Array.length h.data) in
    let data = Array.make cap entry in
    Array.blit h.data 0 data 0 h.size;
    h.data <- data
  end;
  h.data.(h.size) <- entry;
  h.size <- h.size + 1;
  sift_up h (h.size - 1)

let min_prio h = if h.size = 0 then None else Some h.data.(0).prio

let none_due_by h x = h.size = 0 || h.data.(0).prio > x

let pop_min h =
  if h.size = 0 then None
  else begin
    let top = h.data.(0) in
    h.size <- h.size - 1;
    if h.size > 0 then begin
      h.data.(0) <- h.data.(h.size);
      sift_down h 0
    end;
    Some (top.prio, top.value)
  end
