(** Row-batch helpers for the push-based executor.

    Operators exchange row arrays — each one FS-DP reply buffer's worth of
    rows (the VSBB reply is the natural batch unit) — and loop tightly
    inside an operator instead of paying a closure call and a list cons
    per record at every operator boundary. *)

(** {1 Growable output buffer}

    For operators whose output cardinality is unknown up front (joins,
    filters over concatenations). Amortized O(1) push, geometric growth. *)

type buf

val buf : int -> buf

val push : buf -> Row.row -> unit

(** [contents b] is the pushed rows, in push order. *)
val contents : buf -> Row.row array

(** {1 Batch transforms} *)

(** [filter p batch] keeps rows satisfying [p] in order; returns the
    input array itself when every row passes. *)
val filter : (Row.row -> bool) -> Row.row array -> Row.row array

val map : (Row.row -> Row.row) -> Row.row array -> Row.row array

(** [concat batches] flattens a batch list (in order) into one array. *)
val concat : Row.row array list -> Row.row array

val total_rows : Row.row array list -> int

val to_list : Row.row array -> Row.row list

val list_of_batches : Row.row array list -> Row.row list

val of_list : Row.row list -> Row.row array
