(** Deterministic fixed-bucket latency histogram.

    Log-spaced buckets with ratio 2^(1/8): bucket 0 holds values at or
    below 1 us, bucket [i] covers [(edge (i-1), edge i]], and 256
    buckets reach past an hour of microseconds (overflow clamps into the
    last bucket). Only int bucket counts and exact min/max are stored —
    no float sum — so {!merge} is associative and order-independent to
    the bit. *)

type t

val bucket_of : float -> int
(** Bucket index a value falls in; pure function of the value. *)

val create : unit -> t
val record : t -> float -> unit
val count : t -> int
val is_empty : t -> bool

val min_value : t -> float
(** Exact smallest recorded value; [0.] when empty. *)

val max_value : t -> float
(** Exact largest recorded value; [0.] when empty. *)

val merge : t -> t -> t
(** Bucket-wise sum with min/max joins. Associative and commutative
    exactly: [merge a (merge b c)] and [merge (merge c a) b] agree on
    every bucket count, min, max, and therefore every quantile. *)

val quantile : t -> float -> float
(** [quantile t q] is the upper edge of the bucket holding the rank-
    ⌈q·n⌉ sample, clamped to the observed max: an upper bound on the
    true order statistic that always lies in the same bucket as it. The
    final bucket is unbounded above, so there the observed max stands in
    for the edge. [0.] when empty. *)

val nonzero : t -> (int * int) list
(** [(bucket index, count)] for every non-empty bucket, ascending. *)
