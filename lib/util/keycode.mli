(** Order-preserving key encoding.

    The Disk Process stores records in key-sequenced (B-tree) files whose
    comparison is plain byte-string comparison. This module encodes typed
    column values into byte strings such that

    {[ compare (encode a) (encode b) = compare a b ]}

    for values of the same type, and such that multi-column keys concatenate
    without ambiguity. This is how primary keys, secondary-index keys, and
    generic (key-prefix) locks are all represented. *)

(** [of_int i] encodes a signed 63-bit integer, order preserved. 8 bytes. *)
val of_int : int -> string

(** [of_float f] encodes an IEEE double, order preserved (total order with
    -0.0 = 0.0 treated as distinct bit patterns adjusted to compare equal;
    NaN sorts above every number). 8 bytes. *)
val of_float : float -> string

(** [of_string s] encodes a string with 0x00-escaping and a terminator so
    that concatenated multi-field keys preserve order ("ab" < "b" even when
    followed by further fields). *)
val of_string : string -> string

(** [of_bool b] encodes false < true. 1 byte. *)
val of_bool : bool -> string

(** Decoding counterparts; each consumes from a {!Codec.reader}. *)

val read_int : Codec.reader -> int
val read_float : Codec.reader -> float
val read_string : Codec.reader -> string

(** [successor k] is the smallest byte string strictly greater than [k]
    (i.e. [k ^ "\x00"]); used to turn inclusive bounds into exclusive ones
    and to build key ranges from prefixes. *)
val successor : string -> string

(** [prefix_upper_bound p] is the smallest string greater than every string
    having prefix [p], or [None] if [p] is all 0xFF bytes. Used for generic
    (key-prefix) locking and LIKE 'p%' ranges. *)
val prefix_upper_bound : string -> string option

(** Minimal and maximal key sentinels used in FS-DP key ranges. *)

val low_value : string
val high_value : string

(** [compare_keys a b] compares encoded keys, treating {!high_value} as
    greater than everything. *)
val compare_keys : string -> string -> int
