(** Binary encoding/decoding helpers.

    Records on disk blocks, FS-DP message payloads, and audit records are all
    serialized with these primitives. The format is little-endian fixed-width
    integers plus LEB128-style varints for lengths. *)

(** {1 Writer} *)

type writer

val writer : unit -> writer

(** [writer_sized n] pre-allocates an [n]-byte buffer. *)
val writer_sized : int -> writer

val w_u8 : writer -> int -> unit
val w_u16 : writer -> int -> unit
val w_u32 : writer -> int -> unit
val w_i64 : writer -> int64 -> unit

(** [w_int w i] writes an OCaml [int] as a 64-bit value. *)
val w_int : writer -> int -> unit

(** [w_varint w n] writes a non-negative integer in LEB128 (1-10 bytes). *)
val w_varint : writer -> int -> unit

(** [varint_size n] is the number of bytes [w_varint] writes for [n]. *)
val varint_size : int -> int

val w_float : writer -> float -> unit
val w_bool : writer -> bool -> unit

(** [w_bytes w s] writes a varint length prefix followed by the bytes. *)
val w_bytes : writer -> string -> unit

(** [w_raw w s] writes the bytes with no length prefix. *)
val w_raw : writer -> string -> unit

val written : writer -> int
val contents : writer -> string

(** [contents_padded w n] is [contents w] followed by zero bytes up to
    [n] bytes in all, built in one allocation. *)
val contents_padded : writer -> int -> string

(** {1 Reader} *)

type reader

(** [reader s] reads from [s] starting at offset 0. *)
val reader : ?pos:int -> string -> reader

val r_u8 : reader -> int
val r_u16 : reader -> int
val r_u32 : reader -> int
val r_i64 : reader -> int64
val r_int : reader -> int
val r_varint : reader -> int
val r_float : reader -> float
val r_bool : reader -> bool
val r_bytes : reader -> string
val r_raw : reader -> int -> string

(** [pos r] is the current read offset. *)
val pos : reader -> int

(** [unread r n] moves the read offset back by [n] bytes. *)
val unread : reader -> int -> unit

(** [at_end r] holds when every byte has been read. *)
val at_end : reader -> bool

exception Truncated
(** Raised by reads past the end of the input. *)
