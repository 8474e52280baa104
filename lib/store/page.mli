(** B-tree page layout.

    A page is the in-memory image of one disk block of a key-sequenced
    file. Leaves hold (encoded key, record image) pairs in key order and
    are chained for sequential scans; internal nodes hold separator keys
    and child block numbers.

    Pages are immutable. A decoded page may be shared by every reader of
    its block (see {!image}), so an array taken from one must never be
    written: edit a copy. *)

type t =
  | Leaf of { entries : (string * string) array; next : int }
      (** [next] is the block number of the right sibling, or -1 *)
  | Node of { child0 : int; entries : (string * int) array }
      (** keys in [entries] separate children: keys < entries.(0) go to
          [child0], keys in [[entries.(i), entries.(i+1))] to the child of
          entry [i] *)

val empty_leaf : t

(** [encode ~block_size p] serializes to exactly [block_size] bytes.
    Raises [Invalid_argument] if the page does not fit. *)
val encode : block_size:int -> t -> string

(** [decode block] rebuilds the whole page. Readers use {!image}; this
    is the reference the leaf view is tested against. *)
val decode : string -> t

(** [size p] is the serialized size in bytes (without block padding). *)
val size : t -> int

(** [leaf_entry_size key record] is the bytes one leaf entry occupies. *)
val leaf_entry_size : string -> string -> int

(** [find_leaf_pos entries key] is the index of the first entry whose key
    is [>= key] (binary search). *)
val find_leaf_pos : (string * string) array -> string -> int

(** [find_child node_entries child0 key] is the child block to descend to
    for [key]. *)
val find_child : (string * int) array -> int -> string -> int

(** {1 Leaf views}

    A read-only view of an encoded leaf: the block string and the offset
    of each entry in it. Keys are compared in place, in the order of
    [String.compare]; only an entry a caller asks for is copied out. *)

type view

val view_length : view -> int

(** [view_next v] is the right sibling's block number, or -1. *)
val view_next : view -> int

(** [view_pos v key] is [find_leaf_pos] over the view's entries. *)
val view_pos : view -> string -> int

(** [view_has_key v i key] — is there an entry [i] and is its key [key]? *)
val view_has_key : view -> int -> string -> bool

(** [view_block v] is the encoded block the view reads. *)
val view_block : view -> string

(** [view_compare_key v i key] compares entry [i]'s key with [key] in
    place, in the order of [String.compare]. *)
val view_compare_key : view -> int -> string -> int

(** [view_key v i] copies out entry [i]'s key only. *)
val view_key : view -> int -> string

(** [view_record_span v i] is [(pos, len)]: entry [i]'s record is the
    [len] bytes of {!view_block} from [pos], read in place. *)
val view_record_span : view -> int -> int * int

(** [view_entry v i] copies out entry [i]'s (key, record). *)
val view_entry : view -> int -> string * string

(** [view_record v i] copies out entry [i]'s record only. *)
val view_record : view -> int -> string

(** [view_entries v] copies out every entry: the leaf's [entries] as
    {!decode} gives them. *)
val view_entries : view -> (string * string) array

(** How a reader holds an encoded block between writes: a leaf as a
    {!view}, an internal node decoded. *)
type image =
  | View of view
  | Node_image of { child0 : int; entries : (string * int) array }

(** [image block] reads an encoded page. Raises [Invalid_argument] on a
    block that is not a page. *)
val image : string -> image

val pp : Format.formatter -> t -> unit
