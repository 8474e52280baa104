(** Hand-written SQL lexer. Keywords are case-insensitive; identifiers are
    normalised to lowercase; strings use single quotes with [''] escapes. *)

type token =
  | T_ident of string
  | T_keyword of string  (** uppercased *)
  | T_int of int
  | T_float of float
  | T_string of string
  | T_symbol of string  (** punctuation and operators *)
  | T_param  (** [?], a parameter marker *)
  | T_eof

val pp_token : Format.formatter -> token -> unit

(** [tokenize src] produces the token list. *)
val tokenize : string -> (token list, Nsql_util.Errors.t) result
