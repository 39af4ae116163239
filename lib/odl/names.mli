(** Identifier conventions shared by the ODL parser and the modification
    language. *)

val is_ident_start : char -> bool
val is_ident_char : char -> bool

val is_valid : string -> bool
(** Starts with a letter or underscore, continues with letters, digits,
    underscores. *)

val odl_keywords : string list
(** Keywords of the extended ODL concrete syntax. *)

val is_keyword : string -> bool
(** Membership in {!odl_keywords}, in constant time. *)

val needs_quoting : string -> bool
(** Whether the name must be quoted to survive a print/parse round trip. *)

val escape_quoted : string -> string
(** Escape the content of a quoted identifier (quote, backslash, newline,
    CR, tab). *)

val quoted : string -> string
(** The name as a double-quoted identifier, with escapes. *)

val to_source : string -> string
(** The name in concrete syntax: itself when a plain identifier, {!quoted}
    otherwise.  Parses back to the same string through the lexer. *)
