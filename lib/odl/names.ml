(** Identifier conventions shared by the ODL parser and the modification
    language: identifiers start with a letter or underscore and continue with
    letters, digits, underscores. *)

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')

let is_valid s =
  s <> ""
  && is_ident_start s.[0]
  && String.for_all is_ident_char s

(** Keywords of the extended ODL concrete syntax; they cannot be used as
    identifiers. *)
let odl_keywords =
  [
    "schema"; "interface"; "extent"; "key"; "keys"; "attribute";
    "relationship"; "part_of"; "instance_of"; "inverse"; "order_by";
    "raises"; "set"; "list"; "bag"; "array"; "int"; "float"; "string";
    "char"; "boolean"; "void";
  ]

(* A string match compiles to a decision tree over the string's words:
   constant time, where a scan of [odl_keywords] costs 22 comparisons. *)
let is_keyword = function
  | "schema" | "interface" | "extent" | "key" | "keys" | "attribute"
  | "relationship" | "part_of" | "instance_of" | "inverse" | "order_by"
  | "raises" | "set" | "list" | "bag" | "array" | "int" | "float" | "string"
  | "char" | "boolean" | "void" ->
      true
  | _ -> false

(** Whether [s] must be printed as a quoted identifier to survive a
    print/parse round trip: not a plain identifier (empty, or containing
    spaces, newlines, punctuation, ...), or a keyword (a bare [set] would
    re-lex as the collection keyword, not a name). *)
let needs_quoting s = not (is_valid s) || is_keyword s

let escape_quoted s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let quoted s = "\"" ^ escape_quoted s ^ "\""

(** [s] in concrete syntax: itself when a plain identifier, quoted (and
    escaped) otherwise. *)
let to_source s = if needs_quoting s then quoted s else s
