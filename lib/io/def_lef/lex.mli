(** Shared streaming scanner and parse-cursor for the DEF/LEF-lite
    readers, plus the text helpers both writers use.

    DEF and LEF are token-oriented, not line-oriented: statements end at
    [;], coordinates are wrapped in [( ... )], and both may spill across
    lines.  The cursor walks the input string in place with one token of
    lookahead: words are separated by spaces, tabs, carriage returns and
    newlines, and [(], [)] and [;] are self-delimiting tokens even when
    glued to a neighbour.  It keeps a running line count for the
    ["line %d: ..."] diagnostics the rest of [lib/io] uses, and as it
    passes a [#] comment whose first word starts with ["tdflow."] it keeps
    the comment's words: the extension comments that carry the data plain
    DEF/LEF cannot express (per-die widths, global-placement seeds, die
    pairing).  Ordinary [#] comments are dropped, so a real tool's DEF
    passes through untouched. *)

exception Parse of string
(** Internal to {!Lef.read} / {!Def.read}; both catch it and return
    [Error] with the carried diagnostic. *)

val fail : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Parse} with a formatted diagnostic. *)

type tok = { line : int; word : string }

(** A read position in the input, holding the next token. *)
type cursor

val cursor : string -> cursor
(** A cursor at the first token of the text. *)

val peek : cursor -> tok option
(** The next token without consuming it; [None] at end of input. *)

val next : cursor -> string -> tok
(** Consume one token; fails with ["unexpected end of file (in <what>)"]
    when exhausted. *)

val expect : cursor -> string -> unit
(** Consume one token and require it to equal the given word. *)

val skip_statement : cursor -> unit
(** Consume tokens up to and including the next [;] (for statements the
    subset recognizes but does not interpret). *)

val drain : cursor -> unit
(** Consume every remaining token, so that {!extensions} holds every
    extension comment of the input. *)

val extensions : cursor -> (int * string list) list
(** One [(line, words)] entry per extension comment passed so far, in
    input order (the ["#"] itself stripped, words split like tokens).
    Every one of them once the cursor has reached the end of input. *)

val int_of : line:int -> string -> int
val float_of : line:int -> string -> float

val add_int : Buffer.t -> int -> unit
(** Append an integer spelled as [string_of_int] spells it. *)

val read_file : string -> string

val write_file : string -> string -> unit
