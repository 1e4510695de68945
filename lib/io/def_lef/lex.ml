exception Parse of string

let fail fmt = Format.kasprintf (fun s -> raise (Parse s)) fmt

type tok = { line : int; word : string }

(* The cursor scans [text] in place.  It always holds the next token
   (the lookahead) as a span [tok_start, tok_start + tok_len) on line
   [tok_line]; [tok_start < 0] at end of input.  [pos] and [line] are the
   scan position just past the lookahead, and the line it is on. *)
type cursor = {
  text : string;
  mutable pos : int;
  mutable line : int;
  mutable tok_start : int;
  mutable tok_len : int;
  mutable tok_line : int;
  mutable exts : (int * string list) list;  (** newest first *)
}

(* Words are split at spaces, tabs and carriage returns, and `(`, `)` and
   `;` are words of their own even when glued to a neighbour, so
   `(24 32)` reads like `( 24 32 )`.  In code (not in a comment) `#` ends
   the word and starts a comment that runs to the end of the line. *)
let is_blank c = c = ' ' || c = '\t' || c = '\r'

let is_delim c = c = '(' || c = ')' || c = ';'

(* End (exclusive) of the word that starts at [i], which is not blank. *)
let word_end text i stop ~code =
  if is_delim (String.unsafe_get text i) then i + 1
  else begin
    let j = ref (i + 1) in
    while
      !j < stop
      &&
      let c = String.unsafe_get text !j in
      not (is_blank c || is_delim c || c = '\n' || (code && c = '#'))
    do
      incr j
    done;
    !j
  end

let rec skip_blanks text i stop =
  if i < stop && is_blank (String.unsafe_get text i) then
    skip_blanks text (i + 1) stop
  else i

let rec words_of text i stop =
  let i = skip_blanks text i stop in
  if i >= stop then []
  else
    let e = word_end text i stop ~code:false in
    String.sub text i (e - i) :: words_of text e stop

let is_ext text i e = e - i >= 7 && String.sub text i 7 = "tdflow."

(* The comment after the `#` at [hash - 1] runs to the end of its line;
   keep its words when the first one starts with "tdflow.".  Returns the
   end of the line. *)
let comment cur hash =
  let text = cur.text in
  let stop =
    match String.index_from_opt text hash '\n' with
    | Some e -> e
    | None -> String.length text
  in
  let i = skip_blanks text hash stop in
  if i < stop && is_ext text i (word_end text i stop ~code:false) then
    cur.exts <- (cur.line, words_of text i stop) :: cur.exts;
  stop

(* Load the next token into the lookahead. *)
let advance cur =
  let text = cur.text in
  let n = String.length text in
  let rec skip i =
    if i >= n then i
    else
      match String.unsafe_get text i with
      | ' ' | '\t' | '\r' -> skip (i + 1)
      | '\n' ->
        cur.line <- cur.line + 1;
        skip (i + 1)
      | '#' -> skip (comment cur (i + 1))
      | _ -> i
  in
  let i = skip cur.pos in
  if i >= n then begin
    cur.pos <- n;
    cur.tok_start <- -1
  end
  else begin
    let e = word_end text i n ~code:true in
    cur.tok_start <- i;
    cur.tok_len <- e - i;
    cur.tok_line <- cur.line;
    cur.pos <- e
  end

let cursor text =
  let cur =
    {
      text;
      pos = 0;
      line = 1;
      tok_start = -1;
      tok_len = 0;
      tok_line = 0;
      exts = [];
    }
  in
  advance cur;
  cur

(* The lookahead as a string; the one-character punctuation tokens are
   shared constants. *)
let word cur =
  if cur.tok_len = 1 then
    match String.unsafe_get cur.text cur.tok_start with
    | '(' -> "("
    | ')' -> ")"
    | ';' -> ";"
    | '-' -> "-"
    | '+' -> "+"
    | _ -> String.sub cur.text cur.tok_start 1
  else String.sub cur.text cur.tok_start cur.tok_len

let is cur w =
  String.length w = cur.tok_len
  &&
  let rec same k =
    k = cur.tok_len
    || String.unsafe_get cur.text (cur.tok_start + k) = String.unsafe_get w k
       && same (k + 1)
  in
  same 0

let peek cur =
  if cur.tok_start < 0 then None
  else Some { line = cur.tok_line; word = word cur }

let next cur what =
  if cur.tok_start < 0 then fail "unexpected end of file (in %s)" what;
  let t = { line = cur.tok_line; word = word cur } in
  advance cur;
  t

let expect cur w =
  if cur.tok_start < 0 then fail "unexpected end of file (in %S)" w;
  if not (is cur w) then
    fail "line %d: expected %S, got %S" cur.tok_line w (word cur);
  advance cur

let rec skip_statement cur =
  if cur.tok_start < 0 then fail "unexpected end of file (in statement)";
  let semi = is cur ";" in
  advance cur;
  if not semi then skip_statement cur

let rec drain cur =
  if cur.tok_start >= 0 then begin
    advance cur;
    drain cur
  end

let extensions cur = List.rev cur.exts

let int_of ~line s =
  match int_of_string_opt s with
  | Some v -> v
  | None -> fail "line %d: expected integer, got %S" line s

let float_of ~line s =
  match float_of_string_opt s with
  | Some v -> v
  | None -> fail "line %d: expected number, got %S" line s

(* Decimal digits straight into the buffer, as [string_of_int] spells
   them ([min_int] has no positive counterpart to negate). *)
let rec add_nat buf n =
  if n >= 10 then add_nat buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

let add_int buf n =
  if n >= 0 then add_nat buf n
  else if n = min_int then Buffer.add_string buf (string_of_int n)
  else begin
    Buffer.add_char buf '-';
    add_nat buf (-n)
  end

let write_file path text =
  let oc = open_out path in
  (try output_string oc text
   with e ->
     close_out oc;
     raise e);
  close_out oc

let read_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s
