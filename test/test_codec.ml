(* The text codec against its verbatim oracle [Ref_text] (the list
   tokenizer and [Format] writers it replaced).

   - Writers: random designs (weighted cells, macros, multi-pin nets,
     negative coordinates, extreme integers) and placements must encode to
     the same bytes.
   - Readers: the canonical texts, and the same texts mutated line by line
     (comments, tabs, blank lines, '\r', integer spellings such as [+5],
     [0x1F] and [1_000], extra or missing fields, unknown keywords,
     out-of-range cells), must decode to the same [Ok] value or the same
     [Error] string.  [Delta.read] is held to the same contract.
   - The line scanner itself must split arbitrary text exactly as the old
     tokenizer did. *)

module Text = Tdf_io.Text
module Delta = Tdf_io.Delta
module Prng = Tdf_util.Prng
module Rect = Tdf_geometry.Rect
module Die = Tdf_netlist.Die
module Cell = Tdf_netlist.Cell
module Net = Tdf_netlist.Net
module Blockage = Tdf_netlist.Blockage
module Design = Tdf_netlist.Design
module Placement = Tdf_netlist.Placement

let coord rng = Prng.int_in rng (-500) 2000

let name rng prefix i =
  match Prng.int rng 4 with
  | 0 -> Printf.sprintf "%s%d" prefix i
  | 1 -> Printf.sprintf "%s_%d/u%d@x%%d" prefix i (Prng.int rng 9)
  | 2 -> Printf.sprintf "%s[%d]" prefix i
  | _ -> Printf.sprintf "%d%s" i prefix

let random_design rng =
  let nd = Prng.int_in rng 1 3 in
  let dies =
    Array.init nd (fun index ->
        Die.make ~index
          ~outline:
            (Rect.make ~x:(Prng.int_in rng (-100) 100)
               ~y:(Prng.int_in rng (-100) 100)
               ~w:(Prng.int_in rng 50 400) ~h:(Prng.int_in rng 20 200))
          ~row_height:(Prng.int_in rng 5 20)
          ~site_width:(Prng.int_in rng 1 3)
          ~max_util:(if Prng.bool rng then 1.0 else 0.05 +. Prng.float rng 0.95)
          ())
  in
  let n = Prng.int_in rng 0 40 in
  let cells =
    Array.init n (fun id ->
        let weight =
          match Prng.int rng 4 with
          | 0 -> 1. +. Prng.float rng 4.
          | 1 -> 2.0
          | _ -> 1.0
        in
        Cell.make ~id ~name:(name rng "c" id) ~weight
          ~widths:(Array.init nd (fun _ -> Prng.int_in rng 1 60))
          ~gp_x:(coord rng) ~gp_y:(coord rng)
          ~gp_z:(if Prng.int rng 5 = 0 then -0. else Prng.float rng (float_of_int nd))
          ())
  in
  let macros =
    Array.init (Prng.int rng 3) (fun id ->
        let die = Prng.int rng nd in
        let o = dies.(die).Die.outline in
        Blockage.make ~id ~name:(name rng "m" id) ~die
          ~rect:
            (Rect.make ~x:(o.Rect.x + Prng.int rng o.Rect.w)
               ~y:(o.Rect.y + Prng.int rng o.Rect.h)
               ~w:(Prng.int_in rng 1 40) ~h:(Prng.int_in rng 1 40))
          ())
  in
  let nets =
    if n = 0 then [||]
    else
      Array.init (Prng.int rng 12) (fun id ->
          (* up to 40 pins, so some lines run far past any margin *)
          let k = if Prng.int rng 4 = 0 then Prng.int_in rng 20 40 else Prng.int_in rng 1 4 in
          Net.make ~id ~name:(name rng "n" id) ~pins:(Array.init k (fun _ -> Prng.int rng n)) ())
  in
  Design.make ~name:(name rng "d" (Prng.int rng 100)) ~dies ~cells ~macros ~nets ()

let random_placement rng d =
  let n = Design.n_cells d in
  let extreme () =
    match Prng.int rng 12 with
    | 0 -> min_int
    | 1 -> max_int
    | 2 -> -1
    | 3 -> 0
    | _ -> coord rng
  in
  {
    Placement.x = Array.init n (fun _ -> extreme ());
    Placement.y = Array.init n (fun _ -> extreme ());
    Placement.die = Array.init n (fun _ -> Prng.int_in rng (-1) (Design.n_dies d));
  }

(* ---- text mutation ---------------------------------------------------- *)

let odd_ints = [| "+5"; "0x1F"; "1_000"; "-0"; "0b101"; "0o17"; "0u12"; "-0x10";
                  "99999999999999999999"; "1e3"; "x"; "_1"; "1."; "nan"; "" |]

let replace_word rng words =
  match words with
  | [] -> words
  | _ ->
    let k = Prng.int rng (List.length words) in
    List.mapi (fun i w -> if i = k then Prng.choose rng odd_ints else w) words

let join rng words =
  String.concat
    (match Prng.int rng 4 with 0 -> "\t" | 1 -> "  " | 2 -> " \t " | _ -> " ")
    words

let mutate_line rng line =
  let words = String.split_on_char ' ' line in
  match Prng.int rng 14 with
  | 0 -> line ^ " # trailing comment"
  | 1 -> "# " ^ line
  | 2 -> line ^ "\r"
  | 3 -> "\t " ^ join rng words ^ " \t"
  | 4 -> join rng (replace_word rng words)
  | 5 -> join rng (words @ [ string_of_int (Prng.int rng 9) ])
  | 6 -> join rng (List.filteri (fun i _ -> i < List.length words - 1) words)
  | 7 -> "frobnicate 1 2 3"
  | 8 -> line ^ "\n\n   \n"
  | 9 -> "place " ^ string_of_int (Prng.int_in rng (-2) 100_000) ^ " 1 2 0"
  | 10 -> line ^ "#" ^ line
  | 11 -> String.map (fun c -> if c = ' ' then '\t' else c) line
  | _ -> line

(* Mutate one to four lines of [text]. *)
let mutate rng text =
  let lines = Array.of_list (String.split_on_char '\n' text) in
  let nl = Array.length lines in
  for _ = 1 to Prng.int_in rng 1 4 do
    let i = Prng.int rng nl in
    lines.(i) <- mutate_line rng lines.(i)
  done;
  String.concat "\n" (Array.to_list lines)

let same a b = compare a b = 0

(* ---- properties ------------------------------------------------------- *)

let prop_design_codec =
  QCheck.Test.make ~name:"design codec = Format/tokenize oracle" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      let d = random_design rng in
      let text = Text.design_to_string d in
      let ok = ref (String.equal text (Ref_text.design_to_string d)) in
      let check t = if not (same (Text.read_design t) (Ref_text.read_design t)) then ok := false in
      check text;
      for _ = 1 to 8 do
        check (mutate rng text)
      done;
      !ok)

let prop_placement_codec =
  QCheck.Test.make ~name:"placement codec = Format/tokenize oracle" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      let d = random_design rng in
      let p = random_placement rng d in
      let text = Text.placement_to_string d p in
      let ok = ref (String.equal text (Ref_text.placement_to_string d p)) in
      let check t =
        if not (same (Text.read_placement d t) (Ref_text.read_placement d t)) then
          ok := false
      in
      check text;
      for _ = 1 to 8 do
        check (mutate rng text)
      done;
      !ok)

let random_delta rng =
  List.init (Prng.int_in rng 1 8) (fun i ->
      let widths () = Array.init (Prng.int_in rng 1 3) (fun _ -> Prng.int_in rng 1 50) in
      match Prng.int rng 5 with
      | 0 -> Delta.Move { cell = Prng.int rng 50; x = coord rng; y = coord rng; die = Prng.int rng 2 }
      | 1 -> Delta.Resize { cell = Prng.int rng 50; widths = widths () }
      | 2 ->
        Delta.Add
          { name = Printf.sprintf "eco%d" i; x = coord rng; y = coord rng;
            die = Prng.int rng 2; widths = widths () }
      | 3 -> Delta.Remove { cell = Prng.int rng 50 }
      | _ ->
        Delta.Add_macro
          { name = Printf.sprintf "blk%d" i; die = Prng.int rng 2; x = coord rng;
            y = coord rng; w = Prng.int_in rng 1 90; h = Prng.int_in rng 1 90 })

let prop_delta_codec =
  QCheck.Test.make ~name:"delta reader = tokenize oracle" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      let text = Delta.to_string (random_delta rng) in
      let ok = ref true in
      let check t = if not (same (Delta.read t) (Ref_text.Delta.read t)) then ok := false in
      check text;
      (* a zero width and a line of blanks only, besides the mutations *)
      check (text ^ "resize 1 0\n \t \n");
      for _ = 1 to 8 do
        check (mutate rng text)
      done;
      !ok)

(* Arbitrary strings over the characters the scanner cares about. *)
let prop_scanner =
  QCheck.Test.make ~name:"line scanner = tokenize oracle" ~count:500
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      let alphabet = [| ' '; '\t'; '\n'; '\r'; '#'; 'a'; '1'; '-'; '\x0b' |] in
      let text = String.init (Prng.int rng 60) (fun _ -> Prng.choose rng alphabet) in
      let got = ref [] in
      Text.iter_lines text (fun line words -> got := (line, words) :: !got);
      List.rev !got = Ref_text.tokenize text)

let test_edge_texts () =
  let d = Fixtures.random 7 in
  List.iter
    (fun text ->
      Alcotest.(check bool)
        (Printf.sprintf "design %S" text) true
        (same (Text.read_design text) (Ref_text.read_design text));
      Alcotest.(check bool)
        (Printf.sprintf "placement %S" text) true
        (same (Text.read_placement d text) (Ref_text.read_placement d text));
      Alcotest.(check bool)
        (Printf.sprintf "delta %S" text) true
        (same (Delta.read text) (Ref_text.Delta.read text)))
    [ ""; "\n"; "#"; "# only\n#\n"; "\r"; "\r\n"; " \t "; "place"; "place 0 1 2 0";
      "place 0 1 2 0\r\n"; "place +0 0x1F 1_000 0"; "place 0 1 2 0 # c\nplace 9 1 1 1";
      "move 1 2 3 0#x"; "remove\t4"; "design"; "design a b c"; "die 0 0 0 10 10 5 1 1.0" ]

let suite =
  [
    QCheck_alcotest.to_alcotest prop_design_codec;
    QCheck_alcotest.to_alcotest prop_placement_codec;
    QCheck_alcotest.to_alcotest prop_delta_codec;
    QCheck_alcotest.to_alcotest prop_scanner;
    Alcotest.test_case "edge texts" `Quick test_edge_texts;
  ]
