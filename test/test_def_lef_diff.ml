(* The DEF/LEF-lite codec against its verbatim oracle [Ref_def_lef] (the
   line-splitting tokenizer, [Format] writers and generic-table
   converters it replaced).

   - Writers: random [Def.t]/[Lef.t] values (every component status,
     pins with every option, external and component net pins, blockages,
     weighted and plain gp seeds, extreme integers) and the canonical
     export of random designs must encode to the same bytes, and
     [of_design] must return equal values.
   - Readers: those texts, and the same texts fuzzed (truncation, comment
     and extension-comment injection, whitespace mangling, glued
     parentheses, [#] mid-word, line noise, integer spellings such as
     [+5], [0x1F] and [1_000]), must decode to the same [Ok] value or the
     same [Error] string.
   - Converters: [to_design] on every import that reads, clean or with a
     value-level fault, must give equal designs and placements or equal
     errors.
   - The scanner itself must yield the old tokenizer's tokens and
     extension comments on arbitrary text. *)

module Lef = Tdf_def_lef.Lef
module Def = Tdf_def_lef.Def
module Lex = Tdf_def_lef.Lex
module R = Ref_def_lef
module Prng = Tdf_util.Prng
module Rect = Tdf_geometry.Rect
module Design = Tdf_netlist.Design

let same a b = compare a b = 0

(* Exceptions as values, so both sides can be compared where they raise. *)
let catch f = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)

(* ---- random values ---------------------------------------------------- *)

let name rng prefix i =
  match Prng.int rng 5 with
  | 0 -> Printf.sprintf "%s%d" prefix i
  | 1 -> Printf.sprintf "%s_%d/u%d@x%%d" prefix i (Prng.int rng 9)
  | 2 -> Printf.sprintf "%s[%d]" prefix i
  | 3 -> Printf.sprintf "%s.%d" prefix i
  | _ -> Printf.sprintf "%d%s" i prefix

let coord rng =
  match Prng.int rng 12 with
  | 0 -> min_int
  | 1 -> max_int
  | 2 -> -1
  | 3 -> 0
  | _ -> Prng.int_in rng (-500) 5000

let status rng =
  match Prng.int rng 3 with 0 -> Def.Placed | 1 -> Def.Fixed | _ -> Def.Unplaced

let word rng = Prng.choose rng [| "N"; "FS"; "INPUT"; "SIGNAL"; "CLOCK"; "x1" |]

let opt rng f = if Prng.bool rng then Some (f ()) else None

let odd_float rng =
  match Prng.int rng 8 with
  | 0 -> -0.
  | 1 -> 1.0
  | 2 -> 1e-7
  | 3 -> 12345.678912345
  | 4 -> Float.nan
  | 5 -> Float.infinity
  | _ -> Prng.float rng 3.

let random_def rng : Def.t =
  let comps =
    List.init (Prng.int rng 12) (fun i ->
        {
          Def.c_name = name rng "u" i;
          c_macro = name rng "M" (Prng.int rng 4);
          c_status = status rng;
          c_x = coord rng;
          c_y = coord rng;
          c_orient = word rng;
        })
  in
  let pins =
    List.init (Prng.int rng 4) (fun i ->
        let s = status rng in
        {
          Def.p_name = name rng "p" i;
          p_net = (if Prng.bool rng then name rng "n" i else "");
          p_dir = (if Prng.bool rng then word rng else "");
          p_use = (if Prng.bool rng then word rng else "");
          p_status = s;
          p_x = coord rng;
          p_y = coord rng;
          p_orient = word rng;
        })
  in
  let nets =
    List.init (Prng.int rng 6) (fun i ->
        {
          Def.n_name = name rng "n" i;
          n_pins =
            List.init (Prng.int rng 30) (fun k ->
                if Prng.int rng 5 = 0 then Def.External (name rng "p" k)
                else Def.Comp (name rng "u" (Prng.int rng 12), Printf.sprintf "P%d" k));
        })
  in
  let rect () =
    Rect.make ~x:(Prng.int_in rng (-100) 100) ~y:(Prng.int_in rng (-100) 100)
      ~w:(Prng.int_in rng 0 400) ~h:(Prng.int_in rng 0 400)
  in
  {
    Def.design = name rng "d" 0;
    units = Prng.choose rng [| 1000; 2000; 0; -1 |];
    diearea = rect ();
    rows =
      List.init (Prng.int rng 4) (fun r ->
          {
            Def.r_name = name rng "row" r;
            r_site = name rng "s" (Prng.int rng 2);
            r_x = coord rng;
            r_y = coord rng;
            r_orient = word rng;
            r_count = Prng.int_in rng 0 90;
            r_step = Prng.int_in rng (-1) 3;
          });
    components = comps;
    pins;
    nets;
    blockages = List.init (Prng.int rng 3) (fun _ -> rect ());
    die = opt rng (fun () -> Prng.int_in rng (-1) 3);
    n_dies = opt rng (fun () -> Prng.int_in rng 0 3);
    max_util = opt rng (fun () -> odd_float rng);
    gp =
      List.init (Prng.int rng 8) (fun i ->
          ( name rng "u" i,
            (coord rng, coord rng, odd_float rng,
             if Prng.bool rng then 1.0 else odd_float rng) ));
  }

let random_lef rng : Lef.t =
  {
    Lef.sites =
      List.init (Prng.int rng 3) (fun i ->
          {
            Lef.s_name = name rng "s" i;
            s_class = Prng.choose rng [| "CORE"; "PAD" |];
            s_w = Prng.int_in rng (-1) 4;
            s_h = Prng.int_in rng 0 12;
          });
    macros =
      List.init (Prng.int rng 6) (fun i ->
          {
            Lef.m_name = name rng "M" i;
            m_class = Prng.choose rng [| "CORE"; "BLOCK" |];
            m_w = Prng.int_in rng 0 9;
            m_h = Prng.int_in rng 0 12;
            m_widths =
              opt rng (fun () ->
                  Array.init (Prng.int_in rng 0 3) (fun _ -> Prng.int_in rng (-1) 9));
          });
  }

(* ---- text mutation ---------------------------------------------------- *)

let odd_ints = [| "+5"; "0x1F"; "1_000"; "-0"; "0b101"; "0o17"; "0u12"; "-0x10";
                  "99999999999999999999"; "1e3"; "x"; "_1"; "1."; "nan"; "inf" |]

let comments =
  [| "# a comment with ( tokens ; and ) keywords MACRO END";
     "   # indented comment DESIGN 4 BY 2";
     "#tdflowish but not an extension: tdflow_x 1";
     "# tdflow.gp u0 1 2 0.5";
     "# tdflow.gp u1 +5 0x1F 1_000 2";
     "#tdflow.gp(u2 1 2 3)";
     "# tdflow.gp ghost 1 2 0.5";
     "# tdflow.gp u0 1 2";
     "# tdflow.widths M0 3 4";
     "# tdflow.widths M1 0x1F +5 1_000";
     "# tdflow.widths M2";
     "# tdflow.widths ghost 1 2";
     "# tdflow.widths M0 0 -1";
     "# tdflow.die 0 of 2";
     "# tdflow.die 1 of 2";
     "# tdflow.die x";
     "#\ttdflow.max_util 0.5";
     "# tdflow.max_util";
     "# tdflow.bogus 1";
     "# tdflow. 1";
     "";
  |]

let lines_of text = Array.of_list (String.split_on_char '\n' text)

let unlines lines = String.concat "\n" (Array.to_list lines)

let map_words rng line =
  let ws = String.split_on_char ' ' line in
  match ws with
  | [] -> line
  | _ ->
    let k = Prng.int rng (List.length ws) in
    String.concat " " (List.mapi (fun i w -> if i = k then Prng.choose rng odd_ints else w) ws)

(* Drop the spaces around parentheses and semicolons. *)
let glue line =
  let b = Buffer.create (String.length line) in
  let n = String.length line in
  String.iteri
    (fun i c ->
      let next_delim = i + 1 < n && String.contains "();" line.[i + 1] in
      let prev_delim = i > 0 && String.contains "();" line.[i - 1] in
      if not (c = ' ' && (next_delim || prev_delim)) then Buffer.add_char b c)
    line;
  Buffer.contents b

let mutate_line rng line =
  match Prng.int rng 16 with
  | 0 -> line ^ " # trailing comment"
  | 1 -> Prng.choose rng comments ^ "\n" ^ line
  | 2 -> line ^ "\r"
  | 3 -> String.map (fun c -> if c = ' ' then '\t' else c) line
  | 4 -> map_words rng line
  | 5 -> glue line
  | 6 -> ""
  | 7 -> line ^ " " ^ line
  | 8 -> "ZZZ " ^ line
  | 9 -> line ^ "#" ^ line
  | 10 -> (
    (* '#' mid-word *)
    match String.index_opt line ' ' with
    | Some i when i + 2 < String.length line ->
      String.sub line 0 (i + 2) ^ "#" ^ String.sub line (i + 2) (String.length line - i - 2)
    | _ -> line)
  | 11 -> line ^ "\n" ^ Prng.choose rng comments
  | 12 -> String.concat "  \t " (String.split_on_char ' ' line)
  | 13 -> line ^ "\x0b"
  | _ -> line

let mutate rng text =
  match Prng.int rng 8 with
  | 0 -> String.sub text 0 (Prng.int_in rng 0 (String.length text))
  | 1 -> text ^ "\n" ^ Prng.choose rng comments ^ "\n"
  | _ ->
    let lines = lines_of text in
    let n = Array.length lines in
    for _ = 1 to Prng.int_in rng 1 4 do
      let i = Prng.int rng n in
      lines.(i) <- mutate_line rng lines.(i)
    done;
    unlines lines

(* ---- comparisons ------------------------------------------------------ *)

let same_def text = same (Def.read text) (R.Def.read text)

let same_lef text = same (Lef.read text) (R.Lef.read text)

let same_import lef defs =
  same
    (catch (fun () -> Def.to_design ~lef defs))
    (catch (fun () -> R.Def.to_design ~lef defs))

(* Value-level faults for the converter: each one trips a different
   check of [to_design] (or none). *)
let fault rng (lef : Lef.t) (defs : Def.t list) =
  let defs = Array.of_list defs in
  let k = Prng.int rng (Array.length defs) in
  let d = defs.(k) in
  let comp_names = List.map (fun c -> c.Def.c_name) d.Def.components in
  let some_comp () =
    match comp_names with [] -> "ghost" | l -> List.nth l (Prng.int rng (List.length l))
  in
  let lef = ref lef in
  defs.(k) <-
    (match Prng.int rng 15 with
    | 0 -> { d with gp = ("ghost", (1, 2, 0., 1.)) :: ("ghost2", (1, 2, 0., 1.)) :: d.gp }
    | 1 ->
      let fixed =
        List.filter_map
          (fun c -> if c.Def.c_status = Def.Fixed then Some (c.Def.c_name, (0, 0, 0., 1.)) else None)
          d.components
      in
      { d with gp = fixed @ [ ("ghost", (1, 2, 0., 1.)) ] @ d.gp }
    | 2 -> { d with gp = d.gp @ d.gp }
    | 3 -> { d with components = d.components @ d.components }
    | 4 ->
      {
        d with
        nets = { Def.n_name = "nx"; n_pins = [ Def.Comp ("ghost", "P0"); Def.Comp (some_comp (), "P1") ] } :: d.nets;
      }
    | 5 ->
      (* merged nets: the same name again, in this file *)
      { d with nets = d.nets @ List.map (fun n -> { n with Def.n_pins = List.rev n.Def.n_pins }) d.nets }
    | 6 -> { d with die = None }
    | 14 ->
      (* a net left with no movable cell, which import drops *)
      let fixed =
        List.filter_map
          (fun c -> if c.Def.c_status = Def.Fixed then Some (Def.Comp (c.Def.c_name, "P0")) else None)
          d.components
      in
      { d with nets = { Def.n_name = "nfixed"; n_pins = Def.External "io" :: fixed } :: d.nets }
    | 7 -> { d with n_dies = Some 7 }
    | 8 -> { d with units = d.units + 1; design = d.design ^ "x" }
    | 9 -> { d with max_util = Some (Prng.choose rng [| 0.; 1.5; Float.nan; 0.25 |]) }
    | 10 ->
      { d with gp = List.map (fun (n, (x, y, z, _)) -> (n, (x, y, z, Prng.choose rng [| 0.; -1.; 2.5 |]))) d.gp }
    | 11 ->
      {
        d with
        components =
          List.map
            (fun c ->
              if Prng.int rng 3 = 0 then { c with Def.c_status = Def.Unplaced } else c)
            d.components;
        gp = List.filter (fun _ -> Prng.bool rng) d.gp;
      }
    | 12 ->
      lef :=
        {
          !lef with
          Lef.macros =
            List.map
              (fun m ->
                match Prng.int rng 4 with
                | 0 -> { m with Lef.m_widths = None; m_h = m.Lef.m_h + Prng.int rng 2 }
                | 1 -> { m with Lef.m_widths = Some [| 3 |] }
                | 2 -> { m with Lef.m_class = "BLOCK" }
                | _ -> m)
              !lef.Lef.macros;
        };
      d
    | _ -> { d with rows = List.map (fun r -> { r with Def.r_step = r.Def.r_step + Prng.int rng 2 }) d.rows });
  (!lef, Array.to_list defs)

(* ---- properties ------------------------------------------------------- *)

let prop_writers_and_readers =
  QCheck.Test.make ~name:"DEF/LEF values: writers and readers = oracle" ~count:400
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      let d = random_def rng and l = random_lef rng in
      let dtext = Def.to_string d and ltext = Lef.to_string l in
      let ok =
        ref (String.equal dtext (R.Def.to_string d) && String.equal ltext (R.Lef.to_string l))
      in
      let check_def t = if not (same_def t) then ok := false in
      let check_lef t = if not (same_lef t) then ok := false in
      check_def dtext;
      check_lef ltext;
      for _ = 1 to 6 do
        check_def (mutate rng dtext);
        check_lef (mutate rng ltext)
      done;
      !ok)

(* Export random designs through both [of_design]s and writers, read the
   texts back (clean and mutated) with both readers, and import whatever
   reads through both converters, clean and with a value-level fault. *)
let prop_export_import =
  QCheck.Test.make ~name:"DEF/LEF designs: of_design, text and to_design = oracle"
    ~count:250
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      let design =
        if Prng.int rng 3 = 0 then Fixtures.random ~with_macros:(Prng.bool rng) seed
        else Test_codec.random_design rng
      in
      let placement =
        if Prng.bool rng then None else Some (Test_codec.random_placement rng design)
      in
      let got = catch (fun () -> Def.of_design ?placement design) in
      let ok = ref (same got (catch (fun () -> R.Def.of_design ?placement design))) in
      (match got with
      | Error _ -> ()
      | Ok (lef, defs) ->
        let ltext = Lef.to_string lef and dtexts = List.map Def.to_string defs in
        if not (String.equal ltext (R.Lef.to_string lef)) then ok := false;
        if not (List.for_all2 (fun t d -> String.equal t (R.Def.to_string d)) dtexts defs)
        then ok := false;
        let import ltext dtexts =
          if not (same_lef ltext && List.for_all same_def dtexts) then ok := false;
          match (Lef.read ltext, List.map Def.read dtexts) with
          | Ok lef, reads when List.for_all Result.is_ok reads ->
            let defs = List.map Result.get_ok reads in
            if not (same_import lef defs) then ok := false;
            if defs <> [] then begin
              let lef', defs' = fault rng lef defs in
              if not (same_import lef' defs') then ok := false
            end
          | _ -> ()
        in
        import ltext dtexts;
        for _ = 1 to 3 do
          let dtexts' =
            List.map (fun t -> if Prng.int rng 3 = 0 then mutate rng t else t) dtexts
          in
          let ltext' = if Prng.int rng 3 = 0 then mutate rng ltext else ltext in
          import ltext' dtexts'
        done);
      !ok)

(* Arbitrary text over the characters the scanner cares about. *)
let prop_scanner =
  QCheck.Test.make ~name:"DEF/LEF scanner = line tokenizer oracle" ~count:500
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      let pieces =
        [| " "; "\t"; "\n"; "\r"; "#"; "("; ")"; ";"; "a"; "12"; "tdflow."; "tdflow.gp";
           "tdflow"; "x#y"; "\x0b"; "-"; "+"; "PIN" |]
      in
      let text = String.concat "" (List.init (Prng.int rng 40) (fun _ -> Prng.choose rng pieces)) in
      let toks, exts = R.Lex.lex text in
      let cur = Lex.cursor text in
      let rec drain acc =
        match Lex.peek cur with
        | None -> List.rev acc
        | Some t ->
          let t' = Lex.next cur "scan" in
          drain ((t'.Lex.line, t'.Lex.word) :: (t.Lex.line, t.Lex.word) :: acc)
      in
      let got = drain [] in
      let want =
        List.concat_map (fun t -> [ (t.R.Lex.line, t.R.Lex.word); (t.R.Lex.line, t.R.Lex.word) ]) toks
      in
      got = want && Lex.extensions cur = exts)

(* ---- targeted texts --------------------------------------------------- *)

let lef_ok =
  "VERSION 5.8 ;\nSITE s\n  CLASS CORE ;\n  SIZE 1 BY 8 ;\nEND s\nMACRO m\n  CLASS CORE ;\n\
   \  SIZE 3 BY 8 ;\n  # tdflow.widths m 3 4\nEND m\nMACRO k\n  CLASS BLOCK ;\n  SIZE 9 BY 16 ;\nEND k\n\
   END LIBRARY\n"

let def_ok =
  "VERSION 5.8 ;\n# tdflow.die 0 of 1\n# tdflow.max_util 0.900000\nDESIGN d ;\n\
   UNITS DISTANCE MICRONS 1000 ;\nDIEAREA ( 0 0 ) ( 40 32 ) ;\n\
   ROW r0 s 0 0 N DO 40 BY 1 STEP 1 0 ;\nROW r1 s 0 8 N DO 40 BY 1 ;\n\
   COMPONENTS 4 ;\n  - a m + PLACED ( 0 0 ) N ;\n  - b m + UNPLACED ;\n  - c m ;\n\
   \  - k0 k + FIXED ( 20 16 ) N ;\nEND COMPONENTS\n# tdflow.gp a 1 2 0.000000\n\
   # tdflow.gp b 3 4 0.000000 2.000000\nPINS 2 ;\n  - clk + NET n0 + DIRECTION INPUT + USE CLOCK \
   + PLACED ( 0 4 ) N + LAYER m1 ( 0 0 ) ( 1 1 ) ;\n  - o + NET n1 ;\nEND PINS\n\
   NETS 2 ;\n  - n0 ( a P0 ) ( b P1 ) ( PIN clk ) ;\n  - n1 ( c P0 ) ( k0 P1 ) ( a P2 ) ;\nEND NETS\n\
   BLOCKAGES 1 ;\n  - PLACEMENT RECT ( 30 0 ) ( 40 8 ) ;\nEND BLOCKAGES\nEND DESIGN\n"

let edit text ~from ~into =
  let n = String.length from in
  let rec find i =
    if i + n > String.length text then text
    else if String.sub text i n = from then
      String.sub text 0 i ^ into ^ String.sub text (i + n) (String.length text - i - n)
    else find (i + 1)
  in
  find 0

(* A widths comment after its macro. *)
let lef_late_widths = edit lef_ok ~from:"  # tdflow.widths m 3 4\n" ~into:"" ^ "# tdflow.widths m 5 6\n"

(* A bad widths comment after a structural error. *)
let lef_ext_first = edit lef_ok ~from:"SIZE 3 BY 8" ~into:"SIZE 3 BX 8" ^ "# tdflow.widths m x 1\n"

let lef_cases =
  [
    lef_ok;
    String.map (fun c -> if c = ' ' then '\t' else c) lef_ok;
    edit lef_ok ~from:"\n" ~into:"\r\n";
    (* widths after its macro, and before it *)
    lef_late_widths;
    "# tdflow.widths m 5 6\n" ^ edit lef_ok ~from:"  # tdflow.widths m 3 4\n" ~into:"";
    lef_ok ^ "# tdflow.widths k 1 2\n";
    lef_ok ^ "# tdflow.widths ghost 1 2\n# tdflow.widths ghost2 1\n";
    lef_ok ^ "# tdflow.widths m 0 2\n";
    lef_ok ^ "# tdflow.widths m 0 2\n# tdflow.widths k -1 1\n";
    lef_ok ^ "# tdflow.bogus\n";
    lef_ok ^ "MACRO late\n";
    (* a bad widths comment with a structural error before or after it *)
    lef_ext_first;
    "# tdflow.widths m\n" ^ edit lef_ok ~from:"END LIBRARY" ~into:"END LIBRAR";
    edit lef_ok ~from:"END LIBRARY" ~into:"FROB ;\n# tdflow.nope\nEND LIBRARY";
    edit lef_ok ~from:"SIZE 3 BY 8" ~into:"SIZE 3 BY 8;# tdflow.widths m 1 1\n";
    edit lef_ok ~from:"SIZE 3 BY 8 ;" ~into:"SIZE(3 BY 8)";
    edit lef_ok ~from:"SIZE 3 BY 8" ~into:"SIZE +3 BY 0x8";
    edit lef_ok ~from:"SIZE 3 BY 8" ~into:"SIZE 1_000 BY 8";
    edit lef_ok ~from:"CLASS CORE" ~into:"CLA#SS CORE";
    String.sub lef_ok 0 60;
    "MACRO m\nSIZE 2 BY";
    "";
    "# tdflow.widths";
  ]

let def_cases =
  [
    def_ok;
    String.map (fun c -> if c = ' ' then '\t' else c) def_ok;
    edit def_ok ~from:"\n" ~into:"\r\n";
    String.concat "\n" (List.map glue (String.split_on_char '\n' def_ok));
    def_ok ^ "# tdflow.gp c 1 1 0.5\n";
    def_ok ^ "# tdflow.bogus\n";
    def_ok ^ "# tdflow.gp x 1\nleftover\n";
    edit def_ok ~from:"( 0 0 ) N ;" ~into:"(0 0)N;#tdflow.gp a 9 9 0.0";
    edit def_ok ~from:"( 0 0 ) N ;" ~into:"( +5 0x1F ) N ;";
    edit def_ok ~from:"( 0 0 ) N ;" ~into:"( 1_000 0 ) N ;";
    edit def_ok ~from:"( 0 0 ) N ;" ~into:"( x y ) N ;";
    edit def_ok ~from:"( 0 0 ) N ;" ~into:"( x y N ;";
    edit def_ok ~from:"COMPONENTS 4" ~into:"COMPONENTS 0x4";
    edit def_ok ~from:"COMPONENTS 4" ~into:"COMPONENTS 3";
    edit def_ok ~from:"DO 40 BY 1 ;" ~into:"DO 40 BY 1 STEP 1 ;";
    edit def_ok ~from:"DIEAREA" ~into:"DIE#AREA";
    edit def_ok ~from:"# tdflow.max_util 0.900000" ~into:"# tdflow.max_util 0.9 1";
    edit def_ok ~from:"DESIGN d ;" ~into:"DESIGN d ;\nTRACKS X 0 DO 5 STEP 2 LAYER m1 ;";
    edit def_ok ~from:"+ LAYER m1 ( 0 0 ) ( 1 1 ) ;" ~into:"+ LAYER m1";
    "DESIGN d ;\nCOMPONENTS 1 ;\n- a";
    "DESIGN d ;\nDIEAREA ( 0 0 ) ( 9 9 ) ;\n# tdflow.die 0\nEND DESIGN";
    "END DESIGN";
    "";
  ]

let test_targeted () =
  List.iter
    (fun t ->
      Alcotest.(check bool) (Printf.sprintf "lef %S" t) true (same_lef t);
      Alcotest.(check bool) (Printf.sprintf "lef fixpoint %S" t) true
        (match Lef.read t with Ok l -> Lef.to_string l = R.Lef.to_string l | Error _ -> true))
    lef_cases;
  List.iter
    (fun t ->
      Alcotest.(check bool) (Printf.sprintf "def %S" t) true (same_def t);
      Alcotest.(check bool) (Printf.sprintf "def fixpoint %S" t) true
        (match Def.read t with Ok d -> Def.to_string d = R.Def.to_string d | Error _ -> true))
    def_cases;
  (* a bad widths comment wins over a structural error, wherever it sits *)
  Alcotest.(check (result reject string)) "extension error first"
    (Error "line 16: expected integer, got \"x\"")
    (Result.map ignore (Lef.read lef_ext_first));
  (* the widths comment after its macro still attaches to it *)
  match Lef.read lef_late_widths with
  | Ok l ->
    Alcotest.(check (option (array int))) "late widths" (Some [| 5; 6 |])
      (Option.bind (Lef.find_macro l "m") (fun m -> m.Lef.m_widths))
  | Error e -> Alcotest.fail e

(* One import of realistic size: a generated case, legalized, exported,
   read and converted by both sides. *)
let test_generated_case () =
  let design =
    Tdf_benchgen.Gen.generate_by_name ~scale:0.02 Tdf_benchgen.Spec.Iccad2023 "case3"
  in
  let placement = Tdf_baselines.Tetris.legalize design in
  let lef, defs = Def.of_design ~placement design in
  Alcotest.(check bool) "of_design" true
    (same (lef, defs) (R.Def.of_design ~placement design));
  let ltext = Lef.to_string lef and dtexts = List.map Def.to_string defs in
  Alcotest.(check string) "lef bytes" (R.Lef.to_string lef) ltext;
  List.iter2 (fun t d -> Alcotest.(check string) "def bytes" (R.Def.to_string d) t) dtexts defs;
  let lef' = Lef.read_exn ltext and defs' = List.map Def.read_exn dtexts in
  Alcotest.(check bool) "read" true
    (same (Ok lef') (R.Lef.read ltext) && List.for_all same_def dtexts);
  Alcotest.(check bool) "to_design" true (same_import lef' defs')

let suite =
  [
    QCheck_alcotest.to_alcotest prop_writers_and_readers;
    QCheck_alcotest.to_alcotest prop_export_import;
    QCheck_alcotest.to_alcotest prop_scanner;
    Alcotest.test_case "targeted texts" `Quick test_targeted;
    Alcotest.test_case "generated case" `Quick test_generated_case;
  ]
