(* Format grammar (one record per line, whitespace separated):

     design <name>
     die <index> <x> <y> <w> <h> <row_height> <site_width> <max_util>
     cell <id> <name> <gp_x> <gp_y> <gp_z> <w_die0> <w_die1> ...
     cellw <id> <name> <gp_x> <gp_y> <gp_z> <weight> <w_die0> <w_die1> ...
     macro <id> <name> <die> <x> <y> <w> <h>
     net <id> <name> <pin0> <pin1> ...
     place <cell> <x> <y> <die>           (placement files only)

   `#` starts a comment; empty lines are ignored.  Names must not contain
   whitespace (the generator's names never do). *)

module Rect = Tdf_geometry.Rect
module Die = Tdf_netlist.Die
module Cell = Tdf_netlist.Cell
module Blockage = Tdf_netlist.Blockage
module Net = Tdf_netlist.Net
module Design = Tdf_netlist.Design
module Placement = Tdf_netlist.Placement

(* ---- encoding ------------------------------------------------------- *)

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

let add_field buf n =
  Buffer.add_char buf ' ';
  add_int buf n

let add_word buf s =
  Buffer.add_char buf ' ';
  Buffer.add_string buf s

let add_fixed6 buf f = Printf.bprintf buf " %.6f" f

let add_design buf (d : Design.t) =
  Buffer.add_string buf "design ";
  Buffer.add_string buf d.Design.name;
  Buffer.add_char buf '\n';
  Array.iter
    (fun (die : Die.t) ->
      let o = die.Die.outline in
      Buffer.add_string buf "die";
      add_field buf die.Die.index;
      add_field buf o.Rect.x;
      add_field buf o.Rect.y;
      add_field buf o.Rect.w;
      add_field buf o.Rect.h;
      add_field buf die.Die.row_height;
      add_field buf die.Die.site_width;
      add_fixed6 buf die.Die.max_util;
      Buffer.add_char buf '\n')
    d.Design.dies;
  Array.iter
    (fun (c : Cell.t) ->
      let weighted = c.Cell.weight <> 1.0 in
      Buffer.add_string buf (if weighted then "cellw" else "cell");
      add_field buf c.Cell.id;
      add_word buf c.Cell.name;
      add_field buf c.Cell.gp_x;
      add_field buf c.Cell.gp_y;
      add_fixed6 buf c.Cell.gp_z;
      if weighted then add_fixed6 buf c.Cell.weight;
      Array.iter (add_field buf) c.Cell.widths;
      Buffer.add_char buf '\n')
    d.Design.cells;
  Array.iter
    (fun (m : Blockage.t) ->
      let r = m.Blockage.rect in
      Buffer.add_string buf "macro";
      add_field buf m.Blockage.id;
      add_word buf m.Blockage.name;
      add_field buf m.Blockage.die;
      add_field buf r.Rect.x;
      add_field buf r.Rect.y;
      add_field buf r.Rect.w;
      add_field buf r.Rect.h;
      Buffer.add_char buf '\n')
    d.Design.macros;
  Array.iter
    (fun (n : Net.t) ->
      Buffer.add_string buf "net";
      add_field buf n.Net.id;
      add_word buf n.Net.name;
      Array.iter (add_field buf) n.Net.pins;
      Buffer.add_char buf '\n')
    d.Design.nets

let add_placement buf (p : Placement.t) =
  for c = 0 to Placement.n_cells p - 1 do
    Buffer.add_string buf "place";
    add_field buf c;
    add_field buf p.Placement.x.(c);
    add_field buf p.Placement.y.(c);
    add_field buf p.Placement.die.(c);
    Buffer.add_char buf '\n'
  done

let design_to_string d =
  let buf = Buffer.create 4096 in
  add_design buf d;
  Buffer.contents buf

let placement_to_string _design p =
  let buf = Buffer.create 4096 in
  add_placement buf p;
  Buffer.contents buf

(* ---- decoding ------------------------------------------------------- *)

exception Parse of string

let fail fmt = Format.kasprintf (fun s -> raise (Parse s)) fmt

let is_blank c = c = ' ' || c = '\t'

(* The words of [text.[lo .. hi - 1]], scanned right to left so the list
   comes out in order. *)
let words_in text lo hi =
  let rec go i acc =
    if i <= lo then acc
    else if is_blank (String.unsafe_get text (i - 1)) then go (i - 1) acc
    else begin
      let j = ref (i - 1) in
      while !j > lo && not (is_blank (String.unsafe_get text (!j - 1))) do
        decr j
      done;
      go !j (String.sub text !j (i - !j) :: acc)
    end
  in
  go hi []

let iter_lines text f =
  let n = String.length text in
  let rec line start lineno =
    if start <= n then begin
      let stop = ref start and comment = ref (-1) in
      while !stop < n && String.unsafe_get text !stop <> '\n' do
        if !comment < 0 && String.unsafe_get text !stop = '#' then
          comment := !stop;
        incr stop
      done;
      let hi = if !comment >= 0 then !comment else !stop in
      (match words_in text start hi with [] -> () | words -> f lineno words);
      line (!stop + 1) (lineno + 1)
    end
  in
  line 0 1

let int_of ~line s =
  match int_of_string_opt s with
  | Some v -> v
  | None -> fail "line %d: expected integer, got %S" line s

let float_of ~line s =
  match float_of_string_opt s with
  | Some v -> v
  | None -> fail "line %d: expected number, got %S" line s

let read_design text =
  try
    let name = ref "unnamed" in
    let dies = ref [] and cells = ref [] and macros = ref [] and nets = ref [] in
    iter_lines text (fun line words ->
        match words with
        | "design" :: n :: _ -> name := n
        | [ "die"; i; x; y; w; h; rh; sw; mu ] ->
          let outline =
            Rect.make ~x:(int_of ~line x) ~y:(int_of ~line y) ~w:(int_of ~line w)
              ~h:(int_of ~line h)
          in
          dies :=
            Die.make ~index:(int_of ~line i) ~outline
              ~row_height:(int_of ~line rh) ~site_width:(int_of ~line sw)
              ~max_util:(float_of ~line mu) ()
            :: !dies
        | "cell" :: id :: cname :: x :: y :: z :: ws when ws <> [] ->
          let widths = Array.of_list (List.map (int_of ~line) ws) in
          cells :=
            Cell.make ~id:(int_of ~line id) ~name:cname ~widths
              ~gp_x:(int_of ~line x) ~gp_y:(int_of ~line y)
              ~gp_z:(float_of ~line z) ()
            :: !cells
        | "cellw" :: id :: cname :: x :: y :: z :: wt :: ws when ws <> [] ->
          let widths = Array.of_list (List.map (int_of ~line) ws) in
          cells :=
            Cell.make ~id:(int_of ~line id) ~name:cname
              ~weight:(float_of ~line wt) ~widths ~gp_x:(int_of ~line x)
              ~gp_y:(int_of ~line y) ~gp_z:(float_of ~line z) ()
            :: !cells
        | [ "macro"; id; mname; die; x; y; w; h ] ->
          let rect =
            Rect.make ~x:(int_of ~line x) ~y:(int_of ~line y) ~w:(int_of ~line w)
              ~h:(int_of ~line h)
          in
          macros :=
            Blockage.make ~id:(int_of ~line id) ~name:mname
              ~die:(int_of ~line die) ~rect ()
            :: !macros
        | "net" :: id :: nname :: ps when ps <> [] ->
          let pins = Array.of_list (List.map (int_of ~line) ps) in
          nets := Net.make ~id:(int_of ~line id) ~name:nname ~pins () :: !nets
        | kw :: _ -> fail "line %d: unrecognized record %S" line kw
        | [] -> ());
    let sort_by f l = List.sort (fun a b -> compare (f a) (f b)) l in
    let design =
      Design.make ~name:!name
        ~dies:(Array.of_list (sort_by (fun d -> d.Die.index) !dies))
        ~cells:(Array.of_list (sort_by (fun c -> c.Cell.id) !cells))
        ~macros:(Array.of_list (sort_by (fun m -> m.Blockage.id) !macros))
        ~nets:(Array.of_list (sort_by (fun n -> n.Net.id) !nets))
        ()
    in
    match Design.validate design with
    | Ok () -> Ok design
    | Error (e :: _) -> Error e
    | Error [] -> Ok design
  with
  | Parse msg -> Error msg
  | Assert_failure _ -> Error "invalid field value (assertion)"

let read_placement design text =
  try
    let p = Placement.initial design in
    iter_lines text (fun line words ->
        match words with
        | [ "place"; c; x; y; d ] ->
          let c = int_of ~line c in
          if c < 0 || c >= Placement.n_cells p then
            fail "line %d: cell %d out of range" line c;
          p.Placement.x.(c) <- int_of ~line x;
          p.Placement.y.(c) <- int_of ~line y;
          p.Placement.die.(c) <- int_of ~line d
        | kw :: _ -> fail "line %d: unrecognized record %S" line kw
        | [] -> ());
    Ok p
  with Parse msg -> Error msg

let write_file path text =
  let oc = open_out path in
  (try output_string oc text with e -> close_out oc; raise e);
  close_out oc

let read_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let save_design path d = write_file path (design_to_string d)

let load_design path = read_design (read_file path)

let save_placement path design p =
  write_file path (placement_to_string design p)

let load_placement path design = read_placement design (read_file path)

let read_design_exn text =
  match read_design text with
  | Ok v -> v
  | Error msg -> failwith ("Text.read_design: " ^ msg)

let load_design_exn path =
  match load_design path with
  | Ok v -> v
  | Error msg -> failwith (Printf.sprintf "%s: %s" path msg)

let read_placement_exn design text =
  match read_placement design text with
  | Ok v -> v
  | Error msg -> failwith ("Text.read_placement: " ^ msg)

let load_placement_exn path design =
  match load_placement path design with
  | Ok v -> v
  | Error msg -> failwith (Printf.sprintf "%s: %s" path msg)
