(* Reference preflight check for the differential tests: a verbatim copy
   of [Tdf_robust.Validate.design] from before it built issue subjects on
   demand and counted distinct pins without a table.  Kept only under
   test/ so the issue list can be checked for structural equality against
   it.  Only the module paths are qualified, and the issue record is the
   library's. *)

module Rect = Tdf_geometry.Rect
module Interval = Tdf_geometry.Interval
module Die = Tdf_netlist.Die
module Cell = Tdf_netlist.Cell
module Net = Tdf_netlist.Net
module Blockage = Tdf_netlist.Blockage
module Design = Tdf_netlist.Design
open Tdf_robust.Validate

(* Widest free segment of a die across all rows (0 when the die has no
   usable placement area at all). *)
let max_segment_width design d =
  let die = Design.die design d in
  let best = ref 0 in
  for r = 0 to Die.num_rows die - 1 do
    List.iter
      (fun (iv : Interval.t) -> best := max !best (Interval.length iv))
      (Tdf_grid.Grid.segments_of_row design d r)
  done;
  !best

(* Bounding window of every die outline: the legal universe for gp_x/gp_y. *)
let window design =
  Array.fold_left
    (fun (acc : Rect.t option) (die : Die.t) ->
      let o = die.Die.outline in
      match acc with
      | None -> Some o
      | Some w ->
        let x = min w.Rect.x o.Rect.x and y = min w.Rect.y o.Rect.y in
        let xh = max (w.Rect.x + w.Rect.w) (o.Rect.x + o.Rect.w) in
        let yh = max (w.Rect.y + w.Rect.h) (o.Rect.y + o.Rect.h) in
        Some (Rect.make ~x ~y ~w:(xh - x) ~h:(yh - y)))
    None design.Design.dies

let distinct_pins (n : Net.t) =
  let seen = Hashtbl.create 8 in
  Array.iter (fun p -> Hashtbl.replace seen p ()) n.Net.pins;
  Hashtbl.length seen

let design (d : Design.t) =
  let issues = ref [] in
  let add severity code subject fmt =
    Format.kasprintf
      (fun message -> issues := { severity; code; subject; message } :: !issues)
      fmt
  in
  let nd = Design.n_dies d in
  let max_seg = Array.init nd (fun i -> max_segment_width d i) in
  (* Dies: rows and capacity. *)
  Array.iteri
    (fun i (die : Die.t) ->
      let subject = Printf.sprintf "die %d" i in
      if Die.num_rows die = 0 then
        add Fatal "no-rows" subject
          "outline height %d holds no complete row of height %d"
          die.Die.outline.Rect.h die.Die.row_height
      else if max_seg.(i) = 0 then
        add
          (if Array.exists (fun w -> w > 0) max_seg then Warning else Fatal)
          "zero-capacity-die" subject
          "every row is fully covered by macros; no cell can be placed here")
    d.Design.dies;
  if nd > 0 && Array.for_all (fun w -> w = 0) max_seg then
    add Fatal "zero-capacity-design" "design"
      "no die has any free row segment; the design cannot host a single cell";
  (* Macros. *)
  Array.iter
    (fun (m : Blockage.t) ->
      let subject = Printf.sprintf "macro %s" m.Blockage.name in
      if m.Blockage.die < 0 || m.Blockage.die >= nd then
        add Fatal "macro-bad-die" subject "placed on invalid die %d"
          m.Blockage.die
      else begin
        let outline = (Design.die d m.Blockage.die).Die.outline in
        if not (Rect.contains_rect outline m.Blockage.rect) then
          add Fatal "macro-outside" subject "escapes the outline of die %d"
            m.Blockage.die
      end)
    d.Design.macros;
  Array.iter
    (fun (m1 : Blockage.t) ->
      Array.iter
        (fun (m2 : Blockage.t) ->
          if
            m1.Blockage.id < m2.Blockage.id
            && m1.Blockage.die = m2.Blockage.die
            && Rect.overlaps m1.Blockage.rect m2.Blockage.rect
          then
            add Fatal "macro-overlap"
              (Printf.sprintf "macro %s" m1.Blockage.name)
              "overlaps macro %s on die %d" m2.Blockage.name m1.Blockage.die)
        d.Design.macros)
    d.Design.macros;
  (* Cells: widths vs segments, gp coordinates. *)
  let win = window d in
  Array.iter
    (fun (c : Cell.t) ->
      let subject = Printf.sprintf "cell %d" c.Cell.id in
      if Array.length c.Cell.widths <> nd then
        add Fatal "width-arity" subject "%d widths for %d dies"
          (Array.length c.Cell.widths) nd
      else begin
        let fits_somewhere =
          Array.exists
            (fun dd -> max_seg.(dd) > 0 && Cell.width_on c dd <= max_seg.(dd))
            (Array.init nd (fun i -> i))
        in
        if not fits_somewhere then
          add Fatal "unplaceable-cell" subject
            "wider than every row segment of every die (widths %s)"
            (String.concat "/"
               (Array.to_list (Array.map string_of_int c.Cell.widths)))
        else begin
          let home = Cell.nearest_die c ~n_dies:nd in
          if Cell.width_on c home > max_seg.(home) then
            add Warning "wide-cell" subject
              "width %d exceeds the widest segment (%d) of its nearest die %d"
              (Cell.width_on c home) max_seg.(home) home
        end
      end;
      let z_hi = float_of_int (max 0 (nd - 1)) in
      if Float.is_nan c.Cell.gp_z then
        add Fatal "nan-gp-z" subject "gp_z is NaN; the cell has no home die"
      else if c.Cell.gp_z < 0. || c.Cell.gp_z > z_hi then
        add Warning "gp-z-window" subject "gp_z %.3f outside [0, %g]"
          c.Cell.gp_z z_hi;
      (match win with
      | Some w ->
        if
          c.Cell.gp_x < w.Rect.x
          || c.Cell.gp_x > w.Rect.x + w.Rect.w
          || c.Cell.gp_y < w.Rect.y
          || c.Cell.gp_y > w.Rect.y + w.Rect.h
        then
          add Warning "gp-out-of-window" subject
            "gp position (%d, %d) outside the die window" c.Cell.gp_x
            c.Cell.gp_y
      | None -> ()))
    d.Design.cells;
  (* Duplicate cell names: harmless internally (ids key everything) but
     the name-keyed DEF interchange cannot round-trip them. *)
  let names = Hashtbl.create (max 16 (Design.n_cells d)) in
  Array.iter
    (fun (c : Cell.t) ->
      match Hashtbl.find_opt names c.Cell.name with
      | Some first ->
        add Warning "duplicate-cell-name"
          (Printf.sprintf "cell %d" c.Cell.id)
          "name %S is already used by cell %d; DEF export would conflate them"
          c.Cell.name first
      | None -> Hashtbl.replace names c.Cell.name c.Cell.id)
    d.Design.cells;
  (* Nets. *)
  Array.iter
    (fun (n : Net.t) ->
      let subject = Printf.sprintf "net %s" n.Net.name in
      let bad_pin =
        Array.exists (fun p -> p < 0 || p >= Design.n_cells d) n.Net.pins
      in
      if bad_pin then
        add Fatal "net-bad-pin" subject "references a cell outside the design"
      else if distinct_pins n < 2 then
        add Warning "degenerate-net" subject
          "%d distinct pin(s); contributes nothing to wirelength"
          (distinct_pins n))
    d.Design.nets;
  List.stable_sort
    (fun a b ->
      compare
        (match a.severity with Fatal -> 0 | Warning -> 1)
        (match b.severity with Fatal -> 0 | Warning -> 1))
    (List.rev !issues)

