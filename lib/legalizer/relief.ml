module Grid = Tdf_grid.Grid
module Design = Tdf_netlist.Design
module Die = Tdf_netlist.Die
module Cell = Tdf_netlist.Cell

let util_ok grid die w =
  let max_util = (Design.die grid.Grid.design die).Die.max_util in
  grid.Grid.die_cap.(die) <= 0.
  || (grid.Grid.die_used.(die) +. w) /. grid.Grid.die_cap.(die) <= max_util

(* The cheapest (cell, destination) pair over src's fragments × the bins
   with enough demand, as the lexicographic minimum of (D_c(b), fragment
   position, bin id) — the first minimum of a fragment-major, bin-id-minor
   scan.  D_c(b) is at least the row's y distance |y_b − gp_y|, so each
   die's rows are visited with [Grid.iter_rows_outward] from the row
   nearest the cell's gp_y, skipping rows whose distance alone exceeds
   the best cost found so far.  The key makes the visiting order
   irrelevant.
   Within a row, a bin is skipped when the y distance plus gp_x's
   distance to the bin already exceeds it.  Both skips need the bound to
   be strictly greater than the best cost: a bin at exactly that cost can
   still win on bin id. *)
let relieve ?mask cfg grid ~src =
  Tdf_telemetry.span "flow3d.relief" @@ fun () ->
  let design = grid.Grid.design in
  let allowed bid = match mask with None -> true | Some m -> m.(bid) in
  let best_cost = ref max_int and best_pos = ref 0 and best_bin = ref (-1) in
  let best_cell = ref (-1) in
  let scanned = ref 0 in
  let scan_row pos cell gp_x dy w (row : int array) =
    Array.iter
      (fun sid ->
        Array.iter
          (fun bid ->
            incr scanned;
            let b = grid.Grid.bins.(bid) in
            let gap =
              if gp_x < b.Grid.x then b.Grid.x - gp_x
              else Int.max 0 (gp_x - (b.Grid.x + b.Grid.width))
            in
            if
              dy + gap <= !best_cost
              && bid <> src.Grid.id
              && allowed bid
              && Grid.demand b >= w
            then begin
              let cost = Grid.est_disp grid ~cell b in
              (* fragments come in list order, so an earlier one keeps a tie *)
              if
                cost < !best_cost
                || (cost = !best_cost && pos = !best_pos && bid < !best_bin)
              then begin
                best_cost := cost;
                best_pos := pos;
                best_bin := bid;
                best_cell := cell
              end
            end)
          grid.Grid.segments.(sid).Grid.s_bins)
      row
  in
  List.iteri
    (fun pos (f : Grid.frag) ->
      let c = Design.cell design f.Grid.cell in
      for die = 0 to Design.n_dies design - 1 do
        let w = float_of_int (Cell.width_on c die) in
        if
          die = src.Grid.die || (cfg.Config.d2d_edges && util_ok grid die w)
        then begin
          let rows = grid.Grid.row_segments.(die) in
          Grid.iter_rows_outward grid ~die ~y:c.Cell.gp_y
            ~bound:(fun () -> !best_cost)
            (fun r dy -> scan_row pos f.Grid.cell c.Cell.gp_x dy w rows.(r))
        end
      done)
    src.Grid.frags;
  Tdf_telemetry.count "flow3d.relief.bins_scanned" !scanned;
  if !best_bin < 0 then None
  else begin
    let b = grid.Grid.bins.(!best_bin) in
    Grid.move_whole grid ~cell:!best_cell ~dst:b;
    Tdf_telemetry.incr "flow3d.relief.moves";
    Some (!best_cell, b)
  end
