(* Reference selection for the differential tests: a verbatim copy of the
   list-based C(u, v) selection that the flat kernel in
   [Tdf_legalizer.Select] replaced (fragment tuples, [Array.sort] with a
   closure, O(n^2) best-fit folds).  Kept only under test/ so the kernel
   can be checked for identical picks, [freed], [inflow] and [sel_cost],
   bit for bit, against the pre-rewrite engine.  The algorithm is
   untouched; only the [Config] path is qualified. *)

module Config = Tdf_legalizer.Config

module Grid = Tdf_grid.Grid
module Cell = Tdf_netlist.Cell
module Design = Tdf_netlist.Design

type pick = { p_cell : int; p_rho : float }

type selection = {
  picks : pick list;
  freed : float;
  inflow : float;
  sel_cost : float;
}

let cur_disp grid cell =
  match grid.Grid.cell_frags.(cell) with
  | [] -> 0
  | frags ->
    let c = Design.cell grid.Grid.design cell in
    let first_bin = grid.Grid.bins.(fst (List.hd frags)) in
    let die = first_bin.Grid.die in
    let w = Cell.width_on c die in
    let lo, hi =
      List.fold_left
        (fun (lo, hi) (bid, _) ->
          let b = grid.Grid.bins.(bid) in
          (min lo b.Grid.x, max hi (b.Grid.x + b.Grid.width)))
        (max_int, min_int) frags
    in
    let xmax = max lo (hi - w) in
    let x = max lo (min xmax c.Cell.gp_x) in
    abs (x - c.Cell.gp_x) + abs (first_bin.Grid.y - c.Cell.gp_y)

let unit_cost ?cur cfg grid ~cell ~dst ~kind =
  let cur_d = match cur with Some f -> f cell | None -> cur_disp grid cell in
  let weight = (Design.cell grid.Grid.design cell).Cell.weight in
  let base = weight *. float_of_int (Grid.est_disp grid ~cell dst - cur_d) in
  let extra =
    match kind with
    | Grid.D2d ->
      let h_r =
        float_of_int
          (Tdf_netlist.Design.die grid.Grid.design dst.Grid.die)
            .Tdf_netlist.Die.row_height
      in
      (* Eq. 7 term, normalized from width units to distance units so it is
         commensurate with D_c: (sup − dem)/cap ∈ [−1, …] scaled by h_r. *)
      let congestion =
        if cfg.Config.d2d_penalty then
          (Grid.supply dst -. Grid.demand dst)
          /. float_of_int (max 1 (Grid.cap dst))
          *. h_r
        else 0.
      in
      (cfg.Config.d2d_base_cost *. h_r) +. congestion
    | Grid.Horizontal | Grid.Vertical -> 0.
  in
  let c = base +. extra in
  if cfg.Config.allow_negative_cost then c else Float.max 0. c

(* Callers batch "flow3d.select.calls" counting (one flush per search /
   realization) — a per-call [Telemetry.incr] here would emit millions of
   counter events into trace sinks on full-size runs. *)
let select ?cur ?util_probe cfg grid ~src ~dst ~kind ~need =
  if need <= 0. then Some { picks = []; freed = 0.; inflow = 0.; sel_cost = 0. }
  else begin
    let design = grid.Grid.design in
    let cand_array =
      src.Grid.frags
      |> List.map (fun f ->
             (f.Grid.cell, f.Grid.rho, unit_cost ?cur cfg grid ~cell:f.Grid.cell ~dst ~kind))
      |> Array.of_list
    in
    Array.sort (fun (_, _, a) (_, _, b) -> compare a b) cand_array;
    let candidates = Array.to_list cand_array in
    match kind with
    | Grid.Horizontal ->
      (* Fractional moves: stop exactly at [need]. *)
      let rec take cands acc freed cost =
        if freed >= need -. 1e-9 then Some (List.rev acc, need, cost)
        else
          match cands with
          | [] -> None
          | (cell, rho, uc) :: rest ->
            let w = float_of_int (Cell.width_on (Design.cell design cell) src.Grid.die) in
            let avail = rho *. w in
            let moved_w = Float.min avail (need -. freed) in
            let moved_rho = moved_w /. w in
            take rest
              ({ p_cell = cell; p_rho = moved_rho } :: acc)
              (freed +. moved_w)
              (cost +. (moved_rho *. uc))
      in
      (match take candidates [] 0. 0. with
      | None -> None
      | Some (picks, freed, cost) ->
        Some { picks; freed; inflow = freed; sel_cost = cost })
    | Grid.Vertical | Grid.D2d ->
      (* Whole-cell moves: the width freed in [src] is only the fragment
         living in [src]; the width arriving in [dst] is the full cell width
         on the destination die.  The last pick is swapped for a
         similar-cost better-fitting cell when possible: overshoot compounds
         along the path (flow(v) grows every whole-cell hop) and can
         strand the search in lightly-used regions. *)
      let freed_of (cell, rho, _) =
        rho *. float_of_int (Cell.width_on (Design.cell design cell) src.Grid.die)
      in
      let h_r =
        float_of_int
          (Design.die design src.Grid.die).Tdf_netlist.Die.row_height
      in
      let rec take cands acc freed cost =
        if freed >= need -. 1e-9 then Some (List.rev acc, freed, cost)
        else
          match cands with
          | [] -> None
          | ((_, _, uc) as cand) :: rest ->
            let remaining = need -. freed in
            (* better fit: among candidates within one-row-height extra
               cost, the narrowest one that alone covers the remainder *)
            let fit =
              List.fold_left
                (fun best ((_, _, uc') as c') ->
                  if uc' <= uc +. h_r && freed_of c' >= remaining -. 1e-9 then
                    match best with
                    | Some b when freed_of b <= freed_of c' -> best
                    | _ -> Some c'
                  else best)
                None cands
            in
            (match fit with
            | Some ((cell, _, uc') as c') when freed_of c' < freed_of cand || uc' <= uc ->
              Some
                ( List.rev ({ p_cell = cell; p_rho = 1.0 } :: acc),
                  freed +. freed_of c',
                  cost +. uc' )
            | Some _ | None ->
              let cell, _, _ = cand in
              take rest
                ({ p_cell = cell; p_rho = 1.0 } :: acc)
                (freed +. freed_of cand)
                (cost +. uc))
      in
      (match take candidates [] 0. 0. with
      | None -> None
      | Some (picks, freed, cost) ->
        let inflow =
          List.fold_left
            (fun acc p ->
              acc
              +. float_of_int
                   (Cell.width_on (Design.cell design p.p_cell) dst.Grid.die))
            0. picks
        in
        let util_ok =
          kind <> Grid.D2d
          ||
          let d = dst.Grid.die in
          let max_util = (Design.die design d).Tdf_netlist.Die.max_util in
          let ok =
            grid.Grid.die_cap.(d) <= 0.
            || (grid.Grid.die_used.(d) +. inflow) /. grid.Grid.die_cap.(d)
               <= max_util
          in
          (match util_probe with
          | Some f -> f ~die:d ~inflow ~ok
          | None -> ());
          ok
        in
        if util_ok then Some { picks; freed; inflow; sel_cost = cost } else None)
  end
