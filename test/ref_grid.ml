(* Reference grid re-seat for the differential tests: a verbatim copy of
   the [Tdf_grid.Grid] placement path (fragment insertion, the
   every-bin-of-the-segment distribution, the widest-segment fallback)
   from before the binary-searched re-seat.  Kept only under test/ so the
   new re-seat can be checked for the same fragment order and bit-identical
   [rho]/[used]/[die_used] against it.  Only the module paths are
   qualified; the slot search, which did not change, is the library's. *)

module Interval = Tdf_geometry.Interval
module Design = Tdf_netlist.Design
module Cell = Tdf_netlist.Cell
module Grid = Tdf_grid.Grid
open Grid

let add_frag t b ~cell ~rho ~w =
  let dw = rho *. float_of_int w in
  (match List.find_opt (fun f -> f.cell = cell) b.frags with
  | Some f -> f.rho <- f.rho +. rho
  | None -> b.frags <- { cell; rho } :: b.frags);
  b.used <- b.used +. dw;
  t.die_used.(b.die) <- t.die_used.(b.die) +. dw;
  t.cell_frags.(cell) <-
    (match List.assoc_opt b.id t.cell_frags.(cell) with
    | Some r ->
      (b.id, r +. rho) :: List.remove_assoc b.id t.cell_frags.(cell)
    | None -> (b.id, rho) :: t.cell_frags.(cell))

let distribute_in_segment t ~cell ~sid ~x =
  let s = t.segments.(sid) in
  let c = Design.cell t.design cell in
  let w = Cell.width_on c s.s_die in
  let x = max s.s_lo (min (max s.s_lo (s.s_hi - w)) x) in
  let span = Interval.make x (x + w) in
  let total = ref 0. in
  Array.iter
    (fun bid ->
      let b = t.bins.(bid) in
      let ov = Interval.overlap_length (Interval.make b.x (b.x + b.width)) span in
      if ov > 0 then begin
        let rho = float_of_int ov /. float_of_int w in
        let rho = Float.min rho (1. -. !total) in
        if rho > 0. then begin
          add_frag t b ~cell ~rho ~w;
          total := !total +. rho
        end
      end)
    s.s_bins;
  (* Any residue (cell wider than the segment) lands in the last bin. *)
  if !total < 1. -. 1e-9 then begin
    let last = t.bins.(s.s_bins.(Array.length s.s_bins - 1)) in
    add_frag t last ~cell ~rho:(1. -. !total) ~w
  end;
  t.cell_seg.(cell) <- sid

let widest_segment t die =
  let best = ref None in
  Array.iter
    (fun s ->
      if s.s_die = die then
        match !best with
        | Some b when t.segments.(b).s_hi - t.segments.(b).s_lo >= s.s_hi - s.s_lo ->
          ()
        | _ -> best := Some s.sid)
    t.segments;
  !best

type place_error = Grid.place_error = { pe_cell : int; pe_die : int }

let place_cell t ~cell ~die ~x ~y =
  assert (t.cell_seg.(cell) = -1);
  let c = Design.cell t.design cell in
  let try_die d =
    let w = Cell.width_on c d in
    Grid.find_slot t ~die:d ~x ~y ~w
  in
  let slot =
    match try_die die with
    | Some _ as s -> s
    | None ->
      (* Nothing fits on the requested die: other dies, then the widest
         segment anywhere as a last resort. *)
      let nd = Design.n_dies t.design in
      let rec others d =
        if d >= nd then None
        else if d = die then others (d + 1)
        else match try_die d with Some _ as s -> s | None -> others (d + 1)
      in
      (match others 0 with
      | Some _ as s -> s
      | None ->
        (match widest_segment t die with
        | Some sid -> Some (sid, max t.segments.(sid).s_lo x)
        | None -> None))
  in
  match slot with
  | Some (sid, cx) -> Ok (distribute_in_segment t ~cell ~sid ~x:cx)
  | None -> Error { pe_cell = cell; pe_die = die }

