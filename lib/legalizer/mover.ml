module Grid = Tdf_grid.Grid

type scratch = {
  mutable s_nodes : Augment.node array;
  mutable s_len : int;
  s_sel : Select.t;
}

let dummy_node = { Augment.pn_bin = -1; pn_flow_in = 0.; pn_need_out = 0. }

let create_scratch () = { s_nodes = [||]; s_len = 0; s_sel = Select.create () }

(* Copy the path into the reusable node buffer (grown geometrically), so
   realization allocates nothing per augmentation. *)
let load_path scratch path =
  let n = List.length path in
  if Array.length scratch.s_nodes < n then
    scratch.s_nodes <- Array.make (max 16 (2 * n)) dummy_node;
  List.iteri (fun i nd -> scratch.s_nodes.(i) <- nd) path;
  scratch.s_len <- n

let edge_kind _grid ~src ~dst =
  if src.Grid.seg = dst.Grid.seg then Grid.Horizontal
  else if src.Grid.die = dst.Grid.die then Grid.Vertical
  else Grid.D2d

(* Apply the picks of the last successful selection in order.  They are
   buffered in the selection scratch, so the moves (which rewrite [src]'s
   fragment list) cannot disturb them. *)
let apply_selection ?pick_probe ~edge grid sel ~src ~dst ~kind =
  let n = Select.n_picks sel in
  if Tdf_telemetry.enabled () then Tdf_telemetry.count "flow3d.mover.picks" n;
  let d2d_moves = ref 0 in
  for k = 0 to n - 1 do
    let cell = Select.pick_cell sel k and rho = Select.pick_rho sel k in
    (match pick_probe with Some f -> f ~edge ~cell ~rho | None -> ());
    match kind with
    | Grid.Horizontal -> Grid.move_fraction grid ~cell ~src ~dst ~rho
    | Grid.Vertical -> Grid.move_whole grid ~cell ~dst
    | Grid.D2d ->
      incr d2d_moves;
      Grid.move_whole grid ~cell ~dst
  done;
  !d2d_moves

let realize ?pick_probe cfg grid scratch path =
  Tdf_telemetry.span "flow3d.mover" @@ fun () ->
  load_path scratch path;
  let nodes = scratch.s_nodes in
  let n = scratch.s_len in
  let sel = scratch.s_sel in
  let cur = Select.cur_disp grid in
  let d2d_moves = ref 0 in
  let sels = ref 0 in
  (* Backtrack: move into the leaf first, the root last, so every selection
     sees the bin contents the search saw (modulo straddling cells). *)
  for i = n - 1 downto 1 do
    let u = grid.Grid.bins.(nodes.(i - 1).Augment.pn_bin) in
    let v = grid.Grid.bins.(nodes.(i).Augment.pn_bin) in
    let kind = edge_kind grid ~src:u ~dst:v in
    let need = Float.min nodes.(i - 1).Augment.pn_need_out u.Grid.used in
    if need > 1e-9 then begin
      incr sels;
      Select.load ~cur sel grid u;
      let found =
        Select.eval sel cfg grid ~dst:v ~kind ~need
        ||
        (* Availability shrank below [need]; shed whatever is left. *)
        (incr sels;
         Select.eval sel cfg grid ~dst:v ~kind ~need:u.Grid.used)
      in
      if found then
        d2d_moves :=
          !d2d_moves
          + apply_selection ?pick_probe ~edge:i grid sel ~src:u ~dst:v ~kind
    end
  done;
  Tdf_telemetry.count "flow3d.mover.d2d_moves" !d2d_moves;
  if !sels > 0 then Tdf_telemetry.count "flow3d.select.calls" !sels;
  !d2d_moves
