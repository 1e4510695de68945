(* Reference HPWL for the differential tests: a verbatim copy of
   [Tdf_metrics.Hpwl] from before the flat centre arrays, with its
   per-pin centre closure.  Kept only under test/ so the flat version can
   be checked for bit-identical totals against it.  Only the module paths
   are qualified. *)

module Design = Tdf_netlist.Design
module Die = Tdf_netlist.Die
module Cell = Tdf_netlist.Cell
module Net = Tdf_netlist.Net
module Placement = Tdf_netlist.Placement

let net_hpwl centers (net : Net.t) =
  let min_x = ref infinity and max_x = ref neg_infinity in
  let min_y = ref infinity and max_y = ref neg_infinity in
  Array.iter
    (fun pin ->
      let cx, cy = centers pin in
      if cx < !min_x then min_x := cx;
      if cx > !max_x then max_x := cx;
      if cy < !min_y then min_y := cy;
      if cy > !max_y then max_y := cy)
    net.Net.pins;
  !max_x -. !min_x +. (!max_y -. !min_y)

(* Per-net HPWLs are reduced over fixed-size chunks (partial sums merged
   left-to-right in chunk order).  The partition depends only on the net
   count, never on the pool size, so the float total is bit-identical for
   every --jobs setting; a design smaller than one chunk sums in exactly
   the seed's sequential order. *)
let chunk = 4096

let total design centers =
  let nets = design.Design.nets in
  let n = Array.length nets in
  Tdf_par.reduce_chunked ~chunk ~n
    ~map:(fun lo hi ->
      let acc = ref 0. in
      for i = lo to hi - 1 do
        acc := !acc +. net_hpwl centers nets.(i)
      done;
      !acc)
    ~merge:( +. ) ~init:0.

let of_placement design p =
  let centers c =
    let cell = Design.cell design c in
    let d = p.Placement.die.(c) in
    let w = Cell.width_on cell d in
    let h = (Design.die design d).Die.row_height in
    ( float_of_int p.Placement.x.(c) +. (float_of_int w /. 2.),
      float_of_int p.Placement.y.(c) +. (float_of_int h /. 2.) )
  in
  total design centers

let of_global design =
  let nd = Design.n_dies design in
  let centers c =
    let cell = Design.cell design c in
    let d = Cell.nearest_die cell ~n_dies:nd in
    let w = Cell.width_on cell d in
    let h = (Design.die design d).Die.row_height in
    ( float_of_int cell.Cell.gp_x +. (float_of_int w /. 2.),
      float_of_int cell.Cell.gp_y +. (float_of_int h /. 2.) )
  in
  total design centers

let increase_pct design p =
  let g = of_global design in
  if g <= 0. then 0. else 100. *. (of_placement design p -. g) /. g
