module Design = Tdf_netlist.Design
module Die = Tdf_netlist.Die
module Cell = Tdf_netlist.Cell
module Net = Tdf_netlist.Net
module Placement = Tdf_netlist.Placement

(* Pin centres are computed once per cell into two flat arrays.  A cell
   whose centre cannot be computed (a die index out of range) is left NaN,
   and only a net that visits it raises what the computation raised: a
   bad cell on no net does not fail the total. *)
let centres design centre =
  let n = Design.n_cells design in
  let cx = Float.Array.make n Float.nan and cy = Float.Array.make n Float.nan in
  for c = 0 to n - 1 do
    try centre c cx cy with Invalid_argument _ -> ()
  done;
  (cx, cy)

let net_hpwl cx cy (net : Net.t) =
  let pins = net.Net.pins in
  let min_x = ref infinity and max_x = ref neg_infinity in
  let min_y = ref infinity and max_y = ref neg_infinity in
  for k = 0 to Array.length pins - 1 do
    let pin = pins.(k) in
    let x = Float.Array.get cx pin and y = Float.Array.get cy pin in
    if Float.is_nan x then invalid_arg "index out of bounds";
    if x < !min_x then min_x := x;
    if x > !max_x then max_x := x;
    if y < !min_y then min_y := y;
    if y > !max_y then max_y := y
  done;
  !max_x -. !min_x +. (!max_y -. !min_y)

(* Per-net HPWLs are reduced over fixed-size chunks (partial sums merged
   left-to-right in chunk order).  The partition depends only on the net
   count, never on the pool size, so the float total is bit-identical for
   every --jobs setting; a design smaller than one chunk sums in exactly
   the seed's sequential order. *)
let chunk = 4096

let total design (cx, cy) =
  let nets = design.Design.nets in
  let n = Array.length nets in
  Tdf_par.reduce_chunked ~chunk ~n
    ~map:(fun lo hi ->
      let acc = ref 0. in
      for i = lo to hi - 1 do
        acc := !acc +. net_hpwl cx cy nets.(i)
      done;
      !acc)
    ~merge:( +. ) ~init:0.

let of_placement design p =
  total design
    (centres design (fun c cx cy ->
         let cell = Design.cell design c in
         let d = p.Placement.die.(c) in
         let w = Cell.width_on cell d in
         let h = (Design.die design d).Die.row_height in
         let x = float_of_int p.Placement.x.(c) +. (float_of_int w /. 2.) in
         let y = float_of_int p.Placement.y.(c) +. (float_of_int h /. 2.) in
         Float.Array.set cx c x;
         Float.Array.set cy c y))

let of_global design =
  let nd = Design.n_dies design in
  total design
    (centres design (fun c cx cy ->
         let cell = Design.cell design c in
         let d = Cell.nearest_die cell ~n_dies:nd in
         let w = Cell.width_on cell d in
         let h = (Design.die design d).Die.row_height in
         let x = float_of_int cell.Cell.gp_x +. (float_of_int w /. 2.) in
         let y = float_of_int cell.Cell.gp_y +. (float_of_int h /. 2.) in
         Float.Array.set cx c x;
         Float.Array.set cy c y))

let increase_pct design p =
  let g = of_global design in
  if g <= 0. then 0. else 100. *. (of_placement design p -. g) /. g
