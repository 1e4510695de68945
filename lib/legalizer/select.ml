module Grid = Tdf_grid.Grid
module Cell = Tdf_netlist.Cell
module Design = Tdf_netlist.Design

(* Leftmost / rightmost x of the bins in a fragment list.  Top-level, so
   the per-cell walk allocates no closure. *)
let rec span_lo (bins : Grid.bin array) lo = function
  | [] -> lo
  | (bid, _) :: rest ->
    let x = bins.(bid).Grid.x in
    span_lo bins (if x < lo then x else lo) rest

let rec span_hi (bins : Grid.bin array) hi = function
  | [] -> hi
  | (bid, _) :: rest ->
    let b = bins.(bid) in
    let x = b.Grid.x + b.Grid.width in
    span_hi bins (if x > hi then x else hi) rest

let cur_disp grid cell =
  match grid.Grid.cell_frags.(cell) with
  | [] -> 0
  | (first, _) :: _ as frags ->
    let c = Design.cell grid.Grid.design cell in
    let first_bin = grid.Grid.bins.(first) in
    let w = Cell.width_on c first_bin.Grid.die in
    let lo = span_lo grid.Grid.bins max_int frags in
    let hi = span_hi grid.Grid.bins min_int frags in
    let xmax = Int.max lo (hi - w) in
    let x = Int.max lo (Int.min xmax c.Cell.gp_x) in
    abs (x - c.Cell.gp_x) + abs (first_bin.Grid.y - c.Cell.gp_y)

type totals = {
  mutable t_freed : float;
  mutable t_inflow : float;
  mutable t_sel_cost : float;
}

type t = {
  mutable n : int;  (* fragments of the loaded source bin *)
  mutable src_die : int;
  mutable cell : int array;
  mutable rho : float array;
  mutable width : int array;  (* width on the source die *)
  mutable weight : float array;
  mutable cur : int array;  (* D_c(u) *)
  mutable freed_w : float array;  (* ρ·width: what a whole-cell move frees *)
  mutable cost : float array;  (* unit cost toward the evaluated dst *)
  mutable perm : int array;  (* fragment indices, sorted by [cost] *)
  mutable pick_cell : int array;
  mutable pick_rho : float array;
  mutable n_picks : int;
  tot : totals;
}

let create () =
  {
    n = 0;
    src_die = 0;
    cell = [||];
    rho = [||];
    width = [||];
    weight = [||];
    cur = [||];
    freed_w = [||];
    cost = [||];
    perm = [||];
    pick_cell = [||];
    pick_rho = [||];
    n_picks = 0;
    tot = { t_freed = 0.; t_inflow = 0.; t_sel_cost = 0. };
  }

let totals t = t.tot

let n_picks t = t.n_picks

let pick_cell t i = t.pick_cell.(i)

let pick_rho t i = t.pick_rho.(i)

(* Grow every per-fragment buffer to hold [n] entries (geometrically, so
   a pass reallocates O(log max-fragments) times). *)
let reserve t n =
  if Array.length t.cell < n then begin
    let m = max 16 (2 * n) in
    t.cell <- Array.make m 0;
    t.rho <- Array.make m 0.;
    t.width <- Array.make m 0;
    t.weight <- Array.make m 0.;
    t.cur <- Array.make m 0;
    t.freed_w <- Array.make m 0.;
    t.cost <- Array.make m 0.;
    t.perm <- Array.make m 0;
    t.pick_cell <- Array.make m 0;
    t.pick_rho <- Array.make m 0.
  end

let rec fill t design die cur i = function
  | [] -> t.n <- i
  | (f : Grid.frag) :: rest ->
    let c = Design.cell design f.Grid.cell in
    let w = Cell.width_on c die in
    t.cell.(i) <- f.Grid.cell;
    t.rho.(i) <- f.Grid.rho;
    t.width.(i) <- w;
    t.weight.(i) <- c.Cell.weight;
    t.cur.(i) <- cur f.Grid.cell;
    t.freed_w.(i) <- f.Grid.rho *. float_of_int w;
    fill t design die cur (i + 1) rest

let load ~cur t grid (src : Grid.bin) =
  reserve t (List.length src.Grid.frags);
  t.src_die <- src.Grid.die;
  fill t grid.Grid.design src.Grid.die cur 0 src.Grid.frags

(* Ternary heap sort of [perm.(0 .. l-1)] by [cost]: a copy of stdlib's
   [Array.sort], parameterised by length and with the [Bottom] exception
   replaced by a [-1] return.  It performs the same comparisons and moves
   as [Array.sort] on an array of the fragments in bin order, so fragments
   of tied cost come out in exactly the order [Array.sort] gives them. *)
let[@inline] cmp (cost : float array) p q = Float.compare cost.(p) cost.(q)

let maxson cost a l i =
  let i31 = i + i + i + 1 in
  if i31 + 2 < l then begin
    let x = if cmp cost a.(i31) a.(i31 + 1) < 0 then i31 + 1 else i31 in
    if cmp cost a.(x) a.(i31 + 2) < 0 then i31 + 2 else x
  end
  else if i31 + 1 < l && cmp cost a.(i31) a.(i31 + 1) < 0 then i31 + 1
  else if i31 < l then i31
  else -1

let rec trickle cost a l i e =
  let j = maxson cost a l i in
  if j >= 0 && cmp cost a.(j) e > 0 then begin
    a.(i) <- a.(j);
    trickle cost a l j e
  end
  else a.(i) <- e

let rec bubble cost a l i =
  let j = maxson cost a l i in
  if j < 0 then i
  else begin
    a.(i) <- a.(j);
    bubble cost a l j
  end

let rec trickleup cost a i e =
  let father = (i - 1) / 3 in
  if cmp cost a.(father) e < 0 then begin
    a.(i) <- a.(father);
    if father > 0 then trickleup cost a father e else a.(0) <- e
  end
  else a.(i) <- e

let sort_perm cost a l =
  for i = 0 to l - 1 do
    a.(i) <- i
  done;
  for i = ((l + 1) / 3) - 1 downto 0 do
    trickle cost a l i a.(i)
  done;
  for i = l - 1 downto 2 do
    let e = a.(i) in
    a.(i) <- a.(0);
    trickleup cost a (bubble cost a i 0) e
  done;
  if l > 1 then begin
    let e = a.(1) in
    a.(1) <- a.(0);
    a.(0) <- e
  end

let[@inline] add_pick t cell rho =
  t.pick_cell.(t.n_picks) <- cell;
  t.pick_rho.(t.n_picks) <- rho;
  t.n_picks <- t.n_picks + 1

(* Fractional moves (horizontal edges): take the cheapest fractions and
   split the last one so exactly [need] leaves the bin. *)
let take_fractions t ~need =
  let freed = ref 0. and sum = ref 0. and k = ref 0 in
  while !freed < need -. 1e-9 && !k < t.n do
    let i = t.perm.(!k) in
    let w = float_of_int t.width.(i) in
    let avail = t.rho.(i) *. w in
    let moved_w = Float.min avail (need -. !freed) in
    let moved_rho = moved_w /. w in
    add_pick t t.cell.(i) moved_rho;
    freed := !freed +. moved_w;
    sum := !sum +. (moved_rho *. t.cost.(i));
    incr k
  done;
  !freed >= need -. 1e-9
  && begin
       t.tot.t_freed <- need;
       t.tot.t_inflow <- need;
       t.tot.t_sel_cost <- !sum;
       true
     end

(* Whole-cell moves (vertical / D2D edges): the width freed in the source
   is only the fragment living there.  Cells are taken in increasing cost;
   the last pick is swapped for a similar-cost better-fitting cell when
   possible: overshoot compounds along the path (flow(v) grows every
   whole-cell hop) and can strand the search in lightly-used regions. *)
let take_cells t design ~need =
  let cost = t.cost and perm = t.perm and fw = t.freed_w in
  let h_r =
    float_of_int (Design.die design t.src_die).Tdf_netlist.Die.row_height
  in
  let freed = ref 0. and sum = ref 0. and k = ref 0 and fitted = ref false in
  while (not !fitted) && !freed < need -. 1e-9 && !k < t.n do
    let i = perm.(!k) in
    let uc = cost.(i) in
    let remaining = need -. !freed in
    (* Better fit: among the remaining candidates within one row height
       of extra cost, the narrowest that alone covers the remainder (first
       on ties).  The candidates are sorted, so those within the cost
       window form a prefix of the rest. *)
    let fit = ref (-1) and j = ref !k in
    while !j < t.n && cost.(perm.(!j)) <= uc +. h_r do
      let c = perm.(!j) in
      if fw.(c) >= remaining -. 1e-9 && (!fit < 0 || fw.(!fit) > fw.(c)) then
        fit := c;
      incr j
    done;
    let f = !fit in
    let take = if f >= 0 && (fw.(f) < fw.(i) || cost.(f) <= uc) then f else i in
    add_pick t t.cell.(take) 1.0;
    freed := !freed +. fw.(take);
    sum := !sum +. cost.(take);
    fitted := f >= 0 && take = f;
    incr k
  done;
  (!fitted || !freed >= need -. 1e-9)
  && begin
       t.tot.t_freed <- !freed;
       t.tot.t_sel_cost <- !sum;
       true
     end

(* Callers batch "flow3d.select.calls" counting (one flush per search /
   realization) — a per-call [Telemetry.incr] here would emit millions of
   counter events into trace sinks on full-size runs. *)
let eval ?util_probe t cfg grid ~(dst : Grid.bin) ~kind ~need =
  t.n_picks <- 0;
  if need <= 0. then begin
    t.tot.t_freed <- 0.;
    t.tot.t_inflow <- 0.;
    t.tot.t_sel_cost <- 0.;
    true
  end
  else begin
    let design = grid.Grid.design in
    (* cost_{u,v,c} = D_c(v) − D_c(u), plus the Eq. 7 term on D2D edges,
       clamped at 0 when the configuration forbids negative costs. *)
    let extra =
      match kind with
      | Grid.D2d ->
        let h_r =
          float_of_int
            (Design.die design dst.Grid.die).Tdf_netlist.Die.row_height
        in
        (* Eq. 7 term, normalized from width units to distance units so it
           is commensurate with D_c: (sup − dem)/cap ∈ [−1, …] scaled by
           h_r. *)
        let congestion =
          if cfg.Config.d2d_penalty then
            (Grid.supply dst -. Grid.demand dst)
            /. float_of_int (Int.max 1 (Grid.cap dst))
            *. h_r
          else 0.
        in
        (cfg.Config.d2d_base_cost *. h_r) +. congestion
      | Grid.Horizontal | Grid.Vertical -> 0.
    in
    let clamp = not cfg.Config.allow_negative_cost in
    for i = 0 to t.n - 1 do
      let d = Grid.est_disp grid ~cell:t.cell.(i) dst - t.cur.(i) in
      let c = (t.weight.(i) *. float_of_int d) +. extra in
      t.cost.(i) <- (if clamp then Float.max 0. c else c)
    done;
    sort_perm t.cost t.perm t.n;
    match kind with
    | Grid.Horizontal -> take_fractions t ~need
    | Grid.Vertical | Grid.D2d ->
      take_cells t design ~need
      && begin
           let inflow = ref 0. in
           for k = 0 to t.n_picks - 1 do
             let c = Design.cell design t.pick_cell.(k) in
             inflow := !inflow +. float_of_int (Cell.width_on c dst.Grid.die)
           done;
           let inflow = !inflow in
           t.tot.t_inflow <- inflow;
           kind <> Grid.D2d
           ||
           let d = dst.Grid.die in
           let max_util = (Design.die design d).Tdf_netlist.Die.max_util in
           let ok =
             grid.Grid.die_cap.(d) <= 0.
             || (grid.Grid.die_used.(d) +. inflow) /. grid.Grid.die_cap.(d)
                <= max_util
           in
           (match util_probe with Some f -> f ~die:d ~inflow ~ok | None -> ());
           ok
         end
  end
