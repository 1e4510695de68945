(* The warm ECO path against verbatim oracles of what it replaced.

   - Grid re-seat: [Ref_grid] distributes a cell over every bin of its
     segment; [Grid.place_cell] binary-searches the first overlapped bin.
     On random designs (macros splitting rows, bin widths down to 1,
     cells wider than their segment or than every die, targets beyond
     either end of the die), the two must leave the same fragment order
     in every bin and the same [cell_frags] and [cell_seg], with
     [rho]/[used]/[die_used] equal bit for bit.
   - [Perturb.apply] against [Ref_perturb], which rebuilt every cell and
     net: structurally equal results or identical errors on move, resize,
     remove, add and add-macro deltas; on a move-only delta the nets
     array and the untouched cell records are shared, not copied. *)

module G = Tdf_grid.Grid
module Prng = Tdf_util.Prng
module Rect = Tdf_geometry.Rect
module Die = Tdf_netlist.Die
module Cell = Tdf_netlist.Cell
module Net = Tdf_netlist.Net
module Blockage = Tdf_netlist.Blockage
module Design = Tdf_netlist.Design
module Placement = Tdf_netlist.Placement
module Delta = Tdf_io.Delta
module Perturb = Tdf_incremental.Perturb

let bits = Int64.bits_of_float

(* Every piece of assignment state, floats as bit patterns. *)
let grid_state (g : G.t) =
  ( Array.map
      (fun (b : G.bin) ->
        (List.map (fun (f : G.frag) -> (f.G.cell, bits f.G.rho)) b.G.frags, bits b.G.used))
      g.G.bins,
    Array.map (List.map (fun (bid, r) -> (bid, bits r))) g.G.cell_frags,
    Array.copy g.G.cell_seg,
    Array.map bits g.G.die_used )

(* Two dies of different row heights; macros cut rows into segments, some
   of them only a few units wide; cell widths run from 1 to past the die
   width, so every fallback of [place_cell] and the residue path of the
   distribution are exercised. *)
let reseat_design rng =
  let w = Prng.int_in rng 30 160 and h = 60 in
  let dies =
    Array.init 2 (fun index ->
        Die.make ~index ~outline:(Rect.make ~x:(Prng.int_in rng (-40) 40) ~y:0 ~w ~h)
          ~row_height:(if index = 0 then 10 else Prng.int_in rng 8 15)
          ())
  in
  let macros =
    Array.init (Prng.int rng 4) (fun id ->
        let die = Prng.int rng 2 in
        let o = dies.(die).Die.outline in
        Blockage.make ~id ~die
          ~rect:
            (Rect.make ~x:(o.Rect.x + Prng.int rng w) ~y:(Prng.int rng h)
               ~w:(Prng.int_in rng 1 (w / 2)) ~h:(Prng.int_in rng 5 30))
          ())
  in
  let width () =
    match Prng.int rng 10 with
    | 0 -> Prng.int_in rng (w / 2) (w + 20)
    | 1 -> 1
    | _ -> Prng.int_in rng 2 9
  in
  let cells =
    Array.init (Prng.int_in rng 1 80) (fun id ->
        Cell.make ~id ~widths:[| width (); width () |] ~gp_x:0 ~gp_y:0 ~gp_z:0. ())
  in
  Design.make ~name:"reseat" ~dies ~cells ~macros ()

(* The full seat of [targets] on [r] through the every-bin oracle: stops
   at the first cell with no slot, as [Grid.reset_to] does. *)
let ref_seat r targets =
  let n = Array.length targets in
  let rec go c =
    if c >= n then Ok ()
    else
      let x, y, die = targets.(c) in
      match Ref_grid.place_cell r ~cell:c ~die ~x ~y with
      | Ok () -> go (c + 1)
      | Error _ as e -> e
  in
  go 0

let prop_reseat_matches_oracle =
  QCheck.Test.make ~name:"re-seat = every-bin oracle (bitwise)" ~count:200
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      let d = reseat_design rng in
      let bin_width = Prng.int_in rng 1 25 in
      let g = G.build d ~bin_width and r = G.build d ~bin_width in
      let o = (Design.die d 0).Die.outline in
      let target () =
        ( Prng.int_in rng (o.Rect.x - 60) (o.Rect.x + o.Rect.w + 60),
          Prng.int_in rng (-20) 80,
          Prng.int rng 2 )
      in
      let ok = ref true in
      let place cell =
        let x, y, die = target () in
        let a = G.place_cell g ~cell ~die ~x ~y in
        let b = Ref_grid.place_cell r ~cell ~die ~x ~y in
        if a <> b then ok := false
      in
      let n = Design.n_cells d in
      for cell = 0 to n - 1 do
        place cell
      done;
      if grid_state g <> grid_state r then ok := false;
      (* re-seat a random subset into bins that already hold fragments *)
      for _ = 1 to Prng.int rng (2 * n) do
        let cell = Prng.int rng n in
        G.remove_cell g ~cell;
        G.remove_cell r ~cell;
        place cell
      done;
      if grid_state g <> grid_state r then ok := false;
      (* the warm path: a whole re-seat through [reset_to] *)
      let targets = Array.init n (fun _ -> target ()) in
      let a = G.reset_to g targets in
      G.reset r;
      let b = ref_seat r targets in
      !ok && a = b && grid_state g = grid_state r)

(* ---- Incremental re-seat ---------------------------------------------- *)

(* A random mutation of a seated grid, through the same entry points the
   flow pass and the ECO engine use. *)
let mutate rng (g : G.t) target =
  let n = Array.length g.G.cell_seg in
  let cell = Prng.int rng n in
  match Prng.int rng 5 with
  | 0 | 1 -> (
    (* a fraction to a horizontally adjacent bin of the same segment *)
    match G.cell_bins g cell with
    | [] -> ()
    | bins ->
      let src = g.G.bins.(List.nth bins (Prng.int rng (List.length bins))) in
      let nb = Array.length g.G.bins in
      let dst = src.G.id + if Prng.bool rng then 1 else -1 in
      if dst >= 0 && dst < nb && g.G.bins.(dst).G.seg = src.G.seg then
        G.move_fraction g ~cell ~src ~dst:g.G.bins.(dst)
          ~rho:(if Prng.bool rng then 1. else Prng.float rng 1.))
  | 2 ->
    (* a whole cell anywhere, across dies too *)
    if g.G.cell_seg.(cell) >= 0 then
      G.move_whole g ~cell ~dst:g.G.bins.(Prng.int rng (Array.length g.G.bins))
  | 3 ->
    G.remove_cell g ~cell;
    let x, y, die = target () in
    ignore (G.place_cell g ~cell ~die ~x ~y)
  | _ -> G.remove_cell g ~cell

(* [d] with some cells replaced by new records: resized, or equal but not
   the same record. *)
let rebind rng (d : Design.t) =
  let cells = Array.copy d.Design.cells in
  for _ = 1 to Prng.int_in rng 1 3 do
    let i = Prng.int rng (Array.length cells) in
    let c = cells.(i) in
    cells.(i) <-
      (if Prng.bool rng then { c with Cell.widths = Array.copy c.Cell.widths }
       else
         { c with Cell.widths = Array.map (fun w -> max 1 (w + Prng.int_in rng (-3) 3)) c.Cell.widths })
  done;
  { d with Design.cells }

let prop_incremental_reseat =
  QCheck.Test.make ~name:"incremental reset_to = full seat (bitwise)" ~count:150
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      let d0 = reseat_design rng in
      (* die 1 fully blocked on some designs: a cell wider than every die-0
         segment, sent to die 1, has no slot anywhere *)
      let blocked = Prng.int rng 3 = 0 in
      let d0 =
        if not blocked then d0
        else begin
          let o = (Design.die d0 1).Die.outline in
          let m = Array.length d0.Design.macros in
          let wall = Blockage.make ~id:m ~die:1 ~rect:o () in
          { d0 with Design.macros = Array.append d0.Design.macros [| wall |] }
        end
      in
      let bin_width = Prng.int_in rng 1 25 in
      let g = ref (G.build d0 ~bin_width) in
      let n = Design.n_cells d0 in
      let o = (Design.die d0 0).Die.outline in
      let target () =
        ( Prng.int_in rng (o.Rect.x - 60) (o.Rect.x + o.Rect.w + 60),
          Prng.int_in rng (-20) 80,
          Prng.int rng 2 )
      in
      let targets = Array.init n (fun _ -> target ()) in
      let ok = ref true in
      for _ = 1 to 10 do
        (* targets: mostly unchanged, sometimes many, sometimes one with no
           slot anywhere *)
        let k = if Prng.int rng 6 = 0 then n else Prng.int rng 4 in
        for _ = 1 to k do
          targets.(Prng.int rng n) <- target ()
        done;
        let d = (!g).G.design in
        let d =
          if blocked && Prng.int rng 4 = 0 then begin
            let i = Prng.int rng n in
            let x, y, _ = targets.(i) in
            targets.(i) <- (x, y, 1);
            let cells = Array.copy d.Design.cells in
            cells.(i) <- { (cells.(i)) with Cell.widths = [| o.Rect.w + 1; 1 |] };
            { d with Design.cells }
          end
          else if Prng.int rng 3 = 0 then rebind rng d
          else d
        in
        (* the warm ECO cache's rebind *)
        g := { !g with G.design = d };
        if Prng.int rng 10 = 0 then G.reset !g;
        let a = G.reset_to !g targets in
        let r = G.build d ~bin_width in
        let b = ref_seat r targets in
        if a <> b || grid_state !g <> grid_state r then ok := false;
        if a = Ok () then
          for _ = 1 to Prng.int rng (2 * n + 1) do
            mutate rng !g target
          done
      done;
      !ok)

(* A clone's mutations and re-seats never reach the original's record. *)
let prop_clone_isolation =
  QCheck.Test.make ~name:"clone never disturbs the original's re-seat" ~count:100
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      let d = reseat_design rng in
      let bin_width = Prng.int_in rng 1 25 in
      let g = G.build d ~bin_width in
      let n = Design.n_cells d in
      let o = (Design.die d 0).Die.outline in
      let target () =
        ( Prng.int_in rng (o.Rect.x - 60) (o.Rect.x + o.Rect.w + 60),
          Prng.int_in rng (-20) 80,
          Prng.int rng 2 )
      in
      let targets = Array.init n (fun _ -> target ()) in
      let seated = G.reset_to g targets = Ok () in
      (* marks the original must keep *)
      for _ = 1 to Prng.int_in rng 1 n do
        mutate rng g target
      done;
      let before = grid_state g in
      let c = G.clone g in
      for _ = 1 to 4 * n do
        mutate rng c target
      done;
      (* a clone re-seated close to the original's targets *)
      let near = Array.copy targets in
      near.(Prng.int rng n) <- target ();
      ignore (G.reset_to c near);
      for _ = 1 to 2 * n do
        mutate rng c target
      done;
      let untouched = grid_state g = before in
      targets.(Prng.int rng n) <- target ();
      let a = G.reset_to g targets in
      let r = G.build d ~bin_width in
      let b = ref_seat r targets in
      seated && untouched && a = b && grid_state g = grid_state r)

(* ---- Perturb ---------------------------------------------------------- *)

let perturb_design rng =
  let d = Fixtures.random ~n:(Prng.int_in rng 5 60) ~with_macros:(Prng.bool rng) (Prng.int rng 1000) in
  match Prng.int rng 6 with
  | 0 ->
    (* a net without pins and one whose id is not its index: rebuilt,
       never shared *)
    let nets = Array.copy d.Design.nets in
    if Array.length nets > 1 then begin
      nets.(0) <- { (nets.(0)) with Net.pins = [||] };
      nets.(1) <- { (nets.(1)) with Net.id = 7 }
    end;
    { d with Design.nets }
  | _ -> d

let random_delta rng d =
  let n = Design.n_cells d in
  let cell () = if Prng.int rng 12 = 0 then n + Prng.int rng 3 else Prng.int rng n in
  let widths () =
    Array.init (if Prng.int rng 15 = 0 then 3 else 2) (fun _ -> Prng.int_in rng 1 8)
  in
  let move_only = Prng.int rng 3 = 0 in
  List.init (Prng.int_in rng 1 6) (fun i ->
      match if move_only then 0 else Prng.int rng 5 with
      | 0 ->
        Delta.Move
          { cell = cell (); x = Prng.int_in rng (-10) 130; y = Prng.int_in rng (-10) 60;
            die = Prng.int rng 2 }
      | 1 -> Delta.Resize { cell = cell (); widths = widths () }
      | 2 -> Delta.Remove { cell = cell () }
      | 3 ->
        Delta.Add
          { name = Printf.sprintf "eco%d" i; x = Prng.int rng 120; y = Prng.int rng 50;
            die = Prng.int rng 2; widths = widths () }
      | _ ->
        Delta.Add_macro
          { name = Printf.sprintf "blk%d" i; die = Prng.int rng 2; x = Prng.int rng 110;
            y = Prng.int rng 40; w = Prng.int_in rng 1 20; h = Prng.int_in rng 1 20 })

let prop_perturb_matches_oracle =
  QCheck.Test.make ~name:"perturb = rebuilding oracle" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      let d = perturb_design rng in
      let prev = Placement.initial d in
      let delta = random_delta rng d in
      compare (Perturb.apply d prev delta) (Ref_perturb.apply d prev delta) = 0)

let test_move_only_shares () =
  let d = Fixtures.random ~n:40 3 in
  let prev = Placement.initial d in
  let delta =
    [ Delta.Move { cell = 5; x = 60; y = 20; die = 1 }; Delta.Move { cell = 17; x = 3; y = 41; die = 0 } ]
  in
  match Perturb.apply d prev delta with
  | Error e -> Alcotest.fail e
  | Ok p ->
    Alcotest.(check bool) "nets shared" true (p.Perturb.design.Design.nets == d.Design.nets);
    Array.iteri
      (fun i c ->
        let shared = c == Design.cell d i in
        Alcotest.(check bool)
          (Printf.sprintf "cell %d shared iff untouched" i)
          (i <> 5 && i <> 17) shared)
      p.Perturb.design.Design.cells;
    Alcotest.(check bool) "equal to the oracle" true
      (compare (Ok p) (Ref_perturb.apply d prev delta) = 0)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_reseat_matches_oracle;
    QCheck_alcotest.to_alcotest prop_incremental_reseat;
    QCheck_alcotest.to_alcotest prop_clone_isolation;
    QCheck_alcotest.to_alcotest prop_perturb_matches_oracle;
    Alcotest.test_case "move-only delta shares nets and cells" `Quick test_move_only_shares;
  ]
