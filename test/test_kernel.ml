(* The flow-search kernel against its verbatim oracles, plus its
   allocation contract.

   - [Ref_select] / [Ref_relief] are the list-based selection and the
     full-scan relief the flat kernel replaced.  On random bins with
     forced ties (shared gp_x, equal weights, equal widths), over every
     edge kind and both cost settings, the kernel must return the same
     picks, [freed], [inflow] and [sel_cost] — floats compared bit for bit
     — and relief the same (cell, bin).
   - The search must not allocate per pop: see [test_alloc_per_pop]. *)

module G = Tdf_grid.Grid
module L = Tdf_legalizer
module Select = L.Select
module Prng = Tdf_util.Prng
module Rect = Tdf_geometry.Rect
module Die = Tdf_netlist.Die
module Cell = Tdf_netlist.Cell
module Design = Tdf_netlist.Design
module Placement = Tdf_netlist.Placement

(* A random two-die design built for ties: gp_x drawn from a handful of
   columns, widths from {3, 4} (sometimes different per die), weights
   from {1, 2}, rows of 10 (bottom) and 10 or 12 (top), and sometimes a
   tight utilization cap so D2D selections and reliefs get refused. *)
let tie_design rng =
  let w = 120 and h = 60 in
  let max_util = if Prng.bool rng then 1.0 else 0.3 in
  let dies =
    [|
      Die.make ~index:0 ~outline:(Rect.make ~x:0 ~y:0 ~w ~h) ~row_height:10
        ~max_util ();
      Die.make ~index:1
        ~outline:(Rect.make ~x:0 ~y:0 ~w ~h)
        ~row_height:(if Prng.bool rng then 10 else 12)
        ~max_util ();
    |]
  in
  let columns = Array.init 4 (fun _ -> Prng.int rng w) in
  let n = Prng.int_in rng 40 140 in
  let cells =
    Array.init n (fun id ->
        let w0 = Prng.int_in rng 3 4 in
        let w1 = if Prng.int rng 4 = 0 then 7 - w0 else w0 in
        Cell.make ~id
          ~weight:(if Prng.int rng 3 = 0 then 2.0 else 1.0)
          ~widths:[| w0; w1 |]
          ~gp_x:(Prng.choose rng columns)
          ~gp_y:(Prng.int rng h)
          ~gp_z:(Prng.float rng 1.0) ())
  in
  Design.make ~name:"ties" ~dies ~cells ()

(* The design assigned at its global placement, then shuffled by a few
   whole-cell and fractional moves so bins hold cells from elsewhere and
   partial fragments. *)
let tie_grid rng =
  let d = tie_design rng in
  let g = G.build d ~bin_width:(Prng.int_in rng 8 20) in
  G.assign_initial_exn g (Placement.initial d);
  let nb = G.n_bins g in
  for _ = 1 to Prng.int rng 30 do
    let cell = Prng.int rng (Design.n_cells d) in
    if Prng.bool rng then G.move_whole g ~cell ~dst:g.G.bins.(Prng.int rng nb)
    else
      match G.cell_bins g cell with
      | [] -> ()
      | bid :: _ ->
        let src = g.G.bins.(bid) in
        Array.iter
          (fun (e : G.edge) ->
            if e.G.kind = G.Horizontal && Prng.bool rng then
              G.move_fraction g ~cell ~src ~dst:g.G.bins.(e.G.dst)
                ~rho:(Prng.float rng 1.0))
          g.G.edges.(bid)
  done;
  (d, g)

let cost_configs =
  List.concat_map
    (fun neg ->
      List.map
        (fun pen ->
          { L.Config.default with
            L.Config.allow_negative_cost = neg;
            d2d_penalty = pen })
        [ true; false ])
    [ true; false ]

let bits = Int64.bits_of_float

let same_picks (a : Ref_select.pick list) (b : Ref_select.pick list) =
  List.length a = List.length b
  && List.for_all2
       (fun (p : Ref_select.pick) (q : Ref_select.pick) ->
         p.Ref_select.p_cell = q.Ref_select.p_cell
         && bits p.Ref_select.p_rho = bits q.Ref_select.p_rho)
       a b

let same_selection (a : Ref_select.selection option)
    (b : Ref_select.selection option) =
  match (a, b) with
  | None, None -> true
  | Some a, Some b ->
    same_picks a.Ref_select.picks b.Ref_select.picks
    && bits a.Ref_select.freed = bits b.Ref_select.freed
    && bits a.Ref_select.inflow = bits b.Ref_select.inflow
    && bits a.Ref_select.sel_cost = bits b.Ref_select.sel_cost
  | _ -> false

(* Needs worth probing on a bin: tiny, each fragment's width (where
   ties between a pick and a fit decide), the bin's whole contents and
   more than it holds. *)
let needs rng (b : G.bin) d =
  let frag_widths =
    List.map
      (fun (f : G.frag) ->
        f.G.rho
        *. float_of_int
             (Cell.width_on (Design.cell d f.G.cell) b.G.die))
      b.G.frags
  in
  [ 1e-10; 0.5; b.G.used; b.G.used +. 1.; Prng.float rng (b.G.used +. 2.) ]
  @ frag_widths

(* Every bin with fragments, every out-edge, every need and every cost
   setting: the one-shot kernel, and one scratch loaded once per bin and
   evaluated across all of them (the search's access pattern), both
   against the oracle — util-cap probes included. *)
let prop_select_matches_oracle =
  QCheck.Test.make ~name:"select kernel = list-based oracle" ~count:40
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      let d, g = tie_grid rng in
      let scratch = Select.create () in
      let ok = ref true in
      for c = 0 to Design.n_cells d - 1 do
        if Ref_select.cur_disp g c <> Select.cur_disp g c then ok := false
      done;
      Array.iter
        (fun (src : G.bin) ->
          if src.G.frags <> [] then begin
            Select.load ~cur:(Select.cur_disp g) scratch g src;
            List.iter
              (fun need ->
                List.iter
                  (fun cfg ->
                    Array.iter
                      (fun (e : G.edge) ->
                        let dst = g.G.bins.(e.G.dst) and kind = e.G.kind in
                        let log = ref [] in
                        let probe tag ~die ~inflow ~ok =
                          log := (tag, die, bits inflow, ok) :: !log
                        in
                        let want =
                          Ref_select.select ~util_probe:(probe 0) cfg g ~src
                            ~dst ~kind ~need
                        in
                        let one =
                          Kernel_select.select ~util_probe:(probe 1) cfg g ~src
                            ~dst ~kind ~need
                        in
                        let reused =
                          if
                            Select.eval ~util_probe:(probe 2) scratch cfg g ~dst
                              ~kind ~need
                          then Some (Kernel_select.selection scratch)
                          else None
                        in
                        let probes tag =
                          List.filter_map
                            (fun (t, d, i, o) ->
                              if t = tag then Some (d, i, o) else None)
                            !log
                        in
                        if
                          not
                            (same_selection want one
                            && same_selection want reused
                            && probes 0 = probes 1
                            && probes 0 = probes 2)
                        then ok := false)
                      g.G.edges.(src.G.id))
                  cost_configs)
              (needs rng src d)
          end)
        g.G.bins;
      !ok)

(* Relief from every bin with fragments, with and without D2D and with
   and without a random mask, on separate clones of one grid: the
   row-pruned search must pick the (cell, bin) of the full scan, and
   leave the grid in the same state. *)
let prop_relief_matches_oracle =
  QCheck.Test.make ~name:"row-pruned relief = full-scan oracle" ~count:40
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      let _, g = tie_grid rng in
      let nb = G.n_bins g in
      let ok = ref true in
      Array.iter
        (fun (src : G.bin) ->
          if src.G.frags <> [] then
            List.iter
              (fun (d2d, masked) ->
                let cfg = { L.Config.default with L.Config.d2d_edges = d2d } in
                let mask =
                  if masked then
                    Some
                      (Array.init nb (fun b -> b = src.G.id || Prng.bool rng))
                  else None
                in
                let ga = G.clone g and gb = G.clone g in
                let want =
                  Ref_relief.relieve ?mask cfg ga ~src:ga.G.bins.(src.G.id)
                in
                let got =
                  L.Relief.relieve ?mask cfg gb ~src:gb.G.bins.(src.G.id)
                in
                let key = Option.map (fun (c, (b : G.bin)) -> (c, b.G.id)) in
                if key want <> key got then ok := false;
                (match want with
                | Some (c, _) when G.cell_bins ga c <> G.cell_bins gb c ->
                  ok := false
                | _ -> ());
                if ga.G.die_used <> gb.G.die_used then ok := false)
              [ (true, false); (true, true); (false, false); (false, true) ])
        g.G.bins;
      !ok)

(* Allocation contract of [Augment.search]: minor words per pop, net of
   the returned path, on iccad2023/case2 at scale 0.05 (116 bins, 19
   supply bins, 274 pops per sweep), measured on a second sweep after a
   warm-up sweep has grown every buffer.  The list-based kernel this
   replaced allocated 1,484 words per pop here (tuples, lists, arrays
   and a sort closure per edge, O(n^2) folds); the flat kernel allocates
   about 10, all of it per-search set-up (closures, telemetry) and the
   boxed floats of cross-module [Grid.demand] calls.  The bound is one
   tenth of the old figure: a deterministic tripwire for a reintroduced
   per-edge allocation, not a timing. *)
let test_alloc_per_pop () =
  let d =
    Tdf_benchgen.Gen.generate_by_name ~scale:0.05 Tdf_benchgen.Spec.Iccad2023
      "case2"
  in
  let g =
    G.build d
      ~bin_width:
        (L.Flow3d.flow_bin_width d
           ~factor:L.Config.default.L.Config.bin_width_factor)
  in
  G.assign_initial_exn g (Placement.initial d);
  let st = L.Augment.create_state g in
  let srcs = G.overflowed_bins g in
  let sweep () =
    List.fold_left
      (fun (words, pops) src ->
        let w0 = Gc.minor_words () in
        let r = L.Augment.search L.Config.default g st ~src in
        let w1 = Gc.minor_words () in
        let path_words = float_of_int (Obj.reachable_words (Obj.repr r)) in
        (words +. (w1 -. w0 -. path_words), pops + L.Augment.expansions st))
      (0., 0) srcs
  in
  ignore (sweep ());
  let words, pops = sweep () in
  Alcotest.(check int) "pops per sweep" 274 pops;
  let per_pop = words /. float_of_int pops in
  if per_pop > 148.4 then
    Alcotest.failf "search allocates %.1f words per pop (bound 148.4)" per_pop

let suite =
  [
    QCheck_alcotest.to_alcotest prop_select_matches_oracle;
    QCheck_alcotest.to_alcotest prop_relief_matches_oracle;
    Alcotest.test_case "search allocation per pop" `Quick test_alloc_per_pop;
  ]
