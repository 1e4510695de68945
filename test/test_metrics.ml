module Design = Tdf_netlist.Design
module Placement = Tdf_netlist.Placement
module Net = Tdf_netlist.Net
module D = Tdf_metrics.Displacement
module H = Tdf_metrics.Hpwl
module Legality = Tdf_metrics.Legality

let design_with_nets () =
  let cells =
    [|
      Fixtures.cell ~id:0 ~w0:4 ~w1:4 ~x:0 ~y:0 ~z:0. ();
      Fixtures.cell ~id:1 ~w0:4 ~w1:4 ~x:20 ~y:10 ~z:0. ();
      Fixtures.cell ~id:2 ~w0:4 ~w1:4 ~x:40 ~y:20 ~z:0.9 ();
    |]
  in
  let nets = [| Net.make ~id:0 ~pins:[| 0; 1; 2 |] () |] in
  Design.make ~name:"nets" ~dies:(Fixtures.two_dies ()) ~cells ~nets ()

let test_displacement_summary () =
  let d = design_with_nets () in
  let p = Placement.initial d in
  p.Placement.x.(0) <- 5;
  (* dx=5 *)
  p.Placement.y.(1) <- 30;
  (* dy=20 *)
  let s = D.summary d p in
  (* normalized by row height 10: 0.5, 2.0, 0 *)
  Alcotest.(check (float 1e-9)) "avg" ((0.5 +. 2.0) /. 3.) s.D.avg_norm;
  Alcotest.(check (float 1e-9)) "max" 2.0 s.D.max_norm;
  Alcotest.(check int) "max raw" 20 s.D.max_raw;
  Alcotest.(check (float 1e-9)) "per-cell" 0.5 (D.per_cell d p 0)

let test_displacement_norm_per_die () =
  (* cell on die 1 with row height 20: same raw disp, half the norm *)
  let dies = Fixtures.two_dies ~row_height_top:20 () in
  let cells = [| Fixtures.cell ~id:0 ~x:0 ~y:0 ~z:0.9 () |] in
  let d = Design.make ~name:"h" ~dies ~cells () in
  let p = Placement.initial d in
  p.Placement.x.(0) <- 20;
  Alcotest.(check (float 1e-9)) "normalized by die-1 height" 1.0 (D.per_cell d p 0)

let test_hpwl_global () =
  let d = design_with_nets () in
  (* centers: (2,5), (22,15), (42,25) -> bbox 40 + 20 = 60 *)
  Alcotest.(check (float 1e-9)) "global hpwl" 60. (H.of_global d)

let test_hpwl_increase () =
  let d = design_with_nets () in
  let p = Placement.initial d in
  Alcotest.(check (float 1e-9)) "no move, no increase" 0. (H.increase_pct d p);
  p.Placement.x.(2) <- 60;
  (* bbox 60 + 20 = 80 -> +33.3% *)
  Alcotest.(check (float 1e-6)) "increase pct" (100. *. 20. /. 60.)
    (H.increase_pct d p)

let test_hpwl_no_nets () =
  let d = Fixtures.clustered () in
  let d = Design.make ~name:"nonets" ~dies:d.Design.dies ~cells:d.Design.cells () in
  Alcotest.(check (float 0.)) "0 when no nets" 0.
    (H.increase_pct d (Placement.initial d))

let legal_placement d =
  (Tdf_legalizer.Flow3d.legalize d).Tdf_legalizer.Flow3d.placement

let test_legality_accepts_legal () =
  let d = Fixtures.with_macro () in
  let p = legal_placement d in
  Alcotest.(check int) "no violations" 0 (Legality.check d p).Legality.n_violations;
  Alcotest.(check bool) "is_legal" true (Legality.is_legal d p)

let test_legality_detects_overlap () =
  let d = Fixtures.clustered () in
  let p = legal_placement d in
  p.Placement.x.(1) <- p.Placement.x.(0);
  p.Placement.y.(1) <- p.Placement.y.(0);
  p.Placement.die.(1) <- p.Placement.die.(0);
  let rep = Legality.check d p in
  Alcotest.(check bool) "overlap found" true (rep.Legality.n_violations > 0);
  Alcotest.(check bool) "overlap area > 0" true (rep.Legality.overlap_area > 0)

let test_legality_detects_row_misalignment () =
  let d = Fixtures.clustered () in
  let p = legal_placement d in
  p.Placement.y.(0) <- p.Placement.y.(0) + 3;
  Alcotest.(check bool) "misalignment found" true
    ((Legality.check d p).Legality.n_violations > 0)

let test_legality_detects_outside () =
  let d = Fixtures.clustered () in
  let p = legal_placement d in
  p.Placement.x.(0) <- 99;
  (* width 6 escapes the 100-wide die *)
  Alcotest.(check bool) "outside found" true
    ((Legality.check d p).Legality.n_violations > 0)

let test_legality_detects_macro_overlap () =
  let d = Fixtures.with_macro () in
  let p = legal_placement d in
  (* macro on die 0 spans x 40-60, y 10-30 *)
  p.Placement.x.(0) <- 45;
  p.Placement.y.(0) <- 10;
  p.Placement.die.(0) <- 0;
  Alcotest.(check bool) "macro overlap found" true
    ((Legality.check d p).Legality.n_violations > 0)

let test_legality_detects_bad_die () =
  let d = Fixtures.clustered () in
  let p = legal_placement d in
  p.Placement.die.(0) <- 7;
  Alcotest.(check bool) "bad die found" true
    ((Legality.check d p).Legality.n_violations > 0)

let test_legality_site_misalignment () =
  let dies =
    [|
      Tdf_netlist.Die.make ~index:0
        ~outline:(Tdf_geometry.Rect.make ~x:0 ~y:0 ~w:100 ~h:40)
        ~row_height:10 ~site_width:4 ();
      Tdf_netlist.Die.make ~index:1
        ~outline:(Tdf_geometry.Rect.make ~x:0 ~y:0 ~w:100 ~h:40)
        ~row_height:10 ~site_width:4 ();
    |]
  in
  let cells = [| Fixtures.cell ~id:0 ~x:0 ~y:0 ~z:0. () |] in
  let d = Design.make ~name:"site" ~dies ~cells () in
  let p = Placement.initial d in
  p.Placement.x.(0) <- 6;
  (* not a multiple of 4 *)
  Alcotest.(check bool) "site misalignment found" true
    ((Legality.check d p).Legality.n_violations > 0);
  p.Placement.x.(0) <- 8;
  Alcotest.(check int) "aligned ok" 0 (Legality.check d p).Legality.n_violations

(* ---- flat HPWL against its closure-based oracle ------------------------ *)

(* A design spanning several 4,096-net chunks, with single-pin nets and,
   when [empty], zero-pin nets (built as records: [Net.make] refuses
   them), plus a random placement on either die.  Coordinates mix small
   values with ones near 2^45, so the float sums round and their order
   shows in the bits. *)
let wide_design ~empty seed =
  let rng = Tdf_util.Prng.create seed in
  let prng_int = Tdf_util.Prng.int rng in
  let coord () =
    if prng_int 4 = 0 then (1 lsl 45) + prng_int 1_000_000 else prng_int 100
  in
  let n = 3000 in
  let cells =
    Array.init n (fun id ->
        Fixtures.cell ~id ~w0:(1 + prng_int 9) ~w1:(1 + prng_int 9)
          ~x:(coord ()) ~y:(coord ())
          ~z:(Tdf_util.Prng.float rng 1.6 -. 0.3)
          ())
  in
  let nets =
    Array.init (2 * 4096 + prng_int 3000) (fun id ->
        let k =
          match prng_int 10 with
          | 0 -> if empty then 0 else 1
          | 1 -> 1
          | 2 -> 20 + prng_int 40
          | _ -> 2 + prng_int 6
        in
        { Net.id; name = Printf.sprintf "n%d" id; pins = Array.init k (fun _ -> prng_int n) })
  in
  let d =
    Design.make ~name:"wide"
      ~dies:(Fixtures.two_dies ~row_height_top:12 ())
      ~cells ~nets ()
  in
  let p = Placement.initial d in
  Array.iteri
    (fun c _ ->
      p.Placement.x.(c) <- coord ();
      p.Placement.y.(c) <- coord ();
      p.Placement.die.(c) <- prng_int 2)
    p.Placement.x;
  (d, p)

let test_hpwl_oracle () =
  let bits = Int64.bits_of_float in
  let before = Tdf_par.jobs () in
  Fun.protect
    ~finally:(fun () -> Tdf_par.set_jobs before)
    (fun () ->
      List.iter
        (fun jobs ->
          Tdf_par.set_jobs jobs;
          List.iter
            (fun (seed, empty) ->
              let d, p = wide_design ~empty seed in
              let what = Printf.sprintf "seed %d jobs %d" seed jobs in
              Alcotest.(check int64) ("of_placement " ^ what)
                (bits (Ref_hpwl.of_placement d p)) (bits (H.of_placement d p));
              Alcotest.(check int64) ("of_global " ^ what)
                (bits (Ref_hpwl.of_global d)) (bits (H.of_global d));
              Alcotest.(check int64) ("increase_pct " ^ what)
                (bits (Ref_hpwl.increase_pct d p)) (bits (H.increase_pct d p)))
            [ (1, false); (2, false); (3, true) ])
        [ 1; 2 ])

(* A net visiting a cell whose centre cannot be computed raises as the
   per-pin computation did; an unreferenced one costs nothing. *)
let test_hpwl_bad_die () =
  let d0, p0 = wide_design ~empty:false 4 in
  (* one more cell, on no net *)
  let unused = Design.n_cells d0 in
  let d =
    Design.make ~name:"wide+1" ~dies:d0.Design.dies
      ~cells:(Array.append d0.Design.cells [| Fixtures.cell ~id:unused ~x:0 ~y:0 ~z:0. () |])
      ~nets:d0.Design.nets ()
  in
  let p =
    {
      Placement.x = Array.append p0.Placement.x [| 0 |];
      y = Array.append p0.Placement.y [| 0 |];
      die = Array.append p0.Placement.die [| 7 |];
    }
  in
  let nets = d.Design.nets in
  Alcotest.(check int64) "unreferenced bad die"
    (Int64.bits_of_float (Ref_hpwl.of_placement d p))
    (Int64.bits_of_float (H.of_placement d p));
  p.Placement.die.(nets.(0).Net.pins.(0)) <- -1;
  let outcome f = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e) in
  Alcotest.(check bool) "referenced bad die" true
    (outcome (fun () -> Ref_hpwl.of_placement d p) = outcome (fun () -> H.of_placement d p)
    && Result.is_error (outcome (fun () -> H.of_placement d p)))

let suite =
  [
    Alcotest.test_case "hpwl = closure oracle, bitwise" `Quick test_hpwl_oracle;
    Alcotest.test_case "hpwl: bad die only where referenced" `Quick test_hpwl_bad_die;
    Alcotest.test_case "displacement summary" `Quick test_displacement_summary;
    Alcotest.test_case "per-die normalization" `Quick test_displacement_norm_per_die;
    Alcotest.test_case "hpwl global" `Quick test_hpwl_global;
    Alcotest.test_case "hpwl increase" `Quick test_hpwl_increase;
    Alcotest.test_case "hpwl no nets" `Quick test_hpwl_no_nets;
    Alcotest.test_case "legality accepts legal" `Quick test_legality_accepts_legal;
    Alcotest.test_case "legality overlap" `Quick test_legality_detects_overlap;
    Alcotest.test_case "legality row misalignment" `Quick
      test_legality_detects_row_misalignment;
    Alcotest.test_case "legality outside" `Quick test_legality_detects_outside;
    Alcotest.test_case "legality macro overlap" `Quick
      test_legality_detects_macro_overlap;
    Alcotest.test_case "legality bad die" `Quick test_legality_detects_bad_die;
    Alcotest.test_case "legality site misalignment" `Quick
      test_legality_site_misalignment;
  ]
